//! The `train` workload: `Palmed::infer` on the SKL-like and Zen1-like
//! presets at the quick inventory, on the cycle-simulation back-end with
//! realistic noise, each mapping then scored against native IPC.  This is
//! Table II (time, microbenchmarks) and Fig. 4b (RMS error, Kendall τ,
//! coverage) of the paper; `machine` and `core` do the work.

use crate::gen::{self, TrainPlan, KINDS};
use crate::report::{self, MemWatch, Outcome};
use crate::trace::Tracer;
use crate::Args;
use palmed_core::dual::{dual_of, DualOptions};
use palmed_core::{Palmed, PalmedConfig, PalmedPredictor, PalmedResult};
use palmed_eval::suite::generate_suite;
use palmed_eval::{evaluate_tool, BasicBlock, CampaignConfig, SuiteConfig, ToolMetrics};
use palmed_isa::{InstructionSet, Microkernel};
use palmed_machine::presets::{self, PresetMachine};
use palmed_machine::{BackendMeasurer, Measurer, MemoizingMeasurer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Set-ups timed per run; the median is reported.
const SETUP_REPS: usize = 25;

const CELL_RMS: [&str; 4] = [
    "eval.rms_err_pct.skl.spec",
    "eval.rms_err_pct.skl.polybench",
    "eval.rms_err_pct.zen.spec",
    "eval.rms_err_pct.zen.polybench",
];
const CELL_TAU: [&str; 4] = [
    "eval.tau.skl.spec",
    "eval.tau.skl.polybench",
    "eval.tau.zen.spec",
    "eval.tau.zen.polybench",
];
const ORACLE_RMS: [&str; 2] = ["eval.oracle_rms_err_pct.skl", "eval.oracle_rms_err_pct.zen"];

/// The two evaluation machines, in metric order (SKL-like, Zen1-like).
pub fn build_presets() -> [PresetMachine; 2] {
    let inventory = gen::inventory();
    [presets::skl_sp(&inventory), presets::zen1(&inventory)]
}

/// A native measurer of `preset` under `noise`: the device the campaign
/// trains on and scores against.
fn device(preset: &PresetMachine, noise: palmed_machine::MeasurementNoise) -> BackendMeasurer {
    BackendMeasurer::new(CampaignConfig::quick().backend, preset.mapping_arc(), noise)
}

/// A scored suite of one machine: blocks and their native IPC.
struct Cell {
    machine: usize,
    blocks: Vec<BasicBlock>,
    native: Vec<f64>,
}

fn scored_cells(presets: &[PresetMachine; 2], plan: &TrainPlan, suite: &SuiteConfig) -> Vec<Cell> {
    let mut cells = Vec::new();
    for (machine, preset) in presets.iter().enumerate() {
        let native = device(preset, plan.native_noise);
        for kind in KINDS {
            let blocks = generate_suite(kind, &preset.instructions, suite);
            let native = palmed_par::par_map(&blocks, |b| native.ipc(&b.kernel));
            cells.push(Cell {
                machine,
                blocks,
                native,
            });
        }
    }
    cells
}

/// Inputs and references, generated before set-up.
struct Inputs {
    /// The quick campaign's suites (`figure4`'s cells), in metric order.
    cells: Vec<Cell>,
    /// The larger scoring suites behind the end-to-end accuracy.
    score: Vec<Cell>,
    /// The ∇-dual oracle's RMS error per machine over its `cells`.
    oracle_rms: [f64; 2],
}

impl Inputs {
    fn generate(plan: &TrainPlan) -> Inputs {
        let presets = build_presets();
        let cells = scored_cells(&presets, plan, &plan.cell_suite);
        let score = scored_cells(&presets, plan, &plan.score_suite);
        let oracle_rms = std::array::from_fn(|m| {
            let oracle = PalmedPredictor::with_name(
                "oracle",
                dual_of(&presets[m].mapping(), &DualOptions::default()),
            );
            let errors: Vec<f64> = cells
                .iter()
                .filter(|c| c.machine == m)
                .map(|c| evaluate_tool(&oracle, &c.blocks, &c.native).rms_error)
                .collect();
            report::mean(&errors)
        });
        Inputs {
            cells,
            score,
            oracle_rms,
        }
    }
}

/// The trainer's set-up: the presets and their training measurers.
fn set_up(plan: &TrainPlan) -> [BackendMeasurer; 2] {
    let presets = build_presets();
    std::array::from_fn(|m| device(&presets[m], plan.training_noise))
}

/// Counts every measurement request Palmed makes (placed over the memo).
#[derive(Debug)]
pub struct CountCalls<M> {
    inner: M,
    calls: AtomicU64,
}

impl<M: Measurer> CountCalls<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        CountCalls {
            inner,
            calls: AtomicU64::new(0),
        }
    }

    /// Calls so far.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// The wrapped measurer.
    pub fn into_inner(self) -> M {
        self.inner
    }
}

impl<M: Measurer> Measurer for CountCalls<M> {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.inner.ipc(kernel)
    }

    fn instructions(&self) -> &InstructionSet {
        self.inner.instructions()
    }

    fn measurement_count(&self) -> usize {
        self.inner.measurement_count()
    }
}

/// Wall time during which at least one measurement is in flight.
#[derive(Debug, Default)]
struct InFlight {
    active: usize,
    since: Option<Instant>,
    wall: Duration,
}

/// Times the measurement back-end (placed under the memo): kernels
/// measured, CPU-seconds inside `ipc`, and wall time with at least one
/// measurement in flight.
#[derive(Debug)]
pub struct TimeBackend<M> {
    inner: M,
    calls: AtomicU64,
    busy_ns: AtomicU64,
    flight: Mutex<InFlight>,
}

impl<M: Measurer> TimeBackend<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Self {
        TimeBackend {
            inner,
            calls: AtomicU64::new(0),
            busy_ns: AtomicU64::new(0),
            flight: Mutex::new(InFlight::default()),
        }
    }

    /// Kernels measured, CPU-seconds inside the back-end, and wall seconds
    /// with a measurement in flight.
    pub fn totals(&self) -> (u64, f64, f64) {
        let wall = self
            .flight
            .lock()
            .expect("in-flight lock not poisoned")
            .wall;
        (
            self.calls.load(Ordering::Relaxed),
            self.busy_ns.load(Ordering::Relaxed) as f64 * 1e-9,
            wall.as_secs_f64(),
        )
    }
}

impl<M: Measurer> Measurer for TimeBackend<M> {
    fn ipc(&self, kernel: &Microkernel) -> f64 {
        {
            let mut flight = self.flight.lock().expect("in-flight lock not poisoned");
            if flight.active == 0 {
                flight.since = Some(Instant::now());
            }
            flight.active += 1;
        }
        let start = Instant::now();
        let ipc = self.inner.ipc(kernel);
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        let mut flight = self.flight.lock().expect("in-flight lock not poisoned");
        flight.active -= 1;
        if flight.active == 0 {
            if let Some(since) = flight.since.take() {
                flight.wall += since.elapsed();
            }
        }
        ipc
    }

    fn instructions(&self) -> &InstructionSet {
        self.inner.instructions()
    }

    fn measurement_count(&self) -> usize {
        self.inner.measurement_count()
    }
}

/// What the measurer wrappers saw during one training.
#[derive(Debug, Default, Clone, Copy)]
struct MachineLedger {
    requests: u64,
    kernels: u64,
    busy_s: f64,
    wall_s: f64,
}

/// One preset's training, as the benchmark checks and scores it.
#[derive(Debug, Clone)]
struct Training {
    infer_s: f64,
    /// Process CPU seconds (all threads) during `infer`.
    cpu_s: f64,
    distinct_kernels: usize,
    offered: usize,
    mapped: usize,
    resources: usize,
    basic: usize,
    ledger: Option<MachineLedger>,
}

/// `Palmed::infer` on `measurer`, with its wall and process CPU seconds.
fn timed_infer<M: Measurer + Sync>(measurer: &M) -> (PalmedResult, f64, f64) {
    let (cpu, start) = (report::process_cpu_s(), Instant::now());
    let result = Palmed::new(PalmedConfig::evaluation()).infer(measurer);
    (
        result,
        start.elapsed().as_secs_f64(),
        report::process_cpu_s() - cpu,
    )
}

/// Trains on `device`, optionally through the measurer wrappers.
fn train_one(device: &BackendMeasurer, wrapped: bool) -> (PalmedResult, Training) {
    let (result, infer_s, cpu_s, distinct, ledger) = if wrapped {
        let calls = CountCalls::new(MemoizingMeasurer::new(TimeBackend::new(device.clone())));
        let (result, infer_s, cpu_s) = timed_infer(&calls);
        let requests = calls.calls();
        let memo = calls.into_inner();
        let distinct = memo.distinct_kernels();
        let (kernels, busy_s, wall_s) = memo.into_inner().totals();
        (
            result,
            infer_s,
            cpu_s,
            distinct,
            Some(MachineLedger {
                requests,
                kernels,
                busy_s,
                wall_s,
            }),
        )
    } else {
        let memo = MemoizingMeasurer::new(device.clone());
        let (result, infer_s, cpu_s) = timed_infer(&memo);
        (result, infer_s, cpu_s, memo.distinct_kernels(), None)
    };
    let training = Training {
        infer_s,
        cpu_s,
        distinct_kernels: distinct,
        offered: result.report.instructions_total,
        mapped: result.report.instructions_mapped,
        resources: result.report.resources_found,
        basic: result.report.basic_instructions,
        ledger,
    };
    (result, training)
}

/// Scores of one mapping on every cell of its machine.
fn score(predictor: &PalmedPredictor, cells: &[Cell], machine: usize) -> Vec<ToolMetrics> {
    cells
        .iter()
        .filter(|c| c.machine == machine)
        .map(|c| evaluate_tool(predictor, &c.blocks, &c.native))
        .collect()
}

/// One iteration: both presets trained and scored.
struct Iteration {
    trainings: Vec<Training>,
    /// Per-cell metrics on the quick suites, in metric order.
    cells: Vec<ToolMetrics>,
    /// Per-cell metrics on the scoring suites.
    score: Vec<ToolMetrics>,
    /// `span.trainer.*` sums (s) and LP2 rounds, when traced.
    stages: Option<[f64; 5]>,
}

impl Iteration {
    fn train_s(&self) -> f64 {
        self.trainings.iter().map(|t| t.infer_s).sum()
    }

    /// The bits every iteration of a run must reproduce.
    fn fingerprint(&self) -> Vec<u64> {
        let mut bits: Vec<u64> = self
            .cells
            .iter()
            .chain(&self.score)
            .flat_map(|m| {
                [
                    m.rms_error.to_bits(),
                    m.kendall_tau.to_bits(),
                    m.coverage.to_bits(),
                ]
            })
            .collect();
        for t in &self.trainings {
            bits.extend([t.distinct_kernels, t.mapped, t.resources, t.basic].map(|v| v as u64));
        }
        bits
    }
}

fn stage_totals() -> [f64; 5] {
    let snapshot = palmed_obs::snapshot();
    let span = |name: &str| {
        snapshot
            .histogram(name)
            .map_or(0.0, |h| h.sum as f64 * 1e-9)
    };
    [
        span("span.trainer.select"),
        span("span.trainer.lp1"),
        span("span.trainer.lp2"),
        span("span.trainer.lpaux"),
        snapshot.counter("trainer.lp2.rounds").unwrap_or(0) as f64,
    ]
}

fn iterate(
    devices: &[BackendMeasurer; 2],
    inputs: &Inputs,
    tracer: &mut Tracer,
    index: u64,
) -> Iteration {
    let traced = tracer.enabled();
    let before = traced.then(stage_totals);
    let root = tracer.open("train.iteration", None, index);
    let mut trainings = Vec::new();
    let mut cells = Vec::new();
    let mut scored = Vec::new();
    for (machine, device) in devices.iter().enumerate() {
        let infer = tracer.open("core.infer", root, index);
        let (result, training) = train_one(device, traced);
        tracer.close(infer);
        let scoring = tracer.open("eval.score", root, index);
        let predictor = result.predictor();
        cells.extend(score(&predictor, &inputs.cells, machine));
        scored.extend(score(&predictor, &inputs.score, machine));
        tracer.close(scoring);
        trainings.push(training);
    }
    tracer.close(root);
    let stages = before.map(|before| {
        let after = stage_totals();
        std::array::from_fn(|i| after[i] - before[i])
    });
    Iteration {
        trainings,
        cells,
        score: scored,
        stages,
    }
}

/// Runs iterations until `seconds` have passed (at least one).
fn window(
    devices: &[BackendMeasurer; 2],
    inputs: &Inputs,
    tracer: &mut Tracer,
    seconds: f64,
    next_index: &mut u64,
) -> Vec<Iteration> {
    let start = Instant::now();
    let mut iterations = Vec::new();
    while iterations.is_empty() || start.elapsed().as_secs_f64() < seconds {
        iterations.push(iterate(devices, inputs, tracer, *next_index));
        *next_index += 1;
    }
    iterations
}

/// Runs the workload.
pub fn run(args: &Args, tracer: &mut Tracer) -> Outcome {
    let plan = TrainPlan::new(args.seed);
    let inputs = Inputs::generate(&plan);
    let mem = MemWatch::start();

    let mut setup_s = Vec::new();
    let mut devices = None;
    for _ in 0..SETUP_REPS {
        let cpu = report::process_cpu_s();
        devices = Some(std::hint::black_box(set_up(&plan)));
        setup_s.push(report::process_cpu_s() - cpu);
    }
    let devices = devices.expect("at least one set-up");

    let mut index = 0;
    let (untraced, traced) = if args.trace {
        tracer.set_enabled(false);
        let untraced = window(&devices, &inputs, tracer, args.seconds / 2.0, &mut index);
        tracer.set_enabled(true);
        palmed_obs::set_enabled(true);
        let traced = window(&devices, &inputs, tracer, args.seconds / 2.0, &mut index);
        palmed_obs::set_enabled(false);
        (untraced, traced)
    } else {
        (
            window(&devices, &inputs, tracer, args.seconds, &mut index),
            Vec::new(),
        )
    };

    let all: Vec<&Iteration> = untraced.iter().chain(&traced).collect();
    let first = all[0];
    let deterministic = all.iter().all(|it| it.fingerprint() == first.fingerprint());
    let sane = first.score.iter().chain(&first.cells).all(|m| {
        m.rms_error.is_finite()
            && m.rms_error < 1.0
            && m.kendall_tau.is_finite()
            && m.coverage > 0.0
    });
    if !deterministic {
        eprintln!("perfbench train: iterations of one run trained different mappings");
    }
    let trainings = all.iter().flat_map(|it| &it.trainings);
    let attempted: usize = trainings.clone().map(|t| t.offered).sum();
    let mapped: usize = trainings.clone().map(|t| t.mapped).sum();

    let mut out = Outcome {
        correct: deterministic && sane,
        attempted: attempted as u64,
        failed: (attempted - mapped) as u64,
        ..Outcome::default()
    };
    if args.trace {
        layer_metrics(&mut out, &untraced, &traced, &inputs);
    } else {
        let window_mapped: usize = untraced
            .iter()
            .flat_map(|it| &it.trainings)
            .map(|t| t.mapped)
            .sum();
        out.set("setup_s", report::median(&setup_s));
        out.set("mem_mb", mem.growth_mib());
        let cpu_s: f64 = untraced
            .iter()
            .flat_map(|it| &it.trainings)
            .map(|t| t.cpu_s)
            .sum();
        out.set("cpu_us_per_item", cpu_s / window_mapped as f64 * 1e6);
        let rms: Vec<f64> = first.score.iter().map(|m| m.rms_error * 100.0).collect();
        let tau: Vec<f64> = first.score.iter().map(|m| m.kendall_tau).collect();
        out.set("rms_err_pct", report::mean(&rms));
        out.set("kendall_tau", report::mean(&tau));
        let coverage = first
            .score
            .iter()
            .map(|m| m.coverage)
            .fold(f64::INFINITY, f64::min);
        out.set("coverage_pct", coverage * 100.0);
    }
    out
}

fn layer_metrics(out: &mut Outcome, untraced: &[Iteration], traced: &[Iteration], inputs: &Inputs) {
    let per_iteration = |f: &dyn Fn(&Iteration) -> f64| -> f64 {
        report::median(&traced.iter().map(f).collect::<Vec<_>>())
    };
    let ledger = |it: &Iteration| -> MachineLedger {
        it.trainings
            .iter()
            .filter_map(|t| t.ledger)
            .fold(MachineLedger::default(), |a, l| MachineLedger {
                requests: a.requests + l.requests,
                kernels: a.kernels + l.kernels,
                busy_s: a.busy_s + l.busy_s,
                wall_s: a.wall_s + l.wall_s,
            })
    };
    out.set(
        "machine.kernels",
        per_iteration(&|it| ledger(it).kernels as f64),
    );
    out.set(
        "machine.distinct_kernels",
        per_iteration(&|it| it.trainings.iter().map(|t| t.distinct_kernels as f64).sum()),
    );
    out.set(
        "machine.memo_hit_ratio",
        per_iteration(&|it| {
            let l = ledger(it);
            1.0 - l.kernels as f64 / l.requests.max(1) as f64
        }),
    );
    out.set("machine.busy_s", per_iteration(&|it| ledger(it).busy_s));
    out.set("machine.wall_s", per_iteration(&|it| ledger(it).wall_s));
    out.set("core.train_s", per_iteration(&Iteration::train_s));
    out.set(
        "core.self_s",
        per_iteration(&|it| it.train_s() - ledger(it).wall_s),
    );
    for (i, name) in [
        "core.select_s",
        "core.lp1_s",
        "core.lp2_s",
        "core.lpaux_s",
        "core.lp2_rounds",
    ]
    .into_iter()
    .enumerate()
    {
        out.set(name, per_iteration(&|it| it.stages.map_or(0.0, |s| s[i])));
    }
    let sum = |f: &dyn Fn(&Training) -> usize| -> f64 {
        traced[0].trainings.iter().map(|t| f(t) as f64).sum()
    };
    out.set("core.resources", sum(&|t| t.resources));
    out.set("core.basic_insts", sum(&|t| t.basic));
    out.set("core.skipped", sum(&|t| t.offered - t.mapped));
    for (i, m) in traced[0].cells.iter().enumerate() {
        out.set(CELL_RMS[i], m.rms_error * 100.0);
        out.set(CELL_TAU[i], m.kendall_tau);
    }
    for (name, rms) in ORACLE_RMS.iter().zip(inputs.oracle_rms) {
        out.set(name, rms * 100.0);
    }
    let untraced_s = report::median(&untraced.iter().map(Iteration::train_s).collect::<Vec<_>>());
    let traced_s = per_iteration(&Iteration::train_s);
    out.set("obs.overhead_pct", (traced_s / untraced_s - 1.0) * 100.0);
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wrappers only observe: at one seed, wrapped training gives a
    /// mapping and accuracy bit-identical to unwrapped training.
    #[test]
    fn measurer_wrappers_do_not_change_training() {
        let plan = TrainPlan::new(0);
        let devices = set_up(&plan);
        let presets = build_presets();
        let cells = scored_cells(&presets, &plan, &plan.cell_suite);
        let (plain, plain_t) = train_one(&devices[0], false);
        let (wrapped, wrapped_t) = train_one(&devices[0], true);
        assert_eq!(plain.mapping, wrapped.mapping);
        assert_eq!(
            plain.report.benchmarks_generated,
            wrapped.report.benchmarks_generated
        );
        assert_eq!(plain_t.distinct_kernels, wrapped_t.distinct_kernels);
        let bits = |r: &PalmedResult| -> Vec<u64> {
            score(&r.predictor(), &cells, 0)
                .iter()
                .flat_map(|m| {
                    [
                        m.rms_error.to_bits(),
                        m.kendall_tau.to_bits(),
                        m.coverage.to_bits(),
                    ]
                })
                .collect()
        };
        assert_eq!(bits(&plain), bits(&wrapped));
        let ledger = wrapped_t.ledger.expect("wrapped training keeps a ledger");
        assert!(ledger.kernels as usize >= wrapped_t.distinct_kernels);
        assert!(ledger.requests > ledger.kernels, "the memo answers repeats");
        assert!(ledger.busy_s > 0.0 && ledger.wall_s > 0.0 && ledger.wall_s <= wrapped_t.infer_s);
    }

    /// Seed 0 scores the quick campaign's cells: `figure4`'s Palmed rows and
    /// Table II's microbenchmark counts.
    #[test]
    fn seed_zero_reproduces_the_quick_campaign() {
        let plan = TrainPlan::new(0);
        let inputs = Inputs::generate(&plan);
        let devices = set_up(&plan);
        let it = iterate(&devices, &inputs, &mut Tracer::new(false), 0);
        let rms: Vec<String> = it
            .cells
            .iter()
            .map(|m| format!("{:.1}", m.rms_error * 100.0))
            .collect();
        assert_eq!(rms, ["30.2", "25.9", "32.3", "36.8"]);
        let kernels: Vec<usize> = it.trainings.iter().map(|t| t.distinct_kernels).collect();
        assert_eq!(kernels, [5040, 4800]);
        assert!(it.trainings.iter().all(|t| t.mapped == t.offered));
    }
}
