//! `palmed-perfbench`: the benchmark of the Palmed training and serving
//! paths (README.md has the workloads, metrics and trace format).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|serve_cold|serve_hot> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is the result:
//! `{"correct", "attempted", "failed", "metrics"}`, with the end-to-end
//! metrics when `--trace 0` and the per-layer metrics when `--trace 1`.  A
//! traced run also writes its spans to
//! `.bench_out/<workload>-seed<n>.spans.jsonl`.  The exit code is 0 only
//! when every output was checked correct and no operation failed.

mod gen;
mod report;
mod serve;
mod trace;
mod train;

use std::process::ExitCode;

#[global_allocator]
static ALLOC: report::CountingAlloc = report::CountingAlloc;

/// The workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Train and score both presets.
    Train,
    /// Fresh corpora over the socket.
    ServeCold,
    /// Repeated corpora and model swaps over the socket.
    ServeHot,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "train" => Some(Workload::Train),
            "serve_cold" => Some(Workload::ServeCold),
            "serve_hot" => Some(Workload::ServeHot),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::ServeCold => "serve_cold",
            Workload::ServeHot => "serve_hot",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// The workload to run.
    pub workload: Workload,
    /// Seed of every generated input.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 0, 10.0, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad seed `{value}`"))?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| *s > 0.0 && s.is_finite())
                    .ok_or_else(|| format!("bad seconds `{value}`"))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                };
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    palmed_obs::set_enabled(false);
    let mut tracer = trace::Tracer::new(false);
    let outcome = match args.workload {
        Workload::Train => train::run(&args, &mut tracer),
        Workload::ServeCold => serve::run(&args, serve::Mode::Cold, &mut tracer),
        Workload::ServeHot => serve::run(&args, serve::Mode::Hot, &mut tracer),
    };
    let catalogue = if args.trace {
        report::PER_LAYER
    } else {
        report::END_TO_END
    };
    if args.trace {
        let path = format!(
            "{}/{}-seed{}.spans.jsonl",
            serve::OUT_DIR,
            args.workload.name(),
            args.seed
        );
        let written = std::fs::create_dir_all(serve::OUT_DIR)
            .and_then(|()| std::fs::write(&path, tracer.to_jsonl()));
        if let Err(e) = written {
            eprintln!("perfbench: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!("{}", outcome.render_json(catalogue));
    if outcome.correct && outcome.failed == 0 && outcome.attempted > 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
