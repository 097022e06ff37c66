//! The result line every run prints, the metric catalogue it is checked
//! against, and the small statistics the workloads share.

use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicIsize, Ordering};

/// End-to-end metrics, printed by every untraced run of every workload:
/// `(name, unit)`.  Each workload defines them on its own path (README.md).
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("mem_mb", "MiB"),
    ("cpu_us_per_item", "us"),
    ("rms_err_pct", "%"),
    ("kendall_tau", "1"),
    ("coverage_pct", "%"),
];

/// Per-layer metrics, printed by every traced run: `(name, unit)`.  A layer
/// that does no work in a workload reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("machine.kernels", "count"),
    ("machine.distinct_kernels", "count"),
    ("machine.memo_hit_ratio", "ratio"),
    ("machine.busy_s", "s"),
    ("machine.wall_s", "s"),
    ("core.train_s", "s"),
    ("core.self_s", "s"),
    ("core.select_s", "s"),
    ("core.lp1_s", "s"),
    ("core.lp2_s", "s"),
    ("core.lpaux_s", "s"),
    ("core.lp2_rounds", "count"),
    ("core.resources", "count"),
    ("core.basic_insts", "count"),
    ("core.skipped", "count"),
    ("eval.rms_err_pct.skl.spec", "%"),
    ("eval.rms_err_pct.skl.polybench", "%"),
    ("eval.rms_err_pct.zen.spec", "%"),
    ("eval.rms_err_pct.zen.polybench", "%"),
    ("eval.tau.skl.spec", "1"),
    ("eval.tau.skl.polybench", "1"),
    ("eval.tau.zen.spec", "1"),
    ("eval.tau.zen.polybench", "1"),
    ("eval.oracle_rms_err_pct.skl", "%"),
    ("eval.oracle_rms_err_pct.zen", "%"),
    ("serve.parse_us_per_kblock", "us"),
    ("serve.predict_us_per_kblock", "us"),
    ("serve.distinct_ratio", "ratio"),
    ("serve.blocks_per_s", "1/s"),
    ("serve.swap_p50_ms", "ms"),
    ("serve.post_swap_rtt_ms", "ms"),
    ("wire.decode_us_per_req", "us"),
    ("wire.execute_us_per_req", "us"),
    ("wire.encode_us_per_req", "us"),
    ("wire.transport_us_per_req", "us"),
    ("wire.rtt_p50_ms", "ms"),
    ("wire.rtt_p90_ms", "ms"),
    ("wire.rtt_p99_ms", "ms"),
    ("wire.request_kb", "KiB"),
    ("wire.response_kb", "KiB"),
    ("wire.pumps_per_wakeup", "ratio"),
    ("wire.cache_hit_ratio", "ratio"),
    ("wire.server_mean_us", "us"),
    ("obs.overhead_pct", "%"),
];

/// What one run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output checked and found correct.
    pub correct: bool,
    /// Operations attempted (instructions offered, or requests sent).
    pub attempted: u64,
    /// Operations that failed (unmapped instructions, or bad replies).
    pub failed: u64,
    /// Measured values by metric name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a metric of [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END
                .iter()
                .chain(PER_LAYER)
                .any(|(known, _)| *known == name),
            "metric `{name}` is in neither catalogue"
        );
        self.metrics.insert(name, value);
    }

    /// Renders the result line: the metrics of `catalogue`, in its order,
    /// with 0 for any the workload did not measure.
    pub fn render_json(&self, catalogue: &[(&'static str, &'static str)]) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, unit)) in catalogue.iter().enumerate() {
            let value = self.metrics.get(name).copied().unwrap_or(0.0);
            let value = if value.is_finite() { value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            )
            .expect("writing to a String cannot fail");
        }
        out.push_str("}}");
        out
    }
}

/// Median of `values` (mean of the middle pair for an even count); 0 when
/// empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The `q`-quantile of `values` by the nearest-rank rule (a measured value,
/// never an interpolation); 0 when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Mean of `values`; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// CPU clocks.  A paravirtualised Linux guest charges no stolen time to a
/// task, so these clocks measure the program's own work even when the host
/// takes the virtual CPUs away.
mod cpu {
    use std::ffi::{c_int, c_long};

    #[repr(C)]
    struct Timespec {
        tv_sec: c_long,
        tv_nsec: c_long,
    }

    extern "C" {
        fn clock_gettime(clock: c_int, tp: *mut Timespec) -> c_int;
    }

    pub const PROCESS: c_int = 2;
    pub const THREAD: c_int = 3;

    /// Seconds on `clock`.
    pub fn seconds(clock: c_int) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a live, exclusively borrowed `repr(C)` timespec,
        // the only memory clock_gettime(2) writes.
        let rc = unsafe { clock_gettime(clock, &mut ts) };
        assert_eq!(rc, 0, "the CPU-time clocks exist on Linux");
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// CPU seconds used by every thread of this process so far.
pub fn process_cpu_s() -> f64 {
    cpu::seconds(cpu::PROCESS)
}

/// CPU seconds used by the calling thread so far.
pub fn thread_cpu_s() -> f64 {
    cpu::seconds(cpu::THREAD)
}

/// The global allocator: the system allocator, counting live heap bytes
/// and their peak so `mem_mb` sees what the program holds, not what the
/// allocator happens to keep resident.
pub struct CountingAlloc;

static LIVE: AtomicIsize = AtomicIsize::new(0);
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn track(delta: isize) {
    // Relaxed: the counters are statistics and publish no other data.
    let live = LIVE.fetch_add(delta, Ordering::Relaxed) + delta;
    if delta > 0 && live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no memory the
// allocator hands out.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            track(layout.size() as isize);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        track(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, plus the caller's `new_size` contract.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            track(new_size as isize - layout.size() as isize);
        }
        new
    }
}

/// Peak growth of live heap bytes over a measured window.
#[derive(Debug)]
pub struct MemWatch {
    baseline: isize,
}

impl MemWatch {
    /// Starts watching from the bytes live now (when input generation
    /// ends).
    pub fn start() -> MemWatch {
        let baseline = LIVE.load(Ordering::Relaxed);
        PEAK.store(baseline, Ordering::Relaxed);
        MemWatch { baseline }
    }

    /// Growth of the peak over the baseline, in MiB.
    pub fn growth_mib(&self) -> f64 {
        (PEAK.load(Ordering::Relaxed) - self.baseline) as f64 / (1024.0 * 1024.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_measured_values() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&values, 0.5), 50.0);
        assert_eq!(quantile(&values, 0.99), 99.0);
        assert_eq!(quantile(&values, 1.0), 100.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn result_line_lists_every_catalogued_metric_in_order() {
        let mut outcome = Outcome {
            correct: true,
            attempted: 3,
            failed: 0,
            ..Outcome::default()
        };
        outcome.set("setup_s", 0.125);
        let line = outcome.render_json(END_TO_END);
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 3, \"failed\": 0,"));
        assert!(line.contains("\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}"));
        assert!(line.contains("\"coverage_pct\": {\"value\": 0.0, \"unit\": \"%\"}"));
    }

    /// The catalogue and `BENCHMARK.json` name the same metrics with the
    /// same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json =
            std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
        for (section, catalogue) in [("\"end_to_end\"", END_TO_END), ("\"per_layer\"", PER_LAYER)] {
            let start = json.find(section).expect("section present");
            let body = &json[start..];
            let body = &body[..body.find(']').expect("section closes")];
            let listed: Vec<(String, String)> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|rest| {
                    let name = rest[..rest.find('"').unwrap()].to_string();
                    let unit_at = rest.find("\"unit\": \"").unwrap() + 9;
                    let unit =
                        rest[unit_at..unit_at + rest[unit_at..].find('"').unwrap()].to_string();
                    (name, unit)
                })
                .collect();
            let expected: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, expected, "{section} differs from the catalogue");
        }
    }
}
