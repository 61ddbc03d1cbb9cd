//! The paper-claim gates of E8–E13. Each verdict is a pure function of the
//! measured values (plus the host's core count for E9), so every threshold
//! is tested at its boundary without a clock. Workloads, sample counts and
//! trials live with the experiments in `paper_tables`.

use vgl_obs::json::Json;

/// One gate verdict: a measured value against its threshold.
#[derive(Clone, Debug)]
pub struct Gate {
    /// Experiment id, e.g. `e8`.
    pub experiment: &'static str,
    /// The workload the value was measured on.
    pub workload: String,
    /// What `measured` is, e.g. `speedup`.
    pub metric: &'static str,
    /// The measured value.
    pub measured: f64,
    /// The bound `measured` is held to.
    pub threshold: f64,
    /// How `measured` must compare with `threshold`: `f64::ge` for a
    /// floor, `f64::le` for a ceiling.
    pub within: fn(&f64, &f64) -> bool,
}

impl Gate {
    fn new(
        experiment: &'static str,
        workload: &str,
        metric: &'static str,
        measured: f64,
        threshold: f64,
        within: fn(&f64, &f64) -> bool,
    ) -> Gate {
        let workload = workload.to_string();
        Gate {
            experiment,
            workload,
            metric,
            measured,
            threshold,
            within,
        }
    }

    /// Whether `measured` is within `threshold`.
    pub fn pass(&self) -> bool {
        (self.within)(&self.measured, &self.threshold)
    }

    /// The verdict as one `gates` entry of a ledger row.
    pub fn to_json(&self) -> Json {
        let mut o = Json::object();
        o.set("experiment", Json::from(self.experiment));
        o.set("workload", Json::Str(self.workload.clone()));
        o.set("metric", Json::from(self.metric));
        o.set("measured", Json::Num(self.measured));
        o.set("threshold", Json::Num(self.threshold));
        o.set("pass", Json::Bool(self.pass()));
        o
    }
}

/// E8: fused code is at most 10% slower than unfused (`speedup` is
/// unfused/fused).
pub fn e8(workload: &str, speedup: f64) -> Gate {
    Gate::new("e8", workload, "speedup", speedup, 0.9, f64::ge)
}

/// E9: the largest measured jobs count (8, 4, 2 or 1) this host has cores
/// for — the configuration a user would pick here.
pub fn tuned_jobs(cores: usize) -> usize {
    [8, 4, 2, 1].into_iter().find(|&j| cores >= j).unwrap_or(1)
}

/// E9 cache gate: the per-instance cache at [`tuned_jobs`] is at least
/// 1.3× faster than jobs 1 with the cache off. The cache win needs no
/// cores, so this never relaxes.
pub fn e9_cache(workload: &str, speedup: f64) -> Gate {
    Gate::new("e9", workload, "cache speedup", speedup, 1.3, f64::ge)
}

/// E9 parallel gate: jobs 8 with the cache off against jobs 1. With 8 or
/// more cores it must be at least 3× faster; below that the speedup is
/// physically out of reach, and the idle workers may cost at most 1.5× the
/// serial time.
pub fn e9_parallel(workload: &str, cores: usize, speedup: f64) -> Gate {
    let floor = if cores >= 8 { 3.0 } else { 1.0 / 1.5 };
    Gate::new("e9", workload, "parallel speedup", speedup, floor, f64::ge)
}

/// E10: the default sampling profiler costs at most 5% (`overhead` is
/// profiled/plain − 1).
pub fn e10(workload: &str, overhead: f64) -> Gate {
    Gate::new("e10", workload, "overhead", overhead, 0.05, f64::le)
}

/// E11: the tiered VM is at least 1.5× faster than static fusion.
pub fn e11(workload: &str, speedup: f64) -> Gate {
    Gate::new("e11", workload, "speedup", speedup, 1.5, f64::ge)
}

/// E12: on every row the generational collector keeps at least 0.85× the
/// semispace throughput (the write-barrier tax). Only the steady-state row
/// also gates the p99 pause ratio, at most 0.5: with a tiny live set both
/// collectors pause near zero and the ratio is noise.
pub fn e12(workload: &str, steady: bool, pause_ratio: f64, throughput: f64) -> Vec<Gate> {
    let pause = Gate::new("e12", workload, "pause ratio", pause_ratio, 0.5, f64::le);
    let tput = Gate::new("e12", workload, "throughput", throughput, 0.85, f64::ge);
    if steady {
        vec![pause, tput]
    } else {
        vec![tput]
    }
}

/// E13: a batch of warm served edits is at least 1.3x faster than the same
/// compiles done cold (`speedup` is cold/warm), and the function store was
/// hit at least once, so the warm path really ran. The floor is what three
/// runs at CI's sample count all cleared once normalized bodies were
/// reused (1.37x to 1.47x), rounded down; it never falls.
pub fn e13(workload: &str, speedup: f64, store_hits: u64) -> [Gate; 2] {
    let hits = store_hits as f64;
    [
        Gate::new("e13", workload, "speedup", speedup, 1.3, f64::ge),
        Gate::new("e13", workload, "store hits", hits, 1.0, f64::ge),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Just past a boundary, on the failing side.
    const EPS: f64 = 1e-9;

    #[test]
    fn e8_passes_at_nine_tenths() {
        assert!(e8("w", 0.9).pass());
        assert!(!e8("w", 0.9 - EPS).pass());
    }

    #[test]
    fn e9_cache_passes_at_1_3() {
        assert!(e9_cache("w", 1.3).pass());
        assert!(!e9_cache("w", 1.3 - EPS).pass());
    }

    #[test]
    fn e9_parallel_gate_depends_on_the_core_count() {
        assert!(e9_parallel("w", 8, 3.0).pass());
        assert!(!e9_parallel("w", 8, 3.0 - EPS).pass());
        assert!(e9_parallel("w", 7, 1.0 / 1.5).pass());
        assert!(!e9_parallel("w", 7, 1.0 / 1.5 - EPS).pass());
    }

    #[test]
    fn e9_tunes_jobs_to_the_cores() {
        assert_eq!(tuned_jobs(1), 1);
        assert_eq!(tuned_jobs(2), 2);
        assert_eq!(tuned_jobs(6), 4);
        assert_eq!(tuned_jobs(16), 8);
    }

    #[test]
    fn e10_passes_at_five_percent() {
        assert!(e10("w", 0.05).pass());
        assert!(!e10("w", 0.05 + EPS).pass());
        assert!(e10("w", -0.04).pass());
    }

    #[test]
    fn e11_passes_at_1_5() {
        assert!(e11("w", 1.5).pass());
        assert!(!e11("w", 1.5 - EPS).pass());
    }

    #[test]
    fn e12_gates_pauses_on_the_steady_row_only() {
        let pass = |gates: Vec<Gate>| gates.iter().all(Gate::pass);
        assert!(pass(e12("steady", true, 0.5, 0.85)));
        assert!(!pass(e12("steady", true, 0.5 + EPS, 0.85)));
        assert!(!pass(e12("steady", true, 0.5, 0.85 - EPS)));
        assert_eq!(e12("churn", false, 0.9, 1.0).len(), 1);
        assert!(pass(e12("churn", false, 0.9, 0.85)));
        assert!(!pass(e12("churn", false, 0.1, 0.85 - EPS)));
    }

    #[test]
    fn e13_needs_the_speedup_floor_and_a_store_hit() {
        let pass = |gates: [Gate; 2]| gates.iter().all(Gate::pass);
        assert!(pass(e13("w", 1.3, 1)));
        assert!(!pass(e13("w", 1.3 - EPS, 1)));
        assert!(!pass(e13("w", 1.3, 0)));
    }
}
