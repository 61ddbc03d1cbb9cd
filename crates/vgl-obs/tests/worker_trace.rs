//! Round-trip tests for `PhaseTrace` phase and worker-span JSON: what
//! `to_json()`/`workers_json()` emit must parse back with `vgl_obs::json`
//! and preserve start stamps, items_in/items_out and worker attribution
//! exactly, for an empty trace, a jobs=1 trace, and a multi-worker trace.

use std::time::Duration;
use vgl_obs::{json, PhaseTrace, WorkerSample};

fn roundtrip(j: &json::Json) -> json::Json {
    json::parse(&j.render()).expect("rendered JSON parses back")
}

#[test]
fn empty_trace_round_trips() {
    let trace = PhaseTrace::new();
    let phases = roundtrip(&trace.to_json());
    assert_eq!(phases.as_arr().unwrap().len(), 0);
    let workers = roundtrip(&trace.workers_json());
    assert_eq!(workers.as_arr().unwrap().len(), 0);
    assert_eq!(trace.render_workers(), "");
}

#[test]
fn phase_items_survive_round_trip() {
    let mut trace = PhaseTrace::new();
    trace.time("normalize", 120, || (), |_| 96);
    trace.time("optimize", 96, || (), |_| 80);
    let parsed = roundtrip(&trace.to_json());
    let arr = parsed.as_arr().unwrap();
    assert_eq!(arr.len(), 2);
    assert_eq!(arr[0].get("name").unwrap().as_str(), Some("normalize"));
    assert_eq!(arr[0].get("items_in").unwrap().as_f64(), Some(120.0));
    assert_eq!(arr[0].get("items_out").unwrap().as_f64(), Some(96.0));
    assert_eq!(arr[1].get("name").unwrap().as_str(), Some("optimize"));
    assert_eq!(arr[1].get("items_out").unwrap().as_f64(), Some(80.0));
    // Each phase carries its epoch stamp, and the stamps order the phases.
    for (json, sample) in arr.iter().zip(&trace.phases) {
        let start_us = sample.start.as_secs_f64() * 1e6;
        assert_eq!(json.get("start_us").unwrap().as_f64(), Some(start_us));
    }
    let (first, second) = (trace.phases[0], trace.phases[1]);
    assert!(first.start + first.duration <= second.start);
}

#[test]
fn jobs1_worker_trace_round_trips() {
    // jobs=1 runs inline as a single worker 0 per parallel phase.
    let mut trace = PhaseTrace::new();
    trace.workers.push(WorkerSample {
        phase: "optimize",
        worker: 0,
        items: 17,
        start: Duration::from_micros(5),
        duration: Duration::from_micros(250),
    });
    let parsed = roundtrip(&trace.workers_json());
    let arr = parsed.as_arr().unwrap();
    assert_eq!(arr.len(), 1);
    assert_eq!(arr[0].get("phase").unwrap().as_str(), Some("optimize"));
    assert_eq!(arr[0].get("worker").unwrap().as_f64(), Some(0.0));
    assert_eq!(arr[0].get("items").unwrap().as_f64(), Some(17.0));
    assert_eq!(arr[0].get("start_us").unwrap().as_f64(), Some(5.0));
    assert_eq!(arr[0].get("dur_us").unwrap().as_f64(), Some(250.0));
}

#[test]
fn multi_worker_trace_round_trips() {
    let mut trace = PhaseTrace::new();
    for (phase, worker, items) in
        [("optimize", 0usize, 9usize), ("optimize", 1, 8), ("fuse", 0, 5), ("fuse", 1, 4)]
    {
        trace.workers.push(WorkerSample {
            phase,
            worker,
            items,
            start: Duration::from_micros(worker as u64),
            duration: Duration::from_micros(100 + worker as u64),
        });
    }
    let parsed = roundtrip(&trace.workers_json());
    let arr = parsed.as_arr().unwrap();
    assert_eq!(arr.len(), 4);
    let total_items: f64 =
        arr.iter().map(|w| w.get("items").unwrap().as_f64().unwrap()).sum();
    assert_eq!(total_items, 26.0);
    assert_eq!(arr[1].get("worker").unwrap().as_f64(), Some(1.0));
    assert_eq!(arr[2].get("phase").unwrap().as_str(), Some("fuse"));
    // The human table mentions every phase once per worker.
    let table = trace.render_workers();
    assert_eq!(table.matches("optimize").count(), 2);
    assert_eq!(table.matches("fuse").count(), 2);
}
