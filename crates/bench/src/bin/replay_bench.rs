//! Wall-clock cost of the `ix-replay` record → verify → bisect path,
//! printed as JSON (redirect to `BENCH_replay.json`).
//!
//! Like `history_bench`, this is a plain binary so the numbers can be
//! regenerated and diffed across commits without the criterion harness:
//!
//! ```bash
//! cargo run --release -p ix-bench --bin replay_bench > BENCH_replay.json
//! ```

use std::sync::Arc;
use std::time::Instant;

use ix_bench::scenario::record_fault_scenario;
use ix_core::{ContextRegistry, HistoryRecorder, OperationContext};
use ix_history::HistoryStore;
use ix_replay::{Breakpoint, EventKind, ReplayDebugger, Replayer};

/// Median wall-clock milliseconds of `iters` runs of `run`.
fn time_ms(iters: usize, mut run: impl FnMut()) -> f64 {
    let mut samples: Vec<f64> = (0..iters)
        .map(|_| {
            let t = Instant::now();
            run();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

fn main() {
    // Record: the full train + stream + header-embed pipeline.
    let record_ms = time_ms(5, || {
        record_fault_scenario(11).expect("record scenario");
    });
    let scenario = record_fault_scenario(11).expect("record scenario");
    let ticks = scenario.ticks;
    let bytes = scenario.trace.to_bytes();

    // Verify: ship the trace through bytes, rebuild the engine from the
    // embedded header, re-ingest every tick and compare everything.
    let verify_ms = time_ms(9, || {
        let store = HistoryStore::from_bytes(&bytes).expect("parse trace");
        let mut replayer = Replayer::builder()
            .recorded(Arc::new(store))
            .build()
            .expect("replayer");
        let report = replayer.verify().expect("verify");
        assert!(report.is_clean(), "the recorded trace must replay clean");
    });

    // Debug: step to the first diagnosis under a breakpoint.
    let debug_ms = time_ms(9, || {
        let store = HistoryStore::from_bytes(&bytes).expect("parse trace");
        let replayer = Replayer::builder()
            .recorded(Arc::new(store))
            .build()
            .expect("replayer");
        let mut debugger = ReplayDebugger::new(replayer);
        debugger.add_breakpoint(Breakpoint::on_event(EventKind::DiagnosisRan));
        debugger.run().expect("run to breakpoint");
    });

    // Bisect: find a planted single-tick perturbation near the end. The
    // tampered twin is rebuilt row by row (history is append-only, so
    // there is no in-place mutation to reach for).
    let target = ticks as u64 - 3;
    let perturbed = {
        let src = HistoryStore::from_bytes(&bytes).expect("parse trace");
        let context = src.contexts()[0];
        let label = src.label(context);
        let (workload, node) = label.rsplit_once('@').expect("workload@node label");
        let copy = HistoryStore::builder().shared();
        let registry = Arc::new(ContextRegistry::new());
        let id = registry.intern(&OperationContext::new(node, workload));
        copy.bind_registry(&registry);
        let rows = ix_query::context_rows(&src, context, 0..src.rows(context))
            .expect("recorded rows materialize");
        for row in rows {
            let mut metrics = row.metrics;
            if row.tick == target {
                metrics[3] += 1e-9;
            }
            copy.record_tick(id, row.tick, row.cpi, row.residual, row.exceeded, &metrics);
        }
        copy
    };
    let original = HistoryStore::from_bytes(&bytes).expect("parse trace");
    let bisect_ms = time_ms(9, || {
        let report = ix_replay::bisect(&original, &perturbed).expect("perturbation must be found");
        assert_eq!(report.tick, target);
    });

    let per_tick_us = verify_ms * 1e3 / ticks as f64;
    println!("{{");
    println!("  \"bench\": \"replay_record_verify_bisect\",");
    println!("  \"trace_ticks\": {ticks},");
    println!("  \"trace_bytes\": {},", bytes.len());
    println!("  \"results\": {{");
    println!("    \"record_scenario_ms\": {record_ms:.3},");
    println!("    \"verify_round_trip_ms\": {verify_ms:.3},");
    println!("    \"verify_us_per_tick\": {per_tick_us:.2},");
    println!("    \"debug_to_first_diagnosis_ms\": {debug_ms:.3},");
    println!("    \"bisect_single_tick_ms\": {bisect_ms:.3}");
    println!("  }}");
    println!("}}");
}
