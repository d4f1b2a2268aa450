//! Quickstart: the full InvarNet-X loop on a simulated Hadoop cluster.
//!
//! 1. simulate normal Wordcount runs and train the per-context models;
//! 2. record training signatures for a handful of investigated faults;
//! 3. inject a fresh fault, detect the CPI anomaly, and diagnose it.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use invarnet_x::core::{Engine, InvarNetConfig, OperationContext};
use invarnet_x::metrics::MetricFrame;
use invarnet_x::simulator::{FaultType, Runner, WorkloadType};

fn main() {
    let workload = WorkloadType::Wordcount;
    let runner = Runner::new(7);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());

    // ---------------------------------------------------------- offline --
    println!("== offline training for context {context} ==");
    let system = Engine::new(InvarNetConfig::default());

    // N normal runs: CPI traces feed the ARIMA performance model, metric
    // windows feed Algorithm 1 (invariant selection).
    let normals = runner.normal_runs(workload, 6);
    let cpi_traces: Vec<Vec<f64>> = normals
        .iter()
        .map(|r| r.per_node[node].cpi.cpi_series())
        .collect();
    system
        .train_performance_model(context.clone(), &cpi_traces)
        .expect("train ARIMA on CPI");

    let window = |frame: &MetricFrame| {
        let len = runner.fault_duration_ticks;
        let start = runner
            .fault_start_tick
            .min(frame.ticks().saturating_sub(len));
        frame.window(start..(start + len).min(frame.ticks()))
    };
    let frames: Vec<MetricFrame> = normals
        .iter()
        .map(|r| window(&r.per_node[node].frame))
        .collect();
    system
        .build_invariants(context.clone(), &frames)
        .expect("Algorithm 1");
    let inv = system.invariant_set(&context).expect("invariants built");
    println!(
        "ARIMA model: {}   invariants kept: {}/325",
        system.performance_model(&context).expect("trained").spec(),
        inv.len()
    );

    // Training signatures: two runs per investigated fault.
    let known_faults = [
        FaultType::CpuHog,
        FaultType::MemHog,
        FaultType::DiskHog,
        FaultType::NetDrop,
        FaultType::Suspend,
    ];
    for fault in known_faults {
        for run_idx in 0..2 {
            let r = runner.fault_run(workload, fault, run_idx);
            let w = r.fault_window().expect("fault window");
            system
                .record_signature(&context, fault.name(), &w)
                .expect("record signature");
        }
    }
    println!(
        "signature database: {} records\n",
        system.with_signature_database(|db| db.len())
    );

    // ----------------------------------------------------------- online --
    println!("== online: a fresh Mem-hog occurrence ==");
    let incident = runner.fault_run(workload, FaultType::MemHog, 9);
    let cpi = incident.per_node[node].cpi.cpi_series();
    let w = incident.fault_window().expect("fault window");

    let (detection, diagnosis) = system
        .process(&context, &cpi, &w)
        .expect("online processing");
    match detection.first_anomaly {
        Some(t) => println!(
            "anomaly detected at tick {t} (threshold {:.4}, fault injected at tick {})",
            detection.threshold, runner.fault_start_tick
        ),
        None => println!("no anomaly detected"),
    }
    if let Some(d) = diagnosis {
        println!(
            "violated invariants: {}/{}",
            d.tuple.violation_count(),
            d.tuple.len()
        );
        println!("ranked root causes:");
        for (rank, cause) in d.ranked.iter().enumerate().take(3) {
            println!(
                "  {}. {:10}  similarity {:.3}",
                rank + 1,
                cause.problem,
                cause.similarity
            );
        }
    }
}
