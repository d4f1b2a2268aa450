//! A deterministic trained deployment for the scenarios to torture.
//!
//! Every fixture trains the same simulated Wordcount context from the same
//! simulator seed, so two fixtures built with the same options hold
//! bit-identical models — a pristine twin serves as the correctness oracle
//! for a chaotic one.

use std::sync::Arc;

use ix_core::{
    AssociationMeasure, Engine, EngineBuilder, InvarNetConfig, OperationContext, OverloadPolicy,
    SweepBudget, Telemetry,
};
use ix_metrics::MetricFrame;
use ix_simulator::{FaultType, Runner, WorkloadType};

/// Simulator seed shared by every fixture (determinism is the oracle).
const SEED: u64 = 21;
/// The workload every scenario trains and attacks.
const WORKLOAD: WorkloadType = WorkloadType::Wordcount;
/// Faults with training signatures in the database.
const KNOWN_FAULTS: [FaultType; 3] = [FaultType::CpuHog, FaultType::MemHog, FaultType::DiskHog];

/// Knobs a scenario turns before training its engine.
pub struct FixtureOptions {
    /// Per-diagnosis sweep budget.
    pub budget: SweepBudget,
    /// Bounded-ingest overload policy.
    pub overload: OverloadPolicy,
    /// Requested per-shard ingest queue capacity.
    pub queue_ticks: usize,
    /// Association measure override (e.g. a fault-injecting wrapper);
    /// `None` trains with stock MIC.
    pub measure: Option<Arc<dyn AssociationMeasure>>,
}

impl Default for FixtureOptions {
    fn default() -> Self {
        FixtureOptions {
            budget: SweepBudget::UNLIMITED,
            overload: OverloadPolicy::Block,
            queue_ticks: 64,
            measure: None,
        }
    }
}

/// A trained engine, the context it serves, and the telemetry hub wired
/// into it.
pub struct Fixture {
    /// The live engine under test.
    pub engine: Engine,
    /// The trained operation context.
    pub context: OperationContext,
    /// Event counts (sheds, degradations, retries, ...); read them from
    /// `snapshot().total`.
    pub telemetry: Arc<Telemetry>,
}

impl Fixture {
    /// Trains a deployment: ARIMA CPI model, MIC invariants over 4 normal
    /// runs, and 2 training signatures for each of the 3 known faults.
    pub fn trained(opts: FixtureOptions) -> Fixture {
        let runner = Runner::new(SEED);
        let node = Runner::DEFAULT_FAULT_NODE;
        let context = OperationContext::new(runner.nodes[node].ip(), WORKLOAD.name());

        let config = InvarNetConfig {
            window_ticks: runner.fault_duration_ticks,
            sweep_budget: opts.budget,
            overload: opts.overload,
            ingest_queue_ticks: opts.queue_ticks,
            ..InvarNetConfig::default()
        };
        let telemetry = Telemetry::shared();
        let mut builder: EngineBuilder = Engine::builder().config(config).telemetry(&telemetry);
        if let Some(measure) = opts.measure {
            builder = builder.measure(measure);
        }
        let engine = builder.build();

        let normals = runner.normal_runs(WORKLOAD, 4);
        let cpi_traces: Vec<Vec<f64>> = normals
            .iter()
            .map(|r| r.per_node[node].cpi.cpi_series())
            .collect();
        engine
            .train_performance_model(context.clone(), &cpi_traces)
            .expect("CPI model on simulator traces");

        let frames: Vec<MetricFrame> = normals
            .iter()
            .map(|r| fault_shaped_window(&runner, &r.per_node[node].frame))
            .collect();
        engine
            .build_invariants(context.clone(), &frames)
            .expect("Algorithm 1 on simulator frames");

        for fault in KNOWN_FAULTS {
            for run_idx in 0..2 {
                let r = runner.fault_run(WORKLOAD, fault, run_idx);
                engine
                    .record_signature(
                        &context,
                        fault.name(),
                        &r.fault_window().expect("fault window"),
                    )
                    .expect("training signature");
            }
        }

        Fixture {
            engine,
            context,
            telemetry,
        }
    }

    /// A fresh (untrained-on) incident of `fault`: its metric window and
    /// the full per-node CPI trace.
    pub fn incident(fault: FaultType, run_idx: usize) -> (MetricFrame, Vec<f64>) {
        let runner = Runner::new(SEED);
        let node = Runner::DEFAULT_FAULT_NODE;
        let r = runner.fault_run(WORKLOAD, fault, run_idx);
        (
            r.fault_window().expect("fault window"),
            r.per_node[node].cpi.cpi_series(),
        )
    }

    /// A fresh incident of `fault` as a *full run*: the complete per-node
    /// metric frame and CPI trace, for streaming scenarios.
    pub fn incident_run(fault: FaultType, run_idx: usize) -> (MetricFrame, Vec<f64>) {
        let runner = Runner::new(SEED);
        let node = Runner::DEFAULT_FAULT_NODE;
        let r = runner.fault_run(WORKLOAD, fault, run_idx);
        (
            r.per_node[node].frame.clone(),
            r.per_node[node].cpi.cpi_series(),
        )
    }

    /// The fault every scenario injects as its incident.
    pub fn incident_fault() -> FaultType {
        FaultType::MemHog
    }
}

/// The training window of a normal run: same offset/length the fault
/// window occupies, so training and diagnosis sweeps see equal sample
/// counts.
fn fault_shaped_window(runner: &Runner, frame: &MetricFrame) -> MetricFrame {
    let len = runner.fault_duration_ticks;
    let start = runner
        .fault_start_tick
        .min(frame.ticks().saturating_sub(len));
    frame.window(start..(start + len).min(frame.ticks()))
}
