//! Seeded inputs, the trained template and the in-process reference.
//!
//! Everything the load generator sends is built here, from the workload
//! seed, before any timed phase starts. The system under test receives
//! only these ticks; it never sees the seed.

use std::time::Instant;

use ix_core::{Engine, InvarNetConfig, ModelStore, OperationContext, TickOutcome};
use ix_metrics::MetricFrame;
use ix_serve::wire::IngestReply;
use ix_simulator::{FaultType, RunResult, Runner, WorkloadType};

/// The simulated cluster is fixed, so every seed diagnoses against the
/// same template; the seed only picks what is replayed and in which order.
const CLUSTER_SEED: u64 = 2014;
/// Normal runs behind Perf-M and Invar-C; their ticks are also the
/// anomaly-free stream every workload replays.
const NORMAL_RUNS: usize = 6;
/// Fault runs per fault type behind Sig-B (the paper's two).
const SIGNATURE_RUNS: usize = 2;
/// Held-out fault runs are drawn from run indices
/// `SIGNATURE_RUNS..SIGNATURE_RUNS + HELD_OUT_POOL`.
const HELD_OUT_POOL: usize = 48;

/// A small deterministic generator (SplitMix64), so inputs depend on the
/// seed alone.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x6a09_e667_f3bc_c908)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// One tick as a collector sends it.
#[derive(Debug, Clone)]
pub struct Tick {
    pub cpi: f64,
    pub row: Vec<f64>,
}

/// One held-out fault run, replayed on a tenant of its own.
#[derive(Debug, Clone)]
pub struct FaultRun {
    pub fault: FaultType,
    pub run_idx: usize,
    pub ticks: Vec<Tick>,
    /// The tick the fault starts at.
    pub onset: usize,
}

/// What the template is trained on.
pub struct Training {
    pub context: OperationContext,
    runner: Runner,
    cpi_traces: Vec<Vec<f64>>,
    invariant_frames: Vec<MetricFrame>,
    signatures: Vec<(FaultType, MetricFrame)>,
    /// The normal runs' ticks back to back: anomaly-free by construction
    /// (the detector was trained on them).
    pub normal_stream: Vec<Tick>,
}

/// When the paper's Table 1 training stages ran, back to back.
#[derive(Debug, Clone, Copy)]
pub struct StageTimes {
    pub started: Instant,
    pub perf_m_done: Instant,
    pub invar_c_done: Instant,
    pub sig_b_done: Instant,
}

/// The 14 Wordcount faults of Fig. 8 (Overload needs an interactive
/// workload).
pub fn wordcount_faults() -> Vec<FaultType> {
    FaultType::ALL
        .iter()
        .copied()
        .filter(|f| !f.interactive_only())
        .collect()
}

fn node_ticks(run: &RunResult) -> Vec<Tick> {
    let node = &run.per_node[Runner::DEFAULT_FAULT_NODE];
    let cpi = node.cpi.cpi_series();
    (0..run.ticks)
        .map(|t| Tick {
            cpi: cpi[t],
            row: node.frame.tick(t).to_vec(),
        })
        .collect()
}

/// The engine configuration of the template, every tenant and the
/// reference.
pub fn config() -> InvarNetConfig {
    InvarNetConfig::default()
}

impl Training {
    pub fn generate() -> Training {
        let runner = Runner::new(CLUSTER_SEED);
        let workload = WorkloadType::Wordcount;
        let node = Runner::DEFAULT_FAULT_NODE;
        let context = OperationContext::new(runner.nodes[node].ip(), workload.name());
        let normals = runner.normal_runs(workload, NORMAL_RUNS);
        let cpi_traces = normals
            .iter()
            .map(|r| r.per_node[node].cpi.cpi_series())
            .collect();
        // Invariants on windows shaped like a fault window, as the
        // paper's campaigns build them.
        let invariant_frames = normals
            .iter()
            .map(|r| {
                let frame = &r.per_node[node].frame;
                let len = runner.fault_duration_ticks;
                let start = runner
                    .fault_start_tick
                    .min(frame.ticks().saturating_sub(len));
                frame.window(start..(start + len).min(frame.ticks()))
            })
            .collect();
        let mut signatures = Vec::new();
        for fault in wordcount_faults() {
            for run_idx in 0..SIGNATURE_RUNS {
                let run = runner.fault_run(workload, fault, run_idx);
                let window = run.fault_window().expect("fault window inside the run");
                signatures.push((fault, window));
            }
        }
        let normal_stream = normals.iter().flat_map(node_ticks).collect();
        Training {
            context,
            runner,
            cpi_traces,
            invariant_frames,
            signatures,
            normal_stream,
        }
    }

    /// Trains the template (Perf-M, Invar-C, Sig-B) and returns its
    /// model store with the stage times.
    pub fn train(&self) -> (ModelStore, StageTimes) {
        let engine = Engine::builder().config(config()).build();
        let started = Instant::now();
        engine
            .train_performance_model(self.context.clone(), &self.cpi_traces)
            .expect("Perf-M trains on simulator traces");
        let perf_m_done = Instant::now();
        engine
            .build_invariants(self.context.clone(), &self.invariant_frames)
            .expect("Invar-C builds on simulator frames");
        let invar_c_done = Instant::now();
        for (fault, window) in &self.signatures {
            engine
                .record_signature(&self.context, fault.name(), window)
                .expect("Sig-B records on simulator fault windows");
        }
        let sig_b_done = Instant::now();
        (
            engine.snapshot_state(),
            StageTimes {
                started,
                perf_m_done,
                invar_c_done,
                sig_b_done,
            },
        )
    }

    /// `per_fault` held-out runs of each of the 14 faults. The seed picks
    /// the run indices and the replay order; every fault appears equally
    /// often so that accuracy from different seeds stays comparable.
    pub fn fault_mix(&self, rng: &mut Rng, per_fault: usize) -> Vec<FaultRun> {
        let mut runs = Vec::new();
        for fault in wordcount_faults() {
            let mut pool: Vec<usize> = (SIGNATURE_RUNS..SIGNATURE_RUNS + HELD_OUT_POOL).collect();
            rng.shuffle(&mut pool);
            for &run_idx in pool.iter().take(per_fault) {
                let run = self
                    .runner
                    .fault_run(WorkloadType::Wordcount, fault, run_idx);
                runs.push(FaultRun {
                    fault,
                    run_idx,
                    ticks: node_ticks(&run),
                    onset: self.runner.fault_start_tick,
                });
            }
        }
        rng.shuffle(&mut runs);
        runs
    }
}

/// A fresh engine holding the template's trained state: exactly what a
/// newly materialized tenant starts from.
pub fn reference_engine(store: &ModelStore) -> Engine {
    let engine = Engine::builder().config(config()).build();
    engine
        .load_state(store)
        .expect("template state loads into a fresh engine");
    engine
}

/// The parts of an Ingest reply the check compares, floats as bits.
#[derive(Debug, Clone, PartialEq)]
pub struct Expected {
    pub tick: u64,
    pub residual_bits: u64,
    pub exceeded: bool,
    pub anomalous: bool,
    pub ranked: Option<Vec<(String, u64)>>,
}

pub fn ranked_bits(diagnosis: &ix_core::Diagnosis) -> Vec<(String, u64)> {
    diagnosis
        .ranked
        .iter()
        .map(|c| (c.problem.clone(), c.similarity.to_bits()))
        .collect()
}

impl Expected {
    pub fn of_outcome(outcome: &TickOutcome) -> Expected {
        Expected {
            tick: outcome.tick as u64,
            residual_bits: outcome.residual.to_bits(),
            exceeded: outcome.exceeded,
            anomalous: outcome.anomalous,
            ranked: outcome.diagnosis.as_ref().map(ranked_bits),
        }
    }

    pub fn of_reply(reply: &IngestReply) -> Expected {
        Expected {
            tick: reply.tick,
            residual_bits: reply.residual.to_bits(),
            exceeded: reply.exceeded,
            anomalous: reply.anomalous,
            ranked: reply.diagnosis.as_ref().map(ranked_bits),
        }
    }
}

/// The reference for a round-robin stream: every tenant receives tick
/// `(offset + round) % len` in round `round`, so all tenants share one
/// history and one reference engine answers for all of them.
pub struct StreamReference<'a> {
    engine: Engine,
    context: OperationContext,
    stream: &'a [Tick],
    offset: usize,
    outputs: Vec<Expected>,
}

impl<'a> StreamReference<'a> {
    pub fn new(
        store: &ModelStore,
        context: &OperationContext,
        stream: &'a [Tick],
        offset: usize,
    ) -> Self {
        StreamReference {
            engine: reference_engine(store),
            context: context.clone(),
            stream,
            offset,
            outputs: Vec::new(),
        }
    }

    pub fn tick(&self, round: usize) -> &'a Tick {
        &self.stream[(self.offset + round) % self.stream.len()]
    }

    /// The expected reply for round `round`, extending the reference run
    /// as far as needed.
    pub fn expected(&mut self, round: usize) -> &Expected {
        while self.outputs.len() <= round {
            let tick = self.tick(self.outputs.len());
            let outcome = self
                .engine
                .ingest(&self.context, tick.cpi, &tick.row)
                .expect("the reference accepts the stream");
            self.outputs.push(Expected::of_outcome(&outcome));
        }
        &self.outputs[round]
    }
}

/// The reference replies for one fault run on a fresh tenant.
pub fn fault_reference(
    store: &ModelStore,
    context: &OperationContext,
    run: &FaultRun,
) -> Vec<Expected> {
    let engine = reference_engine(store);
    run.ticks
        .iter()
        .map(|t| {
            let outcome = engine
                .ingest(context, t.cpi, &t.row)
                .expect("the reference accepts the fault run");
            Expected::of_outcome(&outcome)
        })
        .collect()
}
