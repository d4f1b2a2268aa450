//! The paper's multiple-fault extension: "as the probability of multiple
//! faults happening in the same node at the same time is very tiny, we
//! don't consider multiple faults in this paper. Actually, our method could
//! be easily extended to multiple faults by listing multiple root causes
//! whose signatures are most similar to the violation tuple."
//!
//! This experiment injects *two* concurrent faults on the same node and
//! checks how often both true causes appear among the top-2 ranked causes.

use ix_core::{Engine, InvarNetConfig, OperationContext};
use ix_metrics::MetricFrame;
use ix_simulator::{simulate, FaultInjection, FaultType, RunConfig, Runner, WorkloadType};

use crate::report::{pct, Table};

/// Outcome of one concurrent-fault pair.
#[derive(Debug, Clone)]
pub struct PairOutcome {
    /// The two injected faults.
    pub faults: (FaultType, FaultType),
    /// Runs where both causes appeared in the top-2.
    pub both_in_top2: usize,
    /// Runs where at least one cause was ranked first.
    pub one_on_top: usize,
    /// Total runs.
    pub runs: usize,
}

/// Result of the multiple-fault experiment.
#[derive(Debug, Clone)]
pub struct MultiFaultResult {
    /// One row per fault pair.
    pub pairs: Vec<PairOutcome>,
}

impl MultiFaultResult {
    /// The extension works when, across pairs, the top-ranked cause is one
    /// of the true faults essentially always and both true faults reach the
    /// top-2 most of the time.
    pub fn shape_holds(&self) -> bool {
        let total: usize = self.pairs.iter().map(|p| p.runs).sum();
        let top: usize = self.pairs.iter().map(|p| p.one_on_top).sum();
        let both: usize = self.pairs.iter().map(|p| p.both_in_top2).sum();
        top as f64 / total as f64 >= 0.9 && both as f64 / total as f64 >= 0.5
    }

    /// Plain-text report.
    pub fn render(&self) -> String {
        let mut t = Table::new(vec!["fault pair", "one on top", "both in top-2"]);
        for p in &self.pairs {
            t.row(vec![
                format!("{} + {}", p.faults.0.name(), p.faults.1.name()),
                pct(p.one_on_top as f64 / p.runs as f64),
                pct(p.both_in_top2 as f64 / p.runs as f64),
            ]);
        }
        format!(
            "Multiple-fault extension — two concurrent faults, top-2 cause listing\n\
             (paper, Sect. 4.1: \"could be easily extended to multiple faults by listing\n\
             multiple root causes whose signatures are most similar\")\n\n{}\n\
             Shape holds: {}\n",
            t.render(),
            self.shape_holds()
        )
    }
}

/// Runs the experiment: trains single-fault signatures, then injects fault
/// pairs with well-separated fingerprints concurrently.
pub fn run(seed: u64, runs_per_pair: usize) -> MultiFaultResult {
    let workload = WorkloadType::Wordcount;
    let runner = Runner::new(seed);
    let node = Runner::DEFAULT_FAULT_NODE;
    let context = OperationContext::new(runner.nodes[node].ip(), workload.name());

    // Train on single faults only — the database never saw a pair.
    let singles = [
        FaultType::CpuHog,
        FaultType::MemHog,
        FaultType::DiskHog,
        FaultType::NetDrop,
        FaultType::Misconfiguration,
    ];
    let system = Engine::new(InvarNetConfig::default());
    let normals = runner.normal_runs(workload, 6);
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
        .expect("invariants");
    for &fault in &singles {
        for idx in 0..2 {
            let r = runner.fault_run(workload, fault, idx);
            system
                .record_signature(&context, fault.name(), &r.fault_window().expect("window"))
                .expect("signature");
        }
    }

    // Concurrent pairs with disjoint resource fingerprints.
    let pairs = [
        (FaultType::CpuHog, FaultType::NetDrop),
        (FaultType::MemHog, FaultType::NetDrop),
        (FaultType::CpuHog, FaultType::DiskHog),
        (FaultType::MemHog, FaultType::DiskHog),
    ];
    let mut outcomes = Vec::new();
    for (a, b) in pairs {
        let mut both_in_top2 = 0;
        let mut one_on_top = 0;
        for k in 0..runs_per_pair {
            let inj = |fault| FaultInjection {
                fault,
                node,
                start_tick: runner.fault_start_tick,
                duration_ticks: runner.fault_duration_ticks,
            };
            let mut cfg = RunConfig::new(workload, seed.wrapping_mul(31).wrapping_add(k as u64));
            cfg.nodes = runner.nodes.clone();
            cfg.fault = Some(inj(a));
            cfg.extra_faults.push(inj(b));
            let r = simulate(&cfg);
            let w = r.fault_window().expect("window");
            let d = system.diagnose(&context, &w).expect("diagnosis");
            let top2 = d.top_causes(2, 0.0);
            let names: Vec<&str> = top2.iter().map(|c| c.problem.as_str()).collect();
            if names.first() == Some(&a.name()) || names.first() == Some(&b.name()) {
                one_on_top += 1;
            }
            if names.contains(&a.name()) && names.contains(&b.name()) {
                both_in_top2 += 1;
            }
        }
        outcomes.push(PairOutcome {
            faults: (a, b),
            both_in_top2,
            one_on_top,
            runs: runs_per_pair,
        });
    }
    MultiFaultResult { pairs: outcomes }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multifault_shape_holds() {
        let r = run(2014, 5);
        assert!(r.shape_holds(), "{}", r.render());
    }
}
