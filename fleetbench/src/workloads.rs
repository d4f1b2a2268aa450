//! The three closed-loop workloads, driven over `IXSRV01` through
//! `ServeClient` against an in-process `ServerHandle` on loopback.
//!
//! Every connection is one blocking client that sends its next frame only
//! after the previous reply arrived, which is the real collector's shape.
//! Every reply is checked against an in-process reference engine fed the
//! same ticks; a mismatch is counted as a failed operation, never fatal.

use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use ix_core::{ModelStore, OperationContext};
use ix_serve::{Fleet, ServeClient, ServeError, ServerHandle, TenantId};

use crate::inputs::{
    config, fault_reference, ranked_bits, Expected, FaultRun, Rng, StageTimes, StreamReference,
    Training,
};

/// Warm tenants in `steady_ingest`: their engine state (about 16 KB each)
/// is several times a 4 MiB L2.
const STEADY_TENANTS: usize = 2000;
/// Tenants in `tenant_churn`, ten times its warm limit.
const CHURN_TENANTS: usize = 1000;
const CHURN_WARM_LIMIT: usize = 100;
/// Healthy tenants connection B streams during `fault_storm`.
const BYSTANDERS: usize = 256;
/// Connection B's pause between a reply and its next frame. Paced, a
/// bystander stalls behind a diagnosis on several percent of its frames,
/// so the storm's p99 reads the stall itself and not where the 1 % line
/// happens to fall among stalled and unstalled frames.
const BYSTANDER_THINK: Duration = Duration::from_micros(250);
/// Distinct held-out runs per fault type in `fault_storm`. Connection A
/// replays them round after round, each time on a fresh tenant.
const STORM_RUNS_PER_FAULT: usize = 16;
// Every workload is a fixed amount of work per second of `--seconds`, so
// that its memory is the same on every run of a seed whatever the host's
// speed: a tenant's detector run keeps every tick's residual, so memory
// grows with the ticks each tenant was sent. The amounts are about 85 %
// of what the 2-core host manages, so a run takes most of `--seconds`.

/// Replays in `fault_storm` (the host replays about 23 runs a second).
const STORM_REPLAYS_PER_SECOND: u64 = 20;
/// Frames in `steady_ingest` (the host answers about 19 000 a second).
const STEADY_FRAMES_PER_SECOND: u64 = 16_000;
/// Frames in `tenant_churn` (the host answers 400 to 550 a second, so
/// this run takes about all of `--seconds`).
const CHURN_FRAMES_PER_SECOND: u64 = 400;
/// A workload still running after this many times `--seconds` stops
/// there, so that a run on a much slower host still ends in time.
const TIME_LIMIT: u32 = 2;
/// Run-tail cap of the fleets that never evict, and so never restore a
/// tail: a short cap keeps their memory independent of how many ticks the
/// closed loop manages. `tenant_churn` keeps the default, so that every
/// warm restores its run.
const NO_EVICT_TAIL_CAP: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SteadyIngest,
    FaultStorm,
    TenantChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::SteadyIngest,
        Workload::FaultStorm,
        Workload::TenantChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::SteadyIngest => "steady_ingest",
            Workload::FaultStorm => "fault_storm",
            Workload::TenantChurn => "tenant_churn",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Client connections, and so server accept threads: the server
    /// serves a connection to completion on one thread, and an idle
    /// accept thread polls every millisecond.
    pub fn connections(self) -> usize {
        match self {
            Workload::FaultStorm => 2,
            Workload::SteadyIngest | Workload::TenantChurn => 1,
        }
    }
}

/// Everything a run sends, generated from the seed before the setup clock
/// starts.
pub struct Plan {
    pub workload: Workload,
    pub training: Training,
    /// Tenants fed the normal stream round-robin, in traffic order (also
    /// the order they are materialized in).
    pub stream_tenants: Vec<TenantId>,
    /// Where in the normal stream round 0 starts.
    pub offset: usize,
    /// Frames the stream sends (`steady_ingest` and `tenant_churn`).
    pub stream_frames: usize,
    /// Distinct held-out fault runs (`fault_storm` only).
    pub fault_runs: Vec<FaultRun>,
    /// What connection A replays, in order, as indices into `fault_runs`:
    /// rounds, each a seed-shuffled pass over every distinct run.
    pub replays: Vec<usize>,
    /// One fresh tenant per replay.
    pub fault_tenants: Vec<TenantId>,
    pub warm_limit: usize,
}

fn tenant(prefix: &str, i: usize) -> TenantId {
    TenantId::new(format!("{prefix}{i:05}")).expect("generated tenant ids are valid")
}

impl Plan {
    pub fn generate(workload: Workload, seed: u64, seconds: u64) -> Plan {
        let training = Training::generate();
        let mut rng = Rng::new(seed);
        let (prefix, count) = match workload {
            Workload::SteadyIngest => ("steady-", STEADY_TENANTS),
            Workload::FaultStorm => ("bystander-", BYSTANDERS),
            Workload::TenantChurn => ("churn-", CHURN_TENANTS),
        };
        let mut stream_tenants: Vec<TenantId> = (0..count).map(|i| tenant(prefix, i)).collect();
        rng.shuffle(&mut stream_tenants);
        let offset = rng.below(training.normal_stream.len());
        let (fault_runs, replays) = if workload == Workload::FaultStorm {
            let runs = training.fault_mix(&mut rng, STORM_RUNS_PER_FAULT);
            let total = (seconds * STORM_REPLAYS_PER_SECOND) as usize;
            let mut replays = Vec::with_capacity(total);
            while replays.len() < total {
                let mut round: Vec<usize> = (0..runs.len()).collect();
                rng.shuffle(&mut round);
                replays.extend(round);
            }
            replays.truncate(total);
            (runs, replays)
        } else {
            (Vec::new(), Vec::new())
        };
        let stream_frames = seconds
            * match workload {
                Workload::SteadyIngest => STEADY_FRAMES_PER_SECOND,
                Workload::TenantChurn => CHURN_FRAMES_PER_SECOND,
                Workload::FaultStorm => 0,
            };
        let fault_tenants = (0..replays.len()).map(|i| tenant("fault-", i)).collect();
        let warm_limit = match workload {
            Workload::TenantChurn => CHURN_WARM_LIMIT,
            _ => count + replays.len(),
        };
        Plan {
            workload,
            training,
            stream_tenants,
            offset,
            stream_frames: stream_frames as usize,
            fault_runs,
            replays,
            fault_tenants,
            warm_limit,
        }
    }

    pub fn context(&self) -> &OperationContext {
        &self.training.context
    }

    /// A's replays in order: the run, its index in `fault_runs` and the
    /// fresh tenant it is replayed on.
    pub fn replays(&self) -> impl Iterator<Item = (&FaultRun, usize, &TenantId)> {
        self.replays
            .iter()
            .zip(&self.fault_tenants)
            .map(|(&run, tenant)| (&self.fault_runs[run], run, tenant))
    }

    /// "Fault-x 3,17,…; …": the mix the seed picked, for the output.
    pub fn fault_mix_line(&self) -> String {
        let mut by_fault: Vec<(&str, Vec<usize>)> = Vec::new();
        for run in &self.fault_runs {
            match by_fault
                .iter_mut()
                .find(|(name, _)| *name == run.fault.name())
            {
                Some((_, idx)) => idx.push(run.run_idx),
                None => by_fault.push((run.fault.name(), vec![run.run_idx])),
            }
        }
        by_fault.sort();
        by_fault
            .iter_mut()
            .map(|(name, idx)| {
                idx.sort_unstable();
                let idx: Vec<String> = idx.iter().map(usize::to_string).collect();
                format!("{name} {}", idx.join(","))
            })
            .collect::<Vec<_>>()
            .join("; ")
    }
}

/// A trained, materialized fleet behind a running server.
pub struct Deployment {
    pub fleet: Arc<Fleet>,
    pub server: ServerHandle,
    pub store: ModelStore,
    pub stages: StageTimes,
    /// When setup began, and how long it took to be ready to serve:
    /// training, materializing, starting.
    pub started: Instant,
    pub setup: Duration,
    /// Per tenant, start and end of `with_engine` plus `load_state`.
    pub materialize: Vec<(Instant, Instant)>,
}

impl Deployment {
    pub fn stop(self) {
        self.server.stop();
    }
}

/// Materializes the plan's tenants from `store` into a new fleet: fault
/// tenants first, then the stream tenants in traffic order, so that in
/// `tenant_churn` the warm set left behind is the one the first round
/// reaches last.
pub fn materialize(plan: &Plan, store: &ModelStore) -> (Arc<Fleet>, Vec<(Instant, Instant)>) {
    let mut builder = Fleet::builder()
        .config(config())
        .warm_limit(plan.warm_limit);
    if plan.workload != Workload::TenantChurn {
        builder = builder.run_tail_cap(NO_EVICT_TAIL_CAP);
    }
    let fleet = Arc::new(builder.build());
    let mut times = Vec::new();
    for id in plan.fault_tenants.iter().chain(&plan.stream_tenants) {
        let started = Instant::now();
        fleet
            .with_engine(id, |engine| engine.load_state(store))
            .expect("a new tenant materializes")
            .expect("template state loads into a tenant");
        times.push((started, Instant::now()));
    }
    (fleet, times)
}

pub fn deploy(plan: &Plan) -> Deployment {
    let started = Instant::now();
    let (store, stages) = plan.training.train();
    let (fleet, materialize) = materialize(plan, &store);
    let server = ServerHandle::builder()
        .accept_threads(plan.workload.connections())
        .start(Arc::clone(&fleet))
        .expect("the server binds loopback");
    Deployment {
        fleet,
        server,
        store,
        stages,
        started,
        setup: started.elapsed(),
        materialize,
    }
}

/// Attempted and failed operations of one connection.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub first_failure: Option<String>,
}

impl Tally {
    fn check(&mut self, ok: bool, why: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.first_failure.is_none() {
                self.first_failure = Some(why());
            }
        }
    }

    fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        if self.first_failure.is_none() {
            self.first_failure = other.first_failure;
        }
    }
}

/// What one connection saw.
#[derive(Debug, Default)]
pub struct Connection {
    /// Ingest frames answered with status OK, per second of the measured
    /// phase.
    pub per_second: Vec<u64>,
    /// `(done, round trip)` of Ingest frames whose reply carried no
    /// diagnosis: microseconds from the start of the measured phase, and
    /// nanoseconds. At most the capacity the connection was given.
    pub frames: Vec<(u32, u32)>,
    /// Round trips of Ingest frames whose reply carried a diagnosis, ns.
    pub diagnosis_ns: Vec<u64>,
    /// Round trips of on-demand Diagnose requests, ns.
    pub diagnose_op_ns: Vec<u64>,
    pub tally: Tally,
}

impl Connection {
    /// Room for `samples` frames, written once before the measured phase
    /// so that every page of it is resident: the peak RSS then does not
    /// depend on how many frames a run manages.
    fn presized(samples: usize) -> Connection {
        let mut frames = vec![(u32::MAX, u32::MAX); samples];
        frames.clear();
        Connection {
            frames,
            ..Connection::default()
        }
    }

    /// Ingest frames answered with status OK.
    pub fn answered(&self) -> u64 {
        self.per_second.iter().sum()
    }

    /// Records an Ingest frame answered with status OK.
    fn record(&mut self, origin: Instant, started: Instant, done: Instant, diagnosed: bool) {
        let at = done.saturating_duration_since(origin);
        let second = at.as_secs() as usize;
        if self.per_second.len() <= second {
            self.per_second.resize(second + 1, 0);
        }
        self.per_second[second] += 1;
        let ns = (done - started).as_nanos() as u64;
        if diagnosed {
            self.diagnosis_ns.push(ns);
        } else if self.frames.len() < self.frames.capacity() {
            let ns = ns.min(u64::from(u32::MAX)) as u32;
            self.frames.push((at.as_micros() as u32, ns));
        }
    }

    fn merge(&mut self, other: Connection) {
        if self.per_second.len() < other.per_second.len() {
            self.per_second.resize(other.per_second.len(), 0);
        }
        for (mine, theirs) in self.per_second.iter_mut().zip(other.per_second) {
            *mine += theirs;
        }
        self.frames.extend(other.frames);
        self.diagnosis_ns.extend(other.diagnosis_ns);
        self.diagnose_op_ns.extend(other.diagnose_op_ns);
        self.tally.merge(other.tally);
    }
}

/// Diagnosis quality over the storm's fault runs.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    pub top1: f64,
    pub post_onset_diagnoses: usize,
    pub detect_delay_ticks: f64,
}

/// The measured phase of one run.
pub struct Measured {
    pub wall: Duration,
    /// The process's peak RSS when the phase ended, in MiB.
    pub peak_rss_mb: f64,
    pub traffic: Connection,
    /// Named workload checks beyond the per-reply comparison.
    pub checks: Vec<(String, bool)>,
    pub accuracy: Option<Accuracy>,
}

fn connect(addr: SocketAddr, tally: &mut Tally) -> Option<ServeClient> {
    match ServeClient::connect(addr) {
        Ok(client) => Some(client),
        Err(e) => {
            tally.check(false, || format!("connect: {e}"));
            None
        }
    }
}

/// Streams the normal ticks round-robin over `tenants`, pausing `think`
/// after each reply, until it sent `frames` or `keep_going` says stop.
/// Returns the
/// connection's figures and the number of diagnoses it was sent
/// (anomaly-free ticks should fire none).
#[allow(clippy::too_many_arguments)]
fn stream_tenants(
    mut conn: Connection,
    client: &mut ServeClient,
    context: &OperationContext,
    tenants: &[TenantId],
    reference: &mut StreamReference,
    origin: Instant,
    think: Duration,
    frames: usize,
    keep_going: impl Fn() -> bool,
) -> (Connection, u64) {
    let mut diagnoses = 0;
    let mut i = 0;
    while i < frames && keep_going() {
        let round = i / tenants.len();
        let tenant = &tenants[i % tenants.len()];
        let tick = reference.tick(round);
        let started = Instant::now();
        let result = client.ingest(
            tenant,
            &context.node,
            &context.workload,
            tick.cpi,
            &tick.row,
        );
        let done = Instant::now();
        match result {
            Ok(reply) => {
                let diagnosed = reply.diagnosis.is_some();
                conn.record(origin, started, done, diagnosed);
                diagnoses += u64::from(diagnosed);
                let expected = reference.expected(round);
                let got = Expected::of_reply(&reply);
                conn.tally.check(&got == expected, || {
                    format!("{tenant} round {round}: got {got:?}, expected {expected:?}")
                });
            }
            Err(e) => {
                let fatal = matches!(e, ServeError::Io(_));
                conn.tally
                    .check(false, || format!("{tenant} round {round}: {e}"));
                if fatal {
                    break;
                }
            }
        }
        i += 1;
        if !think.is_zero() {
            std::thread::sleep(think);
        }
    }
    (conn, diagnoses)
}

/// Replays the plan's fault runs in order, each on its own tenant, or
/// until `deadline`. After every reply carrying a diagnosis it asks for
/// an on-demand Diagnose of the same window. Accuracy counts the first
/// round, where every distinct run is replayed once. Returns the
/// connection's figures, the accuracy and the runs replayed.
fn replay_fault_runs(
    mut conn: Connection,
    client: &mut ServeClient,
    plan: &Plan,
    references: &[Vec<Expected>],
    origin: Instant,
    deadline: Instant,
) -> (Connection, Accuracy, usize) {
    let context = plan.context();
    let (mut post_onset, mut top1_hits) = (0usize, 0usize);
    let mut delays = Vec::with_capacity(plan.fault_runs.len());
    let mut replayed = 0;
    'runs: for (slot, (run, idx, tenant)) in plan.replays().enumerate() {
        if Instant::now() >= deadline {
            break;
        }
        let reference = &references[idx];
        let first_round = slot < plan.fault_runs.len();
        let mut first_post_onset = None;
        for (t, tick) in run.ticks.iter().enumerate() {
            let started = Instant::now();
            let result = client.ingest(
                tenant,
                &context.node,
                &context.workload,
                tick.cpi,
                &tick.row,
            );
            let done = Instant::now();
            let reply = match result {
                Ok(reply) => reply,
                Err(e) => {
                    let fatal = matches!(e, ServeError::Io(_));
                    conn.tally
                        .check(false, || format!("{tenant} tick {t}: {e}"));
                    if fatal {
                        break 'runs;
                    }
                    continue;
                }
            };
            conn.record(origin, started, done, reply.diagnosis.is_some());
            let got = Expected::of_reply(&reply);
            conn.tally.check(got == reference[t], || {
                format!(
                    "{tenant} tick {t}: got {got:?}, expected {:?}",
                    reference[t]
                )
            });
            let Some(diagnosis) = reply.diagnosis else {
                continue;
            };
            if first_round && t >= run.onset {
                post_onset += 1;
                first_post_onset.get_or_insert(t);
                if diagnosis.root_cause().map(|c| c.problem.as_str()) == Some(run.fault.name()) {
                    top1_hits += 1;
                }
            }
            let started = Instant::now();
            let result = client.diagnose(tenant, &context.node, &context.workload);
            conn.diagnose_op_ns
                .push(started.elapsed().as_nanos() as u64);
            match result {
                Ok(on_demand) => conn.tally.check(
                    ranked_bits(&on_demand) == ranked_bits(&diagnosis)
                        && on_demand.degradation == diagnosis.degradation,
                    || format!("{tenant} tick {t}: on-demand Diagnose differs from the onset diagnosis"),
                ),
                Err(e) => {
                    let fatal = matches!(e, ServeError::Io(_));
                    conn.tally.check(false, || format!("{tenant} diagnose at tick {t}: {e}"));
                    if fatal {
                        break 'runs;
                    }
                }
            }
        }
        replayed += 1;
        if first_round {
            let remaining = run.ticks.len().saturating_sub(run.onset);
            delays.push(first_post_onset.map_or(remaining, |t| t - run.onset) as f64);
        }
    }
    let accuracy = Accuracy {
        top1: if post_onset == 0 {
            0.0
        } else {
            top1_hits as f64 / post_onset as f64
        },
        post_onset_diagnoses: post_onset,
        detect_delay_ticks: crate::stats::median(&mut delays),
    };
    (conn, accuracy, replayed)
}

/// The fleet's eviction and warm counters, read over the wire.
fn churn_counters(client: &mut ServeClient, tenant: &TenantId) -> Option<(u64, u64)> {
    client.health(tenant).ok().map(|h| (h.evictions, h.warms))
}

/// Runs the workload's measured phase against a deployment.
pub fn run(plan: &Plan, deployment: &Deployment, seconds: u64) -> Measured {
    let addr = deployment.server.addr();
    let context = plan.context();
    let store = &deployment.store;
    let budget = Duration::from_secs(seconds);
    let mut checks = Vec::new();
    let mut traffic = Connection::default();
    let mut accuracy = None;
    let (wall, peak_rss_mb);
    match plan.workload {
        Workload::SteadyIngest | Workload::TenantChurn => {
            let mut reference =
                StreamReference::new(store, context, &plan.training.normal_stream, plan.offset);
            let Some(mut client) = connect(addr, &mut traffic.tally) else {
                return Measured {
                    wall: Duration::ZERO,
                    peak_rss_mb: crate::peak_rss_mb(),
                    traffic,
                    checks,
                    accuracy,
                };
            };
            let probe = &plan.stream_tenants[0];
            let before = churn_counters(&mut client, probe);
            let conn = Connection::presized(plan.stream_frames);
            let started = Instant::now();
            let deadline = started + budget * TIME_LIMIT;
            let (conn, diagnoses) = stream_tenants(
                conn,
                &mut client,
                context,
                &plan.stream_tenants,
                &mut reference,
                started,
                Duration::ZERO,
                plan.stream_frames,
                || Instant::now() < deadline,
            );
            wall = started.elapsed();
            peak_rss_mb = crate::peak_rss_mb();
            let after = churn_counters(&mut client, probe);
            let frames = conn.answered();
            traffic = conn;
            if plan.workload == Workload::SteadyIngest {
                checks.push((
                    "steady_ingest fired no diagnosis".to_string(),
                    diagnoses == 0,
                ));
            } else {
                let churned = match (before, after) {
                    (Some((e0, w0)), Some((e1, w1))) => e1 - e0 == frames && w1 - w0 == frames,
                    _ => false,
                };
                checks.push((
                    "tenant_churn evicted and warmed on every frame".to_string(),
                    churned,
                ));
            }
        }
        Workload::FaultStorm => {
            let references: Vec<Vec<Expected>> = plan
                .fault_runs
                .iter()
                .map(|r| fault_reference(store, context, r))
                .collect();
            let done = AtomicBool::new(false);
            let start = Barrier::new(2);
            let mut client_a = connect(addr, &mut traffic.tally);
            let mut client_b = connect(addr, &mut traffic.tally);
            let (Some(a), Some(b)) = (client_a.as_mut(), client_b.as_mut()) else {
                return Measured {
                    wall: Duration::ZERO,
                    peak_rss_mb: crate::peak_rss_mb(),
                    traffic,
                    checks,
                    accuracy,
                };
            };
            let mut reference_b =
                StreamReference::new(store, context, &plan.training.normal_stream, plan.offset);
            let a_frames = plan.replays().map(|(run, _, _)| run.ticks.len()).sum();
            let conn_a = Connection::presized(a_frames);
            // B sends at most one frame per think time.
            let limit = budget * TIME_LIMIT;
            let b_frames = limit.as_micros() / BYSTANDER_THINK.as_micros();
            let conn_b = Connection::presized(b_frames as usize);
            let started = Instant::now();
            let deadline = started + limit;
            let (conn_a, acc, replayed, conn_b, bystander_diagnoses) =
                std::thread::scope(|scope| {
                    let bystanders = scope.spawn(|| {
                        start.wait();
                        let stream = &plan.stream_tenants;
                        // ordering: Acquire pairs with the Release store below.
                        stream_tenants(
                            conn_b,
                            b,
                            context,
                            stream,
                            &mut reference_b,
                            started,
                            BYSTANDER_THINK,
                            usize::MAX,
                            || !done.load(Ordering::Acquire),
                        )
                    });
                    start.wait();
                    let (conn_a, acc, replayed) =
                        replay_fault_runs(conn_a, a, plan, &references, started, deadline);
                    done.store(true, Ordering::Release);
                    let (conn_b, diagnoses) =
                        bystanders.join().expect("bystander connection thread");
                    (conn_a, acc, replayed, conn_b, diagnoses)
                });
            wall = started.elapsed();
            peak_rss_mb = crate::peak_rss_mb();
            println!(
                "storm: A replayed {replayed} of {} runs, {} frames; B {} frames; in {:.3} s",
                plan.replays.len(),
                conn_a.answered(),
                conn_b.answered(),
                wall.as_secs_f64()
            );
            traffic = conn_a;
            traffic.merge(conn_b);
            checks.push((
                "fault_storm bystanders fired no diagnosis".to_string(),
                bystander_diagnoses == 0,
            ));
            checks.push((
                "fault_storm produced post-onset diagnoses".to_string(),
                acc.post_onset_diagnoses > 0,
            ));
            accuracy = Some(acc);
        }
    }
    Measured {
        wall,
        peak_rss_mb,
        traffic,
        checks,
        accuracy,
    }
}
