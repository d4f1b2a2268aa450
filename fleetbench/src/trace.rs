//! The traced run: the workload's generated inputs replayed through each
//! layer's public functions on twin state, with spans recorded in memory
//! by the benchmark's own code and written out at exit.
//!
//! A span holds a name, a start, an end, its parent and a request id
//! shared by one operation's spans. A layer's figure is the median self
//! time of its spans: the span minus the part its children cover.
//!
//! The frame decomposition per Ingest operation is
//!
//! ```text
//! frame.op                  the client-visible round trip
//! ├─ wire.ingest_encode     IngestRequest JSON + encode_request
//! ├─ client.request         ServeClient::request against the live server
//! └─ wire.reply_decode      IngestReply JSON
//! server.op                 the same request on twin state
//! ├─ wire.ingest_decode     decode_request + IngestRequest JSON
//! ├─ server.handle_ingest   handle_request on a twin fleet
//! └─ wire.reply_encode      IngestReply JSON + encode_response
//! fleet.ingest              Fleet::ingest on a second twin fleet
//! ```
//!
//! What `frame.op` spends outside its measured layers is the transport:
//! loopback, syscalls and thread wake-ups.

use std::collections::BTreeSet;
use std::io::Write;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ix_core::{Engine, InvarNetConfig, ModelStore, ScopeSnapshot, Telemetry, ViolationTuple};
use ix_metrics::MetricFrame;
use ix_serve::wire::{self, IngestReply, IngestRequest, Op, RequestFrame};
use ix_serve::{handle_request, Fleet, ServeClient, TenantId, TenantSnapshot, STATUS_OK};

use crate::inputs::{config, reference_engine, Expected, FaultRun, Rng, Tick};
use crate::stats;
use crate::workloads::{self, Plan, Workload};
use crate::Metric;

/// Ingest frames replayed through the wire layers, per workload.
const STEADY_OPS: usize = 4000;
const CHURN_OPS: usize = 600;
/// `fault_storm` interleaves its first fault runs with bystander ticks.
const STORM_WIRE_RUNS: usize = 8;
/// Fault runs behind the engine, sweep and lock probes: two of each of
/// the 14 faults for workloads that replay none.
const PROBE_RUNS_PER_FAULT: usize = 2;
const PROBE_FAULT_RUNS: usize = 28;
/// Keeps the probe runs' draw apart from the workload's own.
const PROBE_SEED_SALT: u64 = 0x005e_ed0f_fa17;
/// Ticks per timed batch of non-onset ingests and detector steps.
const BATCH: usize = 64;
const BATCHES: usize = 16;
/// Tenants the evict, warm and snapshot probes cycle.
const EVICT_SAMPLE: usize = 100;
/// Bystanders and the think time of both threads in the lock probe:
/// closed loops paced like clients whose round trip is mostly transport.
/// Unpaced, the fault thread would re-take the unfair lock before the
/// bystander wakes and starve it across many diagnoses.
const LOCK_BYSTANDERS: usize = 64;
const LOCK_THINK: Duration = Duration::from_micros(40);
const LOCK_UNCONTENDED_OPS: usize = 2000;
/// Sweep pairs of a 26-metric frame.
const PAIRS: f64 = 325.0;

struct Span {
    name: &'static str,
    req: u64,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// An empty recorder on the same clock, for another thread.
    fn fork(&self) -> Tracer {
        Tracer {
            origin: self.origin,
            spans: Vec::new(),
        }
    }

    fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span that has already ended.
    fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span {
            name,
            req,
            parent,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
        self.spans.len() - 1
    }

    /// Runs `f` inside a span.
    fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let result = f();
        self.record(name, req, parent, start, Instant::now());
        result
    }

    fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(name, req, parent, now, now)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.ns(Instant::now());
    }

    /// Each span's duration minus the union of its children's intervals.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (i, span) in self.spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut intervals: Vec<(u64, u64)> = kids
                    .iter()
                    .map(|&k| {
                        let kid = &self.spans[k];
                        (kid.start_ns.max(span.start_ns), kid.end_ns.min(span.end_ns))
                    })
                    .filter(|(s, e)| e > s)
                    .collect();
                intervals.sort_unstable();
                let (mut covered, mut reach) = (0, span.start_ns);
                for (s, e) in intervals {
                    let s = s.max(reach);
                    if e > s {
                        covered += e - s;
                        reach = e;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Self times of the spans named `name`, in nanoseconds, keeping only
    /// the requests `keep` accepts.
    fn self_ns(&self, selfs: &[u64], name: &str, keep: impl Fn(u64) -> bool) -> Vec<f64> {
        self.spans
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name && keep(s.req))
            .map(|(_, &ns)| ns as f64)
            .collect()
    }

    fn write(&self, path: &std::path::Path, selfs: &[u64]) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {i}, \"req\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {self_ns}}}",
                span.req, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// The traced run's result.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub checks: Vec<(String, bool)>,
    pub attempted: u64,
    pub failed: u64,
}

/// One Ingest operation of the replayed sample.
struct IngestOp<'a> {
    tenant: &'a TenantId,
    tick: &'a Tick,
}

/// The first Ingest operations of the workload, in the order its
/// connections send them (`fault_storm`: fault ticks and bystander ticks
/// alternating, as its two connections interleave).
fn op_sample(plan: &Plan) -> Vec<IngestOp<'_>> {
    let stream = &plan.training.normal_stream;
    let stream_op = |i: usize| IngestOp {
        tenant: &plan.stream_tenants[i % plan.stream_tenants.len()],
        tick: &stream[(plan.offset + i / plan.stream_tenants.len()) % stream.len()],
    };
    match plan.workload {
        Workload::SteadyIngest => (0..STEADY_OPS).map(stream_op).collect(),
        Workload::TenantChurn => (0..CHURN_OPS).map(stream_op).collect(),
        Workload::FaultStorm => {
            let mut ops = Vec::new();
            let fault_ticks = plan
                .replays()
                .take(STORM_WIRE_RUNS)
                .flat_map(|(run, _, tenant)| {
                    run.ticks.iter().map(move |tick| IngestOp { tenant, tick })
                });
            for (i, op) in fault_ticks.enumerate() {
                ops.push(op);
                ops.push(stream_op(i));
            }
            ops
        }
    }
}

fn ingest_request(plan: &Plan, op: &IngestOp) -> RequestFrame {
    let context = plan.context();
    let request = IngestRequest {
        node: context.node.clone(),
        workload: context.workload.clone(),
        cpi: op.tick.cpi,
        row: op.tick.row.clone(),
    };
    RequestFrame {
        tenant: op.tenant.clone(),
        op: Op::Ingest,
        payload: serde_json::to_string(&request)
            .expect("an IngestRequest encodes")
            .into_bytes(),
    }
}

fn decode_reply(payload: &[u8]) -> Option<IngestReply> {
    serde_json::from_str(std::str::from_utf8(payload).ok()?).ok()
}

fn encode_reply(reply: &IngestReply) -> Vec<u8> {
    let payload = serde_json::to_string(reply).expect("an IngestReply encodes");
    wire::encode_response(STATUS_OK, payload.as_bytes())
}

#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<(String, bool)>,
}

impl Checks {
    fn op(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// Replays the op sample untraced through `ServeClient::ingest` and
/// returns its wall time.
fn untraced_pass(plan: &Plan, ops: &[IngestOp], checks: &mut Checks) -> Duration {
    let deployment = workloads::deploy(plan);
    let mut client = ServeClient::connect(deployment.server.addr()).expect("connect to loopback");
    let context = plan.context();
    let started = Instant::now();
    for op in ops {
        let ok = client
            .ingest(
                op.tenant,
                &context.node,
                &context.workload,
                op.tick.cpi,
                &op.tick.row,
            )
            .is_ok();
        checks.op(ok);
    }
    let wall = started.elapsed();
    drop(client);
    deployment.stop();
    wall
}

/// Figures the wire pass produces.
struct WirePass {
    /// Wall time of the client spans, back to back.
    client_wall: Duration,
    diagnosis_reqs: BTreeSet<u64>,
    request_bytes: Vec<f64>,
    reply_bytes: Vec<f64>,
    evictions_per_frame: f64,
    fleet: Arc<Fleet>,
}

/// The traced replay of the op sample. The client spans run back to back
/// against a live server, exactly as the untraced pass runs; the server
/// spans then replay the same requests on one twin fleet, and
/// `Fleet::ingest` on another.
fn wire_pass(
    plan: &Plan,
    ops: &[IngestOp],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> (WirePass, ModelStore) {
    let deployment = workloads::deploy(plan);
    record_setup(tracer, &deployment);
    let handle_twin = workloads::materialize(plan, &deployment.store).0;
    let ingest_twin = workloads::materialize(plan, &deployment.store).0;
    let mut client = ServeClient::connect(deployment.server.addr()).expect("connect to loopback");
    let context = plan.context();
    let evictions_before = deployment.fleet.status().evictions;

    let started = Instant::now();
    let live: Vec<(Vec<u8>, Option<IngestReply>)> = ops
        .iter()
        .enumerate()
        .map(|(i, op)| {
            let req = i as u64;
            let root = tracer.open("frame.op", req, None);
            let (frame, body) = tracer.span("wire.ingest_encode", req, Some(root), || {
                let frame = ingest_request(plan, op);
                let body = wire::encode_request(&frame);
                (frame, body)
            });
            let response =
                tracer.span("client.request", req, Some(root), || client.request(&frame));
            let reply = tracer.span("wire.reply_decode", req, Some(root), || {
                response
                    .as_ref()
                    .ok()
                    .filter(|(status, _)| *status == STATUS_OK)
                    .and_then(|(_, payload)| decode_reply(payload))
            });
            tracer.close(root);
            (body, reply)
        })
        .collect();
    let client_wall = started.elapsed();
    let evictions = deployment.fleet.status().evictions - evictions_before;
    drop(client);
    let deployment_store = deployment.store.clone();
    deployment.stop();

    let mut pass = WirePass {
        client_wall,
        diagnosis_reqs: BTreeSet::new(),
        request_bytes: Vec::new(),
        reply_bytes: Vec::new(),
        evictions_per_frame: evictions as f64 / ops.len().max(1) as f64,
        fleet: Arc::clone(&ingest_twin),
    };
    for (i, (op, (body, reply))) in ops.iter().zip(&live).enumerate() {
        let req = i as u64;
        let server = tracer.open("server.op", req, None);
        let decoded = tracer.span("wire.ingest_decode", req, Some(server), || {
            let frame = wire::decode_request(body).ok()?;
            let text = std::str::from_utf8(&frame.payload).ok()?;
            let request: IngestRequest = serde_json::from_str(text).ok()?;
            Some((frame, request))
        });
        let handled = decoded.as_ref().map(|(frame, _)| {
            tracer.span("server.handle_ingest", req, Some(server), || {
                handle_request(&handle_twin, frame)
            })
        });
        if let Some(reply) = reply {
            let encoded = tracer.span("wire.reply_encode", req, Some(server), || {
                encode_reply(reply)
            });
            pass.reply_bytes.push(encoded.len() as f64);
        }
        tracer.close(server);

        let outcome = tracer.span("fleet.ingest", req, None, || {
            ingest_twin.ingest(op.tenant, context, op.tick.cpi, &op.tick.row)
        });

        pass.request_bytes.push((body.len() + 4) as f64);
        let twin_reply = handled
            .filter(|(status, _)| *status == STATUS_OK)
            .and_then(|(_, payload)| decode_reply(&payload));
        let agree = match (reply, &twin_reply, &outcome) {
            (Some(live), Some(twin), Ok(outcome)) => {
                let live = Expected::of_reply(live);
                live == Expected::of_reply(twin) && live == Expected::of_outcome(outcome)
            }
            _ => false,
        };
        checks.op(agree);
        if reply.as_ref().is_some_and(|r| r.diagnosis.is_some()) {
            pass.diagnosis_reqs.insert(req);
        }
    }
    (pass, deployment_store)
}

fn record_setup(tracer: &mut Tracer, deployment: &workloads::Deployment) {
    let stages = &deployment.stages;
    let root = tracer.record(
        "setup",
        0,
        None,
        deployment.started,
        deployment.started + deployment.setup,
    );
    tracer.record(
        "train.perf_m",
        0,
        Some(root),
        stages.started,
        stages.perf_m_done,
    );
    tracer.record(
        "train.invar_c",
        0,
        Some(root),
        stages.perf_m_done,
        stages.invar_c_done,
    );
    tracer.record(
        "train.sig_b",
        0,
        Some(root),
        stages.invar_c_done,
        stages.sig_b_done,
    );
    for (i, (start, end)) in deployment.materialize.iter().enumerate() {
        tracer.record("fleet.materialize", i as u64, Some(root), *start, *end);
    }
}

/// Diagnosis-path figures from the engine probe.
struct EngineProbe {
    windows: Vec<MetricFrame>,
    diagnoses: Vec<IngestReply>,
    degraded: usize,
    /// The probe engines' telemetry counters, summed over contexts.
    totals: ScopeSnapshot,
}

/// Replays fault runs on fresh telemetry-attached engines (one per run,
/// like a fault tenant), timing onset ingests and the on-demand diagnose.
fn engine_probe(
    store: &ModelStore,
    plan: &Plan,
    runs: &[FaultRun],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> EngineProbe {
    let context = plan.context();
    let hub = Telemetry::shared();
    let (mut windows, mut diagnoses, mut degraded) = (Vec::new(), Vec::new(), 0);
    for (r, run) in runs.iter().enumerate() {
        let engine = Engine::builder().config(config()).telemetry(&hub).build();
        engine.load_state(store).expect("template state loads");
        for tick in &run.ticks {
            let start = Instant::now();
            let outcome = engine.ingest(context, tick.cpi, &tick.row);
            let end = Instant::now();
            let Ok(outcome) = outcome else {
                checks.op(false);
                continue;
            };
            let Some(diagnosis) = outcome.diagnosis else {
                continue;
            };
            tracer.record("engine.onset_ingest", r as u64, None, start, end);
            degraded += usize::from(diagnosis.degradation.is_some());
            let window = engine
                .window_frame(context)
                .expect("a diagnosed context has a window");
            let again = tracer.span("engine.diagnose", r as u64, None, || {
                engine.diagnose(context, &window)
            });
            checks.op(again.is_ok_and(|d| d.ranked == diagnosis.ranked));
            windows.push(window);
            diagnoses.push(IngestReply {
                tick: outcome.tick as u64,
                residual: outcome.residual,
                exceeded: outcome.exceeded,
                anomalous: outcome.anomalous,
                diagnosis: Some(diagnosis),
            });
        }
    }
    EngineProbe {
        windows,
        diagnoses,
        degraded,
        totals: hub.snapshot().total,
    }
}

/// Full sweeps (cache off) and signature ranking on the onset windows.
fn sweep_probe(store: &ModelStore, plan: &Plan, windows: &[MetricFrame], tracer: &mut Tracer) {
    let context = plan.context();
    let uncached = InvarNetConfig {
        sweep_cache_entries: 0,
        ..config()
    };
    let engine = Engine::builder().config(uncached.clone()).build();
    engine.load_state(store).expect("template state loads");
    let invariants = engine
        .invariant_set(context)
        .expect("the template has invariants");
    for (i, window) in windows.iter().enumerate() {
        let matrix = tracer.span("sweep.full", i as u64, None, || {
            engine.association_matrix(window)
        });
        let Ok(matrix) = matrix else { continue };
        tracer
            .span("signature.rank", i as u64, None, || {
                let tuple = ViolationTuple::build(&invariants, &matrix, uncached.epsilon);
                engine.with_signature_database(|db| {
                    db.rank(context, &tuple, uncached.similarity)
                        .map(|r| r.len())
                })
            })
            .ok();
    }
}

/// Non-onset ingests and detector steps over the workload's stream, timed
/// in batches.
fn stream_probe(store: &ModelStore, plan: &Plan, tracer: &mut Tracer) {
    let context = plan.context();
    let stream = &plan.training.normal_stream;
    let ticks: Vec<&Tick> = (0..BATCH * BATCHES)
        .map(|i| &stream[(plan.offset + i) % stream.len()])
        .collect();
    let engine = reference_engine(store);
    for (b, batch) in ticks.chunks(BATCH).enumerate() {
        tracer.span("engine.ingest.batch", b as u64, None, || {
            for tick in batch {
                std::hint::black_box(engine.ingest(context, tick.cpi, &tick.row).ok());
            }
        });
    }
    let detector = engine
        .detector(context)
        .expect("the template has a detector");
    let mut run = detector.begin_run();
    for (b, batch) in ticks.chunks(BATCH).enumerate() {
        tracer.span("detector.step.batch", b as u64, None, || {
            for tick in batch {
                std::hint::black_box(run.step(tick.cpi));
            }
        });
    }
}

/// Evicts and re-warms warm tenants of the twin fleet one at a time, and
/// round-trips their snapshots.
fn evict_probe(
    fleet: &Fleet,
    tenants: &[TenantId],
    tracer: &mut Tracer,
    checks: &mut Checks,
) -> Vec<f64> {
    let mut bytes = Vec::new();
    let warm: Vec<&TenantId> = tenants
        .iter()
        .filter(|t| fleet.is_warm(t))
        .take(EVICT_SAMPLE)
        .collect();
    for (i, tenant) in warm.into_iter().enumerate() {
        let req = i as u64;
        let evicted = tracer.span("fleet.evict", req, None, || fleet.evict(tenant));
        let warmed = tracer.span("fleet.warm", req, None, || fleet.warm(tenant));
        checks.op(evicted.is_ok() && warmed.is_ok());
        let Ok(image) = fleet.snapshot_bytes(tenant) else {
            checks.op(false);
            continue;
        };
        bytes.push(image.len() as f64);
        let snapshot = tracer.span("snapshot.decode", req, None, || {
            TenantSnapshot::from_bytes(&image)
        });
        match snapshot {
            Ok(snapshot) => {
                let again = tracer.span("snapshot.encode", req, None, || snapshot.to_bytes());
                checks.op(again == image);
            }
            Err(_) => checks.op(false),
        }
    }
    bytes
}

/// `Fleet::ingest` on bystanders from a second thread, alone and then
/// while the first thread replays fault runs through their onsets.
/// Returns the uncontended and contended p99 in microseconds.
fn lock_probe(
    store: &ModelStore,
    plan: &Plan,
    runs: &[FaultRun],
    tracer: &mut Tracer,
) -> (f64, f64) {
    let context = plan.context();
    let fleet = Fleet::builder()
        .config(config())
        .warm_limit(LOCK_BYSTANDERS + runs.len())
        .build();
    let bystanders: Vec<TenantId> = (0..LOCK_BYSTANDERS)
        .map(|i| TenantId::new(format!("lock-bystander-{i}")).expect("valid id"))
        .collect();
    let faulty: Vec<TenantId> = (0..runs.len())
        .map(|i| TenantId::new(format!("lock-fault-{i}")).expect("valid id"))
        .collect();
    for id in bystanders.iter().chain(&faulty) {
        fleet
            .with_engine(id, |e| e.load_state(store))
            .expect("materializes")
            .expect("loads");
    }
    let stream = &plan.training.normal_stream;
    let bystander_loop =
        |tracer: &mut Tracer, name: &'static str, keep_going: &dyn Fn(usize) -> bool| {
            let mut us = Vec::new();
            let mut i = 0;
            while keep_going(i) {
                let tenant = &bystanders[i % bystanders.len()];
                let tick = &stream[(plan.offset + i / bystanders.len()) % stream.len()];
                let start = Instant::now();
                let _ = std::hint::black_box(fleet.ingest(tenant, context, tick.cpi, &tick.row));
                let end = Instant::now();
                tracer.record(name, i as u64, None, start, end);
                us.push((end - start).as_nanos() as f64 / 1e3);
                std::thread::sleep(LOCK_THINK);
                i += 1;
            }
            us
        };
    let mut alone = bystander_loop(tracer, "fleet.ingest.uncontended", &|i| {
        i < LOCK_UNCONTENDED_OPS
    });
    let done = AtomicBool::new(false);
    let mut side = tracer.fork();
    let mut contended = std::thread::scope(|scope| {
        let bystander = scope.spawn(|| {
            // ordering: Acquire pairs with the Release store below.
            bystander_loop(&mut side, "fleet.ingest.contended", &|_| {
                !done.load(Ordering::Acquire)
            })
        });
        for (run, tenant) in runs.iter().zip(&faulty) {
            for tick in &run.ticks {
                let _ = std::hint::black_box(fleet.ingest(tenant, context, tick.cpi, &tick.row));
                std::thread::sleep(LOCK_THINK);
            }
        }
        done.store(true, Ordering::Release);
        bystander.join().expect("lock probe bystander thread")
    });
    tracer.absorb(side);
    (
        stats::quantile(&mut alone, 0.99),
        stats::quantile(&mut contended, 0.99),
    )
}

/// Runs every probe on the plan's inputs and reports the per-layer
/// metrics.
pub fn run(plan: &Plan, seed: u64, calib_start_ms: f64) -> Traced {
    let mut tracer = Tracer::new();
    let mut checks = Checks::default();
    let ops = op_sample(plan);

    // Untraced passes before and after the traced one, so that neither
    // side alone pays for cold caches.
    let before = untraced_pass(plan, &ops, &mut checks);
    let (pass, store) = wire_pass(plan, &ops, &mut tracer, &mut checks);
    let untraced_wall = (before + untraced_pass(plan, &ops, &mut checks)) / 2;

    // The storm's own fault runs, or a stratified probe set for workloads
    // that carry none, so every workload reports every layer.
    let probe_runs: Vec<FaultRun> = if plan.fault_runs.is_empty() {
        plan.training
            .fault_mix(&mut Rng::new(seed ^ PROBE_SEED_SALT), PROBE_RUNS_PER_FAULT)
    } else {
        plan.fault_runs
            .iter()
            .take(PROBE_FAULT_RUNS)
            .cloned()
            .collect()
    };
    let engine = engine_probe(&store, plan, &probe_runs, &mut tracer, &mut checks);
    sweep_probe(&store, plan, &engine.windows, &mut tracer);
    stream_probe(&store, plan, &mut tracer);
    let snapshot_bytes = evict_probe(&pass.fleet, &plan.stream_tenants, &mut tracer, &mut checks);
    let (uncontended_p99, contended_p99) = lock_probe(&store, plan, &probe_runs, &mut tracer);

    let mut diagnosis_reply_bytes = Vec::new();
    for (i, reply) in engine.diagnoses.iter().enumerate() {
        let encoded = tracer.span("wire.diagnosis_reply_encode", i as u64, None, || {
            encode_reply(reply)
        });
        diagnosis_reply_bytes.push(encoded.len() as f64);
    }
    let calib_end_ms = crate::calibrate_ms();
    println!("host: calib_end_ms={calib_end_ms:.3}");

    let selfs = tracer.self_times();
    let plain = |r: u64| !pass.diagnosis_reqs.contains(&r);
    let all = |_: u64| true;
    let med = |name: &str, keep: &dyn Fn(u64) -> bool, scale: f64| {
        stats::median(&mut tracer.self_ns(&selfs, name, keep)) / scale
    };
    // Whole round trips, children included.
    let mut op_us: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.name == "frame.op" && plain(s.req))
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    let frame_p50_us = stats::median(&mut op_us);
    let layers_us = med("wire.ingest_encode", &plain, 1e3)
        + med("wire.ingest_decode", &plain, 1e3)
        + med("server.handle_ingest", &plain, 1e3)
        + med("wire.reply_encode", &plain, 1e3)
        + med("wire.reply_decode", &plain, 1e3);
    let sweep_full_ms = med("sweep.full", &all, 1e6);
    let t = &engine.totals;
    let stale =
        (t.sweep_pairs_reused + t.sweep_pairs_screened + t.sweep_pairs_confirmed).max(1) as f64;
    let diagnoses = engine.diagnoses.len().max(1) as f64;
    let lookups = (t.sweep_cache_hits + t.sweep_cache_misses).max(1) as f64;

    let metrics = vec![
        Metric::new(
            "wire.ingest_encode_us",
            "us",
            med("wire.ingest_encode", &plain, 1e3),
        ),
        Metric::new(
            "wire.ingest_decode_us",
            "us",
            med("wire.ingest_decode", &plain, 1e3),
        ),
        Metric::new(
            "wire.reply_encode_us",
            "us",
            med("wire.reply_encode", &plain, 1e3),
        ),
        Metric::new(
            "wire.reply_decode_us",
            "us",
            med("wire.reply_decode", &plain, 1e3),
        ),
        Metric::new(
            "wire.request_bytes",
            "bytes",
            stats::median(&mut pass.request_bytes.clone()),
        ),
        Metric::new(
            "wire.reply_bytes",
            "bytes",
            stats::median(&mut pass.reply_bytes.clone()),
        ),
        Metric::new(
            "wire.diagnosis_reply_encode_us",
            "us",
            med("wire.diagnosis_reply_encode", &all, 1e3),
        ),
        Metric::new(
            "wire.diagnosis_reply_bytes",
            "bytes",
            stats::median(&mut diagnosis_reply_bytes),
        ),
        Metric::new(
            "server.handle_ingest_us",
            "us",
            med("server.handle_ingest", &plain, 1e3),
        ),
        Metric::new("server.transport_us", "us", frame_p50_us - layers_us),
        Metric::new("fleet.ingest_us", "us", med("fleet.ingest", &plain, 1e3)),
        Metric::new("fleet.ingest_contended_p99_us", "us", contended_p99),
        Metric::new(
            "fleet.lock_wait_p99_us",
            "us",
            contended_p99 - uncontended_p99,
        ),
        Metric::new("fleet.evict_us", "us", med("fleet.evict", &all, 1e3)),
        Metric::new("fleet.warm_us", "us", med("fleet.warm", &all, 1e3)),
        Metric::new(
            "fleet.evictions_per_frame",
            "ratio",
            pass.evictions_per_frame,
        ),
        Metric::new(
            "fleet.materialize_us",
            "us",
            med("fleet.materialize", &all, 1e3),
        ),
        Metric::new(
            "snapshot.encode_us",
            "us",
            med("snapshot.encode", &all, 1e3),
        ),
        Metric::new(
            "snapshot.decode_us",
            "us",
            med("snapshot.decode", &all, 1e3),
        ),
        Metric::new(
            "snapshot.bytes",
            "bytes",
            stats::median(&mut snapshot_bytes.clone()),
        ),
        Metric::new(
            "engine.ingest_ns",
            "ns",
            med("engine.ingest.batch", &all, BATCH as f64),
        ),
        Metric::new(
            "detector.step_ns",
            "ns",
            med("detector.step.batch", &all, BATCH as f64),
        ),
        Metric::new(
            "engine.onset_ingest_ms",
            "ms",
            med("engine.onset_ingest", &all, 1e6),
        ),
        Metric::new(
            "engine.diagnose_ms",
            "ms",
            med("engine.diagnose", &all, 1e6),
        ),
        Metric::new("sweep.full_ms", "ms", sweep_full_ms),
        Metric::new("mic.pair_us", "us", sweep_full_ms * 1e3 / PAIRS),
        Metric::new(
            "sweep.pairs_reused",
            "pairs",
            t.sweep_pairs_reused as f64 / diagnoses,
        ),
        Metric::new(
            "sweep.pairs_screened",
            "pairs",
            t.sweep_pairs_screened as f64 / diagnoses,
        ),
        Metric::new(
            "sweep.pairs_confirmed",
            "pairs",
            t.sweep_pairs_confirmed as f64 / diagnoses,
        ),
        Metric::new(
            "sweep.incremental_share",
            "ratio",
            (t.sweep_pairs_reused + t.sweep_pairs_screened) as f64 / stale,
        ),
        Metric::new(
            "sweep_cache.hit_ratio",
            "ratio",
            t.sweep_cache_hits as f64 / lookups,
        ),
        Metric::new("signature.rank_us", "us", med("signature.rank", &all, 1e3)),
        Metric::new("diagnosis.degraded", "count", engine.degraded as f64),
        Metric::new("train.perf_m_ms", "ms", med("train.perf_m", &all, 1e6)),
        Metric::new("train.invar_c_ms", "ms", med("train.invar_c", &all, 1e6)),
        Metric::new("train.sig_b_ms", "ms", med("train.sig_b", &all, 1e6)),
        Metric::new("host.calib_ms", "ms", (calib_start_ms + calib_end_ms) / 2.0),
        Metric::new("trace.frame_p50_us", "us", frame_p50_us),
        Metric::new(
            "trace.overhead_ratio",
            "ratio",
            pass.client_wall.as_secs_f64() / untraced_wall.as_secs_f64(),
        ),
        Metric::new(
            "trace.residual_ratio",
            "ratio",
            (frame_p50_us - layers_us) / frame_p50_us,
        ),
    ];

    checks.notes.push((
        "traced replay: live server, twin handler and twin fleet agree".to_string(),
        checks.failed == 0,
    ));
    if plan.workload == Workload::TenantChurn {
        checks.notes.push((
            "tenant_churn evicts on every traced frame".to_string(),
            pass.evictions_per_frame >= 1.0,
        ));
    }
    let path = std::path::PathBuf::from(format!(
        ".fleetbench/trace-{}-seed{seed}.jsonl",
        plan.workload.name()
    ));
    match tracer.write(&path, &selfs) {
        Ok(()) => println!(
            "spans: {} written to {}",
            tracer.spans.len(),
            path.display()
        ),
        Err(e) => println!("spans: could not write {}: {e}", path.display()),
    }
    for m in &metrics {
        println!("{} = {} {}", m.name, m.value, m.unit);
    }
    Traced {
        metrics,
        checks: checks.notes,
        attempted: checks.attempted,
        failed: checks.failed,
    }
}
