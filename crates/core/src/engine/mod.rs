//! The layered streaming diagnosis engine.
//!
//! [`Engine`] is the crate's one entry point. It exposes each paper stage
//! (Perf-M, Invar-C, Sig-B, Perf-D, Cause-I) as a `&self` method and splits
//! the work into explicit layers:
//!
//! - **ingest** ([`Engine::ingest`]) — one CPI sample + one metric row per
//!   tick, buffered in a per-context [`ix_metrics::SlidingFrame`];
//! - **detection** ([`detector`]) — a pluggable streaming [`Detector`]
//!   (ARIMA residuals or CUSUM, selected by
//!   [`crate::config::DetectorChoice`]);
//! - **state** ([`state`]) — per-context state sharded across `N` locks so
//!   concurrent contexts don't contend;
//! - **diagnosis** ([`diagnosis`]) — invariant violation tuples matched
//!   against the signature database, with association sweeps on a
//!   persistent [`SweepPool`];
//! - **events** ([`events`]) — what each layer did, reported through a
//!   pluggable [`EventSink`];
//! - **recording** ([`recorder`]) — an optional append-only history sink
//!   ([`HistoryRecorder`], attach with [`EngineBuilder::history`]) that
//!   observes tick rows, events, sweep scores and diagnoses, and can serve
//!   diagnosis windows back to the engine;
//! - **telemetry** ([`telemetry`]) — the one place events are counted:
//!   context-attributed metrics, phase spans, and Prometheus / JSON /
//!   report exporters (attach with [`EngineBuilder::telemetry`]).

mod builder;
pub mod detector;
pub mod diagnosis;
pub mod events;
mod ingest;
pub mod inspect;
pub mod recorder;
pub mod resilience;
mod state;
mod sweep_cache;
pub mod telemetry;
mod wire;

use std::collections::HashMap;
use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

use ix_metrics::{MetricFrame, MetricId, METRIC_COUNT};

use crate::anomaly::{DetectionResult, PerformanceModel};
use crate::assoc::{pair_count, pair_index, AssociationMatrix, SweepPool};
use crate::config::{DetectorChoice, InvarNetConfig};
use crate::context::OperationContext;
use crate::cusum::CusumDetector;
use crate::error::CoreError;
use crate::incremental::{AdvanceOutcome, IncrementalSweep};
use crate::invariants::InvariantSet;
use crate::measure::{AssociationMeasure, MicMeasure, PearsonMeasure};
use crate::signature::{Signature, SignatureDatabase, ViolationTuple};

pub use builder::EngineBuilder;
pub use detector::{ArimaDetector, CusumStreamDetector, Detector, DetectorRun, TickDecision};
pub use diagnosis::{Diagnosis, RankedCause};
pub use events::{EngineEvent, EventSink, NullSink};
pub use ingest::TickOutcome;
pub use inspect::{ContextStateSnapshot, EngineInspector};
pub use recorder::{HistoryRecorder, NullRecorder};
pub use telemetry::Telemetry;

use recorder::RecorderTee;

use resilience::{
    DegradationReason, DegradationTier, HealthMonitor, IngestQueue, SweepBudget,
    SweepCostPredictor, SweepDegradation,
};
use state::ShardedStateMap;
use sweep_cache::SweepCache;
use telemetry::{ContextId, ContextRegistry, EnginePhase, Span, CONFIDENT_SIMILARITY};

/// The streaming diagnosis engine. All methods take `&self`; state lives
/// behind sharded locks, so one engine can be shared across ingestion
/// threads.
pub struct Engine {
    config: InvarNetConfig,
    measure: Arc<dyn AssociationMeasure>,
    /// The degradation ladder's tier-2 measure: a full sweep under a
    /// cheap, always-available score (Pearson).
    fallback: Arc<dyn AssociationMeasure>,
    state: ShardedStateMap,
    signatures: RwLock<SignatureDatabase>,
    /// The sweep worker pool. Shared (`Arc`) so a fleet of tenant engines
    /// can run on one pool sized to the box instead of spawning worker
    /// threads per engine (see [`EngineBuilder::shared_pool`]).
    pool: Arc<SweepPool>,
    sweep_cache: SweepCache,
    sink: Arc<dyn EventSink>,
    /// The attached history recorder, if any (see [`EngineBuilder::history`]).
    recorder: Option<Arc<dyn HistoryRecorder>>,
    /// The attached telemetry hub, if any — kept alongside the sink so the
    /// ingest path can attribute recorder-append costs to context scopes
    /// without downcasting the sink.
    telemetry: Option<Arc<Telemetry>>,
    contexts: Arc<ContextRegistry>,
    ticks: AtomicU64,
    health: HealthMonitor,
    queue: IngestQueue,
    /// EWMA estimates of full and incremental sweep cost, consulted to
    /// predict budget overruns before burning wall-clock on a doomed
    /// sweep (and to probe out of a stale over-budget estimate).
    sweep_cost: SweepCostPredictor,
    /// Per-context incremental sweep state: the delta-maintained plan and
    /// score cache [`Engine::diagnosis_matrix_for`] advances instead of
    /// re-sweeping from scratch when consecutive diagnosis windows slide.
    incremental: Mutex<HashMap<ContextId, IncrementalSweep>>,
}

impl Engine {
    /// An engine with the default MIC measure.
    pub fn new(config: InvarNetConfig) -> Self {
        let mic = MicMeasure::new(config.mic);
        Self::with_measure(config, Arc::new(mic))
    }

    /// Starts an [`EngineBuilder`] — the preferred way to assemble a
    /// configured engine in one expression.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::new()
    }

    /// An engine with an explicit association measure (e.g. the ARX
    /// baseline).
    pub fn with_measure(config: InvarNetConfig, measure: Arc<dyn AssociationMeasure>) -> Self {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(8));
        let shards = config.state_shards;
        let sweep_cache = SweepCache::new(config.sweep_cache_entries);
        let queue = IngestQueue::new(
            shards,
            config.ingest_queue_ticks,
            config.consecutive_anomalies,
            config.overload,
        );
        Engine {
            config,
            measure,
            fallback: Arc::new(PearsonMeasure),
            state: ShardedStateMap::new(shards),
            signatures: RwLock::new(SignatureDatabase::new()),
            pool: Arc::new(SweepPool::new(threads)),
            sweep_cache,
            sink: Arc::new(NullSink),
            recorder: None,
            telemetry: None,
            contexts: Arc::new(ContextRegistry::new()),
            ticks: AtomicU64::new(0),
            health: HealthMonitor::new(),
            queue,
            sweep_cost: SweepCostPredictor::new(),
            incremental: Mutex::new(HashMap::new()),
        }
    }

    pub(crate) fn set_threads_internal(&mut self, threads: usize) {
        self.pool = Arc::new(SweepPool::new(threads));
    }

    pub(crate) fn set_shared_pool_internal(&mut self, pool: Arc<SweepPool>) {
        self.pool = pool;
    }

    pub(crate) fn set_lifetime_ticks_internal(&mut self, ticks: u64) {
        self.ticks = AtomicU64::new(ticks);
    }

    /// The sweep pool this engine runs on (share it across engines with
    /// [`EngineBuilder::shared_pool`]).
    pub fn sweep_pool(&self) -> Arc<SweepPool> {
        Arc::clone(&self.pool)
    }

    /// The engine-wide lifetime tick counter: how many ticks have ever
    /// been ingested (the label the *next* tick will take). Seed a fresh
    /// engine to continue an old one's numbering with
    /// [`EngineBuilder::lifetime_ticks`].
    pub fn lifetime_ticks(&self) -> u64 {
        // ordering: Relaxed — a monotone counter read for snapshots; the
        // caller serializes against ingest externally when exactness
        // matters (e.g. fleet eviction quiesces the tenant first).
        self.ticks.load(std::sync::atomic::Ordering::Relaxed)
    }

    pub(crate) fn set_event_sink_internal(&mut self, sink: Arc<dyn EventSink>) {
        self.sink = sink;
    }

    pub(crate) fn attach_telemetry_internal(&mut self, telemetry: &Arc<Telemetry>) {
        self.contexts = Arc::clone(telemetry.contexts());
        self.sink = Arc::<Telemetry>::clone(telemetry);
        self.telemetry = Some(Arc::clone(telemetry));
    }

    /// Fans the event stream out to extra sinks behind the primary one
    /// (see [`EngineBuilder::extra_sink`]). Must run after the
    /// sink/telemetry wiring and before the history tee, so the recorder
    /// still observes the identical stream.
    pub(crate) fn attach_extra_sinks_internal(&mut self, extras: Vec<Arc<dyn EventSink>>) {
        if extras.is_empty() {
            return;
        }
        self.sink = Arc::new(events::FanOutSink::new(Arc::clone(&self.sink), extras));
    }

    /// The attached telemetry hub, if any.
    pub(crate) fn telemetry(&self) -> Option<&Arc<Telemetry>> {
        self.telemetry.as_ref()
    }

    /// Attaches a history recorder: the recorder is teed behind the event
    /// sink (it observes the identical event stream), receives tick rows,
    /// sweep scores and diagnoses first-class, and — when it can serve
    /// windows back — becomes the source of diagnosis frames. Must run
    /// after the sink/telemetry wiring so the tee wraps the final sink.
    pub(crate) fn attach_history_internal(&mut self, recorder: Arc<dyn HistoryRecorder>) {
        recorder.bind_registry(&self.contexts);
        self.sink = Arc::new(RecorderTee::new(
            Arc::clone(&self.sink),
            Arc::clone(&recorder),
        ));
        self.recorder = Some(recorder);
    }

    /// The attached history recorder, if any.
    pub(crate) fn recorder(&self) -> Option<&Arc<dyn HistoryRecorder>> {
        self.recorder.as_ref()
    }

    /// Whether a history recorder is attached.
    pub fn has_history(&self) -> bool {
        self.recorder.is_some()
    }

    /// The registry the engine interns [`crate::OperationContext`]s into.
    pub fn context_registry(&self) -> &Arc<ContextRegistry> {
        &self.contexts
    }

    pub(crate) fn intern_context(&self, context: &OperationContext) -> ContextId {
        self.contexts.intern(context)
    }

    /// The configuration.
    pub fn config(&self) -> &InvarNetConfig {
        &self.config
    }

    /// The association measure's name ("MIC" / "ARX" / ...).
    pub fn measure_name(&self) -> &'static str {
        self.measure.name()
    }

    /// Number of sweep workers.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Number of state shards.
    pub fn state_shards(&self) -> usize {
        self.state.shard_count()
    }

    pub(crate) fn sink(&self) -> &Arc<dyn EventSink> {
        &self.sink
    }

    pub(crate) fn state(&self) -> &ShardedStateMap {
        &self.state
    }

    pub(crate) fn tick_counter(&self) -> &AtomicU64 {
        &self.ticks
    }

    pub(crate) fn health_monitor(&self) -> &HealthMonitor {
        &self.health
    }

    pub(crate) fn ingest_queue(&self) -> &IngestQueue {
        &self.queue
    }

    // ------------------------------------------------------- offline part

    /// Trains the per-context performance model on N normal CPI traces and
    /// instantiates the configured streaming detector (ARIMA, or CUSUM
    /// calibrated on the same traces).
    ///
    /// # Errors
    ///
    /// Propagates training errors ([`CoreError::NotEnoughRuns`], ARIMA
    /// failures).
    pub fn train_performance_model(
        &self,
        context: OperationContext,
        cpi_traces: &[Vec<f64>],
    ) -> Result<(), CoreError> {
        let id = self.intern_context(&context);
        let _span = Span::enter(&self.sink, EnginePhase::Train, id);
        let model = Arc::new(PerformanceModel::train(cpi_traces, self.config.beta)?);
        let detector: Arc<dyn Detector> = match self.config.detector {
            DetectorChoice::Arima => Arc::new(ArimaDetector::new(
                Arc::clone(&model),
                self.config.threshold_rule,
                self.config.consecutive_anomalies,
            )),
            DetectorChoice::Cusum { k, h } => Arc::new(CusumStreamDetector::new(
                CusumDetector::train(cpi_traces, k, h)?,
            )),
        };
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.perf_model = Some(model);
                s.detector = Some(detector);
                s.reset_run();
            });
        self.note_run_reset(&context);
        Ok(())
    }

    /// Computes the pairwise association matrix of one frame under the
    /// configured measure, on the persistent worker pool.
    ///
    /// # Errors
    ///
    /// [`CoreError::FrameTooShort`] when the frame has too few ticks.
    pub fn association_matrix(&self, frame: &MetricFrame) -> Result<AssociationMatrix, CoreError> {
        self.association_matrix_for(ContextId::UNATTRIBUTED, frame)
    }

    /// [`Engine::association_matrix`] with the sweep attributed to an
    /// interned context (internal callers that know whose window this is).
    pub(crate) fn association_matrix_for(
        &self,
        context: ContextId,
        frame: &MetricFrame,
    ) -> Result<AssociationMatrix, CoreError> {
        self.budgeted_matrix_for(context, frame, SweepBudget::UNLIMITED)
            .map(|verdict| verdict.matrix)
    }

    /// The budget-aware sweep: full fidelity when the budget allows,
    /// otherwise the first answer a declared degradation ladder can give —
    /// stale cached matrix, full Pearson sweep, or a partial matrix over
    /// the highest-variance metrics. Every degraded outcome is reported as
    /// [`EngineEvent::SweepDegraded`]; the verdict says exactly which tier
    /// answered, so no caller can mistake a degraded matrix for a full
    /// one.
    pub(crate) fn budgeted_matrix_for(
        &self,
        context: ContextId,
        frame: &MetricFrame,
        budget: SweepBudget,
    ) -> Result<SweepVerdict, CoreError> {
        if frame.ticks() < self.config.min_frame_ticks {
            return Err(CoreError::FrameTooShort {
                required: self.config.min_frame_ticks,
                got: frame.ticks(),
            });
        }
        // The matrix is a pure function of the frame's values under this
        // engine's fixed measure, so an unchanged window (a re-diagnosed
        // sliding window, `violation_tuple` + `record_signature` on one
        // frame) is served from the MRU cache bit-for-bit — full fidelity
        // at zero cost, whatever the budget.
        if self.sweep_cache.is_enabled() {
            if let Some(matrix) = self.sweep_cache.get(frame.values()) {
                self.sink
                    .record(&EngineEvent::SweepCacheLookup { context, hit: true });
                self.note_health_ok(context);
                return Ok(SweepVerdict::full(matrix));
            }
            self.sink.record(&EngineEvent::SweepCacheLookup {
                context,
                hit: false,
            });
        }
        // A pair budget below the full pair population can never be met by
        // a full sweep under any measure: degrade without trying (and
        // without the Pearson tier, which scores every pair too).
        if budget.max_pairs.is_some_and(|max| max < pair_count()) {
            return Ok(self.degrade(
                context,
                frame,
                budget,
                DegradationReason::PairBudgetExceeded,
                false,
            ));
        }
        // When past full sweeps averaged longer than the wall budget,
        // predict the overrun instead of paying for it — except for the
        // periodic probe that keeps the estimate honest: a skipped sweep
        // produces no sample, so without probes a stale over-budget
        // estimate would pin the engine in the degraded tier forever.
        if let Some(wall) = budget.wall {
            let predicted = self.sweep_cost.predicted_full_micros();
            if predicted > 0
                && Duration::from_micros(predicted) > wall
                && !self.sweep_cost.note_skipped_should_probe()
            {
                return Ok(self.degrade(
                    context,
                    frame,
                    budget,
                    DegradationReason::PredictedOverrun,
                    true,
                ));
            }
        }
        // lint: allow(determinism, telemetry-only: sweep micros feed a
        // SweepCompleted event; replay normalizes all recorded timings)
        let started = Instant::now();
        let bounded = {
            let _span = Span::enter(&self.sink, EnginePhase::Sweep, context);
            self.pool.sweep_bounded(
                frame,
                &self.measure,
                context,
                &self.sink,
                budget.deadline(started),
            )
        };
        if !bounded.completed {
            // The abandoned sweep still cost its deadline's worth of
            // wall-clock; fold that in so the estimate converges upward
            // even when full sweeps never complete.
            self.sweep_cost
                .observe_full(started.elapsed().as_micros() as u64);
            return Ok(self.degrade(
                context,
                frame,
                budget,
                DegradationReason::WallClockExceeded,
                true,
            ));
        }
        let micros = started.elapsed().as_micros() as u64;
        self.sink.record(&EngineEvent::SweepCompleted {
            context,
            pairs: pair_count(),
            micros,
        });
        self.sweep_cost.observe_full(micros);
        self.sweep_cache
            .insert(context, frame.values(), bounded.matrix.clone());
        self.note_health_ok(context);
        Ok(SweepVerdict::full(bounded.matrix))
    }

    /// The diagnosis-path sweep: [`Engine::budgeted_matrix_for`] fronted
    /// by per-context incremental state. When the context's previous
    /// window is alive and the new window is a bounded forward slide of
    /// it, the sweep is answered by delta: profiles slide in place, clean
    /// pair scores are reused verbatim, and stale invariant pairs go
    /// through the screen-then-confirm pass ([`IncrementalSweep::rescore`])
    /// — the violation tuple built from the result is bit-identical to a
    /// full from-scratch sweep's. Otherwise the full budgeted path runs
    /// and (when it answers at full fidelity) reseeds the state.
    pub(crate) fn diagnosis_matrix_for(
        &self,
        context: ContextId,
        frame: &MetricFrame,
        budget: SweepBudget,
        invariants: &InvariantSet,
    ) -> Result<SweepVerdict, CoreError> {
        if frame.ticks() < self.config.min_frame_ticks {
            return Err(CoreError::FrameTooShort {
                required: self.config.min_frame_ticks,
                got: frame.ticks(),
            });
        }
        let series: Vec<Vec<f64>> = MetricId::ALL.iter().map(|&m| frame.series(m)).collect();
        let state = self
            .incremental
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(&context);
        let mut reseed = true;
        if let Some(mut state) = state {
            // Compose with the budget ladder: when even the incremental
            // pass is predicted over the wall budget, keep the (untouched)
            // state for a roomier window and let the ladder answer.
            let predicted = self.sweep_cost.predicted_incremental_micros();
            let over_wall = budget
                .wall
                .is_some_and(|wall| predicted > 0 && Duration::from_micros(predicted) > wall);
            if over_wall {
                self.put_incremental(context, state);
                reseed = false;
            } else {
                match state.advance(&series) {
                    AdvanceOutcome::Identical => {
                        // Nothing moved: the sweep cache serves this window
                        // bit-for-bit below; the state stays valid.
                        self.put_incremental(context, state);
                        reseed = false;
                    }
                    AdvanceOutcome::Advanced { .. } => {
                        // lint: allow(determinism, telemetry-only: screen
                        // micros feed events; replay normalizes timings)
                        let started = Instant::now();
                        let outcome = {
                            let _span = Span::enter(&self.sink, EnginePhase::Screen, context);
                            state.rescore(invariants, self.config.epsilon)
                        };
                        let micros = started.elapsed().as_micros() as u64;
                        let matrix = state.matrix();
                        self.sink.record(&EngineEvent::SweepScreened {
                            context,
                            reused: outcome.reused,
                            screened: outcome.screened,
                            confirmed: outcome.confirmed,
                        });
                        self.sink.record(&EngineEvent::SweepCompleted {
                            context,
                            pairs: outcome.confirmed,
                            micros,
                        });
                        self.sweep_cost.observe_incremental(micros);
                        self.note_health_ok(context);
                        self.put_incremental(context, state);
                        return Ok(SweepVerdict::full(matrix));
                    }
                    // The state is spent (window jumped, or a profile
                    // refused to slide): fall through to the full path,
                    // which reseeds.
                    AdvanceOutcome::Unsupported => {}
                }
            }
        }
        let verdict = self.budgeted_matrix_for(context, frame, budget)?;
        if reseed && verdict.degradation.is_none() {
            // Only a full-fidelity matrix may seed the score cache —
            // degraded tiers score under a different measure (or not at
            // all), and the soundness contract starts from exact scores.
            if let Some(state) = IncrementalSweep::seed(
                &self.measure,
                &self.pool,
                series,
                verdict.matrix.scores().to_vec(),
            ) {
                self.put_incremental(context, state);
            }
        }
        Ok(verdict)
    }

    /// Stores `state` as `context`'s live incremental sweep state.
    fn put_incremental(&self, context: ContextId, state: IncrementalSweep) {
        self.incremental
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(context, state);
    }

    /// Walks the degradation ladder until a tier produces a matrix. Tier 3
    /// always succeeds, so this function always returns a degraded — never
    /// silently absent — verdict.
    fn degrade(
        &self,
        context: ContextId,
        frame: &MetricFrame,
        budget: SweepBudget,
        reason: DegradationReason,
        allow_pearson: bool,
    ) -> SweepVerdict {
        // Tier 1: the last full-fidelity matrix computed from *this
        // context's* window — stale, but structurally sound.
        if let Some(matrix) = self.sweep_cache.most_recent_for(context) {
            let degradation = SweepDegradation {
                tier: DegradationTier::CachedMatrix,
                reason,
            };
            self.note_degradation(context, degradation.tier, reason);
            return SweepVerdict {
                matrix,
                degradation: Some(degradation),
                scored: None,
            };
        }
        // Tier 2: a full sweep under the cheap Pearson fallback, granted a
        // fresh wall budget of its own. Skipped when the pair budget rules
        // out any full sweep.
        if allow_pearson {
            // lint: allow(determinism, telemetry-only: fallback-sweep micros
            // feed a SweepCompleted event; replay normalizes timings)
            let started = Instant::now();
            let bounded = {
                let _span = Span::enter(&self.sink, EnginePhase::Sweep, context);
                self.pool.sweep_bounded(
                    frame,
                    &self.fallback,
                    context,
                    &self.sink,
                    budget.deadline(started),
                )
            };
            if bounded.completed {
                let degradation = SweepDegradation {
                    tier: DegradationTier::PearsonFallback,
                    reason,
                };
                self.note_degradation(context, degradation.tier, reason);
                return SweepVerdict {
                    matrix: bounded.matrix,
                    degradation: Some(degradation),
                    scored: None,
                };
            }
        }
        // Tier 3: a partial Pearson matrix over the highest-variance
        // metrics — bounded work, always completes.
        let (matrix, scored) = self.partial_matrix(frame, budget);
        let degradation = SweepDegradation {
            tier: DegradationTier::PartialMatrix,
            reason,
        };
        self.note_degradation(context, degradation.tier, reason);
        SweepVerdict {
            matrix,
            degradation: Some(degradation),
            scored: Some(scored),
        }
    }

    /// The ladder's last resort: Pearson scores for the pairs among the
    /// `k` highest-variance metrics, where `k(k-1)/2` fits the pair
    /// budget. Returns the matrix (unscored pairs hold `0.0`) and the
    /// scored mask — diagnosis masks unscored pairs out of the violation
    /// tuple rather than reading the placeholder zeros as evidence.
    fn partial_matrix(
        &self,
        frame: &MetricFrame,
        budget: SweepBudget,
    ) -> (AssociationMatrix, Vec<bool>) {
        const DEFAULT_PARTIAL_PAIRS: usize = 66; // 12 metrics' worth
        let pair_budget = budget
            .max_pairs
            .unwrap_or(DEFAULT_PARTIAL_PAIRS)
            .min(pair_count());
        // Largest k with k(k-1)/2 <= pair_budget, at least 2 so the
        // matrix is never empty.
        let mut k = 2;
        while k < METRIC_COUNT && (k + 1) * k / 2 <= pair_budget {
            k += 1;
        }
        let series: Vec<Vec<f64>> = MetricId::ALL.iter().map(|&m| frame.series(m)).collect();
        let mut by_variance: Vec<usize> = (0..METRIC_COUNT).collect();
        by_variance.sort_by(|&a, &b| {
            variance(&series[b])
                .total_cmp(&variance(&series[a]))
                .then(a.cmp(&b))
        });
        let mut chosen = by_variance[..k].to_vec();
        chosen.sort_unstable();
        let mut scores = vec![0.0f64; pair_count()];
        let mut scored = vec![false; pair_count()];
        for (pos, &i) in chosen.iter().enumerate() {
            for &j in &chosen[pos + 1..] {
                let pair = pair_index(i, j);
                scores[pair] = self.fallback.score(&series[i], &series[j]);
                scored[pair] = true;
            }
        }
        (AssociationMatrix::from_scores(scores), scored)
    }

    /// Runs Algorithm 1: builds the invariant set of a context from the
    /// metric frames of N normal runs.
    ///
    /// For comparability, pass frames windowed the same way diagnosis
    /// windows will be (association estimates depend on sample count).
    ///
    /// # Errors
    ///
    /// [`CoreError::NotEnoughRuns`] / [`CoreError::FrameTooShort`].
    pub fn build_invariants(
        &self,
        context: OperationContext,
        normal_frames: &[MetricFrame],
    ) -> Result<(), CoreError> {
        if normal_frames.len() < self.config.min_training_runs {
            return Err(CoreError::NotEnoughRuns {
                required: self.config.min_training_runs,
                got: normal_frames.len(),
            });
        }
        let id = self.intern_context(&context);
        let _span = Span::enter(&self.sink, EnginePhase::InvariantBuild, id);
        let mut matrices = Vec::with_capacity(normal_frames.len());
        for frame in normal_frames {
            matrices.push(self.association_matrix_for(id, frame)?);
        }
        let set = Arc::new(InvariantSet::select(&matrices, self.config.tau));
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.invariants = Some(set);
            });
        Ok(())
    }

    /// Builds the violation tuple of an abnormal window against the
    /// context's invariants.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoInvariants`] / frame errors.
    pub fn violation_tuple(
        &self,
        context: &OperationContext,
        abnormal: &MetricFrame,
    ) -> Result<ViolationTuple, CoreError> {
        let invariants = self
            .invariant_set(context)
            .ok_or_else(|| CoreError::NoInvariants(context.clone()))?;
        let matrix = self.association_matrix_for(self.intern_context(context), abnormal)?;
        Ok(ViolationTuple::build(
            &invariants,
            &matrix,
            self.config.epsilon,
        ))
    }

    /// Records a signature for an investigated problem ("once the
    /// performance problem is resolved, a new signature will be added").
    ///
    /// # Errors
    ///
    /// Same as [`Engine::violation_tuple`].
    pub fn record_signature(
        &self,
        context: &OperationContext,
        problem: &str,
        abnormal: &MetricFrame,
    ) -> Result<(), CoreError> {
        let tuple = self.violation_tuple(context, abnormal)?;
        self.signatures
            .write()
            .unwrap_or_else(PoisonError::into_inner)
            .add(Signature {
                tuple,
                problem: problem.to_string(),
                context: context.clone(),
            });
        Ok(())
    }

    // -------------------------------------------------------- batch online

    /// Scores a complete CPI trace against the context's detector.
    ///
    /// # Errors
    ///
    /// [`CoreError::NoPerformanceModel`].
    pub fn detect(
        &self,
        context: &OperationContext,
        cpi: &[f64],
    ) -> Result<DetectionResult, CoreError> {
        let detector = self
            .detector(context)
            .ok_or_else(|| CoreError::NoPerformanceModel(context.clone()))?;
        let result = detector.score(cpi);
        if result.is_anomalous() {
            self.sink.record(&EngineEvent::DetectionFired {
                context: self.intern_context(context),
                // ordering: Relaxed — tick labels the event with the
                // monotone lifetime counter; exactness under concurrent
                // ingest is not part of the event contract.
                tick: self.ticks.load(std::sync::atomic::Ordering::Relaxed),
            });
        }
        Ok(result)
    }

    /// Cause inference: matches the abnormal window's violation tuple
    /// against the signature database, under the configured
    /// [`SweepBudget`] ([`InvarNetConfig::sweep_budget`], unlimited by
    /// default).
    ///
    /// # Errors
    ///
    /// Missing invariants/signatures for the context, or frame errors.
    pub fn diagnose(
        &self,
        context: &OperationContext,
        abnormal: &MetricFrame,
    ) -> Result<Diagnosis, CoreError> {
        self.diagnose_with_budget(context, abnormal, self.config.sweep_budget)
    }

    /// [`Engine::diagnose`] under an explicit [`SweepBudget`]. On budget
    /// overrun the sweep degrades along the declared ladder instead of
    /// blocking; the returned [`Diagnosis::degradation`] names the tier
    /// that answered (or is `None` for a full-fidelity answer).
    ///
    /// # Errors
    ///
    /// Missing invariants/signatures for the context, or frame errors.
    pub fn diagnose_with_budget(
        &self,
        context: &OperationContext,
        abnormal: &MetricFrame,
        budget: SweepBudget,
    ) -> Result<Diagnosis, CoreError> {
        let id = self.intern_context(context);
        // ordering: Relaxed — tick only labels the emitted events with the
        // monotone lifetime counter (see detect above).
        let tick = self.ticks.load(std::sync::atomic::Ordering::Relaxed);
        let _span = Span::enter(&self.sink, EnginePhase::Diagnosis, id);
        // lint: allow(determinism, telemetry-only: diagnosis micros feed a
        // DiagnosisReady event; replay normalizes all recorded timings)
        let started = Instant::now();
        let invariants = self
            .invariant_set(context)
            .ok_or_else(|| CoreError::NoInvariants(context.clone()))?;
        let verdict = self.diagnosis_matrix_for(id, abnormal, budget, &invariants)?;
        let tuple = verdict.violation_tuple(&invariants, self.config.epsilon);
        let mut diagnosis = self.rank_tuple(context, tuple)?;
        diagnosis.degradation = verdict.degradation;
        self.sink.record(&EngineEvent::DiagnosisRan {
            context: id,
            tick,
            micros: started.elapsed().as_micros() as u64,
        });
        self.emit_signature_match(id, tick, &diagnosis);
        self.record_diagnosis_history(id, tick, &verdict, &diagnosis);
        Ok(diagnosis)
    }

    /// Feeds one finished diagnosis (and the sweep scores behind it) to
    /// the attached recorder, if any.
    pub(crate) fn record_diagnosis_history(
        &self,
        context: ContextId,
        tick: u64,
        verdict: &SweepVerdict,
        diagnosis: &Diagnosis,
    ) {
        if let Some(recorder) = &self.recorder {
            recorder.record_sweep(context, tick, verdict.matrix.scores(), verdict.degradation);
            recorder.record_diagnosis(context, tick, diagnosis);
        }
    }

    /// Ranks an already-built violation tuple against the signature
    /// database.
    pub(crate) fn rank_tuple(
        &self,
        context: &OperationContext,
        tuple: ViolationTuple,
    ) -> Result<Diagnosis, CoreError> {
        let ranked = self
            .signatures
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .rank(context, &tuple, self.config.similarity)?
            .into_iter()
            .map(|(problem, similarity)| RankedCause {
                problem,
                similarity,
            })
            .collect();
        Ok(Diagnosis {
            ranked,
            tuple,
            degradation: None,
        })
    }

    /// Reports how well a finished diagnosis matched the signature
    /// database ([`EngineEvent::SignatureMatched`]).
    pub(crate) fn emit_signature_match(&self, context: ContextId, tick: u64, diag: &Diagnosis) {
        let best_similarity = diag.ranked.first().map_or(0.0, |r| r.similarity);
        self.sink.record(&EngineEvent::SignatureMatched {
            context,
            tick,
            best_similarity,
            confident: best_similarity >= CONFIDENT_SIMILARITY,
        });
    }

    /// The full batch online step: detect on CPI, and only when anomalous
    /// run cause inference on the metric window ("to reduce the cost of
    /// unnecessary performance diagnosis").
    ///
    /// # Errors
    ///
    /// Any error from detection or diagnosis.
    pub fn process(
        &self,
        context: &OperationContext,
        cpi: &[f64],
        window: &MetricFrame,
    ) -> Result<(DetectionResult, Option<Diagnosis>), CoreError> {
        let detection = self.detect(context, cpi)?;
        if detection.is_anomalous() {
            let diagnosis = self.diagnose(context, window)?;
            Ok((detection, Some(diagnosis)))
        } else {
            Ok((detection, None))
        }
    }

    // --------------------------------------------------------- inspection

    /// The trained performance model of a context.
    pub fn performance_model(&self, context: &OperationContext) -> Option<Arc<PerformanceModel>> {
        self.state.with(context, |s| s.perf_model.clone()).flatten()
    }

    /// The streaming detector of a context.
    pub fn detector(&self, context: &OperationContext) -> Option<Arc<dyn Detector>> {
        self.state.with(context, |s| s.detector.clone()).flatten()
    }

    /// The invariant set of a context.
    pub fn invariant_set(&self, context: &OperationContext) -> Option<Arc<InvariantSet>> {
        self.state.with(context, |s| s.invariants.clone()).flatten()
    }

    /// A snapshot of the signature database. This clones the whole
    /// database; for read-only access prefer
    /// [`Engine::with_signature_database`], which borrows it under the
    /// read guard instead.
    pub fn signature_database(&self) -> SignatureDatabase {
        self.with_signature_database(|db| db.clone())
    }

    /// Runs `f` over the signature database under its read lock, without
    /// cloning — the cheap way to count, scan or serialize signatures.
    pub fn with_signature_database<R>(&self, f: impl FnOnce(&SignatureDatabase) -> R) -> R {
        f(&self
            .signatures
            .read()
            .unwrap_or_else(PoisonError::into_inner))
    }

    /// Contexts with trained models, sorted.
    pub fn contexts(&self) -> Vec<OperationContext> {
        self.state
            .contexts()
            .into_iter()
            .filter(|c| {
                self.state
                    .with(c, |s| s.perf_model.is_some())
                    .unwrap_or(false)
            })
            .collect()
    }

    /// Replaces the signature database (used when loading persisted state).
    pub fn set_signature_database(&self, db: SignatureDatabase) {
        *self
            .signatures
            .write()
            .unwrap_or_else(PoisonError::into_inner) = db;
    }

    pub(crate) fn install_invariant_set_internal(
        &self,
        context: OperationContext,
        set: InvariantSet,
    ) {
        let set = Arc::new(set);
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.invariants = Some(set);
            });
    }

    pub(crate) fn install_performance_model_internal(
        &self,
        context: OperationContext,
        model: PerformanceModel,
    ) {
        let model = Arc::new(model);
        let detector: Arc<dyn Detector> = Arc::new(ArimaDetector::new(
            Arc::clone(&model),
            self.config.threshold_rule,
            self.config.consecutive_anomalies,
        ));
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.perf_model = Some(model);
                s.detector = Some(detector);
                s.reset_run();
            });
        self.note_run_reset(&context);
    }

    pub(crate) fn install_detector_internal(
        &self,
        context: OperationContext,
        detector: Arc<dyn Detector>,
    ) {
        self.state
            .with_mut(&context, self.config.window_ticks, |s| {
                s.detector = Some(detector);
                s.reset_run();
            });
        self.note_run_reset(&context);
    }

    /// Tells the attached recorder (if any) that `context`'s sliding
    /// window was just discarded, so history keeps run boundaries aligned
    /// with the live window.
    pub(crate) fn note_run_reset(&self, context: &OperationContext) {
        if let Some(recorder) = &self.recorder {
            recorder.record_run_reset(self.intern_context(context));
        }
    }
}

/// What [`Engine::budgeted_matrix_for`] produced: the matrix, which
/// degradation tier (if any) answered, and — for a partial matrix — which
/// pairs were actually scored.
pub(crate) struct SweepVerdict {
    pub(crate) matrix: AssociationMatrix,
    pub(crate) degradation: Option<SweepDegradation>,
    pub(crate) scored: Option<Vec<bool>>,
}

impl SweepVerdict {
    fn full(matrix: AssociationMatrix) -> Self {
        SweepVerdict {
            matrix,
            degradation: None,
            scored: None,
        }
    }

    /// Builds the violation tuple of this verdict's matrix, masking out
    /// pairs a partial sweep never scored (their placeholder zeros must
    /// not read as evidence of broken associations).
    pub(crate) fn violation_tuple(
        &self,
        invariants: &InvariantSet,
        epsilon: f64,
    ) -> ViolationTuple {
        match &self.scored {
            Some(mask) => ViolationTuple::build_masked(invariants, &self.matrix, epsilon, mask),
            None => ViolationTuple::build(invariants, &self.matrix, epsilon),
        }
    }
}

/// Sample variance (biased, `n` denominator) — only used to rank metrics,
/// so the normalization constant is irrelevant.
fn variance(series: &[f64]) -> f64 {
    if series.is_empty() {
        return 0.0;
    }
    let n = series.len() as f64;
    let mean = series.iter().sum::<f64>() / n;
    series.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("measure", &self.measure.name())
            .field("contexts", &self.state.modeled_contexts())
            .field("invariant_sets", &self.state.invariant_contexts())
            .field(
                "signatures",
                &self
                    .signatures
                    .read()
                    .unwrap_or_else(PoisonError::into_inner)
                    .len(),
            )
            .field("shards", &self.state.shard_count())
            .field("threads", &self.pool.threads())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> InvarNetConfig {
        InvarNetConfig {
            min_frame_ticks: 5,
            ..InvarNetConfig::default()
        }
    }

    fn tiny_engine(threads: usize) -> Engine {
        Engine::builder()
            .config(tiny_config())
            .threads(threads)
            .build()
    }

    /// A frame whose metrics are all driven by one latent ramp (strongly
    /// associated), with metric 0 optionally replaced by noise.
    fn coupled_frame(ticks: usize, seed: u64, break_metric0: bool) -> MetricFrame {
        let mut f = MetricFrame::new();
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as f64 / (1u64 << 31) as f64
        };
        for t in 0..ticks {
            let latent = (t as f64 * 0.23).sin() * 5.0 + 10.0 + 0.2 * next();
            let mut row: Vec<f64> = (0..METRIC_COUNT)
                .map(|k| latent * (k + 1) as f64 + 0.1 * next())
                .collect();
            if break_metric0 {
                row[0] = 100.0 * next();
            }
            f.push_tick(&row).unwrap();
        }
        f
    }

    fn normal_cpi(traces: u64) -> Vec<Vec<f64>> {
        (0..traces)
            .map(|s| {
                ix_timeseries::SeriesBuilder::new(120)
                    .level(1.0)
                    .ar1(0.6)
                    .noise(0.02)
                    .build(s)
                    .unwrap()
                    .into_values()
            })
            .collect()
    }

    fn ctx() -> OperationContext {
        OperationContext::new("10.0.0.1", "Test")
    }

    #[test]
    fn end_to_end_single_context() {
        let engine = tiny_engine(2);

        // Invariants from 3 normal frames.
        let frames: Vec<MetricFrame> = (0..3).map(|s| coupled_frame(60, s, false)).collect();
        engine.build_invariants(ctx(), &frames).unwrap();
        let inv = engine.invariant_set(&ctx()).unwrap();
        assert!(
            inv.len() > 200,
            "coupled frame should keep most pairs, got {}",
            inv.len()
        );

        // Signature: metric 0 decoupled.
        let broken = coupled_frame(60, 77, true);
        engine
            .record_signature(&ctx(), "metric0-break", &broken)
            .unwrap();
        engine
            .record_signature(&ctx(), "nothing", &coupled_frame(60, 78, false))
            .unwrap();

        // Diagnosis of a fresh broken window.
        let probe = coupled_frame(60, 99, true);
        let d = engine.diagnose(&ctx(), &probe).unwrap();
        assert_eq!(d.root_cause().unwrap().problem, "metric0-break");
        assert!(d.tuple.violation_count() > 0);
    }

    #[test]
    fn detection_gates_diagnosis() {
        let engine = tiny_engine(1);
        let cpi_traces = normal_cpi(3);
        engine.train_performance_model(ctx(), &cpi_traces).unwrap();
        let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, s, false)).collect();
        engine.build_invariants(ctx(), &frames).unwrap();
        engine
            .record_signature(&ctx(), "x", &coupled_frame(40, 7, true))
            .unwrap();

        // Normal CPI: no diagnosis performed.
        let normal = &cpi_traces[0];
        let (det, diag) = engine
            .process(&ctx(), normal, &coupled_frame(40, 8, true))
            .unwrap();
        assert!(!det.is_anomalous());
        assert!(diag.is_none());

        // Anomalous CPI: diagnosis runs.
        let mut hot = normal.clone();
        for v in hot[60..90].iter_mut() {
            *v *= 1.8;
        }
        let (det, diag) = engine
            .process(&ctx(), &hot, &coupled_frame(40, 9, true))
            .unwrap();
        assert!(det.is_anomalous());
        assert_eq!(diag.unwrap().root_cause().unwrap().problem, "x");
    }

    #[test]
    fn missing_state_errors() {
        let engine = Engine::new(tiny_config());
        assert!(matches!(
            engine.detect(&ctx(), &[1.0; 50]),
            Err(CoreError::NoPerformanceModel(_))
        ));
        assert!(matches!(
            engine.violation_tuple(&ctx(), &coupled_frame(30, 1, false)),
            Err(CoreError::NoInvariants(_))
        ));
    }

    #[test]
    fn frame_too_short_is_rejected() {
        let engine = Engine::new(InvarNetConfig::default());
        let short = coupled_frame(5, 1, false);
        assert!(matches!(
            engine.build_invariants(ctx(), &[short.clone(), short]),
            Err(CoreError::FrameTooShort { .. })
        ));
    }

    #[test]
    fn top_causes_and_hints() {
        let engine = tiny_engine(1);
        let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(50, s, false)).collect();
        engine.build_invariants(ctx(), &frames).unwrap();
        engine
            .record_signature(&ctx(), "break-a", &coupled_frame(50, 7, true))
            .unwrap();
        engine
            .record_signature(&ctx(), "clean", &coupled_frame(50, 8, false))
            .unwrap();

        let d = engine
            .diagnose(&ctx(), &coupled_frame(50, 9, true))
            .unwrap();
        // top_causes respects both k and the similarity floor.
        assert_eq!(d.top_causes(2, 0.0).len(), 2);
        assert_eq!(d.top_causes(1, 0.0).len(), 1);
        assert!(d.top_causes(5, 0.99).len() <= 2);

        // Hints name metric 0 (the broken one) in the strongest pairs.
        let inv = engine.invariant_set(&ctx()).unwrap();
        let hints = d.hints(&inv).unwrap();
        assert!(!hints.is_empty());
        let first = hints[0];
        assert!(
            first.0.index() == 0 || first.1.index() == 0,
            "strongest hint should involve the broken metric: {hints:?}"
        );
        // Sorted by deviation, descending.
        for w in hints.windows(2) {
            assert!(w[0].2 >= w[1].2);
        }
    }

    #[test]
    fn hints_reject_mismatched_invariant_set() {
        let engine = tiny_engine(1);
        let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(50, s, false)).collect();
        engine.build_invariants(ctx(), &frames).unwrap();
        engine
            .record_signature(&ctx(), "p", &coupled_frame(50, 7, true))
            .unwrap();
        let d = engine
            .diagnose(&ctx(), &coupled_frame(50, 9, true))
            .unwrap();

        // A set with a different pair population (different tau) has a
        // different length; hints must refuse it instead of panicking.
        let mats: Vec<AssociationMatrix> = frames
            .iter()
            .map(|f| engine.association_matrix(f).unwrap())
            .collect();
        let other = InvariantSet::select(&mats, 1e-9);
        if other.len() != d.tuple.len() {
            assert!(matches!(
                d.hints(&other),
                Err(CoreError::TupleLengthMismatch { .. })
            ));
        }
        // The matching set works.
        assert!(d.hints(&engine.invariant_set(&ctx()).unwrap()).is_ok());
    }

    #[test]
    fn contexts_are_isolated() {
        let engine = tiny_engine(1);
        let a = OperationContext::new("n1", "W");
        let b = OperationContext::new("n2", "W");
        let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, s, false)).collect();
        engine.build_invariants(a.clone(), &frames).unwrap();
        assert!(engine.invariant_set(&a).is_some());
        assert!(engine.invariant_set(&b).is_none());
        engine
            .record_signature(&a, "p", &coupled_frame(40, 5, true))
            .unwrap();
        // Context b has no invariants: diagnosis must error, not borrow a's.
        assert!(engine.diagnose(&b, &coupled_frame(40, 6, true)).is_err());
    }

    #[test]
    fn state_round_trip_keeps_an_at_sign_in_the_workload() {
        let context = OperationContext::new("10.0.0.1", "etl@v2");
        let engine = tiny_engine(1);
        engine
            .train_performance_model(context.clone(), &normal_cpi(3))
            .unwrap();
        let frames: Vec<MetricFrame> = (0..2).map(|s| coupled_frame(40, s, false)).collect();
        engine.build_invariants(context.clone(), &frames).unwrap();

        let fresh = tiny_engine(1);
        fresh.load_state(&engine.snapshot_state()).unwrap();
        assert_eq!(fresh.contexts(), vec![context.clone()]);
        assert_eq!(
            fresh.performance_model(&context),
            engine.performance_model(&context)
        );
        assert_eq!(
            fresh.invariant_set(&context),
            engine.invariant_set(&context)
        );
    }
}
