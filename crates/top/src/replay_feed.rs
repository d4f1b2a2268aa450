//! Replay mode: driving the console from a recorded trace.
//!
//! A trace's event stream is exactly what a live console would have
//! received, so replay is nothing but re-delivering it: each recorded
//! [`EngineEvent`] is fed to a fresh [`Telemetry`] hub (the hub is an
//! event sink) and to the [`TopConsole`]. The only wrinkle is labels —
//! the fresh hub's context registry has never interned anything, so the
//! trace's `workload@node` labels are re-interned positionally first,
//! giving the recorded [`ix_core::ContextId`]s the same meaning they had
//! in the recording engine.

use std::sync::Arc;

use ix_core::{ContextId, EngineEvent, EventSink, OperationContext, Telemetry};
use ix_history::HistoryStore;

use crate::console::{ReplayPosition, TopConsole, TopSnapshot};

/// A recorded trace staged for console replay: a fresh telemetry hub
/// with the trace's labels, the console, and a cursor over the events.
pub struct ReplayFeed {
    hub: Arc<Telemetry>,
    console: TopConsole,
    events: Vec<EngineEvent>,
    cursor: usize,
    speed: f64,
}

/// Assembles a [`ReplayFeed`] in one expression; obtain one from
/// [`ReplayFeed::builder`] and finish with [`ReplayFeedBuilder::build`].
#[must_use = "builder methods return the builder; call .build(store) to produce the feed"]
#[derive(Debug)]
pub struct ReplayFeedBuilder {
    console: Option<TopConsole>,
    speed: f64,
}

impl Default for ReplayFeedBuilder {
    fn default() -> Self {
        ReplayFeedBuilder {
            console: None,
            speed: 1.0,
        }
    }
}

impl ReplayFeedBuilder {
    /// The console to drive (defaults to a fresh [`TopConsole`]).
    pub fn console(mut self, console: TopConsole) -> Self {
        self.console = Some(console);
        self
    }

    /// Playback speed multiplier (defaults to 1x; non-positive values
    /// clamp to 1x).
    pub fn speed(mut self, speed: f64) -> Self {
        self.speed = speed;
        self
    }

    /// The finished feed, staged over `store`'s event stream, with its
    /// context labels re-interned into a fresh hub so ids resolve to the
    /// recorded names.
    pub fn build(self, store: &HistoryStore) -> ReplayFeed {
        let hub = Telemetry::shared();
        // Positional re-interning: the registry hands out ids in call
        // order, so interning label i as the i-th call gives it
        // ContextId i — the id the recorded events carry. Walk every
        // index up to the densest recorded id so gaps (contexts with
        // events but no rows) still consume their slot.
        let slots = store
            .contexts()
            .iter()
            .map(|c| c.index() + 1)
            .max()
            .unwrap_or(0);
        for i in 0..slots {
            let label = store.label(ContextId::from_index(i));
            let parsed = match label.rsplit_once('@') {
                Some((workload, node)) => OperationContext::new(node, workload),
                None => OperationContext::new("replay", label),
            };
            hub.contexts().intern(&parsed);
        }
        let console = self.console.unwrap_or_default();
        console.bind_registry(hub.contexts());
        ReplayFeed {
            hub,
            console,
            events: store.events(),
            cursor: 0,
            speed: if self.speed > 0.0 { self.speed } else { 1.0 },
        }
    }
}

impl ReplayFeed {
    /// The builder-first construction path.
    pub fn builder() -> ReplayFeedBuilder {
        ReplayFeedBuilder::default()
    }

    /// The hub the recorded events are replayed into.
    pub fn hub(&self) -> &Arc<Telemetry> {
        &self.hub
    }

    /// The console being driven.
    pub fn console(&self) -> &TopConsole {
        &self.console
    }

    /// Total recorded events.
    pub fn total(&self) -> usize {
        self.events.len()
    }

    /// Events delivered so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Whether the trace is exhausted.
    pub fn is_done(&self) -> bool {
        self.cursor >= self.events.len()
    }

    /// Delivers up to `batch` more events to the hub and console;
    /// returns how many were delivered (0 at end of trace).
    pub fn advance(&mut self, batch: usize) -> usize {
        let end = (self.cursor + batch.max(1)).min(self.events.len());
        for event in &self.events[self.cursor..end] {
            self.hub.record(event);
            self.console.record(event);
        }
        let delivered = end - self.cursor;
        self.cursor = end;
        delivered
    }

    /// Freezes the current replay state into a renderable snapshot,
    /// stamped with the replay position.
    pub fn snapshot(&self) -> TopSnapshot {
        let mut snap = self.console.snapshot(&self.hub, None);
        snap.replay = Some(ReplayPosition {
            position: self.cursor,
            total: self.events.len(),
            speed: self.speed,
        });
        snap
    }

    /// How many ticks (ingest events) one rendered frame should cover at
    /// the configured speed: one tick per frame at 1x, more when faster.
    pub fn ticks_per_frame(&self) -> usize {
        (self.speed.ceil() as usize).max(1)
    }

    /// Resolves a recorded context id to its re-interned label.
    pub fn label(&self, context: ContextId) -> String {
        self.hub.contexts().label(context)
    }
}

impl std::fmt::Debug for ReplayFeed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReplayFeed")
            .field("events", &self.events.len())
            .field("cursor", &self.cursor)
            .field("speed", &self.speed)
            .finish()
    }
}
