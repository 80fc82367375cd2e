//! Structured execution traces: a lightweight span/event sink with no
//! external dependencies.
//!
//! A [`TraceSink`] receives [`TraceEvent`]s from the session pipeline and
//! the executor's resilience governor: phase spans (parse, bind, rewrite,
//! compile, execute — one [`TraceKind::Phase`] event per completed phase
//! carrying its wall time), sublink-memo insert and hit events, spill and
//! degradation-rung transitions, and cancellation checkpoints that actually
//! fired. Sinks are attached per session through the facade's
//! `SessionConfig::trace_sink`; the default implementation is a bounded
//! [`RingTraceSink`] that keeps the most recent events and counts what it
//! dropped, so tracing a long-running session can never grow without bound.
//!
//! The trait is `Send + Sync` so one sink can observe several sessions (the
//! serving worker pool attaches the same sink to every worker session);
//! implementations must therefore synchronise internally, as
//! [`RingTraceSink`] does with a mutex.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// What kind of occurrence a [`TraceEvent`] records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A completed pipeline phase; `value` is its wall time in nanoseconds
    /// and `label` the phase name (`parse`, `bind`, `rewrite`, `optimize`,
    /// `compile`, `execute`).
    Phase,
    /// A sublink-memo insertion; `value` is the entry's accounted bytes.
    MemoInsert,
    /// A sublink-memo hit (result served without executing the sublink).
    MemoHit,
    /// Payload bytes written to spill files; `value` is the byte delta.
    Spill,
    /// A degradation-rung transition; `label` names the rung entered.
    Rung,
    /// A cancellation checkpoint that fired; `label` is the operator site.
    CancelFired,
}

/// One structured trace event. Deliberately flat — a kind, a site label and
/// one numeric payload — so recording is a couple of copies, never an
/// allocation-heavy serialisation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// What happened.
    pub kind: TraceKind,
    /// Where (phase name, memo name, operator site, rung name).
    pub label: String,
    /// Kind-dependent payload: nanoseconds for [`TraceKind::Phase`], bytes
    /// for [`TraceKind::MemoInsert`] / [`TraceKind::Spill`], zero otherwise.
    pub value: u64,
}

impl TraceEvent {
    /// Convenience constructor.
    pub fn new(kind: TraceKind, label: impl Into<String>, value: u64) -> TraceEvent {
        TraceEvent {
            kind,
            label: label.into(),
            value,
        }
    }
}

/// A receiver of [`TraceEvent`]s. Implementations must be cheap and
/// non-blocking — events are emitted from execution hot paths (though only
/// at already-paid boundaries: phase ends, memo operations, spill and
/// degradation transitions, fired cancellations — never per row or per
/// batch).
pub trait TraceSink: Send + Sync {
    /// Records one event.
    fn record(&self, event: TraceEvent);
}

/// The default [`TraceSink`]: a bounded ring buffer keeping the most recent
/// `capacity` events, with a counter of events dropped once full.
#[derive(Debug)]
pub struct RingTraceSink {
    capacity: usize,
    events: Mutex<VecDeque<TraceEvent>>,
    dropped: AtomicU64,
}

impl RingTraceSink {
    /// Creates a ring sink holding at most `capacity` events (at least 1).
    pub fn new(capacity: usize) -> RingTraceSink {
        let capacity = capacity.max(1);
        RingTraceSink {
            capacity,
            events: Mutex::new(VecDeque::with_capacity(capacity)),
            dropped: AtomicU64::new(0),
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of events evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// A snapshot of the buffered events, oldest first.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .iter()
            .cloned()
            .collect()
    }

    /// Drains the buffered events, oldest first, leaving the ring empty.
    pub fn drain(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
            .drain(..)
            .collect()
    }
}

impl Default for RingTraceSink {
    /// 1024 events: enough for the phase spans and memo/spill transitions
    /// of many queries, small enough to forget about.
    fn default() -> RingTraceSink {
        RingTraceSink::new(1024)
    }
}

impl TraceSink for RingTraceSink {
    fn record(&self, event: TraceEvent) {
        let mut events = self
            .events
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner());
        if events.len() == self.capacity {
            events.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let sink = RingTraceSink::new(2);
        sink.record(TraceEvent::new(TraceKind::Phase, "parse", 1));
        sink.record(TraceEvent::new(TraceKind::Phase, "bind", 2));
        sink.record(TraceEvent::new(TraceKind::Phase, "execute", 3));
        let events = sink.snapshot();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].label, "bind");
        assert_eq!(events[1].label, "execute");
        assert_eq!(sink.dropped(), 1);
    }

    #[test]
    fn drain_empties_the_ring() {
        let sink = RingTraceSink::default();
        sink.record(TraceEvent::new(TraceKind::MemoHit, "sublink-memo", 0));
        assert_eq!(sink.drain().len(), 1);
        assert!(sink.snapshot().is_empty());
        assert_eq!(sink.dropped(), 0);
    }
}
