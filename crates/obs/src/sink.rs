//! Bounded ring-buffer event sink.
//!
//! Spans and subsystems push discrete events (stage boundaries, quarantine
//! transitions) into the sink; the buffer is bounded so a pathological run
//! cannot grow memory without limit — when full, the *oldest* events are
//! evicted and counted, never silently lost. Export is a drain-free
//! snapshot so the CLI can render events after the run completes.

use std::collections::VecDeque;
use std::sync::Mutex;

/// Default capacity of the ring buffer.
pub const DEFAULT_SINK_CAPACITY: usize = 4096;

/// One discrete observability event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Monotonic sequence number (0-based, assigned by the sink).
    pub(crate) seq: u64,
    /// Simulated timestamp in microseconds, when the event has one.
    pub(crate) sim_us: Option<u64>,
    /// Event kind, e.g. `"span"`, `"quarantine"`, `"release"`.
    pub(crate) kind: &'static str,
    /// Event subject, e.g. a span name or a nameserver address.
    pub(crate) name: String,
    /// Free-form detail (kind-specific).
    pub(crate) detail: String,
}

#[derive(Debug, Default)]
struct SinkState {
    events: VecDeque<ObsEvent>,
    next_seq: u64,
}

/// A bounded, thread-safe event buffer with evict-oldest overflow.
#[derive(Debug)]
pub struct EventSink {
    capacity: usize,
    state: Mutex<SinkState>,
}

impl Default for EventSink {
    fn default() -> Self {
        EventSink::with_capacity(DEFAULT_SINK_CAPACITY)
    }
}

impl EventSink {
    /// A sink holding at most `capacity` events (minimum 1).
    pub(crate) fn with_capacity(capacity: usize) -> Self {
        EventSink {
            capacity: capacity.max(1),
            state: Mutex::new(SinkState::default()),
        }
    }

    /// Append an event, evicting the oldest if the buffer is full.
    pub fn push(&self, sim_us: Option<u64>, kind: &'static str, name: &str, detail: String) {
        let mut st = self.state.lock().expect("sink lock");
        let seq = st.next_seq;
        st.next_seq += 1;
        if st.events.len() == self.capacity {
            st.events.pop_front();
        }
        st.events.push_back(ObsEvent {
            seq,
            sim_us,
            kind,
            name: name.to_string(),
            detail,
        });
    }

    /// Copy of the buffered events, oldest first.
    pub(crate) fn events(&self) -> Vec<ObsEvent> {
        self.state
            .lock()
            .expect("sink lock")
            .events
            .iter()
            .cloned()
            .collect()
    }

    /// Total events ever pushed (buffered + evicted).
    pub(crate) fn total_pushed(&self) -> u64 {
        self.state.lock().expect("sink lock").next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_and_read_back() {
        let sink = EventSink::with_capacity(8);
        sink.push(Some(42), "span", "collect", "sim_us=42".into());
        sink.push(None, "quarantine", "198.51.100.7:53", String::new());
        let ev = sink.events();
        assert_eq!(ev.len(), 2);
        assert_eq!(ev[0].seq, 0);
        assert_eq!(ev[0].sim_us, Some(42));
        assert_eq!(ev[1].kind, "quarantine");
        assert_eq!(sink.total_pushed(), 2);
    }

    #[test]
    fn overflow_evicts_oldest_and_counts() {
        let sink = EventSink::with_capacity(3);
        for i in 0..5u64 {
            sink.push(Some(i), "e", "n", String::new());
        }
        let ev = sink.events();
        assert_eq!(ev.len(), 3);
        // Oldest two evicted; survivors keep their original sequence.
        assert_eq!(ev.iter().map(|e| e.seq).collect::<Vec<_>>(), vec![2, 3, 4]);
        assert_eq!(sink.total_pushed(), 5);
    }
}
