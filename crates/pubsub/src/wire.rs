//! Serialize-once fan-out: the wire form of an event, rendered one time
//! per publish and serving every matched destination.
//!
//! A naive broker serializes an event once *per subscriber*: with a
//! 2,000-subscriber fan-out that is 2,000 buffer allocations and 2,000
//! full renders of the same bytes. Production MQTT brokers (FlashMQ's and
//! VibeMQ's `CachedPublish`) instead render the packet body once, share
//! it behind a reference count, and patch only the few header bytes that
//! differ per destination (packet id, QoS bits) in a stack buffer at
//! write time — orders of magnitude fewer allocations on hot fan-out
//! paths.
//!
//! [`CachedEvent`] reproduces that design inside the simulation: the body
//! is rendered into an `Arc<[u8]>` exactly once per fan-out
//! ([`CachedEvent::render`]), and [`CachedEvent::patch_header`] produces
//! each destination's header in a fixed stack array from that one buffer,
//! without touching the heap or the reference count. The broker's fan-out
//! walk only patches; [`CachedEvent::share`] (a reference-count bump) is
//! left for a holder that must keep the rendered form beyond the walk.
//! What travels per destination is likewise small: a delivery carries the
//! event id and wire size, not the event (see
//! [`NetMsg::Deliver`](crate::messages::NetMsg::Deliver)).
//!
//! The clone-per-subscriber baseline ([`FanoutMode::CloneBaseline`]) is
//! kept switchable so the win
//! is measured, not asserted — delivery behavior is byte-identical
//! between the two modes because serialization is an accounting model
//! only: simulated latency never depends on it.

use std::sync::Arc;

use crate::event::Event;
use crate::value::Value;

/// How a broker materializes the wire form of an event during fan-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FanoutMode {
    /// Render once per publish, patch headers per destination from the
    /// one buffer (the `CachedPublish` pattern). The default.
    #[default]
    Cached,
    /// Render the full wire form once per destination — the baseline the
    /// cached path is measured against.
    CloneBaseline,
}

impl FanoutMode {
    /// Stable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            FanoutMode::Cached => "cached",
            FanoutMode::CloneBaseline => "clone",
        }
    }
}

/// Per-broker fan-out accounting, aggregated into the run result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FanoutStats {
    /// Fan-outs that rendered at least one wire form (payload modeling
    /// on and at least one matched target).
    pub fanouts: u64,
    /// Full wire-form renders performed.
    pub serializations: u64,
    /// Total bytes rendered across all serializations.
    pub bytes_serialized: u64,
    /// Heap buffers allocated for fan-out (one per render).
    pub fanout_allocs: u64,
    /// Destinations served from an already-rendered cached form.
    pub cache_hits: u64,
}

impl FanoutStats {
    /// Accumulate another broker's counters.
    pub fn merge(&mut self, other: &FanoutStats) {
        self.fanouts += other.fanouts;
        self.serializations += other.serializations;
        self.bytes_serialized += other.bytes_serialized;
        self.fanout_allocs += other.fanout_allocs;
        self.cache_hits += other.cache_hits;
    }
}

/// Length of the per-destination header patched at write time: destination
/// node id (4) + frame length (4).
pub const DEST_HEADER_BYTES: usize = 8;

/// The rendered wire form of one event, shared across a fan-out.
#[derive(Debug, Clone)]
pub struct CachedEvent {
    bytes: Arc<[u8]>,
}

impl CachedEvent {
    /// Render the wire form of `event`. Returns `None` when payload
    /// modeling is off for this event (`wire_size() == 0`), in which case
    /// fan-out proceeds without any byte accounting — the pre-payload
    /// behavior.
    pub fn render(event: &Event) -> Option<CachedEvent> {
        let size = event.wire_size();
        if size == 0 {
            return None;
        }
        let mut buf = vec![0u8; size as usize];
        // Fixed header: id, publisher, per-publisher seq, attr count.
        buf[0..8].copy_from_slice(&event.id.0.to_le_bytes());
        buf[8..12].copy_from_slice(&event.publisher.0.to_le_bytes());
        buf[12..20].copy_from_slice(&event.seq.to_le_bytes());
        buf[20..24].copy_from_slice(&(event.data.attrs.len() as u32).to_le_bytes());
        let mut at = 24usize;
        for (name, value) in &event.data.attrs {
            buf[at..at + 2].copy_from_slice(&(name.len() as u16).to_le_bytes());
            at += 2;
            buf[at..at + name.len()].copy_from_slice(name.as_bytes());
            at += name.len();
            match value {
                Value::Int(v) => {
                    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    at += 8;
                }
                Value::Float(v) => {
                    buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
                    at += 8;
                }
                Value::Str(s) => {
                    buf[at..at + 2].copy_from_slice(&(s.len() as u16).to_le_bytes());
                    at += 2;
                    buf[at..at + s.len()].copy_from_slice(s.as_bytes());
                    at += s.len();
                }
                Value::Bool(v) => {
                    buf[at] = *v as u8;
                    at += 1;
                }
            }
        }
        // The rest of the buffer is the opaque application payload,
        // modeled as zeros.
        debug_assert_eq!(size as usize - at, event.payload_bytes as usize);
        Some(CachedEvent { bytes: buf.into() })
    }

    /// Rendered length in bytes.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Whether the rendered form is empty (never true for a successful
    /// render — kept for the conventional `len`/`is_empty` pair).
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Share the rendered form with another destination: a reference-count
    /// bump, no copy.
    pub fn share(&self) -> CachedEvent {
        CachedEvent {
            bytes: Arc::clone(&self.bytes),
        }
    }

    /// The rendered bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Produce the per-destination header in a stack buffer — the only
    /// bytes that differ between destinations of the same fan-out. No
    /// heap allocation.
    #[inline]
    pub fn patch_header(&self, dest: u32) -> [u8; DEST_HEADER_BYTES] {
        let mut header = [0u8; DEST_HEADER_BYTES];
        header[0..4].copy_from_slice(&dest.to_le_bytes());
        header[4..8].copy_from_slice(&(self.bytes.len() as u32).to_le_bytes());
        header
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::address::ClientId;
    use crate::event::EventBuilder;

    fn payload_event(bytes: u32) -> Event {
        EventBuilder::new()
            .attr("group", 3i64)
            .attr("symbol", "ACME")
            .build(42, ClientId(7), 5)
            .with_payload(bytes)
    }

    #[test]
    fn render_skips_events_without_payload_model() {
        let plain = EventBuilder::new()
            .attr("group", 1i64)
            .build(1, ClientId(0), 0);
        assert!(CachedEvent::render(&plain).is_none());
    }

    #[test]
    fn render_length_matches_wire_size() {
        let e = payload_event(128);
        let cached = CachedEvent::render(&e).expect("payload modeled");
        assert_eq!(cached.len(), e.wire_size() as usize);
        assert!(!cached.is_empty());
    }

    #[test]
    fn sharing_bumps_refcount_without_copy() {
        let cached = CachedEvent::render(&payload_event(64)).unwrap();
        let shared = cached.share();
        assert!(std::ptr::eq(cached.bytes(), shared.bytes()));
    }

    #[test]
    fn header_patch_varies_only_by_destination() {
        let cached = CachedEvent::render(&payload_event(64)).unwrap();
        let a = cached.patch_header(3);
        let b = cached.patch_header(9);
        assert_ne!(a, b);
        assert_eq!(a[4..], b[4..], "length half is destination-independent");
    }

    #[test]
    fn rendered_header_carries_event_identity() {
        let e = payload_event(16);
        let cached = CachedEvent::render(&e).unwrap();
        assert_eq!(&cached.bytes()[0..8], &e.id.0.to_le_bytes());
        assert_eq!(&cached.bytes()[8..12], &e.publisher.0.to_le_bytes());
    }
}
