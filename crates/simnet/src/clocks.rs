//! Per-link channel state: the engine's FIFO-by-construction clocks plus
//! the per-link send counters that key variable-latency sampling.
//!
//! Every ordered `(from, to)` node pair carries two words:
//!
//! * the **channel clock** — the latest delivery instant already scheduled
//!   on that link; a new message is clamped to `max(now + latency, clock)`
//!   so later sends can never overtake earlier ones (see the engine module
//!   docs);
//! * the **send counter** — how many messages have been sent on the link so
//!   far. Variable fabrics ([`JitteredFabric`](crate::fabric::JitteredFabric))
//!   key their per-message jitter off `(from, to, link send index)` instead
//!   of a global sequence number, which makes every link's latency stream a
//!   *local* property: a partitioned engine that owns the sender's link
//!   state reproduces the serial engine's samples exactly, with no global
//!   coordination (see `parallel`).
//!
//! Both live in one 16-byte entry so the per-send hot path touches a single
//! cache line. The table sits on that hot path, so its representation
//! matters:
//!
//! * **Dense** — for runs up to [`DENSE_NODE_LIMIT`] nodes the table is a
//!   flat `Vec<LinkState>` indexed by `from * n + to`: one multiply-add and
//!   one cache line, no hashing, no probing, no possibility of growth.
//! * **Sharded** — above the threshold a dense n² table would waste
//!   gigabytes on pairs that never talk, so the link state lives in 16
//!   open-addressing shards (linear probing, power-of-two capacity, keyed
//!   by [`pack_pair`], hashed by [`LinkKeyHasher`]). Sharding bounds the
//!   cost of any single rehash.
//!
//! Both representations are pure lookup tables — which one is active can
//! never change delivery timestamps, only how fast they are computed. The
//! unit tests below drive the same traffic through both and assert equal
//! clamping decisions.

use std::hash::Hasher;

use crate::ids::{pack_pair, NodeId};
use crate::time::SimTime;

/// Node-count threshold up to which the dense n×n table is used
/// (`DENSE_NODE_LIMIT²` 16-byte link entries ≈ 26 MB at the limit).
pub const DENSE_NODE_LIMIT: usize = 1_280;

/// Number of open-addressing shards in the sparse representation.
const SHARDS: usize = 16;

/// Initial per-shard capacity (slots); must be a power of two.
const SHARD_INITIAL: usize = 256;

/// One ordered link's state: FIFO clock + send counter, sized to share a
/// cache line pair-wise.
#[derive(Debug, Clone, Copy, Default)]
struct LinkState {
    clock: SimTime,
    sends: u64,
}

/// Multiply-mix hasher for the packed `(from, to)` link keys: the channel
/// clock lookup sits on the engine's per-send hot path, where the default
/// SipHash would cost more than the virtual call the `LinkCost` refactor
/// saved. One shared [`mix64`](crate::random) finalization over a single
/// `u64` is plenty for dense node-id pairs.
///
/// Only [`write_u64`](Hasher::write_u64) is ever reached: the key types are
/// the packed `u64` from [`pack_pair`] here and, in the delivery audit, an
/// event id or a widened publisher id — each a single `u64`, whose `Hasher`
/// path is exactly one `write_u64` call. The byte-oriented
/// [`write`](Hasher::write) fallback below is therefore unreachable by
/// construction — it exists so
/// the type still satisfies the `Hasher` contract, and it `debug_assert!`s
/// so that a future non-`u64` key is caught in tests instead of silently
/// taking the weak FNV byte path (64-bit FNV prime over a zero offset
/// basis, fine as a correctness fallback, not as a distribution guarantee).
#[derive(Default)]
pub struct LinkKeyHasher(u64);

impl Hasher for LinkKeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        debug_assert!(
            false,
            "LinkKeyHasher only hashes u64 link keys (write_u64); \
             a non-u64 key would silently get the weak byte fallback"
        );
        // Unreachable-by-construction fallback: FNV-1a-style byte fold.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = crate::random::mix64(v);
    }
}

#[inline]
fn hash_key(key: u64) -> u64 {
    let mut h = LinkKeyHasher::default();
    h.write_u64(key);
    h.finish()
}

/// One open-addressing shard: linear probing over power-of-two slots.
/// `u64::MAX` is the empty-slot sentinel — unreachable as a real key, since
/// `pack_pair(u32::MAX, u32::MAX)` would require 2³² nodes.
#[derive(Debug)]
struct Shard {
    keys: Vec<u64>,
    states: Vec<LinkState>,
    len: usize,
}

const EMPTY: u64 = u64::MAX;

impl Shard {
    fn new() -> Self {
        Shard {
            keys: vec![EMPTY; SHARD_INITIAL],
            states: vec![LinkState::default(); SHARD_INITIAL],
            len: 0,
        }
    }

    /// Find the slot for `key`, inserting a default entry on first touch.
    /// Returns `(slot index, grew)`.
    #[inline]
    fn slot_for(&mut self, key: u64, hash: u64) -> (usize, bool) {
        debug_assert_ne!(key, EMPTY);
        let mask = self.keys.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let k = self.keys[i];
            if k == key {
                return (i, false);
            }
            if k == EMPTY {
                self.keys[i] = key;
                self.states[i] = LinkState::default();
                self.len += 1;
                if self.len * 8 >= self.keys.len() * 7 {
                    self.grow();
                    // The slot moved during the rehash; re-probe (the table
                    // just doubled, so this terminates immediately).
                    let mask = self.keys.len() - 1;
                    let mut j = (hash as usize) & mask;
                    while self.keys[j] != key {
                        j = (j + 1) & mask;
                    }
                    return (j, true);
                }
                return (i, false);
            }
            i = (i + 1) & mask;
        }
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![EMPTY; new_cap]);
        let old_states = std::mem::replace(&mut self.states, vec![LinkState::default(); new_cap]);
        let mask = new_cap - 1;
        for (k, s) in old_keys.into_iter().zip(old_states) {
            if k == EMPTY {
                continue;
            }
            let mut i = (hash_key(k) as usize) & mask;
            while self.keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.keys[i] = k;
            self.states[i] = s;
        }
    }

    /// Drop all entries but keep the slot capacity (arena reuse).
    fn clear(&mut self) {
        self.keys.fill(EMPTY);
        self.states.fill(LinkState::default());
        self.len = 0;
    }
}

/// The engine's per-link channel state table — dense flat array for
/// grid-sized runs, sharded open addressing at city scale. See the module
/// docs for the trade. The representation is chosen once, from the node
/// count, in [`new`](Self::new).
#[derive(Debug)]
pub struct LinkClocks {
    repr: Repr,
}

#[derive(Debug)]
enum Repr {
    /// Flat `n × n` table indexed by `from * n + to`.
    Dense { n: usize, table: Vec<LinkState> },
    /// Open-addressing shards keyed by the packed pair; a key's shard is
    /// the top bits of its hash. `grows` counts rehash events for the
    /// allocation sanity counter.
    Sharded { shards: Vec<Shard>, grows: u64 },
}

impl LinkClocks {
    /// Choose the representation for a run over `node_count` nodes.
    pub fn new(node_count: usize) -> Self {
        let repr = if node_count <= DENSE_NODE_LIMIT {
            Repr::Dense {
                n: node_count,
                table: vec![LinkState::default(); node_count * node_count],
            }
        } else {
            Repr::sharded()
        };
        LinkClocks { repr }
    }

    /// The sharded representation regardless of node count (tests compare
    /// it against the dense table on identical traffic; the parallel
    /// engine's per-shard tables use it to avoid `K` dense n² copies).
    pub fn sharded() -> Self {
        LinkClocks {
            repr: Repr::sharded(),
        }
    }

    /// True when this is the dense flat-table representation.
    pub fn is_dense(&self) -> bool {
        matches!(self.repr, Repr::Dense { .. })
    }

    /// Reset all link state for a fresh run over `node_count` nodes,
    /// keeping the backing storage when the representation allows it
    /// (dense table of the same size, or any sharded table). This is the
    /// arena-reuse path: a reset table reports zero
    /// [`alloc_events`](Self::alloc_events) again.
    pub fn reset(&mut self, node_count: usize) {
        let want_dense = node_count <= DENSE_NODE_LIMIT;
        match &mut self.repr {
            Repr::Dense { n, table } if want_dense && *n == node_count => {
                table.fill(LinkState::default());
            }
            Repr::Sharded { shards, grows } if !want_dense => {
                for s in shards {
                    s.clear();
                }
                *grows = 0;
            }
            repr => *repr = LinkClocks::new(node_count).repr,
        }
    }

    /// The one per-send call into the table: look the ordered link up
    /// **once**, hand its current send index to `propose` (which samples
    /// the fabric and returns the proposed delivery instant), then clamp
    /// against the channel clock, advance it, and bump the send counter.
    /// Returns the FIFO-clamped delivery instant.
    ///
    /// The send index passed to `propose` is the number of messages sent on
    /// this ordered link *before* this one — a per-link sequence that is
    /// identical however the node set is partitioned, because every send on
    /// `(from, to)` is performed by `from`.
    #[inline]
    pub fn advance_send(
        &mut self,
        from: NodeId,
        to: NodeId,
        propose: impl FnOnce(u64) -> SimTime,
    ) -> SimTime {
        match &mut self.repr {
            Repr::Dense { n, table } => {
                debug_assert!(from.index() < *n && to.index() < *n);
                let slot = &mut table[from.index() * *n + to.index()];
                let proposed = propose(slot.sends);
                slot.sends += 1;
                let at = proposed.max(slot.clock);
                slot.clock = at;
                at
            }
            Repr::Sharded { shards, grows } => {
                let key = pack_pair(from, to);
                let hash = hash_key(key);
                // Top hash bits pick the shard, low bits the probe start —
                // independent, so shard fill stays uniform.
                let shard = &mut shards[(hash >> 60) as usize & (SHARDS - 1)];
                let (i, grew) = shard.slot_for(key, hash);
                if grew {
                    *grows += 1;
                }
                let slot = &mut shard.states[i];
                let proposed = propose(slot.sends);
                slot.sends += 1;
                let at = proposed.max(slot.clock);
                slot.clock = at;
                at
            }
        }
    }

    /// Clamp a proposed delivery instant against the link's channel clock
    /// and advance the clock (and send counter): returns
    /// `max(proposed, clock)` and stores it. Convenience wrapper over
    /// [`advance_send`](Self::advance_send) for callers whose proposal does
    /// not depend on the send index.
    #[inline]
    pub fn advance(&mut self, from: NodeId, to: NodeId, proposed: SimTime) -> SimTime {
        self.advance_send(from, to, |_| proposed)
    }

    /// Number of table growth events (0 for the dense table, which
    /// allocates exactly once up front).
    pub fn alloc_events(&self) -> u64 {
        match &self.repr {
            Repr::Dense { .. } => 0,
            Repr::Sharded { grows, .. } => *grows,
        }
    }
}

impl Repr {
    fn sharded() -> Self {
        Repr::Sharded {
            shards: (0..SHARDS).map(|_| Shard::new()).collect(),
            grows: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::random::DetRng;

    #[test]
    fn clamps_and_advances_like_a_map() {
        let mut c = LinkClocks::new(4);
        let (a, b) = (NodeId(1), NodeId(2));
        assert_eq!(
            c.advance(a, b, SimTime::from_millis(10)),
            SimTime::from_millis(10)
        );
        // An earlier proposal on the same link clamps up to the clock.
        assert_eq!(
            c.advance(a, b, SimTime::from_millis(7)),
            SimTime::from_millis(10)
        );
        // Other links (including the reverse direction) are independent.
        assert_eq!(
            c.advance(b, a, SimTime::from_millis(3)),
            SimTime::from_millis(3)
        );
        assert_eq!(
            c.advance(a, b, SimTime::from_millis(12)),
            SimTime::from_millis(12)
        );
    }

    #[test]
    fn send_counters_count_per_ordered_link() {
        for mut c in [LinkClocks::new(8), LinkClocks::sharded()] {
            let (a, b) = (NodeId(1), NodeId(2));
            let mut seen = Vec::new();
            for _ in 0..3 {
                c.advance_send(a, b, |s| {
                    seen.push(s);
                    SimTime::ZERO
                });
            }
            // The reverse direction and other links count independently.
            c.advance_send(b, a, |s| {
                seen.push(s);
                SimTime::ZERO
            });
            c.advance_send(a, b, |s| {
                seen.push(s);
                SimTime::ZERO
            });
            assert_eq!(seen, vec![0, 1, 2, 0, 3]);
        }
    }

    #[test]
    fn representation_follows_node_count() {
        assert!(LinkClocks::new(DENSE_NODE_LIMIT).is_dense());
        assert!(!LinkClocks::new(DENSE_NODE_LIMIT + 1).is_dense());
        assert_eq!(LinkClocks::new(100).alloc_events(), 0);
    }

    /// The two representations must make identical clamping decisions for
    /// identical traffic — the representation is a pure perf choice.
    #[test]
    fn dense_and_sharded_agree() {
        for seed in 0..4u64 {
            let mut rng = DetRng::new(0xC10C ^ seed);
            let n = 50usize;
            let mut dense = LinkClocks::new(n);
            assert!(dense.is_dense());
            let mut sharded = LinkClocks::sharded();
            for _ in 0..20_000 {
                let from = NodeId(rng.index(n) as u32);
                let to = NodeId(rng.index(n) as u32);
                let proposed = SimTime::from_micros(rng.next_below(5_000));
                assert_eq!(
                    dense.advance(from, to, proposed),
                    sharded.advance(from, to, proposed),
                    "seed {seed}: representations diverged"
                );
            }
        }
    }

    #[test]
    fn sharded_grows_and_keeps_every_clock() {
        let mut c = LinkClocks::sharded();
        // Insert far more links than the initial capacity to force rehashes,
        // with a distinct clock per link so every read-back is exact.
        let n = 800u32;
        for from in 0..n {
            for to in 0..16u32 {
                let t = SimTime::from_micros((from * 16 + to) as u64 + 1);
                assert_eq!(c.advance(NodeId(from), NodeId(to), t), t);
            }
        }
        assert!(
            c.alloc_events() > 0,
            "12800 links must outgrow 16×256 slots"
        );
        // Every link's clock survived the rehashes: an ancient proposal
        // clamps up to the stored instant.
        for from in 0..n {
            for to in 0..16u32 {
                let want = SimTime::from_micros((from * 16 + to) as u64 + 1);
                assert_eq!(c.advance(NodeId(from), NodeId(to), SimTime::ZERO), want);
            }
        }
    }

    /// A slot inserted on the probe that triggers a rehash must stay
    /// reachable (the rehash moves it; `slot_for` re-probes).
    #[test]
    fn growth_probe_returns_the_moved_slot() {
        let mut c = LinkClocks::sharded();
        let mut expected = Vec::new();
        for i in 0..40_000u32 {
            let from = NodeId(i / 64);
            let to = NodeId(i % 64);
            let t = SimTime::from_micros(i as u64 + 1);
            c.advance(from, to, t);
            expected.push((from, to, t));
        }
        for (from, to, t) in expected {
            assert_eq!(c.advance(from, to, SimTime::ZERO), t);
        }
    }

    /// `reset` keeps capacity but behaves like a fresh table.
    #[test]
    fn reset_clears_clocks_and_counters() {
        for sharded in [false, true] {
            let mut c = if sharded {
                LinkClocks::sharded()
            } else {
                LinkClocks::new(32)
            };
            for i in 0..32u32 {
                c.advance(NodeId(i), NodeId((i + 1) % 32), SimTime::from_secs(9));
            }
            c.reset(32);
            if !sharded {
                assert!(c.is_dense());
            }
            assert_eq!(c.alloc_events(), 0);
            // Clock cleared: an early proposal is no longer clamped.
            assert_eq!(
                c.advance(NodeId(0), NodeId(1), SimTime::from_millis(1)),
                SimTime::from_millis(1)
            );
            // Counter cleared: the next send index is 0 again.
            c.advance_send(NodeId(2), NodeId(3), |s| {
                assert_eq!(s, 0);
                SimTime::ZERO
            });
        }
        // A size change rebuilds the dense table at the new size.
        let mut c = LinkClocks::new(4);
        c.reset(8);
        assert_eq!(
            c.advance(NodeId(7), NodeId(6), SimTime::from_millis(2)),
            SimTime::from_millis(2)
        );
    }
}
