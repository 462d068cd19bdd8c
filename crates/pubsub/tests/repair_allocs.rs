//! Allocation pins for a broker's repair paths.
//!
//! When a broker is told a tree neighbour is down it removes every table
//! entry pointing at that neighbour and re-announces the filters it still
//! needs. Removing an entry has nothing to copy: a removal path that hands
//! back each removed entry's `Filter` makes at least three heap objects per
//! entry (constraint vector, two attribute names) only to drop them again.
//! The first test counts the allocator calls the broker makes while handling
//! one `PeerDown` for a leaf broker whose single neighbour carries `N`
//! subscriptions, at two sizes, and holds both to one bound that does not
//! grow with `N` — the per-entry copy needs ≥ 3 · 64 = 192 already at the
//! smaller size, against a bound of 64 (the copy-free path makes 10–20).
//!
//! The second counts one checkpoint-replication tick of the same leaf: the
//! checkpoint is one vector of the table's live entries (each a peer, a
//! shared filter record and a label) plus the attachment set, so taking and
//! sending it makes a handful of allocator calls whatever `N` is. A
//! checkpoint that clones the table's indexes makes one or more per
//! distinct equality value (each subscription here pins its own), ≥ 64
//! already at the smaller size.
//!
//! Only the thread that set the flag is counted, so the harness's own
//! allocations (and a test running beside on another thread) stay out of
//! the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mhh_pubsub::broker::NoProtocol;
use mhh_pubsub::{
    BrokerId, ClientSpec, Deployment, DeploymentConfig, Filter, NetMsg, Op, Peer, RepairMsg,
};
use mhh_simnet::SimTime;

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps a counter.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) made by `f` on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let a0 = ALLOCS.load(Ordering::Relaxed);
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    (out, ALLOCS.load(Ordering::Relaxed) - a0)
}

const SIDE: usize = 4;
/// Allocator calls allowed for handling one `PeerDown` or one
/// `ReplicateTick`, whatever the number of entries in the broker's table.
const BOUND: usize = 64;

/// Build a grid with `remote` subscribers (each its own `lo <= v < hi`
/// window) behind the only tree neighbour of a leaf broker, plus one
/// subscriber at the leaf; deliver `PeerDown` for that neighbour to the leaf
/// and return the allocator calls the delivery made.
fn peer_down_allocs(remote: usize) -> usize {
    let config = DeploymentConfig {
        grid_side: SIDE,
        ..DeploymentConfig::default()
    };
    let network = Arc::new(config.topology.build(SIDE, config.seed));
    let brokers = SIDE * SIDE;
    let leaf = (0..brokers)
        .find(|&b| network.tree.neighbors(b).len() == 1)
        .expect("a spanning tree has leaves");
    let dead = BrokerId(network.tree.neighbors(leaf)[0] as u32);
    let others: Vec<usize> = (0..brokers).filter(|&b| b != leaf).collect();
    let window = |i: usize| {
        let lo = i as f64 / remote as f64;
        Filter::single("v", Op::Ge, lo).and("v", Op::Lt, lo + 0.5 / remote as f64)
    };
    let mut clients: Vec<ClientSpec> = (0..remote)
        .map(|i| ClientSpec {
            filter: window(i),
            home: BrokerId(others[i % others.len()] as u32),
            mobile: false,
            initially_attached: true,
        })
        .collect();
    clients.push(ClientSpec {
        filter: Filter::single("v", Op::Ge, 2.0),
        home: BrokerId(leaf as u32),
        mobile: false,
        initially_attached: true,
    });

    let mut dep =
        Deployment::<NoProtocol>::build_on(network.clone(), &config, &clients, |_| NoProtocol);
    let leaf_id = BrokerId(leaf as u32);
    let through_dead = dep
        .broker(leaf_id)
        .core
        .filters
        .filters_for(Peer::Broker(dead))
        .len();
    assert_eq!(
        through_dead, remote,
        "every remote subscription routes via the neighbour"
    );

    dep.engine.schedule_external(
        SimTime::from_millis(1),
        dep.book.broker_node(leaf_id),
        NetMsg::Repair(RepairMsg::PeerDown { peer: dead }),
    );
    let (_, allocs) = counted(|| dep.engine.run_strictly_before(SimTime::from_millis(2)));
    let left = &dep.broker(leaf_id).core.filters;
    assert!(
        left.filters_for(Peer::Broker(dead)).is_empty(),
        "routes dropped"
    );
    assert_eq!(left.len(), 1, "the local subscription stays");
    allocs
}

#[test]
fn dropping_a_dead_neighbours_routes_copies_no_filter() {
    for remote in [64, 1024] {
        let allocs = peer_down_allocs(remote);
        println!("PeerDown with {remote} entries: {allocs} allocations (bound {BOUND})");
        assert!(
            allocs <= BOUND,
            "handling PeerDown for a neighbour carrying {remote} entries made {allocs} \
             allocations (bound {BOUND}, whatever the entry count)"
        );
    }
}

/// Build a grid whose leaf broker holds `remote` entries behind its only
/// tree neighbour, each pinned to its own `v == i` (so a table index keeps
/// one equality list per entry), plus one local subscriber; deliver one
/// `ReplicateTick` to the leaf and return the allocator calls it made
/// (taking the checkpoint, sending it, re-arming the tick).
fn replicate_tick_allocs(remote: usize) -> usize {
    let config = DeploymentConfig {
        grid_side: SIDE,
        checkpoint_replication_ms: 5_000,
        replication_horizon_ms: 60_000,
        ..DeploymentConfig::default()
    };
    let network = Arc::new(config.topology.build(SIDE, config.seed));
    let brokers = SIDE * SIDE;
    let leaf = (0..brokers)
        .find(|&b| network.tree.neighbors(b).len() == 1)
        .expect("a spanning tree has leaves");
    let others: Vec<usize> = (0..brokers).filter(|&b| b != leaf).collect();
    let mut clients: Vec<ClientSpec> = (0..remote)
        .map(|i| ClientSpec {
            filter: Filter::single("v", Op::Eq, i as i64),
            home: BrokerId(others[i % others.len()] as u32),
            mobile: false,
            initially_attached: true,
        })
        .collect();
    clients.push(ClientSpec {
        filter: Filter::single("v", Op::Ge, 2.0),
        home: BrokerId(leaf as u32),
        mobile: false,
        initially_attached: true,
    });

    let mut dep =
        Deployment::<NoProtocol>::build_on(network.clone(), &config, &clients, |_| NoProtocol);
    let leaf_id = BrokerId(leaf as u32);
    assert_eq!(dep.broker(leaf_id).core.filters.len(), remote + 1);

    dep.engine.schedule_external(
        SimTime::from_millis(1),
        dep.book.broker_node(leaf_id),
        NetMsg::Repair(RepairMsg::ReplicateTick),
    );
    let (_, allocs) = counted(|| dep.engine.run_strictly_before(SimTime::from_millis(2)));
    assert_eq!(
        dep.engine.stats().kind("repair_replicate").messages,
        1,
        "the tick sent one checkpoint"
    );
    allocs
}

#[test]
fn a_replication_tick_copies_no_index() {
    for remote in [64, 1024] {
        let allocs = replicate_tick_allocs(remote);
        println!("ReplicateTick with {remote} entries: {allocs} allocations (bound {BOUND})");
        assert!(
            allocs <= BOUND,
            "one ReplicateTick of a broker holding {remote} entries made {allocs} \
             allocations (bound {BOUND}, whatever the entry count)"
        );
    }
}
