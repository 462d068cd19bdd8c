//! Allocation pin for a broker dropping a crashed neighbour's routes.
//!
//! When a broker is told a tree neighbour is down it removes every table
//! entry pointing at that neighbour and re-announces the filters it still
//! needs. Removing an entry has nothing to copy: a removal path that hands
//! back each removed entry's `Filter` makes at least three heap objects per
//! entry (constraint vector, two attribute names) only to drop them again.
//! This binary counts the allocator calls the broker makes while handling
//! one `PeerDown` for a leaf broker whose single neighbour carries `N`
//! subscriptions, at two sizes, and holds both to one bound that does not
//! grow with `N` — the per-entry copy needs ≥ 3 · 64 = 192 already at the
//! smaller size, against a bound of 64 (the copy-free path makes 10–20).
//!
//! The binary holds a single test, and only the thread that set the flag is
//! counted, so the harness's own allocations stay out of the figures.

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
/// Allocator calls allowed for handling one `PeerDown`, whatever the number
/// of entries the dead neighbour carried.
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
