//! Allocation pin for building and dropping a deployment's routing state.
//!
//! Every broker's filter table holds an entry per remote subscriber, so a
//! build that copies each client's filter into every table makes
//! O(brokers × clients) heap objects and frees them one at a time on drop.
//! With one shared record per subscription both are O(clients + brokers).
//! This binary counts the allocator calls of exactly those two steps on an
//! 8×8 grid with 512 clients, each with its own `lo <= v < hi` window, and
//! holds them to a bound that the per-(broker, client) copy breaks: that
//! copy makes at least three objects (constraint vector, two attribute
//! names) per table entry, i.e. ≥ 3 · 64 · 512 = 98,304, while the bound
//! below allows 16 · 512 + 128 · 64 = 16,384.
//!
//! The binary holds a single test, and only the thread that set the flag is
//! counted, so the harness's own allocations stay out of the figures.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use mhh_pubsub::broker::NoProtocol;
use mhh_pubsub::{BrokerId, ClientSpec, Deployment, DeploymentConfig, Filter, Op};

struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.try_with(Cell::get).unwrap_or(false)
}

// SAFETY: every call is forwarded unchanged to the system allocator; the
// wrapper only bumps counters.
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
        if counting() {
            FREES.fetch_add(1, Ordering::Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (including reallocations) and frees made by `f` on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    let (a0, f0) = (
        ALLOCS.load(Ordering::Relaxed),
        FREES.load(Ordering::Relaxed),
    );
    COUNTING.with(|c| c.set(true));
    let out = f();
    COUNTING.with(|c| c.set(false));
    let allocs = ALLOCS.load(Ordering::Relaxed) - a0;
    (out, allocs, FREES.load(Ordering::Relaxed) - f0)
}

const SIDE: usize = 8;
const BROKERS: usize = SIDE * SIDE;
const CLIENTS: usize = 512;
const PER_CLIENT: usize = 16;
const PER_BROKER: usize = 128;

#[test]
fn building_and_dropping_a_deployment_is_linear_in_clients_plus_brokers() {
    let config = DeploymentConfig {
        grid_side: SIDE,
        ..DeploymentConfig::default()
    };
    let network = Arc::new(config.topology.build(SIDE, config.seed));
    let clients: Vec<ClientSpec> = (0..CLIENTS)
        .map(|i| {
            let lo = i as f64 / CLIENTS as f64;
            ClientSpec {
                filter: Filter::single("v", Op::Ge, lo).and("v", Op::Lt, lo + 0.0625),
                home: BrokerId((i % BROKERS) as u32),
                mobile: false,
                initially_attached: true,
            }
        })
        .collect();

    let (dep, build_allocs, _) = counted(|| {
        Deployment::<NoProtocol>::build_on(network.clone(), &config, &clients, |_| NoProtocol)
    });
    let entries: usize = dep.brokers().map(|b| b.core.filters.len()).sum();
    assert_eq!(entries, BROKERS * CLIENTS, "every table holds every client");

    let ((), _, drop_frees) = counted(|| drop(dep));

    let bound = PER_CLIENT * CLIENTS + PER_BROKER * BROKERS;
    println!("build: {build_allocs} allocations, drop: {drop_frees} frees (bound {bound})");
    assert!(
        build_allocs <= bound,
        "building made {build_allocs} allocations for {CLIENTS} clients on {BROKERS} brokers \
         (bound {bound}: {PER_CLIENT} per client + {PER_BROKER} per broker)"
    );
    assert!(
        drop_frees <= bound,
        "dropping made {drop_frees} frees for {CLIENTS} clients on {BROKERS} brokers \
         (bound {bound}: {PER_CLIENT} per client + {PER_BROKER} per broker)"
    );
}
