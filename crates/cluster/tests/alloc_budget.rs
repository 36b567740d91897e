//! The heap an idle server costs. A rack in `sparse_fleet`'s shape
//! (1024 servers, 32x32, on an 8x8 thermal grid behind a rationed
//! feed) is built under a counting global allocator, and the bytes the
//! build leaves live are divided by the server count. An idle server
//! should cost its bookkeeping only: its caches allocate on their first
//! insert, and a server that never runs never inserts.
//!
//! This file holds one test, so no other test shares the counters.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use sprint_cluster::prelude::*;
use sprint_core::config::SprintConfig;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::suite::{InputSize, WorkloadKind};

/// Forwards to the system allocator and counts the bytes it holds.
struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE_BYTES.fetch_add(new_size, Ordering::Relaxed);
            LIVE_BYTES.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Servers per rack edge.
const EDGE: usize = 32;
/// Live heap an idle server may cost after the build, bytes.
const BUDGET_PER_SERVER: usize = 16 * 1024;

fn sparse_fleet_rack() -> ClusterSession {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    ClusterBuilder::new(
        GridThermalParams::rack(EDGE, EDGE)
            .with_grid(8, 8)
            .time_scaled(6000.0),
    )
    .policy(ClusterPolicy::greedy_default())
    .power_policy(PowerPolicy::rationed_default())
    .rack_supply(RackSupplyParams::rack(EDGE * EDGE).time_scaled(6000.0))
    .config(cfg)
    .tasks(ClusterTask::arrivals(
        WorkloadKind::Sobel,
        InputSize::A,
        16,
        8,
        0.0,
        500e-6,
    ))
    .trace_capacity(0)
    .build()
}

#[test]
fn an_idle_server_costs_its_bookkeeping_only() {
    let before = LIVE_BYTES.load(Ordering::Relaxed);
    let session = sparse_fleet_rack();
    let after = LIVE_BYTES.load(Ordering::Relaxed);
    let servers = session.nodes();
    assert_eq!(servers, EDGE * EDGE);
    let per_server = after.saturating_sub(before) / servers;
    println!("{per_server} B live per server after the build");
    assert!(
        per_server <= BUDGET_PER_SERVER,
        "{per_server} B live per idle server, budget {BUDGET_PER_SERVER} B"
    );
    drop(session);
}
