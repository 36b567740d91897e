//! Golden-trace regression tests.
//!
//! The workload suite is fully deterministic (seeded inputs, deterministic
//! scheduling), so every kernel's retired-instruction count, memory traffic
//! and wall-clock are pinned exactly. A change to any of these numbers
//! means the emitted trace changed — intentional changes must update the
//! table *and* re-run the figure calibration in EXPERIMENTS.md.
//!
//! Suite inputs are shared per process, so the same table also pins that
//! a run leaves its input untouched: a second load of a kind, from this
//! thread or another, must retire the same trace.

use std::sync::{Arc, Barrier};
use std::thread;

use sprint_archsim::{Machine, MachineConfig};
use sprint_workloads::suite::{build_workload, InputSize, Workload, WorkloadKind};

/// `(kernel, instructions, loads, stores, time_ps)` on 4 cores, size A.
const GOLDEN: [(WorkloadKind, u64, u64, u64, u64); 6] = [
    (
        WorkloadKind::Sobel,
        8_209_788,
        47_850,
        15_950,
        2_381_000_000,
    ),
    (
        WorkloadKind::Feature,
        17_348_810,
        160_992,
        63_432,
        6_179_000_000,
    ),
    (WorkloadKind::Kmeans, 2_248_764, 8_064, 40, 669_000_000),
    (
        WorkloadKind::Disparity,
        24_960_004,
        748_800,
        249_600,
        23_688_000_000,
    ),
    (
        WorkloadKind::Texture,
        5_419_668,
        54_912,
        26_624,
        2_296_000_000,
    ),
    (
        WorkloadKind::Segment,
        8_540_188,
        102_400,
        81_920,
        3_598_000_000,
    ),
];

/// Loads `kind` at size A from the suite table, runs it to completion on
/// 4 cores and asserts its `GOLDEN` row. Returns the loaded instance.
fn run_golden(kind: WorkloadKind) -> Arc<dyn Workload> {
    let (_, instr, loads, stores, time_ps) = GOLDEN
        .into_iter()
        .find(|row| row.0 == kind)
        .expect("every kind has a golden row");
    let w = build_workload(kind, InputSize::A);
    let mut m = Machine::new(MachineConfig::hpca().with_cores(4));
    w.setup(&mut m, 4);
    while !m.all_done() {
        m.run_window(1_000_000);
    }
    let s = m.stats();
    assert_eq!(
        s.instructions,
        instr,
        "{}: instruction count drifted",
        kind.name()
    );
    assert_eq!(s.loads, loads, "{}: load count drifted", kind.name());
    assert_eq!(s.stores, stores, "{}: store count drifted", kind.name());
    assert_eq!(m.time_ps(), time_ps, "{}: timing drifted", kind.name());
    w
}

#[test]
fn golden_traces_are_stable() {
    for kind in WorkloadKind::ALL {
        let first = run_golden(kind);
        let second = run_golden(kind);
        assert!(
            Arc::ptr_eq(&first, &second),
            "{}: the second load must reuse the first's input",
            kind.name()
        );
    }
}

#[test]
fn golden_traces_hold_when_two_threads_share_the_table() {
    let barrier = Barrier::new(2);
    let [a, b] = thread::scope(|scope| {
        let load = || {
            barrier.wait();
            WorkloadKind::ALL.map(run_golden)
        };
        [scope.spawn(load), scope.spawn(load)].map(|h| h.join().expect("a loader thread panicked"))
    });
    for ((kind, a), b) in WorkloadKind::ALL.iter().zip(&a).zip(&b) {
        assert!(
            Arc::ptr_eq(a, b),
            "{}: both threads must share one input",
            kind.name()
        );
    }
}

#[test]
fn traces_differ_across_kernels() {
    // Sanity on the golden table itself: no two kernels share a signature.
    for (i, a) in GOLDEN.iter().enumerate() {
        for b in &GOLDEN[i + 1..] {
            assert_ne!(a.1, b.1, "{:?} vs {:?}", a.0, b.0);
        }
    }
}
