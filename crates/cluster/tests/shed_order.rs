//! Shed-order determinism and monotonicity: the per-die
//! `HotspotPolicy::ShedCores` ramp and its cluster generalization must
//! be deterministic functions of thermal state, monotone as headroom
//! shrinks, and reproduce the exact same shed sequence run-for-run
//! under both grid solvers.

use std::sync::OnceLock;

use proptest::prelude::*;
use sprint_cluster::prelude::*;
use sprint_core::config::{HotspotPolicy, SprintConfig};
use sprint_thermal::grid::{GridSolver, GridThermalParams};
use sprint_workloads::suite::{InputSize, WorkloadKind};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The per-die core-shed cap is monotone non-decreasing in
    /// headroom and stays within [floor, start] for arbitrary policy
    /// parameters.
    #[test]
    fn shed_cores_cap_is_monotone_in_headroom(
        start_headroom in 0.5f64..20.0,
        min_cores in 1usize..8,
        start_cores in 1usize..33,
        h_lo in -5.0f64..25.0,
        dh in 0.0f64..10.0,
    ) {
        let policy = HotspotPolicy::ShedCores {
            start_headroom_k: start_headroom,
            min_cores,
        };
        policy.validate();
        let h_hi = h_lo + dh;
        let at_lo = policy.max_cores_at(start_cores, h_lo);
        let at_hi = policy.max_cores_at(start_cores, h_hi);
        prop_assert!(
            at_lo <= at_hi,
            "cap must not grow as headroom shrinks: {at_lo} @ {h_lo} vs {at_hi} @ {h_hi}"
        );
        let floor = min_cores.min(start_cores).max(1);
        prop_assert!(at_lo >= floor && at_lo <= start_cores);
        prop_assert!(at_hi >= floor && at_hi <= start_cores);
        // Determinism: the cap is a pure function of its inputs.
        prop_assert_eq!(at_lo, policy.max_cores_at(start_cores, h_lo));
    }

    /// The cluster sprinting allowance (the same ramp lifted from cores
    /// to nodes) is monotone non-decreasing in rack headroom for every
    /// policy variant, and bounded by the node count.
    #[test]
    fn cluster_allowance_is_monotone_in_headroom(
        shed_headroom in 0.5f64..20.0,
        min_sprinting in 1usize..6,
        nodes in 1usize..33,
        cap in 1usize..33,
        h_lo in -5.0f64..25.0,
        dh in 0.0f64..10.0,
    ) {
        let policies = [
            ClusterPolicy::NoSprint,
            ClusterPolicy::AllSprint,
            ClusterPolicy::RoundRobin { max_sprinting: cap },
            ClusterPolicy::GreedyHeadroom {
                admit_headroom_k: shed_headroom + 1.0,
                shed_headroom_k: shed_headroom,
                min_sprinting,
                defer_s: f64::INFINITY,
            },
        ];
        let h_hi = h_lo + dh;
        for policy in policies {
            policy.validate();
            let at_lo = policy.max_sprinting_at(nodes, h_lo);
            let at_hi = policy.max_sprinting_at(nodes, h_hi);
            prop_assert!(
                at_lo <= at_hi,
                "{policy:?}: allowance must not grow as headroom shrinks"
            );
            prop_assert!(at_hi <= nodes);
            prop_assert_eq!(at_lo, policy.max_sprinting_at(nodes, h_lo));
        }
    }

    /// The shed order is a deterministic function of the temperature
    /// snapshot: dropped-out sensors (NaN) first, then hottest first,
    /// with index tie-breaks, every sprinting node ranked exactly once.
    /// Readings sit on a 2 K grid so ties are common, and one code in
    /// six is a dropout.
    #[test]
    fn shed_order_is_deterministic_and_complete(
        codes in prop::collection::vec(0u32..24, 16..17),
        mask in 1u32..65536,
    ) {
        let temps: Vec<f64> = codes
            .iter()
            .map(|&c| if c < 4 { f64::NAN } else { 25.0 + 2.0 * c as f64 })
            .collect();
        let sprinting: Vec<usize> =
            (0..16).filter(|i| mask & (1 << i) != 0).collect();
        let policy = ClusterPolicy::greedy_default();
        let order = policy.shed_order(&sprinting, |n| temps[n]);
        // The rotation arrives in grant order, not index order: the
        // ranking must not depend on it.
        let reversed: Vec<usize> = sprinting.iter().rev().copied().collect();
        prop_assert_eq!(order.clone(), policy.shed_order(&reversed, |n| temps[n]));
        prop_assert_eq!(order.len(), sprinting.len());
        let mut sorted = order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(sorted, sprinting.clone(), "a permutation of the sprinting set");
        for w in order.windows(2) {
            let (a, b) = (w[0], w[1]);
            let (ta, tb) = (temps[a], temps[b]);
            let tied = (ta.is_nan() && tb.is_nan()) || ta == tb;
            prop_assert!(
                (ta.is_nan() && !tb.is_nan()) || ta > tb || (tied && a < b),
                "NaN first, then hottest first, with index ties: {a} ({ta}) before {b} ({tb})"
            );
        }
    }
}

/// Runs a small shared-rack scenario hot enough to force sheds and
/// returns the shed sequence (node indices in event order).
fn shed_sequence(solver: GridSolver) -> (Vec<usize>, f64) {
    let mut cfg = SprintConfig::hpca_parallel();
    cfg.tdp_w = 8.0;
    let mut cluster = ClusterBuilder::new(
        GridThermalParams::rack(2, 2)
            .with_solver(solver)
            .time_scaled(6000.0),
    )
    .policy(ClusterPolicy::GreedyHeadroom {
        // Generous admission with an aggressive shed ramp: everyone is
        // admitted cold, then the allowance collapses as the rack
        // heats, so the shed order is exercised repeatedly.
        admit_headroom_k: 2.0,
        shed_headroom_k: 30.0,
        min_sprinting: 1,
        defer_s: 0.0,
    })
    .config(cfg)
    .tasks(ClusterTask::batch(
        WorkloadKind::Sobel,
        InputSize::A,
        16,
        12,
    ))
    .trace_capacity(0)
    .build();
    assert_eq!(cluster.run_to_completion(), ClusterOutcome::Drained);
    let sheds: Vec<usize> = cluster
        .events()
        .iter()
        .filter_map(|e| match e {
            ClusterEvent::NodeShed { node, .. } => Some(*node),
            _ => None,
        })
        .collect();
    (sheds, cluster.report().makespan_s)
}

/// One drain's shed sequence and makespan, as [`shed_sequence`] returns.
type Drain = (Vec<usize>, f64);

/// Each solver's scenario drained twice, as `[explicit, adi]`. Both
/// tests below read these results, so the binary runs four drains in
/// all, whichever test asks first.
fn drains() -> &'static [[Drain; 2]; 2] {
    static DRAINS: OnceLock<[[Drain; 2]; 2]> = OnceLock::new();
    DRAINS.get_or_init(|| SOLVERS.map(|solver| [shed_sequence(solver), shed_sequence(solver)]))
}

const SOLVERS: [GridSolver; 2] = [GridSolver::Explicit, GridSolver::Adi];

/// Same cluster, same solver, run twice: the shed sequence (which
/// nodes, in which order) and the makespan must be identical — under
/// the explicit solver and under ADI.
#[test]
fn shed_sequence_is_reproducible_under_both_solvers() {
    for (solver, [(sheds_a, makespan_a), (sheds_b, makespan_b)]) in SOLVERS.iter().zip(drains()) {
        assert!(
            !sheds_a.is_empty(),
            "{solver:?}: the scenario must actually shed"
        );
        assert_eq!(
            sheds_a, sheds_b,
            "{solver:?}: shed order must be reproducible"
        );
        assert_eq!(
            makespan_a.to_bits(),
            makespan_b.to_bits(),
            "{solver:?}: makespan must be bit-reproducible"
        );
    }
}

/// The two solvers agree on the *behaviour*: both shed, and their
/// makespans agree to a few percent (they are different integrators,
/// so bit-identity across solvers is not expected — determinism within
/// each solver is pinned above).
#[test]
fn solvers_agree_on_shed_behaviour() {
    let [[(sheds_explicit, makespan_explicit), _], [(sheds_adi, makespan_adi), _]] = drains();
    let (makespan_explicit, makespan_adi) = (*makespan_explicit, *makespan_adi);
    assert!(!sheds_explicit.is_empty() && !sheds_adi.is_empty());
    let rel = (makespan_explicit - makespan_adi).abs() / makespan_explicit.max(makespan_adi);
    assert!(
        rel < 0.05,
        "solver makespans must agree within 5%: explicit {makespan_explicit:.6} vs adi {makespan_adi:.6}"
    );
}
