//! Cluster-level sprint admission and shed-order policies.
//!
//! [`HotspotPolicy::ShedCores`] (in `sprint-core`) answers *how many*
//! cores may keep sprinting as headroom shrinks. At rack scale the
//! question generalizes: not just how many *nodes* may sprint, but
//! *which ones* — admission picks who starts, and the shed order picks
//! who is demoted first when shared headroom runs out. [`ClusterPolicy`]
//! bundles the three decisions:
//!
//! * **admission** — may this task sprint on this node right now?
//! * **allowance** — how many nodes may sprint at the current
//!   rack-global headroom (the [`HotspotPolicy::ShedCores`] linear ramp,
//!   lifted from cores to nodes)?
//! * **shed order** — when the sprinting population exceeds the
//!   allowance, in what order are nodes preempted?
//!
//! [`HotspotPolicy::ShedCores`]: sprint_core::config::HotspotPolicy

use serde::{Deserialize, Serialize};

/// How cluster admission treats the shared electrical pool
/// (`RackSupply`) — the power axis of the joint thermal-and-power
/// admission decision. Orthogonal to [`ClusterPolicy`], which keeps
/// answering the thermal questions: a sprint must clear *both* gates,
/// and a task denied on either axis defers under the same
/// sprint-or-defer machinery.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum PowerPolicy {
    /// Power-oblivious admission (the pre-supply behaviour): sprints
    /// are granted on thermal headroom alone, the bus overdraws, the
    /// reserve drains, and brownouts end sprints mid-flight — the
    /// electrical analogue of the unmanaged rack's thermal collapse.
    Oblivious,
    /// Power-aware rationing: a sprint is admitted only when the feed's
    /// *provisioned* draw — every sprinting node booked at
    /// `sprint_draw_w`, everyone else at live telemetry — leaves room
    /// for one more `sprint_draw_w` under the rack cap, so the reserve
    /// is never spent on scheduled load. The shed pass gains a power
    /// emergency: when the reserve falls below `shed_reserve_fraction`
    /// while the bus is overdrawn, sprinting nodes are preempted
    /// largest-draw-first until demand fits the cap again.
    Rationed {
        /// Provisioned upstream draw booked per sprinting node, watts
        /// (size it at or above the regulated sprint draw; the demo
        /// rack's 16 W sprint regulates to ~17.7 W upstream).
        sprint_draw_w: f64,
        /// Reserve fill fraction below which the power-emergency shed
        /// engages (the admission gate should keep it from ever
        /// tripping; it is the backstop against provisioning error).
        shed_reserve_fraction: f64,
    },
}

impl PowerPolicy {
    /// A reasonable rationing default for the `RackSupplyParams::rack`
    /// preset: books 18 W per sprint (just above the ~17.7 W regulated
    /// draw) and sheds if the reserve ever drops below half.
    pub fn rationed_default() -> Self {
        PowerPolicy::Rationed {
            sprint_draw_w: 18.0,
            shed_reserve_fraction: 0.5,
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive provisioned draw or a shed fraction
    /// outside `[0, 1]`.
    pub fn validate(&self) {
        if let PowerPolicy::Rationed {
            sprint_draw_w,
            shed_reserve_fraction,
        } = self
        {
            assert!(
                sprint_draw_w.is_finite() && *sprint_draw_w > 0.0,
                "provisioned sprint draw must be positive"
            );
            assert!(
                (0.0..=1.0).contains(shed_reserve_fraction),
                "shed reserve fraction must be in [0, 1]"
            );
        }
    }
}

/// A cluster sprint-admission policy. See the module docs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClusterPolicy {
    /// Baseline: no task ever sprints; every node runs sustained.
    NoSprint,
    /// Unmanaged: every task sprints, nothing is ever shed — the
    /// "furious" regime whose thermal collapse motivates admission
    /// control (Porto et al.).
    AllSprint,
    /// Greedy headroom admission with *sprint-or-defer* semantics: a
    /// task sprints only if its node has at least `admit_headroom_k` of
    /// local headroom and the rack-wide allowance is not yet full.
    /// A task that cannot be admitted **waits in the queue** for
    /// headroom (up to `defer_s` from its arrival) rather than burning
    /// an order of magnitude longer in sustained mode — the scheduler
    /// trades a short queueing delay for a full-budget sprint, which is
    /// what makes rationing beat unmanaged sprinting. Tasks are placed
    /// coolest-node-first, and nodes are shed hottest-first as rack
    /// headroom shrinks below `shed_headroom_k`.
    GreedyHeadroom {
        /// Minimum node-local headroom (Kelvin) to admit a sprint.
        admit_headroom_k: f64,
        /// Rack-global headroom (Kelvin) at which shedding begins; the
        /// allowance ramps linearly from every node down to
        /// `min_sprinting` at zero headroom.
        shed_headroom_k: f64,
        /// Floor on the sprinting-node allowance.
        min_sprinting: usize,
        /// Longest a task may wait for admission, seconds; after this
        /// it runs sustained. `INFINITY` waits indefinitely (safe: an
        /// idle rack always cools back into admission range).
        defer_s: f64,
    },
    /// Rotating admission: at most `max_sprinting` nodes sprint at
    /// once, granted in task-arrival order. Admission never exceeds
    /// the fixed allowance, so only a power emergency sheds, walking
    /// the same rotation, oldest grant first.
    RoundRobin {
        /// Fixed cap on concurrently sprinting nodes.
        max_sprinting: usize,
    },
    /// Competitive duplication (Yonezawa's competitive parallel
    /// computing): when idle nodes outnumber waiting tasks, a task is
    /// replicated onto up to `copies` nodes and the earliest finisher
    /// wins; the rest of each decision follows `GreedyHeadroom` with
    /// the same admission threshold. Trades thermal budget (duplicate
    /// heat) for latency (the coolest copy sprints longest).
    ///
    /// With `cancel_losers` set, the window the winning copy commits
    /// every losing replica is killed through the machine-level cancel
    /// API (`SprintSession::cancel_workload`) and its node returns to
    /// the idle pool immediately — duplication stops paying for the
    /// losers' full runs, which is what turns it from a hedge that
    /// burns the shared feed into a provable latency win. Unset, the
    /// losers run to completion and are discarded (the pre-cancel
    /// behaviour, kept as the comparison baseline).
    CompetitiveDuplicate {
        /// Maximum copies of one task (including the original).
        copies: usize,
        /// Minimum node-local headroom (Kelvin) to admit a sprint.
        admit_headroom_k: f64,
        /// Kill losing replicas the window the winner commits.
        cancel_losers: bool,
    },
}

impl ClusterPolicy {
    /// A reasonable greedy-headroom default for the `rack` preset:
    /// admission stops granting sprints once a node is within 15 K of
    /// the limit, and the shed pass is an emergency backstop (4 K) —
    /// admission should be the binding constraint, with sheds rare.
    pub fn greedy_default() -> Self {
        ClusterPolicy::GreedyHeadroom {
            admit_headroom_k: 15.0,
            shed_headroom_k: 4.0,
            min_sprinting: 1,
            defer_s: f64::INFINITY,
        }
    }

    /// Validates invariants.
    ///
    /// # Panics
    ///
    /// Panics on non-positive thresholds, a zero allowance floor, a
    /// zero round-robin cap, or fewer than two duplicate copies.
    pub fn validate(&self) {
        match self {
            ClusterPolicy::NoSprint | ClusterPolicy::AllSprint => {}
            ClusterPolicy::GreedyHeadroom {
                admit_headroom_k,
                shed_headroom_k,
                min_sprinting,
                defer_s,
            } => {
                assert!(
                    admit_headroom_k.is_finite() && *admit_headroom_k > 0.0,
                    "admission threshold must be positive"
                );
                assert!(
                    shed_headroom_k.is_finite() && *shed_headroom_k > 0.0,
                    "shed threshold must be positive"
                );
                assert!(
                    *min_sprinting >= 1,
                    "allowance floor needs at least one node"
                );
                assert!(
                    !defer_s.is_nan() && *defer_s >= 0.0,
                    "defer window must be non-negative"
                );
            }
            ClusterPolicy::RoundRobin { max_sprinting } => {
                assert!(*max_sprinting >= 1, "round-robin cap must be at least one");
            }
            ClusterPolicy::CompetitiveDuplicate {
                copies,
                admit_headroom_k,
                ..
            } => {
                assert!(*copies >= 2, "duplication needs at least two copies");
                assert!(
                    admit_headroom_k.is_finite() && *admit_headroom_k > 0.0,
                    "admission threshold must be positive"
                );
            }
        }
    }

    /// Whether a task assigned to a node with `node_headroom_k` of
    /// local headroom may sprint, given `sprinting` nodes already
    /// sprinting and the current rack-wide `allowance`.
    pub fn admits(&self, node_headroom_k: f64, sprinting: usize, allowance: usize) -> bool {
        match self {
            ClusterPolicy::NoSprint => false,
            ClusterPolicy::AllSprint => true,
            ClusterPolicy::GreedyHeadroom {
                admit_headroom_k, ..
            }
            | ClusterPolicy::CompetitiveDuplicate {
                admit_headroom_k, ..
            } => node_headroom_k >= *admit_headroom_k && sprinting < allowance,
            ClusterPolicy::RoundRobin { .. } => sprinting < allowance,
        }
    }

    /// How many nodes may sprint concurrently at `rack_headroom_k` of
    /// rack-global headroom, out of `nodes` total — the
    /// `HotspotPolicy::ShedCores` linear ramp lifted from shed *count*
    /// to the cluster's sprinting allowance. Monotone non-decreasing in
    /// headroom for every variant (the shed-order property tests pin
    /// this).
    pub fn max_sprinting_at(&self, nodes: usize, rack_headroom_k: f64) -> usize {
        match self {
            ClusterPolicy::NoSprint => 0,
            ClusterPolicy::AllSprint => nodes,
            ClusterPolicy::CompetitiveDuplicate { .. } => nodes,
            ClusterPolicy::RoundRobin { max_sprinting } => (*max_sprinting).min(nodes),
            ClusterPolicy::GreedyHeadroom {
                shed_headroom_k,
                min_sprinting,
                ..
            } => {
                let floor = (*min_sprinting).min(nodes).max(1);
                if rack_headroom_k >= *shed_headroom_k || nodes <= floor {
                    return nodes;
                }
                let frac = (rack_headroom_k / shed_headroom_k).max(0.0);
                floor + ((nodes - floor) as f64 * frac).floor() as usize
            }
        }
    }

    /// Orders the sprinting nodes for preemption, most expendable
    /// first. `grant_order` is the rack's grant rotation: every
    /// sprinting node once, oldest grant first (the cluster session
    /// sweeps it before its scheduler passes read it). `reading(n)` is
    /// node `n`'s ranking reading — its sensed temperature for the
    /// thermal shed pass, its upstream draw for the power emergency —
    /// taken once per sprinting node. Greedy and competitive policies
    /// shed the highest reading first, a NaN reading (a dropped-out
    /// sensor) before any number, ties by lower index, so the order is
    /// fully deterministic whatever the rotation's order; round-robin
    /// sheds the rotation as it stands and reads nothing; the
    /// baselines never shed (their allowance can't be exceeded) but
    /// order deterministically anyway.
    pub fn shed_order(&self, grant_order: &[usize], reading: impl Fn(usize) -> f64) -> Vec<usize> {
        match self {
            ClusterPolicy::RoundRobin { .. } => grant_order.to_vec(),
            _ => rank_nodes(grant_order.iter().map(|&n| (reading(n), n)), true),
        }
    }

    /// Copies of each task to run (1 for every non-duplicating policy).
    pub fn duplicates(&self) -> usize {
        match self {
            ClusterPolicy::CompetitiveDuplicate { copies, .. } => *copies,
            _ => 1,
        }
    }

    /// A competitive-duplication default with loser cancellation on:
    /// two copies, the greedy 15 K admission threshold.
    pub fn competitive_default() -> Self {
        ClusterPolicy::CompetitiveDuplicate {
            copies: 2,
            admit_headroom_k: 15.0,
            cancel_losers: true,
        }
    }

    /// True when losing replicas are cancelled the window their task's
    /// winner commits.
    pub fn cancels_losers(&self) -> bool {
        matches!(
            self,
            ClusterPolicy::CompetitiveDuplicate {
                cancel_losers: true,
                ..
            }
        )
    }

    /// How long a denied task may wait in the queue for admission
    /// before falling back to a sustained run; `None` assigns denied
    /// tasks sustained immediately (no deferral).
    pub fn defer_window_s(&self) -> Option<f64> {
        match self {
            ClusterPolicy::GreedyHeadroom { defer_s, .. } => Some(*defer_s),
            ClusterPolicy::CompetitiveDuplicate { .. } => Some(f64::INFINITY),
            _ => None,
        }
    }

    /// The node-local headroom an admission requires, if this policy
    /// gates on one. The cluster builder checks it against the rack's
    /// maximum achievable headroom (`t_max - ambient`): a threshold no
    /// cold node can ever meet would head-of-line block the deferring
    /// queue forever.
    pub fn admit_headroom_k(&self) -> Option<f64> {
        match self {
            ClusterPolicy::GreedyHeadroom {
                admit_headroom_k, ..
            }
            | ClusterPolicy::CompetitiveDuplicate {
                admit_headroom_k, ..
            } => Some(*admit_headroom_k),
            _ => None,
        }
    }

    /// True when idle nodes should be filled coolest-first (headroom-
    /// aware placement); false for arrival-order placement.
    pub fn places_coolest_first(&self) -> bool {
        matches!(
            self,
            ClusterPolicy::GreedyHeadroom { .. } | ClusterPolicy::CompetitiveDuplicate { .. }
        )
    }
}

/// The one node ranking every scheduler pass uses: `(reading, node)`
/// pairs ordered coolest first by `f64::total_cmp`, a NaN reading
/// hottest of all, equal readings toward the lower index.
/// `hottest_first` walks the same order from the hot end, index ties
/// still ascending.
pub(crate) fn rank_nodes(
    keyed: impl Iterator<Item = (f64, usize)>,
    hottest_first: bool,
) -> Vec<usize> {
    // Every NaN becomes the one positive NaN, above +∞ under
    // `total_cmp`; negated keys walk the same order from the hot end.
    let heat = |r: f64| if r.is_nan() { f64::NAN.abs() } else { r };
    let key = |r: f64| if hottest_first { -heat(r) } else { heat(r) };
    let mut keyed: Vec<(f64, usize)> = keyed.map(|(r, n)| (key(r), n)).collect();
    keyed.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    keyed.into_iter().map(|(_, n)| n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_bracket_the_allowance() {
        assert_eq!(ClusterPolicy::NoSprint.max_sprinting_at(16, 40.0), 0);
        assert_eq!(ClusterPolicy::AllSprint.max_sprinting_at(16, 0.0), 16);
        assert!(!ClusterPolicy::NoSprint.admits(45.0, 0, 0));
        assert!(ClusterPolicy::AllSprint.admits(0.1, 15, 16));
    }

    #[test]
    fn greedy_ramp_mirrors_shed_cores() {
        let p = ClusterPolicy::GreedyHeadroom {
            admit_headroom_k: 10.0,
            shed_headroom_k: 8.0,
            min_sprinting: 2,
            defer_s: f64::INFINITY,
        };
        p.validate();
        assert_eq!(p.max_sprinting_at(16, 9.0), 16, "above threshold: all");
        assert_eq!(p.max_sprinting_at(16, 8.0), 16);
        assert_eq!(p.max_sprinting_at(16, 4.0), 9, "halfway: 2 + 14/2");
        assert_eq!(p.max_sprinting_at(16, 0.0), 2, "floor at zero headroom");
        assert_eq!(p.max_sprinting_at(16, -2.0), 2, "floor past the limit");
        assert!(p.admits(12.0, 3, 8));
        assert!(!p.admits(9.9, 3, 8), "too little local headroom");
        assert!(!p.admits(30.0, 8, 8), "allowance full");
    }

    #[test]
    fn shed_order_is_hottest_first_with_index_ties() {
        let p = ClusterPolicy::greedy_default();
        let temps = [50.0, 61.0, 55.0, 61.0];
        let order = p.shed_order(&[3, 0, 2, 1], |n| temps[n]);
        assert_eq!(order, vec![1, 3, 2, 0], "whatever the rotation's order");
    }

    #[test]
    fn round_robin_sheds_oldest_grant_first() {
        let p = ClusterPolicy::RoundRobin { max_sprinting: 4 };
        let temps = [90.0, 10.0, 50.0, 70.0];
        // Grant order 2, 0, 3 (node 1 is not sprinting).
        let order = p.shed_order(&[2, 0, 3], |n| temps[n]);
        assert_eq!(order, vec![2, 0, 3], "rotation order, not temperature");
    }

    #[test]
    #[should_panic(expected = "at least two copies")]
    fn single_copy_duplication_rejected() {
        ClusterPolicy::CompetitiveDuplicate {
            copies: 1,
            admit_headroom_k: 5.0,
            cancel_losers: false,
        }
        .validate();
    }
}
