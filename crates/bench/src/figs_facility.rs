//! Facility figure: tail latency vs facility power cap, global
//! cross-rack sprint rationing against the facility-oblivious static
//! split (`repro facility`).
//!
//! Sixteen 16-server racks (the proven `rack(4,4)` figure
//! configuration) sit in rows behind one building feed that cannot
//! carry every rack's nameplate at once. Each rack serves its own
//! open-arrival traffic stream — same mean rate, but diurnal phases
//! rotated so rack peaks do not coincide. The sweep fixes the facility
//! cap at a fraction of the aggregate nameplate and compares two
//! admission tiers at the *same* total budget:
//!
//! * **oblivious** ([`FacilityPolicy::PerRack`]) — the cap is split
//!   equally at commissioning time and never moved: every rack owns
//!   `cap / N` watts through its peak and its trough alike;
//! * **global** ([`FacilityPolicy::GlobalRationed`]) — the settlement
//!   tier re-divides the cap every epoch by rack demand, dealing the
//!   pool above the per-rack floors in whole sprint-slot quanta, so the
//!   watts idle in one rack's trough carry another rack's peak (and
//!   land as *admissible sprints*, not stranded sub-slot watts).
//!
//! The figure of merit is the facility-wide p99 latency: under a tight
//! cap the oblivious split strands sprint headroom exactly when a rack
//! needs it, while global rationing rides the rotating peaks — the
//! facility-scale version of the paper's core claim that pooled
//! thermal/electrical headroom beats per-unit worst-case provisioning.
//!
//! Racks are stepped by the event-driven core by default (idle nodes
//! sleep instead of resting every window); `repro facility
//! --oracle` re-runs every sweep point on the lockstep golden oracle
//! and asserts the two report digests are byte-identical — the
//! cluster-level equivalence contract, re-proved at study scale.

use std::time::Instant;

use sprint_cluster::{ClusterPolicy, PowerPolicy, RackSupplyParams};
use sprint_core::config::SprintConfig;
use sprint_facility::prelude::*;
use sprint_thermal::grid::GridThermalParams;
use sprint_workloads::traffic::TrafficParams;

use crate::output::{Csv, TextTable};

/// Thermal/electrical time compression (the rack figure's).
pub const FACILITY_COMPRESS: f64 = 6000.0;
/// Racks in the full-scale study.
pub const FACILITY_RACKS: usize = 16;
/// Rack edge in servers (16 nodes per rack, a 32x32 ADI grid each).
pub const FACILITY_RACK_EDGE: usize = 4;
/// Open-arrival tasks per full-scale run; the four-point cap sweep
/// simulates `8 * FACILITY_TASKS` = 102,400 tasks end to end.
pub const FACILITY_TASKS: usize = 12_800;
/// Mean per-rack arrival rate, Hz. Sized so a nameplate-powered rack
/// rides well under saturation while a one-sprint-slot share saturates
/// transiently at every diurnal peak.
pub const FACILITY_RATE_HZ: f64 = 1_800.0;
/// Traffic seed for the study.
pub const FACILITY_SEED: u64 = 2012;
/// Co-simulation window, picoseconds (20 µs: the facility studies trade
/// scheduler granularity for wall-clock; the probe that sized it saw
/// sub-percent tail movement against the 1 µs default).
pub const FACILITY_WINDOW_PS: u64 = 20_000_000;
/// Sampling windows per settlement epoch (0.32 ms cadence — hundreds of
/// settlements per diurnal period, and several settlements inside one
/// defer window so the global tier can re-deal caps before a deferred
/// task gives up and degrades).
pub const FACILITY_EPOCH_WINDOWS: u64 = 16;
/// Guaranteed per-rack floor under global rationing, watts — carries a
/// starved rack's sustained load, not a sprint.
pub const FACILITY_FLOOR_W: f64 = 20.0;
/// Flex-pool quantum under global rationing, watts — the per-sprint
/// booking of [`PowerPolicy::rationed_default`], so every quantum the
/// settlement deals a rack buys exactly one admissible sprint.
pub const FACILITY_SLOT_W: f64 = 18.0;
/// The cap sweep, expressed as per-rack watts (multiply by the rack
/// count for the facility cap). The rack nameplate is 120 W, so the
/// sweep runs from one hard-rationed sprint slot to fully provisioned.
pub const FACILITY_CAP_SHARES_W: [f64; 4] = [25.0, 40.0, 60.0, 120.0];

/// Worker threads for facility runs: every core the host offers. The
/// report is byte-identical at any thread count, so this is purely a
/// wall-clock choice.
pub fn facility_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// The facility-wide base traffic stream (each rack derives a
/// phase-rotated, reseeded share of it): diurnal sinusoid, fan-in
/// bursts, heavy-tailed sizes trimmed to A/B (a C or D outlier on a
/// floor-rationed rack runs sustained for tens of simulated
/// milliseconds — a different study's tail).
pub fn facility_traffic(tasks: usize) -> TrafficParams {
    let mut traffic = TrafficParams::frontend(FACILITY_SEED, tasks, FACILITY_RATE_HZ);
    traffic.size_weights = [0.95, 0.05, 0.0, 0.0];
    traffic
}

/// Builds the study facility: `racks` standard figure racks in rows of
/// four behind a `share_w * racks` watt feed, under the given facility
/// tier. Everything but the facility policy and cap is held fixed, so
/// any latency difference is the admission tier's doing.
pub fn study_facility(
    policy: FacilityPolicy,
    share_w: f64,
    racks: usize,
    tasks: usize,
) -> Facility {
    study_facility_with(policy, share_w, racks, tasks, |b| b)
}

/// [`study_facility`] with a final customization hook on the builder —
/// the fault study reuses the whole configuration and only layers its
/// fault plans (and a shorter horizon) on top, so the degradation
/// numbers stay comparable to the cap sweep's.
pub fn study_facility_with(
    policy: FacilityPolicy,
    share_w: f64,
    racks: usize,
    tasks: usize,
    customize: impl FnOnce(FacilityBuilder) -> FacilityBuilder,
) -> Facility {
    let nodes = FACILITY_RACK_EDGE * FACILITY_RACK_EDGE;
    let mut cfg = SprintConfig::hpca_parallel();
    // Nameplate credit, as in the rack figures: each node's governor
    // assumes a fair share of the rack's sustainable envelope.
    cfg.tdp_w = 8.0;
    cfg.sample_window_ps = FACILITY_WINDOW_PS;
    let builder = FacilityBuilder::new(racks)
        .rack_thermal(
            GridThermalParams::rack(FACILITY_RACK_EDGE, FACILITY_RACK_EDGE)
                .time_scaled(FACILITY_COMPRESS),
        )
        .rack_supply(RackSupplyParams::rack(nodes).time_scaled(FACILITY_COMPRESS))
        .config(cfg)
        .policy(ClusterPolicy::GreedyHeadroom {
            admit_headroom_k: 15.0,
            shed_headroom_k: 4.0,
            min_sprinting: 1,
            // Finite (a rack pinned below one sprint slot must degrade
            // its queue to sustained runs, not head-of-line block) but
            // several settlement epochs long, so headroom the global
            // tier re-deals mid-wait still rescues a deferred task.
            defer_s: 2e-3,
        })
        .power_policy(PowerPolicy::rationed_default())
        .row(RowParams {
            racks_per_row: 4,
            recirc_k_per_w: 0.02,
            crac_capacity_w: 240.0,
            max_inlet_c: 45.0,
        })
        .facility_policy(policy)
        .facility_cap_w(share_w * racks as f64)
        .epoch_windows(FACILITY_EPOCH_WINDOWS)
        .max_time_s(60.0)
        .traffic(facility_traffic(tasks));
    customize(builder).build()
}

/// One (cap, tier) point of the sweep.
pub struct FacilityRow {
    /// Tier label.
    pub label: &'static str,
    /// Per-rack share of the facility cap, watts.
    pub share_w: f64,
    /// Facility report.
    pub report: FacilityReport,
    /// Wall-clock for the run, seconds.
    pub wall_s: f64,
}

/// Runs one sweep point on every available core. With `oracle` set,
/// the identical configuration is additionally run on the lockstep
/// golden oracle and the two report digests are asserted byte-equal
/// (the wall-clock recorded is always the event-driven run's).
pub fn run_facility_policy(
    label: &'static str,
    policy: FacilityPolicy,
    share_w: f64,
    racks: usize,
    tasks: usize,
    oracle: bool,
) -> FacilityRow {
    let facility = study_facility(policy, share_w, racks, tasks);
    let start = Instant::now();
    let report = facility.run(facility_threads());
    let wall_s = start.elapsed().as_secs_f64();
    if oracle {
        let lockstep =
            study_facility_with(policy, share_w, racks, tasks, |b| b.event_driven(false))
                .run(facility_threads());
        assert_eq!(
            report.digest(),
            lockstep.digest(),
            "{label} @ {share_w} W/rack: event-driven facility diverged from \
             the lockstep oracle"
        );
    }
    // A truncated rack would flatter the slow tier (only completed
    // tasks enter the percentiles), so refuse to compare truncated
    // runs — same stance as the rack figures.
    assert!(
        report.all_drained,
        "{label} @ {share_w} W/rack: every rack must drain within the time limit"
    );
    assert_eq!(report.completed, tasks, "{label}: no task may go missing");
    FacilityRow {
        label,
        share_w,
        report,
        wall_s,
    }
}

/// The facility figure at explicit scale: `racks` racks, `tasks` tasks
/// per run, sweeping `shares` (per-rack watts) under both tiers.
/// `oracle` cross-checks every point against the lockstep stepper.
pub fn fig_facility_at(
    racks: usize,
    tasks: usize,
    shares: &[f64],
    oracle: bool,
) -> (Vec<FacilityRow>, String) {
    let mut rows = Vec::with_capacity(shares.len() * 2);
    for &share in shares {
        rows.push(run_facility_policy(
            "oblivious",
            FacilityPolicy::PerRack,
            share,
            racks,
            tasks,
            oracle,
        ));
        rows.push(run_facility_policy(
            "global",
            FacilityPolicy::GlobalRationed {
                floor_w: FACILITY_FLOOR_W,
                slot_w: FACILITY_SLOT_W,
            },
            share,
            racks,
            tasks,
            oracle,
        ));
    }
    let mut out = format!(
        "Facility sprint rationing — {racks} racks x {n} servers, {tasks} open-arrival \
         tasks, rotating diurnal peaks, shared CRAC rows\n",
        n = FACILITY_RACK_EDGE * FACILITY_RACK_EDGE,
    );
    let mut table = TextTable::new();
    table.row(&[
        &"cap W/rack",
        &"tier",
        &"mean ms",
        &"p95 ms",
        &"p99 ms",
        &"max ms",
        &"sprints",
        &"power sheds",
        &"peak inlet C",
    ]);
    let mut csv = Csv::new(
        "fig_facility",
        &[
            "cap_w_per_rack",
            "facility_cap_w",
            "tier",
            "racks",
            "tasks",
            "mean_latency_ms",
            "p95_latency_ms",
            "p99_latency_ms",
            "max_latency_ms",
            "makespan_ms",
            "admitted_sprints",
            "sheds",
            "power_sheds",
            "supply_aborts",
            "peak_inlet_c",
            "peak_junction_c",
            "epochs",
            "wall_s",
        ],
    );
    for r in &rows {
        let sprints: usize = r
            .report
            .rack_reports
            .iter()
            .map(|c| c.admitted_sprints)
            .sum();
        table.row(&[
            &format!("{:.0}", r.share_w),
            &r.label,
            &format!("{:.2}", r.report.mean_latency_s * 1e3),
            &format!("{:.2}", r.report.p95_latency_s * 1e3),
            &format!("{:.2}", r.report.p99_latency_s * 1e3),
            &format!("{:.2}", r.report.max_latency_s * 1e3),
            &sprints,
            &r.report.power_sheds,
            &format!("{:.1}", r.report.peak_inlet_c),
        ]);
        csv.row(&[
            &format!("{:.1}", r.share_w),
            &format!("{:.1}", r.share_w * r.report.racks as f64),
            &r.label,
            &r.report.racks,
            &r.report.completed,
            &format!("{:.4}", r.report.mean_latency_s * 1e3),
            &format!("{:.4}", r.report.p95_latency_s * 1e3),
            &format!("{:.4}", r.report.p99_latency_s * 1e3),
            &format!("{:.4}", r.report.max_latency_s * 1e3),
            &format!("{:.4}", r.report.makespan_s * 1e3),
            &sprints,
            &r.report.sheds,
            &r.report.power_sheds,
            &r.report.supply_aborts,
            &format!("{:.2}", r.report.peak_inlet_c),
            &format!("{:.2}", r.report.peak_junction_c),
            &r.report.epochs,
            &format!("{:.2}", r.wall_s),
        ]);
    }
    out.push_str(&table.render());
    // The headline claim, asserted so the figure cannot print a stale
    // narrative: wherever the cap actually bites (a share below the
    // nameplate), the global tier must beat the oblivious split on the
    // facility-wide p99.
    let nameplate_w = RackSupplyParams::rack(FACILITY_RACK_EDGE * FACILITY_RACK_EDGE).cap_w;
    let mut tightest: Option<(f64, f64, f64)> = None;
    for pair in rows.chunks(2) {
        let (obl, glob) = (&pair[0], &pair[1]);
        if obl.share_w < nameplate_w {
            assert!(
                glob.report.p99_latency_s < obl.report.p99_latency_s,
                "global rationing lost the p99 at {} W/rack: {:.5} s vs oblivious {:.5} s",
                obl.share_w,
                glob.report.p99_latency_s,
                obl.report.p99_latency_s
            );
            if tightest.is_none() {
                tightest = Some((
                    obl.share_w,
                    obl.report.p99_latency_s,
                    glob.report.p99_latency_s,
                ));
            }
        }
    }
    if let Some((share, obl_p99, glob_p99)) = tightest {
        out.push_str(&format!(
            "under the same {share:.0} W/rack facility budget the oblivious split strands\n\
             sprint headroom in idle racks while each peak starves: global rationing\n\
             follows the rotating peaks instead and cuts the facility p99 {:.1}x\n\
             ({:.2} ms vs {:.2} ms). at full nameplate the tiers converge — the gap is\n\
             the admission tier's, not the workload's.\n",
            obl_p99 / glob_p99,
            glob_p99 * 1e3,
            obl_p99 * 1e3,
        ));
    }
    out.push_str(&format!("wrote {}\n", csv.finish().display()));
    (rows, out)
}

/// The facility figure (`repro facility`): the full 16-rack, 102k-task
/// sweep, or a 4-rack reduced sweep under `--quick`. `oracle` re-runs
/// every point on the lockstep stepper and asserts digest equality.
pub fn fig_facility(quick: bool, oracle: bool) -> String {
    if quick {
        fig_facility_at(4, 800, &[25.0, 120.0], oracle).1
    } else {
        fig_facility_at(
            FACILITY_RACKS,
            FACILITY_TASKS,
            &FACILITY_CAP_SHARES_W,
            oracle,
        )
        .1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature of the sweep machinery: two racks, a tight share,
    /// both tiers drain, and the global tier's p99 is no worse. (The
    /// full-scale ordering is asserted inside `fig_facility` itself and
    /// exercised by the example-smoke CI job at reduced scale.) Runs
    /// with the oracle cross-check on, so the event-driven default is
    /// digest-pinned to the lockstep stepper on the study's own
    /// configuration.
    #[test]
    fn reduced_facility_sweep_runs_and_orders() {
        let tasks = 64;
        let obl = run_facility_policy("oblivious", FacilityPolicy::PerRack, 40.0, 2, tasks, true);
        let glob = run_facility_policy(
            "global",
            FacilityPolicy::GlobalRationed {
                floor_w: FACILITY_FLOOR_W,
                slot_w: FACILITY_SLOT_W,
            },
            40.0,
            2,
            tasks,
            true,
        );
        assert_eq!(obl.report.completed, tasks);
        assert_eq!(glob.report.completed, tasks);
        assert!(
            glob.report.p99_latency_s <= obl.report.p99_latency_s,
            "global {:.5} s vs oblivious {:.5} s",
            glob.report.p99_latency_s,
            obl.report.p99_latency_s
        );
    }
}
