//! Fault-degradation figure: latency degradation vs casualties under
//! seeded crash/sensor/supply faults, degradation-aware vs oblivious
//! (`repro faults`).
//!
//! The facility is the cap-sweep study's (16 racks of 16 servers,
//! globally rationed feed, rotating diurnal peaks) with one change:
//! every rack runs under a seeded `FaultPlan` — sensors stick, bias and
//! drop out; regulators collapse, brown out and die; nodes crash, and a
//! node that crashes mid-task is quarantined for good. The sweep
//! crosses fault intensity (none / light / heavy) with the scheduler's
//! response mode:
//!
//! * **aware** (`FaultResponse::Aware`) — a faulted sensor reads as
//!   already-at-the-limit (conservative treat-as-hot failsafe), crash
//!   victims are re-enqueued under a bounded retry budget, quarantined
//!   nodes cede their nameplate share back to the rack pool and the
//!   facility tier re-deals the feed around degraded racks;
//! * **oblivious** — the scheduler believes whatever the faulted
//!   telemetry says and keeps booking the full nameplate of dead iron
//!   (crash re-enqueue still works: losing a task silently is not a
//!   policy choice, it is a bug — conservation holds in both modes).
//!
//! The figures of merit are the facility p99 and the casualty count
//! (tasks failed after retries plus tasks still outstanding at the
//! time limit). Every row asserts task conservation: arrivals are
//! never lost, only finished, failed, or shed at the horizon.

use std::time::Instant;

use sprint_core::fault::{FaultRates, FaultResponse};
use sprint_facility::prelude::*;

use crate::figs_facility::{
    facility_threads, study_facility_with, FACILITY_FLOOR_W, FACILITY_RACKS, FACILITY_SLOT_W,
};
use crate::output::{Csv, TextTable};

/// Per-rack share of the facility feed for the fault study, watts —
/// tight enough that the rationing tier is live, so re-dealing a
/// degraded rack's ceded share is observable.
pub const FAULTS_SHARE_W: f64 = 40.0;
/// Tasks per full-scale run (the quick sweep trims racks and tasks).
pub const FAULTS_TASKS: usize = 3_200;
/// Time limit, seconds: quarantine can strand part of a queue, and a
/// stranded rack must hit this wall rather than run the full cap-sweep
/// horizon.
pub const FAULTS_MAX_TIME_S: f64 = 10.0;
/// The `--quick` time limit, seconds — stranded racks simulate to the
/// horizon whatever their size, so the quick matrix must shorten the
/// horizon itself, not just the task count. Still an order of
/// magnitude past the fault-free quick drain.
pub const FAULTS_QUICK_MAX_TIME_S: f64 = 2.0;

/// The light fault intensity, in the study's 20 µs sampling windows:
/// a handful of onsets per node over the ~5k-window drain.
pub fn light_rates() -> FaultRates {
    FaultRates {
        mean_sensor_gap_windows: 3_000,
        sensor_hold_windows: 1_500,
        mean_crash_gap_windows: 8_000,
        crash_hold_windows: 2_000,
        mean_supply_gap_windows: 5_000,
        supply_hold_windows: 1_500,
    }
}

/// The heavy intensity: every gap quartered — most nodes see sensor
/// faults, and crashes claim a visible fraction of each rack.
pub fn heavy_rates() -> FaultRates {
    FaultRates {
        mean_sensor_gap_windows: 750,
        sensor_hold_windows: 1_500,
        mean_crash_gap_windows: 2_000,
        crash_hold_windows: 2_000,
        mean_supply_gap_windows: 1_250,
        supply_hold_windows: 1_500,
    }
}

/// One (intensity, response) point of the sweep.
pub struct FaultRow {
    /// Intensity label.
    pub level: &'static str,
    /// Response label.
    pub response: &'static str,
    /// Facility report.
    pub report: FacilityReport,
    /// Wall-clock for the run, seconds.
    pub wall_s: f64,
}

impl FaultRow {
    /// Tasks the run lost to faults: failed after exhausting retries,
    /// plus shed at the time limit (stranded by quarantine).
    pub fn casualties(&self) -> usize {
        self.report.failed_tasks + self.report.outstanding_tasks
    }
}

/// Runs one sweep point: the cap-sweep facility under `rates`, on the
/// event-driven core (quarantined racks idle at event cost, not
/// lockstep cost). Asserts task conservation before reporting.
pub fn run_fault_point(
    level: &'static str,
    rates: Option<FaultRates>,
    response: FaultResponse,
    racks: usize,
    tasks: usize,
    max_time_s: f64,
) -> FaultRow {
    let facility = study_facility_with(
        FacilityPolicy::GlobalRationed {
            floor_w: FACILITY_FLOOR_W,
            slot_w: FACILITY_SLOT_W,
        },
        FAULTS_SHARE_W,
        racks,
        tasks,
        |builder| {
            let builder = builder.max_time_s(max_time_s);
            match rates {
                Some(rates) => builder.fault_rates(rates).fault_response(response),
                None => builder,
            }
        },
    );
    let start = Instant::now();
    let report = facility.run(facility_threads());
    let wall_s = start.elapsed().as_secs_f64();
    assert!(
        report.task_conservation_holds(),
        "{level}/{response:?}: a task was lost: {} completed + {} failed + {} \
         outstanding != {}",
        report.completed,
        report.failed_tasks,
        report.outstanding_tasks,
        report.total_tasks,
    );
    if rates.is_none() {
        assert_eq!(
            report.fault_events + report.node_crashes + report.sensor_faults,
            0,
            "a fault-free run injected faults"
        );
        assert!(report.all_drained, "the fault-free baseline must drain");
    }
    FaultRow {
        level,
        response: match response {
            FaultResponse::Aware => "aware",
            FaultResponse::Oblivious => "oblivious",
        },
        report,
        wall_s,
    }
}

/// The fault sweep at explicit scale: none/light/heavy crossed with
/// aware/oblivious (the fault-free baseline runs once — without a
/// plan the response mode is dead code).
pub fn fig_faults_at(racks: usize, tasks: usize, max_time_s: f64) -> (Vec<FaultRow>, String) {
    let mut rows = vec![run_fault_point(
        "none",
        None,
        FaultResponse::Aware,
        racks,
        tasks,
        max_time_s,
    )];
    for (level, rates) in [("light", light_rates()), ("heavy", heavy_rates())] {
        for response in [FaultResponse::Aware, FaultResponse::Oblivious] {
            rows.push(run_fault_point(
                level,
                Some(rates),
                response,
                racks,
                tasks,
                max_time_s,
            ));
        }
    }
    let mut out = format!(
        "Fault injection and graceful degradation — {racks} racks, {tasks} tasks, \
         globally rationed {:.0} W/rack feed\n",
        FAULTS_SHARE_W,
    );
    let mut table = TextTable::new();
    table.row(&[
        &"faults",
        &"response",
        &"p99 ms",
        &"mean ms",
        &"done",
        &"failed",
        &"shed",
        &"crashes",
        &"quarantined",
        &"failsafes",
        &"peak C",
    ]);
    let mut csv = Csv::new(
        "fig_faults",
        &[
            "level",
            "response",
            "racks",
            "tasks",
            "completed",
            "failed_tasks",
            "outstanding_tasks",
            "casualties",
            "mean_latency_ms",
            "p95_latency_ms",
            "p99_latency_ms",
            "fault_events",
            "sensor_faults",
            "supply_faults",
            "node_crashes",
            "quarantined_nodes",
            "failsafe_preemptions",
            "requeues",
            "peak_junction_c",
            "all_drained",
            "wall_s",
        ],
    );
    for r in &rows {
        table.row(&[
            &r.level,
            &r.response,
            &format!("{:.2}", r.report.p99_latency_s * 1e3),
            &format!("{:.2}", r.report.mean_latency_s * 1e3),
            &r.report.completed,
            &r.report.failed_tasks,
            &r.report.outstanding_tasks,
            &r.report.node_crashes,
            &r.report.quarantined_nodes,
            &r.report.failsafe_preemptions,
            &format!("{:.1}", r.report.peak_junction_c),
        ]);
        csv.row(&[
            &r.level,
            &r.response,
            &r.report.racks,
            &r.report.total_tasks,
            &r.report.completed,
            &r.report.failed_tasks,
            &r.report.outstanding_tasks,
            &r.casualties(),
            &format!("{:.4}", r.report.mean_latency_s * 1e3),
            &format!("{:.4}", r.report.p95_latency_s * 1e3),
            &format!("{:.4}", r.report.p99_latency_s * 1e3),
            &r.report.fault_events,
            &r.report.sensor_faults,
            &r.report.supply_faults,
            &r.report.node_crashes,
            &r.report.quarantined_nodes,
            &r.report.failsafe_preemptions,
            &r.report.requeues,
            &format!("{:.2}", r.report.peak_junction_c),
            &r.report.all_drained,
            &format!("{:.2}", r.wall_s),
        ]);
    }
    out.push_str(&table.render());
    // The degradation narrative, from this run's own numbers: what the
    // heavy-fault regime costs in latency and casualties, and what the
    // aware response buys back relative to oblivious.
    let baseline = &rows[0];
    let heavy_aware = rows
        .iter()
        .find(|r| r.level == "heavy" && r.response == "aware")
        .expect("sweep always runs heavy/aware");
    let heavy_obl = rows
        .iter()
        .find(|r| r.level == "heavy" && r.response == "oblivious")
        .expect("sweep always runs heavy/oblivious");
    out.push_str(&format!(
        "heavy faults degrade the fault-free p99 ({:.2} ms) to {:.2} ms aware vs \
         {:.2} ms oblivious, at {} vs {} casualties ({} tasks); every arrival is \
         accounted for — finished, failed after retries, or shed at the horizon —\n\
         in every cell of the matrix.\n",
        baseline.report.p99_latency_s * 1e3,
        heavy_aware.report.p99_latency_s * 1e3,
        heavy_obl.report.p99_latency_s * 1e3,
        heavy_aware.casualties(),
        heavy_obl.casualties(),
        heavy_aware.report.total_tasks,
    ));
    out.push_str(&format!("wrote {}\n", csv.finish().display()));
    (rows, out)
}

/// The fault figure (`repro faults`): the 16-rack matrix, or a 4-rack
/// reduced matrix under `--quick`.
pub fn fig_faults(quick: bool) -> String {
    if quick {
        fig_faults_at(4, 400, FAULTS_QUICK_MAX_TIME_S).1
    } else {
        fig_faults_at(FACILITY_RACKS, FAULTS_TASKS, FAULTS_MAX_TIME_S).1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A miniature of the matrix: faults bite, conservation holds, and
    /// the fault-free baseline stays all-zero on every fault counter.
    #[test]
    fn reduced_fault_matrix_conserves_tasks() {
        let clean = run_fault_point("none", None, FaultResponse::Aware, 2, 32, 2.0);
        assert_eq!(clean.casualties(), 0);
        assert_eq!(clean.report.completed, 32);

        let faulted = run_fault_point(
            "heavy",
            Some(heavy_rates()),
            FaultResponse::Aware,
            2,
            32,
            2.0,
        );
        assert!(faulted.report.fault_events > 0, "the plan never fired");
        assert!(faulted.report.task_conservation_holds());
    }
}
