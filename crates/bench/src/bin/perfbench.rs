//! `perfbench` — the grid-solver performance harness.
//!
//! Times the explicit and ADI solvers through one sprint-and-rest cycle
//! across grid resolutions, plus five scheduler-scale points — the
//! thermal `rack_case`, the power-aware scheduler loop
//! (`rack_power_case`: shared-supply settlement, regulator math and
//! joint thermal+power admission on the 16-node rack), the facility
//! settlement loop (`facility_case`: sharded racks, row CRAC coupling
//! and cross-rack cap rationing), the event-driven cluster core
//! (`event_core_case`: a 4096-server sparse-arrival drain stepped by
//! both the lockstep golden oracle and the event core, digests
//! asserted byte-identical) and the heterogeneous duplication point
//! (`hetero_rack_case`: the degraded big/little rack under a crash
//! plan, competitive duplicates with loser cancellation vs bounded
//! retry-in-place) — prints the comparison table, and writes
//! `BENCH_grid.json` at the repository root (override the location
//! with `SPRINT_BENCH_OUT`).
//!
//! Usage:
//! ```text
//! perfbench [--quick] [--full] [--check]
//! ```
//!
//! * `--quick` — the CI pair (8x8 and 32x32) only.
//! * `--full`  — adds the 64x64 rack-scale preview (explicit there is
//!   minutes of wall-clock; that cost is the figure's point).
//! * `--check` — perf-smoke gate: exit non-zero unless the 32x32 case
//!   shows ADI at least 8x faster than explicit at matched accuracy
//!   (max junction deviation below 0.1 K), both scheduler points clear
//!   the end-to-end tasks/sec floor with zero electrical aborts and
//!   all-zero fault counters (no fault plan is installed, so the
//!   always-on fault ports must stay perfectly inert), the event core
//!   beats the lockstep oracle by at least 5x (the median ratio of
//!   three alternating pairs) while reproducing its report digest byte
//!   for byte on every run, and on the
//!   degraded heterogeneous rack the duplicate+cancel p99 beats the
//!   retry-in-place p99 (duplication must stay a latency hedge, not a
//!   throughput tax).

use sprint_bench::figs_perf;

/// The `--check` gate: minimum acceptable 32x32 speedup. With the
/// batched SoA Thomas sweeps the committed baseline sits well above
/// 10x; 8x leaves headroom for noisy CI runners while still catching a
/// regression that re-couples the ADI sub-step to the cell time
/// constant or drops the batched solve back to per-line gathers.
const CHECK_MIN_SPEEDUP: f64 = 8.0;
/// The `--check` gate: matched-accuracy bar, Kelvin.
const CHECK_MAX_DEV_K: f64 = 0.1;
/// The `--check` gate: minimum end-to-end tasks/sec for the rack-power
/// and facility scheduler points. The committed baseline clears this by
/// roughly an order of magnitude; the floor catches a scheduler-loop
/// regression (an accidental O(nodes^2) pass, a lost factorization
/// cache) without flaking on slow CI runners.
const CHECK_MIN_TASKS_PER_S: f64 = 3.0;
/// The `--check` gate: minimum event-core speedup over the lockstep
/// oracle on the 4096-server sparse-arrival drain, judged on the median
/// ratio of three alternating pairs so one noisy run cannot fail it.
/// The committed baseline sits above 10x; 5x leaves noisy-runner
/// headroom while still catching a regression that reintroduces
/// per-idle-node work into the event core's window step. Byte-for-byte
/// digest equality with the oracle is asserted inside the measurement
/// on every run — a divergent event core aborts the bench before any
/// number is printed.
const CHECK_MIN_EVENT_SPEEDUP: f64 = 5.0;

fn main() {
    let mut quick = false;
    let mut full = false;
    let mut check = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--quick" => quick = true,
            "--full" => full = true,
            "--check" => check = true,
            other => {
                eprintln!("unknown flag {other}; usage: perfbench [--quick] [--full] [--check]");
                std::process::exit(2);
            }
        }
    }
    let run = figs_perf::fig_perf_cases(quick, full);
    print!("{}", run.report);
    if check {
        // Judge this run's in-memory measurement, never whatever
        // BENCH_grid.json happened to be on disk (a failed write must
        // not let the gate pass on a stale committed baseline).
        let case32 = run
            .cases
            .iter()
            .find(|c| c.n == 32)
            .expect("--check needs the 32x32 case in the sweep");
        println!(
            "perf-smoke gate: 32x32 speedup {:.1}x (need >= {CHECK_MIN_SPEEDUP}x), \
             max dev {:.4} K (need < {CHECK_MAX_DEV_K} K)",
            case32.speedup, case32.max_dev_k
        );
        println!(
            "perf-smoke gate: rack power {:.1} tasks/s, facility {:.1} tasks/s \
             (need >= {CHECK_MIN_TASKS_PER_S}), {} + {} electrical aborts (need 0)",
            run.rack_power.tasks_per_s,
            run.facility.tasks_per_s,
            run.rack_power.supply_aborts,
            run.facility.supply_aborts,
        );
        println!(
            "perf-smoke gate: fault counters on the fault-free points: \
             {} + {} events, {} + {} failed tasks (need all 0 — the always-on \
             fault ports must stay inert without a plan)",
            run.rack_power.fault_events,
            run.facility.fault_events,
            run.rack_power.failed_tasks,
            run.facility.failed_tasks,
        );
        println!(
            "perf-smoke gate: event core {:.1}x over the lockstep oracle, median \
             of {} pairs (need >= {CHECK_MIN_EVENT_SPEEDUP}x), digest {:016x} \
             byte-identical",
            run.event_core.speedup,
            figs_perf::EVENT_PAIRS,
            run.event_core.digest,
        );
        println!(
            "perf-smoke gate: hetero rack dup+cancel p99 {:.2} ms vs retry p99 \
             {:.2} ms (need dup < retry), {} losers cancelled",
            run.hetero.dup_p99_ms, run.hetero.retry_p99_ms, run.hetero.cancelled_copies,
        );
        let solver_ok = case32.speedup >= CHECK_MIN_SPEEDUP && case32.max_dev_k < CHECK_MAX_DEV_K;
        let scheduler_ok = run.rack_power.tasks_per_s >= CHECK_MIN_TASKS_PER_S
            && run.facility.tasks_per_s >= CHECK_MIN_TASKS_PER_S
            && run.rack_power.supply_aborts == 0
            && run.facility.supply_aborts == 0;
        let faults_ok = run.rack_power.fault_events == 0
            && run.rack_power.failed_tasks == 0
            && run.facility.fault_events == 0
            && run.facility.failed_tasks == 0;
        let event_ok = run.event_core.speedup >= CHECK_MIN_EVENT_SPEEDUP;
        let hetero_ok = run.hetero.dup_p99_ms < run.hetero.retry_p99_ms;
        if !solver_ok || !scheduler_ok || !faults_ok || !event_ok || !hetero_ok {
            eprintln!("perf-smoke gate FAILED");
            std::process::exit(1);
        }
        println!("perf-smoke gate passed");
    }
}
