//! Metric tables, the result line and the provenance block.
//!
//! The two tables below are the benchmark's metric contract; they must
//! match `BENCHMARK.json` at the repository root name for name and unit
//! for unit (a unit test checks this).

/// End-to-end metrics: printed by every untraced run.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tasks_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("step_p50_us", "us"),
    ("step_p999_us", "us"),
    ("sim_p99_ms", "ms"),
    ("sim_mj_per_task", "mJ"),
];

/// Per-layer metrics: printed by every traced run. A workload that does
/// not exercise a layer reports 0 for it. What each should move:
///
/// - `phone_bursts`: `thermal.*` (the `ThermalModel` shim around the
///   32x32 PCM grid) moves `tasks_per_s` and `step_p50_us`;
///   `core.step_self_s` (`Machine::run_window` plus the controller) a
///   small share of them; `powersource.*` nothing.
/// - `facility_diurnal`: `facility.build_s` and `workloads.generate_s`
///   move `setup_s`; `facility.run_1w_s`, `thermal.rack_replay_s` and
///   `archsim.replay_s` move `tasks_per_s`; `mem.growth_*` moves
///   `peak_rss_mb`.
/// - `sparse_fleet`: `cluster.build_s` and `mem.setup_*` move `setup_s`
///   and `peak_rss_mb`; the `cluster.*step*` metrics move
///   `step_p50_us`, `step_p999_us` and `tasks_per_s`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("core.step_calls", "count"),
    ("core.step_s", "s"),
    ("core.step_self_s", "s"),
    ("core.rest_calls", "count"),
    ("core.rest_s", "s"),
    ("core.supply_limited", "count"),
    ("core.hotspot_sheds", "count"),
    ("thermal.advance_calls", "count"),
    ("thermal.advance_s", "s"),
    ("thermal.share", "frac"),
    ("thermal.peak_melt_frac", "frac"),
    ("thermal.rack_replay_s", "s"),
    ("powersource.draw_calls", "count"),
    ("powersource.draw_s", "s"),
    ("powersource.draw_errors", "count"),
    ("archsim.sim_minst", "Minst"),
    ("archsim.minst_per_s", "Minst/s"),
    ("archsim.replay_s", "s"),
    ("workloads.load_s", "s"),
    ("workloads.generate_s", "s"),
    ("facility.build_s", "s"),
    ("facility.run_s", "s"),
    ("facility.epochs", "count"),
    ("facility.epoch_us", "us"),
    ("facility.run_1w_s", "s"),
    ("facility.parallel_speedup", "x"),
    ("facility.settle_overhead_s", "s"),
    ("cluster.rack_replay_s", "s"),
    ("cluster.admitted_sprints", "count"),
    ("cluster.denied_sprints", "count"),
    ("cluster.sheds", "count"),
    ("cluster.power_sheds", "count"),
    ("cluster.supply_aborts", "count"),
    ("cluster.build_s", "s"),
    ("cluster.step_calls", "count"),
    ("cluster.quiet_step_p50_us", "us"),
    ("cluster.sched_windows", "count"),
    ("cluster.sched_step_p50_us", "us"),
    ("cluster.sched_step_s", "s"),
    ("cluster.lockstep_run_s", "s"),
    ("cluster.lockstep_step_p50_us", "us"),
    ("cluster.event_speedup", "x"),
    ("mem.setup_mb", "MB"),
    ("mem.setup_kb_per_node", "kB"),
    ("mem.growth_mb", "MB"),
    ("mem.growth_kb_per_task", "kB"),
    ("trace.tasks_per_s", "1/s"),
    ("trace.overhead", "frac"),
];

/// Seed used when `--seed` is not given.
pub const DEFAULT_SEED: u64 = 2012;
/// Seed no workload was tuned on: re-check a claim here before
/// trusting it.
pub const HELD_OUT_SEED: u64 = 90_125;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Tasks attempted (bursts for the phone, arrivals for the racks),
    /// counting every repeat of the input set.
    pub attempted: u64,
    /// Attempted tasks that did not complete or whose run failed a check.
    pub failed: u64,
    /// Named whole-run checks (determinism, equivalence).
    pub checks: Vec<(String, bool)>,
    /// Measured metrics, by name from [`END_TO_END`] or [`PER_LAYER`].
    pub metrics: Vec<(&'static str, f64)>,
    /// Human-readable lines printed ahead of the result.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Records a metric value.
    pub fn metric(&mut self, name: &'static str, value: f64) {
        self.metrics.push((name, value));
    }

    /// Records a named check.
    pub fn check(&mut self, name: impl Into<String>, ok: bool) {
        self.checks.push((name.into(), ok));
    }

    /// Records a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }
}

/// True for a name made of letters, digits, `_`, `.` and `-`, starting
/// with a letter or digit, at most 64 characters.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    name.len() <= 64
        && chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Resolves the metrics to print: every entry of `table`, in table
/// order, taking the measured value or 0 where the workload did not
/// measure it (`fill_missing`), and dropping anything not in the table.
/// Returns the rows and the names that were missing.
pub fn select(
    table: &[(&'static str, &'static str)],
    measured: &[(&'static str, f64)],
    fill_missing: bool,
) -> (Vec<(&'static str, f64, &'static str)>, Vec<&'static str>) {
    let mut rows = Vec::with_capacity(table.len());
    let mut missing = Vec::new();
    for &(name, unit) in table {
        match measured.iter().rev().find(|(n, _)| *n == name) {
            Some(&(_, v)) => rows.push((name, v, unit)),
            None => {
                missing.push(name);
                if fill_missing {
                    rows.push((name, 0.0, unit));
                }
            }
        }
    }
    (rows, missing)
}

/// The final result line: exactly `correct`, `attempted`, `failed` and
/// `metrics`. Values print with every digit (`f64`'s shortest exact
/// form); a non-finite value cannot be JSON, so it prints as 0 and the
/// caller marks the run incorrect.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    rows: &[(&str, f64, &str)],
) -> String {
    let metrics: Vec<String> = rows
        .iter()
        .map(|(name, value, unit)| {
            let v = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

/// The git revision of the checkout, read from `.git` without running
/// git (`unknown` outside a repository).
pub fn git_revision(root: &std::path::Path) -> String {
    let read = |p: std::path::PathBuf| std::fs::read_to_string(p).ok();
    let git = root.join(".git");
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(git.join(reference)) {
        return rev.trim().to_string();
    }
    read(git.join("packed-refs"))
        .and_then(|packed| {
            packed.lines().find_map(|line| {
                let (rev, name) = line.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// One-line provenance record printed with every result.
pub fn provenance(workload: &str, seed: u64, workers: usize, trace: bool) -> String {
    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    format!(
        "{{\"workload\": \"{workload}\", \"seed\": {seed}, \"default_seed\": {DEFAULT_SEED}, \
         \"held_out_seed\": {HELD_OUT_SEED}, \"trace\": {trace}, \
         \"available_parallelism\": {cpus}, \"workers\": {workers}, \
         \"git_revision\": \"{}\", \"rustc\": \"{}\"}}",
        git_revision(&root),
        env!("SPRINTBENCH_RUSTC"),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metric_names_use_the_allowed_alphabet() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "bad metric name {name}");
            assert!(
                unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "bad unit {unit}"
            );
        }
        assert!(!valid_name("_leading"));
        assert!(!valid_name("has space"));
        assert!(!valid_name("semi;colon"));
        assert!(!valid_name(""));
        assert!(!valid_name(&"a".repeat(65)));
        assert!(valid_name("cluster.quiet_step_p50_us"));
    }

    #[test]
    fn metric_names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn tables_match_the_benchmark_file() {
        let spec = include_str!("../../BENCHMARK.json");
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(spec.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let workloads = 3;
        assert_eq!(
            spec.matches("\"name\":").count(),
            workloads + END_TO_END.len() + PER_LAYER.len(),
            "BENCHMARK.json lists a metric the driver does not print"
        );
    }

    #[test]
    fn select_fills_and_orders() {
        let table = &[("a", "s"), ("b", "count")];
        let (rows, missing) = select(table, &[("b", 2.0), ("zzz", 9.0)], true);
        assert_eq!(rows, vec![("a", 0.0, "s"), ("b", 2.0, "count")]);
        assert_eq!(missing, vec!["a"]);
        let (rows, _) = select(table, &[("b", 2.0)], false);
        assert_eq!(rows, vec![("b", 2.0, "count")]);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_json(true, 10, 0, &[("setup_s", 0.125, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.125, \"unit\": \"s\"}}}"
        );
        // Whole numbers keep a decimal point; non-finite values print 0.
        let line = result_json(false, 1, 1, &[("x", 3.0, "s"), ("y", f64::NAN, "s")]);
        assert!(line.contains("\"x\": {\"value\": 3.0,"));
        assert!(line.contains("\"y\": {\"value\": 0.0,"));
    }
}
