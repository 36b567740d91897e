//! Seeded input sets and the repetition loop every untraced run shares.
//!
//! A run executes its workload's distinct input sets in order (one
//! *pass*), then cycles through them again until `--seconds` of host
//! time have passed. Simulated statistics come from the first pass, so
//! they are a fixed function of the seed; host times come from every
//! repetition; each repeat must reproduce its set's first digest.

use std::time::Instant;

use crate::report::Outcome;
use crate::{mem, Args};

/// The seed of input set `set` of a run: a SplitMix64 step over the run
/// seed and the set index, so neighbouring seeds share nothing.
pub fn set_seed(seed: u64, set: u32) -> u64 {
    let mut z = seed ^ (u64::from(set) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Seeded Fisher-Yates shuffle off a SplitMix64 stream.
pub fn shuffle<T>(items: &mut [T], seed: u64) {
    let mut state = seed;
    for i in (1..items.len()).rev() {
        state = set_seed(state, i as u32);
        items.swap(i, (state % (i as u64 + 1)) as usize);
    }
}

/// Times `n` set-ups (`build(i)` for `i` in `0..n`), dropping what each
/// builds outside the timing. `setup_s` is a median, so cheap set-ups
/// are sampled more often than the runs need.
pub fn setup_samples<T>(n: u32, mut build: impl FnMut(u32) -> T) -> Vec<f64> {
    (0..n)
        .map(|i| {
            let t = Instant::now();
            let built = std::hint::black_box(build(i));
            let secs = t.elapsed().as_secs_f64();
            drop(built);
            secs
        })
        .collect()
}

/// What one run of one input set hands back to the loop.
#[derive(Debug)]
pub struct SetRun<R> {
    /// Host seconds from seed to first step.
    pub setup_s: f64,
    /// Host seconds of the run itself.
    pub run_s: f64,
    /// Tasks attempted.
    pub tasks: u64,
    /// Tasks failed (not completed, or the run failed a check).
    pub failed: u64,
    /// Report digest of the run.
    pub digest: u64,
    /// Workload-specific results, kept for the first pass.
    pub detail: R,
}

/// What the loop measured.
#[derive(Debug)]
pub struct Repeated<R> {
    /// The first pass's details, one per input set.
    pub first_pass: Vec<R>,
    /// Set-up times of every repetition.
    pub setups: Vec<f64>,
    /// Per input set, the fastest of its repetitions, seconds.
    pub set_run_s: Vec<f64>,
    /// Tasks per second: one pass's completed tasks over the summed
    /// per-set fastest run time. Interference on a shared host only ever
    /// slows a repetition down, so the fastest is the least disturbed.
    pub tasks_per_s: f64,
    /// `VmHWM` after the first set: repeating sets in one process lets
    /// the allocator's per-thread arenas grow, which a single study
    /// would never see.
    pub peak_rss_mb: f64,
}

/// Runs `run_set` over `sets` input sets as the module docs describe,
/// recording attempts, failures, digests and the repeat check in `o`.
pub fn repeat_sets<R>(
    o: &mut Outcome,
    args: &Args,
    sets: usize,
    mut run_set: impl FnMut(u32) -> SetRun<R>,
) -> Repeated<R> {
    let start = Instant::now();
    let mut first_pass = Vec::with_capacity(sets);
    let mut setups = Vec::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); sets];
    let mut digests = Vec::with_capacity(sets);
    let (mut pass_tasks, mut peak_rss_mb) = (0u64, f64::NAN);
    let mut repeats_match = true;
    let mut rep = 0;
    loop {
        let set = rep % sets;
        let r = run_set(set as u32);
        setups.push(r.setup_s);
        times[set].push(r.run_s);
        o.attempted += r.tasks;
        o.failed += r.failed;
        if rep == 0 {
            peak_rss_mb = mem::peak_rss_mb();
        }
        if rep < sets {
            o.note(format!("set {set}: digest {:016x}", r.digest));
            digests.push(r.digest);
            pass_tasks += r.tasks - r.failed.min(r.tasks);
            first_pass.push(r.detail);
        } else {
            repeats_match &= r.digest == digests[set];
        }
        rep += 1;
        if rep >= sets && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }
    o.check(
        format!("every repeat reproduces its set digest ({rep} runs)"),
        repeats_match,
    );
    let set_run_s: Vec<f64> = times
        .iter()
        .map(|reps| reps.iter().copied().fold(f64::INFINITY, f64::min))
        .collect();
    Repeated {
        first_pass,
        setups,
        tasks_per_s: pass_tasks as f64 / set_run_s.iter().sum::<f64>(),
        set_run_s,
        peak_rss_mb,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(seconds: f64) -> Args {
        Args {
            workload: "test".to_string(),
            seed: 1,
            seconds,
            trace: false,
        }
    }

    #[test]
    fn set_seeds_differ() {
        assert_ne!(set_seed(1, 0), set_seed(1, 1));
        assert_ne!(set_seed(1, 0), set_seed(2, 0));
        assert_eq!(set_seed(5, 3), set_seed(5, 3));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..20).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        assert_ne!(a, (0..20).collect::<Vec<_>>());
        a.sort_unstable();
        assert_eq!(a, (0..20).collect::<Vec<_>>());
    }

    #[test]
    fn every_set_runs_once_even_with_no_time_left() {
        let mut o = Outcome::default();
        let mut seen = Vec::new();
        let r = repeat_sets(&mut o, &args(1e-9), 3, |set| {
            seen.push(set);
            SetRun {
                setup_s: 0.0,
                run_s: 1.0,
                tasks: 10,
                failed: 0,
                digest: u64::from(set),
                detail: set,
            }
        });
        assert_eq!(seen, vec![0, 1, 2]);
        assert_eq!(r.first_pass, vec![0, 1, 2]);
        assert_eq!(o.attempted, 30);
        assert_eq!(r.tasks_per_s, 10.0);
        assert!(o.checks.iter().all(|(_, ok)| *ok));
    }

    #[test]
    fn a_changed_repeat_fails_the_check_and_slow_repeats_are_ignored() {
        let mut o = Outcome::default();
        let mut calls = 0u32;
        let r = repeat_sets(&mut o, &args(0.5), 2, |set| {
            calls += 1;
            // The third run repeats set 0: it outlasts the time budget,
            // takes 9 s instead of 1 s and reports another digest.
            let repeat = calls == 3;
            if repeat {
                std::thread::sleep(std::time::Duration::from_millis(600));
            }
            SetRun {
                setup_s: 0.0,
                run_s: if repeat { 9.0 } else { f64::from(set) + 1.0 },
                tasks: 6,
                failed: 0,
                digest: if repeat { 99 } else { u64::from(set) },
                detail: (),
            }
        });
        assert_eq!(calls, 3);
        // Fastest repetitions 1 s (of 1 s and 9 s) and 2 s: 12 tasks in 3 s.
        assert_eq!(r.tasks_per_s, 4.0);
        assert_eq!(r.set_run_s, vec![1.0, 2.0]);
        assert_eq!(o.attempted, 18);
        assert!(o.checks.iter().any(|(_, ok)| !*ok));
    }
}
