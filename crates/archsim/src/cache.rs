//! Private L1 caches with MESI line states.
//!
//! The L1 is a set-associative, LRU, write-back cache. Tags store full line
//! numbers; a line's coherence state lives with it. The directory (in
//! [`crate::llc`]) drives invalidations and downgrades by calling directly
//! into the owning core's L1.

use serde::{Deserialize, Serialize};

use crate::config::CacheConfig;

/// MESI state of an L1 line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LineState {
    /// Invalid (way empty).
    Invalid,
    /// Shared, clean, possibly in other caches.
    Shared,
    /// Exclusive, clean, only copy.
    Exclusive,
    /// Modified, dirty, only copy.
    Modified,
}

/// A victim line evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Line number of the victim.
    pub line: u64,
    /// Its state at eviction (Modified victims need a writeback).
    pub state: LineState,
}

/// A private set-associative L1 cache model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct L1Cache {
    sets: usize,
    ways: usize,
    set_mask: u64,
    tags: Vec<u64>,
    states: Vec<LineState>,
    /// Per-way last-use stamps for LRU (monotone counter).
    stamps: Vec<u64>,
    tick: u64,
}

impl L1Cache {
    /// Builds an empty cache with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.sets();
        Self {
            sets,
            ways: cfg.ways,
            set_mask: sets as u64 - 1,
            // Tags are only read where the way's state is valid, so
            // their initial value is free: zero lets the allocation stay
            // untouched until a line is inserted.
            tags: vec![0; sets * cfg.ways],
            states: vec![LineState::Invalid; sets * cfg.ways],
            stamps: vec![0; sets * cfg.ways],
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    #[inline]
    fn slot(&self, set: usize, way: usize) -> usize {
        set * self.ways + way
    }

    /// Looks up a line, updating LRU on hit. Returns its state if present.
    pub fn lookup(&mut self, line: u64) -> Option<LineState> {
        let set = self.set_of(line);
        for way in 0..self.ways {
            let s = self.slot(set, way);
            if self.tags[s] == line && self.states[s] != LineState::Invalid {
                self.tick += 1;
                self.stamps[s] = self.tick;
                return Some(self.states[s]);
            }
        }
        None
    }

    /// Returns the state without touching LRU (for directory probes).
    pub fn probe(&self, line: u64) -> Option<LineState> {
        let set = self.set_of(line);
        for way in 0..self.ways {
            let s = self.slot(set, way);
            if self.tags[s] == line && self.states[s] != LineState::Invalid {
                return Some(self.states[s]);
            }
        }
        None
    }

    /// Sets the state of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        let set = self.set_of(line);
        for way in 0..self.ways {
            let s = self.slot(set, way);
            if self.tags[s] == line && self.states[s] != LineState::Invalid {
                self.states[s] = state;
                return;
            }
        }
        panic!("set_state on non-resident line {line:#x}");
    }

    /// Inserts a line (after a miss), evicting the LRU way if necessary.
    /// Returns the victim, if one was displaced.
    pub fn insert(&mut self, line: u64, state: LineState) -> Option<Evicted> {
        debug_assert!(state != LineState::Invalid, "cannot insert invalid line");
        let set = self.set_of(line);
        // Prefer an invalid way, else the least recently used.
        let mut victim_way = 0;
        let mut victim_stamp = u64::MAX;
        for way in 0..self.ways {
            let s = self.slot(set, way);
            if self.states[s] == LineState::Invalid {
                victim_way = way;
                break;
            }
            if self.stamps[s] < victim_stamp {
                victim_stamp = self.stamps[s];
                victim_way = way;
            }
        }
        let s = self.slot(set, victim_way);
        let evicted = if self.states[s] != LineState::Invalid {
            Some(Evicted {
                line: self.tags[s],
                state: self.states[s],
            })
        } else {
            None
        };
        self.tick += 1;
        self.tags[s] = line;
        self.states[s] = state;
        self.stamps[s] = self.tick;
        evicted
    }

    /// Invalidates a line (directory-initiated), returning its prior state
    /// if it was resident.
    pub fn invalidate(&mut self, line: u64) -> Option<LineState> {
        let set = self.set_of(line);
        for way in 0..self.ways {
            let s = self.slot(set, way);
            if self.tags[s] == line && self.states[s] != LineState::Invalid {
                let prior = self.states[s];
                self.states[s] = LineState::Invalid;
                return Some(prior);
            }
        }
        None
    }

    /// Downgrades an M/E line to Shared (directory-initiated on a remote
    /// read). Returns true if the line was dirty (needed a writeback).
    pub fn downgrade_to_shared(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        for way in 0..self.ways {
            let s = self.slot(set, way);
            if self.tags[s] == line && self.states[s] != LineState::Invalid {
                let dirty = self.states[s] == LineState::Modified;
                self.states[s] = LineState::Shared;
                return dirty;
            }
        }
        false
    }

    /// Number of resident lines (diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s != LineState::Invalid)
            .count()
    }

    /// Lists all resident lines with their states (used to flush a core's
    /// L1 when it is powered down).
    pub fn resident_line_list(&self) -> Vec<(u64, LineState)> {
        let mut out = Vec::new();
        for set in 0..self.sets {
            for way in 0..self.ways {
                let s = self.slot(set, way);
                if self.states[s] != LineState::Invalid {
                    out.push((self.tags[s], self.states[s]));
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cache() -> L1Cache {
        // 2 sets x 2 ways x 64 B = 256 B.
        L1Cache::new(&CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 0,
        })
    }

    #[test]
    fn miss_then_hit() {
        let mut c = small_cache();
        assert_eq!(c.lookup(10), None);
        c.insert(10, LineState::Exclusive);
        assert_eq!(c.lookup(10), Some(LineState::Exclusive));
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small_cache();
        // Lines 0, 2, 4 map to set 0 (even line numbers with 2 sets).
        c.insert(0, LineState::Shared);
        c.insert(2, LineState::Shared);
        let _ = c.lookup(0); // make line 2 the LRU
        let ev = c.insert(4, LineState::Shared).expect("must evict");
        assert_eq!(ev.line, 2);
        assert_eq!(c.lookup(0), Some(LineState::Shared));
        assert_eq!(c.lookup(2), None);
    }

    #[test]
    fn modified_victim_reported() {
        let mut c = small_cache();
        c.insert(0, LineState::Modified);
        c.insert(2, LineState::Shared);
        let ev = c.insert(4, LineState::Shared).unwrap();
        assert_eq!(ev.state, LineState::Modified);
        assert_eq!(ev.line, 0);
    }

    #[test]
    fn invalidate_and_downgrade() {
        let mut c = small_cache();
        c.insert(7, LineState::Modified);
        assert!(c.downgrade_to_shared(7), "dirty downgrade needs writeback");
        assert_eq!(c.probe(7), Some(LineState::Shared));
        assert_eq!(c.invalidate(7), Some(LineState::Shared));
        assert_eq!(c.probe(7), None);
        assert_eq!(c.invalidate(7), None, "double invalidate is a no-op");
    }

    #[test]
    fn sets_are_independent() {
        let mut c = small_cache();
        c.insert(0, LineState::Shared); // set 0
        c.insert(1, LineState::Shared); // set 1
        c.insert(2, LineState::Shared); // set 0
        c.insert(3, LineState::Shared); // set 1
        assert_eq!(c.resident_lines(), 4, "no eviction across sets");
    }

    #[test]
    fn zeroed_tags_never_fake_a_hit_on_line_zero() {
        // A fresh cache's tags are all zero, the tag of line 0: only the
        // way states may decide residency.
        let mut c = small_cache();
        assert_eq!(c.lookup(0), None);
        assert_eq!(c.probe(0), None);
        assert_eq!(c.invalidate(0), None);
        assert!(!c.downgrade_to_shared(0));
        assert_eq!(c.resident_lines(), 0);
        assert!(c.resident_line_list().is_empty());
        assert_eq!(c.insert(0, LineState::Modified), None);
        assert_eq!(c.lookup(0), Some(LineState::Modified));
        assert_eq!(c.resident_line_list(), vec![(0, LineState::Modified)]);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_requires_residency() {
        let mut c = small_cache();
        c.set_state(42, LineState::Shared);
    }
}
