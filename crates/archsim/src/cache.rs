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
    /// Per-slot line tags, read only where the way's state is valid.
    /// No slot exists until the first insert, so a core that never
    /// touches memory costs no memory (the rule [`crate::llc::Llc`]
    /// follows). An unallocated cache behaves exactly like an
    /// all-invalid one: the victim rule takes the first invalid way and
    /// never compares the stamps of invalid ways.
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
            tags: Vec::new(),
            states: Vec::new(),
            stamps: Vec::new(),
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

    /// The slot holding `line`, if it is resident. Before the first
    /// insert there are no slots, and the bounds check every lookup
    /// already pays answers "not resident".
    #[inline]
    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_of(line) * self.ways;
        let tags = self.tags.get(base..base + self.ways)?;
        let states = &self.states[base..base + self.ways];
        for way in 0..tags.len() {
            if tags[way] == line && states[way] != LineState::Invalid {
                return Some(base + way);
            }
        }
        None
    }

    /// Looks up a line, updating LRU on hit. Returns its state if present.
    pub fn lookup(&mut self, line: u64) -> Option<LineState> {
        let s = self.find(line)?;
        self.tick += 1;
        self.stamps[s] = self.tick;
        Some(self.states[s])
    }

    /// Returns the state without touching LRU (for directory probes).
    pub fn probe(&self, line: u64) -> Option<LineState> {
        self.find(line).map(|s| self.states[s])
    }

    /// Sets the state of a resident line.
    ///
    /// # Panics
    ///
    /// Panics if the line is not resident.
    pub fn set_state(&mut self, line: u64, state: LineState) {
        let Some(s) = self.find(line) else {
            panic!("set_state on non-resident line {line:#x}");
        };
        self.states[s] = state;
    }

    /// Inserts a line (after a miss), evicting the LRU way if necessary.
    /// Returns the victim, if one was displaced. The first insert
    /// allocates every set.
    pub fn insert(&mut self, line: u64, state: LineState) -> Option<Evicted> {
        debug_assert!(state != LineState::Invalid, "cannot insert invalid line");
        if self.states.is_empty() {
            let slots = self.sets * self.ways;
            self.tags = vec![0; slots];
            self.states = vec![LineState::Invalid; slots];
            self.stamps = vec![0; slots];
        }
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
        let s = self.find(line)?;
        let prior = self.states[s];
        self.states[s] = LineState::Invalid;
        Some(prior)
    }

    /// Downgrades an M/E line to Shared (directory-initiated on a remote
    /// read). Returns true if the line was dirty (needed a writeback).
    pub fn downgrade_to_shared(&mut self, line: u64) -> bool {
        let Some(s) = self.find(line) else {
            return false;
        };
        let dirty = self.states[s] == LineState::Modified;
        self.states[s] = LineState::Shared;
        dirty
    }

    /// Number of resident lines (diagnostics).
    pub fn resident_lines(&self) -> usize {
        self.states
            .iter()
            .filter(|s| **s != LineState::Invalid)
            .count()
    }

    /// Lists all resident lines with their states, set by set (used to
    /// flush a core's L1 when it is powered down). An unallocated cache
    /// lists nothing and allocates nothing.
    pub fn resident_line_list(&self) -> Vec<(u64, LineState)> {
        self.tags
            .iter()
            .zip(&self.states)
            .filter(|(_, state)| **state != LineState::Invalid)
            .map(|(&tag, &state)| (tag, state))
            .collect()
    }

    /// Bytes held by the slot arrays: zero until the first insert.
    #[cfg(test)]
    pub(crate) fn slot_bytes(&self) -> usize {
        self.tags.capacity() * std::mem::size_of::<u64>()
            + self.states.capacity() * std::mem::size_of::<LineState>()
            + self.stamps.capacity() * std::mem::size_of::<u64>()
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
        // The first insert allocates every way with a zero tag, the tag
        // of line 0: only the way states may decide residency. Line 2
        // shares set 0 with line 0, so one of set 0's ways stays empty.
        let mut c = small_cache();
        assert_eq!(c.insert(2, LineState::Shared), None);
        assert_eq!(c.lookup(0), None);
        assert_eq!(c.probe(0), None);
        assert_eq!(c.invalidate(0), None);
        assert!(!c.downgrade_to_shared(0));
        assert_eq!(c.resident_lines(), 1);
        assert_eq!(c.resident_line_list(), vec![(2, LineState::Shared)]);
        assert_eq!(c.insert(0, LineState::Modified), None);
        assert_eq!(c.lookup(0), Some(LineState::Modified));
        assert_eq!(
            c.resident_line_list(),
            vec![(2, LineState::Shared), (0, LineState::Modified)]
        );
    }

    #[test]
    fn an_unused_l1_allocates_no_slots() {
        // An idle core's L1 is never inserted into: every query must
        // answer "not resident" without allocating.
        let mut c = small_cache();
        for line in [0, 1, 3, u64::MAX - 1] {
            assert_eq!(c.lookup(line), None);
            assert_eq!(c.probe(line), None);
            assert_eq!(c.invalidate(line), None);
            assert!(!c.downgrade_to_shared(line));
        }
        assert_eq!(c.resident_lines(), 0);
        let list = c.resident_line_list();
        assert!(list.is_empty());
        assert_eq!(list.capacity(), 0);
        assert_eq!(c.slot_bytes(), 0);
    }

    #[test]
    fn the_first_insert_allocates_every_set() {
        let mut c = small_cache();
        assert!(c.insert(1, LineState::Exclusive).is_none());
        assert_eq!(c.states.len(), c.sets * c.ways);
        assert_eq!(c.slot_bytes(), 4 * (8 + 1 + 8));
        // Both sets fill to their full associativity before anything is
        // displaced.
        for line in [0, 2, 3] {
            assert!(c.insert(line, LineState::Shared).is_none(), "line {line}");
        }
        assert_eq!(c.resident_lines(), 4);
        let victim = c.insert(4, LineState::Shared).expect("set 0 is full");
        assert_eq!(victim.line, 0);
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn set_state_requires_residency() {
        let mut c = small_cache();
        c.set_state(42, LineState::Shared);
    }
}
