//! Shared last-level cache with a co-located full-map directory.
//!
//! The paper models "a shared 4MB 16-way last-level cache with 20 cycle hit
//! latency" and "a standard invalidation-based cache coherence protocol
//! with the directory co-located with the last-level cache". The LLC is
//! inclusive: evicting an LLC line back-invalidates any L1 copies.

use serde::{Deserialize, Serialize};

use crate::config::CacheConfig;

/// Directory/LLC metadata for one resident line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DirEntry {
    /// Line number.
    pub line: u64,
    /// Bitmask of cores holding the line in their L1 (bit per core).
    pub sharers: u64,
    /// Core holding the line Modified/Exclusive, if any.
    pub owner: Option<u8>,
    /// Whether the LLC copy is dirty with respect to memory.
    pub dirty: bool,
}

/// An LLC victim that must be handled by the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LlcVictim {
    /// The displaced line's directory entry (sharers need back-invalidation
    /// and dirty data needs a memory writeback).
    pub entry: DirEntry,
}

/// The shared LLC + directory.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Llc {
    sets: usize,
    ways: usize,
    set_mask: u64,
    /// Per-slot entry; `line == u64::MAX` marks an empty way. No slot
    /// exists until the first insert, so a cache that is never used
    /// costs no memory.
    entries: Vec<DirEntry>,
    stamps: Vec<u64>,
    tick: u64,
}

const EMPTY: u64 = u64::MAX;

const EMPTY_ENTRY: DirEntry = DirEntry {
    line: EMPTY,
    sharers: 0,
    owner: None,
    dirty: false,
};

impl Llc {
    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Associativity.
    pub fn ways(&self) -> usize {
        self.ways
    }

    /// Builds an empty LLC with the given geometry.
    pub fn new(cfg: &CacheConfig) -> Self {
        cfg.validate();
        let sets = cfg.sets();
        Self {
            sets,
            ways: cfg.ways,
            set_mask: sets as u64 - 1,
            entries: Vec::new(),
            stamps: Vec::new(),
            tick: 0,
        }
    }

    #[inline]
    fn set_of(&self, line: u64) -> usize {
        (line & self.set_mask) as usize
    }

    fn find(&self, line: u64) -> Option<usize> {
        let base = self.set_of(line) * self.ways;
        // Before the first insert there are no slots, and the bounds
        // check every lookup already pays answers "not resident".
        let set = self.entries.get(base..base + self.ways)?;
        set.iter().position(|e| e.line == line).map(|w| base + w)
    }

    /// Looks up a line, updating LRU. Returns a mutable handle to its
    /// directory entry.
    pub fn lookup_mut(&mut self, line: u64) -> Option<&mut DirEntry> {
        let slot = self.find(line)?;
        self.tick += 1;
        self.stamps[slot] = self.tick;
        Some(&mut self.entries[slot])
    }

    /// Reads a line's directory entry without touching LRU.
    pub fn probe(&self, line: u64) -> Option<&DirEntry> {
        self.find(line).map(|s| &self.entries[s])
    }

    /// Inserts a freshly-fetched line; returns the victim entry if a
    /// resident line was displaced (caller back-invalidates its sharers
    /// and writes back dirty data).
    pub fn insert(&mut self, entry: DirEntry) -> Option<LlcVictim> {
        debug_assert_ne!(entry.line, EMPTY);
        debug_assert!(self.find(entry.line).is_none(), "line already resident");
        if self.entries.is_empty() {
            let slots = self.sets * self.ways;
            self.entries = vec![EMPTY_ENTRY; slots];
            self.stamps = vec![0; slots];
        }
        let set = self.set_of(entry.line);
        let mut victim_slot = set * self.ways;
        let mut victim_stamp = u64::MAX;
        for w in 0..self.ways {
            let s = set * self.ways + w;
            if self.entries[s].line == EMPTY {
                victim_slot = s;
                break;
            }
            if self.stamps[s] < victim_stamp {
                victim_stamp = self.stamps[s];
                victim_slot = s;
            }
        }
        let victim = if self.entries[victim_slot].line != EMPTY {
            Some(LlcVictim {
                entry: self.entries[victim_slot],
            })
        } else {
            None
        };
        self.tick += 1;
        self.entries[victim_slot] = entry;
        self.stamps[victim_slot] = self.tick;
        victim
    }

    /// Removes a line (used when handling inclusive-eviction bookkeeping in
    /// tests); returns its entry.
    pub fn remove(&mut self, line: u64) -> Option<DirEntry> {
        let slot = self.find(line)?;
        let entry = self.entries[slot];
        self.entries[slot].line = EMPTY;
        self.entries[slot].sharers = 0;
        self.entries[slot].owner = None;
        self.entries[slot].dirty = false;
        Some(entry)
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.entries.iter().filter(|e| e.line != EMPTY).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Llc {
        // 2 sets x 2 ways.
        Llc::new(&CacheConfig {
            capacity_bytes: 256,
            ways: 2,
            line_bytes: 64,
            hit_latency_cycles: 20,
        })
    }

    fn entry(line: u64) -> DirEntry {
        DirEntry {
            line,
            sharers: 0b1,
            owner: None,
            dirty: false,
        }
    }

    #[test]
    fn insert_and_lookup() {
        let mut llc = tiny();
        llc.insert(entry(4));
        assert!(llc.lookup_mut(4).is_some());
        assert!(llc.lookup_mut(6).is_none());
    }

    #[test]
    fn sharer_updates_persist() {
        let mut llc = tiny();
        llc.insert(entry(4));
        llc.lookup_mut(4).unwrap().sharers |= 0b10;
        assert_eq!(llc.probe(4).unwrap().sharers, 0b11);
    }

    #[test]
    fn eviction_returns_victim_directory_state() {
        let mut llc = tiny();
        let mut a = entry(0);
        a.dirty = true;
        a.sharers = 0b101;
        llc.insert(a);
        llc.insert(entry(2));
        let _ = llc.lookup_mut(2); // make line 0 LRU
        let victim = llc.insert(entry(4)).expect("set full");
        assert_eq!(victim.entry.line, 0);
        assert!(victim.entry.dirty);
        assert_eq!(victim.entry.sharers, 0b101);
    }

    #[test]
    fn remove_clears_slot() {
        let mut llc = tiny();
        llc.insert(entry(4));
        assert!(llc.remove(4).is_some());
        assert!(llc.probe(4).is_none());
        assert_eq!(llc.resident_lines(), 0);
    }

    #[test]
    fn an_unused_llc_allocates_no_slots() {
        // Idle servers build an LLC they never touch: lookups, probes and
        // removals must answer "not resident" without allocating.
        let mut llc = tiny();
        for line in [0, 1, 3, u64::MAX - 1] {
            assert!(llc.lookup_mut(line).is_none());
            assert!(llc.probe(line).is_none());
            assert!(llc.remove(line).is_none());
        }
        assert_eq!(llc.resident_lines(), 0);
        assert_eq!(llc.entries.capacity() + llc.stamps.capacity(), 0);
    }

    #[test]
    fn the_first_insert_allocates_every_set() {
        let mut llc = tiny();
        assert!(llc.insert(entry(1)).is_none());
        assert_eq!(llc.entries.len(), llc.sets() * llc.ways());
        // Both sets fill to their full associativity before anything is
        // displaced.
        for line in [0, 2, 3] {
            assert!(llc.insert(entry(line)).is_none(), "line {line}");
        }
        assert_eq!(llc.resident_lines(), 4);
        let victim = llc.insert(entry(4)).expect("set 0 is full");
        assert_eq!(victim.entry.line, 0);
    }
}
