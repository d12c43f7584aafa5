//! A set-associative cache of cacheline metadata.
//!
//! Lines carry a tag, a dirty bit, and an LRU timestamp. Functional data is
//! not stored here — the machine keeps bytes in its volatile overlay and
//! persistent image; the cache only decides hits, misses, evictions, and
//! write-backs.
//!
//! Storage is a single flat slot table (`num_sets * ways` entries, set-major)
//! rather than a `Vec` per set: one allocation per cache, and a set lookup is
//! a bounded scan of `ways` contiguous slots. A live-line counter makes
//! emptiness checks O(1), which the flush path relies on to skip the many
//! per-core caches that hold nothing.

use simbase::{Addr, HitMiss, CACHELINE_BYTES};

/// Metadata for one cacheline slot, packed into 16 bytes so an 8-way L1
/// set is 128 bytes: two host cachelines' worth rather than three.
///
/// `meta` is `tag << 2 | dirty << 1 | valid`: a lookup compares one word
/// against `tag << 2 | 1` and ignores the dirty bit. An empty slot is all
/// zero, so a fresh slot table is a zeroed allocation the host maps
/// lazily.
#[derive(Debug, Clone, Copy)]
struct Line {
    meta: u64,
    last_use: u64,
}

const VALID: u64 = 1;
const DIRTY: u64 = 2;
/// Bits below the tag in [`Line::meta`].
const FLAG_BITS: u32 = 2;

const EMPTY_LINE: Line = Line {
    meta: 0,
    last_use: 0,
};

impl Line {
    #[inline]
    fn valid(self) -> bool {
        self.meta & VALID != 0
    }

    #[inline]
    fn dirty(self) -> bool {
        self.meta & DIRTY != 0
    }

    #[inline]
    fn tag(self) -> u64 {
        self.meta >> FLAG_BITS
    }
}

/// The `meta` word of a valid, clean line holding `tag`; compare with
/// `meta & !DIRTY`.
#[inline]
fn key_of(tag: u64) -> u64 {
    tag << FLAG_BITS | VALID
}

/// A line evicted to make room.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// Cacheline-aligned address of the victim.
    pub addr: Addr,
    /// Whether the victim held modified data.
    pub dirty: bool,
}

/// Set-associative, LRU, write-back cache (metadata only).
#[derive(Debug, Clone)]
pub struct Cache {
    /// Flat slot table: set `s` owns `slots[s*ways .. (s+1)*ways]`.
    slots: Vec<Line>,
    num_sets: usize,
    /// `log2(num_sets)` when the set count is a power of two (L1's 64 and
    /// L2's 1,024), so a lookup splits the line number with a mask and a
    /// shift; `None` (the 27.5 MB L3's 40,000 sets) keeps the divide.
    set_bits: Option<u32>,
    ways: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    /// Number of valid slots; `is_empty` must stay O(1) for the flush path.
    live: usize,
}

impl Cache {
    /// Creates a cache of `capacity_bytes` with `ways` associativity.
    ///
    /// The number of sets is `capacity / (ways * 64)`, rounded down to at
    /// least 1; odd capacities (such as the 27.5 MB G1 L3) therefore work.
    ///
    /// # Panics
    ///
    /// Panics if `ways` is zero or the capacity holds fewer lines than one
    /// way.
    pub fn new(capacity_bytes: u64, ways: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        let lines = capacity_bytes / CACHELINE_BYTES;
        let num_sets = (lines / ways as u64).max(1) as usize;
        assert!(lines >= ways as u64, "capacity smaller than one set");
        assert!(
            u64::MAX / CACHELINE_BYTES / num_sets as u64 <= u64::MAX >> FLAG_BITS,
            "the largest tag must fit beside the flag bits"
        );
        Cache {
            slots: vec![EMPTY_LINE; num_sets * ways],
            num_sets,
            set_bits: num_sets
                .is_power_of_two()
                .then(|| num_sets.trailing_zeros()),
            ways,
            tick: 0,
            hits: 0,
            misses: 0,
            live: 0,
        }
    }

    #[inline]
    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr.0 / CACHELINE_BYTES;
        match self.set_bits {
            Some(bits) => ((line & ((1 << bits) - 1)) as usize, line >> bits),
            None => {
                let num_sets = self.num_sets as u64;
                ((line % num_sets) as usize, line / num_sets)
            }
        }
    }

    #[inline]
    fn set_slots(&mut self, set_idx: usize) -> &mut [Line] {
        &mut self.slots[set_idx * self.ways..(set_idx + 1) * self.ways]
    }

    /// Looks up `addr`; on a hit, refreshes LRU and optionally marks dirty.
    ///
    /// Returns `true` on a hit.
    pub fn access(&mut self, addr: Addr, mark_dirty: bool) -> bool {
        self.tick += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        let key = key_of(tag);
        if let Some(l) = self
            .set_slots(set_idx)
            .iter_mut()
            .find(|l| l.meta & !DIRTY == key)
        {
            l.last_use = tick;
            l.meta |= if mark_dirty { DIRTY } else { 0 };
            self.hits += 1;
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Returns `true` if `addr` is resident, without touching LRU or stats.
    pub fn peek(&self, addr: Addr) -> bool {
        let (set_idx, tag) = self.set_and_tag(addr);
        let key = key_of(tag);
        self.slots[set_idx * self.ways..(set_idx + 1) * self.ways]
            .iter()
            .any(|l| l.meta & !DIRTY == key)
    }

    /// Inserts `addr` (refreshing it if already resident), returning the
    /// evicted victim if the set overflowed.
    pub fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        self.tick += 1;
        let (set_idx, tag) = self.set_and_tag(addr);
        let tick = self.tick;
        let num_sets = self.num_sets as u64;
        let key = key_of(tag);
        let dirty_bit = if dirty { DIRTY } else { 0 };
        let set = self.set_slots(set_idx);
        // One pass: find the resident line, a free slot, and the LRU victim.
        let mut free = None;
        let mut victim = None;
        let mut victim_use = u64::MAX;
        for (i, l) in set.iter_mut().enumerate() {
            if !l.valid() {
                if free.is_none() {
                    free = Some(i);
                }
                continue;
            }
            if l.meta & !DIRTY == key {
                l.last_use = tick;
                l.meta |= dirty_bit;
                return None;
            }
            // LRU timestamps are unique (each touch consumes a fresh tick),
            // so the victim does not depend on slot order.
            if l.last_use < victim_use {
                victim_use = l.last_use;
                victim = Some(i);
            }
        }
        let fresh = Line {
            meta: key | dirty_bit,
            last_use: tick,
        };
        if let Some(i) = free {
            set[i] = fresh;
            self.live += 1;
            return None;
        }
        // A full set always yields an LRU victim.
        let victim_idx = victim?;
        let v = set[victim_idx];
        set[victim_idx] = fresh;
        let line_no = v.tag() * num_sets + set_idx as u64;
        Some(Evicted {
            addr: Addr(line_no * CACHELINE_BYTES),
            dirty: v.dirty(),
        })
    }

    /// Removes `addr` if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        if self.live == 0 {
            return None;
        }
        let (set_idx, tag) = self.set_and_tag(addr);
        let key = key_of(tag);
        let l = self
            .set_slots(set_idx)
            .iter_mut()
            .find(|l| l.meta & !DIRTY == key)?;
        let dirty = l.dirty();
        *l = EMPTY_LINE;
        self.live -= 1;
        Some(dirty)
    }

    /// Cleans `addr` if resident (write-back without invalidation),
    /// returning whether it was dirty.
    pub fn clean(&mut self, addr: Addr) -> Option<bool> {
        if self.live == 0 {
            return None;
        }
        let (set_idx, tag) = self.set_and_tag(addr);
        let key = key_of(tag);
        let l = self
            .set_slots(set_idx)
            .iter_mut()
            .find(|l| l.meta & !DIRTY == key)?;
        let was = l.dirty();
        l.meta &= !DIRTY;
        Some(was)
    }

    /// Drains the whole cache, returning the addresses of dirty lines.
    ///
    /// Addresses come out in slot order, which is not sorted; callers that
    /// need a canonical order (power-fail replay) sort them.
    pub fn drain_dirty(&mut self) -> Vec<Addr> {
        let num_sets = self.num_sets as u64;
        let ways = self.ways;
        let mut dirty = Vec::new();
        if self.live == 0 {
            return dirty;
        }
        for (slot_idx, l) in self.slots.iter_mut().enumerate() {
            if l.valid() {
                if l.dirty() {
                    let set_idx = (slot_idx / ways) as u64;
                    let line_no = l.tag() * num_sets + set_idx;
                    dirty.push(Addr(line_no * CACHELINE_BYTES));
                }
                *l = EMPTY_LINE;
            }
        }
        self.live = 0;
        dirty
    }

    /// Returns the hit/miss counters observed so far.
    pub fn counters(&self) -> HitMiss {
        HitMiss::of(self.hits, self.misses)
    }

    /// Returns the number of resident lines.
    pub fn len(&self) -> usize {
        self.live
    }

    /// Returns `true` if no lines are resident. O(1): a counter, not a scan.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Clears hit/miss statistics without disturbing resident lines.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Clears contents and statistics.
    pub fn reset(&mut self) {
        if self.live > 0 {
            self.slots.fill(EMPTY_LINE);
        }
        self.live = 0;
        self.hits = 0;
        self.misses = 0;
        self.tick = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_hit() {
        let mut c = Cache::new(4096, 4);
        assert!(!c.access(Addr(0), false));
        c.fill(Addr(0), false);
        assert!(c.access(Addr(0), false));
        assert_eq!(c.counters(), HitMiss::of(1, 1));
    }

    #[test]
    fn reset_stats_keeps_contents() {
        let mut c = Cache::new(4096, 4);
        c.access(Addr(0), false);
        c.fill(Addr(0), false);
        c.access(Addr(0), false);
        c.reset_stats();
        assert_eq!(c.counters(), HitMiss::new());
        assert!(c.peek(Addr(0)), "resident lines survive a stats reset");
    }

    #[test]
    fn lru_eviction_within_set() {
        // Direct-mapped-ish: 2 ways, force collisions in one set.
        let lines = 4u64; // 2 sets x 2 ways
        let mut c = Cache::new(lines * 64, 2);
        // Addresses mapping to set 0: line numbers 0, 2, 4 (mod 2 == 0).
        c.fill(Addr(0), false);
        c.fill(Addr(128), false);
        c.access(Addr(0), false); // refresh line 0
        let ev = c.fill(Addr(256), false).expect("set overflow");
        assert_eq!(ev.addr, Addr(128), "LRU victim");
        assert!(!ev.dirty);
    }

    #[test]
    fn dirty_bit_propagates_to_eviction() {
        let mut c = Cache::new(2 * 64, 1);
        c.fill(Addr(0), false);
        c.access(Addr(0), true); // store
        let ev = c.fill(Addr(128), false).expect("evicts line 0");
        assert_eq!(ev.addr, Addr(0));
        assert!(ev.dirty);
    }

    #[test]
    fn refill_merges_dirtiness() {
        let mut c = Cache::new(4096, 4);
        c.fill(Addr(0), true);
        assert!(c.fill(Addr(0), false).is_none());
        let ev = c.invalidate(Addr(0));
        assert_eq!(ev, Some(true), "dirty survives a clean refill");
    }

    #[test]
    fn clean_clears_dirty_but_keeps_line() {
        let mut c = Cache::new(4096, 4);
        c.fill(Addr(0), true);
        assert_eq!(c.clean(Addr(0)), Some(true));
        assert_eq!(c.clean(Addr(0)), Some(false));
        assert!(c.peek(Addr(0)));
    }

    #[test]
    fn invalidate_missing_line_is_none() {
        let mut c = Cache::new(4096, 4);
        assert_eq!(c.invalidate(Addr(0)), None);
    }

    #[test]
    fn victim_address_reconstruction() {
        // Many sets: ensure the evicted address is reconstructed exactly.
        let mut c = Cache::new(1 << 16, 2); // 512 sets
        let a = Addr(0xABC00);
        c.fill(a, true);
        // Collide twice in the same set: line numbers differing by num_sets.
        let num_sets = 512u64;
        let b = Addr(a.0 + num_sets * 64);
        let d = Addr(a.0 + 2 * num_sets * 64);
        c.fill(b, false);
        let ev = c.fill(d, false).expect("overflow");
        assert_eq!(ev.addr, a);
        assert!(ev.dirty);
    }

    /// Runs the same seeded fill/access/invalidate stream against `c` and a
    /// copy forced onto the divide path, requiring identical outcomes
    /// (hits, victims with their reconstructed addresses, drained lines).
    fn assert_shift_matches_divide(mut c: Cache, seed: u64) {
        assert!(c.set_bits.is_some(), "power-of-two set count");
        let mut d = c.clone();
        d.set_bits = None;
        let num_sets = c.num_sets as u64;
        let mut rng = simbase::SplitMix64::new(seed);
        for _ in 0..20_000 {
            // Full 64-bit addresses plus a dense low region that collides.
            let addr = if rng.gen_bool(0.5) {
                Addr(rng.next_u64())
            } else {
                Addr(rng.gen_range(num_sets * 64 * 16))
            };
            let line = addr.0 / 64;
            assert_eq!(
                c.set_and_tag(addr),
                ((line % num_sets) as usize, line / num_sets)
            );
            assert_eq!(c.set_and_tag(addr), d.set_and_tag(addr));
            match rng.gen_range(3) {
                0 => assert_eq!(c.access(addr, true), d.access(addr, true)),
                1 => {
                    let dirty = rng.gen_bool(0.5);
                    let (vc, vd) = (c.fill(addr, dirty), d.fill(addr, dirty));
                    assert_eq!(vc, vd);
                    if let Some(v) = vc {
                        // The victim shares the filled line's set.
                        assert_eq!((v.addr.0 / 64) % num_sets, line % num_sets);
                        assert!(!c.peek(v.addr));
                    }
                }
                _ => assert_eq!(c.invalidate(addr), d.invalidate(addr)),
            }
        }
        let (mut dc, mut dd) = (c.drain_dirty(), d.drain_dirty());
        dc.sort();
        dd.sort();
        assert_eq!(dc, dd);
    }

    #[test]
    fn shift_and_divide_set_indexing_agree() {
        // L1-shaped (64 sets) and L2-shaped (1,024 sets).
        assert_shift_matches_divide(Cache::new(32 << 10, 8), 1);
        assert_shift_matches_divide(Cache::new(1 << 20, 16), 2);
        // The L3 set count is not a power of two and keeps the divide.
        let l3 = Cache::new(27_500 << 10, 11);
        assert_eq!(l3.num_sets, 40_000);
        assert_eq!(l3.set_bits, None);
    }

    #[test]
    fn victim_reconstruction_on_the_shift_path() {
        let mut rng = simbase::SplitMix64::new(7);
        let mut c = Cache::new(32 << 10, 8); // 64 sets
        for _ in 0..1000 {
            let a = Addr(rng.next_u64() & !63);
            c.reset();
            c.fill(a, true);
            // `ways` more lines in the same set push `a` out.
            let mut victims = Vec::new();
            for k in 1..=8u64 {
                victims.extend(c.fill(Addr(a.0.wrapping_add(k * 64 * 64)), false));
            }
            assert_eq!(victims.len(), 1);
            assert_eq!(victims[0].addr, a);
            assert!(victims[0].dirty);
        }
    }

    #[test]
    fn drain_dirty_returns_only_dirty() {
        let mut c = Cache::new(4096, 4);
        c.fill(Addr(0), true);
        c.fill(Addr(64), false);
        c.fill(Addr(128), true);
        let mut d = c.drain_dirty();
        d.sort();
        assert_eq!(d, vec![Addr(0), Addr(128)]);
        assert!(c.is_empty());
    }

    #[test]
    fn peek_does_not_disturb_stats_or_lru() {
        let mut c = Cache::new(2 * 64, 1);
        c.fill(Addr(0), false);
        assert!(c.peek(Addr(0)));
        assert!(!c.peek(Addr(64)));
        assert_eq!(c.counters(), HitMiss::new());
    }

    #[test]
    fn live_counter_tracks_fills_evictions_and_invalidations() {
        // Exercise every transition that touches occupancy and check that
        // the O(1) counter agrees with a slot-by-slot census throughout.
        let mut c = Cache::new(8 * 64, 2); // 4 sets x 2 ways
        let census = |c: &Cache| {
            let mut n = 0;
            for line in 0..64u64 {
                if c.peek(Addr(line * 64)) {
                    n += 1;
                }
            }
            n
        };
        assert!(c.is_empty());
        for i in 0..16u64 {
            c.fill(Addr(i * 64), i % 3 == 0);
            assert_eq!(c.len(), census(&c), "after fill {i}");
        }
        assert_eq!(c.len(), 8, "evictions keep occupancy at capacity");
        c.fill(Addr(0), false); // conflict fill: evicts line 8, takes its slot
        assert_eq!(c.len(), census(&c));
        c.fill(Addr(0), true); // refill of a resident line: no change
        assert_eq!(c.len(), census(&c));
        c.invalidate(Addr(0));
        for i in 8..16u64 {
            c.invalidate(Addr(i * 64));
            assert_eq!(c.len(), census(&c), "after invalidate {i}");
        }
        assert!(c.is_empty(), "all residents invalidated");
        c.fill(Addr(0), true);
        c.drain_dirty();
        assert!(c.is_empty());
        c.fill(Addr(64), true);
        c.reset();
        assert!(c.is_empty());
        assert_eq!(census(&c), 0);
    }

    #[test]
    fn capacity_behaviour_working_set_sweep() {
        // A working set within capacity hits steadily; beyond capacity with
        // LRU and a sequential scan, it thrashes.
        let mut c = Cache::new(64 * 64, 8);
        // In-capacity: 32 lines.
        for _ in 0..3 {
            for i in 0..32u64 {
                if !c.access(Addr(i * 64), false) {
                    c.fill(Addr(i * 64), false);
                }
            }
        }
        assert_eq!(c.counters().hits, 64, "two warm passes fully hit");
        // Over-capacity sequential scan: every access misses.
        let mut c = Cache::new(64 * 64, 8);
        for _ in 0..3 {
            for i in 0..128u64 {
                if !c.access(Addr(i * 64), false) {
                    c.fill(Addr(i * 64), false);
                }
            }
        }
        let hm = c.counters();
        assert_eq!(
            hm.hits, 0,
            "sequential over-capacity scan never hits with LRU"
        );
        assert_eq!(hm.misses, 384);
    }

    #[test]
    fn refill_semantics_after_eviction_churn() {
        // An LRU victim identified by timestamp, not slot position: churn a
        // set through evictions and check residency plus victim identity.
        let mut c = Cache::new(2 * 64, 2); // 1 set, 2 ways
        c.fill(Addr(0), false); // tick 1
        c.fill(Addr(64), false); // tick 2
        let ev = c.fill(Addr(128), true).expect("evicts line 0 (LRU)");
        assert_eq!(ev.addr, Addr(0));
        c.access(Addr(64), false); // refresh 64 past 128
        let ev = c.fill(Addr(192), false).expect("now 128 is LRU");
        assert_eq!(ev.addr, Addr(128));
        assert!(ev.dirty, "dirtiness rides with the victim");
        assert!(c.peek(Addr(64)) && c.peek(Addr(192)));
        assert_eq!(c.len(), 2);
    }
}
