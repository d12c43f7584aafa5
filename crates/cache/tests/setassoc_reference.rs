//! Differential test of the set-associative cache against a naive
//! reference: one `Vec<(tag, last_use, dirty)>` per set, LRU by timestamp.
//!
//! The cache packs each slot's tag, dirty bit and valid bit into one word.
//! Driving both with the same seeded stream of every public operation, at
//! PM, DRAM and top-of-address-space line addresses and on both the
//! power-of-two and the divide set-indexing paths, checks that the packing
//! loses no tag bit and never confuses a flag with a tag.

use cpucache::{Cache, Evicted};
use simbase::{Addr, SplitMix64};

/// PM window base of the simulated machine.
const PM_BASE: u64 = 0x0000_1000_0000_0000;
/// DRAM window base of the simulated machine.
const DRAM_BASE: u64 = 0x0000_2000_0000_0000;

/// Reference cache: the obvious per-set list of resident lines.
struct Reference {
    sets: Vec<Vec<(u64, u64, bool)>>,
    ways: usize,
    tick: u64,
}

impl Reference {
    fn new(capacity_bytes: u64, ways: usize) -> Self {
        let num_sets = (capacity_bytes / 64 / ways as u64).max(1) as usize;
        Reference {
            sets: vec![Vec::new(); num_sets],
            ways,
            tick: 0,
        }
    }

    fn set_and_tag(&self, addr: Addr) -> (usize, u64) {
        let line = addr.0 / 64;
        let n = self.sets.len() as u64;
        ((line % n) as usize, line / n)
    }

    fn find(&mut self, addr: Addr) -> Option<&mut (u64, u64, bool)> {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter_mut().find(|l| l.0 == tag)
    }

    fn access(&mut self, addr: Addr, mark_dirty: bool) -> bool {
        self.tick += 1;
        let tick = self.tick;
        self.find(addr)
            .map(|l| {
                l.1 = tick;
                l.2 |= mark_dirty;
            })
            .is_some()
    }

    fn fill(&mut self, addr: Addr, dirty: bool) -> Option<Evicted> {
        self.tick += 1;
        let tick = self.tick;
        if let Some(l) = self.find(addr) {
            l.1 = tick;
            l.2 |= dirty;
            return None;
        }
        let (set, tag) = self.set_and_tag(addr);
        let n = self.sets.len() as u64;
        let lines = &mut self.sets[set];
        let victim = if lines.len() == self.ways {
            let lru = (0..lines.len()).min_by_key(|&i| lines[i].1)?;
            let (vtag, _, vdirty) = lines.remove(lru);
            Some(Evicted {
                addr: Addr((vtag * n + set as u64) * 64),
                dirty: vdirty,
            })
        } else {
            None
        };
        lines.push((tag, tick, dirty));
        victim
    }

    fn invalidate(&mut self, addr: Addr) -> Option<bool> {
        let (set, tag) = self.set_and_tag(addr);
        let lines = &mut self.sets[set];
        let i = lines.iter().position(|l| l.0 == tag)?;
        Some(lines.remove(i).2)
    }

    fn clean(&mut self, addr: Addr) -> Option<bool> {
        self.find(addr).map(|l| std::mem::replace(&mut l.2, false))
    }

    fn peek(&self, addr: Addr) -> bool {
        let (set, tag) = self.set_and_tag(addr);
        self.sets[set].iter().any(|l| l.0 == tag)
    }

    fn len(&self) -> usize {
        self.sets.iter().map(Vec::len).sum()
    }

    fn drain_dirty(&mut self) -> Vec<Addr> {
        let n = self.sets.len() as u64;
        let mut dirty: Vec<Addr> = self
            .sets
            .iter_mut()
            .enumerate()
            .flat_map(|(set, lines)| {
                lines
                    .drain(..)
                    .filter(|l| l.2)
                    .map(move |l| Addr((l.0 * n + set as u64) * 64))
            })
            .collect();
        dirty.sort();
        dirty
    }
}

/// Runs `steps` random operations against a cache of the given shape and
/// the reference, requiring identical results after every one.
fn run(capacity_bytes: u64, ways: usize, seed: u64, steps: usize) {
    let mut cache = Cache::new(capacity_bytes, ways);
    let mut model = Reference::new(capacity_bytes, ways);
    let num_sets = model.sets.len() as u64;
    // Top-of-space lines carry the widest tags the packing must hold.
    let top_line = u64::MAX / 64 - 4 * num_sets * ways as u64;
    let bases = [PM_BASE / 64, DRAM_BASE / 64, top_line];
    let mut rng = SplitMix64::new(seed);
    for step in 0..steps {
        // A few sets, each oversubscribed about 3x, so fills evict often.
        let base = bases[rng.gen_range(bases.len() as u64) as usize];
        let line = base + rng.gen_range(4) + rng.gen_range(3 * ways as u64) * num_sets;
        let addr = Addr(line * 64);
        let dirty = rng.gen_bool(0.5);
        let ctx = || format!("step {step}, {} sets, line {line:#x}", num_sets);
        match rng.gen_range(100) {
            0..=29 => assert_eq!(
                cache.access(addr, dirty),
                model.access(addr, dirty),
                "{}",
                ctx()
            ),
            30..=69 => assert_eq!(
                cache.fill(addr, dirty),
                model.fill(addr, dirty),
                "{}",
                ctx()
            ),
            70..=79 => assert_eq!(cache.invalidate(addr), model.invalidate(addr), "{}", ctx()),
            80..=89 => assert_eq!(cache.clean(addr), model.clean(addr), "{}", ctx()),
            // Draining scans every slot; keep it rare next to the rest.
            _ if rng.gen_range(10) != 0 => {
                assert_eq!(cache.peek(addr), model.peek(addr), "{}", ctx())
            }
            _ => {
                let mut got = cache.drain_dirty();
                got.sort();
                assert_eq!(got, model.drain_dirty(), "{}", ctx());
            }
        }
        // The census walks every set; sample it.
        if step % 64 == 0 {
            assert_eq!(cache.len(), model.len(), "{}", ctx());
        }
    }
    let mut got = cache.drain_dirty();
    got.sort();
    assert_eq!(got, model.drain_dirty());
    assert!(cache.is_empty());
}

#[test]
fn power_of_two_sets_match_the_reference() {
    // L1-shaped: 64 sets x 8 ways, the shift-and-mask indexing path.
    run(32 << 10, 8, 1, 40_000);
    // L2-shaped: 1,024 sets x 16 ways.
    run(1 << 20, 16, 2, 40_000);
    // One set: the whole line number is the tag.
    run(4 * 64, 4, 3, 20_000);
}

#[test]
fn divide_indexed_sets_match_the_reference() {
    // L3-shaped: 40,000 sets x 11 ways, the divide indexing path.
    run(27_500 << 10, 11, 4, 10_000);
    // A small odd set count.
    run(48 * 4 * 64, 4, 5, 40_000);
}
