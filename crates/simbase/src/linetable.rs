//! Dense, address-ordered per-cacheline tables.
//!
//! The simulator keeps several records keyed by cacheline address and
//! consults them on every simulated access: the machine's volatile write
//! overlay, in-flight fill completions, recent-flush records, and the
//! memory controller's in-flight persists. [`LineTable`] is the map they
//! share. A lookup is a page find plus one bit test:
//!
//! - **Segments.** Keys are grouped into 64-line *pages* (4 KB of address
//!   space). Pages live in one or more *segments*, each a dense directory
//!   of page slots covering a contiguous page range. A simulated machine's
//!   keys fall into at most two segments (PM and DRAM), so finding the
//!   page costs one range compare per segment and one directory index.
//! - **Pages.** A page holds a 64-bit presence mask and 64 inline values;
//!   the key's line index within the page selects the bit and the value.
//!   Pages are allocated lazily from a pool and go back to it the moment
//!   their mask empties, so a stream that inserts and removes lines walks
//!   a bounded set of pages however far it travels.
//! - **Order.** Segments are sorted and disjoint, and directories are
//!   indexed by page number, so every iteration (`iter`, `retain`)
//!   visits keys in ascending address order — the same canonical order a
//!   `BTreeMap` gives, which is what crash images, quiesce folds, and
//!   snapshot encodings rely on (DESIGN.md §12).
//!
//! Keys are cacheline-aligned byte addresses.

use crate::addr::CACHELINE_BYTES;

/// Lines per page: one presence bit each in a `u64` mask.
const LINES_PER_PAGE: u64 = 64;
/// `log2(CACHELINE_BYTES * LINES_PER_PAGE)`: byte address -> page number.
const PAGE_SHIFT: u32 = 12;
/// `log2(CACHELINE_BYTES)`: byte address -> line number.
const LINE_SHIFT: u32 = 6;
/// Directory slot with no page behind it.
const NIL: u32 = u32::MAX;
/// Largest run of empty pages, in pages, a segment's directory bridges
/// (64 MB of address space, 64 KB of directory). Keys further apart start
/// a new segment, so two distant regions never pay for the hole between
/// them.
const MAX_GAP_PAGES: u64 = 1 << 14;

#[derive(Debug, Clone)]
struct Page<V> {
    /// Bit `i` is set iff line `i` of the page holds a value. A page on
    /// the free list always has an empty mask.
    mask: u64,
    /// Values by line index; slots whose mask bit is clear are stale.
    vals: [V; LINES_PER_PAGE as usize],
}

#[derive(Debug, Clone)]
struct Segment {
    /// Page number of `dir[0]`.
    first: u64,
    /// Page pool index per page number, or [`NIL`].
    dir: Vec<u32>,
}

impl Segment {
    /// Page number one past the last directory slot.
    fn end(&self) -> u64 {
        self.first + self.dir.len() as u64
    }
}

/// A map from cacheline address to `V`, iterated in address order.
///
/// See the [module docs](self) for the layout. Lookups, inserts, and
/// removals cost a segment compare, a directory index, and a bit test;
/// they never walk a tree or hash.
#[derive(Debug, Clone)]
pub struct LineTable<V> {
    /// Sorted by `first`, pairwise disjoint.
    segs: Vec<Segment>,
    /// Page pool; referenced from segment directories by index.
    pages: Vec<Page<V>>,
    /// Pool indices of pages no directory references.
    free: Vec<u32>,
    /// Number of keys present.
    len: usize,
}

impl<V> Default for LineTable<V> {
    fn default() -> Self {
        LineTable {
            segs: Vec::new(),
            pages: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }
}

/// Splits a cacheline address into its page number and line-in-page index.
#[inline]
fn split(key: u64) -> (u64, usize) {
    debug_assert!(
        key.is_multiple_of(CACHELINE_BYTES),
        "LineTable keys are cacheline-aligned"
    );
    (
        key >> PAGE_SHIFT,
        ((key >> LINE_SHIFT) % LINES_PER_PAGE) as usize,
    )
}

/// The cacheline address of line `bit` of page `page`.
#[inline]
fn key_of(page: u64, bit: u32) -> u64 {
    (page << PAGE_SHIFT) | (u64::from(bit) << LINE_SHIFT)
}

impl<V: Copy> LineTable<V> {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the number of keys present.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Returns `true` if no key is present.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Returns the pool index of page `page`, if allocated.
    #[inline]
    fn page_index(&self, page: u64) -> Option<usize> {
        for s in &self.segs {
            let off = page.wrapping_sub(s.first);
            if off < s.dir.len() as u64 {
                let p = s.dir[off as usize];
                return (p != NIL).then_some(p as usize);
            }
        }
        None
    }

    /// Returns `(segment, directory offset)` of `page`, if covered.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<(usize, usize)> {
        self.segs.iter().enumerate().find_map(|(i, s)| {
            let off = page.wrapping_sub(s.first);
            (off < s.dir.len() as u64).then_some((i, off as usize))
        })
    }

    /// Returns the value stored for `key`.
    #[inline]
    pub fn get(&self, key: u64) -> Option<&V> {
        let (page, bit) = split(key);
        let p = &self.pages[self.page_index(page)?];
        (p.mask >> bit & 1 != 0).then(|| &p.vals[bit])
    }

    /// Returns a mutable reference to the value stored for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: u64) -> Option<&mut V> {
        let (page, bit) = split(key);
        let idx = self.page_index(page)?;
        let p = &mut self.pages[idx];
        (p.mask >> bit & 1 != 0).then(|| &mut p.vals[bit])
    }

    /// Stores `value` for `key`, returning the previous value.
    pub fn insert(&mut self, key: u64, value: V) -> Option<V> {
        let (page, bit) = split(key);
        let idx = self.page_for_insert(page, value);
        let p = &mut self.pages[idx];
        let old = if p.mask >> bit & 1 != 0 {
            Some(p.vals[bit])
        } else {
            p.mask |= 1 << bit;
            self.len += 1;
            None
        };
        p.vals[bit] = value;
        old
    }

    /// Returns the value for `key`, first inserting `init()` if absent.
    pub fn get_or_insert_with(&mut self, key: u64, init: impl FnOnce() -> V) -> &mut V {
        let (page, bit) = split(key);
        let idx = match self.page_index(page) {
            Some(idx) if self.pages[idx].mask >> bit & 1 != 0 => idx,
            _ => {
                let value = init();
                let idx = self.page_for_insert(page, value);
                let p = &mut self.pages[idx];
                p.mask |= 1 << bit;
                p.vals[bit] = value;
                self.len += 1;
                idx
            }
        };
        &mut self.pages[idx].vals[bit]
    }

    /// Removes `key`, returning its value. A page whose last key goes is
    /// returned to the pool.
    pub fn remove(&mut self, key: u64) -> Option<V> {
        let (page, bit) = split(key);
        let (si, off) = self.slot_of(page)?;
        let idx = self.segs[si].dir[off];
        if idx == NIL {
            return None;
        }
        let p = &mut self.pages[idx as usize];
        if p.mask >> bit & 1 == 0 {
            return None;
        }
        p.mask &= !(1 << bit);
        self.len -= 1;
        let value = p.vals[bit];
        if p.mask == 0 {
            self.segs[si].dir[off] = NIL;
            self.free.push(idx);
        }
        Some(value)
    }

    /// Keeps only the entries for which `keep(key, value)` returns `true`,
    /// visiting them in ascending address order. Directories shrink to
    /// the pages still live, so periodic pruning keeps a long stream's
    /// directory as small as its live window.
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut V) -> bool) {
        for s in &mut self.segs {
            for (off, slot) in s.dir.iter_mut().enumerate() {
                if *slot == NIL {
                    continue;
                }
                let page_no = s.first + off as u64;
                let p = &mut self.pages[*slot as usize];
                for bit in SetBits(p.mask) {
                    if !keep(key_of(page_no, bit), &mut p.vals[bit as usize]) {
                        p.mask &= !(1 << bit);
                        self.len -= 1;
                    }
                }
                if p.mask == 0 {
                    self.free.push(*slot);
                    *slot = NIL;
                }
            }
            trim(s);
        }
        self.segs.retain(|s| !s.dir.is_empty());
    }

    /// Removes every key. Pages stay in the pool for reuse.
    pub fn clear(&mut self) {
        for s in self.segs.drain(..) {
            for idx in s.dir.into_iter().filter(|&i| i != NIL) {
                self.pages[idx as usize].mask = 0;
                self.free.push(idx);
            }
        }
        self.len = 0;
    }

    /// Iterates `(key, &value)` in ascending address order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, &V)> + '_ {
        self.segs.iter().flat_map(move |s| {
            s.dir
                .iter()
                .enumerate()
                .filter(|&(_, &idx)| idx != NIL)
                .flat_map(move |(off, &idx)| {
                    let page_no = s.first + off as u64;
                    let p = &self.pages[idx as usize];
                    SetBits(p.mask).map(move |bit| (key_of(page_no, bit), &p.vals[bit as usize]))
                })
        })
    }

    /// Returns the pool index of the page for `page`, allocating one (and
    /// covering it with a segment) if needed. `init` seeds a brand-new
    /// page's value slots; they stay masked out until written.
    fn page_for_insert(&mut self, page: u64, init: V) -> usize {
        let (si, off) = self.cover(page);
        let cur = self.segs[si].dir[off];
        if cur != NIL {
            return cur as usize;
        }
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.pages.push(Page {
                    mask: 0,
                    vals: [init; LINES_PER_PAGE as usize],
                });
                // Four billion pages is 16 TB of simulated address space
                // in live lines; the pool index cannot overflow before the
                // host runs out of memory.
                (self.pages.len() - 1) as u32
            }
        };
        self.segs[si].dir[off] = idx;
        idx as usize
    }

    /// Returns `(segment, directory offset)` for `page`, growing an
    /// adjacent segment across a hole of at most [`MAX_GAP_PAGES`] or
    /// starting a new one.
    fn cover(&mut self, page: u64) -> (usize, usize) {
        if let Some(slot) = self.slot_of(page) {
            return slot;
        }
        let i = self.segs.partition_point(|s| s.first <= page);
        let floor = i.checked_sub(1).map_or(0, |b| self.segs[b].end());
        if i > 0 && page - floor <= MAX_GAP_PAGES {
            let below = &mut self.segs[i - 1];
            let off = (page - below.first) as usize;
            below.dir.resize(off + 1, NIL);
            self.merge_with_next(i - 1);
            return (i - 1, off);
        }
        if let Some(above) = self.segs.get_mut(i) {
            if above.first - page - 1 <= MAX_GAP_PAGES {
                // Grow downward with slack proportional to the directory
                // (never into the segment below), so a descending stream
                // shifts the directory O(log n) times, not once per page.
                let slack = (above.dir.len() as u64)
                    .min(MAX_GAP_PAGES)
                    .min(page - floor);
                let first = page - slack;
                let grow = (above.first - first) as usize;
                above.dir.splice(0..0, std::iter::repeat_n(NIL, grow));
                above.first = first;
                let off = slack as usize;
                return match i.checked_sub(1) {
                    Some(b) if self.merge_with_next(b) => (b, (page - self.segs[b].first) as usize),
                    _ => (i, off),
                };
            }
        }
        self.segs.insert(
            i,
            Segment {
                first: page,
                dir: vec![NIL],
            },
        );
        (i, 0)
    }

    /// Folds segment `i + 1` into segment `i` once the hole between them
    /// is no wider than [`MAX_GAP_PAGES`], keeping segment count bounded
    /// by the number of genuinely distant regions. Returns whether it did.
    fn merge_with_next(&mut self, i: usize) -> bool {
        let Some(next) = self.segs.get(i + 1) else {
            return false;
        };
        if next.first - self.segs[i].end() > MAX_GAP_PAGES {
            return false;
        }
        let next = self.segs.remove(i + 1);
        let cur = &mut self.segs[i];
        cur.dir.resize((next.first - cur.first) as usize, NIL);
        cur.dir.extend(next.dir);
        true
    }
}

/// Trims empty directory slots off both ends of `seg`, releasing excess
/// capacity, so a segment's directory spans only its live pages rather
/// than every page it ever held.
fn trim(seg: &mut Segment) {
    let Some(lo) = seg.dir.iter().position(|&p| p != NIL) else {
        seg.dir = Vec::new();
        return;
    };
    let hi = seg.dir.iter().rposition(|&p| p != NIL).unwrap_or(lo);
    seg.dir.truncate(hi + 1);
    seg.dir.drain(..lo);
    seg.first += lo as u64;
    if seg.dir.capacity() > 4 * seg.dir.len().max(16) {
        seg.dir.shrink_to(2 * seg.dir.len());
    }
}

/// Iterates the set bit positions of a mask, lowest first.
struct SetBits(u64);

impl Iterator for SetBits {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        if self.0 == 0 {
            return None;
        }
        let bit = self.0.trailing_zeros();
        self.0 &= self.0 - 1;
        Some(bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PM: u64 = 0x0000_1000_0000_0000;
    const DRAM: u64 = 0x0000_2000_0000_0000;

    fn keys<V: Copy>(t: &LineTable<V>) -> Vec<u64> {
        t.iter().map(|(k, _)| k).collect()
    }

    /// Pages holding at least one key.
    fn live_pages<V>(t: &LineTable<V>) -> usize {
        t.pages.len() - t.free.len()
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut t = LineTable::new();
        assert!(t.is_empty());
        assert_eq!(t.insert(PM + 64, 7u64), None);
        assert_eq!(t.insert(PM + 64, 8), Some(7));
        assert_eq!(t.get(PM + 64), Some(&8));
        assert_eq!(t.get(PM), None);
        assert_eq!(t.get(DRAM + 64), None);
        *t.get_mut(PM + 64).unwrap() += 1;
        assert_eq!(t.remove(PM + 64), Some(9));
        assert_eq!(t.remove(PM + 64), None);
        assert!(t.is_empty());
        assert_eq!(live_pages(&t), 0);
    }

    #[test]
    fn pm_and_dram_keys_share_two_segments_and_iterate_in_order() {
        let mut t = LineTable::new();
        for k in [DRAM + 4096, PM + 8192, PM, DRAM, PM + 4032] {
            t.insert(k, k);
        }
        assert_eq!(t.segs.len(), 2);
        assert_eq!(keys(&t), vec![PM, PM + 4032, PM + 8192, DRAM, DRAM + 4096]);
    }

    #[test]
    fn distant_segments_merge_once_the_hole_closes() {
        let mut t = LineTable::new();
        let far = (MAX_GAP_PAGES + 2) << PAGE_SHIFT;
        t.insert(0, 0u8);
        t.insert(far, 1);
        assert_eq!(t.segs.len(), 2);
        // A key in the middle brings both holes under the bridging limit.
        t.insert(far / 2, 2);
        assert_eq!(t.segs.len(), 1);
        assert_eq!(keys(&t), vec![0, far / 2, far]);
    }

    #[test]
    fn get_or_insert_with_initialises_once() {
        let mut t = LineTable::new();
        *t.get_or_insert_with(128, || 5u32) += 1;
        *t.get_or_insert_with(128, || unreachable!()) += 1;
        assert_eq!(t.get(128), Some(&7));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn streaming_insert_remove_recycles_pages() {
        // A sliding window of 256 live lines streamed across 1M lines
        // (64 MB) of PM: only the pages under the window may be live, and
        // the pool never outgrows them.
        const WINDOW: u64 = 256;
        const LINES: u64 = 1 << 20;
        let mut t = LineTable::new();
        for i in 0..LINES {
            t.insert(PM + i * 64, i);
            if i >= WINDOW {
                assert_eq!(t.remove(PM + (i - WINDOW) * 64), Some(i - WINDOW));
            }
            assert!(live_pages(&t) <= 5);
        }
        assert_eq!(t.len(), WINDOW as usize);
        assert!(t.pages.len() <= 6, "{} pages allocated", t.pages.len());
        let survivors: Vec<u64> = (LINES - WINDOW..LINES).map(|i| PM + i * 64).collect();
        assert_eq!(keys(&t), survivors);
    }

    #[test]
    fn pruning_shrinks_directories_to_the_live_window() {
        // Descending and ascending streams with horizon-style pruning, as
        // the in-flight tables see: the directory tracks the live window
        // instead of every page the stream ever crossed.
        let mut t = LineTable::new();
        let lines = 1u64 << 18; // 16 MB of address, 4096 pages
        for (n, i) in (0..lines).rev().chain(0..lines).enumerate() {
            t.insert(PM + i * 64, n as u64);
            if n % 4096 == 4095 {
                t.retain(|_, &mut v| v + 1024 > n as u64);
                assert_eq!(t.len(), 1024);
                assert_eq!(t.segs.len(), 1);
                assert!(t.segs[0].dir.len() <= 17, "{}", t.segs[0].dir.len());
            }
        }
        assert!(t.pages.len() <= 4096 / 64 + 17);
        t.retain(|_, _| false);
        assert!(t.segs.is_empty());
    }

    #[test]
    fn clear_recycles_pages() {
        let mut t = LineTable::new();
        for i in 0..256u64 {
            t.insert(PM + i * 64, i);
        }
        assert_eq!(live_pages(&t), 4);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(live_pages(&t), 0);
        assert_eq!(t.iter().count(), 0);
        t.insert(DRAM, 1);
        assert_eq!(t.pages.len(), 4, "cleared pages are reused");
    }
}
