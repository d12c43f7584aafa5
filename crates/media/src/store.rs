//! Sparse byte-addressable backing store.
//!
//! Experiments sweep working sets from 4 KB to 1 GB inside a much larger
//! simulated physical address space, so the functional image is stored
//! sparsely: 4 KB page buffers found through a dense, address-ordered
//! page index. Unwritten memory reads as zero, matching freshly-allocated
//! DAX pages.

use simbase::{Addr, LineTable};

/// Size of one allocation unit in the sparse store.
const PAGE_BYTES: u64 = 4096;

/// `log2(PAGE_BYTES / CACHELINE_BYTES)`: shifting a page number left by
/// this turns it into a cacheline-aligned [`LineTable`] key, so 64
/// consecutive pages share one table page.
const INDEX_SHIFT: u32 = 6;

/// Largest page number inside the 64-bit address space.
const MAX_PAGE: u64 = u64::MAX / PAGE_BYTES;

/// A sparse, byte-addressable memory image.
///
/// Used both as the persistent media image (the bytes that survive a crash)
/// and as the volatile DRAM image in the machine model.
///
/// Page buffers live in an arena (`slabs`) addressed through a
/// [`LineTable`] keyed by `page_number << 6`. Every functional read that
/// misses the machine's volatile overlay lands here, so finding a page
/// costs a segment compare, a directory index and a bit test, from `&self`
/// as well as `&mut self`.
#[derive(Debug, Default, Clone)]
pub struct SparseStore {
    /// `page_number << INDEX_SHIFT` → arena slot. Iterates in ascending
    /// page order, so snapshot encodings and diffs are identical across
    /// processes — the determinism contract (DESIGN.md) bans unordered
    /// maps in serialization paths.
    index: LineTable<u32>,
    /// Page buffers, in first-touch order. Never iterated directly:
    /// everything order-sensitive goes through `index`.
    slabs: Vec<Box<[u8; PAGE_BYTES as usize]>>,
}

impl SparseStore {
    /// Creates an empty (all-zero) store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the arena slot of `page` without allocating.
    #[inline]
    fn slot_of(&self, page: u64) -> Option<usize> {
        self.index.get(page << INDEX_SHIFT).map(|&s| s as usize)
    }

    /// Returns the arena slot of `page`, allocating a zeroed page if
    /// absent.
    #[inline]
    fn slot_of_mut(&mut self, page: u64) -> usize {
        let slabs = &mut self.slabs;
        *self.index.get_or_insert_with(page << INDEX_SHIFT, || {
            slabs.push(Box::new([0u8; PAGE_BYTES as usize]));
            // Four billion pages is 16 TB of resident image; the host
            // runs out of memory long before the slot index overflows.
            (slabs.len() - 1) as u32
        }) as usize
    }

    /// Reads `buf.len()` bytes starting at `addr`.
    pub fn read(&self, addr: Addr, buf: &mut [u8]) {
        let mut pos = addr.0;
        let mut remaining: &mut [u8] = buf;
        while !remaining.is_empty() {
            let page = pos / PAGE_BYTES;
            let offset = (pos % PAGE_BYTES) as usize;
            let chunk = remaining.len().min(PAGE_BYTES as usize - offset);
            let (head, tail) = remaining.split_at_mut(chunk);
            match self.slot_of(page) {
                Some(s) => head.copy_from_slice(&self.slabs[s][offset..offset + chunk]),
                None => head.fill(0),
            }
            remaining = tail;
            pos += chunk as u64;
        }
    }

    /// Writes `buf` starting at `addr`.
    pub fn write(&mut self, addr: Addr, buf: &[u8]) {
        let mut pos = addr.0;
        let mut remaining = buf;
        while !remaining.is_empty() {
            let page = pos / PAGE_BYTES;
            let offset = (pos % PAGE_BYTES) as usize;
            let chunk = remaining.len().min(PAGE_BYTES as usize - offset);
            let slot = self.slot_of_mut(page);
            self.slabs[slot][offset..offset + chunk].copy_from_slice(&remaining[..chunk]);
            remaining = &remaining[chunk..];
            pos += chunk as u64;
        }
    }

    /// Reads a little-endian `u64` at `addr`.
    pub fn read_u64(&self, addr: Addr) -> u64 {
        let mut b = [0u8; 8];
        self.read(addr, &mut b);
        u64::from_le_bytes(b)
    }

    /// Writes a little-endian `u64` at `addr`.
    pub fn write_u64(&mut self, addr: Addr, value: u64) {
        self.write(addr, &value.to_le_bytes());
    }

    /// Returns the number of resident (allocated) pages.
    pub fn resident_pages(&self) -> usize {
        self.index.len()
    }

    /// Size in bytes of one allocation unit, for page-level snapshots.
    pub const PAGE_BYTES: u64 = PAGE_BYTES;

    /// Largest valid page number: the last page of the 64-bit address
    /// space.
    pub const MAX_PAGE: u64 = MAX_PAGE;

    /// Returns `(page_number, contents)` for every resident page, sorted
    /// by page number so snapshot encodings are deterministic (the index
    /// iterates in ascending key order).
    pub fn sorted_pages(&self) -> Vec<(u64, &[u8])> {
        self.index
            .iter()
            .map(|(k, &s)| (k >> INDEX_SHIFT, self.slabs[s as usize].as_slice()))
            .collect()
    }

    /// Installs a full page at `page_number` (inverse of
    /// [`SparseStore::sorted_pages`]).
    ///
    /// # Panics
    ///
    /// Panics if `contents` is not exactly one page long or `page_number`
    /// exceeds [`SparseStore::MAX_PAGE`].
    pub fn install_page(&mut self, page_number: u64, contents: &[u8]) {
        assert!(
            page_number <= MAX_PAGE,
            "page {page_number:#x} lies beyond the 64-bit address space"
        );
        assert_eq!(
            contents.len() as u64,
            PAGE_BYTES,
            "a page is exactly {PAGE_BYTES} bytes"
        );
        let slot = self.slot_of_mut(page_number);
        self.slabs[slot].copy_from_slice(contents);
    }

    /// Drops all contents, returning the store to all-zero.
    pub fn clear(&mut self) {
        self.index.clear();
        self.slabs.clear();
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use simbase::SplitMix64;

    use super::*;

    #[test]
    fn unwritten_memory_reads_zero() {
        let s = SparseStore::new();
        let mut buf = [0xAAu8; 16];
        s.read(Addr(12345), &mut buf);
        assert_eq!(buf, [0u8; 16]);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = SparseStore::new();
        let data: Vec<u8> = (0..=255).collect();
        s.write(Addr(100), &data);
        let mut buf = vec![0u8; 256];
        s.read(Addr(100), &mut buf);
        assert_eq!(buf, data);
    }

    #[test]
    fn writes_crossing_page_boundaries() {
        let mut s = SparseStore::new();
        let data = [0x5Au8; 64];
        // Straddles the boundary between page 0 and page 1.
        s.write(Addr(PAGE_BYTES - 32), &data);
        let mut buf = [0u8; 64];
        s.read(Addr(PAGE_BYTES - 32), &mut buf);
        assert_eq!(buf, data);
        assert_eq!(s.resident_pages(), 2);
    }

    #[test]
    fn u64_round_trip() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(8), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(s.read_u64(Addr(8)), 0xDEAD_BEEF_CAFE_F00D);
        assert_eq!(s.read_u64(Addr(0)), 0);
    }

    #[test]
    fn u64_crossing_page_boundary() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(PAGE_BYTES - 4), 0x0123_4567_89AB_CDEF);
        assert_eq!(s.read_u64(Addr(PAGE_BYTES - 4)), 0x0123_4567_89AB_CDEF);
    }

    #[test]
    fn overlapping_writes_take_latest() {
        let mut s = SparseStore::new();
        s.write(Addr(0), &[1u8; 8]);
        s.write(Addr(4), &[2u8; 8]);
        let mut buf = [0u8; 12];
        s.read(Addr(0), &mut buf);
        assert_eq!(&buf[..4], &[1, 1, 1, 1]);
        assert_eq!(&buf[4..], &[2u8; 8]);
    }

    #[test]
    fn clear_resets_contents() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(0), 7);
        s.clear();
        assert_eq!(s.read_u64(Addr(0)), 0);
        assert_eq!(s.resident_pages(), 0);
    }

    #[test]
    fn page_snapshot_round_trips_and_is_sorted() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(3 * PAGE_BYTES), 3);
        s.write_u64(Addr(0), 1);
        s.write_u64(Addr(7 * PAGE_BYTES + 100), 7);
        let pages = s.sorted_pages();
        let ids: Vec<u64> = pages.iter().map(|&(n, _)| n).collect();
        assert_eq!(ids, vec![0, 3, 7]);
        let mut restored = SparseStore::new();
        for (n, contents) in pages {
            restored.install_page(n, contents);
        }
        assert_eq!(restored.read_u64(Addr(0)), 1);
        assert_eq!(restored.read_u64(Addr(3 * PAGE_BYTES)), 3);
        assert_eq!(restored.read_u64(Addr(7 * PAGE_BYTES + 100)), 7);
        assert_eq!(restored.resident_pages(), 3);
    }

    #[test]
    fn sparse_distant_addresses() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(0), 1);
        s.write_u64(Addr(1 << 40), 2);
        assert_eq!(s.read_u64(Addr(0)), 1);
        assert_eq!(s.read_u64(Addr(1 << 40)), 2);
        assert_eq!(s.resident_pages(), 2);
    }

    /// Reference model: the obvious ordered map of whole pages.
    #[derive(Default)]
    struct Model(BTreeMap<u64, [u8; PAGE_BYTES as usize]>);

    impl Model {
        fn write(&mut self, addr: u64, buf: &[u8]) {
            for (i, &b) in buf.iter().enumerate() {
                let a = addr + i as u64;
                let page = self
                    .0
                    .entry(a / PAGE_BYTES)
                    .or_insert([0; PAGE_BYTES as usize]);
                page[(a % PAGE_BYTES) as usize] = b;
            }
        }

        fn read(&self, addr: u64, len: usize) -> Vec<u8> {
            (0..len as u64)
                .map(|i| {
                    let a = addr + i;
                    self.0
                        .get(&(a / PAGE_BYTES))
                        .map_or(0, |p| p[(a % PAGE_BYTES) as usize])
                })
                .collect()
        }
    }

    #[test]
    fn differential_against_a_btreemap_of_pages() {
        // Bases where the machine and the tests put data: address 0, the
        // PM and DRAM windows, and a distant 1 TB hole.
        const BASES: [u64; 4] = [0, 0x0000_1000_0000_0000, 0x0000_2000_0000_0000, 1 << 40];
        let mut rng = SplitMix64::new(0x5eed);
        let mut store = SparseStore::new();
        let mut model = Model::default();
        for step in 0..20_000 {
            let base = BASES[rng.gen_range(BASES.len() as u64) as usize];
            // Up to 64 pages from the base, biased onto page edges.
            let mut addr = base + rng.gen_range(64) * PAGE_BYTES;
            addr += if rng.gen_bool(0.5) {
                PAGE_BYTES - 1 - rng.gen_range(80)
            } else {
                rng.gen_range(PAGE_BYTES)
            };
            let max_len = if rng.gen_bool(0.1) { 9000 } else { 80 };
            let len = 1 + rng.gen_range(max_len) as usize;
            match rng.gen_range(100) {
                0..=44 => {
                    let buf: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    store.write(Addr(addr), &buf);
                    model.write(addr, &buf);
                }
                45..=89 => {
                    let mut got = vec![0xEE; len];
                    store.read(Addr(addr), &mut got);
                    assert_eq!(
                        got,
                        model.read(addr, len),
                        "step {step} read {addr:#x}+{len}"
                    );
                }
                90..=97 => {
                    let page = addr / PAGE_BYTES;
                    let contents: Vec<u8> = (0..PAGE_BYTES).map(|_| rng.next_u64() as u8).collect();
                    store.install_page(page, &contents);
                    let mut whole = [0u8; PAGE_BYTES as usize];
                    whole.copy_from_slice(&contents);
                    model.0.insert(page, whole);
                }
                98 => {
                    let pages = store.sorted_pages();
                    let expect: Vec<(u64, &[u8])> =
                        model.0.iter().map(|(&n, p)| (n, p.as_slice())).collect();
                    assert_eq!(pages, expect, "step {step}");
                }
                _ => {
                    if rng.gen_range(20) == 0 {
                        store.clear();
                        model.0.clear();
                    }
                }
            }
            assert_eq!(store.resident_pages(), model.0.len(), "step {step}");
        }
        let pages = store.sorted_pages();
        assert!(pages.len() > 64, "the stream left {} pages", pages.len());
        let expect: Vec<(u64, &[u8])> = model.0.iter().map(|(&n, p)| (n, p.as_slice())).collect();
        assert_eq!(pages, expect);
    }

    #[test]
    fn highest_page_of_the_address_space_round_trips() {
        let mut s = SparseStore::new();
        s.write_u64(Addr(u64::MAX - 15), 9);
        s.write_u64(Addr(0), 1);
        assert_eq!(s.read_u64(Addr(u64::MAX - 15)), 9);
        let ids: Vec<u64> = s.sorted_pages().iter().map(|&(n, _)| n).collect();
        assert_eq!(ids, vec![0, SparseStore::MAX_PAGE]);
    }
}
