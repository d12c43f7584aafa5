//! Machine checkpoints: serializable snapshots for supervised, resumable
//! experiment runs.
//!
//! [`CrashImage`](crate::CrashImage) freezes *persistence* state for
//! crash-consistency exploration; [`MachineSnapshot`] extends the idea
//! into a full experiment checkpoint: functional memory images (PM and
//! DRAM), allocator watermarks, poisoned lines, every thread's simulated
//! clock, the crash RNG stream, and the demand byte counters. A long job
//! serializes one of these periodically; after a `kill -9`, the harness
//! restores it and the job continues as if never interrupted.
//!
//! # Quiesce semantics
//!
//! A checkpoint is taken at a *quiesce point*: [`Machine::checkpoint`]
//! first folds the volatile overlay into the persistent image and resets
//! all transient timing state (caches, controller queues, in-flight
//! fills), exactly like [`Machine::cold_reset`] — and then captures the
//! machine. Crucially, `checkpoint` leaves the live machine in *precisely
//! the state a later [`Machine::restore`] reproduces*, so a run that
//! checkpoints and keeps going is cycle-for-cycle identical to a run that
//! is killed and resumed from that checkpoint. Experiment drivers that
//! checkpoint must therefore do so at deterministic points (e.g. every N
//! operations) on every run, resumed or not.
//!
//! The snapshot does not carry trace sinks or armed fault hooks;
//! `checkpoint` disarms fault hooks and clears fault statistics so the
//! live machine matches the restored one. Checkpointing is meant for
//! measurement jobs, not mid-fault-injection states (those use
//! [`CrashImage`](crate::CrashImage)).
//!
//! The on-disk encoding is versioned and *checked*: torn or truncated
//! files decode to [`SnapshotError`], never a panic, because checkpoint
//! files are read back precisely after unclean shutdowns.

use std::fmt;

use cpucache::{CacheHierarchyStats, CacheLevelStats, PrefetcherStats};
use imc::ImcQueueStats;
use simbase::{ByteCounter, HitMiss, QueueStats, WireError, WireReader, WireWriter};
use xpdimm::DimmStats;
use xpmedia::SparseStore;

use crate::config::MachineConfig;
use crate::metrics::MachineMetrics;
use crate::telemetry::TelemetrySnapshot;

/// Magic + version prefix of an encoded snapshot.
///
/// `03` added the multi-thread execution counters to the folded metrics
/// baseline; `02` added the baseline itself. Older snapshots are rejected
/// (jobs restart from scratch rather than resume with silently dropped
/// counters).
const MAGIC: &[u8; 8] = b"OPSNAP03";

/// A malformed, truncated, or mismatched snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not begin with the snapshot magic/version.
    BadMagic,
    /// The buffer ended early or a length prefix was implausible.
    Wire(WireError),
    /// The snapshot was captured under a different machine configuration
    /// than the one supplied to [`Machine::restore`](crate::Machine::restore).
    ConfigMismatch {
        /// Fingerprint of the configuration supplied at restore.
        expected: u64,
        /// Fingerprint recorded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => write!(f, "not a machine snapshot (bad magic)"),
            SnapshotError::Wire(e) => write!(f, "malformed snapshot: {e}"),
            SnapshotError::ConfigMismatch { expected, found } => write!(
                f,
                "snapshot config fingerprint {found:#x} does not match the supplied \
                 configuration ({expected:#x})"
            ),
        }
    }
}

impl std::error::Error for SnapshotError {}

impl From<WireError> for SnapshotError {
    fn from(e: WireError) -> Self {
        SnapshotError::Wire(e)
    }
}

/// One simulated hardware thread's checkpointed placement and clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadSnapshot {
    /// Socket the thread runs on.
    pub socket: usize,
    /// Core index within the socket.
    pub core: usize,
    /// The thread's simulated time at capture.
    pub now: u64,
}

/// A full machine checkpoint (see the module docs for semantics).
#[derive(Debug, Clone)]
pub struct MachineSnapshot {
    /// Fingerprint of the capturing machine's configuration; restore
    /// validates it against the supplied [`MachineConfig`].
    pub cfg_fingerprint: u64,
    /// The persistent PM image (overlay already folded in).
    pub persistent: SparseStore,
    /// The volatile DRAM image.
    pub dram_image: SparseStore,
    /// PM allocator watermark.
    pub pm_next: u64,
    /// DRAM allocator watermark.
    pub dram_next: u64,
    /// Poisoned (uncorrectable) lines at capture, sorted.
    pub poisoned: Vec<u64>,
    /// Every spawned thread, in spawn order.
    pub threads: Vec<ThreadSnapshot>,
    /// Round-robin spawn cursor per socket.
    pub next_core: [usize; 2],
    /// Crash RNG stream state.
    pub crash_rng_state: u64,
    /// Demand byte counters at capture.
    pub demand: ByteCounter,
    /// Cumulative metrics folded at the quiesce point (demand zeroed —
    /// it travels in [`MachineSnapshot::demand`]). Restore seeds the
    /// machine's baseline from this so the metrics view is continuous.
    pub metrics_baseline: MachineMetrics,
}

/// FNV-1a over the `Debug` rendering of the configuration. The config is
/// plain data built from constants, so its `Debug` form is a stable,
/// total description; hashing it detects restore-under-wrong-config
/// without serializing every nested parameter struct.
pub fn config_fingerprint(cfg: &MachineConfig) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{cfg:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

fn put_byte_counter(w: &mut WireWriter, c: &ByteCounter) {
    w.put_u64(c.read);
    w.put_u64(c.write);
}

fn get_byte_counter(r: &mut WireReader<'_>) -> Result<ByteCounter, SnapshotError> {
    let mut c = ByteCounter::new();
    c.add_read(r.get_u64()?);
    c.add_write(r.get_u64()?);
    Ok(c)
}

fn put_hit_miss(w: &mut WireWriter, hm: &HitMiss) {
    w.put_u64(hm.hits);
    w.put_u64(hm.misses);
}

fn get_hit_miss(r: &mut WireReader<'_>) -> Result<HitMiss, SnapshotError> {
    Ok(HitMiss::of(r.get_u64()?, r.get_u64()?))
}

fn put_queue_stats(w: &mut WireWriter, q: &QueueStats) {
    w.put_u64(q.accepts);
    w.put_u64(q.max_depth);
    w.put_u64(q.stall_cycles);
}

fn get_queue_stats(r: &mut WireReader<'_>) -> Result<QueueStats, SnapshotError> {
    Ok(QueueStats {
        accepts: r.get_u64()?,
        max_depth: r.get_u64()?,
        stall_cycles: r.get_u64()?,
    })
}

fn put_cache_level(w: &mut WireWriter, l: &CacheLevelStats) {
    w.put_u64(l.hits);
    w.put_u64(l.misses);
    w.put_u64(l.prefetch_fills);
}

fn get_cache_level(r: &mut WireReader<'_>) -> Result<CacheLevelStats, SnapshotError> {
    Ok(CacheLevelStats {
        hits: r.get_u64()?,
        misses: r.get_u64()?,
        prefetch_fills: r.get_u64()?,
    })
}

fn encode_metrics(w: &mut WireWriter, m: &MachineMetrics) {
    put_byte_counter(w, &m.telemetry.imc);
    put_byte_counter(w, &m.telemetry.media);
    put_byte_counter(w, &m.telemetry.dram);
    put_byte_counter(w, &m.telemetry.demand);
    w.put_u64(m.sockets.len() as u64);
    for s in &m.sockets {
        put_cache_level(w, &s.l1);
        put_cache_level(w, &s.l2);
        put_cache_level(w, &s.l3);
        w.put_u64(s.prefetch.dcu);
        w.put_u64(s.prefetch.adjacent);
        w.put_u64(s.prefetch.stream);
    }
    w.put_u64(m.dimms.len() as u64);
    for d in &m.dimms {
        put_hit_miss(w, &d.read_buffer);
        put_hit_miss(w, &d.write_buffer);
        put_byte_counter(w, &d.media);
        put_hit_miss(w, &d.ait);
        w.put_u64(d.rmw_reads);
        w.put_u64(d.periodic_writebacks);
        w.put_u64(d.evictions);
    }
    w.put_u64(m.queues.len() as u64);
    for q in &m.queues {
        put_queue_stats(w, &q.rpq);
        put_queue_stats(w, &q.wpq);
    }
    w.put_u64(m.mt.cas_ops);
    w.put_u64(m.mt.cas_failures);
    w.put_u64(m.mt.fetch_adds);
    w.put_u64(m.mt.persist_epochs);
    w.put_u64(m.mt.sb_max_depth);
}

fn decode_metrics(r: &mut WireReader<'_>) -> Result<MachineMetrics, SnapshotError> {
    let telemetry = TelemetrySnapshot {
        imc: get_byte_counter(r)?,
        media: get_byte_counter(r)?,
        dram: get_byte_counter(r)?,
        demand: get_byte_counter(r)?,
    };
    let n_sockets = r.get_u64()?;
    let mut sockets = Vec::with_capacity(n_sockets.min(1 << 8) as usize);
    for _ in 0..n_sockets {
        sockets.push(CacheHierarchyStats {
            l1: get_cache_level(r)?,
            l2: get_cache_level(r)?,
            l3: get_cache_level(r)?,
            prefetch: PrefetcherStats {
                dcu: r.get_u64()?,
                adjacent: r.get_u64()?,
                stream: r.get_u64()?,
            },
        });
    }
    let n_dimms = r.get_u64()?;
    let mut dimms = Vec::with_capacity(n_dimms.min(1 << 8) as usize);
    for _ in 0..n_dimms {
        dimms.push(DimmStats {
            read_buffer: get_hit_miss(r)?,
            write_buffer: get_hit_miss(r)?,
            media: get_byte_counter(r)?,
            ait: get_hit_miss(r)?,
            rmw_reads: r.get_u64()?,
            periodic_writebacks: r.get_u64()?,
            evictions: r.get_u64()?,
        });
    }
    let n_queues = r.get_u64()?;
    let mut queues = Vec::with_capacity(n_queues.min(1 << 8) as usize);
    for _ in 0..n_queues {
        queues.push(ImcQueueStats {
            rpq: get_queue_stats(r)?,
            wpq: get_queue_stats(r)?,
        });
    }
    let mt = crate::metrics::MtStats {
        cas_ops: r.get_u64()?,
        cas_failures: r.get_u64()?,
        fetch_adds: r.get_u64()?,
        persist_epochs: r.get_u64()?,
        sb_max_depth: r.get_u64()?,
    };
    Ok(MachineMetrics {
        telemetry,
        sockets,
        dimms,
        queues,
        mt,
    })
}

fn encode_store(w: &mut WireWriter, s: &SparseStore) {
    let pages = s.sorted_pages();
    w.put_u64(pages.len() as u64);
    for (n, contents) in pages {
        w.put_u64(n);
        w.put_bytes(contents);
    }
}

fn decode_store(r: &mut WireReader<'_>) -> Result<SparseStore, SnapshotError> {
    let count = r.get_u64()?;
    let mut s = SparseStore::new();
    for _ in 0..count {
        let n = r.get_u64()?;
        if n > SparseStore::MAX_PAGE {
            return Err(SnapshotError::Wire(WireError::ImplausibleLength(n)));
        }
        let contents = r.get_bytes()?;
        if contents.len() as u64 != SparseStore::PAGE_BYTES {
            return Err(SnapshotError::Wire(WireError::ImplausibleLength(
                contents.len() as u64,
            )));
        }
        s.install_page(n, contents);
    }
    Ok(s)
}

impl MachineSnapshot {
    /// Serializes the snapshot to a self-describing byte buffer.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_bytes(MAGIC);
        w.put_u64(self.cfg_fingerprint);
        encode_store(&mut w, &self.persistent);
        encode_store(&mut w, &self.dram_image);
        w.put_u64(self.pm_next);
        w.put_u64(self.dram_next);
        w.put_u64(self.poisoned.len() as u64);
        for &p in &self.poisoned {
            w.put_u64(p);
        }
        w.put_u64(self.threads.len() as u64);
        for t in &self.threads {
            w.put_u64(t.socket as u64);
            w.put_u64(t.core as u64);
            w.put_u64(t.now);
        }
        w.put_u64(self.next_core[0] as u64);
        w.put_u64(self.next_core[1] as u64);
        w.put_u64(self.crash_rng_state);
        w.put_u64(self.demand.read);
        w.put_u64(self.demand.write);
        encode_metrics(&mut w, &self.metrics_baseline);
        w.into_bytes()
    }

    /// Decodes a snapshot previously produced by [`MachineSnapshot::encode`].
    pub fn decode(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let mut r = WireReader::new(bytes);
        if r.get_bytes()? != MAGIC {
            return Err(SnapshotError::BadMagic);
        }
        let cfg_fingerprint = r.get_u64()?;
        let persistent = decode_store(&mut r)?;
        let dram_image = decode_store(&mut r)?;
        let pm_next = r.get_u64()?;
        let dram_next = r.get_u64()?;
        let n_poisoned = r.get_u64()?;
        let mut poisoned = Vec::with_capacity(n_poisoned.min(1 << 20) as usize);
        for _ in 0..n_poisoned {
            poisoned.push(r.get_u64()?);
        }
        let n_threads = r.get_u64()?;
        let mut threads = Vec::with_capacity(n_threads.min(1 << 16) as usize);
        for _ in 0..n_threads {
            let socket = r.get_u64()? as usize;
            let core = r.get_u64()? as usize;
            let now = r.get_u64()?;
            threads.push(ThreadSnapshot { socket, core, now });
        }
        let next_core = [r.get_u64()? as usize, r.get_u64()? as usize];
        let crash_rng_state = r.get_u64()?;
        let mut demand = ByteCounter::new();
        demand.add_read(r.get_u64()?);
        demand.add_write(r.get_u64()?);
        let metrics_baseline = decode_metrics(&mut r)?;
        Ok(MachineSnapshot {
            cfg_fingerprint,
            persistent,
            dram_image,
            pm_next,
            dram_next,
            poisoned,
            threads,
            next_core,
            crash_rng_state,
            demand,
            metrics_baseline,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpucache::PrefetchConfig;
    use simbase::Addr;

    fn sample() -> MachineSnapshot {
        let cfg = MachineConfig::g1(PrefetchConfig::none(), 1);
        let mut persistent = SparseStore::new();
        persistent.write_u64(Addr(0x1000), 42);
        let mut dram_image = SparseStore::new();
        dram_image.write_u64(Addr(0x2000), 7);
        MachineSnapshot {
            cfg_fingerprint: config_fingerprint(&cfg),
            persistent,
            dram_image,
            pm_next: 0x1000_0000_0000_1234,
            dram_next: 0x2000_0000_0000_5678,
            poisoned: vec![64, 128],
            threads: vec![
                ThreadSnapshot {
                    socket: 0,
                    core: 0,
                    now: 999,
                },
                ThreadSnapshot {
                    socket: 1,
                    core: 3,
                    now: 1234,
                },
            ],
            next_core: [1, 4],
            crash_rng_state: 0xDEAD_BEEF,
            demand: {
                let mut d = ByteCounter::new();
                d.add_read(100);
                d.add_write(200);
                d
            },
            metrics_baseline: {
                let mut m = MachineMetrics::default();
                m.telemetry.imc = ByteCounter {
                    read: 640,
                    write: 320,
                };
                m.sockets.push(CacheHierarchyStats {
                    l1: CacheLevelStats {
                        hits: 10,
                        misses: 2,
                        prefetch_fills: 0,
                    },
                    ..CacheHierarchyStats::default()
                });
                m.dimms.push(DimmStats {
                    read_buffer: HitMiss::of(7, 3),
                    evictions: 5,
                    ..DimmStats::default()
                });
                m.queues.push(ImcQueueStats {
                    wpq: QueueStats {
                        accepts: 9,
                        max_depth: 4,
                        stall_cycles: 123,
                    },
                    ..ImcQueueStats::default()
                });
                m
            },
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let s = sample();
        let bytes = s.encode();
        let d = MachineSnapshot::decode(&bytes).unwrap();
        assert_eq!(d.cfg_fingerprint, s.cfg_fingerprint);
        assert_eq!(d.pm_next, s.pm_next);
        assert_eq!(d.dram_next, s.dram_next);
        assert_eq!(d.poisoned, s.poisoned);
        assert_eq!(d.threads, s.threads);
        assert_eq!(d.next_core, s.next_core);
        assert_eq!(d.crash_rng_state, s.crash_rng_state);
        assert_eq!(d.demand, s.demand);
        assert_eq!(d.metrics_baseline, s.metrics_baseline);
        assert_eq!(d.persistent.read_u64(Addr(0x1000)), 42);
        assert_eq!(d.dram_image.read_u64(Addr(0x2000)), 7);
        // Deterministic encoding: re-encoding the decoded snapshot is
        // byte-identical.
        assert_eq!(d.encode(), bytes);
    }

    #[test]
    fn truncated_snapshot_is_a_typed_error() {
        let bytes = sample().encode();
        for cut in [0, 4, 8, bytes.len() / 2, bytes.len() - 1] {
            let r = MachineSnapshot::decode(&bytes[..cut]);
            assert!(r.is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn page_number_beyond_the_address_space_is_a_typed_error() {
        let mut bytes = sample().encode();
        // The persistent image's one page (number 1) and its length prefix.
        let page: Vec<u8> = [1u64, SparseStore::PAGE_BYTES]
            .iter()
            .flat_map(|v| v.to_le_bytes())
            .collect();
        let at = bytes.windows(16).position(|w| w == page).unwrap();
        bytes[at..at + 8].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            MachineSnapshot::decode(&bytes),
            Err(SnapshotError::Wire(WireError::ImplausibleLength(u64::MAX)))
        ));
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let mut bytes = sample().encode();
        bytes[8] = b'X'; // first magic byte (after the length prefix)
        assert!(matches!(
            MachineSnapshot::decode(&bytes),
            Err(SnapshotError::BadMagic)
        ));
    }

    #[test]
    fn fingerprints_differ_across_configs() {
        let a = config_fingerprint(&MachineConfig::g1(PrefetchConfig::none(), 1));
        let b = config_fingerprint(&MachineConfig::g2(PrefetchConfig::none(), 1));
        let c = config_fingerprint(&MachineConfig::g1(PrefetchConfig::none(), 6));
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
