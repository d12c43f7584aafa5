//! Cross-crate integration tests of machine-level semantics: telemetry
//! invariants, persistence domains, NUMA, and generation differences.

use optane_study::core::{CrashPolicy, Generation, Machine, MachineConfig};
use optane_study::cpucache::PrefetchConfig;
use optane_study::pmds::{ChaseList, WriteKind};
use optane_study::pmem::{PersistMode, SimEnv};
use optane_study::simbase::XPLINE_BYTES;
use optane_study::workloads::AccessOrder;

fn g1() -> Machine {
    Machine::new(MachineConfig::g1(PrefetchConfig::none(), 1))
}

#[test]
fn amplification_is_bounded_by_four() {
    // The §2.4 geometry bound: per traffic class, the media moves at most
    // 4x what the iMC requested. (A *mixed* workload can show RA > 4
    // because read-modify-write evictions read the media without any iMC
    // read — the same artefact real `ipmwatch` numbers have — so each
    // bound is checked on a single-class phase.)
    let mut m = g1();
    let t = m.spawn(0);
    let base = m.alloc_pm(1 << 20, 256);
    // Read-only phase.
    for i in 0..3000u64 {
        let a = base.add(i * 13 * 64 % (1 << 20));
        m.load_u64(t, a);
        m.clflushopt(t, a);
    }
    let reads = m.metrics().telemetry;
    assert!(reads.read_amplification() <= 4.0 + 1e-9);
    assert!(
        reads.read_amplification() >= 1.0 - 1e-9,
        "reads must touch media"
    );
    // Write-only phase.
    m.reset_metrics();
    for i in 0..3000u64 {
        let a = base.add(i * 29 * 64 % (1 << 20));
        m.nt_store(t, a, &[1u8; 8]);
        if i % 7 == 0 {
            m.sfence(t);
        }
    }
    m.sfence(t);
    let writes = m.metrics().telemetry;
    assert!(writes.write_amplification() <= 4.0 + 1e-9);
    assert!(writes.write_amplification() >= 0.0);
}

#[test]
fn media_traffic_is_xpline_granular() {
    let mut m = g1();
    let t = m.spawn(0);
    let base = m.alloc_pm(1 << 16, 256);
    for i in 0..128u64 {
        m.load_u64(t, base.add_xplines(i));
        m.clflushopt(t, base.add_xplines(i));
    }
    let tel = m.metrics().telemetry;
    assert_eq!(
        tel.media.read % XPLINE_BYTES,
        0,
        "media moves whole XPLines"
    );
    assert_eq!(tel.imc.read % 64, 0, "iMC moves whole cachelines");
}

#[test]
fn write_buffer_absorbs_small_working_set_completely() {
    // The headline §3.2 behaviour as an invariant: a partial-write working
    // set within the G1 write buffer generates zero media writes.
    let mut m = g1();
    let t = m.spawn(0);
    let base = m.alloc_pm(8 << 10, 256);
    for round in 0..50u64 {
        for x in 0..32u64 {
            m.nt_store(t, base.add_xplines(x), &round.to_le_bytes());
        }
        m.sfence(t);
    }
    assert_eq!(m.metrics().telemetry.media.write, 0);
    let absorption = m.metrics().telemetry.write_absorption();
    assert!(
        absorption.is_some_and(|a| (a - 1.0).abs() < 1e-9),
        "full absorption: {absorption:?}"
    );
}

#[test]
fn eadr_vs_adr_crash_difference() {
    for (eadr, expect) in [(false, 0u64), (true, 99u64)] {
        let mut cfg = MachineConfig::g2(PrefetchConfig::none(), 1);
        cfg.eadr = eadr;
        let mut m = Machine::new(cfg);
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 99);
        // No flush: only eADR keeps it.
        m.power_fail(CrashPolicy::LoseUnflushed);
        assert_eq!(m.peek_u64(a), expect, "eadr={eadr}");
    }
}

#[test]
fn interleaving_engages_all_dimms() {
    let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::none(), 6));
    let t = m.spawn(0);
    let base = m.alloc_pm(6 * 4096 * 8, 4096);
    for i in 0..48u64 {
        m.load_u64(t, base.add(i * 4096));
        m.clflushopt(t, base.add(i * 4096));
    }
    let stats = m.metrics().dimms;
    assert_eq!(stats.len(), 6);
    for (i, s) in stats.iter().enumerate() {
        assert!(s.media.read > 0, "DIMM {i} saw traffic");
    }
}

#[test]
fn threads_have_independent_clocks_but_shared_memory() {
    let mut m = g1();
    let t1 = m.spawn(0);
    let t2 = m.spawn(0);
    let a = m.alloc_pm(64, 64);
    m.store_u64(t1, a, 42);
    // t2 sees t1's store functionally even though clocks differ.
    assert_eq!(m.load_u64(t2, a), 42);
    m.advance(t1, 1_000_000);
    assert!(m.now(t1) > m.now(t2));
}

#[test]
fn remote_socket_uses_its_own_caches() {
    let mut m = g1();
    let local = m.spawn(0);
    let remote = m.spawn(1);
    let a = m.alloc_pm(64, 64);
    // Warm the local socket's caches.
    m.load_u64(local, a);
    let b = m.now(remote);
    m.load_u64(remote, a);
    let remote_first = m.now(remote) - b;
    assert!(
        remote_first > 500,
        "remote thread's first load misses its own hierarchy: {remote_first}"
    );
}

#[test]
fn generation_presets_differ_observably() {
    // One concrete observable per §3 finding: reread of a clwb'd line.
    let run = |gen: Generation| {
        let mut m = Machine::new(MachineConfig::for_generation(
            gen,
            PrefetchConfig::none(),
            1,
        ));
        let t = m.spawn(0);
        let a = m.alloc_pm(64, 64);
        m.store_u64(t, a, 1);
        m.clwb(t, a);
        m.mfence(t);
        let b = m.now(t);
        m.load_u64(t, a);
        m.now(t) - b
    };
    let g1_lat = run(Generation::G1);
    let g2_lat = run(Generation::G2);
    assert!(
        g1_lat > g2_lat * 10,
        "G1 invalidating clwb vs G2 retaining clwb: {g1_lat} vs {g2_lat}"
    );
}

#[test]
fn cold_reset_resets_timing_but_not_data() {
    let mut m = g1();
    let t = m.spawn(0);
    let base = m.alloc_pm(4096, 256);
    for i in 0..16u64 {
        m.store_u64(t, base.add_xplines(i), i);
        m.clwb(t, base.add_xplines(i));
    }
    m.sfence(t);
    m.cold_reset();
    let before = m.metrics().telemetry;
    assert_eq!(before.imc.read, 0);
    for i in 0..16u64 {
        assert_eq!(m.load_u64(t, base.add_xplines(i)), i);
    }
    assert!(m.metrics().telemetry.media.read > 0, "caches were cold");
}

#[test]
fn dirty_llc_eviction_is_a_persist_point() {
    // Writes that are never flushed still become durable when the cache
    // hierarchy evicts them — the reason uncontrolled eviction order
    // matters for crash consistency.
    let mut m = g1();
    let t = m.spawn(0);
    let a = m.alloc_pm(64, 64);
    m.store_u64(t, a, 7);
    let filler = m.alloc_pm(40 << 20, 64);
    for i in 0..((40 << 20) / 64u64) {
        m.store_u64(t, filler.add_cachelines(i), i);
    }
    let tel = m.metrics().telemetry;
    assert!(tel.imc.write > 0, "evictions generated PM writes");
    m.power_fail(CrashPolicy::LoseUnflushed);
    assert_eq!(m.peek_u64(a), 7);
}

#[test]
fn streaming_copy_round_trips_and_avoids_prefetch_training() {
    let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::all(), 1));
    let t = m.spawn(0);
    let src = m.alloc_pm(XPLINE_BYTES * 16, 256);
    let dst = m.alloc_dram(XPLINE_BYTES, 64);
    for i in 0..64u64 {
        m.store_u64(t, src.add_cachelines(i), i);
    }
    for i in 0..64u64 {
        m.clwb(t, src.add_cachelines(i));
    }
    m.sfence(t);
    m.cold_reset();
    let before = m.metrics().telemetry;
    // Copy four scattered XPLines; prefetchers must not amplify media
    // reads beyond the demanded lines.
    for &x in &[3u64, 9, 1, 14] {
        m.copy_xpline_streaming(t, src.add_xplines(x), dst);
        for cl in 0..4u64 {
            assert_eq!(m.peek_u64(dst.add_cachelines(cl)), x * 4 + cl);
        }
    }
    let d = m.metrics().telemetry.delta(&before);
    assert_eq!(d.media.read, 4 * XPLINE_BYTES, "no prefetch waste");
}

#[test]
fn read_buffer_capacity_sets_the_ra_step() {
    // One cacheline per pass over 64 XPLines (16 KB): a buffer of 64 or
    // more lines serves passes 2–4, a 32-line buffer re-reads the media.
    for (lines, ra) in [(32usize, 4.0), (64, 1.0), (128, 1.0)] {
        let mut cfg = MachineConfig::g1(PrefetchConfig::none(), 1);
        cfg.pm.dimm.read_buffer_lines = lines;
        let mut m = Machine::new(cfg);
        let t = m.spawn(0);
        let base = m.alloc_pm(16 << 10, 256);
        for pass in 0..4u64 {
            for x in 0..64u64 {
                let a = base.add_xplines(x).add_cachelines(pass);
                m.load_u64(t, a);
                m.clflushopt(t, a);
            }
        }
        assert_eq!(
            m.metrics().telemetry.read_amplification(),
            ra,
            "{lines} lines"
        );
    }
}

#[test]
fn eadr_leaves_persist_timing_unchanged() {
    // eADR changes what a crash keeps (`eadr_vs_adr_crash_difference`),
    // not what a strict-persistency clwb chase costs per element.
    for eadr in [false, true] {
        let mut cfg = MachineConfig::g2(PrefetchConfig::all(), 1);
        cfg.eadr = eadr;
        let mut m = Machine::new(cfg);
        let t = m.spawn(0);
        let mut env = SimEnv::new(&mut m, t);
        let list = ChaseList::build(&mut env, 256, AccessOrder::Random, 1);
        let per_element = list.lap_write(&mut env, WriteKind::Clwb, PersistMode::Strict, 1);
        assert_eq!(per_element, 750, "eadr={eadr}");
    }
}

#[test]
fn prefetchers_leave_a_sequential_chase_unchanged() {
    // A 1 MB sequential chase over 256 B elements costs the same per
    // element with every prefetcher on as with none: the adjacent-line
    // prefetcher fills each element's unread pad line, and the streamer
    // never trains on the four-line stride.
    for pf in [PrefetchConfig::none(), PrefetchConfig::all()] {
        let mut m = Machine::new(MachineConfig::g1(pf, 1));
        let t = m.spawn(0);
        let mut env = SimEnv::new(&mut m, t);
        let list = ChaseList::build(&mut env, 4096, AccessOrder::Sequential, 2);
        assert_eq!(list.lap_read(&mut env), 447);
        let prefetch = env.machine().metrics().sockets[0].prefetch;
        assert_eq!(prefetch.stream, 0);
        assert_eq!(prefetch.adjacent, if pf.adjacent_line { 4096 } else { 0 });
    }
}
