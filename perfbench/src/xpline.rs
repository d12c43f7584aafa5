//! `xpline_stream`: one simulated G1 thread streams nt-stores into one
//! half of a PM region beside a load + `clflushopt` read pass over the
//! other half, one 4 KB chunk of each per step, with an `sfence` after
//! each. The halves swap every window, so each window reads back what the
//! previous one wrote.
//!
//! Each half is over 32 MB: larger than the 27.5 MB LLC and twice the
//! 16 MB the AIT covers, so the read buffer, the write-combining buffer
//! and the AIT all evict. `core` dispatch, `memctl`, `dimm` and `media`
//! do nearly all the work; `cache` only sees the read pass's loads, which
//! the flushes evict again; `datastores` and `cluster` do nothing.

use std::time::Instant;

use cpucache::PrefetchConfig;
use optane_core::{Machine, MachineConfig, MachineMetrics, ThreadId};
use simbase::{Addr, SplitMix64};

use crate::report::{peak_rss_mb, Layers, Outcome, Rates, Setups, Span};
use crate::stats::{mean, percentile, ratio};

const CHUNK_BYTES: u64 = 4096;
const CHUNK_LINES: u64 = CHUNK_BYTES / 64;
/// Machine ops per step: 64 nt-stores, a fence, 64 loads, 64 flushes, a
/// fence.
const OPS_PER_STEP: u64 = 3 * CHUNK_LINES + 2;
/// Base half size; the seed adds up to 63 chunks so that inputs differ
/// between seeds.
const HALF_BASE_BYTES: u64 = 32 << 20;
/// Steps per host-rate sample (about 12k machine ops, 3 ms of host
/// time): thousands of samples per run.
const SAMPLE_STEPS: u64 = 64;
/// Quantile of the samples reported as the host rate.
const RATE_QUANTILE: f64 = 0.99;
/// Machine set-ups timed for `setup_s`, spread over the run.
const SETUPS: usize = 9;

/// The simulated state a run must reproduce exactly, traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SimState {
    clock: u64,
    step_cycles: Vec<u64>,
    metrics: MachineMetrics,
}

/// Host time at the `core` boundary (traced windows only).
#[derive(Debug, Default)]
struct CoreSpans {
    nt_store_run: Span,
    load_u64_run: Span,
    clflushopt_run: Span,
    sfence: Span,
    /// Simulated cycles spent inside fences.
    sfence_sim_cycles: u64,
}

struct Stream {
    m: Machine,
    t: ThreadId,
    halves: [Addr; 2],
    chunks: u64,
    seed: u64,
    /// Windows run so far (window 0 is the untimed warm-up).
    windows: u64,
}

/// The 64-byte line written to every line of chunk `chunk` in window
/// `window`.
fn pattern(seed: u64, window: u64, chunk: u64) -> [u8; 64] {
    let mut rng = SplitMix64::new(seed ^ window.rotate_left(40) ^ chunk.wrapping_mul(0x9E37_79B9));
    let mut line = [0u8; 64];
    for word in line.chunks_exact_mut(8) {
        word.copy_from_slice(&rng.next_u64().to_le_bytes());
    }
    line
}

impl Stream {
    /// Builds the machine and runs the untimed warm-up window.
    fn setup(seed: u64) -> Stream {
        let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::all(), 1));
        let t = m.spawn(0);
        let chunks = HALF_BASE_BYTES / CHUNK_BYTES + seed % 64;
        let region = m.alloc_pm(2 * chunks * CHUNK_BYTES, CHUNK_BYTES);
        let mut s = Stream {
            m,
            t,
            halves: [region, region.add(chunks * CHUNK_BYTES)],
            chunks,
            seed,
            windows: 0,
        };
        s.window::<false>(
            &mut CoreSpans::default(),
            &mut Rates::new(u64::MAX, RATE_QUANTILE),
            None,
        );
        s.m.reset_metrics();
        s
    }

    /// One window: every chunk of the write half written beside the same
    /// chunk of the read half read and flushed. Records each step's
    /// simulated cycles into `step_cycles` when given. Returns the
    /// machine ops issued.
    fn window<const TRACE: bool>(
        &mut self,
        spans: &mut CoreSpans,
        rates: &mut Rates,
        mut step_cycles: Option<&mut Vec<u64>>,
    ) -> u64 {
        rates.resume();
        let (m, t) = (&mut self.m, self.t);
        let w = self.windows;
        let (write, read) = (
            self.halves[(w % 2) as usize],
            self.halves[(1 - w % 2) as usize],
        );
        for c in 0..self.chunks {
            let line = pattern(self.seed, w, c);
            let start = m.now(t);
            let (wa, ra) = (write.add(c * CHUNK_BYTES), read.add(c * CHUNK_BYTES));
            if TRACE {
                spans
                    .nt_store_run
                    .time(|| m.nt_store_run(t, wa, &line, CHUNK_LINES));
                let f0 = m.now(t);
                spans.sfence.time(|| m.sfence(t));
                spans.sfence_sim_cycles += m.now(t) - f0;
                spans
                    .load_u64_run
                    .time(|| m.load_u64_run(t, ra, CHUNK_LINES));
                spans
                    .clflushopt_run
                    .time(|| m.clflushopt_run(t, ra, CHUNK_LINES));
                let f1 = m.now(t);
                spans.sfence.time(|| m.sfence(t));
                spans.sfence_sim_cycles += m.now(t) - f1;
            } else {
                m.nt_store_run(t, wa, &line, CHUNK_LINES);
                m.sfence(t);
                m.load_u64_run(t, ra, CHUNK_LINES);
                m.clflushopt_run(t, ra, CHUNK_LINES);
                m.sfence(t);
            }
            if let Some(v) = step_cycles.as_deref_mut() {
                v.push(m.now(t) - start);
            }
            rates.tick(OPS_PER_STEP);
        }
        self.windows += 1;
        self.chunks * OPS_PER_STEP
    }

    /// Reads the half the last window wrote back with `peek`; returns the
    /// chunks whose contents differ from what was written.
    fn check_last_window(&self) -> u64 {
        let w = self.windows - 1;
        let half = self.halves[(w % 2) as usize];
        let mut bad = 0;
        let mut buf = [0u8; 64];
        for c in 0..self.chunks {
            let want = pattern(self.seed, w, c);
            let chunk = half.add(c * CHUNK_BYTES);
            let ok = (0..CHUNK_LINES).all(|l| {
                self.m.peek(chunk.add_cachelines(l), &mut buf);
                buf == want
            });
            bad += u64::from(!ok);
        }
        bad
    }

    /// Runs the first timed window and captures its simulated state.
    fn first_window<const TRACE: bool>(
        &mut self,
        spans: &mut CoreSpans,
        rates: &mut Rates,
    ) -> (SimState, u64) {
        let mut step_cycles = Vec::with_capacity(self.chunks as usize);
        let c0 = self.m.now(self.t);
        let ops = self.window::<TRACE>(spans, rates, Some(&mut step_cycles));
        let state = SimState {
            clock: self.m.now(self.t) - c0,
            step_cycles,
            metrics: self.m.metrics(),
        };
        (state, ops)
    }
}

fn check(s: &Stream, out: &mut Outcome) {
    let bad = s.check_last_window();
    out.attempted += s.chunks;
    if bad > 0 {
        out.fail(
            bad,
            format!("window {}: {bad} chunks read back wrong", s.windows - 1),
        );
    }
}

/// Untraced run: the end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::new(SETUPS, seconds);
    let mut s = setups.time(|| Stream::setup(seed));
    check(&s, &mut out);
    let begin = Instant::now();
    let mut rates = Rates::new(SAMPLE_STEPS * OPS_PER_STEP, RATE_QUANTILE);
    let (state, ops) = s.first_window::<false>(&mut CoreSpans::default(), &mut rates);
    let rss = peak_rss_mb();
    check(&s, &mut out);
    while begin.elapsed().as_secs_f64() < seconds {
        s.window::<false>(&mut CoreSpans::default(), &mut rates, None);
        check(&s, &mut out);
        if setups.due(begin.elapsed().as_secs_f64()) {
            drop(setups.time(|| Stream::setup(seed)));
        }
    }
    let steps = state.step_cycles.len() as u64;
    out.e2e("setup_s", setups.median(), "s", setups.times.len() as u64);
    out.e2e(
        "sim_ops_per_host_s",
        rates.rate(),
        "1/s",
        rates.samples.len() as u64,
    );
    rates.info(&mut out);
    out.e2e("peak_rss_mb", rss, "MB", 1);
    out.e2e(
        "sim_cycles_per_op",
        ratio(state.clock as f64, ops as f64),
        "cycles",
        ops,
    );
    out.e2e(
        "op_mean_sim_cycles",
        mean(&state.step_cycles),
        "cycles",
        steps,
    );
    out.e2e(
        "op_p50_sim_cycles",
        percentile(&state.step_cycles, 0.50) as f64,
        "cycles",
        steps,
    );
    out.e2e(
        "op_p99_sim_cycles",
        percentile(&state.step_cycles, 0.99) as f64,
        "cycles",
        steps,
    );
    out.info("region_half_bytes", (s.chunks * CHUNK_BYTES) as f64, "B", 1);
    out
}

/// Traced run: the per-layer metrics, with a check that tracing changed
/// no simulated result.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut plain = Stream::setup(seed);
    let mut traced = Stream::setup(seed);
    let mut spans = CoreSpans::default();
    let mut plain_rates = Rates::new(SAMPLE_STEPS * OPS_PER_STEP, RATE_QUANTILE);
    let mut traced_rates = Rates::new(SAMPLE_STEPS * OPS_PER_STEP, RATE_QUANTILE);
    let (want, ops) = plain.first_window::<false>(&mut CoreSpans::default(), &mut plain_rates);
    let (got, _) = traced.first_window::<true>(&mut spans, &mut traced_rates);
    if want != got {
        out.violation("traced window's simulated state differs from the untraced one".into());
    }
    let mut layers = Layers::new();
    layers.set_machine(&got.metrics, ops);
    layers.set(
        "core.sfence_sim_cycles",
        ratio(spans.sfence_sim_cycles as f64, spans.sfence.calls as f64),
    );
    check(&plain, &mut out);
    check(&traced, &mut out);
    let begin = Instant::now();
    while begin.elapsed().as_secs_f64() < seconds {
        plain.window::<false>(&mut CoreSpans::default(), &mut plain_rates, None);
        traced.window::<true>(&mut spans, &mut traced_rates, None);
        check(&plain, &mut out);
        check(&traced, &mut out);
        if plain.m.metrics() != traced.m.metrics() || plain.m.now(plain.t) != traced.m.now(traced.t)
        {
            out.violation("traced machine diverged from the untraced one".into());
        }
    }
    let lines = |s: &Span| s.ns_per(s.calls * CHUNK_LINES);
    layers.set("core.host_ns.nt_store_run", lines(&spans.nt_store_run));
    layers.set("core.host_ns.load_u64_run", lines(&spans.load_u64_run));
    layers.set("core.host_ns.clflushopt_run", lines(&spans.clflushopt_run));
    layers.set(
        "core.host_ns.sfence",
        spans.sfence.ns_per(spans.sfence.calls),
    );
    layers.set(
        "trace.overhead_frac",
        1.0 - ratio(traced_rates.rate(), plain_rates.rate()),
    );
    out.per_layer = Some(layers);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn patterns_differ_by_seed_window_and_chunk() {
        let p = pattern(1, 1, 1);
        assert_ne!(p, pattern(2, 1, 1));
        assert_ne!(p, pattern(1, 2, 1));
        assert_ne!(p, pattern(1, 1, 2));
        assert_eq!(p, pattern(1, 1, 1));
    }
}
