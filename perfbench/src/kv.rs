//! `kv_ycsb`: four simulated G1 threads share one FAST & FAIR tree
//! (redo-log updates), stepped round-robin by `core::exec::Interleaver`
//! one whole YCSB op per step, as E8 does. The mix is YCSB-A — 50% gets,
//! 50% updates over zipfian(0.99) keys — so a change that speeds one op
//! type at the other's cost shows.
//!
//! The tree is preloaded with [`PRELOAD_KEYS`] keys (well under 1 MB of
//! nodes): it fits the 27.5 MB LLC, so the cache-hit load path, the
//! `pmem` persist path, `datastores` logic and `exec` dominate.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use cpucache::PrefetchConfig;
use optane_core::{
    Interleaver, Machine, MachineConfig, MachineMetrics, ReadError, SchedPolicy, Step, ThreadId,
};
use pmds::{FastFair, UpdateStrategy};
use pmem::{PmemEnv, SimEnv};
use simbase::{Addr, Cycles};
use workloads::{KeyDistribution, OpKind, OpMix, YcsbGenerator};

use crate::report::{child_span_overhead_ns, peak_rss_mb, Layers, Outcome, Rates, Setups, Span};
use crate::stats::{mean, percentile, ratio};

/// Keys loaded before the timed phase.
pub const PRELOAD_KEYS: u64 = 10_000;
const THREADS: usize = 4;
/// Ops per lane in one timed window.
const OPS_PER_LANE: u64 = 10_000;
/// Set-ups (machine, tree, preload) timed for `setup_s`, spread over
/// the run.
const SETUPS: usize = 9;
/// Ops per host-rate sample (2 ms of host time): thousands of samples
/// per run.
const SAMPLE_OPS: u64 = 125;
/// Quantile of the samples reported as the host rate.
const RATE_QUANTILE: f64 = 0.99;

/// Counts and host time at the `pmem` boundary.
#[derive(Debug, Default)]
struct PmemCounts {
    loads: u64,
    stores: u64,
    flushes: u64,
    fences: u64,
    calls: Span,
    /// Simulated cycles spent inside fences.
    fence_sim_cycles: u64,
}

/// A [`SimEnv`] that times and counts every call. It forwards every
/// method `SimEnv` implements itself — `load_u64_pair` included, whose
/// trait default would issue two sequential loads and change simulated
/// timing — and leaves the trait's derived helpers (`load_u64`,
/// `persist`, …) to route through the forwarded ones, as `SimEnv` does.
struct CountingEnv<'a> {
    inner: SimEnv<'a>,
    c: &'a mut PmemCounts,
}

impl CountingEnv<'_> {
    #[inline]
    fn call<R>(&mut self, f: impl FnOnce(&mut SimEnv<'_>) -> R) -> R {
        let t = Instant::now();
        let r = f(&mut self.inner);
        self.c.calls.add(t.elapsed());
        r
    }

    fn fence(&mut self, f: impl FnOnce(&mut SimEnv<'_>)) {
        self.c.fences += 1;
        let before = self.inner.now();
        self.call(f);
        self.c.fence_sim_cycles += self.inner.now() - before;
    }
}

impl PmemEnv for CountingEnv<'_> {
    fn load(&mut self, addr: Addr, buf: &mut [u8]) {
        self.c.loads += 1;
        self.call(|e| e.load(addr, buf));
    }

    fn try_load(&mut self, addr: Addr, buf: &mut [u8]) -> Result<(), ReadError> {
        self.c.loads += 1;
        self.call(|e| e.try_load(addr, buf))
    }

    fn store(&mut self, addr: Addr, data: &[u8]) {
        self.c.stores += 1;
        self.call(|e| e.store(addr, data));
    }

    fn store_full_line(&mut self, addr: Addr, data: &[u8; 64]) {
        self.c.stores += 1;
        self.call(|e| e.store_full_line(addr, data));
    }

    fn nt_store(&mut self, addr: Addr, data: &[u8]) {
        self.c.stores += 1;
        self.call(|e| e.nt_store(addr, data));
    }

    fn clwb(&mut self, addr: Addr) {
        self.c.flushes += 1;
        self.call(|e| e.clwb(addr));
    }

    fn clflushopt(&mut self, addr: Addr) {
        self.c.flushes += 1;
        self.call(|e| e.clflushopt(addr));
    }

    fn clflush(&mut self, addr: Addr) {
        self.c.flushes += 1;
        self.call(|e| e.clflush(addr));
    }

    fn sfence(&mut self) {
        self.fence(|e| e.sfence());
    }

    fn mfence(&mut self) {
        self.fence(|e| e.mfence());
    }

    fn cas_u64(&mut self, addr: Addr, expected: u64, new: u64) -> u64 {
        self.c.stores += 1;
        self.call(|e| e.cas_u64(addr, expected, new))
    }

    fn fetch_add_u64(&mut self, addr: Addr, delta: u64) -> u64 {
        self.c.stores += 1;
        self.call(|e| e.fetch_add_u64(addr, delta))
    }

    fn alloc(&mut self, len: u64, align: u64) -> Addr {
        self.call(|e| e.alloc(len, align))
    }

    fn alloc_volatile(&mut self, len: u64, align: u64) -> Addr {
        self.call(|e| e.alloc_volatile(len, align))
    }

    fn compute(&mut self, cycles: Cycles) {
        self.call(|e| e.compute(cycles));
    }

    fn now(&self) -> Cycles {
        self.inner.now()
    }

    fn load_u64_pair(&mut self, a: Addr, b: Addr) -> (u64, u64) {
        self.c.loads += 2;
        self.call(|e| e.load_u64_pair(a, b))
    }
}

/// How a step reaches the tree's memory: straight through [`SimEnv`], or
/// through the [`CountingEnv`] wrapper on a traced run.
trait Access {
    type Env<'a>: PmemEnv
    where
        Self: 'a;
    fn env<'a>(&'a mut self, m: &'a mut Machine, tid: ThreadId) -> Self::Env<'a>;
}

struct Direct;

impl Access for Direct {
    type Env<'a> = SimEnv<'a>;
    fn env<'a>(&'a mut self, m: &'a mut Machine, tid: ThreadId) -> SimEnv<'a> {
        SimEnv::new(m, tid)
    }
}

impl Access for PmemCounts {
    type Env<'a> = CountingEnv<'a>;
    fn env<'a>(&'a mut self, m: &'a mut Machine, tid: ThreadId) -> CountingEnv<'a> {
        CountingEnv {
            inner: SimEnv::new(m, tid),
            c: self,
        }
    }
}

/// Host time at the `exec`, `datastores` and `workloads` boundaries.
#[derive(Debug, Default)]
struct KvSpans {
    run: Span,
    step: Span,
    op: Span,
    gen: Span,
}

/// The simulated state a window must reproduce exactly, traced or not.
#[derive(Debug, Clone, PartialEq, Eq)]
struct SimState {
    makespan: u64,
    op_cycles: Vec<u64>,
    metrics: MachineMetrics,
}

struct Kv {
    m: Machine,
    tids: Vec<ThreadId>,
    tree: FastFair,
    gen: YcsbGenerator,
    /// Last value written per key.
    shadow: HashMap<u64, u64>,
    next_value: u64,
}

impl Kv {
    /// Builds the machine and tree and preloads it; clocks start aligned.
    fn setup(seed: u64) -> Kv {
        let mut m = Machine::new(MachineConfig::g1(PrefetchConfig::all(), 1));
        let tids: Vec<ThreadId> = (0..THREADS).map(|_| m.spawn(0)).collect();
        let mut gen = YcsbGenerator::new(
            seed,
            KeyDistribution::Zipfian(YcsbGenerator::ZIPFIAN_THETA),
            PRELOAD_KEYS,
        );
        let mut shadow = HashMap::with_capacity(PRELOAD_KEYS as usize);
        let tree = {
            let mut env = SimEnv::new(&mut m, tids[0]);
            let mut tree = FastFair::create(&mut env, UpdateStrategy::RedoLog);
            for i in 0..PRELOAD_KEYS {
                let key = gen.next_insert_key();
                tree.insert(&mut env, key, i);
                shadow.insert(key, i);
            }
            tree
        };
        let start = tids.iter().map(|&t| m.now(t)).max().unwrap_or(0);
        for &t in &tids {
            m.advance_to(t, start);
        }
        m.reset_metrics();
        Kv {
            m,
            tids,
            tree,
            gen,
            shadow,
            next_value: PRELOAD_KEYS.wrapping_add(seed << 20),
        }
    }

    fn makespan(&self) -> u64 {
        self.tids.iter().map(|&t| self.m.now(t)).max().unwrap_or(0)
    }

    /// One window: [`OPS_PER_LANE`] ops on every lane. Records each op's
    /// simulated cycles into `op_cycles` when given. Returns `(ops, gets
    /// that returned a wrong value)`.
    fn window<A: Access, const TRACE: bool>(
        &mut self,
        access: &mut A,
        spans: &mut KvSpans,
        rates: &mut Rates,
        mut op_cycles: Option<&mut Vec<u64>>,
    ) -> (u64, u64) {
        let Kv {
            m,
            tids,
            tree,
            gen,
            shadow,
            next_value,
        } = self;
        let mix = OpMix::ycsb_a();
        let mut done = [0u64; THREADS];
        let mut wrong = 0u64;
        let mut step_ns = Duration::ZERO;
        rates.resume();
        let mut step = |mm: &mut Machine, tid: ThreadId, lane: usize| {
            let entered = TRACE.then(Instant::now);
            if done[lane] == OPS_PER_LANE {
                return Step::Done;
            }
            done[lane] += 1;
            let (kind, key) = if TRACE {
                spans.gen.time(|| gen.next_op(&mix))
            } else {
                gen.next_op(&mix)
            };
            let t0 = mm.now(tid);
            let op_start = TRACE.then(Instant::now);
            let mut env = access.env(mm, tid);
            match kind {
                OpKind::Read => {
                    let got = tree.get(&mut env, key);
                    wrong += u64::from(got != shadow.get(&key).copied());
                }
                OpKind::Update | OpKind::Insert => {
                    let value = *next_value;
                    *next_value += 1;
                    tree.insert(&mut env, key, value);
                    shadow.insert(key, value);
                }
            }
            drop(env);
            if let Some(t) = op_start {
                spans.op.add(t.elapsed());
            }
            if let Some(v) = op_cycles.as_deref_mut() {
                v.push(mm.now(tid) - t0);
            }
            rates.tick(1);
            if let Some(t) = entered {
                step_ns += t.elapsed();
            }
            Step::Ran
        };
        let sched = Interleaver::new(SchedPolicy::RoundRobin);
        let report = if TRACE {
            spans.run.time(|| sched.run(m, tids, &mut step))
        } else {
            sched.run(m, tids, &mut step)
        };
        if TRACE {
            spans.step.ns += step_ns.as_nanos();
            spans.step.calls += report.total_steps;
        }
        (report.total_steps, wrong)
    }

    /// Runs the first timed window and captures its simulated state.
    fn first_window<A: Access, const TRACE: bool>(
        &mut self,
        access: &mut A,
        spans: &mut KvSpans,
        rates: &mut Rates,
    ) -> (SimState, u64) {
        let mut op_cycles = Vec::with_capacity(THREADS * OPS_PER_LANE as usize);
        let start = self.makespan();
        let (_, wrong) = self.window::<A, TRACE>(access, spans, rates, Some(&mut op_cycles));
        let state = SimState {
            makespan: self.makespan() - start,
            op_cycles,
            metrics: self.m.metrics(),
        };
        (state, wrong)
    }

    /// End-of-run structure checks: keys sorted and no pair lost or
    /// duplicated.
    fn check_tree(&mut self, out: &mut Outcome) {
        let mut env = SimEnv::new(&mut self.m, self.tids[0]);
        if !self.tree.check_sorted(&mut env) {
            out.violation("tree keys out of order".into());
        }
        let pairs = self.tree.count_pairs(&mut env);
        if pairs != PRELOAD_KEYS {
            out.violation(format!("tree holds {pairs} pairs, expected {PRELOAD_KEYS}"));
        }
    }
}

fn count(out: &mut Outcome, ops: u64, wrong: u64) {
    out.attempted += ops;
    if wrong > 0 {
        out.fail(
            wrong,
            format!("{wrong} gets returned a value other than the last written"),
        );
    }
}

/// Untraced run: the end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Setups::new(SETUPS, seconds);
    let mut kv = setups.time(|| Kv::setup(seed));
    let mut spans = KvSpans::default();
    let mut rates = Rates::new(SAMPLE_OPS, RATE_QUANTILE);
    let begin = Instant::now();
    let (state, wrong) = kv.first_window::<_, false>(&mut Direct, &mut spans, &mut rates);
    let rss = peak_rss_mb();
    let ops = state.op_cycles.len() as u64;
    count(&mut out, ops, wrong);
    while begin.elapsed().as_secs_f64() < seconds {
        let (ops, wrong) = kv.window::<_, false>(&mut Direct, &mut spans, &mut rates, None);
        count(&mut out, ops, wrong);
        if setups.due(begin.elapsed().as_secs_f64()) {
            drop(setups.time(|| Kv::setup(seed)));
        }
    }
    kv.check_tree(&mut out);
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
        ratio(state.makespan as f64, ops as f64),
        "cycles",
        ops,
    );
    out.e2e("op_mean_sim_cycles", mean(&state.op_cycles), "cycles", ops);
    out.e2e(
        "op_p50_sim_cycles",
        percentile(&state.op_cycles, 0.50) as f64,
        "cycles",
        ops,
    );
    out.e2e(
        "op_p99_sim_cycles",
        percentile(&state.op_cycles, 0.99) as f64,
        "cycles",
        ops,
    );
    out
}

/// Traced run: the per-layer metrics, with a check that tracing changed
/// no simulated result.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut plain = Kv::setup(seed);
    let mut traced = Kv::setup(seed);
    let mut spans = KvSpans::default();
    let mut counts = PmemCounts::default();
    let mut plain_rates = Rates::new(SAMPLE_OPS, RATE_QUANTILE);
    let mut traced_rates = Rates::new(SAMPLE_OPS, RATE_QUANTILE);
    let (want, wrong) =
        plain.first_window::<_, false>(&mut Direct, &mut KvSpans::default(), &mut plain_rates);
    count(&mut out, want.op_cycles.len() as u64, wrong);
    let (got, wrong) = traced.first_window::<_, true>(&mut counts, &mut spans, &mut traced_rates);
    count(&mut out, got.op_cycles.len() as u64, wrong);
    if want != got {
        out.violation("traced window's simulated state differs from the untraced one".into());
    }
    let ops = got.op_cycles.len() as u64;
    let mut layers = Layers::new();
    layers.set_machine(&got.metrics, ops);
    let per_op = |n: u64| ratio(n as f64, ops as f64);
    layers.set("pmem.loads_per_op", per_op(counts.loads));
    layers.set("pmem.stores_per_op", per_op(counts.stores));
    layers.set("pmem.flushes_per_op", per_op(counts.flushes));
    layers.set("pmem.fences_per_op", per_op(counts.fences));
    layers.set(
        "core.sfence_sim_cycles",
        ratio(counts.fence_sim_cycles as f64, counts.fences as f64),
    );
    let begin = Instant::now();
    while begin.elapsed().as_secs_f64() < seconds {
        let (n, wrong) =
            plain.window::<_, false>(&mut Direct, &mut KvSpans::default(), &mut plain_rates, None);
        count(&mut out, n, wrong);
        let (n, wrong) = traced.window::<_, true>(&mut counts, &mut spans, &mut traced_rates, None);
        count(&mut out, n, wrong);
        if plain.m.metrics() != traced.m.metrics() || plain.makespan() != traced.makespan() {
            out.violation("traced machine diverged from the untraced one".into());
        }
    }
    plain.check_tree(&mut out);
    traced.check_tree(&mut out);
    // Self time by subtraction: a parent's span minus its children's,
    // minus the timer reads each child call adds to the parent.
    let overhead = child_span_overhead_ns();
    let self_ns = |parent: &Span, children: &Span| {
        (parent.ns as f64 - children.ns as f64 - children.calls as f64 * overhead).max(0.0)
    };
    let pmem = &counts.calls;
    layers.set("pmem.host_ns_per_call", pmem.ns_per(pmem.calls));
    layers.set(
        "datastores.self_host_ns_per_op",
        ratio(self_ns(&spans.op, pmem), spans.op.calls as f64),
    );
    layers.set(
        "exec.host_ns_per_step",
        ratio(self_ns(&spans.run, &spans.step), spans.step.calls as f64),
    );
    layers.set(
        "workloads.host_ns_per_op",
        spans.gen.ns_per(spans.gen.calls),
    );
    layers.set(
        "trace.overhead_frac",
        1.0 - ratio(traced_rates.rate(), plain_rates.rate()),
    );
    out.per_layer = Some(layers);
    out
}
