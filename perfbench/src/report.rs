//! What one benchmark run reports, and how it is printed.
//!
//! Every workload prints the same end-to-end metric names (the regression
//! gate in `BENCHMARK.json` compares them run against run) and, on a
//! traced run, the same per-layer names; a layer a workload does not
//! exercise reports 0.
//! Workload-specific figures that are not gated (cluster latency at the
//! low rate, the bisected rate itself, …) are printed as `info` lines.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

use optane_core::MachineMetrics;

use crate::stats::ratio;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind the value (windows for host rates, ops for
    /// latency percentiles, 1 for a single deterministic figure).
    pub samples: u64,
}

/// End-to-end metric names and units, in print order: every workload
/// reports all of them.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("sim_ops_per_host_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("sim_cycles_per_op", "cycles"),
    ("op_mean_sim_cycles", "cycles"),
    ("op_p50_sim_cycles", "cycles"),
    ("op_p99_sim_cycles", "cycles"),
];

/// Per-layer metric names and units, in print order. A workload that
/// does not run a layer leaves its metrics at 0.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("core.host_ns.nt_store_run", "ns/line"),
    ("core.host_ns.load_u64_run", "ns/line"),
    ("core.host_ns.clflushopt_run", "ns/line"),
    ("core.host_ns.sfence", "ns/call"),
    ("core.sfence_sim_cycles", "cycles"),
    ("cache.l1_hit_ratio", "ratio"),
    ("cache.l2_hit_ratio", "ratio"),
    ("cache.l3_hit_ratio", "ratio"),
    ("cache.prefetch_fills_per_op", "1/op"),
    ("memctl.wpq_stall_cycles_per_op", "cycles/op"),
    ("memctl.wpq_max_depth", "count"),
    ("memctl.rpq_max_depth", "count"),
    ("dimm.rb_hit_ratio", "ratio"),
    ("dimm.wcb_hit_ratio", "ratio"),
    ("dimm.ait_hit_ratio", "ratio"),
    ("dimm.rmw_reads_per_op", "1/op"),
    ("dimm.evictions_per_op", "1/op"),
    ("dimm.periodic_writebacks", "count"),
    ("media.read_amp", "ratio"),
    ("media.write_amp", "ratio"),
    ("media.bytes_per_op", "B/op"),
    ("pmem.loads_per_op", "1/op"),
    ("pmem.stores_per_op", "1/op"),
    ("pmem.flushes_per_op", "1/op"),
    ("pmem.fences_per_op", "1/op"),
    ("pmem.host_ns_per_call", "ns/call"),
    ("datastores.self_host_ns_per_op", "ns/op"),
    ("exec.host_ns_per_step", "ns/step"),
    ("workloads.host_ns_per_op", "ns/op"),
    ("cluster.msgs_per_req", "1/req"),
    ("cluster.machine_events_per_req", "1/req"),
    ("cluster.hedges_per_req", "1/req"),
    ("cluster.hedge_waste_ratio", "ratio"),
    ("cluster.retries_per_req", "1/req"),
    ("cluster.shed_frac", "ratio"),
    ("cluster.breaker_trips", "count"),
    ("cluster.front_cache_hit_ratio", "ratio"),
    ("cluster.g1_mean_ticks", "ticks"),
    ("cluster.g2_mean_ticks", "ticks"),
    ("cluster.shard_imbalance", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// Per-layer values of a traced run, keyed by [`LAYER_METRICS`] name.
#[derive(Debug, Clone)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn new() -> Self {
        Layers(LAYER_METRICS.iter().map(|&(n, _)| (n, 0.0)).collect())
    }

    /// Sets one metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`LAYER_METRICS`] (a typo here would
    /// otherwise print a silent 0).
    pub fn set(&mut self, name: &'static str, value: f64) {
        match self.0.get_mut(name) {
            Some(v) => *v = value,
            None => panic!("unknown per-layer metric {name}"),
        }
    }

    /// Fills the `cache`, `memctl`, `dimm` and `media` metrics from the
    /// machine's simulated counters over `ops` workload ops.
    pub fn set_machine(&mut self, m: &MachineMetrics, ops: u64) {
        let ops = ops as f64;
        let hit = |h: u64, miss: u64| ratio(h as f64, (h + miss) as f64);
        let c = m.cache_total();
        self.set("cache.l1_hit_ratio", hit(c.l1.hits, c.l1.misses));
        self.set("cache.l2_hit_ratio", hit(c.l2.hits, c.l2.misses));
        self.set("cache.l3_hit_ratio", hit(c.l3.hits, c.l3.misses));
        let fills = c.l1.prefetch_fills + c.l2.prefetch_fills + c.l3.prefetch_fills;
        self.set("cache.prefetch_fills_per_op", ratio(fills as f64, ops));
        let q = m.queue_total();
        self.set(
            "memctl.wpq_stall_cycles_per_op",
            ratio(q.wpq.stall_cycles as f64, ops),
        );
        self.set("memctl.wpq_max_depth", q.wpq.max_depth as f64);
        self.set("memctl.rpq_max_depth", q.rpq.max_depth as f64);
        let d = m.dimm_total();
        self.set(
            "dimm.rb_hit_ratio",
            hit(d.read_buffer.hits, d.read_buffer.misses),
        );
        self.set(
            "dimm.wcb_hit_ratio",
            hit(d.write_buffer.hits, d.write_buffer.misses),
        );
        self.set("dimm.ait_hit_ratio", hit(d.ait.hits, d.ait.misses));
        self.set("dimm.rmw_reads_per_op", ratio(d.rmw_reads as f64, ops));
        self.set("dimm.evictions_per_op", ratio(d.evictions as f64, ops));
        self.set("dimm.periodic_writebacks", d.periodic_writebacks as f64);
        let t = &m.telemetry;
        self.set("media.read_amp", t.read_amplification());
        self.set("media.write_amp", t.write_amplification());
        self.set(
            "media.bytes_per_op",
            ratio((t.media.read + t.media.write) as f64, ops),
        );
    }

    /// The metrics in print order.
    pub fn metrics(&self) -> Vec<Metric> {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                value: self.0[name],
                unit,
                samples: 1,
            })
            .collect()
    }
}

/// Accumulated host time and call count at one layer boundary.
#[derive(Debug, Clone, Copy, Default)]
pub struct Span {
    pub ns: u128,
    pub calls: u64,
}

impl Span {
    /// Runs `f`, adding its host time and one call.
    #[inline]
    pub fn time<R>(&mut self, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let r = f();
        self.add(t.elapsed());
        r
    }

    #[inline]
    pub fn add(&mut self, d: Duration) {
        self.ns += d.as_nanos();
        self.calls += 1;
    }

    /// Mean host ns over `per` units of work.
    pub fn ns_per(&self, per: u64) -> f64 {
        ratio(self.ns as f64, per as f64)
    }
}

/// Set-up times for `setup_s`, in thread CPU time. The first set-up
/// starts the run; the others are spread evenly over it, each built and
/// dropped between timed windows. Back-to-back set-ups would all land in
/// one spell of the shared host's fast or slow state; spread out, their
/// median follows the whole run.
#[derive(Debug)]
pub struct Setups {
    n: usize,
    seconds: f64,
    pub times: Vec<f64>,
}

impl Setups {
    /// Up to `n` set-ups over a run of `seconds`.
    pub fn new(n: usize, seconds: f64) -> Self {
        Setups {
            n,
            seconds,
            times: Vec::with_capacity(n),
        }
    }

    /// Runs and times one set-up.
    pub fn time<T>(&mut self, build: impl FnOnce() -> T) -> T {
        let t = cpu_secs();
        let built = build();
        self.times.push(cpu_secs() - t);
        built
    }

    /// Whether the next set-up is due `elapsed` seconds into the run.
    pub fn due(&self, elapsed: f64) -> bool {
        let k = self.times.len();
        k < self.n && elapsed >= k as f64 * self.seconds / self.n as f64
    }

    pub fn median(&self) -> f64 {
        crate::stats::median(&self.times)
    }
}

/// Host ns a timed child call adds to its parent's span beyond what the
/// child's own span records (the timer reads around it). Subtracted, per
/// child call, when a layer's self time is derived by subtraction.
pub fn child_span_overhead_ns() -> f64 {
    const N: u64 = 200_000;
    let mut child = Span::default();
    let parent = Instant::now();
    for _ in 0..N {
        child.time(|| std::hint::black_box(()));
    }
    let parent_ns = parent.elapsed().as_nanos();
    ratio(parent_ns.saturating_sub(child.ns) as f64, N as f64)
}

/// This thread's CPU time in seconds. Unlike wall time it stops while
/// the thread waits for a core, whether another process or the
/// hypervisor holds it, so a run on a crowded host is not charged for
/// the time it was not running. Falls back to wall time off Linux.
#[cfg(target_os = "linux")]
pub fn cpu_secs() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is a live, writable `struct timespec` and the clock id
    // is one Linux defines; the call writes only `ts`.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

#[cfg(not(target_os = "linux"))]
pub fn cpu_secs() -> f64 {
    static START: std::sync::OnceLock<Instant> = std::sync::OnceLock::new();
    START.get_or_init(Instant::now).elapsed().as_secs_f64()
}

/// Words in the gauge's table: 32 KB, which fits the L1 data cache of
/// current x86 cores.
const GAUGE_WORDS: usize = 1 << 12;
/// Dependent table steps in one gauge unit.
const GAUGE_STEPS: u64 = 1 << 13;
/// Gauge units per reading; the fastest counts.
const GAUGE_UNITS: usize = 4;
/// CPU seconds one gauge unit takes on the reference core (the 2-vCPU
/// Intel Xeon virtual machine of the README's reference figures, with
/// nothing else running in it).
const GAUGE_UNIT_NOMINAL_S: f64 = 56e-6;

/// A fixed compute kernel the benchmark owns: a dependent chain of
/// integer mixes and table updates in a 32 KB table. No simulator code
/// runs in it, so a change to the program does not change its speed;
/// what does is the core it runs on — clock frequency and a busy
/// hyperthread sibling on a shared host. Read right after each timed
/// block, it scales that block's rate to the reference core.
#[derive(Debug)]
pub struct Gauge {
    table: Vec<u64>,
    x: u64,
}

#[inline]
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Gauge {
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1D;
        let table = (0..GAUGE_WORDS)
            .map(|_| {
                x = mix(x);
                x
            })
            .collect();
        Gauge { table, x }
    }

    /// How much slower this core runs the kernel than the reference core
    /// does: 1.0 there, 1.25 on a core a fifth slower. The fastest of
    /// [`GAUGE_UNITS`] units counts, so an interrupt inside one does not.
    pub fn slowdown(&mut self) -> f64 {
        let mask = (GAUGE_WORDS - 1) as u64;
        let mut best = f64::INFINITY;
        for _ in 0..GAUGE_UNITS {
            let t = cpu_secs();
            let mut x = self.x;
            for _ in 0..GAUGE_STEPS {
                let i = (x & mask) as usize;
                x = mix(x ^ self.table[i]);
                self.table[i] = x;
            }
            self.x = std::hint::black_box(x);
            best = best.min(cpu_secs() - t);
        }
        best / GAUGE_UNIT_NOMINAL_S
    }
}

/// Host-rate samples over fixed blocks of work, for
/// `sim_ops_per_host_s`. Each block is timed in thread CPU time (see
/// [`cpu_secs`]) and its rate scaled to the reference core by a
/// [`Gauge`] reading taken right after it. The reported rate is a high
/// quantile over the run's blocks: on a shared host other tenants'
/// memory traffic only ever slows a block, in spells of seconds, so the
/// fast end of many short blocks is the program's own speed while a
/// median follows how crowded the host happened to be.
#[derive(Debug)]
pub struct Rates {
    block: u64,
    quantile: f64,
    pending: u64,
    cpu_since: f64,
    wall_since: Instant,
    gauge: Gauge,
    /// Ops per reference-core CPU second, one per block.
    pub samples: Vec<f64>,
    /// Ops per wall second, one per block (reported as `info` only).
    wall: Vec<f64>,
    /// Gauge readings, one per block.
    slowdowns: Vec<f64>,
}

impl Rates {
    /// One sample per `block` ops; [`Rates::rate`] reports the
    /// `quantile` quantile of the samples.
    pub fn new(block: u64, quantile: f64) -> Self {
        Rates {
            block,
            quantile,
            pending: 0,
            cpu_since: cpu_secs(),
            wall_since: Instant::now(),
            gauge: Gauge::new(),
            samples: Vec::new(),
            wall: Vec::new(),
            slowdowns: Vec::new(),
        }
    }

    /// Restarts the clock after untimed work, dropping a partial block.
    pub fn resume(&mut self) {
        self.pending = 0;
        self.cpu_since = cpu_secs();
        self.wall_since = Instant::now();
    }

    /// Counts `ops` finished since the last call and closes a sample once
    /// a block is full. The gauge runs outside the block's time.
    #[inline]
    pub fn tick(&mut self, ops: u64) {
        self.pending += ops;
        if self.pending >= self.block {
            let cpu = cpu_secs() - self.cpu_since;
            let wall = self.wall_since.elapsed().as_secs_f64();
            let n = self.pending as f64;
            let slowdown = self.gauge.slowdown();
            self.samples.push(ratio(n, cpu) * slowdown);
            self.wall.push(ratio(n, wall));
            self.slowdowns.push(slowdown);
            self.resume();
        }
    }

    /// The reported host rate: the chosen quantile of the samples.
    pub fn rate(&self) -> f64 {
        crate::stats::quantile(&self.samples, self.quantile)
    }

    /// Adds the unscaled figures behind [`Rates::rate`] as `info` lines:
    /// the median rate per wall second and the median gauge reading.
    pub fn info(&self, out: &mut Outcome) {
        let n = self.samples.len() as u64;
        let med = crate::stats::median;
        out.info("host_rate_wall_median", med(&self.wall), "1/s", n);
        out.info("host_gauge_slowdown", med(&self.slowdowns), "ratio", n);
    }
}

/// What one invocation measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Gated metrics (untraced run); every workload fills the same names.
    pub end_to_end: Vec<Metric>,
    /// Ungated workload-specific figures, printed as text only.
    pub info: Vec<Metric>,
    /// Traced run only.
    pub per_layer: Option<Layers>,
    /// Ops attempted across the whole invocation.
    pub attempted: u64,
    /// Ops whose output check failed.
    pub failed: u64,
    /// Oracle violations; any makes the run incorrect.
    pub violations: Vec<String>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        assert_eq!(
            END_TO_END.get(self.end_to_end.len()),
            Some(&(name, unit)),
            "end-to-end metrics must follow END_TO_END"
        );
        self.end_to_end.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.info.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Records a failed check that cost `ops` failed ops.
    pub fn fail(&mut self, ops: u64, what: String) {
        self.failed += ops;
        self.violations.push(what);
    }

    /// Records a failed check that counts as one failed op.
    pub fn violation(&mut self, what: String) {
        self.fail(1, what);
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.violations.is_empty()
    }

    /// The text lines and the final JSON line, for `workload`.
    pub fn render(&self, workload: &str, traced: bool) -> String {
        let mut s = String::new();
        let failed_frac = ratio(self.failed as f64, self.attempted as f64);
        let line = |s: &mut String, kind: &str, m: &Metric| {
            let _ = writeln!(
                s,
                "{kind} {workload} {} = {} {} (n={})",
                m.name, m.value, m.unit, m.samples
            );
        };
        for v in &self.violations {
            let _ = writeln!(s, "VIOLATION {workload}: {v}");
        }
        let gated: Vec<Metric> = if traced {
            self.per_layer
                .as_ref()
                .map(Layers::metrics)
                .unwrap_or_default()
        } else {
            self.end_to_end.clone()
        };
        for m in &gated {
            line(&mut s, if traced { "layer" } else { "metric" }, m);
        }
        for m in &self.info {
            line(&mut s, "info", m);
        }
        let _ = writeln!(
            s,
            "info {workload} failed_frac = {failed_frac} ratio (n={})",
            self.attempted
        );
        let mut json = String::new();
        for (i, m) in gated.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let v = if m.value.is_finite() { m.value } else { 0.0 };
            let _ = write!(
                json,
                "{sep}\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        let _ = writeln!(
            s,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        );
        s
    }
}

/// The process's peak resident set (`VmHWM`), in MB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layer_names_are_unique_and_all_start_at_zero() {
        let l = Layers::new();
        assert_eq!(l.metrics().len(), LAYER_METRICS.len());
        assert!(l.metrics().iter().all(|m| m.value == 0.0));
    }

    #[test]
    #[should_panic(expected = "unknown per-layer metric")]
    fn unknown_layer_name_panics() {
        Layers::new().set("cache.l4_hit_ratio", 1.0);
    }

    #[test]
    fn machine_ratio_bases() {
        let mut m = MachineMetrics::default();
        let mut c = cpucache::CacheHierarchyStats::default();
        c.l1.hits = 3;
        c.l1.misses = 1;
        c.l2.prefetch_fills = 10;
        m.sockets.push(c);
        let mut l = Layers::new();
        l.set_machine(&m, 5);
        let get = |name: &str| {
            l.metrics()
                .into_iter()
                .find(|x| x.name == name)
                .map(|x| x.value)
        };
        // Hit ratios are over the level's own accesses; per-op figures
        // over workload ops; a level with no accesses reports 0.
        assert_eq!(get("cache.l1_hit_ratio"), Some(0.75));
        assert_eq!(get("cache.prefetch_fills_per_op"), Some(2.0));
        assert_eq!(get("cache.l3_hit_ratio"), Some(0.0));
        assert_eq!(get("media.read_amp"), Some(0.0));
    }

    #[test]
    fn setups_are_spread_evenly_over_the_run() {
        let mut s = Setups::new(4, 8.0);
        assert!(s.due(0.0));
        assert_eq!(s.time(|| 7), 7);
        assert!(!s.due(1.9));
        assert!(s.due(2.0));
        for _ in 0..3 {
            s.time(|| ());
        }
        assert!(!s.due(100.0), "never more than n set-ups");
        assert_eq!(s.times.len(), 4);
    }

    #[test]
    fn rates_close_one_gauge_scaled_sample_per_block() {
        let mut r = Rates::new(10, 0.9);
        let mut x = 1u64;
        for _ in 0..35 {
            for _ in 0..1_000 {
                x = std::hint::black_box(mix(x));
            }
            r.tick(1);
        }
        assert_eq!(r.samples.len(), 3);
        assert!(r.samples.iter().all(|s| s.is_finite() && *s > 0.0));
        assert!(r.slowdowns.iter().all(|s| s.is_finite() && *s > 0.0));
        assert_eq!(r.rate(), crate::stats::quantile(&r.samples, 0.9));
    }

    /// `BENCHMARK.json` at the repository root must name exactly the
    /// metrics this program prints, with the same units.
    #[test]
    fn benchmark_json_matches_the_printed_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        for &(name, unit) in END_TO_END.iter().chain(LAYER_METRICS) {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(
                json.contains(&entry),
                "BENCHMARK.json lacks {name} in {unit}"
            );
        }
        let units = json.matches("\"unit\":").count();
        assert_eq!(units, END_TO_END.len() + LAYER_METRICS.len());
    }

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 10,
            ..Outcome::default()
        };
        o.e2e("setup_s", 0.25, "s", 3);
        let out = o.render("w", false);
        let last = out.lines().last().expect("a JSON line");
        assert_eq!(
            last,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        o.violation("boom".into());
        assert!(o
            .render("w", false)
            .lines()
            .last()
            .expect("json")
            .contains("\"correct\": false"));
    }
}
