//! `cluster_serve`: `cluster::run` with 4 shards (G1/G2 alternating), 16
//! keyslices, 3 replicas, no faults and the default network, serving an
//! open-loop zipfian 70/30 get/put stream at two fixed rates — low and
//! high, where G1 shards already queue — and then at the rates a
//! bisection probes to find the highest sustainable one.
//!
//! The router, network, replication and hedging in `cluster` dominate;
//! `core` runs about one machine op per replica per request.

use std::cell::Cell;
use std::rc::Rc;
use std::time::Instant;

use cluster::{ClientConfig, ClusterParams, ClusterReport, ReplicationParams};
use optane_core::{TraceEvent, TraceSink};

use crate::report::{peak_rss_mb, Layers, Outcome, Rates, Setups};
use crate::stats::{bisect_min, ratio};

/// Requests per run.
const REQUESTS: u64 = 80_000;
/// Mean interarrival ticks of the low rate (2,500 req/Mtick).
const LOW_IA: u64 = 400;
/// Mean interarrival ticks of the high rate (8,000 req/Mtick).
const HIGH_IA: u64 = 125;
/// Shortest interarrival the bisection considers (20,000 req/Mtick).
const MIN_IA: u64 = 50;
/// Latency limit on each generation's p99. Cluster percentiles are
/// power-of-two bucket bounds, so the limit is one too.
const SLO_P99_TICKS: u64 = 16_384;
/// Largest share of requests shed or failed at a sustainable rate.
const MAX_FAILED_FRAC: f64 = 0.001;
/// Quantile of the per-run host rates reported as the host rate: the
/// median. Each run already averages over 0.4 s of the host's quiet and
/// busy spells, and a 30-second run holds only about 60 of them, too few
/// for the high quantile the other workloads take of their thousands of
/// 2–3 ms blocks: the few fastest runs spread more than the median.
const RATE_QUANTILE: f64 = 0.5;
/// Zero-request runs timed for `setup_s`, spread over the run.
const SETUPS: usize = 9;

fn params(seed: u64, interarrival: u64, ops: u64) -> ClusterParams {
    ClusterParams {
        n_shards: 4,
        // The cluster seeds its client stream with `client.seed ^ seed`,
        // so the client's own seed stays 0 and the run seed drives both.
        client: ClientConfig {
            ops,
            interarrival,
            read_frac: 0.7,
            ..ClientConfig::default()
        },
        replication: ReplicationParams {
            n_slices: 16,
            replicas: 3,
        },
        seed,
        ..ClusterParams::default()
    }
}

/// Requests shed or failed (deadline) rather than served.
fn failed(r: &ClusterReport) -> u64 {
    r.shed_overload + r.shed_unavailable + r.deadline_exceeded
}

/// The run's oracle: nothing acked was lost, every request answered,
/// nothing applied twice, no stale owner acked, ownership consistent.
fn oracle(r: &ClusterReport) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, n) in [
        ("lost_acked", r.lost_acked),
        ("unanswered", r.unanswered),
        ("duplicate_applies", r.duplicate_applies),
        ("stale_epoch_acks", r.stale_epoch_acks),
    ] {
        if n != 0 {
            bad.push(format!("{name} = {n}"));
        }
    }
    if !r.ownership_consistent {
        bad.push("ownership inconsistent".into());
    }
    bad
}

/// Runs one configuration, folding oracle violations into `out`.
fn serve(p: ClusterParams, out: &mut Outcome) -> ClusterReport {
    let r = cluster::run(p).expect("benchmark cluster parameters are valid");
    for v in oracle(&r) {
        out.violation(format!("interarrival {}: {v}", p.client.interarrival));
    }
    r
}

/// Whether the run met the SLO: each generation's p99 within the limit
/// and almost nothing shed or failed.
fn sustainable(r: &ClusterReport) -> bool {
    r.latency_g1.p99 <= SLO_P99_TICKS
        && r.latency_g2.p99 <= SLO_P99_TICKS
        && (failed(r) as f64) <= MAX_FAILED_FRAC * r.arrivals as f64
}

/// Requests served, for host rates.
fn served(r: &ClusterReport) -> u64 {
    r.served_ok + r.served_degraded
}

/// Exact mean latency over both generations.
fn pooled_mean(r: &ClusterReport) -> f64 {
    let (a, b) = (&r.latency_g1, &r.latency_g2);
    ratio(
        a.mean * a.count as f64 + b.mean * b.count as f64,
        (a.count + b.count) as f64,
    )
}

/// Every report field except the checkpoint blobs a traced run adds.
fn fingerprint(r: &ClusterReport) -> String {
    let mut r = r.clone();
    r.checkpoint_blobs.clear();
    format!("{r:?}")
}

/// Counts machine trace events across every shard.
struct CountingSink(Rc<Cell<u64>>);

impl TraceSink for CountingSink {
    fn on_event(&mut self, _ev: &TraceEvent) {
        self.0.set(self.0.get() + 1);
    }
}

/// Untraced run: the end-to-end metrics.
pub fn run(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let setup = params(seed, HIGH_IA, 0);
    let mut setups = Setups::new(SETUPS, seconds);
    setups.time(|| serve(setup, &mut out));
    let begin = Instant::now();
    let low = serve(params(seed, LOW_IA, REQUESTS), &mut out);
    // One host-rate sample per high-rate run.
    let mut rates = Rates::new(1, RATE_QUANTILE);
    let high = serve(params(seed, HIGH_IA, REQUESTS), &mut out);
    rates.tick(served(&high));
    // Read before the bisection, whose probe rates differ from seed to
    // seed and with them the allocator's high-water mark.
    let rss = peak_rss_mb();
    for r in [&low, &high] {
        out.attempted += r.arrivals;
        let f = failed(r);
        if f > 0 {
            out.fail(f, format!("{f} requests shed or failed at a fixed rate"));
        }
    }
    // Probe runs above the knee shed by design: they feed the bisection
    // only, not the failure count.
    let mut probes = 0u64;
    let knee = if sustainable(&low) {
        bisect_min(MIN_IA, LOW_IA, |ia| {
            probes += 1;
            match ia {
                HIGH_IA => sustainable(&high),
                _ => sustainable(&serve(params(seed, ia, REQUESTS), &mut out)),
            }
        })
    } else {
        out.violation("even the low rate is unsustainable".into());
        LOW_IA
    };
    let expect = fingerprint(&high);
    while begin.elapsed().as_secs_f64() < seconds {
        rates.resume();
        let again = serve(params(seed, HIGH_IA, REQUESTS), &mut out);
        rates.tick(served(&again));
        out.attempted += again.arrivals;
        if fingerprint(&again) != expect {
            out.violation("a repeated high-rate run produced a different report".into());
        }
        if setups.due(begin.elapsed().as_secs_f64()) {
            setups.time(|| serve(setup, &mut out));
        }
    }
    let worst = |a: u64, b: u64| a.max(b) as f64;
    let high_n = high.latency_g1.count + high.latency_g2.count;
    let low_n = low.latency_g1.count + low.latency_g2.count;
    out.e2e("setup_s", setups.median(), "s", setups.times.len() as u64);
    out.e2e(
        "sim_ops_per_host_s",
        rates.rate(),
        "1/s",
        rates.samples.len() as u64,
    );
    rates.info(&mut out);
    out.e2e("peak_rss_mb", rss, "MB", 1);
    out.e2e("sim_cycles_per_op", knee as f64, "cycles", probes + 2);
    out.e2e("op_mean_sim_cycles", pooled_mean(&high), "cycles", high_n);
    out.e2e(
        "op_p50_sim_cycles",
        worst(high.latency_g1.p50, high.latency_g2.p50),
        "cycles",
        high_n,
    );
    out.e2e(
        "op_p99_sim_cycles",
        worst(high.latency_g1.p99, high.latency_g2.p99),
        "cycles",
        high_n,
    );
    out.info(
        "req_p50_ticks.low",
        worst(low.latency_g1.p50, low.latency_g2.p50),
        "ticks",
        low_n,
    );
    out.info(
        "req_p99_ticks.low",
        worst(low.latency_g1.p99, low.latency_g2.p99),
        "ticks",
        low_n,
    );
    out.info(
        "req_p50_ticks.high",
        worst(high.latency_g1.p50, high.latency_g2.p50),
        "ticks",
        high_n,
    );
    out.info(
        "req_p99_ticks.high",
        worst(high.latency_g1.p99, high.latency_g2.p99),
        "ticks",
        high_n,
    );
    out.info("req_mean_ticks.high", pooled_mean(&high), "ticks", high_n);
    out.info(
        "max_rate_req_per_mtick",
        1e6 / knee as f64,
        "req/Mtick",
        probes + 2,
    );
    out
}

/// Traced run: the per-layer metrics of the high-rate run, with a check
/// that the counting sinks changed no simulated result.
pub fn run_traced(seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let p = params(seed, HIGH_IA, REQUESTS);
    let events = Rc::new(Cell::new(0u64));
    let factory = |_shard: usize| -> Box<dyn TraceSink> { Box::new(CountingSink(events.clone())) };
    let (mut plain_rates, mut traced_rates) =
        (Rates::new(1, RATE_QUANTILE), Rates::new(1, RATE_QUANTILE));
    let mut first: Option<(ClusterReport, u64)> = None;
    let begin = Instant::now();
    while first.is_none() || begin.elapsed().as_secs_f64() < seconds {
        plain_rates.resume();
        let plain = serve(p, &mut out);
        plain_rates.tick(served(&plain));
        events.set(0);
        traced_rates.resume();
        let traced =
            cluster::run_traced(p, Some(&factory)).expect("benchmark cluster parameters are valid");
        traced_rates.tick(served(&traced));
        out.attempted += plain.arrivals + traced.arrivals;
        if fingerprint(&plain) != fingerprint(&traced) {
            out.violation("traced run's report differs from the untraced one".into());
        }
        first.get_or_insert((traced, events.get()));
    }
    let mut layers = Layers::new();
    if let Some((r, events)) = &first {
        let per_req = |n: u64| ratio(n as f64, r.arrivals as f64);
        layers.set("cluster.msgs_per_req", per_req(r.net.sent));
        layers.set("cluster.machine_events_per_req", per_req(*events));
        layers.set("cluster.hedges_per_req", per_req(r.hedges));
        layers.set(
            "cluster.hedge_waste_ratio",
            ratio(r.duplicate_replies as f64, r.hedges as f64),
        );
        layers.set("cluster.retries_per_req", per_req(r.retries));
        layers.set(
            "cluster.shed_frac",
            per_req(r.shed_overload + r.shed_unavailable),
        );
        layers.set("cluster.breaker_trips", r.breaker_trips as f64);
        layers.set(
            "cluster.front_cache_hit_ratio",
            ratio(r.cache_hits as f64, (r.cache_hits + r.cache_misses) as f64),
        );
        layers.set("cluster.g1_mean_ticks", r.latency_g1.mean);
        layers.set("cluster.g2_mean_ticks", r.latency_g2.mean);
        let max = r.shard_served.iter().copied().max().unwrap_or(0);
        let total: u64 = r.shard_served.iter().sum();
        layers.set(
            "cluster.shard_imbalance",
            ratio(max as f64, ratio(total as f64, r.shard_served.len() as f64)),
        );
    }
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

    fn empty_report() -> ClusterReport {
        cluster::run(params(0, LOW_IA, 0)).expect("zero-request run")
    }

    #[test]
    fn slo_predicate_checks_both_generations_and_failures() {
        let mut r = empty_report();
        r.arrivals = 10_000;
        assert!(sustainable(&r));
        r.latency_g2.p99 = 2 * SLO_P99_TICKS;
        assert!(!sustainable(&r));
        r.latency_g2.p99 = SLO_P99_TICKS;
        r.shed_overload = 10;
        assert!(sustainable(&r), "0.1% shed is still sustainable");
        r.deadline_exceeded = 1;
        assert!(!sustainable(&r));
    }

    #[test]
    fn pooled_mean_weights_generations_by_count() {
        let mut r = empty_report();
        r.latency_g1.count = 3;
        r.latency_g1.mean = 10.0;
        r.latency_g2.count = 1;
        r.latency_g2.mean = 2.0;
        assert_eq!(pooled_mean(&r), 8.0);
    }
}
