//! The per-layer metric set, emitted identically by every workload so the
//! traced result line always carries the same names. A layer a workload
//! leaves idle reads 0 in a count, share or rate unit; every time-valued
//! layer metric is measured on every workload (packet layers through the
//! resident probe at least, control layers through the initial load at
//! least).

use crate::layers::PacketLayers;
use crate::report::{Kind, Report};
use crate::setup::DeploySample;
use crate::stats::{mean, percentile, sorted};
use p4rp_progs::Family;
use rmt_sim::switch::Switch;
use std::collections::{BTreeMap, BTreeSet};

/// Table occupancy and lookup-cache counters over a set of switches.
#[derive(Debug, Default, Clone, Copy)]
pub struct TableAgg {
    /// Installed entries on the master.
    pub entries: u64,
    /// Largest tuple-space group count of any table.
    pub tss_groups_max: u64,
    /// Megaflow-cache hits over the packet-carrying switches.
    pub cache_hits: u64,
    /// Megaflow-cache misses over the packet-carrying switches.
    pub cache_misses: u64,
}

impl TableAgg {
    /// Occupancy from `master`, cache counters from `carriers` (the
    /// switches that processed packets: the master, or every worker).
    pub fn of<'a>(master: &Switch, carriers: impl IntoIterator<Item = &'a Switch>) -> TableAgg {
        let mut t = TableAgg::default();
        for s in master.table_index_stats() {
            t.entries += s.entries;
            t.tss_groups_max = t.tss_groups_max.max(s.tss_groups);
        }
        for sw in carriers {
            for s in sw.table_index_stats() {
                t.cache_hits += s.cache_hits;
                t.cache_misses += s.cache_misses;
            }
        }
        t
    }
}

/// Packet-side telemetry totals while the counters were on.
#[derive(Debug, Default, Clone, Copy)]
pub struct Telemetry {
    /// Installed-entry hits, both gresses.
    pub hits: u64,
    /// SALU read-modify-writes, both gresses.
    pub salu_rmw: u64,
    /// Packets injected while the counters were on.
    pub packets: u64,
}

impl Telemetry {
    /// Read the totals from a switch's (or a merged) recorder.
    pub fn read(m: Option<&rmt_sim::telemetry::MetricsRecorder>, packets: u64) -> Telemetry {
        let Some(m) = m else {
            return Telemetry {
                packets,
                ..Default::default()
            };
        };
        let (i, e) = (m.ingress.total(), m.egress.total());
        Telemetry {
            hits: i.hits.get() + e.hits.get(),
            salu_rmw: i.salu_reads.get() + e.salu_reads.get(),
            packets,
        }
    }
}

/// The sharded data plane's figures (replay_churn only).
#[derive(Debug, Default, Clone)]
pub struct Parallel {
    /// Per-chunk throughput of `ParallelReplay::run`, Mpkt/s.
    pub chunk_mpps: Vec<f64>,
    /// Per-chunk largest shard over the mean shard.
    pub imbalance: Vec<f64>,
    /// 1-worker time over 2-worker time for the same chunks.
    pub scaling_2w: f64,
    /// Snapshot generations the master published.
    pub generations: u64,
    /// Per-chunk generations the slowest worker was behind at chunk start.
    pub lag: Vec<f64>,
}

/// The control server's figures (ctl_mix only).
#[derive(Debug, Default, Clone)]
pub struct Server {
    /// Per-deploy share of the client span not spent in a direct deploy.
    pub overhead_share: Vec<f64>,
    /// `batched_deploys / requests`.
    pub coalesced_share: f64,
    /// Busy + rate-limited + timed-out requests.
    pub rejected: u64,
}

/// Everything a workload collected for the per-layer line.
#[derive(Debug, Default)]
pub struct LayerData {
    /// Packet-layer samples.
    pub packets: PacketLayers,
    /// Pipeline passes per packet over the run's fixed packet set (the
    /// first trace pass, or the resident probe).
    pub passes_per_pkt: f64,
    /// Telemetry totals.
    pub telemetry: Telemetry,
    /// Table figures.
    pub tables: TableAgg,
    /// Sharded data-plane figures.
    pub parallel: Parallel,
    /// Deploys the timed phase measured (or the load, when it has none).
    pub measured: Vec<DeploySample>,
    /// Sequential deploys whose span is the program's own.
    pub sequential: Vec<DeploySample>,
    /// The initial load, for families the measured set lacks.
    pub load: Vec<DeploySample>,
    /// `Controller::entry_cache_stats` (hits, misses).
    pub entry_cache: (u64, u64),
    /// Control-server figures.
    pub server: Server,
    /// Simulated update delay of every deploy the timed phase made (the
    /// initial load's when it made none), by family.
    pub device_delays: Vec<(String, u64)>,
    /// The workload's host throughput (packets or requests per second)
    /// and its sample count, from the run's untraced part.
    pub host_throughput: (f64, usize),
    /// The workload's host p50 latency, us, and its sample count.
    pub host_latency_us_p50: (f64, usize),
    /// Untraced throughput over traced throughput (above 1: tracing slows
    /// the run down); 0 where the traced run adds no work to the timed
    /// phase (ctl_mix).
    pub trace_overhead: f64,
}

fn p50(v: &[f64]) -> (f64, usize) {
    let s = sorted(v.to_vec());
    // Small sets (a few deploys) fall back to the upper median.
    let value = percentile(&s, 0.5)
        .map(|p| p.value)
        .or_else(|| s.get(s.len() / 2).copied());
    (value.unwrap_or(0.0), s.len())
}

fn share(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

fn us(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Distinct simulated update delays per family.
pub fn update_delay_distinct(delays: &[(String, u64)]) -> BTreeMap<String, usize> {
    let mut m: BTreeMap<String, BTreeSet<u64>> = BTreeMap::new();
    for (family, ns) in delays {
        m.entry(family.clone()).or_default().insert(*ns);
    }
    m.into_iter().map(|(k, v)| (k, v.len())).collect()
}

/// Append the full per-layer set to `r`.
pub fn emit(r: &mut Report, d: &LayerData) {
    use Kind::{Count, Host, Sim};
    let pk = &d.packets;
    for (name, v) in [
        ("parser.parse_ns", &pk.parse_ns),
        ("parser.deparse_ns", &pk.deparse_ns),
        ("tm.decide_ns", &pk.decide_ns),
        ("pipeline.residual_ns_per_pass", &pk.residual_ns_per_pass),
    ] {
        let (value, n) = p50(v);
        r.layer(name, "ns", Host, value, Some(n));
    }
    let pkts = Some(pk.packets as usize);
    r.layer(
        "tm.recirc_share",
        "fraction",
        Count,
        share(pk.recirculated, pk.packets),
        pkts,
    );
    r.layer(
        "tm.drop_share",
        "fraction",
        Count,
        share(pk.dropped, pk.packets),
        pkts,
    );
    r.layer("tm.passes_per_pkt", "passes", Sim, d.passes_per_pkt, None);
    let t = d.telemetry;
    let tn = Some(t.packets as usize);
    r.layer(
        "pipeline.table_hits_per_pkt",
        "count",
        Count,
        share(t.hits, t.packets),
        tn,
    );
    r.layer(
        "pipeline.salu_rmw_per_pkt",
        "count",
        Count,
        share(t.salu_rmw, t.packets),
        tn,
    );
    r.layer(
        "table.entries_total",
        "count",
        Count,
        d.tables.entries as f64,
        None,
    );
    r.layer(
        "table.tss_groups_max",
        "count",
        Count,
        d.tables.tss_groups_max as f64,
        None,
    );
    let lookups = d.tables.cache_hits + d.tables.cache_misses;
    r.layer(
        "table.cache_hit_ratio",
        "fraction",
        Count,
        share(d.tables.cache_hits, lookups),
        None,
    );

    let par = &d.parallel;
    let (mpps, chunks) = p50(&par.chunk_mpps);
    r.layer("parallel.chunk_mpps", "Mpkt/s", Host, mpps, Some(chunks));
    r.layer(
        "parallel.shard_imbalance",
        "ratio",
        Count,
        mean(&par.imbalance).unwrap_or(0.0),
        Some(chunks),
    );
    r.layer("parallel.scaling_2w", "ratio", Host, par.scaling_2w, None);
    r.layer(
        "snapshot.generations",
        "count",
        Count,
        par.generations as f64,
        None,
    );
    r.layer(
        "snapshot.worker_lag",
        "count",
        Count,
        mean(&par.lag).unwrap_or(0.0),
        Some(par.lag.len()),
    );

    let m = &d.measured;
    let mn = Some(m.len());
    let device_ms: Vec<f64> = m.iter().map(|s| s.device_ns as f64 / 1e6).collect();
    r.layer(
        "control.device_ms",
        "ms",
        Sim,
        mean(&device_ms).unwrap_or(0.0),
        mn,
    );
    let entries: Vec<f64> = m.iter().map(|s| s.entries as f64).collect();
    r.layer(
        "control.entries_per_deploy",
        "count",
        Count,
        mean(&entries).unwrap_or(0.0),
        mn,
    );
    let col = |f: fn(&DeploySample) -> std::time::Duration| -> Vec<f64> {
        m.iter().map(|s| us(f(s))).collect()
    };
    r.layer(
        "control.apply_us",
        "us",
        Host,
        p50(&col(|s| s.channel)).0,
        mn,
    );
    r.layer(
        "lang.parse_check_us",
        "us",
        Host,
        p50(&col(|s| s.parse)).0,
        mn,
    );
    let solve = col(|s| s.solve);
    r.layer("alloc.solve_us", "us", Host, p50(&solve).0, mn);
    r.layer(
        "alloc.solve_us_mean",
        "us",
        Host,
        mean(&solve).unwrap_or(0.0),
        mn,
    );
    for fam in Family::ALL {
        let pick = |set: &[DeploySample]| -> Vec<f64> {
            set.iter()
                .filter(|s| s.family == fam.name())
                .map(|s| s.nodes as f64)
                .collect()
        };
        let mut nodes = pick(m);
        if nodes.is_empty() {
            nodes = pick(&d.load);
        }
        let name = format!("alloc.nodes_per_deploy.{}", fam.name());
        r.layer(
            &name,
            "count",
            Sim,
            mean(&nodes).unwrap_or(0.0),
            Some(nodes.len()),
        );
    }
    let (hits, misses) = d.entry_cache;
    r.layer(
        "entrygen.cache_hit_ratio",
        "fraction",
        Count,
        share(hits, hits + misses),
        None,
    );

    let seq = &d.sequential;
    let sn = Some(seq.len());
    let spans: Vec<f64> = seq.iter().map(|s| us(s.span)).collect();
    let unattributed: Vec<f64> = seq
        .iter()
        .map(|s| us(s.span) - us(s.parse) - us(s.solve) - us(s.channel))
        .collect();
    r.layer("controller.deploy_span_us", "us", Host, p50(&spans).0, sn);
    r.layer(
        "controller.unattributed_us",
        "us",
        Host,
        p50(&unattributed).0,
        sn,
    );

    let sv = &d.server;
    let (ovh, on) = p50(&sv.overhead_share);
    r.layer("server.overhead_share", "fraction", Host, ovh, Some(on));
    r.layer(
        "server.coalesced_share",
        "fraction",
        Count,
        sv.coalesced_share,
        None,
    );
    r.layer("server.rejected", "count", Count, sv.rejected as f64, None);
    let distinct = update_delay_distinct(&d.device_delays)
        .into_values()
        .max()
        .unwrap_or(0);
    let dn = Some(d.device_delays.len());
    r.layer(
        "control.update_delay_distinct_max",
        "count",
        Count,
        distinct as f64,
        dn,
    );

    let (rate, rn) = d.host_throughput;
    r.layer("host.throughput_per_s", "1/s", Host, rate, Some(rn));
    let (lat, ln) = d.host_latency_us_p50;
    r.layer("host.latency_us_p50", "us", Host, lat, Some(ln));
    let peak = crate::peak_rss_mb().unwrap_or(0.0);
    r.layer("host.peak_rss_mb", "MB", Host, peak, None);
    r.layer(
        "trace.overhead_ratio",
        "ratio",
        Host,
        d.trace_overhead,
        None,
    );
}

/// `(family, update delay)` pairs of a deploy set.
pub fn delays(set: &[DeploySample]) -> Vec<(String, u64)> {
    set.iter()
        .map(|s| (s.family.clone(), s.device_ns))
        .collect()
}

/// Print the ctl-path decomposition of sequential deploys: parse + solve
/// + channel + unattributed against the deploy span, summed.
pub fn decomposition_line(r: &mut Report, seq: &[DeploySample]) {
    let sum =
        |f: fn(&DeploySample) -> std::time::Duration| -> f64 { seq.iter().map(|s| us(f(s))).sum() };
    let (span, parse, solve, channel) = (
        sum(|s| s.span),
        sum(|s| s.parse),
        sum(|s| s.solve),
        sum(|s| s.channel),
    );
    let unattributed = span - parse - solve - channel;
    r.line(format!(
        "deploy decomposition over {} sequential deploys: parse {parse:.1} us + solve {solve:.1} us \
         + channel {channel:.1} us + unattributed {unattributed:.1} us = span {span:.1} us",
        seq.len()
    ));
}
