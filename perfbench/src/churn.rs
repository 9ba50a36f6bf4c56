//! `replay_churn`: the same trace and residents, driven by
//! `traffic::ParallelReplay` on a 2-worker pool in fixed trace-time
//! chunks. Between chunks a churn event deploys a few shallow programs
//! with `deploy_many` on another slice of live flows and revokes the
//! previous event's set with `revoke_many`, so table writes land beside
//! packet reads.

use crate::layers::PacketLayers;
use crate::metrics::{self, LayerData, Parallel, TableAgg, Telemetry};
use crate::report::{Kind, Report};
use crate::setup::{self, churn_filter, table1_sources, DeploySample, CHURN_SLICES};
use crate::spans::{Digest, Spans};
use crate::stats::{median, percentile, sorted};
use crate::RunCfg;
use p4rp_ctl::{Controller, DeployReport};
use p4rp_progs::{instance, instance_filter, Family, WorkloadParams};
use rmt_sim::clock::Nanos;
use rmt_sim::parallel::WorkerPool;
use std::time::{Duration, Instant};
use traffic::replay::{BucketStats, ParallelReplay, Replay};
use traffic::TimedPacket;

/// Trace time per chunk.
pub const CHUNK: Nanos = Nanos(50_000_000);

/// The shallow families a churn event deploys, one program each.
pub const CHURN_FAMILIES: [Family; 6] = [
    Family::L2Fwd,
    Family::L3Route,
    Family::Tunnel,
    Family::Cms,
    Family::Bf,
    Family::SuMax,
];

/// Workers in the sharded pool.
pub const WORKERS: usize = 2;

/// Split a trace into consecutive `CHUNK`-long pieces, each rebased to
/// start at trace time zero.
pub fn chunks(packets: &[TimedPacket]) -> Vec<Vec<TimedPacket>> {
    let mut out: Vec<Vec<TimedPacket>> = Vec::new();
    for p in packets {
        let k = (p.t.0 / CHUNK.0) as usize;
        while out.len() <= k {
            out.push(Vec::new());
        }
        let t = Nanos(p.t.0 - k as u64 * CHUNK.0);
        out[k].push(TimedPacket {
            t,
            port: p.port,
            frame: p.frame.clone(),
        });
    }
    out.retain(|c| !c.is_empty());
    out
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The seeded event schedule: each event's programs, on slices disjoint
/// from the previous event's (which are still resident while it deploys).
pub struct Schedule {
    rng: u64,
    prev_slices: Vec<u8>,
}

impl Schedule {
    /// A fresh schedule for `seed`.
    pub fn new(seed: u64) -> Schedule {
        Schedule {
            rng: seed ^ 0x6368_7572_6e00_0000,
            prev_slices: Vec::new(),
        }
    }

    /// Event `e`'s programs: `(family, name, source)`.
    pub fn event(&mut self, e: usize) -> Vec<(&'static str, String, String)> {
        let mut free: Vec<u8> = (0..CHURN_SLICES)
            .filter(|s| !self.prev_slices.contains(s))
            .collect();
        let mut slices = Vec::with_capacity(CHURN_FAMILIES.len());
        for _ in 0..CHURN_FAMILIES.len() {
            let pick = (splitmix(&mut self.rng) % free.len() as u64) as usize;
            slices.push(free.swap_remove(pick));
        }
        self.prev_slices = slices.clone();
        CHURN_FAMILIES
            .iter()
            .zip(slices)
            .enumerate()
            .map(|(j, (fam, slice))| {
                let i = 100_000 + e * CHURN_FAMILIES.len() + j;
                let src = instance(*fam, i, WorkloadParams::default())
                    .replace(&instance_filter(i), &churn_filter(slice));
                (fam.name(), format!("{}_{i:05}", fam.name()), src)
            })
            .collect()
    }
}

/// Fold one chunk's merged aggregates into a digest: per-bucket counters,
/// per-port bytes and the reported flows, all in a canonical order.
fn fold_chunk(
    d: &mut Digest,
    stats: &[BucketStats],
    ports: &std::collections::HashMap<u16, u64>,
    flows: &std::collections::HashSet<netpkt::FiveTuple>,
) {
    for b in stats {
        for v in [
            b.offered_pkts,
            b.offered_bytes,
            b.tx_pkts,
            b.tx_bytes,
            b.dropped,
            b.reports,
        ] {
            d.u64(v);
        }
    }
    let mut ports: Vec<_> = ports.iter().collect();
    ports.sort();
    for (p, bytes) in ports {
        d.u64(u64::from(*p));
        d.u64(*bytes);
    }
    let mut flows: Vec<_> = flows.iter().collect();
    flows.sort();
    for f in flows {
        d.bytes(&f.src_addr.octets());
        d.bytes(&f.dst_addr.octets());
        d.u64((u64::from(f.src_port) << 24) | (u64::from(f.dst_port) << 8) | u64::from(f.protocol));
    }
}

fn fold_reports(d: &mut Digest, reports: &[DeployReport]) {
    for r in reports {
        d.bytes(r.name.as_bytes());
        d.u64(r.entries_installed as u64);
        d.u64(r.update_delay.0);
    }
}

/// Every packet is emitted or dropped, once: the merged counters agree.
fn conserved(stats: &[BucketStats], packets: usize) -> bool {
    let sum = |f: fn(&BucketStats) -> u64| stats.iter().map(f).sum::<u64>();
    sum(|b| b.offered_pkts) == packets as u64
        && sum(|b| b.tx_pkts) + sum(|b| b.dropped) == packets as u64
}

/// One churn event's outcome.
struct Event {
    reports: Vec<DeployReport>,
    deploy: Duration,
    revoke: Duration,
    families: Vec<&'static str>,
    names: Vec<String>,
    failures: u64,
}

/// Deploy event `e`'s programs, then revoke `prev`.
fn churn_event(ctl: &mut Controller, sched: &mut Schedule, e: usize, prev: &[String]) -> Event {
    let programs = sched.event(e);
    let sources: Vec<String> = programs.iter().map(|p| p.2.clone()).collect();
    let t0 = Instant::now();
    let results = ctl.deploy_many(&sources);
    let deploy = t0.elapsed();
    let t1 = Instant::now();
    let revoked = ctl.revoke_many(prev);
    let revoke = t1.elapsed();
    let mut failures = 0;
    let mut reports = Vec::new();
    for r in results {
        match r {
            Ok(rs) => reports.extend(rs),
            Err(_) => failures += 1,
        }
    }
    failures += revoked.iter().filter(|r| r.is_err()).count() as u64;
    Event {
        reports,
        deploy,
        revoke,
        families: programs.iter().map(|p| p.0).collect(),
        names: programs.into_iter().map(|p| p.1).collect(),
        failures,
    }
}

fn pool(ctl: &mut Controller) -> &mut WorkerPool {
    ctl.workers_mut().expect("the worker pool is enabled")
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut r = Report::default();
    let keep = if cfg.traced { 2 } else { 1 };
    let (mut kept, walls) =
        setup::load_repeated(cfg.seed, &table1_sources(), false, cfg.setup_reps, keep)?;
    let setup::Loaded {
        ctl: mut a, load, ..
    } = kept.pop().expect("one load kept");
    // Taken before the trace exists, so it is the program's own footprint.
    let load_rss = crate::peak_rss_mb().unwrap_or(0.0);
    let chunks = chunks(&crate::steady::trace(cfg));
    let nchunks = chunks.len();
    let first_pass_pkts: usize = chunks.iter().map(Vec::len).sum();
    r.attempted += (load.len() * walls.len()) as u64;
    if cfg.traced {
        a.enable_telemetry();
    }
    let before = setup::probe(&mut a, cfg.seed, None);
    a.enable_workers(WORKERS);

    let mut spans = Spans::new(crate::SPAN_CAP);
    let mut sched = Schedule::new(cfg.seed);
    let mut digest = Digest::default();
    digest.u64(before.digest);
    let mut par = Parallel::default();
    let mut deploy_ms = Vec::new();
    let mut revoke_ms = Vec::new();
    // The first pass's deploys: a fixed set, so its sim figures repeat.
    let mut measured: Vec<DeploySample> = Vec::new();
    let mut first_device_ms = Vec::new();
    let mut first_passes = 0.0;
    let mut prev: Vec<String> = Vec::new();
    let mut pass_secs = Vec::new();
    let mut this_pass = 0.0;
    let mut chunk_pkts = 0u64;
    let mut lost_chunks = 0u64;
    let mut failures = 0u64;
    let seconds = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut k = 0usize;
    loop {
        let chunk = &chunks[k % nchunks];
        let master_gen = a.channel().snapshot_generation();
        let behind = pool(&mut a)
            .stats()
            .iter()
            .map(|w| master_gen - w.snapshot_generation)
            .max();
        par.lag.push(behind.unwrap_or(0) as f64);
        let pr = ParallelReplay::new(chunk.clone(), WORKERS);
        let sizes = pr.shard_sizes();
        let mean_size = chunk.len() as f64 / sizes.len() as f64;
        par.imbalance
            .push(*sizes.iter().max().unwrap_or(&0) as f64 / mean_size);
        let t0 = Instant::now();
        let out = pr.run(pool(&mut a));
        let t1 = Instant::now();
        let root = spans.record("parallel.chunk", t0, t1, None, k as u64);
        let out = out.map_err(|e| format!("chunk {k}: {e}"))?;
        r.attempted += chunk.len() as u64;
        this_pass += (t1 - t0).as_secs_f64();
        if (k + 1).is_multiple_of(nchunks) {
            pass_secs.push(std::mem::take(&mut this_pass));
        }
        chunk_pkts += chunk.len() as u64;
        par.chunk_mpps
            .push(chunk.len() as f64 / (t1 - t0).as_secs_f64() / 1e6);
        if !conserved(&out.stats, chunk.len()) {
            lost_chunks += 1;
        }
        if k < nchunks {
            fold_chunk(
                &mut digest,
                &out.stats,
                &out.port_tx_bytes,
                &out.reported_flows,
            );
        }
        if k + 1 == nchunks {
            let st = pool(&mut a).stats();
            let pkts: u64 = st.iter().map(|w| w.packets).sum();
            let recirc: u64 = st.iter().map(|w| w.recirc_passes).sum();
            first_passes = (pkts + recirc) as f64 / pkts as f64;
        }

        let t2 = Instant::now();
        let ev = churn_event(&mut a, &mut sched, k, &prev);
        spans.record("churn.deploy_many", t2, t2 + ev.deploy, root, k as u64);
        spans.record(
            "churn.revoke_many",
            t2 + ev.deploy,
            t2 + ev.deploy + ev.revoke,
            root,
            k as u64,
        );
        r.attempted += (ev.names.len() + prev.len()) as u64;
        failures += ev.failures;
        let n = ev.names.len() as u32;
        deploy_ms.push((ev.deploy / n).as_secs_f64() * 1e3);
        if !prev.is_empty() {
            revoke_ms.push((ev.revoke / prev.len() as u32).as_secs_f64() * 1e3);
        }
        if k < nchunks {
            for (rep, fam) in ev.reports.iter().zip(&ev.families) {
                measured.push(DeploySample::new(fam, ev.deploy / n, rep));
            }
            fold_reports(&mut digest, &ev.reports);
            first_device_ms.extend(ev.reports.iter().map(|r| r.update_delay.0 as f64 / 1e6));
        }
        prev = ev.names;
        k += 1;
        if k.is_multiple_of(nchunks) && start.elapsed() >= seconds {
            break;
        }
    }
    let last = a.revoke_many(&prev);
    r.attempted += last.len() as u64;
    failures += last.iter().filter(|x| x.is_err()).count() as u64;
    r.failed_ops += failures;
    r.check(
        "churn_ops_ok",
        failures == 0,
        format!("{failures} deploy/revoke operations failed"),
    );
    let after = setup::probe(&mut a, cfg.seed, None);
    r.attempted += 2 * setup::RESIDENTS as u64;
    r.check(
        "conservation",
        lost_chunks + before.lost + after.lost == 0,
        format!(
            "{lost_chunks} chunks whose emitted + dropped != injected, {} probe frames lost",
            before.lost + after.lost
        ),
    );
    r.check(
        "residents_undisturbed",
        before.digest == after.digest,
        format!(
            "probe digest {:016x} before, {:016x} after",
            before.digest, after.digest
        ),
    );
    let audit = a.audit().map_err(|e| format!("audit: {e}"))?;
    r.check("audit_clean", audit.clean(), format!("{audit:?}"));
    let digest_text = format!(
        "probe={:016x} first_pass={:016x} chunks={nchunks} packets={first_pass_pkts}",
        before.digest,
        digest.value()
    );
    crate::digest_check(&mut r, cfg, "replay_churn", &digest_text);

    // Throughput from the median trace pass (all chunks once), so one
    // slow stretch of a shared host moves it less than the mean would.
    let rate = first_pass_pkts as f64 / median(&pass_secs);
    let mpps = rate / 1e6;
    let deploy_ms = sorted(deploy_ms);
    let p50 = percentile(&deploy_ms, 0.5).ok_or("too few churn events for a p50")?;
    let revoke_ms = sorted(revoke_ms);
    let dev = sorted(first_device_ms);
    let dev50 = dev[dev.len() / 2];
    let setup_s = median(&walls);

    r.metric_line("setup_s", setup_s, "s", Kind::Host, walls.len());
    r.metric_line(
        "replay_mpps",
        mpps,
        "Mpkt/s",
        Kind::Host,
        chunk_pkts as usize,
    );
    r.metric_line(
        "sim_passes_per_pkt",
        first_passes,
        "passes",
        Kind::Sim,
        first_pass_pkts,
    );
    r.percentile_lines("deploy_ms", &deploy_ms, "ms", Kind::Host);
    r.percentile_lines("revoke_ms", &revoke_ms, "ms", Kind::Host);
    r.metric_line("deploy_device_ms_p50", dev50, "ms", Kind::Sim, dev.len());

    let deterministic: Vec<DeploySample> = load.iter().chain(&measured).cloned().collect();
    crate::e2e(&mut r, &walls, load_rss, &deterministic);
    if cfg.traced {
        let b = kept.pop().expect("a second load for the sequential replay");
        let seq = sequential_check(
            &mut r,
            cfg,
            b.ctl,
            &chunks,
            &before,
            digest.value(),
            &mut spans,
        )?;
        let workers: Vec<&rmt_sim::switch::Switch> = a
            .workers()
            .expect("pool")
            .workers()
            .iter()
            .map(|w| w.switch())
            .collect();
        let tables = TableAgg::of(a.switch(), workers);
        par.generations = a.channel().snapshot_generation();
        par.scaling_2w = seq.scaling_2w;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        r.line(format!(
            "parallel.scaling_2w = {:.4} on a host with {cores} cores",
            seq.scaling_2w
        ));
        let telemetry_pkts = chunk_pkts + 2 * setup::RESIDENTS as u64;
        let device_delays = metrics::delays(&measured);
        let data = LayerData {
            packets: seq.layers,
            passes_per_pkt: first_passes,
            telemetry: Telemetry::read(a.merged_dataplane().as_ref(), telemetry_pkts),
            tables,
            parallel: par,
            measured,
            sequential: load.clone(),
            load,
            entry_cache: a.entry_cache_stats(),
            device_delays,
            host_throughput: (seq.plain_mpps * 1e6, seq.plain_pkts as usize),
            host_latency_us_p50: (p50.value * 1e3, p50.n),
            trace_overhead: seq.plain_mpps / mpps,
            ..Default::default()
        };
        metrics::emit(&mut r, &data);
        metrics::decomposition_line(&mut r, &data.sequential);
        crate::spans_line(&mut r, cfg, "replay_churn", &spans);
    }
    crate::fail_share_line(&mut r);

    Ok(r)
}

/// What the traced run's second controller measured.
struct Sequential {
    layers: PacketLayers,
    scaling_2w: f64,
    /// Untraced 2-worker throughput over the first pass, and its packets.
    plain_mpps: f64,
    plain_pkts: u64,
}

/// Replay the first pass — the same chunks and churn events — through
/// the sequential engine on a second, identically loaded controller, and
/// require the same digest as the 2-worker run. The packet layers are
/// split on this replay. Then time the same chunks through a 1-worker
/// and a 2-worker pool on it (no telemetry: the untraced reference).
fn sequential_check(
    r: &mut Report,
    cfg: &RunCfg,
    mut b: Controller,
    chunks: &[Vec<TimedPacket>],
    before: &setup::Probe,
    parallel_digest: u64,
    spans: &mut Spans,
) -> Result<Sequential, String> {
    let mut layers = PacketLayers::default();
    let probe = setup::probe(&mut b, cfg.seed, Some((&mut layers, spans)));
    let mut digest = Digest::default();
    digest.u64(probe.digest);
    let mut sched = Schedule::new(cfg.seed);
    let mut prev: Vec<String> = Vec::new();
    let mut lost = 0u64;
    let mut id = 0u64;
    for (k, chunk) in chunks.iter().enumerate() {
        let mut rep = Replay::new(chunk.clone());
        rep.run_all_into(|port, frame, out| {
            if layers
                .inject(&mut b, port, frame, out, spans, ("packet", id))
                .is_err()
            {
                lost += 1;
            }
            id += 1;
        });
        if !conserved(&rep.stats, chunk.len()) {
            lost += 1;
        }
        fold_chunk(
            &mut digest,
            &rep.stats,
            &rep.port_tx_bytes,
            &rep.reported_flows,
        );
        let ev = churn_event(&mut b, &mut sched, k, &prev);
        fold_reports(&mut digest, &ev.reports);
        lost += ev.failures;
        prev = ev.names;
    }
    r.attempted += id;
    r.failed_ops += lost;
    r.check(
        "probe_repeats_on_second_load",
        probe.digest == before.digest,
        "identical loads answer the probe identically",
    );
    r.check(
        "parallel_equals_sequential",
        digest.value() == parallel_digest,
        format!(
            "2-worker first-pass digest {parallel_digest:016x}, sequential {:016x}",
            digest.value()
        ),
    );

    let time_pool = |b: &mut Controller, n: usize| -> Result<(f64, u64), String> {
        b.disable_workers();
        b.enable_workers(n);
        let mut secs = 0.0;
        let mut pkts = 0u64;
        for chunk in chunks {
            let pr = ParallelReplay::new(chunk.clone(), n);
            let t = Instant::now();
            pr.run(pool(b)).map_err(|e| format!("scaling run: {e}"))?;
            secs += t.elapsed().as_secs_f64();
            pkts += chunk.len() as u64;
        }
        Ok((secs, pkts))
    };
    let (one, _) = time_pool(&mut b, 1)?;
    let (two, pkts) = time_pool(&mut b, WORKERS)?;
    r.attempted += 2 * pkts;
    Ok(Sequential {
        layers,
        scaling_2w: one / two,
        plain_mpps: pkts as f64 / two / 1e6,
        plain_pkts: pkts,
    })
}
