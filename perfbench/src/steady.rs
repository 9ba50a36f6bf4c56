//! `replay_steady`: the seeded campus trace replayed sequentially through
//! `Controller::inject_into` over the residents plus five Table-1
//! programs on disjoint slices of the trace's flows. No control-plane
//! activity follows the initial load, so every cost is the packet path's.

use crate::layers::PacketLayers;
use crate::metrics::{self, LayerData, TableAgg, Telemetry};
use crate::report::{Kind, Report};
use crate::setup::{self, accounted, fold_fate, table1_sources};
use crate::spans::{Digest, Spans};
use crate::stats::{median, percentile, sorted};
use crate::RunCfg;
use p4rp_ctl::Controller;
use rmt_sim::clock::Nanos;
use rmt_sim::switch::ProcessOutcome;
use std::time::{Duration, Instant};
use traffic::{synthesize, CampusParams, TimedPacket};

/// The seeded campus trace every replay workload uses.
pub fn trace(cfg: &RunCfg) -> Vec<TimedPacket> {
    let p = CampusParams {
        seed: cfg.seed,
        duration: Nanos((cfg.trace_secs * 1e9) as u64),
        ..CampusParams::default()
    };
    synthesize(&p).packets
}

/// What the first pass over the trace produced: the part of the run
/// that is the same for every run with the same seed.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FirstPass {
    /// Fate digest of every packet, in trace order.
    pub digest: u64,
    /// Packets.
    pub packets: u64,
    /// Pipeline passes.
    pub passes: u64,
}

/// The untraced replay: whole passes over the trace.
struct Plain {
    first: FirstPass,
    /// `inject_into` host time per packet, ns.
    lat_ns: Vec<f64>,
    /// Host time per trace pass, s.
    pass_secs: Vec<f64>,
    /// Packets neither emitted nor dropped, or whose inject errored.
    lost: u64,
}

/// Replay whole passes over `packets`, each `inject_into` timed, until
/// `budget` is spent (at least one pass).
fn replay_plain(ctl: &mut Controller, packets: &[TimedPacket], budget: Duration) -> Plain {
    let n = packets.len();
    let mut out = ProcessOutcome::empty();
    let mut d = Digest::default();
    let mut plain = Plain {
        first: FirstPass::default(),
        lat_ns: Vec::new(),
        pass_secs: Vec::new(),
        lost: 0,
    };
    let start = Instant::now();
    while plain.pass_secs.is_empty() || start.elapsed() < budget {
        let first = plain.pass_secs.is_empty();
        let pass_start = Instant::now();
        for p in packets {
            let t0 = Instant::now();
            let res = ctl.inject_into(p.port, &p.frame, &mut out);
            plain.lat_ns.push(t0.elapsed().as_nanos() as f64);
            if res.is_err() || !accounted(&out) {
                plain.lost += 1;
            }
            if first {
                fold_fate(&mut d, &out);
                plain.first.passes += u64::from(out.passes);
            }
        }
        plain.pass_secs.push(pass_start.elapsed().as_secs_f64());
    }
    plain.first.digest = d.value();
    plain.first.packets = n as u64;
    plain
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut r = Report::default();
    let (mut kept, walls) =
        setup::load_repeated(cfg.seed, &table1_sources(), false, cfg.setup_reps, 1)?;
    let setup::Loaded { mut ctl, load, .. } = kept.pop().expect("one load kept");
    // Taken before the trace exists, so it is the program's own footprint.
    let load_rss = crate::peak_rss_mb().unwrap_or(0.0);
    let packets = trace(cfg);
    let n = packets.len();
    r.attempted += (load.len() * walls.len()) as u64;
    if cfg.traced {
        ctl.enable_telemetry();
    }
    let mut spans = Spans::new(crate::SPAN_CAP);
    let mut layers = PacketLayers::default();
    let before = setup::probe(
        &mut ctl,
        cfg.seed,
        cfg.traced.then_some((&mut layers, &mut spans)),
    );

    // A traced run replays plainly for a third of its time first: the
    // reference the layer-split replay's slowdown is measured against.
    let plain_share = if cfg.traced { 1.0 / 3.0 } else { 1.0 };
    let plain = replay_plain(
        &mut ctl,
        &packets,
        Duration::from_secs_f64(cfg.seconds * plain_share),
    );
    let plain_pkts = plain.lat_ns.len() as u64;
    r.attempted += plain_pkts;
    let mut lost = plain.lost;
    let mut traced_pkts = 0u64;
    let mut trace_overhead = 0.0;
    if cfg.traced {
        let mut out = ProcessOutcome::empty();
        let budget = Duration::from_secs_f64(cfg.seconds * (1.0 - plain_share));
        let t = Instant::now();
        while traced_pkts < n as u64 || t.elapsed() < budget {
            let p = &packets[traced_pkts as usize % n];
            let res = layers.inject(
                &mut ctl,
                p.port,
                &p.frame,
                &mut out,
                &mut spans,
                ("packet", traced_pkts),
            );
            if res.is_err() || !accounted(&out) {
                lost += 1;
            }
            traced_pkts += 1;
        }
        let traced_rate = traced_pkts as f64 / t.elapsed().as_secs_f64();
        let plain_rate = plain_pkts as f64 / plain.pass_secs.iter().sum::<f64>();
        trace_overhead = plain_rate / traced_rate;
        r.attempted += traced_pkts;
    }
    let after = setup::probe(
        &mut ctl,
        cfg.seed,
        cfg.traced.then_some((&mut layers, &mut spans)),
    );
    r.attempted += 2 * setup::RESIDENTS as u64;
    r.failed_ops += lost;
    r.check(
        "conservation",
        lost + before.lost + after.lost == 0,
        format!(
            "{lost} trace packets and {} probe frames neither emitted nor dropped",
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
    let audit = ctl.audit().map_err(|e| format!("audit: {e}"))?;
    r.check("audit_clean", audit.clean(), format!("{audit:?}"));
    let first = plain.first;
    let digest = format!(
        "probe={:016x} fates={:016x} packets={} passes={}",
        before.digest, first.digest, first.packets, first.passes
    );
    crate::digest_check(&mut r, cfg, "replay_steady", &digest);

    let passes = first.passes as f64 / first.packets as f64;
    let lat = sorted(plain.lat_ns);
    // Throughput from the median pass: one slow stretch of a shared host
    // moves a median pass less than the mean.
    let rate = n as f64 / median(&plain.pass_secs);
    let p50 = percentile(&lat, 0.5).ok_or("too few packets for a p50")?;
    crate::e2e(&mut r, &walls, load_rss, &load);
    if cfg.traced {
        let data = LayerData {
            packets: layers,
            passes_per_pkt: passes,
            // Telemetry counted every packet since it was switched on.
            telemetry: Telemetry::read(
                ctl.switch().telemetry(),
                plain_pkts + traced_pkts + 2 * setup::RESIDENTS as u64,
            ),
            tables: TableAgg::of(ctl.switch(), [ctl.switch()]),
            measured: load.clone(),
            sequential: load.clone(),
            device_delays: metrics::delays(&load),
            load,
            entry_cache: ctl.entry_cache_stats(),
            host_throughput: (rate, lat.len()),
            host_latency_us_p50: (p50.value / 1e3, p50.n),
            trace_overhead,
            ..Default::default()
        };
        metrics::emit(&mut r, &data);
        metrics::decomposition_line(&mut r, &data.sequential);
        crate::spans_line(&mut r, cfg, "replay_steady", &spans);
    }

    let setup_s = median(&walls);
    r.metric_line("setup_s", setup_s, "s", Kind::Host, walls.len());
    r.metric_line("replay_mpps", rate / 1e6, "Mpkt/s", Kind::Host, lat.len());
    r.percentile_lines("pkt_ns", &lat, "ns", Kind::Host);
    r.metric_line("sim_passes_per_pkt", passes, "passes", Kind::Sim, n);
    crate::fail_share_line(&mut r);

    Ok(r)
}
