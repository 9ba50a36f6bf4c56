//! The initial-load phase every workload shares: provision a controller,
//! install the 128 resident programs (all 15 families, built with
//! `p4rp_progs::instance`), and optionally a few Table-1 programs on
//! slices of the trace's flows. Also the resident probe: one frame to
//! every resident's own flow, before and after the timed phase.

use crate::layers::PacketLayers;
use crate::spans::{Digest, Spans};
use netpkt::{CacheOp, FiveTuple};
use p4rp_ctl::{Controller, DeployReport};
use p4rp_progs::catalog::{FILTER_IP, FILTER_SRC};
use p4rp_progs::{catalog_all, instance, instance_filter, Family, WorkloadParams};
use rmt_sim::switch::ProcessOutcome;
use std::net::{Ipv4Addr, TcpListener};
use std::time::{Duration, Instant};

/// Resident programs installed before every timed phase.
pub const RESIDENTS: usize = 128;

/// Initial-load repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// One deploy the benchmark timed, with its controller-side breakdown.
#[derive(Debug, Clone)]
pub struct DeploySample {
    /// Program family (`Family::name`, or the Table-1 name).
    pub family: String,
    /// Host time of the deploy call attributed to this program.
    pub span: Duration,
    /// Parse + check (`p4rp-lang`).
    pub parse: Duration,
    /// §4.3 allocation solve.
    pub solve: Duration,
    /// Control-channel apply on the host.
    pub channel: Duration,
    /// Solver nodes expanded.
    pub nodes: u64,
    /// Simulated device update delay, ns.
    pub device_ns: u64,
    /// Entries installed.
    pub entries: usize,
}

impl DeploySample {
    /// Build from a report, the host span of the call and its family.
    pub fn new(family: &str, span: Duration, r: &DeployReport) -> DeploySample {
        DeploySample {
            family: family.to_string(),
            span,
            parse: r.parse_wall,
            solve: r.alloc_wall,
            channel: r.channel_wall,
            nodes: r.alloc_nodes,
            device_ns: r.update_delay.0,
            entries: r.entries_installed,
        }
    }
}

/// Resident `i`'s family: the 15 families in turn, rotated by the seed so
/// the families that get a ninth instance change from seed to seed.
pub fn resident_family(i: usize, seed: u64) -> Family {
    Family::ALL[(i + seed as usize) % Family::ALL.len()]
}

/// Trace flows have destinations in `10.2.0.0/16`. Slice `b` of eight is
/// the `/19` whose third octet starts at `32 b`.
pub fn block_filter(b: u8) -> String {
    format!("<hdr.ipv4.dst, 10.2.{}.0, 0xffffe000>", 32 * u32::from(b))
}

/// Churn slice `s` of 24: a `/22` inside blocks 5..8 of the trace's
/// destinations, disjoint from every Table-1 block.
pub fn churn_filter(s: u8) -> String {
    format!(
        "<hdr.ipv4.dst, 10.2.{}.0, 0xfffffc00>",
        160 + 4 * u32::from(s)
    )
}

/// Churn slices available.
pub const CHURN_SLICES: u8 = 24;

/// The Table-1 programs the replay workloads add on top of the residents,
/// each retargeted to its own block of the trace's flows: a heavy-hitter
/// detector (recirculates), a load balancer, a tunnel, a count-min sketch
/// and ECN marking.
pub fn table1_sources() -> Vec<(String, String)> {
    let catalog = catalog_all();
    let pick = |name: &str, block: u8| {
        let spec = catalog
            .iter()
            .find(|s| s.name == name)
            .expect("catalog program");
        let src = spec
            .source
            .replace(FILTER_SRC, &block_filter(block))
            .replace(FILTER_IP, &block_filter(block));
        (format!("table1.{name}"), src)
    };
    vec![
        pick("hh", 0),
        pick("lb", 1),
        pick("tunnel", 2),
        pick("cms", 3),
        pick("ecn", 4),
    ]
}

/// One initial load.
pub struct Loaded {
    /// The loaded controller.
    pub ctl: Controller,
    /// Every deploy of the load, in order.
    pub load: Vec<DeploySample>,
    /// The control server's listener, when the workload serves.
    pub listener: Option<TcpListener>,
}

/// Provision, install the residents and `extra`, and bind the server
/// listener when `bind` is set. Returns the load and its host time.
pub fn load_once(
    seed: u64,
    extra: &[(String, String)],
    bind: bool,
) -> Result<(Loaded, f64), String> {
    let t0 = Instant::now();
    let mut ctl = Controller::with_defaults().map_err(|e| format!("provision: {e}"))?;
    let mut load = Vec::with_capacity(RESIDENTS + extra.len());
    let sources = (0..RESIDENTS).map(|i| {
        let fam = resident_family(i, seed);
        (
            fam.name().to_string(),
            instance(fam, i, WorkloadParams::default()),
        )
    });
    for (family, src) in sources.chain(extra.iter().cloned()) {
        let t = Instant::now();
        let reports = ctl
            .deploy(&src)
            .map_err(|e| format!("initial load `{family}`: {e}"))?;
        let span = t.elapsed();
        for r in &reports {
            load.push(DeploySample::new(&family, span / reports.len() as u32, r));
        }
    }
    let listener = if bind {
        Some(TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?)
    } else {
        None
    };
    let wall = t0.elapsed().as_secs_f64();
    Ok((
        Loaded {
            ctl,
            load,
            listener,
        },
        wall,
    ))
}

/// Repeat the initial load `reps` times (at least `keep`), keeping the
/// last `keep` loads; earlier ones are dropped as soon as they are timed,
/// so at most one load is alive beside the kept ones. Returns the kept
/// loads and every repetition's host time.
pub fn load_repeated(
    seed: u64,
    extra: &[(String, String)],
    bind: bool,
    reps: usize,
    keep: usize,
) -> Result<(Vec<Loaded>, Vec<f64>), String> {
    let reps = reps.max(keep);
    let mut kept = Vec::new();
    let mut walls = Vec::new();
    for rep in 0..reps {
        let (l, wall) = load_once(seed, extra, bind)?;
        walls.push(wall);
        if rep + keep >= reps {
            kept.push(l);
        }
    }
    Ok((kept, walls))
}

/// The probe frame addressed to resident `i`'s flow. Cache-style
/// residents get a cache read of a key they hold.
pub fn probe_frame(i: usize, seed: u64) -> Vec<u8> {
    let fam = resident_family(i, seed);
    let filter = instance_filter(i);
    let dst: Ipv4Addr = filter
        .split(", ")
        .nth(1)
        .and_then(|s| s.parse().ok())
        .expect("instance filters match one dotted destination");
    let tuple = FiveTuple {
        src_addr: Ipv4Addr::new(10, 1, 0, 1),
        dst_addr: dst,
        src_port: 40_000,
        dst_port: 7777,
        protocol: 17,
    };
    match fam {
        Family::Cache | Family::NetCache => {
            traffic::netcache_frame(&tuple, CacheOp::Read, 0x8000, 0)
        }
        _ => traffic::frame_for(&tuple, 64),
    }
}

/// What a probe saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Probe {
    /// Fate digest over every probe frame, in order.
    pub digest: u64,
    /// Frames injected.
    pub packets: u64,
    /// Pipeline passes they took.
    pub passes: u64,
    /// Frames that errored or were neither emitted nor dropped.
    pub lost: u64,
}

/// Send one frame to every resident through the master switch and digest
/// the fates. With `layers`, each frame is also split into its layers.
pub fn probe(
    ctl: &mut Controller,
    seed: u64,
    mut layers: Option<(&mut PacketLayers, &mut Spans)>,
) -> Probe {
    let mut out = ProcessOutcome::empty();
    let mut d = Digest::default();
    let mut p = Probe {
        digest: 0,
        packets: 0,
        passes: 0,
        lost: 0,
    };
    for i in 0..RESIDENTS {
        let frame = probe_frame(i, seed);
        let ok = match layers.as_mut() {
            Some((l, spans)) => l
                .inject(ctl, 0, &frame, &mut out, spans, ("probe", i as u64))
                .is_ok(),
            None => ctl.inject_into(0, &frame, &mut out).is_ok(),
        };
        p.packets += 1;
        if !ok || !accounted(&out) {
            p.lost += 1;
        }
        p.passes += u64::from(out.passes);
        fold_fate(&mut d, &out);
    }
    p.digest = d.value();
    p
}

/// Every frame is emitted or dropped, exactly one of the two.
pub fn accounted(out: &ProcessOutcome) -> bool {
    out.dropped == out.emitted.is_empty()
}

/// Fold one packet's fate into a digest: every emitted port and frame in
/// order, the drop flag and the report copies.
pub fn fold_fate(d: &mut Digest, out: &ProcessOutcome) {
    d.u64(out.emitted.len() as u64);
    for (port, bytes) in &out.emitted {
        d.u64(u64::from(*port));
        d.bytes(bytes);
    }
    d.u64(u64::from(out.dropped));
    d.u64(out.reports.len() as u64);
    for r in &out.reports {
        d.bytes(r);
    }
}
