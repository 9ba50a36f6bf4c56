//! `ctl_mix`: deploy/revoke churn over a loopback `p4rp_ctl::server`
//! session, with no packets in the timed phase. Two closed-loop client
//! connections on two threads each run one operator script — deploy a
//! program, wait for the reply, revoke it, wait — cycling through all 15
//! families, so the resident count stays at 128.

use crate::layers::PacketLayers;
use crate::metrics::{self, LayerData, Server, TableAgg, Telemetry};
use crate::report::{Kind, Report};
use crate::setup::{self, DeploySample};
use crate::spans::Spans;
use crate::stats::{median, percentile, sorted};
use crate::RunCfg;
use p4rp_ctl::{serve, Client, ServerConfig};
use p4rp_progs::{instance, Family, WorkloadParams};
use serde::Value;
use std::time::{Duration, Instant};

/// Client connections.
pub const CLIENTS: usize = 2;

/// Instance indices reserved per client.
const CLIENT_STRIDE: usize = 1 << 20;

/// One client request as the client saw it.
#[derive(Debug, Clone)]
struct Request {
    client: usize,
    step: usize,
    deploy: bool,
    family: &'static str,
    start: Instant,
    end: Instant,
    ok: bool,
    device_ns: Option<u64>,
}

/// Client `c`'s `k`-th program: the families in turn, under a seeded
/// instance index. Both clients walk the families in step, so their
/// requests meet the server in the same pattern from run to run.
fn program(seed: u64, c: usize, k: usize) -> (Family, String, String) {
    let fam = Family::ALL[k % Family::ALL.len()];
    let i = 4096 + (seed as usize % 1024) * 64 + (c + 1) * CLIENT_STRIDE + k;
    (
        fam,
        format!("{}_{i:05}", fam.name()),
        instance(fam, i, WorkloadParams::default()),
    )
}

/// `ok` and, for a deploy, the first report's simulated update delay.
fn parse_reply(reply: &std::io::Result<String>) -> (bool, Option<u64>) {
    let Ok(text) = reply else {
        return (false, None);
    };
    let Ok(doc) = serde::json::parse(text) else {
        return (false, None);
    };
    let ok = doc.get("ok") == Some(&Value::Bool(true));
    let delay = doc
        .get("reports")
        .and_then(|r| r.as_array())
        .and_then(|r| r.first())
        .and_then(|r| match r.get("update_delay_ns") {
            Some(Value::U64(ns)) => Some(*ns),
            _ => None,
        });
    (ok, delay)
}

/// One operator script: whole 15-family cycles until the time is up.
fn client_script(
    addr: &str,
    seed: u64,
    c: usize,
    start: Instant,
    seconds: Duration,
) -> Vec<Request> {
    let mut out = Vec::new();
    let Ok(mut client) = Client::connect(addr) else {
        // A client that cannot connect counts as one failed request.
        let now = Instant::now();
        out.push(Request {
            client: c,
            step: 0,
            deploy: true,
            family: Family::ALL[0].name(),
            start: now,
            end: now,
            ok: false,
            device_ns: None,
        });
        return out;
    };
    let cycle = Family::ALL.len();
    for k in 0.. {
        if k % cycle == 0 && start.elapsed() >= seconds {
            break;
        }
        let (fam, name, src) = program(seed, c, k);
        let t0 = Instant::now();
        let reply = client.deploy(&src);
        let t1 = Instant::now();
        let (ok, device_ns) = parse_reply(&reply);
        out.push(Request {
            client: c,
            step: k,
            deploy: true,
            family: fam.name(),
            start: t0,
            end: t1,
            ok,
            device_ns,
        });
        let reply = client.revoke(&name);
        let t2 = Instant::now();
        let (rok, _) = parse_reply(&reply);
        out.push(Request {
            client: c,
            step: k,
            deploy: false,
            family: fam.name(),
            start: t1,
            end: t2,
            ok: rok,
            device_ns: None,
        });
        if reply.is_err() || !ok || !rok {
            break;
        }
    }
    out
}

/// Run the workload.
pub fn run(cfg: &RunCfg) -> Result<Report, String> {
    let mut r = Report::default();
    let (mut kept, walls) = setup::load_repeated(cfg.seed, &[], true, cfg.setup_reps, 1)?;
    let setup::Loaded {
        mut ctl,
        load,
        listener,
    } = kept.pop().expect("one load kept");
    let load_rss = crate::peak_rss_mb().unwrap_or(0.0);
    let listener = listener.expect("ctl_mix binds a listener");
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
    let addr = listener
        .local_addr()
        .map_err(|e| format!("listener address: {e}"))?
        .to_string();

    let seconds = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let (served, requests) = std::thread::scope(|s| {
        let server = s.spawn(move || {
            let stats = serve(&mut ctl, listener, &ServerConfig::default());
            (stats, ctl)
        });
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let addr = &addr;
                s.spawn(move || client_script(addr, cfg.seed, c, start, seconds))
            })
            .collect();
        let requests: Vec<Request> = clients
            .into_iter()
            .flat_map(|h| h.join().expect("client thread"))
            .collect();
        let stop = Client::connect(&addr).and_then(|mut c| c.shutdown());
        let served = server.join().expect("server thread");
        (stop.and(served.0).map(|st| (st, served.1)), requests)
    });
    let (stats, mut ctl) = served.map_err(|e| format!("server session: {e}"))?;
    let wall = requests
        .iter()
        .map(|q| q.end)
        .max()
        .map_or(0.0, |e| (e - start).as_secs_f64());

    let failed = requests.iter().filter(|q| !q.ok).count() as u64;
    r.attempted += requests.len() as u64;
    r.failed_ops += failed;
    r.check(
        "replies_ok",
        failed == 0,
        format!("{failed} of {} replies not ok", requests.len()),
    );
    let after = setup::probe(
        &mut ctl,
        cfg.seed,
        cfg.traced.then_some((&mut layers, &mut spans)),
    );
    r.attempted += 2 * setup::RESIDENTS as u64;
    r.check(
        "conservation",
        before.lost + after.lost == 0,
        format!(
            "{} probe frames neither emitted nor dropped",
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
    let digest = format!("probe={:016x} passes={}", before.digest, before.passes);
    crate::digest_check(&mut r, cfg, "ctl_mix", &digest);

    let ms = |q: &Request| (q.end - q.start).as_secs_f64() * 1e3;
    let dep = sorted(requests.iter().filter(|q| q.deploy).map(ms).collect());
    let rev = sorted(requests.iter().filter(|q| !q.deploy).map(ms).collect());
    let p50 = percentile(&dep, 0.5).ok_or("too few deploys for a p50")?;
    let ops = requests.len() as f64 / wall;
    let setup_s = median(&walls);
    let passes = before.passes as f64 / before.packets as f64;

    r.metric_line("setup_s", setup_s, "s", Kind::Host, walls.len());
    r.metric_line("ctl_ops_per_s", ops, "ops/s", Kind::Host, requests.len());
    r.percentile_lines("deploy_ms", &dep, "ms", Kind::Host);
    r.percentile_lines("revoke_ms", &rev, "ms", Kind::Host);
    r.metric_line(
        "sim_passes_per_pkt",
        passes,
        "passes",
        Kind::Sim,
        before.packets as usize,
    );

    // ROADMAP item 1, surfaced: how many distinct simulated update delays
    // each family's deploys got back from the server.
    let session_delays: Vec<(String, u64)> = requests
        .iter()
        .filter_map(|q| q.device_ns.map(|ns| (q.family.to_string(), ns)))
        .collect();
    let distinct = metrics::update_delay_distinct(&session_delays);
    r.line(format!(
        "server update_delay_ns distinct values per family: {}",
        distinct
            .iter()
            .map(|(f, n)| format!("{f}={n}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let coalesced = stats.batched_deploys as f64 / stats.requests.max(1) as f64;
    r.line(format!(
        "server.coalesced_share = {coalesced:.6} (batched_deploys {} / requests {})",
        stats.batched_deploys, stats.requests
    ));

    crate::e2e(&mut r, &walls, load_rss, &load);
    if cfg.traced {
        // Client spans are the timestamps every run takes, so the traced
        // run adds no work to the session: `trace.overhead_ratio` reads 0
        // here, meaning "nothing to compare".
        for q in &requests {
            let name = if q.deploy {
                "client.deploy"
            } else {
                "client.revoke"
            };
            spans.record(
                name,
                q.start,
                q.end,
                None,
                (q.client * CLIENT_STRIDE + q.step) as u64,
            );
        }

        // Replay each client's first cycle directly on the same controller
        // (back at its 128 residents) to split the deploy path into its
        // layers and to price the server against a direct call.
        let mut direct: Vec<DeploySample> = Vec::new();
        let mut overhead_share = Vec::new();
        for k in 0..Family::ALL.len() {
            for c in 0..CLIENTS {
                let (fam, name, src) = program(cfg.seed, c, k);
                let t0 = Instant::now();
                let reports = ctl
                    .deploy(&src)
                    .map_err(|e| format!("direct deploy `{name}`: {e}"))?;
                let t1 = Instant::now();
                let id = (c * CLIENT_STRIDE + k) as u64;
                let root = spans.record("direct.deploy", t0, t1, None, id);
                // The report gives each phase's duration, not its start:
                // the child spans are laid end to end from the deploy's
                // start, in the order the controller runs them.
                let rep = &reports[0];
                let (p, a) = (t0 + rep.parse_wall, t0 + rep.parse_wall + rep.alloc_wall);
                spans.record("lang.parse_check", t0, p, root, id);
                spans.record("alloc.solve", p, a, root, id);
                spans.record("control.channel_apply", a, a + rep.channel_wall, root, id);
                ctl.revoke(&name)
                    .map_err(|e| format!("direct revoke `{name}`: {e}"))?;
                r.attempted += 2;
                let sample = DeploySample::new(fam.name(), t1 - t0, rep);
                if let Some(q) = requests
                    .iter()
                    .find(|q| q.deploy && q.client == c && q.step == k)
                {
                    let client = (q.end - q.start).as_secs_f64();
                    overhead_share.push((client - sample.span.as_secs_f64()) / client);
                }
                direct.push(sample);
            }
        }
        let audit = ctl
            .audit()
            .map_err(|e| format!("audit after direct replay: {e}"))?;
        r.check(
            "audit_clean_after_direct_replay",
            audit.clean(),
            format!("{audit:?}"),
        );
        let data = LayerData {
            packets: layers,
            passes_per_pkt: passes,
            telemetry: Telemetry::read(ctl.switch().telemetry(), 2 * setup::RESIDENTS as u64),
            tables: TableAgg::of(ctl.switch(), [ctl.switch()]),
            measured: direct.clone(),
            sequential: direct,
            load,
            entry_cache: ctl.entry_cache_stats(),
            server: Server {
                overhead_share,
                coalesced_share: coalesced,
                rejected: stats.rejected_busy
                    + stats.rejected_rate_limited
                    + stats.rejected_timeout,
            },
            device_delays: session_delays,
            host_throughput: (ops, requests.len()),
            host_latency_us_p50: (p50.value * 1e3, p50.n),
            ..Default::default()
        };
        metrics::emit(&mut r, &data);
        metrics::decomposition_line(&mut r, &data.sequential);
        crate::spans_line(&mut r, cfg, "ctl_mix", &spans);
    }
    crate::fail_share_line(&mut r);

    Ok(r)
}
