//! Per-packet layer split, measured from outside the switch: the whole
//! `Controller::inject_into` call is timed, then the parser, the traffic
//! manager's decision and the deparser are re-run on the same frame and
//! the outcome PHV through their public functions and timed on their own.
//! What the three do not cover is the pipeline's share.

use crate::spans::Spans;
use p4rp_ctl::Controller;
use rmt_sim::phv::Phv;
use rmt_sim::switch::ProcessOutcome;
use rmt_sim::tm;
use std::hint::black_box;
use std::time::Instant;

/// Packets whose spans are kept in the trace file (all are measured).
pub const SPAN_PACKETS: u64 = 2048;

/// Per-layer samples over the packets injected through [`PacketLayers::inject`].
#[derive(Debug, Default)]
pub struct PacketLayers {
    /// `Parser::parse` per frame, ns.
    pub parse_ns: Vec<f64>,
    /// `Parser::deparse` on the outcome PHV plus payload, ns.
    pub deparse_ns: Vec<f64>,
    /// `tm::decide` on the outcome PHV, ns.
    pub decide_ns: Vec<f64>,
    /// Inject span minus the three above, per pass, ns.
    pub residual_ns_per_pass: Vec<f64>,
    /// Packets measured.
    pub packets: u64,
    /// Packets that took more than one pass.
    pub recirculated: u64,
    /// Packets dropped.
    pub dropped: u64,
    phv: Option<Phv>,
}

impl PacketLayers {
    /// Inject one frame through the controller and split its cost into
    /// layers. `tag` names the root span and carries the packet id; spans
    /// are kept for ids below [`SPAN_PACKETS`].
    pub fn inject(
        &mut self,
        ctl: &mut Controller,
        port: u16,
        frame: &[u8],
        out: &mut ProcessOutcome,
        spans: &mut Spans,
        tag: (&'static str, u64),
    ) -> Result<(), String> {
        let t0 = Instant::now();
        let r = ctl.inject_into(port, frame, out);
        let t1 = Instant::now();
        r.map_err(|e| format!("inject: {e}"))?;

        let sw = ctl.switch();
        let ft = sw.field_table();
        let parser = sw.parser();
        let phv = self.phv.get_or_insert_with(|| Phv::new(ft));
        phv.reset_for(ft);
        let t2 = Instant::now();
        let parsed = parser.parse(ft, frame, phv, false);
        let t3 = Instant::now();
        let payload = parsed.map(|p| p.payload_offset).unwrap_or(frame.len());
        let t4 = Instant::now();
        black_box(tm::decide(ft, &out.phv));
        let t5 = Instant::now();
        black_box(parser.deparse(ft, &out.phv, &frame[payload.min(frame.len())..]));
        let t6 = Instant::now();

        let ns = |a: Instant, b: Instant| (b - a).as_nanos() as f64;
        let (inject, parse, decide, deparse) = (ns(t0, t1), ns(t2, t3), ns(t4, t5), ns(t5, t6));
        self.parse_ns.push(parse);
        self.decide_ns.push(decide);
        self.deparse_ns.push(deparse);
        let passes = u64::from(out.passes.max(1));
        self.residual_ns_per_pass
            .push((inject - parse - decide - deparse) / passes as f64);
        self.packets += 1;
        self.recirculated += u64::from(out.passes > 1);
        self.dropped += u64::from(out.dropped);

        let (root, id) = tag;
        if id < SPAN_PACKETS {
            let root = spans.record(root, t0, t6, None, id);
            spans.record("switch.inject_into", t0, t1, root, id);
            spans.record("parser.parse", t2, t3, root, id);
            spans.record("tm.decide", t4, t5, root, id);
            spans.record("parser.deparse", t5, t6, root, id);
        }
        Ok(())
    }
}
