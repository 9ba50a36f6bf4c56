//! In-memory spans for the traced run, written out once as a Chrome
//! trace-event document (opens in Perfetto, like the repository's own
//! flight-recorder export), plus the FNV-1a digest used for fates.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer or operation name, e.g. `parser.parse`.
    pub name: &'static str,
    /// Start, ns since the recorder's origin.
    pub start_ns: u64,
    /// End, ns since the recorder's origin.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<u32>,
    /// Packet index, request id, chunk or event number.
    pub id: u64,
}

/// A bounded span buffer. Spans past the capacity are counted, not kept,
/// so a long run cannot grow the buffer without bound.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
}

impl Spans {
    /// A recorder keeping at most `cap` spans.
    pub fn new(cap: usize) -> Spans {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            cap,
            dropped: 0,
        }
    }

    /// Record a finished span; returns its index for use as a parent.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<u32>,
        id: u64,
    ) -> Option<u32> {
        if self.spans.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent,
            id,
        });
        Some((self.spans.len() - 1) as u32)
    }

    /// Recorded spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans refused because the buffer was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The Chrome trace-event JSON document: one complete (`X`) event per
    /// span, on one thread row per top-level name, with the parent index
    /// and id in `args`.
    pub fn chrome_json(&self) -> String {
        let mut rows: Vec<&'static str> = Vec::new();
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let root = root_name(&self.spans, i);
            let tid = match rows.iter().position(|r| *r == root) {
                Some(p) => p,
                None => {
                    rows.push(root);
                    rows.len() - 1
                }
            } + 1;
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or(-1, i64::from);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\
                 \"pid\":1,\"tid\":{tid},\"args\":{{\"span\":{i},\"parent\":{parent},\"id\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id
            );
        }
        let _ = write!(
            out,
            "],\"displayTimeUnit\":\"ns\",\"otherData\":{{\"dropped_spans\":{}}}}}",
            self.dropped
        );
        out
    }
}

fn root_name(spans: &[Span], mut i: usize) -> &'static str {
    while let Some(p) = spans[i].parent {
        i = p as usize;
    }
    spans[i].name
}

/// 64-bit FNV-1a, fed incrementally.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes in.
    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Fold a little-endian integer in.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn spans_nest_and_export_as_chrome_events() {
        let mut s = Spans::new(2);
        let t0 = Instant::now();
        let t1 = t0 + Duration::from_micros(5);
        let root = s.record("replay.packet", t0, t1, None, 7);
        assert_eq!(root, Some(0));
        assert_eq!(
            s.record("parser.parse", t0, t0 + Duration::from_micros(1), root, 7),
            Some(1)
        );
        assert_eq!(s.record("over.cap", t0, t1, None, 8), None);
        assert_eq!(s.dropped(), 1);
        let doc = serde::json::parse(&s.chrome_json()).expect("valid JSON");
        let events = doc.get("traceEvents").and_then(|e| e.as_array()).unwrap();
        assert_eq!(events.len(), 2);
        let child = &events[1];
        assert_eq!(
            child.get("name"),
            Some(&serde::Value::Str("parser.parse".into()))
        );
        assert_eq!(
            child.get("tid"),
            events[0].get("tid"),
            "a child shares its root's row"
        );
        let args = child.get("args").unwrap();
        assert_eq!(args.get("parent"), Some(&serde::Value::U64(0)));
        assert_eq!(args.get("id"), Some(&serde::Value::U64(7)));
    }

    #[test]
    fn digest_is_order_sensitive() {
        let mut a = Digest::default();
        a.bytes(b"ab");
        let mut b = Digest::default();
        b.bytes(b"ba");
        assert_ne!(a, b);
        let mut c = Digest::default();
        c.bytes(b"ab");
        assert_eq!(a.value(), c.value());
    }
}
