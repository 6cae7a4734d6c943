//! Completed-request spans and the bounded ring that retains them.
//!
//! A [`Span`] is the *record* of one finished request as one tier saw
//! it: the distributed trace id, which tier produced the span, the
//! request identity (tenant, model, seed), the outcome, and a list of
//! named stage durations. The serve tier records one span per completed
//! `GEN`/`SUB` (stages from [`StageDurations`]); the router records one
//! relay span per routed request (dial / queue / relay phases) under
//! the **same trace id** — joining the two by id reconstructs the
//! cross-node timeline of a routed request.
//!
//! Trace ids are minted by the first tier that sees a request
//! ([`mint_trace_id`]): a per-process random nonce plus a counter,
//! formatted in an alphabet that is valid as a wire `trace=` token
//! (`[0-9a-f-]`, well under the 64-byte tag cap). Ids are unique per
//! process and collision-resistant across a fleet; they carry no
//! ordering or timing semantics.
//!
//! The [`SpanRecorder`] is a cheap-to-clone handle on a bounded ring of
//! completed spans (like [`Logger`](crate::Logger)'s event ring):
//! recording is a mutex push, the cap evicts oldest-first, and
//! [`SpanRecorder::to_json`] renders the most recent spans as a
//! deterministic JSON array for the HTTP `/traces` endpoint.

use crate::log::json_escape_into;
use crate::trace::StageDurations;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{SystemTime, UNIX_EPOCH};

/// Default span-ring capacity (spans retained per process).
pub const DEFAULT_SPAN_RING: usize = 256;

/// Stage-name ordering used when converting [`StageDurations`] into a
/// span's named stage list (only marked stages appear).
const STAGE_ORDER: [&str; 5] = ["queue_wait", "first_snapshot", "generation", "delivery", "total"];

static TRACE_NONCE: OnceLock<u64> = OnceLock::new();
static TRACE_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Mint a process-unique trace id: `<nonce:016x>-<counter:x>`. The
/// nonce is derived once per process from the wall clock and the pid,
/// so two nodes minting concurrently do not collide; the counter makes
/// ids unique within the process. The result uses only `[0-9a-f-]`,
/// which is a subset of the wire tag alphabet, and is at most 33 bytes
/// — always a valid `trace=` token.
pub fn mint_trace_id() -> String {
    let nonce = *TRACE_NONCE.get_or_init(|| {
        let ns =
            SystemTime::now().duration_since(UNIX_EPOCH).map(|d| d.as_nanos() as u64).unwrap_or(0);
        // Mix the pid into the high bits so processes started within
        // the same clock tick still diverge.
        ns ^ (u64::from(std::process::id()).rotate_left(32)) | 1
    });
    let n = TRACE_COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("{nonce:016x}-{n:x}")
}

/// One completed request as one tier saw it. See the module docs.
#[derive(Debug, Clone)]
pub struct Span {
    /// The distributed trace id joining this span with its peers.
    pub trace: String,
    /// Which tier recorded the span: `"serve"` or `"route"`.
    pub tier: &'static str,
    /// The upstream hop that minted the trace id, when it was not this
    /// tier (`Some("route")` on a backend serving a routed request;
    /// `None` on the tier that minted the id itself).
    pub parent: Option<&'static str>,
    /// Tenant the request ran as, when known.
    pub tenant: Option<String>,
    /// Model name of the request.
    pub model: String,
    /// Model fingerprint, when the tier knows it.
    pub model_fp: Option<u64>,
    /// Request seed.
    pub seed: u64,
    /// Terminal outcome: `"ok"`, `"cancelled"`, `"error"`, …
    pub outcome: &'static str,
    /// The backend address the request was placed on (router spans).
    pub backend: Option<String>,
    /// Named stage durations in milliseconds, in recording order.
    pub stages_ms: Vec<(&'static str, f64)>,
}

impl Span {
    /// Convert serve-tier [`StageDurations`] into the span's named
    /// stage list. Unmarked stages are omitted (a cache hit has no
    /// `first_snapshot`), and ordering is fixed so the JSON export is
    /// deterministic for a given set of marked stages.
    pub fn stages_from(durations: &StageDurations) -> Vec<(&'static str, f64)> {
        let values = [
            durations.queue_wait,
            durations.first_snapshot,
            durations.generation,
            durations.delivery,
            durations.total,
        ];
        STAGE_ORDER
            .iter()
            .zip(values)
            .filter_map(|(name, d)| d.map(|d| (*name, d.as_secs_f64() * 1e3)))
            .collect()
    }

    /// Render the span as one JSON object (stable key order).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(192);
        out.push_str("{\"trace\":\"");
        json_escape_into(&mut out, &self.trace);
        out.push_str("\",\"tier\":\"");
        json_escape_into(&mut out, self.tier);
        out.push_str("\",\"parent\":");
        match self.parent {
            Some(parent) => {
                out.push('"');
                json_escape_into(&mut out, parent);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"tenant\":");
        match &self.tenant {
            Some(tenant) => {
                out.push('"');
                json_escape_into(&mut out, tenant);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"model\":\"");
        json_escape_into(&mut out, &self.model);
        out.push_str("\",\"model_fp\":");
        match self.model_fp {
            Some(fp) => {
                use std::fmt::Write as _;
                let _ = write!(out, "\"{fp:016x}\"");
            }
            None => out.push_str("null"),
        }
        {
            use std::fmt::Write as _;
            let _ = write!(out, ",\"seed\":{}", self.seed);
        }
        out.push_str(",\"outcome\":\"");
        json_escape_into(&mut out, self.outcome);
        out.push_str("\",\"backend\":");
        match &self.backend {
            Some(addr) => {
                out.push('"');
                json_escape_into(&mut out, addr);
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"stages_ms\":{");
        for (i, (name, ms)) in self.stages_ms.iter().enumerate() {
            use std::fmt::Write as _;
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            json_escape_into(&mut out, name);
            let _ = write!(out, "\":{ms:.3}");
        }
        out.push_str("}}");
        out
    }
}

struct RecorderInner {
    ring: Mutex<VecDeque<Span>>,
    cap: usize,
}

/// Bounded ring of completed [`Span`]s — cheap to clone (an `Arc`),
/// safe to record into from any thread.
#[derive(Clone)]
pub struct SpanRecorder {
    inner: Arc<RecorderInner>,
}

impl Default for SpanRecorder {
    fn default() -> Self {
        SpanRecorder::with_capacity(DEFAULT_SPAN_RING)
    }
}

impl std::fmt::Debug for SpanRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpanRecorder")
            .field("len", &self.len())
            .field("cap", &self.inner.cap)
            .finish()
    }
}

impl SpanRecorder {
    /// A recorder retaining the most recent `cap` spans (min 1).
    pub fn with_capacity(cap: usize) -> SpanRecorder {
        SpanRecorder {
            inner: Arc::new(RecorderInner { ring: Mutex::new(VecDeque::new()), cap: cap.max(1) }),
        }
    }

    /// Record one completed span; the oldest is evicted at capacity.
    pub fn record(&self, span: Span) {
        let mut ring = self.inner.ring.lock().expect("span ring poisoned");
        if ring.len() == self.inner.cap {
            ring.pop_front();
        }
        ring.push_back(span);
    }

    /// The most recent `limit` spans, oldest first.
    pub fn recent(&self, limit: usize) -> Vec<Span> {
        let ring = self.inner.ring.lock().expect("span ring poisoned");
        let skip = ring.len().saturating_sub(limit);
        ring.iter().skip(skip).cloned().collect()
    }

    /// Spans currently retained.
    pub fn len(&self) -> usize {
        self.inner.ring.lock().expect("span ring poisoned").len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Render the most recent `limit` spans as a JSON array (oldest
    /// first, one deterministic object per span).
    pub fn to_json(&self, limit: usize) -> String {
        let spans = self.recent(limit);
        let mut out = String::with_capacity(2 + spans.len() * 192);
        out.push('[');
        for (i, span) in spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&span.to_json());
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn span(trace: &str, seed: u64) -> Span {
        Span {
            trace: trace.to_string(),
            tier: "serve",
            parent: None,
            tenant: None,
            model: "m".to_string(),
            model_fp: None,
            seed,
            outcome: "ok",
            backend: None,
            stages_ms: Vec::new(),
        }
    }

    #[test]
    fn minted_ids_are_unique_and_wire_safe() {
        let a = mint_trace_id();
        let b = mint_trace_id();
        assert_ne!(a, b);
        for id in [&a, &b] {
            assert!(id.len() <= 64, "{id}");
            assert!(
                id.bytes().all(|b| b.is_ascii_hexdigit() || b == b'-'),
                "{id} must fit the wire tag alphabet"
            );
        }
    }

    #[test]
    fn ring_is_bounded_and_recent_is_oldest_first() {
        let rec = SpanRecorder::with_capacity(3);
        for seed in 0..5 {
            rec.record(span("t", seed));
        }
        assert_eq!(rec.len(), 3);
        let seeds: Vec<u64> = rec.recent(10).iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![2, 3, 4]);
        let seeds: Vec<u64> = rec.recent(2).iter().map(|s| s.seed).collect();
        assert_eq!(seeds, vec![3, 4], "limit keeps the most recent");
    }

    #[test]
    fn json_export_is_deterministic_and_escaped() {
        let rec = SpanRecorder::default();
        let mut s = span("abc-1", 7);
        s.tenant = Some("go\"ld".to_string());
        s.model_fp = Some(0x1234);
        s.backend = Some("127.0.0.1:7001".to_string());
        s.stages_ms = vec![("queue_wait", 1.5), ("generation", 2.0)];
        rec.record(s);
        let json = rec.to_json(10);
        assert_eq!(
            json,
            "[{\"trace\":\"abc-1\",\"tier\":\"serve\",\"parent\":null,\
             \"tenant\":\"go\\\"ld\",\"model\":\"m\",\"model_fp\":\"0000000000001234\",\
             \"seed\":7,\"outcome\":\"ok\",\"backend\":\"127.0.0.1:7001\",\
             \"stages_ms\":{\"queue_wait\":1.500,\"generation\":2.000}}]"
        );
        assert_eq!(SpanRecorder::default().to_json(10), "[]");
    }

    #[test]
    fn stage_conversion_omits_unmarked_stages() {
        let durations = StageDurations {
            queue_wait: Some(Duration::from_millis(2)),
            generation: Some(Duration::from_micros(1500)),
            ..Default::default()
        };
        let stages = Span::stages_from(&durations);
        assert_eq!(stages.len(), 2);
        assert_eq!(stages[0].0, "queue_wait");
        assert!((stages[0].1 - 2.0).abs() < 1e-9);
        assert_eq!(stages[1].0, "generation");
        assert!((stages[1].1 - 1.5).abs() < 1e-9);
    }
}
