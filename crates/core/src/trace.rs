//! Cross-middleware distributed tracing over virtual time.
//!
//! A meta-middleware invocation crosses many opaque layers — the Client
//! Proxy that exported the service, the local PCM's conversion, VSR
//! lookups, the VSG wire protocol, and the remote gateway's Server
//! Proxy (§3.1–3.3) — yet each layer observes only its own endpoints.
//! This module gives every hop a [`Span`] with virtual-time start/end,
//! links spans parent→child, and propagates a [`TraceContext`] across
//! the gateway-to-gateway wire so one cross-middleware call yields a
//! *single* causally-connected trace tree spanning both gateways.
//!
//! Tracing is off by default and costs nothing while off: a disabled
//! [`Tracer`] performs one atomic load per instrumentation point,
//! allocates nothing (span names are built by closures that are never
//! called), and returns inert [`SpanHandle`]s.

use parking_lot::Mutex;
use simnet::{Sim, SimDuration, SimTime};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

// Trace and span ids are drawn from the *simulation world's* wells
// ([`Sim::next_trace_serial`], [`Sim::next_serial`]), not process-wide
// statics: every gateway of one home shares one `Sim`, so the two
// halves of a cross-gateway trace still never collide, while the id
// stream is a pure function of that island's own event order —
// identical under any thread count, and namespaced by island id so
// fleets cannot collide either. Trace ids have a well of their own, so
// the n-th trace's id (which head sampling hashes) does not depend on
// how many spans the traces before it recorded.

/// Identity of one end-to-end trace (shared by every hop of one call).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    fn next(sim: &Sim) -> TraceId {
        TraceId(sim.next_trace_serial())
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Identity of one span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SpanId(pub u64);

impl SpanId {
    fn next(sim: &Sim) -> SpanId {
        SpanId(sim.next_serial())
    }
}

impl fmt::Display for SpanId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Which layer of the §3.1–3.3 invocation path a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum HopKind {
    /// The calling gateway's invocation entry point (the Client Proxy
    /// boundary: a request enters the meta-middleware here).
    ClientProxy,
    /// A PCM converting between a native middleware and the canonical
    /// representation (either proxy direction).
    PcmConvert,
    /// One SOAP round trip to the Virtual Service Repository.
    VsrLookup,
    /// A resolution answered by the gateway's cache — no VSR traffic.
    CacheHit,
    /// The gateway-to-gateway wire exchange (SOAP / binary / SIP-like).
    VsgWire,
    /// The serving gateway's dispatch of an arriving wire request.
    ServerProxy,
    /// The exported service's own invoker running.
    App,
    /// An event delivery (polling-bridge tick or SIP NOTIFY push).
    Event,
    /// A resilience-layer decision: a retry, a circuit-breaker state
    /// transition, or a degraded (stale-route) serve.
    Resilience,
    /// A federated-repository decision: shard routing, a replica
    /// failover, a shard-map refresh, a backup promotion, or one
    /// anti-entropy sync exchange.
    Federation,
    /// A cloud-bridge action: an outbox drain push, a (re)connect
    /// handshake with epoch bump, a delta reconciliation, a downward
    /// command delivery, or an admission-control pushback.
    Cloud,
    /// One composition-engine step: a forward pipeline step or a
    /// compensating undo, executed on the gateway hosting the
    /// composite service.
    Compose,
}

impl HopKind {
    /// The stable text label (`client-proxy`, `pcm-convert`, …).
    pub fn label(&self) -> &'static str {
        match self {
            HopKind::ClientProxy => "client-proxy",
            HopKind::PcmConvert => "pcm-convert",
            HopKind::VsrLookup => "vsr-lookup",
            HopKind::CacheHit => "cache-hit",
            HopKind::VsgWire => "vsg-wire",
            HopKind::ServerProxy => "server-proxy",
            HopKind::App => "app",
            HopKind::Event => "event",
            HopKind::Resilience => "resilience",
            HopKind::Federation => "federation",
            HopKind::Cloud => "cloud",
            HopKind::Compose => "compose",
        }
    }
}

impl fmt::Display for HopKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The caller's trace identity, carried across the VSG wire so the
/// serving gateway's spans join the caller's tree. Encoded as a SOAP
/// header element, a SIP-style `Trace-Context:` header, or a tagged
/// binary field depending on the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// The trace every downstream span must join.
    pub trace: TraceId,
    /// The span (on the calling gateway) that downstream spans are
    /// children of — the wire span.
    pub parent: SpanId,
}

impl TraceContext {
    /// Wire form: `<trace-hex>-<parent-hex>`.
    pub fn to_wire(&self) -> String {
        format!("{}-{}", self.trace, self.parent)
    }

    /// Parses the wire form; `None` for anything malformed (a gateway
    /// must never fail a call over a bad trace header).
    pub fn from_wire(s: &str) -> Option<TraceContext> {
        let (t, p) = s.split_once('-')?;
        Some(TraceContext {
            trace: TraceId(u64::from_str_radix(t, 16).ok()?),
            parent: SpanId(u64::from_str_radix(p, 16).ok()?),
        })
    }
}

impl fmt::Display for TraceContext {
    /// `Display` is the wire form (what the SIP header line carries).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.trace, self.parent)
    }
}

/// One completed hop of a trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The trace this span belongs to.
    pub trace: TraceId,
    /// This span's id.
    pub id: SpanId,
    /// The enclosing span, if any. For the first span a serving
    /// gateway records, this is the *calling* gateway's wire span —
    /// the cross-gateway link.
    pub parent: Option<SpanId>,
    /// Which layer this hop covers.
    pub kind: HopKind,
    /// Human-readable label, e.g. `laserdisc.play`.
    pub name: String,
    /// The gateway (or component) that recorded the span.
    pub gateway: String,
    /// Virtual time the hop began.
    pub start: SimTime,
    /// Virtual time the hop completed.
    pub end: SimTime,
    /// Backbone bytes attributed to this hop (wire spans only).
    pub bytes: u64,
    /// The error the hop returned, if it failed.
    pub error: Option<String>,
}

impl Span {
    /// Virtual time the hop consumed.
    pub fn elapsed(&self) -> SimDuration {
        self.end - self.start
    }
}

/// An in-flight span returned by [`Tracer::begin`]. Inert (and free)
/// when the tracer is disabled.
#[derive(Debug)]
#[must_use = "pass the handle back to Tracer::end or the span is lost"]
pub struct SpanHandle {
    live: Option<LiveSpan>,
}

impl SpanHandle {
    /// A handle that records nothing (what a disabled tracer returns).
    pub fn inert() -> SpanHandle {
        SpanHandle { live: None }
    }

    /// Whether ending this handle will record a span.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }

    /// The trace this span belongs to (`None` for inert handles).
    /// Lets instrumentation attach the trace id as a metrics exemplar
    /// without waiting for the span to complete.
    pub fn trace_id(&self) -> Option<TraceId> {
        self.live.as_ref().map(|l| l.trace)
    }
}

#[derive(Debug)]
struct LiveSpan {
    trace: TraceId,
    id: SpanId,
    parent: Option<SpanId>,
    kind: HopKind,
    name: String,
    start: SimTime,
}

#[derive(Debug)]
struct TracerInner {
    gateway: String,
    enabled: AtomicBool,
    spans: Mutex<Vec<Span>>,
    /// The synchronous call stack of open `(trace, span)` frames; the
    /// top frame parents the next `begin`. Adopted wire contexts are
    /// pushed here so remote spans join the caller's trace.
    stack: Mutex<Vec<(TraceId, SpanId)>>,
}

/// A per-gateway span recorder. Cloning shares the underlying state
/// (all of a gateway's components feed one tracer). Disabled by
/// default; while disabled every operation is a no-op after one atomic
/// load, and no allocation happens.
#[derive(Debug, Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl Tracer {
    /// Creates a disabled tracer for `gateway`.
    pub fn new(gateway: &str) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                gateway: gateway.to_owned(),
                enabled: AtomicBool::new(false),
                spans: Mutex::new(Vec::new()),
                stack: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Turns span recording on or off.
    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    /// The gateway this tracer attributes spans to.
    pub fn gateway(&self) -> &str {
        &self.inner.gateway
    }

    /// Opens a span as a child of the innermost open span (or as a new
    /// trace root if none is open). `name` is only invoked when the
    /// tracer is enabled, so callers may format freely.
    pub fn begin(&self, sim: &Sim, kind: HopKind, name: impl FnOnce() -> String) -> SpanHandle {
        if !self.is_enabled() {
            return SpanHandle::inert();
        }
        let mut stack = self.inner.stack.lock();
        let (trace, parent) = match stack.last() {
            Some(&(t, p)) => (t, Some(p)),
            None => (TraceId::next(sim), None),
        };
        self.open(sim, &mut stack, trace, parent, kind, name())
    }

    /// Opens a span that starts a *new* trace even if another span is
    /// open — for work initiated by the outside world (a native-bus
    /// command, an event tick) that must not inherit whatever the
    /// gateway happens to be doing.
    pub fn begin_root(
        &self,
        sim: &Sim,
        kind: HopKind,
        name: impl FnOnce() -> String,
    ) -> SpanHandle {
        if !self.is_enabled() {
            return SpanHandle::inert();
        }
        let mut stack = self.inner.stack.lock();
        self.open(sim, &mut stack, TraceId::next(sim), None, kind, name())
    }

    fn open(
        &self,
        sim: &Sim,
        stack: &mut Vec<(TraceId, SpanId)>,
        trace: TraceId,
        parent: Option<SpanId>,
        kind: HopKind,
        name: String,
    ) -> SpanHandle {
        let id = SpanId::next(sim);
        stack.push((trace, id));
        SpanHandle {
            live: Some(LiveSpan {
                trace,
                id,
                parent,
                kind,
                name,
                start: sim.now(),
            }),
        }
    }

    /// Completes a span with no byte or error annotation.
    pub fn end(&self, sim: &Sim, handle: SpanHandle) {
        self.end_with(sim, handle, 0, None);
    }

    /// Completes a span, attributing wire `bytes` and/or an error.
    pub fn end_with(&self, sim: &Sim, handle: SpanHandle, bytes: u64, error: Option<String>) {
        let Some(live) = handle.live else { return };
        {
            let mut stack = self.inner.stack.lock();
            // Pop our frame (and, defensively, anything a buggy caller
            // left unclosed above it).
            if let Some(pos) = stack.iter().rposition(|&(_, id)| id == live.id) {
                stack.truncate(pos);
            }
        }
        self.inner.spans.lock().push(Span {
            trace: live.trace,
            id: live.id,
            parent: live.parent,
            kind: live.kind,
            name: live.name,
            gateway: self.inner.gateway.clone(),
            start: live.start,
            end: sim.now(),
            bytes,
            error,
        });
    }

    /// Completes a span, recording the `Err` of `result` (if any) as
    /// the span's error. The error is only formatted when the handle
    /// is live.
    pub fn end_result<T, E: fmt::Display>(
        &self,
        sim: &Sim,
        handle: SpanHandle,
        result: &Result<T, E>,
    ) {
        if handle.live.is_none() {
            return;
        }
        let error = result.as_ref().err().map(|e| e.to_string());
        self.end_with(sim, handle, 0, error);
    }

    /// The context a wire request should carry: the innermost open
    /// span. `None` when disabled or when no span is open.
    pub fn current_context(&self) -> Option<TraceContext> {
        if !self.is_enabled() {
            return None;
        }
        self.inner
            .stack
            .lock()
            .last()
            .map(|&(trace, parent)| TraceContext { trace, parent })
    }

    /// Adopts a caller's wire context so subsequent spans join the
    /// caller's trace. Returns whether a frame was pushed; if so the
    /// caller must balance with [`Tracer::unadopt`].
    pub fn adopt(&self, ctx: TraceContext) -> bool {
        if !self.is_enabled() {
            return false;
        }
        self.inner.stack.lock().push((ctx.trace, ctx.parent));
        true
    }

    /// Pops the frame pushed by [`Tracer::adopt`].
    pub fn unadopt(&self) {
        self.inner.stack.lock().pop();
    }

    /// A copy of all completed spans, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.inner.spans.lock().clone()
    }

    /// Drains completed spans (keeps long-running traced sessions from
    /// growing without bound).
    pub fn take_spans(&self) -> Vec<Span> {
        std::mem::take(&mut self.inner.spans.lock())
    }

    /// Drops all completed spans.
    pub fn clear(&self) {
        self.inner.spans.lock().clear();
    }
}

// ---- rendering -------------------------------------------------------------

/// Distinct trace ids in first-completion order.
pub fn trace_ids(spans: &[Span]) -> Vec<TraceId> {
    let mut seen = Vec::new();
    for s in spans {
        if !seen.contains(&s.trace) {
            seen.push(s.trace);
        }
    }
    seen
}

/// Truncation limits for rendered trace trees, so flight-recorder
/// dumps of deep retry/batch trees stay readable and bounded. Omitted
/// subtrees are replaced by an explicit `… +N spans` marker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RenderCaps {
    /// Maximum tree levels rendered (the root is level 1). Children
    /// below the last level collapse into a marker.
    pub max_depth: usize,
    /// Maximum children rendered per span; the rest collapse into a
    /// marker counting every omitted descendant.
    pub max_children: usize,
}

impl Default for RenderCaps {
    fn default() -> Self {
        RenderCaps {
            max_depth: 12,
            max_children: 16,
        }
    }
}

/// Renders one trace as an indented text tree, attributing elapsed
/// virtual time (and wire bytes, where measured) to each hop. Spans
/// from several gateways may be mixed in `spans`; the renderer stitches
/// them into one tree via the propagated parent links. Applies the
/// default [`RenderCaps`]; use [`render_trace_capped`] to choose.
pub fn render_trace(trace: TraceId, spans: &[Span]) -> String {
    render_trace_capped(trace, spans, RenderCaps::default())
}

/// [`render_trace`] with explicit depth/children truncation caps.
pub fn render_trace_capped(trace: TraceId, spans: &[Span], caps: RenderCaps) -> String {
    let mine: Vec<&Span> = spans.iter().filter(|s| s.trace == trace).collect();
    if mine.is_empty() {
        return format!("trace {trace}: no spans\n");
    }
    let ids: std::collections::HashSet<SpanId> = mine.iter().map(|s| s.id).collect();
    // Roots: no parent, or a parent we can't see (e.g. rendering only
    // the serving gateway's half).
    let mut roots: Vec<&Span> = mine
        .iter()
        .filter(|s| s.parent.is_none_or(|p| !ids.contains(&p)))
        .copied()
        .collect();
    roots.sort_by_key(|s| (s.start, s.id));

    let start = mine.iter().map(|s| s.start).min().unwrap_or_default();
    let end = mine.iter().map(|s| s.end).max().unwrap_or_default();
    let mut gateways: Vec<&str> = mine.iter().map(|s| s.gateway.as_str()).collect();
    gateways.sort_unstable();
    gateways.dedup();

    let mut out = format!(
        "trace {trace} — {} span{} across {} gateway{} in {}\n",
        mine.len(),
        if mine.len() == 1 { "" } else { "s" },
        gateways.len(),
        if gateways.len() == 1 { "" } else { "s" },
        end - start,
    );
    for (i, root) in roots.iter().enumerate() {
        render_span(&mut out, root, &mine, "", i + 1 == roots.len(), 1, caps);
    }
    out
}

/// Spans in the subtree rooted at `span` (itself included).
fn subtree_size(span: &Span, all: &[&Span]) -> usize {
    1 + all
        .iter()
        .filter(|s| s.parent == Some(span.id))
        .map(|s| subtree_size(s, all))
        .sum::<usize>()
}

fn render_span(
    out: &mut String,
    span: &Span,
    all: &[&Span],
    prefix: &str,
    last: bool,
    level: usize,
    caps: RenderCaps,
) {
    let branch = if last { "└─ " } else { "├─ " };
    out.push_str(prefix);
    out.push_str(branch);
    out.push_str(&format!(
        "{:12} {}  [{}]  {}",
        span.kind.label(),
        span.name,
        span.gateway,
        span.elapsed(),
    ));
    if span.bytes > 0 {
        out.push_str(&format!("  {}B", span.bytes));
    }
    if let Some(err) = &span.error {
        out.push_str(&format!("  !{err}"));
    }
    out.push('\n');

    let mut children: Vec<&&Span> = all.iter().filter(|s| s.parent == Some(span.id)).collect();
    children.sort_by_key(|s| (s.start, s.id));
    let child_prefix = format!("{prefix}{}", if last { "   " } else { "│  " });
    if children.is_empty() {
        return;
    }
    if level >= caps.max_depth {
        let omitted: usize = children.iter().map(|c| subtree_size(c, all)).sum();
        out.push_str(&format!("{child_prefix}└─ … +{omitted} spans\n"));
        return;
    }
    let visible = children.len().min(caps.max_children.max(1));
    let omitted: usize = children[visible..]
        .iter()
        .map(|c| subtree_size(c, all))
        .sum();
    for (i, child) in children.iter().take(visible).enumerate() {
        let last_child = i + 1 == visible && omitted == 0;
        render_span(out, child, all, &child_prefix, last_child, level + 1, caps);
    }
    if omitted > 0 {
        out.push_str(&format!("{child_prefix}└─ … +{omitted} spans\n"));
    }
}

/// Renders every trace present in `spans`, one tree after another.
pub fn render_all(spans: &[Span]) -> String {
    let mut out = String::new();
    for trace in trace_ids(spans) {
        out.push_str(&render_trace(trace, spans));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing_and_never_names() {
        let sim = Sim::new(1);
        let t = Tracer::new("gw");
        assert!(!t.is_enabled());
        let h = t.begin(&sim, HopKind::ClientProxy, || {
            panic!("name closure must not run while disabled")
        });
        assert!(!h.is_live());
        t.end(&sim, h);
        assert!(t.current_context().is_none());
        assert!(!t.adopt(TraceContext {
            trace: TraceId(1),
            parent: SpanId(1)
        }));
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_share_a_trace_and_link_parents() {
        let sim = Sim::new(1);
        let t = Tracer::new("gw");
        t.set_enabled(true);
        let outer = t.begin(&sim, HopKind::ClientProxy, || "outer".into());
        let inner = t.begin(&sim, HopKind::VsrLookup, || "inner".into());
        t.end(&sim, inner);
        t.end(&sim, outer);

        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        let inner = &spans[0];
        let outer = &spans[1];
        assert_eq!(inner.trace, outer.trace);
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.gateway, "gw");
    }

    #[test]
    fn begin_root_starts_a_fresh_trace_even_mid_span() {
        let sim = Sim::new(1);
        let t = Tracer::new("gw");
        t.set_enabled(true);
        let outer = t.begin(&sim, HopKind::ClientProxy, || "outer".into());
        let tick = t.begin_root(&sim, HopKind::Event, || "tick".into());
        t.end(&sim, tick);
        t.end(&sim, outer);
        let spans = t.spans();
        assert_ne!(spans[0].trace, spans[1].trace);
        assert_eq!(spans[0].parent, None);
    }

    #[test]
    fn adopted_context_parents_remote_spans() {
        let sim = Sim::new(1);
        let caller = Tracer::new("gw-a");
        let server = Tracer::new("gw-b");
        caller.set_enabled(true);
        server.set_enabled(true);

        let wire = caller.begin(&sim, HopKind::VsgWire, || "soap".into());
        let ctx = caller.current_context().unwrap();

        // "On the wire": the serving gateway adopts and works.
        assert!(server.adopt(TraceContext::from_wire(&ctx.to_wire()).unwrap()));
        let sp = server.begin(&sim, HopKind::ServerProxy, || "svc.op".into());
        server.end(&sim, sp);
        server.unadopt();

        caller.end(&sim, wire);

        let mut all = caller.spans();
        all.extend(server.spans());
        assert_eq!(trace_ids(&all).len(), 1);
        let wire_span = all.iter().find(|s| s.kind == HopKind::VsgWire).unwrap();
        let remote = all.iter().find(|s| s.kind == HopKind::ServerProxy).unwrap();
        assert_eq!(remote.trace, wire_span.trace);
        assert_eq!(remote.parent, Some(wire_span.id));
        assert_eq!(remote.gateway, "gw-b");

        let tree = render_trace(wire_span.trace, &all);
        assert!(tree.contains("vsg-wire"), "{tree}");
        assert!(tree.contains("server-proxy"), "{tree}");
        assert!(tree.contains("[gw-b]"), "{tree}");
    }

    #[test]
    fn context_wire_form_round_trips() {
        let ctx = TraceContext {
            trace: TraceId(0xdead_beef),
            parent: SpanId(42),
        };
        assert_eq!(TraceContext::from_wire(&ctx.to_wire()), Some(ctx));
        assert_eq!(TraceContext::from_wire("junk"), None);
        assert_eq!(TraceContext::from_wire("zz-1"), None);
        assert_eq!(TraceContext::from_wire(""), None);
    }

    #[test]
    fn render_caps_truncate_depth_and_fanout_with_markers() {
        let sim = Sim::new(1);
        let t = Tracer::new("gw");
        t.set_enabled(true);
        // deep chain: 6 nested spans
        let handles: Vec<_> = (0..6)
            .map(|i| t.begin(&sim, HopKind::App, || format!("deep{i}")))
            .collect();
        for h in handles.into_iter().rev() {
            t.end(&sim, h);
        }
        // wide node: one root with 5 children
        let root = t.begin(&sim, HopKind::ClientProxy, || "wide".into());
        for i in 0..5 {
            let c = t.begin(&sim, HopKind::App, || format!("child{i}"));
            t.end(&sim, c);
        }
        t.end(&sim, root);

        let spans = t.spans();
        let traces = trace_ids(&spans);
        let caps = RenderCaps {
            max_depth: 3,
            max_children: 2,
        };
        let deep = render_trace_capped(traces[0], &spans, caps);
        assert!(deep.contains("… +3 spans"), "{deep}");
        assert!(!deep.contains("deep3"), "{deep}");
        let wide = render_trace_capped(traces[1], &spans, caps);
        assert!(wide.contains("child0") && wide.contains("child1"), "{wide}");
        assert!(wide.contains("… +3 spans"), "{wide}");
        assert!(!wide.contains("child2"), "{wide}");
        // default caps leave small trees untouched
        let full = render_trace(traces[1], &spans);
        assert!(full.contains("child4"), "{full}");
        assert!(!full.contains('…'), "{full}");
    }

    #[test]
    fn render_attributes_bytes_and_errors() {
        let sim = Sim::new(1);
        let t = Tracer::new("gw");
        t.set_enabled(true);
        let wire = t.begin(&sim, HopKind::VsgWire, || "soap→gw-b".into());
        t.end_with(&sim, wire, 1482, Some("gateway 'gw-b' unreachable".into()));
        let spans = t.spans();
        let tree = render_trace(spans[0].trace, &spans);
        assert!(tree.contains("1482B"), "{tree}");
        assert!(tree.contains("unreachable"), "{tree}");
    }
}
