//! Layer timing from outside the program.
//!
//! The library accepts a [`VsgProtocol`] through
//! `SmartHomeBuilder::protocol` and hands every gateway's serve closure
//! (a [`GatewayHandler`]) to that protocol's `bind`. [`Probed`] wraps a
//! real codec at exactly those two extension points: it times each
//! wire call (encode + transport + decode + the nested remote serve)
//! and each serve (PCM + native middleware + service body), and splits
//! the two apart so a call's self time excludes the serve it waited on.

use crate::alloc::thread_allocs;
use crate::episode::Values;
use metaware::protocol::GatewayHandler;
use metaware::{MetaError, VsgProtocol, VsgRequest};
use simnet::{Network, NodeId};
use soap::Value;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Host nanoseconds and heap allocations summed over a count of spans.
/// Shared by the threads of a fleet run, hence atomics (statistics
/// only: `Relaxed`).
#[derive(Debug, Default)]
pub struct Tally {
    count: AtomicU64,
    ns: AtomicU64,
    allocs: AtomicU64,
}

impl Tally {
    pub fn add(&self, ns: u64, allocs: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.ns.fetch_add(ns, Ordering::Relaxed);
        self.allocs.fetch_add(allocs, Ordering::Relaxed);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn ns(&self) -> u64 {
        self.ns.load(Ordering::Relaxed)
    }

    /// Mean host ns per span (0 when nothing was recorded).
    pub fn mean_ns(&self) -> f64 {
        per(self.ns(), self.count())
    }

    /// Mean allocations per span (0 when nothing was recorded).
    pub fn mean_allocs(&self) -> f64 {
        per(self.allocs.load(Ordering::Relaxed), self.count())
    }

    /// Runs `f` on this thread and records its host time and
    /// allocations as one span.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let (out, ns, allocs) = timed(f);
        self.add(ns, allocs);
        out
    }
}

/// `num / den`, or 0 when `den` is 0 (a layer the workload never used).
pub fn per(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Runs `f` and returns its result with the host ns it took and the
/// heap allocations the calling thread made meanwhile.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, u64, u64) {
    let a0 = thread_allocs();
    let t0 = Instant::now();
    let out = f();
    let ns = elapsed_ns(t0);
    (out, ns, thread_allocs() - a0)
}

pub fn elapsed_ns(t0: Instant) -> u64 {
    u64::try_from(t0.elapsed().as_nanos()).expect("a span lasts under 584 years")
}

/// What the wire layer recorded.
#[derive(Debug, Default)]
pub struct LayerProbe {
    /// Every `call` and `call_batch` frame: total host ns, and the
    /// allocations the call made itself (nested serves excluded).
    pub calls: Tally,
    /// Call time minus the nested serve time: encode + transport + decode.
    self_ns: AtomicU64,
    batch_frames: AtomicU64,
    batch_members: AtomicU64,
    /// Every run of a gateway's serve closure.
    pub serves: Tally,
}

#[derive(Default)]
struct OpenCall {
    serve_ns: u64,
    serve_allocs: u64,
}

thread_local! {
    // Calls in progress on this thread, innermost last. Transport is
    // synchronous, so a serve always runs on the thread of the call
    // that carried it, nested inside it.
    static OPEN_CALLS: RefCell<Vec<OpenCall>> = const { RefCell::new(Vec::new()) };
    static OUTER_CALL_NS: Cell<u64> = const { Cell::new(0) };
}

/// Host ns this thread spent in outermost wire calls since the last
/// take: the wire share of the operation that made them.
pub fn take_outer_call_ns() -> u64 {
    OUTER_CALL_NS.with(|c| c.replace(0))
}

impl LayerProbe {
    pub fn self_ns(&self) -> u64 {
        self.self_ns.load(Ordering::Relaxed)
    }

    pub fn batch_members_per_frame(&self) -> f64 {
        per(
            self.batch_members.load(Ordering::Relaxed),
            self.batch_frames.load(Ordering::Relaxed),
        )
    }

    /// Records the wire and serve cells every traced workload reports.
    pub fn record(&self, ops: u64, layers: &mut Values) {
        let calls = self.calls.count();
        layers.insert("protocol.calls_per_op", per(calls, ops));
        layers.insert("protocol.call_ns", self.calls.mean_ns());
        layers.insert("protocol.self_ns", per(self.self_ns(), calls));
        layers.insert("protocol.allocs_per_call", self.calls.mean_allocs());
        layers.insert(
            "protocol.batch_members_per_frame",
            self.batch_members_per_frame(),
        );
        layers.insert("vsg.serve_ns", self.serves.mean_ns());
        layers.insert("vsg.serve_allocs", self.serves.mean_allocs());
    }

    fn wire<T>(&self, f: impl FnOnce() -> T) -> T {
        OPEN_CALLS.with(|s| s.borrow_mut().push(OpenCall::default()));
        let (out, ns, allocs) = timed(f);
        let (open, outermost) = OPEN_CALLS.with(|s| {
            let mut s = s.borrow_mut();
            let open = s.pop().expect("the call pushed its own frame");
            (open, s.is_empty())
        });
        self.calls.add(ns, allocs.saturating_sub(open.serve_allocs));
        self.self_ns
            .fetch_add(ns.saturating_sub(open.serve_ns), Ordering::Relaxed);
        if outermost {
            OUTER_CALL_NS.with(|c| c.set(c.get() + ns));
        }
        out
    }

    fn serve<T>(&self, f: impl FnOnce() -> T) -> T {
        let (out, ns, allocs) = timed(f);
        self.serves.add(ns, allocs);
        OPEN_CALLS.with(|s| {
            if let Some(top) = s.borrow_mut().last_mut() {
                top.serve_ns += ns;
                top.serve_allocs += allocs;
            }
        });
        out
    }
}

/// A codec wrapped so every call and serve is timed into a probe.
pub struct Probed {
    inner: Arc<dyn VsgProtocol>,
    probe: Arc<LayerProbe>,
}

impl Probed {
    pub fn wrap(inner: Arc<dyn VsgProtocol>, probe: Arc<LayerProbe>) -> Arc<dyn VsgProtocol> {
        Arc::new(Probed { inner, probe })
    }
}

impl VsgProtocol for Probed {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn bind(&self, net: &Network, label: &str, handler: GatewayHandler) -> NodeId {
        let probe = self.probe.clone();
        self.inner.bind(
            net,
            label,
            Arc::new(move |sim, req| probe.serve(|| handler(sim, req))),
        )
    }

    fn call(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        req: &VsgRequest,
    ) -> Result<Value, MetaError> {
        self.probe.wire(|| self.inner.call(net, from, to, req))
    }

    fn call_batch(
        &self,
        net: &Network,
        from: NodeId,
        to: NodeId,
        reqs: &[VsgRequest],
    ) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
        self.probe.batch_frames.fetch_add(1, Ordering::Relaxed);
        self.probe
            .batch_members
            .fetch_add(reqs.len() as u64, Ordering::Relaxed);
        self.probe
            .wire(|| self.inner.call_batch(net, from, to, reqs))
    }

    fn supports_push(&self) -> bool {
        self.inner.supports_push()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bench::workload::Workload;
    use metaware::{BatchCall, BatchItem, CompactBinary, Middleware, SipLike, SmartHome, Soap11};

    /// Replays a short seeded trace plus one batch train and returns
    /// every result, per-call virtual latency and the backbone bytes.
    fn replay(protocol: Arc<dyn VsgProtocol>) -> (Vec<Result<Value, MetaError>>, Vec<u64>, u64) {
        let home = SmartHome::builder()
            .seed(5)
            .protocol(protocol)
            .build()
            .expect("home builds");
        let mut results = Vec::new();
        let mut virtual_us = Vec::new();
        for call in Workload::new(5).trace(64) {
            let t0 = home.sim.now();
            results.push(home.invoke_from(call.from, call.service, call.operation, &call.args));
            virtual_us.push((home.sim.now() - t0).as_micros());
        }
        let items: Vec<BatchItem> = ["hall-lamp", "desk-lamp", "fan"]
            .iter()
            .map(|s| BatchItem::Call(BatchCall::new(*s, "status")))
            .collect();
        let gw = home.gateway(Middleware::Jini).expect("jini island");
        results.extend(gw.invoke_batch(&home.sim, &items));
        let bytes = home.backbone.with_stats(|s| s.total().bytes);
        (results, virtual_us, bytes)
    }

    #[test]
    fn decorator_is_transparent_for_every_codec() {
        let codecs: [fn() -> Arc<dyn VsgProtocol>; 3] = [
            || Arc::new(Soap11::new()),
            || Arc::new(SipLike::new()),
            || Arc::new(CompactBinary::new()),
        ];
        for make in codecs {
            let probe = Arc::new(LayerProbe::default());
            let bare = replay(make());
            let probed = replay(Probed::wrap(make(), probe.clone()));
            let name = make().name();
            assert!(bare.0.iter().all(Result::is_ok), "{name}: {:?}", bare.0);
            assert_eq!(bare.0, probed.0, "{name}: results");
            assert_eq!(bare.1, probed.1, "{name}: virtual latency");
            assert_eq!(bare.2, probed.2, "{name}: backbone bytes");
            assert!(probe.calls.count() > 0 && probe.serves.count() > 0);
            assert!(
                probe.batch_members_per_frame() >= 1.0,
                "{name}: batch frame seen"
            );
            assert!(probe.calls.ns() >= probe.self_ns());
        }
    }

    #[test]
    fn nested_serves_are_charged_to_their_own_call() {
        let probe = LayerProbe::default();
        take_outer_call_ns();
        probe.wire(|| {
            probe.serve(|| probe.wire(|| probe.serve(|| std::hint::black_box(1))));
        });
        assert_eq!(probe.calls.count(), 2);
        assert_eq!(probe.serves.count(), 2);
        // Each call's self time excludes only the serve directly inside
        // it, so self time never exceeds total call time and the outer
        // call is counted once as wire time of the operation.
        assert!(probe.self_ns() <= probe.calls.ns());
        let outer = take_outer_call_ns();
        assert!(outer > 0 && outer <= probe.calls.ns());
        assert_eq!(take_outer_call_ns(), 0);
    }
}
