//! The Virtual Service Gateway.
//!
//! §3.1: each middleware island runs a VSG "which connects middleware to
//! another middleware using certain protocol". PCMs register their
//! island's services here (via Client Proxies); invocations addressed to
//! other islands travel gateway-to-gateway over the pluggable
//! [`VsgProtocol`].

use crate::batch::{BatchItem, BatchPolicy, EVENT_ARG, EVENT_OP};
use crate::compose::{self, CompositeSpec};
use crate::error::MetaError;
use crate::metrics::{CacheStats, MetricsRegistry, MetricsSnapshot};
use crate::obs::Layer;
use crate::protocol::{VsgProtocol, VsgRequest};
use crate::rescache::{Lookup, ResolutionCache};
use crate::resilience::{backoff, BreakerState, CircuitBreaker, ResiliencePolicy};
use crate::service::{ServiceInvoker, VirtualService};
use crate::trace::{HopKind, Tracer};
use crate::vsr::{ServiceRecord, VsrClient};
use parking_lot::Mutex;
use simnet::{Network, NodeId, Sim, SimDuration, SimTime};
use soap::Value;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

struct LocalEntry {
    service: VirtualService,
    invoker: Arc<Mutex<Box<dyn ServiceInvoker>>>,
    /// Composite entries dispatch under `try_lock`: re-entering one
    /// mid-execution means a pipeline cycled back into itself (the
    /// home's gateways share one single-threaded island, so a held
    /// lock here can only be our own call stack) — a typed error
    /// beats the deadlock.
    composite: bool,
}

/// Receives event notifications that arrived as batch members over the
/// gateway-to-gateway wire.
type EventSink = Box<dyn FnMut(&Sim, &str, &Value) + Send>;

struct VsgInner {
    name: String,
    backbone: Network,
    node: NodeId,
    protocol: Arc<dyn VsgProtocol>,
    local: Arc<Mutex<HashMap<String, LocalEntry>>>,
    vsr: VsrClient,
    rescache: Mutex<ResolutionCache>,
    tracer: Tracer,
    metrics: Arc<MetricsRegistry>,
    resilience: Mutex<ResiliencePolicy>,
    breakers: Mutex<HashMap<String, CircuitBreaker>>,
    batching: Mutex<BatchPolicy>,
    event_sink: Arc<Mutex<Option<EventSink>>>,
}

/// A running gateway.
#[derive(Clone)]
pub struct Vsg {
    inner: Arc<VsgInner>,
}

impl Vsg {
    /// Starts a gateway named `name` on the backbone, speaking
    /// `protocol`, registered with the VSR at `vsr_node`.
    pub fn start(
        backbone: &Network,
        name: &str,
        protocol: Arc<dyn VsgProtocol>,
        vsr_node: NodeId,
    ) -> Result<Vsg, MetaError> {
        let local: Arc<Mutex<HashMap<String, LocalEntry>>> = Arc::new(Mutex::new(HashMap::new()));
        let local2 = local.clone();
        let tracer = Tracer::new(name);
        let tracer2 = tracer.clone();
        // The sink must exist before `bind`: the serve closure captures
        // it, and a batched event can arrive the moment the endpoint is
        // reachable.
        let event_sink: Arc<Mutex<Option<EventSink>>> = Arc::new(Mutex::new(None));
        let sink2 = event_sink.clone();
        let metrics = Arc::new(MetricsRegistry::new());
        let metrics2 = metrics.clone();
        let node = protocol.bind(
            backbone,
            name,
            Arc::new(move |sim: &Sim, req: &VsgRequest| {
                serve_remote(&local2, &tracer2, &sink2, &metrics2, sim, req)
            }),
        );
        let vsr = VsrClient::new(backbone, node, vsr_node)
            .with_tracer(tracer.clone())
            .with_metrics(metrics.clone());
        vsr.register_gateway(name, node)?;
        Ok(Vsg {
            inner: Arc::new(VsgInner {
                name: name.to_owned(),
                backbone: backbone.clone(),
                node,
                protocol,
                local,
                vsr,
                rescache: Mutex::new(ResolutionCache::default()),
                tracer,
                metrics,
                resilience: Mutex::new(ResiliencePolicy::default()),
                breakers: Mutex::new(HashMap::new()),
                batching: Mutex::new(BatchPolicy::default()),
                event_sink,
            }),
        })
    }

    /// The gateway's name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The gateway's backbone node.
    pub fn node(&self) -> NodeId {
        self.inner.node
    }

    /// The protocol this gateway speaks.
    pub fn protocol(&self) -> &Arc<dyn VsgProtocol> {
        &self.inner.protocol
    }

    /// This gateway's VSR client.
    pub fn vsr(&self) -> &VsrClient {
        &self.inner.vsr
    }

    /// The backbone network.
    pub fn backbone(&self) -> &Network {
        &self.inner.backbone
    }

    // ---- service registration (the Client Proxy side of a PCM) ---------

    /// Exports a local service: installs its invoker and publishes it in
    /// the VSR. Replaces any previous export under the same name.
    pub fn export(
        &self,
        service: VirtualService,
        invoker: impl ServiceInvoker + 'static,
    ) -> Result<(), MetaError> {
        debug_assert_eq!(
            service.gateway, self.inner.name,
            "service fronted by this gateway"
        );
        self.inner.vsr.publish(&service)?;
        // A re-export may change the interface or (on another gateway's
        // behalf) supersede a record this gateway cached — drop it.
        self.inner.rescache.lock().invalidate(&service.name);
        self.inner.local.lock().insert(
            service.name.clone(),
            LocalEntry {
                service,
                invoker: Arc::new(Mutex::new(Box::new(invoker))),
                composite: false,
            },
        );
        Ok(())
    }

    /// Registers a composite pipeline as a first-class service of this
    /// gateway: validates the spec, publishes a VSR record of origin
    /// [`crate::service::Middleware::Composite`] whose service contexts carry the
    /// encoded spec, and installs an invoker that runs the pipeline
    /// through [`crate::compose::execute`] *on this gateway* — a
    /// client anywhere in the home pays one round trip here and the
    /// steps fan out over this gateway's resilient wire.
    pub fn register_composite(&self, spec: CompositeSpec) -> Result<(), MetaError> {
        spec.validate()?;
        let service = VirtualService::new(
            &spec.name,
            spec.interface(),
            crate::service::Middleware::Composite,
            &self.inner.name,
        )
        .context(compose::COMPOSITE_SPEC_CONTEXT, spec.to_xml());
        self.inner.vsr.publish(&service)?;
        self.inner.rescache.lock().invalidate(&spec.name);
        let name = spec.name.clone();
        let weak = Arc::downgrade(&self.inner);
        let spec = Arc::new(spec);
        let invoker = move |sim: &Sim, _op: &str, args: &[(String, Value)]| {
            let Some(inner) = weak.upgrade() else {
                return Err(MetaError::GatewayUnreachable(spec.name.clone()));
            };
            compose::execute(&Vsg { inner }, &spec, sim, args).0
        };
        self.inner.local.lock().insert(
            name,
            LocalEntry {
                service,
                invoker: Arc::new(Mutex::new(Box::new(invoker))),
                composite: true,
            },
        );
        Ok(())
    }

    /// Withdraws a local service from the gateway and the VSR.
    pub fn withdraw(&self, name: &str) -> Result<bool, MetaError> {
        let existed = self.inner.local.lock().remove(name).is_some();
        let _ = self.inner.vsr.unpublish(name)?;
        self.inner.rescache.lock().invalidate(name);
        Ok(existed)
    }

    /// Names of locally exported services.
    pub fn local_services(&self) -> Vec<String> {
        let mut v: Vec<String> = self.inner.local.lock().keys().cloned().collect();
        v.sort();
        v
    }

    /// The interface of a locally exported service.
    pub fn local_interface(&self, name: &str) -> Option<crate::iface::ServiceInterface> {
        self.inner
            .local
            .lock()
            .get(name)
            .map(|e| e.service.interface.clone())
    }

    // ---- invocation (what Server Proxies call) ---------------------------

    /// Invokes `operation` on `service`, wherever it lives: locally if
    /// this gateway fronts it, otherwise via VSR resolution and a
    /// gateway-to-gateway protocol call.
    pub fn invoke(
        &self,
        sim: &Sim,
        service: &str,
        operation: &str,
        args: &[(String, Value)],
    ) -> Result<Value, MetaError> {
        self.invoke_inner(sim, service, operation, args, None)
    }

    /// [`Vsg::invoke`] under a caller-supplied resilience policy
    /// instead of this gateway's configured one. The composition
    /// engine uses this to give each pipeline step a deadline carved
    /// from the composite's budget; any caller with a per-call budget
    /// can too. Retry/breaker semantics are otherwise identical.
    pub fn invoke_with_policy(
        &self,
        sim: &Sim,
        service: &str,
        operation: &str,
        args: &[(String, Value)],
        policy: &ResiliencePolicy,
    ) -> Result<Value, MetaError> {
        self.invoke_inner(sim, service, operation, args, Some(policy))
    }

    fn invoke_inner(
        &self,
        sim: &Sim,
        service: &str,
        operation: &str,
        args: &[(String, Value)],
        policy: Option<&ResiliencePolicy>,
    ) -> Result<Value, MetaError> {
        let tracer = &self.inner.tracer;
        let span = tracer.begin(sim, HopKind::ClientProxy, || {
            format!("{service}.{operation}")
        });
        let started = sim.now();
        let result = if self.inner.local.lock().contains_key(service) {
            dispatch_local(
                &self.inner.local,
                tracer,
                &self.inner.metrics,
                sim,
                service,
                operation,
                args,
            )
        } else {
            let mut req = VsgRequest::new(service, operation);
            req.args = args.to_vec();
            self.invoke_remote(sim, req, None, policy)
        };
        let elapsed_us = (sim.now() - started).as_micros();
        self.inner.metrics.record_with_exemplar(
            service,
            elapsed_us,
            result.as_ref().err().map(MetaError::kind),
            span.trace_id(),
        );
        tracer.end_result(sim, span, &result);
        result
    }

    // ---- batched invocation (the multiplexed wire) -----------------------

    /// Replaces this gateway's batching policy (defaults to
    /// [`BatchPolicy::default`], i.e. enabled).
    pub fn set_batching(&self, policy: BatchPolicy) {
        *self.inner.batching.lock() = policy;
    }

    /// A copy of the current batching policy.
    pub fn batching(&self) -> BatchPolicy {
        self.inner.batching.lock().clone()
    }

    /// Installs the receiver for event notifications that arrive as
    /// batch members over the gateway-to-gateway wire; `handler` gets
    /// `(service, event)` per delivered member. Replaces any previous
    /// sink.
    pub fn set_event_sink(&self, handler: impl FnMut(&Sim, &str, &Value) + Send + 'static) {
        *self.inner.event_sink.lock() = Some(Box::new(handler));
    }

    /// Invokes a batch of work, coalescing members bound for the same
    /// remote gateway into shared wire frames (chunked by
    /// [`BatchPolicy::max_batch`]), and returns one result per item in
    /// item order.
    ///
    /// Semantics match per-item [`Vsg::invoke`], because members take
    /// the same route resolver, retry loop and wire exchange: local
    /// members dispatch directly, application faults stay per member,
    /// order is preserved per peer, a member whose cached route turns
    /// out stale is re-resolved and re-sent once, and a VSR outage
    /// falls back to degraded reads. A whole-frame transport failure is
    /// applied to every member of that frame; a lost frame containing
    /// any non-idempotent member is never re-sent (the no-double-invoke
    /// guarantee extends to batches). Members beyond
    /// [`BatchPolicy::max_queue`] for one peer are rejected with
    /// [`MetaError::Overloaded`] — backpressure, not silent queueing.
    /// With batching disabled every item takes the ordinary unbatched
    /// path, one wire exchange each.
    pub fn invoke_batch(&self, sim: &Sim, items: &[BatchItem]) -> Vec<Result<Value, MetaError>> {
        let batching = self.inner.batching.lock().clone();
        if !batching.enabled {
            // One wire exchange per item: calls through `invoke`, remote
            // events as single event-operation frames.
            let unbatched = |item: &BatchItem| match item {
                BatchItem::Call(call) => {
                    self.invoke(sim, &call.service, &call.operation, &call.args)
                }
                BatchItem::Event { .. } => {
                    let (req, idempotent) = member_request(item);
                    self.serve_in_place(sim, &req)
                        .unwrap_or_else(|| self.invoke_remote(sim, req, idempotent, None))
                }
            };
            return items.iter().map(unbatched).collect();
        }
        let started = sim.now();
        let tracer = &self.inner.tracer;
        let root = tracer.begin(sim, HopKind::ClientProxy, || {
            format!("batch[{}]", items.len())
        });
        let policy = self.inner.resilience.lock().clone();
        let mut results: Vec<Option<Result<Value, MetaError>>> =
            (0..items.len()).map(|_| None).collect();
        let round = BatchRound {
            items,
            batching: &batching,
            policy: &policy,
            started,
        };
        let resend = self.batch_round(sim, &round, 0..items.len(), &mut results, false);
        self.batch_round(sim, &round, resend.into_iter(), &mut results, true);
        tracer.end(sim, root);
        results
            .into_iter()
            .map(|r| r.unwrap_or_else(|| Err(MetaError::Protocol("batch member lost".into()))))
            .collect()
    }

    /// One pass over batch `members`: local members dispatch in place;
    /// the rest are routed, queued per remote gateway in submission
    /// order, and flushed as frames. Unless this is the `last` pass, a
    /// member whose cached route a failure settled as stale is returned
    /// for a re-send instead of landing in `results`.
    fn batch_round(
        &self,
        sim: &Sim,
        round: &BatchRound<'_>,
        members: impl Iterator<Item = usize>,
        results: &mut [Option<Result<Value, MetaError>>],
        last: bool,
    ) -> Vec<usize> {
        // Members bound for one remote gateway, queued in submission
        // order (kept as parallel vectors so a chunk of requests can be
        // borrowed mutably for the wire without cloning).
        struct PeerQueue {
            gw_node: NodeId,
            gateway: String,
            members: Vec<(usize, Route)>,
            reqs: Vec<VsgRequest>,
            idempotent: Vec<bool>,
        }
        let mut peers: Vec<PeerQueue> = Vec::new();
        let mut resend = Vec::new();
        // Records a member's outcome in the invocation metrics as
        // `invoke` records a call's.
        let mut finish = |i: usize, service: &str, r: Result<Value, MetaError>| {
            let elapsed_us = (sim.now() - round.started).as_micros();
            let kind = r.as_ref().err().map(MetaError::kind);
            self.inner.metrics.record(service, elapsed_us, kind);
            results[i] = Some(r);
        };

        for i in members {
            let (req, declared_idempotent) = member_request(&round.items[i]);
            if let Some(r) = self.serve_in_place(sim, &req) {
                finish(i, &req.service, r);
                continue;
            }
            // Cached at once, so the batch's later members for this
            // service reuse the route.
            let route = match self.cached_route(sim, &req.service, round.policy) {
                Ok(route) => route,
                Err(e) => {
                    finish(i, &req.service, Err(e));
                    continue;
                }
            };
            let idempotent = declared_idempotent
                .unwrap_or_else(|| op_is_idempotent(&route.record, &req.operation));
            let pidx = peers
                .iter()
                .position(|p| p.gw_node == route.gw_node)
                .unwrap_or_else(|| {
                    peers.push(PeerQueue {
                        gw_node: route.gw_node,
                        gateway: route.record.gateway.clone(),
                        members: Vec::new(),
                        reqs: Vec::new(),
                        idempotent: Vec::new(),
                    });
                    peers.len() - 1
                });
            let peer = &mut peers[pidx];
            if peer.reqs.len() >= round.batching.max_queue {
                let r = Err(MetaError::Overloaded {
                    gateway: peer.gateway.clone(),
                    queued: peer.reqs.len() as u64,
                });
                finish(i, &req.service, r);
                continue;
            }
            peer.members.push((i, route));
            peer.reqs.push(req);
            peer.idempotent.push(idempotent);
        }

        for mut peer in peers {
            let n = peer.reqs.len();
            let mut members = peer.members.into_iter();
            let mut start = 0;
            while start < n {
                let end = (start + round.batching.max_batch).min(n);
                // Everything queued behind earlier frames to this (or
                // another) peer waited from submission until now — the
                // coalescing delay the queue-wait histogram exposes.
                let wait_us = sim.now().since(round.started).as_micros();
                for _ in start..end {
                    self.inner.metrics.record_queue_wait(wait_us);
                }
                // The retry gate is collective: an ambiguous frame loss
                // is re-sent only when *every* member is idempotent,
                // because the remote may have executed all of them.
                let all_idempotent = peer.idempotent[start..end].iter().all(|b| *b);
                let (gw_node, gateway) = (peer.gw_node, peer.gateway.as_str());
                let mut answers = self
                    .resilient(
                        sim,
                        gateway,
                        &mut peer.reqs[start..end],
                        all_idempotent,
                        round.started,
                        round.policy,
                        |reqs| self.send_batch(sim, gw_node, gateway, reqs),
                    )
                    .map(Vec::into_iter);
                let frame = members.by_ref().take(end - start);
                for (req, (i, route)) in peer.reqs[start..end].iter().zip(frame) {
                    let r = match &mut answers {
                        Ok(rs) => match rs.next() {
                            Some(r) => r,
                            None => continue,
                        },
                        // A whole-frame failure is every member's.
                        Err(e) => Err(e.clone()),
                    };
                    if self.settle(&req.service, route, &r) && !last {
                        resend.push(i);
                    } else {
                        finish(i, &req.service, r);
                    }
                }
                start = end;
            }
        }
        resend
    }

    /// Serves `req` here when this gateway fronts its service — no wire
    /// to coalesce for; `None` when the service lives elsewhere.
    fn serve_in_place(&self, sim: &Sim, req: &VsgRequest) -> Option<Result<Value, MetaError>> {
        let inner = &self.inner;
        if !inner.local.lock().contains_key(&*req.service) {
            return None;
        }
        let (local, sink) = (&inner.local, &inner.event_sink);
        Some(serve_local(
            local,
            sink,
            &inner.tracer,
            &inner.metrics,
            sim,
            req,
        ))
    }

    // ---- the remote-call path: one resolver, one retry loop, one wire ----

    /// One remote call: resolves the route, runs the resilient exchange
    /// over it, and settles the route by the outcome — a retry-safe
    /// failure over a cached route is re-resolved and re-sent once.
    /// `idempotent` overrides the record's declaration (events are
    /// always idempotent); `policy` overrides the gateway's. The
    /// deadline spans everything: cached attempt, re-resolution,
    /// retries and backoff waits.
    fn invoke_remote(
        &self,
        sim: &Sim,
        mut req: VsgRequest,
        idempotent: Option<bool>,
        policy: Option<&ResiliencePolicy>,
    ) -> Result<Value, MetaError> {
        let started = sim.now();
        let policy = policy
            .cloned()
            .unwrap_or_else(|| self.inner.resilience.lock().clone());
        let mut use_cache = true;
        loop {
            let route = self.route(sim, &req.service, use_cache, &policy)?;
            let idempotent =
                idempotent.unwrap_or_else(|| op_is_idempotent(&route.record, &req.operation));
            let (gw_node, gateway) = (route.gw_node, route.record.gateway.as_str());
            let result = self.resilient(
                sim,
                gateway,
                std::slice::from_mut(&mut req),
                idempotent,
                started,
                &policy,
                |reqs| self.send_one(sim, gw_node, gateway, reqs),
            );
            if !self.settle(&req.service, route, &result) {
                return result;
            }
            use_cache = false;
        }
    }

    /// The one route resolver. With `use_cache`, a warm cache entry
    /// carries the full record and the serving gateway's node — zero
    /// VSR round trips — and a negative entry answers "unknown" at
    /// once. Otherwise one VSR answer carries the record and the
    /// serving gateway's node; a definitive "no such service" is cached
    /// negatively. When the VSR itself is unreachable and `policy`
    /// allows degraded reads, a stale (previously invalidated) route
    /// beats failing the call — §3.1's backbone still works even when
    /// discovery is down. Fresh routes are not cached here: each caller
    /// caches by its own rule (see [`Vsg::settle`]).
    fn route(
        &self,
        sim: &Sim,
        service: &str,
        use_cache: bool,
        policy: &ResiliencePolicy,
    ) -> Result<Route, MetaError> {
        if use_cache {
            // Bound to a local so the cache guard is released before
            // any network call.
            let looked_up = self.inner.rescache.lock().lookup(service);
            let label = looked_up.label();
            match looked_up {
                Lookup::Hit(record, gw_node) => {
                    self.note_cache(sim, label, service);
                    return Ok(Route {
                        record,
                        gw_node,
                        source: RouteSource::Cached,
                    });
                }
                Lookup::NegativeHit => {
                    self.note_cache(sim, label, service);
                    return Err(MetaError::UnknownService(service.to_owned()));
                }
                Lookup::Miss => {}
            }
        }
        let (record, gw_node) = match self.inner.vsr.locate(service) {
            Ok(found) => found,
            Err(MetaError::UnknownService(name)) => {
                // Definitive answer from the repository — cacheable.
                self.inner.rescache.lock().insert_negative(service);
                return Err(MetaError::UnknownService(name));
            }
            Err(e) if e.is_transport_failure() && policy.enabled && policy.degraded_reads => {
                let Some((record, gw_node)) = self.inner.rescache.lock().stale_lookup(service)
                else {
                    return Err(e);
                };
                self.inner.metrics.record_degraded_serve();
                self.note_resilience(sim, || {
                    format!(
                        "degraded: VSR down, stale route for {service} via {}",
                        record.gateway
                    )
                });
                return Ok(Route {
                    record,
                    gw_node,
                    source: RouteSource::Stale,
                });
            }
            Err(e) => return Err(e),
        };
        // The replica knows the record but not its gateway: an answer,
        // not a repository failure, and nothing to cache.
        let Some(gw_node) = gw_node else {
            return Err(MetaError::GatewayUnreachable(record.gateway));
        };
        Ok(Route {
            record,
            gw_node,
            source: RouteSource::Vsr,
        })
    }

    /// [`Vsg::route`] through the cache, caching a fresh VSR route at
    /// once instead of after the call — from then on it is a cached
    /// route.
    fn cached_route(
        &self,
        sim: &Sim,
        service: &str,
        policy: &ResiliencePolicy,
    ) -> Result<Route, MetaError> {
        let mut route = self.route(sim, service, true, policy)?;
        if route.source == RouteSource::Vsr {
            self.inner.rescache.lock().insert_resolved(
                service,
                route.record.clone(),
                route.gw_node,
            );
            route.source = RouteSource::Cached;
        }
        Ok(route)
    }

    /// Settles `route` by the outcome of a call over it, and says
    /// whether the call earns one re-resolved re-send. Only an error
    /// that guarantees the operation did not execute (gateway gone,
    /// stale route) over a cached route invalidates it and asks for
    /// the re-send; an application fault means the remote side
    /// processed the call, and re-invoking could double-apply a
    /// non-idempotent operation. A fresh VSR route is cached unless the
    /// failure leaves it in doubt (an application fault proves the
    /// remote gateway serves this record); a stale route is re-promoted
    /// by a success.
    fn settle(&self, service: &str, route: Route, result: &Result<Value, MetaError>) -> bool {
        let retry_safe = matches!(result, Err(e) if e.is_retry_safe());
        let promote = match route.source {
            RouteSource::Cached => {
                if retry_safe {
                    self.inner.rescache.lock().invalidate(service);
                }
                return retry_safe;
            }
            RouteSource::Vsr => !retry_safe,
            RouteSource::Stale => result.is_ok(),
        };
        if promote {
            self.inner
                .rescache
                .lock()
                .insert_resolved(service, route.record, route.gw_node);
        }
        false
    }

    /// The one retry loop: runs `exchange` over `reqs` (one request or
    /// one batch frame) to `gateway` under `policy` — circuit-breaker
    /// admission, then up to `1 + max_retries` attempts paced by
    /// jittered exponential backoff, all bounded by the deadline
    /// counted from `started`. Only transport failures are retried, and
    /// an ambiguous one (the remote may have executed) only when
    /// `idempotent` — the no-double-invoke guarantee.
    #[allow(clippy::too_many_arguments)]
    fn resilient<T>(
        &self,
        sim: &Sim,
        gateway: &str,
        reqs: &mut [VsgRequest],
        idempotent: bool,
        started: SimTime,
        policy: &ResiliencePolicy,
        mut exchange: impl FnMut(&mut [VsgRequest]) -> Result<T, MetaError>,
    ) -> Result<T, MetaError> {
        if !policy.enabled {
            return exchange(reqs);
        }
        if !self.with_breaker(sim, gateway, policy, |br| br.admit(sim.now())) {
            self.note_resilience(sim, || format!("breaker open: fail fast to {gateway}"));
            return Err(MetaError::CircuitOpen {
                gateway: gateway.to_owned(),
            });
        }
        let mut attempt: u32 = 0;
        loop {
            let err = match exchange(reqs) {
                Ok(v) => {
                    self.with_breaker(sim, gateway, policy, CircuitBreaker::on_success);
                    return Ok(v);
                }
                Err(e) if e.is_transport_failure() => {
                    self.with_breaker(sim, gateway, policy, |br| br.on_failure(sim.now()));
                    e
                }
                // Any typed answer from the remote — an application
                // fault, unknown service/operation, a type error —
                // proves the gateway alive: the breaker sees success.
                Err(e) => {
                    self.with_breaker(sim, gateway, policy, CircuitBreaker::on_success);
                    return Err(e);
                }
            };
            // An ambiguous loss (the request may have executed) is only
            // re-sent when the operation tolerates double execution.
            if !(idempotent || err.is_retry_safe()) || attempt >= policy.max_retries {
                return Err(err);
            }
            let waited = sim.now().since(started);
            let mut wait = backoff(policy.base_backoff, policy.max_backoff, attempt, sim);
            if waited + wait >= policy.deadline {
                if waited >= policy.deadline {
                    return Err(MetaError::DeadlineExceeded {
                        service: reqs
                            .first()
                            .map(|r| r.service.to_string())
                            .unwrap_or_default(),
                        waited_ms: waited.as_millis(),
                    });
                }
                // The full backoff would overshoot, but budget remains:
                // spend all of it on one final, deadline-aligned attempt
                // rather than giving up with time on the clock.
                wait = SimDuration::from_micros(policy.deadline.as_micros() - waited.as_micros());
            }
            attempt += 1;
            self.inner.metrics.record_retry();
            self.note_resilience(sim, || {
                format!("retry {attempt} to {gateway} after {wait} ({err})")
            });
            sim.advance(wait);
        }
    }

    // ---- the per-remote-gateway circuit breaker --------------------------

    /// Runs `f` on `gateway`'s breaker (created closed on first use,
    /// with `policy`'s thresholds) and reports any state transition to
    /// metrics and the tracer.
    fn with_breaker<T>(
        &self,
        sim: &Sim,
        gateway: &str,
        policy: &ResiliencePolicy,
        f: impl FnOnce(&mut CircuitBreaker) -> T,
    ) -> T {
        let (out, transition) = {
            let mut breakers = self.inner.breakers.lock();
            let br = breakers.entry(gateway.to_owned()).or_insert_with(|| {
                CircuitBreaker::new(policy.breaker_threshold, policy.breaker_open_window)
            });
            let before = br.state();
            let out = f(br);
            let after = br.state();
            (out, (before != after).then_some(after))
        };
        if let Some(state) = transition {
            self.inner
                .metrics
                .record_breaker_transition(gateway, state.label());
            self.note_resilience(sim, || format!("breaker {state} for {gateway}"));
        }
        out
    }

    /// Records an instant `resilience` span (retry, breaker transition,
    /// degraded serve). Free when tracing is off.
    fn note_resilience(&self, sim: &Sim, label: impl FnOnce() -> String) {
        let span = self.inner.tracer.begin(sim, HopKind::Resilience, label);
        self.inner.tracer.end(sim, span);
    }

    /// Records an instant `cache-hit` span for a resolution-cache
    /// outcome (positive or negative). Free when tracing is off.
    fn note_cache(&self, sim: &Sim, outcome: &'static str, service: &str) {
        let span = self
            .inner
            .tracer
            .begin(sim, HopKind::CacheHit, || format!("{outcome} {service}"));
        self.inner.tracer.end(sim, span);
    }

    /// The one traced wire exchange: a `vsg-wire` span named by `label`
    /// whose context rides every request (SOAP header / SIP header /
    /// binary tagged field) so the serving gateway's spans join this
    /// trace, the `Layer::Wire` sketch, and the backbone bytes the
    /// exchange moved — charged to the span, less what `split` hands to
    /// per-member spans on success.
    fn wire_exchange<T>(
        &self,
        sim: &Sim,
        label: impl FnOnce() -> String,
        reqs: &mut [VsgRequest],
        send: impl FnOnce(&[VsgRequest]) -> Result<T, MetaError>,
        split: impl FnOnce(&[VsgRequest], &T, u64) -> u64,
    ) -> Result<T, MetaError> {
        let tracer = &self.inner.tracer;
        let span = tracer.begin(sim, HopKind::VsgWire, label);
        let ctx = tracer.current_context();
        for req in reqs.iter_mut() {
            req.trace = ctx;
        }
        let total_bytes = || self.inner.backbone.with_stats(|s| s.total().bytes);
        let bytes_before = if span.is_live() { total_bytes() } else { 0 };
        let wire_started = sim.now();
        let result = send(reqs);
        self.inner.metrics.record_layer_with_exemplar(
            Layer::Wire,
            (sim.now() - wire_started).as_micros(),
            span.trace_id(),
        );
        if span.is_live() {
            let bytes = total_bytes().saturating_sub(bytes_before);
            let own = match &result {
                Ok(answer) => split(reqs, answer, bytes),
                Err(_) => bytes,
            };
            tracer.end_with(sim, span, own, result.as_ref().err().map(|e| e.to_string()));
        }
        result
    }

    /// A single-request frame to the gateway at `gw_node`.
    fn send_one(
        &self,
        sim: &Sim,
        gw_node: NodeId,
        gateway: &str,
        reqs: &mut [VsgRequest],
    ) -> Result<Value, MetaError> {
        let inner = &self.inner;
        self.wire_exchange(
            sim,
            || format!("{} to {gateway}", inner.protocol.name()),
            reqs,
            |reqs| {
                inner
                    .protocol
                    .call(&inner.backbone, inner.node, gw_node, &reqs[0])
            },
            |_, _, bytes| bytes,
        )
    }

    /// A batch frame to the gateway at `gw_node`. The frame span
    /// carries no bytes itself; per-member child spans subdivide the
    /// frame's byte delta (remainder on the first member), so summing
    /// wire bytes across spans stays honest.
    fn send_batch(
        &self,
        sim: &Sim,
        gw_node: NodeId,
        gateway: &str,
        reqs: &mut [VsgRequest],
    ) -> Result<Vec<Result<Value, MetaError>>, MetaError> {
        let inner = &self.inner;
        let n = reqs.len();
        self.wire_exchange(
            sim,
            || format!("batch of {n} via {} to {gateway}", inner.protocol.name()),
            reqs,
            |reqs| {
                inner
                    .protocol
                    .call_batch(&inner.backbone, inner.node, gw_node, reqs)
            },
            |reqs, members, bytes| {
                if reqs.is_empty() {
                    return bytes;
                }
                let share = bytes / n as u64;
                let remainder = bytes - share * n as u64;
                for (k, (req, r)) in reqs.iter().zip(members).enumerate() {
                    let span = inner.tracer.begin(sim, HopKind::VsgWire, || {
                        format!("member {}.{}", req.service, req.operation)
                    });
                    let b = share + if k == 0 { remainder } else { 0 };
                    let error = r.as_ref().err().map(|e| e.to_string());
                    inner.tracer.end_with(sim, span, b, error);
                }
                0
            },
        )
    }

    /// Resolves a service record via the VSR (always a live lookup —
    /// the cache-bypassing baseline that [`Vsg::resolve_cached`] must
    /// agree with).
    pub fn resolve(&self, service: &str) -> Result<ServiceRecord, MetaError> {
        self.inner.vsr.resolve(service)
    }

    /// Resolves a service record through the resolution cache: a warm
    /// entry costs zero VSR round trips; a miss resolves, learns the
    /// serving gateway's node, and fills the cache. It takes the same
    /// route resolver as a call, so a VSR outage falls back to a stale
    /// route under degraded reads (served, never re-promoted).
    pub fn resolve_cached(&self, service: &str) -> Result<ServiceRecord, MetaError> {
        let policy = self.inner.resilience.lock().clone();
        let route = self.cached_route(self.inner.backbone.sim(), service, &policy)?;
        Ok(route.record)
    }

    /// Drops all cached resolutions, forcing fresh VSR resolution on the
    /// next remote invocation (used by the E11 ablation bench).
    pub fn clear_route_cache(&self) {
        self.inner.rescache.lock().clear();
    }

    /// Re-bounds the resolution cache (tests/benches exercise eviction
    /// with small capacities).
    pub fn set_cache_capacity(&self, capacity: usize) {
        self.inner.rescache.lock().set_capacity(capacity);
    }

    /// Number of live resolution-cache entries.
    pub fn cache_len(&self) -> usize {
        self.inner.rescache.lock().len()
    }

    /// This gateway's resolution-cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.rescache.lock().stats()
    }

    // ---- resilience ------------------------------------------------------

    /// Replaces this gateway's resilience policy. Existing breakers
    /// keep the thresholds they were created with; new remote gateways
    /// get the new ones.
    pub fn set_resilience(&self, policy: ResiliencePolicy) {
        *self.inner.resilience.lock() = policy;
    }

    /// A copy of the current resilience policy.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.inner.resilience.lock().clone()
    }

    /// The circuit-breaker state this gateway holds for a remote
    /// gateway ([`BreakerState::Closed`] before any call reached it).
    pub fn breaker_state(&self, gateway: &str) -> BreakerState {
        self.inner
            .breakers
            .lock()
            .get(gateway)
            .map(CircuitBreaker::state)
            .unwrap_or(BreakerState::Closed)
    }

    /// Crash recovery: re-registers this gateway and re-publishes every
    /// locally exported service with the VSR. Call after a VSR restart
    /// (lost registry) or this gateway's own restart; returns how many
    /// services were re-published.
    pub fn republish_all(&self) -> Result<usize, MetaError> {
        self.inner
            .vsr
            .register_gateway(&self.inner.name, self.inner.node)?;
        let services: Vec<VirtualService> = self
            .inner
            .local
            .lock()
            .values()
            .map(|e| e.service.clone())
            .collect();
        for s in &services {
            self.inner.vsr.publish(s)?;
        }
        Ok(services.len())
    }

    // ---- observability ---------------------------------------------------

    /// This gateway's tracer. Disabled (and allocation-free) until
    /// [`Vsg::set_tracing`] turns it on.
    pub fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Enables or disables span recording on this gateway.
    pub fn set_tracing(&self, on: bool) {
        self.inner.tracer.set_enabled(on);
    }

    /// This gateway's always-on invocation counters and latency
    /// histogram.
    pub fn metrics(&self) -> &MetricsRegistry {
        &self.inner.metrics
    }

    /// One merged, JSON-serializable snapshot of everything this
    /// gateway counts: invocation metrics plus resolution-cache
    /// counters.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            gateway: self.inner.name.clone(),
            island: self.inner.backbone.sim().island(),
            registry: self.inner.metrics.snapshot(),
            cache: self.cache_stats(),
        }
    }
}

impl fmt::Debug for Vsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Vsg")
            .field("name", &self.inner.name)
            .field("protocol", &self.inner.protocol.name())
            .field("local_services", &self.inner.local.lock().len())
            .finish()
    }
}

/// A route to a remote service: its record, its serving gateway's
/// node, and where the resolver found it, which decides how the call's
/// outcome settles the cache ([`Vsg::settle`]).
struct Route {
    record: ServiceRecord,
    gw_node: NodeId,
    source: RouteSource,
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RouteSource {
    /// A live resolution-cache entry.
    Cached,
    /// A fresh VSR resolution, not cached yet.
    Vsr,
    /// An invalidated entry served while the VSR is unreachable.
    Stale,
}

/// What one pass of [`Vsg::invoke_batch`] works from.
struct BatchRound<'a> {
    items: &'a [BatchItem],
    batching: &'a BatchPolicy,
    policy: &'a ResiliencePolicy,
    started: SimTime,
}

/// A batch item's wire request and declared idempotency. An event is
/// always idempotent: a duplicated notification is tolerable, a dropped
/// one is not, so events never block a frame re-send.
fn member_request(item: &BatchItem) -> (VsgRequest, Option<bool>) {
    match item {
        BatchItem::Call(call) => {
            let mut req = VsgRequest::new(&call.service, &call.operation);
            req.args = call.args.clone();
            (req, None)
        }
        BatchItem::Event { service, event } => (
            VsgRequest::new(service.as_str(), EVENT_OP).arg(EVENT_ARG, event.clone()),
            Some(true),
        ),
    }
}

/// Whether `operation` is declared idempotent in the resolved record's
/// interface. Unknown operations default to *not* idempotent — the
/// server rejects them anyway, and that answer is never ambiguous.
fn op_is_idempotent(record: &ServiceRecord, operation: &str) -> bool {
    record
        .interface
        .find(operation)
        .is_some_and(|sig| sig.idempotent)
}

/// Serves one request arriving over the gateway-to-gateway wire: joins
/// the caller's trace (when a context rode along), records the
/// `server-proxy` hop (an `event` hop for the reserved event operation),
/// and serves the request locally.
fn serve_remote(
    local: &Mutex<HashMap<String, LocalEntry>>,
    tracer: &Tracer,
    event_sink: &Mutex<Option<EventSink>>,
    metrics: &MetricsRegistry,
    sim: &Sim,
    req: &VsgRequest,
) -> Result<Value, MetaError> {
    let adopted = req.trace.is_some_and(|ctx| tracer.adopt(ctx));
    let span = if req.operation == EVENT_OP {
        tracer.begin(sim, HopKind::Event, || format!("event {}", req.service))
    } else {
        tracer.begin(sim, HopKind::ServerProxy, || {
            format!("{}.{}", req.service, req.operation)
        })
    };
    let result = serve_local(local, event_sink, tracer, metrics, sim, req);
    tracer.end_result(sim, span, &result);
    if adopted {
        tracer.unadopt();
    }
    result
}

/// Serves `req` from this gateway's own services, whether it arrived
/// over the wire or is a local batch member. A request carrying the
/// reserved event operation goes to the event sink and is acknowledged
/// even with no sink installed — events are notifications, not
/// queries; an uninterested gateway is not an error. Anything else
/// goes to the service's invoker.
fn serve_local(
    local: &Mutex<HashMap<String, LocalEntry>>,
    event_sink: &Mutex<Option<EventSink>>,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
    sim: &Sim,
    req: &VsgRequest,
) -> Result<Value, MetaError> {
    if req.operation != EVENT_OP {
        let (service, operation) = (&req.service, &req.operation);
        return dispatch_local(local, tracer, metrics, sim, service, operation, &req.args);
    }
    if let Some(sink) = event_sink.lock().as_mut() {
        let null = Value::Null;
        let event = req.args.iter().find(|(k, _)| k == EVENT_ARG);
        sink(sim, &req.service, event.map_or(&null, |(_, v)| v));
    }
    Ok(Value::Null)
}

fn dispatch_local(
    local: &Mutex<HashMap<String, LocalEntry>>,
    tracer: &Tracer,
    metrics: &MetricsRegistry,
    sim: &Sim,
    service: &str,
    operation: &str,
    args: &[(String, Value)],
) -> Result<Value, MetaError> {
    // Type-check against the signature in place (no OpSig clone); only
    // the invoker handle leaves the map lock's scope.
    let (invoker, composite) =
        {
            let map = local.lock();
            let entry = map
                .get(service)
                .ok_or_else(|| MetaError::UnknownService(service.to_owned()))?;
            let sig = entry.service.interface.find(operation).ok_or_else(|| {
                MetaError::UnknownOperation {
                    service: service.to_owned(),
                    operation: operation.to_owned(),
                }
            })?;
            sig.check_args(args)?;
            (entry.invoker.clone(), entry.composite)
        };
    let span = tracer.begin(sim, HopKind::App, || format!("{service}.{operation}"));
    let app_started = sim.now();
    // Composite invokers re-enter the gateway to run their steps; a
    // composite that (transitively) invokes itself would self-deadlock
    // on this non-reentrant mutex, so contention on a composite's own
    // lock is reported as a cycle instead of waited on.
    let mut invoker = if composite {
        match invoker.try_lock() {
            Some(guard) => guard,
            None => {
                let err = MetaError::Native {
                    middleware: "composite".to_owned(),
                    detail: format!("re-entrant invocation of composite '{service}' (cycle)"),
                };
                let result = Err(err);
                tracer.end_result(sim, span, &result);
                return result;
            }
        }
    } else {
        invoker.lock()
    };
    let result = invoker.invoke(sim, operation, args);
    metrics.record_layer_with_exemplar(
        Layer::App,
        (sim.now() - app_started).as_micros(),
        span.trace_id(),
    );
    tracer.end_result(sim, span, &result);
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::iface::catalog;
    use crate::protocol::{CompactBinary, SipLike, Soap11};
    use crate::service::Middleware;
    use crate::vsr::Vsr;

    fn world(protocol: Arc<dyn VsgProtocol>) -> (Sim, Network, Vsr, Vsg, Vsg) {
        let sim = Sim::new(1);
        let net = Network::ethernet(&sim);
        let vsr = Vsr::start(&net);
        let gw_a = Vsg::start(&net, "gw-a", protocol.clone(), vsr.node()).unwrap();
        let gw_b = Vsg::start(&net, "gw-b", protocol, vsr.node()).unwrap();
        (sim, net, vsr, gw_a, gw_b)
    }

    fn export_lamp(gw: &Vsg) {
        let on = Arc::new(Mutex::new(false));
        gw.export(
            VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, gw.name()),
            move |_: &Sim, op: &str, args: &[(String, Value)]| match op {
                "switch" => {
                    let want = args
                        .iter()
                        .find(|(k, _)| k == "on")
                        .and_then(|(_, v)| v.as_bool())
                        .unwrap_or(false);
                    *on.lock() = want;
                    Ok(Value::Null)
                }
                "status" => Ok(Value::Bool(*on.lock())),
                "dim" => Ok(Value::Null),
                other => Err(MetaError::UnknownOperation {
                    service: "hall-lamp".into(),
                    operation: other.into(),
                }),
            },
        )
        .unwrap();
    }

    #[test]
    fn local_invocation_with_type_checking() {
        let (sim, _net, _vsr, gw_a, _gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        assert_eq!(gw_a.local_services(), vec!["hall-lamp".to_owned()]);
        assert_eq!(gw_a.local_interface("hall-lamp").unwrap(), catalog::lamp());

        gw_a.invoke(
            &sim,
            "hall-lamp",
            "switch",
            &[("on".into(), Value::Bool(true))],
        )
        .unwrap();
        let status = gw_a.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(status, Value::Bool(true));

        // Wrong type rejected before reaching the invoker.
        let err = gw_a
            .invoke(&sim, "hall-lamp", "switch", &[("on".into(), Value::Int(1))])
            .unwrap_err();
        assert!(matches!(err, MetaError::TypeMismatch { .. }));
        // Unknown op.
        assert!(matches!(
            gw_a.invoke(&sim, "hall-lamp", "explode", &[]),
            Err(MetaError::UnknownOperation { .. })
        ));
        // Unknown service: not local, and resolution at the VSR fails.
        assert!(matches!(
            gw_a.invoke(&sim, "ghost", "x", &[]),
            Err(MetaError::Repository(_) | MetaError::UnknownService(_))
        ));
    }

    #[test]
    fn cross_gateway_invocation_over_each_protocol() {
        for protocol in [
            Arc::new(Soap11::new()) as Arc<dyn VsgProtocol>,
            Arc::new(CompactBinary::new()),
            Arc::new(SipLike::new()),
        ] {
            let name = protocol.name();
            let (sim, _net, _vsr, gw_a, gw_b) = world(protocol);
            export_lamp(&gw_a);
            // gw_b neither hosts the lamp nor knows where it is; the
            // framework resolves and routes transparently.
            gw_b.invoke(
                &sim,
                "hall-lamp",
                "switch",
                &[("on".into(), Value::Bool(true))],
            )
            .unwrap_or_else(|e| panic!("{name}: {e}"));
            let status = gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
            assert_eq!(status, Value::Bool(true), "{name}");
        }
    }

    #[test]
    fn composite_runs_cross_island_steps_from_one_entry_hop() {
        use crate::compose::{Binding, CompositeSpec, StepSpec};
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        let shown: Arc<Mutex<Vec<String>>> = Arc::new(Mutex::new(Vec::new()));
        let log = shown.clone();
        gw_b.export(
            VirtualService::new("tv-display", catalog::display(), Middleware::Havi, "gw-b"),
            move |_: &Sim, _: &str, args: &[(String, Value)]| {
                let text = args
                    .iter()
                    .find(|(k, _)| k == "text")
                    .and_then(|(_, v)| v.as_str())
                    .unwrap_or("")
                    .to_owned();
                log.lock().push(text);
                Ok(Value::Null)
            },
        )
        .unwrap();

        let spec = CompositeSpec::new("evening-check")
            .input("on", crate::iface::TypeTag::Bool)
            .step(StepSpec::new("hall-lamp", "switch").arg("on", Binding::Input("on".into())))
            .step(
                StepSpec::new("tv-display", "show")
                    .arg("text", Binding::Literal(Value::Str("lamp set".into()))),
            )
            .step(StepSpec::new("hall-lamp", "status"));
        gw_b.register_composite(spec).unwrap();

        // Invoked from gw_a: one cross-gateway hop reaches gw_b, which
        // drives all three steps (two of them back across to gw_a).
        let out = gw_a
            .invoke(
                &sim,
                "evening-check",
                "run",
                &[("on".into(), Value::Bool(true))],
            )
            .unwrap();
        assert_eq!(out, Value::Bool(true), "last step's output is returned");
        assert_eq!(shown.lock().as_slice(), ["lamp set".to_owned()]);

        // The hosting gateway's metrics recorded the execution.
        let snap = gw_b.metrics_snapshot();
        assert_eq!(snap.registry.compose_executions, 1);
        assert_eq!(snap.registry.compose_steps, 3);
        assert_eq!(snap.registry.compose_failures, 0);
    }

    #[test]
    fn mutually_recursive_composites_fail_as_cycles_not_deadlocks() {
        use crate::compose::{CompositeSpec, StepSpec};
        let (sim, _net, _vsr, gw_a, _gw_b) = world(Arc::new(Soap11::new()));
        // a-calls-b's only step invokes b-calls-a and vice versa; direct
        // self-invocation is rejected by validate(), but this mutual
        // cycle is only discoverable at run time.
        gw_a.register_composite(
            CompositeSpec::new("a-calls-b").step(StepSpec::new("b-calls-a", "run")),
        )
        .unwrap();
        gw_a.register_composite(
            CompositeSpec::new("b-calls-a").step(StepSpec::new("a-calls-b", "run")),
        )
        .unwrap();
        let err = gw_a.invoke(&sim, "a-calls-b", "run", &[]).unwrap_err();
        assert!(
            err.to_string().contains("cycle"),
            "expected cycle error, got: {err}"
        );
    }

    #[test]
    fn remote_errors_propagate() {
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        // Type errors are raised on the *serving* gateway and travel back.
        let err = gw_b
            .invoke(&sim, "hall-lamp", "switch", &[("on".into(), Value::Int(1))])
            .unwrap_err();
        assert!(err.to_string().contains("type mismatch"), "{err}");
        // Unknown remote service fails at resolution.
        assert!(matches!(
            gw_b.invoke(&sim, "ghost", "x", &[]),
            Err(MetaError::Repository(_) | MetaError::UnknownService(_))
        ));
    }

    #[test]
    fn route_cache_survives_and_recovers() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
        export_lamp(&gw_a);
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        let inquiries_after_first = vsr.registry_stats().inquiries;
        // Second call uses the cached route: no new VSR inquiries.
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(vsr.registry_stats().inquiries, inquiries_after_first);

        // Service moves to gw_b itself; the stale cache entry still hits
        // gw_a which no longer hosts it, and the framework re-resolves.
        gw_a.withdraw("hall-lamp").unwrap();
        export_lamp(&gw_b);
        let v = gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(v, Value::Bool(false));
    }

    #[test]
    fn warm_cache_needs_zero_vsr_round_trips() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        let inquiries_after_first = vsr.registry_stats().inquiries;
        for _ in 0..10 {
            gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        }
        // Not a single further VSR SOAP round trip.
        assert_eq!(vsr.registry_stats().inquiries, inquiries_after_first);
        let stats = gw_b.cache_stats();
        assert_eq!(stats.hits, 10);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn cold_route_miss_is_one_vsr_round_trip() {
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        gw_b.set_tracing(true);
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        let lookups: Vec<String> = gw_b
            .tracer()
            .take_spans()
            .into_iter()
            .filter(|s| s.kind == HopKind::VsrLookup)
            .map(|s| s.name)
            .collect();
        assert_eq!(lookups, ["resolve"], "the record carries the node");
        assert_eq!(gw_b.cache_stats().misses, 1);
    }

    #[test]
    fn withdraw_invalidates_the_caching_gateway() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        gw_a.invoke(&sim, "hall-lamp", "status", &[]).ok();
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(gw_b.cache_len(), 1);

        // gw_a withdraws: its own entry (if any) is invalidated locally;
        // gw_b's copy goes stale and is evicted on the next use.
        gw_a.withdraw("hall-lamp").unwrap();
        assert!(gw_b.invoke(&sim, "hall-lamp", "status", &[]).is_err());
        assert_eq!(
            gw_b.cache_stats().invalidations,
            1,
            "stale entry dropped after failed call"
        );
        assert_eq!(vsr.service_count(), 0);
    }

    /// The ways a client can call one remote operation: a single
    /// `invoke`, and a one-member `invoke_batch` with batching on or off.
    /// All of them must answer alike.
    fn call_styles() -> [Option<BatchPolicy>; 3] {
        [
            None,
            Some(BatchPolicy::default()),
            Some(BatchPolicy::disabled()),
        ]
    }

    /// Calls `hall-lamp.status` from `gw` in `style`.
    fn lamp_status(gw: &Vsg, sim: &Sim, style: &Option<BatchPolicy>) -> Result<Value, MetaError> {
        use crate::batch::{BatchCall, BatchItem};
        match style {
            None => gw.invoke(sim, "hall-lamp", "status", &[]),
            Some(policy) => {
                gw.set_batching(policy.clone());
                let item = BatchItem::Call(BatchCall::new("hall-lamp", "status"));
                gw.invoke_batch(sim, &[item]).remove(0)
            }
        }
    }

    #[test]
    fn service_move_between_gateways_serves_fresh_record() {
        for style in call_styles() {
            let (sim, net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
            let gw_c = Vsg::start(&net, "gw-c", gw_a.protocol().clone(), vsr.node()).unwrap();
            export_lamp(&gw_a);
            lamp_status(&gw_c, &sim, &style).unwrap();
            assert_eq!(gw_c.resolve_cached("hall-lamp").unwrap().gateway, "gw-a");

            // The lamp relocates to gw_b; gw_c's cached record is stale.
            gw_a.withdraw("hall-lamp").unwrap();
            let on = Arc::new(Mutex::new(false));
            gw_b.export(
                VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, "gw-b"),
                move |_: &Sim, op: &str, _: &[(String, Value)]| match op {
                    "status" => Ok(Value::Bool(*on.lock())),
                    _ => Ok(Value::Null),
                },
            )
            .unwrap();

            // Invocation recovers transparently, and the re-learned
            // record names the new gateway — no stale interface or
            // endpoint.
            for _ in 0..2 {
                let v = lamp_status(&gw_c, &sim, &style);
                assert_eq!(v, Ok(Value::Bool(false)), "{style:?}");
            }
            assert_eq!(gw_c.resolve_cached("hall-lamp").unwrap().gateway, "gw-b");
            assert_eq!(gw_c.cache_stats().invalidations, 1, "{style:?}");
        }
    }

    #[test]
    fn cache_stays_bounded_under_churn() {
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
        gw_b.set_cache_capacity(2);
        for i in 0..8 {
            let name = format!("svc-{i}");
            gw_a.export(
                VirtualService::new(&name, catalog::lamp(), Middleware::X10, "gw-a"),
                |_: &Sim, _: &str, _: &[(String, Value)]| Ok(Value::Bool(false)),
            )
            .unwrap();
            gw_b.invoke(&sim, &name, "status", &[]).unwrap();
            assert!(gw_b.cache_len() <= 2, "cache grew past its bound");
        }
        assert_eq!(gw_b.cache_stats().evictions, 6);
        // The bound costs re-resolution, never correctness.
        assert_eq!(
            gw_b.invoke(&sim, "svc-0", "status", &[]).unwrap(),
            Value::Bool(false)
        );
    }

    #[test]
    fn app_faults_never_double_invoke() {
        for protocol in [
            Arc::new(Soap11::new()) as Arc<dyn VsgProtocol>,
            Arc::new(CompactBinary::new()),
            Arc::new(SipLike::new()),
        ] {
            let name = protocol.name();
            let (sim, _net, _vsr, gw_a, gw_b) = world(protocol);
            let invocations = Arc::new(Mutex::new(0u32));
            let counter = invocations.clone();
            gw_a.export(
                VirtualService::new("vault", catalog::lamp(), Middleware::X10, "gw-a"),
                move |_: &Sim, _: &str, _: &[(String, Value)]| {
                    *counter.lock() += 1;
                    Err(MetaError::native("x10", "device jammed"))
                },
            )
            .unwrap();

            // Warm the route, then hit the application fault.
            gw_b.invoke(&sim, "vault", "status", &[]).unwrap_err();
            let err = gw_b.invoke(&sim, "vault", "status", &[]).unwrap_err();
            assert_eq!(err, MetaError::native("x10", "device jammed"), "{name}");
            // One invocation per invoke() call: the fault proves the
            // remote side executed, so there must be no evict-and-retry.
            assert_eq!(
                *invocations.lock(),
                2,
                "{name}: non-idempotent op double-invoked"
            );
        }
    }

    #[test]
    fn negative_entries_absorb_repeated_unknown_lookups() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        assert!(matches!(
            gw_b.invoke(&sim, "hall-lamp", "status", &[]),
            Err(MetaError::UnknownService(_))
        ));
        let inquiries_after_first = vsr.registry_stats().inquiries;
        // The next few lookups are answered from the negative entry…
        for _ in 0..3 {
            assert!(matches!(
                gw_b.invoke(&sim, "hall-lamp", "status", &[]),
                Err(MetaError::UnknownService(_))
            ));
        }
        assert_eq!(vsr.registry_stats().inquiries, inquiries_after_first);
        assert_eq!(gw_b.cache_stats().negative_hits, 3);
        // …but the entry has a use budget: a service published *after*
        // the failed lookups becomes invocable within a few attempts
        // rather than staying invisible forever.
        export_lamp(&gw_a);
        let recovered = (0..8).any(|_| gw_b.invoke(&sim, "hall-lamp", "status", &[]).is_ok());
        assert!(recovered, "negative entry never expired");
    }

    #[test]
    fn lost_requests_are_retried_until_the_spike_heals() {
        let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap(); // warm the route
        let t = sim.now();
        net.set_fault_plan(simnet::FaultPlan::new().loss_spike(
            t,
            t + simnet::SimDuration::from_millis(120),
            1.0,
        ));
        // Every request in the window is lost before delivery; backoff
        // paces the retries across the spike and the call lands.
        let v = gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap();
        assert_eq!(v, Value::Bool(false));
        let snap = gw_b.metrics().snapshot();
        assert!(snap.retries >= 1, "retries recorded: {}", snap.retries);
        assert_eq!(
            gw_b.breaker_state("gw-a"),
            BreakerState::Closed,
            "success reset the failure run"
        );
    }

    #[test]
    fn ambiguous_response_loss_never_double_invokes() {
        let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        let count = Arc::new(Mutex::new(0u32));
        let c = count.clone();
        gw_a.export(
            VirtualService::new("vault", catalog::lamp(), Middleware::X10, "gw-a"),
            move |sim: &Sim, _: &str, _: &[(String, Value)]| {
                *c.lock() += 1;
                // Long enough that the partition window opens mid-call.
                sim.advance(simnet::SimDuration::from_millis(10));
                Ok(Value::Null)
            },
        )
        .unwrap();
        gw_b.invoke(&sim, "vault", "switch", &[("on".into(), Value::Bool(true))])
            .unwrap();
        assert_eq!(*count.lock(), 1);

        // The backbone partitions while the handler is running: the
        // request was delivered, the response is lost. `switch` is not
        // idempotent, so the resilience layer must NOT re-send.
        let t = sim.now();
        net.set_fault_plan(simnet::FaultPlan::new().partition(
            vec![gw_a.node()],
            vec![gw_b.node()],
            t + simnet::SimDuration::from_millis(5),
            t + simnet::SimDuration::from_millis(500),
        ));
        let err = gw_b
            .invoke(&sim, "vault", "switch", &[("on".into(), Value::Bool(true))])
            .unwrap_err();
        assert_eq!(err.kind(), "transport");
        assert!(
            matches!(
                err,
                MetaError::Transport {
                    not_executed: false,
                    ..
                }
            ),
            "{err}"
        );
        assert_eq!(
            *count.lock(),
            2,
            "executed once; ambiguous loss not re-sent"
        );
    }

    #[test]
    fn vsr_outage_serves_stale_routes_degraded() {
        for style in call_styles() {
            let (sim, net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
            export_lamp(&gw_a);
            gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap(); // warm the route
            gw_b.set_resilience(ResiliencePolicy {
                max_retries: 0,
                ..ResiliencePolicy::default()
            });
            let t = sim.now();
            net.set_fault_plan(
                simnet::FaultPlan::new()
                    .node_down(gw_a.node(), t, t + simnet::SimDuration::from_secs(1))
                    .node_down(vsr.node(), t, t + simnet::SimDuration::from_secs(3600)),
            );
            // Gateway and VSR both down: the wire call fails, the route
            // is demoted to stale, re-resolution fails, the stale route
            // is tried (degraded) and fails too — but gracefully typed.
            let err = lamp_status(&gw_b, &sim, &style).unwrap_err();
            assert!(err.is_transport_failure(), "{style:?}: {err}");

            // gw-a recovers; the VSR is still down for an hour. Degraded
            // mode keeps the home controllable from the stale route.
            sim.advance(simnet::SimDuration::from_secs(2));
            let v = lamp_status(&gw_b, &sim, &style);
            assert_eq!(v, Ok(Value::Bool(false)), "{style:?}");
            assert_eq!(gw_b.metrics().snapshot().degraded_serves, 2);
            assert_eq!(gw_b.cache_stats().stale_serves, 2);

            // The degraded success re-promoted the route: next call is a
            // plain cache hit, no VSR needed.
            let hits_before = gw_b.cache_stats().hits;
            lamp_status(&gw_b, &sim, &style).unwrap();
            assert_eq!(gw_b.cache_stats().hits, hits_before + 1);
        }
    }

    #[test]
    fn batched_agrees_with_unbatched_and_shares_the_wire() {
        use crate::batch::{BatchCall, BatchItem};
        let items = vec![
            BatchItem::Call(BatchCall::new("hall-lamp", "switch").arg("on", true)),
            BatchItem::Call(BatchCall::new("hall-lamp", "status")),
            BatchItem::Event {
                service: "hall-lamp".into(),
                event: Value::Int(7),
            },
            BatchItem::Call(BatchCall::new("hall-lamp", "explode")),
            BatchItem::Call(BatchCall::new("ghost", "status")),
            BatchItem::Call(BatchCall::new("hall-lamp", "status")),
        ];
        let run = |batched: bool| {
            let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
            export_lamp(&gw_a);
            gw_b.set_batching(if batched {
                BatchPolicy::default()
            } else {
                BatchPolicy::disabled()
            });
            gw_b.invoke(&sim, "hall-lamp", "status", &[]).unwrap(); // warm the route
            let frames_before = net.with_stats(|s| s.total().frames);
            let results = gw_b.invoke_batch(&sim, &items);
            (
                results,
                net.with_stats(|s| s.total().frames) - frames_before,
            )
        };
        let (batched, batched_frames) = run(true);
        let (unbatched, unbatched_frames) = run(false);
        assert_eq!(batched, unbatched, "batching must not change answers");
        assert_eq!(batched[1], Ok(Value::Bool(true)));
        assert_eq!(batched[2], Ok(Value::Null));
        assert!(matches!(
            batched[3],
            Err(MetaError::UnknownOperation { .. })
        ));
        assert!(matches!(batched[4], Err(MetaError::UnknownService(_))));
        assert!(
            batched_frames < unbatched_frames,
            "batched moved {batched_frames} frames, unbatched {unbatched_frames}"
        );
    }

    #[test]
    fn batched_events_reach_the_remote_sink_in_order() {
        use crate::batch::BatchItem;
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(SipLike::new()));
        export_lamp(&gw_a);
        let seen: Arc<Mutex<Vec<(String, Value)>>> = Arc::new(Mutex::new(Vec::new()));
        let seen2 = seen.clone();
        gw_a.set_event_sink(move |_, service, event| {
            seen2.lock().push((service.to_owned(), event.clone()));
        });
        let items: Vec<BatchItem> = (0..3)
            .map(|i| BatchItem::Event {
                service: "hall-lamp".into(),
                event: Value::Int(i),
            })
            .collect();
        let results = gw_b.invoke_batch(&sim, &items);
        assert!(results.iter().all(|r| r == &Ok(Value::Null)), "{results:?}");
        assert_eq!(
            *seen.lock(),
            vec![
                ("hall-lamp".to_owned(), Value::Int(0)),
                ("hall-lamp".to_owned(), Value::Int(1)),
                ("hall-lamp".to_owned(), Value::Int(2)),
            ]
        );
    }

    #[test]
    fn batch_backpressure_rejects_members_beyond_the_queue_bound() {
        use crate::batch::{BatchCall, BatchItem, BatchPolicy};
        let (sim, _net, _vsr, gw_a, gw_b) = world(Arc::new(CompactBinary::new()));
        export_lamp(&gw_a);
        gw_b.set_batching(BatchPolicy {
            max_queue: 2,
            ..BatchPolicy::default()
        });
        let items: Vec<BatchItem> = (0..4)
            .map(|_| BatchItem::Call(BatchCall::new("hall-lamp", "status")))
            .collect();
        let results = gw_b.invoke_batch(&sim, &items);
        assert!(results[0].is_ok() && results[1].is_ok());
        for r in &results[2..] {
            assert!(
                matches!(r, Err(MetaError::Overloaded { queued: 2, .. })),
                "{r:?}"
            );
        }
        // Rejections land in the metrics under their own kind, and the
        // accepted members recorded their queue wait.
        let snap = gw_b.metrics().snapshot();
        let overloaded = snap
            .errors
            .iter()
            .find(|(k, _)| k == "overloaded")
            .map(|(_, n)| *n);
        assert_eq!(overloaded, Some(2));
        assert_eq!(snap.queue_wait.count, 2);
    }

    #[test]
    fn lost_batch_with_non_idempotent_member_is_not_resent() {
        use crate::batch::{BatchCall, BatchItem};
        let (sim, net, _vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        let count = Arc::new(Mutex::new(0u32));
        let c = count.clone();
        gw_a.export(
            VirtualService::new("vault", catalog::lamp(), Middleware::X10, "gw-a"),
            move |sim: &Sim, _: &str, _: &[(String, Value)]| {
                *c.lock() += 1;
                sim.advance(simnet::SimDuration::from_millis(10));
                Ok(Value::Null)
            },
        )
        .unwrap();
        gw_b.invoke(&sim, "vault", "status", &[]).unwrap(); // warm the route
        let executed_before = *count.lock();

        // The response frame is lost mid-batch: the members may all
        // have executed. `switch` is not idempotent, so the whole frame
        // must not be re-sent — every member fails ambiguously instead.
        let t = sim.now();
        net.set_fault_plan(simnet::FaultPlan::new().partition(
            vec![gw_a.node()],
            vec![gw_b.node()],
            t + simnet::SimDuration::from_millis(5),
            t + simnet::SimDuration::from_millis(500),
        ));
        let items = vec![
            BatchItem::Call(BatchCall::new("vault", "status")),
            BatchItem::Call(BatchCall::new("vault", "switch").arg("on", true)),
        ];
        let results = gw_b.invoke_batch(&sim, &items);
        for r in &results {
            assert!(
                matches!(
                    r,
                    Err(MetaError::Transport {
                        not_executed: false,
                        ..
                    })
                ),
                "{r:?}"
            );
        }
        assert_eq!(
            *count.lock() - executed_before,
            2,
            "each member executed exactly once despite the lost reply"
        );
    }

    #[test]
    fn withdraw_removes_service_everywhere() {
        let (sim, _net, vsr, gw_a, gw_b) = world(Arc::new(Soap11::new()));
        export_lamp(&gw_a);
        assert_eq!(vsr.service_count(), 1);
        assert!(gw_a.withdraw("hall-lamp").unwrap());
        assert!(!gw_a.withdraw("hall-lamp").unwrap());
        assert_eq!(vsr.service_count(), 0);
        assert!(gw_b.invoke(&sim, "hall-lamp", "status", &[]).is_err());
    }
}
