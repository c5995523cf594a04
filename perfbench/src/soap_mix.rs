//! `soap_call_mix`: one closed-loop caller replays the seeded
//! cross-island call mix on the standard home over the paper's SOAP
//! codec, warm caches, with a 4-step cross-island scene composite as
//! every 32nd call. SOAP encode, HTTP and transport carry the host
//! cost here while the VSR idles on cache hits.

use crate::alloc;
use crate::episode::{loop_rate, virtual_digest, Counters, Episode, Values};
use crate::probe::{elapsed_ns, per, take_outer_call_ns, timed, LayerProbe, Probed, Tally};
use bench::workload::{Call, Workload};
use metaware::{
    Binding, CompositeSpec, MetaError, Middleware, SmartHome, Soap11, StepSpec, Vsg, VsgProtocol,
};
use soap::Value;
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

pub struct Params {
    /// Measured operations per episode.
    pub ops: usize,
    /// Trace calls replayed during set-up, after every route is warm.
    pub warm_ops: usize,
}

pub const PARAMS: Params = Params {
    ops: 8192,
    warm_ops: 256,
};

const SCENE: &str = "evening-scene";
const SCENE_EVERY: usize = 32;
const ISLANDS: [Middleware; 4] = [
    Middleware::Jini,
    Middleware::Havi,
    Middleware::X10,
    Middleware::Mail,
];

/// The scene: one step on each of HAVi, X10 and Jini plus a second
/// HAVi read, hosted on the mail island's gateway, which fronts none of
/// them. Its result is the last step's.
fn scene_spec() -> CompositeSpec {
    CompositeSpec::new(SCENE)
        .step(
            StepSpec::new("tv-tuner", "set_channel")
                .arg("channel", Binding::Literal(Value::Int(7))),
        )
        .step(StepSpec::new("hall-lamp", "status"))
        .step(StepSpec::new("laserdisc", "status"))
        .step(StepSpec::new("dv-camera", "status"))
}

/// What a call must return on the standard home.
#[derive(Debug, Clone, Copy)]
pub enum Expect {
    Null,
    Bool(bool),
    Float(f64),
    Stopped,
}

impl Expect {
    pub fn matches(self, got: &Result<Value, MetaError>) -> bool {
        match (self, got) {
            (Expect::Null, Ok(Value::Null)) => true,
            (Expect::Bool(b), Ok(Value::Bool(v))) => b == *v,
            (Expect::Float(f), Ok(Value::Float(v))) => f == *v,
            (Expect::Stopped, Ok(Value::Str(s))) => s == "stopped",
            _ => false,
        }
    }
}

/// The device state the mix can observe: only the hall lamp's power is
/// both written and read.
#[derive(Default)]
pub struct Model {
    lamp_on: bool,
}

impl Model {
    pub fn apply(&mut self, call: &Call) -> Expect {
        match (call.service, call.operation) {
            ("hall-lamp", "status") => Expect::Bool(self.lamp_on),
            ("hall-lamp", "switch") => {
                self.lamp_on = matches!(call.args.first(), Some((_, Value::Bool(true))));
                Expect::Null
            }
            ("fridge", "temperature") => Expect::Float(4.0),
            ("tv-tuner", "set_channel") | ("desk-lamp", "dim") => Expect::Null,
            (_, "status") | (SCENE, "run") => Expect::Stopped,
            (s, o) => panic!("no expected value for {s}.{o}"),
        }
    }
}

fn call(
    from: Middleware,
    service: &'static str,
    operation: &'static str,
    args: Vec<(String, Value)>,
) -> Call {
    Call {
        from,
        service,
        operation,
        args,
    }
}

fn island(mw: Middleware) -> usize {
    ISLANDS
        .iter()
        .position(|m| *m == mw)
        .expect("one of the four islands")
}

pub fn episode(p: &Params, seed: u64, traced: bool) -> Episode {
    // Inputs first, so they stay out of the heap charged to the home.
    let mut workload = Workload::new(seed);
    let warm = workload.trace(p.warm_ops);
    let mut ops = workload.trace(p.ops);
    for (i, op) in ops.iter_mut().enumerate() {
        if i % SCENE_EVERY == SCENE_EVERY - 1 {
            *op = call(op.from, SCENE, "run", Vec::new());
        }
    }
    let mut routes = Vec::new();
    for from in ISLANDS {
        routes.push(call(
            from,
            "tv-tuner",
            "set_channel",
            vec![("channel".into(), Value::Int(1))],
        ));
        routes.push(call(
            from,
            "desk-lamp",
            "dim",
            vec![("steps".into(), Value::Int(1))],
        ));
        for (service, operation) in [
            ("hall-lamp", "status"),
            ("laserdisc", "status"),
            ("dv-camera", "status"),
            ("living-room-vcr", "status"),
            ("fridge", "temperature"),
            (SCENE, "run"),
        ] {
            routes.push(call(from, service, operation, Vec::new()));
        }
    }
    let mut op_host_ns = Vec::with_capacity(p.ops);
    let mut op_virtual_us = Vec::with_capacity(p.ops);
    let heap0 = alloc::live_bytes();

    let t_setup = Instant::now();
    let probe = traced.then(|| Arc::new(LayerProbe::default()));
    let codec: Arc<dyn VsgProtocol> = Arc::new(Soap11::new());
    let protocol = match &probe {
        Some(probe) => Probed::wrap(codec, probe.clone()),
        None => codec,
    };
    let home = SmartHome::builder()
        .seed(seed)
        .protocol(protocol)
        .build()
        .expect("the standard home builds");
    let gateways: Vec<&Vsg> = ISLANDS
        .iter()
        .map(|mw| {
            home.gateway(*mw)
                .expect("the standard home has all four islands")
        })
        .collect();
    gateways[island(Middleware::Mail)]
        .register_composite(scene_spec())
        .expect("the scene composite registers");
    let mut model = Model::default();
    let mut failed = 0u64;
    let mut check = |call: &Call, expect: Expect, got: &Result<Value, MetaError>| {
        if !expect.matches(got) {
            failed += 1;
            eprintln!(
                "soap_call_mix: {:?} -> {}.{} returned {got:?}, expected {expect:?}",
                call.from, call.service, call.operation
            );
        }
    };
    for c in routes.iter().chain(&warm) {
        let expect = model.apply(c);
        let got = home.invoke_from(c.from, c.service, c.operation, &c.args);
        check(c, expect, &got);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let local: Vec<HashSet<String>> = gateways
        .iter()
        .map(|g| g.local_services().into_iter().collect())
        .collect();
    let before = Counters::of(&gateways);
    let registry0 = home.vsr.registry_stats();
    let bytes0 = home.backbone.with_stats(|s| s.total().bytes);
    let resolve = Tally::default();
    let scene = Tally::default();
    let mut client_self_ns = 0u64;
    let mut local_ops = 0u64;
    take_outer_call_ns();
    let allocs0 = alloc::allocs();
    for c in &ops {
        let from = island(c.from);
        let gw = gateways[from];
        let is_local = local[from].contains(c.service);
        let expect = model.apply(c);
        let v0 = home.sim.now();
        let t0 = Instant::now();
        let mut resolve_ns = 0;
        if traced && !is_local {
            let (route, ns, allocs) = timed(|| gw.resolve_cached(c.service));
            route.expect("every target of the mix resolves");
            resolve.add(ns, allocs);
            resolve_ns = ns;
        }
        let got = gw.invoke(&home.sim, c.service, c.operation, &c.args);
        let ns = elapsed_ns(t0);
        op_host_ns.push(ns);
        op_virtual_us.push((home.sim.now() - v0).as_micros());
        local_ops += u64::from(is_local);
        if traced {
            client_self_ns += ns.saturating_sub(resolve_ns + take_outer_call_ns());
            if c.service == SCENE {
                scene.add(ns, 0);
            }
        }
        check(c, expect, &got);
    }
    let allocs = alloc::allocs() - allocs0;
    let n = ops.len() as u64;
    let bytes = home.backbone.with_stats(|s| s.total().bytes) - bytes0;
    let counters = Counters::of(&gateways).since(&before);
    let registry = home.vsr.registry_stats();
    let inquiries = registry.inquiries - registry0.inquiries;
    let scanned = registry.records_scanned - registry0.records_scanned;
    let heap = alloc::live_bytes() - heap0;
    let scene_ops = (ops.len() / SCENE_EVERY) as u64;

    let mut layers = Values::new();
    counters.record(n, &mut layers);
    layers.insert("vsg.local_share", per(local_ops, n));
    layers.insert("vsr.inquiries_per_op", per(inquiries, n));
    layers.insert("vsr.records_scanned_per_inquiry", per(scanned, inquiries));
    layers.insert(
        "compose.steps_per_op",
        per(counters.compose_steps, scene_ops),
    );
    if let Some(probe) = &probe {
        probe.record(n, &mut layers);
        layers.insert("vsg.client_self_ns", per(client_self_ns, n));
        layers.insert("vsr.resolve_ns", resolve.mean_ns());
        layers.insert("vsr.resolve_allocs", resolve.mean_allocs());
        layers.insert("compose.op_host_ns", scene.mean_ns());
    }
    let correct = failed == 0;
    Episode {
        setup_s,
        attempted: n,
        failed,
        correct,
        rate: loop_rate(&op_host_ns),
        op_host_ns,
        allocs_per_op: per(allocs, n),
        wire_bytes_per_op: per(bytes, n),
        heap_bytes_per_home: heap as f64,
        identity: format!(
            "{} bytes={bytes} inquiries={inquiries} scanned={scanned} {}",
            virtual_digest(&op_virtual_us),
            counters.identity()
        ),
        op_virtual_us,
        layers,
    }
}
