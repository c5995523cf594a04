//! `directory_churn`: one closed-loop caller on the compact binary
//! codec against 2048 bench-owned services spread over the four
//! gateways — four times the resolution cache's default capacity.
//! Targets are Zipf-skewed; one op in 16 is a write that withdraws the
//! target and exports it again on the next gateway, so every other
//! gateway's cached route to it goes stale. The VSR, the UDDI index and
//! the resolution cache carry the host cost here, not the codec.

use crate::alloc;
use crate::episode::{loop_rate, virtual_digest, Counters, Episode, Values};
use crate::probe::{elapsed_ns, per, take_outer_call_ns, timed, LayerProbe, Probed, Tally};
use metaware::{
    CompactBinary, MetaError, Middleware, OpSig, ServiceInterface, SmartHome, TypeTag,
    VirtualService, Vsg, VsgProtocol,
};
use simnet::{Sim, SimRng};
use soap::Value;
use std::sync::Arc;
use std::time::Instant;

pub struct Params {
    /// Bench-owned services exported across the four gateways.
    pub services: usize,
    /// Measured operations per episode.
    pub ops: usize,
    /// Operations run during set-up to bring caches to steady state.
    pub warm_ops: usize,
}

pub const PARAMS: Params = Params {
    services: 2048,
    ops: 16384,
    warm_ops: 4096,
};

const WRITE_EVERY: usize = 16;
/// Zipf exponent of target popularity.
const ZIPF_S: f64 = 1.0;
const GATEWAYS: [Middleware; 4] = [
    Middleware::Jini,
    Middleware::Havi,
    Middleware::X10,
    Middleware::Mail,
];

struct Op {
    caller: usize,
    svc: usize,
    write: bool,
    args: Vec<(String, Value)>,
    expect: i64,
}

/// The answer service `svc` gives for `x`.
fn answer(svc: usize, x: i64) -> i64 {
    x * 4099 + svc as i64
}

/// `warm + ops` seeded operations: Zipf-ranked targets under a seeded
/// shuffle of service ids, uniform callers, every 16th op a write.
fn plan(seed: u64, services: usize, n: usize) -> Vec<Op> {
    let mut rng = SimRng::seeded(seed);
    let mut cdf = Vec::with_capacity(services);
    let mut total = 0.0;
    for rank in 1..=services {
        total += 1.0 / (rank as f64).powf(ZIPF_S);
        cdf.push(total);
    }
    let mut by_rank: Vec<usize> = (0..services).collect();
    for i in (1..services).rev() {
        by_rank.swap(i, rng.index(i + 1));
    }
    (0..n)
        .map(|i| {
            let u = rng.unit() * total;
            let rank = cdf.partition_point(|&c| c <= u).min(services - 1);
            let svc = by_rank[rank];
            let x = rng.range(0, 1000) as i64;
            Op {
                caller: rng.index(GATEWAYS.len()),
                svc,
                write: i % WRITE_EVERY == WRITE_EVERY - 1,
                args: vec![("x".to_owned(), Value::Int(x))],
                expect: answer(svc, x),
            }
        })
        .collect()
}

fn interface() -> ServiceInterface {
    ServiceInterface::new("Answer").op(OpSig::new("get")
        .param("x", TypeTag::Int)
        .returns(TypeTag::Int)
        .idempotent())
}

/// Exports service `svc` on gateway `g`, its body timed into `app` when
/// tracing.
fn export(
    gateways: &[&Vsg],
    g: usize,
    name: &str,
    svc: usize,
    app: &Option<Arc<Tally>>,
) -> Result<(), MetaError> {
    let app = app.clone();
    let gw = gateways[g];
    gw.export(
        VirtualService::new(name, interface(), GATEWAYS[g], gw.name()),
        move |_: &Sim, _: &str, args: &[(String, Value)]| {
            let body = || {
                let x = args.first().and_then(|(_, v)| v.as_int()).unwrap_or(0);
                Ok(Value::Int(answer(svc, x)))
            };
            match &app {
                Some(app) => app.time(body),
                None => body(),
            }
        },
    )
}

pub fn episode(p: &Params, seed: u64, traced: bool) -> Episode {
    // Inputs first, so they stay out of the heap charged to the home.
    let names: Vec<String> = (0..p.services).map(|i| format!("svc-{i:04}")).collect();
    let mut all = plan(seed, p.services, p.warm_ops + p.ops);
    let ops = all.split_off(p.warm_ops);
    let warm = all;
    let mut op_host_ns = Vec::with_capacity(p.ops);
    let mut op_virtual_us = Vec::with_capacity(p.ops);
    let heap0 = alloc::live_bytes();

    let t_setup = Instant::now();
    let probe = traced.then(|| Arc::new(LayerProbe::default()));
    let app = traced.then(|| Arc::new(Tally::default()));
    let codec: Arc<dyn VsgProtocol> = Arc::new(CompactBinary::new());
    let protocol = match &probe {
        Some(probe) => Probed::wrap(codec, probe.clone()),
        None => codec,
    };
    let home = SmartHome::builder()
        .seed(seed)
        .protocol(protocol)
        .build()
        .expect("the standard home builds");
    let gateways: Vec<&Vsg> = GATEWAYS
        .iter()
        .map(|mw| {
            home.gateway(*mw)
                .expect("the standard home has all four islands")
        })
        .collect();
    let mut host: Vec<usize> = (0..p.services).map(|i| i % GATEWAYS.len()).collect();
    for (svc, name) in names.iter().enumerate() {
        export(&gateways, host[svc], name, svc, &app).expect("a bench service exports");
    }
    let mut failed = 0u64;
    let writes = Tally::default();
    let resolve = Tally::default();
    let mut client_self_ns = 0u64;
    let mut local_ops = 0u64;
    let mut run = |op: &Op, measure: bool, failed: &mut u64| -> u64 {
        let name = &names[op.svc];
        let t0 = Instant::now();
        let mut resolve_ns = 0;
        let ok = if op.write {
            let (ok, ns, allocs) = timed(|| {
                let old = host[op.svc];
                let new = (old + 1) % GATEWAYS.len();
                let withdrawn = gateways[old].withdraw(name);
                let exported = export(&gateways, new, name, op.svc, &app);
                host[op.svc] = new;
                withdrawn == Ok(true) && exported.is_ok()
            });
            if measure && traced {
                writes.add(ns, allocs);
            }
            ok
        } else {
            let gw = gateways[op.caller];
            let is_local = host[op.svc] == op.caller;
            if measure && traced && !is_local {
                let (route, ns, allocs) = timed(|| gw.resolve_cached(name));
                route.expect("every bench service resolves");
                resolve.add(ns, allocs);
                resolve_ns = ns;
            }
            local_ops += u64::from(measure && is_local);
            let got = gw.invoke(&home.sim, name, "get", &op.args);
            got == Ok(Value::Int(op.expect))
        };
        let ns = elapsed_ns(t0);
        if measure && traced && !op.write {
            client_self_ns += ns.saturating_sub(resolve_ns + take_outer_call_ns());
        }
        if !ok {
            *failed += 1;
            eprintln!(
                "directory_churn: {} on {} by gateway {} failed",
                if op.write { "write" } else { "read" },
                name,
                op.caller
            );
        }
        ns
    };
    for op in &warm {
        run(op, false, &mut failed);
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let before = Counters::of(&gateways);
    let registry0 = home.vsr.registry_stats();
    let bytes0 = home.backbone.with_stats(|s| s.total().bytes);
    take_outer_call_ns();
    let allocs0 = alloc::allocs();
    for op in &ops {
        let v0 = home.sim.now();
        op_host_ns.push(run(op, true, &mut failed));
        op_virtual_us.push((home.sim.now() - v0).as_micros());
    }
    let allocs = alloc::allocs() - allocs0;
    let n = ops.len() as u64;
    let write_ops = ops.iter().filter(|o| o.write).count() as u64;
    let bytes = home.backbone.with_stats(|s| s.total().bytes) - bytes0;
    let counters = Counters::of(&gateways).since(&before);
    let registry = home.vsr.registry_stats();
    let inquiries = registry.inquiries - registry0.inquiries;
    let scanned = registry.records_scanned - registry0.records_scanned;
    let publishes = registry.publishes - registry0.publishes;
    let heap = alloc::live_bytes() - heap0;

    let mut layers = Values::new();
    counters.record(n, &mut layers);
    layers.insert("vsr.inquiries_per_op", per(inquiries, n));
    layers.insert("vsr.records_scanned_per_inquiry", per(scanned, inquiries));
    layers.insert("vsr.publishes_per_write", per(publishes, write_ops));
    layers.insert("vsg.local_share", per(local_ops, n));
    if let Some(probe) = &probe {
        probe.record(n, &mut layers);
        layers.insert("vsg.client_self_ns", per(client_self_ns, n - write_ops));
        layers.insert("vsr.resolve_ns", resolve.mean_ns());
        layers.insert("vsr.resolve_allocs", resolve.mean_allocs());
        layers.insert("vsr.write_ns", writes.mean_ns());
        layers.insert("app.ns", app.as_ref().map_or(0.0, |a| a.mean_ns()));
    }
    Episode {
        setup_s,
        attempted: n,
        failed,
        correct: failed == 0,
        rate: loop_rate(&op_host_ns),
        op_host_ns,
        allocs_per_op: per(allocs, n),
        wire_bytes_per_op: per(bytes, n),
        heap_bytes_per_home: heap as f64,
        identity: format!(
            "{} bytes={bytes} inquiries={inquiries} scanned={scanned} publishes={publishes} {}",
            virtual_digest(&op_virtual_us),
            counters.identity()
        ),
        op_virtual_us,
        layers,
    }
}
