//! Failure injection: the home keeps its promises when networks blink,
//! leases lapse and the powerline eats frames.

use havi::bus_reset;
use metaware::{BreakerState, MetaError, Middleware, SmartHome};
use simnet::{FaultPlan, SimDuration};
use soap::Value;

#[test]
fn havi_bus_reset_blocks_then_recovers() {
    let home = SmartHome::builder().build().unwrap();
    let havi = home.havi.as_ref().unwrap();

    // During the reset window the bus is down: cross-island HAVi calls
    // fail with the middleware's own typed error, not a generic string.
    havi.bus.set_down(true);
    let err = home
        .invoke_from(Middleware::Jini, "dv-camera", "record", &[])
        .unwrap_err();
    assert!(
        matches!(&err, MetaError::Native { middleware, .. } if middleware == "havi"),
        "expected a HAVi-native error, got {err:?}"
    );
    assert_eq!(err.kind(), "native");

    // The bus recovers; no re-configuration needed for messaging.
    havi.bus.set_down(false);
    home.invoke_from(Middleware::Jini, "dv-camera", "record", &[])
        .unwrap();

    // A full reset helper drops and restores within the outage window.
    bus_reset(&home.sim, &havi.bus);
    home.invoke_from(Middleware::Jini, "dv-camera", "stop", &[])
        .unwrap();
}

#[test]
fn jini_lease_expiry_removes_dead_services_from_the_island() {
    let home = SmartHome::builder().build().unwrap();
    let jini = home.jini.as_ref().unwrap();
    // The built-in devices registered with 300 s leases and nobody
    // renews them: after expiry + sweep they vanish from the registrar.
    assert_eq!(jini.reggie.registered_count(), 3);
    home.sim.run_for(SimDuration::from_secs(400));
    assert_eq!(jini.reggie.registered_count(), 0, "leases lapsed");

    // The VSR still lists the stale import (the PCM has not re-scanned);
    // invoking now surfaces the failure honestly... actually the RMI
    // objects are still exported, so calls still work — Jini's *lookup*
    // died, not the service. This mirrors real Jini semantics.
    home.invoke_from(Middleware::Havi, "laserdisc", "status", &[])
        .unwrap();
}

#[test]
fn noisy_powerline_is_survivable_with_repeats() {
    // With a noisy powerline, individual commands may be lost; the PCM
    // repeats idempotent commands, and shadows stay self-consistent.
    let home = SmartHome::builder()
        .noisy_powerline()
        .seed(77)
        .build()
        .unwrap();
    let mut successes = 0;
    for i in 0..10 {
        let on = i % 2 == 0;
        if home
            .invoke_from(
                Middleware::Jini,
                "hall-lamp",
                "switch",
                &[("on".into(), Value::Bool(on))],
            )
            .is_ok()
        {
            successes += 1;
        }
    }
    // The serial leg is lossless and the PCM repeats over the powerline:
    // the framework call itself should essentially always succeed.
    assert!(successes >= 9, "only {successes}/10 commands accepted");
}

#[test]
fn x10_commands_may_still_miss_on_noise_and_shadow_tracks_belief() {
    let home = SmartHome::builder()
        .noisy_powerline()
        .seed(1234)
        .build()
        .unwrap();
    let x10 = home.x10.as_ref().unwrap();
    // Pound the lamp with ON commands; with 2% loss and 2 repeats the
    // physical lamp should end ON with overwhelming probability.
    for _ in 0..5 {
        let _ = home.invoke_from(
            Middleware::X10,
            "hall-lamp",
            "switch",
            &[("on".into(), Value::Bool(true))],
        );
    }
    assert!(x10.hall_lamp.is_on());
    // The PCM believes the same.
    let shadow = home
        .invoke_from(Middleware::X10, "hall-lamp", "status", &[])
        .unwrap();
    assert_eq!(shadow, Value::Bool(true));
}

#[test]
fn gateway_outage_yields_clean_errors_and_recovery() {
    let home = SmartHome::builder().build().unwrap();
    // Take the backbone down: all cross-island traffic fails with a
    // typed transport error that says the request never got out — the
    // resolution request to the VSR itself could not be delivered.
    home.backbone.set_down(true);
    let err = home
        .invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap_err();
    assert!(err.is_transport_failure(), "{err:?}");
    assert!(
        matches!(
            err,
            MetaError::Transport {
                not_executed: true,
                ..
            }
        ),
        "a dead backbone means guaranteed-not-executed: {err:?}"
    );
    home.backbone.set_down(false);
    home.invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap();
}

#[test]
fn backbone_partition_trips_the_breaker_then_a_probe_recloses_it() {
    let home = SmartHome::builder().build().unwrap();
    let jini_gw = home.jini.as_ref().unwrap().vsg.clone();
    let havi_gw = home.havi.as_ref().unwrap().vsg.clone();

    // Warm the route so the partitioned call takes the cached fast
    // path straight at havi-gw.
    home.invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap();

    // Partition the two gateways mid-run. Every attempt fails before
    // delivery; the resilience layer retries with backoff until the
    // virtual-time deadline binds, and the repeated failures trip the
    // per-gateway breaker.
    let t = home.sim.now();
    home.backbone.set_fault_plan(FaultPlan::new().partition(
        vec![jini_gw.node()],
        vec![havi_gw.node()],
        t,
        t + SimDuration::from_secs(30),
    ));
    let err = home
        .invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap_err();
    assert!(
        matches!(err, MetaError::DeadlineExceeded { .. }),
        "expected the deadline to bind: {err:?}"
    );
    assert_eq!(err.kind(), "deadline-exceeded");
    assert_eq!(jini_gw.breaker_state("havi-gw"), BreakerState::Open);
    assert!(
        jini_gw.metrics().snapshot().retries > 0,
        "retries were recorded"
    );

    // While the breaker is open, calls are rejected without touching
    // the wire at all.
    let err = home
        .invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap_err();
    assert!(
        matches!(&err, MetaError::CircuitOpen { gateway } if gateway == "havi-gw"),
        "{err:?}"
    );

    // The partition heals and the open window lapses: the next call is
    // admitted as a half-open probe, succeeds, and recloses the breaker.
    home.sim.advance(SimDuration::from_secs(40));
    home.backbone.clear_fault_plan();
    home.invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap();
    assert_eq!(jini_gw.breaker_state("havi-gw"), BreakerState::Closed);
}

#[test]
fn service_relocation_defeats_stale_routes() {
    // A service withdraws from one gateway and republishes at another;
    // cached routes must fail over (Vsg::invoke re-resolves).
    let home = SmartHome::builder().build().unwrap();
    let x10_gw = home.x10.as_ref().unwrap().vsg.clone();
    let havi_gw = home.havi.as_ref().unwrap().vsg.clone();

    // Warm the route cache.
    home.invoke_from(Middleware::Havi, "hall-lamp", "status", &[])
        .unwrap();

    // The lamp "moves": x10-gw withdraws, havi-gw exports an impostor.
    x10_gw.withdraw("hall-lamp").unwrap();
    havi_gw
        .export(
            metaware::VirtualService::new(
                "hall-lamp",
                metaware::catalog::lamp(),
                Middleware::Havi,
                havi_gw.name(),
            ),
            |_: &simnet::Sim, op: &str, _: &[(String, Value)]| match op {
                "status" => Ok(Value::Bool(true)),
                _ => Ok(Value::Null),
            },
        )
        .unwrap();

    let got = home
        .invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
        .unwrap();
    assert_eq!(got, Value::Bool(true), "re-resolved to the new host");
}

/// A record whose gateway never registered is the repository's answer,
/// not its failure: each call to it is `GatewayUnreachable`, and every
/// VSR replica keeps its breaker closed, so a cold route to a healthy
/// service still resolves on its shard's primary. The record sits on a
/// shard whose primary hosts neither replica of the healthy service's
/// shard, so misses counted against those replicas would leave that
/// route nowhere to go.
#[test]
fn unregistered_gateway_misses_leave_the_vsr_breakers_closed() {
    use metaware::{catalog, VirtualService};

    let home = SmartHome::builder()
        .vsr_replicas(3)
        .vsr_shards(8)
        .build()
        .unwrap();
    let jini_gw = home.jini.as_ref().unwrap().vsg.clone();
    let map = home.vsr.shard_map();
    let healthy = map.replicas_for(map.shard_of("dv-camera")).to_vec();
    let ghost = (0..)
        .map(|i| format!("ghost-{i}"))
        .find(|n| !healthy.contains(&map.primary(map.shard_of(n))))
        .unwrap();
    jini_gw
        .vsr()
        .publish(&VirtualService::new(
            &ghost,
            catalog::lamp(),
            Middleware::X10,
            "ghost-gw",
        ))
        .unwrap();
    for _ in 0..4 {
        let err = jini_gw
            .invoke(&home.sim, &ghost, "status", &[])
            .unwrap_err();
        assert!(
            matches!(&err, MetaError::GatewayUnreachable(gw) if gw == "ghost-gw"),
            "{err:?}"
        );
    }
    for node in home.vsr.nodes() {
        assert_eq!(jini_gw.vsr().breaker_state(node), BreakerState::Closed);
    }

    home.invoke_from(Middleware::Jini, "dv-camera", "status", &[])
        .unwrap();
    assert_eq!(jini_gw.metrics().snapshot().vsr_failovers, 0);
}

#[test]
fn motion_sensor_loss_is_an_absence_not_a_crash() {
    // On a noisy powerline a sensor's report can vanish entirely; the
    // polling path must simply see nothing.
    let home = SmartHome::builder()
        .noisy_powerline()
        .seed(9)
        .build()
        .unwrap();
    let x10 = home.x10.as_ref().unwrap();
    for _ in 0..3 {
        x10.motion.trigger();
    }
    // Regardless of what survived, the framework query works and the
    // event list parses.
    let events = home
        .invoke_from(Middleware::Havi, "hall-motion", "drain_events", &[])
        .unwrap();
    match events {
        Value::List(items) => assert!(items.len() <= 3),
        other => panic!("expected a list, got {other}"),
    }
}

/// The federated-VSR lease race: a shard primary crashes, the lease
/// expires, and a renewal races the reaper across replicas. Two laws:
///
/// 1. A renewal that *failed* (the record was already reaped on the
///    replica that took over) must not resurrect the record — not even
///    after the old primary heals and anti-entropy runs.
/// 2. A renewal that *succeeded* on the promoted backup must survive
///    the old primary's stale reaper: when the healed primary later
///    tombstones its (outdated) copy, the tombstone names the old
///    incarnation and bounces off the renewed record.
#[test]
fn vsr_lease_expiry_racing_renew_does_not_resurrect() {
    use metaware::{catalog, FederationConfig, Middleware, VirtualService, Vsr, VsrClient};
    use simnet::{Network, Sim};

    let sim = Sim::new(9);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start_federated(
        &net,
        &FederationConfig {
            shards: 1,
            replicas: 2,
            replication: 2,
            ..FederationConfig::default()
        },
    );
    vsr.set_lease_duration(Some(SimDuration::from_secs(60)));
    let client = VsrClient::new(&net, net.attach("pcm"), vsr.node());
    let lamp = VirtualService::new("hall-lamp", catalog::lamp(), Middleware::X10, "x10-gw");

    // ---- law 1: expired before the renew arrives -> stays dead ----------
    client.publish(&lamp).unwrap();
    let old_primary = vsr.primary_for("hall-lamp");
    let t0 = sim.now();
    net.set_fault_plan(FaultPlan::new().node_down(
        old_primary,
        t0,
        t0 + SimDuration::from_secs(120),
    ));
    // Past expiry while the primary is down: the renew fails over to
    // the backup, which reaps the lease first — nothing to renew.
    sim.advance(SimDuration::from_secs(90));
    assert!(
        !client.renew("hall-lamp").unwrap(),
        "reaped record must not renew"
    );
    assert_ne!(
        vsr.primary_for("hall-lamp"),
        old_primary,
        "the renew write promoted the backup"
    );
    assert!(client.resolve("hall-lamp").is_err(), "stays dead");

    // Heal and converge: the old primary still holds the record, but
    // the backup's expiry tombstone wins on sync (it reaped exactly
    // that incarnation). No resurrection.
    sim.advance(SimDuration::from_secs(60));
    net.clear_fault_plan();
    vsr.sync_now();
    assert!(
        client.resolve("hall-lamp").is_err(),
        "healed old primary must not resurrect the reaped record"
    );
    assert_eq!(vsr.service_count(), 0);

    // Republishing (the recovered gateway) brings it back everywhere.
    client.publish(&lamp).unwrap();
    assert!(client.resolve("hall-lamp").is_ok());
    vsr.sync_now();
    assert_eq!(vsr.replication_lag(), 0);

    // ---- law 2: renewed in time on the backup -> survives the stale
    // reaper on the healed primary -----------------------------------------
    let primary_now = vsr.primary_for("hall-lamp");
    let t1 = sim.now();
    net.set_fault_plan(FaultPlan::new().node_down(
        primary_now,
        t1,
        t1 + SimDuration::from_secs(65),
    ));
    // Renew mid-lease: fails over, promotes, restamps the lease (now
    // good until t1+90, while the crashed primary's stale copy still
    // says t1+60).
    sim.advance(SimDuration::from_secs(30));
    assert!(client.renew("hall-lamp").unwrap(), "mid-lease renew lands");

    // Heal after the *original* lease deadline has passed but within
    // the renewed one. The old primary's copy looks expired to it;
    // poke it directly (reads are served by any shard member, and
    // serving reaps due leases) so its stale reaper actually fires
    // before anti-entropy runs.
    sim.advance(SimDuration::from_secs(40));
    net.clear_fault_plan();
    let poker = soap::SoapClient::on_node(
        &net,
        net.attach("poker"),
        soap::CpuModel::default(),
        soap::TcpModel::default(),
    );
    let _ = poker.call(
        primary_now,
        &soap::RpcCall::new("urn:vsg:repository", "count").arg("shard", 0i64),
    );

    // Anti-entropy now reconciles a stale tombstone against the renewed
    // record: the tombstone names the pre-renewal incarnation, so the
    // renewal wins on every replica.
    vsr.sync_now();
    assert!(
        client.renew("hall-lamp").unwrap(),
        "renewed record survives the stale reaper"
    );
    assert!(client.resolve("hall-lamp").is_ok());
    assert_eq!(vsr.service_count(), 1);
}

/// Every client-plane repository operation requires a `shard`
/// argument: a raw SOAP request without one, or with a negative one,
/// gets a typed `Repository` fault from every replica, never an
/// unfiltered answer or a `MovedShard` redirect.
#[test]
fn vsr_rejects_client_plane_requests_without_a_valid_shard() {
    use metaware::{catalog, FederationConfig, VirtualService, Vsr, VsrClient};
    use simnet::{Network, Sim};
    use soap::RpcCall;

    let sim = Sim::new(5);
    let net = Network::ethernet(&sim);
    let vsr = Vsr::start_federated(
        &net,
        &FederationConfig {
            shards: 4,
            replicas: 3,
            replication: 2,
            ..FederationConfig::default()
        },
    );
    let client = VsrClient::new(&net, net.attach("pcm"), vsr.node());
    for name in ["hall-lamp", "porch-lamp", "attic-lamp"] {
        client
            .publish(&VirtualService::new(
                name,
                catalog::lamp(),
                Middleware::X10,
                "x10-gw",
            ))
            .unwrap();
    }
    let poker = soap::SoapClient::on_node(
        &net,
        net.attach("poker"),
        soap::CpuModel::default(),
        soap::TcpModel::default(),
    );

    let op = |method: &str| RpcCall::new("urn:vsg:repository", method);
    let requests = [
        op("publish")
            .arg("name", "rogue")
            .arg("middleware", "x10")
            .arg("gateway", "x10-gw")
            .arg("wsdl", "<definitions name=\"rogue\"/>")
            .arg("contexts", Value::Record(vec![])),
        op("unpublish").arg("name", "hall-lamp"),
        op("renew").arg("name", "hall-lamp"),
        op("resolve").arg("name", "hall-lamp"),
        op("find").arg("pattern", "%").arg("middleware", ""),
        op("find_ctx")
            .arg("pattern", "%")
            .arg("contexts", Value::Record(vec![])),
        op("count"),
        op("count").arg("shard", -1i64),
    ];
    for node in vsr.nodes() {
        for call in &requests {
            match poker.call(node, call) {
                Err(soap::SoapError::Fault(f)) => assert!(
                    matches!(
                        MetaError::from_fault_string(&f.string),
                        MetaError::Repository(_)
                    ),
                    "{} on n{}: not a repository fault: {}",
                    call.method,
                    node.0,
                    f.string
                ),
                other => panic!("{} on n{}: answered {other:?}", call.method, node.0),
            }
        }
    }
    assert_eq!(vsr.service_count(), 3, "nothing was written");
    assert!(client.resolve("hall-lamp").is_ok());
}
