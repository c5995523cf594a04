//! `cloud_fleet`: a `HomeFleet` of lazy homes on `ParSim`, as many
//! worker threads as the host has cores. Every home pushes a compressed
//! diurnal day (churn and the 6 pm flash) through its cloud bridge, an
//! open loop in virtual time, while the cloud sends downward commands.
//! Every 16th home is materialised on the SIP-like codec and also runs
//! a seeded in-simulation call driver (an open loop: one call at each
//! fixed instant of a grid) plus the §4.2 motion-event fan-out through
//! `SipPublisher`. The simulator's scheduler, the
//! ParSim windows and the cloud outbox carry the host cost here; codec
//! and VSR cost per op is a small share.

use crate::alloc;
use crate::episode::{virtual_digest, Counters, Episode, Values};
use crate::probe::{elapsed_ns, per, take_outer_call_ns, LayerProbe, Probed};
use crate::soap_mix::Model;
use bench::workload::{home_plan, install_cloud_plan, Call, DiurnalProfile, TimedEvent, Workload};
use metaware::{
    CloudConfig, HomeFleet, Middleware, SipLike, SipPublisher, SipSubscriber, SmartHome, Vsg,
    VsgProtocol,
};
use simnet::{Sim, SimDuration, SimTime};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

pub struct Params {
    pub homes: usize,
    /// Virtual minutes the compressed 24-hour day lasts.
    pub day_minutes: u64,
}

pub const PARAMS: Params = Params {
    homes: 256,
    day_minutes: 24,
};

const MATERIALIZE_EVERY: usize = 16;
/// Virtual time between the fixed start instants of two calls of a
/// materialised home's driver: longer than the call mix's slowest calls
/// (p99 1.7 virtual s), so the open loop seldom falls behind its grid.
const CALL_PERIOD: SimDuration = SimDuration::from_secs(2);
/// Quiet virtual time after the day so every outbox drains.
const DRAIN: SimDuration = SimDuration::from_secs(120);
/// Virtual time between two samples of the timer queues.
const SEGMENT: SimDuration = SimDuration::from_secs(60);
const SENSOR_POLL: SimDuration = SimDuration::from_secs(1);
const MOTION_PERIOD: SimDuration = SimDuration::from_secs(20);
const COMMAND_PHASE: SimDuration = SimDuration::from_secs(30);
const COMMAND_PERIOD: SimDuration = SimDuration::from_secs(60);
const ISLANDS: [Middleware; 4] = [
    Middleware::Jini,
    Middleware::Havi,
    Middleware::X10,
    Middleware::Mail,
];

/// One home's day of `home_plan` under the default diurnal profile,
/// compressed from 24 hours into `day_minutes` of virtual time.
fn compressed_plan(seed: u64, island: u32, day_minutes: u64) -> Vec<TimedEvent> {
    let factor = 24 * 60 / day_minutes;
    home_plan(seed, island, 24, &DiurnalProfile::default())
        .into_iter()
        .map(|e| TimedEvent {
            at: SimTime::from_micros(e.at.as_micros() / factor),
            event: e.event,
        })
        .collect()
}

/// What a materialised home's call driver saw.
#[derive(Default)]
struct DriverLog {
    host_ns: Vec<u64>,
    virtual_us: Vec<u64>,
    attempted: u64,
    failed: u64,
    local: u64,
    client_self_ns: u64,
}

/// A materialised home's call driver. Call `k` starts at the fixed
/// instant `(k + 1) * period`, however long earlier calls took (an open
/// loop); a call whose instant has passed while an earlier one ran
/// starts as soon as that one returns.
struct Driver {
    calls: Vec<Call>,
    next: usize,
    gateways: Vec<Vsg>,
    local: Vec<HashSet<String>>,
    model: Model,
    log: Arc<Mutex<DriverLog>>,
}

impl Driver {
    fn arm(mut self, sim: &Sim) {
        if self.next == self.calls.len() {
            return;
        }
        let at = SimTime::ZERO + CALL_PERIOD * (self.next as u64 + 1);
        sim.schedule_at(at, move |sim| {
            self.fire(sim);
            self.arm(sim);
        });
    }

    fn fire(&mut self, sim: &Sim) {
        let call = &self.calls[self.next];
        self.next += 1;
        let from = ISLANDS
            .iter()
            .position(|m| *m == call.from)
            .expect("an island");
        let expect = self.model.apply(call);
        let v0 = sim.now();
        take_outer_call_ns();
        let t0 = Instant::now();
        let got = self.gateways[from].invoke(sim, call.service, call.operation, &call.args);
        let ns = elapsed_ns(t0);
        let mut log = self.log.lock().expect("no driver panicked");
        log.host_ns.push(ns);
        log.virtual_us.push((sim.now() - v0).as_micros());
        log.attempted += 1;
        log.local += u64::from(self.local[from].contains(call.service));
        log.client_self_ns += ns.saturating_sub(take_outer_call_ns());
        if !expect.matches(&got) {
            log.failed += 1;
            eprintln!(
                "cloud_fleet: {:?} -> {}.{} returned {got:?}, expected {expect:?}",
                call.from, call.service, call.operation
            );
        }
    }
}

#[derive(Default)]
struct Counts {
    commands: AtomicU64,
    commands_failed: AtomicU64,
    motion_events: AtomicU64,
}

pub fn threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

pub fn episode(p: &Params, seed: u64, traced: bool) -> Episode {
    let day = SimDuration::from_secs(p.day_minutes * 60);
    let day_end = SimTime::ZERO + day;
    let end = day_end + DRAIN;
    let calls_per_home = usize::try_from(day.as_micros() / CALL_PERIOD.as_micros()).expect("fits");
    // Inputs first, so they stay out of the heap charged to the homes.
    let plans: Vec<Vec<TimedEvent>> = (0..p.homes)
        .map(|i| compressed_plan(seed, u32::try_from(i).expect("fits"), p.day_minutes))
        .collect();
    let mut traces: Vec<Vec<Call>> = (0..p.homes)
        .step_by(MATERIALIZE_EVERY)
        .map(|i| Workload::new(seed ^ (i as u64).wrapping_mul(0x9E37_79B9)).trace(calls_per_home))
        .collect();
    let logs: Vec<Arc<Mutex<DriverLog>>> = traces
        .iter()
        .map(|_| {
            Arc::new(Mutex::new(DriverLog {
                host_ns: Vec::with_capacity(calls_per_home),
                virtual_us: Vec::with_capacity(calls_per_home),
                ..DriverLog::default()
            }))
        })
        .collect();
    let counts = Arc::new(Counts::default());
    let heap0 = alloc::live_bytes();

    let t_setup = Instant::now();
    let probe = traced.then(|| Arc::new(LayerProbe::default()));
    let codec: Arc<dyn VsgProtocol> = Arc::new(SipLike::new());
    let protocol = match &probe {
        Some(probe) => Probed::wrap(codec, probe.clone()),
        None => codec,
    };
    let mut fleet = HomeFleet::build_lazy(
        SmartHome::builder()
            .seed(seed)
            .protocol(protocol)
            .threads(threads())
            .cloud(CloudConfig::default()),
        p.homes,
    )
    .expect("the fleet builds");
    for i in (0..p.homes).step_by(MATERIALIZE_EVERY) {
        fleet
            .materialize_home(i)
            .expect("a fleet home materialises");
    }
    let mut publishers = Vec::new();
    let mut subscribers = Vec::new();
    let mut timers = Vec::new();
    for (i, home) in fleet.homes().iter().enumerate() {
        install_cloud_plan(home, &plans[i]);
        let cell = home.cloud.as_ref().expect("cloud attached").cell.clone();
        let cmd_counts = counts.clone();
        timers.push(
            home.sim
                .every_with_phase(COMMAND_PHASE, COMMAND_PERIOD, move |sim| {
                    if sim.now() >= day_end {
                        return;
                    }
                    cmd_counts.commands.fetch_add(1, Ordering::Relaxed);
                    if cell.send_command("hall-lamp", "switch", "on").as_deref()
                        != Ok("ack:switch:hall-lamp")
                    {
                        cmd_counts.commands_failed.fetch_add(1, Ordering::Relaxed);
                    }
                }),
        );
        if i % MATERIALIZE_EVERY != 0 {
            continue;
        }
        let k = i / MATERIALIZE_EVERY;
        let gateways: Vec<Vsg> = ISLANDS
            .iter()
            .map(|mw| {
                home.gateway(*mw)
                    .expect("materialised homes have all islands")
                    .clone()
            })
            .collect();
        let local: Vec<HashSet<String>> = gateways
            .iter()
            .map(|g| g.local_services().into_iter().collect())
            .collect();
        Driver {
            calls: std::mem::take(&mut traces[k]),
            next: 0,
            gateways,
            local,
            model: Model::default(),
            log: logs[k].clone(),
        }
        .arm(&home.sim);
        // §4.2 event scenario over §5's SIP push: the X10 motion sensor
        // fans out to the HAVi and Jini gateways.
        let x10 = home.x10.as_ref().expect("materialised homes have X10");
        let publisher = SipPublisher::new(&home.backbone, x10.vsg.node());
        for mw in [Middleware::Havi, Middleware::Jini] {
            let node = home.gateway(mw).expect("island").node();
            publisher.subscribe(node, "%");
            subscribers.push(SipSubscriber::install(&home.backbone, node, |_, _, _| {}));
        }
        let hook = publisher.clone();
        let hook_counts = counts.clone();
        x10.pcm.set_sensor_hook(move |_, service, event| {
            hook_counts.motion_events.fetch_add(1, Ordering::Relaxed);
            hook.publish(service, event);
        });
        publishers.push(publisher);
        timers.push(x10.pcm.start_polling(SENSOR_POLL));
        let motion = x10.motion.clone();
        timers.push(home.sim.every_with_phase(
            SimDuration::from_secs(5 + k as u64),
            MOTION_PERIOD,
            move |sim| {
                if sim.now() < day_end {
                    motion.trigger();
                }
            },
        ));
    }
    let setup_s = t_setup.elapsed().as_secs_f64();

    let wire_bytes = |fleet: &HomeFleet| -> u64 {
        fleet
            .homes()
            .iter()
            .map(|h| {
                let wan = h
                    .cloud
                    .as_ref()
                    .map_or(0, |c| c.bridge.wan().with_stats(|s| s.total().bytes));
                h.backbone.with_stats(|s| s.total().bytes) + wan
            })
            .sum()
    };
    let materialised: Vec<&SmartHome> = fleet.homes().iter().step_by(MATERIALIZE_EVERY).collect();
    let registry_inquiries = |homes: &[&SmartHome]| -> (u64, u64) {
        homes.iter().fold((0, 0), |(q, s), h| {
            let r = h.vsr.registry_stats();
            (q + r.inquiries, s + r.records_scanned)
        })
    };
    let before = Counters::read(&fleet.metrics_snapshots());
    let (inquiries0, scanned0) = registry_inquiries(&materialised);
    let bytes0 = wire_bytes(&fleet);
    let (mut run_ns, mut run_allocs) = (0u64, 0u64);
    let (mut windows, mut events, mut cross_sends) = (0u64, 0u64, 0u64);
    let mut timers_peak = 0usize;
    let mut t = SimTime::ZERO;
    while t < end {
        t = (t + SEGMENT).min(end);
        let a0 = alloc::allocs();
        let t0 = Instant::now();
        let stats = fleet.run_until(t);
        run_ns += elapsed_ns(t0);
        run_allocs += alloc::allocs() - a0;
        windows += stats.windows;
        events += stats.events;
        cross_sends += stats.cross_sends;
        let peak = fleet.homes().iter().map(|h| h.sim.pending_timers()).max();
        timers_peak = timers_peak.max(peak.unwrap_or(0));
    }
    let bytes = wire_bytes(&fleet) - bytes0;
    let counters = Counters::read(&fleet.metrics_snapshots()).since(&before);
    let (inquiries1, scanned1) = registry_inquiries(&materialised);
    let (inquiries, scanned) = (inquiries1 - inquiries0, scanned1 - scanned0);
    let summary = fleet.cloud_backbone().summary();
    let published: u64 = publishers.iter().map(|p| p.stats().events_delivered).sum();
    let dropped: u64 = publishers.iter().map(|p| p.stats().events_dropped).sum();
    let frames: u64 = publishers.iter().map(|p| p.stats().carrier_messages).sum();
    let received: u64 = subscribers.iter().map(SipSubscriber::received).sum();
    let heap = alloc::live_bytes() - heap0;
    for timer in &timers {
        timer.cancel();
    }

    let mut op_host_ns = Vec::new();
    let mut op_virtual_us = Vec::new();
    let (mut calls, mut calls_failed, mut local, mut client_self_ns) = (0u64, 0u64, 0u64, 0u64);
    for log in &logs {
        let log = log.lock().expect("no driver panicked");
        op_host_ns.extend_from_slice(&log.host_ns);
        op_virtual_us.extend_from_slice(&log.virtual_us);
        calls += log.attempted;
        calls_failed += log.failed;
        local += log.local;
        client_self_ns += log.client_self_ns;
    }
    let commands = counts.commands.load(Ordering::Relaxed);
    let commands_failed = counts.commands_failed.load(Ordering::Relaxed);
    let motion_events = counts.motion_events.load(Ordering::Relaxed);
    let s = &summary;
    let ops = s.notifications_delivered
        + (calls - calls_failed)
        + (commands - commands_failed)
        + received;
    let attempted = s.notifications_raised + calls + commands + published + dropped;
    let failed = s.notifications_lost + calls_failed + commands_failed + dropped;
    let mut correct = failed == 0;
    let mut invariant = |holds: bool, what: &str| {
        if !holds {
            eprintln!("cloud_fleet: invariant broken: {what}");
            correct = false;
        }
    };
    invariant(s.duplicate_effects == 0, "duplicate_effects == 0");
    invariant(
        s.notifications_delivered + s.notifications_lost == s.notifications_raised,
        "delivered + lost == raised",
    );
    invariant(
        received == published,
        "every pushed event reached its subscriber",
    );
    invariant(
        calls == (calls_per_home * logs.len()) as u64,
        "every planned driver call ran",
    );
    invariant(motion_events > 0 && commands > 0, "every load source ran");

    let mut layers = Values::new();
    counters.record(ops, &mut layers);
    layers.insert("vsg.local_share", per(local, calls));
    layers.insert("vsr.inquiries_per_op", per(inquiries, ops));
    layers.insert("vsr.records_scanned_per_inquiry", per(scanned, inquiries));
    layers.insert("simnet.run_ns", per(run_ns, ops));
    layers.insert("simnet.events_per_op", per(events, ops));
    layers.insert("simnet.ns_per_event", per(run_ns, events));
    layers.insert("simnet.allocs_per_event", per(run_allocs, events));
    layers.insert("simnet.pending_timers_peak", timers_peak as f64);
    let profiles = fleet.par().profiles();
    let busy: Vec<u64> = profiles.iter().map(|p| p.busy_ns).collect();
    let busy_total: u64 = busy.iter().sum();
    let busy_max = busy.iter().copied().max().unwrap_or(0);
    layers.insert("par.windows", windows as f64);
    layers.insert("par.busy_ns", per(busy_total, ops));
    layers.insert(
        "par.barrier_wait_ns",
        per(profiles.iter().map(|p| p.barrier_wait_ns).sum(), ops),
    );
    layers.insert("par.commit_ns", per(fleet.par().commit_wall_ns(), ops));
    layers.insert(
        "par.busy_skew",
        per(busy_max * busy.len() as u64, busy_total),
    );
    layers.insert("cloud.delivered_ratio", s.delivered_ratio);
    layers.insert("cloud.reconnects", s.reconnects as f64);
    layers.insert("cloud.throttled", s.throttled as f64);
    layers.insert("cloud.commands_deduped", s.commands_deduped as f64);
    layers.insert("events.frames_per_event", per(frames, motion_events));
    layers.insert("events.dropped", dropped as f64);
    if let Some(probe) = &probe {
        probe.record(ops, &mut layers);
        layers.insert("vsg.client_self_ns", per(client_self_ns, calls));
    }
    Episode {
        setup_s,
        attempted,
        failed,
        correct,
        rate: ops as f64 * 1e9 / run_ns as f64,
        op_host_ns,
        allocs_per_op: per(run_allocs, ops),
        wire_bytes_per_op: per(bytes, ops),
        heap_bytes_per_home: heap as f64 / p.homes as f64,
        identity: format!(
            "{} ops={ops} bytes={bytes} windows={windows} events={events} cross={cross_sends} \
             timers_peak={timers_peak} motion={motion_events} frames={frames} received={received} \
             commands={commands} inquiries={inquiries} {summary:?} {}",
            virtual_digest(&op_virtual_us),
            counters.identity()
        ),
        op_virtual_us,
        layers,
    }
}
