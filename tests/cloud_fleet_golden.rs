//! Goldens for a small cloud fleet in each of the three E17 cells.
//!
//! A 16-home lazy fleet plays the E17 day (3 compressed hours with the
//! 6 pm flash in hour 1) in the bench's three configurations: the
//! canonical WAN chaos with store-and-forward on, the same with it off,
//! and the flash crowd against a tight admission budget. Everything the
//! run decides is pinned: the fleet summary, WAN and backbone bytes,
//! each bridge's final epoch and counters, the scheduler's run stats
//! and the per-island profile lines. Threads 1 and 4 must both match
//! the same file byte for byte.
//!
//! A mismatch writes the actual dump next to the golden as
//! `<name>.actual` so the two can be diffed.

use bench::workload::{home_plan, install_cloud_plan, DiurnalProfile};
use metaware::{CloudConfig, HomeFleet, SmartHome};
use simnet::{FaultPlan, NodeId, SimDuration, SimTime};
use std::fmt::Write;
use std::path::PathBuf;

const HOMES: usize = 16;
const PLAN_SEED: u64 = 0xE17;
const JITTER_SEED: u64 = 0xC10D;

fn minutes(m: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_secs(m * 60)
}

/// The E17 day: 3 hours with the flash crowd in hour 1.
fn profile() -> DiurnalProfile {
    DiurnalProfile {
        base_per_hour: 30,
        churn_per_day: 4,
        flash_hour: 1,
        flash_burst: 25,
        flash_window: SimDuration::from_secs(10 * 60),
    }
}

/// The E17 canonical WAN chaos: a loss spike, a 20-minute partition,
/// then duplicate + reorder over the flash hour.
fn canonical_chaos(home_node: NodeId, cloud_node: NodeId) -> FaultPlan {
    FaultPlan::new()
        .loss_spike(minutes(10), minutes(20), 0.10)
        .partition(vec![home_node], vec![cloud_node], minutes(30), minutes(50))
        .duplicate_spike(minutes(58), minutes(80), 0.30)
        .reorder_spike(minutes(58), minutes(80), SimDuration::from_millis(100))
}

/// Runs one E17 cell on `threads` workers and dumps every
/// deterministic outcome as text.
fn run_cell(threads: usize, cfg: CloudConfig, chaos: bool) -> String {
    let fleet = HomeFleet::build_lazy(SmartHome::builder().threads(threads).cloud(cfg), HOMES)
        .expect("fleet builds");
    let p = profile();
    for (i, home) in fleet.homes().iter().enumerate() {
        install_cloud_plan(home, &home_plan(PLAN_SEED, i as u32, 3, &p));
    }
    if chaos {
        let b = &fleet.home(0).cloud.as_ref().expect("cloud attached").bridge;
        let plan = canonical_chaos(b.home_node(), b.cloud_node());
        fleet.set_wan_fault_plan_jittered(&plan, JITTER_SEED, SimDuration::from_secs(60));
    }
    let mut out = String::new();
    let first = fleet.run_until(minutes(65));
    let backbone = fleet.cloud_backbone();
    let command_errors = (0..backbone.len())
        .filter(|&i| {
            backbone
                .send_command(i, "hall-lamp", "switch", "on")
                .is_err()
        })
        .count();
    let second = fleet.run_until(minutes(3 * 60 + 5));
    let _ = writeln!(out, "run to 65 min: {first:?}");
    let _ = writeln!(out, "run to 185 min: {second:?}");
    let _ = writeln!(out, "command_errors={command_errors}");
    let _ = writeln!(out, "summary: {:?}", backbone.summary());
    for (i, home) in fleet.homes().iter().enumerate() {
        let bridge = &home.cloud.as_ref().expect("cloud attached").bridge;
        let wan = bridge.wan().with_stats(|s| s.total());
        let lan = home.backbone.with_stats(|s| s.total());
        let _ = writeln!(
            out,
            "home {i}: epoch={} wan_bytes={} wan_frames={} backbone_bytes={} backbone_frames={}",
            bridge.epoch(),
            wan.bytes,
            wan.frames,
            lan.bytes,
            lan.frames
        );
        let _ = writeln!(out, "home {i}: {:?}", bridge.stats());
    }
    out.push_str(&fleet.profile_lines());
    out
}

fn check(name: &str, cfg: CloudConfig, chaos: bool) {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/cloud_fleet_goldens")
        .join(format!("{name}.txt"));
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    for threads in [1, 4] {
        let actual = run_cell(threads, cfg.clone(), chaos);
        if actual != golden {
            let dump = path.with_extension("actual");
            let _ = std::fs::write(&dump, &actual);
            panic!(
                "{name} at threads={threads} differs from {}; actual written to {}",
                path.display(),
                dump.display()
            );
        }
    }
}

#[test]
fn wan_chaos_store_and_forward_on() {
    check("wan_chaos_saf_on", CloudConfig::default(), true);
}

#[test]
fn wan_chaos_store_and_forward_off() {
    check(
        "wan_chaos_saf_off",
        CloudConfig {
            store_and_forward: false,
            ..CloudConfig::default()
        },
        true,
    );
}

#[test]
fn flash_crowd_tight_admission() {
    check(
        "flash_crowd_tight",
        CloudConfig {
            global_rate_per_min: 100,
            global_burst: 100,
            ..CloudConfig::default()
        },
        false,
    );
}
