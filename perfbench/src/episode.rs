//! What one episode of a workload measures, and the program counters
//! every workload reads before and after its measured phase.
//!
//! An episode is a fixed, seeded amount of work: build the world, warm
//! it, run the measured operations. A run repeats episodes until its
//! time is up, so every deterministic cell (virtual time, bytes,
//! counts) must come out bit-identical in every episode of a run.

use metaware::{CacheStats, Layer, MetricsSnapshot, Vsg};
use std::collections::BTreeMap;

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// One episode's measurements.
#[derive(Debug, Default)]
pub struct Episode {
    /// Host seconds spent building, registering, installing and warming.
    pub setup_s: f64,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed, returned a wrong value, or were lost.
    pub failed: u64,
    /// Whether every checked result and invariant held.
    pub correct: bool,
    /// Host ns per timed operation.
    pub op_host_ns: Vec<u64>,
    /// Ops per host second over the measured phase.
    pub rate: f64,
    pub allocs_per_op: f64,
    pub wire_bytes_per_op: f64,
    pub heap_bytes_per_home: f64,
    /// Virtual µs per timed operation.
    pub op_virtual_us: Vec<u64>,
    /// The episode's deterministic cells, printed; equal across episodes.
    pub identity: String,
    /// Per-layer values this episode measured.
    pub layers: Values,
}

/// Ops per host second of a closed loop: ops ÷ the summed op times.
pub fn loop_rate(op_host_ns: &[u64]) -> f64 {
    op_host_ns.len() as f64 * 1e9 / op_host_ns.iter().sum::<u64>() as f64
}

/// The virtual-time attribution layers, in the order reported.
pub const LAYERS: [(Layer, &str); 5] = [
    (Layer::Vsr, "layer.vsr.virtual_us_per_op"),
    (Layer::Wire, "layer.wire.virtual_us_per_op"),
    (Layer::Pcm, "layer.pcm.virtual_us_per_op"),
    (Layer::App, "layer.app.virtual_us_per_op"),
    (Layer::Compose, "layer.compose.virtual_us_per_op"),
];

/// Program counters summed over a set of gateways.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct Counters {
    pub cache: CacheStats,
    /// Virtual µs recorded per layer (sketch sum), in `LAYERS` order.
    pub layer_us: [f64; 5],
    pub compose_steps: u64,
}

impl Counters {
    pub fn read(snaps: &[MetricsSnapshot]) -> Counters {
        let mut c = Counters::default();
        for s in snaps {
            c.cache.hits += s.cache.hits;
            c.cache.negative_hits += s.cache.negative_hits;
            c.cache.misses += s.cache.misses;
            c.cache.evictions += s.cache.evictions;
            c.cache.invalidations += s.cache.invalidations;
            c.cache.stale_serves += s.cache.stale_serves;
            for (sum, (layer, _)) in c.layer_us.iter_mut().zip(LAYERS) {
                let sketch = s.registry.layer(layer);
                // The sketch keeps the exact integer sum; mean × count
                // gives it back (exact below 2^53 µs).
                *sum += sketch.mean_us() * sketch.count as f64;
            }
            c.compose_steps += s.registry.compose_steps;
        }
        c
    }

    pub fn of(gateways: &[&Vsg]) -> Counters {
        let snaps: Vec<MetricsSnapshot> = gateways.iter().map(|g| g.metrics_snapshot()).collect();
        Counters::read(&snaps)
    }

    /// `self - before`, field by field.
    pub fn since(&self, before: &Counters) -> Counters {
        let (a, b) = (&self.cache, &before.cache);
        let mut layer_us = self.layer_us;
        for (d, b) in layer_us.iter_mut().zip(before.layer_us) {
            *d -= b;
        }
        Counters {
            cache: CacheStats {
                hits: a.hits - b.hits,
                negative_hits: a.negative_hits - b.negative_hits,
                misses: a.misses - b.misses,
                evictions: a.evictions - b.evictions,
                invalidations: a.invalidations - b.invalidations,
                stale_serves: a.stale_serves - b.stale_serves,
            },
            layer_us,
            compose_steps: self.compose_steps - before.compose_steps,
        }
    }

    /// Records the per-op layer cells that come from program counters.
    pub fn record(&self, ops: u64, layers: &mut Values) {
        let c = &self.cache;
        let lookups = c.hits + c.negative_hits + c.misses;
        layers.insert(
            "rescache.hit_ratio",
            crate::probe::per(c.hits + c.negative_hits, lookups),
        );
        layers.insert(
            "rescache.evictions_per_op",
            crate::probe::per(c.evictions, ops),
        );
        layers.insert(
            "rescache.invalidations_per_op",
            crate::probe::per(c.invalidations, ops),
        );
        for ((_, name), us) in LAYERS.iter().zip(self.layer_us) {
            layers.insert(name, us / ops as f64);
        }
    }

    /// The deterministic part, for identity checks. Cache hits are
    /// left out: the traced run looks each target up once more.
    pub fn identity(&self) -> String {
        let c = &self.cache;
        format!(
            "misses={} evictions={} invalidations={} layer_us={:?} compose_steps={}",
            c.misses, c.evictions, c.invalidations, self.layer_us, self.compose_steps
        )
    }
}

/// Virtual-latency digest for identity checks.
pub fn virtual_digest(us: &[u64]) -> String {
    let sum: u64 = us.iter().sum();
    format!(
        "n={} sum={sum} p50={} p99={} max={}",
        us.len(),
        bench::percentile(us, 50.0),
        bench::percentile(us, 99.0),
        us.iter().max().copied().unwrap_or(0)
    )
}
