//! Properties of the observability plane: mergeable sketches, bounded
//! quantile error, and thread-invariant sampling.

use metaware::obs::bucket_of;
use metaware::{HistSketch, HomeFleet, Middleware, SamplePolicy, SmartHome};
use proptest::prelude::*;
use simnet::SimDuration;

fn sketch_of(samples: &[u64]) -> HistSketch {
    let mut s = HistSketch::new();
    for &v in samples {
        s.record(v);
    }
    s
}

/// Exact nearest-rank quantile over raw samples.
fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank - 1]
}

proptest! {
    /// Merging sketches is associative and commutative: any grouping
    /// and order of per-gateway sketches rolls up to the same fleet
    /// sketch, so fleet_snapshot() never depends on fold order.
    #[test]
    fn sketch_merge_is_associative_and_commutative(
        a in prop::collection::vec(0u64..2_000_000, 0..40),
        b in prop::collection::vec(0u64..2_000_000, 0..40),
        c in prop::collection::vec(0u64..2_000_000, 0..40),
    ) {
        let (sa, sb, sc) = (sketch_of(&a), sketch_of(&b), sketch_of(&c));

        // (a ⊔ b) ⊔ c
        let mut left = sa;
        left.merge(&sb);
        left.merge(&sc);
        // a ⊔ (b ⊔ c)
        let mut right_inner = sb;
        right_inner.merge(&sc);
        let mut right = sa;
        right.merge(&right_inner);
        prop_assert_eq!(left, right);

        // c ⊔ b ⊔ a
        let mut rev = sc;
        rev.merge(&sb);
        rev.merge(&sa);
        prop_assert_eq!(left, rev);

        // merging is also lossless for the whole-population sketch
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(left, sketch_of(&all));
    }

    /// A sketch quantile is never below the exact nearest-rank value
    /// and never above its bucket's upper bound — within a factor of
    /// two, since buckets double.
    #[test]
    fn quantile_is_within_one_bucket_of_exact(
        samples in prop::collection::vec(0u64..10_000_000, 1..200),
        q in 0.0f64..1.0,
    ) {
        let sketch = sketch_of(&samples);
        let mut sorted = samples;
        sorted.sort_unstable();
        let exact = exact_quantile(&sorted, q);
        let est = sketch.quantile_us(q);
        prop_assert!(est >= exact, "estimate {est} under exact {exact}");
        prop_assert_eq!(
            bucket_of(est), bucket_of(exact),
            "estimate {} left bucket of exact {}", est, exact
        );
        prop_assert!(est <= exact.saturating_mul(2).max(exact));
    }
}

/// One fleet run's observability artefacts at a given thread count:
/// the merged fleet snapshot plus every kept trace's (id, reason).
fn obs_fingerprint(seed: u64, threads: usize) -> (String, Vec<(String, &'static str)>) {
    let fleet = HomeFleet::build(
        SmartHome::builder()
            .seed(seed)
            .threads(threads)
            .vsr_replicas(2),
        3,
    )
    .unwrap();
    fleet.set_tracing(true);
    fleet.set_sampling(SamplePolicy {
        head_per_10k: 2_500,
        top_slow: 2,
        capacity: 64,
    });
    for home in fleet.homes() {
        for _ in 0..6 {
            home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
                .unwrap();
            // deterministic error traffic
            let _ = home.invoke_from(Middleware::Jini, "ghost", "status", &[]);
        }
    }
    fleet.run_for(SimDuration::from_secs(3));
    fleet.harvest_traces();
    let kept = fleet
        .drain_flight()
        .into_iter()
        .map(|k| (k.trace.to_string(), k.reason.label()))
        .collect();
    (fleet.fleet_snapshot().to_json(), kept)
}

/// The merged fleet snapshot and the sampled kept-trace set are pure
/// functions of the seed — bit-identical between 1 and 4 workers.
#[test]
fn fleet_snapshot_and_kept_traces_are_thread_invariant() {
    for seed in [1u64, 7, 1234] {
        let sequential = obs_fingerprint(seed, 1);
        let parallel = obs_fingerprint(seed, 4);
        assert_eq!(sequential, parallel, "seed {seed}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Error traces survive any head-sampling rate: tail rules beat
    /// the head coin for as long as the ring has room for them.
    #[test]
    fn error_traces_are_never_sampled_out(head in 0u32..=10_000) {
        let home = SmartHome::builder().build().unwrap();
        home.set_tracing(true);
        home.set_sampling(SamplePolicy {
            head_per_10k: head,
            top_slow: 0,
            capacity: 256,
        });
        let mut errors = 0u64;
        for i in 0..20 {
            if i % 3 == 0 {
                let _ = home.invoke_from(Middleware::Jini, "ghost", "status", &[]);
                errors += 1;
            } else {
                home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
                    .unwrap();
            }
        }
        home.harvest_traces();
        let kept = home.drain_flight();
        let kept_errors = kept.iter().filter(|k| k.has_error()).count() as u64;
        prop_assert_eq!(kept_errors, errors, "an error trace was dropped");
        if head == 0 {
            // with the head coin always tails, *only* tail rules keep
            prop_assert!(kept.iter().all(|k| k.has_error()));
        }
    }
}

/// The fleet snapshot costs O(gateways × buckets), not O(samples):
/// its merged sketch arrays are fixed-size no matter the call volume.
#[test]
fn fleet_snapshot_memory_is_sample_count_independent() {
    let fleet = HomeFleet::build(SmartHome::builder(), 2).unwrap();
    for home in fleet.homes() {
        for _ in 0..50 {
            home.invoke_from(Middleware::Jini, "hall-lamp", "status", &[])
                .unwrap();
        }
    }
    let snap = fleet.fleet_snapshot();
    assert_eq!(snap.registry.invocations, 100);
    // the sketch itself is a fixed-size value type: its size can't
    // grow with samples, and counts survived the rollup exactly.
    assert_eq!(snap.registry.latency.count, 100);
    assert!(std::mem::size_of_val(&snap.registry.latency) < 1024);
}

/// Head sampling keeps the same calls, by call index, when an unrelated
/// warm-up call records one span more: trace ids do not share a well
/// with span ids.
#[test]
fn head_sampling_ignores_span_count_of_earlier_calls() {
    use metaware::trace::{HopKind, Tracer};
    use simnet::Sim;

    fn kept_calls(extra_warmup_span: bool) -> Vec<usize> {
        let sim = Sim::new(12);
        let tracer = Tracer::new("gw");
        tracer.set_enabled(true);
        let warmup = tracer.begin_root(&sim, HopKind::ClientProxy, || "warm-up".into());
        if extra_warmup_span {
            let lookup = tracer.begin(&sim, HopKind::VsrLookup, || "lookup".into());
            tracer.end(&sim, lookup);
        }
        tracer.end(&sim, warmup);
        let policy = SamplePolicy::sampled(100);
        (0..2_000)
            .filter(|_| {
                let call = tracer.begin_root(&sim, HopKind::ClientProxy, || "call".into());
                let hop = tracer.begin(&sim, HopKind::PcmConvert, || "convert".into());
                tracer.end(&sim, hop);
                let trace = call.trace_id().expect("tracing is on");
                tracer.end(&sim, call);
                policy.head_keep(trace)
            })
            .collect()
    }
    let plain = kept_calls(false);
    assert!(!plain.is_empty(), "1% of 2000 calls keeps some");
    assert_eq!(plain, kept_calls(true));
}
