//! The resilience layer: deadlines, backoff, and circuit breakers.
//!
//! The paper's backbone (§3.1) rides a real home network — powerline
//! segments drop frames, gateways crash, the access network partitions.
//! This module holds the *policy* half of the gateway's answer: how
//! long an invocation may take end to end ([`ResiliencePolicy::deadline`]),
//! how re-sends are paced (`backoff`, shared with the cloud bridge's
//! reconnects), and when a remote gateway is declared unhealthy and
//! calls fail fast instead of burning the deadline ([`CircuitBreaker`]).
//! The *mechanism* half — the one retry loop that consults these — is
//! `Vsg::resilient`, shared by single calls, batch frames and batched
//! event notifications.
//!
//! Everything is computed on virtual time and the simulation's seeded
//! RNG, so a chaos schedule replays identically run after run.

use parking_lot::Mutex;
use simnet::{NodeId, Sim, SimDuration, SimTime};
use std::collections::HashMap;
use std::fmt;

/// Per-gateway knobs for the resilient wire path.
///
/// The defaults suit the simulated home: the deadline is generous
/// enough to ride out a short loss spike (several backed-off retries)
/// but binds well before the retry budget on a hard partition, so a
/// partitioned call surfaces as [`crate::MetaError::DeadlineExceeded`]
/// rather than hanging through eight maximum backoffs.
#[derive(Debug, Clone, PartialEq)]
pub struct ResiliencePolicy {
    /// Master switch. When off, every wire call is a single attempt
    /// and the breaker/degraded paths are bypassed — the pre-resilience
    /// gateway behaviour, kept for ablation benches.
    pub enabled: bool,
    /// End-to-end virtual-time budget for one invocation, spanning all
    /// attempts and backoff waits.
    pub deadline: SimDuration,
    /// Re-send budget per invocation (first attempt not counted).
    pub max_retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub base_backoff: SimDuration,
    /// Cap on any single backoff wait.
    pub max_backoff: SimDuration,
    /// Consecutive transport failures that open a remote gateway's
    /// breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects calls before admitting one
    /// half-open probe.
    pub breaker_open_window: SimDuration,
    /// Serve a stale (invalidated) cached route when the VSR itself is
    /// unreachable, instead of failing the invocation.
    pub degraded_reads: bool,
}

impl Default for ResiliencePolicy {
    fn default() -> Self {
        ResiliencePolicy {
            enabled: true,
            deadline: SimDuration::from_secs(2),
            max_retries: 8,
            base_backoff: SimDuration::from_millis(50),
            max_backoff: SimDuration::from_millis(800),
            breaker_threshold: 5,
            breaker_open_window: SimDuration::from_secs(5),
            degraded_reads: true,
        }
    }
}

impl ResiliencePolicy {
    /// The pre-resilience gateway: single attempt, no breaker, no
    /// degraded serving. Used by ablation benches and available to any
    /// deployment that wants raw failures.
    pub fn disabled() -> ResiliencePolicy {
        ResiliencePolicy {
            enabled: false,
            ..ResiliencePolicy::default()
        }
    }
}

/// The wait before retry number `attempt` (0-based): exponential from
/// `base`, capped at `cap`, jittered over `[wait/2, wait]`. The draw
/// comes from the simulation's seeded RNG, so a given seed yields the
/// same pacing every run while replicas stay decorrelated; a zero wait
/// draws nothing.
pub(crate) fn backoff(base: SimDuration, cap: SimDuration, attempt: u32, sim: &Sim) -> SimDuration {
    let base = base.as_micros();
    let cap = cap.as_micros().max(base);
    let wait = base.saturating_mul(1u64 << attempt.min(20)).min(cap);
    if wait == 0 {
        return SimDuration::ZERO;
    }
    SimDuration::from_micros(sim.with_rng(|r| r.range(wait / 2, wait + 1)))
}

/// Where a remote gateway's circuit breaker stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BreakerState {
    /// Healthy: calls flow, consecutive failures are counted.
    Closed,
    /// Tripped: calls fail fast with [`crate::MetaError::CircuitOpen`]
    /// until the open window elapses.
    Open,
    /// Probing: the open window elapsed and one call is admitted to
    /// test the remote; success closes, failure re-opens.
    HalfOpen,
}

impl BreakerState {
    /// Stable text label (`closed` / `open` / `half-open`), used for
    /// the metrics gauge and trace spans.
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

impl fmt::Display for BreakerState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// A per-remote-gateway circuit breaker on virtual time.
///
/// Only *transport* failures (see `MetaError::is_transport_failure`)
/// count against it: an application fault or an unknown-service answer
/// proves the remote gateway alive and counts as a success.
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    threshold: u32,
    open_window: SimDuration,
    state: BreakerState,
    consecutive_failures: u32,
    opened_at: SimTime,
}

impl CircuitBreaker {
    /// Creates a closed breaker that opens after `threshold`
    /// consecutive transport failures and admits a probe once
    /// `open_window` has elapsed.
    pub fn new(threshold: u32, open_window: SimDuration) -> CircuitBreaker {
        CircuitBreaker {
            threshold: threshold.max(1),
            open_window,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            opened_at: SimTime::ZERO,
        }
    }

    /// Whether a call may proceed at `now`. An open breaker whose
    /// window has elapsed moves to half-open and admits the call as
    /// its probe.
    pub fn admit(&mut self, now: SimTime) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                if now.since(self.opened_at) >= self.open_window {
                    self.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Records a successful (or liveness-proving) call: the breaker
    /// closes and the failure run resets.
    pub fn on_success(&mut self) {
        self.state = BreakerState::Closed;
        self.consecutive_failures = 0;
    }

    /// Records a transport failure at `now`. A half-open probe failure
    /// re-opens immediately; a closed breaker opens once the
    /// consecutive-failure run reaches the threshold.
    pub fn on_failure(&mut self, now: SimTime) {
        match self.state {
            BreakerState::HalfOpen => {
                self.state = BreakerState::Open;
                self.opened_at = now;
            }
            BreakerState::Closed => {
                self.consecutive_failures += 1;
                if self.consecutive_failures >= self.threshold {
                    self.state = BreakerState::Open;
                    self.opened_at = now;
                }
            }
            // Gated calls shouldn't reach the wire, but a racing
            // failure while open just refreshes the window.
            BreakerState::Open => self.opened_at = now,
        }
    }

    /// The current state (no transition side effects).
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// The current consecutive-transport-failure run (closed state).
    pub fn failure_run(&self) -> u32 {
        self.consecutive_failures
    }
}

/// A bank of circuit breakers keyed by backbone node — one per VSR
/// replica. The shard-aware [`crate::VsrClient`] consults it while
/// walking a shard's preference list: a replica whose breaker is open
/// is skipped without touching the wire, so failover to the next
/// replica costs nothing once a crash has been observed a few times.
///
/// Breakers are created closed on first use. The bank is internally
/// locked so one bank can be shared by every clone of a client.
#[derive(Debug)]
pub struct BreakerBank {
    threshold: u32,
    open_window: SimDuration,
    breakers: Mutex<HashMap<NodeId, CircuitBreaker>>,
}

impl BreakerBank {
    /// Creates an empty bank whose breakers open after `threshold`
    /// consecutive transport failures and admit a half-open probe once
    /// `open_window` has elapsed.
    pub fn new(threshold: u32, open_window: SimDuration) -> BreakerBank {
        BreakerBank {
            threshold: threshold.max(1),
            open_window,
            breakers: Mutex::new(HashMap::new()),
        }
    }

    fn with<T>(&self, node: NodeId, f: impl FnOnce(&mut CircuitBreaker) -> T) -> T {
        let mut breakers = self.breakers.lock();
        let br = breakers
            .entry(node)
            .or_insert_with(|| CircuitBreaker::new(self.threshold, self.open_window));
        f(br)
    }

    /// Whether a call to `node` may proceed at `now` (an elapsed open
    /// window admits the call as its half-open probe).
    pub fn admit(&self, node: NodeId, now: SimTime) -> bool {
        self.with(node, |br| br.admit(now))
    }

    /// Records a successful (or liveness-proving) call to `node`.
    pub fn on_success(&self, node: NodeId) {
        self.with(node, CircuitBreaker::on_success);
    }

    /// Records a transport failure against `node` at `now`.
    pub fn on_failure(&self, node: NodeId, now: SimTime) {
        self.with(node, |br| br.on_failure(now));
    }

    /// The breaker state held for `node` (closed if never touched).
    pub fn state(&self, node: NodeId) -> BreakerState {
        self.breakers
            .lock()
            .get(&node)
            .map_or(BreakerState::Closed, CircuitBreaker::state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_let_the_deadline_bind_before_the_retry_budget() {
        let p = ResiliencePolicy::default();
        assert!(p.enabled);
        // Worst-case waits: 50+100+200+400+800*4 ms = 3.95 s > 2 s, so
        // a hard partition ends as DeadlineExceeded, not retries-spent.
        let worst: u64 = (0..p.max_retries)
            .map(|a| (p.base_backoff.as_micros() << a.min(20)).min(p.max_backoff.as_micros()))
            .sum();
        assert!(
            worst > p.deadline.as_micros(),
            "deadline must bind first: {worst} vs {}",
            p.deadline.as_micros()
        );
    }

    #[test]
    fn backoff_doubles_caps_and_jitters_deterministically() {
        let p = ResiliencePolicy::default();
        let a = Sim::new(42);
        let b = Sim::new(42);
        // The exact doubling-and-cap value: 50, 100, 200, 400 ms, then
        // capped at 800 ms.
        for (attempt, full_ms) in [(0, 50), (1, 100), (2, 200), (3, 400), (4, 800), (10, 800)] {
            let wa = backoff(p.base_backoff, p.max_backoff, attempt, &a);
            let wb = backoff(p.base_backoff, p.max_backoff, attempt, &b);
            assert_eq!(wa, wb, "same seed, same pacing");
            let full = SimDuration::from_millis(full_ms).as_micros();
            assert!(
                wa.as_micros() >= full / 2 && wa.as_micros() <= full,
                "attempt {attempt}: {wa} outside [{}, {full}] us",
                full / 2
            );
        }
    }

    #[test]
    fn breaker_opens_probes_and_recloses() {
        let window = SimDuration::from_secs(5);
        let mut br = CircuitBreaker::new(3, window);
        let sim = Sim::new(1);
        assert_eq!(br.state(), BreakerState::Closed);

        for _ in 0..2 {
            assert!(br.admit(sim.now()));
            br.on_failure(sim.now());
        }
        assert_eq!(br.state(), BreakerState::Closed, "below threshold");
        br.on_failure(sim.now());
        assert_eq!(br.state(), BreakerState::Open, "threshold reached");
        assert!(!br.admit(sim.now()), "open rejects immediately");

        sim.advance(SimDuration::from_secs(4));
        assert!(!br.admit(sim.now()), "window not yet elapsed");
        sim.advance(SimDuration::from_secs(1));
        assert!(br.admit(sim.now()), "window elapsed: probe admitted");
        assert_eq!(br.state(), BreakerState::HalfOpen);

        // Probe fails: straight back to open, window restarted.
        br.on_failure(sim.now());
        assert_eq!(br.state(), BreakerState::Open);
        sim.advance(window);
        assert!(br.admit(sim.now()));
        br.on_success();
        assert_eq!(br.state(), BreakerState::Closed);
        assert_eq!(br.failure_run(), 0);

        // A success resets the failure run entirely.
        br.on_failure(sim.now());
        br.on_failure(sim.now());
        br.on_success();
        br.on_failure(sim.now());
        assert_eq!(br.state(), BreakerState::Closed, "run was reset");
    }

    #[test]
    fn breaker_bank_tracks_replicas_independently() {
        let sim = Sim::new(1);
        let bank = BreakerBank::new(2, SimDuration::from_secs(5));
        let (a, b) = (NodeId(10), NodeId(11));
        assert_eq!(bank.state(a), BreakerState::Closed, "untouched is closed");
        bank.on_failure(a, sim.now());
        bank.on_failure(a, sim.now());
        assert_eq!(bank.state(a), BreakerState::Open);
        assert!(!bank.admit(a, sim.now()), "a rejects");
        assert!(bank.admit(b, sim.now()), "b unaffected");
        sim.advance(SimDuration::from_secs(5));
        assert!(bank.admit(a, sim.now()), "probe after window");
        bank.on_success(a);
        assert_eq!(bank.state(a), BreakerState::Closed);
    }
}
