//! The simulation context: virtual clock, timer queue, RNG and tracer.
//!
//! # Execution model
//!
//! The simulator uses a *synchronous call-through* model: a remote
//! invocation is executed as ordinary nested function calls, and each layer
//! charges its cost to the virtual clock with [`Sim::advance`]. Asynchronous
//! behaviour (sensor firings, lease expiry, HTTP polling) is expressed as
//! timers whose callbacks run when the owner pumps the queue with
//! [`Sim::run_until`] / [`Sim::run_for`] / [`Sim::step`].
//!
//! `advance` deliberately does **not** fire timers: time passing *inside* a
//! synchronous call chain must not re-enter other components mid-call. The
//! scenario driver fires timers between top-level interactions instead.
//! This trades a small amount of timing fidelity (a timer due mid-call
//! fires at the end of the call) for a programming model in which a whole
//! middleware bridge is a readable call stack — the same trade the paper's
//! prototype makes by using synchronous SOAP RPC.

use crate::rng::SimRng;
use crate::sched::{EventQueue, Popped, RepeatKey, TimerId};
use crate::time::{SimDuration, SimTime};
use crate::trace::Tracer;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A cheaply clonable handle to one simulation world.
///
/// All components of a scenario (networks, middleware, the meta-middleware
/// framework) share one `Sim`, giving them a common clock, RNG stream and
/// trace.
#[derive(Clone)]
pub struct Sim {
    inner: Arc<SimInner>,
}

struct SimInner {
    clock: Mutex<SimTime>,
    queue: Mutex<EventQueue>,
    rng: Mutex<SimRng>,
    tracer: Mutex<Tracer>,
    /// Which island of a partitioned run this world is (0 for
    /// standalone worlds). Baked into every id drawn from `next_serial`
    /// and `next_trace_serial` so ids are unique fleet-wide without
    /// cross-island coordination.
    island: u32,
    /// Monotonic well for span/correlation ids. Per-world (not
    /// process-wide) so id streams depend only on this island's own
    /// event order — identical under any thread count.
    serial: AtomicU64,
    /// The well for trace ids alone, so the n-th trace of a world gets
    /// the same id however many spans earlier traces recorded.
    trace_serial: AtomicU64,
}

/// Handle to a repeating timer created by [`Sim::every`]: cancels it
/// and publishes its wake instant.
#[derive(Clone)]
pub struct RepeatHandle {
    sim: Sim,
    key: RepeatKey,
}

impl RepeatHandle {
    /// Stops future repetitions and marks the already-scheduled next
    /// occurrence cancelled, so it no longer counts as pending and is
    /// reaped when it surfaces (fleet runs stop thousands of
    /// heartbeats). Cancelling from inside the callback stops the
    /// re-arm.
    pub fn cancel(&self) {
        let f = self.sim.inner.queue.lock().cancel_repeat(self.key);
        drop(f);
    }

    /// True if the repetition has not been cancelled (or cleared by
    /// [`Sim::clear_timers`]).
    pub fn is_active(&self) -> bool {
        self.sim.inner.queue.lock().repeat_active(self.key)
    }

    /// Publishes the earliest pop clock at which the callback can do
    /// anything. Ticks that pop earlier are replayed by the queue
    /// without calling back: each still moves the clock, re-arms one
    /// period on, takes a timer id and counts as a fired event, exactly
    /// like a tick whose callback did nothing. `SimTime::ZERO` (the
    /// initial value) calls back on every tick; `SimTime::MAX` on none.
    ///
    /// The owner must republish whenever its state changes in a way
    /// that lets an earlier tick act.
    pub fn set_wake(&self, wake: SimTime) {
        self.sim.inner.queue.lock().set_wake(self.key, wake);
    }
}

impl Sim {
    /// Creates a world with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        Sim::with_island(seed, 0)
    }

    /// Creates island `island` of a partitioned run. The RNG stream is
    /// derived deterministically from `(seed, island)` — see
    /// [`SimRng::for_island`] — and island 0 is indistinguishable from
    /// `Sim::new(seed)`.
    pub fn with_island(seed: u64, island: u32) -> Self {
        Sim {
            inner: Arc::new(SimInner {
                clock: Mutex::new(SimTime::ZERO),
                queue: Mutex::new(EventQueue::new()),
                rng: Mutex::new(SimRng::for_island(seed, island)),
                tracer: Mutex::new(Tracer::default()),
                island,
                serial: AtomicU64::new(0),
                trace_serial: AtomicU64::new(0),
            }),
        }
    }

    /// The island id this world was created with (0 for standalone).
    pub fn island(&self) -> u32 {
        self.inner.island
    }

    /// Draws the next id from this world's serial well, namespaced by
    /// island: `(island << 40) | serial`. Deterministic because it
    /// depends only on this island's own event order.
    pub fn next_serial(&self) -> u64 {
        self.namespaced(self.inner.serial.fetch_add(1, Ordering::Relaxed))
    }

    /// Draws the next trace id from this world's own trace well,
    /// namespaced like [`Sim::next_serial`]. Separate from the span well
    /// so head sampling by trace id does not shift when an unrelated
    /// earlier call records one span more or fewer.
    pub fn next_trace_serial(&self) -> u64 {
        self.namespaced(self.inner.trace_serial.fetch_add(1, Ordering::Relaxed))
    }

    fn namespaced(&self, serial: u64) -> u64 {
        (u64::from(self.inner.island) << 40) | (serial & ((1 << 40) - 1))
    }

    // ---- clock ----------------------------------------------------------

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        *self.inner.clock.lock()
    }

    /// Advances the virtual clock by `d` without firing timers.
    ///
    /// This is how layers charge processing/transfer costs during a
    /// synchronous call chain; see the module docs for why timers are not
    /// fired here.
    pub fn advance(&self, d: SimDuration) {
        *self.inner.clock.lock() += d;
    }

    // ---- timers ---------------------------------------------------------

    /// Schedules `f` to run at absolute time `at` (clamped to now if in the
    /// past). Returns a handle that can cancel it.
    pub fn schedule_at(&self, at: SimTime, f: impl FnOnce(&Sim) + Send + 'static) -> TimerId {
        let at = at.max(self.now());
        self.inner.queue.lock().push(at, Box::new(f))
    }

    /// Schedules `f` to run `delay` from now.
    pub fn schedule_in(
        &self,
        delay: SimDuration,
        f: impl FnOnce(&Sim) + Send + 'static,
    ) -> TimerId {
        self.schedule_at(self.now() + delay, f)
    }

    /// Runs `f` every `period`, starting one period from now, until the
    /// returned handle is cancelled.
    pub fn every(&self, period: SimDuration, f: impl FnMut(&Sim) + Send + 'static) -> RepeatHandle {
        self.every_with_phase(SimDuration::ZERO, period, f)
    }

    /// Like [`Sim::every`], but the first firing is `phase + period`
    /// from now. Fleets use a per-island phase to stagger identical
    /// periodic work (anti-entropy, heartbeats) so thousands of homes
    /// don't all act at the same virtual instant.
    pub fn every_with_phase(
        &self,
        phase: SimDuration,
        period: SimDuration,
        f: impl FnMut(&Sim) + Send + 'static,
    ) -> RepeatHandle {
        assert!(!period.is_zero(), "repeating timer period must be non-zero");
        let first = self.now() + phase + period;
        let key = self
            .inner
            .queue
            .lock()
            .push_repeat(first, period, Box::new(f));
        RepeatHandle {
            sim: self.clone(),
            key,
        }
    }

    /// Cancels a one-shot timer.
    pub fn cancel(&self, id: TimerId) {
        self.inner.queue.lock().cancel(id);
    }

    /// Number of live pending timers (cancelled tombstones excluded).
    pub fn pending_timers(&self) -> usize {
        self.inner.queue.lock().len()
    }

    /// Number of cancelled-timer tombstones still awaiting reap. Stays
    /// bounded by the heap size; exposed for leak diagnostics.
    pub fn timer_tombstones(&self) -> usize {
        self.inner.queue.lock().tombstones()
    }

    /// The firing time of the earliest pending timer, if any.
    pub fn next_timer_at(&self) -> Option<SimTime> {
        self.inner.queue.lock().peek_time()
    }

    /// Cancels every pending timer (used when tearing down a scenario).
    pub fn clear_timers(&self) {
        self.inner.queue.lock().clear();
    }

    // ---- pumping --------------------------------------------------------

    /// Fires the earliest pending timer, advancing the clock to its
    /// deadline. Returns `false` if no timer is pending.
    pub fn step(&self) -> bool {
        self.fire_due(|_| true, 1) == 1
    }

    /// Fires all timers due up to `deadline` (inclusive), in order, then
    /// sets the clock to `deadline` if it is later than the current time.
    pub fn run_until(&self, deadline: SimTime) {
        self.fire_due(|at| at <= deadline, usize::MAX);
        let mut clock = self.inner.clock.lock();
        if *clock < deadline {
            *clock = deadline;
        }
    }

    /// Equivalent to `run_until(now + d)`.
    pub fn run_for(&self, d: SimDuration) {
        self.run_until(self.now() + d);
    }

    /// Fires all timers due strictly before `bound`, in order, leaving
    /// the clock on the last event fired (it is *not* advanced to
    /// `bound`). This is the lookahead-window pump used by the parallel
    /// executor: windows are half-open on the right so a cross-island
    /// delivery scheduled exactly on the boundary is never fired early,
    /// and the clock is left free for the next window's events.
    /// Returns the number of events fired.
    pub fn run_window(&self, bound: SimTime) -> usize {
        self.fire_due(|at| at < bound, usize::MAX)
    }

    /// Fires timers until the queue is empty (or `max_events` fired),
    /// letting the clock follow the timers. Returns the number fired.
    pub fn drain(&self, max_events: usize) -> usize {
        self.fire_due(|_| true, max_events)
    }

    /// Fires up to `budget` events whose time `due` accepts, in order,
    /// and returns how many fired. Replayed idle repeat ticks count as
    /// fired events; runs of them are taken under one lock.
    fn fire_due(&self, due: impl Fn(SimTime) -> bool, budget: usize) -> usize {
        let mut fired = 0;
        while fired < budget {
            let popped = {
                let mut queue = self.inner.queue.lock();
                let mut clock = self.inner.clock.lock();
                loop {
                    match queue.pop_if(&due, &mut clock) {
                        Some(Popped::Idle) => {
                            fired += 1;
                            if fired == budget {
                                return fired;
                            }
                        }
                        other => break other,
                    }
                }
            };
            match popped {
                None => break,
                Some(Popped::Once(f)) => f(self),
                Some(Popped::Repeat(mut tick)) => {
                    (tick.f)(self);
                    let now = self.now();
                    let stale = self.inner.queue.lock().rearm(tick, now);
                    drop(stale);
                }
                Some(Popped::Idle) => unreachable!("idle ticks are replayed above"),
            }
            fired += 1;
        }
        fired
    }

    // ---- randomness -----------------------------------------------------

    /// Runs `f` with exclusive access to the world RNG.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut SimRng) -> T) -> T {
        f(&mut self.inner.rng.lock())
    }

    /// True with probability `p`.
    pub fn chance(&self, p: f64) -> bool {
        self.with_rng(|r| r.chance(p))
    }

    // ---- tracing --------------------------------------------------------

    /// Records a trace event at the current virtual time.
    pub fn trace(&self, component: &str, detail: impl Into<String>) {
        let now = self.now();
        self.inner.tracer.lock().record(now, component, detail);
    }

    /// Runs `f` with exclusive access to the tracer (to read or configure).
    pub fn with_tracer<T>(&self, f: impl FnOnce(&mut Tracer) -> T) -> T {
        f(&mut self.inner.tracer.lock())
    }
}

impl Default for Sim {
    fn default() -> Self {
        Sim::new(0x1CDC_2002)
    }
}

impl std::fmt::Debug for Sim {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sim")
            .field("now", &self.now())
            .field("pending_timers", &self.pending_timers())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    #[test]
    fn advance_moves_clock_without_firing() {
        let sim = Sim::new(1);
        let fired = Arc::new(AtomicBool::new(false));
        let fired2 = fired.clone();
        sim.schedule_in(SimDuration::from_millis(5), move |_| {
            fired2.store(true, Ordering::SeqCst);
        });
        sim.advance(SimDuration::from_millis(10));
        assert!(!fired.load(Ordering::SeqCst));
        assert_eq!(sim.now(), SimTime::from_micros(10_000));
        // The timer is still pending and fires on the next pump, at the
        // current (later) clock because its deadline already passed.
        assert!(sim.step());
        assert!(fired.load(Ordering::SeqCst));
        assert_eq!(sim.now(), SimTime::from_micros(10_000));
    }

    #[test]
    fn run_until_fires_in_order_and_lands_on_deadline() {
        let sim = Sim::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for (delay, tag) in [(30u64, "c"), (10, "a"), (20, "b")] {
            let log = log.clone();
            sim.schedule_in(SimDuration::from_micros(delay), move |sim| {
                log.lock().push((tag, sim.now().as_micros()));
            });
        }
        sim.run_until(SimTime::from_micros(25));
        assert_eq!(*log.lock(), vec![("a", 10), ("b", 20)]);
        assert_eq!(sim.now(), SimTime::from_micros(25));
        sim.run_for(SimDuration::from_micros(10));
        assert_eq!(log.lock().last(), Some(&("c", 30)));
    }

    #[test]
    fn timers_can_schedule_timers() {
        let sim = Sim::new(1);
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        sim.schedule_in(SimDuration::from_micros(1), move |sim| {
            c.fetch_add(1, Ordering::SeqCst);
            let c2 = c.clone();
            sim.schedule_in(SimDuration::from_micros(1), move |_| {
                c2.fetch_add(1, Ordering::SeqCst);
            });
        });
        sim.run_for(SimDuration::from_micros(10));
        assert_eq!(count.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn cancelled_timer_does_not_fire() {
        let sim = Sim::new(1);
        let fired = Arc::new(AtomicBool::new(false));
        let f2 = fired.clone();
        let id = sim.schedule_in(SimDuration::from_micros(5), move |_| {
            f2.store(true, Ordering::SeqCst);
        });
        sim.cancel(id);
        sim.run_for(SimDuration::from_millis(1));
        assert!(!fired.load(Ordering::SeqCst));
    }

    #[test]
    fn every_repeats_until_cancelled() {
        let sim = Sim::new(1);
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let handle = sim.every(SimDuration::from_millis(10), move |_| {
            c.fetch_add(1, Ordering::SeqCst);
        });
        sim.run_for(SimDuration::from_millis(35));
        assert_eq!(count.load(Ordering::SeqCst), 3);
        handle.cancel();
        assert!(!handle.is_active());
        sim.run_for(SimDuration::from_millis(100));
        assert_eq!(count.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn cancelling_a_repeat_reaps_the_pending_tick() {
        let sim = Sim::new(1);
        let handle = sim.every(SimDuration::from_millis(10), |_| {});
        sim.run_for(SimDuration::from_millis(25));
        assert_eq!(sim.pending_timers(), 1);
        handle.cancel();
        assert_eq!(sim.pending_timers(), 0, "pending tick is cancelled eagerly");
        sim.run_for(SimDuration::from_millis(50));
        assert_eq!(
            sim.timer_tombstones(),
            0,
            "tombstone reaped once time passes it"
        );
    }

    #[test]
    fn clearing_inside_a_repeat_keeps_that_repeat() {
        let sim = Sim::new(1);
        sim.schedule_in(SimDuration::from_millis(100), |_| {});
        let count = Arc::new(AtomicU64::new(0));
        let c = count.clone();
        let handle = sim.every(SimDuration::from_millis(10), move |sim| {
            if c.fetch_add(1, Ordering::SeqCst) == 0 {
                sim.clear_timers();
            }
        });
        sim.run_for(SimDuration::from_millis(35));
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert!(handle.is_active());
        assert_eq!(sim.pending_timers(), 1, "only the repeat's next tick");
    }

    #[test]
    fn drain_respects_event_budget() {
        let sim = Sim::new(1);
        for i in 1..=10u64 {
            sim.schedule_in(SimDuration::from_micros(i), |_| {});
        }
        assert_eq!(sim.drain(4), 4);
        assert_eq!(sim.pending_timers(), 6);
        assert_eq!(sim.drain(usize::MAX), 6);
    }

    #[test]
    fn rng_is_shared_and_deterministic() {
        let a = Sim::new(99);
        let b = Sim::new(99);
        let va: Vec<u64> = (0..10).map(|_| a.with_rng(|r| r.range(0, 100))).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.with_rng(|r| r.range(0, 100))).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn trace_records_at_current_time() {
        let sim = Sim::new(1);
        sim.advance(SimDuration::from_millis(3));
        sim.trace("test", "hello");
        sim.with_tracer(|t| {
            let e = t.events().next().unwrap();
            assert_eq!(e.at, SimTime::from_micros(3_000));
            assert_eq!(e.component, "test");
        });
    }

    #[test]
    fn run_window_is_strict_and_leaves_clock_on_last_event() {
        let sim = Sim::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        for delay in [10u64, 20, 30] {
            let log = log.clone();
            sim.schedule_in(SimDuration::from_micros(delay), move |sim| {
                log.lock().push(sim.now().as_micros());
            });
        }
        // Half-open window: the event at t=30 is on the bound → not fired.
        assert_eq!(sim.run_window(SimTime::from_micros(30)), 2);
        assert_eq!(*log.lock(), vec![10, 20]);
        assert_eq!(sim.now(), SimTime::from_micros(20));
        assert_eq!(sim.run_window(SimTime::from_micros(31)), 1);
        assert_eq!(sim.now(), SimTime::from_micros(30));
    }

    #[test]
    fn island_identity_and_serial_well() {
        let a = Sim::with_island(42, 0);
        let b = Sim::with_island(42, 3);
        assert_eq!(a.island(), 0);
        assert_eq!(b.island(), 3);
        assert_eq!(a.next_serial(), 0);
        assert_eq!(a.next_serial(), 1);
        assert_eq!(b.next_serial(), 3u64 << 40);
        assert_eq!(b.next_serial(), (3u64 << 40) | 1);
        assert_eq!(
            b.next_trace_serial(),
            3u64 << 40,
            "trace ids have their own well"
        );
    }

    #[test]
    fn island_zero_rng_matches_plain_new() {
        let a = Sim::new(7);
        let b = Sim::with_island(7, 0);
        let va: Vec<u64> = (0..10).map(|_| a.with_rng(|r| r.range(0, 100))).collect();
        let vb: Vec<u64> = (0..10).map(|_| b.with_rng(|r| r.range(0, 100))).collect();
        assert_eq!(va, vb);
    }

    #[test]
    fn tombstones_stay_bounded() {
        let sim = Sim::new(1);
        for _ in 0..100 {
            let id = sim.schedule_in(SimDuration::from_micros(1), |_| {});
            sim.run_for(SimDuration::from_micros(2));
            sim.cancel(id); // cancel after it fired: must not accumulate
        }
        assert_eq!(sim.timer_tombstones(), 0);
    }

    #[test]
    fn past_deadline_clamps_to_now() {
        let sim = Sim::new(1);
        sim.advance(SimDuration::from_millis(5));
        let fired_at = Arc::new(AtomicU64::new(0));
        let f = fired_at.clone();
        sim.schedule_at(SimTime::from_micros(1), move |sim| {
            f.store(sim.now().as_micros(), Ordering::SeqCst);
        });
        sim.step();
        assert_eq!(fired_at.load(Ordering::SeqCst), 5_000);
    }
}
