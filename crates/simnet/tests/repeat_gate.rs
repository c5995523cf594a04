//! Differential test for the repeat gate.
//!
//! The same seeded world runs twice. In the *gated* run the repeat's
//! owner publishes its wake instant with [`RepeatHandle::set_wake`] and
//! the queue replays earlier ticks without calling back. In the
//! *reference* run the gate stays open and the callback itself returns
//! early before the wake instant, which is what an idle tick cost
//! before the gate existed. Both runs must log the same thing: which
//! callback ran, at which pop clock and in which order, every timer id
//! handed out, `pending_timers`, `next_timer_at`, `is_active` and the
//! event counts of `step`, `drain`, `run_window`, `run_until` and
//! `run_for`.
//!
//! The schedule lands one-shots exactly on tick instants and less than
//! a period before them, advances the clock past tick instants from
//! inside events, toggles the wake, cancels the repeat from inside its
//! callback and clears the queue from inside and outside it.

use parking_lot::Mutex;
use simnet::{RepeatHandle, Sim, SimDuration, SimTime};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The repeat period, µs.
const P: u64 = 10;

struct World {
    sim: Sim,
    gated: bool,
    /// The owner's wake instant; the reference run tests it in the
    /// callback, the gated run also publishes it to the queue.
    wake: Mutex<SimTime>,
    repeat: Mutex<Option<RepeatHandle>>,
    log: Mutex<Vec<String>>,
    /// Repeat callbacks entered (the reference run enters on every tick).
    calls: AtomicU64,
    next_tag: AtomicU64,
}

fn us(n: u64) -> SimDuration {
    SimDuration::from_micros(n)
}

impl World {
    fn new(seed: u64, gated: bool) -> Arc<World> {
        let world = Arc::new(World {
            sim: Sim::new(seed),
            gated,
            wake: Mutex::new(SimTime::ZERO),
            repeat: Mutex::new(None),
            log: Mutex::new(Vec::new()),
            calls: AtomicU64::new(0),
            next_tag: AtomicU64::new(0),
        });
        world.start_repeat(us(3));
        for _ in 0..4 {
            let d = world.draw(0, 6 * P);
            world.schedule_once(world.sim.now() + us(d));
        }
        world
    }

    fn draw(&self, lo: u64, hi: u64) -> u64 {
        self.sim.with_rng(|r| r.range(lo, hi))
    }

    fn note(&self, what: String) {
        let sim = &self.sim;
        let active = self.repeat.lock().as_ref().map(RepeatHandle::is_active);
        let line = format!(
            "{what} now={} pending={} next={:?} active={active:?}",
            sim.now().as_micros(),
            sim.pending_timers(),
            sim.next_timer_at().map(SimTime::as_micros),
        );
        self.log.lock().push(line);
    }

    fn set_wake(&self, wake: SimTime) {
        *self.wake.lock() = wake;
        if self.gated {
            if let Some(h) = self.repeat.lock().as_ref() {
                h.set_wake(wake);
            }
        }
    }

    fn start_repeat(self: &Arc<Self>, phase: SimDuration) {
        let world = self.clone();
        let handle = self
            .sim
            .every_with_phase(phase, us(P), move |sim| world.tick(sim));
        if self.gated {
            handle.set_wake(*self.wake.lock());
        }
        *self.repeat.lock() = Some(handle);
    }

    fn schedule_once(self: &Arc<Self>, at: SimTime) {
        let tag = self.next_tag.fetch_add(1, Ordering::Relaxed);
        let world = self.clone();
        let id = self.sim.schedule_at(at, move |sim| world.once(sim, tag));
        self.note(format!("schedule once#{tag} at={} -> {id}", at.as_micros()));
    }

    /// The repeat's callback.
    fn tick(self: &Arc<Self>, sim: &Sim) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        if !self.gated && sim.now() < *self.wake.lock() {
            return;
        }
        self.note("tick".into());
        match self.draw(0, 20) {
            0..=3 => sim.advance(us(self.draw(1, 3 * P))),
            4..=6 => {
                let at = sim.now() + us(self.draw(0, 4 * P));
                self.schedule_once(at);
            }
            7..=10 => self.set_wake(sim.now() + us(self.draw(1, 6 * P))),
            11..=13 => self.set_wake(SimTime::MAX),
            14 => {
                // Cancel from inside the callback: no re-arm.
                if let Some(h) = self.repeat.lock().as_ref() {
                    h.cancel();
                }
                self.note("cancel in tick".into());
            }
            15 => {
                // Clear from inside the callback: everything else goes,
                // this repeat re-arms when it returns.
                sim.clear_timers();
                self.note("clear in tick".into());
                let at = sim.now() + us(self.draw(0, 3 * P));
                self.schedule_once(at);
            }
            _ => {}
        }
    }

    /// A one-shot's callback.
    fn once(self: &Arc<Self>, sim: &Sim, tag: u64) {
        self.note(format!("once#{tag}"));
        let active = self.repeat.lock().as_ref().is_some_and(|h| h.is_active());
        if !active && self.draw(0, 2) == 0 {
            let phase = us(self.draw(0, P));
            self.start_repeat(phase);
            self.note("restart repeat".into());
        }
        match self.draw(0, 16) {
            0..=2 => sim.advance(us(self.draw(1, 3 * P))),
            3..=4 => self.set_wake(SimTime::ZERO),
            5..=6 => self.set_wake(sim.now() + us(self.draw(0, 6 * P))),
            7 => self.set_wake(SimTime::MAX),
            8 => {
                if let Some(h) = self.repeat.lock().as_ref() {
                    h.cancel();
                }
                self.note("cancel in once".into());
            }
            _ => {}
        }
        // Keep a small one-shot population going, on and just before
        // the next pending instant (a tick more often than not) and at
        // random offsets.
        let refill = if sim.pending_timers() < 6 {
            self.draw(1, 3)
        } else {
            0
        };
        for _ in 0..refill {
            let at = match (sim.next_timer_at(), self.draw(0, 3)) {
                (Some(next), 0) => next,
                (Some(next), 1) => next + us(P - self.draw(1, P)),
                _ => sim.now() + us(self.draw(0, 5 * P)),
            };
            self.schedule_once(at);
        }
    }

    /// Drives the world with a seeded mix of every pump.
    fn drive(self: &Arc<Self>) {
        for round in 0..300 {
            let sim = &self.sim;
            let what = match self.draw(0, 6) {
                0 => format!("step={}", sim.step()),
                1 => format!("drain={}", sim.drain(self.draw(1, 12) as usize)),
                2 => {
                    let bound = sim.now() + us(self.draw(0, 5 * P));
                    format!("run_window={}", sim.run_window(bound))
                }
                3 => {
                    sim.run_until(sim.now() + us(self.draw(0, 5 * P)));
                    "run_until".into()
                }
                4 => {
                    sim.run_for(us(self.draw(0, 3 * P)));
                    "run_for".into()
                }
                _ => {
                    sim.advance(us(self.draw(1, 2 * P)));
                    "advance".into()
                }
            };
            self.note(format!("round {round}: {what}"));
            if round % 97 == 96 {
                sim.clear_timers();
                self.note("clear outside".into());
                let at = sim.now() + us(self.draw(0, 2 * P));
                self.schedule_once(at);
            }
            if sim.pending_timers() == 0 {
                let at = sim.now() + us(self.draw(0, 2 * P));
                self.schedule_once(at);
            }
        }
    }
}

#[test]
fn gated_repeat_matches_an_open_gate_with_the_test_in_the_callback() {
    let (mut gated_calls, mut open_calls) = (0, 0);
    for seed in 1..=40 {
        let gated = World::new(seed, true);
        gated.drive();
        let open = World::new(seed, false);
        open.drive();
        let (g, o) = (gated.log.lock().clone(), open.log.lock().clone());
        if let Some(i) = (0..g.len().min(o.len())).find(|&i| g[i] != o[i]) {
            panic!(
                "seed {seed}: logs diverge at line {i}:\n  gated: {}\n  open:  {}",
                g[i], o[i]
            );
        }
        assert_eq!(g.len(), o.len(), "seed {seed}: log lengths differ");
        gated_calls += gated.calls.load(Ordering::Relaxed);
        open_calls += open.calls.load(Ordering::Relaxed);
        // Leave no cycles behind: the repeat closure holds its world.
        gated.sim.clear_timers();
        open.sim.clear_timers();
    }
    assert!(
        gated_calls * 2 < open_calls,
        "the gate replayed too few ticks: {gated_calls} callbacks against {open_calls}"
    );
}
