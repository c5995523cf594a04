//! The discrete-event queue backing [`crate::sim::Sim`].
//!
//! This module owns only the data structure; the firing loop lives in
//! [`crate::sim`] because callbacks need a `&Sim` handle.

use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::binary_heap::PeekMut;
use std::collections::{BinaryHeap, HashSet};
use std::fmt;

/// Identifies a scheduled timer so it can be cancelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TimerId(pub(crate) u64);

impl fmt::Display for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

/// The callback type fired by the scheduler.
pub(crate) type TimerFn = Box<dyn FnOnce(&crate::sim::Sim) + Send>;

/// A repeating timer's callback, kept in its repeat slot between ticks.
pub(crate) type RepeatFn = Box<dyn FnMut(&crate::sim::Sim) + Send>;

/// What a heap entry runs when it comes due.
enum Task {
    Once(TimerFn),
    /// The next tick of a repeat; a key whose generation no longer
    /// matches its slot marks a cancelled repeat's tick.
    Repeat(RepeatKey),
}

struct Entry {
    at: SimTime,
    /// Doubles as the FIFO tie-break: ids are handed out in push order.
    id: TimerId,
    task: Task,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
    }
}
impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    // Reversed so the BinaryHeap (a max-heap) pops the *earliest* entry;
    // ties break FIFO by id.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.id.0.cmp(&self.id.0))
    }
}

/// Where a repeat's callback is between ticks.
enum RepeatState {
    /// The next tick is in the heap; the callback waits here.
    Armed(RepeatFn),
    /// The callback was handed out and is running.
    Firing,
    /// Unused; links to the next free slot.
    Free(Option<u32>),
}

/// One repeating timer.
struct RepeatSlot {
    period: SimDuration,
    /// The earliest pop clock at which the callback can act. Ticks that
    /// pop before it are replayed in place without calling back.
    wake: SimTime,
    /// Bumped whenever the slot is freed, so stale handles and the
    /// cancelled repeat's queued tick no longer match it.
    generation: u32,
    state: RepeatState,
}

/// Names one repeat: its slot, and the slot's generation when it was
/// added.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RepeatKey {
    slot: u32,
    generation: u32,
}

/// A repeat tick whose callback must run; hand it back with
/// [`EventQueue::rearm`] afterwards.
pub(crate) struct RepeatTick {
    key: RepeatKey,
    pub f: RepeatFn,
}

/// One due event, as popped.
pub(crate) enum Popped {
    Once(TimerFn),
    Repeat(RepeatTick),
    /// A gated repeat tick replayed in place: the clock moved, the tick
    /// was re-armed one period on, and there is nothing to call.
    Idle,
}

/// The pending-timer queue.
///
/// One-shot cancellation is tombstone-based: `cancel` moves the id from
/// the `live` set into the `cancelled` set, and the entry is discarded
/// when it bubbles to the top of the heap. Both sets shrink as entries
/// are popped, so long fleet runs do not accumulate state for timers
/// that already fired or were already reaped — cancelling a dead id is
/// a no-op rather than a permanent tombstone.
///
/// Repeats live in slots. A repeat's single heap entry names its slot,
/// so a tick needs no fresh closure, and neither id set tracks it: the
/// slot's generation tells a live tick from a cancelled one. A tick
/// that pops before the slot's wake instant is replayed in place (see
/// [`EventQueue::pop_if`]).
#[derive(Default)]
pub(crate) struct EventQueue {
    heap: BinaryHeap<Entry>,
    /// Ids of one-shot entries still in the heap and not cancelled.
    live: HashSet<TimerId>,
    /// Ids of one-shot entries still in the heap but cancelled.
    cancelled: HashSet<TimerId>,
    repeats: Vec<RepeatSlot>,
    /// Head of the free-slot list threaded through `repeats`.
    free_slot: Option<u32>,
    /// Repeat ticks in the heap that are live, and that are cancelled.
    repeats_armed: usize,
    repeats_cancelled: usize,
    next_id: u64,
}

impl EventQueue {
    pub fn new() -> Self {
        Self::default()
    }

    fn take_id(&mut self) -> TimerId {
        let id = TimerId(self.next_id);
        self.next_id += 1;
        id
    }

    /// Enqueues a callback at `at`, returning its cancellation handle.
    pub fn push(&mut self, at: SimTime, f: TimerFn) -> TimerId {
        let id = self.take_id();
        self.heap.push(Entry {
            at,
            id,
            task: Task::Once(f),
        });
        self.live.insert(id);
        id
    }

    /// Marks a timer as cancelled. Cancelled timers are skipped on pop.
    /// Cancelling a timer that already fired (or was already cancelled)
    /// is a no-op, so the tombstone set stays bounded by the heap size.
    pub fn cancel(&mut self, id: TimerId) {
        if self.live.remove(&id) {
            self.cancelled.insert(id);
        }
    }

    /// Adds a repeat whose first tick is due at `first`, with its gate
    /// open.
    pub fn push_repeat(&mut self, first: SimTime, period: SimDuration, f: RepeatFn) -> RepeatKey {
        let slot = if let Some(slot) = self.free_slot {
            let r = &mut self.repeats[slot as usize];
            let RepeatState::Free(next) = r.state else {
                unreachable!("free list names a used slot")
            };
            self.free_slot = next;
            r.period = period;
            r.wake = SimTime::ZERO;
            r.state = RepeatState::Armed(f);
            slot
        } else {
            // Grow one slot at a time: most worlds hold a handful of
            // repeats, and fleets hold thousands of worlds.
            self.repeats.reserve_exact(1);
            self.repeats.push(RepeatSlot {
                period,
                wake: SimTime::ZERO,
                generation: 0,
                state: RepeatState::Armed(f),
            });
            u32::try_from(self.repeats.len() - 1).expect("repeat slots fit in u32")
        };
        let key = RepeatKey {
            slot,
            generation: self.repeats[slot as usize].generation,
        };
        self.arm(key, first);
        key
    }

    fn arm(&mut self, key: RepeatKey, at: SimTime) {
        let id = self.take_id();
        self.heap.push(Entry {
            at,
            id,
            task: Task::Repeat(key),
        });
        self.repeats_armed += 1;
    }

    /// The slot `key` names, if the repeat is still running.
    fn slot_mut(&mut self, key: RepeatKey) -> Option<&mut RepeatSlot> {
        self.repeats
            .get_mut(key.slot as usize)
            .filter(|r| r.generation == key.generation)
    }

    fn free(&mut self, slot: u32) {
        let r = &mut self.repeats[slot as usize];
        r.generation = r.generation.wrapping_add(1);
        r.state = RepeatState::Free(self.free_slot);
        self.free_slot = Some(slot);
    }

    /// Re-arms a repeat whose callback just ran, one period after `now`.
    /// A repeat cancelled meanwhile is not re-armed; its callback is
    /// handed back for the caller to drop outside the queue lock.
    pub fn rearm(&mut self, tick: RepeatTick, now: SimTime) -> Option<RepeatFn> {
        let Some(r) = self.slot_mut(tick.key) else {
            return Some(tick.f);
        };
        let at = now + r.period;
        r.state = RepeatState::Armed(tick.f);
        self.arm(tick.key, at);
        None
    }

    /// Stops a repeat. Its queued tick stays as a tombstone until it
    /// surfaces; a tick whose callback is running is not re-armed. The
    /// callback is handed back for the caller to drop outside the lock.
    pub fn cancel_repeat(&mut self, key: RepeatKey) -> Option<RepeatFn> {
        let r = self.slot_mut(key)?;
        let f = match std::mem::replace(&mut r.state, RepeatState::Firing) {
            RepeatState::Armed(f) => Some(f),
            _ => None,
        };
        if f.is_some() {
            self.repeats_armed -= 1;
            self.repeats_cancelled += 1;
        }
        self.free(key.slot);
        f
    }

    /// True while the repeat has not been cancelled (or cleared).
    pub fn repeat_active(&self, key: RepeatKey) -> bool {
        self.repeats
            .get(key.slot as usize)
            .is_some_and(|r| r.generation == key.generation)
    }

    /// Sets the earliest pop clock at which the repeat's callback can
    /// act. `SimTime::ZERO` opens the gate for every tick.
    pub fn set_wake(&mut self, key: RepeatKey, wake: SimTime) {
        if let Some(r) = self.slot_mut(key) {
            r.wake = wake;
        }
    }

    /// The firing time of the earliest live timer, if any.
    pub fn peek_time(&mut self) -> Option<SimTime> {
        self.skip_cancelled();
        self.heap.peek().map(|e| e.at)
    }

    /// Pops the earliest live entry if `due` accepts its time, moving
    /// `clock` to `max(clock, at)`. The parallel executor passes a
    /// strict bound to fire a lookahead window half-open on the right,
    /// so cross-island deliveries landing *on* the window boundary are
    /// never executed early.
    ///
    /// A repeat tick whose pop clock is below its slot's wake instant is
    /// replayed in place instead: its entry is re-armed one period after
    /// the clock and takes a fresh id, exactly as the re-arm after a
    /// fired no-op callback would, with no allocation, hashing or heap
    /// push or pop.
    pub fn pop_if(&mut self, due: impl Fn(SimTime) -> bool, clock: &mut SimTime) -> Option<Popped> {
        self.skip_cancelled();
        let mut top = self.heap.peek_mut()?;
        if !due(top.at) {
            return None;
        }
        let now = top.at.max(*clock);
        *clock = now;
        if let Task::Repeat(key) = top.task {
            let r = &mut self.repeats[key.slot as usize];
            if now < r.wake {
                top.at = now + r.period;
                top.id = TimerId(self.next_id);
                self.next_id += 1;
                return Some(Popped::Idle);
            }
            let RepeatState::Armed(f) = std::mem::replace(&mut r.state, RepeatState::Firing) else {
                unreachable!("a live tick names an armed slot")
            };
            PeekMut::pop(top);
            self.repeats_armed -= 1;
            return Some(Popped::Repeat(RepeatTick { key, f }));
        }
        let entry = PeekMut::pop(top);
        self.live.remove(&entry.id);
        match entry.task {
            Task::Once(f) => Some(Popped::Once(f)),
            Task::Repeat(_) => unreachable!("matched above"),
        }
    }

    /// Number of live pending timers (tombstones excluded), O(1).
    pub fn len(&self) -> usize {
        self.live.len() + self.repeats_armed
    }

    /// Number of cancelled entries still awaiting reap (diagnostics).
    pub fn tombstones(&self) -> usize {
        self.cancelled.len() + self.repeats_cancelled
    }

    /// Discards everything except a repeat whose callback is running,
    /// which re-arms when it returns.
    pub fn clear(&mut self) {
        self.heap.clear();
        self.live.clear();
        self.cancelled.clear();
        self.repeats_armed = 0;
        self.repeats_cancelled = 0;
        for slot in 0..self.repeats.len() {
            if matches!(self.repeats[slot].state, RepeatState::Armed(_)) {
                self.free(slot as u32);
            }
        }
    }

    fn skip_cancelled(&mut self) {
        while let Some(e) = self.heap.peek() {
            match e.task {
                Task::Once(_) => {
                    if !self.cancelled.remove(&e.id) {
                        break;
                    }
                }
                Task::Repeat(key) => {
                    if self.repeats[key.slot as usize].generation == key.generation {
                        break;
                    }
                    self.repeats_cancelled -= 1;
                }
            }
            self.heap.pop();
        }
    }
}

impl fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("cancelled", &self.tombstones())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::Sim;
    use crate::time::SimTime;
    use std::sync::{Arc, Mutex};

    fn noop() -> TimerFn {
        Box::new(|_| {})
    }

    /// Pops the next entry due by `deadline` and returns the clock it
    /// popped at.
    fn pop_at(q: &mut EventQueue, deadline: SimTime) -> Option<u64> {
        let mut clock = SimTime::ZERO;
        q.pop_if(|at| at <= deadline, &mut clock)
            .map(|_| clock.as_micros())
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(30), noop());
        q.push(SimTime::from_micros(10), noop());
        q.push(SimTime::from_micros(20), noop());
        let times: Vec<_> = (0..3)
            .filter_map(|_| pop_at(&mut q, SimTime::MAX))
            .collect();
        assert_eq!(times, vec![10, 20, 30]);
    }

    #[test]
    fn equal_times_fire_fifo() {
        let sim = Sim::new(1);
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut q = EventQueue::new();
        for tag in ["a", "b"] {
            let log = log.clone();
            q.push(
                SimTime::from_micros(5),
                Box::new(move |_| log.lock().unwrap().push(tag)),
            );
        }
        let mut clock = SimTime::ZERO;
        while let Some(Popped::Once(f)) = q.pop_if(|_| true, &mut clock) {
            f(&sim);
        }
        assert_eq!(*log.lock().unwrap(), vec!["a", "b"]);
    }

    #[test]
    fn deadline_gates_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(100), noop());
        assert!(pop_at(&mut q, SimTime::from_micros(99)).is_none());
        assert!(pop_at(&mut q, SimTime::from_micros(100)).is_some());
    }

    #[test]
    fn cancelled_timers_are_skipped() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), noop());
        q.push(SimTime::from_micros(2), noop());
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert_eq!(pop_at(&mut q, SimTime::MAX), Some(2));
        assert!(pop_at(&mut q, SimTime::MAX).is_none());
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), noop());
        q.push(SimTime::from_micros(9), noop());
        q.cancel(a);
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(9)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_micros(1), noop());
        q.clear();
        assert_eq!(q.len(), 0);
        assert!(q.peek_time().is_none());
    }

    #[test]
    fn cancelling_a_fired_timer_leaves_no_tombstone() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), noop());
        assert_eq!(pop_at(&mut q, SimTime::MAX), Some(1));
        q.cancel(a); // already fired: must not grow the tombstone set
        assert_eq!(q.tombstones(), 0);
        q.cancel(a); // idempotent
        assert_eq!(q.tombstones(), 0);
    }

    #[test]
    fn tombstones_are_reaped_on_pop() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(1), noop());
        q.push(SimTime::from_micros(2), noop());
        q.cancel(a);
        assert_eq!(q.tombstones(), 1);
        assert_eq!(q.len(), 1);
        assert_eq!(pop_at(&mut q, SimTime::MAX), Some(2));
        assert_eq!(q.tombstones(), 0);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn double_cancel_is_single_tombstone() {
        let mut q = EventQueue::new();
        let a = q.push(SimTime::from_micros(5), noop());
        q.cancel(a);
        q.cancel(a);
        assert_eq!(q.tombstones(), 1);
        assert!(pop_at(&mut q, SimTime::MAX).is_none());
        assert_eq!(q.tombstones(), 0);
    }

    #[test]
    fn pop_before_is_strict() {
        let mut q = EventQueue::new();
        let mut clock = SimTime::ZERO;
        q.push(SimTime::from_micros(10), noop());
        assert!(q
            .pop_if(|at| at < SimTime::from_micros(10), &mut clock)
            .is_none());
        assert!(q
            .pop_if(|at| at < SimTime::from_micros(11), &mut clock)
            .is_some());
    }

    #[test]
    fn closed_gate_replays_ticks_in_place() {
        let mut q = EventQueue::new();
        let key = q.push_repeat(
            SimTime::from_micros(10),
            SimDuration::from_micros(10),
            Box::new(|_| {}),
        );
        q.set_wake(key, SimTime::from_micros(30));
        let mut clock = SimTime::ZERO;
        assert!(matches!(q.pop_if(|_| true, &mut clock), Some(Popped::Idle)));
        assert_eq!(clock, SimTime::from_micros(10));
        assert!(matches!(q.pop_if(|_| true, &mut clock), Some(Popped::Idle)));
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(30)));
        assert_eq!(q.len(), 1);
        let Some(Popped::Repeat(tick)) = q.pop_if(|_| true, &mut clock) else {
            panic!("the tick at the wake instant calls back");
        };
        assert_eq!(q.len(), 0, "a firing repeat has no queued tick");
        assert!(q.rearm(tick, clock).is_none());
        assert_eq!(q.peek_time(), Some(SimTime::from_micros(40)));
        // Two arms and two replays took ids 0..4; the next push gets 4.
        assert_eq!(q.push(SimTime::MAX, noop()), TimerId(4));
    }

    #[test]
    fn cancelled_repeat_slot_is_reused_without_confusing_its_tick() {
        let mut q = EventQueue::new();
        let period = SimDuration::from_micros(10);
        let a = q.push_repeat(SimTime::from_micros(10), period, Box::new(|_| {}));
        assert!(q.cancel_repeat(a).is_some());
        assert_eq!((q.len(), q.tombstones()), (0, 1));
        let b = q.push_repeat(SimTime::from_micros(20), period, Box::new(|_| {}));
        assert!(!q.repeat_active(a) && q.repeat_active(b));
        assert!(
            q.cancel_repeat(a).is_none(),
            "a stale key cannot cancel the new tenant"
        );
        assert_eq!(
            q.peek_time(),
            Some(SimTime::from_micros(20)),
            "the old tick is reaped"
        );
        assert_eq!((q.len(), q.tombstones()), (1, 0));
    }
}
