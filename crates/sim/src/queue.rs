//! The event queue and simulation clock.

use cwc_types::Micros;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Scheduled<E> {
    fire_at: Micros,
    seq: u64,
    payload: E,
}

// Order for a *min*-heap via `Reverse`-free manual impl: we implement the
// reversed ordering directly so the `BinaryHeap` pops earliest-first.
impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.fire_at == other.fire_at && self.seq == other.seq
    }
}
impl<E> Eq for Scheduled<E> {}
impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed: smaller (fire_at, seq) is "greater" so it pops first.
        // Ties in fire time break by scheduling order (FIFO), which is what
        // makes simultaneous events deterministic.
        other
            .fire_at
            .cmp(&self.fire_at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event simulation over event payloads of type `E`.
///
/// The simulation owns the virtual clock and the pending-event queue; all
/// domain state lives in the caller's dispatcher closure. Events scheduled
/// for the same instant fire in the order they were scheduled.
pub struct Simulation<E> {
    clock: Micros,
    heap: BinaryHeap<Scheduled<E>>,
    next_seq: u64,
    events_dispatched: u64,
}

impl<E> Default for Simulation<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Simulation<E> {
    /// Creates an empty simulation with the clock at zero.
    pub fn new() -> Self {
        Simulation {
            clock: Micros::ZERO,
            heap: BinaryHeap::new(),
            next_seq: 0,
            events_dispatched: 0,
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> Micros {
        self.clock
    }

    /// Number of events dispatched so far.
    #[inline]
    pub fn events_dispatched(&self) -> u64 {
        self.events_dispatched
    }

    /// Number of events still pending.
    #[inline]
    pub fn pending(&self) -> usize {
        self.heap.len()
    }

    /// Schedules `payload` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling backwards in time is
    /// always a logic error in the caller.
    pub fn schedule_at(&mut self, at: Micros, payload: E) {
        assert!(
            at >= self.clock,
            "cannot schedule event in the past ({} < {})",
            at,
            self.clock
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Scheduled {
            fire_at: at,
            seq,
            payload,
        });
    }

    /// Schedules `payload` to fire after a delay from now.
    pub fn schedule_after(&mut self, delay: Micros, payload: E) {
        let at = self
            .clock
            .checked_add(delay)
            .expect("simulation clock overflow");
        self.schedule_at(at, payload)
    }

    /// Pops the next event, advancing the clock to its fire time.
    /// Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(Micros, E)> {
        let ev = self.heap.pop()?;
        debug_assert!(ev.fire_at >= self.clock, "time went backwards");
        self.clock = ev.fire_at;
        self.events_dispatched += 1;
        Some((ev.fire_at, ev.payload))
    }

    /// Peeks at the fire time of the next event.
    pub fn peek_time(&self) -> Option<Micros> {
        self.heap.peek().map(|s| s.fire_at)
    }

    /// Runs to quiescence, dispatching every event through `handler`.
    ///
    /// The handler receives `&mut Simulation` so it can schedule follow-up
    /// events; this is the main loop of every CWC experiment.
    pub fn run<F>(&mut self, mut handler: F)
    where
        F: FnMut(&mut Simulation<E>, E),
    {
        while let Some((_, ev)) = self.pop() {
            handler(self, ev);
        }
    }

    /// Runs until the clock would pass `deadline` (events at exactly
    /// `deadline` are dispatched). Undispatched events stay queued.
    pub fn run_until<F>(&mut self, deadline: Micros, mut handler: F)
    where
        F: FnMut(&mut Simulation<E>, E),
    {
        loop {
            match self.peek_time() {
                Some(t) if t <= deadline => {
                    let (_, ev) = self.pop().expect("peeked event vanished");
                    handler(self, ev);
                }
                _ => break,
            }
        }
        if self.clock < deadline {
            self.clock = deadline;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_fire_in_time_order() {
        let mut sim = Simulation::new();
        sim.schedule_at(Micros::from_secs(3), "c");
        sim.schedule_at(Micros::from_secs(1), "a");
        sim.schedule_at(Micros::from_secs(2), "b");
        let mut order = Vec::new();
        sim.run(|s, e| order.push((s.now().as_secs_f64() as u64, e)));
        assert_eq!(order, vec![(1, "a"), (2, "b"), (3, "c")]);
    }

    #[test]
    fn simultaneous_events_fire_fifo() {
        let mut sim = Simulation::new();
        let t = Micros::from_secs(5);
        for i in 0..100 {
            sim.schedule_at(t, i);
        }
        let mut order = Vec::new();
        sim.run(|_, e| order.push(e));
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn handler_can_schedule_followups() {
        let mut sim = Simulation::new();
        sim.schedule_at(Micros::from_secs(1), 0u32);
        let mut fired = Vec::new();
        sim.run(|s, n| {
            fired.push((s.now(), n));
            if n < 3 {
                s.schedule_after(Micros::from_secs(1), n + 1);
            }
        });
        assert_eq!(fired.len(), 4);
        assert_eq!(fired[3], (Micros::from_secs(4), 3));
    }

    #[test]
    #[should_panic(expected = "cannot schedule event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut sim = Simulation::new();
        sim.schedule_at(Micros::from_secs(1), ());
        sim.pop();
        sim.schedule_at(Micros::ZERO, ());
    }

    #[test]
    fn run_until_stops_at_deadline_and_advances_clock() {
        let mut sim = Simulation::new();
        sim.schedule_at(Micros::from_secs(1), 1);
        sim.schedule_at(Micros::from_secs(10), 10);
        let mut seen = Vec::new();
        sim.run_until(Micros::from_secs(5), |_, e| seen.push(e));
        assert_eq!(seen, vec![1]);
        assert_eq!(sim.now(), Micros::from_secs(5));
        assert_eq!(sim.pending(), 1);
        // The remaining event still fires afterwards.
        sim.run(|_, e| seen.push(e));
        assert_eq!(seen, vec![1, 10]);
    }

    #[test]
    fn run_until_dispatches_events_at_exact_deadline() {
        let mut sim = Simulation::new();
        sim.schedule_at(Micros::from_secs(5), "edge");
        let mut seen = Vec::new();
        sim.run_until(Micros::from_secs(5), |_, e| seen.push(e));
        assert_eq!(seen, vec!["edge"]);
    }

    #[test]
    fn peek_time_is_the_earliest_pending_event() {
        let mut sim = Simulation::new();
        sim.schedule_at(Micros::from_secs(2), ());
        sim.schedule_at(Micros::from_secs(1), ());
        assert_eq!(sim.peek_time(), Some(Micros::from_secs(1)));
        sim.pop();
        assert_eq!(sim.peek_time(), Some(Micros::from_secs(2)));
        sim.pop();
        assert_eq!(sim.peek_time(), None);
    }

    #[test]
    fn counters_track_activity() {
        let mut sim = Simulation::new();
        sim.schedule_at(Micros::from_secs(1), ());
        sim.schedule_at(Micros::from_secs(2), ());
        assert_eq!(sim.pending(), 2);
        sim.run(|_, _| {});
        assert_eq!(sim.events_dispatched(), 2);
        assert_eq!(sim.pending(), 0);
    }
}
