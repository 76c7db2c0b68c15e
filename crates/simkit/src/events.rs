//! Discrete-event calendar: the heap-scheduled core of [`Sim`].
//!
//! An [`EventQueue`] holds timestamped pending completions — journal
//! commit timers, gauge sampling points, per-session wakeups — and
//! yields them in a *deterministic total order*. Three pieces make the
//! order total and reproducible:
//!
//! * **The key.** Every event is ordered by an [`EventKey`]
//!   `(time, host, seq)`: virtual due time first, then the owning
//!   [`HostId`] (so equal-time completions on different machines fire
//!   in stable host order), then a monotonically assigned enqueue
//!   sequence number that makes every key unique. Because no two keys
//!   ever compare equal, the binary heap's pop order is a pure
//!   function of the schedule calls — never of allocation addresses or
//!   heap internals. Rule D6 (DESIGN.md §8, checked by `detlint`)
//!   bans ordering raw `SimTime` keys in a heap without this wrapper.
//! * **The arena.** Event records live in a slab (`Vec` of slots)
//!   addressed by [`EventId`] handles; a free list recycles slots and
//!   a per-slot generation counter invalidates stale handles. No
//!   per-event boxing, no pointer identity anywhere near the ordering.
//! * **Lazy cancellation.** [`cancel`](EventQueue::cancel) frees the
//!   slot immediately but leaves the heap entry in place; `pop` skips
//!   entries whose slot no longer carries the matching generation and
//!   key. Rescheduling is cancel + schedule under a fresh `seq`, so a
//!   moved event re-enters the total order exactly as if it had been
//!   scheduled at its new time from the start.
//!
//! [`Sim`]: crate::Sim
//! [`HostId`]: crate::HostId

use crate::clock::SimTime;
use crate::trace::HostId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Total-order key for one scheduled event: due time, then owning
/// host, then enqueue sequence. Keys are unique (the queue assigns
/// `seq` monotonically), so comparing two keys never ties.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventKey {
    /// Virtual time at which the event is due.
    pub time: SimTime,
    /// Host the completion belongs to; equal-time events fire in
    /// ascending host order.
    pub host: HostId,
    /// Monotonic enqueue counter — the final, always-distinct
    /// tie-break.
    pub seq: u64,
}

/// Stable handle to a scheduled event. Slot index plus generation:
/// the generation is bumped every time the slot is freed, so a handle
/// held across a cancel (or a pop) of its event can never alias a
/// later occupant of the same slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventId {
    slot: u32,
    gen: u32,
}

impl EventId {}

/// Occupancy of one arena slot.
enum Slot<T> {
    /// Slot is on the free list; `next` chains to the next free slot.
    Free { next: Option<u32> },
    /// Slot holds a live event.
    Live { key: EventKey, payload: T },
}

/// One arena record: generation counter plus occupancy.
struct SlotRec<T> {
    gen: u32,
    state: Slot<T>,
}

/// Counters describing a queue's lifetime activity; hostbench reports
/// them per operation (`simkit.events.fired_per_op`, `.stale_ratio`,
/// `.max_heap`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Events scheduled (including the schedule half of reschedules).
    pub scheduled: u64,
    /// Events popped live.
    pub fired: u64,
    /// Events canceled before firing (including the cancel half of
    /// reschedules).
    pub canceled: u64,
    /// Stale heap entries skipped during pops.
    pub stale_skipped: u64,
    /// High-water mark of the heap (live + stale entries).
    pub max_heap: usize,
}

/// Binary-heap event queue with arena-allocated records. See the
/// [module docs](self) for the ordering and memory contract.
pub struct EventQueue<T> {
    /// Min-heap of `(key, slot, gen)`. The key alone decides the
    /// order; slot and generation identify the arena record so a pop
    /// can tell a live entry from a stale one left by `cancel`.
    heap: BinaryHeap<Reverse<(EventKey, u32, u32)>>,
    slots: Vec<SlotRec<T>>,
    free_head: Option<u32>,
    next_seq: u64,
    live: usize,
    stats: EventQueueStats,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> std::fmt::Debug for EventQueue<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("live", &self.live)
            .field("heap", &self.heap.len())
            .field("slots", &self.slots.len())
            .finish()
    }
}

impl<T> EventQueue<T> {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slots: Vec::new(),
            free_head: None,
            next_seq: 0,
            live: 0,
            stats: EventQueueStats::default(),
        }
    }

    /// An empty queue with room for `cap` events before the arena or
    /// heap reallocate.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: BinaryHeap::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            free_head: None,
            next_seq: 0,
            live: 0,
            stats: EventQueueStats::default(),
        }
    }

    /// Number of live (scheduled, not canceled) events. Public for the
    /// calendar property tests (`tests/events_props.rs`, also under Miri).
    pub fn len(&self) -> usize {
        self.live
    }

    /// Whether no live events are pending. Public for the calendar
    /// property tests.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Lifetime activity counters.
    pub fn stats(&self) -> EventQueueStats {
        self.stats
    }

    /// Schedules `payload` at `(time, host)` and returns its handle.
    /// The assigned key is strictly greater than every key assigned
    /// before it at the same `(time, host)`.
    pub fn schedule(&mut self, time: SimTime, host: HostId, payload: T) -> EventId {
        let key = EventKey {
            time,
            host,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        let slot = match self.free_head.take() {
            Some(s) => {
                let rec = &mut self.slots[s as usize];
                let Slot::Free { next } = rec.state else {
                    unreachable!("free list points at a live slot");
                };
                self.free_head = next;
                rec.state = Slot::Live { key, payload };
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("event arena overflow");
                self.slots.push(SlotRec {
                    gen: 0,
                    state: Slot::Live { key, payload },
                });
                s
            }
        };
        let gen = self.slots[slot as usize].gen;
        self.heap.push(Reverse((key, slot, gen)));
        self.live += 1;
        self.stats.scheduled += 1;
        self.stats.max_heap = self.stats.max_heap.max(self.heap.len());
        EventId { slot, gen }
    }

    /// Cancels a pending event, returning its payload, or `None` if
    /// the handle is stale (already fired, canceled, or rescheduled).
    /// The heap entry is removed lazily on a later pop.
    pub fn cancel(&mut self, id: EventId) -> Option<T> {
        let rec = self.slots.get_mut(id.slot as usize)?;
        if rec.gen != id.gen || !matches!(rec.state, Slot::Live { .. }) {
            return None;
        }
        let state = std::mem::replace(
            &mut rec.state,
            Slot::Free {
                next: self.free_head,
            },
        );
        let Slot::Live { payload, .. } = state else {
            unreachable!()
        };
        rec.gen = rec.gen.wrapping_add(1);
        self.free_head = Some(id.slot);
        self.live -= 1;
        self.stats.canceled += 1;
        Some(payload)
    }

    /// Moves a pending event to `(time, host)`, assigning a fresh
    /// `seq` (the event re-enters the total order as if newly
    /// scheduled). Returns the new handle, or `None` if `id` is
    /// stale.
    pub fn reschedule(&mut self, id: EventId, time: SimTime, host: HostId) -> Option<EventId> {
        let payload = self.cancel(id)?;
        Some(self.schedule(time, host, payload))
    }

    /// The key of a pending event, or `None` if the handle is stale.
    /// Public for the calendar property tests.
    pub fn key_of(&self, id: EventId) -> Option<EventKey> {
        let rec = self.slots.get(id.slot as usize)?;
        if rec.gen != id.gen {
            return None;
        }
        match rec.state {
            Slot::Live { key, .. } => Some(key),
            Slot::Free { .. } => None,
        }
    }

    /// Whether `id` names a pending event.
    pub fn contains(&self, id: EventId) -> bool {
        self.key_of(id).is_some()
    }

    /// The earliest pending key, discarding stale heap entries along
    /// the way.
    pub(crate) fn peek(&mut self) -> Option<EventKey> {
        loop {
            let &Reverse((key, slot, gen)) = self.heap.peek()?;
            if self.entry_is_live(key, slot, gen) {
                return Some(key);
            }
            self.heap.pop();
            self.stats.stale_skipped += 1;
        }
    }

    /// Pops the earliest pending event.
    pub fn pop(&mut self) -> Option<(EventKey, T)> {
        loop {
            let Reverse((key, slot, gen)) = self.heap.pop()?;
            if !self.entry_is_live(key, slot, gen) {
                self.stats.stale_skipped += 1;
                continue;
            }
            return Some((key, self.take_slot(slot)));
        }
    }

    /// Pops the earliest pending event if it is due at or before
    /// `target`; leaves the queue untouched otherwise.
    pub(crate) fn pop_due(&mut self, target: SimTime) -> Option<(EventKey, T)> {
        if self.peek()?.time > target {
            return None;
        }
        self.pop()
    }

    fn entry_is_live(&self, key: EventKey, slot: u32, gen: u32) -> bool {
        match &self.slots[slot as usize] {
            SlotRec {
                gen: g,
                state: Slot::Live { key: k, .. },
            } => *g == gen && *k == key,
            _ => false,
        }
    }

    /// Frees `slot` (known live) and returns its payload.
    fn take_slot(&mut self, slot: u32) -> T {
        let rec = &mut self.slots[slot as usize];
        let state = std::mem::replace(
            &mut rec.state,
            Slot::Free {
                next: self.free_head,
            },
        );
        let Slot::Live { payload, .. } = state else {
            unreachable!("take_slot on a free slot")
        };
        rec.gen = rec.gen.wrapping_add(1);
        self.free_head = Some(slot);
        self.live -= 1;
        self.stats.fired += 1;
        payload
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimDuration;

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(t(30), HostId::SERVER, "c");
        q.schedule(t(10), HostId::SERVER, "a");
        q.schedule(t(20), HostId::SERVER, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
        assert!(q.is_empty());
    }

    #[test]
    fn equal_time_ties_break_on_host_then_seq() {
        let mut q = EventQueue::new();
        q.schedule(t(5), HostId::client(1), "c2.first");
        q.schedule(t(5), HostId::SERVER, "server");
        q.schedule(t(5), HostId::client(1), "c2.second");
        q.schedule(t(5), HostId::client(0), "c1");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["server", "c1", "c2.first", "c2.second"]);
    }

    #[test]
    fn cancel_removes_and_invalidates_handle() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), HostId::SERVER, 1);
        let b = q.schedule(t(2), HostId::SERVER, 2);
        assert_eq!(q.cancel(a), Some(1));
        assert_eq!(q.cancel(a), None, "second cancel is a no-op");
        assert!(!q.contains(a));
        assert!(q.contains(b));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((q_key(t(2), HostId::SERVER, 1), 2)));
        assert_eq!(q.pop(), None);
    }

    fn q_key(time: SimTime, host: HostId, seq: u64) -> EventKey {
        EventKey { time, host, seq }
    }

    #[test]
    fn slot_reuse_never_resurrects_old_handle() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), HostId::SERVER, "a");
        q.cancel(a);
        // The freed slot is recycled for a new event...
        let b = q.schedule(t(2), HostId::SERVER, "b");
        assert_eq!(b.slot, a.slot, "arena recycles the freed slot");
        // ...but the old handle stays dead.
        assert!(!q.contains(a));
        assert_eq!(q.cancel(a), None);
        assert_eq!(q.key_of(a), None);
        assert!(q.contains(b));
    }

    #[test]
    fn reschedule_moves_event_with_fresh_seq() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(10), HostId::SERVER, "a");
        q.schedule(t(5), HostId::SERVER, "b");
        let a2 = q.reschedule(a, t(1), HostId::SERVER).unwrap();
        assert!(!q.contains(a), "old handle dies on reschedule");
        assert_eq!(q.key_of(a2).unwrap().time, t(1));
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, p)| p)).collect();
        assert_eq!(order, vec!["a", "b"]);
    }

    #[test]
    fn pop_due_respects_target() {
        let mut q = EventQueue::new();
        q.schedule(t(10), HostId::SERVER, "a");
        q.schedule(t(20), HostId::SERVER, "b");
        assert_eq!(q.pop_due(t(5)), None);
        assert_eq!(q.pop_due(t(10)).unwrap().1, "a");
        assert_eq!(q.pop_due(t(15)), None);
        assert_eq!(q.pop_due(t(25)).unwrap().1, "b");
        assert!(q.is_empty());
    }

    #[test]
    fn stats_track_activity() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(1), HostId::SERVER, 0);
        q.schedule(t(2), HostId::SERVER, 1);
        q.cancel(a);
        q.pop();
        let s = q.stats();
        assert_eq!(s.scheduled, 2);
        assert_eq!(s.fired, 1);
        assert_eq!(s.canceled, 1);
        assert_eq!(s.stale_skipped, 1, "canceled entry was skipped lazily");
        assert_eq!(s.max_heap, 2);
    }

    #[test]
    fn keys_are_unique_and_monotonic_per_schedule() {
        let mut q = EventQueue::new();
        let a = q.schedule(t(5), HostId::SERVER, ());
        let b = q.schedule(t(5), HostId::SERVER, ());
        let (ka, kb) = (q.key_of(a).unwrap(), q.key_of(b).unwrap());
        assert!(ka < kb, "same (time, host): later schedule sorts later");
        assert_ne!(ka, kb);
    }
}
