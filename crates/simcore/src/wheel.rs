//! The kernel's event queue: a hierarchical timing wheel over a slab
//! arena, with a small overflow heap for far-future timers.
//!
//! # Why not a binary heap?
//!
//! The original queue was `BinaryHeap<Reverse<EventEntry>>`: every push
//! and pop is O(log n) comparator traffic over boxed entries, and every
//! entry is a fresh heap allocation. At the hundreds of millions of
//! events the macro-serving scenarios schedule, both costs dominate the
//! kernel profile. The wheel makes push O(1), pop amortized O(1) for the
//! dense-timer common case, and — together with the [`Slab`] free list —
//! allocation-free in steady state.
//!
//! # Structure
//!
//! Virtual time is bucketed into *ticks* of 2^[`TICK_SHIFT`] ns (1.024 µs).
//! Six levels of 64 slots each cover `64^6` ticks (~19.5 hours of virtual
//! time) relative to the wheel's cursor; each level-`k` slot spans `64^k`
//! ticks. An event lands in the level whose slot span matches the highest
//! bit in which its tick differs from the cursor (the hashed hierarchical
//! scheme of the Varghese & Lauck paper and the Linux/Tokio timer wheels).
//! Draining a higher-level slot *cascades* its events down; draining a
//! level-0 slot *stages* its events into a sorted front run. Events more
//! than the wheel range ahead wait in a small `BinaryHeap` and migrate in
//! as the cursor approaches. Per-level occupancy bitmaps make "next
//! non-empty slot" one `trailing_zeros` per level, so idle regions are
//! skipped in O(levels), not O(ticks).
//!
//! # Exact ordering
//!
//! The simulator's determinism contract is total `(time, seq)` order, not
//! tick order. Ticks only *group* events: a staged front run is sorted by
//! exact `(time, seq)` before delivery, and a push that lands at or
//! before the cursor (e.g. a zero-latency send at the current instant) is
//! merge-inserted into the front run at its exact position. Pop order is
//! therefore byte-identical to the old binary heap's.
//!
//! # Sharding seam
//!
//! The wheel is a plain value owned by the kernel state — one per
//! simulation today, one per shard tomorrow: nothing in here touches
//! global state, and handles are dense `u32`s. See DESIGN.md, "Kernel
//! internals".

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;

use crate::slab::{Slab, NIL};
use crate::time::SimTime;

/// log2 of the tick length in nanoseconds (2^10 = 1.024 µs per tick).
const TICK_SHIFT: u32 = 10;
/// log2 of the slots per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels; beyond `64^LEVELS` ticks events overflow to
/// the far-future heap.
const LEVELS: usize = 6;
/// The wheel's range in ticks, relative to the cursor.
const RANGE: u64 = 1 << (LEVEL_BITS * LEVELS as u32);

fn tick_of(t: SimTime) -> u64 {
    t.as_nanos() >> TICK_SHIFT
}

struct Node<T> {
    time: SimTime,
    seq: u64,
    /// Next node in the same slot list (slot lists are unordered; order is
    /// imposed when the slot is staged). Doubles as free-list link inside
    /// the slab.
    next: u32,
    payload: T,
}

struct Level {
    /// Bit `s` set ⇔ `slots[s]` is non-empty.
    occupied: u64,
    /// Head of each slot's intrusive singly-linked list.
    slots: [u32; SLOTS],
}

impl Level {
    fn new() -> Level {
        Level { occupied: 0, slots: [NIL; SLOTS] }
    }
}

/// Allocation accounting for the event queue, for zero-allocation
/// assertions and the kernel bench report (see `Sim::event_queue_stats`).
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct EventQueueStats {
    /// Arena nodes created fresh (each one was a real allocation inside
    /// the slab's backing `Vec`). Plateaus at the high-water mark of
    /// simultaneously pending events.
    pub allocated_nodes: u64,
    /// Pushes served from the free list — no heap traffic.
    pub recycled_pushes: u64,
    /// Arena high-water mark (total slots).
    pub capacity: usize,
    /// Events currently pending.
    pub len: usize,
    /// Events parked in the far-future overflow heap.
    pub overflow_len: usize,
    /// Run-token passes from one process thread to another, each a host
    /// thread switch (filled in by `Sim::event_queue_stats`; the kick-off
    /// from and return to the `Sim::run_*` caller are not counted).
    pub handoffs: u64,
    /// Scheduling steps that picked the blocking process itself, so it
    /// kept running with no thread switch (filled in by the kernel).
    pub self_handoffs: u64,
}

/// A hierarchical timing wheel delivering `(time, seq, payload)` entries
/// in exact ascending `(time, seq)` order.
///
/// `peek`/`pop` take `&mut self`: finding the next entry may advance the
/// wheel cursor and stage a slot (pure internal bookkeeping — the set of
/// pending entries and their delivery order never change because of it).
pub struct TimingWheel<T> {
    slab: Slab<Node<T>>,
    levels: [Level; LEVELS],
    /// All wheel/overflow entries have tick ≥ cursor; everything earlier
    /// has been staged into `front` or delivered.
    cursor: u64,
    /// Staged entries, sorted *descending* by `(time, seq)` so the next
    /// one to deliver is `front.last()`. Capacity is reused across runs.
    front: Vec<u32>,
    /// Entries more than [`RANGE`] ticks ahead of the cursor.
    overflow: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    len: usize,
}

impl<T> TimingWheel<T> {
    /// An empty queue.
    pub fn new() -> TimingWheel<T> {
        TimingWheel {
            slab: Slab::new(),
            levels: std::array::from_fn(|_| Level::new()),
            cursor: 0,
            front: Vec::new(),
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no entry is pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Allocation and occupancy accounting.
    pub fn stats(&self) -> EventQueueStats {
        EventQueueStats {
            allocated_nodes: self.slab.allocated(),
            recycled_pushes: self.slab.recycled(),
            capacity: self.slab.capacity(),
            len: self.len,
            overflow_len: self.overflow.len(),
            handoffs: 0,
            self_handoffs: 0,
        }
    }

    /// Schedules `payload` at `(time, seq)`. `seq` values must be unique
    /// (the kernel hands out a fresh sequence number per event); `time`
    /// must not precede the last popped entry's time.
    pub fn push(&mut self, time: SimTime, seq: u64, payload: T) {
        let idx = self.slab.insert(Node { time, seq, next: NIL, payload });
        self.len += 1;
        let tk = tick_of(time);
        if tk < self.cursor {
            // At or before the tick currently being delivered (e.g. a
            // zero-latency send at the current instant): merge into the
            // staged run at its exact (time, seq) position.
            self.stage_sorted(idx);
        } else {
            self.insert_wheel(idx, tk);
        }
    }

    /// The next entry in `(time, seq)` order, without removing it.
    pub fn peek(&mut self) -> Option<(SimTime, u64, &T)> {
        if self.front.is_empty() {
            self.advance();
        }
        self.front.last().map(|&idx| {
            let n = self.slab.get(idx);
            (n.time, n.seq, &n.payload)
        })
    }

    /// Removes and returns the next entry in `(time, seq)` order.
    pub fn pop(&mut self) -> Option<(SimTime, u64, T)> {
        if self.front.is_empty() {
            self.advance();
        }
        let idx = self.front.pop()?;
        self.len -= 1;
        let n = self.slab.remove(idx);
        Some((n.time, n.seq, n.payload))
    }

    /// Inserts a sorted-position entry into the staged front run.
    fn stage_sorted(&mut self, idx: u32) {
        let slab = &self.slab;
        let key = {
            let n = slab.get(idx);
            (n.time, n.seq)
        };
        // `front` is descending; find the first position whose key is not
        // greater than ours and insert before it.
        let pos = self.front.partition_point(|&i| {
            let n = slab.get(i);
            (n.time, n.seq) > key
        });
        self.front.insert(pos, idx);
    }

    /// Hangs `idx` (tick `tk`, `tk >= cursor`) off the right wheel slot,
    /// or parks it in the overflow heap when out of range.
    fn insert_wheel(&mut self, idx: u32, tk: u64) {
        debug_assert!(tk >= self.cursor);
        let masked = tk ^ self.cursor;
        if masked >= RANGE {
            let n = self.slab.get(idx);
            self.overflow.push(Reverse((n.time, n.seq, idx)));
            return;
        }
        let level =
            if masked == 0 { 0 } else { ((63 - masked.leading_zeros()) / LEVEL_BITS) as usize };
        let slot = ((tk >> (LEVEL_BITS * level as u32)) & (SLOTS as u64 - 1)) as usize;
        let lv = &mut self.levels[level];
        self.slab.get_mut(idx).next = lv.slots[slot];
        lv.slots[slot] = idx;
        lv.occupied |= 1 << slot;
    }

    /// Detaches a slot's list, returning its head and clearing occupancy.
    fn take_slot(&mut self, level: usize, slot: usize) -> u32 {
        let lv = &mut self.levels[level];
        lv.occupied &= !(1 << slot);
        std::mem::replace(&mut lv.slots[slot], NIL)
    }

    /// Advances the cursor to the next pending entry and stages its
    /// level-0 slot into `front`. No-op when nothing is pending.
    fn advance(&mut self) {
        debug_assert!(self.front.is_empty());
        loop {
            // Migrate far-future entries that have come into range.
            while let Some(&Reverse((t, _, _))) = self.overflow.peek() {
                if tick_of(t) ^ self.cursor < RANGE {
                    let Reverse((_, _, idx)) = self.overflow.pop().expect("peeked overflow");
                    self.insert_wheel(idx, tick_of(t));
                } else {
                    break;
                }
            }
            // The earliest occupied slot across levels, by slot-start tick.
            let mut best: Option<(usize, usize, u64)> = None;
            for level in 0..LEVELS {
                let lv = &self.levels[level];
                if lv.occupied == 0 {
                    continue;
                }
                let shift = LEVEL_BITS * level as u32;
                let pos = (self.cursor >> shift) & (SLOTS as u64 - 1);
                // Every occupied slot sits at or past the cursor's
                // position in this level (earlier slots were drained
                // before the cursor moved past them).
                let ahead = lv.occupied & !((1u64 << pos) - 1);
                debug_assert!(ahead != 0, "stale occupancy behind the cursor");
                let slot = ahead.trailing_zeros() as u64;
                let window = !((1u64 << (shift + LEVEL_BITS)).wrapping_sub(1));
                let start = (self.cursor & window) | (slot << shift);
                // On equal start prefer the *higher* level: cascading it
                // first merges its same-tick events down into the level-0
                // slot before that slot is staged, keeping exact order.
                if best.is_none_or(|(_, _, b)| start <= b) {
                    best = Some((level, slot as usize, start));
                }
            }
            match best {
                None => {
                    // Wheel empty: jump to the overflow's region (the next
                    // loop iteration migrates it in), or finish.
                    match self.overflow.peek() {
                        Some(&Reverse((t, _, _))) => self.cursor = tick_of(t),
                        None => return,
                    }
                }
                Some((0, slot, start)) => {
                    // Stage the level-0 slot: one tick's worth of entries,
                    // sorted by exact (time, seq), descending for pop().
                    let mut idx = self.take_slot(0, slot);
                    while idx != NIL {
                        self.front.push(idx);
                        idx = self.slab.get(idx).next;
                    }
                    let slab = &self.slab;
                    self.front.sort_unstable_by(|&a, &b| {
                        let (na, nb) = (slab.get(a), slab.get(b));
                        (nb.time, nb.seq).cmp(&(na.time, na.seq))
                    });
                    self.cursor = start + 1;
                    return;
                }
                Some((level, slot, start)) => {
                    // Cascade a higher-level slot down.
                    debug_assert!(start >= self.cursor);
                    self.cursor = start;
                    let mut idx = self.take_slot(level, slot);
                    while idx != NIL {
                        let node = self.slab.get(idx);
                        let (next, tk) = (node.next, tick_of(node.time));
                        self.insert_wheel(idx, tk);
                        idx = next;
                    }
                }
            }
        }
    }
}

impl<T> Default for TimingWheel<T> {
    fn default() -> Self {
        TimingWheel::new()
    }
}

impl<T> fmt::Debug for TimingWheel<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TimingWheel")
            .field("len", &self.len)
            .field("cursor", &self.cursor)
            .field("staged", &self.front.len())
            .field("overflow", &self.overflow.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    /// Reference model: the old binary-heap queue.
    #[derive(Default)]
    struct HeapQueue {
        heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    }

    impl HeapQueue {
        fn push(&mut self, time: SimTime, seq: u64, payload: u32) {
            self.heap.push(Reverse((time, seq, payload)));
        }
        fn pop(&mut self) -> Option<(SimTime, u64, u32)> {
            self.heap.pop().map(|Reverse(e)| e)
        }
    }

    /// A deterministic xorshift so the test needs no RNG plumbing.
    struct XorShift(u64);
    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x
        }
    }

    #[test]
    fn matches_binary_heap_across_magnitudes() {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut heap = HeapQueue::default();
        let mut rng = XorShift(0x9E3779B97F4A7C15);
        let mut now = SimTime::ZERO;
        for round in 0..5000u32 {
            // Mixed-magnitude delays: same-instant up to hours ahead.
            let delay_ns = match rng.next() % 7 {
                0 => 0,
                1 => rng.next() % 1_000,             // sub-tick
                2 => rng.next() % 100_000,           // µs scale
                3 => rng.next() % 100_000_000,       // ms scale
                4 => rng.next() % 10_000_000_000,    // seconds
                5 => rng.next() % 7_200_000_000_000, // hours
                _ => 80_000_000_000_000 + rng.next() % 1_000_000_000, // overflow range
            };
            let t = now + Duration::from_nanos(delay_ns);
            wheel.push(t, round as u64, round);
            heap.push(t, round as u64, round);
            // Interleave pops to move the cursor.
            if rng.next().is_multiple_of(3) {
                let got = wheel.pop();
                let want = heap.pop();
                assert_eq!(
                    got, want,
                    "pop divergence at round {round} (wheel {got:?} vs heap {want:?})"
                );
                if let Some((t, _, _)) = got {
                    now = t;
                }
            }
        }
        while let Some(want) = heap.pop() {
            let got = wheel.pop().expect("wheel has as many entries as the heap");
            assert_eq!(got, want);
        }
        assert!(wheel.is_empty());
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn same_instant_pushes_merge_into_the_staged_run() {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let t = SimTime::from_micros(100);
        wheel.push(t, 0, 0);
        wheel.push(t + Duration::from_nanos(5), 2, 2);
        // Stage the run, deliver the first entry.
        assert_eq!(wheel.pop(), Some((t, 0, 0)));
        // A zero-latency send at the delivered instant must order between
        // the staged entries.
        wheel.push(t, 1, 1);
        assert_eq!(wheel.pop(), Some((t, 1, 1)));
        assert_eq!(wheel.pop(), Some((t + Duration::from_nanos(5), 2, 2)));
        assert_eq!(wheel.pop(), None);
    }

    #[test]
    fn peek_is_stable_and_matches_pop() {
        let mut wheel: TimingWheel<&'static str> = TimingWheel::new();
        wheel.push(SimTime::from_millis(5), 1, "late");
        wheel.push(SimTime::from_micros(1), 0, "early");
        assert_eq!(
            wheel.peek().map(|(t, s, &p)| (t, s, p)),
            Some((SimTime::from_micros(1), 0, "early"))
        );
        assert_eq!(
            wheel.peek().map(|(t, s, &p)| (t, s, p)),
            Some((SimTime::from_micros(1), 0, "early"))
        );
        assert_eq!(wheel.pop(), Some((SimTime::from_micros(1), 0, "early")));
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(5), 1, "late")));
    }

    #[test]
    fn far_future_timers_park_in_overflow_and_migrate_back() {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        // ~23 hours ahead: beyond the wheel range from cursor 0.
        let far = SimTime::from_secs(23 * 3600);
        wheel.push(far, 0, 7);
        assert_eq!(wheel.stats().overflow_len, 1);
        wheel.push(SimTime::from_millis(1), 1, 1);
        assert_eq!(wheel.pop(), Some((SimTime::from_millis(1), 1, 1)));
        assert_eq!(wheel.pop(), Some((far, 0, 7)));
        assert_eq!(wheel.stats().overflow_len, 0);
    }

    #[test]
    fn steady_state_timer_churn_is_allocation_free() {
        let mut wheel: TimingWheel<u64> = TimingWheel::new();
        let mut now = SimTime::ZERO;
        let mut seq = 0u64;
        // Warm up: a working set of 64 in-flight timers across magnitudes,
        // churned long enough to touch every level's slot vectors.
        let warm = |wheel: &mut TimingWheel<u64>, now: &mut SimTime, seq: &mut u64, n: u64| {
            for i in 0..n {
                let d = 1 + (i % 13) * 700_001 + (i % 7) * 1_000_000_000;
                wheel.push(*now + Duration::from_nanos(d), *seq, i);
                *seq += 1;
                if wheel.len() > 64 {
                    let (t, _, _) = wheel.pop().expect("pending");
                    *now = t;
                }
            }
        };
        warm(&mut wheel, &mut now, &mut seq, 10_000);
        let allocated = wheel.stats().allocated_nodes;
        warm(&mut wheel, &mut now, &mut seq, 100_000);
        let after = wheel.stats();
        assert_eq!(
            after.allocated_nodes, allocated,
            "steady-state scheduling allocated fresh nodes: {after:?}"
        );
        assert!(after.recycled_pushes > 100_000, "churn must ride the free list: {after:?}");
    }
}
