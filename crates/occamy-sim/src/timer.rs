//! The event queue's scheduling core: a flat near window over the next
//! ≈ 16.8 µs of simulated time, backed by a key-ordered far heap.
//!
//! A discrete-event simulator pushes *near-future* events: a
//! serialization completion a few ns out, an arrival one link
//! propagation away (10 µs in the paper's §6.4 fabrics), a
//! retransmission timer milliseconds ahead. The near window turns the
//! first two into one O(1) placement each: an entry whose tick (its time
//! in 2¹² ps ≈ 4.1 ns units) satisfies `cursor < tick < cursor + SLOTS`
//! is linked into slot `tick mod SLOTS`, and stays there until the
//! cursor reaches that tick. The window is relative to the cursor, not
//! aligned to a power of two, so an arrival never crosses a level
//! boundary: there are no levels and nothing cascades.
//!
//! - **Storage.** Entries live in one slab of `(key, event, next)`
//!   nodes with an intrusive free list; a slot is a `u32` list head.
//!   A 64-word occupancy bitmap and a summary word find the next
//!   occupied slot in a few instructions. No slot owns a buffer, so
//!   memory tracks the peak pending count and nothing is ever shrunk.
//! - **Drain.** The cursor's slot is moved into `ready` and sorted by
//!   full key; the run loop pops from its end.
//! - **Far lane.** Entries at or beyond the window (RTO timers, slow
//!   links, long CBR intervals) wait in a binary heap ordered by key and
//!   migrate into the window as the cursor advances. A link slower
//!   than the span is still exact: its arrivals take this lane.
//!
//! **Ordering is exact, not approximate.** Every entry keeps its full
//! [`Key`]: slots only bucket entries, and a drained slot is sorted
//! before it is served. Merged against the deferred lane by key, runs
//! are bit-for-bit identical to a heap-backed queue — pinned by the
//! fire-order proptest in `tests/timer_wheel.rs` and the golden/shard
//! byte-identity gates.

use crate::event::Event;
use crate::time::Ps;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Queue ordering key: `(time, origin << 48 | per-domain seq)`, the
/// canonical tie-break of [`crate::EventQueue`] (origin domain first, then
/// that domain's push order). Every lane and every domain's queue
/// orders by the same key, so ties break identically everywhere; the
/// wheel itself only compares keys.
pub type Key = (Ps, u64);

/// log2 of a slot's width in picoseconds (≈ 4.1 ns, below one packet
/// serialization time at 100 G).
const GRAN_BITS: u32 = 12;
/// Slots in the near window: it spans `SLOTS << GRAN_BITS` ps ≈ 16.8 µs.
const SLOTS: u64 = 1 << 12;
/// End of a slot list or of the free list.
const NIL: u32 = u32::MAX;

/// One pending entry of the near window.
struct Node {
    key: Key,
    event: Event,
    /// Next node of the same slot (or of the free list).
    next: u32,
}

/// A far-lane entry; the heap is a max-heap, so it orders by reversed key.
struct Far(Key, Event);

impl PartialEq for Far {
    fn eq(&self, other: &Self) -> bool {
        self.0 == other.0
    }
}

impl Eq for Far {}

impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Far {
    fn cmp(&self, other: &Self) -> Ordering {
        other.0.cmp(&self.0)
    }
}

/// Near-window timer wheel holding `(key, event)` entries.
///
/// Invariant: every entry linked into a slot has a tick in
/// `(cursor, cursor + SLOTS)`, every far entry a tick at or beyond
/// `cursor + SLOTS`, and entries at or before the cursor sit in `ready`
/// (sorted descending, popped from the end).
pub(crate) struct TimerWheel {
    /// Absolute tick of the last drained slot.
    cursor: u64,
    /// List head of each slot (`NIL` when empty).
    heads: Box<[u32]>,
    /// Bit `j` of word `w` set ⟺ slot `64·w + j` is non-empty.
    occ: [u64; 64],
    /// Bit `w` set ⟺ `occ[w] != 0`.
    summary: u64,
    /// Node slab; free nodes are chained through `next` from `free`.
    nodes: Vec<Node>,
    free: u32,
    /// Entries linked into slots.
    in_window: usize,
    /// Entries due at or before the cursor, sorted descending by key.
    ready: Vec<(Key, Event)>,
    /// Entries at or beyond the window.
    far: BinaryHeap<Far>,
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            cursor: 0,
            heads: vec![NIL; SLOTS as usize].into_boxed_slice(),
            occ: [0; 64],
            summary: 0,
            nodes: Vec::new(),
            free: NIL,
            in_window: 0,
            ready: Vec::new(),
            far: BinaryHeap::new(),
        }
    }
}

impl TimerWheel {
    /// Pending timer count.
    pub fn len(&self) -> usize {
        self.ready.len() + self.in_window + self.far.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry. `key.0` may be at any time, including before
    /// previously drained slots (the entry then joins `ready` directly).
    #[inline]
    pub fn arm(&mut self, key: Key, event: Event) {
        let tick = key.0 >> GRAN_BITS;
        if tick <= self.cursor {
            let pos = self.ready.partition_point(|e| e.0 > key);
            self.ready.insert(pos, (key, event));
        } else if tick - self.cursor < SLOTS {
            self.link(tick, key, event);
        } else {
            self.far.push(Far(key, event));
        }
    }

    /// The earliest pending key. Does not move the cursor: with `ready`
    /// empty it scans the next occupied slot's short list.
    pub fn peek(&self) -> Option<Key> {
        if let Some(&(k, _)) = self.ready.last() {
            return Some(k);
        }
        match self.next_tick() {
            Some(tick) => {
                let mut i = self.heads[(tick % SLOTS) as usize];
                let mut min = self.nodes[i as usize].key;
                while i != NIL {
                    let n = &self.nodes[i as usize];
                    min = min.min(n.key);
                    i = n.next;
                }
                Some(min)
            }
            None => self.far.peek().map(|f| f.0),
        }
    }

    /// Pops the earliest pending entry if its key is at or before
    /// `bound`. The cursor only advances to a slot that can hold such
    /// an entry, so a probe against a far-off bound leaves later arms
    /// in the window rather than behind the cursor.
    pub fn pop_at_most(&mut self, bound: Key) -> Option<(Key, Event)> {
        loop {
            if let Some(&(k, _)) = self.ready.last() {
                return if k <= bound { self.ready.pop() } else { None };
            }
            let tick = match self.next_tick() {
                Some(tick) => tick,
                None => self.far.peek()?.0 .0 >> GRAN_BITS,
            };
            if tick << GRAN_BITS > bound.0 {
                return None;
            }
            self.advance_to(tick);
        }
    }

    /// Pops the earliest pending entry.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<(Key, Event)> {
        self.pop_at_most((Ps::MAX, u64::MAX))
    }

    /// Links an entry into the slot of `tick`, which lies inside the
    /// window.
    #[inline]
    fn link(&mut self, tick: u64, key: Key, event: Event) {
        let slot = (tick % SLOTS) as usize;
        let node = Node {
            key,
            event,
            next: self.heads[slot],
        };
        let i = if self.free == NIL {
            self.nodes.push(node);
            self.nodes.len() - 1
        } else {
            let i = self.free as usize;
            self.free = self.nodes[i].next;
            self.nodes[i] = node;
            i
        };
        self.heads[slot] = i as u32;
        self.occ[slot >> 6] |= 1 << (slot & 63);
        self.summary |= 1 << (slot >> 6);
        self.in_window += 1;
    }

    /// Tick of the earliest occupied slot: the first set bit at or after
    /// the slot following the cursor's, wrapping around the window.
    #[inline]
    fn next_tick(&self) -> Option<u64> {
        if self.summary == 0 {
            return None;
        }
        let start = ((self.cursor + 1) % SLOTS) as usize;
        let (w, b) = (start >> 6, start & 63);
        let here = self.occ[w] >> b;
        let slot = if here != 0 {
            start + here.trailing_zeros() as usize
        } else {
            // Words after `w`, else wrap to the lowest occupied word
            // (possibly `w` itself, below `b`).
            let after = self.summary & (!0u64).checked_shl(w as u32 + 1).unwrap_or(0);
            let word = if after != 0 { after } else { self.summary }.trailing_zeros() as usize;
            (word << 6) + self.occ[word].trailing_zeros() as usize
        };
        let delta = (slot as u64).wrapping_sub(self.cursor) % SLOTS;
        debug_assert!(delta != 0, "the cursor's own slot is never occupied");
        Some(self.cursor + delta)
    }

    /// Moves the cursor to `tick` (the earliest pending tick), pulls the
    /// far entries the window now reaches into it, and drains the
    /// cursor's slot into `ready`.
    fn advance_to(&mut self, tick: u64) {
        debug_assert!(self.ready.is_empty() && tick > self.cursor);
        self.cursor = tick;
        while let Some(f) = self.far.peek() {
            let t = f.0 .0 >> GRAN_BITS;
            if t >= tick + SLOTS {
                break;
            }
            let Some(Far(key, event)) = self.far.pop() else {
                unreachable!()
            };
            if t == tick {
                self.ready.push((key, event));
            } else {
                self.link(t, key, event);
            }
        }
        let slot = (tick % SLOTS) as usize;
        let mut i = std::mem::replace(&mut self.heads[slot], NIL);
        if i != NIL {
            let (w, b) = (slot >> 6, slot & 63);
            self.occ[w] &= !(1 << b);
            if self.occ[w] == 0 {
                self.summary &= !(1 << w);
            }
        }
        while i != NIL {
            let n = &mut self.nodes[i as usize];
            self.ready.push((n.key, n.event));
            let next = std::mem::replace(&mut n.next, self.free);
            self.free = i;
            self.in_window -= 1;
            i = next;
        }
        if self.ready.len() > 1 {
            self.ready.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{MS, SEC, US};

    fn ev(host: u32) -> Event {
        Event::HostTxFree { host }
    }

    fn drain(w: &mut TimerWheel) -> Vec<Key> {
        std::iter::from_fn(|| w.pop().map(|(k, _)| k)).collect()
    }

    /// The window's span in picoseconds.
    const SPAN: Ps = SLOTS << GRAN_BITS;

    #[test]
    fn pops_in_key_order_across_lanes() {
        let mut w = TimerWheel::default();
        // Same-slot, in-window, window-edge and far distances at once.
        let times = [
            3 * US,
            17 * US,
            SPAN - 1,
            SPAN,
            SPAN + 1,
            MS,
            5 * MS,
            2 * SEC,
            300 * SEC,
        ];
        for (i, &t) in times.iter().enumerate() {
            w.arm((t, i as u64), ev(i as u32));
        }
        assert_eq!(w.len(), times.len());
        let keys = drain(&mut w);
        let mut want: Vec<Key> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, i as u64))
            .collect();
        want.sort_unstable();
        assert_eq!(keys, want);
        assert!(w.is_empty());
    }

    #[test]
    fn equal_times_pop_in_seq_order() {
        let mut w = TimerWheel::default();
        for seq in [4u64, 1, 3, 0, 2] {
            w.arm((7 * MS, seq), ev(seq as u32));
        }
        let keys = drain(&mut w);
        assert_eq!(keys, (0..5).map(|s| (7 * MS, s)).collect::<Vec<_>>());
    }

    #[test]
    fn arm_behind_cursor_joins_ready_in_order() {
        let mut w = TimerWheel::default();
        w.arm((50 * MS, 0), ev(0));
        w.arm((50 * MS + 1, 1), ev(1));
        // Popping moves the cursor to the 50 ms slot.
        assert_eq!(w.pop().map(|e| e.0), Some((50 * MS, 0)));
        // Later arms at earlier times must still pop first.
        w.arm((10 * MS, 2), ev(2));
        w.arm((50 * MS - 1, 3), ev(3));
        let keys = drain(&mut w);
        assert_eq!(keys, vec![(10 * MS, 2), (50 * MS - 1, 3), (50 * MS + 1, 1)]);
    }

    #[test]
    fn peek_and_bounded_pop_leave_the_cursor() {
        let mut w = TimerWheel::default();
        w.arm((5 * MS, 0), ev(0));
        w.arm((3 * US, 1), ev(1));
        assert_eq!(w.peek(), Some((3 * US, 1)));
        assert!(w.pop_at_most((2 * US, u64::MAX)).is_none());
        assert_eq!(w.cursor, 0, "a bounded probe moved the cursor");
        assert_eq!(w.pop_at_most((3 * US, 1)).map(|e| e.0), Some((3 * US, 1)));
        assert_eq!(w.peek(), Some((5 * MS, 0)));
        assert!(w.pop_at_most((MS, 0)).is_none());
        assert_eq!(w.cursor, (3 * US) >> GRAN_BITS);
    }

    #[test]
    fn interleaved_arm_and_pop_keeps_order() {
        // A deterministic xorshift mix of arms and pops; every popped
        // key must be ≥ the previous pop and match a model list.
        let mut w = TimerWheel::default();
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut seq = 0u64;
        let mut popped: Vec<Key> = Vec::new();
        let mut pending: Vec<Key> = Vec::new();
        let mut now = 0u64;
        for _ in 0..2_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Arm 0–2 timers relative to the current virtual time, at
            // in-window and far distances.
            for _ in 0..(x % 3) {
                let scale = if x & 64 == 0 { 3 * SEC } else { 2 * SPAN };
                let key = (now + (x >> 8) % scale, seq);
                w.arm(key, ev(0));
                pending.push(key);
                seq += 1;
            }
            if x % 5 < 2 {
                if let Some((k, _)) = w.pop() {
                    now = k.0; // simulated clock follows fires
                    popped.push(k);
                }
            }
        }
        popped.extend(drain(&mut w));
        pending.sort_unstable();
        assert_eq!(popped, pending);
    }

    #[test]
    fn storage_tracks_the_peak_pending_count() {
        // Steady state of a transport run: 2 000 timers, each re-armed
        // 3 ms past the clock whenever it fires, plus a packet-scale
        // entry a few µs out per fire, then a full drain. Nothing a
        // burst allocated may stay above twice the peak pending count.
        let mut w = TimerWheel::default();
        let n = 2_000u64;
        for i in 0..n {
            w.arm((3 * MS + i * 1_499, i), ev(0));
        }
        let mut peak = w.len();
        for seq in n..n + 200_000 {
            let ((now, _), e) = w.pop().expect("timers re-arm forever");
            let delay = match e {
                Event::HostTxFree { host: 0 } => 3 * MS + seq % 7_919,
                _ => continue,
            };
            w.arm((now + delay, seq), ev(0));
            if seq % 3 == 0 {
                w.arm((now + (seq % 11) * US, seq | 1 << 40), ev(1));
            }
            peak = peak.max(w.len());
        }
        drain(&mut w);
        for (what, cap) in [
            ("slab", w.nodes.capacity()),
            ("far heap", w.far.capacity()),
            ("ready", w.ready.capacity()),
        ] {
            assert!(cap <= 2 * peak, "{what} kept {cap} entries, peak {peak}");
        }
    }

    #[test]
    fn len_tracks_all_lanes() {
        let mut w = TimerWheel::default();
        assert!(w.is_empty());
        w.arm((US, 0), ev(0));
        w.arm((SEC, 1), ev(1));
        w.arm((400 * SEC, 2), ev(2));
        assert_eq!(w.len(), 3);
        w.pop();
        assert_eq!(w.len(), 2);
        drain(&mut w);
        assert!(w.is_empty());
    }
}
