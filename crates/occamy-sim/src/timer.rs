//! A hierarchical timer wheel — the event queue's scheduling core.
//!
//! A discrete-event simulator pushes *near-future* events: a
//! serialization completion a few hundred ns out, an arrival one link
//! propagation away, a retransmission timer milliseconds ahead. On a
//! min-heap a near-minimum key is the worst case — every push sifts to
//! near the root, every pop sifts the full depth, and transport-heavy
//! runs keeping tens of thousands of pending RTO timers make that depth
//! O(flows). The wheel turns both operations into O(1) amortized
//! bucketing: an entry lands in a slot indexed by its expiry tick,
//! levels cover geometrically growing horizons, and entries cascade
//! toward level 0 as the cursor advances. The main loop sees the wheel
//! through a single next-deadline probe ([`TimerWheel::peek`]).
//!
//! **Ordering is exact, not approximate.** Every entry keeps its full
//! [`Key`]: slots only bucket entries, and whichever
//! bucket the cursor drains next is sorted before it is served. Merged
//! against the deferred lane by key, runs remain bit-for-bit identical
//! to a heap-backed queue — pinned by the fire-order proptest in
//! `tests/timer_wheel.rs` and the golden/shard byte-identity gates.
//!
//! Geometry: level-0 slots are 2¹² ps ≈ 4.1 ns wide (below one packet
//! serialization time at 100 G, so packet-event buckets hold a few
//! entries), each of the 6 levels has 64 slots, and the wheel spans
//! 2⁴⁸ ps ≈ 281 s from the cursor — beyond the 60 s RTO cap even with
//! backoff. Entries past the span (arbitrary far-future events are
//! legal) fall into a lazily sorted overflow lane that is popped
//! directly, like the deferred lane.

use crate::event::Event;
use crate::time::Ps;

/// Queue ordering key: `(time, origin << 48 | per-domain seq)`, the
/// canonical tie-break of [`crate::event`] (origin domain first, then
/// that domain's push order). Every lane and every domain's queue
/// orders by the same key, so ties break identically everywhere; the
/// wheel itself only compares keys.
pub(crate) type Key = (Ps, u64);

/// log2 of the level-0 slot width in picoseconds (≈ 4.1 ns).
const GRAN_BITS: u32 = 12;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
/// Slot-index mask.
const MASK: u64 = SLOTS as u64 - 1;
/// Capacity (entries) an emptied slot above level 1 keeps.
const PARKED_CAP: usize = 64;
/// Wheel levels; total span is `2^(GRAN_BITS + LEVELS·SLOT_BITS)` ps.
const LEVELS: usize = 6;

/// Hierarchical timer wheel holding `(key, event)` entries.
///
/// All mutating accessors keep one invariant: every entry still sitting
/// in a slot expires at a tick strictly greater than `cursor`, and its
/// level is the highest 6-bit tick group in which its tick differs from
/// the cursor's. Entries at or before the cursor live in `ready`
/// (sorted descending, popped from the end).
pub(crate) struct TimerWheel {
    /// `levels[l][slot]` holds entries whose tick differs from the
    /// cursor's first in bit group `l`.
    levels: Vec<Vec<Vec<(Key, Event)>>>,
    /// Absolute level-0 tick the wheel has advanced to.
    cursor: u64,
    /// Entries due at or before the cursor, sorted descending by key.
    ready: Vec<(Key, Event)>,
    /// Entries beyond the wheel span, sorted lazily (descending).
    overflow: Vec<(Key, Event)>,
    overflow_dirty: bool,
    /// Entry count across all slots (excludes `ready` and `overflow`).
    in_slots: usize,
    /// Per-level slot-occupancy bitmaps: bit `j` set ⟺ `levels[l][j]`
    /// is non-empty. Advancing finds the next occupied slot with one
    /// mask-and-`trailing_zeros` per level instead of a 64-slot scan.
    occ: [u64; LEVELS],
}

impl Default for TimerWheel {
    fn default() -> Self {
        TimerWheel {
            levels: (0..LEVELS)
                .map(|_| (0..SLOTS).map(|_| Vec::new()).collect())
                .collect(),
            cursor: 0,
            ready: Vec::new(),
            overflow: Vec::new(),
            overflow_dirty: false,
            in_slots: 0,
            occ: [0; LEVELS],
        }
    }
}

impl TimerWheel {
    /// Pending timer count.
    pub fn len(&self) -> usize {
        self.ready.len() + self.in_slots + self.overflow.len()
    }

    /// Whether no timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts an entry. `key.0` may be at any time, including before
    /// previously drained slots (the entry then joins `ready` directly).
    pub fn arm(&mut self, key: Key, event: Event) {
        let tick = key.0 >> GRAN_BITS;
        if tick <= self.cursor {
            // Due at or before the wheel position: merge into the ready
            // buffer at its sorted (descending) position.
            let pos = self.ready.partition_point(|e| e.0 > key);
            self.ready.insert(pos, (key, event));
            return;
        }
        let diff = tick ^ self.cursor;
        if diff >> GRAN_DIFF_LIMIT != 0 {
            self.overflow.push((key, event));
            self.overflow_dirty = true;
            return;
        }
        let level = level_of(diff);
        let slot = ((tick >> (SLOT_BITS * level as u32)) & MASK) as usize;
        self.levels[level][slot].push((key, event));
        self.occ[level] |= 1 << slot;
        self.in_slots += 1;
    }

    /// The earliest pending key, advancing the wheel as needed.
    pub fn peek(&mut self) -> Option<Key> {
        let slot_min = self.ready_min();
        let over_min = self.overflow_min();
        match (slot_min, over_min) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }

    /// Pops the earliest pending entry.
    pub fn pop(&mut self) -> Option<(Key, Event)> {
        let slot_min = self.ready_min();
        let over_min = self.overflow_min();
        match (slot_min, over_min) {
            (None, None) => None,
            (Some(_), None) => self.ready.pop(),
            (None, Some(_)) => self.overflow.pop(),
            (Some(a), Some(b)) if a < b => self.ready.pop(),
            _ => self.overflow.pop(),
        }
    }

    /// Minimum key of the slot/ready side, draining slots into `ready`
    /// as the cursor advances.
    fn ready_min(&mut self) -> Option<Key> {
        loop {
            if let Some(&(k, _)) = self.ready.last() {
                return Some(k);
            }
            if self.in_slots == 0 {
                return None;
            }
            self.advance();
        }
    }

    fn overflow_min(&mut self) -> Option<Key> {
        if self.overflow_dirty {
            self.overflow
                .sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
            self.overflow_dirty = false;
        }
        self.overflow.last().map(|e| e.0)
    }

    /// Moves the cursor to the next occupied slot, cascading it toward
    /// level 0 until a tick group can be drained into `ready`. Requires
    /// `in_slots > 0`.
    ///
    /// Key ordering property of the level assignment: an entry sits at
    /// level `l` because its tick agrees with the cursor on every group
    /// above `l` and first differs in group `l` — so every level-`l`
    /// entry expires strictly before every level-`l+1` entry. The
    /// earliest pending slot is therefore the first occupied slot (from
    /// the cursor's index) of the **lowest** occupied level; no
    /// slot-by-slot stepping through empty regions is ever needed.
    fn advance(&mut self) {
        debug_assert!(self.ready.is_empty() && self.in_slots > 0);
        loop {
            let found = (0..LEVELS).find_map(|l| {
                let idx = (self.cursor >> (SLOT_BITS * l as u32)) & MASK;
                let masked = self.occ[l] & (u64::MAX << idx);
                (masked != 0).then(|| (l, masked.trailing_zeros() as usize))
            });
            let Some((l, j)) = found else {
                // All levels empty yet in_slots > 0 would be a broken
                // invariant; bail out rather than spin.
                debug_assert_eq!(self.in_slots, 0, "timer wheel lost entries");
                return;
            };
            let shift = SLOT_BITS * l as u32;
            // Start of the found slot: groups above `l` keep their
            // current values, groups below `l` reset to zero. The
            // cursor's own slot at any level is empty by construction
            // (same-slot arms go to a lower level, same-tick arms to
            // `ready`), so this never moves the cursor backwards.
            let epoch = self.cursor & !(((1u64 << SLOT_BITS) << shift) - 1);
            self.cursor = self.cursor.max(epoch + ((j as u64) << shift));
            // Entries move out of the slot, never its buffer: swapping
            // buffers between slots would let one large cascade, such
            // as a slot full of RTO timers, leave a buffer of its size
            // in every slot it passes through.
            if l == 0 {
                self.ready.append(&mut self.levels[0][j]);
                self.occ[0] &= !(1 << j);
                self.in_slots -= self.ready.len();
                if self.ready.len() > 1 {
                    self.ready.sort_unstable_by_key(|e| std::cmp::Reverse(e.0));
                }
                return;
            }
            // Cascade the slot's entries toward level 0 and rescan.
            let (lower, upper) = self.levels.split_at_mut(l);
            let src = &mut upper[0][j];
            self.occ[l] &= !(1 << j);
            self.in_slots -= src.len();
            for (key, event) in src.drain(..) {
                let tick = key.0 >> GRAN_BITS;
                debug_assert!(tick >= self.cursor);
                if tick == self.cursor {
                    // Due exactly at the new cursor position.
                    let pos = self.ready.partition_point(|e| e.0 > key);
                    self.ready.insert(pos, (key, event));
                    continue;
                }
                let lv = level_of(tick ^ self.cursor);
                debug_assert!(lv < l, "cascade must descend");
                let slot = ((tick >> (SLOT_BITS * lv as u32)) & MASK) as usize;
                lower[lv][slot].push((key, event));
                self.occ[lv] |= 1 << slot;
                self.in_slots += 1;
            }
            // Slots above level 1 fill in bursts and drain at most once
            // per 16.7 µs: release a burst's buffer rather than keep
            // every such slot at its peak for the rest of the run.
            if l >= 2 {
                src.shrink_to(PARKED_CAP);
            }
            if !self.ready.is_empty() {
                return;
            }
        }
    }
}

/// Highest tick span the wheel covers: diffs with bits at or above this
/// position overflow.
const GRAN_DIFF_LIMIT: u32 = SLOT_BITS * LEVELS as u32;

/// Level of a nonzero tick diff: the highest 6-bit group containing a
/// set bit.
#[inline]
fn level_of(diff: u64) -> usize {
    debug_assert!(diff != 0 && diff >> GRAN_DIFF_LIMIT == 0);
    (63 - diff.leading_zeros()) as usize / SLOT_BITS as usize
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

    #[test]
    fn pops_in_key_order_across_levels() {
        let mut w = TimerWheel::default();
        // Same-slot, cross-slot, cross-epoch, deep-level and overflow
        // distances all at once.
        let times = [
            3 * US,
            17 * US,
            MS,
            5 * MS,
            80 * MS,
            2 * SEC,
            60 * SEC,
            300 * SEC, // beyond the 281 s span: overflow lane
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
        // Peeking advances the cursor to the 50 ms slot.
        assert_eq!(w.peek(), Some((50 * MS, 0)));
        // A later arm at an earlier time must still pop first.
        w.arm((10 * MS, 1), ev(1));
        w.arm((50 * MS - 1, 2), ev(2));
        let keys = drain(&mut w);
        assert_eq!(keys, vec![(10 * MS, 1), (50 * MS - 1, 2), (50 * MS, 0)]);
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
            // Arm 0–2 timers relative to the current virtual time.
            for _ in 0..(x % 3) {
                let delay = (x >> 8) % (3 * SEC);
                let key = (now + delay, seq);
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
    fn drained_upper_slots_release_their_buffers() {
        // Steady state of a transport run: 2 000 timers, each re-armed
        // 3 ms past the clock whenever it fires, then a full drain.
        let mut w = TimerWheel::default();
        let n = 2_000u64;
        for i in 0..n {
            w.arm((3 * MS + i * 1_499, i), ev(0));
        }
        for seq in n..n + 200_000 {
            let ((now, _), _) = w.pop().expect("timers re-arm forever");
            w.arm((now + 3 * MS + seq % 7_919, seq), ev(0));
        }
        drain(&mut w);
        let kept = w.levels[2..].iter().flatten().map(Vec::capacity).max();
        assert!(kept <= Some(PARKED_CAP), "an empty slot kept {kept:?}");
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
