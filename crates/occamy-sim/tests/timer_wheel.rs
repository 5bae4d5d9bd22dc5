//! Timer-wheel ordering properties: the wheel-backed event queue must
//! fire in exactly the order a reference priority queue would — the
//! property that makes the wheel a drop-in replacement for the old
//! binary heap with bit-identical simulation results.

use occamy_sim::{Event, EventQueue, Key, Ps, MS};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// The wheel's slot width in picoseconds and its near window in slots
/// (the geometry in `src/timer.rs`): entries this far out and beyond
/// take the far lane.
const TICK: Ps = 1 << 12;
const SPAN_TICKS: u64 = 1 << 12;

proptest! {
    /// Mixed pushes across all three lanes at delays spanning nanoseconds
    /// to hundreds of seconds (level-0 slots through the overflow lane),
    /// interleaved with pops that advance the wheel cursor: every event
    /// must pop in exact `(time, insertion sequence)` order — the order
    /// the old heap produced.
    ///
    /// Script encoding: `op < 3` arms on lane `op` (0 = `push`,
    /// 1 = `push_timer`, 2 = `push_deferred`) at `now + delay` (the lane
    /// divisor varies the delay scale); `op ≥ 3` pops one event.
    #[test]
    fn fire_order_matches_reference_heap(
        script in prop::collection::vec((0u8..6, 0u64..400_000_000_000u64), 1..300)
    ) {
        let mut q = EventQueue::new();
        let mut model: Vec<(Ps, u64)> = Vec::new(); // (time, seq), unsorted
        let mut seq = 0u64;
        let mut now: Ps = 0;
        let mut fired: Vec<(Ps, u64)> = Vec::new();
        for (op, raw_delay) in script {
            if op < 3 {
                let delay = raw_delay / (1 + (op as u64) * 1_000);
                let at = now + delay;
                let ev = Event::HostTxFree { host: seq as u32 };
                match op {
                    0 => q.push(at, ev),
                    1 => q.push_timer(at, ev),
                    _ => q.push_deferred(at, ev),
                }
                model.push((at, seq));
                seq += 1;
            } else if let Some((t, Event::HostTxFree { host })) = q.pop() {
                prop_assert!(t >= now, "time went backwards");
                now = t;
                fired.push((t, host as u64));
            }
        }
        while let Some((t, Event::HostTxFree { host })) = q.pop() {
            fired.push((t, host as u64));
        }
        prop_assert!(q.is_empty());
        // The reference: a total (time, seq) sort — what any correct
        // priority queue with insertion-order tie-breaking produces.
        model.sort_unstable();
        prop_assert_eq!(fired, model);
    }

    /// `pop_at_most` never returns an event past the limit and never
    /// loses one before it.
    #[test]
    fn pop_at_most_respects_limit(
        delays in prop::collection::vec(0u64..10_000_000_000u64, 1..40),
        limit in 0u64..10_000_000_000u64,
    ) {
        let mut q = EventQueue::new();
        for (i, d) in delays.iter().enumerate() {
            q.push_timer(*d, Event::HostTxFree { host: i as u32 });
        }
        let mut popped = 0;
        while let Some((t, _)) = q.pop_at_most(limit) {
            prop_assert!(t <= limit);
            popped += 1;
        }
        let due = delays.iter().filter(|&&d| d <= limit).count();
        prop_assert_eq!(popped, due);
        prop_assert_eq!(q.len(), delays.len() - due);
    }

    /// Every way an entry reaches the wheel, checked pop by pop against
    /// a reference ordered set of keys:
    ///
    /// - `op 0`: a push one tick inside, at or one tick beyond the near
    ///   window's edge (`b % 3` picks span − 1, span or span + 1 ticks);
    /// - `op 1`: a push within the window;
    /// - `op 2`: a far push (up to 100 ms), which must migrate into the
    ///   window as pops advance the cursor;
    /// - `op 3`: a push at or behind the last pop's time, i.e. at or
    ///   behind the cursor;
    /// - `op 4`: a key stamped now and armed later by `op 5`, possibly
    ///   after pops passed its time (a lazy transmit completion);
    /// - `op ≥ 6`: a pop, bounded by `pop_at_most` when `b` is odd.
    #[test]
    fn window_edges_migrations_and_keyed_arms_match_reference(
        script in prop::collection::vec((0u8..9, 0u64..u64::MAX), 1..400)
    ) {
        let mut q = EventQueue::new();
        let mut model: BTreeSet<Key> = BTreeSet::new();
        let mut keys: Vec<Key> = Vec::new(); // by event id
        let mut stamped: Vec<Key> = Vec::new();
        let mut now: Ps = 0;
        let mut tag = 0u64;
        for (op, b) in script {
            let at = match op {
                0 => now + (SPAN_TICKS - 1 + b % 3) * TICK + (b >> 8) % TICK,
                1 => now + (b >> 8) % (SPAN_TICKS * TICK),
                2 => now + (b >> 8) % (100 * MS),
                3 => now.saturating_sub((b >> 8) % (3 * TICK)),
                4 => now + (b >> 8) % (3 * SPAN_TICKS * TICK),
                5 => {
                    if !stamped.is_empty() {
                        let key = stamped.swap_remove((b % stamped.len() as u64) as usize);
                        q.arm_keyed(key, Event::HostTxFree { host: keys.len() as u32 });
                        keys.push(key);
                        model.insert(key);
                    }
                    continue;
                }
                _ => {
                    let limit = if b % 2 == 1 { now + (b >> 8) % (2 * SPAN_TICKS * TICK) } else { Ps::MAX };
                    let popped = q.pop_at_most(limit);
                    let want = model.first().copied().filter(|k| k.0 <= limit);
                    match popped {
                        Some((t, Event::HostTxFree { host })) => {
                            let key = keys[host as usize];
                            prop_assert_eq!(Some(key), want);
                            prop_assert_eq!(t, key.0);
                            model.remove(&key);
                            now = now.max(t);
                        }
                        Some(other) => prop_assert!(false, "unexpected {:?}", other),
                        None => prop_assert_eq!(want, None),
                    }
                    continue;
                }
            };
            let key = (at, tag);
            tag += 1;
            if op == 4 {
                prop_assert_eq!(q.stamp(at), key);
                stamped.push(key);
            } else {
                q.push(at, Event::HostTxFree { host: keys.len() as u32 });
                keys.push(key);
                model.insert(key);
            }
            prop_assert_eq!(q.len(), model.len());
        }
        while let Some((t, Event::HostTxFree { host })) = q.pop() {
            let key = keys[host as usize];
            prop_assert_eq!(Some(key), model.pop_first());
            prop_assert_eq!(t, key.0);
        }
        prop_assert!(model.is_empty() && q.is_empty());
    }
}
