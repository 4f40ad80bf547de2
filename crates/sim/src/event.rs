//! The event queue: a hierarchical timing wheel fronted by a same-instant
//! delta ring.
//!
//! The kernel's hot path is the zero-delay cascade: a net toggles, its
//! watchers are woken *at the same instant*, their drives resolve more nets
//! at the same instant, and so on. A binary heap pays `O(log n)` per push
//! and pop for every one of those events; the structure below makes them
//! `O(1)` by keeping all events at the current instant in a FIFO ring
//! (`ready`), while future events go into a timing wheel:
//!
//! * a **near wheel** of 4096 slots at exact 1 ps resolution (one slot =
//!   one timestamp), with a two-level occupancy bitmap so the next
//!   occupied slot is found in two `trailing_zeros` instructions — gate
//!   delays (a few hundred ps) land here directly;
//! * two coarser levels of 64 slots each (4096 ps and 2¹⁸ ps granules)
//!   covering 2²⁴ ps ≈ 16.7 µs ahead of the cursor — clock periods land
//!   here and are re-placed into the near wheel once per occupied granule;
//! * a sorted **overflow** map for anything beyond the wheel span.
//!
//! ## Storage
//!
//! Every queued event lives in one node arena (`Arena`): a `Vec` of nodes
//! recycled through a LIFO free list, so the queue's memory tracks the
//! peak number of *pending* events rather than the sum of every slot's
//! historical peak. The delta ring, each wheel slot and each overflow key
//! is a `{head, tail, len}` FIFO list threaded through the nodes (the
//! intrusive slot lists of Varghese & Lauck's hierarchical timing wheels).
//! Draining a near slot into the ring moves its list in O(1), and a coarse
//! refill re-links nodes into finer slots; no event is copied after its
//! push.
//!
//! ## Ordering invariant
//!
//! Pops come out in exactly `(time, seq)` order — identical to the
//! `BinaryHeap` implementation this replaced, so waveforms, violation logs
//! and RNG draws are bit-for-bit unchanged. The argument:
//!
//! * `seq` is a global monotonic counter, so FIFO insertion order within
//!   any one container *is* seq order.
//! * A near-wheel slot holds one exact timestamp, so a slot drains in seq
//!   order.
//! * Coarse slots hold a whole granule of timestamps in push order; on
//!   refill they are re-placed one by one, which preserves relative order
//!   per destination slot — and any *later* push into those slots carries
//!   a larger seq, so appending keeps every slot sorted by seq.
//! * The wheel cursor (`cur`) only advances inside [`EventQueue::pop`], and
//!   the simulator never schedules into the past (`t ≥ now ≥ cur`), so an
//!   event pushed at the current instant lands in `ready` *behind* every
//!   event already staged there — again seq order.
//! * Every level's slots partition an *aligned block* of the level above
//!   (no wrap-around modulo arithmetic), and classification uses
//!   `t XOR cur`: a level holds exactly the events that share the cursor's
//!   enclosing block at the next-coarser granularity. Hence the lowest
//!   occupied slot of the lowest occupied level is the global minimum.
//! * Overflow keys always lie in a later 2²⁴ ps block than `cur` (pushes
//!   within the cursor's block go to the wheel), and a whole block is
//!   migrated into the wheel the moment the cursor enters it, before any
//!   newer push could land next to the migrated events.
//!
//! These properties are exercised against a reference binary-heap model by
//! the tests at the bottom of this file (a seeded interleaving test that
//! runs everywhere, plus the shrinking-capable `proptest` version in
//! `src/queue_props.rs`).

use std::cmp::Ordering;
use std::collections::BTreeMap;

use crate::component::ComponentId;
use crate::logic::Logic;
use crate::net::DriverId;
use crate::time::Time;

#[derive(Debug, Clone, Copy)]
pub(crate) enum EventKind {
    /// Apply a driver contribution scheduled earlier. `stamp` must still
    /// match the driver's `pending_seq`, otherwise the event was cancelled.
    Drive {
        driver: DriverId,
        value: Logic,
        stamp: u64,
    },
    /// Re-evaluate a component (net change notification or self-wake).
    Wake { comp: ComponentId },
}

#[derive(Debug, Clone, Copy)]
pub(crate) struct Event {
    pub time: Time,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    /// Reversed so that a max-heap pops the *earliest* (time, seq) first.
    /// Kept for the reference-model equivalence tests.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// Near wheel: 2¹² exact-picosecond slots.
const NEAR_BITS: u32 = 12;
const NEAR_SLOTS: usize = 1 << NEAR_BITS;
const NEAR_MASK: u64 = NEAR_SLOTS as u64 - 1;
/// Coarse levels: 64 slots each.
const COARSE_BITS: u32 = 6;
const COARSE_SLOTS: usize = 1 << COARSE_BITS;
const COARSE_MASK: u64 = COARSE_SLOTS as u64 - 1;
const MID_SHIFT: u32 = NEAR_BITS; // granule 4096 ps
const FAR_SHIFT: u32 = NEAR_BITS + COARSE_BITS; // granule 2¹⁸ ps
/// Total wheel span: 2²⁴ ps ≈ 16.7 µs.
const SPAN_BITS: u32 = NEAR_BITS + 2 * COARSE_BITS;

/// Counters the queue keeps about itself; surfaced through
/// [`Simulator::stats`](crate::Simulator::stats).
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct QueueStats {
    pub peak_depth: usize,
    pub delta_pushes: u64,
    pub peak_delta_depth: usize,
    pub cascades: u64,
    pub overflow_pushes: u64,
}

/// Arena index meaning "no node": the end of the free list.
const NIL: u32 = u32::MAX;

/// One queued event, linked to the next node of the list that holds it
/// (or of the free list). A list's tail keeps a stale `next`: every walk is
/// bounded by the list's `len`, which saves a store per push.
#[derive(Clone, Copy)]
struct Node {
    ev: Event,
    next: u32,
}

/// A FIFO list of arena nodes. Every wheel slot, every overflow key and
/// the delta ring is one; `head` and `tail` are meaningless when `len` is
/// zero.
#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
        len: 0,
    };
}

/// Storage for every queued event: one node per pending event, recycled
/// through a LIFO free list, so the arena never holds more nodes than the
/// queue's peak pending count.
struct Arena {
    nodes: Vec<Node>,
    /// Head of the free list, threaded through `Node::next`.
    free: u32,
}

impl Arena {
    /// Stores `ev` in a recycled node, or a new one, and returns its index.
    fn alloc(&mut self, ev: Event) -> u32 {
        if self.free != NIL {
            let i = self.free;
            let node = &mut self.nodes[i as usize];
            self.free = node.next;
            node.ev = ev;
            i
        } else {
            assert!(
                self.nodes.len() < NIL as usize,
                "event arena exceeds u32 indices"
            );
            self.nodes.push(Node { ev, next: NIL });
            (self.nodes.len() - 1) as u32
        }
    }

    fn time(&self, i: u32) -> Time {
        self.nodes[i as usize].ev.time
    }

    /// Links node `i` behind the tail of `list`.
    fn append(&mut self, list: &mut List, i: u32) {
        if list.len == 0 {
            list.head = i;
        } else {
            self.nodes[list.tail as usize].next = i;
        }
        list.tail = i;
        list.len += 1;
    }

    /// Unlinks the head of a non-empty `list`, returns its node to the
    /// free list and hands back its event.
    fn pop_front(&mut self, list: &mut List) -> Event {
        debug_assert!(list.len > 0);
        let i = list.head;
        let node = &mut self.nodes[i as usize];
        list.head = node.next;
        list.len -= 1;
        node.next = self.free;
        self.free = i;
        node.ev
    }

    /// Earliest time in a non-empty coarse slot, whose events are in seq
    /// (not time) order. Amortized: runs at most once per refill.
    fn min_time(&self, list: &List) -> Time {
        let mut i = list.head;
        let mut min = Time::MAX;
        for _ in 0..list.len {
            let node = &self.nodes[i as usize];
            min = min.min(node.ev.time);
            i = node.next;
        }
        min
    }
}

pub(crate) struct EventQueue {
    /// Node storage for every list below.
    arena: Arena,
    /// Events at exactly the current instant (`cur`), in seq order: the
    /// delta ring. Zero-delay scheduling and popping are O(1).
    ready: List,
    /// Near wheel: slot `t & NEAR_MASK` holds exactly timestamp `t` for
    /// `t` in the cursor's 4096 ps block.
    near: Box<[List; NEAR_SLOTS]>,
    /// Two-level occupancy bitmap over `near`: bit `w` of `near_summary`
    /// says word `near_words[w]` is non-zero.
    near_words: [u64; NEAR_SLOTS / 64],
    near_summary: u64,
    mid: [List; COARSE_SLOTS],
    mid_occ: u64,
    far: [List; COARSE_SLOTS],
    far_occ: u64,
    /// Events beyond the wheel span, keyed by exact timestamp (ps). Each
    /// list is in push (= seq) order.
    overflow: BTreeMap<u64, List>,
    /// The wheel cursor in ps: the timestamp of the events in `ready`, and
    /// a lower bound on every queued event. Advances only in `pop`.
    cur: u64,
    len: usize,
    next_seq: u64,
    stats: QueueStats,
}

impl std::fmt::Debug for EventQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("len", &self.len)
            .field("cur_ps", &self.cur)
            .field("ready", &self.ready.len)
            .field("overflow_keys", &self.overflow.len())
            .finish()
    }
}

impl Default for EventQueue {
    fn default() -> Self {
        EventQueue {
            arena: Arena {
                nodes: Vec::new(),
                free: NIL,
            },
            ready: List::EMPTY,
            near: Box::new([List::EMPTY; NEAR_SLOTS]),
            near_words: [0; NEAR_SLOTS / 64],
            near_summary: 0,
            mid: [List::EMPTY; COARSE_SLOTS],
            mid_occ: 0,
            far: [List::EMPTY; COARSE_SLOTS],
            far_occ: 0,
            overflow: BTreeMap::new(),
            cur: 0,
            len: 0,
            next_seq: 0,
            stats: QueueStats::default(),
        }
    }
}

impl EventQueue {
    /// The sequence number the next `push` will assign; lets callers embed
    /// an event's own seq inside it (drive cancellation stamps).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    pub fn push(&mut self, time: Time, kind: EventKind) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        if self.len > self.stats.peak_depth {
            self.stats.peak_depth = self.len;
        }
        let i = self.arena.alloc(Event { time, seq, kind });
        self.place(i, time.as_ps());
        seq
    }

    /// Links node `i`, holding an event at `t` ps, into the delta ring, a
    /// wheel slot, or overflow, relative to the current cursor.
    fn place(&mut self, i: u32, t: u64) {
        if t <= self.cur {
            // The simulator never schedules into the past; anything at the
            // current instant joins the delta ring in seq order.
            debug_assert!(t == self.cur, "event scheduled before queue cursor");
            self.stats.delta_pushes += 1;
            self.arena.append(&mut self.ready, i);
            let depth = self.ready.len as usize;
            if depth > self.stats.peak_delta_depth {
                self.stats.peak_delta_depth = depth;
            }
            return;
        }
        let diff = t ^ self.cur;
        if diff < 1 << NEAR_BITS {
            let s = (t & NEAR_MASK) as usize;
            self.arena.append(&mut self.near[s], i);
            self.near_words[s >> 6] |= 1u64 << (s & 63);
            self.near_summary |= 1u64 << (s >> 6);
        } else if diff < 1 << FAR_SHIFT {
            let s = ((t >> MID_SHIFT) & COARSE_MASK) as usize;
            self.arena.append(&mut self.mid[s], i);
            self.mid_occ |= 1u64 << s;
        } else if diff < 1 << SPAN_BITS {
            let s = ((t >> FAR_SHIFT) & COARSE_MASK) as usize;
            self.arena.append(&mut self.far[s], i);
            self.far_occ |= 1u64 << s;
        } else {
            self.stats.overflow_pushes += 1;
            let list = self.overflow.entry(t).or_insert(List::EMPTY);
            self.arena.append(list, i);
        }
    }

    /// Re-places every node of `list`, in order, relative to the current
    /// cursor.
    fn place_all(&mut self, list: List) {
        let mut i = list.head;
        for _ in 0..list.len {
            let node = &self.arena.nodes[i as usize];
            let (next, t) = (node.next, node.ev.time.as_ps());
            self.place(i, t);
            i = next;
        }
    }

    /// Earliest queued time without disturbing the wheel. The event loop
    /// itself uses the fused [`EventQueue::pop_not_after`]; this stays for
    /// diagnostics and the reference-model tests.
    #[cfg(test)]
    pub fn peek_time(&self) -> Option<Time> {
        if self.ready.len > 0 {
            return Some(self.arena.time(self.ready.head));
        }
        if self.len == 0 {
            return None;
        }
        if self.near_summary != 0 {
            let w = self.near_summary.trailing_zeros() as usize;
            let b = self.near_words[w].trailing_zeros() as usize;
            let slot = ((w << 6) | b) as u64;
            return Some(Time::from_ps((self.cur & !NEAR_MASK) + slot));
        }
        if self.mid_occ != 0 {
            let s = self.mid_occ.trailing_zeros() as usize;
            return Some(self.arena.min_time(&self.mid[s]));
        }
        if self.far_occ != 0 {
            let s = self.far_occ.trailing_zeros() as usize;
            return Some(self.arena.min_time(&self.far[s]));
        }
        self.overflow.keys().next().map(|&ps| Time::from_ps(ps))
    }

    /// Unconditional pop; equivalent to `pop_not_after(Time::MAX)`.
    #[cfg(test)]
    pub fn pop(&mut self) -> Option<Event> {
        self.pop_not_after(Time::MAX)
    }

    /// Pops the earliest event if its time is ≤ `horizon`; otherwise leaves
    /// the queue untouched (the cursor never advances past an event the
    /// caller is not ready to consume, so later pushes at ≤ `horizon` stay
    /// legal). This is the event loop's primary operation: it replaces a
    /// `peek_time` + `pop` pair and performs a single occupancy scan per
    /// instant, with a fast path handing a lone slot resident straight to
    /// the caller without staging through the delta ring.
    pub fn pop_not_after(&mut self, horizon: Time) -> Option<Event> {
        loop {
            if self.ready.len > 0 {
                if self.arena.time(self.ready.head) > horizon {
                    return None;
                }
                self.len -= 1;
                return Some(self.arena.pop_front(&mut self.ready));
            }
            if self.len == 0 {
                return None;
            }
            if self.near_summary != 0 {
                let w = self.near_summary.trailing_zeros() as usize;
                let b = self.near_words[w].trailing_zeros() as usize;
                let s = (w << 6) | b;
                let t = Time::from_ps((self.cur & !NEAR_MASK) + s as u64);
                if t > horizon {
                    return None;
                }
                debug_assert!(t.as_ps() > self.cur);
                self.cur = t.as_ps();
                self.near_words[w] &= !(1u64 << b);
                if self.near_words[w] == 0 {
                    self.near_summary &= !(1u64 << w);
                }
                let mut slot = std::mem::replace(&mut self.near[s], List::EMPTY);
                if slot.len == 1 {
                    // Lone event at this instant: skip the delta ring.
                    self.len -= 1;
                    return Some(self.arena.pop_front(&mut slot));
                }
                // The ring is empty here, so the splice is a move.
                debug_assert_eq!(self.ready.len, 0);
                self.stats.delta_pushes += u64::from(slot.len);
                self.ready = slot;
                let depth = slot.len as usize;
                if depth > self.stats.peak_delta_depth {
                    self.stats.peak_delta_depth = depth;
                }
                continue;
            }
            // Coarse levels: check the slot's earliest event against the
            // horizon *before* moving the cursor into the granule, so an
            // out-of-horizon refill never strands the cursor ahead of a
            // later legal push.
            if self.mid_occ != 0 {
                let s = self.mid_occ.trailing_zeros() as usize;
                if self.arena.min_time(&self.mid[s]) > horizon {
                    return None;
                }
                self.mid_occ &= !(1u64 << s);
                let granule_mask = (1u64 << FAR_SHIFT) - 1;
                self.cur = (self.cur & !granule_mask) + ((s as u64) << MID_SHIFT);
                let slot = std::mem::replace(&mut self.mid[s], List::EMPTY);
                self.refill(slot);
                continue;
            }
            if self.far_occ != 0 {
                let s = self.far_occ.trailing_zeros() as usize;
                if self.arena.min_time(&self.far[s]) > horizon {
                    return None;
                }
                self.far_occ &= !(1u64 << s);
                let granule_mask = (1u64 << SPAN_BITS) - 1;
                self.cur = (self.cur & !granule_mask) + ((s as u64) << FAR_SHIFT);
                let slot = std::mem::replace(&mut self.far[s], List::EMPTY);
                self.refill(slot);
                continue;
            }
            // Wheel empty: enter the overflow's first block and migrate
            // every key of that block into the wheel at once, so later
            // same-block pushes (which now resolve against the new cursor)
            // append *behind* these older events.
            let first = *self
                .overflow
                .keys()
                .next()
                .expect("len > 0 but no event found");
            if Time::from_ps(first) > horizon {
                return None;
            }
            debug_assert!(first >> SPAN_BITS > self.cur >> SPAN_BITS);
            self.cur = first;
            let block = first >> SPAN_BITS;
            while let Some(entry) = self.overflow.first_entry() {
                if *entry.key() >> SPAN_BITS != block {
                    break;
                }
                let list = entry.remove();
                self.place_all(list);
            }
            // `ready` now holds the events at `first`.
            debug_assert!(self.ready.len > 0);
        }
    }

    /// Re-links one coarse slot's nodes into finer levels after the cursor
    /// moved to the granule start; no event is copied.
    fn refill(&mut self, slot: List) {
        self.stats.cascades += 1;
        debug_assert!(self.arena.min_time(&slot).as_ps() >= self.cur);
        self.place_all(slot);
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn stats(&self) -> QueueStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BinaryHeap;

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut q = EventQueue::default();
        q.push(
            Time::from_ns(5),
            EventKind::Wake {
                comp: ComponentId(0),
            },
        );
        q.push(
            Time::from_ns(1),
            EventKind::Wake {
                comp: ComponentId(1),
            },
        );
        q.push(
            Time::from_ns(1),
            EventKind::Wake {
                comp: ComponentId(2),
            },
        );
        let a = q.pop().unwrap();
        let b = q.pop().unwrap();
        let c = q.pop().unwrap();
        assert_eq!(a.time, Time::from_ns(1));
        assert!(matches!(
            a.kind,
            EventKind::Wake {
                comp: ComponentId(1)
            }
        ));
        assert_eq!(b.time, Time::from_ns(1));
        assert!(matches!(
            b.kind,
            EventKind::Wake {
                comp: ComponentId(2)
            }
        ));
        assert_eq!(c.time, Time::from_ns(5));
        assert!(q.pop().is_none());
    }

    #[test]
    fn len_tracks_contents() {
        let mut q = EventQueue::default();
        assert_eq!(q.len(), 0);
        q.push(
            Time::ZERO,
            EventKind::Wake {
                comp: ComponentId(0),
            },
        );
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn same_instant_fifo_behind_wheel_resident_events() {
        // Two events pre-scheduled at t=100; after popping the first, a
        // push at t=100 (zero-delay) must come out *after* the second
        // pre-scheduled one (it has a larger seq).
        let mut q = EventQueue::default();
        q.push(
            Time::from_ps(100),
            EventKind::Wake {
                comp: ComponentId(0),
            },
        );
        q.push(
            Time::from_ps(100),
            EventKind::Wake {
                comp: ComponentId(1),
            },
        );
        let first = q.pop().unwrap();
        assert!(matches!(
            first.kind,
            EventKind::Wake {
                comp: ComponentId(0)
            }
        ));
        q.push(
            Time::from_ps(100),
            EventKind::Wake {
                comp: ComponentId(2),
            },
        );
        let second = q.pop().unwrap();
        assert!(matches!(
            second.kind,
            EventKind::Wake {
                comp: ComponentId(1)
            }
        ));
        let third = q.pop().unwrap();
        assert!(matches!(
            third.kind,
            EventKind::Wake {
                comp: ComponentId(2)
            }
        ));
    }

    #[test]
    fn far_future_overflow_orders_with_wheel() {
        let mut q = EventQueue::default();
        // Far beyond the 16.7 µs wheel span.
        q.push(
            Time::from_us(100),
            EventKind::Wake {
                comp: ComponentId(0),
            },
        );
        q.push(
            Time::from_ns(1),
            EventKind::Wake {
                comp: ComponentId(1),
            },
        );
        q.push(
            Time::from_us(100),
            EventKind::Wake {
                comp: ComponentId(2),
            },
        );
        q.push(
            Time::from_us(99),
            EventKind::Wake {
                comp: ComponentId(3),
            },
        );
        let order: Vec<u32> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Wake { comp } => comp.0,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(order, vec![1, 3, 0, 2]);
    }

    /// Drives the wheel and a reference `BinaryHeap` through the same
    /// pseudo-random push/pop interleaving and asserts identical pop
    /// order. Seeded LCG, no external crates, so it runs everywhere;
    /// `queue_matches_reference_heap` in `src/queue_props.rs` is the
    /// shrinking-capable proptest version.
    fn interleaving_against_reference(seed: u64, ops: usize) {
        let mut lcg = seed.wrapping_mul(2).wrapping_add(1);
        let mut rand = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            lcg >> 11
        };
        let mut q = EventQueue::default();
        let mut reference: BinaryHeap<Event> = BinaryHeap::new();
        let mut now = 0u64; // last popped time: pushes never go below this
        let mut next_id = 0u32;
        for _ in 0..ops {
            let r = rand();
            if r % 4 != 3 {
                // Push at `now + delta`, with deltas exercising every tier:
                // same-instant, near wheel, both coarse levels, overflow.
                let delta = match r % 7 {
                    0 => 0,
                    1 => rand() % 64,
                    2 => rand() % 4_096,
                    3 => rand() % 262_144,
                    4 => rand() % (1 << 24),
                    _ => rand() % (1 << 30),
                };
                let t = Time::from_ps(now + delta);
                let kind = EventKind::Wake {
                    comp: ComponentId(next_id),
                };
                next_id += 1;
                let seq = q.push(t, kind);
                reference.push(Event { time: t, seq, kind });
            } else {
                let got = q.pop();
                let want = reference.pop();
                match (got, want) {
                    (None, None) => {}
                    (Some(g), Some(w)) => {
                        assert_eq!((g.time, g.seq), (w.time, w.seq));
                        now = g.time.as_ps();
                    }
                    (g, w) => panic!("emptiness mismatch: {g:?} vs {w:?}"),
                }
            }
        }
        // Drain both completely.
        loop {
            match (q.pop(), reference.pop()) {
                (None, None) => break,
                (Some(g), Some(w)) => assert_eq!((g.time, g.seq), (w.time, w.seq)),
                (g, w) => panic!("emptiness mismatch: {g:?} vs {w:?}"),
            }
        }
    }

    #[test]
    fn matches_reference_heap_across_interleavings() {
        for seed in 0..50 {
            interleaving_against_reference(seed, 2_000);
        }
    }

    #[test]
    fn arena_holds_no_more_nodes_than_peak_pending() {
        // A burst of 1 000 events into one near, mid or far slot after
        // another, drained in between. Slot-owned buffers would keep every
        // burst's storage alive; the arena recycles the same nodes.
        let mut q = EventQueue::default();
        let mut now = 0u64;
        for round in 0..60u64 {
            let k = round / 3;
            let delta = match round % 3 {
                0 => 1 + k * 97,
                1 => (k + 1) << MID_SHIFT,
                _ => (k + 1) << FAR_SHIFT,
            };
            for j in 0..1_000u64 {
                // Spread over a few instants so refills fan out.
                let t = Time::from_ps(now + delta + j % 7);
                q.push(
                    t,
                    EventKind::Wake {
                        comp: ComponentId(j as u32),
                    },
                );
            }
            while let Some(e) = q.pop() {
                now = e.time.as_ps();
            }
            assert_eq!(q.len(), 0);
            assert_eq!(q.stats().peak_depth, 1_000);
            assert!(
                q.arena.nodes.len() <= q.stats().peak_depth,
                "arena holds {} nodes for a peak of {} pending events",
                q.arena.nodes.len(),
                q.stats().peak_depth
            );
        }
        assert!(
            q.stats().cascades > 0,
            "the coarse levels were not exercised"
        );
    }

    #[test]
    fn same_instant_burst_pops_fifo() {
        let mut q = EventQueue::default();
        for i in 0..100u32 {
            q.push(
                Time::from_ns(7),
                EventKind::Wake {
                    comp: ComponentId(i),
                },
            );
        }
        for i in 0..100u32 {
            let e = q.pop().unwrap();
            match e.kind {
                EventKind::Wake { comp } => assert_eq!(comp.0, i),
                _ => unreachable!(),
            }
        }
    }
}
