//! Simulation-aware synchronization primitives.
//!
//! Four building blocks sit under every higher layer:
//!
//! * [`SimChannel`] — a FIFO mailbox whose messages carry *arrival times*
//!   (`sender.now() + latency`). Receivers cannot observe a message before
//!   it arrives. DPCL daemon traffic and the instrumenter callback path are
//!   built on it. A receive costs what it looks at, not what is queued:
//!   the front of the channel, or one index entry of a keyed one (DESIGN,
//!   "SimChannel queue discipline").
//! * [`Mailboxes`] — a set of unordered mailboxes under one lock, one per
//!   MPI rank, whose queued messages share one slab: the set holds what is
//!   in flight, not what each mailbox once held.
//! * [`SimBarrier`] — a cyclic barrier over a fixed participant count with
//!   a configurable release cost; used by `MPI_Barrier` and OpenMP joins.
//! * [`SimGate`] — a broadcast flag: processes blocked on the gate are all
//!   released when it opens (the `DYNVT_spin` spin-variable and the
//!   `configuration_break` breakpoint resume are gates).
//!
//! Blocking is mediated by the discrete-event scheduler: one process runs
//! at a time, so the unlock-then-yield pattern every primitive uses is
//! race-free by construction.
//!
//! No primitive here suspends a process on its own: every blocking path
//! releases its internal lock and then calls the engine's
//! `yield_and_wait`, which is the *only* suspension point in the crate
//! (DESIGN §18's suspension-point inventory). The engine's process
//! backend — OS threads or stackful coroutines — is therefore invisible
//! at this layer: these primitives behave identically on both, and the
//! differential suite in `tests/backend_diff.rs` holds them to that.

use std::collections::hash_map::{DefaultHasher, Entry, HashMap};
use std::collections::VecDeque;
use std::hash::BuildHasherDefault;
use std::num::NonZeroU64;

use parking_lot::Mutex;

use crate::engine::{Pid, Proc};
use crate::hb;
use crate::time::SimTime;

// ---------------------------------------------------------------------------
// SimChannel
// ---------------------------------------------------------------------------

struct Envelope<T> {
    arrival: SimTime,
    /// Never 0, so a queue slot can be a hole (`None`) at no cost in size.
    seq: NonZeroU64,
    msg: T,
}

/// A keyed channel's key function and, per queued key, the `seq` of its
/// earliest message and how many messages carry it. Hashed with fixed
/// keys: under per-map random keys the table would rehash at a point that
/// moves from run to run, and a session's heap peak with it.
type KeyIndex<T> = (
    fn(&T) -> Option<u64>,
    HashMap<u64, (u64, u32), BuildHasherDefault<DefaultHasher>>,
);

struct ChannelState<T> {
    /// Insertion order from `head` on, which is `(arrival, seq)` order. A
    /// take from the middle leaves a hole, passed over when it reaches
    /// `head`, so message `seq` stays at [`ChannelState::slot_of`].
    queue: Vec<Option<Envelope<T>>>,
    head: usize,
    waiters: Vec<Pid>,
    seq: u64,
    /// Latest enqueued arrival time (delivery never reorders).
    last_arrival: SimTime,
    /// Queued messages a receive has looked at: arrival, key or predicate.
    examined: u64,
    keys: Option<Box<KeyIndex<T>>>,
}

impl<T> ChannelState<T> {
    /// Queue index and arrival time of the first message satisfying
    /// `pred`, which is the earliest by `(arrival, seq)`. `pred` must be
    /// pure — which messages it is shown is not promised.
    fn earliest_match(&mut self, mut pred: impl FnMut(&T) -> bool) -> Option<(usize, SimTime)> {
        for (i, e) in (self.head..).zip(&self.queue[self.head..]) {
            let Some(e) = e else { continue };
            self.examined += 1;
            if pred(&e.msg) {
                return Some((i, e.arrival));
            }
        }
        None
    }

    /// Queue index of message `seq`: slots enter at the back, one per
    /// send, and leave at the front only, so the back is `self.seq`.
    fn slot_of(&self, seq: u64) -> usize {
        (seq + self.queue.len() as u64 - self.seq - 1) as usize
    }

    /// [`ChannelState::earliest_match`] of "has `key`", from the index.
    fn earliest_keyed(&mut self, key: u64) -> Option<(usize, SimTime)> {
        let &(seq, _) = self.keys.as_ref()?.1.get(&key)?;
        self.examined += 1;
        let i = self.slot_of(seq);
        self.queue[i].as_ref().map(|e| (i, e.arrival))
    }
}

/// A latency-aware FIFO mailbox. Any process may send; any process may
/// receive. Messages become visible to receivers only once the receiver's
/// clock has reached the message's arrival time, and deliveries never
/// reorder, as over a stream socket: each message arrives no earlier than
/// the one enqueued before it. The DPCL daemon connections use this; MPI
/// mailboxes, where the network may reorder, are a [`Mailboxes`] set.
pub struct SimChannel<T> {
    state: Mutex<ChannelState<T>>,
    /// Identity for happens-before recording: a process-global id
    /// ([`hb::unique_id`]) taken whether or not the run is armed.
    id: u64,
}

impl<T> SimChannel<T> {
    /// An empty FIFO channel (stream-ordered delivery).
    pub fn new_fifo() -> SimChannel<T> {
        Self::with_keys(None)
    }

    /// An empty FIFO channel that indexes its messages by `key_of` (`None`:
    /// not indexed) for [`SimChannel::recv_key_deadline`]; every other
    /// receive sees a keyed message as it would any other.
    pub fn new_fifo_keyed(key_of: fn(&T) -> Option<u64>) -> SimChannel<T> {
        Self::with_keys(Some(Box::new((key_of, HashMap::default()))))
    }

    fn with_keys(keys: Option<Box<KeyIndex<T>>>) -> SimChannel<T> {
        SimChannel {
            state: Mutex::new(ChannelState {
                queue: Vec::new(),
                head: 0,
                waiters: Vec::new(),
                seq: 0,
                last_arrival: SimTime::ZERO,
                examined: 0,
                keys,
            }),
            id: hb::unique_id(),
        }
    }

    /// Send `msg`, arriving `latency` after the sender's current time, or
    /// with the message before it if that arrives later.
    pub fn send(&self, p: &Proc, msg: T, latency: SimTime) {
        let mut s = self.state.lock();
        let arrival = (p.now() + latency).max(s.last_arrival);
        s.last_arrival = arrival;
        s.seq += 1;
        let seq = s.seq;
        hb::chan_send(p, self.id, seq);
        if let Some((key_of, index)) = s.keys.as_deref_mut() {
            if let Some(key) = key_of(&msg) {
                index.entry(key).or_insert((seq, 0)).1 += 1;
            }
        }
        let seq = NonZeroU64::new(seq).expect("seq counts from 1");
        s.queue.push(Some(Envelope { arrival, seq, msg }));
        for pid in s.waiters.drain(..) {
            p.wake_other(pid, arrival);
        }
    }

    /// Send a **control-plane** message subject to the simulation's fault
    /// plan: the plan may drop it, duplicate it, or add delivery delay
    /// (`T: Clone` is needed for duplication). With no plan installed —
    /// or a plan whose link faults are all zero — this is exactly
    /// [`SimChannel::send`].
    ///
    /// DPCL daemon traffic goes through here; application-level MPI and
    /// the instrumenter callback path deliberately do not (see the fault
    /// model in DESIGN.md: the modelled switch delivers reliably, the
    /// control plane is where the tool must tolerate loss).
    pub fn send_ctl(&self, p: &Proc, msg: T, latency: SimTime)
    where
        T: Clone,
    {
        let plan = match p.fault_plan() {
            Some(plan) if plan.links_enabled() => plan,
            _ => return self.send(p, msg, latency),
        };
        let d = plan.decide_link();
        let metrics = p.metrics();
        if d.drop {
            if let Some(m) = metrics {
                m.counter("fault.msgs_dropped").inc();
            }
            return;
        }
        if let Some(m) = metrics.filter(|_| d.extra_delay > SimTime::ZERO) {
            m.counter("fault.msgs_delayed").inc();
        }
        if d.duplicate {
            if let Some(m) = metrics {
                m.counter("fault.msgs_duplicated").inc();
            }
            self.send(p, msg.clone(), latency + d.extra_delay);
        }
        self.send(p, msg, latency + d.extra_delay);
    }

    /// Number of messages currently queued (arrived or in flight).
    pub fn len(&self) -> usize {
        self.state.lock().queue.iter().flatten().count()
    }

    /// True if no messages are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Queued messages that receives on this channel have looked at so
    /// far: what delivering [`SimChannel::received`] messages cost.
    pub fn examined(&self) -> u64 {
        self.state.lock().examined
    }

    /// Messages taken off this channel so far.
    pub fn received(&self) -> u64 {
        let s = self.state.lock();
        s.seq - s.queue.iter().flatten().count() as u64
    }

    /// Take message `i` out of the queue, recording the receive.
    fn take(&self, p: &Proc, s: &mut ChannelState<T>, i: usize) -> T {
        let env = s.queue[i].take().expect("a receive found this message");
        if let Some((key_of, index)) = s.keys.as_deref_mut() {
            if let Some(Entry::Occupied(mut held)) = key_of(&env.msg).map(|k| index.entry(k)) {
                held.get_mut().1 -= 1;
                if held.get().1 == 0 {
                    held.remove();
                } else if held.get().0 == env.seq.get() {
                    // The earliest of several went: the next is behind it.
                    let key = Some(*held.key());
                    let behind = s.queue.iter().skip(i + 1).flatten();
                    let mut behind = behind.inspect(|_| s.examined += 1);
                    let next = behind.find(|e| key_of(&e.msg) == key);
                    held.get_mut().0 = next.expect("counted, so queued").seq.get();
                }
            }
        }
        while let Some(None) = s.queue.get(s.head) {
            s.head += 1;
        }
        if s.head > s.queue.len() / 2 {
            s.queue.drain(..s.head); // less than was passed over moves up
            s.head = 0;
        }
        if s.queue.is_empty() && s.queue.capacity() > 64 {
            s.queue = Vec::new(); // a drained burst gives its buffer back
        }
        hb::chan_recv(p, self.id, env.seq.get());
        env.msg
    }

    /// Receive the earliest-arriving message. Blocks until one arrives.
    pub fn recv(&self, p: &Proc) -> T {
        self.recv_match(p, |_| true)
    }

    /// Receive the earliest-arriving message satisfying `pred`.
    /// Blocks until such a message arrives.
    pub fn recv_match(&self, p: &Proc, mut pred: impl FnMut(&T) -> bool) -> T {
        loop {
            let mut s = self.state.lock();
            match s.earliest_match(&mut pred) {
                Some((i, arrival)) if arrival <= p.now() => return self.take(p, &mut s, i),
                Some((_, arrival)) => {
                    // Matching message still in flight: sleep to it.
                    drop(s);
                    p.sleep_until(arrival);
                }
                None => {
                    let pid = p.pid();
                    if !s.waiters.contains(&pid) {
                        s.waiters.push(pid);
                    }
                    drop(s);
                    // Race-free: no other process can run between the
                    // drop above and this yield.
                    p.block();
                    // Deregister (we may have been woken spuriously).
                    self.state.lock().waiters.retain(|&w| w != pid);
                }
            }
        }
    }

    /// Like [`SimChannel::recv_match`], but give up at `deadline`:
    /// returns `None` if no matching message has arrived by then.
    ///
    /// In the common case — the message arrives first — the armed
    /// deadline timer is cancelled before it fires, so a run in which no
    /// timeout ever triggers is indistinguishable (to the event-queue
    /// metrics and every clock) from one using plain `recv_match`.
    pub fn recv_match_deadline(
        &self,
        p: &Proc,
        mut pred: impl FnMut(&T) -> bool,
        deadline: SimTime,
    ) -> Option<T> {
        self.recv_by(p, |s| s.earliest_match(&mut pred), deadline)
    }

    /// [`SimChannel::recv_match_deadline`] for "the key function gives
    /// `key`", answered from a [`SimChannel::new_fifo_keyed`] channel's
    /// index (on any other channel nothing has a key).
    pub fn recv_key_deadline(&self, p: &Proc, key: u64, deadline: SimTime) -> Option<T> {
        self.recv_by(p, |s| s.earliest_keyed(key), deadline)
    }

    /// The deadline receive: take the message `find` names once it has
    /// arrived; with none due in time, wait for a send or the deadline.
    fn recv_by(
        &self,
        p: &Proc,
        mut find: impl FnMut(&mut ChannelState<T>) -> Option<(usize, SimTime)>,
        deadline: SimTime,
    ) -> Option<T> {
        loop {
            let mut s = self.state.lock();
            match find(&mut s) {
                Some((i, arrival)) if arrival <= p.now() => return Some(self.take(p, &mut s, i)),
                Some((_, arrival)) if arrival <= deadline => {
                    // In flight and due before the deadline: sleep to it.
                    drop(s);
                    p.sleep_until(arrival);
                }
                _ => {
                    // No match, or the only matches arrive too late.
                    if p.now() >= deadline {
                        return None;
                    }
                    let pid = p.pid();
                    if !s.waiters.contains(&pid) {
                        s.waiters.push(pid);
                    }
                    drop(s);
                    p.block_until_deadline(deadline);
                    self.state.lock().waiters.retain(|&w| w != pid);
                }
            }
        }
    }

    /// [`SimChannel::recv_key_deadline`] without the wait: the message with
    /// `key` if it has already arrived.
    pub fn try_recv_key(&self, p: &Proc, key: u64) -> Option<T> {
        let mut s = self.state.lock();
        match s.earliest_keyed(key) {
            Some((i, arrival)) if arrival <= p.now() => Some(self.take(p, &mut s, i)),
            _ => None,
        }
    }

    /// Receive a matching message if one has already arrived.
    pub fn try_recv_match(&self, p: &Proc, pred: impl FnMut(&T) -> bool) -> Option<T> {
        let mut s = self.state.lock();
        match s.earliest_match(pred) {
            Some((i, arrival)) if arrival <= p.now() => Some(self.take(p, &mut s, i)),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Mailboxes
// ---------------------------------------------------------------------------

/// No slot: the end of a mailbox's list, or of the free list.
const NIL: u32 = u32::MAX;

/// Slots a slab block holds. The slab grows a block at a time and never
/// moves a slot, so a growth costs one allocation and no copy.
const SLAB_BLOCK: usize = 16;

/// A slab slot: a queued message and the next slot of its mailbox, or a
/// free slot (`env` is `None`) and the next free one.
struct Slot<T> {
    env: Option<Envelope<T>>,
    next: u32,
}

/// One mailbox of a set. Its messages are a list through the slab, in
/// send (`seq`) order.
struct Mailbox {
    head: u32,
    tail: u32,
    waiters: Vec<Pid>,
    seq: u64,
    /// Queued messages a receive here has looked at.
    examined: u64,
    received: u64,
    /// The last scan in which a message *from* this mailbox's owner
    /// matched: a later one from it in the same scan may not overtake it.
    matched_in: u64,
    /// Identity for happens-before recording.
    id: u64,
}

impl Mailbox {
    fn register(&mut self, pid: Pid) {
        if !self.waiters.contains(&pid) {
            self.waiters.push(pid);
        }
    }
}

struct SetState<T> {
    boxes: Vec<Mailbox>,
    slab: Vec<Box<[Slot<T>]>>,
    /// Head of the free list.
    free: u32,
    /// Receive scans so far, which stamps [`Mailbox::matched_in`].
    scans: u64,
}

/// What a scan found: the message's slot, the slot before it in its
/// mailbox's list (or [`NIL`]), and its arrival.
struct Hit {
    slot: u32,
    prev: u32,
    arrival: SimTime,
}

impl<T> SetState<T> {
    fn slot_mut(&mut self, i: u32) -> &mut Slot<T> {
        &mut self.slab[i as usize / SLAB_BLOCK][i as usize % SLAB_BLOCK]
    }

    /// A free slot holding `env`, the slab grown by a block if none is.
    fn alloc(&mut self, env: Envelope<T>) -> u32 {
        if self.free == NIL {
            let base = self.slab.len() * SLAB_BLOCK;
            let end = u32::try_from(base + SLAB_BLOCK).expect("slab within u32 slots");
            let block = (base as u32 + 1..=end).map(|next| Slot {
                env: None,
                next: if next == end { NIL } else { next },
            });
            self.slab.push(block.collect());
            self.free = base as u32;
        }
        let i = self.free;
        let slot = self.slot_mut(i);
        let next = std::mem::replace(&mut slot.next, NIL);
        slot.env = Some(env);
        self.free = next;
        i
    }

    /// The earliest message in mailbox `to` satisfying `pred`, by
    /// `(arrival, seq)`, among those with no earlier-sent match from the
    /// same sender still queued (MPI's non-overtaking rule). The scan
    /// looks at every queued message once, in send order, so the first
    /// match from a sender is its earliest-sent one.
    fn earliest_match(
        &mut self,
        to: usize,
        sender_of: fn(&T) -> Option<usize>,
        mut pred: impl FnMut(&T) -> bool,
    ) -> Option<Hit> {
        self.scans += 1;
        let scan = self.scans;
        let mut hit: Option<Hit> = None;
        let (mut prev, mut i, mut looked) = (NIL, self.boxes[to].head, 0);
        while i != NIL {
            let slot = &self.slab[i as usize / SLAB_BLOCK][i as usize % SLAB_BLOCK];
            let e = slot.env.as_ref().expect("a listed slot holds a message");
            looked += 1;
            if pred(&e.msg) {
                let first_from_sender = match sender_of(&e.msg) {
                    Some(s) => std::mem::replace(&mut self.boxes[s].matched_in, scan) != scan,
                    None => true,
                };
                if first_from_sender && hit.as_ref().is_none_or(|h| e.arrival < h.arrival) {
                    hit = Some(Hit {
                        slot: i,
                        prev,
                        arrival: e.arrival,
                    });
                }
            }
            (prev, i) = (i, slot.next);
        }
        self.boxes[to].examined += looked;
        hit
    }

    /// Unlink `hit` from mailbox `to`, free its slot, record the receive.
    fn take(&mut self, p: &Proc, to: usize, hit: Hit) -> T {
        let free = self.free;
        let slot = self.slot_mut(hit.slot);
        let env = slot.env.take().expect("a receive found this message");
        let next = std::mem::replace(&mut slot.next, free);
        self.free = hit.slot; // the slot heads the free list
        match hit.prev {
            NIL => self.boxes[to].head = next,
            prev => self.slot_mut(prev).next = next,
        }
        let mailbox = &mut self.boxes[to];
        if mailbox.tail == hit.slot {
            mailbox.tail = hit.prev;
        }
        mailbox.received += 1;
        hb::chan_recv(p, mailbox.id, env.seq.get());
        env.msg
    }
}

/// `n` unordered latency-aware mailboxes under one lock — one per rank of
/// an MPI job — whose queued messages live in one slab. The slab grows in
/// fixed blocks and reuses freed slots, so the set holds as many slots as
/// were ever in flight at once across all its mailboxes, not the sum of
/// every mailbox's own peak.
///
/// A receive takes the earliest-arriving match — the network may reorder —
/// except that a message never overtakes an earlier-sent match from the
/// same sender, as `sender_of` names it (`None`: no sender, never held
/// back). A receive looks at every queued message of its mailbox.
pub struct Mailboxes<T> {
    state: Mutex<SetState<T>>,
    sender_of: fn(&T) -> Option<usize>,
}

impl<T> Mailboxes<T> {
    /// `n` empty mailboxes; `sender_of` gives the mailbox index of a
    /// message's sender, for the non-overtaking rule.
    pub fn new(n: usize, sender_of: fn(&T) -> Option<usize>) -> Mailboxes<T> {
        let boxes = (0..n).map(|_| Mailbox {
            head: NIL,
            tail: NIL,
            waiters: Vec::new(),
            seq: 0,
            examined: 0,
            received: 0,
            matched_in: 0,
            id: hb::unique_id(),
        });
        Mailboxes {
            state: Mutex::new(SetState {
                boxes: boxes.collect(),
                slab: Vec::new(),
                free: NIL,
                scans: 0,
            }),
            sender_of,
        }
    }

    /// Send `msg` to mailbox `to`, arriving `latency` after the sender's
    /// current time; every process waiting there is woken at the arrival.
    pub fn send(&self, p: &Proc, to: usize, msg: T, latency: SimTime) {
        let arrival = p.now() + latency;
        let mut s = self.state.lock();
        let mailbox = &mut s.boxes[to];
        mailbox.seq += 1;
        let seq = mailbox.seq;
        hb::chan_send(p, mailbox.id, seq);
        let seq = NonZeroU64::new(seq).expect("seq counts from 1");
        let at = s.alloc(Envelope { arrival, seq, msg });
        let mailbox = &mut s.boxes[to];
        let tail = std::mem::replace(&mut mailbox.tail, at);
        match tail {
            NIL => mailbox.head = at,
            tail => s.slot_mut(tail).next = at,
        }
        for pid in s.boxes[to].waiters.drain(..) {
            p.wake_other(pid, arrival);
        }
    }

    /// Queued messages that receives on mailbox `at` have looked at so
    /// far: what delivering [`Mailboxes::received`] messages cost.
    pub fn examined(&self, at: usize) -> u64 {
        self.state.lock().boxes[at].examined
    }

    /// Messages taken off mailbox `at` so far.
    pub fn received(&self, at: usize) -> u64 {
        self.state.lock().boxes[at].received
    }

    /// Receive at mailbox `at` the earliest-arriving message satisfying
    /// `pred` that overtakes no earlier-sent match from its sender.
    /// Blocks until such a message arrives.
    pub fn recv_match(&self, p: &Proc, at: usize, mut pred: impl FnMut(&T) -> bool) -> T {
        loop {
            let mut s = self.state.lock();
            match s.earliest_match(at, self.sender_of, &mut pred) {
                Some(hit) if hit.arrival <= p.now() => return s.take(p, at, hit),
                Some(hit) => {
                    // Matching message still in flight: sleep to it. (If
                    // an even earlier-arriving match is enqueued while we
                    // sleep, we take it on re-check but our clock has
                    // already advanced — a bounded conservative skew,
                    // never a rewind.)
                    drop(s);
                    p.sleep_until(hit.arrival);
                }
                None => {
                    let pid = p.pid();
                    s.boxes[at].register(pid);
                    drop(s);
                    // Race-free: no other process can run between the
                    // drop above and this yield.
                    p.block();
                    // Deregister (we may have been woken spuriously).
                    self.state.lock().boxes[at].waiters.retain(|&w| w != pid);
                }
            }
        }
    }

    /// Like [`Mailboxes::recv_match`], but give up at `deadline`: returns
    /// `None` if no matching message has arrived by then.
    pub fn recv_match_deadline(
        &self,
        p: &Proc,
        at: usize,
        mut pred: impl FnMut(&T) -> bool,
        deadline: SimTime,
    ) -> Option<T> {
        loop {
            let mut s = self.state.lock();
            match s.earliest_match(at, self.sender_of, &mut pred) {
                Some(hit) if hit.arrival <= p.now() => return Some(s.take(p, at, hit)),
                Some(hit) if hit.arrival <= deadline => {
                    drop(s);
                    p.sleep_until(hit.arrival);
                }
                _ => {
                    // No match, or the only matches arrive too late.
                    if p.now() >= deadline {
                        return None;
                    }
                    let pid = p.pid();
                    s.boxes[at].register(pid);
                    drop(s);
                    p.block_until_deadline(deadline);
                    self.state.lock().boxes[at].waiters.retain(|&w| w != pid);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SimBarrier
// ---------------------------------------------------------------------------

struct BarrierState {
    generation: u64,
    arrived: usize,
    /// Max arrival time within the current generation.
    latest: SimTime,
    waiters: Vec<Pid>,
    /// Release time of the previous generation, for stragglers re-checking.
    release_time: SimTime,
}

/// A cyclic barrier over `n` participants.
///
/// The barrier releases every participant at `max(arrival times) + cost`,
/// modelling a synchronization whose cost is set at construction (e.g.
/// `O(log n)` tree barrier time).
pub struct SimBarrier {
    n: usize,
    cost: SimTime,
    state: Mutex<BarrierState>,
    /// Identity for happens-before recording: a process-global id
    /// ([`hb::unique_id`]) taken whether or not the run is armed.
    id: u64,
}

impl SimBarrier {
    /// Barrier over `n` participants with the given per-episode release
    /// cost. Panics if `n == 0`.
    pub fn new(n: usize, cost: SimTime) -> SimBarrier {
        assert!(n > 0, "barrier over zero participants");
        SimBarrier {
            n,
            cost,
            state: Mutex::new(BarrierState {
                generation: 0,
                arrived: 0,
                latest: SimTime::ZERO,
                waiters: Vec::new(),
                release_time: SimTime::ZERO,
            }),
            id: hb::unique_id(),
        }
    }

    /// Number of participants.
    pub fn participants(&self) -> usize {
        self.n
    }

    /// Enter the barrier; returns the release time. The calling process's
    /// clock is raised to the release time.
    pub fn wait(&self, p: &Proc) -> SimTime {
        let mut s = self.state.lock();
        let my_gen = s.generation;
        s.arrived += 1;
        s.latest = s.latest.max(p.now());
        hb::barrier_arrive(p, self.id, my_gen);
        if s.arrived == self.n {
            // Last arriver releases the episode.
            let release = s.latest + self.cost;
            s.generation += 1;
            s.arrived = 0;
            s.latest = SimTime::ZERO;
            s.release_time = release;
            let waiters = std::mem::take(&mut s.waiters);
            drop(s);
            for pid in waiters {
                p.wake_other(pid, release);
            }
            p.lift_clock(release);
            hb::barrier_depart(p, self.id, my_gen);
            release
        } else {
            let pid = p.pid();
            s.waiters.push(pid);
            drop(s);
            loop {
                let t = p.block();
                let s = self.state.lock();
                if s.generation > my_gen {
                    let release = t.max(s.release_time);
                    drop(s);
                    hb::barrier_depart(p, self.id, my_gen);
                    return release;
                }
                // Spurious wake: re-register and keep waiting.
                drop(s);
                let mut s = self.state.lock();
                if !s.waiters.contains(&pid) {
                    s.waiters.push(pid);
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// SimGate
// ---------------------------------------------------------------------------

struct GateState {
    open_at: Option<SimTime>,
    waiters: Vec<Pid>,
}

/// A broadcast flag. Processes calling [`SimGate::wait_open`] block until
/// some process [`SimGate::open`]s the gate; once open, waiters pass
/// through immediately (their clocks raised to the opening time).
pub struct SimGate {
    state: Mutex<GateState>,
    /// Identity for happens-before recording: a process-global id
    /// ([`hb::unique_id`]) taken whether or not the run is armed.
    id: u64,
}

impl Default for SimGate {
    fn default() -> Self {
        Self::new()
    }
}

impl SimGate {
    /// A closed gate.
    pub fn new() -> SimGate {
        SimGate {
            state: Mutex::new(GateState {
                open_at: None,
                waiters: Vec::new(),
            }),
            id: hb::unique_id(),
        }
    }

    /// Open the gate, releasing waiters `latency` after the opener's time.
    pub fn open(&self, p: &Proc, latency: SimTime) {
        let at = p.now() + latency;
        hb::gate_open(p, self.id);
        let mut s = self.state.lock();
        s.open_at = Some(match s.open_at {
            Some(prev) => prev.min(at),
            None => at,
        });
        for pid in s.waiters.drain(..) {
            p.wake_other(pid, at);
        }
    }

    /// Close the gate again (for reusable breakpoints).
    pub fn reset(&self) {
        self.state.lock().open_at = None;
    }

    /// Block until the gate is open; returns the time at which the caller
    /// passed through.
    pub fn wait_open(&self, p: &Proc) -> SimTime {
        loop {
            let mut s = self.state.lock();
            if let Some(at) = s.open_at {
                if at <= p.now() {
                    hb::gate_pass(p, self.id);
                    return p.now();
                }
                drop(s);
                p.sleep_until(at);
                hb::gate_pass(p, self.id);
                return p.now();
            }
            let pid = p.pid();
            if !s.waiters.contains(&pid) {
                s.waiters.push(pid);
            }
            drop(s);
            p.block();
            let mut s = self.state.lock();
            s.waiters.retain(|&w| w != pid);
        }
    }
}

// ---------------------------------------------------------------------------
// SimQueue: FIFO work queue (no latency), for OMP dynamic scheduling
// ---------------------------------------------------------------------------

/// A plain FIFO shared work queue with blocking pop, used by the OpenMP
/// runtime's dynamic loop scheduler. Unlike [`SimChannel`], entries have no
/// arrival latency; a `None` sentinel (closed queue) releases poppers.
pub struct SimQueue<T> {
    state: Mutex<(VecDeque<T>, bool, Vec<Pid>)>,
    /// Identity for happens-before recording: a process-global id
    /// ([`hb::unique_id`]) taken whether or not the run is armed.
    id: u64,
}

impl<T> Default for SimQueue<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SimQueue<T> {
    /// An empty, open queue.
    pub fn new() -> SimQueue<T> {
        SimQueue {
            state: Mutex::new((VecDeque::new(), false, Vec::new())),
            id: hb::unique_id(),
        }
    }

    /// Push one item.
    pub fn push(&self, p: &Proc, item: T) {
        hb::queue_push(p, self.id);
        let mut s = self.state.lock();
        s.0.push_back(item);
        Self::notify(p, &mut s);
    }

    /// Close the queue: poppers drain remaining items, then observe `None`.
    pub fn close(&self, p: &Proc) {
        hb::queue_push(p, self.id);
        let mut s = self.state.lock();
        s.1 = true;
        Self::notify(p, &mut s);
    }

    fn notify(p: &Proc, s: &mut (VecDeque<T>, bool, Vec<Pid>)) {
        let now = p.now();
        for pid in s.2.drain(..) {
            p.wake_other(pid, now);
        }
    }

    /// Pop one item, blocking while the queue is empty and open.
    /// Returns `None` once the queue is closed and drained.
    pub fn pop(&self, p: &Proc) -> Option<T> {
        loop {
            let mut s = self.state.lock();
            if let Some(item) = s.0.pop_front() {
                hb::queue_pop(p, self.id);
                return Some(item);
            }
            if s.1 {
                return None;
            }
            let pid = p.pid();
            if !s.2.contains(&pid) {
                s.2.push(pid);
            }
            drop(s);
            p.block();
            let mut s = self.state.lock();
            s.2.retain(|&w| w != pid);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Sim;
    use crate::fault::{FaultPlan, FaultSpec};
    use crate::topology::Machine;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    fn vsim(seed: u64) -> Sim {
        Sim::virtual_time(Machine::test_machine(), seed)
    }

    /// A message whose `Clone` impl counts every invocation. Pins the
    /// `send_ctl` contract: the message is cloned only *after* the plan
    /// decides to duplicate it, never speculatively.
    struct Counted(Arc<AtomicUsize>);

    impl Clone for Counted {
        fn clone(&self) -> Counted {
            self.0.fetch_add(1, Ordering::Relaxed);
            Counted(Arc::clone(&self.0))
        }
    }

    #[test]
    fn send_ctl_never_clones_without_a_fault_plan() {
        let sim = vsim(3);
        let clones = Arc::new(AtomicUsize::new(0));
        let ch: Arc<SimChannel<Counted>> = Arc::new(SimChannel::new_fifo());
        let (tx, c) = (Arc::clone(&ch), Arc::clone(&clones));
        sim.spawn("solo", 0, move |p| {
            for _ in 0..100 {
                tx.send_ctl(p, Counted(Arc::clone(&c)), SimTime::ZERO);
            }
            assert_eq!(tx.len(), 100, "fault-free send_ctl delivers every send");
            while tx.try_recv_match(p, |_| true).is_some() {}
        });
        sim.run();
        assert_eq!(
            clones.load(Ordering::Relaxed),
            0,
            "send_ctl with no fault plan must not clone the message"
        );
    }

    #[test]
    fn send_ctl_clones_exactly_once_per_duplicate() {
        // The `dup` profile duplicates ~10% of control messages and drops
        // none, so deliveries − sends counts the duplicates exactly; each
        // must have cost exactly one clone (and the non-duplicated sends
        // none).
        const SENDS: usize = 400;
        let sim = vsim(3);
        let spec = FaultSpec::parse("7:dup").expect("dup profile parses");
        assert!(sim.set_fault_plan(FaultPlan::new(&spec, sim.machine())));
        let clones = Arc::new(AtomicUsize::new(0));
        let delivered = Arc::new(AtomicUsize::new(0));
        let ch: Arc<SimChannel<Counted>> = Arc::new(SimChannel::new_fifo());
        let (tx, c, d) = (Arc::clone(&ch), Arc::clone(&clones), Arc::clone(&delivered));
        sim.spawn("solo", 0, move |p| {
            for _ in 0..SENDS {
                tx.send_ctl(p, Counted(Arc::clone(&c)), SimTime::ZERO);
            }
            let mut n = 0usize;
            while tx.try_recv_match(p, |_| true).is_some() {
                n += 1;
            }
            d.store(n, Ordering::Relaxed);
        });
        sim.run();
        let dups = delivered.load(Ordering::Relaxed) - SENDS;
        assert!(
            dups > 0,
            "dup profile must duplicate something in {SENDS} sends"
        );
        assert_eq!(
            clones.load(Ordering::Relaxed),
            dups,
            "exactly one clone per duplicated delivery"
        );
    }

    #[test]
    fn channel_delivers_after_latency() {
        let sim = vsim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("sender", 0, move |p| {
            p.advance(SimTime::from_micros(10));
            tx.send(p, 42, SimTime::from_micros(5));
        });
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", 1, move |p| {
            let v = rx.recv(p);
            assert_eq!(v, 42);
            assert_eq!(p.now(), SimTime::from_micros(15));
        });
        sim.run();
    }

    #[test]
    fn channel_receiver_already_past_arrival() {
        let sim = vsim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("sender", 0, move |p| {
            tx.send(p, 7, SimTime::from_micros(1));
        });
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", 1, move |p| {
            p.advance(SimTime::from_millis(1)); // way past arrival
            let v = rx.recv(p);
            assert_eq!(v, 7);
            // Clock must NOT rewind.
            assert_eq!(p.now(), SimTime::from_millis(1));
        });
        sim.run();
    }

    #[test]
    fn channel_match_picks_earliest_matching() {
        let sim = vsim(1);
        let set: Arc<Mailboxes<(u32, &'static str)>> = Arc::new(Mailboxes::new(1, |_| None));
        let tx = Arc::clone(&set);
        sim.spawn("sender", 0, move |p| {
            tx.send(p, 0, (1, "a"), SimTime::from_micros(30));
            tx.send(p, 0, (2, "b"), SimTime::from_micros(10));
            tx.send(p, 0, (3, "b"), SimTime::from_micros(20));
        });
        let rx = Arc::clone(&set);
        sim.spawn("receiver", 1, move |p| {
            let (id, tag) = rx.recv_match(p, 0, |m| m.1 == "b");
            assert_eq!((id, tag), (2, "b"));
            let (id, _) = rx.recv_match(p, 0, |m| m.1 == "b");
            assert_eq!(id, 3);
            let (id, _) = rx.recv_match(p, 0, |_| true);
            assert_eq!(id, 1);
        });
        sim.run();
    }

    #[test]
    fn try_recv_respects_arrival_time() {
        let sim = vsim(1);
        let ch: Arc<SimChannel<u8>> = Arc::new(SimChannel::new_fifo());
        let c = Arc::clone(&ch);
        sim.spawn("solo", 0, move |p| {
            c.send(p, 9, SimTime::from_micros(100));
            assert_eq!(c.try_recv_match(p, |_| true), None); // still in flight
            p.advance(SimTime::from_micros(100));
            assert_eq!(c.try_recv_match(p, |_| true), Some(9));
        });
        sim.run();

        // The keyed form: in flight is `None`, an absent key is `None`.
        let sim = vsim(1);
        let ch: Arc<SimChannel<u8>> = Arc::new(SimChannel::new_fifo_keyed(|m| Some(*m as u64)));
        let c = Arc::clone(&ch);
        sim.spawn("solo", 0, move |p| {
            c.send(p, 9, SimTime::from_micros(100));
            c.send(p, 4, SimTime::from_micros(100));
            assert_eq!(c.try_recv_key(p, 4), None);
            p.advance(SimTime::from_micros(100));
            assert_eq!(c.try_recv_key(p, 7), None);
            assert_eq!(c.try_recv_key(p, 4), Some(4));
            assert_eq!(c.try_recv_key(p, 9), Some(9));
            assert!(c.is_empty());
        });
        sim.run();
    }

    #[test]
    fn barrier_releases_at_max_plus_cost() {
        let sim = vsim(1);
        let bar = Arc::new(SimBarrier::new(3, SimTime::from_micros(7)));
        for i in 0..3u64 {
            let b = Arc::clone(&bar);
            sim.spawn(format!("p{i}"), 0, move |p| {
                p.advance(SimTime::from_micros(10 * (i + 1))); // arrive at 10/20/30
                let rel = b.wait(p);
                assert_eq!(rel, SimTime::from_micros(37));
                assert_eq!(p.now(), SimTime::from_micros(37));
            });
        }
        sim.run();
    }

    #[test]
    fn barrier_is_cyclic() {
        let sim = vsim(1);
        let bar = Arc::new(SimBarrier::new(2, SimTime::ZERO));
        for i in 0..2u64 {
            let b = Arc::clone(&bar);
            sim.spawn(format!("p{i}"), 0, move |p| {
                let mut last = SimTime::ZERO;
                for round in 0..5u64 {
                    p.advance(SimTime::from_micros(i + 1));
                    let rel = b.wait(p);
                    assert!(rel >= last, "round {round} went backwards");
                    last = rel;
                }
                // Slowest participant advances 2us per round.
                assert_eq!(last, SimTime::from_micros(10));
            });
        }
        sim.run();
    }

    #[test]
    fn gate_blocks_until_open() {
        let sim = vsim(1);
        let gate = Arc::new(SimGate::new());
        let g = Arc::clone(&gate);
        sim.spawn("opener", 0, move |p| {
            p.advance(SimTime::from_millis(3));
            g.open(p, SimTime::from_micros(500));
        });
        for i in 0..3 {
            let g = Arc::clone(&gate);
            sim.spawn(format!("w{i}"), 1, move |p| {
                let t = g.wait_open(p);
                assert_eq!(t, SimTime::from_micros(3500));
            });
        }
        sim.run();
    }

    #[test]
    fn gate_open_before_wait_passes_straight_through() {
        let sim = vsim(1);
        let gate = Arc::new(SimGate::new());
        let g = Arc::clone(&gate);
        sim.spawn("opener", 0, move |p| {
            g.open(p, SimTime::ZERO);
        });
        let g2 = Arc::clone(&gate);
        sim.spawn("late", 1, move |p| {
            p.advance(SimTime::from_secs(1));
            let t = g2.wait_open(p);
            assert_eq!(t, SimTime::from_secs(1)); // no waiting, no rewind
        });
        sim.run();
    }

    #[test]
    fn queue_drains_then_closes() {
        let sim = vsim(1);
        let q: Arc<SimQueue<u32>> = Arc::new(SimQueue::new());
        let qp = Arc::clone(&q);
        sim.spawn("producer", 0, move |p| {
            for i in 0..10 {
                qp.push(p, i);
                p.advance(SimTime::from_micros(1));
            }
            qp.close(p);
        });
        let sum = Arc::new(Mutex::new(0u32));
        for w in 0..3 {
            let qc = Arc::clone(&q);
            let sum = Arc::clone(&sum);
            sim.spawn(format!("worker{w}"), 1, move |p| {
                while let Some(v) = qc.pop(p) {
                    *sum.lock() += v;
                    p.advance(SimTime::from_micros(2));
                }
            });
        }
        sim.run();
        assert_eq!(*sum.lock(), 45);
    }

    #[test]
    fn deadline_recv_takes_message_sent_exactly_at_deadline() {
        // Regression: the receiver blocks first, arming its deadline
        // timer; the sender's wake-to-send is scheduled at the very same
        // virtual time as the deadline. The old scheduler tie-break
        // `(time, seq)` popped the (earlier-armed) timer before the send
        // could happen, so the receive timed out even though the message
        // arrives exactly at the deadline. Wake events must win the tie.
        let sim = vsim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", 0, move |p| {
            let v = rx.recv_match_deadline(p, |_| true, SimTime::from_micros(50));
            assert_eq!(
                v,
                Some(7),
                "a message arriving exactly at the deadline must be received"
            );
            assert_eq!(p.now(), SimTime::from_micros(50));
        });
        let tx = Arc::clone(&ch);
        sim.spawn("sender", 1, move |p| {
            p.sleep_until(SimTime::from_micros(50));
            tx.send(p, 7, SimTime::ZERO);
        });
        sim.run();
    }

    #[test]
    fn deadline_recv_takes_message_at_deadline_sender_spawned_first() {
        // Same tie, opposite spawn (and therefore heap-seq) order.
        let sim = vsim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("sender", 0, move |p| {
            p.sleep_until(SimTime::from_micros(50));
            tx.send(p, 7, SimTime::ZERO);
        });
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", 1, move |p| {
            let v = rx.recv_match_deadline(p, |_| true, SimTime::from_micros(50));
            assert_eq!(v, Some(7));
            assert_eq!(p.now(), SimTime::from_micros(50));
        });
        sim.run();
    }

    #[test]
    fn deadline_recv_still_times_out_when_message_is_late() {
        let sim = vsim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", 0, move |p| {
            let v = rx.recv_match_deadline(p, |_| true, SimTime::from_micros(50));
            assert_eq!(v, None, "a message after the deadline must not be taken");
            assert_eq!(p.now(), SimTime::from_micros(50));
        });
        let tx = Arc::clone(&ch);
        sim.spawn("sender", 1, move |p| {
            p.sleep_until(SimTime::from_micros(51));
            tx.send(p, 7, SimTime::ZERO);
        });
        sim.run();
    }

    /// Slots (holes included) and index entries a channel holds right now.
    fn footprint<T>(ch: &SimChannel<T>) -> (usize, usize) {
        let s = ch.state.lock();
        (
            s.queue.len() - s.head,
            s.keys.as_ref().map_or(0, |k| k.1.len()),
        )
    }

    /// `(key, payload)` messages keyed by their first field; key 0 = none.
    fn keyed_channel() -> Arc<SimChannel<(u64, u32)>> {
        Arc::new(SimChannel::new_fifo_keyed(|m| (m.0 != 0).then_some(m.0)))
    }

    #[test]
    fn holes_are_skipped_and_trimmed_when_they_reach_the_front() {
        let sim = vsim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let c = Arc::clone(&ch);
        sim.spawn("solo", 0, move |p| {
            for v in 0..6 {
                c.send(p, v, SimTime::ZERO);
            }
            // Out of order, from the middle: holes, nothing trimmed.
            assert_eq!(c.try_recv_match(p, |&v| v == 3), Some(3));
            assert_eq!(c.try_recv_match(p, |&v| v == 1), Some(1));
            assert_eq!((c.len(), footprint(&c).0), (4, 6));
            // The front goes, and the hole behind it with it.
            assert_eq!(c.recv(p), 0);
            assert_eq!((c.len(), footprint(&c).0), (3, 4));
            // A walk steps over the remaining hole (2, [3], 4, 5).
            let before = c.examined();
            assert_eq!(c.try_recv_match(p, |&v| v == 4), Some(4));
            assert_eq!(c.examined() - before, 2, "holes are not examined");
            assert_eq!(c.recv(p), 2);
            assert_eq!(
                (c.len(), footprint(&c).0),
                (1, 1),
                "two holes trimmed at once"
            );
            assert_eq!(c.recv(p), 5);
            assert_eq!(footprint(&c).0, 0);
            assert_eq!(c.received(), 6);
            // Message numbering survives an emptied queue.
            c.send(p, 6, SimTime::ZERO);
            assert_eq!(c.recv(p), 6);
        });
        sim.run();
    }

    #[test]
    fn a_predicate_is_shown_only_what_the_walk_needs() {
        // The old queue called the predicate once per queued message; a
        // FIFO walk stops at the first match, a mailbox scan still has to
        // see everything.
        let sim = vsim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let set: Arc<Mailboxes<u32>> = Arc::new(Mailboxes::new(1, |_| None));
        sim.spawn("solo", 0, move |p| {
            for v in 0..10 {
                ch.send(p, v, SimTime::ZERO);
                set.send(p, 0, v, SimTime::ZERO);
            }
            let mut calls = 0;
            let got = ch.try_recv_match(p, |&v| {
                calls += 1;
                v >= 2
            });
            assert_eq!((got, calls, ch.examined()), (Some(2), 3, 3));
            let mut calls = 0;
            let got = set.recv_match(p, 0, |&v| {
                calls += 1;
                v >= 2
            });
            assert_eq!((got, calls, set.examined(0)), (2, 10, 10));
        });
        sim.run();
    }

    #[test]
    fn keyed_receive_finds_its_message_behind_any_backlog() {
        let sim = vsim(1);
        let ch = keyed_channel();
        let c = Arc::clone(&ch);
        sim.spawn("solo", 0, move |p| {
            for k in 1..=1000u64 {
                c.send(p, (k, k as u32), SimTime::ZERO);
            }
            let far = SimTime::from_secs(1);
            assert_eq!(c.recv_key_deadline(p, 1000, far), Some((1000, 1000)));
            assert_eq!(c.recv_key_deadline(p, 500, far), Some((500, 500)));
            assert_eq!(c.examined(), 2, "one index entry per keyed receive");
            // A key nobody sent: nothing examined, the deadline passes.
            let t0 = p.now();
            assert_eq!(
                c.recv_key_deadline(p, 7777, t0 + SimTime::from_micros(5)),
                None
            );
            assert_eq!(p.now(), t0 + SimTime::from_micros(5));
            assert_eq!(c.examined(), 2);
            assert_eq!(footprint(&c), (1000, 998));
        });
        sim.run();
    }

    #[test]
    fn duplicate_keys_come_out_in_order_and_the_index_drains_empty() {
        let sim = vsim(1);
        let ch = keyed_channel();
        let c = Arc::clone(&ch);
        sim.spawn("solo", 0, move |p| {
            // Key 7 three times (a `dup` fault and a resend), others between.
            for m in [(7, 1), (8, 2), (7, 3), (0, 4), (7, 5), (9, 6)] {
                c.send(p, m, SimTime::from_micros(1));
            }
            let far = SimTime::from_secs(1);
            // In flight and due: the keyed receive sleeps to the arrival.
            assert_eq!(c.recv_key_deadline(p, 7, far), Some((7, 1)));
            assert_eq!(p.now(), SimTime::from_micros(1));
            assert_eq!(c.len(), 5, "the other two stay queued");
            assert_eq!(c.recv_key_deadline(p, 7, far), Some((7, 3)));
            assert_eq!(c.recv_key_deadline(p, 7, far), Some((7, 5)));
            let t0 = p.now();
            assert_eq!(c.recv_key_deadline(p, 7, t0), None, "none left");
            assert_eq!(c.recv_key_deadline(p, 9, far), Some((9, 6)));
            assert_eq!(c.recv_key_deadline(p, 8, far), Some((8, 2)));
            // The unkeyed message is left, with two holes behind it.
            assert_eq!((c.len(), footprint(&c)), (1, (3, 0)));
            assert_eq!(c.recv(p), (0, 4));
            assert_eq!(footprint(&c), (0, 0));
        });
        sim.run();
    }

    #[test]
    fn keyed_messages_are_ordinary_messages_to_every_other_receive() {
        let sim = vsim(1);
        let ch = keyed_channel();
        let c = Arc::clone(&ch);
        sim.spawn("solo", 0, move |p| {
            for m in [(5, 1), (6, 2), (5, 3), (6, 4)] {
                c.send(p, m, SimTime::ZERO);
            }
            // `recv` takes the earliest (5, 1); the index moves on to (5, 3).
            assert_eq!(c.recv(p), (5, 1));
            // A predicate takes the *later* duplicate of key 6 ...
            assert_eq!(c.recv_match(p, |m| m.1 == 4), (6, 4));
            // ... and the keyed receives still find what is left, in order.
            let far = SimTime::from_secs(1);
            assert_eq!(c.recv_key_deadline(p, 6, far), Some((6, 2)));
            assert_eq!(c.recv_key_deadline(p, 5, far), Some((5, 3)));
            assert_eq!(footprint(&c), (0, 0));
            // On a channel without a key function nothing has a key.
            let plain: SimChannel<(u64, u32)> = SimChannel::new_fifo();
            plain.send(p, (5, 1), SimTime::ZERO);
            assert_eq!(plain.recv_key_deadline(p, 5, p.now()), None);
        });
        sim.run();
    }

    #[test]
    fn deadline_expires_behind_a_backlog_that_does_not_match() {
        let sim = vsim(1);
        let ch = keyed_channel();
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", 0, move |p| {
            for k in 1..=50u64 {
                rx.send(p, (k, 0), SimTime::ZERO);
            }
            // Wanted messages that arrive after the deadline do not count.
            rx.send(p, (99, 1), SimTime::from_micros(80));
            let deadline = SimTime::from_micros(40);
            assert_eq!(rx.recv_match_deadline(p, |m| m.0 == 99, deadline), None);
            assert_eq!(p.now(), deadline);
            let deadline = SimTime::from_micros(60);
            assert_eq!(rx.recv_key_deadline(p, 99, deadline), None);
            assert_eq!(p.now(), deadline);
            assert_eq!(rx.len(), 51, "a timed-out receive takes nothing");
            // Woken by a send that does not match, the receive keeps waiting.
            assert_eq!(rx.recv_key_deadline(p, 77, SimTime::from_micros(70)), None);
            assert_eq!(p.now(), SimTime::from_micros(70));
        });
        let tx = Arc::clone(&ch);
        sim.spawn("sender", 1, move |p| {
            p.sleep_until(SimTime::from_micros(65));
            tx.send(p, (78, 0), SimTime::ZERO);
        });
        sim.run();
    }

    #[test]
    fn a_drained_burst_gives_its_buffer_back() {
        let sim = vsim(1);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let c = Arc::clone(&ch);
        sim.spawn("solo", 0, move |p| {
            for v in 0..1000 {
                c.send(p, v, SimTime::ZERO);
            }
            assert!(c.state.lock().queue.capacity() >= 1000);
            while c.try_recv_match(p, |_| true).is_some() {}
            assert_eq!(c.state.lock().queue.capacity(), 0);
        });
        sim.run();
    }

    #[test]
    fn fifo_channel_never_reorders() {
        // Unordered channels may deliver a later-sent message earlier (the
        // jitter model); FIFO channels must not.
        let sim = vsim(5);
        let ch: Arc<SimChannel<u32>> = Arc::new(SimChannel::new_fifo());
        let tx = Arc::clone(&ch);
        sim.spawn("sender", 0, move |p| {
            // Decreasing latencies: without FIFO, message 2 would arrive
            // before message 1.
            tx.send(p, 1, SimTime::from_micros(100));
            tx.send(p, 2, SimTime::from_micros(10));
            tx.send(p, 3, SimTime::from_micros(1));
        });
        let rx = Arc::clone(&ch);
        sim.spawn("receiver", 1, move |p| {
            assert_eq!(rx.recv(p), 1);
            assert_eq!(rx.recv(p), 2);
            assert_eq!(rx.recv(p), 3);
            // All arrive no earlier than the first message's latency.
            assert!(p.now() >= SimTime::from_micros(100));
        });
        sim.run();
    }

    #[test]
    fn unordered_channel_may_reorder() {
        // Message `(from, n)`: the sender's mailbox index and its number.
        let sim = vsim(5);
        let set: Arc<Mailboxes<(usize, u32)>> = Arc::new(Mailboxes::new(3, |m| Some(m.0)));
        let tx = Arc::clone(&set);
        sim.spawn("sender", 0, move |p| {
            tx.send(p, 0, (1, 1), SimTime::from_micros(100));
            tx.send(p, 0, (2, 2), SimTime::from_micros(1));
        });
        let rx = Arc::clone(&set);
        sim.spawn("receiver", 1, move |p| {
            let any = |_: &(usize, u32)| true;
            assert_eq!(rx.recv_match(p, 0, any), (2, 2), "earlier arrival wins");
            assert_eq!(rx.recv_match(p, 0, any), (1, 1));
        });
        sim.run();
    }

    #[test]
    fn a_message_never_overtakes_an_earlier_match_from_its_sender() {
        // Sender 1's second message arrives first; sender 2's arrives
        // between the two. The scan takes the earliest arrival among each
        // sender's earliest-sent match, and looks at everything once.
        let sim = vsim(5);
        let set: Arc<Mailboxes<(usize, u32)>> = Arc::new(Mailboxes::new(3, |m| Some(m.0)));
        let c = Arc::clone(&set);
        sim.spawn("solo", 0, move |p| {
            c.send(p, 0, (1, 10), SimTime::from_micros(30));
            c.send(p, 0, (1, 11), SimTime::from_micros(10));
            c.send(p, 0, (2, 20), SimTime::from_micros(20));
            c.send(p, 0, (1, 12), SimTime::from_micros(5));
            p.advance(SimTime::from_micros(40)); // all four have arrived
            let any = |_: &(usize, u32)| true;
            assert_eq!(c.recv_match(p, 0, any), (2, 20));
            assert_eq!(c.examined(0), 4);
            // Only a match holds a later message back: 11 may pass 10.
            assert_eq!(c.recv_match(p, 0, |m| m.1 != 10), (1, 11));
            assert_eq!(c.recv_match(p, 0, any), (1, 10));
            assert_eq!(c.recv_match(p, 0, any), (1, 12));
            assert_eq!((c.received(0), c.examined(0)), (4, 10));
            assert_eq!(c.state.lock().boxes[0].head, NIL);
        });
        sim.run();
    }

    #[test]
    fn a_slab_holds_what_is_in_flight_not_what_each_mailbox_held() {
        // 1 152 mailboxes filled and drained one after another, 16 messages
        // each: per-mailbox buffers would keep 1 152 x 16 slots, the slab
        // one mailbox's worth (16, plus at most one growth step).
        const RANKS: usize = 1152;
        let sim = vsim(1);
        let set: Arc<Mailboxes<u64>> = Arc::new(Mailboxes::new(RANKS, |_| None));
        let c = Arc::clone(&set);
        sim.spawn("solo", 0, move |p| {
            for to in 0..RANKS {
                for v in 0..16 {
                    c.send(p, to, v, SimTime::ZERO);
                }
                for v in (0..16).rev() {
                    assert_eq!(c.recv_match(p, to, |&m| m == v), v);
                }
            }
        });
        sim.run();
        let s = set.state.lock();
        let slots = s.slab.len() * SLAB_BLOCK;
        assert!(slots <= 16 + SLAB_BLOCK, "{slots} slots for 16 in flight");
        assert!(s.boxes.iter().all(|b| b.head == NIL && b.tail == NIL));
        assert_eq!(s.boxes.iter().map(|b| b.received).sum::<u64>(), 16 * 1152);
    }
}
