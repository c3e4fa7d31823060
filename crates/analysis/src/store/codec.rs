//! Chunk-payload codec: LEB128 varints, zigzag deltas, and the
//! per-event encoding used inside store chunks.
//!
//! Within a chunk every event belongs to one rank, so the rank is hoisted
//! into the chunk header and never repeated. Timestamps are delta-encoded
//! against the previous event's timestamp (zigzag, because a `FuncBatch`
//! carries its *start* time and can step backwards), and every other
//! integer field is a varint: a **literal**, 4–6 bytes for a typical
//! `FuncEnter` against the 19 of a fixed-width record.
//!
//! **Recurrence.** A rank repeats itself: the same call to the same
//! function, the same send to the same neighbour, sweep after sweep. So
//! each chunk keeps a table of 48 recent event *shapes* — the kind and
//! every field but time and duration — with, per slot, the Δt and
//! duration that shape had last time, narrowed to a sign-extended `i32`
//! and a `u32`. The table is eight-way set-associative: a shape hashes to
//! a set of eight adjacent slots and may sit in any of them. An event
//! whose shape is in its set is one **tag** byte, `0x40 + 4 × slot +
//! flags`, followed by a zigzag residual against the slot's widened
//! values for each of Δt (flag 1) and duration (flag 2) that differs; the
//! slot then takes the new values, narrowed. Any other event is a literal:
//! its shape takes its set's first slot and the others move down one, the
//! last dropping out. The table starts empty in every chunk, so chunks
//! stay independently decodable. Its geometry is a constant of the format
//! ([`super::STORE_VERSION`]), never a knob.

use dynprof_sim::SimTime;
use dynprof_vt::{Event, VtFuncId};

use super::take_u8;
use crate::error::TraceError;

/// Where an encoding goes, a byte at a time: a growing `Vec<u8>`, or the
/// writer's fixed per-event scratch.
pub(crate) trait Put {
    /// Append one byte.
    fn put(&mut self, byte: u8);
}

impl Put for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }
}

/// Append `v` as an LEB128 varint (7 bits per byte, little-endian).
#[inline]
pub(crate) fn put_varint(buf: &mut impl Put, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put(byte);
            return;
        }
        buf.put(byte | 0x80);
    }
}

/// Decode one LEB128 varint; `None` on truncation or overlong input.
pub fn get_varint(buf: &mut &[u8]) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        let byte = take_u8(buf)?;
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
    }
    None
}

/// Map a signed delta onto an unsigned varint-friendly value.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// The instant an event stops being "active": `t_end` for spanned events
/// (`MpiCall`, `OmpThread`, `Suspended`), `t + span` for `FuncBatch`, the
/// timestamp itself otherwise. Window-overlap tests use this so a long
/// MPI call that *starts* before the window still matches it.
pub fn event_end(ev: &Event) -> SimTime {
    match *ev {
        Event::MpiCall { t_end, .. }
        | Event::OmpThread { t_end, .. }
        | Event::Suspended { t_end, .. } => t_end,
        Event::FuncBatch { t, span, .. } | Event::FuncSuppressed { t, span, .. } => t + span,
        _ => ev.time(),
    }
}

/// Does `ev` overlap the closed window `[t0, t1]`?
pub fn event_overlaps(ev: &Event, t0: SimTime, t1: SimTime) -> bool {
    ev.time() <= t1 && event_end(ev) >= t0
}

/// The first tag byte. Below it a byte is a literal's kind (1–10); from it
/// on, `TAG_BASE + 4 × slot + flags` names a slot, which a well-formed
/// payload has filled. The table's 48 slots use every byte up to `0xFF`.
const TAG_BASE: u8 = 0x40;
/// Tag flag: a zigzag Δt residual follows the tag.
const TAG_DT: u8 = 1;
/// Tag flag: a zigzag duration residual follows (the Δt one, if any).
const TAG_DUR: u8 = 2;

/// An event without its time and duration: the kind (`0` = an empty slot)
/// and up to three fields `a: u16`, `b: u32`, `c: u64`, laid out per kind
/// as [`split`] says. Kind, `a` and `b` share one word, so two shapes
/// compare in two.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
struct Shape {
    /// `kind | a << 8 | b << 24`.
    key: u64,
    c: u64,
}

impl Shape {
    #[inline]
    fn new(kind: u8, a: u16, b: u32, c: u64) -> Shape {
        Shape {
            key: u64::from(kind) | u64::from(a) << 8 | u64::from(b) << 24,
            c,
        }
    }

    fn kind(&self) -> u8 {
        self.key as u8
    }

    fn a(&self) -> u16 {
        (self.key >> 8) as u16
    }

    fn b(&self) -> u32 {
        (self.key >> 24) as u32
    }
}

/// One table entry: a shape and the Δt (wrapping, as on the wire) and
/// duration it had last time, narrowed — Δt to an `i32` (a `FuncBatch` or
/// an `OmpThread` steps back in time), duration to a `u32`. Both sides of
/// the wire keep what [`Slot::new`] keeps and take residuals against what
/// [`Slot::words`] gives back, so narrowing costs bytes, never exactness.
/// A slot is 24 bytes.
#[derive(Clone, Copy, Default)]
struct Slot {
    shape: Shape,
    dt: i32,
    dur: u32,
}

impl Slot {
    #[inline]
    fn new(shape: Shape, dt: u64, dur: u64) -> Slot {
        Slot {
            shape,
            dt: dt as i32,
            dur: dur as u32,
        }
    }

    /// The Δt, sign-extended, and the duration the slot keeps.
    #[inline]
    fn words(&self) -> (u64, u64) {
        (i64::from(self.dt) as u64, u64::from(self.dur))
    }
}

/// Kinds that carry a duration (`t_end − t`, or a batch's span).
fn has_dur(kind: u8) -> bool {
    matches!(kind, 3 | 4 | 7 | 9 | 10)
}

/// `ev` as its shape, its time and its duration.
#[inline]
fn split(ev: &Event) -> (Shape, u64, u64) {
    let shape = Shape::new;
    let dur = |t: SimTime, t_end: SimTime| t_end.saturating_sub(t).as_nanos();
    match *ev {
        Event::FuncEnter {
            t, thread, func, ..
        } => (shape(1, thread, func.0, 0), t.0, 0),
        Event::FuncExit {
            t, thread, func, ..
        } => (shape(2, thread, func.0, 0), t.0, 0),
        Event::FuncBatch {
            t,
            thread,
            func,
            count,
            span,
            ..
        } => (shape(3, thread, func.0, count), t.0, span.0),
        Event::MpiCall {
            t,
            t_end,
            op,
            peer,
            bytes,
            ..
        } => (shape(4, op.into(), peer as u32, bytes), t.0, dur(t, t_end)),
        Event::OmpFork {
            t, region, team, ..
        } => (shape(5, team, region, 0), t.0, 0),
        Event::OmpJoin {
            t, region, team, ..
        } => (shape(6, team, region, 0), t.0, 0),
        Event::OmpThread {
            t,
            t_end,
            thread,
            region,
            ..
        } => (shape(7, thread, region, 0), t.0, dur(t, t_end)),
        Event::ConfSync { t, epoch, .. } => (shape(8, 0, epoch, 0), t.0, 0),
        Event::Suspended { t, t_end, .. } => (shape(9, 0, 0, 0), t.0, dur(t, t_end)),
        Event::FuncSuppressed {
            t,
            thread,
            func,
            count,
            span,
            ..
        } => (shape(10, thread, func.0, count), t.0, span.0),
    }
}

/// Inverse of [`split`]; `None` for an empty or unknown kind, or an end
/// past the end of time.
#[inline]
fn join(s: Shape, rank: u32, t: u64, dur: u64) -> Option<Event> {
    let t_end = SimTime(t.checked_add(dur)?);
    let (t, span) = (SimTime(t), SimTime(dur));
    let (a, b, c) = (s.a(), s.b(), s.c);
    let (thread, func) = (a, VtFuncId(b));
    Some(match s.kind() {
        1 => Event::FuncEnter {
            t,
            rank,
            thread,
            func,
        },
        2 => Event::FuncExit {
            t,
            rank,
            thread,
            func,
        },
        3 => Event::FuncBatch {
            t,
            rank,
            thread,
            func,
            count: c,
            span,
        },
        4 => Event::MpiCall {
            t,
            t_end,
            rank,
            op: a as u8,
            peer: b as i32,
            bytes: c,
        },
        5 => Event::OmpFork {
            t,
            rank,
            region: b,
            team: a,
        },
        6 => Event::OmpJoin {
            t,
            rank,
            region: b,
            team: a,
        },
        7 => Event::OmpThread {
            t,
            t_end,
            rank,
            thread,
            region: b,
        },
        8 => Event::ConfSync { t, rank, epoch: b },
        9 => Event::Suspended { t, t_end, rank },
        10 => Event::FuncSuppressed {
            t,
            rank,
            thread,
            func,
            count: c,
            span,
        },
        _ => return None,
    })
}

/// The first slot of the set `s` maps to: a multiplicative hash of all
/// its fields, scaled onto the sets by its high half.
#[inline]
fn set_of(s: &Shape) -> usize {
    let h = (s.key ^ s.c.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_mul(0xD6E8_FEB8_6659_FD93);
    (((h >> 32) * (SLOTS / WAYS) as u64) >> 32) as usize * WAYS
}

/// Append the literal encoding of an event: kind, Δt, then the
/// kind's fields in its own order.
fn put_literal(buf: &mut impl Put, s: &Shape, dt: u64, dur: u64) {
    buf.put(s.kind());
    put_varint(buf, zigzag(dt as i64));
    match s.kind() {
        1 | 2 => {
            put_varint(buf, s.a().into());
            put_varint(buf, s.b().into());
        }
        3 | 10 => {
            put_varint(buf, s.a().into());
            put_varint(buf, s.b().into());
            put_varint(buf, s.c);
            put_varint(buf, dur);
        }
        4 => {
            put_varint(buf, dur);
            buf.put(s.a() as u8);
            put_varint(buf, zigzag(i64::from(s.b() as i32)));
            put_varint(buf, s.c);
        }
        5 | 6 => {
            put_varint(buf, s.b().into());
            put_varint(buf, s.a().into());
        }
        7 => {
            put_varint(buf, dur);
            put_varint(buf, s.a().into());
            put_varint(buf, s.b().into());
        }
        8 => put_varint(buf, s.b().into()),
        _ => put_varint(buf, dur),
    }
}

/// Read the rest of a literal whose kind byte was `kind`: its shape, Δt
/// and duration. `None` on an unknown kind or truncated fields.
fn get_literal(buf: &mut &[u8], kind: u8) -> Option<(Shape, u64, u64)> {
    let dt = unzigzag(get_varint(buf)?) as u64;
    let (mut a, mut b, mut c, mut dur) = (0, 0, 0, 0);
    match kind {
        1 | 2 => {
            a = get_varint(buf)? as u16;
            b = get_varint(buf)? as u32;
        }
        3 | 10 => {
            a = get_varint(buf)? as u16;
            b = get_varint(buf)? as u32;
            c = get_varint(buf)?;
            dur = get_varint(buf)?;
        }
        4 => {
            dur = get_varint(buf)?;
            a = take_u8(buf)?.into();
            b = unzigzag(get_varint(buf)?) as i32 as u32;
            c = get_varint(buf)?;
        }
        5 | 6 => {
            b = get_varint(buf)? as u32;
            a = get_varint(buf)? as u16;
        }
        7 => {
            dur = get_varint(buf)?;
            a = get_varint(buf)? as u16;
            b = get_varint(buf)? as u32;
        }
        8 => b = get_varint(buf)? as u32,
        9 => dur = get_varint(buf)?,
        _ => return None,
    }
    Some((Shape::new(kind, a, b, c), dt, dur))
}

/// Slots in a chunk's shape table.
const SLOTS: usize = 48;
/// Slots in a set: a shape may sit in any of the eight its hash names.
const WAYS: usize = 8;
/// Every slot has a tag byte of its own.
const _: () = assert!(TAG_BASE as usize + 4 * SLOTS - 1 <= u8::MAX as usize);

/// A chunk's shape table, on either side of the wire: the writer's stage
/// keeps one per open chunk, [`decode_chunk`] rebuilds it as it reads.
/// [`SLOTS`] slots in sets of [`WAYS`] adjacent ones, 1 152 B; empty again
/// at every chunk boundary.
pub(crate) struct ShapeTable {
    slots: [Slot; SLOTS],
}

impl Default for ShapeTable {
    fn default() -> Self {
        ShapeTable {
            slots: [Slot::default(); SLOTS],
        }
    }
}

impl ShapeTable {
    /// The set `s` maps to: its first slot, and its ways.
    #[inline]
    fn ways(&mut self, s: &Shape) -> (usize, &mut [Slot; WAYS]) {
        let set = set_of(s);
        let ways = (&mut self.slots[set..set + WAYS]).try_into();
        (set, ways.expect("a set is WAYS slots"))
    }

    /// A literal's shape enters its set: first in line, the rest move down
    /// one and the last drops out.
    #[inline]
    fn admit(ways: &mut [Slot; WAYS], slot: Slot) {
        ways.copy_within(..WAYS - 1, 1);
        ways[0] = slot;
    }

    /// Append the encoding of `ev`. `prev_t` carries the running timestamp
    /// of the delta chain and is updated to `ev.time()`.
    #[inline]
    pub(crate) fn encode(&mut self, buf: &mut impl Put, ev: &Event, prev_t: &mut u64) {
        let (shape, t, dur) = split(ev);
        let dt = t.wrapping_sub(*prev_t);
        *prev_t = t;
        let (set, ways) = self.ways(&shape);
        let Some(way) = ways.iter().position(|slot| slot.shape == shape) else {
            put_literal(buf, &shape, dt, dur);
            Self::admit(ways, Slot::new(shape, dt, dur));
            return;
        };
        let slot = &mut ways[way];
        let (was_dt, was_dur) = slot.words();
        let (r_dt, r_dur) = (dt.wrapping_sub(was_dt), dur.wrapping_sub(was_dur));
        let flags = (u8::from(r_dt != 0) * TAG_DT) | (u8::from(r_dur != 0) * TAG_DUR);
        buf.put(TAG_BASE + 4 * (set + way) as u8 + flags);
        if r_dt != 0 {
            put_varint(buf, zigzag(r_dt as i64));
        }
        if r_dur != 0 {
            put_varint(buf, zigzag(r_dur as i64));
        }
        *slot = Slot::new(shape, dt, dur);
    }

    /// Decode one event of `rank`, advancing `prev_t`. `None` on truncated
    /// or malformed input: an unknown kind, a tag naming an empty slot, a
    /// residual the shape cannot carry, or a time outside `u64`. A tag
    /// names its slot, so only a literal needs the hash.
    #[inline]
    fn decode(&mut self, buf: &mut &[u8], rank: u32, prev_t: &mut u64) -> Option<Event> {
        let tag = take_u8(buf)?;
        let (shape, dt, dur) = if tag < TAG_BASE {
            let (shape, dt, dur) = get_literal(buf, tag)?;
            Self::admit(self.ways(&shape).1, Slot::new(shape, dt, dur));
            (shape, dt, dur)
        } else {
            let slot = self.slots.get_mut(usize::from((tag - TAG_BASE) / 4))?;
            if slot.shape.kind() == 0 {
                return None;
            }
            let (mut dt, mut dur) = slot.words();
            if tag & TAG_DT != 0 {
                dt = dt.wrapping_add(unzigzag(get_varint(buf)?) as u64);
            }
            if tag & TAG_DUR != 0 {
                if !has_dur(slot.shape.kind()) {
                    return None;
                }
                dur = dur.wrapping_add(unzigzag(get_varint(buf)?) as u64);
            }
            *slot = Slot::new(slot.shape, dt, dur);
            (slot.shape, dt, dur)
        };
        let t = prev_t.checked_add_signed(dt as i64)?;
        *prev_t = t;
        join(shape, rank, t, dur)
    }
}

/// Decode a whole chunk payload — `count` events of `rank` — into `out`,
/// which is cleared first and keeps its capacity. Whole chunk or nothing:
/// a malformed event leaves `out` empty and is reported by its position,
/// so no caller ever acts on the front half of a damaged chunk. Returns
/// the payload bytes left over after the last event (none in a chunk a
/// writer produced).
pub fn decode_chunk(
    mut payload: &[u8],
    rank: u32,
    count: u32,
    out: &mut Vec<Event>,
) -> Result<usize, TraceError> {
    out.clear();
    // No event is shorter than one byte, so a lying `count` cannot
    // reserve more than the payload could hold.
    out.reserve((count as usize).min(payload.len()));
    let (mut table, mut prev_t) = (ShapeTable::default(), 0u64);
    for n in 0..count {
        match table.decode(&mut payload, rank, &mut prev_t) {
            Some(ev) => out.push(ev),
            None => {
                out.clear();
                return Err(TraceError::BadEvent { index: n as u64 });
            }
        }
    }
    Ok(payload.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `events` encoded as one chunk, as the writer does.
    fn encode(events: &[Event]) -> Vec<u8> {
        let (mut buf, mut table, mut prev) = (Vec::new(), ShapeTable::default(), 0);
        for e in events {
            table.encode(&mut buf, e, &mut prev);
        }
        buf
    }

    #[test]
    fn varints_round_trip() {
        let mut buf = Vec::new();
        let samples = [
            0u64,
            1,
            127,
            128,
            300,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &samples {
            put_varint(&mut buf, v);
        }
        let mut b: &[u8] = &buf;
        for &v in &samples {
            assert_eq!(get_varint(&mut b), Some(v));
        }
        assert!(b.is_empty());
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut b: &[u8] = &[0x80, 0x80]; // continuation with no end
        assert_eq!(get_varint(&mut b), None);
    }

    #[test]
    fn zigzag_round_trips() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN, -123456789] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn events_round_trip_with_backward_deltas() {
        let us = SimTime::from_micros;
        let events = vec![
            Event::FuncEnter {
                t: us(100),
                rank: 7,
                thread: 3,
                func: VtFuncId(12),
            },
            // FuncBatch time-travels backwards relative to the previous
            // event (it carries its start time) — the zigzag delta case.
            Event::FuncBatch {
                t: us(40),
                rank: 7,
                thread: 3,
                func: VtFuncId(5),
                count: 1000,
                span: us(55),
            },
            Event::MpiCall {
                t: us(120),
                t_end: us(140),
                rank: 7,
                op: 2,
                peer: -1,
                bytes: 1 << 20,
            },
            Event::OmpFork {
                t: us(150),
                rank: 7,
                region: 2,
                team: 8,
            },
            Event::OmpThread {
                t: us(151),
                t_end: us(160),
                rank: 7,
                thread: 4,
                region: 2,
            },
            Event::OmpJoin {
                t: us(161),
                rank: 7,
                region: 2,
                team: 8,
            },
            Event::ConfSync {
                t: us(170),
                rank: 7,
                epoch: 9,
            },
            Event::Suspended {
                t: us(171),
                t_end: us(180),
                rank: 7,
            },
            Event::FuncSuppressed {
                t: us(181),
                rank: 7,
                thread: 3,
                func: VtFuncId(5),
                count: 42,
                span: us(9),
            },
            Event::FuncExit {
                t: us(200),
                rank: 7,
                thread: 3,
                func: VtFuncId(12),
            },
        ];
        let buf = encode(&events);
        let mut out = Vec::new();
        assert_eq!(
            decode_chunk(&buf, 7, events.len() as u32, &mut out).unwrap(),
            0
        );
        assert_eq!(out, events);
    }

    #[test]
    fn delta_encoding_is_compact() {
        // 1000 events 1us apart should take ~4-6 bytes each as literals
        // (a new function each time), far below the 19-byte flat encoding
        // — and one byte each as repeats (the same function each time).
        let enter = |i: u64, func: u64| Event::FuncEnter {
            t: SimTime::from_micros(i),
            rank: 0,
            thread: 0,
            func: VtFuncId(func as u32),
        };
        let literals = encode(&(0..1000).map(|i| enter(i, i)).collect::<Vec<_>>());
        assert!(literals.len() < 1000 * 8, "not compact: {}", literals.len());
        let repeats = encode(&(0..1000).map(|i| enter(i, 3)).collect::<Vec<_>>());
        assert!(
            repeats.len() < 1000 + 8,
            "repeats not one byte: {}",
            repeats.len()
        );
    }

    /// A repeat is a tag and its residuals; the slot remembers the last
    /// occurrence, so the next repeat is measured against it.
    #[test]
    fn repeats_are_tags_with_residuals() {
        let us = SimTime::from_micros;
        let send = |t: u64, dur: u64| Event::MpiCall {
            t: us(t),
            t_end: us(t + dur),
            rank: 0,
            op: 2,
            peer: 1,
            bytes: 4096,
        };
        let events = [
            send(10, 5), // literal
            send(20, 5), // Δt 10 → 10, duration 5 → 5: tag alone
            send(40, 5), // Δt residual +10
            send(60, 7), // duration residual +2
            send(70, 1), // both: Δt −10, duration −6
            send(80, 1), // tag alone again
        ];
        let buf = encode(&events);
        let tag = TAG_BASE + 4 * set_of(&split(&events[0]).0) as u8;
        let mut want = encode(&events[..1]);
        for (flags, residuals) in [
            (0, &[][..]),
            (TAG_DT, &[10_000][..]),
            (TAG_DUR, &[2_000][..]),
            (TAG_DT + TAG_DUR, &[-10_000, -6_000][..]),
            (0, &[][..]),
        ] {
            want.push(tag + flags);
            for &r in residuals {
                put_varint(&mut want, zigzag(r));
            }
        }
        assert_eq!(buf[..], want[..]);
        let mut out = Vec::new();
        decode_chunk(&buf, 0, events.len() as u32, &mut out).unwrap();
        assert_eq!(out, events);
    }

    /// A set holds `WAYS` shapes. That many sharing a set all stay; one
    /// more pushes out the oldest, so `WAYS + 1` taking turns are literals
    /// every time — and nothing is mistaken either way.
    #[test]
    fn nine_shapes_in_an_eight_way_set_evict() {
        let conf = |epoch: u32, t: u64| Event::ConfSync {
            t: SimTime(t),
            rank: 0,
            epoch,
        };
        let set = |epoch| set_of(&split(&conf(epoch, 0)).0);
        let epochs: Vec<u32> = (0..).filter(|&e| set(e) == set(0)).take(WAYS + 1).collect();
        let literals = |events: &[Event]| {
            let (mut buf, mut prev) = (Vec::new(), 0);
            for e in events {
                ShapeTable::default().encode(&mut buf, e, &mut prev);
            }
            buf
        };
        for (ways, all_literal) in [(WAYS, false), (WAYS + 1, true)] {
            let n = 3 * ways;
            let events: Vec<_> = (0..n as u64)
                .map(|i| conf(epochs[i as usize % ways], 10 * i))
                .collect();
            let buf = encode(&events);
            assert_eq!(
                buf[..] == literals(&events)[..],
                all_literal,
                "{ways} shapes"
            );
            let mut out = Vec::new();
            decode_chunk(&buf, 0, n as u32, &mut out).unwrap();
            assert_eq!(out, events, "{ways} shapes");
        }
    }

    /// A slot keeps Δt as an `i32` and duration as a `u32`. At and just
    /// past their edges a repeat still decodes exactly: what does not fit
    /// costs a residual against the narrowed value, what fits costs none.
    #[test]
    fn narrowed_slots_stay_exact_at_their_edges() {
        const I31: i64 = 1 << 31;
        const U32: u64 = 1 << 32;
        let batch = |t: u64, span: u64| Event::FuncBatch {
            t: SimTime(t),
            rank: 0,
            thread: 1,
            func: VtFuncId(2),
            count: 3,
            span: SimTime(span),
        };
        // (Δt, duration), and the (Δt, duration) residuals a tag carries
        // for them; 0 is none.
        let steps = [
            ((I31, U32), (0, 0)), // the literal
            ((I31, U32), (1 << 32, 1 << 32)),
            ((-I31, U32 - 1), (0, (1 << 32) - 1)),
            ((-I31, U32 - 1), (0, 0)),
            ((I31 - 1, 0), ((1 << 32) - 1, 1 - (1 << 32))),
            ((I31 - 1, 0), (0, 0)),
        ];
        let mut t = 1u64 << 40;
        let events: Vec<Event> = steps
            .iter()
            .map(|&((dt, dur), _)| {
                t = t.wrapping_add_signed(dt);
                batch(t, dur)
            })
            .collect();
        let buf = encode(&events);
        let tag = TAG_BASE + 4 * set_of(&split(&events[0]).0) as u8;
        let mut want = encode(&events[..1]);
        for &(_, (r_dt, r_dur)) in &steps[1..] {
            want.push(tag + u8::from(r_dt != 0) * TAG_DT + u8::from(r_dur != 0) * TAG_DUR);
            for r in [r_dt, r_dur].into_iter().filter(|&r| r != 0) {
                put_varint(&mut want, zigzag(r));
            }
        }
        assert_eq!(buf[..], want[..]);
        let mut out = Vec::new();
        decode_chunk(&buf, 0, events.len() as u32, &mut out).unwrap();
        assert_eq!(out, events);
    }

    #[test]
    fn event_end_covers_spans() {
        let us = SimTime::from_micros;
        let m = Event::MpiCall {
            t: us(5),
            t_end: us(20),
            rank: 0,
            op: 2,
            peer: 1,
            bytes: 0,
        };
        assert_eq!(event_end(&m), us(20));
        assert!(event_overlaps(&m, us(10), us(15)));
        assert!(!event_overlaps(&m, us(21), us(30)));
        let b = Event::FuncBatch {
            t: us(10),
            rank: 0,
            thread: 0,
            func: VtFuncId(0),
            count: 2,
            span: us(30),
        };
        assert_eq!(event_end(&b), us(40));
    }

    #[test]
    fn chunk_decodes_whole_or_not_at_all() {
        let events: Vec<Event> = (0..5u64)
            .map(|i| Event::ConfSync {
                t: SimTime::from_nanos(i), // three bytes an event
                rank: 3,
                epoch: i as u32,
            })
            .collect();
        let buf = encode(&events);
        let mut out = Vec::new();
        assert_eq!(decode_chunk(&buf, 3, 5, &mut out).unwrap(), 0);
        assert_eq!(out, events);
        // One event short of the declared count: the bytes run out.
        assert!(matches!(
            decode_chunk(&buf, 3, 6, &mut out),
            Err(TraceError::BadEvent { index: 5 })
        ));
        assert!(out.is_empty(), "nothing survives a damaged chunk");
        // A bad kind byte in the third event.
        let mut bad = buf.to_vec();
        bad[2 * 3] = 11;
        assert!(matches!(
            decode_chunk(&bad, 3, 5, &mut out),
            Err(TraceError::BadEvent { index: 2 })
        ));
        assert!(out.is_empty());
        // Fewer events than bytes: the remainder is reported, not decoded.
        assert_eq!(decode_chunk(&buf, 3, 4, &mut out).unwrap(), 3);
        assert_eq!(out, events[..4]);
    }

    #[test]
    fn decode_rejects_garbage() {
        let mut out = Vec::new();
        for (payload, what) in [
            (&[99u8, 0][..], "unknown kind"),
            (&[0, 0], "kind 0"),
            (&[1], "kind with no timestamp"),
            (&[1, 0], "timestamp but no fields"),
        ] {
            assert!(
                matches!(
                    decode_chunk(payload, 0, 1, &mut out),
                    Err(TraceError::BadEvent { index: 0 })
                ),
                "{what}"
            );
        }
    }

    /// Every way a tag can lie is a typed error at its event, never a
    /// panic or a wrong event.
    #[test]
    fn corrupt_tags_are_bad_events() {
        let suspended = |t: u64, dur: u64| Event::Suspended {
            t: SimTime(t),
            t_end: SimTime(t + dur),
            rank: 0,
        };
        let conf = Event::ConfSync {
            t: SimTime(5),
            rank: 0,
            epoch: 1,
        };
        let first = encode(&[suspended(1_000, 10)]);
        let tag = TAG_BASE + 4 * set_of(&split(&suspended(0, 0)).0) as u8;
        let conf_tag = TAG_BASE + 4 * set_of(&split(&conf).0) as u8;
        let empty = if tag == TAG_BASE {
            TAG_BASE + 4
        } else {
            TAG_BASE
        };
        // `first`, then `tag` and the zigzag varint of each residual.
        let with = |tag: u8, residuals: &[i64]| {
            let mut buf = first.clone();
            buf.push(tag);
            for &r in residuals {
                put_varint(&mut buf, zigzag(r));
            }
            buf
        };
        let mut conf_dur = encode(std::slice::from_ref(&conf));
        conf_dur.extend_from_slice(&[conf_tag + TAG_DUR, 2]);
        // Δt 1000 → i64::MAX, then i64::MAX again against what the slot
        // kept of it: t past the end of time.
        let max = i64::MAX as u64;
        let kept = Slot::new(Shape::default(), max, 0).words().0;
        let mut overflow = with(tag + TAG_DT, &[i64::MAX - 1_000]);
        overflow.push(tag + TAG_DT);
        put_varint(&mut overflow, zigzag(max.wrapping_sub(kept) as i64));
        let cases = [
            (vec![tag], 0, "a tag before any literal"),
            (with(empty, &[]), 1, "a tag naming an empty slot"),
            (with(0xff, &[]), 1, "the last tag byte"),
            (with(tag + TAG_DT, &[]), 1, "a Δt residual cut off"),
            (with(tag + TAG_DUR, &[]), 1, "a duration residual cut off"),
            (conf_dur, 1, "a duration residual on a ConfSync"),
            // Δt 1000 − 3000 from t = 1000: before the start of time.
            (with(tag + TAG_DT, &[-3_000]), 1, "a Δt before time zero"),
            // Duration 10 − 20 wraps: t_end past the end of time.
            (with(tag + TAG_DUR, &[-20]), 1, "a duration past u64::MAX"),
            (overflow, 2, "a Δt residual that overflows the time"),
        ];

        let mut out = vec![conf];
        for (payload, index, what) in cases {
            let count = index as u32 + 1;
            let got = decode_chunk(&payload, 0, count, &mut out);
            assert!(
                matches!(got, Err(TraceError::BadEvent { index: i }) if i == index),
                "{what}: {got:?}"
            );
            assert!(out.is_empty(), "{what}");
        }
    }
}
