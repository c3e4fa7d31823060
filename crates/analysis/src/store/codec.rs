//! Chunk-payload codec: LEB128 varints, zigzag deltas, and the
//! per-event encoding used inside store chunks.
//!
//! Within a chunk every event belongs to one rank, so the rank is hoisted
//! into the chunk header and never repeated. Timestamps are delta-encoded
//! against the previous event's timestamp (zigzag, because a `FuncBatch`
//! carries its *start* time and can step backwards), and every other
//! integer field is a varint. A typical `FuncEnter` costs 4–6 bytes
//! against the 19 of a fixed-width record.

use bytes::{Buf, BufMut, BytesMut};
use dynprof_sim::SimTime;
use dynprof_vt::{Event, VtFuncId};

use crate::error::TraceError;

/// Append `v` as an LEB128 varint (7 bits per byte, little-endian).
#[inline]
pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decode one LEB128 varint; `None` on truncation or overlong input.
pub fn get_varint(buf: &mut impl Buf) -> Option<u64> {
    let mut v: u64 = 0;
    for shift in (0..64).step_by(7) {
        if buf.remaining() < 1 {
            return None;
        }
        let byte = buf.get_u8();
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

fn kind_of(ev: &Event) -> u8 {
    match ev {
        Event::FuncEnter { .. } => 1,
        Event::FuncExit { .. } => 2,
        Event::FuncBatch { .. } => 3,
        Event::MpiCall { .. } => 4,
        Event::OmpFork { .. } => 5,
        Event::OmpJoin { .. } => 6,
        Event::OmpThread { .. } => 7,
        Event::ConfSync { .. } => 8,
        Event::Suspended { .. } => 9,
        Event::FuncSuppressed { .. } => 10,
    }
}

/// Append the chunk encoding of `ev`. `prev_t` carries the running
/// timestamp of the delta chain and is updated to `ev.time()`.
pub fn encode_event(buf: &mut BytesMut, ev: &Event, prev_t: &mut u64) {
    buf.put_u8(kind_of(ev));
    let t = ev.time().as_nanos();
    put_varint(buf, zigzag(t as i64 - *prev_t as i64));
    *prev_t = t;
    match *ev {
        Event::FuncEnter { thread, func, .. } | Event::FuncExit { thread, func, .. } => {
            put_varint(buf, thread as u64);
            put_varint(buf, func.0 as u64);
        }
        Event::FuncBatch {
            thread,
            func,
            count,
            span,
            ..
        }
        | Event::FuncSuppressed {
            thread,
            func,
            count,
            span,
            ..
        } => {
            put_varint(buf, thread as u64);
            put_varint(buf, func.0 as u64);
            put_varint(buf, count);
            put_varint(buf, span.as_nanos());
        }
        Event::MpiCall {
            t,
            t_end,
            op,
            peer,
            bytes,
            ..
        } => {
            put_varint(buf, t_end.saturating_sub(t).as_nanos());
            buf.put_u8(op);
            put_varint(buf, zigzag(peer as i64));
            put_varint(buf, bytes);
        }
        Event::OmpFork { region, team, .. } | Event::OmpJoin { region, team, .. } => {
            put_varint(buf, region as u64);
            put_varint(buf, team as u64);
        }
        Event::OmpThread {
            t,
            t_end,
            thread,
            region,
            ..
        } => {
            put_varint(buf, t_end.saturating_sub(t).as_nanos());
            put_varint(buf, thread as u64);
            put_varint(buf, region as u64);
        }
        Event::ConfSync { epoch, .. } => {
            put_varint(buf, epoch as u64);
        }
        Event::Suspended { t, t_end, .. } => {
            put_varint(buf, t_end.saturating_sub(t).as_nanos());
        }
    }
}

/// Decode one event of `rank` from a chunk payload, advancing `prev_t`.
/// `None` on truncated or malformed input.
pub fn decode_event(buf: &mut impl Buf, rank: u32, prev_t: &mut u64) -> Option<Event> {
    if buf.remaining() < 1 {
        return None;
    }
    let kind = buf.get_u8();
    let dt = unzigzag(get_varint(buf)?);
    let t_nanos = prev_t.checked_add_signed(dt)?;
    *prev_t = t_nanos;
    let t = SimTime::from_nanos(t_nanos);
    Some(match kind {
        1 | 2 => {
            let thread = get_varint(buf)? as u16;
            let func = VtFuncId(get_varint(buf)? as u32);
            if kind == 1 {
                Event::FuncEnter {
                    t,
                    rank,
                    thread,
                    func,
                }
            } else {
                Event::FuncExit {
                    t,
                    rank,
                    thread,
                    func,
                }
            }
        }
        3 => Event::FuncBatch {
            t,
            rank,
            thread: get_varint(buf)? as u16,
            func: VtFuncId(get_varint(buf)? as u32),
            count: get_varint(buf)?,
            span: SimTime::from_nanos(get_varint(buf)?),
        },
        4 => {
            let dur = get_varint(buf)?;
            if buf.remaining() < 1 {
                return None;
            }
            let op = buf.get_u8();
            let peer = unzigzag(get_varint(buf)?) as i32;
            let bytes = get_varint(buf)?;
            Event::MpiCall {
                t,
                t_end: t + SimTime::from_nanos(dur),
                rank,
                op,
                peer,
                bytes,
            }
        }
        5 | 6 => {
            let region = get_varint(buf)? as u32;
            let team = get_varint(buf)? as u16;
            if kind == 5 {
                Event::OmpFork {
                    t,
                    rank,
                    region,
                    team,
                }
            } else {
                Event::OmpJoin {
                    t,
                    rank,
                    region,
                    team,
                }
            }
        }
        7 => {
            let dur = get_varint(buf)?;
            Event::OmpThread {
                t,
                t_end: t + SimTime::from_nanos(dur),
                rank,
                thread: get_varint(buf)? as u16,
                region: get_varint(buf)? as u32,
            }
        }
        8 => Event::ConfSync {
            t,
            rank,
            epoch: get_varint(buf)? as u32,
        },
        9 => {
            let dur = get_varint(buf)?;
            Event::Suspended {
                t,
                t_end: t + SimTime::from_nanos(dur),
                rank,
            }
        }
        10 => Event::FuncSuppressed {
            t,
            rank,
            thread: get_varint(buf)? as u16,
            func: VtFuncId(get_varint(buf)? as u32),
            count: get_varint(buf)?,
            span: SimTime::from_nanos(get_varint(buf)?),
        },
        _ => return None,
    })
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
    // No event is shorter than three bytes, so a lying `count` cannot
    // reserve more than the payload could hold.
    out.reserve((count as usize).min(payload.len()));
    let mut prev_t = 0u64;
    for n in 0..count {
        match decode_event(&mut payload, rank, &mut prev_t) {
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
    use bytes::Bytes;

    #[test]
    fn varints_round_trip() {
        let mut buf = BytesMut::new();
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
        let mut b = buf.freeze();
        for &v in &samples {
            assert_eq!(get_varint(&mut b), Some(v));
        }
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut b = Bytes::from(vec![0x80, 0x80]); // continuation with no end
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
        let mut buf = BytesMut::new();
        let mut prev = 0u64;
        for e in &events {
            encode_event(&mut buf, e, &mut prev);
        }
        let mut b = buf.freeze();
        let mut prev = 0u64;
        for e in &events {
            assert_eq!(decode_event(&mut b, 7, &mut prev).as_ref(), Some(e));
        }
        assert_eq!(b.remaining(), 0);
    }

    #[test]
    fn delta_encoding_is_compact() {
        // 1000 events 1us apart should take ~4-6 bytes each, far below
        // the 19-byte flat encoding.
        let mut buf = BytesMut::new();
        let mut prev = 0u64;
        for i in 0..1000u64 {
            encode_event(
                &mut buf,
                &Event::FuncEnter {
                    t: SimTime::from_micros(i),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(3),
                },
                &mut prev,
            );
        }
        assert!(buf.len() < 1000 * 8, "encoding not compact: {}", buf.len());
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
        let mut buf = BytesMut::new();
        let mut prev = 0u64;
        let events: Vec<Event> = (0..5u64)
            .map(|i| Event::ConfSync {
                t: SimTime::from_nanos(i), // three bytes an event
                rank: 3,
                epoch: i as u32,
            })
            .collect();
        for e in &events {
            encode_event(&mut buf, e, &mut prev);
        }
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
        bad[2 * 3] = 99;
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
        let mut b = Bytes::from(vec![99, 0]); // unknown kind
        assert_eq!(decode_event(&mut b, 0, &mut 0), None);
        let mut b = Bytes::from(vec![1]); // kind with no timestamp
        assert_eq!(decode_event(&mut b, 0, &mut 0), None);
        let mut b = Bytes::from(vec![1, 0]); // timestamp but no fields
        assert_eq!(decode_event(&mut b, 0, &mut 0), None);
    }
}
