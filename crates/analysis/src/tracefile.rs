//! Legacy trace-file I/O: the flat `VGVT` format (paper §3.1).
//!
//! This is the load-everything path the chunk-indexed store
//! ([`crate::store`]) supersedes: [`read_trace`] materializes the whole
//! event array in memory. It is kept as the compatibility decoder behind
//! `vgv convert`/`vgv view` and for small traces; `dynprof` itself only
//! writes `VGVS` stores ([`crate::store::StoreWriter`]), and
//! [`load_trace`] reads either format for the whole-trace views.
//!
//! Corruption is reported through the typed [`TraceError`] shared with
//! the store reader, so callers can tell a truncated copy
//! ([`TraceError::TruncatedHeader`]) from a wrong-format file
//! ([`TraceError::BadMagic`]).

use std::io::{Read, Write};
use std::path::Path;

use bytes::{Buf, Bytes};
use dynprof_vt::{Event, Trace};

use crate::error::TraceError;

const MAGIC: &[u8; 4] = b"VGVT";
const VERSION: u16 = 1;

/// Write a trace to disk in the binary `VGVT` format. Returns the bytes
/// written.
pub fn write_trace(trace: &Trace, path: impl AsRef<Path>) -> Result<u64, TraceError> {
    let encoded = trace.encode();
    let mut f = std::fs::File::create(path)?;
    f.write_all(&encoded)?;
    Ok(encoded.len() as u64)
}

/// Read a legacy `VGVT` trace from disk, with typed corruption errors.
pub fn read_trace(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
    let mut buf = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut buf)?;
    decode_legacy(Bytes::from(buf))
}

/// Load a whole trace from either format, told apart by the file magic:
/// a `VGVS` store is decoded in full
/// ([`StoreReader::read_all`](crate::store::StoreReader::read_all)),
/// anything else is read as legacy `VGVT`. Memory is `O(trace)` — this is
/// `vgv view`'s loader, not a query path.
pub fn load_trace(path: impl AsRef<Path>) -> Result<Trace, TraceError> {
    let mut magic = [0u8; 4];
    let is_store = std::fs::File::open(&path)?.read_exact(&mut magic).is_ok()
        && &magic == crate::store::STORE_MAGIC;
    if is_store {
        crate::store::StoreReader::open(path)?.read_all()
    } else {
        read_trace(path)
    }
}

/// Decode the legacy format from memory (typed twin of
/// `dynprof_vt::Trace::decode`).
pub fn decode_legacy(mut buf: Bytes) -> Result<Trace, TraceError> {
    if buf.remaining() < 4 {
        return Err(TraceError::TruncatedHeader);
    }
    if &buf.split_to(4)[..] != MAGIC {
        return Err(TraceError::BadMagic);
    }
    if buf.remaining() < 2 {
        return Err(TraceError::TruncatedHeader);
    }
    let version = buf.get_u16_le();
    if version != VERSION {
        return Err(TraceError::UnsupportedVersion(version));
    }
    let program = take_string(&mut buf)?;
    if buf.remaining() < 4 {
        return Err(TraceError::TruncatedHeader);
    }
    let nf = buf.get_u32_le() as usize;
    let mut functions = Vec::with_capacity(nf.min(1 << 20));
    for _ in 0..nf {
        functions.push(take_string(&mut buf)?);
    }
    if buf.remaining() < 8 {
        return Err(TraceError::TruncatedHeader);
    }
    let ne = buf.get_u64_le() as usize;
    let mut events = Vec::with_capacity(ne.min(1 << 24));
    for i in 0..ne {
        match Event::decode(&mut buf) {
            Some(e) => events.push(e),
            None => return Err(TraceError::BadEvent { index: i as u64 }),
        }
    }
    Ok(Trace {
        program,
        functions,
        events,
    })
}

/// Re-encode a trace as a chunk-indexed `VGVS` store: the migration path
/// for legacy `VGVT` files recorded before the store existed, and a way
/// to re-chunk an existing store (`opts.chunk_events`) for finer skips.
pub fn convert(
    from: impl AsRef<Path>,
    to: impl AsRef<Path>,
    opts: crate::store::StoreOptions,
) -> Result<crate::store::StoreStats, TraceError> {
    let trace = load_trace(from)?;
    crate::store::write_store_from_trace(&trace, to, opts)
}

fn take_string(buf: &mut Bytes) -> Result<String, TraceError> {
    if buf.remaining() < 4 {
        return Err(TraceError::TruncatedHeader);
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n {
        return Err(TraceError::TruncatedHeader);
    }
    let s = buf.split_to(n);
    String::from_utf8(s.to_vec()).map_err(|_| TraceError::BadString)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynprof_sim::SimTime;
    use dynprof_vt::{Event, VtFuncId};

    fn tiny_trace() -> Trace {
        Trace {
            program: "t".into(),
            functions: vec!["f".into()],
            events: vec![
                Event::FuncEnter {
                    t: SimTime::from_micros(1),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
                Event::FuncExit {
                    t: SimTime::from_micros(5),
                    rank: 0,
                    thread: 0,
                    func: VtFuncId(0),
                },
            ],
        }
    }

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("dynprof-test-traces");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}-{}.vgvt", std::process::id()))
    }

    #[test]
    fn disk_round_trip() {
        let trace = tiny_trace();
        let path = tmp("trace");
        let n = write_trace(&trace, &path).unwrap();
        assert!(n > 0);
        let back = read_trace(&path).unwrap();
        assert_eq!(back, trace);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bad_magic_is_typed() {
        let path = tmp("garbage");
        std::fs::write(&path, b"not a trace").unwrap();
        assert!(matches!(read_trace(&path), Err(TraceError::BadMagic)));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_header_is_typed() {
        // Shorter than magic + version.
        let path = tmp("short");
        std::fs::write(&path, b"VGVT\x01").unwrap();
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::TruncatedHeader)
        ));
        // Magic + version, but the program string is cut off.
        std::fs::write(&path, b"VGVT\x01\x00\xff\x00\x00\x00ab").unwrap();
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::TruncatedHeader)
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unsupported_version_is_typed() {
        let path = tmp("version");
        std::fs::write(&path, b"VGVT\xff\xff").unwrap();
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::UnsupportedVersion(0xffff))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_event_stream_is_typed() {
        let trace = tiny_trace();
        let encoded = trace.encode();
        let path = tmp("cut");
        // Drop the last 5 bytes: the final event can't decode.
        std::fs::write(&path, &encoded[..encoded.len() - 5]).unwrap();
        assert!(matches!(
            read_trace(&path),
            Err(TraceError::BadEvent { index: 1 })
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        assert!(matches!(
            read_trace("/nonexistent/definitely/not/here.vgvt"),
            Err(TraceError::Io(_))
        ));
    }

    #[test]
    fn typed_decode_agrees_with_vt_decode() {
        let trace = tiny_trace();
        let encoded = trace.encode();
        let ours = decode_legacy(encoded.clone()).unwrap();
        let theirs = Trace::decode(encoded).unwrap();
        assert_eq!(ours, theirs);
    }

    #[test]
    fn convert_produces_queryable_store() {
        let trace = tiny_trace();
        let src = tmp("convert-src");
        write_trace(&trace, &src).unwrap();
        let dst = tmp("convert-dst");
        let stats = convert(&src, &dst, crate::store::StoreOptions::default()).unwrap();
        assert_eq!(stats.events, 2);
        let mut r = crate::store::StoreReader::open(&dst).unwrap();
        assert_eq!(r.read_all().unwrap(), trace);
        std::fs::remove_file(&src).ok();
        std::fs::remove_file(&dst).ok();
    }

    #[test]
    fn load_trace_tells_the_formats_apart_by_magic() {
        let trace = tiny_trace();
        // Both files carry the "wrong" extension on purpose.
        let flat = tmp("load-flat");
        write_trace(&trace, &flat).unwrap();
        let store = tmp("load-store");
        crate::store::write_store_from_trace(&trace, &store, Default::default()).unwrap();
        assert_eq!(load_trace(&flat).unwrap(), trace);
        assert_eq!(load_trace(&store).unwrap(), trace);
        std::fs::write(&flat, b"not a trace").unwrap();
        assert!(matches!(load_trace(&flat), Err(TraceError::BadMagic)));
        std::fs::write(&flat, b"VG").unwrap();
        assert!(matches!(
            load_trace(&flat),
            Err(TraceError::TruncatedHeader)
        ));
        assert!(matches!(
            load_trace("/nonexistent/definitely/not/here.vgvs"),
            Err(TraceError::Io(_))
        ));
        std::fs::remove_file(&flat).ok();
        std::fs::remove_file(&store).ok();
    }
}
