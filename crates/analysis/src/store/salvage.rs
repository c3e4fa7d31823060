//! Footer-less salvage: recover every fully-flushed chunk from a store
//! whose writer died before `finish()`, and the `vgv fsck [--repair]`
//! machinery built on top of it.
//!
//! The store's crash-consistency argument (DESIGN §17) is that the file
//! is *always a valid prefix*: header, then the CRC-framed preamble,
//! then self-describing chunks each carrying its own CRC-32. The salvage
//! scanner walks those chunks forward; a chunk is recovered iff every
//! one of its bytes reached the disk — its checksum proves it. Whatever
//! follows the last provable chunk (a torn write, a partial footer) is
//! reported as the dropped tail, never silently absorbed.

use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use bytes::Buf;
use dynprof_obs as obs;
use dynprof_sim::SimTime;

use super::crc::crc32;
use super::reader::{check_header, take_string, ChunkBuf, SalvageSummary, StoreReader};
use super::writer::{encode_footer_and_trailer, encode_header, encode_preamble};
use super::{ChunkMeta, CHUNK_HEADER_BYTES, HEADER_BYTES, STORE_MAGIC, TRAILER_BYTES};
use crate::error::TraceError;

fn obs_chunks_salvaged(n: u64) {
    static C: OnceLock<&'static obs::Counter> = OnceLock::new();
    C.get_or_init(|| obs::counter("analysis.chunks_salvaged"))
        .add(n);
}

/// What `fsck` concluded about the store's footer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FooterState {
    /// Footer and trailer parse and the footer CRC matches.
    Valid,
    /// Trailer magic is present but the footer is unreadable — torn
    /// mid-write or corrupted afterwards.
    Torn,
    /// No trailer magic at all: the writer never reached `finish()`.
    Missing,
}

impl std::fmt::Display for FooterState {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FooterState::Valid => write!(f, "valid"),
            FooterState::Torn => write!(f, "torn"),
            FooterState::Missing => write!(f, "missing"),
        }
    }
}

/// One chunk `fsck` could not vouch for.
#[derive(Clone, Debug)]
pub struct ChunkFault {
    /// Position in the footer index (valid-footer files) or scan order.
    pub index: usize,
    /// File offset of the chunk's on-disk header.
    pub offset: u64,
    /// Human-readable cause (CRC mismatch, short chunk, torn tail…).
    pub reason: String,
}

/// Everything `vgv fsck` learned about one store file.
#[derive(Clone, Debug)]
pub struct FsckReport {
    /// The store that was checked.
    pub path: PathBuf,
    /// File size in bytes.
    pub file_bytes: u64,
    /// Format version of the file.
    pub version: u16,
    /// Footer verdict.
    pub footer: FooterState,
    /// Program name (from footer, preamble, or `"unknown"`).
    pub program: String,
    /// Chunks whose contents are provably intact.
    pub chunks_ok: usize,
    /// Events inside those chunks.
    pub events_ok: u64,
    /// Chunks that failed verification (bad CRC, short, undecodable).
    pub faults: Vec<ChunkFault>,
    /// Bytes past the last provable chunk that salvage would drop
    /// (torn final chunk, partial footer). 0 on a clean file.
    pub tail_bytes: u64,
}

impl FsckReport {
    /// Nothing wrong: valid footer, every chunk verified, no stray tail.
    pub fn is_clean(&self) -> bool {
        self.footer == FooterState::Valid && self.faults.is_empty() && self.tail_bytes == 0
    }

    /// Is there anything worth writing to a repaired file?
    pub fn is_salvageable(&self) -> bool {
        self.chunks_ok > 0
    }

    /// The `vgv fsck` console rendering.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let name = self.path.display();
        out.push_str(&format!(
            "fsck {name}: format v{}, {} bytes, program \"{}\"\n",
            self.version, self.file_bytes, self.program
        ));
        out.push_str(&format!("  footer: {}\n", self.footer));
        out.push_str(&format!(
            "  chunks: {} ok ({} events), {} bad\n",
            self.chunks_ok,
            self.events_ok,
            self.faults.len()
        ));
        for f in &self.faults {
            out.push_str(&format!(
                "    chunk {} @ offset {}: {}\n",
                f.index, f.offset, f.reason
            ));
        }
        if self.tail_bytes > 0 {
            out.push_str(&format!(
                "  tail:   {} bytes unrecoverable\n",
                self.tail_bytes
            ));
        }
        if self.is_clean() {
            out.push_str("  verdict: clean\n");
        } else if self.is_salvageable() {
            out.push_str(&format!(
                "  verdict: damaged — {} events recoverable, repair with `vgv fsck {name} --repair`\n",
                self.events_ok
            ));
        } else {
            out.push_str("  verdict: nothing recoverable\n");
        }
        out
    }
}

/// What a forward scan recovered from a footer-less (or torn) store.
struct ScanOutcome {
    file_bytes: u64,
    version: u16,
    program: String,
    functions: Vec<String>,
    chunks: Vec<ChunkMeta>,
    /// Offset just past the last recovered chunk.
    chunks_end: u64,
    /// Why the scan stopped before end-of-file, if it did.
    stop_reason: Option<String>,
}

/// Forward-scan `file` for self-describing chunks, trusting nothing the
/// bytes cannot prove: each chunk must pass its CRC-32.
fn forward_scan(file: &mut std::fs::File) -> Result<ScanOutcome, TraceError> {
    let (file_bytes, version) = check_header(file)?;
    // The CRC-framed preamble precedes the first chunk. If it cannot be
    // validated we do not know where chunk data starts — which only
    // happens when the writer died before flushing anything.
    let (program, functions, mut pos) = match read_preamble(file, file_bytes, HEADER_BYTES) {
        Ok(preamble) => preamble,
        Err(reason) => {
            return Ok(ScanOutcome {
                file_bytes,
                version,
                program: String::from("unknown"),
                functions: Vec::new(),
                chunks: Vec::new(),
                chunks_end: HEADER_BYTES,
                stop_reason: Some(reason),
            });
        }
    };

    let mut chunks: Vec<ChunkMeta> = Vec::new();
    let mut stop_reason: Option<String> = None;
    let mut chunk = ChunkBuf::default();
    loop {
        let remaining = file_bytes - pos;
        if remaining < CHUNK_HEADER_BYTES as u64 {
            if remaining > 0 {
                stop_reason = Some(format!("{remaining} trailing bytes, no chunk header"));
            }
            break;
        }
        // The header alone first: nothing else says how long the chunk is.
        chunk.read(file, pos, CHUNK_HEADER_BYTES)?;
        let (rank, count, enc_len) = chunk.head();
        let mut times = &chunk.bytes()[CHUNK_HEADER_BYTES - 24..];
        let (min_t, max_t, max_end) = (times.get_u64_le(), times.get_u64_le(), times.get_u64_le());
        // A writer never flushes an empty chunk; zero fields mean we are
        // looking at footer bytes or a torn header.
        if count == 0 || enc_len == 0 {
            stop_reason = Some("not a chunk header".to_string());
            break;
        }
        let end = match pos
            .checked_add(CHUNK_HEADER_BYTES as u64)
            .and_then(|v| v.checked_add(enc_len as u64))
        {
            Some(end) if end <= file_bytes => end,
            _ => {
                stop_reason = Some(format!(
                    "chunk declares {enc_len} payload bytes past end of file"
                ));
                break;
            }
        };
        chunk.read(file, pos, CHUNK_HEADER_BYTES + enc_len as usize)?;
        let crc = chunk.stored_crc();
        if chunk.crc() != crc {
            stop_reason = Some("chunk CRC-32 mismatch".to_string());
            break;
        }
        chunks.push(ChunkMeta {
            rank,
            offset: pos,
            enc_len,
            count,
            crc,
            min_t: SimTime::from_nanos(min_t),
            max_t: SimTime::from_nanos(max_t),
            max_end: SimTime::from_nanos(max_end),
        });
        pos = end;
    }

    Ok(ScanOutcome {
        file_bytes,
        version,
        program,
        functions,
        chunks,
        chunks_end: pos,
        stop_reason,
    })
}

/// Parse the CRC-framed preamble at `pos`. Returns the program, the
/// dictionary, and the offset just past the frame — or a reason string
/// when the frame is absent or torn.
fn read_preamble(
    file: &mut std::fs::File,
    file_bytes: u64,
    pos: u64,
) -> Result<(String, Vec<String>, u64), String> {
    if file_bytes - pos < 8 {
        return Err("file ends inside the preamble frame".to_string());
    }
    let mut frame = [0u8; 8];
    file.seek(SeekFrom::Start(pos)).map_err(|e| e.to_string())?;
    file.read_exact(&mut frame).map_err(|e| e.to_string())?;
    let len = u32::from_le_bytes(frame[..4].try_into().expect("4 bytes")) as u64;
    let crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
    let end = pos
        .checked_add(8)
        .and_then(|v| v.checked_add(len))
        .filter(|&e| e <= file_bytes)
        .ok_or_else(|| "preamble frame longer than the file".to_string())?;
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload).map_err(|e| e.to_string())?;
    if crc32(&payload) != crc {
        return Err("preamble CRC-32 mismatch (torn first write?)".to_string());
    }
    let mut buf: &[u8] = &payload;
    let program = take_string(&mut buf).map_err(|_| "bad preamble program string".to_string())?;
    if buf.remaining() < 4 {
        return Err("preamble dictionary truncated".to_string());
    }
    let nf = buf.get_u32_le() as usize;
    let mut functions = Vec::with_capacity(nf.min(1 << 20));
    for _ in 0..nf {
        functions.push(take_string(&mut buf).map_err(|_| "bad preamble dictionary".to_string())?);
    }
    Ok((program, functions, end))
}

/// Open a store without trusting its footer: forward-scan the chunks and
/// build the index from what the bytes prove. Files whose footer *is*
/// intact open normally (salvage then reports zero drops). Called via
/// [`StoreReader::open_salvage`].
pub(crate) fn open_salvage(path: impl AsRef<Path>) -> Result<StoreReader, TraceError> {
    let path = path.as_ref();
    match StoreReader::open(path) {
        Ok(r) => {
            let events = r.chunks().iter().map(|m| m.count as u64).sum();
            let summary = SalvageSummary {
                chunks_recovered: r.chunks().len(),
                events_recovered: events,
                tail_bytes_dropped: 0,
            };
            Ok(r.with_salvage(summary))
        }
        Err(TraceError::TruncatedFooter) => {
            let mut file = std::fs::File::open(path)?;
            let scan = forward_scan(&mut file)?;
            let summary = SalvageSummary {
                chunks_recovered: scan.chunks.len(),
                events_recovered: scan.chunks.iter().map(|m| m.count as u64).sum(),
                tail_bytes_dropped: scan.file_bytes - scan.chunks_end,
            };
            if obs::enabled() {
                obs_chunks_salvaged(summary.chunks_recovered as u64);
            }
            Ok(StoreReader::from_parts(
                file,
                scan.version,
                scan.program,
                scan.functions,
                scan.chunks,
                scan.file_bytes,
                Some(summary),
            ))
        }
        Err(e) => Err(e),
    }
}

/// Classify a file that failed the normal footer parse: trailer magic
/// present → [`FooterState::Torn`], absent → [`FooterState::Missing`].
fn classify_footer(path: &Path) -> FooterState {
    let Ok(mut file) = std::fs::File::open(path) else {
        return FooterState::Missing;
    };
    let Ok(file_bytes) = file.seek(SeekFrom::End(0)) else {
        return FooterState::Missing;
    };
    if file_bytes < HEADER_BYTES + TRAILER_BYTES {
        return FooterState::Missing;
    }
    let mut tail = [0u8; 6];
    if file.seek(SeekFrom::End(-6)).is_err() || file.read_exact(&mut tail).is_err() {
        return FooterState::Missing;
    }
    if &tail[..4] == STORE_MAGIC {
        FooterState::Torn
    } else {
        FooterState::Missing
    }
}

/// Check a store end to end: footer parse, then per-chunk verification
/// (CRC, then a full decode); footer-less files get the forward salvage
/// scan. Corruption is *reported*, not an error —
/// `fsck` only fails on I/O problems or a file that is not a store at
/// all.
pub fn fsck(path: impl AsRef<Path>) -> Result<FsckReport, TraceError> {
    let path = path.as_ref();
    match StoreReader::open(path) {
        Ok(mut r) => {
            let mut faults = Vec::new();
            let mut chunks_ok = 0usize;
            let mut events_ok = 0u64;
            for i in 0..r.chunks().len() {
                let meta = r.chunks()[i];
                match r.chunk_events(i) {
                    Ok(events) => {
                        chunks_ok += 1;
                        events_ok += events.len() as u64;
                    }
                    Err(e) => faults.push(ChunkFault {
                        index: i,
                        offset: meta.offset,
                        reason: e.to_string(),
                    }),
                }
            }
            let info = r.info();
            Ok(FsckReport {
                path: path.to_path_buf(),
                file_bytes: info.file_bytes,
                version: info.version,
                footer: FooterState::Valid,
                program: r.program().to_string(),
                chunks_ok,
                events_ok,
                faults,
                tail_bytes: 0,
            })
        }
        Err(TraceError::TruncatedFooter) => {
            let mut file = std::fs::File::open(path)?;
            let scan = forward_scan(&mut file)?;
            let mut faults = Vec::new();
            let tail_bytes = scan.file_bytes - scan.chunks_end;
            if let Some(reason) = scan.stop_reason {
                faults.push(ChunkFault {
                    index: scan.chunks.len(),
                    offset: scan.chunks_end,
                    reason,
                });
            }
            Ok(FsckReport {
                path: path.to_path_buf(),
                file_bytes: scan.file_bytes,
                version: scan.version,
                footer: classify_footer(path),
                program: scan.program.clone(),
                chunks_ok: scan.chunks.len(),
                events_ok: scan.chunks.iter().map(|m| m.count as u64).sum(),
                faults,
                tail_bytes,
            })
        }
        Err(e) => Err(e),
    }
}

/// Write a repaired copy of `path` to `out`: every provably-intact chunk
/// is copied **byte-for-byte** (headers are offset-free, so raw copy
/// preserves CRCs and chunk boundaries — queries against the repaired
/// file match the salvaged view exactly), then a fresh preamble, footer,
/// and trailer are written so [`StoreReader::open`] accepts the result.
/// Header and trailer keep the version `path` has: it names the shape
/// table the copied payloads were encoded with.
/// Returns the pre-repair [`FsckReport`] describing what was recovered.
pub fn repair(path: impl AsRef<Path>, out: impl AsRef<Path>) -> Result<FsckReport, TraceError> {
    let path = path.as_ref();
    let report = fsck(path)?;
    // Collect the good chunks (index + metadata) the same way fsck did.
    let (program, functions, good): (String, Vec<String>, Vec<ChunkMeta>) =
        match StoreReader::open(path) {
            Ok(mut r) => {
                let mut good = Vec::new();
                for i in 0..r.chunks().len() {
                    let meta = r.chunks()[i];
                    if r.chunk_events(i).is_ok() {
                        good.push(meta);
                    }
                }
                (r.program().to_string(), r.functions().to_vec(), good)
            }
            Err(TraceError::TruncatedFooter) => {
                let mut file = std::fs::File::open(path)?;
                let scan = forward_scan(&mut file)?;
                (scan.program, scan.functions, scan.chunks)
            }
            Err(e) => return Err(e),
        };

    let mut input = std::fs::File::open(path)?;
    let mut sink = std::io::BufWriter::new(std::fs::File::create(out.as_ref())?);
    sink.write_all(&encode_header(report.version))?;
    let framed = encode_preamble(&program, &functions);
    sink.write_all(&framed)?;
    let mut pos = HEADER_BYTES + framed.len() as u64;
    let mut index = Vec::with_capacity(good.len());
    for meta in &good {
        let disk = meta.disk_bytes();
        let mut raw = vec![0u8; disk as usize];
        input.seek(SeekFrom::Start(meta.offset))?;
        input.read_exact(&mut raw)?;
        sink.write_all(&raw)?;
        let mut moved = *meta;
        moved.offset = pos;
        index.push(moved);
        pos += disk;
    }
    let footer = encode_footer_and_trailer(&program, &functions, &index, report.version);
    sink.write_all(&footer)?;
    sink.flush()?;
    Ok(report)
}
