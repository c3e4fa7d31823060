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

use std::fs::File;
use std::io::{Read, Seek, SeekFrom};
use std::path::{Path, PathBuf};

use super::crc::crc32;
use super::reader::{check_header, ChunkBuf, StoreReader};
use super::writer::FileHalf;
use super::{
    take_dictionary, take_u32, ChunkMeta, CHUNK_HEADER_BYTES, HEADER_BYTES, STORE_MAGIC,
    STORE_VERSION, TRAILER_BYTES,
};
use crate::error::TraceError;

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
            "fsck {name}: format v{STORE_VERSION}, {} bytes, program \"{}\"\n",
            self.file_bytes, self.program
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

/// A store as one look at it found it: opened by its footer index or,
/// when the footer is missing or torn, by the index a forward scan
/// rebuilt from the chunks the bytes prove. [`StoreReader::open_salvage`],
/// [`fsck`] and [`repair`] all start here.
pub(crate) struct Survey {
    pub(crate) reader: StoreReader,
    pub(crate) footer: FooterState,
    /// Bytes past the last chunk the scan proved; 0 for a valid footer.
    pub(crate) tail_bytes: u64,
    /// Why the scan stopped short of the end of the file, if it did.
    stop: Option<String>,
}

pub(crate) fn survey(path: &Path) -> Result<Survey, TraceError> {
    match StoreReader::open(path) {
        Ok(reader) => Ok(Survey {
            reader,
            footer: FooterState::Valid,
            tail_bytes: 0,
            stop: None,
        }),
        Err(TraceError::TruncatedFooter) => forward_scan(File::open(path)?),
        Err(e) => Err(e),
    }
}

/// Forward-scan `file` for self-describing chunks, trusting nothing the
/// bytes cannot prove: each chunk must pass its CRC-32.
fn forward_scan(mut file: File) -> Result<Survey, TraceError> {
    let file_bytes = check_header(&mut file)?;
    let footer = classify_footer(&mut file, file_bytes);
    let mut chunks = Vec::new();
    // The CRC-framed preamble precedes the first chunk. If it cannot be
    // validated we do not know where chunk data starts — which only
    // happens when the writer died before flushing anything.
    let (program, functions, end, stop) = match read_preamble(&mut file, file_bytes) {
        Ok((program, functions, start)) => {
            let (end, stop) = scan_chunks(&mut file, file_bytes, start, &mut chunks)?;
            (program, functions, end, stop)
        }
        Err(reason) => (
            String::from("unknown"),
            Vec::new(),
            HEADER_BYTES,
            Some(reason),
        ),
    };
    let reader = StoreReader::from_parts(file, program, functions, chunks, file_bytes);
    Ok(Survey {
        reader,
        footer,
        tail_bytes: file_bytes - end,
        stop,
    })
}

/// Append to `chunks` every chunk from `pos` on that proves itself.
/// Returns the offset just past the last one, and why the scan stopped
/// before the end of the file, if it did.
fn scan_chunks(
    file: &mut File,
    file_bytes: u64,
    mut pos: u64,
    chunks: &mut Vec<ChunkMeta>,
) -> Result<(u64, Option<String>), TraceError> {
    let mut chunk = ChunkBuf::default();
    loop {
        let remaining = file_bytes - pos;
        if remaining < CHUNK_HEADER_BYTES as u64 {
            let stop =
                (remaining > 0).then(|| format!("{remaining} trailing bytes, no chunk header"));
            return Ok((pos, stop));
        }
        // The header alone first: nothing else says how long the chunk is.
        chunk.read(file, pos, CHUNK_HEADER_BYTES)?;
        let meta = ChunkMeta::from_header(chunk.bytes(), pos, chunks.len())?;
        // A writer never flushes an empty chunk; zero fields mean we are
        // looking at footer bytes or a torn header.
        if meta.count == 0 || meta.enc_len == 0 {
            return Ok((pos, Some("not a chunk header".to_string())));
        }
        let Some(end) = pos
            .checked_add(meta.disk_bytes())
            .filter(|&end| end <= file_bytes)
        else {
            let stop = format!(
                "chunk declares {} payload bytes past end of file",
                meta.enc_len
            );
            return Ok((pos, Some(stop)));
        };
        chunk.read(file, pos, meta.disk_bytes() as usize)?;
        if chunk.crc() != meta.crc {
            return Ok((pos, Some("chunk CRC-32 mismatch".to_string())));
        }
        chunks.push(meta);
        pos = end;
    }
}

/// Parse the CRC-framed preamble behind the file header. Returns the
/// program, the dictionary, and the offset just past the frame — or a
/// reason string when the frame is absent or torn.
fn read_preamble(file: &mut File, file_bytes: u64) -> Result<(String, Vec<String>, u64), String> {
    let pos = HEADER_BYTES;
    let truncated = || "file ends inside the preamble frame".to_string();
    if file_bytes - pos < 8 {
        return Err(truncated());
    }
    let mut frame = [0u8; 8];
    file.seek(SeekFrom::Start(pos)).map_err(|e| e.to_string())?;
    file.read_exact(&mut frame).map_err(|e| e.to_string())?;
    let mut fields = &frame[..];
    let (Some(len), Some(crc)) = (take_u32(&mut fields), take_u32(&mut fields)) else {
        return Err(truncated());
    };
    let end = pos
        .checked_add(8)
        .and_then(|v| v.checked_add(u64::from(len)))
        .filter(|&e| e <= file_bytes)
        .ok_or_else(|| "preamble frame longer than the file".to_string())?;
    let mut payload = vec![0u8; len as usize];
    file.read_exact(&mut payload).map_err(|e| e.to_string())?;
    if crc32(&payload) != crc {
        return Err("preamble CRC-32 mismatch (torn first write?)".to_string());
    }
    let (program, functions) =
        take_dictionary(&mut &payload[..]).map_err(|e| format!("bad preamble: {e}"))?;
    Ok((program, functions, end))
}

/// Classify a file that failed the normal footer parse: trailer magic
/// present → [`FooterState::Torn`], absent → [`FooterState::Missing`].
fn classify_footer(file: &mut File, file_bytes: u64) -> FooterState {
    let mut tail = [0u8; 6];
    let torn = file_bytes >= HEADER_BYTES + TRAILER_BYTES
        && file.seek(SeekFrom::End(-6)).is_ok()
        && file.read_exact(&mut tail).is_ok()
        && &tail[..4] == STORE_MAGIC;
    if torn {
        FooterState::Torn
    } else {
        FooterState::Missing
    }
}

impl Survey {
    /// Vouch for every chunk the survey found — it must pass its CRC-32
    /// and decode whole — handing each good one's disk bytes to `keep`. A
    /// bad chunk is a fault in the report; only what `keep` fails with is
    /// an error.
    fn check(
        mut self,
        path: &Path,
        mut keep: impl FnMut(&ChunkMeta, &[u8]) -> std::io::Result<()>,
    ) -> Result<FsckReport, TraceError> {
        let mut faults = Vec::new();
        let (mut chunks_ok, mut events_ok) = (0, 0);
        for i in 0..self.reader.chunks().len() {
            let meta = self.reader.chunks()[i];
            match self.reader.load(i) {
                Ok(raw) => {
                    chunks_ok += 1;
                    events_ok += u64::from(meta.count);
                    keep(&meta, raw)?;
                }
                Err(e) => faults.push(ChunkFault {
                    index: i,
                    offset: meta.offset,
                    reason: e.to_string(),
                }),
            }
        }
        let info = self.reader.info();
        if let Some(reason) = self.stop {
            faults.push(ChunkFault {
                index: info.chunks,
                offset: info.file_bytes - self.tail_bytes,
                reason,
            });
        }
        Ok(FsckReport {
            path: path.to_path_buf(),
            file_bytes: info.file_bytes,
            footer: self.footer,
            program: info.program,
            chunks_ok,
            events_ok,
            faults,
            tail_bytes: self.tail_bytes,
        })
    }
}

/// Check a store end to end: footer parse, then per-chunk verification
/// (CRC, then a full decode); footer-less files get the forward salvage
/// scan. Corruption is *reported*, not an error —
/// `fsck` only fails on I/O problems or a file that is not a store at
/// all.
pub fn fsck(path: impl AsRef<Path>) -> Result<FsckReport, TraceError> {
    let path = path.as_ref();
    survey(path)?.check(path, |_, _| Ok(()))
}

/// Write a repaired copy of `path` to `out`: every provably-intact chunk
/// is copied **byte-for-byte** (headers are offset-free, so raw copy
/// preserves CRCs and chunk boundaries — queries against the repaired
/// file match the salvaged view exactly) by the writer's own file half,
/// which frames them in a fresh preamble, footer and trailer so
/// [`StoreReader::open`] accepts the result. One pass: each chunk is
/// verified as `fsck` verifies it and copied while it is read. Returns the
/// [`FsckReport`] of `path`.
pub fn repair(path: impl AsRef<Path>, out: impl AsRef<Path>) -> Result<FsckReport, TraceError> {
    let path = path.as_ref();
    let survey = survey(path)?;
    let r = &survey.reader;
    let mut file = FileHalf::create(out.as_ref(), r.program().to_string())?;
    file.set_functions(r.functions().to_vec());
    let report = survey.check(path, |meta, raw| file.copy_chunk(meta, raw))?;
    file.finish()?;
    Ok(report)
}
