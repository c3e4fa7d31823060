//! Typed trace-I/O errors.
//!
//! The `VGVS` store reader ([`crate::store::StoreReader`]) and its salvage
//! scan report corruption through one enum, so callers can distinguish
//! "this is not a store at all" ([`TraceError::BadMagic`]) from "this is a
//! store that was cut short" ([`TraceError::TruncatedHeader`],
//! [`TraceError::TruncatedFooter`], [`TraceError::ShortChunk`]) and react
//! accordingly (e.g. salvage a crashed capture, or refuse a wrong-format
//! file outright).

use std::fmt;
use std::io;

/// Everything that can go wrong reading a trace or store file.
#[derive(Debug)]
pub enum TraceError {
    /// Underlying filesystem failure (open, seek, read, write).
    Io(io::Error),
    /// The file ends before the fixed-size header (or a header-resident
    /// table such as the function dictionary) is complete.
    TruncatedHeader,
    /// The file does not start with the `VGVS` store magic.
    BadMagic,
    /// The magic matched but the format version is unknown.
    UnsupportedVersion(u16),
    /// The store's trailing footer (index + trailer) is missing or cut
    /// short — the writer died before `finish()`.
    TruncatedFooter,
    /// Chunk `index` declares more payload bytes than the file holds, or
    /// its header disagrees with the footer index.
    ShortChunk {
        /// Position of the offending chunk in the footer index.
        index: usize,
    },
    /// Chunk `index` is the right shape but its CRC-32 does not match —
    /// the payload (or its header) was corrupted after being written.
    /// Degraded readers ([`crate::store::StoreReader::set_degraded`]) skip
    /// such chunks and account for them instead of failing.
    ChecksumMismatch {
        /// Position of the offending chunk in the footer index.
        index: usize,
    },
    /// Event `index` within the current chunk failed to decode.
    BadEvent {
        /// Ordinal of the malformed event.
        index: u64,
    },
    /// A length-prefixed string (program name, function dictionary entry)
    /// is truncated or not UTF-8.
    BadString,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Io(e) => write!(f, "trace i/o error: {e}"),
            TraceError::TruncatedHeader => write!(f, "truncated trace header"),
            TraceError::BadMagic => write!(f, "bad magic (not a VGVS store)"),
            TraceError::UnsupportedVersion(v) => write!(f, "unsupported trace version {v}"),
            TraceError::TruncatedFooter => write!(f, "truncated store footer (unfinished write?)"),
            TraceError::ShortChunk { index } => write!(f, "chunk {index} shorter than declared"),
            TraceError::ChecksumMismatch { index } => {
                write!(f, "chunk {index} failed its CRC-32 check (corrupted data)")
            }
            TraceError::BadEvent { index } => write!(f, "malformed event {index}"),
            TraceError::BadString => write!(f, "truncated or non-UTF-8 string"),
        }
    }
}

impl std::error::Error for TraceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            TraceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for TraceError {
    fn from(e: io::Error) -> TraceError {
        TraceError::Io(e)
    }
}

impl From<TraceError> for io::Error {
    fn from(e: TraceError) -> io::Error {
        match e {
            TraceError::Io(e) => e,
            other => io::Error::new(io::ErrorKind::InvalidData, other.to_string()),
        }
    }
}
