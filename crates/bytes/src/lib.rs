//! # bytes (vendored shim) — byte buffers for the trace codec
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the slice of the `bytes` crate API its trace codec
//! uses: [`BytesMut`] for little-endian encoding and the [`Buf`]/[`BufMut`]
//! traits the codec's getters and putters live on. As in the real crate, a
//! plain `&[u8]` is a [`Buf`]: the codec decodes from buffers its reader
//! owns, and needs no shared storage of its own.
//!
//! Semantics match the real crate for every call site in this repository:
//! the getters panic on underflow just as `bytes` does.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Deref, DerefMut};

/// Read access to a byte cursor: each getter consumes from the front.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;
    /// Consume `n` bytes from the front, returning them as a slice.
    fn take_front(&mut self, n: usize) -> &[u8];

    /// Read one byte.
    fn get_u8(&mut self) -> u8 {
        self.take_front(1)[0]
    }

    /// Read a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        u16::from_le_bytes(self.take_front(2).try_into().expect("2 bytes"))
    }

    /// Read a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        u32::from_le_bytes(self.take_front(4).try_into().expect("4 bytes"))
    }

    /// Read a little-endian `i32`.
    fn get_i32_le(&mut self) -> i32 {
        i32::from_le_bytes(self.take_front(4).try_into().expect("4 bytes"))
    }

    /// Read a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        u64::from_le_bytes(self.take_front(8).try_into().expect("8 bytes"))
    }
}

/// Append access to a growable byte buffer.
pub trait BufMut {
    /// Append raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Append one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Append a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `i32`.
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Append a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

/// A growable byte buffer used while encoding; it reads back as a slice.
#[derive(Default, Clone, PartialEq, Eq)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with `cap` bytes reserved.
    pub fn with_capacity(cap: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Forget what was written, keeping the allocation.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }

    /// A byte is pushed, not copied from a one-byte slice: the varint
    /// codec's whole output goes through here.
    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BytesMut({} bytes)", self.buf.len())
    }
}

/// A borrowed slice as a cursor: the getters shrink the slice from the
/// front.
impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_front(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underflow");
        let (head, tail) = self.split_at(n);
        *self = tail;
        head
    }

    fn get_u8(&mut self) -> u8 {
        let (&byte, tail) = self.split_first().expect("buffer underflow");
        *self = tail;
        byte
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_little_endian() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u16_le(0xBEEF);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_i32_le(-42);
        b.put_u64_le(u64::MAX - 1);
        b.put_slice(b"xyz");
        let mut r: &[u8] = &b;
        assert_eq!(r.remaining(), 1 + 2 + 4 + 4 + 8 + 3);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i32_le(), -42);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.take_front(3), b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let mut r: &[u8] = &[1];
        r.get_u32_le();
    }

    #[test]
    fn slices_read_like_bytes() {
        let mut b = BytesMut::new();
        b.put_u8(7);
        b.put_u32_le(0xDEAD_BEEF);
        b.put_u64_le(u64::MAX - 1);
        let mut r: &[u8] = &b;
        assert_eq!(r.remaining(), 13);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn slice_underflow_panics() {
        let mut r: &[u8] = &[];
        r.get_u8();
    }
}
