//! # bytes (vendored shim) — cheaply cloneable byte buffers
//!
//! The build environment has no network access to crates.io, so this
//! workspace vendors the slice of the `bytes` crate API its trace codec
//! uses: [`BytesMut`] for little-endian encoding, [`Bytes`] for zero-copy
//! reads (an `Arc<[u8]>` window advanced by the [`Buf`] getters), and the
//! [`Buf`]/[`BufMut`] traits those methods live on. As in the real crate,
//! a plain `&[u8]` is a [`Buf`] too: decoding a buffer somebody else owns
//! needs no `Bytes` (and so no copy into shared storage) at all.
//!
//! Semantics match the real crate for every call site in this repository:
//! `freeze` is O(1), `clone`/`slice`/`split_to` share the same allocation,
//! and the getters panic on underflow just as `bytes` does.

#![warn(missing_docs)]

use std::fmt;
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

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

/// A growable byte buffer used while encoding; [`BytesMut::freeze`] turns
/// it into an immutable, cheaply-cloneable [`Bytes`].
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

    /// Convert into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
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

/// An immutable window into reference-counted byte storage. Cloning,
/// slicing and splitting share the allocation; the [`Buf`] getters advance
/// the window's start.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// A buffer viewing a static slice (copied once into shared storage;
    /// the real crate avoids even that, which no caller here observes).
    pub fn from_static(s: &'static [u8]) -> Bytes {
        Bytes::from(s.to_vec())
    }

    /// Bytes visible through this window.
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    /// Whether the window is empty.
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A sub-window of this buffer (indices relative to the window),
    /// sharing the same storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(lo <= hi && hi <= self.len(), "slice out of range");
        Bytes {
            data: Arc::clone(&self.data),
            start: self.start + lo,
            end: self.start + hi,
        }
    }

    /// Split off and return the first `n` bytes, advancing this window
    /// past them.
    pub fn split_to(&mut self, n: usize) -> Bytes {
        assert!(n <= self.len(), "split_to out of range");
        let head = self.slice(0..n);
        self.start += n;
        head
    }

    /// Copy the window into a fresh `Vec`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn take_front(&mut self, n: usize) -> &[u8] {
        assert!(n <= self.len(), "buffer underflow");
        let s = self.start;
        self.start += n;
        &self.data[s..s + n]
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

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        let end = v.len();
        Bytes {
            data: v.into(),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
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
        let mut r = b.freeze();
        assert_eq!(r.remaining(), 1 + 2 + 4 + 4 + 8 + 3);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEAD_BEEF);
        assert_eq!(r.get_i32_le(), -42);
        assert_eq!(r.get_u64_le(), u64::MAX - 1);
        assert_eq!(r.split_to(3).as_ref(), b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn slices_share_storage_and_windows_nest() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let mid = b.slice(1..5);
        assert_eq!(mid.as_ref(), &[1, 2, 3, 4]);
        let inner = mid.slice(1..=2);
        assert_eq!(inner.as_ref(), &[2, 3]);
        assert_eq!(b.slice(..).len(), 6);
    }

    #[test]
    fn split_to_advances() {
        let mut b = Bytes::from(vec![9, 8, 7, 6]);
        let head = b.split_to(2);
        assert_eq!(head.as_ref(), &[9, 8]);
        assert_eq!(b.as_ref(), &[7, 6]);
        assert_eq!(b.to_vec(), vec![7, 6]);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        Bytes::from(vec![1]).get_u32_le();
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
