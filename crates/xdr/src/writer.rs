use bytes::{BufMut, Bytes, BytesMut};

use crate::pad4;

/// Append-only XDR encoder.
///
/// All `put_*` methods keep the stream 4-byte aligned. `finish` hands back the
/// accumulated buffer as cheaply-cloneable [`Bytes`], which is what the
/// transport layer frames onto the wire.
///
/// The stream is a list of segments: an opaque appended with
/// [`put_opaque_bytes`](Self::put_opaque_bytes) becomes a segment of its
/// own, shared with the caller rather than copied, and encoding carries on
/// in a fresh buffer after it. [`finish_segments`](Self::finish_segments)
/// hands the list over as is; [`finish`](Self::finish) joins it.
#[derive(Debug, Default)]
pub struct XdrWriter {
    /// Segments already closed, in stream order.
    segs: Vec<Bytes>,
    /// Total length of `segs`.
    segs_len: usize,
    /// The open segment every `put_*` appends to.
    buf: BytesMut,
}

impl XdrWriter {
    /// Creates an empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a writer with `cap` bytes pre-reserved — use when the encoded
    /// size is predictable (e.g. fixed-size array payloads) to avoid regrowth.
    pub fn with_capacity(cap: usize) -> Self {
        Self { buf: BytesMut::with_capacity(cap), ..Self::default() }
    }

    /// Number of bytes encoded so far. Always a multiple of 4.
    pub fn len(&self) -> usize {
        self.segs_len + self.buf.len()
    }

    /// True when nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Borrows the bytes encoded so far without consuming the writer. Used
    /// when an already-encoded body must be embedded into an outer frame.
    /// Only a writer that holds no shared segment is contiguous, so only
    /// such a writer may be peeked.
    pub fn peek(&self) -> &[u8] {
        debug_assert!(self.segs.is_empty(), "peek at a segmented XDR writer");
        &self.buf
    }

    /// Consumes the writer, returning the encoded bytes as one contiguous
    /// buffer. A writer without shared segments hands its buffer over; one
    /// with them joins the segments into a new buffer (a copy).
    pub fn finish(self) -> Bytes {
        if self.segs.is_empty() {
            debug_assert_eq!(self.len() % 4, 0, "XDR stream must stay 4-byte aligned");
            return self.buf.freeze();
        }
        Bytes::from(self.finish_segments().concat())
    }

    /// Consumes the writer, returning the encoded stream as its segments,
    /// in order and without copying any of them: the bytes before each
    /// shared opaque, each shared opaque itself, and the bytes after the
    /// last one. Their concatenation is what [`finish`](Self::finish)
    /// returns. Empty when nothing was encoded.
    pub fn finish_segments(mut self) -> Vec<Bytes> {
        debug_assert_eq!(self.len() % 4, 0, "XDR stream must stay 4-byte aligned");
        self.close_segment();
        self.segs
    }

    /// Closes the open buffer into a segment, unless it is empty.
    fn close_segment(&mut self) {
        if !self.buf.is_empty() {
            let seg = std::mem::take(&mut self.buf).freeze();
            self.push_segment(seg);
        }
    }

    fn push_segment(&mut self, seg: Bytes) {
        self.segs_len += seg.len();
        self.segs.push(seg);
    }

    /// Encodes an unsigned 32-bit integer.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32(v);
    }

    /// Encodes a signed 32-bit integer (two's complement).
    #[inline]
    pub fn put_i32(&mut self, v: i32) {
        self.buf.put_i32(v);
    }

    /// Encodes an unsigned 64-bit hyper integer.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64(v);
    }

    /// Encodes a signed 64-bit hyper integer.
    #[inline]
    pub fn put_i64(&mut self, v: i64) {
        self.buf.put_i64(v);
    }

    /// Encodes an IEEE-754 single-precision float.
    #[inline]
    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32(v);
    }

    /// Encodes an IEEE-754 double-precision float.
    #[inline]
    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64(v);
    }

    /// Encodes a boolean as a full word (0 or 1), per RFC 4506 §4.4.
    #[inline]
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Encodes variable-length opaque data: length word, bytes, zero padding
    /// to the next 4-byte boundary.
    pub fn put_opaque(&mut self, data: &[u8]) {
        self.put_u32(data.len() as u32);
        self.put_fixed_opaque(data);
    }

    /// Encodes variable-length opaque data exactly as
    /// [`put_opaque`](Self::put_opaque) does, but appends `data` as a
    /// segment of its own instead of copying it: the length word closes the
    /// open segment, `data` follows, and the zero padding opens the next.
    /// The mirror of [`XdrReader::get_opaque_bytes`](crate::XdrReader::get_opaque_bytes).
    pub fn put_opaque_bytes(&mut self, data: Bytes) {
        self.put_u32(data.len() as u32);
        if data.is_empty() {
            return;
        }
        let len = data.len();
        self.close_segment();
        self.push_segment(data);
        self.put_padding(len);
    }

    /// Encodes fixed-length opaque data (no length prefix), padded to 4 bytes.
    /// The decoder must know the length out of band.
    pub fn put_fixed_opaque(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.put_padding(data.len());
    }

    /// The zero padding after `len` bytes of opaque data.
    fn put_padding(&mut self, len: usize) {
        for _ in 0..pad4(len) {
            self.buf.put_u8(0);
        }
    }

    /// Encodes a UTF-8 string as length-prefixed opaque bytes.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque(s.as_bytes());
    }

    /// Encodes `items` back to back as `N`-byte big-endian words, without a
    /// length prefix: one resize, then an in-place fill. This is the bulk
    /// form of calling `put_i32`/`put_u64`/… once per item and produces the
    /// same bytes. `N` must be a whole number of XDR words (4 or 8).
    /// Pairs with [`XdrReader::get_words`](crate::XdrReader::get_words).
    pub fn put_words<T: Copy, const N: usize>(&mut self, items: &[T], to_be: impl Fn(T) -> [u8; N]) {
        const { assert!(N > 0 && N % 4 == 0, "XDR items are whole 4-byte words") };
        let start = self.buf.len();
        self.buf.resize(start + items.len() * N, 0);
        if let Some(tail) = self.buf.get_mut(start..) {
            for (dst, &v) in tail.chunks_exact_mut(N).zip(items) {
                dst.copy_from_slice(&to_be(v));
            }
        }
    }

    /// Encodes an array length prefix. Callers then encode `n` elements.
    #[inline]
    pub fn put_array_len(&mut self, n: usize) {
        self.put_u32(n as u32);
    }

    /// Encodes a trailing extension: a version word plus an opaque payload.
    /// Pairs with [`XdrReader::get_trailing_extension`](crate::XdrReader::get_trailing_extension);
    /// must be the last field of the message.
    pub fn put_trailing_extension(&mut self, version: u32, payload: &[u8]) {
        self.put_u32(version);
        self.put_opaque(payload);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_are_big_endian_words() {
        let mut w = XdrWriter::new();
        w.put_u32(0x0102_0304);
        w.put_i32(-1);
        w.put_bool(true);
        let b = w.finish();
        assert_eq!(&b[..], &[1, 2, 3, 4, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1]);
    }

    #[test]
    fn opaque_is_padded_with_zeros() {
        let mut w = XdrWriter::new();
        w.put_opaque(b"abcde");
        let b = w.finish();
        assert_eq!(&b[..], &[0, 0, 0, 5, b'a', b'b', b'c', b'd', b'e', 0, 0, 0]);
    }

    #[test]
    fn fixed_opaque_multiple_of_four_gets_no_padding() {
        let mut w = XdrWriter::new();
        w.put_fixed_opaque(&[9, 8, 7, 6]);
        assert_eq!(w.len(), 4);
    }

    #[test]
    fn hyper_encoding() {
        let mut w = XdrWriter::new();
        w.put_u64(0x0102_0304_0506_0708);
        w.put_i64(-2);
        let b = w.finish();
        assert_eq!(&b[..8], &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(&b[8..], &[0xff; 8][..7].iter().chain(&[0xfeu8]).copied().collect::<Vec<_>>()[..]);
    }

    #[test]
    fn put_words_matches_per_item_puts() {
        let v = [1i32, -2, i32::MAX, i32::MIN];
        let mut bulk = XdrWriter::new();
        bulk.put_u32(7);
        bulk.put_words(&v, i32::to_be_bytes);
        let mut each = XdrWriter::new();
        each.put_u32(7);
        for x in v {
            each.put_i32(x);
        }
        assert_eq!(bulk.finish(), each.finish());

        let d = [1.5f64, -0.0, f64::NAN];
        let mut bulk = XdrWriter::new();
        bulk.put_words(&d, f64::to_be_bytes);
        assert_eq!(bulk.len(), 24);
        let mut each = XdrWriter::new();
        for x in d {
            each.put_f64(x);
        }
        assert_eq!(bulk.finish(), each.finish());
    }

    #[test]
    fn finish_hands_the_buffer_over() {
        let mut w = XdrWriter::with_capacity(64);
        w.put_string("no copy");
        let before = w.peek().as_ptr();
        assert_eq!(w.finish().as_ptr(), before);
    }

    #[test]
    fn opaque_bytes_is_a_shared_segment_with_the_put_opaque_bytes() {
        for body in [&b""[..], b"a", b"abc", b"abcd", b"abcdefg"] {
            let shared = Bytes::from(body.to_vec());
            let mut w = XdrWriter::new();
            w.put_u32(7);
            w.put_opaque_bytes(shared.clone());
            w.put_u32(9);
            let mut flat = XdrWriter::new();
            flat.put_u32(7);
            flat.put_opaque(body);
            flat.put_u32(9);
            assert_eq!(w.len(), flat.len());
            let segs = w.finish_segments();
            let joined: Vec<u8> = segs.iter().flat_map(|s| s.iter().copied()).collect();
            assert_eq!(joined, flat.finish().to_vec());
            if !body.is_empty() {
                assert_eq!(segs.len(), 3, "head, body, tail");
                assert_eq!(segs[1].as_ptr(), shared.as_ptr(), "the body is not copied");
            }
        }
    }

    #[test]
    fn finish_joins_the_segments() {
        let mut w = XdrWriter::new();
        w.put_opaque_bytes(Bytes::from_static(b"xyz"));
        assert_eq!(&w.finish()[..], &[0, 0, 0, 3, b'x', b'y', b'z', 0]);
        assert!(XdrWriter::new().finish_segments().is_empty());
    }

    #[test]
    fn with_capacity_does_not_change_contents() {
        let mut w = XdrWriter::with_capacity(64);
        w.put_string("hi");
        let b = w.finish();
        assert_eq!(&b[..], &[0, 0, 0, 2, b'h', b'i', 0, 0]);
    }
}
