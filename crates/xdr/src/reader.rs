use bytes::Bytes;

use crate::{pad4, XdrError};

/// Default cap on any single length prefix (strings, opaques, arrays).
///
/// 64 MiB is far above anything the paper's workloads move in one request
/// (1M ints = 4 MiB) while still bounding what a corrupt or hostile peer can
/// make us allocate.
pub const DEFAULT_LENGTH_LIMIT: u32 = 64 << 20;

/// Borrowing XDR decoder over a byte slice or a list of segments.
///
/// Every read checks bounds and returns [`XdrError::Truncated`] rather than
/// panicking, because input typically arrives from the network.
///
/// A reader built with [`from_segments`](Self::from_segments) also knows
/// the shared buffers behind its input, so
/// [`get_opaque_bytes`](Self::get_opaque_bytes) can hand out opaques that
/// share them instead of copying them. Reads run on across segment
/// boundaries; an item that lies inside one segment is borrowed from it,
/// and one that straddles two fails with [`XdrError::SegmentStraddle`].
#[derive(Debug, Clone)]
pub struct XdrReader<'a> {
    /// The segment reads currently come from.
    buf: &'a [u8],
    /// The shared buffer behind `buf`, if the reader has one.
    src: Option<&'a Bytes>,
    /// Segments after `buf`, and their total length.
    next: &'a [Bytes],
    next_len: usize,
    /// Bytes in the segments before `buf`.
    base: usize,
    pos: usize,
    length_limit: u32,
}

impl<'a> XdrReader<'a> {
    /// Wraps `buf` with the default length limit.
    pub fn new(buf: &'a [u8]) -> Self {
        Self::with_length_limit(buf, DEFAULT_LENGTH_LIMIT)
    }

    /// Wraps `buf` with a custom cap on length prefixes.
    pub fn with_length_limit(buf: &'a [u8], limit: u32) -> Self {
        Self { buf, src: None, next: &[], next_len: 0, base: 0, pos: 0, length_limit: limit }
    }

    /// Reads the concatenation of `segs`, with the default length limit.
    /// Reads behave as with [`new`](Self::new), except that
    /// [`get_opaque_bytes`](Self::get_opaque_bytes) shares the segment an
    /// opaque lies in instead of copying out of it, so an opaque the writer
    /// appended as a segment of its own comes back as that very segment.
    pub fn from_segments(segs: &'a [Bytes]) -> Self {
        let Some((first, next)) = segs.split_first() else {
            return Self::new(&[]);
        };
        Self {
            buf: first,
            src: Some(first),
            next,
            next_len: next.iter().map(Bytes::len).sum(),
            base: 0,
            pos: 0,
            length_limit: DEFAULT_LENGTH_LIMIT,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos + self.next_len
    }

    /// True when all input has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Bytes consumed so far.
    pub fn position(&self) -> usize {
        self.base + self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], XdrError> {
        if self.buf.len() - self.pos < n {
            self.advance_for(n)?;
        }
        // ohpc-analyze: allow(panic-freedom) — range is bounds-checked: the current segment holds n more bytes (advance_for guarantees it)
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Steps past exhausted segments until the next `n` bytes lie in the
    /// current one. Fails, consuming nothing, when fewer than `n` bytes
    /// remain or when they straddle a segment boundary.
    #[cold]
    fn advance_for(&mut self, n: usize) -> Result<(), XdrError> {
        let remaining = self.remaining();
        if remaining < n {
            return Err(XdrError::Truncated { needed: n, available: remaining });
        }
        while self.pos == self.buf.len() {
            let Some((seg, rest)) = self.next.split_first() else { break };
            self.base += self.buf.len();
            self.next_len -= seg.len();
            (self.buf, self.src, self.next, self.pos) = (seg, Some(seg), rest, 0);
        }
        let available = self.buf.len() - self.pos;
        if available < n {
            return Err(XdrError::SegmentStraddle { needed: n, available });
        }
        Ok(())
    }

    /// Decodes an unsigned 32-bit integer.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, XdrError> {
        let b = self.take(4)?;
        let mut a = [0u8; 4];
        a.copy_from_slice(b);
        Ok(u32::from_be_bytes(a))
    }

    /// Decodes a signed 32-bit integer.
    #[inline]
    pub fn get_i32(&mut self) -> Result<i32, XdrError> {
        Ok(self.get_u32()? as i32)
    }

    /// Decodes an unsigned 64-bit hyper integer.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, XdrError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_be_bytes(a))
    }

    /// Decodes a signed 64-bit hyper integer.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, XdrError> {
        Ok(self.get_u64()? as i64)
    }

    /// Decodes an IEEE-754 single-precision float.
    #[inline]
    pub fn get_f32(&mut self) -> Result<f32, XdrError> {
        Ok(f32::from_bits(self.get_u32()?))
    }

    /// Decodes an IEEE-754 double-precision float.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, XdrError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Decodes a boolean word, rejecting anything other than 0 or 1.
    pub fn get_bool(&mut self) -> Result<bool, XdrError> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(XdrError::InvalidBool(v)),
        }
    }

    fn check_len(&self, len: u32) -> Result<usize, XdrError> {
        if len > self.length_limit {
            return Err(XdrError::LengthOverflow {
                declared: len as u64,
                limit: self.length_limit as u64,
            });
        }
        // A declared length the rest of the buffer cannot possibly satisfy
        // is a corrupt prefix; reject it here, before any caller sizes an
        // allocation from it.
        if len as usize > self.remaining() {
            return Err(XdrError::Truncated { needed: len as usize, available: self.remaining() });
        }
        Ok(len as usize)
    }

    /// Decodes variable-length opaque data, validating zero padding.
    pub fn get_opaque(&mut self) -> Result<&'a [u8], XdrError> {
        let len = self.get_u32()?;
        let len = self.check_len(len)?;
        self.get_fixed_opaque(len)
    }

    /// Decodes variable-length opaque data as an owned [`Bytes`]. Over a
    /// reader built with [`from_segments`](Self::from_segments) the result
    /// shares the source segment (no copy, and it keeps that whole buffer alive); over a plain
    /// slice it is a copy. Meant for large bodies: small values
    /// that outlive the message should use [`get_opaque`](Self::get_opaque)
    /// and copy, so they do not pin a large frame.
    pub fn get_opaque_bytes(&mut self) -> Result<Bytes, XdrError> {
        let len = self.get_u32()?;
        let len = self.check_len(len)?;
        let data = self.take(len)?;
        // The padding may open the next segment; the data lies in this one.
        let src = self.src;
        self.take_padding(len)?;
        Ok(match src {
            Some(src) => src.slice_ref(data),
            None => Bytes::copy_from_slice(data),
        })
    }

    /// Decodes `len` bytes of fixed-length opaque data plus padding.
    pub fn get_fixed_opaque(&mut self, len: usize) -> Result<&'a [u8], XdrError> {
        let data = self.take(len)?;
        self.take_padding(len)?;
        Ok(data)
    }

    /// Consumes the zero padding after `len` bytes of opaque data.
    fn take_padding(&mut self, len: usize) -> Result<(), XdrError> {
        if self.take(pad4(len))?.iter().any(|&b| b != 0) {
            return Err(XdrError::NonZeroPadding);
        }
        Ok(())
    }

    /// Decodes a UTF-8 string.
    pub fn get_string(&mut self) -> Result<String, XdrError> {
        let bytes = self.get_opaque()?;
        std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| XdrError::InvalidUtf8)
    }

    /// Decodes an array length prefix, applying the length limit and
    /// bounding the count against the bytes actually left.
    ///
    /// Every XDR array element occupies at least one 4-byte word, so a
    /// count beyond `remaining() / 4` cannot be satisfied by any suffix of
    /// the frame — a corrupt prefix must not become a giant
    /// `Vec::with_capacity`.
    pub fn get_array_len(&mut self) -> Result<usize, XdrError> {
        let len = self.get_u32()?;
        let n = self.check_len(len)?;
        if n > self.remaining() / 4 {
            return Err(XdrError::Truncated { needed: n * 4, available: self.remaining() });
        }
        Ok(n)
    }

    /// Decodes `n` back-to-back `N`-byte big-endian words (no length
    /// prefix) with one bounds check, converting each with `from_be`. The
    /// bulk form of `n` calls to `get_i32`/`get_u64`/…, reading the same
    /// bytes. Fails with [`XdrError::Truncated`] before allocating anything
    /// when fewer than `n * N` bytes remain. Pairs with
    /// [`XdrWriter::put_words`](crate::XdrWriter::put_words).
    pub fn get_words<T, const N: usize>(
        &mut self,
        n: usize,
        from_be: impl Fn([u8; N]) -> T,
    ) -> Result<Vec<T>, XdrError> {
        const { assert!(N > 0 && N % 4 == 0, "XDR items are whole 4-byte words") };
        let needed = n.checked_mul(N).ok_or(XdrError::Truncated {
            needed: usize::MAX,
            available: self.remaining(),
        })?;
        let words = self.take(needed)?;
        Ok(words
            .chunks_exact(N)
            .map(|c| {
                let mut a = [0u8; N];
                a.copy_from_slice(c);
                from_be(a)
            })
            .collect())
    }

    /// Decodes a *trailing extension*: the backward-compatible way to append
    /// optional data to the end of a message.
    ///
    /// Returns `None` when the reader is already at end of input — a legacy
    /// frame encoded before the extension existed. Otherwise reads a `u32`
    /// version word followed by an opaque payload; callers decode payloads of
    /// versions they know and ignore the rest, so old decoders skip new
    /// extensions and new decoders accept old frames. Must be the last field
    /// read (anything after it would be indistinguishable from the
    /// extension's absence).
    pub fn get_trailing_extension(&mut self) -> Result<Option<(u32, &'a [u8])>, XdrError> {
        if self.is_empty() {
            return Ok(None);
        }
        let version = self.get_u32()?;
        let payload = self.get_opaque()?;
        Ok(Some((version, payload)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truncated_read_reports_needs() {
        let mut r = XdrReader::new(&[0, 0]);
        let err = r.get_u32().unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: 4, available: 2 });
    }

    #[test]
    fn bool_rejects_other_words() {
        let mut r = XdrReader::new(&[0, 0, 0, 2]);
        assert_eq!(r.get_bool().unwrap_err(), XdrError::InvalidBool(2));
    }

    #[test]
    fn opaque_rejects_nonzero_padding() {
        // length 1, byte 0xAA, padding 0x01 0x00 0x00 — invalid.
        let mut r = XdrReader::new(&[0, 0, 0, 1, 0xAA, 1, 0, 0]);
        assert_eq!(r.get_opaque().unwrap_err(), XdrError::NonZeroPadding);
    }

    #[test]
    fn length_limit_is_enforced() {
        let mut r = XdrReader::with_length_limit(&[0xff, 0xff, 0xff, 0xff], 16);
        let err = r.get_opaque().unwrap_err();
        assert!(matches!(err, XdrError::LengthOverflow { declared: 0xffff_ffff, limit: 16 }));
    }

    #[test]
    fn string_rejects_invalid_utf8() {
        let mut r = XdrReader::new(&[0, 0, 0, 2, 0xC3, 0x28, 0, 0]);
        assert_eq!(r.get_string().unwrap_err(), XdrError::InvalidUtf8);
    }

    #[test]
    fn position_tracks_consumption() {
        let mut r = XdrReader::new(&[0, 0, 0, 1, 0, 0, 0, 2]);
        assert_eq!(r.position(), 0);
        r.get_u32().unwrap();
        assert_eq!(r.position(), 4);
        assert_eq!(r.remaining(), 4);
    }

    #[test]
    fn floats_round_trip_via_bits() {
        let expected = 2.5f32;
        let bytes = expected.to_bits().to_be_bytes();
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_f32().unwrap(), expected);
    }

    #[test]
    fn adversarial_opaque_length_is_rejected_up_front() {
        // Declared length 0xFFFF is under the default limit but the frame
        // only carries 4 more bytes; the prefix itself must be the error.
        let mut r = XdrReader::new(&[0, 0, 0xff, 0xff, 1, 2, 3, 4]);
        let err = r.get_opaque().unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: 0xffff, available: 4 });
        // Nothing past the prefix was consumed.
        assert_eq!(r.position(), 4);
    }

    #[test]
    fn adversarial_array_count_is_rejected_up_front() {
        // 8 declared elements fit the byte-count check (8 bytes remain) but
        // cannot fit 8 words; the reader must not hand callers a count they
        // would turn into a large reservation.
        let mut r = XdrReader::new(&[0, 0, 0, 8, 0, 0, 0, 0, 0, 0, 0, 0]);
        let err = r.get_array_len().unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: 32, available: 8 });
    }

    #[test]
    fn get_words_reads_the_per_item_bytes() {
        let bytes = [0, 0, 0, 1, 0xff, 0xff, 0xff, 0xfe, 9];
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_words(2, i32::from_be_bytes).unwrap(), vec![1, -2]);
        assert_eq!(r.remaining(), 1);
        let mut r = XdrReader::new(&bytes);
        assert_eq!(r.get_words(1, u64::from_be_bytes).unwrap(), vec![0x1_ffff_fffe]);
        assert!(r.get_words(0, u32::from_be_bytes).unwrap().is_empty());
    }

    #[test]
    fn get_words_checks_the_whole_run_up_front() {
        let mut r = XdrReader::new(&[0u8; 12]);
        let err = r.get_words(2, u64::from_be_bytes).unwrap_err();
        assert_eq!(err, XdrError::Truncated { needed: 16, available: 12 });
        assert_eq!(r.position(), 0, "nothing consumed on failure");
        let err = r.get_words(usize::MAX, u64::from_be_bytes).unwrap_err();
        assert!(matches!(err, XdrError::Truncated { needed: usize::MAX, .. }));
    }

    #[test]
    fn opaque_bytes_share_a_bytes_source_and_copy_a_slice() {
        let frame = Bytes::from(vec![0, 0, 0, 3, b'a', b'b', b'c', 0, 0, 0, 0, 0]);
        let mut r = XdrReader::from_segments(std::slice::from_ref(&frame));
        let body = r.get_opaque_bytes().unwrap();
        assert_eq!(&body[..], b"abc");
        assert_eq!(body.as_ptr(), frame[4..].as_ptr(), "borrowed from the frame");
        assert!(r.get_opaque_bytes().unwrap().is_empty());
        assert!(r.is_empty());

        let mut r = XdrReader::new(&frame);
        let copied = r.get_opaque_bytes().unwrap();
        assert_eq!(copied, body);
        assert_ne!(copied.as_ptr(), body.as_ptr(), "a plain slice reader copies");
    }

    #[test]
    fn segments_read_as_their_concatenation() {
        let segs = [
            Bytes::from(vec![0, 0, 0, 7, 0, 0, 0, 5]),
            Bytes::new(),
            Bytes::from(b"hello".to_vec()),
            Bytes::from(vec![0, 0, 0, 0, 0, 0, 9]),
        ];
        let mut r = XdrReader::from_segments(&segs);
        assert_eq!(r.remaining(), 20);
        assert_eq!(r.get_u32().unwrap(), 7);
        let body = r.get_opaque_bytes().unwrap();
        assert_eq!(&body[..], b"hello");
        assert_eq!(body.as_ptr(), segs[2].as_ptr(), "the opaque is the segment itself");
        assert_eq!(r.position(), 16);
        assert_eq!(r.get_u32().unwrap(), 9);
        assert!(r.is_empty());
        assert_eq!(
            r.get_u32().unwrap_err(),
            XdrError::Truncated { needed: 4, available: 0 }
        );
        assert!(XdrReader::from_segments(&[]).is_empty());
    }

    #[test]
    fn an_item_across_a_segment_boundary_is_a_typed_error() {
        let segs = [Bytes::from(vec![0, 0]), Bytes::from(vec![0, 1, 0, 0, 0, 2])];
        let mut r = XdrReader::from_segments(&segs);
        assert_eq!(
            r.get_u32().unwrap_err(),
            XdrError::SegmentStraddle { needed: 4, available: 2 }
        );
        assert_eq!(r.position(), 0, "nothing consumed on failure");
        let err = r.get_u64().unwrap_err();
        assert_eq!(err, XdrError::SegmentStraddle { needed: 8, available: 2 });
        assert!(err.to_string().contains("straddles"));
        // Past the boundary, reads go on normally.
        assert_eq!(r.get_fixed_opaque(2).unwrap_err(), XdrError::NonZeroPadding);
    }

    #[test]
    fn limit_check_precedes_remaining_check() {
        // A wildly overlong prefix still reports LengthOverflow, not
        // Truncated, so operators can tell policy rejections from framing.
        let mut r = XdrReader::with_length_limit(&[0xff, 0xff, 0xff, 0xff], 16);
        assert!(matches!(r.get_opaque().unwrap_err(), XdrError::LengthOverflow { .. }));
    }
}
