//! The unit every fabric moves: a frame of shared byte segments.

use bytes::Bytes;

/// One frame: a short list of [`Bytes`] segments that travel as a single
/// unit, so a large body can ride in a frame as its own segment instead of
/// being copied in next to the header. The frame's bytes are the
/// concatenation of its segments; how a frame is cut into segments carries
/// no meaning, and a receiver may get it back cut differently (tcp delivers
/// one contiguous segment, the in-process fabrics deliver the sender's
/// segments as they were).
#[derive(Debug, Clone, Default)]
pub struct Frame {
    segs: Vec<Bytes>,
    len: usize,
}

impl Frame {
    /// Total length in bytes: the sum of the segments.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the frame holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The segments, in order.
    pub fn segments(&self) -> &[Bytes] {
        &self.segs
    }

    /// The frame as one contiguous buffer: a single segment is handed over
    /// as is, several are joined into a new buffer (a copy).
    pub fn into_contiguous(mut self) -> Bytes {
        match self.segs.len() {
            0 => Bytes::new(),
            1 => self.segs.swap_remove(0),
            _ => Bytes::from(self.to_vec()),
        }
    }

    /// Copies the frame's bytes into a fresh `Vec<u8>`.
    pub fn to_vec(&self) -> Vec<u8> {
        self.segs.concat()
    }

    /// The first `N` bytes, read across segment boundaries, or `None` when
    /// the frame is shorter.
    pub fn prefix<const N: usize>(&self) -> Option<[u8; N]> {
        let mut out = [0u8; N];
        let mut filled = 0;
        for seg in &self.segs {
            if filled == N {
                break;
            }
            let n = (N - filled).min(seg.len());
            out.get_mut(filled..filled + n)?.copy_from_slice(seg.get(..n)?);
            filled += n;
        }
        (filled == N).then_some(out)
    }
}

impl From<Bytes> for Frame {
    /// A one-segment frame.
    fn from(bytes: Bytes) -> Self {
        Self { len: bytes.len(), segs: vec![bytes] }
    }
}

impl From<Vec<Bytes>> for Frame {
    fn from(segs: Vec<Bytes>) -> Self {
        Self { len: segs.iter().map(Bytes::len).sum(), segs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn split_frame() -> Frame {
        Frame::from(vec![
            Bytes::from_static(b"ab"),
            Bytes::new(),
            Bytes::from(b"cdef".to_vec()),
            Bytes::from_static(b"g"),
        ])
    }

    #[test]
    fn length_and_contents_are_the_concatenation() {
        let f = split_frame();
        assert_eq!(f.len(), 7);
        assert!(!f.is_empty());
        assert_eq!(f.to_vec(), b"abcdefg");
        assert_eq!(&f.clone().into_contiguous()[..], b"abcdefg");
        assert!(Frame::default().is_empty());
        assert!(Frame::default().into_contiguous().is_empty());
    }

    #[test]
    fn a_single_segment_is_handed_over_without_a_copy() {
        let b = Bytes::from(vec![1u8; 64]);
        let at = b.as_ptr();
        let f = Frame::from(b);
        assert_eq!(f.segments().len(), 1);
        assert_eq!(f.into_contiguous().as_ptr(), at);
    }

    #[test]
    fn prefix_reads_across_segments() {
        let f = split_frame();
        assert_eq!(f.prefix::<1>(), Some(*b"a"));
        assert_eq!(f.prefix::<4>(), Some(*b"abcd"));
        assert_eq!(f.prefix::<7>(), Some(*b"abcdefg"));
        assert_eq!(f.prefix::<8>(), None);
        assert_eq!(Frame::default().prefix::<0>(), Some([]));
    }
}
