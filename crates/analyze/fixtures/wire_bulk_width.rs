//! Bulk numeric-array codecs: `put_words`/`get_words` stand for a
//! per-element loop of the primitive their conversion fn names, so the
//! interpreter still diffs them element by element.
//!
//! `Readings` writes its samples as 8-byte hypers but reads them back as
//! 4-byte words: every element after the first is misaligned, and a
//! round-trip test over empty or one-element arrays would not notice.
//! `Counts` is the clean shape (bulk on both sides) and `Mixed` pairs a
//! bulk encoder with the per-element decoder it replaced: both are the
//! same bytes, so neither is flagged.

struct Readings {
    samples: Vec<f64>,
}

impl XdrEncode for Readings {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_array_len(self.samples.len());
        w.put_words(&self.samples, f64::to_be_bytes);
    }
}

impl XdrDecode for Readings { //~ wire-symmetry
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let n = r.get_array_len()?;
        let samples = r.get_words(n, f32::from_be_bytes)?;
        Ok(Readings { samples })
    }
}

struct Counts {
    values: Vec<u32>,
    tail: Bytes,
}

impl XdrEncode for Counts {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_array_len(self.values.len());
        w.put_words(&self.values, u32::to_be_bytes);
        w.put_opaque(&self.tail);
    }
}

impl XdrDecode for Counts {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let n = r.get_array_len()?;
        let values = r.get_words(n, u32::from_be_bytes)?;
        let tail = r.get_opaque_bytes()?;
        Ok(Counts { values, tail })
    }
}

struct Mixed {
    values: Vec<i64>,
}

impl XdrEncode for Mixed {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_array_len(self.values.len());
        w.put_words(&self.values, i64::to_be_bytes);
    }
}

impl XdrDecode for Mixed {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let n = r.get_array_len()?;
        let mut values = Vec::new();
        for _ in 0..n {
            values.push(r.get_i64()?);
        }
        Ok(Mixed { values })
    }
}
