//! Bodies appended as shared segments: `put_opaque_bytes` writes the same
//! bytes as `put_opaque` (length word, data, padding) and only hands the
//! data over instead of copying it, so the interpreter reads it as an
//! opaque and still diffs it against the decoder.
//!
//! `Envelope` appends its body as a segment but decodes it as a string:
//! the shapes diverge and the pair is denied, segment or not. `Parcel`
//! reads the segment back with `get_opaque_bytes` and `Letter` with the
//! copying `get_opaque`: both are the same bytes, so neither is flagged.

struct Envelope {
    id: u64,
    body: Bytes,
}

impl XdrEncode for Envelope {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_u64(self.id);
        w.put_opaque_bytes(self.body.clone());
    }
}

impl XdrDecode for Envelope { //~ wire-symmetry
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let id = r.get_u64()?;
        let body = Bytes::from(r.get_string()?);
        Ok(Envelope { id, body })
    }
}

struct Parcel {
    id: u64,
    body: Bytes,
    trailer: u32,
}

impl XdrEncode for Parcel {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_u64(self.id);
        w.put_opaque_bytes(self.body.clone());
        w.put_u32(self.trailer);
    }
}

impl XdrDecode for Parcel {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let id = r.get_u64()?;
        let body = r.get_opaque_bytes()?;
        let trailer = r.get_u32()?;
        Ok(Parcel { id, body, trailer })
    }
}

struct Letter {
    body: Bytes,
}

impl XdrEncode for Letter {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_opaque_bytes(self.body.clone());
    }
}

impl XdrDecode for Letter {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        Ok(Letter { body: Bytes::copy_from_slice(r.get_opaque()?) })
    }
}
