//! Request/reply wire messages.
//!
//! A frame on the wire is one XDR-encoded [`RequestMessage`] or
//! [`ReplyMessage`]. The optional glue section carries the capability chain
//! id and each capability's per-direction metadata (nonce, MAC, auth token,
//! request counter, …) so the receiving glue class can run the inverse
//! transforms.
//!
//! Neither direction copies a body. `to_frame` builds a [`Frame`] of three
//! segments: the header (every field up to the body's length word), the
//! body exactly as the caller handed it over, and a tail holding the body's
//! padding and any trace extension; the same `XdrEncode` impl that
//! `encode_to_vec` runs produces them, so the concatenation is the one wire
//! encoding. Decoding a received frame with `from_frame` reads across its
//! segments, and the decoded `body` shares the segment it lies in: on the
//! in-process fabrics that is the sender's own body allocation. Everything
//! else (glue metas, trace context, forwarded references) is copied out, so
//! a small value kept after the message is gone never pins a large frame in
//! memory.

use bytes::Bytes;

use crate::ids::{ObjectId, RequestId};
use crate::objref::ObjectReference;
use ohpc_telemetry::TraceContext;
use ohpc_transport::Frame;
use ohpc_xdr::{XdrDecode, XdrEncode, XdrError, XdrReader, XdrWriter};

/// Version word of the trace-context trailing extension on request frames.
///
/// The extension rides *after* the last request field as
/// `XdrWriter::put_trailing_extension(version, payload)`: a frame without
/// trace context is byte-identical to a pre-tracing frame, an old decoder
/// never reads past the body, and a new decoder treats end-of-input as "no
/// context" and an unknown version as an opaque skip.
pub const TRACE_EXT_VERSION: u32 = 1;

/// Bytes reserved for a frame's header segment: a request or reply header
/// without glue fits, a glued one grows the buffer once.
const HEADER_CAPACITY: usize = 64;

fn encode_trace(t: &TraceContext) -> Bytes {
    let mut w = XdrWriter::with_capacity(48 + t.baggage_bytes());
    w.put_u64((t.trace_id >> 64) as u64);
    w.put_u64(t.trace_id as u64);
    w.put_u64(t.span_id);
    w.put_u64(t.parent_span_id);
    w.put_array_len(t.baggage.len());
    for (k, v) in &t.baggage {
        w.put_string(k);
        w.put_string(v);
    }
    w.finish()
}

fn decode_trace(payload: &[u8]) -> Result<TraceContext, XdrError> {
    let mut r = XdrReader::new(payload);
    let hi = r.get_u64()?;
    let lo = r.get_u64()?;
    let span_id = r.get_u64()?;
    let parent_span_id = r.get_u64()?;
    let n = r.get_array_len()?;
    let mut baggage = Vec::with_capacity(n.min(32));
    for _ in 0..n {
        baggage.push((r.get_string()?, r.get_string()?));
    }
    Ok(TraceContext {
        trace_id: (u128::from(hi) << 64) | u128::from(lo),
        span_id,
        parent_span_id,
        baggage,
    })
}

/// One capability's wire metadata for one direction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CapWireMeta {
    /// Capability name (matches [`crate::capability::Capability::name`]).
    pub name: String,
    /// Opaque metadata produced by `process` on the sending side.
    pub meta: Bytes,
}

impl XdrEncode for CapWireMeta {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_string(&self.name);
        w.put_opaque(&self.meta);
    }
}

impl XdrDecode for CapWireMeta {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        Ok(Self {
            name: r.get_string()?,
            meta: Bytes::copy_from_slice(r.get_opaque()?),
        })
    }
}

/// Glue section of a frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GlueWire {
    /// Server-side chain to apply the inverse transforms.
    pub glue_id: u64,
    /// Per-capability metadata, in chain order.
    pub caps: Vec<CapWireMeta>,
}

impl XdrEncode for GlueWire {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_u64(self.glue_id);
        w.put_array_len(self.caps.len());
        for c in &self.caps {
            c.encode(w);
        }
    }
}

impl XdrDecode for GlueWire {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let glue_id = r.get_u64()?;
        let n = r.get_array_len()?;
        let mut caps = Vec::with_capacity(n.min(64));
        for _ in 0..n {
            caps.push(CapWireMeta::decode(r)?);
        }
        Ok(Self { glue_id, caps })
    }
}

/// A remote method invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestMessage {
    /// Per-connection sequence number; echoed in the reply.
    pub request_id: RequestId,
    /// Target object.
    pub object: ObjectId,
    /// Method slot within the object's interface.
    pub method: u32,
    /// Fire-and-forget: the server dispatches but sends no reply, and the
    /// client cannot observe the outcome (at-most-once semantics; a
    /// tombstoned object silently drops one-way requests).
    pub oneway: bool,
    /// Present iff the request travelled through a glue protocol.
    pub glue: Option<GlueWire>,
    /// XDR-encoded arguments (possibly transformed by capabilities).
    pub body: Bytes,
    /// Causal trace context, carried as a versioned trailing extension so
    /// pre-tracing frames still parse (see [`TRACE_EXT_VERSION`]).
    pub trace: Option<TraceContext>,
}

/// Wire name of the deadline capability. The cap itself lives in
/// `ohpc-caps` (which depends on this crate); the name is defined here so
/// the admission gate can peek deadline stamps without building the chain.
pub const DEADLINE_CAP_NAME: &str = "deadline";

/// Capability-metadata key carrying the absolute expiry (clock ns) stamped
/// by the client-side deadline capability.
pub const DEADLINE_META_KEY: &str = "deadline.expires_ns";

impl RequestMessage {
    /// Absolute expiry (clock nanoseconds) stamped by a deadline capability
    /// in this request's glue section, if present.
    ///
    /// Decoded *without* building the server-side chain: capability
    /// metadata travels in the clear (only bodies are transformed), so the
    /// admission gate can shed an already-expired request in microseconds,
    /// before it ever queues. Malformed stamps read as "no deadline" here —
    /// the chain's own `unprocess` reports them properly at dispatch.
    pub fn deadline_expires_ns(&self) -> Option<u64> {
        let wire = self.glue.as_ref()?;
        let meta_bytes = &wire.caps.iter().find(|c| c.name == DEADLINE_CAP_NAME)?.meta;
        let meta = crate::capability::CapMeta::from_bytes(meta_bytes).ok()?;
        let raw = meta.get(DEADLINE_META_KEY)?;
        XdrReader::new(raw).get_u64().ok()
    }

    /// Encodes to a transport frame of header, body and tail segments; the
    /// body segment is `self.body` itself, not a copy.
    pub fn to_frame(&self) -> Frame {
        let mut w = XdrWriter::with_capacity(HEADER_CAPACITY);
        self.encode(&mut w);
        Frame::from(w.finish_segments())
    }

    /// Decodes from a received transport frame. The decoded `body` shares
    /// the frame segment it lies in rather than copying it.
    pub fn from_frame(frame: &Frame) -> Result<Self, XdrError> {
        ohpc_xdr::decode_from_segments(frame.segments()).inspect_err(|_| {
            ohpc_telemetry::inc("orb_malformed_frames_total", &[("kind", "request")]);
        })
    }
}

impl XdrEncode for RequestMessage {
    fn encode(&self, w: &mut XdrWriter) {
        self.request_id.encode(w);
        self.object.encode(w);
        w.put_u32(self.method);
        w.put_bool(self.oneway);
        self.glue.encode(w);
        w.put_opaque_bytes(self.body.clone());
        if let Some(t) = &self.trace {
            w.put_trailing_extension(TRACE_EXT_VERSION, &encode_trace(t));
        }
    }
}

impl XdrDecode for RequestMessage {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        let request_id = RequestId::decode(r)?;
        let object = ObjectId::decode(r)?;
        let method = r.get_u32()?;
        let oneway = r.get_bool()?;
        let glue = Option::<GlueWire>::decode(r)?;
        let body = r.get_opaque_bytes()?;
        let trace = match r.get_trailing_extension()? {
            // Legacy frame: no extension bytes at all.
            None => None,
            // A known version decodes strictly; a corrupt payload is a
            // malformed frame, not a silently traceless one.
            Some((TRACE_EXT_VERSION, payload)) => Some(decode_trace(payload)?),
            // A future version is skipped whole (the payload is opaque).
            Some((_, _)) => None,
        };
        Ok(Self { request_id, object, method, oneway, glue, body, trace })
    }
}

/// Outcome of a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplyStatus {
    /// Success; the body carries the encoded results.
    Ok,
    /// The method raised an application exception.
    Exception(String),
    /// The object migrated; here is its new OR (CORBA-style location
    /// forwarding). The client rebinds and retries.
    Moved(Box<ObjectReference>),
    /// Unknown object id.
    NoSuchObject,
    /// Unknown method slot.
    NoSuchMethod(u32),
    /// A capability on the server side refused the request.
    CapabilityDenied(String),
    /// Server could not find the glue chain named by the request.
    UnknownGlue(u64),
    /// Admission control shed the request: the server's in-flight bound was
    /// hit (or its dispatch breaker is open). The request was **not**
    /// executed, so clients classify this retryable-with-backoff.
    Overloaded(String),
    /// The request's deadline stamp had already expired when it reached the
    /// dispatch boundary; the server shed it unexecuted. Non-retryable —
    /// the caller's own deadline machinery has moved on.
    DeadlineExpired(String),
}

impl ReplyStatus {
    fn tag(&self) -> u32 {
        match self {
            ReplyStatus::Ok => 0,
            ReplyStatus::Exception(_) => 1,
            ReplyStatus::Moved(_) => 2,
            ReplyStatus::NoSuchObject => 3,
            ReplyStatus::NoSuchMethod(_) => 4,
            ReplyStatus::CapabilityDenied(_) => 5,
            ReplyStatus::UnknownGlue(_) => 6,
            ReplyStatus::Overloaded(_) => 7,
            ReplyStatus::DeadlineExpired(_) => 8,
        }
    }

    /// The wire discriminant this status encodes as.
    ///
    /// Public so tests (and operators debugging captures) can audit the
    /// tag assignment without round-tripping through the codec. Tags are
    /// wire protocol: they never change meaning, and new variants take
    /// fresh values.
    pub fn wire_tag(&self) -> u32 {
        self.tag()
    }

    /// Maps a failure status to the client-side [`OrbError`] it surfaces as.
    ///
    /// This is the single source of truth for status → error conversion, so
    /// the invoke loop and tests cannot drift apart. `Ok` and `Moved` are
    /// not errors — the invoke loop consumes them before calling this — so
    /// they map to [`OrbError::Protocol`] rather than panicking on a path
    /// that handles hostile input.
    pub fn into_orb_error(self, object: ObjectId) -> crate::error::OrbError {
        use crate::error::OrbError;
        match self {
            ReplyStatus::Ok => OrbError::Protocol("Ok reply status reached error conversion".into()),
            ReplyStatus::Moved(_) => {
                OrbError::Protocol("Moved reply status reached error conversion".into())
            }
            ReplyStatus::Exception(m) => OrbError::RemoteException(m),
            ReplyStatus::NoSuchObject => OrbError::NoSuchObject(object),
            ReplyStatus::NoSuchMethod(m) => OrbError::NoSuchMethod(m),
            ReplyStatus::CapabilityDenied(m) => {
                OrbError::Capability(crate::capability::CapError::Denied(m))
            }
            ReplyStatus::UnknownGlue(id) => OrbError::UnknownGlue(id),
            ReplyStatus::Overloaded(m) => OrbError::Overloaded(m),
            ReplyStatus::DeadlineExpired(m) => OrbError::DeadlineExpired(m),
        }
    }
}

impl XdrEncode for ReplyStatus {
    fn encode(&self, w: &mut XdrWriter) {
        w.put_u32(self.tag());
        match self {
            ReplyStatus::Ok | ReplyStatus::NoSuchObject => {}
            ReplyStatus::Exception(m)
            | ReplyStatus::CapabilityDenied(m)
            | ReplyStatus::Overloaded(m)
            | ReplyStatus::DeadlineExpired(m) => w.put_string(m),
            ReplyStatus::Moved(or) => or.encode(w),
            ReplyStatus::NoSuchMethod(m) => w.put_u32(*m),
            ReplyStatus::UnknownGlue(id) => w.put_u64(*id),
        }
    }
}

impl XdrDecode for ReplyStatus {
    // ohpc-analyze: allow(telemetry-coverage) — pure wire decoder; malformed
    // frames are counted once at the framing boundary (`from_frame`).
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        match r.get_u32()? {
            0 => Ok(ReplyStatus::Ok),
            1 => Ok(ReplyStatus::Exception(r.get_string()?)),
            2 => Ok(ReplyStatus::Moved(Box::new(ObjectReference::decode(r)?))),
            3 => Ok(ReplyStatus::NoSuchObject),
            4 => Ok(ReplyStatus::NoSuchMethod(r.get_u32()?)),
            5 => Ok(ReplyStatus::CapabilityDenied(r.get_string()?)),
            6 => Ok(ReplyStatus::UnknownGlue(r.get_u64()?)),
            7 => Ok(ReplyStatus::Overloaded(r.get_string()?)),
            8 => Ok(ReplyStatus::DeadlineExpired(r.get_string()?)),
            t => Err(XdrError::InvalidDiscriminant(t)),
        }
    }
}

/// Response to a [`RequestMessage`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplyMessage {
    /// Echoes the request's sequence number.
    pub request_id: RequestId,
    /// Outcome.
    pub status: ReplyStatus,
    /// Reply-direction capability metadata, in chain order.
    pub glue: Option<GlueWire>,
    /// Encoded results (possibly transformed by capabilities); empty unless
    /// status is `Ok`.
    pub body: Bytes,
}

impl ReplyMessage {
    /// Success reply.
    pub fn ok(request_id: RequestId, body: Bytes) -> Self {
        Self { request_id, status: ReplyStatus::Ok, glue: None, body }
    }

    /// Non-Ok reply with empty body.
    pub fn status(request_id: RequestId, status: ReplyStatus) -> Self {
        Self { request_id, status, glue: None, body: Bytes::new() }
    }

    /// Encodes to a transport frame of header, body and tail segments; the
    /// body segment is `self.body` itself, not a copy.
    pub fn to_frame(&self) -> Frame {
        let mut w = XdrWriter::with_capacity(HEADER_CAPACITY);
        self.encode(&mut w);
        Frame::from(w.finish_segments())
    }

    /// Decodes from a received transport frame. The decoded `body` shares
    /// the frame segment it lies in rather than copying it.
    pub fn from_frame(frame: &Frame) -> Result<Self, XdrError> {
        ohpc_xdr::decode_from_segments(frame.segments()).inspect_err(|_| {
            ohpc_telemetry::inc("orb_malformed_frames_total", &[("kind", "reply")]);
        })
    }
}

impl XdrEncode for ReplyMessage {
    fn encode(&self, w: &mut XdrWriter) {
        self.request_id.encode(w);
        self.status.encode(w);
        self.glue.encode(w);
        w.put_opaque_bytes(self.body.clone());
    }
}

impl XdrDecode for ReplyMessage {
    fn decode(r: &mut XdrReader<'_>) -> Result<Self, XdrError> {
        Ok(Self {
            request_id: RequestId::decode(r)?,
            status: ReplyStatus::decode(r)?,
            glue: Option::<GlueWire>::decode(r)?,
            body: r.get_opaque_bytes()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::ProtocolId;
    use crate::objref::{ObjectReference, ProtoData, ProtoEntry};
    use ohpc_netsim::Location;

    fn sample_or() -> ObjectReference {
        ObjectReference {
            object: ObjectId(77),
            type_name: "Echo".into(),
            location: Location::new(1, 2),
            protocols: vec![ProtoEntry {
                id: ProtocolId::TCP,
                data: ProtoData::Endpoint("tcp://127.0.0.1:1".into()),
            }],
        }
    }

    #[test]
    fn request_roundtrip_no_glue() {
        let req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"args"),
            trace: None,
        };
        let back = RequestMessage::from_frame(&req.to_frame()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrip_with_glue() {
        let req = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(2),
            method: 0,
            oneway: true,
            glue: Some(GlueWire {
                glue_id: 0xCAFE,
                caps: vec![
                    CapWireMeta { name: "encrypt".into(), meta: Bytes::from_static(&[1, 2, 3]) },
                    CapWireMeta { name: "timeout".into(), meta: Bytes::new() },
                ],
            }),
            body: Bytes::from_static(b"encrypted-bytes"),
            trace: None,
        };
        let back = RequestMessage::from_frame(&req.to_frame()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn request_roundtrip_with_trace_and_baggage() {
        let mut ctx = ohpc_telemetry::TraceContext::new_root();
        assert!(ctx.try_add_baggage("tenant", "blue"));
        assert!(ctx.try_add_baggage("shard", "7"));
        let req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"args"),
            trace: Some(ctx),
        };
        let back = RequestMessage::from_frame(&req.to_frame()).unwrap();
        assert_eq!(back, req);
    }

    #[test]
    fn traceless_frame_is_byte_identical_to_the_legacy_encoding() {
        // The trace rides as a trailing extension: when absent, the frame
        // must match what a pre-trace encoder produced, byte for byte.
        let req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"args"),
            trace: None,
        };
        let mut w = XdrWriter::new();
        RequestId(5).encode(&mut w);
        ObjectId(9).encode(&mut w);
        w.put_u32(3);
        w.put_bool(false);
        false.encode(&mut w); // glue: None discriminant
        w.put_opaque(b"args");
        assert_eq!(req.to_frame().to_vec(), w.finish().to_vec());
    }

    #[test]
    fn unknown_trace_extension_version_is_skipped() {
        let legacy = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"args"),
            trace: None,
        };
        let mut frame = legacy.to_frame().to_vec();
        let mut w = XdrWriter::new();
        w.put_trailing_extension(TRACE_EXT_VERSION + 1, b"from-the-future");
        frame.extend_from_slice(&w.finish());
        let back = RequestMessage::from_frame(&Bytes::from(frame).into()).unwrap();
        assert_eq!(back, legacy, "unknown extension decodes as no trace");
    }

    #[test]
    fn corrupt_trace_payload_is_a_malformed_frame() {
        let legacy = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::new(),
            trace: None,
        };
        let mut frame = legacy.to_frame().to_vec();
        let mut w = XdrWriter::new();
        w.put_trailing_extension(TRACE_EXT_VERSION, &[0xFF; 3]);
        frame.extend_from_slice(&w.finish());
        assert!(RequestMessage::from_frame(&Bytes::from(frame).into()).is_err());
    }

    #[test]
    fn deadline_peek_reads_the_stamp_without_building_the_chain() {
        let mut meta = crate::capability::CapMeta::new();
        let mut w = XdrWriter::new();
        w.put_u64(123_456);
        meta.set(DEADLINE_META_KEY, w.finish());
        let mut req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: Some(GlueWire {
                glue_id: 1,
                caps: vec![
                    CapWireMeta { name: "encrypt".into(), meta: Bytes::from_static(&[9]) },
                    CapWireMeta { name: DEADLINE_CAP_NAME.into(), meta: meta.to_bytes() },
                ],
            }),
            body: Bytes::new(),
            trace: None,
        };
        assert_eq!(req.deadline_expires_ns(), Some(123_456));

        // No glue, or a glue without a deadline cap: no stamp.
        req.glue = None;
        assert_eq!(req.deadline_expires_ns(), None);
        req.glue = Some(GlueWire {
            glue_id: 1,
            caps: vec![CapWireMeta { name: "encrypt".into(), meta: Bytes::new() }],
        });
        assert_eq!(req.deadline_expires_ns(), None);

        // A corrupt stamp peeks as "no deadline" (the chain reports it).
        req.glue = Some(GlueWire {
            glue_id: 1,
            caps: vec![CapWireMeta {
                name: DEADLINE_CAP_NAME.into(),
                meta: Bytes::from_static(&[0xFF; 2]),
            }],
        });
        assert_eq!(req.deadline_expires_ns(), None);
    }

    #[test]
    fn reply_status_roundtrips() {
        let statuses = vec![
            ReplyStatus::Ok,
            ReplyStatus::Exception("boom".into()),
            ReplyStatus::Moved(Box::new(sample_or())),
            ReplyStatus::NoSuchObject,
            ReplyStatus::NoSuchMethod(17),
            ReplyStatus::CapabilityDenied("budget exhausted".into()),
            ReplyStatus::UnknownGlue(0xBEEF),
            ReplyStatus::Overloaded("512 in flight (limit 512)".into()),
            ReplyStatus::DeadlineExpired("deadline of 50 ms exceeded before dispatch".into()),
        ];
        for status in statuses {
            let reply = ReplyMessage {
                request_id: RequestId(8),
                status: status.clone(),
                glue: None,
                body: Bytes::new(),
            };
            let back = ReplyMessage::from_frame(&reply.to_frame()).unwrap();
            assert_eq!(back.status, status);
        }
    }

    #[test]
    fn bad_status_tag_rejected() {
        let mut w = XdrWriter::new();
        RequestId(1).encode(&mut w);
        w.put_u32(99); // bad tag
        let buf = w.finish();
        assert!(ReplyMessage::from_frame(&buf.into()).is_err());
    }

    #[test]
    fn truncated_frame_rejected() {
        let req = RequestMessage {
            request_id: RequestId(5),
            object: ObjectId(9),
            method: 3,
            oneway: false,
            glue: None,
            body: Bytes::from_static(b"some body bytes"),
            trace: None,
        };
        let frame = req.to_frame().into_contiguous();
        assert!(RequestMessage::from_frame(&frame.slice(..frame.len() - 4).into()).is_err());
    }

    /// True when `inner` lies inside `outer`'s memory.
    fn points_into(inner: &[u8], outer: &[u8]) -> bool {
        let (o, i) = (outer.as_ptr() as usize, inner.as_ptr() as usize);
        i >= o && i + inner.len() <= o + outer.len()
    }

    #[test]
    fn decoded_bodies_borrow_the_frame_but_glue_metas_do_not() {
        let req = RequestMessage {
            request_id: RequestId(1),
            object: ObjectId(2),
            method: 3,
            oneway: false,
            glue: Some(GlueWire {
                glue_id: 9,
                caps: vec![CapWireMeta { name: "encrypt".into(), meta: Bytes::from_static(b"nonce-12") }],
            }),
            body: Bytes::from(vec![0x5Au8; 4096]),
            trace: None,
        };
        // A frame as sent: the decoded body is the sender's body segment.
        let frame = req.to_frame();
        let back = RequestMessage::from_frame(&frame).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.body.as_ptr(), req.body.as_ptr(), "request body is the sent body");
        // A frame as tcp delivers it, one contiguous buffer: the body
        // points into it, and a glue meta does not.
        let frame = req.to_frame().into_contiguous();
        let back = RequestMessage::from_frame(&frame.clone().into()).unwrap();
        assert_eq!(back, req);
        assert!(points_into(&back.body, &frame), "request body shares the frame");
        let meta = &back.glue.as_ref().unwrap().caps[0].meta;
        assert!(!points_into(meta, &frame), "a glue meta is copied out of the frame");

        let reply = ReplyMessage {
            request_id: RequestId(1),
            status: ReplyStatus::Ok,
            glue: req.glue.clone(),
            body: Bytes::from(vec![0xA5u8; 4096]),
        };
        let back = ReplyMessage::from_frame(&reply.to_frame()).unwrap();
        assert_eq!(back, reply);
        assert_eq!(back.body.as_ptr(), reply.body.as_ptr(), "reply body is the sent body");
        let frame = reply.to_frame().into_contiguous();
        let back = ReplyMessage::from_frame(&frame.clone().into()).unwrap();
        assert_eq!(back, reply);
        assert!(points_into(&back.body, &frame), "reply body shares the frame");
        let meta = &back.glue.as_ref().unwrap().caps[0].meta;
        assert!(!points_into(meta, &frame), "a glue meta is copied out of the frame");
    }
}
