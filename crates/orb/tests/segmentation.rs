//! Vectored frames: a request or reply goes out as header, body and tail
//! segments, and nothing about the bytes changes.
//!
//! * the concatenated segments are exactly `encode_to_vec` of the message,
//!   and decoding the segments gives what decoding the contiguous bytes
//!   gives;
//! * a frame cut anywhere else decodes to the same message or fails with a
//!   typed error, never a panic;
//! * over the mem fabric no body is copied on the way: the server decodes
//!   the client's body allocation and the client decodes the server's
//!   dispatch-writer allocation, with and without a capability that leaves
//!   the body alone.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use bytes::Bytes;
use ohpc_netsim::Location;
use ohpc_orb::capability::{CallInfo, CapError, CapMeta};
use ohpc_orb::context::OrRow;
use ohpc_orb::message::{CapWireMeta, GlueWire, ReplyMessage, ReplyStatus, RequestMessage};
use ohpc_orb::{
    ApplicabilityRule, Capability, CapabilityRegistry, CapabilitySpec, Context, ContextId,
    Direction, GlobalPointer, GlueProto, MethodError, ObjectId, ProtoPool, ProtocolId,
    RemoteObject, RequestId, TransportProto,
};
use ohpc_telemetry::TraceContext;
use ohpc_transport::mem::MemFabric;
use ohpc_transport::Frame;
use ohpc_xdr::{XdrError, XdrReader, XdrWriter};
use proptest::prelude::*;

/// Body lengths that exercise every padding case: empty, 1 and 3 bytes
/// (3 and 1 pad bytes in the tail), and whole words.
fn arb_body() -> impl Strategy<Value = Bytes> {
    let len = prop_oneof![Just(0usize), Just(1), Just(3), (1usize..40).prop_map(|n| 4 * n)];
    (len, proptest::collection::vec(any::<u8>(), 160..161))
        .prop_map(|(len, bytes)| Bytes::copy_from_slice(&bytes[..len]))
}

fn arb_glue() -> impl Strategy<Value = Option<GlueWire>> {
    proptest::option::of(
        (any::<u64>(), proptest::collection::vec(any::<u8>(), 0..24)).prop_map(|(glue_id, meta)| {
            GlueWire {
                glue_id,
                caps: vec![
                    CapWireMeta { name: "encrypt".into(), meta: Bytes::from(meta) },
                    CapWireMeta { name: "timeout".into(), meta: Bytes::new() },
                ],
            }
        }),
    )
}

fn trace(on: bool) -> Option<TraceContext> {
    on.then(|| {
        let mut t = TraceContext::new_root();
        assert!(t.try_add_baggage("tenant", "blue"));
        t
    })
}

/// Cuts `segs` once more, at byte `at` of their concatenation.
fn cut_at(segs: &[Bytes], mut at: usize) -> Vec<Bytes> {
    let mut out = Vec::with_capacity(segs.len() + 1);
    for seg in segs {
        if at < seg.len() {
            out.push(seg.slice(..at));
            out.push(seg.slice(at..));
            at = usize::MAX;
        } else {
            out.push(seg.clone());
            at = at.saturating_sub(seg.len());
        }
    }
    out
}

/// Every one-more-cut of `frame`, both of the frame as sent and of the
/// frame as tcp delivers it (one contiguous segment), decodes to `expect`
/// or fails because an item straddles the cut.
fn check_every_split<T: PartialEq + std::fmt::Debug>(
    frame: &Frame,
    decode: impl Fn(&Frame) -> Result<T, XdrError>,
    expect: &T,
) {
    let contiguous = [frame.clone().into_contiguous()];
    for base in [frame.segments(), &contiguous[..]] {
        for at in 0..=frame.len() {
            match decode(&Frame::from(cut_at(base, at))) {
                Ok(back) => assert_eq!(&back, expect, "cut at {at}"),
                Err(e) => assert!(
                    matches!(e, XdrError::SegmentStraddle { .. }),
                    "cut at {at}: {e}"
                ),
            }
        }
    }
    // Cuts at the ends add only empty segments, which never straddle.
    for at in [0, frame.len()] {
        assert_eq!(&decode(&Frame::from(cut_at(frame.segments(), at))).unwrap(), expect);
    }
}

proptest! {
    #[test]
    fn request_segments_are_the_contiguous_encoding(
        rid: u64, oid: u64, method: u32, oneway: bool, traced: bool,
        glue in arb_glue(),
        body in arb_body(),
    ) {
        let req = RequestMessage {
            request_id: RequestId(rid),
            object: ObjectId(oid),
            method,
            oneway,
            glue,
            body,
            trace: trace(traced),
        };
        let bytes = ohpc_xdr::encode_to_vec(&req);
        let frame = req.to_frame();
        prop_assert_eq!(frame.to_vec(), bytes.clone());
        let from_segments = RequestMessage::from_frame(&frame).unwrap();
        let from_bytes: RequestMessage = ohpc_xdr::decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(&from_segments, &from_bytes);
        prop_assert_eq!(from_segments, req);
    }

    #[test]
    fn reply_segments_are_the_contiguous_encoding(
        rid: u64, denied: bool,
        glue in arb_glue(),
        body in arb_body(),
    ) {
        let status = if denied { ReplyStatus::CapabilityDenied("no".into()) } else { ReplyStatus::Ok };
        let reply = ReplyMessage { request_id: RequestId(rid), status, glue, body };
        let bytes = ohpc_xdr::encode_to_vec(&reply);
        let frame = reply.to_frame();
        prop_assert_eq!(frame.to_vec(), bytes.clone());
        let from_segments = ReplyMessage::from_frame(&frame).unwrap();
        let from_bytes: ReplyMessage = ohpc_xdr::decode_from_slice(&bytes).unwrap();
        prop_assert_eq!(&from_segments, &from_bytes);
        prop_assert_eq!(from_segments, reply);
    }
}

#[test]
fn a_frame_cut_anywhere_decodes_or_fails_typed() {
    for body in [&b""[..], b"x", b"odd", b"four", b"a body of 19 bytes!"] {
        for traced in [false, true] {
            let req = RequestMessage {
                request_id: RequestId(7),
                object: ObjectId(9),
                method: 2,
                oneway: false,
                glue: Some(GlueWire {
                    glue_id: 3,
                    caps: vec![CapWireMeta { name: "auth".into(), meta: Bytes::from_static(b"mac") }],
                }),
                body: Bytes::copy_from_slice(body),
                trace: trace(traced),
            };
            check_every_split(&req.to_frame(), RequestMessage::from_frame, &req);
        }
        let reply = ReplyMessage::ok(RequestId(7), Bytes::copy_from_slice(body));
        check_every_split(&reply.to_frame(), ReplyMessage::from_frame, &reply);
    }
}

/// Echoes its argument bytes and records where they and its reply live.
#[derive(Default)]
struct Recorder {
    args_at: AtomicUsize,
    reply_at: AtomicUsize,
}

impl RemoteObject for Recorder {
    fn type_name(&self) -> &str {
        "Recorder"
    }

    fn dispatch(
        &self,
        _method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError> {
        let n = args.remaining();
        let data = args.get_fixed_opaque(n).map_err(|e| MethodError::BadArgs(e.to_string()))?;
        self.args_at.store(data.as_ptr() as usize, Ordering::Relaxed);
        out.put_fixed_opaque(data);
        self.reply_at.store(out.peek().as_ptr() as usize, Ordering::Relaxed);
        Ok(())
    }
}

/// A capability that leaves bodies alone, as the timeout capability does.
struct Passthrough;

impl Capability for Passthrough {
    fn name(&self) -> &str {
        "passthrough"
    }
    fn process(&self, _: Direction, _: &CallInfo, _: &mut CapMeta, body: Bytes) -> Result<Bytes, CapError> {
        Ok(body)
    }
    fn unprocess(&self, _: Direction, _: &CallInfo, _: &CapMeta, body: Bytes) -> Result<Bytes, CapError> {
        Ok(body)
    }
}

#[test]
fn mem_bodies_cross_without_a_copy() {
    let registry = CapabilityRegistry::new();
    registry.register("passthrough", |_| Ok(Arc::new(Passthrough)));
    let registry = Arc::new(registry);
    let fabric = MemFabric::new();
    let ctx = Context::new(ContextId(1), Location::new(0, 0), registry.clone());
    let recorder = Arc::new(Recorder::default());
    let id = ctx.register(recorder.clone());
    ctx.serve(Box::new(fabric.listen()), ProtocolId::SHM);
    let glue_id = ctx.add_glue(vec![CapabilitySpec::new("passthrough")]).unwrap();
    let pool = Arc::new(
        ProtoPool::new().with(Arc::new(GlueProto::new(registry))).with(Arc::new(
            TransportProto::new(ProtocolId::SHM, ApplicabilityRule::Always, Arc::new(fabric)),
        )),
    );

    for row in [OrRow::Plain(ProtocolId::SHM), OrRow::Glue { glue_id, inner: ProtocolId::SHM }] {
        let or = ctx.make_or(id, std::slice::from_ref(&row)).unwrap();
        let gp = GlobalPointer::new(or, pool.clone(), Location::new(0, 0));
        let body = Bytes::from(vec![0x5Au8; 1 << 16]);
        let sent_at = body.as_ptr() as usize;
        let reply = gp.invoke_raw(1, body).unwrap();
        assert_eq!(reply.len(), 1 << 16);
        assert_eq!(
            recorder.args_at.load(Ordering::Relaxed),
            sent_at,
            "{row:?}: the server decoded the client's body allocation"
        );
        assert_eq!(
            reply.as_ptr() as usize,
            recorder.reply_at.load(Ordering::Relaxed),
            "{row:?}: the client decoded the server's dispatch-writer allocation"
        );
    }
    ctx.shutdown();
}
