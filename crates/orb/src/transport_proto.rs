//! Transport-backed protocol objects.
//!
//! [`TransportProto`] turns any [`ohpc_transport::Dialer`] into a
//! proto-object: it owns a channel cache keyed by endpoint and performs
//! synchronous request/reply over framed connections. The TCP, shared-memory
//! and simulated-network protocol objects are all instances of it with
//! different dialers and applicability rules — which is precisely the
//! "proto-class" reuse the paper describes.
//!
//! Each endpoint gets one multiplexed channel: one
//! [split](ohpc_transport::Connection::split) connection, a writer lock
//! held only for the framed send, and a dedicated reader thread
//! demultiplexing replies to waiters by `request_id`. N concurrent
//! invocations have N requests in flight on one wire.
//!
//! Two pooling rules apply everywhere in this module:
//!
//! - **Eviction is by identity, never by key.** A caller that observed a
//!   channel fail evicts exactly that channel (`Arc` identity); a racing
//!   caller may already have replaced it with a fresh healthy one which must
//!   not become collateral damage.
//! - **Publication re-checks under the lock.** Dialing happens outside the
//!   cache lock, so two callers can race to build a channel for the same
//!   endpoint; the loser tears its duplicate down and shares the winner's.
//!
//! [`NexusProto`] is the baseline: it tunnels ORB frames through the
//! Nexus RSR layer instead of raw framed connections.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use ohpc_nexus::{HandlerId, NexusError, Startpoint};
use ohpc_netsim::Location;
use ohpc_resilience::{HealthKey, HealthRegistry};
use ohpc_transport::mux::{DeathHook, MuxChannel, MuxError};
use ohpc_transport::{Dialer, Endpoint, Frame, RecvHalf, SendHalf};
use ohpc_xdr::XdrWriter;

use crate::error::OrbError;
use crate::ids::ProtocolId;
use crate::message::{ReplyMessage, RequestMessage};
use crate::objref::{ProtoData, ProtoEntry};
use crate::proto::{ApplicabilityRule, ProtoObject, ProtoPool};

/// Handler slot the ORB occupies inside a Nexus service.
pub const NEXUS_ORB_HANDLER: HandlerId = HandlerId(0xC0DE);

fn endpoint_of(entry: &ProtoEntry) -> Result<Endpoint, OrbError> {
    match &entry.data {
        ProtoData::Endpoint(s) => Endpoint::parse(s)
            .ok_or_else(|| OrbError::Protocol(format!("unparseable endpoint '{s}'"))),
        ProtoData::Glue { .. } => Err(OrbError::Protocol(
            "glue entry reached a transport protocol object".into(),
        )),
    }
}

/// Extracts the request id a reply frame is correlated by. Every
/// [`ReplyMessage`] frame starts with its XDR-encoded `request_id`, so the
/// demux reader routes frames without decoding the full message.
fn reply_request_id(frame: &Frame) -> Option<u64> {
    frame.prefix().map(u64::from_be_bytes)
}

/// A proto-object speaking raw ORB frames over a transport.
pub struct TransportProto {
    id: ProtocolId,
    rule: ApplicabilityRule,
    dialer: Arc<dyn Dialer>,
    channels: Mutex<HashMap<Endpoint, Arc<MuxChannel>>>,
    health_sink: Mutex<Option<Arc<HealthRegistry>>>,
}

impl TransportProto {
    /// Builds a proto-object for `id` with the given applicability.
    pub fn new(id: ProtocolId, rule: ApplicabilityRule, dialer: Arc<dyn Dialer>) -> Self {
        Self {
            id,
            rule,
            dialer,
            channels: Mutex::new(HashMap::new()),
            health_sink: Mutex::new(None),
        }
    }

    /// Connects reader-thread deaths to a health registry: a mux whose demux
    /// reader dies records a failure under the same
    /// `(protocol, endpoint)` key selection consults, so a dead mux trips
    /// the endpoint's breaker exactly like a failed exchange does.
    pub fn set_health_registry(&self, health: Arc<HealthRegistry>) {
        *self.health_sink.lock() = Some(health);
    }

    /// Number of cached per-endpoint channels (for tests).
    pub fn cached_connections(&self) -> usize {
        self.channels.lock().len()
    }

    /// Requests currently awaiting replies on `ep`'s multiplexed channel
    /// (0 for unpooled endpoints). For tests and benchmarks.
    pub fn mux_in_flight(&self, ep: &Endpoint) -> usize {
        let chan = self.channels.lock().get(ep).cloned();
        chan.map_or(0, |m| m.in_flight())
    }

    fn health_registry(&self) -> Option<Arc<HealthRegistry>> {
        self.health_sink.lock().clone()
    }

    /// Returns the pooled channel for `ep` and whether it was already
    /// cached. Dead channels are evicted lazily here.
    fn channel(&self, ep: &Endpoint) -> Result<(Arc<MuxChannel>, bool), OrbError> {
        if let Some(chan) = self.cached_channel(ep) {
            return Ok((chan, true));
        }
        let (tx, rx) = self.dialer.dial(ep).map_err(OrbError::Transport)?.split();
        Ok(self.install(ep, self.spawn_mux(ep, tx, rx)))
    }

    /// Single-lock lookup: get + liveness check + eviction of a dead channel
    /// under one guard, so a caller cannot hand out a channel another caller
    /// concurrently declared dead.
    fn cached_channel(&self, ep: &Endpoint) -> Option<Arc<MuxChannel>> {
        let mut map = self.channels.lock();
        if map.get(ep).is_some_and(|m| m.is_dead()) {
            map.remove(ep);
            return None;
        }
        map.get(ep).cloned()
    }

    /// Spawns the demux channel for `ep`, wiring reader-thread death into
    /// telemetry and (if configured) the health registry.
    fn spawn_mux(
        &self,
        ep: &Endpoint,
        tx: Box<dyn SendHalf>,
        rx: Box<dyn RecvHalf>,
    ) -> Arc<MuxChannel> {
        let health = self.health_registry();
        let key = HealthKey::new(self.id.to_string(), ep.to_string());
        let proto = self.id.to_string();
        let hook: DeathHook = Box::new(move |_err| {
            ohpc_telemetry::inc("orb_mux_deaths_total", &[("protocol", &proto)]);
            if let Some(h) = &health {
                h.record_failure(&key);
            }
        });
        MuxChannel::spawn(tx, rx, Box::new(reply_request_id), Some(hook))
    }

    /// Publishes a freshly built channel — unless another caller won the
    /// dial race while we were connecting, in which case the earlier channel
    /// wins, our duplicate is torn down, and the avoided double-dial is
    /// counted. Returns the channel to use and whether it was cached.
    fn install(&self, ep: &Endpoint, built: Arc<MuxChannel>) -> (Arc<MuxChannel>, bool) {
        match self.install_or_existing(ep, &built) {
            None => (built, false),
            Some(winner) => {
                ohpc_telemetry::inc(
                    "orb_double_dial_avoided_total",
                    &[("protocol", &self.id.to_string())],
                );
                built.shutdown();
                (winner, true)
            }
        }
    }

    /// The map half of [`install`](Self::install): re-checks under the lock
    /// and inserts only when no live channel is present. Returns the
    /// existing live channel when the race was lost.
    fn install_or_existing(
        &self,
        ep: &Endpoint,
        built: &Arc<MuxChannel>,
    ) -> Option<Arc<MuxChannel>> {
        let mut map = self.channels.lock();
        let live = map.get(ep).filter(|m| !m.is_dead()).cloned();
        if live.is_none() {
            map.insert(ep.clone(), built.clone());
        }
        live
    }

    /// Evicts the channel for `ep` **only if** it is the very channel the
    /// caller observed failing (`Arc` identity, not key): a racing caller
    /// may already have replaced it with a fresh healthy channel that must
    /// not be torn down by a stale failure report.
    fn evict(&self, ep: &Endpoint, stale: &Arc<MuxChannel>) {
        let mut map = self.channels.lock();
        if map.get(ep).is_some_and(|cur| Arc::ptr_eq(cur, stale)) {
            map.remove(ep);
        }
    }

    /// One request/reply over the pooled channel, distinguishing failure
    /// phases: a dial or send failure means the frame never left this
    /// process ([`OrbError::Transport`], always safe to retry), while any
    /// failure after the frame was handed to the fabric — the server may
    /// have executed the request — surfaces as
    /// [`OrbError::AmbiguousTransport`] and is never transparently re-sent
    /// here. Idempotency-aware retry lives in the GP, which knows the
    /// request's semantics; this layer only retries the provably-unsent
    /// case of a stale cached channel.
    fn exchange(
        &self,
        ep: &Endpoint,
        request_id: u64,
        frame: &Frame,
        remaining_ns: Option<u64>,
    ) -> Result<Frame, OrbError> {
        for attempt in 0..2 {
            let (chan, was_cached) = self.channel(ep)?;
            match self.exchange_mux(ep, &chan, request_id, frame, remaining_ns) {
                // Stale cached channel (e.g. the server restarted): the frame
                // provably never left, retry once fresh.
                Err(OrbError::Transport(_)) if was_cached && attempt == 0 => {
                    ohpc_telemetry::inc(
                        "orb_transport_retries_total",
                        &[("protocol", &self.id.to_string())],
                    );
                }
                outcome => return outcome,
            }
        }
        // Both iterations return above; keep a typed error rather than a
        // panic in case the retry policy ever changes shape.
        Err(OrbError::Protocol("exchange retry loop exhausted".into()))
    }

    /// Multiplexed exchange: the deadline rides into the demux wait, and a
    /// timeout surfaces as [`OrbError::AmbiguousTransport`] (the reply may
    /// still be in flight). Only a *dead* channel is evicted — by identity;
    /// a live channel that merely timed out keeps serving its other waiters.
    fn exchange_mux(
        &self,
        ep: &Endpoint,
        mux: &Arc<MuxChannel>,
        request_id: u64,
        frame: &Frame,
        remaining_ns: Option<u64>,
    ) -> Result<Frame, OrbError> {
        let timeout = remaining_ns.map(Duration::from_nanos);
        match mux.call(request_id, frame, timeout) {
            Ok(reply) => Ok(reply),
            Err(err) => {
                if mux.is_dead() {
                    self.evict(ep, mux);
                }
                match err {
                    MuxError::Unsent(e) => Err(OrbError::Transport(e)),
                    MuxError::Lost(e) => Err(OrbError::AmbiguousTransport(e)),
                }
            }
        }
    }
}

impl Drop for TransportProto {
    fn drop(&mut self) {
        // Mux reader threads hold their channels alive; closing the send
        // halves unblocks them so no reader outlives the proto. Shutdown
        // happens outside the cache lock.
        let drained: Vec<Arc<MuxChannel>> = self.channels.lock().drain().map(|(_, c)| c).collect();
        for chan in drained {
            chan.shutdown();
        }
    }
}

impl ProtoObject for TransportProto {
    fn protocol_id(&self) -> ProtocolId {
        self.id
    }

    fn applicable(
        &self,
        _pool: &ProtoPool,
        client: &Location,
        server: &Location,
        _entry: &ProtoEntry,
    ) -> bool {
        self.rule.allows(client, server)
    }

    fn invoke(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<ReplyMessage, OrbError> {
        self.invoke_with_deadline(pool, entry, req, None)
    }

    fn invoke_with_deadline(
        &self,
        _pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
        remaining_ns: Option<u64>,
    ) -> Result<ReplyMessage, OrbError> {
        let ep = endpoint_of(entry)?;
        let frame = req.to_frame();
        let reply_frame = self.exchange(&ep, req.request_id.0, &frame, remaining_ns)?;
        let reply = ReplyMessage::from_frame(&reply_frame)?;
        if reply.request_id != req.request_id {
            return Err(OrbError::Protocol(format!(
                "reply id {} does not match request id {}",
                reply.request_id, req.request_id
            )));
        }
        Ok(reply)
    }

    fn invoke_oneway(
        &self,
        _pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<(), OrbError> {
        debug_assert!(req.oneway, "oneway invocation requires the oneway wire flag");
        let ep = endpoint_of(entry)?;
        let frame = req.to_frame();
        for attempt in 0..2 {
            let (chan, was_cached) = self.channel(&ep)?;
            match chan.send_only(&frame) {
                Ok(()) => return Ok(()),
                Err(err) => {
                    if chan.is_dead() {
                        self.evict(&ep, &chan);
                    }
                    // send_only failures are always pre-send; a one-way
                    // either left the process or it did not.
                    let e = err.transport().clone();
                    if !(was_cached && attempt == 0) {
                        return Err(OrbError::Transport(e));
                    }
                    ohpc_telemetry::inc(
                        "orb_transport_retries_total",
                        &[("protocol", &self.id.to_string())],
                    );
                }
            }
        }
        // Both iterations return above; keep a typed error rather than a
        // panic in case the retry policy ever changes shape.
        Err(OrbError::Protocol("oneway retry loop exhausted".into()))
    }
}

/// The Nexus-based baseline protocol object: ORB frames ride inside Nexus
/// remote service requests (one handler slot per context).
pub struct NexusProto {
    id: ProtocolId,
    rule: ApplicabilityRule,
    dialer: Arc<dyn Dialer>,
    startpoints: Mutex<HashMap<Endpoint, Arc<Startpoint>>>,
}

impl NexusProto {
    /// Builds the baseline proto-object over the given transport dialer.
    pub fn new(id: ProtocolId, rule: ApplicabilityRule, dialer: Arc<dyn Dialer>) -> Self {
        Self { id, rule, dialer, startpoints: Mutex::new(HashMap::new()) }
    }

    fn startpoint(&self, ep: &Endpoint) -> Result<Arc<Startpoint>, OrbError> {
        if let Some(sp) = self.cached_startpoint(ep) {
            return Ok(sp);
        }
        let sp = Arc::new(
            Startpoint::connect(self.dialer.as_ref(), ep).map_err(nexus_to_orb)?,
        );
        Ok(self.install_startpoint(ep, sp))
    }

    fn cached_startpoint(&self, ep: &Endpoint) -> Option<Arc<Startpoint>> {
        self.startpoints.lock().get(ep).cloned()
    }

    /// Re-checks under the lock before publishing: a racing caller's earlier
    /// startpoint wins (the duplicate dial must not overwrite — and thereby
    /// leak — the connection other callers already share).
    fn install_startpoint(&self, ep: &Endpoint, sp: Arc<Startpoint>) -> Arc<Startpoint> {
        let (winner, raced) = {
            let mut map = self.startpoints.lock();
            match map.get(ep) {
                Some(existing) => (existing.clone(), true),
                None => {
                    map.insert(ep.clone(), sp.clone());
                    (sp, false)
                }
            }
        };
        if raced {
            ohpc_telemetry::inc(
                "orb_double_dial_avoided_total",
                &[("protocol", &self.id.to_string())],
            );
        }
        winner
    }

    /// Identity-checked eviction: only removes the cached startpoint if it
    /// is the one the caller saw fail, so a stale failure report cannot tear
    /// down a replacement a racing caller already connected.
    fn forget_startpoint(&self, ep: &Endpoint, stale: &Arc<Startpoint>) {
        let mut map = self.startpoints.lock();
        let is_current = match map.get(ep) {
            Some(cur) => Arc::ptr_eq(cur, stale),
            None => false,
        };
        if is_current {
            map.remove(ep);
        }
    }
}

fn nexus_to_orb(e: NexusError) -> OrbError {
    match e {
        NexusError::Transport(t) => OrbError::Transport(t),
        NexusError::NoSuchHandler(h) => {
            OrbError::Protocol(format!("nexus service lacks ORB handler {h}"))
        }
        NexusError::Handler(m) => OrbError::Protocol(format!("nexus handler: {m}")),
        NexusError::Protocol(m) => OrbError::Protocol(m),
    }
}

impl ProtoObject for NexusProto {
    fn protocol_id(&self) -> ProtocolId {
        self.id
    }

    fn applicable(
        &self,
        _pool: &ProtoPool,
        client: &Location,
        server: &Location,
        _entry: &ProtoEntry,
    ) -> bool {
        self.rule.allows(client, server)
    }

    fn invoke(
        &self,
        pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<ReplyMessage, OrbError> {
        self.invoke_with_deadline(pool, entry, req, None)
    }

    fn invoke_with_deadline(
        &self,
        _pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
        remaining_ns: Option<u64>,
    ) -> Result<ReplyMessage, OrbError> {
        let ep = endpoint_of(entry)?;
        let sp = self.startpoint(&ep)?;
        // Nexus tunnels a contiguous frame.
        let frame = req.to_frame().into_contiguous();
        let mut args = XdrWriter::with_capacity(frame.len() + 8);
        args.put_fixed_opaque(&frame);
        let deadline = remaining_ns.map(std::time::Duration::from_nanos);
        let reply_bytes = match sp.rsr_reply_deadline(NEXUS_ORB_HANDLER, &args, deadline) {
            Ok(b) => b,
            Err(e) => {
                self.forget_startpoint(&ep, &sp);
                // The RSR layer merges send and receive into one call, so a
                // transport failure here cannot be proven to predate
                // delivery: classify it as ambiguous.
                return Err(match nexus_to_orb(e) {
                    OrbError::Transport(t) => OrbError::AmbiguousTransport(t),
                    other => other,
                });
            }
        };
        let reply = ReplyMessage::from_frame(&Frame::from(reply_bytes))?;
        if reply.request_id != req.request_id {
            return Err(OrbError::Protocol("nexus reply id mismatch".into()));
        }
        Ok(reply)
    }

    fn invoke_oneway(
        &self,
        _pool: &ProtoPool,
        entry: &ProtoEntry,
        req: &RequestMessage,
    ) -> Result<(), OrbError> {
        debug_assert!(req.oneway, "oneway invocation requires the oneway wire flag");
        let ep = endpoint_of(entry)?;
        let sp = self.startpoint(&ep)?;
        // Nexus tunnels a contiguous frame.
        let frame = req.to_frame().into_contiguous();
        let mut args = XdrWriter::with_capacity(frame.len() + 8);
        args.put_fixed_opaque(&frame);
        // A genuine Nexus one-way remote service request.
        if let Err(e) = sp.rsr(NEXUS_ORB_HANDLER, &args) {
            self.forget_startpoint(&ep, &sp);
            return Err(nexus_to_orb(e));
        }
        Ok(())
    }

    fn describe(&self, _entry: &ProtoEntry) -> String {
        format!("nexus({})", self.id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ObjectId, RequestId};
    use bytes::Bytes;
    use ohpc_transport::mem::MemFabric;
    use ohpc_transport::{Connection, Listener as _, TransportError};

    fn request(id: u64, body: &'static [u8]) -> RequestMessage {
        RequestMessage {
            request_id: RequestId(id),
            object: ObjectId(1),
            method: 0,
            oneway: false,
            glue: None,
            body: Bytes::from_static(body),
            trace: None,
        }
    }

    #[test]
    fn endpoint_of_rejects_glue_and_garbage() {
        let glue = ProtoEntry::glue(1, vec![], ProtoEntry::endpoint(ProtocolId::TCP, "tcp://h:1"));
        assert!(endpoint_of(&glue).is_err());
        let bad = ProtoEntry::endpoint(ProtocolId::TCP, "not-an-endpoint");
        assert!(endpoint_of(&bad).is_err());
    }

    #[test]
    fn invoke_roundtrip_and_connection_reuse() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen_on(5);

        // Echo server: replies Ok with the request body reversed.
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            for _ in 0..2 {
                let frame = conn.recv().unwrap();
                let req = RequestMessage::from_frame(&frame).unwrap();
                let mut body = req.body.to_vec();
                body.reverse();
                let reply = ReplyMessage::ok(req.request_id, Bytes::from(body));
                conn.send(reply.to_frame()).unwrap();
            }
        });

        let proto = TransportProto::new(
            ProtocolId::SHM,
            ApplicabilityRule::Always,
            Arc::new(fabric),
        );
        let entry = ProtoEntry::endpoint(ProtocolId::SHM, "mem://5");
        let pool = ProtoPool::new();
        for i in 0..2u64 {
            let reply = proto.invoke(&pool, &entry, &request(i, b"abc")).unwrap();
            assert_eq!(&reply.body[..], b"cba");
        }
        assert_eq!(proto.cached_connections(), 1, "one endpoint, one cached channel");
        server.join().unwrap();
    }

    #[test]
    fn dead_connection_is_evicted() {
        let fabric = MemFabric::new();
        let listener = fabric.listen_on(6);
        let proto =
            TransportProto::new(ProtocolId::SHM, ApplicabilityRule::Always, Arc::new(fabric));
        let entry = ProtoEntry::endpoint(ProtocolId::SHM, "mem://6");
        let pool = ProtoPool::new();
        // Server accepts, consumes the request, then drops without replying —
        // the client's send succeeds and its recv fails.
        let h = std::thread::spawn({
            let mut listener = listener;
            move || {
                let mut conn = listener.accept().unwrap();
                let _ = conn.recv();
                drop(conn);
            }
        });
        let err = proto.invoke(&pool, &entry, &request(0, b"")).unwrap_err();
        // The frame was sent before the peer vanished, so the failure is
        // ambiguous — the server may have processed it.
        assert!(matches!(err, OrbError::AmbiguousTransport(_)), "{err}");
        assert_eq!(proto.cached_connections(), 0, "dead channel evicted");
        h.join().unwrap();
    }

    /// Regression test for the key-based-eviction bug: a straggler holding a
    /// reference to a *replaced* channel must not evict the fresh one a
    /// racing caller installed under the same endpoint key.
    #[test]
    fn eviction_is_by_identity_not_by_key() {
        let fabric = MemFabric::new();
        let _listener = fabric.listen_on(7);
        let proto =
            TransportProto::new(ProtocolId::SHM, ApplicabilityRule::Always, Arc::new(fabric));
        let ep = Endpoint::Mem(7);

        let (first, cached) = proto.channel(&ep).unwrap();
        assert!(!cached);
        // A racing caller saw `first` fail, evicted it, and rebuilt.
        proto.evict(&ep, &first);
        let (second, cached) = proto.channel(&ep).unwrap();
        assert!(!cached);
        assert!(!Arc::ptr_eq(&first, &second));

        // The straggler now reports its stale failure. Key-based eviction
        // would tear down `second`; identity eviction must keep it.
        proto.evict(&ep, &first);
        assert_eq!(proto.cached_connections(), 1, "fresh channel survived stale eviction");
        let (current, cached) = proto.channel(&ep).unwrap();
        assert!(cached);
        assert!(Arc::ptr_eq(&current, &second));

        // Evicting with the right identity still works.
        proto.evict(&ep, &second);
        assert_eq!(proto.cached_connections(), 0);
        for chan in [first, second] {
            chan.shutdown();
        }
    }

    /// A dialer that parks every caller on a barrier inside `dial`, forcing
    /// racing callers into the widest possible check-then-install window.
    struct GateDialer {
        inner: MemFabric,
        gate: Arc<std::sync::Barrier>,
    }

    impl Dialer for GateDialer {
        fn dial(&self, ep: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
            self.gate.wait();
            self.inner.dial(ep)
        }
    }

    /// Regression test for the check-drop-dial-relock race: both callers
    /// dial, but exactly one channel may be published — the loser must share
    /// the winner's rather than overwrite (and leak) it.
    #[test]
    fn racing_dials_share_one_channel() {
        let fabric = MemFabric::new();
        let _listener = fabric.listen_on(8);
        let gate = Arc::new(std::sync::Barrier::new(2));
        let proto = Arc::new(TransportProto::new(
            ProtocolId::SHM,
            ApplicabilityRule::Always,
            Arc::new(GateDialer { inner: fabric, gate }),
        ));
        let ep = Endpoint::Mem(8);
        let racers: Vec<_> = (0..2)
            .map(|_| {
                let proto = proto.clone();
                let ep = ep.clone();
                std::thread::spawn(move || proto.channel(&ep).unwrap().0)
            })
            .collect();
        let chans: Vec<Arc<MuxChannel>> =
            racers.into_iter().map(|t| t.join().unwrap()).collect();
        assert_eq!(proto.cached_connections(), 1, "the race must not publish two channels");
        assert!(Arc::ptr_eq(&chans[0], &chans[1]), "both racers share one channel");
    }

    /// A hung (not crashed) server must not block past the deadline: the
    /// timeout surfaces as ambiguous, and the still-live mux stays pooled.
    #[test]
    fn hung_server_times_out_as_ambiguous() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen_on(11);
        let server = std::thread::spawn(move || {
            let mut conn = listener.accept().unwrap();
            let _ = conn.recv();
            // Hold the connection open well past the client's deadline.
            std::thread::sleep(Duration::from_millis(300));
            drop(conn);
        });
        let proto =
            TransportProto::new(ProtocolId::SHM, ApplicabilityRule::Always, Arc::new(fabric));
        let entry = ProtoEntry::endpoint(ProtocolId::SHM, "mem://11");
        let err = proto
            .invoke_with_deadline(&ProtoPool::new(), &entry, &request(4, b""), Some(30_000_000))
            .unwrap_err();
        assert!(
            matches!(err, OrbError::AmbiguousTransport(TransportError::Timeout)),
            "{err}"
        );
        assert_eq!(proto.cached_connections(), 1, "a live mux survives a deadline timeout");
        server.join().unwrap();
    }

    /// Regression test for the same key-vs-identity bug on the Nexus path.
    #[test]
    fn nexus_startpoint_eviction_is_by_identity() {
        let fabric = MemFabric::new();
        let _listener = fabric.listen_on(9);
        let proto = NexusProto::new(
            ProtocolId::NEXUS_TCP,
            ApplicabilityRule::Always,
            Arc::new(fabric),
        );
        let ep = Endpoint::Mem(9);
        let first = proto.startpoint(&ep).unwrap();
        // A racing caller evicted the failed startpoint and reconnected.
        proto.forget_startpoint(&ep, &first);
        let second = proto.startpoint(&ep).unwrap();
        assert!(!Arc::ptr_eq(&first, &second));
        // The straggler's stale report must not tear down the fresh one.
        proto.forget_startpoint(&ep, &first);
        let third = proto.startpoint(&ep).unwrap();
        assert!(Arc::ptr_eq(&second, &third), "fresh startpoint survived stale eviction");
    }
}
