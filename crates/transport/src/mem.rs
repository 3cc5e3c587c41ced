//! In-process channel fabric: the "shared memory protocol".
//!
//! A [`MemFabric`] is a rendezvous namespace. Listeners bind a key; dialers
//! connect by key and the fabric hands both sides a pair of unbounded
//! crossbeam channels. A sent [`Frame`] is moved into the channel as is:
//! the receiver gets the sender's segments, the same allocations, with no
//! copy and no refcount traffic on the way. That is the property that makes
//! the shared-memory protocol an order of magnitude faster than the network
//! paths in Figure 5.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use parking_lot::Mutex;

use crate::{
    telem, Connection, Dialer, Endpoint, Frame, Listener, RecvHalf, SendHalf, TransportError,
    MAX_FRAME,
};

static TELEM: telem::Instruments = telem::Instruments::new("mem");

/// One side of an established connection.
pub struct MemConnection {
    tx: Sender<Frame>,
    rx: Receiver<Frame>,
    recv_timeout: Option<std::time::Duration>,
}

/// Moves `frame` into the peer's queue, enforcing [`MAX_FRAME`].
fn send_frame(tx: Option<&Sender<Frame>>, frame: Frame) -> Result<(), TransportError> {
    let n = frame.len();
    let r = match tx {
        None => Err(TransportError::Closed),
        Some(_) if n > MAX_FRAME => Err(TransportError::FrameTooLarge(n)),
        Some(tx) => tx.send(frame).map_err(|_| TransportError::Closed),
    };
    TELEM.track_send(n, r)
}

impl Connection for MemConnection {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        send_frame(Some(&self.tx), frame)
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        let r = match self.recv_timeout {
            None => self.rx.recv().map_err(|_| TransportError::Closed),
            Some(d) => self.rx.recv_timeout(d).map_err(|e| match e {
                RecvTimeoutError::Timeout => TransportError::Timeout,
                RecvTimeoutError::Disconnected => TransportError::Closed,
            }),
        };
        TELEM.track_recv(r)
    }

    /// Mem splits by handing each channel end to its half. Teardown chains
    /// naturally: closing the send half drops our sender, the peer's receive
    /// loop sees `Closed`, drops its own connection, and that unblocks our
    /// reader.
    fn split(self: Box<Self>) -> (Box<dyn SendHalf>, Box<dyn RecvHalf>) {
        (Box::new(MemSendHalf { tx: Some(self.tx) }), Box::new(MemRecvHalf { rx: self.rx }))
    }

    fn set_recv_timeout(&mut self, timeout: Option<std::time::Duration>) -> bool {
        self.recv_timeout = timeout;
        true
    }
}

/// Sending half of a split [`MemConnection`].
pub struct MemSendHalf {
    tx: Option<Sender<Frame>>,
}

impl SendHalf for MemSendHalf {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        send_frame(self.tx.as_ref(), frame)
    }

    fn close(&mut self) {
        self.tx = None;
    }
}

/// Receiving half of a split [`MemConnection`].
pub struct MemRecvHalf {
    rx: Receiver<Frame>,
}

impl RecvHalf for MemRecvHalf {
    fn recv(&mut self) -> Result<Frame, TransportError> {
        TELEM.track_recv(self.rx.recv().map_err(|_| TransportError::Closed))
    }
}

type PendingDial = (MemConnection, Sender<MemConnection>);

#[derive(Default)]
struct FabricState {
    listeners: HashMap<u64, Sender<PendingDial>>,
}

/// Namespace connecting in-process dialers to listeners by key.
#[derive(Clone, Default)]
pub struct MemFabric {
    state: Arc<Mutex<FabricState>>,
    next_key: Arc<AtomicU64>,
}

impl MemFabric {
    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Binds a fresh listener with an auto-assigned key.
    pub fn listen(&self) -> MemListener {
        let key = self.next_key.fetch_add(1, Ordering::Relaxed);
        self.listen_on(key)
    }

    /// Binds a listener on a specific key (panics if the key is taken —
    /// key assignment is the application's responsibility).
    pub fn listen_on(&self, key: u64) -> MemListener {
        let (tx, rx) = unbounded::<PendingDial>();
        let mut st = self.state.lock();
        assert!(
            !st.listeners.contains_key(&key),
            "mem fabric key {key} already bound"
        );
        st.listeners.insert(key, tx);
        MemListener { fabric: self.clone(), key, pending: rx }
    }

    fn connect(&self, key: u64) -> Result<MemConnection, TransportError> {
        let pending_tx = {
            let st = self.state.lock();
            st.listeners
                .get(&key)
                .cloned()
                .ok_or_else(|| TransportError::ConnectionRefused(format!("mem://{key}")))?
        };
        // Build both directions and hand the server its half through the
        // listener queue.
        let (a_tx, b_rx) = unbounded();
        let (b_tx, a_rx) = unbounded();
        let client = MemConnection { tx: a_tx, rx: a_rx, recv_timeout: None };
        let server = MemConnection { tx: b_tx, rx: b_rx, recv_timeout: None };
        let (ack_tx, _ack_rx) = unbounded();
        pending_tx
            .send((server, ack_tx))
            .map_err(|_| TransportError::ConnectionRefused(format!("mem://{key}")))?;
        Ok(client)
    }

    fn unbind(&self, key: u64) {
        self.state.lock().listeners.remove(&key);
    }
}

impl Dialer for MemFabric {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        match endpoint {
            Endpoint::Mem(key) => Ok(Box::new(self.connect(*key)?)),
            other => Err(TransportError::WrongEndpoint(other.to_string())),
        }
    }
}

/// Accept side of a [`MemFabric`] binding. Unbinds its key on drop.
pub struct MemListener {
    fabric: MemFabric,
    key: u64,
    pending: Receiver<PendingDial>,
}

impl Listener for MemListener {
    fn accept(&mut self) -> Result<Box<dyn Connection>, TransportError> {
        let (conn, _ack) = self.pending.recv().map_err(|_| TransportError::Closed)?;
        Ok(Box::new(conn))
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Mem(self.key)
    }

    fn shutdown(&self) {
        self.fabric.unbind(self.key);
    }

    fn stop_fn(&self) -> Box<dyn Fn() + Send + Sync> {
        let fabric = self.fabric.clone();
        let key = self.key;
        Box::new(move || fabric.unbind(key))
    }
}

impl Drop for MemListener {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn dial_listen_roundtrip() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();

        let f2 = fabric.clone();
        let h = std::thread::spawn(move || {
            let mut c = f2.dial(&ep).unwrap();
            c.send(Bytes::from_static(b"ping").into()).unwrap();
            c.recv().unwrap()
        });

        let mut server = listener.accept().unwrap();
        assert_eq!(server.recv().unwrap().to_vec(), b"ping");
        server.send(Bytes::from_static(b"pong").into()).unwrap();
        assert_eq!(h.join().unwrap().to_vec(), b"pong");
    }

    #[test]
    fn send_delivers_the_senders_allocation() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut c = fabric.dial(&ep).unwrap();
        let mut server = listener.accept().unwrap();
        let frame = Bytes::from(vec![0xA5u8; 1 << 16]);
        let sent_at = frame.as_ptr();
        c.send(frame.into()).unwrap();
        let got = server.recv().unwrap();
        assert_eq!(got.segments()[0].as_ptr(), sent_at, "the receiver holds the sent buffer, not a copy");
        assert_eq!(got.len(), 1 << 16);

        // A frame of several segments arrives as those same segments.
        let segs = vec![
            Bytes::from(vec![1u8; 12]),
            Bytes::from(vec![2u8; 1 << 16]),
            Bytes::from(vec![3u8; 4]),
        ];
        let sent: Vec<_> = segs.iter().map(|s| s.as_ptr()).collect();
        c.send(Frame::from(segs)).unwrap();
        let got = server.recv().unwrap();
        assert_eq!(got.len(), 12 + (1 << 16) + 4);
        let received: Vec<_> = got.segments().iter().map(|s| s.as_ptr()).collect();
        assert_eq!(received, sent, "every segment is the sender's allocation");

        // The split halves move frames the same way.
        let (mut tx, _rx) = c.split();
        let frame = Bytes::from(vec![1u8; 64]);
        let sent_at = frame.as_ptr();
        tx.send(frame.into()).unwrap();
        assert_eq!(server.recv().unwrap().segments()[0].as_ptr(), sent_at);
    }

    #[test]
    fn dial_unknown_key_refused() {
        let fabric = MemFabric::new();
        assert!(matches!(
            fabric.dial(&Endpoint::Mem(42)).unwrap_err(),
            TransportError::ConnectionRefused(_)
        ));
    }

    #[test]
    fn dial_wrong_endpoint_kind() {
        let fabric = MemFabric::new();
        assert!(matches!(
            fabric.dial(&Endpoint::Tcp("x".into())).unwrap_err(),
            TransportError::WrongEndpoint(_)
        ));
    }

    #[test]
    fn close_is_visible_to_peer() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let c = fabric.dial(&ep).unwrap();
        let mut server = listener.accept().unwrap();
        drop(c);
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        assert_eq!(server.send(Bytes::from_static(b"x").into()).unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn shutdown_unbinds_key() {
        let fabric = MemFabric::new();
        let listener = fabric.listen_on(7);
        listener.shutdown();
        assert!(fabric.dial(&Endpoint::Mem(7)).is_err());
        // key is rebindable after shutdown
        let _l2 = fabric.listen_on(7);
        assert!(fabric.dial(&Endpoint::Mem(7)).is_ok());
    }

    #[test]
    fn drop_unbinds_key() {
        let fabric = MemFabric::new();
        {
            let _l = fabric.listen_on(9);
            assert!(fabric.dial(&Endpoint::Mem(9)).is_ok());
        }
        assert!(fabric.dial(&Endpoint::Mem(9)).is_err());
    }

    #[test]
    #[should_panic(expected = "already bound")]
    fn duplicate_key_panics() {
        let fabric = MemFabric::new();
        let _a = fabric.listen_on(1);
        let _b = fabric.listen_on(1);
    }

    #[test]
    fn oversized_frame_rejected() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut c = fabric.dial(&ep).unwrap();
        let _s = listener.accept().unwrap();
        let big = vec![0u8; MAX_FRAME + 1];
        assert!(matches!(c.send(Bytes::from(big).into()).unwrap_err(), TransportError::FrameTooLarge(_)));
        // The bound applies to the sum of the segments.
        let half = Bytes::from(vec![0u8; MAX_FRAME / 2 + 1]);
        let err = c.send(Frame::from(vec![half.clone(), half])).unwrap_err();
        assert!(matches!(err, TransportError::FrameTooLarge(_)));
    }

    #[test]
    fn split_halves_roundtrip_and_close_chains_to_reader() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let (mut tx, mut rx) = fabric.dial(&ep).unwrap().split();
        let mut server = listener.accept().unwrap();
        tx.send(Bytes::from_static(b"halved").into()).unwrap();
        assert_eq!(server.recv().unwrap().to_vec(), b"halved");
        server.send(Bytes::from_static(b"ok").into()).unwrap();
        assert_eq!(rx.recv().unwrap().to_vec(), b"ok");
        // Close chain: our send half closes -> server's recv errors -> the
        // test drops the server conn -> our reader unblocks with Closed.
        let reader = std::thread::spawn(move || rx.recv());
        tx.close();
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
        drop(server);
        assert_eq!(reader.join().unwrap().unwrap_err(), TransportError::Closed);
        assert!(matches!(tx.send(Bytes::from_static(b"late").into()).unwrap_err(), TransportError::Closed));
    }

    #[test]
    fn recv_timeout_fires_and_disarms() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut c = fabric.dial(&ep).unwrap();
        let mut server = listener.accept().unwrap();
        assert!(c.set_recv_timeout(Some(std::time::Duration::from_millis(20))));
        assert_eq!(c.recv().unwrap_err(), TransportError::Timeout);
        server.send(Bytes::from_static(b"now").into()).unwrap();
        assert_eq!(c.recv().unwrap().to_vec(), b"now");
        assert!(c.set_recv_timeout(None));
    }

    #[test]
    fn frames_preserve_order() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut c = fabric.dial(&ep).unwrap();
        let mut s = listener.accept().unwrap();
        for i in 0..100u32 {
            c.send(Bytes::copy_from_slice(&i.to_be_bytes()).into()).unwrap();
        }
        for i in 0..100u32 {
            assert_eq!(s.recv().unwrap().to_vec(), &i.to_be_bytes());
        }
    }

    #[test]
    fn multiple_clients_one_listener() {
        let fabric = MemFabric::new();
        let mut listener = fabric.listen();
        let ep = listener.endpoint();
        let mut clients: Vec<_> = (0..4u32)
            .map(|i| {
                let mut c = fabric.dial(&ep).unwrap();
                c.send(Bytes::copy_from_slice(&i.to_be_bytes()).into()).unwrap();
                c
            })
            .collect();
        let mut seen = Vec::new();
        let mut servers = Vec::new();
        for _ in 0..4 {
            let mut s = listener.accept().unwrap();
            seen.push(u32::from_be_bytes(s.recv().unwrap().prefix().unwrap()));
            servers.push(s);
        }
        seen.sort();
        assert_eq!(seen, vec![0, 1, 2, 3]);
        for c in clients.iter_mut() {
            // all client halves still alive
            assert!(c.send(Bytes::from_static(b"ok").into()).is_ok());
        }
    }
}
