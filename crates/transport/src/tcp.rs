//! Real TCP transport with 4-byte big-endian length-prefix framing.
//!
//! A frame goes out as the length prefix plus every segment of the
//! [`Frame`] in one `writev` loop, so a frame costs one syscall (and, under
//! `TCP_NODELAY`, one TCP segment when it fits) however it is cut. A frame
//! comes in as one contiguous segment.

use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener as StdListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;

use crate::{
    telem, Connection, Dialer, Endpoint, Frame, Listener, RecvHalf, SendHalf, TransportError,
    MAX_FRAME,
};

static TELEM: telem::Instruments = telem::Instruments::new("tcp");

/// Writes one length-prefixed frame to `stream`: the prefix and all the
/// segments, with vectored writes until every byte is out.
fn write_frame(mut stream: &TcpStream, frame: &Frame) -> Result<(), TransportError> {
    if frame.len() > MAX_FRAME {
        return Err(TransportError::FrameTooLarge(frame.len()));
    }
    let len = (frame.len() as u32).to_be_bytes();
    let mut slices: Vec<IoSlice<'_>> = std::iter::once(IoSlice::new(&len))
        .chain(frame.segments().iter().map(|s| IoSlice::new(s)))
        .collect();
    let mut unsent = &mut slices[..];
    while !unsent.is_empty() {
        match stream.write_vectored(unsent) {
            Ok(0) => return Err(std::io::Error::from(std::io::ErrorKind::WriteZero).into()),
            Ok(n) => IoSlice::advance_slices(&mut unsent, n),
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e.into()),
        }
    }
    Ok(())
}

/// Reads one length-prefixed frame from `stream`, as one segment.
fn read_frame(mut stream: &TcpStream) -> Result<Frame, TransportError> {
    let mut len_buf = [0u8; 4];
    stream.read_exact(&mut len_buf)?;
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(TransportError::FrameTooLarge(len));
    }
    let mut buf = vec![0u8; len];
    stream.read_exact(&mut buf)?;
    Ok(Bytes::from(buf).into())
}

/// A framed TCP connection.
pub struct TcpConnection {
    stream: TcpStream,
}

impl TcpConnection {
    fn new(stream: TcpStream) -> Result<Self, TransportError> {
        stream.set_nodelay(true)?;
        Ok(Self { stream })
    }
}

impl Connection for TcpConnection {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        let r = write_frame(&self.stream, &frame);
        TELEM.track_send(frame.len(), r)
    }

    fn recv(&mut self) -> Result<Frame, TransportError> {
        TELEM.track_recv(read_frame(&self.stream))
    }

    /// TCP splits by sharing the socket: `&TcpStream` reads and writes, so a
    /// reader thread can block in `recv` while senders write whole frames.
    fn split(self: Box<Self>) -> (Box<dyn SendHalf>, Box<dyn RecvHalf>) {
        let stream = Arc::new(self.stream);
        (Box::new(TcpSendHalf { stream: stream.clone() }), Box::new(TcpRecvHalf { stream }))
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> bool {
        self.stream.set_read_timeout(timeout).is_ok()
    }
}

/// Sending half of a split [`TcpConnection`].
pub struct TcpSendHalf {
    stream: Arc<TcpStream>,
}

impl SendHalf for TcpSendHalf {
    fn send(&mut self, frame: Frame) -> Result<(), TransportError> {
        let r = write_frame(&self.stream, &frame);
        TELEM.track_send(frame.len(), r)
    }

    /// Shuts the socket down in both directions, which unblocks a reader
    /// thread parked in `recv` on the paired half.
    fn close(&mut self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}

/// Receiving half of a split [`TcpConnection`].
pub struct TcpRecvHalf {
    stream: Arc<TcpStream>,
}

impl RecvHalf for TcpRecvHalf {
    fn recv(&mut self) -> Result<Frame, TransportError> {
        TELEM.track_recv(read_frame(&self.stream))
    }
}

/// Dialer for `tcp://` endpoints.
#[derive(Debug, Clone, Default)]
pub struct TcpDialer;

impl Dialer for TcpDialer {
    fn dial(&self, endpoint: &Endpoint) -> Result<Box<dyn Connection>, TransportError> {
        match endpoint {
            Endpoint::Tcp(addr) => {
                let stream = TcpStream::connect(addr.as_str())?;
                Ok(Box::new(TcpConnection::new(stream)?))
            }
            other => Err(TransportError::WrongEndpoint(other.to_string())),
        }
    }
}

/// Accepting side. Uses a non-blocking accept loop with a stop flag so
/// `shutdown` can unblock a waiting `accept` promptly.
pub struct TcpAcceptor {
    listener: StdListener,
    addr: String,
    stopped: Arc<AtomicBool>,
}

impl TcpAcceptor {
    /// Binds to `addr` (`127.0.0.1:0` picks an ephemeral port).
    pub fn bind(addr: &str) -> Result<Self, TransportError> {
        let listener = StdListener::bind(addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?.to_string();
        Ok(Self { listener, addr, stopped: Arc::new(AtomicBool::new(false)) })
    }

    /// Handle that can stop the acceptor from another thread.
    pub fn stop_handle(&self) -> Arc<AtomicBool> {
        self.stopped.clone()
    }
}

impl Listener for TcpAcceptor {
    fn accept(&mut self) -> Result<Box<dyn Connection>, TransportError> {
        loop {
            if self.stopped.load(Ordering::Acquire) {
                return Err(TransportError::Closed);
            }
            match self.listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nonblocking(false)?;
                    return Ok(Box::new(TcpConnection::new(stream)?));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    fn endpoint(&self) -> Endpoint {
        Endpoint::Tcp(self.addr.clone())
    }

    fn shutdown(&self) {
        self.stopped.store(true, Ordering::Release);
    }

    fn stop_fn(&self) -> Box<dyn Fn() + Send + Sync> {
        let stopped = self.stopped.clone();
        Box::new(move || stopped.store(true, Ordering::Release))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_over_localhost() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let h = std::thread::spawn(move || {
            let mut c = TcpDialer.dial(&ep).unwrap();
            c.send(Bytes::from_static(b"hello tcp").into()).unwrap();
            c.recv().unwrap()
        });
        let mut server = acceptor.accept().unwrap();
        assert_eq!(server.recv().unwrap().to_vec(), b"hello tcp");
        server.send(Bytes::from_static(b"and back").into()).unwrap();
        assert_eq!(h.join().unwrap().to_vec(), b"and back");
    }

    #[test]
    fn large_frame_roundtrip() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| i as u8).collect();
        let expect = payload.clone();
        let h = std::thread::spawn(move || {
            let mut c = TcpDialer.dial(&ep).unwrap();
            c.send(Bytes::from(payload).into()).unwrap();
        });
        let mut server = acceptor.accept().unwrap();
        assert_eq!(server.recv().unwrap().to_vec(), &expect[..]);
        h.join().unwrap();
    }

    #[test]
    fn a_multi_segment_frame_arrives_intact_as_one_segment() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let body: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        let segs = vec![
            Bytes::from_static(b"head"),
            Bytes::new(),
            Bytes::from(body.clone()),
            Bytes::from_static(b"\0\0tail"),
        ];
        let expect: Vec<u8> = segs.iter().flat_map(|s| s.iter().copied()).collect();
        let h = std::thread::spawn(move || {
            let mut c = TcpDialer.dial(&ep).unwrap();
            c.send(Frame::from(segs)).unwrap();
            // A second frame right behind it: the prefix framed the first
            // one exactly.
            c.send(Bytes::from_static(b"next").into()).unwrap();
        });
        let mut server = acceptor.accept().unwrap();
        let got = server.recv().unwrap();
        assert_eq!(got.segments().len(), 1);
        assert_eq!(got.to_vec(), expect);
        assert_eq!(server.recv().unwrap().to_vec(), b"next");
        h.join().unwrap();
    }

    #[test]
    fn oversized_segment_sum_is_rejected_before_any_byte_is_written() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let mut c = TcpDialer.dial(&ep).unwrap();
        let mut server = acceptor.accept().unwrap();
        let half = Bytes::from(vec![0u8; MAX_FRAME / 2 + 1]);
        let err = c.send(Frame::from(vec![half.clone(), half])).unwrap_err();
        assert_eq!(err, TransportError::FrameTooLarge(MAX_FRAME + 2));
        // Nothing reached the wire: the next frame is the first one read.
        c.send(Bytes::from_static(b"ok").into()).unwrap();
        assert_eq!(server.recv().unwrap().to_vec(), b"ok");
    }

    #[test]
    fn refused_when_nobody_listens() {
        // A freed ephemeral port can be re-bound by another process between
        // drop and dial, so a single attempt is flaky by construction. Retry
        // with fresh ports: the test passes on the first attempt whose port
        // stayed dead, and only fails if every port was (absurdly) re-bound.
        for _ in 0..16 {
            let dead = {
                let l = StdListener::bind("127.0.0.1:0").unwrap();
                l.local_addr().unwrap().to_string()
            };
            match TcpDialer.dial(&Endpoint::Tcp(dead)) {
                Err(err) => {
                    assert!(
                        matches!(
                            err,
                            TransportError::ConnectionRefused(_) | TransportError::Io(_)
                        ),
                        "{err}"
                    );
                    return;
                }
                // Port got re-bound under us; try another one.
                Ok(conn) => drop(conn),
            }
        }
        panic!("16 freshly freed ports were all re-bound; something is wrong");
    }

    #[test]
    fn hung_peer_times_out_when_a_deadline_is_armed() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let h = std::thread::spawn(move || {
            let mut c = TcpDialer.dial(&ep).unwrap();
            assert!(c.set_recv_timeout(Some(Duration::from_millis(40))));
            let err = c.recv().unwrap_err();
            // Disarm works too (no way to wait forever in a test, but the
            // call must succeed).
            assert!(c.set_recv_timeout(None));
            err
        });
        // The server accepts and then hangs: never sends, never closes.
        let server = acceptor.accept().unwrap();
        let err = h.join().unwrap();
        assert_eq!(err, TransportError::Timeout);
        drop(server);
    }

    #[test]
    fn split_halves_carry_frames_and_close_unblocks_reader() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let h = std::thread::spawn(move || {
            let (mut tx, mut rx) = TcpDialer.dial(&ep).unwrap().split();
            tx.send(Bytes::from_static(b"via half").into()).unwrap();
            let echoed = rx.recv().unwrap();
            // Reader parked in recv; closing the send half unblocks it.
            let reader = std::thread::spawn(move || rx.recv());
            std::thread::sleep(Duration::from_millis(20));
            tx.close();
            assert!(reader.join().unwrap().is_err());
            echoed
        });
        let mut server = acceptor.accept().unwrap();
        let frame = server.recv().unwrap();
        assert_eq!(frame.to_vec(), b"via half");
        server.send(Bytes::from_static(b"back at you").into()).unwrap();
        assert_eq!(h.join().unwrap().to_vec(), b"back at you");
    }

    #[test]
    fn shutdown_unblocks_accept() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let stop = acceptor.stop_handle();
        let h = std::thread::spawn(move || acceptor.accept().map(|_| ()));
        std::thread::sleep(Duration::from_millis(20));
        stop.store(true, Ordering::Release);
        assert_eq!(h.join().unwrap().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn peer_close_surfaces_as_closed() {
        let mut acceptor = TcpAcceptor::bind("127.0.0.1:0").unwrap();
        let ep = acceptor.endpoint();
        let c = TcpDialer.dial(&ep).unwrap();
        let mut server = acceptor.accept().unwrap();
        drop(c);
        assert_eq!(server.recv().unwrap_err(), TransportError::Closed);
    }

    #[test]
    fn wrong_endpoint_kind() {
        assert!(matches!(
            TcpDialer.dial(&Endpoint::Mem(1)).unwrap_err(),
            TransportError::WrongEndpoint(_)
        ));
    }
}
