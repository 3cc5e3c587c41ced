//! The benchmark's own remote object and its client stub, with the
//! timestamps the ledger is built from.
//!
//! Client and server share one process, so one monotonic clock
//! ([`now_ns`]) stamps both sides of a call. A client arms its slot before a
//! traced call; the server then stamps dispatch entry, its codec time and
//! dispatch exit into that slot, and the client reads them back once the
//! reply is in hand.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use ohpc_orb::{GlobalPointer, MethodError, OrbError, RemoteObject};
use ohpc_xdr::{XdrDecode, XdrEncode, XdrReader, XdrWriter};

/// `ping(client: u32, token: u64) -> u64`, two-way.
pub const PING: u32 = 1;
/// `echo(client: u32, v: Vec<i32>) -> Vec<i32>`, two-way.
pub const ECHO: u32 = 2;
/// `ping(client: u32, token: u64)` sent one-way.
pub const ONEWAY_PING: u32 = 3;
/// `served() -> (u64, u64)`: calls served and the wrapping sum of ping tokens.
pub const SERVED: u32 = 4;

/// Nanoseconds on the process-wide monotonic clock.
pub fn now_ns() -> u64 {
    static BASE: OnceLock<Instant> = OnceLock::new();
    BASE.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Server-side stamps of one traced call.
#[derive(Default)]
struct Slot {
    armed: AtomicBool,
    dispatch_in: AtomicU64,
    codec_ns: AtomicU64,
    dispatch_out: AtomicU64,
}

/// Server stamps read back by the client: dispatch entry, time spent in
/// argument decode plus result encode, dispatch exit.
#[derive(Debug, Clone, Copy)]
pub struct ServerStamps {
    pub dispatch_in: u64,
    pub codec_ns: u64,
    pub dispatch_out: u64,
}

/// Echo service: counts what it serves and sums ping tokens, so the run can
/// check at the end that no call, one-way ones included, was lost.
pub struct EchoService {
    served: AtomicU64,
    token_sum: AtomicU64,
    slots: Box<[Slot]>,
    stamping: bool,
}

fn bad_args(e: ohpc_xdr::XdrError) -> MethodError {
    MethodError::BadArgs(e.to_string())
}

impl EchoService {
    /// A service with one stamp slot per client. Unless `stamping`,
    /// dispatch reads no clock at all.
    pub fn new(clients: usize, stamping: bool) -> Self {
        Self {
            served: AtomicU64::new(0),
            token_sum: AtomicU64::new(0),
            slots: (0..clients).map(|_| Slot::default()).collect(),
            stamping,
        }
    }

    /// Arms client `client`'s slot: its next two-way call is stamped.
    pub fn arm(&self, client: usize) {
        self.slots[client].armed.store(true, Ordering::Relaxed);
    }

    /// The stamps of client `client`'s last armed call, disarming the slot.
    /// `None` if the server never stamped it.
    pub fn take(&self, client: usize) -> Option<ServerStamps> {
        let slot = &self.slots[client];
        // Acquire pairs with the Release store of `dispatch_out` in `finish`.
        let out = slot.dispatch_out.swap(0, Ordering::Acquire);
        let stamped = !slot.armed.swap(false, Ordering::Relaxed);
        (stamped && out != 0).then(|| ServerStamps {
            dispatch_in: slot.dispatch_in.load(Ordering::Relaxed),
            codec_ns: slot.codec_ns.load(Ordering::Relaxed),
            dispatch_out: out,
        })
    }

    /// The method body proper: counts the call and adds its token. Returns
    /// the stamps around it when the caller's slot is armed.
    fn body(&self, client: u32, token: u64) -> (u64, u64) {
        let armed = self.stamping
            && self
                .slots
                .get(client as usize)
                .is_some_and(|s| s.armed.load(Ordering::Relaxed));
        let t_decoded = if armed { now_ns() } else { 0 };
        self.served.fetch_add(1, Ordering::Relaxed);
        self.token_sum.fetch_add(token, Ordering::Relaxed);
        (t_decoded, if armed { now_ns() } else { 0 })
    }

    /// Stamps an armed call's slot once its result is encoded: the codec
    /// time is argument decode plus result encode, the body excluded.
    fn finish(&self, client: u32, t_in: u64, t_decoded: u64, t_body: u64) {
        if t_decoded == 0 {
            return;
        }
        if let Some(slot) = self.slots.get(client as usize) {
            let t_out = now_ns();
            slot.dispatch_in.store(t_in, Ordering::Relaxed);
            slot.codec_ns
                .store((t_decoded - t_in) + (t_out - t_body), Ordering::Relaxed);
            slot.armed.store(false, Ordering::Relaxed);
            // Release pairs with the Acquire swap in `take`.
            slot.dispatch_out.store(t_out, Ordering::Release);
        }
    }
}

impl RemoteObject for EchoService {
    fn type_name(&self) -> &str {
        "OrbBenchEcho"
    }

    fn dispatch(
        &self,
        method: u32,
        args: &mut XdrReader<'_>,
        out: &mut XdrWriter,
    ) -> Result<(), MethodError> {
        let t_in = if self.stamping { now_ns() } else { 0 };
        let client = match method {
            PING | ONEWAY_PING => {
                let client = u32::decode(args).map_err(bad_args)?;
                let token = u64::decode(args).map_err(bad_args)?;
                let (t_decoded, t_body) = self.body(client, token);
                if method == PING {
                    token.encode(out);
                    self.finish(client, t_in, t_decoded, t_body);
                }
                return Ok(());
            }
            ECHO => u32::decode(args).map_err(bad_args)?,
            SERVED => {
                (
                    self.served.load(Ordering::Relaxed),
                    self.token_sum.load(Ordering::Relaxed),
                )
                    .encode(out);
                return Ok(());
            }
            m => return Err(MethodError::NoSuchMethod(m)),
        };
        let v = Vec::<i32>::decode(args).map_err(bad_args)?;
        let (t_decoded, t_body) = self.body(client, 0);
        v.encode(out);
        self.finish(client, t_in, t_decoded, t_body);
        Ok(())
    }
}

/// Client-side stamps of one two-way call: stub entry, `invoke` entry,
/// `invoke` return and stub exit.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClientStamps {
    pub start: u64,
    pub invoke_in: u64,
    pub invoke_out: u64,
    pub end: u64,
}

/// The client stub: encodes `args` with their `XdrEncode`, invokes, decodes
/// the reply with `R`'s `XdrDecode`. Only the stub's entry and exit are
/// stamped unless `traced`.
pub fn call<A: XdrEncode, R: XdrDecode>(
    gp: &GlobalPointer,
    method: u32,
    args: &A,
    traced: bool,
) -> (Result<R, OrbError>, ClientStamps) {
    let mut st = ClientStamps {
        start: now_ns(),
        ..ClientStamps::default()
    };
    let mut w = XdrWriter::new();
    args.encode(&mut w);
    if traced {
        st.invoke_in = now_ns();
    }
    let reply = gp.invoke(method, &w);
    if traced {
        st.invoke_out = now_ns();
    }
    let out = reply.and_then(|b| ohpc_xdr::decode_from_slice::<R>(&b).map_err(OrbError::from));
    st.end = now_ns();
    (out, st)
}

/// A one-way call through the same stub encoding.
pub fn call_oneway<A: XdrEncode>(
    gp: &GlobalPointer,
    method: u32,
    args: &A,
) -> Result<(), OrbError> {
    let mut w = XdrWriter::new();
    args.encode(&mut w);
    gp.invoke_oneway(method, &w)
}
