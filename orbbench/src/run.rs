//! Workloads, set-up and the closed-loop measurement.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ohpc_caps::TimeoutCap;
use ohpc_orb::context::OrRow;
use ohpc_orb::{
    ApplicabilityRule, CapabilityRegistry, Context, ContextId, GlobalPointer, GlueProto, Location,
    ProtoPool, ProtocolId, TransportProto,
};
use ohpc_runtime::WorkStealingPool;
use ohpc_transport::mem::MemFabric;
use ohpc_transport::tcp::{TcpAcceptor, TcpDialer};
use ohpc_transport::{Dialer, Listener};

use crate::gen::{base_array, Mix, Op, OpGen};
use crate::hist::{group_percentiles, quantile, LogHistogram, MAX_RELATIVE_ERROR};
use crate::ledger::{metric, Counters, Ledger, LedgerSums, Metric, CLOSURE_TOLERANCE};
use crate::service::{call, call_oneway, EchoService, ECHO, ONEWAY_PING, PING, SERVED};
use crate::{heap, sys};

/// The transport a workload runs over. Both stay inside this host: the mem
/// fabric is in-process channels and TCP is loopback, not a real link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fabric {
    Mem,
    Tcp,
}

/// One traffic mix.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub fabric: Fabric,
    /// Closed-loop client threads; each has its own global pointers over
    /// one shared proto pool, so all share one multiplexed channel.
    pub clients: usize,
    pub mix: Mix,
}

/// Every workload the benchmark knows.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "small-rpc",
        fabric: Fabric::Mem,
        clients: 2,
        mix: Mix::Pings,
    },
    Workload {
        name: "bulk-array",
        fabric: Fabric::Mem,
        clients: 1,
        mix: Mix::OctaveEcho { min: 1 << 10 },
    },
    Workload {
        name: "tcp-glue",
        fabric: Fabric::Tcp,
        clients: 2,
        mix: Mix::FixedGlueEcho { len: 4096 },
    },
];

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 25;
/// Untimed calls before the window opens: dials done, selection caches warm.
const WARMUP: Duration = Duration::from_millis(500);
/// Shortest slice of an untraced window. Short, because on a shared host
/// outside contention comes in bursts of a second or so, and a short slice
/// is more likely to fall between them.
const SLICE: Duration = Duration::from_millis(250);
/// Two-way calls a slice should hold at the warm-up's rate, so a slow
/// workload's per-slice rates and medians are not read off a few calls.
const SLICE_CALLS: f64 = 100.0;
/// Fewest slices of an untraced window, however short the run.
const MIN_SLICES: usize = 10;
/// Length of each traced and untraced slice of a traced run, alternating.
const TRACE_SLICE: Duration = Duration::from_millis(500);
const STOP: usize = usize::MAX;
/// Share of slices allowed to beat a reported value (see `run`).
const BEST: f64 = 0.1;

/// A built context, its service and each client's global pointers.
struct Rig {
    ctx: Context,
    executor: Arc<WorkStealingPool>,
    service: Arc<EchoService>,
    gps: Vec<ClientGps>,
}

struct ClientGps {
    plain: GlobalPointer,
    glue: GlobalPointer,
}

impl Rig {
    /// Builds everything from the `Context` up and returns once every
    /// client has had its first good reply: the dial, the mux reader spawn
    /// and the executor's start all happen in here.
    fn build(w: &Workload, stamping: bool) -> Result<Rig, String> {
        let registry = CapabilityRegistry::new();
        ohpc_caps::register_standard(&registry, ohpc_crypto::KeyStore::new());
        let registry = Arc::new(registry);
        let ctx = Context::new(ContextId(1), Location::new(0, 0), registry.clone());
        let executor = Arc::new(WorkStealingPool::new(
            "orbbench",
            ohpc_runtime::default_workers(),
        ));
        ctx.set_executor(executor.clone());
        let service = Arc::new(EchoService::new(w.clients, stamping));
        let object = ctx.register(service.clone());
        let (listener, dialer): (Box<dyn Listener>, Arc<dyn Dialer>) = match w.fabric {
            Fabric::Mem => {
                let fabric = MemFabric::new();
                (Box::new(fabric.listen()), Arc::new(fabric))
            }
            Fabric::Tcp => (
                Box::new(TcpAcceptor::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?),
                Arc::new(TcpDialer),
            ),
        };
        ctx.serve(listener, ProtocolId::TCP);
        let glue_id = ctx
            .add_glue(vec![TimeoutCap::spec(u64::MAX / 2)])
            .map_err(|e| e.to_string())?;
        let plain_or = ctx
            .make_or(object, &[OrRow::Plain(ProtocolId::TCP)])
            .map_err(|e| e.to_string())?;
        let glue_or = ctx
            .make_or(
                object,
                &[OrRow::Glue {
                    glue_id,
                    inner: ProtocolId::TCP,
                }],
            )
            .map_err(|e| e.to_string())?;
        let pool = Arc::new(
            ProtoPool::new()
                .with(Arc::new(GlueProto::new(registry)))
                .with(Arc::new(TransportProto::new(
                    ProtocolId::TCP,
                    ApplicabilityRule::Always,
                    dialer,
                ))),
        );
        let gps: Vec<ClientGps> = (0..w.clients)
            .map(|_| ClientGps {
                plain: GlobalPointer::new(plain_or.clone(), pool.clone(), Location::new(1, 1)),
                glue: GlobalPointer::new(glue_or.clone(), pool.clone(), Location::new(1, 1)),
            })
            .collect();
        let rig = Rig {
            ctx,
            executor,
            service,
            gps,
        };
        let first_glue = matches!(w.mix, Mix::FixedGlueEcho { .. });
        for (c, g) in rig.gps.iter().enumerate() {
            let gp = if first_glue { &g.glue } else { &g.plain };
            let token = setup_token(c);
            match call::<_, u64>(gp, PING, &(c as u32, token), false).0 {
                Ok(t) if t == token => {}
                other => {
                    rig.teardown();
                    return Err(format!("set-up ping of client {c} returned {other:?}"));
                }
            }
        }
        Ok(rig)
    }

    fn teardown(self) {
        // Dropping the pointers drops the proto pool, which shuts its mux
        // channels; the server's connection threads then see the hang-up.
        drop(self.gps);
        self.ctx.shutdown();
        self.executor.shutdown();
    }
}

fn setup_token(client: usize) -> u64 {
    0x5E7_0000 + client as u64
}

/// Shared with the client threads: which slice is open (0 is warm-up).
struct Control {
    phase: AtomicUsize,
    trace_run: bool,
    /// Two-way calls completed so far.
    done: AtomicU64,
}

impl Control {
    /// Traced runs stamp every even slice and leave odd ones untraced.
    fn traced(&self, phase: usize) -> bool {
        self.trace_run && phase != 0 && phase.is_multiple_of(2)
    }
}

/// What one client (or, merged, every client) did in one slice.
struct SliceAcc {
    twoways: u64,
    oneways: u64,
    failed: u64,
    payload_bytes: u64,
    /// Round trips of untraced two-way calls, in ns.
    latency: LogHistogram,
}

impl SliceAcc {
    fn new() -> Self {
        Self {
            twoways: 0,
            oneways: 0,
            failed: 0,
            payload_bytes: 0,
            latency: LogHistogram::new(),
        }
    }

    fn merge(&mut self, o: &SliceAcc) {
        self.twoways += o.twoways;
        self.oneways += o.oneways;
        self.failed += o.failed;
        self.payload_bytes += o.payload_bytes;
        self.latency.merge(&o.latency);
    }
}

/// One slice of the window, all clients merged.
struct Slice {
    acc: SliceAcc,
    secs: f64,
    cpu_s: f64,
}

/// A client's record of the run, allocated in full before set-up.
struct ClientRecord {
    /// Index 0 is the warm-up.
    slices: Vec<SliceAcc>,
    ledger: LedgerSums,
    /// Calls issued since set-up (warm-up included) and the wrapping sum
    /// of their ping tokens, to check against what the service counted.
    issued: u64,
    token_sum: u64,
    wrong_replies: u64,
    arg: Vec<i32>,
}

impl ClientRecord {
    fn new(slices: usize, max_len: usize) -> Self {
        Self {
            slices: (0..=slices).map(|_| SliceAcc::new()).collect(),
            ledger: LedgerSums::default(),
            issued: 0,
            token_sum: 0,
            wrong_replies: 0,
            arg: Vec::with_capacity(max_len),
        }
    }
}

/// Runs client `c`'s closed loop until the control says stop.
fn client_loop(
    c: usize,
    w: &Workload,
    seed: u64,
    rig: &Rig,
    base: &[i32],
    ctl: &Control,
    rec: &mut ClientRecord,
) {
    let mut gen = OpGen::new(w.mix, seed, c);
    let g = &rig.gps[c];
    let id = c as u32;
    loop {
        let phase = ctl.phase.load(Ordering::Acquire);
        if phase == STOP {
            return;
        }
        let traced = ctl.traced(phase);
        let op = gen.next_op();
        rec.issued += 1;
        let (ok, stamps, payload) = match op {
            Op::Oneway { token } => {
                rec.token_sum = rec.token_sum.wrapping_add(token);
                let ok = call_oneway(&g.plain, ONEWAY_PING, &(id, token)).is_ok();
                let acc = &mut rec.slices[phase];
                acc.oneways += 1;
                acc.failed += u64::from(!ok);
                acc.payload_bytes += 8;
                continue;
            }
            Op::Ping { glue, token } => {
                rec.token_sum = rec.token_sum.wrapping_add(token);
                if traced {
                    rig.service.arm(c);
                }
                let gp = if glue { &g.glue } else { &g.plain };
                let (r, st) = call::<_, u64>(gp, PING, &(id, token), traced);
                (r.as_ref().is_ok_and(|&t| t == token), st, 16)
            }
            Op::Echo { glue, offset, len } => {
                rec.arg.clear();
                rec.arg.extend_from_slice(&base[offset..offset + len]);
                if traced {
                    rig.service.arm(c);
                }
                let gp = if glue { &g.glue } else { &g.plain };
                let (r, st) = call::<_, Vec<i32>>(gp, ECHO, &(id, &rec.arg), traced);
                (
                    r.as_ref().is_ok_and(|v| v[..] == rec.arg[..]),
                    st,
                    8 * len as u64,
                )
            }
        };
        let acc = &mut rec.slices[phase];
        acc.twoways += 1;
        ctl.done.fetch_add(1, Ordering::Relaxed);
        acc.payload_bytes += payload;
        if !ok {
            acc.failed += 1;
            rec.wrong_replies += 1;
        }
        if traced {
            rec.ledger.add(&stamps, rig.service.take(c));
        } else {
            // A failed call misses every latency limit.
            acc.latency.record(if ok {
                stamps.end - stamps.start
            } else {
                u64::MAX
            });
        }
    }
}

/// Options of one run.
#[derive(Debug, Clone, Copy)]
pub struct RunArgs {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// The outcome of one run.
pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Facts about the run and host, printed before the result line.
    pub record: Vec<(&'static str, String)>,
}

/// Sets up, warms up, measures for `seconds` and checks every reply.
pub fn run(a: &RunArgs) -> Result<Report, String> {
    let w = a.workload;
    let run_secs = a.seconds as f64;
    let max_slices = if a.trace {
        ((run_secs / TRACE_SLICE.as_secs_f64()).round() as usize).max(2) & !1
    } else {
        ((run_secs / SLICE.as_secs_f64()) as usize).max(MIN_SLICES)
    };

    // Inputs and every sampler buffer exist before set-up starts.
    let base = base_array(a.seed, w.mix.base_len());
    let mut records: Vec<ClientRecord> = (0..w.clients)
        .map(|_| ClientRecord::new(max_slices, w.mix.max_len()))
        .collect();

    let heap_before_setup = heap::live();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        if let Some(old) = rig.take() {
            Rig::teardown(old);
        }
        let t0 = Instant::now();
        let built = Rig::build(&w, a.trace)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        rig = Some(built);
    }
    let rig = rig.ok_or("no set-up ran")?;

    let ctl = Control {
        phase: AtomicUsize::new(0),
        trace_run: a.trace,
        done: AtomicU64::new(0),
    };
    let mut bounds: Vec<(Instant, f64)> = Vec::with_capacity(max_slices + 1);
    let mut slices = max_slices;
    let mut before = Counters::default();
    let mut threads = 0;
    let mut steal_before = (0, 0);
    std::thread::scope(|s| {
        for (c, rec) in records.iter_mut().enumerate() {
            let (rig, base, ctl) = (&rig, &base[..], &ctl);
            s.spawn(move || client_loop(c, &w, a.seed, rig, base, ctl, rec));
        }
        std::thread::sleep(WARMUP);
        if !a.trace {
            let rate = ctl.done.load(Ordering::Relaxed) as f64 / WARMUP.as_secs_f64();
            let len = SLICE.as_secs_f64().max(SLICE_CALLS / rate.max(1.0));
            slices = ((run_secs / len) as usize).clamp(MIN_SLICES, max_slices);
        }
        let slice_len = Duration::from_secs(a.seconds) / slices as u32;
        before = Counters::capture();
        heap::reset_peak();
        steal_before = sys::steal_ticks();
        let start = Instant::now();
        for k in 1..=slices {
            bounds.push((Instant::now(), sys::cpu_s()));
            ctl.phase.store(k, Ordering::Release);
            if k == slices / 2 {
                threads = sys::status_field("Threads").unwrap_or(0);
            }
            if let Some(left) =
                (start + slice_len * k as u32).checked_duration_since(Instant::now())
            {
                std::thread::sleep(left);
            }
        }
        bounds.push((Instant::now(), sys::cpu_s()));
        ctl.phase.store(STOP, Ordering::Release);
    });
    let layers = Counters::capture().since(&before);
    let steal_after = sys::steal_ticks();
    let steal_pct = 100.0 * (steal_after.0.saturating_sub(steal_before.0)) as f64
        / (steal_after.1.saturating_sub(steal_before.1)).max(1) as f64;
    let heap_peak = heap::peak() - heap_before_setup;

    // Every call, one-ways included, must have reached the service: a
    // two-way is answered only after the one-ways sent before it.
    let issued: u64 = records.iter().map(|r| r.issued).sum::<u64>() + w.clients as u64;
    let token_sum = records.iter().fold(
        (0..w.clients)
            .map(setup_token)
            .fold(0u64, u64::wrapping_add),
        |s, r| s.wrapping_add(r.token_sum),
    );
    let served = call::<_, (u64, u64)>(&rig.gps[0].plain, SERVED, &(), false).0;
    let served_ok = served
        .as_ref()
        .is_ok_and(|&(n, sum)| n == issued && sum == token_sum);
    let lost = match served {
        Ok((n, _)) => issued.abs_diff(n),
        Err(_) => 1,
    };
    let peak_rss_kib = sys::status_field("VmHWM").unwrap_or(0);
    rig.teardown();

    // Per-slice totals across clients; slice k ran between bounds k-1 and k.
    let per_slice: Vec<Slice> = (1..=slices)
        .map(|k| {
            let mut acc = SliceAcc::new();
            for r in &records {
                acc.merge(&r.slices[k]);
            }
            let secs = bounds[k].0.duration_since(bounds[k - 1].0).as_secs_f64();
            Slice {
                acc,
                secs,
                cpu_s: bounds[k].1 - bounds[k - 1].1,
            }
        })
        .collect();
    let attempted: u64 = per_slice
        .iter()
        .map(|s| s.acc.twoways + s.acc.oneways)
        .sum();
    let failed = per_slice.iter().map(|s| s.acc.failed).sum::<u64>()
        + if served_ok { 0 } else { lost.max(1) };
    let wrong: u64 = records.iter().map(|r| r.wrong_replies).sum();
    let mut ledger_sums = LedgerSums::default();
    for r in &records {
        ledger_sums.merge(&r.ledger);
    }
    let pick = |traced: bool| -> Vec<&Slice> {
        per_slice
            .iter()
            .enumerate()
            .filter(|(i, _)| ctl.traced(i + 1) == traced)
            .map(|(_, s)| s)
            .collect()
    };
    let untraced = pick(false);
    let latency_samples: u64 = untraced.iter().map(|s| s.acc.latency.count()).sum();

    let mut correct = wrong == 0 && served_ok && failed == 0;
    let mut record = vec![
        ("workload", w.name.to_string()),
        ("seed", a.seed.to_string()),
        ("seconds", a.seconds.to_string()),
        ("trace", u8::from(a.trace).to_string()),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(0, |n| n.get())
                .to_string(),
        ),
        (
            "default_workers",
            ohpc_runtime::default_workers().to_string(),
        ),
        ("fabric", format!("{:?}", w.fabric).to_lowercase()),
        ("link", "loopback, not a real link".into()),
        // Stolen time comes and goes on a shared host and moves every
        // timing; it is recorded so a reader can tell a noisy run.
        ("host_steal_pct", format!("{steal_pct:.1}")),
        ("malloc_mmap_threshold", sys::MMAP_THRESHOLD.to_string()),
        ("malloc_trim_threshold", sys::TRIM_THRESHOLD.to_string()),
        ("clients", format!("{} closed-loop", w.clients)),
        ("setups", SETUPS.to_string()),
        ("slices", slices.to_string()),
        ("latency_samples", latency_samples.to_string()),
        ("latency_relative_error", MAX_RELATIVE_ERROR.to_string()),
        (
            "slice_calls_per_s",
            per_slice
                .iter()
                .map(|s| format!("{:.0}", s.acc.twoways as f64 / s.secs))
                .collect::<Vec<_>>()
                .join(" "),
        ),
        (
            "served_check",
            if served_ok {
                "ok".into()
            } else {
                format!("{served:?} vs issued {issued}")
            },
        ),
    ];

    let metrics = if a.trace {
        let l: Ledger = ledger_sums.ledger();
        correct &= l.closes();
        record.push(("ledger_calls", l.calls.to_string()));
        record.push((
            "ledger_closes",
            format!(
                "{} (tolerance {CLOSURE_TOLERANCE} of the round trip)",
                l.closes()
            ),
        ));
        let rate = |sel: &[&Slice]| {
            let (calls, secs) = sel
                .iter()
                .fold((0, 0.0), |(c, t), s| (c + s.acc.twoways, t + s.secs));
            calls as f64 / secs
        };
        let overhead = 1.0 - rate(&pick(true)) / rate(&untraced);
        let payload: u64 = per_slice.iter().map(|s| s.acc.payload_bytes).sum();
        let mut m = l.metrics();
        m.extend(layers.metrics(attempted, payload));
        m.push(metric("runtime.threads", threads as f64, "count"));
        m.push(metric(
            "process.peak_rss_mib",
            peak_rss_kib as f64 / 1024.0,
            "MiB",
        ));
        m.push(metric("trace.overhead_pct", overhead * 100.0, "%"));
        m.push(metric(
            "failed_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ));
        m
    } else {
        // Contention from outside the process only ever slows a slice, so
        // each metric is read at the decile of its slices nearest the
        // undisturbed system: the 90th percentile of rates, the 10th of
        // costs and latencies. A decile, not the extreme, so that no single
        // lucky slice sets it.
        let best = |higher_better: bool, f: &dyn Fn(&Slice) -> f64| {
            quantile(
                untraced.iter().map(|s| f(s)).collect(),
                if higher_better { 1.0 - BEST } else { BEST },
            )
        };
        let hists: Vec<&LogHistogram> = untraced.iter().map(|s| &s.acc.latency).collect();
        let pct = |q: f64| {
            let groups = group_percentiles(&hists, q);
            (!groups.is_empty()).then(|| quantile(groups, BEST) / 1e3)
        };
        let (Some(p50), Some(p99)) = (pct(0.5), pct(0.99)) else {
            return Err(format!(
                "{latency_samples} latency samples leave fewer than 10 beyond p99; run longer"
            ));
        };
        vec![
            metric(
                "calls_per_s",
                best(true, &|s| s.acc.twoways as f64 / s.secs),
                "1/s",
            ),
            metric("p50_us", p50, "us"),
            metric("p99_us", p99, "us"),
            metric(
                "goodput_mib_s",
                best(true, &|s| {
                    s.acc.payload_bytes as f64 / s.secs / (1 << 20) as f64
                }),
                "MiB/s",
            ),
            metric(
                "cpu_us_per_call",
                best(false, &|s| {
                    s.cpu_s * 1e6 / (s.acc.twoways + s.acc.oneways).max(1) as f64
                }),
                "us",
            ),
            metric("peak_heap_mib", heap_peak as f64 / (1 << 20) as f64, "MiB"),
            metric("setup_s", quantile(setup_s, 0.5), "s"),
        ]
    };
    correct &= metrics.iter().all(|m| m.value.is_finite());
    Ok(Report {
        correct,
        attempted,
        failed,
        metrics,
        record,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_runs_alternate_slices() {
        let ctl = Control {
            phase: AtomicUsize::new(0),
            trace_run: true,
            done: AtomicU64::new(0),
        };
        assert!(!ctl.traced(0) && !ctl.traced(1) && ctl.traced(2) && !ctl.traced(3));
        let ctl = Control {
            phase: AtomicUsize::new(0),
            trace_run: false,
            done: AtomicU64::new(0),
        };
        assert!((0..10).all(|p| !ctl.traced(p)));
    }
}
