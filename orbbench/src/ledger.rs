//! The per-layer ledger of a round trip, and the layer counters read from
//! the program's own always-on instruments.
//!
//! A traced two-way call is cut at five boundaries the benchmark stamps
//! itself: stub encode, `GlobalPointer::invoke` entry to `dispatch` entry
//! (the request leg: orb, caps, transport, runtime), the server's decode and
//! encode inside `dispatch`, `dispatch` exit to `invoke` return (the reply
//! leg) and stub decode. The parts are disjoint sub-intervals of the round
//! trip, so their sum never exceeds it; what is left over is reported as
//! `ledger.unattributed_us` and must stay within [`CLOSURE_TOLERANCE`].

use ohpc_telemetry::{Snapshot, TraceBuffer, Value};

use crate::service::{ClientStamps, ServerStamps};

/// Largest share of the mean round trip the five parts may leave
/// unattributed (the method body and clock reads) for the ledger to close.
pub const CLOSURE_TOLERANCE: f64 = 0.05;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Builds a [`Metric`].
pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Nanosecond sums of the ledger parts over traced two-way calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LedgerSums {
    pub calls: u64,
    /// Calls whose stamps were missing or out of causal order.
    pub invalid: u64,
    pub round_trip: u64,
    pub encode: u64,
    pub request_leg: u64,
    pub server_codec: u64,
    pub reply_leg: u64,
    pub decode: u64,
}

impl LedgerSums {
    /// Adds one traced call. Stamps out of causal order (or a server that
    /// never stamped) count as invalid and fail the closure check.
    pub fn add(&mut self, c: &ClientStamps, s: Option<ServerStamps>) {
        let Some(s) = s else {
            self.invalid += 1;
            return;
        };
        let ordered = c.start <= c.invoke_in
            && c.invoke_in <= s.dispatch_in
            && s.dispatch_in + s.codec_ns <= s.dispatch_out
            && s.dispatch_out <= c.invoke_out
            && c.invoke_out <= c.end;
        if !ordered {
            self.invalid += 1;
            return;
        }
        self.calls += 1;
        self.round_trip += c.end - c.start;
        self.encode += c.invoke_in - c.start;
        self.request_leg += s.dispatch_in - c.invoke_in;
        self.server_codec += s.codec_ns;
        self.reply_leg += c.invoke_out - s.dispatch_out;
        self.decode += c.end - c.invoke_out;
    }

    /// Adds another client's sums.
    pub fn merge(&mut self, o: &LedgerSums) {
        self.calls += o.calls;
        self.invalid += o.invalid;
        self.round_trip += o.round_trip;
        self.encode += o.encode;
        self.request_leg += o.request_leg;
        self.server_codec += o.server_codec;
        self.reply_leg += o.reply_leg;
        self.decode += o.decode;
    }

    /// Mean per call of every part, in µs.
    pub fn ledger(&self) -> Ledger {
        let mean = |ns: u64| {
            if self.calls == 0 {
                0.0
            } else {
                ns as f64 / self.calls as f64 / 1e3
            }
        };
        let parts = [
            self.encode,
            self.request_leg,
            self.server_codec,
            self.reply_leg,
            self.decode,
        ];
        let attributed: u64 = parts.iter().sum();
        Ledger {
            round_trip_us: mean(self.round_trip),
            encode_us: mean(self.encode),
            request_leg_us: mean(self.request_leg),
            server_codec_us: mean(self.server_codec),
            reply_leg_us: mean(self.reply_leg),
            decode_us: mean(self.decode),
            unattributed_us: mean(self.round_trip) - mean(attributed),
            calls: self.calls,
            invalid: self.invalid,
        }
    }
}

/// Mean round trip of traced calls and its five parts, in µs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ledger {
    pub round_trip_us: f64,
    pub encode_us: f64,
    pub request_leg_us: f64,
    pub server_codec_us: f64,
    pub reply_leg_us: f64,
    pub decode_us: f64,
    pub unattributed_us: f64,
    pub calls: u64,
    pub invalid: u64,
}

impl Ledger {
    /// Whether the parts account for the round trip within
    /// [`CLOSURE_TOLERANCE`], from calls whose stamps were all valid.
    pub fn closes(&self) -> bool {
        self.calls > 0
            && self.invalid == 0
            && self.unattributed_us >= 0.0
            && self.unattributed_us <= CLOSURE_TOLERANCE * self.round_trip_us
    }

    /// The ledger rows, named as the benchmark reports them.
    pub fn metrics(&self) -> Vec<Metric> {
        vec![
            metric("ledger.round_trip_us", self.round_trip_us, "us"),
            metric("xdr.encode_us", self.encode_us, "us"),
            metric("orb.request_leg_us", self.request_leg_us, "us"),
            metric("xdr.server_codec_us", self.server_codec_us, "us"),
            metric("orb.reply_leg_us", self.reply_leg_us, "us"),
            metric("xdr.decode_us", self.decode_us, "us"),
            metric("ledger.unattributed_us", self.unattributed_us, "us"),
        ]
    }
}

/// Totals of the program's always-on instruments the per-layer metrics are
/// read from. Histograms contribute `(sum, count)`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    pub cap_process: (u64, u64),
    pub cap_unprocess: (u64, u64),
    pub server_request: (u64, u64),
    pub demux_wait: (u64, u64),
    pub selection_hits: u64,
    pub selection_lookups: u64,
    pub send_frames: u64,
    pub send_bytes: u64,
    pub tasks: u64,
    pub parks: u64,
    pub steals: u64,
    pub lifo_hits: u64,
    pub shed: u64,
    pub retries: u64,
    pub spans_recorded: u64,
    pub spans_dropped: u64,
}

fn hist_total(snap: &Snapshot, name: &str) -> (u64, u64) {
    snap.samples
        .iter()
        .filter(|s| s.name == name)
        .fold((0, 0), |(sum, count), s| match &s.value {
            Value::Histogram(h) => (sum + h.sum, count + h.count),
            _ => (sum, count),
        })
}

impl Counters {
    /// Reads the totals out of a registry snapshot plus the flight
    /// recorder's span counts.
    pub fn from_snapshot(snap: &Snapshot, spans_recorded: u64, spans_dropped: u64) -> Self {
        Self {
            cap_process: hist_total(snap, "orb_cap_process_ns"),
            cap_unprocess: hist_total(snap, "orb_cap_unprocess_ns"),
            server_request: hist_total(snap, "orb_request_ns"),
            demux_wait: hist_total(snap, "mux_demux_wait_ns"),
            selection_hits: snap
                .counter("orb_selection_cache_total", &[("outcome", "hit")])
                .unwrap_or(0),
            selection_lookups: snap.counter_total("orb_selection_cache_total"),
            send_frames: snap.counter_total("transport_send_frames_total"),
            send_bytes: snap.counter_total("transport_send_bytes_total"),
            tasks: snap.counter_total("runtime_tasks_total"),
            parks: snap.counter_total("runtime_parks_total"),
            steals: snap.counter_total("runtime_steals_total"),
            lifo_hits: snap.counter_total("runtime_lifo_hits_total"),
            shed: snap.counter_total("orb_overload_shed_total")
                + snap.counter_total("orb_deadline_shed_total")
                + snap.counter_total("orb_oneway_shed_total"),
            retries: snap.counter_total("resilience_retries_total"),
            spans_recorded,
            spans_dropped,
        }
    }

    /// The process-wide totals right now.
    pub fn capture() -> Self {
        let rec = TraceBuffer::global();
        Self::from_snapshot(
            &ohpc_telemetry::Registry::global().snapshot(),
            rec.recorded(),
            rec.dropped(),
        )
    }

    /// What accumulated between `earlier` and `self`.
    pub fn since(&self, earlier: &Counters) -> Counters {
        let d = |a: u64, b: u64| a.saturating_sub(b);
        let dh = |a: (u64, u64), b: (u64, u64)| (d(a.0, b.0), d(a.1, b.1));
        Counters {
            cap_process: dh(self.cap_process, earlier.cap_process),
            cap_unprocess: dh(self.cap_unprocess, earlier.cap_unprocess),
            server_request: dh(self.server_request, earlier.server_request),
            demux_wait: dh(self.demux_wait, earlier.demux_wait),
            selection_hits: d(self.selection_hits, earlier.selection_hits),
            selection_lookups: d(self.selection_lookups, earlier.selection_lookups),
            send_frames: d(self.send_frames, earlier.send_frames),
            send_bytes: d(self.send_bytes, earlier.send_bytes),
            tasks: d(self.tasks, earlier.tasks),
            parks: d(self.parks, earlier.parks),
            steals: d(self.steals, earlier.steals),
            lifo_hits: d(self.lifo_hits, earlier.lifo_hits),
            shed: d(self.shed, earlier.shed),
            retries: d(self.retries, earlier.retries),
            spans_recorded: d(self.spans_recorded, earlier.spans_recorded),
            spans_dropped: d(self.spans_dropped, earlier.spans_dropped),
        }
    }

    /// Per-layer metrics of a window in which `calls` operations (two-way
    /// and one-way) carried `payload_bytes` of application data.
    pub fn metrics(&self, calls: u64, payload_bytes: u64) -> Vec<Metric> {
        let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
        let per_call = |a: u64| ratio(a, calls);
        let mean = |h: (u64, u64)| ratio(h.0, h.1);
        vec![
            metric(
                "caps.process_ns_per_call",
                per_call(self.cap_process.0),
                "ns",
            ),
            metric(
                "caps.unprocess_ns_per_call",
                per_call(self.cap_unprocess.0),
                "ns",
            ),
            metric("caps.hops_per_call", per_call(self.cap_process.1), "count"),
            metric("orb.server_request_ns", mean(self.server_request), "ns"),
            metric(
                "orb.selection_cache_hit_ratio",
                ratio(self.selection_hits, self.selection_lookups),
                "ratio",
            ),
            metric("mux.demux_wait_ns", mean(self.demux_wait), "ns"),
            metric(
                "transport.frames_per_call",
                per_call(self.send_frames),
                "count",
            ),
            metric("transport.bytes_per_call", per_call(self.send_bytes), "B"),
            metric(
                "transport.useful_byte_ratio",
                ratio(payload_bytes, self.send_bytes),
                "ratio",
            ),
            metric("runtime.tasks_per_call", per_call(self.tasks), "count"),
            metric("runtime.parks_per_call", per_call(self.parks), "count"),
            metric("runtime.steals_per_call", per_call(self.steals), "count"),
            metric(
                "runtime.lifo_hit_ratio",
                ratio(self.lifo_hits, self.tasks),
                "ratio",
            ),
            metric(
                "telemetry.recorder_spans_per_call",
                per_call(self.spans_recorded),
                "count",
            ),
            metric(
                "telemetry.recorder_dropped_ratio",
                ratio(self.spans_dropped, self.spans_recorded + self.spans_dropped),
                "ratio",
            ),
            metric("orb.shed_total", self.shed as f64, "count"),
            metric("resilience.retries_total", self.retries as f64, "count"),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ohpc_telemetry::{HistogramSnapshot, Sample};

    fn stamps(start: u64, parts: [u64; 6]) -> (ClientStamps, ServerStamps) {
        // parts: encode, request leg, codec, body, reply leg, decode
        let invoke_in = start + parts[0];
        let dispatch_in = invoke_in + parts[1];
        let dispatch_out = dispatch_in + parts[2] + parts[3];
        let invoke_out = dispatch_out + parts[4];
        let end = invoke_out + parts[5];
        (
            ClientStamps {
                start,
                invoke_in,
                invoke_out,
                end,
            },
            ServerStamps {
                dispatch_in,
                codec_ns: parts[2],
                dispatch_out,
            },
        )
    }

    #[test]
    fn parts_sum_to_the_round_trip_minus_the_body() {
        let mut sums = LedgerSums::default();
        let (c, s) = stamps(1_000, [2_000, 10_000, 3_000, 500, 9_000, 1_000]);
        sums.add(&c, Some(s));
        let (c, s) = stamps(90_000, [4_000, 20_000, 5_000, 500, 11_000, 3_000]);
        sums.add(&c, Some(s));
        let l = sums.ledger();
        assert_eq!(l.calls, 2);
        assert_eq!(l.encode_us, 3.0);
        assert_eq!(l.request_leg_us, 15.0);
        assert_eq!(l.server_codec_us, 4.0);
        assert_eq!(l.reply_leg_us, 10.0);
        assert_eq!(l.decode_us, 2.0);
        assert_eq!(l.round_trip_us, 34.5);
        assert!(
            (l.unattributed_us - 0.5).abs() < 1e-9,
            "only the body is left over"
        );
        assert!(l.closes(), "0.5 of 34.5 µs is within {CLOSURE_TOLERANCE}");
    }

    #[test]
    fn a_large_remainder_or_a_bad_stamp_fails_closure() {
        let mut sums = LedgerSums::default();
        let (c, s) = stamps(0, [1_000, 1_000, 1_000, 10_000, 1_000, 1_000]);
        sums.add(&c, Some(s));
        assert!(!sums.ledger().closes(), "10 of 15 µs unattributed");

        let mut sums = LedgerSums::default();
        let (c, s) = stamps(0, [1_000, 1_000, 1_000, 0, 1_000, 1_000]);
        sums.add(&c, Some(s));
        assert!(sums.ledger().closes());
        let (mut c, s) = stamps(0, [1_000, 1_000, 1_000, 0, 1_000, 1_000]);
        c.invoke_in = s.dispatch_in + 1; // server stamped before the invoke began
        sums.add(&c, Some(s));
        sums.add(&c, None);
        let l = sums.ledger();
        assert_eq!((l.calls, l.invalid), (1, 2));
        assert!(!l.closes(), "invalid stamps must fail the check");
        assert!(
            !LedgerSums::default().ledger().closes(),
            "no traced calls, no ledger"
        );
    }

    #[test]
    fn merge_adds_fieldwise() {
        let mut a = LedgerSums::default();
        let (c, s) = stamps(0, [1, 2, 3, 0, 4, 5]);
        a.add(&c, Some(s));
        let mut b = a;
        b.merge(&a);
        assert_eq!(b.calls, 2);
        assert_eq!(b.round_trip, 2 * a.round_trip);
        assert_eq!(b.ledger().encode_us, a.ledger().encode_us);
    }

    fn hist(name: &str, labels: &[(&str, &str)], sum: u64, count: u64) -> Sample {
        Sample {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: Value::Histogram(HistogramSnapshot {
                bounds: vec![],
                buckets: vec![count],
                sum,
                count,
                exemplar: None,
            }),
        }
    }

    fn counter(name: &str, labels: &[(&str, &str)], v: u64) -> Sample {
        Sample {
            name: name.into(),
            labels: labels
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            value: Value::Counter(v),
        }
    }

    #[test]
    fn counter_deltas_and_per_call_metrics() {
        let before = Snapshot {
            samples: vec![
                hist(
                    "orb_cap_process_ns",
                    &[("cap", "timeout"), ("dir", "req")],
                    1_000,
                    10,
                ),
                counter("orb_selection_cache_total", &[("outcome", "hit")], 5),
                counter("orb_selection_cache_total", &[("outcome", "miss")], 2),
                counter("transport_send_bytes_total", &[("fabric", "mem")], 100),
                counter("runtime_tasks_total", &[("pool", "a")], 10),
            ],
        };
        let after = Snapshot {
            samples: vec![
                hist(
                    "orb_cap_process_ns",
                    &[("cap", "timeout"), ("dir", "req")],
                    3_000,
                    20,
                ),
                hist(
                    "orb_cap_process_ns",
                    &[("cap", "timeout"), ("dir", "reply")],
                    4_000,
                    20,
                ),
                counter("orb_selection_cache_total", &[("outcome", "hit")], 95),
                counter("orb_selection_cache_total", &[("outcome", "miss")], 2),
                counter("transport_send_bytes_total", &[("fabric", "mem")], 1_100),
                counter("runtime_tasks_total", &[("pool", "a")], 30),
                counter("runtime_tasks_total", &[("pool", "b")], 10),
                counter("runtime_lifo_hits_total", &[("pool", "a")], 15),
            ],
        };
        let d =
            Counters::from_snapshot(&after, 50, 0).since(&Counters::from_snapshot(&before, 10, 0));
        assert_eq!(d.cap_process, (6_000, 30));
        assert_eq!((d.selection_hits, d.selection_lookups), (90, 90));
        assert_eq!(d.tasks, 30);
        let m = d.metrics(10, 250);
        let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
        assert_eq!(get("caps.process_ns_per_call"), Some(600.0));
        assert_eq!(get("caps.hops_per_call"), Some(3.0));
        assert_eq!(get("orb.selection_cache_hit_ratio"), Some(1.0));
        assert_eq!(get("transport.bytes_per_call"), Some(100.0));
        assert_eq!(get("transport.useful_byte_ratio"), Some(0.25));
        assert_eq!(get("runtime.tasks_per_call"), Some(3.0));
        assert_eq!(get("runtime.lifo_hit_ratio"), Some(0.5));
        assert_eq!(get("telemetry.recorder_spans_per_call"), Some(4.0));
        assert_eq!(
            get("mux.demux_wait_ns"),
            Some(0.0),
            "no observations, no NaN"
        );
        assert!(m.iter().all(|x| x.value.is_finite()));
    }
}
