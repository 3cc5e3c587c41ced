//! `orbbench`: closed-loop remote-method-invocation benchmark of the ORB.
//!
//! ```text
//! cargo run --release --manifest-path orbbench/Cargo.toml -- \
//!     --workload small-rpc|bulk-array|tcp-glue --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics, with `--trace 1` the
//! per-layer ledger and layer counters (see README.md). The last line of
//! standard output is one JSON object; the line before it records the seed
//! and host. The exit code is non-zero if any reply was wrong, any call
//! failed or was lost, or the traced ledger does not close.

mod gen;
mod heap;
mod hist;
mod ledger;
mod run;
mod service;
mod sys;

use run::{RunArgs, WORKLOADS};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

const USAGE: &str =
    "usage: orbbench --workload <small-rpc|bulk-array|tcp-glue> --seed <n> --seconds <s> --trace <0|1>";

fn parse(mut it: impl Iterator<Item = String>) -> Result<RunArgs, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: std::num::ParseIntError| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    *WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or(format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=600"));
    }
    Ok(RunArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() {
    sys::pin_malloc_thresholds();
    // Pin the clock base before any stamp is taken.
    service::now_ns();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("orbbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    // A call that never returns would hang the closed loop; end the run
    // with an error well before a caller's patience runs out.
    let limit = std::time::Duration::from_secs(args.seconds + 60);
    std::thread::spawn(move || {
        std::thread::sleep(limit);
        eprintln!("orbbench: still running after {limit:?}; a call hung");
        std::process::exit(1);
    });
    let report = match run::run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("orbbench: {e}");
            std::process::exit(1);
        }
    };
    let record: Vec<String> = report
        .record
        .iter()
        .map(|(k, v)| format!("{}: {}", json_str(k), json_str(v)))
        .collect();
    println!("{{\"run\": {{{}}}}}", record.join(", "));
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_str(m.name),
                m.value,
                json_str(m.unit)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(", ")
    );
    if !report.correct {
        eprintln!("orbbench: run failed its correctness checks");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<RunArgs, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_the_command_line() {
        let a = args("--workload tcp-glue --seed 7 --seconds 20 --trace 1").unwrap();
        assert_eq!(
            (a.workload.name, a.seed, a.seconds, a.trace),
            ("tcp-glue", 7, 20, true)
        );
        assert!(args("--workload nope --seed 1 --seconds 1 --trace 0").is_err());
        assert!(args("--workload small-rpc --seed 1 --seconds 0 --trace 0").is_err());
        assert!(args("--workload small-rpc --seed 1 --seconds 1 --trace 2").is_err());
        assert!(args("--workload small-rpc --seconds 1").is_err());
        assert!(args("--workload").is_err());
    }

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
    }
}
