//! The FilterForward node benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <hd_2cam|fleet_200> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics for `--seconds`
//! seconds with all tracing off; with `--trace 1` it makes a separate
//! traced run that times each layer from outside, through the layer's
//! public functions. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed` and `metrics`. Every
//! output the program produces is checked — node verdicts against the
//! serial gold, fleet ledgers for conservation — and a failed check makes
//! `correct` false.
//!
//! The node is driven only through `EdgeNode::run_controlled` and the
//! cloud tier only through `Fleet::run`; see `workload.rs` for why each
//! workload exists and which layer it loads.

mod fleet;
mod node;
mod profile;
mod report;
mod rounds;
mod stats;
mod workload;

use std::process::ExitCode;

use report::{Metrics, Tally};
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(workload::by_name(&value).ok_or_else(|| {
                    format!("unknown workload {value:?}; one of {:?}", workload::NAMES)
                })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(format!("--seconds must be positive, got {value}"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("worker budget: {budget} (available_parallelism)");

    let (mut metrics, tally): (Metrics, Tally) = match (args.workload, args.trace) {
        (Workload::Node(w), false) => node::end_to_end(w, args.seed, args.seconds, budget),
        (Workload::Node(w), true) => node::traced(w, args.seed, budget),
        (Workload::Fleet(w), false) => fleet::end_to_end(w, args.seed, args.seconds),
        (Workload::Fleet(w), true) => fleet::traced(w, args.seed, budget),
    };
    let names: Vec<(String, &str)> = if args.trace {
        let layers = report::per_layer();
        // A layer the workload does not run did no work: report it as 0.
        for (name, _) in &layers {
            let absent = match args.workload {
                Workload::Node(_) => !report::node_only(name) && !name.starts_with("obs."),
                Workload::Fleet(_) => report::node_only(name),
            };
            if absent {
                metrics.set(name, 0.0);
            }
        }
        layers
    } else {
        metrics.set("verified_frac", tally.verified_frac());
        report::END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u))
            .collect()
    };
    if tally.failed > 0 {
        eprintln!(
            "perfbench: {} of {} checks failed",
            tally.failed, tally.attempted
        );
    }
    println!("{}", report::result_line(tally, &metrics, &names));
    ExitCode::SUCCESS
}
