//! The fleet workload: 200 simulated edge nodes against one cloud hub,
//! driven through `Fleet::run` under the fleet chaos script.
//!
//! A fleet run is pure virtual time and replays bit for bit, so every
//! timed run is also checked against the first: same report, a conserving
//! ledger, and no segment delivered to a subscriber twice.
//!
//! One fleet run lasts about 10–50 ms and its wall time follows the host:
//! on a shared 2-vCPU x86-64 VM the runs fall into an uncontended mode and
//! a contended one about 1.5× slower, and the host moves between them
//! every few seconds, so the median run lies between the modes and moves
//! with the share of time spent in each. The typical run is therefore the
//! median of the uncontended mode (`stats::uncontended_median`) and gives
//! `round_ms_p50`, `frames_per_s` and `segments_per_s`. A fleet shows no
//! single round's time from outside, so its round time is a run's time
//! divided by its rounds.
//! Set-up is timed over batches of `Fleet::new` calls, since one call
//! takes only tens of microseconds, and is the batches' uncontended
//! median too.

use std::time::Instant;

use ff_core::faults::FleetFaultPlan;
use ff_core::fleet::{Fleet, FleetConfig, FleetReport};
use ff_core::hub::{Admit, CloudHub, EventSegment, McVersion, NodeId};
use ff_core::query::Query;
use ff_core::McId;
use ff_obs::{Registry, Span};

use crate::report::{self, digest, Metrics, Tally};
use crate::stats;
use crate::workload::{derive, FleetWorkload, TAG_FLEET};

/// Interleaved untraced / traced fleet runs in the traced invocation.
const OBS_PAIRS: usize = 9;
/// Replays of the recorded arrival stream into a fresh hub.
const HUB_REPLAYS: usize = 9;
/// Hub shards of the sharded replay in the traced invocation.
const SHARDED: usize = 2;
/// Timed runs at the least, so that the uncontended mode is found.
const MIN_RUNS: usize = 200;
/// `Fleet::new` calls timed together as one set-up sample.
const SETUP_BATCH: usize = 32;
/// Set-up samples; `setup_s` is their uncontended median.
const SETUP_SAMPLES: usize = 45;
/// Hub ingest shards of the timed runs. With two, `CloudHub::ingest_sharded`
/// spawns scoped threads every round, which on a two-core box triples a
/// round's cost and ties it to the host's scheduler, so the run-to-run
/// spread exceeded any usable bound. The traced invocation still times the
/// two-shard ingest (`hub.sharded_ingest_ns_per_segment`).
const HUB_SHARDS: usize = 1;

fn config(w: &FleetWorkload, seed: u64) -> FleetConfig {
    FleetConfig {
        nodes: w.nodes,
        rounds: w.rounds,
        seed: derive(seed, TAG_FLEET, 0),
        shards: HUB_SHARDS,
        faults: FleetFaultPlan::new()
            .node_crash(3, 60, 20)
            .dup_storm(120, 30, 1)
            .message_loss(40, 30, 0.2),
        subscriptions: vec![Query::mc(McId(0)).or(Query::mc(McId(1)))],
        ..Default::default()
    }
}

/// Checks one report: the ledger conserves and nothing reached a
/// subscriber twice. The fleet loop settles every segment still in flight
/// after its last round as a drop; with the spill park never used
/// (`spilled == 0`) that settle is the only way a segment can drop, so
/// drops are counted as failures only when something was spilled.
fn check(r: &FleetReport, first: &FleetReport, tally: &mut Tally) {
    let l = &r.ledger;
    let mut failed = r.double_deliveries;
    if !l.conserves() {
        failed += l.offered.saturating_sub(l.accounted()).max(1);
    }
    if l.spilled > 0 {
        failed += l.dropped;
    }
    if r != first {
        eprintln!("fleet run did not replay the first run bit for bit");
        failed += 1;
    }
    tally.add(l.offered, failed);
}

/// Measures the end-to-end metrics for `seconds` seconds.
pub fn end_to_end(w: FleetWorkload, seed: u64, seconds: f64) -> (Metrics, Tally) {
    let cfg = config(&w, seed);
    let mut tally = Tally::default();

    let setup: Vec<f64> = (0..SETUP_SAMPLES)
        .map(|_| {
            let configs = vec![cfg.clone(); SETUP_BATCH];
            let t = Instant::now();
            let fleets: Vec<Fleet> = configs
                .into_iter()
                .map(|c| Fleet::new(c).expect("valid fleet config"))
                .collect();
            let s = t.elapsed().as_secs_f64() / SETUP_BATCH as f64;
            drop(fleets);
            s
        })
        .collect();

    let held_mb = report::reset_peak_rss();
    let mut wall = Vec::new();
    let mut first: Option<FleetReport> = None;
    let mut ingested = 0u64;
    let start = Instant::now();
    while wall.len() < MIN_RUNS || start.elapsed().as_secs_f64() < seconds {
        let fleet = Fleet::new(cfg.clone()).expect("valid fleet config");
        let t = Instant::now();
        let r = fleet.run();
        wall.push(t.elapsed().as_secs_f64());
        let first = first.get_or_insert_with(|| r.clone());
        check(&r, first, &mut tally);
        ingested = r.accepted + r.dup_hits + r.out_of_window;
    }
    let peak_mb = report::peak_rss_mb();
    let r = first.expect("at least one run");
    println!(
        "{} seed {seed}: {} timed runs, ledger {}, report digest {:016x}",
        w.name,
        wall.len(),
        r.ledger,
        digest([format!("{r:?}")])
    );
    let typical = stats::uncontended_median(&wall);
    println!(
        "{}: typical run {:.3} ms, median run {:.3} ms",
        w.name,
        typical * 1e3,
        stats::median(&wall) * 1e3
    );
    let mut m = Metrics::default();
    m.set("frames_per_s", (w.nodes as u64 * w.rounds) as f64 / typical);
    m.set("round_ms_p50", typical * 1e3 / w.rounds as f64);
    m.set("segments_per_s", ingested as f64 / typical);
    m.set("setup_s", stats::uncontended_median(&setup));
    m.set("peak_rss_mb", peak_mb - held_mb);
    (m, tally)
}

/// The traced invocation: interleaved untraced/traced runs for the obs
/// overhead, then the hub's ingest replayed from the traced run's spans.
pub fn traced(w: FleetWorkload, seed: u64, budget: usize) -> (Metrics, Tally) {
    let cfg = config(&w, seed);
    let mut tally = Tally::default();
    let first = Fleet::new(cfg.clone()).expect("valid fleet config").run();
    let mut plain_wall = Vec::new();
    let mut spans: Vec<Span> = Vec::new();
    let mut traced_reports = Vec::new();
    let overhead = stats::paired_ratio(
        OBS_PAIRS,
        || {
            let fleet = Fleet::new(cfg.clone()).expect("valid fleet config");
            let t = Instant::now();
            let r = fleet.run();
            let s = t.elapsed().as_secs_f64();
            plain_wall.push((s, r));
            s
        },
        || {
            let mut fleet = Fleet::new(cfg.clone()).expect("valid fleet config");
            fleet.enable_obs(&Registry::new(), 1 << 20);
            let t = Instant::now();
            let (r, s) = fleet.run_traced();
            let secs = t.elapsed().as_secs_f64();
            spans = s;
            traced_reports.push(r);
            secs
        },
    ) - 1.0;
    for (_, r) in &plain_wall {
        check(r, &first, &mut tally);
    }
    for r in &traced_reports {
        check(r, &first, &mut tally);
    }
    let plain_s: Vec<f64> = plain_wall.iter().map(|(s, _)| *s).collect();

    // The arrival stream, rebuilt from the hub spans in ingest order.
    // Dedup verdicts depend only on each node's arrival order, so the
    // replay's batching (the arrivals split evenly over the rounds) does
    // not change them; the replay must reproduce every recorded verdict.
    let arrivals: Vec<(u64, EventSegment, &str)> = spans
        .iter()
        .filter(|s| s.stage == "hub")
        .enumerate()
        .map(|(i, s)| {
            let seg = EventSegment {
                node: NodeId(s.stream as usize),
                seq: s.value,
                classes: Vec::new(),
                round: s.round,
                bytes: 0,
                version: McVersion(0),
            };
            (i as u64, seg, s.kind)
        })
        .collect();
    let batch = arrivals.len().div_ceil(w.rounds as usize).max(1);
    let batches: Vec<Vec<(u64, EventSegment)>> = arrivals
        .chunks(batch)
        .map(|c| c.iter().map(|(i, s, _)| (*i, s.clone())).collect())
        .collect();
    // The replay also runs at two hub shards: the sharded ingest path that
    // the timed runs leave out (see [`HUB_SHARDS`]).
    let mut mismatched = 0u64;
    let mut replay = |shards: usize| -> f64 {
        let mut ingest = Vec::with_capacity(HUB_REPLAYS);
        for _ in 0..HUB_REPLAYS {
            let mut hub = CloudHub::new(cfg.dedup_window);
            for _ in 0..cfg.nodes {
                hub.register_node();
            }
            for q in &cfg.subscriptions {
                hub.subscribe(q.clone()).expect("non-empty subscription");
            }
            let mut verdicts = Vec::with_capacity(arrivals.len());
            let t = Instant::now();
            for b in &batches {
                verdicts.extend(
                    hub.ingest_sharded(b, shards)
                        .expect("every node is registered"),
                );
            }
            ingest.push(t.elapsed().as_secs_f64());
            mismatched += verdicts
                .iter()
                .zip(&arrivals)
                .filter(|((_, v), (_, _, kind))| {
                    let want = match *kind {
                        "fresh" => Admit::Fresh,
                        "dup" => Admit::Duplicate,
                        _ => Admit::OutOfWindow,
                    };
                    *v != want
                })
                .count() as u64;
        }
        stats::median(&ingest)
    };
    let ingest_s = replay(cfg.shards);
    let sharded_s = replay(SHARDED.min(budget));
    if mismatched > 0 {
        eprintln!("{}: {mismatched} replayed hub verdicts differ", w.name);
    }
    tally.add(arrivals.len() as u64, mismatched);

    let n = arrivals.len().max(1) as f64;
    let dup = arrivals.iter().filter(|(_, _, k)| *k != "fresh").count() as f64;
    let mut m = Metrics::default();
    m.set("hub.ingest_ns_per_segment", ingest_s * 1e9 / n);
    m.set("hub.sharded_ingest_ns_per_segment", sharded_s * 1e9 / n);
    m.set("hub.dup_frac", dup / n);
    m.set(
        "fleet.other_share",
        1.0 - ingest_s / stats::median(&plain_s),
    );
    m.set("obs.overhead_frac", overhead);
    println!(
        "{} seed {seed}: hub ingest is {:.3} of a fleet run ({} arrivals replayed)",
        w.name,
        ingest_s / stats::median(&plain_s),
        arrivals.len()
    );
    (m, tally)
}
