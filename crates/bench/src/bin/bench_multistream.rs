//! Multi-stream scaling: aggregate frames/sec of the [`EdgeNode`] runtime
//! over streams × shard layouts — sharded per-stream mode **and**
//! gather-batch mode (one shared batched base-DNN pass per round) —
//! against the serial single-stream loop on the same thread budget: the
//! node-scale counterpart of Figure 5.
//!
//! Every run's per-stream verdicts are checked **bit-for-bit** against the
//! serial `FilterForward::process` path (run at the same weight-panel
//! precision — the `*_f16` / `*_int8` rows sweep `ff_tensor::Precision`
//! through the gather-batched mode) before its throughput is reported, so a
//! number only lands in the JSON if the sharded, pipelined, or batched
//! execution is provably equivalent.
//!
//! Results are spliced into `BENCH_throughput.json` (next to the
//! single-stream rows emitted by `bench_throughput`) under a
//! `"multistream"` key. The config block records the container's
//! `available_parallelism` and whether the thread budget saturates it:
//! when it does (e.g. a 1-core CI container), the sharded speedups are
//! bounded near 1× by hardware, not by the runtime — don't read them as
//! regressions.
//!
//! Usage: `cargo run --release -p ff-bench --bin bench_multistream`
//! (override the output path with `BENCH_OUT=/path/file.json`, per-stream
//! frame count with `BENCH_FRAMES=n`).

use std::io::Write;
use std::time::{Duration, Instant};

use ff_core::control::{BatchPolicy, ControlConfig, RebalancePolicy};
use ff_core::faults::{FaultPlan, FaultsReport, FleetFaultPlan, RecoveryConfig, RetryPolicy};
use ff_core::fleet::{Fleet, FleetConfig, FleetReport};
use ff_core::pipeline::{FilterForward, FrameVerdict, PipelineConfig};
use ff_core::query::Query;
use ff_core::runtime::{EdgeNode, EdgeNodeConfig, GatherBatch, ObsConfig, ShardLayout};
use ff_core::{McId, McSpec};
use ff_models::MobileNetConfig;
use ff_tensor::Precision;
use ff_video::scene::{Scene, SceneConfig};
use ff_video::{DutyCycleSource, FrameSource, Resolution, SceneSource};

/// Scale-16 geometry (1920/16 × ~1080/16), the single-stream bench size.
const RES: Resolution = Resolution::new(120, 67);
const STREAM_SEEDS: [u64; 4] = [41, 42, 43, 44];
/// Fastest-of-repeats, the convention of the single-stream harness.
const REPEATS: usize = 2;

fn scene_cfg(seed: u64) -> SceneConfig {
    SceneConfig {
        resolution: RES,
        seed,
        pedestrian_rate: 0.03,
        car_rate: 0.02,
        ..Default::default()
    }
}

fn pipeline_cfg(precision: Precision) -> PipelineConfig {
    let mut cfg = PipelineConfig::new(RES, 15.0);
    cfg.mobilenet = MobileNetConfig::with_width(0.5).with_precision(precision);
    cfg.archive = None; // isolate filtering cost, as in the Figure 5 runs
    cfg
}

fn deploy_mc(ff: &mut FilterForward, stream: usize) {
    ff.deploy(McSpec::full_frame(
        format!("s{stream}"),
        200 + stream as u64,
    ));
}

/// Serial gold: verdicts of one stream through the plain `process` loop at
/// the given weight-panel precision.
fn serial_verdicts(
    stream: usize,
    frames: &[ff_video::Frame],
    precision: Precision,
) -> Vec<FrameVerdict> {
    let mut ff = FilterForward::new(pipeline_cfg(precision));
    deploy_mc(&mut ff, stream);
    let mut verdicts = Vec::new();
    for f in frames {
        verdicts.extend(ff.process(f));
    }
    let (tail, ..) = ff.finish();
    verdicts.extend(tail);
    verdicts
}

/// Single-stream serial fps on the full thread budget (warm-up frame, then
/// fastest of repeats — the single-stream harness convention).
fn serial_fps(frames: &[ff_video::Frame]) -> f64 {
    let mut ff = FilterForward::new(pipeline_cfg(Precision::F32));
    deploy_mc(&mut ff, 0);
    let _ = ff.process(&frames[0]);
    let mut best = f64::INFINITY;
    for _ in 0..REPEATS {
        let t0 = Instant::now();
        for f in &frames[1..] {
            let _ = ff.process(f);
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (frames.len() - 1) as f64 / best
}

/// One `EdgeNode` configuration: `streams` scene streams over `layout`,
/// optionally in gather-batch mode, at the given weight-panel precision.
/// Returns the best aggregate fps across repeats after asserting every
/// stream's verdicts match the serial gold **of the same precision**.
fn measure_node(
    streams: usize,
    layout: &ShardLayout,
    gather: Option<GatherBatch>,
    precision: Precision,
    n_frames: u64,
    gold: &[Vec<FrameVerdict>],
) -> f64 {
    let mut best = 0.0f64;
    for _ in 0..REPEATS {
        let mut cfg = EdgeNodeConfig::new(layout.clone());
        cfg.gather_batch = gather;
        let mut node = EdgeNode::new(cfg);
        for (s, &seed) in STREAM_SEEDS.iter().enumerate().take(streams) {
            let src = Box::new(SceneSource::new(scene_cfg(seed), n_frames));
            let id = node.add_stream(src, pipeline_cfg(precision));
            deploy_mc(node.pipeline_mut(id), s);
        }
        let report = node.run();
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(
                sr.verdicts,
                gold[s],
                "{streams} streams / {:?}: stream {s} verdicts diverged from serial",
                layout.widths()
            );
        }
        best = best.max(report.node.aggregate_fps());
    }
    best
}

/// Skewed diurnal load for the control-plane sweep: stream 0 always on,
/// streams 1.. motion-gated night cameras (8 active ticks, 24 idle). The
/// frame *contents* are the plain scene streams, so per-stream verdicts
/// must still match the serial golds bit-for-bit.
fn skewed_sources(n_frames: u64) -> Vec<Box<dyn FrameSource>> {
    STREAM_SEEDS
        .iter()
        .enumerate()
        .map(|(s, &seed)| {
            let inner = SceneSource::new(scene_cfg(seed), n_frames);
            if s == 0 {
                Box::new(inner) as Box<dyn FrameSource>
            } else {
                Box::new(DutyCycleSource::new(inner, 8, 24)) as Box<dyn FrameSource>
            }
        })
        .collect()
}

/// One controlled-executor run over the skewed load: `adaptive` arms the
/// style's policy (batch sizing in gather style, shard rebalancing in
/// sharded style); fixed runs use `ControlConfig::observe_only` — the
/// identical virtual-time executor with every policy off, so the
/// comparison isolates adaptation itself. Verdicts are asserted against
/// the serial golds either way (these policies move compute, never
/// results).
fn measure_controlled(
    gather: bool,
    adaptive: bool,
    budget: usize,
    n_frames: u64,
    gold: &[Vec<FrameVerdict>],
) -> f64 {
    let n_streams = STREAM_SEEDS.len();
    let mut best = 0.0f64;
    for _ in 0..REPEATS {
        let mut cfg = EdgeNodeConfig::new(if gather {
            ShardLayout::single(budget)
        } else {
            ShardLayout::even(budget, n_streams.min(budget))
        });
        if gather {
            cfg.gather_batch = Some(GatherBatch {
                max_batch: 8,
                gather_wait: Duration::from_millis(1),
            });
        }
        let mut node = EdgeNode::new(cfg);
        for (s, src) in skewed_sources(n_frames).into_iter().enumerate() {
            let id = node.add_stream(src, pipeline_cfg(Precision::F32));
            deploy_mc(node.pipeline_mut(id), s);
        }
        let ctl = if adaptive {
            ControlConfig {
                tick_frames: 8,
                arrival_alpha: 0.5,
                batch: if gather {
                    Some(BatchPolicy::default())
                } else {
                    None
                },
                rebalance: if gather {
                    None
                } else {
                    Some(RebalancePolicy::default())
                },
                degrade: None, // degradation changes verdicts; keep the A/B pure
                watchdog: None,
            }
        } else {
            ControlConfig::observe_only(8)
        };
        let report = node.run_controlled(ctl);
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(
                sr.verdicts,
                gold[s],
                "skewed {} {}: stream {s} verdicts diverged from serial",
                if gather { "gather" } else { "sharded" },
                if adaptive { "adaptive" } else { "fixed" },
            );
        }
        best = best.max(report.node.aggregate_fps());
    }
    best
}

/// The fault sweep: the same 4-stream gather node with and without a
/// scripted uplink outage + seeded packet loss, through the recovery
/// layer (default retry/spill). Uplink faults delay *delivery*, never
/// inference, so both runs' verdicts are still asserted bit-for-bit
/// against the serial golds; the throughput cost of riding out the chaos
/// and the final segment ledger are the measured outputs. The fault
/// report is deterministic, so one run's report speaks for all repeats.
fn measure_faults(
    budget: usize,
    n_frames: u64,
    gold: &[Vec<FrameVerdict>],
) -> (f64, f64, FaultsReport) {
    let outage_at = n_frames / 3;
    let loss_at = 2 * n_frames / 3;
    let plan = FaultPlan::new()
        .uplink_outage(outage_at, 12)
        .packet_loss(loss_at, 8, 0.25);
    let run = |with_faults: bool| {
        let mut cfg =
            EdgeNodeConfig::new(ShardLayout::single(budget)).with_gather_batch(GatherBatch {
                max_batch: 8,
                gather_wait: Duration::from_millis(1),
            });
        if with_faults {
            // A snappy retry schedule fits the short bench window (the
            // defaults are tuned for long-lived nodes, where a retry can
            // afford to wait 16+ rounds; here that would just park the
            // tail of the backlog at end of run).
            cfg = cfg.with_faults(plan.clone()).with_recovery(RecoveryConfig {
                retry: RetryPolicy {
                    base_delay_rounds: 1,
                    max_delay_rounds: 4,
                    max_attempts: 8,
                    jitter_rounds: 1,
                    jitter_seed: 7,
                },
                ..RecoveryConfig::default()
            });
        }
        let mut node = EdgeNode::new(cfg);
        for (s, &seed) in STREAM_SEEDS.iter().enumerate() {
            let src = Box::new(SceneSource::new(scene_cfg(seed), n_frames));
            let id = node.add_stream(src, pipeline_cfg(Precision::F32));
            deploy_mc(node.pipeline_mut(id), s);
        }
        let report = node.run_controlled(ControlConfig::observe_only(8));
        for (s, sr) in report.streams.iter().enumerate() {
            assert_eq!(
                sr.verdicts, gold[s],
                "faults={with_faults}: stream {s} verdicts diverged — uplink \
                 faults must never touch inference"
            );
        }
        report
    };
    let mut clean_fps = 0.0f64;
    let mut chaos_fps = 0.0f64;
    let mut faults = None;
    for _ in 0..REPEATS {
        clean_fps = clean_fps.max(run(false).node.aggregate_fps());
        let r = run(true);
        chaos_fps = chaos_fps.max(r.node.aggregate_fps());
        let fr = r.faults.expect("a plan was scheduled");
        assert!(fr.ledger.conserves(), "{:?}", fr.ledger);
        if let Some(prev) = &faults {
            assert_eq!(prev, &fr, "the fault report must replay bit-for-bit");
        }
        faults = Some(fr);
    }
    (clean_fps, chaos_fps, faults.expect("at least one repeat"))
}

/// Geometry for the duty-cycled stream-count sweep: smaller than the
/// 4-stream rows so the 1000-camera row stays a bench, not a soak test.
const STREAMS_RES: Resolution = Resolution::new(64, 32);
/// 10% duty cycle: 1 active tick, 9 idle, phases spread over the period.
const STREAMS_PERIOD: u64 = 10;
const STREAMS_FRAMES: u64 = 2;

fn streams_scene(seed: u64) -> SceneConfig {
    SceneConfig {
        resolution: STREAMS_RES,
        seed,
        pedestrian_rate: 0.03,
        car_rate: 0.02,
        ..Default::default()
    }
}

fn streams_pipeline() -> PipelineConfig {
    let mut cfg = PipelineConfig::new(STREAMS_RES, 15.0);
    cfg.mobilenet = MobileNetConfig::with_width(0.25);
    cfg.archive = None;
    cfg
}

fn streams_mc(s: usize) -> McSpec {
    McSpec::full_frame(format!("st{s}"), 500 + s as u64)
}

/// One duty-cycled fleet at the given stream count: every camera is an
/// actor-style task on the shared pool (no per-stream threads), active 1
/// round in [`STREAMS_PERIOD`], with a **shared deferred backbone** so the
/// node builds one extractor, not `n`. Returns the best aggregate fps
/// across repeats after sanity-checking stream 0 against its serial gold.
fn measure_streams(n: usize, budget: usize, gold0: &[FrameVerdict]) -> f64 {
    (0..REPEATS)
        .map(|_| run_streams(n, budget, gold0, false).0)
        .fold(0.0, f64::max)
}

/// Pairs of interleaved obs-off/obs-on runs behind the overhead gate. One
/// run takes ~0.4 s, and on a shared 2-core VM single pairs scatter by
/// ±5–10 %, so the gate reads the median of many.
const OBS_PAIRS: usize = 25;

/// Instrumentation overhead of the full observability layer (span ring,
/// per-job shard timers, deterministic exports) at `n` streams, measured
/// as `1 − median(fps_on / fps_off)` over [`OBS_PAIRS`] back-to-back
/// pairs whose order alternates, so drift in the machine's speed cancels
/// within each pair instead of landing on one side of the comparison.
fn measure_obs_overhead(n: usize, budget: usize, gold0: &[FrameVerdict]) -> ObsOverhead {
    let (mut ratios, mut off, mut on) = (Vec::new(), Vec::new(), Vec::new());
    let (mut spans, mut metrics) = (0, 0);
    for pair in 0..OBS_PAIRS {
        let run = |obs| run_streams(n, budget, gold0, obs);
        let (plain, instrumented) = if pair % 2 == 0 {
            let p = run(false);
            (p, run(true))
        } else {
            let i = run(true);
            (run(false), i)
        };
        (spans, metrics) = (instrumented.1, instrumented.2);
        ratios.push(instrumented.0 / plain.0);
        off.push(plain.0);
        on.push(instrumented.0);
    }
    let quartiles = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        [v[v.len() / 4], v[v.len() / 2], v[3 * v.len() / 4]]
    };
    let [r1, r2, r3] = quartiles(&mut ratios);
    ObsOverhead {
        overhead: 1.0 - r2,
        overhead_q1_q3: (1.0 - r3, 1.0 - r1),
        fps_off: quartiles(&mut off)[1],
        fps_on: quartiles(&mut on)[1],
        spans,
        metrics,
    }
}

/// What [`measure_obs_overhead`] found.
struct ObsOverhead {
    /// `1 − median(fps_on / fps_off)`.
    overhead: f64,
    /// The overhead at the ratios' upper and lower quartiles.
    overhead_q1_q3: (f64, f64),
    /// Median obs-off aggregate fps.
    fps_off: f64,
    /// Median obs-on aggregate fps.
    fps_on: f64,
    /// Spans the instrumented run emitted.
    spans: u64,
    /// Metrics the instrumented run registered.
    metrics: u64,
}

/// One run of the duty-cycled fleet, optionally with the observability
/// layer on: `(aggregate fps, spans emitted, metrics registered)`.
fn run_streams(n: usize, budget: usize, gold0: &[FrameVerdict], obs: bool) -> (f64, u64, u64) {
    let mut cfg = EdgeNodeConfig::new(ShardLayout::single(budget))
        .with_gather_batch(GatherBatch {
            max_batch: 64,
            gather_wait: Duration::from_millis(1),
        })
        .with_shared_backbone();
    if obs {
        cfg = cfg.with_obs(ObsConfig::default());
    }
    cfg.uplink_capacity_bps = 10_000_000.0;
    let mut node = EdgeNode::new(cfg);
    for s in 0..n {
        let inner = SceneSource::new(streams_scene(300 + s as u64), STREAMS_FRAMES);
        let src = Box::new(DutyCycleSource::with_phase(
            inner,
            1,
            STREAMS_PERIOD - 1,
            s as u64 % STREAMS_PERIOD,
        ));
        let id = node.add_stream(src, streams_pipeline());
        node.deploy(id, streams_mc(s));
    }
    let report = node.run_controlled(ControlConfig::observe_only(8));
    assert_eq!(
        report.node.pipeline.frames_out,
        n as u64 * STREAMS_FRAMES,
        "{n} streams: every duty-cycled frame must be served"
    );
    assert_eq!(
        report.streams[0].verdicts, gold0,
        "{n} streams: stream 0 diverged from its serial pipeline"
    );
    let (spans, metrics) = report.obs.as_ref().map_or((0, 0), |o| {
        (o.emitted_spans, o.metrics.entries.len() as u64)
    });
    (report.node.aggregate_fps(), spans, metrics)
}

/// Cloud-tier rounds for the fleet sweep — long enough that every fault
/// window (crash + rejoin, dup storm, loss burst) fully plays out.
const FLEET_ROUNDS: u64 = 240;

/// One fleet chaos run at the given node count: wall-clock hub segment
/// throughput (fresh + duplicate + out-of-window arrivals ingested per
/// second) alongside the dedup and redelivery counters. The simulation is
/// pure virtual time, so the report must replay bit-for-bit across the
/// timing repeats — only the wall clock is allowed to vary.
fn measure_fleet(nodes: usize) -> (f64, FleetReport) {
    let cfg = FleetConfig {
        nodes,
        rounds: FLEET_ROUNDS,
        shards: 4,
        faults: FleetFaultPlan::new()
            .node_crash(3, 60, 20)
            .dup_storm(120, 30, 1)
            .message_loss(40, 30, 0.2),
        subscriptions: vec![Query::mc(McId(0)).or(Query::mc(McId(1)))],
        ..Default::default()
    };
    let mut best = f64::MAX;
    let mut report: Option<FleetReport> = None;
    for _ in 0..REPEATS {
        let t = Instant::now();
        let r = Fleet::new(cfg.clone()).expect("valid fleet config").run();
        best = best.min(t.elapsed().as_secs_f64().max(1e-9));
        if let Some(prev) = &report {
            assert_eq!(prev, &r, "fleet run must replay bit-for-bit");
        }
        report = Some(r);
    }
    let report = report.expect("at least one repeat");
    assert!(report.ledger.conserves(), "{}", report.ledger);
    assert_eq!(report.double_deliveries, 0, "exactly-once to subscribers");
    let ingested = report.accepted + report.dup_hits + report.out_of_window;
    (ingested as f64 / best, report)
}

fn main() {
    let n_frames: u64 = std::env::var("BENCH_FRAMES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(32);
    let budget = std::thread::available_parallelism().map_or(1, |n| n.get());

    // Pre-render each stream's frames once for the serial gold/baseline.
    let rendered: Vec<Vec<ff_video::Frame>> = STREAM_SEEDS
        .iter()
        .map(|&seed| {
            Scene::new(scene_cfg(seed))
                .take(n_frames as usize)
                .map(|(f, _)| f)
                .collect()
        })
        .collect();
    // Per-precision serial golds: a reduced-precision node must reproduce
    // the serial loop run at the *same* precision bit-for-bit (quantization
    // changes the weights once, at pack time; execution mode never changes
    // a bit).
    let gold_for = |p: Precision| -> Vec<Vec<FrameVerdict>> {
        rendered
            .iter()
            .enumerate()
            .map(|(s, frames)| serial_verdicts(s, frames, p))
            .collect()
    };
    let gold = gold_for(Precision::F32);
    let gold_f16 = gold_for(Precision::F16);
    let gold_int8 = gold_for(Precision::Int8);
    let gold_int8act = gold_for(Precision::Int8Act);

    ff_tensor::parallel::set_threads(budget);
    let baseline = serial_fps(&rendered[0]);
    ff_tensor::parallel::set_threads(0);

    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    // When the budget saturates the container (always true here, since the
    // budget *is* available_parallelism), sharded speedups are hardware-
    // bounded near 1× — the flag below keeps that from reading as a
    // runtime regression. Batched mode still gains from cache amortization
    // even on one core.
    let saturated = budget >= available;
    if saturated {
        println!(
            "note: budget ({budget} threads) saturates the container \
             (available_parallelism {available}); sharded speedups are \
             hardware-bounded on this machine"
        );
    }

    // streams × shard layouts. Shard counts are capped at the budget
    // (ShardLayout::even's width-≥1 floor would otherwise oversubscribe
    // on machines with fewer cores than streams, which would invalidate
    // the "same thread budget" comparison against the serial baseline);
    // streams beyond the shard count share shards round-robin. The
    // `*_batched` rows run gather-batch mode: one shared batched base-DNN
    // pass per round over the whole thread budget.
    let gather = |b: usize| {
        Some(GatherBatch {
            max_batch: b,
            gather_wait: Duration::from_millis(2),
        })
    };
    type Case = (
        &'static str,
        usize,
        ShardLayout,
        Option<GatherBatch>,
        Precision,
    );
    let f32p = Precision::F32;
    let cases: Vec<Case> = vec![
        ("1s_1shard", 1, ShardLayout::single(budget), None, f32p),
        (
            "2s_sharded",
            2,
            ShardLayout::even(budget, 2.min(budget)),
            None,
            f32p,
        ),
        (
            "4s_sharded",
            4,
            ShardLayout::even(budget, 4.min(budget)),
            None,
            f32p,
        ),
        ("4s_1shard", 4, ShardLayout::single(budget), None, f32p),
        (
            "1s_batched_b8",
            1,
            ShardLayout::single(budget),
            gather(8),
            f32p,
        ),
        (
            "2s_batched_b2",
            2,
            ShardLayout::single(budget),
            gather(2),
            f32p,
        ),
        (
            "4s_batched_b4",
            4,
            ShardLayout::single(budget),
            gather(4),
            f32p,
        ),
        (
            "4s_batched_b8",
            4,
            ShardLayout::single(budget),
            gather(8),
            f32p,
        ),
        // Precision sweep at the strongest batched operating point: f16
        // halves, int8 quarters the weight panels streamed per shared pass.
        (
            "4s_batched_b8_f16",
            4,
            ShardLayout::single(budget),
            gather(8),
            Precision::F16,
        ),
        (
            "4s_batched_b8_int8",
            4,
            ShardLayout::single(budget),
            gather(8),
            Precision::Int8,
        ),
        // Whole-int8: weights *and* activations quantized, the u8 gather +
        // vpmaddubsw GEMM path.
        (
            "4s_batched_b8_int8act",
            4,
            ShardLayout::single(budget),
            gather(8),
            Precision::Int8Act,
        ),
    ];
    let mut rows: Vec<(String, f64)> = vec![(format!("serial_1s_t{budget}"), baseline)];
    println!(
        "{:<24} {baseline:>10.2} fps",
        format!("serial_1s_t{budget}")
    );
    let mut fps_4s_sharded = 0.0;
    let mut fps_4s_batched = 0.0;
    for (name, streams, layout, gb, precision) in &cases {
        let gold_p = match precision {
            Precision::F32 => &gold,
            Precision::F16 => &gold_f16,
            Precision::Int8 => &gold_int8,
            Precision::Int8Act => &gold_int8act,
        };
        let fps = measure_node(*streams, layout, *gb, *precision, n_frames, gold_p);
        if *name == "4s_sharded" {
            fps_4s_sharded = fps;
        }
        if *name == "4s_batched_b4" {
            fps_4s_batched = fps;
        }
        let mode = match gb {
            Some(g) => format!("gather-batch ≤{}", g.max_batch),
            None => format!("shards {:?}", layout.widths()),
        };
        println!("{name:<24} {fps:>10.2} fps  (aggregate, {mode})");
        rows.push((name.to_string(), fps));
    }
    let speedup = fps_4s_sharded / baseline;
    let speedup_batched = fps_4s_batched / baseline;
    println!("4-stream aggregate vs serial single-stream: {speedup:.2}x sharded, {speedup_batched:.2}x batched (budget {budget} threads)");
    println!(
        "verdicts: bit-for-bit identical to the serial pipeline for every layout and batch mode"
    );

    // Control-plane sweep: the same skewed diurnal load (1 busy camera, 3
    // night cameras) through the controlled virtual-time executor, fixed
    // layouts vs adaptive policies, both styles. Verdict-checked against
    // the serial golds like every other row.
    println!();
    println!("control sweep (skewed diurnal load: 1 always-on + 3 night cameras):");
    let mut control_rows: Vec<(String, f64)> = Vec::new();
    for (name, gather, adaptive) in [
        ("skewed_fixed_sharded", false, false),
        ("skewed_adaptive_sharded", false, true),
        ("skewed_fixed_gather_b8", true, false),
        ("skewed_adaptive_gather", true, true),
    ] {
        let fps = measure_controlled(gather, adaptive, budget, n_frames, &gold);
        println!("{name:<24} {fps:>10.2} fps  (aggregate)");
        control_rows.push((name.to_string(), fps));
    }
    let best_fixed = control_rows[0].1.max(control_rows[2].1);
    let best_adaptive = control_rows[1].1.max(control_rows[3].1);
    let adaptive_vs_fixed = best_adaptive / best_fixed;
    println!(
        "adaptive vs best fixed layout on skewed load: {adaptive_vs_fixed:.2}x \
         (budget {budget} threads)"
    );

    // Fault sweep: the recovery layer riding out a scripted uplink outage
    // and seeded packet loss, verdicts still bit-identical to serial.
    println!();
    println!("fault sweep (12-round outage + 25% seeded loss through the recovery layer):");
    let (clean_fps, chaos_fps, fault_report) = measure_faults(budget, n_frames, &gold);
    let chaos_ratio = chaos_fps / clean_fps;
    let fl = fault_report.ledger;
    println!("fault_free               {clean_fps:>10.2} fps  (aggregate, observe-only executor)");
    println!("under_faults             {chaos_fps:>10.2} fps  (aggregate, {chaos_ratio:.2}x of fault-free)");
    println!(
        "segments: {} offered = {} delivered + {} late + {} dropped (conserves: {}); recovery {} rounds",
        fl.offered,
        fl.delivered,
        fl.delivered_late,
        fl.dropped,
        fl.conserves(),
        fault_report
            .recovery_rounds
            .map_or_else(|| "n/a".to_string(), |r| r.to_string()),
    );

    // Stream-count sweep: 10 → 1000 duty-cycled cameras as actor-style
    // tasks on one shared pool. The invariant that must hold is that the
    // *per-frame service rate* stays flat: 1000 cameras at 10% duty are
    // 100 active streams' work, and carrying the other 900 sleeping tasks
    // must cost (nearly) nothing — aggregate fps within ~10% of the
    // 10-camera row. The raw per-active-stream rate divides the fixed
    // budget across the active set, so it falls as 1/active by
    // construction; both are reported.
    println!();
    println!(
        "stream-count sweep ({STREAMS_RES} frames, 10% duty cycle, shared deferred backbone):"
    );
    let gold_stream0: Vec<FrameVerdict> = {
        let mut ff = FilterForward::new(streams_pipeline());
        ff.deploy(streams_mc(0));
        let mut verdicts = Vec::new();
        let mut src = SceneSource::new(streams_scene(300), STREAMS_FRAMES);
        while let Some(f) = src.next_frame() {
            verdicts.extend(ff.process(&f));
        }
        let (tail, ..) = ff.finish();
        verdicts.extend(tail);
        verdicts
    };
    let stream_rows: Vec<(usize, f64, f64)> = [10usize, 100, 1000]
        .iter()
        .map(|&n| {
            let fps = measure_streams(n, budget, &gold_stream0);
            let active = n as f64 / STREAMS_PERIOD as f64;
            let per_active = fps / active;
            println!(
                "{:<24} {fps:>10.2} fps  (aggregate, {per_active:.2} per active stream)",
                format!("streams_{n}")
            );
            (n, fps, per_active)
        })
        .collect();
    let streams_scaling = stream_rows[2].1 / stream_rows[0].1;
    println!(
        "per-frame service rate at 1000 cameras: {streams_scaling:.2}x of the 10-camera row \
         (990 more sleeping tasks; flat = free idle cameras)"
    );

    // Observability overhead on the 1000-camera row: the same sweep with
    // the span ring and per-job shard timers on. The registry itself is
    // always on, so this measures exactly what the obs knob adds — as the
    // median of paired, interleaved off/on ratios, reported unclamped.
    println!();
    println!(
        "obs overhead (1000 duty-cycled cameras, span ring + shard timers on, \
         median of {OBS_PAIRS} interleaved off/on pairs):"
    );
    let obs = measure_obs_overhead(1000, budget, &gold_stream0);
    let obs_overhead = obs.overhead;
    println!(
        "{:<24} {:>10.2} fps vs {:.2} off  ({} spans, {} metrics, overhead {:.1}%, quartiles {:.1}%..{:.1}%)",
        "streams_1000_obs",
        obs.fps_on,
        obs.fps_off,
        obs.spans,
        obs.metrics,
        obs_overhead * 100.0,
        obs.overhead_q1_q3.0 * 100.0,
        obs.overhead_q1_q3.1 * 100.0,
    );
    assert!(
        obs_overhead <= 0.02,
        "instrumentation overhead {:.2}% exceeds the 2% budget",
        obs_overhead * 100.0,
    );

    // Fleet sweep: the cloud tier at 10/50/200 nodes, same per-node chaos
    // script (crash + rejoin, dup storm, seeded loss) at every size.
    println!();
    println!(
        "fleet sweep (cloud hub, {FLEET_ROUNDS} virtual rounds, crash + dup storm + 20% loss):"
    );
    let fleet_rows: Vec<(usize, f64, FleetReport)> = [10usize, 50, 200]
        .iter()
        .map(|&nodes| {
            let (segs_per_sec, report) = measure_fleet(nodes);
            println!(
                "{:<24} {segs_per_sec:>10.0} segs/s  (accepted {}, dedup hits {}, redeliveries {})",
                format!("fleet_{nodes}n"),
                report.accepted,
                report.dup_hits,
                report.redeliveries,
            );
            (nodes, segs_per_sec, report)
        })
        .collect();

    let out_path = std::env::var("BENCH_OUT").unwrap_or_else(|_| "BENCH_throughput.json".into());
    let mut section = String::from("  \"multistream\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"resolution\": \"{RES}\", \"frames_per_stream\": {n_frames}, \"budget_threads\": {budget}, \"available_parallelism\": {available}, \"budget_saturates_container\": {saturated}}},\n"
    ));
    section.push_str("    \"aggregate_fps\": {\n");
    for (i, (name, fps)) in rows.iter().enumerate() {
        let comma = if i + 1 == rows.len() { "" } else { "," };
        section.push_str(&format!("      \"{name}\": {fps:.2}{comma}\n"));
    }
    section.push_str("    },\n");
    section.push_str(&format!("    \"speedup_4s_vs_serial\": {speedup:.2},\n"));
    section.push_str(&format!(
        "    \"speedup_4s_batched_vs_serial\": {speedup_batched:.2},\n"
    ));
    section.push_str("    \"verdicts_identical\": true\n  },\n");

    // The control-plane A/B, spliced as its own top-level section.
    section.push_str("  \"control\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"resolution\": \"{RES}\", \"frames_per_stream\": {n_frames}, \"budget_threads\": {budget}, \"available_parallelism\": {available}, \"load\": \"1 always-on + 3 duty-cycled 8/24 cameras\", \"policies\": \"rebalance (sharded) / batch sizing (gather); degrade off to keep verdicts comparable\"}},\n"
    ));
    section.push_str("    \"aggregate_fps\": {\n");
    for (i, (name, fps)) in control_rows.iter().enumerate() {
        let comma = if i + 1 == control_rows.len() { "" } else { "," };
        section.push_str(&format!("      \"{name}\": {fps:.2}{comma}\n"));
    }
    section.push_str("    },\n");
    section.push_str(&format!(
        "    \"adaptive_vs_best_fixed\": {adaptive_vs_fixed:.2},\n"
    ));
    let control_note = if budget <= STREAM_SEEDS.len() {
        "this container's budget leaves nothing for adaptation to move: with <= 1 thread per stream every shard is already at the width-1 floor (rebalancing is an identity) and batch sizing only changes cache amortization, which the huge shared LLC already hides (same class of container limit as the sharded/batched rows above); the structural win appears when budget > streams, where the rebalancer concentrates real cores on the busy camera while the night cameras sleep"
    } else {
        "adaptive rebalancing concentrates the thread budget on the busy camera while the night cameras sleep"
    };
    section.push_str(&format!("    \"note\": \"{control_note}\",\n"));
    section.push_str("    \"verdicts_identical\": true\n  },\n");

    // The fault sweep, spliced as its own top-level section.
    section.push_str("  \"faults\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"resolution\": \"{RES}\", \"frames_per_stream\": {n_frames}, \"budget_threads\": {budget}, \"plan\": \"12-round uplink outage at round {}, 25% seeded packet loss for 8 rounds at round {}; default retry/spill policy\"}},\n",
        n_frames / 3,
        2 * n_frames / 3,
    ));
    section.push_str(&format!(
        "    \"aggregate_fps_fault_free\": {clean_fps:.2},\n"
    ));
    section.push_str(&format!(
        "    \"aggregate_fps_under_faults\": {chaos_fps:.2},\n"
    ));
    section.push_str(&format!(
        "    \"fps_ratio_under_faults\": {chaos_ratio:.2},\n"
    ));
    section.push_str(&format!(
        "    \"segments\": {{\"offered\": {}, \"delivered\": {}, \"delivered_late\": {}, \"dropped\": {}, \"conserves\": {}}},\n",
        fl.offered,
        fl.delivered,
        fl.delivered_late,
        fl.dropped,
        fl.conserves(),
    ));
    section.push_str(&format!(
        "    \"recovery_rounds\": {},\n",
        fault_report
            .recovery_rounds
            .map_or_else(|| "null".to_string(), |r| r.to_string()),
    ));
    section.push_str(
        "    \"note\": \"uplink faults delay delivery, never inference: both runs' verdicts are asserted bit-for-bit against the serial golds, and the fault report itself replays bit-for-bit across repeats\",\n",
    );
    section.push_str("    \"verdicts_identical\": true\n  },\n");

    // The duty-cycled stream-count sweep, spliced as its own section.
    section.push_str("  \"streams\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"resolution\": \"{STREAMS_RES}\", \"frames_per_stream\": {STREAMS_FRAMES}, \"duty_cycle\": \"1 active / {} idle rounds, phases spread\", \"budget_threads\": {budget}, \"runtime\": \"actor-style tasks on one shared pool, shared deferred backbone, zero per-stream threads\"}},\n",
        STREAMS_PERIOD - 1,
    ));
    for (n, fps, per_active) in &stream_rows {
        section.push_str(&format!(
            "    \"streams_{n}\": {{\"aggregate_fps\": {fps:.2}, \"per_active_stream_fps\": {per_active:.2}}},\n"
        ));
    }
    section.push_str(&format!(
        "    \"aggregate_ratio_1000_vs_10\": {streams_scaling:.2},\n"
    ));
    section.push_str(
        "    \"note\": \"the invariant: serving an active frame must cost the same whether the node hosts 10 cameras or 1000 (aggregate fps within ~10% of the 10-stream row — a sleeping task is a poll and a counter, not a thread). Raw per_active_stream_fps divides the fixed thread budget across the active set, so it falls as 1/active by construction on one machine.\",\n",
    );
    section.push_str("    \"verdicts_identical\": true\n  },\n");

    // The observability overhead row, spliced as its own section.
    section.push_str("  \"obs\": {\n");
    section.push_str(
        "    \"config\": {\"load\": \"1000 duty-cycled cameras, same sweep as streams_1000\", \"instrumentation\": \"span ring + per-job shard timers on top of the always-on registry\"},\n",
    );
    section.push_str(&format!("    \"pairs\": {OBS_PAIRS},\n"));
    section.push_str(&format!(
        "    \"aggregate_fps_base\": {:.2},\n",
        obs.fps_off
    ));
    section.push_str(&format!("    \"aggregate_fps_obs\": {:.2},\n", obs.fps_on));
    section.push_str(&format!("    \"overhead_fraction\": {obs_overhead:.4},\n"));
    section.push_str(&format!(
        "    \"overhead_fraction_q1_q3\": [{:.4}, {:.4}],\n",
        obs.overhead_q1_q3.0, obs.overhead_q1_q3.1
    ));
    section.push_str("    \"max_overhead_fraction\": 0.02,\n");
    section.push_str(&format!("    \"spans_emitted\": {},\n", obs.spans));
    section.push_str(&format!("    \"metrics_registered\": {},\n", obs.metrics));
    section.push_str(
        "    \"note\": \"the bench asserts the overhead budget itself; the trace and snapshot exports are byte-stable across runs, threads, and shard widths, so they can gate CI\"\n  },\n",
    );

    // The cloud-tier fleet sweep, spliced as its own top-level section.
    section.push_str("  \"fleet\": {\n");
    section.push_str(&format!(
        "    \"config\": {{\"rounds\": {FLEET_ROUNDS}, \"hub_shards\": 4, \"plan\": \"node 3 crashes for 20 rounds at round 60 and rejoins from its checkpoint journal; a dup storm doubles every wire message for rounds 120-150; 20% seeded loss for rounds 40-70\"}},\n"
    ));
    for (nodes, segs_per_sec, report) in &fleet_rows {
        section.push_str(&format!(
            "    \"nodes_{nodes}\": {{\"hub_segments_per_sec\": {segs_per_sec:.0}, \"accepted\": {}, \"dedup_hits\": {}, \"redeliveries\": {}, \"double_deliveries\": {}, \"ledger_conserves\": {}}},\n",
            report.accepted,
            report.dup_hits,
            report.redeliveries,
            report.double_deliveries,
            report.ledger.conserves(),
        ));
    }
    section.push_str(
        "    \"note\": \"pure virtual-time simulation: each report replays bit-for-bit across the timing repeats and across hub shard widths; only the wall clock varies. Redeliveries are the at-least-once transport doing its job; dedup hits are the hub absorbing them (and the storm) so subscribers see exactly-once.\"\n  }\n}\n",
    );

    // Splice after the single-stream rows: replace an existing
    // "multistream" section, else insert before the closing brace.
    let base = std::fs::read_to_string(&out_path).unwrap_or_else(|_| "{\n}\n".to_string());
    let head = match base.find(",\n  \"multistream\"") {
        Some(i) => base[..i].to_string(),
        None => {
            let close = base.rfind('}').expect("existing json must be an object");
            base[..close].trim_end().to_string()
        }
    };
    let mut f = std::fs::File::create(&out_path).expect("create bench json");
    if head.trim() == "{" {
        write!(f, "{{\n{section}").expect("write bench json");
    } else {
        write!(f, "{head},\n{section}").expect("write bench json");
    }
    println!("wrote {out_path}");
}
