//! The node workloads: one edge node driven through
//! `EdgeNode::run_controlled`, timed from outside.
//!
//! Before anything is timed, every camera's clip is rendered from
//! `ff_video::Scene`, its MC thresholds are calibrated on the clip so that
//! about half its frames match (see [`calibrate`]), and each camera's
//! serial gold is computed: the
//! per-frame base-DNN maps come from a serial `FeatureExtractor::extract`,
//! and the verdicts from `FilterForward::process_with_maps` over them —
//! exactly `FilterForward::process` with the extraction hoisted out, which
//! [`Prepared::check_serial_process`] confirms on camera 0 against a real
//! `FilterForward::process` loop. Every node run's verdicts are then
//! compared with the gold, frame by frame. The maps are dropped once the
//! gold is computed, so they do not count toward the node's memory.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ff_core::control::ControlConfig;
use ff_core::extractor::FeatureMaps;
use ff_core::pipeline::{FilterForward, FrameVerdict, PipelineConfig};
use ff_core::runtime::{
    ControlledReport, EdgeNode, EdgeNodeConfig, GatherBatch, ObsConfig, ShardLayout,
};
use ff_core::spec::{McKind, McRuntime, McSpec};
use ff_core::{FeatureExtractor, McId};
use ff_models::MobileNetConfig;
use ff_tensor::PoolShard;
use ff_video::codec::{Encoder, EncoderConfig};
use ff_video::scene::Scene;
use ff_video::{Frame, FrameSource, Resolution};

use crate::profile::{self, taps};
use crate::report::{self, digest, Metrics, Tally};
use crate::rounds::{Poll, PollLog, Polled, RunTiming};
use crate::stats;
use crate::workload::{NodeWorkload, FPS};

/// Control ticks every this many rounds; with every policy off they only
/// snapshot telemetry, which is part of what the runtime costs.
const TICK_ROUNDS: u64 = 8;
/// Short runs (one frame per camera) made to sample set-up time.
const SETUP_RUNS: usize = 7;
/// Interleaved obs-off / obs-on pairs in the traced invocation.
const OBS_PAIRS: usize = 3;
/// Frames of camera 0 run through a real `FilterForward::process` loop.
const SERIAL_CHECK_FRAMES: usize = 8;
/// Uplink capacity of the node, in bits per second.
const UPLINK_BPS: f64 = 1_000_000.0;

/// Serial base-DNN maps of every clip frame, per camera.
pub type ClipMaps = Vec<Vec<FeatureMaps>>;

/// A node workload with its clips rendered and its MC thresholds
/// calibrated.
pub struct Prepared {
    w: NodeWorkload,
    budget: usize,
    pcfg: PipelineConfig,
    clips: Vec<Arc<[Frame]>>,
    specs: Vec<Vec<McSpec>>,
}

/// A camera replaying its clip in a loop for a fixed number of frames.
/// Each frame is copied out of the shared clip when it is polled, so a run
/// holds one clip per camera, not a copy of every frame it delivers.
struct Looped {
    clip: Arc<[Frame]>,
    next: usize,
    frames: usize,
}

impl FrameSource for Looped {
    fn resolution(&self) -> Resolution {
        self.clip[0].resolution()
    }

    fn fps(&self) -> f64 {
        FPS
    }

    fn next_frame(&mut self) -> Option<Frame> {
        if self.next == self.frames {
            return None;
        }
        let frame = self.clip[self.next % self.clip.len()].clone();
        self.next += 1;
        Some(frame)
    }
}

/// One timed node run.
pub struct NodeRun {
    /// Timing recovered from the poll log.
    pub timing: RunTiming,
    /// The poll log.
    pub polls: Vec<Poll>,
    /// What the node reported.
    pub report: ControlledReport,
}

impl Prepared {
    /// Renders every camera's clip and calibrates its MCs; also returns
    /// the clips' serial maps, which [`Prepared::gold`] needs.
    pub fn new(w: NodeWorkload, seed: u64, budget: usize) -> (Self, ClipMaps) {
        let mut pcfg = PipelineConfig::new(w.res, FPS);
        pcfg.mobilenet = MobileNetConfig::with_width(w.alpha);
        // Archiving is off, as in the repository's throughput benches: the
        // node's filtering path is what is measured.
        pcfg.archive = None;
        let clips: Vec<Arc<[Frame]>> = (0..w.cameras)
            .map(|c| {
                Scene::new(w.scene(seed, c))
                    .take(w.clip)
                    .map(|(f, _)| f)
                    .collect()
            })
            .collect();
        let (maps, specs): (Vec<_>, Vec<_>) =
            per_camera(budget, w.cameras, pcfg.mobilenet, |ex, c| {
                let maps: Vec<FeatureMaps> = clips[c]
                    .iter()
                    .map(|f| ex.extract(&f.to_tensor()).clone())
                    .collect();
                let specs = calibrate(w.mc_specs(seed, c), ex, pcfg, &clips[c], &maps);
                (maps, specs)
            })
            .into_iter()
            .unzip();
        let p = Prepared {
            w,
            budget,
            pcfg,
            clips,
            specs,
        };
        (p, maps)
    }

    fn frame(&self, camera: usize, i: usize) -> &Frame {
        &self.clips[camera][i % self.w.clip]
    }

    /// Each camera's serial verdicts over its first `frames` frames.
    pub fn gold(&self, maps: &ClipMaps, frames: usize) -> Vec<Vec<FrameVerdict>> {
        per_camera(self.budget, self.w.cameras, self.pcfg.mobilenet, |ex, c| {
            let mut ff = FilterForward::new_deferred(self.pcfg);
            for spec in &self.specs[c] {
                ff.deploy_with(spec.clone(), ex);
            }
            let mut out = Vec::with_capacity(frames);
            for i in 0..frames {
                let m = &maps[c][i % self.w.clip];
                out.extend(ff.process_with_maps(self.frame(c, i), m, Duration::ZERO));
            }
            out.extend(ff.finish().0);
            out
        })
    }

    /// Runs camera 0's first frames through a real `FilterForward::process`
    /// loop and checks that what it finalizes is a prefix of `gold0`.
    pub fn check_serial_process(&self, gold0: &[FrameVerdict]) -> bool {
        let mut ff = FilterForward::new(self.pcfg);
        for spec in &self.specs[0] {
            ff.deploy(spec.clone());
        }
        let mut out = Vec::new();
        for i in 0..SERIAL_CHECK_FRAMES.min(gold0.len()) {
            out.extend(ff.process(self.frame(0, i)));
        }
        gold0.starts_with(&out)
    }

    /// One node run with every camera delivering `frames` frames.
    pub fn run(&self, frames: usize, obs: bool) -> NodeRun {
        let w = &self.w;
        // Each camera is polled once per round until its source ends: once
        // per frame and once more to find the end.
        let log = PollLog::with_capacity(w.cameras * (frames + 1));
        let sources: Vec<Box<dyn FrameSource>> = (0..w.cameras)
            .map(|c| {
                let clip = Looped {
                    clip: Arc::clone(&self.clips[c]),
                    next: 0,
                    frames,
                };
                Box::new(Polled::new(clip, c, log.clone())) as Box<dyn FrameSource>
            })
            .collect();
        // One frame per camera arrives in each round, and the batch holds
        // them all, so every arrival is served in its own round.
        let mut cfg =
            EdgeNodeConfig::new(ShardLayout::single(self.budget)).with_gather_batch(GatherBatch {
                max_batch: w.cameras,
                gather_wait: Duration::from_millis(1),
            });
        cfg.uplink_capacity_bps = UPLINK_BPS;
        if obs {
            cfg = cfg.with_obs(ObsConfig::default());
        }

        let created = Instant::now();
        let mut node = EdgeNode::new(cfg);
        for (c, src) in sources.into_iter().enumerate() {
            let id = node.add_stream(src, self.pcfg);
            for spec in &self.specs[c] {
                node.deploy(id, spec.clone());
            }
        }
        let report = node.run_controlled(ControlConfig::observe_only(TICK_ROUNDS));
        let returned = Instant::now();
        let polls = log.take();
        NodeRun {
            timing: RunTiming::from_log(&polls, created, returned),
            polls,
            report,
        }
    }
}

/// Runs `f(extractor, camera)` for every camera, spread over `budget`
/// threads that each own an extractor, with single-threaded kernels (the
/// results do not depend on the thread count).
fn per_camera<T: Send>(
    budget: usize,
    cameras: usize,
    base: MobileNetConfig,
    f: impl Fn(&mut FeatureExtractor, usize) -> T + Sync,
) -> Vec<T> {
    ff_tensor::parallel::set_threads(1);
    let threads = budget.clamp(1, cameras);
    let mut out: Vec<(usize, T)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let f = &f;
                scope.spawn(move || {
                    let mut ex = FeatureExtractor::new(base, taps());
                    (t..cameras)
                        .step_by(threads)
                        .map(|c| (c, f(&mut ex, c)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("per-camera worker panicked"))
            .collect()
    });
    ff_tensor::parallel::set_threads(0);
    out.sort_by_key(|(c, _)| *c);
    out.into_iter().map(|(_, t)| t).collect()
}

/// Sets one camera's MC thresholds so that about half of its clip frames
/// match. An untrained MC at the default threshold is positive on every
/// frame or on none, depending on its random weights, which would make
/// uplink load a property of the seed. The camera's MCs share a budget of
/// `n` raw positives on the clip, dealt round-robin (MC `k` is positive
/// on its `n_k` most probable frames); the smallest `n` for which at least
/// half of the clip's final verdicts match is found by bisection, since
/// matching only grows with `n`.
fn calibrate(
    specs: Vec<McSpec>,
    ex: &FeatureExtractor,
    pcfg: PipelineConfig,
    clip: &[Frame],
    maps: &[FeatureMaps],
) -> Vec<McSpec> {
    let probs: Vec<Vec<f32>> = specs
        .iter()
        .enumerate()
        .map(|(k, spec)| {
            let mut mc = spec.build(ex, pcfg.resolution, McId(k));
            let mut p: Vec<f32> = maps
                .iter()
                .map(|m| {
                    let cropped = mc.crop(m.get(&spec.tap)).into_owned();
                    mc.prob_single(&cropped)
                })
                .collect();
            p.sort_by(|a, b| b.total_cmp(a));
            p
        })
        .collect();
    let mcs = specs.len();
    let with = |n: usize| -> Vec<McSpec> {
        let mut out = specs.clone();
        for (k, (spec, p)) in out.iter_mut().zip(&probs).enumerate() {
            let n_k = (n + mcs - 1 - k) / mcs;
            spec.threshold = if n_k == 0 { f32::INFINITY } else { p[n_k - 1] };
        }
        out
    };
    let matched = |specs: &[McSpec]| -> usize {
        let mut ff = FilterForward::new_deferred(pcfg);
        for spec in specs {
            ff.deploy_with(spec.clone(), ex);
        }
        let mut verdicts = Vec::with_capacity(clip.len());
        for (frame, m) in clip.iter().zip(maps) {
            verdicts.extend(ff.process_with_maps(frame, m, Duration::ZERO));
        }
        verdicts.extend(ff.finish().0);
        verdicts.iter().filter(|v| v.matched()).count()
    };
    let (mut lo, mut hi) = (1, mcs * clip.len());
    while lo < hi {
        let mid = (lo + hi) / 2;
        if 2 * matched(&with(mid)) >= clip.len() {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    with(lo)
}

/// Checks a run's verdicts against the gold: a frame fails when it has no
/// verdict or one that differs from the serial gold, and every upload the
/// uplink dropped fails too.
fn verify(run: &NodeRun, gold: &[Vec<FrameVerdict>], tally: &mut Tally) {
    let captured = run.polls.iter().filter(|p| p.frame.is_some()).count() as u64;
    let mut failed = run.report.node.uplink_dropped;
    for (s, g) in gold.iter().enumerate() {
        let got = &run.report.streams[s].verdicts;
        failed += (0..g.len().max(got.len()))
            .filter(|&i| got.get(i) != g.get(i))
            .count() as u64;
    }
    tally.add(captured, failed);
}

fn verdict_digest(run: &NodeRun) -> u64 {
    digest(
        run.report
            .streams
            .iter()
            .flat_map(|s| s.verdicts.iter().map(|v| format!("{v:?}"))),
    )
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Measures the end-to-end metrics for `seconds` seconds, tracing off.
pub fn end_to_end(w: NodeWorkload, seed: u64, seconds: f64, budget: usize) -> (Metrics, Tally) {
    let (p, maps) = Prepared::new(w, seed, budget);
    let gold1 = p.gold(&maps, 1);
    let gold = p.gold(&maps, w.frames);
    drop(maps);
    let mut tally = Tally::default();
    if !p.check_serial_process(&gold[0]) {
        eprintln!("{}: gold differs from FilterForward::process", w.name);
        tally.add(1, 1);
    }

    let mut setups = Vec::new();
    for _ in 0..SETUP_RUNS {
        let run = p.run(1, false);
        verify(&run, &gold1, &mut tally);
        setups.push(run.timing.setup.as_secs_f64());
    }

    // Memory is measured over the timed runs only: the high-water mark is
    // reset to what the process holds now (the clips and the gold).
    let held_mb = report::reset_peak_rss();
    let start = Instant::now();
    let (mut round_ms, mut digests) = (Vec::new(), Vec::new());
    let (mut frames_out, mut uploaded) = (0u64, 0u64);
    loop {
        let t = Instant::now();
        let run = p.run(w.frames, false);
        verify(&run, &gold, &mut tally);
        digests.push(verdict_digest(&run));
        frames_out += run.report.node.pipeline.frames_out;
        uploaded += run.report.node.pipeline.frames_uploaded;
        round_ms.extend(run.timing.rounds.iter().map(|&d| ms(d)));
        setups.push(run.timing.setup.as_secs_f64());
        if start.elapsed().as_secs_f64() + t.elapsed().as_secs_f64() > seconds {
            break;
        }
    }
    if digests.iter().any(|&d| d != digests[0]) {
        eprintln!("{}: verdict digests differ between repeats", w.name);
        tally.add(0, 1);
    }
    let peak_mb = report::peak_rss_mb();
    let typical = stats::uncontended_median(&round_ms);
    println!(
        "{} seed {seed}: {} timed runs, {} rounds, median round {:.2} ms, typical round \
         {typical:.2} ms, p95 round {:.2} ms, peak RSS {peak_mb:.1} MiB of which {held_mb:.1} \
         MiB held before the runs, verdict digest {:016x}",
        w.name,
        digests.len(),
        round_ms.len(),
        stats::median(&round_ms),
        round_p95(w, &round_ms),
        digests[0]
    );

    // Rounds are pooled over the timed runs. A 200-round `hd_2cam` run
    // takes 16–20 s on a 2-core x86-64 VM, so the 40 s of `run_seconds` in
    // BENCHMARK.json fit one or two of them.
    //
    // The host's other tenants slow rounds down for seconds at a time, so
    // the typical round is the median of the uncontended rounds (see
    // `stats::uncontended_median`). The loop is closed — each round serves
    // one frame per camera — so the typical rate is one frame per camera
    // per typical round, and the upload rate is that times the share of
    // frames that were uploaded. The p95 round, contention included, moved
    // by more than any usable bound between runs on that VM; it is printed
    // above and reported per layer (`runtime.round_ms_p95`), not gated.
    let frames_per_s = w.cameras as f64 * 1e3 / typical;
    let mut m = Metrics::default();
    m.set("frames_per_s", frames_per_s);
    m.set("round_ms_p50", typical);
    m.set(
        "segments_per_s",
        frames_per_s * uploaded as f64 / frames_out as f64,
    );
    m.set("setup_s", stats::median(&setups));
    m.set("peak_rss_mb", peak_mb - held_mb);
    (m, tally)
}

/// The 95th percentile of `rounds`, which must hold at least 200 rounds so
/// that ten lie beyond it.
fn round_p95(w: NodeWorkload, rounds: &[f64]) -> f64 {
    stats::percentile(rounds, 0.95).unwrap_or_else(|e| panic!("{}: round p95 refused: {e}", w.name))
}

/// Layer time spent in one replayed round.
#[derive(Default, Clone, Copy)]
struct RoundLayers {
    to_tensor: Duration,
    extract: Duration,
    mc: Duration,
    pipeline: Duration,
    frames: usize,
}

/// The traced invocation: interleaved obs-off/obs-on node runs for the
/// overhead ratio, then a replay of one run's rounds through each layer's
/// public functions, then the per-unit base-DNN profile.
///
/// The replay runs after the run it replays, so when the host's speed
/// moves in between, the layers can add up to more than the round took;
/// the runtime's remainder (`runtime.other_ms_per_round`,
/// `runtime.share`) then comes out negative and is reported as measured.
pub fn traced(w: NodeWorkload, seed: u64, budget: usize) -> (Metrics, Tally) {
    let (p, maps) = Prepared::new(w, seed, budget);
    let gold = p.gold(&maps, w.traced_frames);
    drop(maps);
    let mut tally = Tally::default();
    if !p.check_serial_process(&gold[0]) {
        eprintln!("{}: gold differs from FilterForward::process", w.name);
        tally.add(1, 1);
    }

    // Both sides of each pair verify their verdicts; the cells let the
    // two closures share the tally and keep what the replay needs.
    let tally = RefCell::new(tally);
    let plain: RefCell<Vec<NodeRun>> = RefCell::new(Vec::new());
    let spans = RefCell::new(None);
    let overhead = stats::paired_ratio(
        OBS_PAIRS,
        || {
            let run = p.run(w.traced_frames, false);
            verify(&run, &gold, &mut tally.borrow_mut());
            let s = run.timing.service.as_secs_f64();
            plain.borrow_mut().push(run);
            s
        },
        || {
            let run = p.run(w.traced_frames, true);
            verify(&run, &gold, &mut tally.borrow_mut());
            let obs = run.report.obs.as_ref().expect("obs was configured");
            if obs.dropped_spans == 0 {
                *spans.borrow_mut() = Some(obs.spans.clone());
            }
            run.timing.service.as_secs_f64()
        },
    ) - 1.0;
    let (mut tally, mut plain, spans) =
        (tally.into_inner(), plain.into_inner(), spans.into_inner());
    let run = plain.pop().expect("at least one plain run");

    let shard = PoolShard::new(budget);
    let (layers, mc_kinds, replay_failed) = shard.run(|| replay(&p, &run, &gold));
    let frames: usize = layers.iter().map(|l| l.frames).sum();
    tally.add(frames as u64, replay_failed);
    if let Some(spans) = &spans {
        // Closed-loop check: each round's gathered batch holds exactly the
        // frames polled in that round.
        let mut batches: Vec<usize> = Vec::new();
        for s in spans
            .iter()
            .filter(|s| s.stage == "gather" && s.kind == "extract")
        {
            let r = s.round as usize;
            if batches.len() <= r {
                batches.resize(r + 1, 0);
            }
            batches[r] += s.value as usize;
        }
        let polled: Vec<usize> = layers.iter().map(|l| l.frames).collect();
        let n = batches.len().max(polled.len());
        let mismatched = (0..n)
            .filter(|&r| {
                batches.get(r).copied().unwrap_or(0) != polled.get(r).copied().unwrap_or(0)
            })
            .count();
        if mismatched > 0 {
            eprintln!(
                "{}: {mismatched} rounds served other frames than they polled",
                w.name
            );
            tally.add(0, mismatched as u64);
        }
    }
    let (encode, encoded_bytes, encode_failed) = replay_encode(&p, &gold);
    tally.add(0, encode_failed);

    let served_rounds = layers.iter().filter(|l| l.frames > 0).count();
    let sum = |f: fn(&RoundLayers) -> Duration| layers.iter().map(f).sum::<Duration>();
    let (to_tensor, extract, mc, pipeline) = (
        sum(|l| l.to_tensor),
        sum(|l| l.extract),
        sum(|l| l.mc),
        sum(|l| l.pipeline),
    );
    let us_per_frame = |d: Duration| d.as_secs_f64() * 1e6 / frames as f64;

    // Round time is split over the rounds that have a measured end.
    let measured = &layers[..run.timing.rounds.len().min(layers.len())];
    let round_total: Duration = run.timing.rounds.iter().take(measured.len()).sum();
    let layer_sum = |l: &RoundLayers| l.to_tensor + l.extract + l.pipeline;
    let other: Vec<f64> = run
        .timing
        .rounds
        .iter()
        .zip(measured)
        .map(|(&r, l)| ms(r) - ms(layer_sum(l)))
        .collect();
    let share = |d: Duration| d.as_secs_f64() / round_total.as_secs_f64();
    let measured_sum = |f: fn(&RoundLayers) -> Duration| measured.iter().map(f).sum::<Duration>();
    let (s_video, s_extract, s_mc) = (
        share(measured_sum(|l| l.to_tensor)),
        share(measured_sum(|l| l.extract)),
        share(measured_sum(|l| l.mc)),
    );
    let s_pipeline = share(measured_sum(|l| l.pipeline)) - s_mc;

    let poll_us: Vec<f64> = run
        .timing
        .ranges
        .iter()
        .zip(&layers)
        .filter(|(r, _)| r.len() > 1)
        .map(|(r, l)| {
            let polls = &run.polls[r.clone()];
            let span = polls[polls.len() - 1].at - polls[0].at;
            // The runtime converts each delivered frame to a tensor right
            // after its poll; for all but the last poll that time falls
            // inside the span and belongs to ff_video, not to polling.
            let inside = polls[..polls.len() - 1]
                .iter()
                .filter(|q| q.frame.is_some())
                .count();
            let convert = l.to_tensor.as_secs_f64() * inside as f64 / l.frames.max(1) as f64;
            ((span.as_secs_f64() - convert) * 1e6 / (polls.len() - 1) as f64).max(0.0)
        })
        .collect();

    let prof = shard.run(|| {
        let batch = (frames as f64 / served_rounds.max(1) as f64)
            .round()
            .max(1.0) as usize;
        let sample: Vec<&Frame> = (0..batch)
            .map(|b| p.frame(b % w.cameras, b / w.cameras))
            .collect();
        profile::units(p.pcfg.mobilenet, w.res, &sample)
    });
    if !prof.bit_exact {
        eprintln!("{}: chained units differ from extract_batch", w.name);
        tally.add(0, 1);
    }

    let node = &run.report.node;
    // The profiled units run to the deepest tap, as the extractor does.
    let madds: f64 = prof.units.iter().map(|u| u.madds as f64).sum();
    let setups: Vec<f64> = plain
        .iter()
        .chain([&run])
        .map(|r| ms(r.timing.setup))
        .collect();
    let plain_rounds: Vec<f64> = plain
        .iter()
        .chain([&run])
        .flat_map(|r| r.timing.rounds.iter().map(|&d| ms(d)))
        .collect();
    let mut m = Metrics::default();
    m.set("extractor.us_per_frame", us_per_frame(extract));
    m.set(
        "extractor.gmacs_per_s",
        madds * frames as f64 / extract.as_secs_f64() / 1e9,
    );
    m.set(
        "extractor.batch_frames",
        frames as f64 / served_rounds.max(1) as f64,
    );
    m.set("extractor.share", s_extract);
    for u in &prof.units {
        m.set(&format!("layer.{}.ms", u.metric_name()), u.ms);
        m.set(
            &format!("layer.{}.gmacs_per_s", u.metric_name()),
            u.gmacs_per_s(),
        );
    }
    m.set("mc.us_per_frame", us_per_frame(mc));
    for (kind, name) in [
        (McKind::FullFrame, "mc.full_frame_us"),
        (McKind::Localized, "mc.localized_us"),
    ] {
        let (total, calls) = mc_kinds[kind_index(kind)];
        let v = if calls == 0 {
            0.0
        } else {
            total.as_secs_f64() * 1e6 / calls as f64
        };
        m.set(name, v);
    }
    m.set("mc.share", s_mc);
    m.set("pipeline.us_per_frame", us_per_frame(pipeline));
    m.set("pipeline.share", s_pipeline);
    m.set("video.to_tensor_us", us_per_frame(to_tensor));
    m.set("video.encode_us", encode);
    m.set("video.encoded_bytes", encoded_bytes);
    m.set("video.share", s_video);
    m.set("runtime.other_ms_per_round", stats::median(&other));
    m.set(
        "runtime.poll_us_per_stream",
        if poll_us.is_empty() {
            0.0
        } else {
            stats::median(&poll_us)
        },
    );
    m.set("runtime.first_poll_ms", stats::median(&setups));
    m.set("runtime.round_ms_p95", round_p95(w, &plain_rounds));
    m.set(
        "runtime.share",
        1.0 - s_video - s_extract - s_pipeline - s_mc,
    );
    m.set("uplink.utilization", node.uplink_utilization);
    m.set("uplink.peak_delay_ms", node.uplink_peak_delay_secs * 1e3);
    m.set("uplink.dropped", node.uplink_dropped as f64);
    m.set(
        "uplink.bytes_per_frame",
        node.pipeline.bytes_uploaded as f64 / node.pipeline.frames_out as f64,
    );
    m.set("obs.overhead_frac", overhead);
    println!(
        "{} seed {seed}: round time shares — extractor {:.3}, mc {:.3}, pipeline {:.3}, \
         video {:.3}, runtime {:.3} ({} rounds replayed, median round {:.2} ms)",
        w.name,
        s_extract,
        s_mc,
        s_pipeline,
        s_video,
        1.0 - s_video - s_extract - s_pipeline - s_mc,
        measured.len(),
        stats::median(&run.timing.rounds.iter().map(|&d| ms(d)).collect::<Vec<_>>()),
    );
    (m, tally)
}

fn kind_index(kind: McKind) -> usize {
    match kind {
        McKind::FullFrame => 0,
        McKind::Localized => 1,
        McKind::Windowed => unreachable!("the node workload deploys no windowed MC"),
    }
}

/// Replays `run`'s rounds through the layers, each call timed: the
/// round's polled frames go through `Frame::to_tensor`, one
/// `extract_batch` and each camera's `process_with_maps`. A second pass
/// over the same rounds times every MC's `McRuntime::process_tap` alone,
/// so the MCs are not run twice inside one round's working set. Returns
/// per-round layer time, per-MC-kind `(time, calls)`, and the number of
/// replayed verdicts that differ from the gold.
fn replay(
    p: &Prepared,
    run: &NodeRun,
    gold: &[Vec<FrameVerdict>],
) -> (Vec<RoundLayers>, [(Duration, u64); 2], u64) {
    let w = &p.w;
    let mut ex = FeatureExtractor::new(p.pcfg.mobilenet, taps());
    let rounds: Vec<Vec<(usize, usize)>> = run
        .timing
        .ranges
        .iter()
        .map(|r| {
            run.polls[r.clone()]
                .iter()
                .filter_map(|q| q.frame.map(|i| (q.stream, i as usize)))
                .collect()
        })
        .collect();
    let mut layers: Vec<RoundLayers> = rounds
        .iter()
        .map(|arrived| RoundLayers {
            frames: arrived.len(),
            ..Default::default()
        })
        .collect();

    let mut pipes: Vec<FilterForward> = p
        .specs
        .iter()
        .map(|specs| {
            let mut ff = FilterForward::new_deferred(p.pcfg);
            for s in specs {
                ff.deploy_with(s.clone(), &ex);
            }
            ff
        })
        .collect();
    let mut verdicts: Vec<Vec<FrameVerdict>> = vec![Vec::new(); w.cameras];
    for (arrived, l) in rounds.iter().zip(&mut layers) {
        if arrived.is_empty() {
            continue;
        }
        let mut tensors = Vec::with_capacity(arrived.len());
        for &(s, i) in arrived {
            let t = Instant::now();
            let x = p.frame(s, i).to_tensor();
            l.to_tensor += t.elapsed();
            tensors.push(x);
        }
        let t = Instant::now();
        let maps = ex.extract_batch(&tensors);
        l.extract = t.elapsed();
        for (slot, &(s, i)) in arrived.iter().enumerate() {
            let t = Instant::now();
            let out = pipes[s].process_with_maps(p.frame(s, i), &maps[slot], Duration::ZERO);
            l.pipeline += t.elapsed();
            verdicts[s].extend(out);
        }
    }
    let mut failed = 0u64;
    for (s, ff) in pipes.into_iter().enumerate() {
        verdicts[s].extend(ff.finish().0);
        let g = &gold[s];
        failed += (0..g.len().max(verdicts[s].len()))
            .filter(|&i| verdicts[s].get(i) != g.get(i))
            .count() as u64;
    }

    let mut mcs: Vec<Vec<McRuntime>> = p
        .specs
        .iter()
        .map(|specs| {
            specs
                .iter()
                .enumerate()
                .map(|(k, s)| s.build(&ex, w.res, McId(k)))
                .collect()
        })
        .collect();
    let mut kinds = [(Duration::ZERO, 0u64); 2];
    for (arrived, l) in rounds.iter().zip(&mut layers) {
        if arrived.is_empty() {
            continue;
        }
        let tensors: Vec<_> = arrived
            .iter()
            .map(|&(s, i)| p.frame(s, i).to_tensor())
            .collect();
        let maps = ex.extract_batch(&tensors);
        for (slot, &(s, _)) in arrived.iter().enumerate() {
            for mc in &mut mcs[s] {
                let fm = maps[slot].get(&mc.spec().tap);
                let t = Instant::now();
                let _ = std::hint::black_box(mc.process_tap(fm));
                let d = t.elapsed();
                l.mc += d;
                let k = &mut kinds[kind_index(mc.spec().kind)];
                k.0 += d;
                k.1 += 1;
            }
        }
    }
    (layers, kinds, failed)
}

/// Re-encodes every uploaded gold frame with the pipeline's upload
/// encoder settings (a fresh keyframe after every gap, as the pipeline
/// does), timing `Encoder::encode`. Returns µs per encode, bytes per
/// encoded frame, and the number of frames whose size differs from the
/// verdict's uploaded bytes.
fn replay_encode(p: &Prepared, gold: &[Vec<FrameVerdict>]) -> (f64, f64, u64) {
    let (mut time, mut bytes, mut count, mut failed) = (Duration::ZERO, 0u64, 0u64, 0u64);
    for (s, g) in gold.iter().enumerate() {
        let mut enc = Encoder::new(EncoderConfig::with_bitrate(
            p.w.res,
            FPS,
            p.pcfg.upload_bitrate_bps,
        ));
        let mut last: Option<u64> = None;
        for v in g.iter().filter(|v| v.uploaded_bytes > 0) {
            if last != Some(v.frame.wrapping_sub(1)) {
                enc.force_keyframe();
            }
            let frame = p.frame(s, v.frame as usize);
            let t = Instant::now();
            let out = enc.encode(frame);
            time += t.elapsed();
            bytes += out.data.len() as u64;
            count += 1;
            failed += u64::from(out.data.len() != v.uploaded_bytes);
            last = Some(v.frame);
        }
    }
    if count == 0 {
        return (0.0, 0.0, failed);
    }
    (
        time.as_secs_f64() * 1e6 / count as f64,
        bytes as f64 / count as f64,
        failed,
    )
}
