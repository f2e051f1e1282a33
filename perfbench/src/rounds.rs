//! Rounds measured from outside the runtime.
//!
//! `EdgeNode::run_controlled` is a closed loop in virtual time: once per
//! round (one frame interval) it polls every open camera, in increasing
//! stream order, then serves what arrived. The benchmark wraps each
//! camera in [`Polled`], which records `(stream, Instant)` on every
//! `poll_frame`; [`split_rounds`] then recovers the rounds from the log
//! alone — a new round starts wherever the stream index does not
//! increase. Streams the runtime skips (mailbox full, source ended) simply
//! leave a gap in a round's increasing run. A round in which *no* stream
//! is polled cannot be seen and merges into the one before it.
//!
//! Set-up ends at the first poll: everything before it (`EdgeNode::new`,
//! `add_stream`, `deploy`, the gather-bucket build inside
//! `run_controlled`) is set-up, everything after it is service.

use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use ff_video::{Frame, FrameSource, Resolution, SourcePoll};

/// One `poll_frame` call as the runtime made it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Poll {
    /// The polled stream.
    pub stream: usize,
    /// When the poll happened.
    pub at: Instant,
    /// Index of the frame it delivered within its stream, if it delivered
    /// one (idle ticks and end of stream deliver none).
    pub frame: Option<u64>,
}

/// The shared, append-only poll log of one node run.
#[derive(Debug, Clone, Default)]
pub struct PollLog(Arc<Mutex<Vec<Poll>>>);

impl PollLog {
    /// An empty log with room for `capacity` polls, so recording does not
    /// reallocate while the run is timed.
    pub fn with_capacity(capacity: usize) -> Self {
        PollLog(Arc::new(Mutex::new(Vec::with_capacity(capacity))))
    }

    fn push(&self, poll: Poll) {
        self.0.lock().expect("poll log poisoned").push(poll);
    }

    /// The polls recorded so far, in call order.
    pub fn take(&self) -> Vec<Poll> {
        std::mem::take(&mut *self.0.lock().expect("poll log poisoned"))
    }
}

/// A camera wrapped so that every poll lands in a [`PollLog`].
pub struct Polled<S> {
    inner: S,
    stream: usize,
    delivered: u64,
    log: PollLog,
}

impl<S: FrameSource> Polled<S> {
    /// Wraps stream `stream`'s source.
    pub fn new(inner: S, stream: usize, log: PollLog) -> Self {
        Polled {
            inner,
            stream,
            delivered: 0,
            log,
        }
    }
}

impl<S: FrameSource> FrameSource for Polled<S> {
    fn resolution(&self) -> Resolution {
        self.inner.resolution()
    }

    fn fps(&self) -> f64 {
        self.inner.fps()
    }

    fn next_frame(&mut self) -> Option<Frame> {
        loop {
            match self.poll_frame() {
                SourcePoll::Frame(f) => return Some(f),
                SourcePoll::Idle => continue,
                SourcePoll::End => return None,
            }
        }
    }

    fn poll_frame(&mut self) -> SourcePoll {
        let at = Instant::now();
        let poll = self.inner.poll_frame();
        let frame = match &poll {
            SourcePoll::Frame(_) => {
                self.delivered += 1;
                Some(self.delivered - 1)
            }
            SourcePoll::Idle | SourcePoll::End => None,
        };
        self.log.push(Poll {
            stream: self.stream,
            at,
            frame,
        });
        poll
    }

    fn duty_fraction(&self) -> f64 {
        self.inner.duty_fraction()
    }
}

/// Splits a poll log into rounds: index ranges into `polls`, one per
/// round, in order. A round ends where the next poll's stream index is
/// not larger than the previous one's.
pub fn split_rounds(polls: &[Poll]) -> Vec<Range<usize>> {
    let mut rounds = Vec::new();
    let mut start = 0;
    for i in 1..polls.len() {
        if polls[i].stream <= polls[i - 1].stream {
            rounds.push(start..i);
            start = i;
        }
    }
    if !polls.is_empty() {
        rounds.push(start..polls.len());
    }
    rounds
}

/// The timing of one node run, recovered from its poll log.
#[derive(Debug, Clone)]
pub struct RunTiming {
    /// From `EdgeNode::new` to the first poll.
    pub setup: Duration,
    /// From the first poll to `run_controlled`'s return.
    pub service: Duration,
    /// Wall time of each round, start to next start. The last round is
    /// left out: it ends with the runtime's drain and teardown, not with
    /// another round.
    pub rounds: Vec<Duration>,
    /// The rounds as index ranges into the poll log.
    pub ranges: Vec<Range<usize>>,
}

impl RunTiming {
    /// Reads the timing of a run that started building its node at
    /// `created` and returned at `returned`.
    ///
    /// # Panics
    ///
    /// Panics if the log is empty (the node never polled a camera).
    pub fn from_log(polls: &[Poll], created: Instant, returned: Instant) -> Self {
        let first = polls.first().expect("the node polled no camera").at;
        let ranges = split_rounds(polls);
        let rounds = ranges
            .windows(2)
            .map(|w| polls[w[1].start].at - polls[w[0].start].at)
            .collect();
        RunTiming {
            setup: first - created,
            service: returned - first,
            rounds,
            ranges,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic log: `(stream, delivered)` per poll, one millisecond
    /// apart, starting `lead` after `t0`.
    fn log(t0: Instant, lead: Duration, polls: &[(usize, bool)]) -> Vec<Poll> {
        polls
            .iter()
            .enumerate()
            .map(|(i, &(stream, delivered))| Poll {
                stream,
                at: t0 + lead + Duration::from_millis(i as u64),
                frame: delivered.then_some(0),
            })
            .collect()
    }

    fn streams(polls: &[Poll], r: &Range<usize>) -> Vec<usize> {
        polls[r.clone()].iter().map(|p| p.stream).collect()
    }

    #[test]
    fn a_stream_skipped_under_backpressure_leaves_a_gap_not_a_boundary() {
        let t0 = Instant::now();
        let p = log(
            t0,
            Duration::ZERO,
            &[
                (0, true),
                (1, true),
                (2, true),
                (0, true),
                (2, true),
                (0, true),
                (1, true),
                (2, true),
            ],
        );
        let r = split_rounds(&p);
        assert_eq!(r.len(), 3);
        assert_eq!(streams(&p, &r[1]), vec![0, 2]);
    }

    #[test]
    fn a_stream_that_ended_stops_appearing() {
        let t0 = Instant::now();
        let p = log(
            t0,
            Duration::ZERO,
            &[
                (0, true),
                (1, true),
                (0, true),
                (1, false),
                (0, true),
                (0, true),
            ],
        );
        let r = split_rounds(&p);
        assert_eq!(r, vec![0..2, 2..4, 4..5, 5..6]);
    }

    #[test]
    fn a_one_camera_node_starts_a_round_at_every_poll() {
        let t0 = Instant::now();
        let p = log(t0, Duration::ZERO, &[(0, true), (0, true), (0, false)]);
        assert_eq!(split_rounds(&p), vec![0..1, 1..2, 2..3]);
        let t = RunTiming::from_log(&p, t0, t0 + Duration::from_millis(10));
        assert_eq!(t.rounds, vec![Duration::from_millis(1); 2]);
    }

    #[test]
    fn set_up_ends_at_the_first_poll() {
        let t0 = Instant::now();
        let lead = Duration::from_millis(40);
        let p = log(t0, lead, &[(0, true), (1, true), (0, true), (1, true)]);
        let returned = t0 + Duration::from_millis(100);
        let t = RunTiming::from_log(&p, t0, returned);
        assert_eq!(t.setup, lead);
        assert_eq!(t.service, returned - (t0 + lead));
        // Two rounds, and only the first has a measured end.
        assert_eq!(t.ranges.len(), 2);
        assert_eq!(t.rounds, vec![Duration::from_millis(2)]);
        assert!(split_rounds(&[]).is_empty());
    }

    /// The rule against a real node, whose per-round telemetry (one
    /// control tick per round) says which cameras it polled in each round.
    mod real_node {
        use super::*;
        use ff_core::control::ControlConfig;
        use ff_core::pipeline::PipelineConfig;
        use ff_core::runtime::{
            ControlledReport, EdgeNode, EdgeNodeConfig, GatherBatch, ShardLayout,
        };
        use ff_core::McSpec;
        use ff_models::MobileNetConfig;
        use ff_video::scene::{Scene, SceneConfig};
        use ff_video::{DutyCycleSource, RecordedSource};

        const RES: Resolution = Resolution::new(64, 32);

        fn clip(seed: u64, frames: usize) -> RecordedSource {
            let cfg = SceneConfig {
                resolution: RES,
                seed,
                ..Default::default()
            };
            RecordedSource::new(Scene::new(cfg).take(frames).map(|(f, _)| f).collect(), 15.0)
        }

        fn run(
            sources: Vec<Box<dyn FrameSource>>,
            max_batch: usize,
            log: &PollLog,
        ) -> (ControlledReport, RunTiming, Vec<Poll>) {
            let mut pcfg = PipelineConfig::new(RES, 15.0);
            pcfg.mobilenet = MobileNetConfig::with_width(0.25);
            pcfg.archive = None;
            let cfg = EdgeNodeConfig::new(ShardLayout::single(1)).with_gather_batch(GatherBatch {
                max_batch,
                gather_wait: Duration::from_millis(1),
            });
            let created = Instant::now();
            let mut node = EdgeNode::new(cfg);
            for (s, src) in sources.into_iter().enumerate() {
                let id = node.add_stream(src, pcfg);
                node.deploy(id, McSpec::full_frame(format!("s{s}"), s as u64));
            }
            let report = node.run_controlled(ControlConfig::observe_only(1));
            let returned = Instant::now();
            let polls = log.take();
            let timing = RunTiming::from_log(&polls, created, returned);
            assert!(timing.setup > Duration::ZERO && timing.service > Duration::ZERO);
            (report, timing, polls)
        }

        /// The cameras polled in each round the telemetry covers (an
        /// arrival, or the end of the stream), rounds without a poll
        /// dropped: what the log should split into.
        fn polled_per_round(report: &ControlledReport) -> Vec<Vec<usize>> {
            let mut ended = vec![false; report.streams.len()];
            let mut out = Vec::new();
            for snap in &report.telemetry {
                let polled: Vec<usize> = snap
                    .streams
                    .iter()
                    .enumerate()
                    .filter(|(s, t)| t.arrivals > 0 || (t.ended && !ended[*s]))
                    .map(|(s, _)| s)
                    .collect();
                for (s, t) in snap.streams.iter().enumerate() {
                    ended[s] |= t.ended;
                }
                if !polled.is_empty() {
                    out.push(polled);
                }
            }
            out
        }

        #[test]
        fn skipped_and_ended_streams_split_like_the_runtime_rounds() {
            // A batch of one frame per round for two always-on cameras: the
            // mailboxes fill, and the runtime skips full ones when polling.
            let log = PollLog::default();
            let sources: Vec<Box<dyn FrameSource>> = vec![
                Box::new(Polled::new(clip(1, 12), 0, log.clone())),
                Box::new(Polled::new(clip(2, 6), 1, log.clone())),
            ];
            let (report, timing, polls) = run(sources, 1, &log);
            let got: Vec<Vec<usize>> = timing.ranges.iter().map(|r| streams(&polls, r)).collect();
            let want = polled_per_round(&report);
            assert!(
                want.iter().any(|r| r.len() == 1),
                "the scenario must skip a camera in some round"
            );
            assert_eq!(&got[..want.len()], &want[..]);
        }

        #[test]
        fn duty_cycled_frames_land_in_the_rounds_that_woke_their_tasks() {
            let log = PollLog::default();
            let sources: Vec<Box<dyn FrameSource>> = (0..3)
                .map(|s| {
                    let duty = DutyCycleSource::with_phase(clip(s, 4), 1, 3, s);
                    Box::new(Polled::new(duty, s as usize, log.clone())) as Box<dyn FrameSource>
                })
                .collect();
            let (report, timing, polls) = run(sources, 4, &log);
            let mut arrivals: Vec<(u64, usize)> = Vec::new();
            for (round, r) in timing.ranges.iter().enumerate() {
                for q in &polls[r.clone()] {
                    if q.frame.is_some() {
                        arrivals.push((round as u64, q.stream));
                    }
                }
            }
            assert_eq!(arrivals.len(), 12);
            assert_eq!(arrivals, report.wakes);
        }

        #[test]
        fn a_one_camera_node_has_one_round_per_poll() {
            let log = PollLog::default();
            let sources: Vec<Box<dyn FrameSource>> =
                vec![Box::new(Polled::new(clip(3, 5), 0, log.clone()))];
            let (_, timing, polls) = run(sources, 2, &log);
            // Five frames, then the poll that finds the end of the clip.
            assert_eq!(polls.len(), 6);
            assert_eq!(timing.ranges.len(), 6);
            assert_eq!(timing.rounds.len(), 5);
        }
    }
}
