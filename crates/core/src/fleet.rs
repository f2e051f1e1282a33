//! The deterministic fleet loop: 10–200 simulated edge nodes streaming
//! event segments to one [`CloudHub`] over an at-least-once wire, under a
//! scripted [`FleetFaultPlan`] — node crashes, hub partitions, duplicate
//! storms, seeded message loss — in lock-step virtual time.
//!
//! This is the fleet-scale analogue of the single-node chaos harness in
//! [`crate::faults`]: every random draw comes from a **per-node** seeded
//! RNG stream consumed in a fleet-size-independent order, so
//!
//! * a full run replays byte-for-byte across repeats and hub shard widths
//!   (compare [`FleetReport`]s with `==`, or their printed traces), and
//! * each node's ledger and sub-trace are identical whether the fleet has
//!   50 nodes or 200 — a node's fate depends only on its own streams and
//!   fault windows, never on its neighbours.
//!
//! # Transport
//!
//! Nodes journal generated segments durably (sequence numbers are journal
//! indices, so a crash never reuses one), transmit up to a send window of
//! unacked segments, and retransmit on ack timeout with the same
//! [`RetryPolicy`] backoff the node-local recovery layer uses. The wire
//! applies seeded loss, duplicate-storm copies, and a seeded delivery
//! jitter (reordering). The hub dedups per node, acks
//! fresh *and* duplicate arrivals (the first ack may have been lost), and
//! withholds acks past the window so senders hold gap segments. (The
//! window type is [`DedupWindow`](crate::hub::DedupWindow).) Retries
//! exhausted park the segment in the node's local archive; the hub
//! demand-fetches parked content with bounded retries once the node
//! announces it. At end of run the summed [`FleetLedger`] conserves:
//! `Σ offered == delivered + delivered_late + dropped + spilled`.
//!
//! The wire is a ring of per-round buckets whose front is the next round
//! to deliver: a copy sent for delivery round `d` is appended to bucket
//! `d − front`. Message ids are handed out in send order, so appending
//! keeps every bucket in id order, and draining the buckets front to back
//! up to the current round yields exactly (delivery round, id) order — the
//! total order that makes jittered, reordered deliveries replay. Drained
//! buckets rotate to the back, so a run allocates them once.
//!
//! A segment copy on the wire is only `(node, seq)`. The hub side builds
//! the [`EventSegment`] from the sender's journal when the copy arrives;
//! journal entries never change once written, so that is the segment as
//! sent, and sends, duplicate copies and lost copies allocate nothing.
//!
//! # Crash recovery
//!
//! A crash loses volatile transport state — the unacked outbox and every
//! ack received since the last checkpoint — but keeps the journal, the
//! deployed MC version, the spill park, and the checkpointed cumulative
//! ack watermark. On rejoin the node re-offers from the checkpoint; the
//! re-offers are genuine duplicates, and the hub's dedup window is what
//! keeps them from ever reaching a subscriber twice.

use std::collections::{BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::events::McId;
use crate::faults::{FleetFaultError, FleetFaultPlan, RetryPolicy};
use crate::hub::{
    Admit, CloudHub, EventSegment, FleetLedger, HubError, HubEventKind, McVersion, NodeId,
    RolloutOutcome, RolloutPlan,
};
use crate::query::Query;
use ff_obs::{Registry, Span};

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Configuration of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Edge nodes in the fleet.
    pub nodes: usize,
    /// Virtual-time rounds to run.
    pub rounds: u64,
    /// Master seed; every node derives its own independent RNG streams
    /// from it, so per-node behaviour is identical at any fleet size.
    pub seed: u64,
    /// Per-node per-round probability of generating an event segment
    /// (before any version rate multiplier), in `(0, 1)`.
    pub event_rate: f64,
    /// Event classes (`McId(0)..McId(classes)`) segments draw from.
    pub classes: usize,
    /// Capacity of each per-node hub [`DedupWindow`](crate::hub::DedupWindow).
    pub dedup_window: usize,
    /// Ack-timeout retransmission backoff (shared with demand fetches).
    pub retry: RetryPolicy,
    /// Maximum unacked segments a node keeps in flight.
    pub send_window: usize,
    /// Segments a node can park in its local archive; overflow becomes
    /// accounted drops.
    pub spill_limit: usize,
    /// Rounds between durable checkpoints of the cumulative ack
    /// watermark (a crash loses acks since the last checkpoint).
    pub checkpoint_every: u64,
    /// Maximum extra delivery delay per wire message, in rounds (drawn
    /// per message from the owning node's link RNG; produces reordering).
    pub jitter_rounds: u64,
    /// Hub ingest shard width — must not change any observable output.
    pub shards: usize,
    /// The scripted fault schedule.
    pub faults: FleetFaultPlan,
    /// An optional staged MC rollout.
    pub rollout: Option<RolloutPlan>,
    /// Application subscriptions registered at the hub.
    pub subscriptions: Vec<Query>,
    /// Per-version event-rate multipliers (a misbehaving MC version shows
    /// up as an event-rate blowup; the canary comparison catches it).
    pub version_rates: Vec<(McVersion, f64)>,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            nodes: 50,
            rounds: 240,
            seed: 0xF1EE7,
            event_rate: 0.2,
            classes: 4,
            dedup_window: 64,
            retry: RetryPolicy::default(),
            send_window: 8,
            spill_limit: 8,
            checkpoint_every: 16,
            jitter_rounds: 2,
            shards: 1,
            faults: FleetFaultPlan::new(),
            rollout: None,
            subscriptions: Vec::new(),
            version_rates: Vec::new(),
        }
    }
}

/// The MC version every node starts on (rollbacks revert to it).
pub const BASELINE_VERSION: McVersion = McVersion(1);

/// Why a [`FleetConfig`] was rejected ([`Fleet::new`]).
#[derive(Debug, Clone, PartialEq)]
pub enum FleetError {
    /// A fleet needs at least one node.
    NoNodes,
    /// A run needs at least one round.
    NoRounds,
    /// The event rate must lie in `(0, 1)`.
    InvalidEventRate {
        /// The offending rate.
        rate: f64,
    },
    /// Send window, dedup window, spill limit, or checkpoint interval of
    /// zero could never make progress.
    ZeroCapacity {
        /// Which knob was zero.
        what: &'static str,
    },
    /// The rollout canary must be a proper, non-empty subset of the fleet
    /// (an empty control cohort has no regression baseline).
    BadCanary {
        /// Requested canary size.
        canary: usize,
        /// Fleet size.
        nodes: usize,
    },
    /// The hub refused a subscription query (it references no MC, or
    /// nests too deep).
    Subscription {
        /// Index into [`FleetConfig::subscriptions`].
        index: usize,
        /// Why the hub refused it.
        source: HubError,
    },
    /// The fault plan was rejected.
    Plan(FleetFaultError),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoNodes => write!(f, "fleet has no nodes"),
            FleetError::NoRounds => write!(f, "fleet run covers zero rounds"),
            FleetError::InvalidEventRate { rate } => {
                write!(f, "event rate {rate} outside (0, 1)")
            }
            FleetError::ZeroCapacity { what } => write!(f, "{what} must be at least 1"),
            FleetError::BadCanary { canary, nodes } => write!(
                f,
                "canary of {canary} nodes needs a non-empty control cohort in a \
                 {nodes}-node fleet"
            ),
            FleetError::Subscription { index, source } => {
                write!(f, "subscription {index} refused: {source}")
            }
            FleetError::Plan(e) => write!(f, "fleet fault plan rejected: {e}"),
        }
    }
}

impl std::error::Error for FleetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FleetError::Plan(e) => Some(e),
            FleetError::Subscription { source, .. } => Some(source),
            _ => None,
        }
    }
}

impl From<FleetFaultError> for FleetError {
    fn from(e: FleetFaultError) -> Self {
        FleetError::Plan(e)
    }
}

// ---------------------------------------------------------------------------
// The report
// ---------------------------------------------------------------------------

/// Everything one fleet run did. For a fixed [`FleetConfig`] the whole
/// report — trace included — is identical across repeated runs and hub
/// shard widths (compare with `==`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetReport {
    /// Fleet size.
    pub nodes: usize,
    /// Rounds run.
    pub rounds: u64,
    /// The summed conservation ledger (`conserves()` at end of run).
    pub ledger: FleetLedger,
    /// Per-node ledgers — each identical across fleet sizes for a fixed
    /// seed and per-node fault windows.
    pub node_ledgers: Vec<FleetLedger>,
    /// The bit-replayable fleet event history.
    pub trace: crate::hub::HubTrace,
    /// Fresh segments the hub accepted.
    pub accepted: u64,
    /// Duplicate arrivals the dedup windows absorbed.
    pub dup_hits: u64,
    /// Arrivals refused past a dedup window (held by the sender).
    pub out_of_window: u64,
    /// Retransmissions sent (ack timeouts and crash-rejoin re-offers).
    pub redeliveries: u64,
    /// Segments that reached subscribers twice — pinned at zero by the
    /// dedup windows.
    pub double_deliveries: u64,
    /// Fresh matching segments delivered per subscription, in
    /// registration order.
    pub sub_deliveries: Vec<u64>,
    /// MC version deployments applied (canary + promotion + rollback).
    pub deploys: u64,
    /// How the staged rollout ended, if one was configured and its canary
    /// window closed before the run ended.
    pub rollout: Option<RolloutOutcome>,
    /// Crash-rejoin restarts served from checkpoint journals.
    pub checkpoint_restores: u64,
    /// Demand fetches of spilled content that succeeded.
    pub fetch_ok: u64,
    /// Demand fetches that exhausted their bounded retries.
    pub fetch_failed: u64,
    /// Demand fetches still pending when the run ended.
    pub fetch_pending: u64,
    /// Bytes of spilled content recovered over the backhaul.
    pub fetched_bytes: u64,
}

impl std::fmt::Display for FleetReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "fleet: {} nodes, {} rounds", self.nodes, self.rounds)?;
        writeln!(f, "ledger: {}", self.ledger)?;
        writeln!(
            f,
            "hub: {} accepted, {} dup hits, {} out-of-window, {} redeliveries, \
             {} double deliveries",
            self.accepted,
            self.dup_hits,
            self.out_of_window,
            self.redeliveries,
            self.double_deliveries
        )?;
        for (i, d) in self.sub_deliveries.iter().enumerate() {
            writeln!(f, "subscription {i}: {d} segments delivered")?;
        }
        match self.rollout {
            Some(RolloutOutcome::Promoted { version }) => {
                writeln!(f, "rollout: {version} promoted ({} deploys)", self.deploys)?
            }
            Some(RolloutOutcome::RolledBack {
                version,
                ratio_permille,
            }) => writeln!(
                f,
                "rollout: {version} rolled back at {}.{:03}x control ({} deploys)",
                ratio_permille / 1000,
                ratio_permille % 1000,
                self.deploys
            )?,
            None => {}
        }
        writeln!(
            f,
            "demand-fetch: {} ok ({} bytes), {} failed, {} pending; \
             {} checkpoint restores",
            self.fetch_ok,
            self.fetched_bytes,
            self.fetch_failed,
            self.fetch_pending,
            self.checkpoint_restores
        )
    }
}

// ---------------------------------------------------------------------------
// Simulated nodes and the wire
// ---------------------------------------------------------------------------

/// Terminal fate of one journaled segment (node-side accounting).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Fate {
    Open,
    Delivered,
    Late,
    Spilled,
    Dropped,
}

#[derive(Debug, Clone)]
struct JournalSeg {
    /// A segment carries one event class or two distinct ones:
    /// `classes[..n_classes]`, held inline.
    classes: [McId; 2],
    n_classes: u8,
    bytes: usize,
    round: u64,
    version: McVersion,
}

/// One message on the wire. A segment copy names its journal entry; the
/// hub side builds the [`EventSegment`] from the sender's journal when the
/// copy is delivered (entries never change once journaled, so that is the
/// segment as sent).
#[derive(Debug, Clone, Copy)]
enum WireMsg {
    Seg { node: usize, seq: u64 },
    Ack { node: usize, seq: u64 },
}

/// The wire conditions in force for one round: seeded loss probability,
/// extra duplicate-storm copies, and max per-copy delivery jitter.
#[derive(Clone, Copy)]
struct LinkShape {
    loss: f64,
    copies: u32,
    jitter: u64,
}

/// In-flight wire messages in one bucket per delivery round: `buckets[k]`
/// holds the messages due at round `base + k`, each tagged with its
/// message id, in id order (ids are assigned as messages are appended).
#[derive(Debug, Default)]
struct Wire {
    buckets: VecDeque<Vec<(u64, WireMsg)>>,
    /// The next round to deliver: the round of `buckets[0]`.
    base: u64,
    next_id: u64,
}

impl Wire {
    /// Sends one message on behalf of a node (its own segments, or acks
    /// addressed to it): seeded loss, duplicate-storm copies, and per-copy
    /// delivery jitter, all drawn from that node's link RNG so the draw
    /// sequence is fleet-size-independent.
    fn send(&mut self, link_rng: &mut StdRng, round: u64, link: LinkShape, msg: WireMsg) {
        for _ in 0..=link.copies {
            if link.loss > 0.0 && link_rng.gen_bool(link.loss) {
                continue;
            }
            let delay = if link.jitter > 0 {
                link_rng.gen_range(0..=link.jitter)
            } else {
                0
            };
            let at = round + 1 + delay;
            debug_assert!(at >= self.base, "sent after its round was delivered");
            let k = (at - self.base) as usize;
            if k >= self.buckets.len() {
                self.buckets.resize_with(k + 1, Vec::new);
            }
            self.buckets[k].push((self.next_id, msg));
            self.next_id += 1;
        }
    }

    /// Appends every message due at or before `round` to `due`, in
    /// (delivery round, id) order. Emptied buckets move to the back of the
    /// ring for later rounds, keeping their capacity.
    fn drain_due(&mut self, round: u64, due: &mut Vec<(u64, WireMsg)>) {
        while self.base <= round {
            self.base += 1;
            if let Some(mut bucket) = self.buckets.pop_front() {
                due.append(&mut bucket);
                self.buckets.push_back(bucket);
            }
        }
    }
}

#[derive(Debug)]
struct SimNode {
    id: usize,
    // Durable state: survives a crash.
    journal: Vec<JournalSeg>,
    durable_acked_low: u64,
    version: McVersion,
    parked: Vec<(u64, usize)>,
    parked_unannounced: usize,
    // Volatile state: lost on crash, rebuilt from the checkpoint.
    acked_low: u64,
    acked: BTreeSet<u64>,
    attempts: Vec<u32>,
    outbox: VecDeque<(u64, u64)>, // (seq, retransmit due round)
    next_send: u64,
    crashed: bool,
    // Simulator-side accounting (not part of the node's own knowledge).
    fate: Vec<Fate>,
    ever_sent: Vec<bool>,
    ledger: FleetLedger,
    redeliveries: u64,
    event_rng: StdRng,
    link_rng: StdRng,
}

impl SimNode {
    fn new(id: usize, seed: u64) -> Self {
        let mix = |salt: u64| {
            let mut x = seed ^ (id as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt;
            x ^= x >> 30;
            x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            x ^= x >> 27;
            x
        };
        SimNode {
            id,
            journal: Vec::new(),
            durable_acked_low: 0,
            version: BASELINE_VERSION,
            parked: Vec::new(),
            parked_unannounced: 0,
            acked_low: 0,
            acked: BTreeSet::new(),
            attempts: Vec::new(),
            outbox: VecDeque::new(),
            next_send: 0,
            crashed: false,
            fate: Vec::new(),
            ever_sent: Vec::new(),
            ledger: FleetLedger::default(),
            redeliveries: 0,
            event_rng: StdRng::seed_from_u64(mix(0x5EED_E7E7)),
            link_rng: StdRng::seed_from_u64(mix(0x11F4_F00D)),
        }
    }

    /// Overwrites `out` with journaled segment `seq`, reusing its class
    /// buffer.
    fn write_segment(&self, seq: u64, out: &mut EventSegment) {
        let j = &self.journal[seq as usize];
        out.node = NodeId(self.id);
        out.seq = seq;
        out.classes.clear();
        out.classes
            .extend_from_slice(&j.classes[..usize::from(j.n_classes)]);
        out.round = j.round;
        out.bytes = j.bytes;
        out.version = j.version;
    }

    /// Settles an ack: at most one ledger settle per seq, and the
    /// cumulative ack watermark always advances (dup acks are no-ops).
    fn on_ack(&mut self, seq: u64) {
        let i = seq as usize;
        if i >= self.journal.len() {
            return;
        }
        if self.fate[i] == Fate::Open {
            if self.attempts[i] <= 1 {
                self.fate[i] = Fate::Delivered;
                self.ledger.delivered += 1;
            } else {
                self.fate[i] = Fate::Late;
                self.ledger.delivered_late += 1;
            }
        }
        if let Some(pos) = self.outbox.iter().position(|&(s, _)| s == seq) {
            self.outbox.remove(pos);
        }
        // Everything in `acked` lies above the watermark, so an in-order
        // ack only moves the watermark.
        if seq == self.acked_low {
            self.acked_low += 1;
        } else if seq > self.acked_low {
            self.acked.insert(seq);
        }
        while self.acked.first() == Some(&self.acked_low) {
            self.acked.pop_first();
            self.acked_low += 1;
        }
    }

    /// Retry budget exhausted: park in the local archive, or account the
    /// drop if the park is full. Only an `Open` segment settles.
    fn park(&mut self, seq: u64, spill_limit: usize) {
        let i = seq as usize;
        if self.fate[i] != Fate::Open {
            return;
        }
        if self.parked.len() < spill_limit {
            self.fate[i] = Fate::Spilled;
            self.ledger.spilled += 1;
            self.parked.push((seq, self.journal[i].bytes));
            self.parked_unannounced += 1;
        } else {
            self.fate[i] = Fate::Dropped;
            self.ledger.dropped += 1;
        }
    }

    /// Crash-restart: volatile state is rebuilt from the durable
    /// checkpoint; every non-spilled segment past the checkpointed
    /// watermark gets a fresh retry budget and will be re-offered.
    fn restart(&mut self) {
        self.crashed = false;
        self.outbox.clear();
        self.acked.clear();
        self.acked_low = self.durable_acked_low;
        self.next_send = self.durable_acked_low;
        for seq in self.durable_acked_low as usize..self.journal.len() {
            if self.fate[seq] != Fate::Spilled {
                self.attempts[seq] = 0;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rollout execution
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct RolloutExec {
    plan: RolloutPlan,
    started: bool,
    decided: bool,
    pending: VecDeque<(usize, McVersion)>,
    window_counts: Vec<u64>,
    outcome: Option<RolloutOutcome>,
    deploys: u64,
}

// ---------------------------------------------------------------------------
// The fleet
// ---------------------------------------------------------------------------

/// What the run loop derives from the configuration once, before its
/// first round (outside [`Fleet::new`], which only validates and builds).
struct RunPlan {
    /// Nodes some scripted crash names, ascending: the only nodes whose
    /// crash state can change, visited in node order.
    crash_nodes: Vec<usize>,
    /// Retransmission timeout by attempts already made: the retry
    /// backoff, floored above one wire round trip plus worst-case jitter
    /// so healthy acks never race the timer.
    rto: Vec<u64>,
}

#[derive(Debug, Clone)]
struct FetchJob {
    node: usize,
    seq: u64,
    bytes: usize,
    attempts: u32,
    due: u64,
}

/// One deterministic virtual-time fleet run: build with [`Fleet::new`],
/// execute with [`Fleet::run`].
#[derive(Debug)]
pub struct Fleet {
    cfg: FleetConfig,
    nodes: Vec<SimNode>,
    hub: CloudHub,
    wire: Wire,
    /// Per-round buffers of [`Fleet::deliver_wire`], reused across rounds:
    /// the messages due, the segment arrivals built from them (entries past
    /// the round's count are spare), and the acks to settle.
    due: Vec<(u64, WireMsg)>,
    seg_arrivals: Vec<(u64, EventSegment)>,
    acks: Vec<(usize, u64)>,
    rollout: Option<RolloutExec>,
    fetch_jobs: Vec<FetchJob>,
    fetch_ok: u64,
    fetch_failed: u64,
    fetched_bytes: u64,
    redeliveries: u64,
    checkpoint_restores: u64,
}

impl Fleet {
    /// Validates the configuration and builds the fleet.
    ///
    /// # Errors
    ///
    /// Returns the first [`FleetError`] the configuration trips.
    pub fn new(mut cfg: FleetConfig) -> Result<Self, FleetError> {
        if cfg.nodes == 0 {
            return Err(FleetError::NoNodes);
        }
        if cfg.rounds == 0 {
            return Err(FleetError::NoRounds);
        }
        if !(cfg.event_rate > 0.0 && cfg.event_rate < 1.0) {
            return Err(FleetError::InvalidEventRate {
                rate: cfg.event_rate,
            });
        }
        for (what, v) in [
            ("send window", cfg.send_window),
            ("dedup window", cfg.dedup_window),
            ("spill limit", cfg.spill_limit),
            ("event classes", cfg.classes),
            ("checkpoint interval", cfg.checkpoint_every as usize),
            ("shard width", cfg.shards),
        ] {
            if v == 0 {
                return Err(FleetError::ZeroCapacity { what });
            }
        }
        if let Some(r) = &cfg.rollout {
            if r.canary_nodes == 0 || r.canary_nodes >= cfg.nodes {
                return Err(FleetError::BadCanary {
                    canary: r.canary_nodes,
                    nodes: cfg.nodes,
                });
            }
        }
        cfg.faults.validate(cfg.nodes)?;
        let mut hub = CloudHub::new(cfg.dedup_window);
        for _ in 0..cfg.nodes {
            hub.register_node();
        }
        // The hub keeps the queries; moving them (rather than cloning,
        // which recurses) also lets it refuse one of any depth.
        for (index, q) in std::mem::take(&mut cfg.subscriptions)
            .into_iter()
            .enumerate()
        {
            hub.subscribe(q)
                .map_err(|source| FleetError::Subscription { index, source })?;
        }
        let nodes = (0..cfg.nodes).map(|i| SimNode::new(i, cfg.seed)).collect();
        let rollout = cfg.rollout.map(|plan| RolloutExec {
            plan,
            started: false,
            decided: false,
            pending: VecDeque::new(),
            window_counts: vec![0; cfg.nodes],
            outcome: None,
            deploys: 0,
        });
        Ok(Fleet {
            cfg,
            nodes,
            hub,
            wire: Wire::default(),
            due: Vec::new(),
            seg_arrivals: Vec::new(),
            acks: Vec::new(),
            rollout,
            fetch_jobs: Vec::new(),
            fetch_ok: 0,
            fetch_failed: 0,
            fetched_bytes: 0,
            redeliveries: 0,
            checkpoint_restores: 0,
        })
    }

    fn version_rate(&self, v: McVersion) -> f64 {
        self.cfg
            .version_rates
            .iter()
            .find(|(ver, _)| *ver == v)
            .map(|(_, r)| *r)
            .unwrap_or(1.0)
    }

    /// Derives the [`RunPlan`] from the configuration.
    fn run_plan(&self) -> RunPlan {
        use crate::faults::FleetFaultKind;
        let mut crash_nodes: Vec<usize> = self
            .cfg
            .faults
            .faults
            .iter()
            .filter_map(|f| match f.kind {
                FleetFaultKind::NodeCrash { node } => Some(node),
                _ => None,
            })
            .collect();
        crash_nodes.sort_unstable();
        crash_nodes.dedup();
        RunPlan {
            crash_nodes,
            rto: (0..self.cfg.retry.max_attempts.max(1))
                .map(|a| {
                    self.cfg
                        .retry
                        .delay_rounds(a)
                        .max(2 + 2 * self.cfg.jitter_rounds)
                })
                .collect(),
        }
    }

    /// Applies crash/rejoin and window transitions for `round`, tracing
    /// each one. Plan-window events come first (in plan order), then
    /// per-node crash transitions (in node order) — a fixed order, so the
    /// trace replays.
    fn begin_round(&mut self, round: u64, plan: &RunPlan) {
        use crate::faults::FleetFaultKind;
        for f in &self.cfg.faults.faults {
            let (start, end) = (f.at_round == round, f.at_round + f.rounds == round);
            let kind = match f.kind {
                FleetFaultKind::HubPartition { lo, hi } => {
                    if start {
                        Some(HubEventKind::PartitionStart { lo, hi })
                    } else if end {
                        Some(HubEventKind::PartitionEnd { lo, hi })
                    } else {
                        None
                    }
                }
                FleetFaultKind::DupStorm { copies } => {
                    if start {
                        Some(HubEventKind::DupStormStart { copies })
                    } else if end {
                        Some(HubEventKind::DupStormEnd)
                    } else {
                        None
                    }
                }
                FleetFaultKind::MessageLoss { rate } => {
                    if start {
                        Some(HubEventKind::LossStart {
                            permille: (rate * 1000.0).round() as u32,
                        })
                    } else if end {
                        Some(HubEventKind::LossEnd)
                    } else {
                        None
                    }
                }
                FleetFaultKind::NodeCrash { .. } => None,
            };
            if let Some(kind) = kind {
                self.hub.trace_mut().push(round, kind);
            }
        }
        for &i in &plan.crash_nodes {
            let down = self.cfg.faults.crashed(i, round);
            let was = self.nodes[i].crashed;
            if down && !was {
                self.nodes[i].crashed = true;
                self.hub
                    .trace_mut()
                    .push(round, HubEventKind::NodeCrashed { node: NodeId(i) });
            } else if !down && was {
                self.nodes[i].restart();
                self.checkpoint_restores += 1;
                let resume = self.nodes[i].acked_low;
                self.hub.trace_mut().push(
                    round,
                    HubEventKind::NodeRejoined {
                        node: NodeId(i),
                        resume_seq: resume,
                    },
                );
            }
        }
    }

    /// One step of the staged-rollout state machine: start the canary,
    /// drain pending deploys to reachable nodes, and close the canary
    /// window with a promote-or-rollback verdict.
    fn rollout_step(&mut self, round: u64) {
        let Some(ro) = self.rollout.as_mut() else {
            return;
        };
        if !ro.started && round >= ro.plan.start_round {
            ro.started = true;
            for n in 0..ro.plan.canary_nodes {
                ro.pending.push_back((n, ro.plan.version));
            }
            self.hub.trace_mut().push(
                round,
                HubEventKind::RolloutStarted {
                    version: ro.plan.version,
                    canary: ro.plan.canary_nodes,
                },
            );
        }
        if ro.started && !ro.decided && round >= ro.plan.start_round + ro.plan.canary_rounds {
            ro.decided = true;
            let canary_n = ro.plan.canary_nodes as f64;
            let control_n = (self.cfg.nodes - ro.plan.canary_nodes) as f64;
            let canary_rate: f64 =
                ro.window_counts[..ro.plan.canary_nodes].iter().sum::<u64>() as f64 / canary_n;
            let control_rate: f64 =
                ro.window_counts[ro.plan.canary_nodes..].iter().sum::<u64>() as f64 / control_n;
            let regressed = if control_rate > 0.0 {
                canary_rate > ro.plan.regression_factor * control_rate
            } else {
                canary_rate > 0.0 && ro.plan.regression_factor.is_finite()
            };
            if regressed {
                let ratio_permille = if control_rate > 0.0 {
                    (canary_rate / control_rate * 1000.0).round() as u32
                } else {
                    1_000_000
                };
                ro.outcome = Some(RolloutOutcome::RolledBack {
                    version: ro.plan.version,
                    ratio_permille,
                });
                for n in 0..ro.plan.canary_nodes {
                    ro.pending.push_back((n, BASELINE_VERSION));
                }
                self.hub.trace_mut().push(
                    round,
                    HubEventKind::RolloutRolledBack {
                        version: ro.plan.version,
                        ratio_permille,
                    },
                );
            } else {
                ro.outcome = Some(RolloutOutcome::Promoted {
                    version: ro.plan.version,
                });
                for n in ro.plan.canary_nodes..self.cfg.nodes {
                    ro.pending.push_back((n, ro.plan.version));
                }
                self.hub.trace_mut().push(
                    round,
                    HubEventKind::RolloutPromoted {
                        version: ro.plan.version,
                    },
                );
            }
        }
        // Drain deploys to reachable nodes; unreachable ones stay queued
        // (a crashed canary gets its version the round it rejoins).
        let mut still: VecDeque<(usize, McVersion)> = VecDeque::new();
        while let Some((n, v)) = ro.pending.pop_front() {
            let reachable = !self.nodes[n].crashed && !self.cfg.faults.partitioned(n, round);
            if reachable {
                if self.nodes[n].version != v {
                    self.nodes[n].version = v;
                    ro.deploys += 1;
                }
            } else {
                still.push_back((n, v));
            }
        }
        ro.pending = still;
    }

    /// Delivers this round's due wire messages: segments to the hub
    /// (sharded dedup, then acks), acks to their nodes (vanishing if the
    /// node is crashed or partitioned at delivery).
    fn deliver_wire(&mut self, round: u64, link: LinkShape) {
        let mut due = std::mem::take(&mut self.due);
        let mut arrivals = std::mem::take(&mut self.seg_arrivals);
        self.wire.drain_due(round, &mut due);
        self.acks.clear();
        let mut arrived = 0;
        for &(id, msg) in &due {
            match msg {
                WireMsg::Seg { node, seq } => {
                    // A partitioned sender's in-flight segments already
                    // left its access link; they deliver.
                    if arrived == arrivals.len() {
                        arrivals.push((
                            id,
                            EventSegment {
                                node: NodeId(node),
                                seq,
                                classes: Vec::new(),
                                round: 0,
                                bytes: 0,
                                version: BASELINE_VERSION,
                            },
                        ));
                    }
                    arrivals[arrived].0 = id;
                    self.nodes[node].write_segment(seq, &mut arrivals[arrived].1);
                    arrived += 1;
                }
                WireMsg::Ack { node, seq } => self.acks.push((node, seq)),
            }
        }
        due.clear();
        self.due = due;
        // Hub ingest: dedup in shards, effects + acks in msg-id order.
        let verdicts = self
            .hub
            .ingest_sharded(&arrivals[..arrived], self.cfg.shards)
            .expect("all fleet nodes are registered");
        for ((_, verdict), (_, seg)) in verdicts.iter().zip(&arrivals[..arrived]) {
            let n = seg.node.0;
            if *verdict == Admit::Fresh {
                if let Some(ro) = self.rollout.as_mut() {
                    if ro.started && !ro.decided {
                        ro.window_counts[n] += 1;
                    }
                }
            }
            // Fresh and duplicate arrivals are acked (the first ack may
            // have been lost); out-of-window arrivals are not.
            if *verdict != Admit::OutOfWindow && !self.cfg.faults.partitioned(n, round) {
                self.wire.send(
                    &mut self.nodes[n].link_rng,
                    round,
                    link,
                    WireMsg::Ack {
                        node: n,
                        seq: seg.seq,
                    },
                );
            }
        }
        self.seg_arrivals = arrivals;
        // Ack deliveries settle at their nodes.
        for &(node, seq) in &self.acks {
            if self.nodes[node].crashed || self.cfg.faults.partitioned(node, round) {
                continue;
            }
            self.nodes[node].on_ack(seq);
        }
    }

    /// One node round: generate (journal + ledger), transmit fresh
    /// segments up to the send window, retransmit on ack timeout, park on
    /// retry exhaustion.
    fn node_step(&mut self, round: u64, link: LinkShape, rto: &[u64], i: usize) {
        if self.nodes[i].crashed {
            return;
        }
        let partitioned = self.cfg.faults.partitioned(i, round);
        let spill_limit = self.cfg.spill_limit;
        let send_window = self.cfg.send_window;
        let max_attempts = self.cfg.retry.max_attempts;
        let classes = self.cfg.classes;
        let rate =
            (self.cfg.event_rate * self.version_rate(self.nodes[i].version)).clamp(0.0, 0.95);
        let node = &mut self.nodes[i];
        // Generate: one seeded draw per alive round, always consumed in
        // the same per-node order.
        if node.event_rng.gen_bool(rate) {
            let first = McId(node.event_rng.gen_range(0..classes));
            let (mut cls, mut n_classes) = ([first; 2], 1);
            if classes > 1 && node.event_rng.gen_bool(0.4) {
                let extra = McId(node.event_rng.gen_range(0..classes));
                if extra != first {
                    cls[1] = extra;
                    n_classes = 2;
                }
            }
            let bytes = node.event_rng.gen_range(300..1500);
            node.journal.push(JournalSeg {
                classes: cls,
                n_classes,
                bytes,
                round,
                version: node.version,
            });
            node.fate.push(Fate::Open);
            node.ever_sent.push(false);
            node.attempts.push(0);
            node.ledger.offered += 1;
        }
        // Retransmit due segments; exhausted budgets park.
        let mut idx = 0;
        while idx < node.outbox.len() {
            let (seq, due) = node.outbox[idx];
            if due > round {
                idx += 1;
                continue;
            }
            let s = seq as usize;
            if node.attempts[s] >= max_attempts {
                node.outbox.remove(idx);
                node.park(seq, spill_limit);
                continue;
            }
            node.attempts[s] += 1;
            node.redeliveries += 1;
            if !partitioned {
                self.wire.send(
                    &mut node.link_rng,
                    round,
                    link,
                    WireMsg::Seg { node: i, seq },
                );
            }
            node.outbox[idx].1 = round + rto[node.attempts[s] as usize - 1];
            idx += 1;
        }
        // Fresh transmissions up to the send window. After a crash-rejoin
        // this walks from the checkpointed watermark, re-offering
        // everything not durably known settled — the duplicates the hub's
        // dedup window exists to absorb.
        while node.outbox.len() < send_window && (node.next_send as usize) < node.journal.len() {
            let seq = node.next_send;
            node.next_send += 1;
            let s = seq as usize;
            if node.fate[s] == Fate::Spilled || node.acked.contains(&seq) || seq < node.acked_low {
                continue;
            }
            node.attempts[s] += 1;
            // A crash-rejoin re-offer looks like a first send to the node
            // (its attempt counters died with it); the simulator-side
            // `ever_sent` bit survives and counts it as a redelivery.
            if node.ever_sent[s] {
                node.redeliveries += 1;
            }
            node.ever_sent[s] = true;
            if !partitioned {
                self.wire.send(
                    &mut node.link_rng,
                    round,
                    link,
                    WireMsg::Seg { node: i, seq },
                );
            }
            node.outbox.push_back((seq, round + rto[0]));
        }
    }

    /// Spill announcements and the hub's bounded-retry demand fetches of
    /// parked content.
    fn fetch_step(&mut self, round: u64) {
        for i in 0..self.nodes.len() {
            if self.nodes[i].parked_unannounced > 0
                && !self.nodes[i].crashed
                && !self.cfg.faults.partitioned(i, round)
            {
                let fresh = self.nodes[i].parked_unannounced;
                let start = self.nodes[i].parked.len() - fresh;
                for &(seq, bytes) in &self.nodes[i].parked[start..] {
                    self.fetch_jobs.push(FetchJob {
                        node: i,
                        seq,
                        bytes,
                        attempts: 0,
                        due: round + 1,
                    });
                }
                self.nodes[i].parked_unannounced = 0;
                self.hub.trace_mut().push(
                    round,
                    HubEventKind::SpillNotice {
                        node: NodeId(i),
                        parked: fresh,
                    },
                );
            }
        }
        let retry = self.cfg.retry;
        let mut kept: Vec<FetchJob> = Vec::with_capacity(self.fetch_jobs.len());
        for mut job in self.fetch_jobs.drain(..) {
            if job.due > round {
                kept.push(job);
                continue;
            }
            let reachable =
                !self.nodes[job.node].crashed && !self.cfg.faults.partitioned(job.node, round);
            if reachable {
                self.fetch_ok += 1;
                self.fetched_bytes += job.bytes as u64;
                self.hub.trace_mut().push(
                    round,
                    HubEventKind::FetchOk {
                        node: NodeId(job.node),
                        seq: job.seq,
                        bytes: job.bytes,
                        attempt: job.attempts + 1,
                    },
                );
            } else {
                job.attempts += 1;
                if job.attempts >= retry.max_attempts {
                    self.fetch_failed += 1;
                    self.hub.trace_mut().push(
                        round,
                        HubEventKind::FetchFailed {
                            node: NodeId(job.node),
                            seq: job.seq,
                            attempts: job.attempts,
                        },
                    );
                } else {
                    job.due = round + retry.delay_rounds(job.attempts - 1).max(1);
                    kept.push(job);
                }
            }
        }
        self.fetch_jobs = kept;
    }

    /// Enables hub-level observability before [`Fleet::run`]: the hub's
    /// ingest/accept/dedup counters register on `registry` (one cell per
    /// metric — the registry snapshot and the report read the same
    /// state), and a span ring of `trace_capacity` records each ingest
    /// verdict. Drain spans with [`Fleet::run_traced`].
    pub fn enable_obs(&mut self, registry: &Registry, trace_capacity: usize) {
        self.hub.enable_obs(registry, trace_capacity);
    }

    /// Runs the configured rounds and settles the ledgers.
    pub fn run(self) -> FleetReport {
        self.run_traced().0
    }

    /// [`Fleet::run`], also draining the hub span ring (empty unless
    /// [`Fleet::enable_obs`] was called). The report stays `Eq`-comparable;
    /// spans ride alongside rather than inside it.
    pub fn run_traced(mut self) -> (FleetReport, Vec<Span>) {
        let plan = self.run_plan();
        for round in 0..self.cfg.rounds {
            self.begin_round(round, &plan);
            self.rollout_step(round);
            let link = LinkShape {
                loss: self.cfg.faults.loss_rate(round),
                copies: self.cfg.faults.dup_copies(round),
                jitter: self.cfg.jitter_rounds,
            };
            self.deliver_wire(round, link);
            for i in 0..self.nodes.len() {
                self.node_step(round, link, &plan.rto, i);
            }
            self.fetch_step(round);
            if round % self.cfg.checkpoint_every == self.cfg.checkpoint_every - 1 {
                for node in &mut self.nodes {
                    if !node.crashed {
                        node.durable_acked_low = node.acked_low;
                    }
                }
            }
        }
        // End-of-run settle: every still-open segment is an accounted
        // drop, so the summed ledger conserves exactly.
        let mut node_ledgers = Vec::with_capacity(self.nodes.len());
        let mut ledger = FleetLedger::default();
        for node in &mut self.nodes {
            let open = node.fate.iter().filter(|&&f| f == Fate::Open).count() as u64;
            node.ledger.dropped += open;
            for f in node.fate.iter_mut() {
                if *f == Fate::Open {
                    *f = Fate::Dropped;
                }
            }
            debug_assert!(node.ledger.conserves());
            node_ledgers.push(node.ledger);
            ledger.absorb(&node.ledger);
            self.redeliveries += node.redeliveries;
        }
        let sub_deliveries = self
            .hub
            .subscriptions()
            .iter()
            .map(|s| s.deliveries)
            .collect();
        let spans = self.hub.take_spans();
        let report = FleetReport {
            nodes: self.cfg.nodes,
            rounds: self.cfg.rounds,
            ledger,
            node_ledgers,
            accepted: self.hub.accepted(),
            dup_hits: self.hub.dup_hits(),
            out_of_window: self.hub.out_of_window(),
            redeliveries: self.redeliveries,
            double_deliveries: self.hub.double_deliveries(),
            sub_deliveries,
            deploys: self.rollout.as_ref().map_or(0, |r| r.deploys),
            rollout: self.rollout.as_ref().and_then(|r| r.outcome),
            checkpoint_restores: self.checkpoint_restores,
            fetch_ok: self.fetch_ok,
            fetch_failed: self.fetch_failed,
            fetch_pending: self.fetch_jobs.len() as u64,
            fetched_bytes: self.fetched_bytes,
            trace: std::mem::take(self.hub.trace_mut()),
        };
        (report, spans)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_free_fleet_conserves_and_delivers_everything_on_time() {
        let cfg = FleetConfig {
            nodes: 12,
            rounds: 120,
            ..Default::default()
        };
        let report = Fleet::new(cfg).unwrap().run();
        assert!(report.ledger.conserves(), "{}", report.ledger);
        assert!(report.ledger.offered > 0);
        assert_eq!(report.ledger.spilled, 0);
        assert_eq!(report.double_deliveries, 0);
        assert_eq!(report.dup_hits, 0, "no storm, no loss ⇒ no duplicates");
        // Only the tail still in flight at cutoff can drop.
        assert!(
            report.ledger.dropped <= (12 * 8) as u64,
            "at most one send window per node unsettled: {}",
            report.ledger
        );
    }

    #[test]
    fn config_validation_is_typed() {
        let bad = FleetConfig {
            nodes: 0,
            ..Default::default()
        };
        assert_eq!(Fleet::new(bad).unwrap_err(), FleetError::NoNodes);
        let bad = FleetConfig {
            event_rate: 1.0,
            ..Default::default()
        };
        assert!(matches!(
            Fleet::new(bad).unwrap_err(),
            FleetError::InvalidEventRate { .. }
        ));
        let bad = FleetConfig {
            faults: FleetFaultPlan::new().node_crash(99, 0, 5),
            ..Default::default()
        };
        let err = Fleet::new(bad).unwrap_err();
        assert!(matches!(err, FleetError::Plan(_)));
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.source().is_some(), "plan error is the source");
    }

    #[test]
    fn subscription_errors_carry_the_hub_cause() {
        // A query too deep for the hub, at subscription index 1, built
        // and refused on a 256 KiB thread: `Fleet::new` hands the query to
        // the hub without cloning (which would recurse), and the hub's
        // error comes back as the source.
        let err = std::thread::Builder::new()
            .stack_size(256 * 1024)
            .spawn(|| {
                let mut deep = Query::mc(McId(0));
                for _ in 0..100_000 {
                    deep = deep.not();
                }
                let cfg = FleetConfig {
                    subscriptions: vec![Query::mc(McId(0)), deep],
                    ..Default::default()
                };
                Fleet::new(cfg).unwrap_err()
            })
            .expect("spawn fleet thread")
            .join()
            .expect("a deep subscription neither overflows nor panics");
        assert_eq!(
            err,
            FleetError::Subscription {
                index: 1,
                source: HubError::QueryTooDeep { depth: 100_000 },
            }
        );
        let dyn_err: &dyn std::error::Error = &err;
        assert!(dyn_err.to_string().starts_with("subscription 1 refused"));
        let cause = dyn_err.source().expect("hub error is the source");
        assert_eq!(
            cause.downcast_ref::<HubError>(),
            Some(&HubError::QueryTooDeep { depth: 100_000 })
        );
        // Every `Query` has at least one MC leaf, so the hub's empty-query
        // refusal cannot be provoked through `Fleet::new`; its wrapping
        // still reads and chains the same way.
        let empty = FleetError::Subscription {
            index: 0,
            source: HubError::EmptyQuery,
        };
        assert_eq!(
            empty.to_string(),
            "subscription 0 refused: subscription query references no MC"
        );
        let dyn_empty: &dyn std::error::Error = &empty;
        assert!(dyn_empty.source().is_some());
    }

    #[test]
    fn bucketed_wire_delivers_in_round_then_id_order() {
        // Reference: the (delivery round, id)-keyed map the buckets
        // replaced, fed the same link RNG draws.
        let link = LinkShape {
            loss: 0.3,
            copies: 2,
            jitter: 3,
        };
        let mut wire = Wire::default();
        let mut rng = StdRng::seed_from_u64(7);
        let mut reference = std::collections::BTreeMap::new();
        let mut ref_rng = StdRng::seed_from_u64(7);
        let mut ref_id = 0u64;
        let mut due = Vec::new();
        let mut delivered = 0;
        for round in 0..60u64 {
            due.clear();
            wire.drain_due(round, &mut due);
            let mut want = Vec::new();
            while let Some(e) = reference.first_entry() {
                let &(at, id) = e.key();
                if at > round {
                    break;
                }
                want.push((id, e.remove()));
            }
            let got: Vec<(u64, u64)> = due
                .iter()
                .map(|&(id, msg)| match msg {
                    WireMsg::Ack { seq, .. } | WireMsg::Seg { seq, .. } => (id, seq),
                })
                .collect();
            assert_eq!(got, want, "round {round}");
            delivered += got.len();
            if round >= 50 {
                continue; // let the tail drain
            }
            for seq in 0..round % 5 {
                wire.send(&mut rng, round, link, WireMsg::Ack { node: 0, seq });
                for _ in 0..=link.copies {
                    if ref_rng.gen_bool(link.loss) {
                        continue;
                    }
                    let delay = ref_rng.gen_range(0..=link.jitter);
                    reference.insert((round + 1 + delay, ref_id), seq);
                    ref_id += 1;
                }
            }
        }
        assert!(reference.is_empty());
        assert_eq!(delivered as u64, ref_id, "every sent copy delivered once");
        assert!(wire.buckets.len() <= 2 + link.jitter as usize);
    }

    #[test]
    fn crash_rejoin_redelivers_but_never_doubles() {
        let cfg = FleetConfig {
            nodes: 6,
            rounds: 160,
            // No checkpoint lands before the crash, so the rejoin must
            // re-offer the journal from seq 0.
            checkpoint_every: 64,
            faults: FleetFaultPlan::new().node_crash(2, 40, 20),
            subscriptions: vec![Query::mc(McId(0))],
            ..Default::default()
        };
        let report = Fleet::new(cfg).unwrap().run();
        assert!(report.ledger.conserves());
        assert_eq!(report.checkpoint_restores, 1);
        assert_eq!(report.double_deliveries, 0);
        assert!(
            report.redeliveries > 0,
            "rejoin re-offers past the checkpoint"
        );
        assert!(report.dup_hits > 0, "re-offers arrive as duplicates");
        let kinds: Vec<_> = report.trace.events.iter().map(|e| e.kind).collect();
        assert!(kinds.contains(&HubEventKind::NodeCrashed { node: NodeId(2) }));
        assert!(kinds.iter().any(|k| matches!(
            k,
            HubEventKind::NodeRejoined {
                node: NodeId(2),
                ..
            }
        )));
    }
}
