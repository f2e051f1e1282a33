//! Recorded digests of two fleet runs' full output.
//!
//! The fleet loop and the hub's ingest bookkeeping may be rewritten for
//! speed, but never in a way that moves one byte of what a run reports.
//! This test pins that: it hashes (FNV-1a, 64-bit) the `Debug` rendering of
//! the `FleetReport`, the printed hub trace, and the hub's span stream from
//! `Fleet::run_traced`, and compares them with digests recorded before any
//! such rewrite.
//!
//! Two setups cover the loop's paths:
//! * the `fleet_200` chaos script (a crash, a duplicate storm, seeded
//!   loss) on one hub shard — the benchmark's fleet workload;
//! * 60 nodes under crashes, a hub partition long enough to spill, a
//!   duplicate storm, loss, and a staged rollout that rolls back, ingested
//!   on four hub shards.

use ff_core::faults::{FleetFaultPlan, RetryPolicy};
use ff_core::fleet::{Fleet, FleetConfig};
use ff_core::hub::{McVersion, RolloutPlan};
use ff_core::obs::Registry;
use ff_core::query::Query;
use ff_core::McId;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(s: &str) -> u64 {
    s.bytes().fold(FNV_OFFSET, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(FNV_PRIME)
    })
}

/// `(report, trace, spans)` digests of one traced run.
fn digests(cfg: FleetConfig) -> [u64; 3] {
    let mut fleet = Fleet::new(cfg).expect("valid fleet config");
    fleet.enable_obs(&Registry::new(), 1 << 20);
    let (report, spans) = fleet.run_traced();
    assert!(report.ledger.conserves(), "{}", report.ledger);
    assert_eq!(report.double_deliveries, 0);
    assert!(!spans.is_empty(), "every ingest verdict leaves a span");
    [
        fnv1a(&format!("{report:?}")),
        fnv1a(&format!("{}", report.trace)),
        fnv1a(&format!("{spans:?}")),
    ]
}

/// The benchmark's `fleet_200` chaos script, on one hub shard.
fn fleet_200_chaos() -> FleetConfig {
    FleetConfig {
        nodes: 200,
        rounds: 240,
        shards: 1,
        faults: FleetFaultPlan::new()
            .node_crash(3, 60, 20)
            .dup_storm(120, 30, 1)
            .message_loss(40, 30, 0.2),
        subscriptions: vec![Query::mc(McId(0)).or(Query::mc(McId(1)))],
        ..Default::default()
    }
}

/// 60 nodes with a spilling partition and a rolled-back rollout, on four
/// hub shards.
fn partition_rollout_spill() -> FleetConfig {
    FleetConfig {
        nodes: 60,
        rounds: 240,
        shards: 4,
        retry: RetryPolicy {
            max_attempts: 3,
            ..RetryPolicy::default()
        },
        faults: FleetFaultPlan::new()
            .node_crash(3, 40, 25)
            .node_crash(29, 100, 30)
            .hub_partition(90, 30, 8, 24)
            .dup_storm(130, 20, 1)
            .message_loss(130, 20, 0.15)
            .message_loss(55, 10, 0.3),
        rollout: Some(RolloutPlan {
            version: McVersion(2),
            start_round: 170,
            canary_nodes: 6,
            canary_rounds: 30,
            regression_factor: 2.0,
        }),
        subscriptions: vec![
            Query::mc(McId(0)).or(Query::mc(McId(1))),
            Query::mc(McId(2)).and(Query::mc(McId(0)).not()),
        ],
        version_rates: vec![(McVersion(2), 4.0)],
        ..Default::default()
    }
}

#[test]
fn fleet_runs_match_recorded_digests() {
    let got = [
        digests(fleet_200_chaos()),
        digests(partition_rollout_spill()),
    ];
    // Recorded before the fleet loop's wire, delivery audit and segment
    // path were rewritten; any change here is a change in behaviour.
    let want: [[u64; 3]; 2] = [
        [
            0xf259_39e6_2178_54a0,
            0x4eb1_c4d3_ced2_352f,
            0xc121_95ff_e6e5_7bc8,
        ],
        [
            0x223e_96b5_c521_10c9,
            0x00dc_9f58_eab7_315c,
            0x0cde_10f2_7c3c_22ce,
        ],
    ];
    for (name, (g, w)) in ["fleet_200 chaos", "partition + rollout + spill"]
        .iter()
        .zip(got.iter().zip(want.iter()))
    {
        assert_eq!(
            g, w,
            "{name}: [report, trace, spans] digests moved: got [{:#018x}, {:#018x}, {:#018x}]",
            g[0], g[1], g[2]
        );
    }
}
