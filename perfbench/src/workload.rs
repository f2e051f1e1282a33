//! The two workloads, and why each exists.
//!
//! The node workload is a **closed loop in virtual time**: the runtime
//! polls each camera once per round, one round is one frame interval
//! (15 fps → 66.7 ms of camera time), and a frame that arrives in a round
//! is served in that round (the gathered batch holds one frame per
//! camera), so a slower node receives no more work than it can finish —
//! round time measures service, never a growing backlog. Each workload
//! loads a different layer:
//!
//! | workload    | layer doing most of the work            |
//! |-------------|-----------------------------------------|
//! | `hd_2cam`   | `ff_core::extractor` (base DNN)         |
//! | `fleet_200` | `ff_core::hub` (cloud ingest)           |
//!
//! Scene, MC and fleet seeds all derive from the workload seed given on
//! the command line.

use ff_core::spec::McSpec;
use ff_video::scene::SceneConfig;
use ff_video::Resolution;

/// Camera frame rate of the node workload.
pub const FPS: f64 = 15.0;

/// One edge-node workload, driven through `EdgeNode::run_controlled`.
/// Each camera is always on and runs one full-frame and one localized MC.
#[derive(Debug, Clone, Copy)]
pub struct NodeWorkload {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Cameras on the node.
    pub cameras: usize,
    /// Camera resolution.
    pub res: Resolution,
    /// MobileNet width multiplier α of the base DNN.
    pub alpha: f32,
    /// Frames each camera delivers in one timed run.
    pub frames: usize,
    /// Frames each camera delivers in one run of the traced invocation.
    /// Its obs-off runs together give the round p95, which needs 200
    /// rounds.
    pub traced_frames: usize,
    /// Distinct frames rendered per camera; the camera replays them in a
    /// loop. Base-DNN and MC cost do not depend on frame content, so a
    /// loop keeps rendering and the serial gold cheap without changing
    /// what a round costs.
    pub clip: usize,
}

/// The fleet workload, driven through `Fleet::run`.
#[derive(Debug, Clone, Copy)]
pub struct FleetWorkload {
    /// Workload name as given to `--workload`.
    pub name: &'static str,
    /// Simulated edge nodes.
    pub nodes: usize,
    /// Virtual rounds per fleet run.
    pub rounds: u64,
}

/// A workload of either kind.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    /// An edge node.
    Node(NodeWorkload),
    /// The cloud fleet.
    Fleet(FleetWorkload),
}

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Workload> {
    Some(match name {
        // The extractor layer does most of the work: two always-on cameras
        // at 480×270 with the full-width (α = 1) MobileNet, the ROADMAP's
        // `panel_bound` geometry, where per-layer precision work lands.
        // Measured on a 2-core x86-64 VM, extraction takes ~35–39 ms of
        // each frame and a typical round ~70–75 ms, longer than the 66.7 ms
        // frame interval: this node is over budget, and the benchmark shows
        // by how much.
        "hd_2cam" => Workload::Node(NodeWorkload {
            name: "hd_2cam",
            cameras: 2,
            res: Resolution::new(480, 270),
            alpha: 1.0,
            frames: 200,
            traced_frames: 70,
            clip: 48,
        }),
        // The only workload where the cloud hub does the work: 200
        // simulated nodes under the crash, duplicate-storm and loss script
        // of the fleet chaos run. No inference runs.
        "fleet_200" => Workload::Fleet(FleetWorkload {
            name: "fleet_200",
            nodes: 200,
            rounds: 240,
        }),
        _ => return None,
    })
}

/// Every workload the program runs.
pub const NAMES: [&str; 2] = ["hd_2cam", "fleet_200"];

/// Derives an independent seed for `(tag, index)` from the workload seed
/// (splitmix64 over the mixed inputs).
pub fn derive(seed: u64, tag: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(tag.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(index.wrapping_mul(0xD1B5_4A32_D192_ED03));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const TAG_SCENE: u64 = 1;
const TAG_MC: u64 = 2;
/// Seed tag of the fleet's master seed.
pub const TAG_FLEET: u64 = 3;

impl NodeWorkload {
    /// The scene camera `camera` films.
    pub fn scene(&self, seed: u64, camera: usize) -> SceneConfig {
        SceneConfig {
            resolution: self.res,
            fps: FPS,
            seed: derive(seed, TAG_SCENE, camera as u64),
            pedestrian_rate: 0.03,
            car_rate: 0.02,
            ..Default::default()
        }
    }

    /// The MCs camera `camera` runs, in deployment order: one full-frame
    /// and one localized.
    pub fn mc_specs(&self, seed: u64, camera: usize) -> Vec<McSpec> {
        let mc_seed = |k: usize| derive(seed, TAG_MC, (camera * 64 + k) as u64);
        vec![
            McSpec::full_frame(format!("c{camera}-full"), mc_seed(0)),
            McSpec::localized(format!("c{camera}-loc"), None, mc_seed(1)),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_name_resolves_and_seeds_differ_by_tag_and_index() {
        for name in NAMES {
            assert!(by_name(name).is_some(), "{name}");
        }
        assert!(by_name("nope").is_none());
        assert_ne!(derive(1, TAG_SCENE, 0), derive(1, TAG_MC, 0));
        assert_ne!(derive(1, TAG_SCENE, 0), derive(1, TAG_SCENE, 1));
        assert_ne!(derive(1, TAG_SCENE, 0), derive(2, TAG_SCENE, 0));
    }
}
