//! Per-unit profile of the base DNN, timed from outside the network.
//!
//! The units are chained by hand through `FeatureExtractor::net_mut()` →
//! `Sequential::layer_at_mut(i)`, each batched call timed, at the batch
//! size the workload's rounds formed. Each unit's time is joined to its
//! multiply-adds from `NetworkCost::profile`. Every tap the chain passes is
//! compared bit for bit with `extract_batch` on the same frames, so the
//! profile times the computation the node runs.

use std::time::{Duration, Instant};

use ff_core::extractor::FeatureMaps;
use ff_core::FeatureExtractor;
use ff_models::{MobileNetConfig, LAYER_FULL_FRAME_TAP, LAYER_LOCALIZED_TAP};
use ff_nn::cost::NetworkCost;
use ff_tensor::{Tensor, Workspace};
use ff_video::{Frame, Resolution};

use crate::stats;

/// Chained forward passes timed at least this many times.
const MIN_REPS: usize = 5;
/// ...and repeated until this much time has gone by, up to [`MAX_REPS`].
const TARGET: Duration = Duration::from_millis(1500);
const MAX_REPS: usize = 100;

/// One MobileNet unit's timing.
#[derive(Debug, Clone)]
pub struct Unit {
    /// Layer name in the network (`conv2_1/dw`, …).
    pub name: String,
    /// Median wall time of one batched call, in milliseconds.
    pub ms: f64,
    /// Multiply-adds per frame.
    pub madds: u64,
    /// Frames per batched call.
    pub batch: usize,
}

impl Unit {
    /// The unit's name as it appears in metric names (`/` becomes `-`).
    pub fn metric_name(&self) -> String {
        self.name.replace('/', "-")
    }

    /// Multiply-adds executed per second, in billions.
    pub fn gmacs_per_s(&self) -> f64 {
        self.madds as f64 * self.batch as f64 / (self.ms / 1e3) / 1e9
    }
}

/// The profile of every unit up to the deepest tap.
#[derive(Debug, Clone)]
pub struct Profile {
    /// The units, in execution order.
    pub units: Vec<Unit>,
    /// Whether every tap of the chained units equals `extract_batch`'s.
    pub bit_exact: bool,
}

/// The taps every pipeline serves (`FilterForward` registers both).
pub fn taps() -> Vec<String> {
    vec![
        LAYER_LOCALIZED_TAP.to_string(),
        LAYER_FULL_FRAME_TAP.to_string(),
    ]
}

/// The names of the units [`units`] times, for any workload: MobileNet up
/// to the full-frame tap, the deepest tap any MC reads.
pub fn unit_names() -> Vec<String> {
    let net = MobileNetConfig::with_width(0.25).build();
    let deepest = net
        .index_of(LAYER_FULL_FRAME_TAP)
        .expect("MobileNet has the full-frame tap");
    net.layer_names()
        .take(deepest + 1)
        .map(|n| n.replace('/', "-"))
        .collect()
}

/// Profiles the base DNN of `cfg` at `res` on one batch of `frames`.
pub fn units(cfg: MobileNetConfig, res: Resolution, frames: &[&Frame]) -> Profile {
    let batch = frames.len();
    let mut ex = FeatureExtractor::new(cfg, taps());
    let tensors: Vec<Tensor> = frames.iter().map(|f| f.to_tensor()).collect();
    let reference: Vec<FeatureMaps> = ex.extract_batch(&tensors).to_vec();
    let taps = ex.taps().to_vec();
    let net = ex.net_mut();
    let taps: Vec<(usize, String)> = taps
        .into_iter()
        .map(|t| (net.index_of(&t).expect("registered tap"), t))
        .collect();
    let deepest = taps.iter().map(|(i, _)| *i).max().expect("two taps");
    let cost = NetworkCost::profile(net, &[res.height, res.width, 3]);

    let fd = tensors[0].dims().to_vec();
    let mut stacked_data = Vec::with_capacity(batch * tensors[0].data().len());
    for t in &tensors {
        stacked_data.extend_from_slice(t.data());
    }
    let stacked = Tensor::from_vec(vec![batch, fd[0], fd[1], fd[2]], stacked_data);

    let mut ws = Workspace::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); deepest + 1];
    let mut bit_exact = true;
    let start = Instant::now();
    let mut rep = 0;
    while rep < MIN_REPS || (start.elapsed() < TARGET && rep < MAX_REPS) {
        let mut cur: Option<Tensor> = None;
        for (i, samples) in times.iter_mut().enumerate() {
            let t = Instant::now();
            let next = net.layer_at_mut(i).forward_batch_ws(
                cur.as_ref().unwrap_or(&stacked),
                batch,
                &mut ws,
            );
            samples.push(t.elapsed().as_secs_f64() * 1e3);
            if rep == 0 {
                for (_, tap) in taps.iter().filter(|(j, _)| *j == i) {
                    let per = next.data().len() / batch;
                    for (b, maps) in reference.iter().enumerate() {
                        let want = maps.get(tap).data();
                        let got = &next.data()[b * per..(b + 1) * per];
                        bit_exact &= want.len() == got.len()
                            && want
                                .iter()
                                .zip(got)
                                .all(|(a, b)| a.to_bits() == b.to_bits());
                    }
                }
            }
            if let Some(prev) = cur.take() {
                ws.recycle(prev);
            }
            cur = Some(next);
        }
        if let Some(last) = cur {
            ws.recycle(last);
        }
        rep += 1;
    }
    let units = times
        .iter()
        .enumerate()
        .map(|(i, samples)| Unit {
            name: cost.layers[i].name.clone(),
            ms: stats::median(samples),
            madds: cost.layers[i].multiply_adds,
            batch,
        })
        .collect();
    Profile { units, bit_exact }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ff_video::scene::{Scene, SceneConfig};

    #[test]
    fn chained_units_reproduce_extract_batch_and_cover_every_unit() {
        let res = Resolution::new(64, 32);
        let frames: Vec<Frame> = Scene::new(SceneConfig {
            resolution: res,
            ..Default::default()
        })
        .take(3)
        .map(|(f, _)| f)
        .collect();
        let refs: Vec<&Frame> = frames.iter().collect();
        let p = units(MobileNetConfig::with_width(0.25), res, &refs);
        assert!(p.bit_exact);
        let names: Vec<String> = p.units.iter().map(Unit::metric_name).collect();
        assert_eq!(names, unit_names());
        assert_eq!(names.first().map(String::as_str), Some("conv1"));
        assert_eq!(names.last().map(String::as_str), Some("conv5_6-sep"));
        assert!(p
            .units
            .iter()
            .all(|u| u.ms > 0.0 && u.madds > 0 && u.batch == 3));
    }
}
