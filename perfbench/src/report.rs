//! The metric names and units, the failure tally, and the one-line JSON
//! result the benchmark ends with.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::profile;

/// End-to-end metrics, printed by every workload with tracing off.
///
/// Two of them are defined for the fleet by analogy, since a fleet round
/// is one frame interval of every simulated node: `frames_per_s` counts
/// node frame intervals simulated per second, and `round_ms_p50` is one
/// fleet round's wall time (a typical run's time over its rounds; see
/// `fleet.rs`). `segments_per_s` on a node counts the matched frames it
/// re-encodes and offers to the uplink. `peak_rss_mb` is the peak resident
/// memory the timed runs add to what the process held before them: the
/// node's or the fleet's own memory, not the benchmark's clips and gold.
pub const END_TO_END: [(&str, &str); 6] = [
    ("frames_per_s", "1/s"),
    ("round_ms_p50", "ms"),
    ("segments_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("verified_frac", "ratio"),
];

/// Per-layer metrics other than the per-unit ones, by layer.
const LAYERS: [(&str, &str); 27] = [
    ("extractor.us_per_frame", "us"),
    ("extractor.gmacs_per_s", "GMAC/s"),
    ("extractor.batch_frames", "count"),
    ("extractor.share", "ratio"),
    ("mc.us_per_frame", "us"),
    ("mc.full_frame_us", "us"),
    ("mc.localized_us", "us"),
    ("mc.share", "ratio"),
    ("pipeline.us_per_frame", "us"),
    ("pipeline.share", "ratio"),
    ("video.to_tensor_us", "us"),
    ("video.encode_us", "us"),
    ("video.encoded_bytes", "B"),
    ("video.share", "ratio"),
    ("runtime.other_ms_per_round", "ms"),
    ("runtime.poll_us_per_stream", "us"),
    ("runtime.first_poll_ms", "ms"),
    ("runtime.round_ms_p95", "ms"),
    ("runtime.share", "ratio"),
    ("uplink.utilization", "ratio"),
    ("uplink.peak_delay_ms", "ms"),
    ("uplink.dropped", "count"),
    ("uplink.bytes_per_frame", "B"),
    ("hub.ingest_ns_per_segment", "ns"),
    ("hub.sharded_ingest_ns_per_segment", "ns"),
    ("hub.dup_frac", "ratio"),
    ("fleet.other_share", "ratio"),
];

/// Metrics of the layers only a node has (everything but the hub, the
/// fleet loop and obs); the fleet workload reports them as 0.
pub fn node_only(name: &str) -> bool {
    !(name.starts_with("hub.") || name.starts_with("fleet.") || name.starts_with("obs."))
}

/// Every per-layer metric with its unit, printed by every workload in the
/// traced invocation (0 where the workload does not exercise the layer).
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut out: Vec<(String, &'static str)> =
        LAYERS.iter().map(|&(n, u)| (n.to_string(), u)).collect();
    for unit in profile::unit_names() {
        out.push((format!("layer.{unit}.ms"), "ms"));
        out.push((format!("layer.{unit}.gmacs_per_s"), "GMAC/s"));
    }
    out.push(("obs.overhead_frac".to_string(), "ratio"));
    out
}

/// Metric values by name.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<String, f64>);

impl Metrics {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on a value that is not finite: it could not be printed as
    /// JSON, and it means a measurement went wrong.
    pub fn set(&mut self, name: &str, value: f64) {
        assert!(value.is_finite(), "{name} = {value}");
        self.0.insert(name.to_string(), value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// Operations checked and operations that failed their check.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Frames (node) or segments (fleet) whose outcome was checked.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Tally {
    /// Adds `attempted` checked operations of which `failed` failed.
    pub fn add(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Share of checked operations that passed.
    pub fn verified_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        1.0 - self.failed.min(self.attempted) as f64 / self.attempted as f64
    }
}

/// FNV-1a over a sequence of strings, so two runs with one seed can be
/// compared by a single printed number.
pub fn digest<S: AsRef<str>>(items: impl IntoIterator<Item = S>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for item in items {
        for b in item.as_ref().bytes().chain([0xff]) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A field of `/proc/self/status` given in kB, in MiB.
fn status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} in /proc/self/status"));
    kb / 1024.0
}

/// Peak resident memory of this process since the last
/// [`reset_peak_rss`], in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

extern "C" {
    /// glibc: returns free heap memory of every arena to the kernel.
    fn malloc_trim(pad: usize) -> i32;
}

/// Returns free heap memory to the kernel, resets the peak resident memory
/// to the current resident memory (by writing 5 to
/// `/proc/self/clear_refs`) and returns that, in MiB.
///
/// Without the trim, memory that set-up freed but the allocator kept would
/// be reused by the measured part without raising the peak, so the peak
/// minus this baseline would understate what the measured part needs.
///
/// # Panics
///
/// Panics if the kernel refuses the reset: the peak would then include
/// everything the process held before the measured part.
pub fn reset_peak_rss() -> f64 {
    // SAFETY: malloc_trim only releases free pages; it has no
    // preconditions and is safe to call from any thread at any time.
    unsafe {
        malloc_trim(0);
    }
    std::fs::write("/proc/self/clear_refs", "5").expect("reset VmHWM via /proc/self/clear_refs");
    status_mb("VmRSS:")
}

/// The result line: `names` in order, each looked up in `metrics`.
///
/// # Panics
///
/// Panics if a named metric was never set.
pub fn result_line(tally: Tally, metrics: &Metrics, names: &[(String, &str)]) -> String {
    let mut body = String::new();
    for (i, (name, unit)) in names.iter().enumerate() {
        let v = metrics
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"));
        let sep = if i == 0 { "" } else { ", " };
        write!(
            body,
            "{sep}\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        )
        .expect("write to String");
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted.max(1),
        tally.failed,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// metrics and units this program prints.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let listed: Vec<(String, String)> = json
            .split("{\"name\": \"")
            .skip(1)
            .filter_map(|chunk| {
                let name = chunk.split('"').next()?.to_string();
                let unit = chunk.split("\"unit\": \"").nth(1)?.split('"').next()?;
                Some((name, unit.to_string()))
            })
            .collect();
        let printed: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|&(n, u)| (n.to_string(), u.to_string()))
            .chain(per_layer().into_iter().map(|(n, u)| (n, u.to_string())))
            .collect();
        assert_eq!(listed, printed);
    }

    #[test]
    fn result_line_has_the_four_keys_and_every_digit() {
        let mut m = Metrics::default();
        m.set("a", 1.0 / 3.0);
        let line = result_line(
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
            &[("a".to_string(), "ms")],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 0.3333333333333333, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn verified_frac_counts_failures_against_attempts() {
        let mut t = Tally::default();
        t.add(200, 0);
        assert_eq!(t.verified_frac(), 1.0);
        t.add(0, 50);
        assert_eq!(t.verified_frac(), 0.75);
        assert_ne!(digest(["ab", "c"]), digest(["a", "bc"]));
    }
}
