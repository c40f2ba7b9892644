//! The benchmark's metric catalogue and its result line.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the one place a metric's name,
//! unit and better-direction are written down in code; a test holds
//! `BENCHMARK.json` to the same table.

use std::collections::BTreeMap;

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Larger values are better.
    Higher,
    /// Smaller values are better.
    Lower,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// A metric's definition.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Metric name: letters, digits, `_`, `.` and `-`.
    pub name: &'static str,
    /// Unit, as printed beside every value.
    pub unit: &'static str,
    /// Which way it improves.
    pub better: Better,
}

const fn spec(name: &'static str, unit: &'static str, better: Better) -> Spec {
    Spec { name, unit, better }
}

use Better::{Higher, Lower};

/// Metrics every workload reports with per-layer timing off.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", Lower),
    spec("frames_per_s", "1/s", Higher),
    spec("frame_ms_p50", "ms", Lower),
    spec("frame_ms_p95", "ms", Lower),
    spec("peak_rss_mb", "MB", Lower),
    spec("ok_ratio", "ratio", Higher),
    spec("wire_bytes_per_frame", "B", Lower),
    spec("usable_ratio", "ratio", Higher),
    spec("model_e2e_ms_p50", "ms", Lower),
    spec("model_e2e_ms_p95", "ms", Lower),
];

/// Metrics of single layers, from the traced run. A layer a workload
/// never calls reports 0.
pub const PER_LAYER: &[Spec] = &[
    spec("holo-body.model_build_ms", "ms", Lower),
    spec("holo-body.pose_mesh_ms", "ms", Lower),
    spec("holo-compress.mesh_encode_ms", "ms", Lower),
    spec("holo-compress.mesh_decode_ms", "ms", Lower),
    spec("holo-compress.mesh_encode_mb_per_s", "MB/s", Higher),
    spec("holo-keypoints.fit_ms", "ms", Lower),
    spec("holo-compress.lzma_compress_us", "us", Lower),
    spec("holo-compress.lzma_decompress_us", "us", Lower),
    spec("holo-body.sdf_build_ms", "ms", Lower),
    spec("holo-mesh.reconstruct_ms", "ms", Lower),
    spec("holo-net.wire_us", "us", Lower),
    spec("holo-net.transport_us", "us", Lower),
    spec("holo-gaussian.fit_ms", "ms", Lower),
    spec("holo-gaussian.update_encode_us", "us", Lower),
    spec("holo-gaussian.update_decode_us", "us", Lower),
    spec("holo-gaussian.posed_cloud_us", "us", Lower),
    spec("holo-conf.room_engine_ms", "ms", Lower),
    spec("holo-conf.ns_per_subscriber_frame", "ns", Lower),
    spec("holo-conf.sfu_dropped", "count", Lower),
    spec("holo-conf.downlink_lost", "count", Lower),
    spec("holo-chaos.stream_scenario_us", "us", Lower),
    spec("holo-chaos.uep_scenario_us", "us", Lower),
    spec("holo-chaos.parity_frames", "count", Lower),
    spec("holo-chaos.retries", "count", Lower),
    spec("holo-chaos.abandoned", "count", Lower),
    spec("holo-chaos.recovered_fec", "count", Higher),
    spec("holo-chaos.recovered_retx", "count", Higher),
    spec("holo-chaos.lost", "count", Lower),
    spec("holo-chaos.useful_ratio", "ratio", Higher),
    spec("semholo.scene_setup_ms", "ms", Lower),
    spec("holo-trace.overhead_ratio", "ratio", Lower),
    spec("untraced_op_ms", "ms", Lower),
    spec("unattributed_ms", "ms", Lower),
];

/// Whether `name` is a legal metric name: 1 to 64 characters, starting
/// with a letter or digit, made of letters, digits, `_`, `.` and `-`.
pub fn valid_name(name: &str) -> bool {
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Whether `unit` is a legal unit: 1 to 16 of letters, digits, `_`,
/// `/`, `%`, `.` and `-`.
pub fn valid_unit(unit: &str) -> bool {
    (1..=16).contains(&unit.len())
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
}

/// Look a metric up in either table.
pub fn lookup(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// One workload run's outcome.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (session frames, subscriber-frames, stream
    /// frames).
    pub attempted: u64,
    /// Operations that returned an error or failed an output check.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Fail unless the values are exactly the metrics of `table`, every
    /// one finite.
    pub fn validate(&self, table: &[Spec]) -> Result<(), String> {
        for s in table {
            if !valid_name(s.name) || !valid_unit(s.unit) {
                return Err(format!(
                    "metric {} or its unit {} is malformed",
                    s.name, s.unit
                ));
            }
            match self.values.get(s.name) {
                None => return Err(format!("metric {} was not measured", s.name)),
                Some(v) if !v.is_finite() => return Err(format!("metric {} is {v}", s.name)),
                Some(_) => {}
            }
        }
        if let Some(extra) = self
            .values
            .keys()
            .find(|k| !table.iter().any(|s| s.name == **k))
        {
            return Err(format!("metric {extra} is not in the catalogue"));
        }
        if self.attempted == 0 {
            return Err("no operation was attempted".into());
        }
        Ok(())
    }

    /// One `"name": {"value": v, "unit": u}` entry per metric, each name
    /// prefixed with `prefix`. Floats print with every digit Rust's
    /// shortest round-trip form gives them.
    pub fn metric_fields(&self, prefix: &str) -> Vec<String> {
        self.values
            .iter()
            .map(|(name, v)| {
                let unit = lookup(name).map_or("", |s| s.unit);
                format!("\"{prefix}{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect()
    }
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(attempted: u64, failed: u64, metric_fields: &[String]) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metric_fields.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_runtime::ser::{parse, JsonValue};

    #[test]
    fn names_allow_only_letters_digits_underscore_dot_dash() {
        for ok in ["setup_s", "holo-conf.sfu_dropped", "p95", "a.b-c_d"] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "slash/x",
            "pct%",
            "ünit",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn every_catalogued_metric_is_well_formed_and_unique() {
        let all: Vec<&Spec> = END_TO_END.iter().chain(PER_LAYER).collect();
        for s in &all {
            assert!(valid_name(s.name), "name {}", s.name);
            assert!(valid_unit(s.unit), "unit {} of {}", s.unit, s.name);
        }
        for (i, a) in all.iter().enumerate() {
            assert!(
                all[i + 1..].iter().all(|b| b.name != a.name),
                "{} listed twice",
                a.name
            );
        }
    }

    fn manifest() -> JsonValue {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        parse(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("{key} array"))
    }

    /// `BENCHMARK.json` lists exactly the catalogue, in order, with the
    /// same unit and better-direction for every metric.
    fn assert_matches(doc: &JsonValue, key: &str, table: &[Spec]) {
        let listed = entries(doc, key);
        assert_eq!(listed.len(), table.len(), "{key}: count");
        for (entry, s) in listed.iter().zip(table) {
            let field = |f: &str| entry.get(f).and_then(JsonValue::as_str).unwrap_or("");
            assert_eq!(field("name"), s.name, "{key}: order");
            assert_eq!(field("unit"), s.unit, "{key}: unit of {}", s.name);
            assert_eq!(
                field("better"),
                s.better.word(),
                "{key}: direction of {}",
                s.name
            );
        }
    }

    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let doc = manifest();
        assert_matches(&doc, "end_to_end", END_TO_END);
        assert_matches(&doc, "per_layer", PER_LAYER);
    }

    #[test]
    fn benchmark_json_bounds_are_sane() {
        let doc = manifest();
        let bounds: Vec<(String, f64)> = entries(&doc, "end_to_end")
            .iter()
            .map(|e| {
                let name = e
                    .get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string();
                (name, e.get("bound").and_then(JsonValue::as_f64).unwrap())
            })
            .collect();
        let setup = bounds
            .iter()
            .find(|(n, _)| n == "setup_s")
            .expect("setup_s listed")
            .1;
        for (name, b) in &bounds {
            assert!(*b > 0.0 && *b <= 0.25, "{name} bound {b}");
            assert!(
                *b <= setup,
                "setup_s must carry the largest bound, {name} has {b}"
            );
        }
    }

    #[test]
    fn benchmark_json_workloads_are_the_implemented_ones() {
        let doc = manifest();
        let names: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(names, crate::WORKLOADS);
    }

    #[test]
    fn validate_demands_exactly_the_table() {
        let mut o = Outcome {
            attempted: 1,
            ..Default::default()
        };
        for s in END_TO_END {
            o.set(s.name, 1.0);
        }
        assert!(o.validate(END_TO_END).is_ok());
        assert!(o.validate(PER_LAYER).is_err());
        o.set("frames_per_s", f64::NAN);
        assert!(o.validate(END_TO_END).is_err());
    }

    #[test]
    fn result_line_is_json_with_units() {
        let mut o = Outcome {
            attempted: 10,
            failed: 0,
            ..Default::default()
        };
        o.set("setup_s", 0.8127);
        o.set("frame_ms_p50", 12.0);
        let doc = parse(&result_line(o.attempted, o.failed, &o.metric_fields(""))).unwrap();
        assert_eq!(doc.get("attempted").and_then(JsonValue::as_f64), Some(10.0));
        let setup = doc.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("value").and_then(JsonValue::as_f64), Some(0.8127));
        assert_eq!(setup.get("unit").and_then(JsonValue::as_str), Some("s"));
    }
}
