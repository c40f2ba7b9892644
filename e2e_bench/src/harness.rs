//! Pieces every workload shares: the untimed observer around a real
//! pipeline, the per-layer stopwatch, closed-loop driving, set-up
//! repetition and process memory.

use crate::metrics::Outcome;
use crate::stats;
use semholo::error::{Result as HoloResult, SemHoloError};
use semholo::scene::SceneFrame;
use semholo::semantics::{
    Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind, SemanticPipeline,
};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::{Duration, Instant};

/// Workload parameters from the command line.
#[derive(Debug, Clone, Copy)]
pub struct RunCfg {
    /// Workload seed: every input derives from it.
    pub seed: u64,
    /// Wall seconds of measurement (set-up excluded).
    pub seconds: f64,
}

/// Split a seed into independent streams (splitmix64 finalizer).
pub fn mix(seed: u64, lane: u64) -> u64 {
    let mut z = seed ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What an [`Observed`] pipeline saw.
#[derive(Default)]
pub struct Tally {
    /// `Instant` at entry to every `encode`.
    pub encode_entries: Vec<Instant>,
    /// Encoded payload bytes.
    pub payload_bytes: u64,
    /// Decodes that returned content.
    pub decodes: u64,
    /// Decoded content that failed the workload's output check.
    pub bad_decodes: u64,
}

/// Output check applied to every decoded frame.
pub type ContentCheck = Box<dyn Fn(&Content) -> bool>;

/// A real pipeline behind a thin observer: it stamps each `encode`
/// entry (successive stamps bound one frame's wall time, measured from
/// outside) and checks every decoded frame. It adds two clock reads and
/// one check per frame and times nothing inside the pipeline.
pub struct Observed {
    inner: Box<dyn SemanticPipeline>,
    tally: Rc<RefCell<Tally>>,
    check: ContentCheck,
}

impl Observed {
    /// Wrap `inner`, reporting into `tally`.
    pub fn new(
        inner: Box<dyn SemanticPipeline>,
        tally: Rc<RefCell<Tally>>,
        check: ContentCheck,
    ) -> Self {
        Self {
            inner,
            tally,
            check,
        }
    }
}

impl SemanticPipeline for Observed {
    fn kind(&self) -> SemanticKind {
        self.inner.kind()
    }

    fn encode(&mut self, frame: &SceneFrame) -> HoloResult<EncodedFrame> {
        self.tally.borrow_mut().encode_entries.push(Instant::now());
        let encoded = self.inner.encode(frame)?;
        self.tally.borrow_mut().payload_bytes += encoded.payload.len() as u64;
        Ok(encoded)
    }

    fn decode(&mut self, payload: &[u8]) -> HoloResult<Reconstructed> {
        let out = self.inner.decode(payload)?;
        let ok = (self.check)(&out.content);
        let mut t = self.tally.borrow_mut();
        t.decodes += 1;
        if !ok {
            t.bad_decodes += 1;
        }
        Ok(out)
    }

    fn quality(&mut self, frame: &SceneFrame, content: &Content) -> QualityReport {
        self.inner.quality(frame, content)
    }
}

/// Per-layer stopwatch: accumulated wall time and call count per row.
#[derive(Default)]
pub struct Layers {
    rows: BTreeMap<&'static str, (Duration, u64)>,
}

/// A stopwatch shared between the benchmark and the pipelines it feeds.
pub type SharedLayers = Rc<RefCell<Layers>>;

impl Layers {
    /// Run `f`, charging its wall time to `row`.
    pub fn time<T>(layers: &SharedLayers, row: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        layers.borrow_mut().add(row, t0.elapsed());
        out
    }

    /// Charge `d` to `row` as one call.
    pub fn add(&mut self, row: &'static str, d: Duration) {
        let e = self.rows.entry(row).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Total seconds charged to `row`.
    pub fn total_s(&self, row: &str) -> f64 {
        self.rows.get(row).map_or(0.0, |r| r.0.as_secs_f64())
    }

    /// Calls charged to `row`.
    pub fn calls(&self, row: &str) -> u64 {
        self.rows.get(row).map_or(0, |r| r.1)
    }

    /// Mean milliseconds per call of `row` (0 when never called).
    pub fn mean_ms(&self, row: &str) -> f64 {
        match self.calls(row) {
            0 => 0.0,
            n => self.total_s(row) * 1e3 / n as f64,
        }
    }
}

/// Run `op` back to back until `seconds` of operation time have passed
/// and at least `min_ops` operations ran; returns the operations run and
/// the seconds they took. `between` runs before each operation, outside
/// the measured time.
pub fn closed_loop(
    seconds: f64,
    min_ops: usize,
    between: &mut dyn FnMut(usize) -> Result<(), String>,
    mut op: impl FnMut(usize) -> Result<(), String>,
) -> Result<(usize, f64), String> {
    let mut measured = 0.0;
    let mut ops = 0;
    while ops < min_ops || measured < seconds {
        between(ops)?;
        let t0 = Instant::now();
        op(ops)?;
        measured += t0.elapsed().as_secs_f64();
        ops += 1;
    }
    Ok((ops, measured))
}

/// What one operation of a traced run measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// The real pipeline, observed from outside: the untraced wall time.
    Untraced,
    /// Every layer call timed.
    Timed,
    /// The real pipeline with the program's own span recorder on.
    Recorded,
}

/// Drive a traced run: operations rotate through the three phases, so
/// that all three see the same machine (a shared machine's speed drifts
/// over seconds; phases run one after another would each see a
/// different one). Each phase gets at least `min_each` operations.
pub fn rotate_phases(
    seconds: f64,
    min_each: usize,
    mut op: impl FnMut(Phase) -> Result<(), String>,
) -> Result<(), String> {
    closed_loop(seconds, 3 * min_each, &mut |_| Ok(()), |i| match i % 3 {
        0 => op(Phase::Untraced),
        1 => op(Phase::Timed),
        _ => {
            holo_trace::enable();
            let result = op(Phase::Recorded);
            holo_trace::disable();
            holo_trace::reset();
            result
        }
    })
    .map(drop)
}

/// Set-up times, in seconds. A run sets up several times before it
/// measures and again between operations, so that a burst of contention
/// on a shared machine moves a few samples, not the median.
#[derive(Default)]
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Time one set-up; returns what it built.
    pub fn time<T>(&mut self, build: impl FnOnce() -> Result<T, String>) -> Result<T, String> {
        let t0 = Instant::now();
        let built = build()?;
        self.0.push(t0.elapsed().as_secs_f64());
        Ok(built)
    }

    /// Set up `times` times; returns the last fixture.
    pub fn repeat<T>(
        &mut self,
        times: usize,
        mut build: impl FnMut() -> Result<T, String>,
    ) -> Result<T, String> {
        let mut last = None;
        for _ in 0..times {
            last = Some(self.time(&mut build)?);
        }
        last.ok_or_else(|| "no set-up ran".to_string())
    }

    /// Median set-up seconds.
    pub fn median(&self) -> Result<f64, String> {
        stats::median(&self.0)
    }
}

/// Wall milliseconds between successive stamps, the last one closed by
/// `end`.
pub fn intervals_ms(stamps: &[Instant], end: Instant) -> Vec<f64> {
    stamps
        .iter()
        .zip(stamps.iter().skip(1).chain(std::iter::once(&end)))
        .map(|(a, b)| b.duration_since(*a).as_secs_f64() * 1e3)
        .collect()
}

/// Record an operation batch's outcome: `ops` attempted, all failed
/// when `result` is an error (reported on stderr).
pub fn account(out: &mut Outcome, ops: u64, result: Result<(), String>) {
    out.attempted += ops;
    if let Err(e) = result {
        out.failed += ops;
        eprintln!("check failed: {e}");
    }
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable {line:?}"))?;
    Ok(kb / 1024.0)
}

/// Time the process-wide body model build (the first call builds it;
/// later calls are a cache hit). Milliseconds.
pub fn body_model_build_ms() -> f64 {
    let t0 = Instant::now();
    let _ = holo_body::model::BodyModel::standard();
    t0.elapsed().as_secs_f64() * 1e3
}

/// Convert a pipeline error into the benchmark's error string.
pub fn holo(e: SemHoloError) -> String {
    format!("pipeline error: {e:?}")
}

/// The modelled latency pair from a sample of per-frame latencies.
pub fn set_model_e2e(out: &mut Outcome, e2e_ms: &[f64]) -> Result<(), String> {
    out.set("model_e2e_ms_p50", stats::median(e2e_ms)?);
    out.set("model_e2e_ms_p95", stats::percentile(e2e_ms, 95.0)?);
    Ok(())
}

/// The wall-clock frame pair from per-frame wall times in run order:
/// the mean over windows of `window` frames of each window's p50 and
/// p95 (see [`stats::windowed_percentile`]).
pub fn set_frame_ms(out: &mut Outcome, frame_ms: &[f64], window: usize) -> Result<(), String> {
    out.set(
        "frame_ms_p50",
        stats::windowed_percentile(frame_ms, window, 50.0)?,
    );
    out.set(
        "frame_ms_p95",
        stats::windowed_percentile(frame_ms, window, 95.0)?,
    );
    Ok(())
}

/// Fill every per-layer metric a workload does not exercise with 0, so
/// each traced run reports the whole catalogue.
pub fn zero_unmeasured_layers(out: &mut Outcome) {
    for s in crate::metrics::PER_LAYER {
        out.values.entry(s.name).or_insert(0.0);
    }
}
