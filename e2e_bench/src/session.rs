//! `session_mesh` and `session_keypoint`: a two-party `Session` over a
//! clean 100 Mbps link, one driver issuing frames back to back.
//!
//! One operation is one session frame: sender pipeline, wire envelope,
//! link and receiver pipeline. A batch is a fresh `Session` and pipeline
//! over the whole [`CLIP_FRAMES`]-frame clip, so every batch does the
//! same work and the first batch's modelled report is a pure function
//! of the seed.

use crate::harness::{
    self, account, closed_loop, holo, intervals_ms, mix, rotate_phases, Layers, Observed, Phase,
    RunCfg, SetupTimes, SharedLayers, Tally,
};
use crate::metrics::Outcome;
use holo_body::params::{PosePayload, PAYLOAD_KEYPOINTS};
use holo_body::skeleton::Skeleton;
use holo_body::surface::{BodySdf, SurfaceDetail};
use holo_compress::lzma::{lzma_compress, lzma_decompress};
use holo_compress::meshcodec::{decode_mesh, encode_mesh, MeshCodecConfig};
use holo_gpu::{detector_workload, reconstruction_workload};
use holo_mesh::sparse::sparse_extract_with_stats;
use holo_net::link::Link;
use holo_net::time::SimTime;
use holo_net::trace::BandwidthTrace;
use holo_net::transport::FrameTransport;
use holo_net::wire::WireFrame;
use holo_runtime::bytes::Bytes;
use semholo::config::SemHoloConfig;
use semholo::error::{Result as HoloResult, SemHoloError};
use semholo::keypoint::{KeypointConfig, KeypointPipeline};
use semholo::scene::{SceneFrame, SceneSource};
use semholo::semantics::{
    Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind, SemanticPipeline, StageCost,
};
use semholo::session::{payload_kind_for, Session, SessionConfig, SessionReport};
use semholo::traditional::{MeshWire, TraditionalPipeline};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Frames per batch: the whole clip. Enough for a p95 with ten
/// samples beyond it from the first batch alone.
pub const CLIP_FRAMES: usize = 240;
/// Receiver reconstruction resolution on the keypoint tier. The paper
/// runs 128 (about 94 ms per frame on this code). At 64 a frame's wall
/// time swung 1.6x with contention on a shared machine, twice the
/// swing at 32, so the workload runs 32.
pub const KEYPOINT_RESOLUTION: u32 = 32;
/// Mesh codec quantization (the Draco default).
const MESH_BITS: u32 = 14;
/// Set-up repetitions before measuring; `setup_s` is the median of
/// these and one more before every batch.
const SETUPS: usize = 5;
/// Frames the warm-up session runs during set-up.
const WARMUP_FRAMES: usize = 4;
/// Frames the traced pipelines are checked against the real ones on.
const FIDELITY_FRAMES: usize = 8;

/// The semantic tier a session workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// Traditional compressed mesh (`holo-compress::meshcodec`).
    Mesh,
    /// Keypoints + LZMA + implicit-surface reconstruction.
    Keypoint,
}

fn scene_config(seed: u64) -> SemHoloConfig {
    SemHoloConfig {
        seed,
        reconstruction_resolution: KEYPOINT_RESOLUTION,
        ..Default::default()
    }
}

fn session_config(seed: u64) -> SessionConfig {
    SessionConfig {
        trace: BandwidthTrace::Constant { bps: 100e6 },
        seed: mix(seed, 0x5E55),
        ..Default::default()
    }
}

fn pipeline_seed(seed: u64) -> u64 {
    mix(seed, 0x4B50)
}

fn real_pipeline(tier: Tier, seed: u64) -> Box<dyn SemanticPipeline> {
    match tier {
        Tier::Mesh => Box::new(TraditionalPipeline::new(MeshWire::Compressed, MESH_BITS)),
        Tier::Keypoint => Box::new(KeypointPipeline::new(
            KeypointConfig {
                resolution: KEYPOINT_RESOLUTION,
                ..Default::default()
            },
            pipeline_seed(seed),
        )),
    }
}

/// The decoded-frame check: a mesh-tier frame keeps the posed mesh's
/// face count; a keypoint-tier frame is a non-empty mesh.
fn content_ok(tier: Tier, posed_faces: usize, content: &Content) -> bool {
    match (tier, content) {
        (Tier::Mesh, Content::Mesh(m)) => m.face_count() == posed_faces,
        (Tier::Keypoint, Content::Mesh(m)) => m.face_count() > 0,
        _ => false,
    }
}

struct Fixture {
    scene: SceneSource,
    posed_faces: usize,
    scene_ms: f64,
}

/// Scene build, pipeline construction and a short warm-up session.
fn setup(tier: Tier, seed: u64) -> Result<Fixture, String> {
    let t0 = Instant::now();
    let config = scene_config(seed);
    let scene = SceneSource::new(&config, CLIP_FRAMES as f32 / config.fps);
    let scene_ms = t0.elapsed().as_secs_f64() * 1e3;
    if scene.len() < CLIP_FRAMES {
        return Err(format!(
            "scene holds {} frames, need {CLIP_FRAMES}",
            scene.len()
        ));
    }
    let posed_faces = scene.frame(0).posed_mesh().face_count();
    let mut pipeline = real_pipeline(tier, seed);
    Session::new(session_config(seed))
        .run(pipeline.as_mut(), &scene, WARMUP_FRAMES)
        .map_err(holo)?;
    Ok(Fixture {
        scene,
        posed_faces,
        scene_ms,
    })
}

/// Conservation and round-trip checks on one batch.
fn check_batch(report: &SessionReport, tally: &Tally) -> Result<(), String> {
    let frames = report.frames.len();
    if frames != CLIP_FRAMES {
        return Err(format!("session reported {frames} frames of {CLIP_FRAMES}"));
    }
    let dropped = report
        .frames
        .iter()
        .filter(|f| f.network_ms.is_nan())
        .count();
    if report.delivered + dropped + report.corrupt_detected != frames {
        return Err(format!(
            "delivered {} + dropped {dropped} + corrupt {} != {frames} frames",
            report.delivered, report.corrupt_detected
        ));
    }
    if tally.decodes != report.delivered as u64 {
        return Err(format!(
            "{} decodes for {} delivered frames",
            tally.decodes, report.delivered
        ));
    }
    if tally.bad_decodes > 0 {
        return Err(format!(
            "{} decoded frames failed the content check",
            tally.bad_decodes
        ));
    }
    Ok(())
}

/// Batches of the real pipeline, observed from outside.
#[derive(Default)]
struct Untraced {
    frames: usize,
    wall_s: f64,
    frame_ms: Vec<f64>,
    first: Option<SessionReport>,
}

/// One batch: a fresh session and pipeline over the whole clip.
fn untraced_batch(tier: Tier, fx: &Fixture, cfg: &RunCfg, out: &mut Outcome, u: &mut Untraced) {
    let tally = Rc::new(RefCell::new(Tally::default()));
    let posed_faces = fx.posed_faces;
    let check = Box::new(move |c: &Content| content_ok(tier, posed_faces, c));
    let start = Instant::now();
    let mut pipeline = Observed::new(real_pipeline(tier, cfg.seed), tally.clone(), check);
    let result = Session::new(session_config(cfg.seed)).run(&mut pipeline, &fx.scene, CLIP_FRAMES);
    let end = Instant::now();
    u.wall_s += end.duration_since(start).as_secs_f64();
    let t = tally.borrow();
    u.frame_ms.extend(intervals_ms(&t.encode_entries, end));
    u.frames += CLIP_FRAMES;
    // A report that fails its check still feeds the modelled metrics,
    // so the run prints its result with the failures counted.
    match result.map_err(holo) {
        Ok(report) => {
            account(out, CLIP_FRAMES as u64, check_batch(&report, &t));
            u.first.get_or_insert(report);
        }
        Err(e) => account(out, CLIP_FRAMES as u64, Err(e)),
    }
}

/// The end-to-end run: metrics with per-layer timing off.
pub fn run(tier: Tier, cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    harness::body_model_build_ms();
    let mut setups = SetupTimes::default();
    let fx = setups.repeat(SETUPS, || setup(tier, cfg.seed))?;
    let mut resetup = |_| setups.time(|| setup(tier, cfg.seed)).map(drop);
    let mut u = Untraced::default();
    closed_loop(cfg.seconds, 1, &mut resetup, |_| {
        untraced_batch(tier, &fx, cfg, &mut out, &mut u);
        Ok(())
    })?;
    let first = u.first.as_ref().ok_or("no batch ran")?;
    out.set("setup_s", setups.median()?);
    out.set("frames_per_s", u.frames as f64 / u.wall_s);
    harness::set_frame_ms(&mut out, &u.frame_ms, CLIP_FRAMES)?;
    out.set("peak_rss_mb", harness::peak_rss_mb()?);
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set("wire_bytes_per_frame", first.payload.mean());
    out.set(
        "usable_ratio",
        first.delivered as f64 / first.frames.len() as f64,
    );
    let e2e: Vec<f64> = first
        .frames
        .iter()
        .filter(|f| f.delivered)
        .map(|f| f.e2e_ms)
        .collect();
    harness::set_model_e2e(&mut out, &e2e)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Traced run: the same sessions through pipelines rebuilt from each
// layer's public functions, with a stopwatch around every layer call.
// ---------------------------------------------------------------------

/// Mesh-tier pipeline timing `holo-body` posing and the mesh codec.
struct TracedMesh {
    codec: MeshCodecConfig,
    layers: SharedLayers,
    payloads: Rc<RefCell<Vec<Bytes>>>,
    raw_bytes: Rc<RefCell<u64>>,
}

impl SemanticPipeline for TracedMesh {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Traditional
    }

    fn encode(&mut self, frame: &SceneFrame) -> HoloResult<EncodedFrame> {
        let t0 = Instant::now();
        let mesh = Layers::time(&self.layers, "pose_mesh", || frame.posed_mesh());
        *self.raw_bytes.borrow_mut() += mesh.raw_size_bytes() as u64;
        let bytes = Layers::time(&self.layers, "mesh_encode", || {
            encode_mesh(&mesh, &self.codec)
        });
        let payload = Bytes::from(bytes);
        self.payloads.borrow_mut().push(payload.clone());
        Ok(EncodedFrame {
            payload,
            extract: StageCost {
                cpu_wall: t0.elapsed(),
                gpu: None,
            },
        })
    }

    fn decode(&mut self, payload: &[u8]) -> HoloResult<Reconstructed> {
        let t0 = Instant::now();
        let mesh = Layers::time(&self.layers, "mesh_decode", || decode_mesh(payload))
            .map_err(|e| SemHoloError::Codec(e.to_string()))?;
        Ok(Reconstructed {
            content: Content::Mesh(mesh),
            recon: StageCost {
                cpu_wall: t0.elapsed(),
                gpu: None,
            },
        })
    }

    fn quality(&mut self, _: &SceneFrame, _: &Content) -> QualityReport {
        QualityReport::default()
    }
}

/// Keypoint-tier pipeline timing the fit, LZMA and reconstruction.
struct TracedKeypoint {
    fitter: KeypointPipeline,
    skeleton: Skeleton,
    layers: SharedLayers,
    payloads: Rc<RefCell<Vec<Bytes>>>,
}

impl SemanticPipeline for TracedKeypoint {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Keypoint
    }

    fn encode(&mut self, frame: &SceneFrame) -> HoloResult<EncodedFrame> {
        let t0 = Instant::now();
        let (fitted, mut keypoints) =
            Layers::time(&self.layers, "fit", || self.fitter.fit_frame(frame))?;
        keypoints.truncate(PAYLOAD_KEYPOINTS);
        let raw = PosePayload::new(fitted, keypoints).to_bytes();
        let compressed = Layers::time(&self.layers, "lzma_compress", || lzma_compress(&raw));
        let cfg = &self.fitter.config;
        let gflops = cfg.detector.gflops_per_frame(cfg.landmarks.count());
        let payload = Bytes::from(compressed);
        self.payloads.borrow_mut().push(payload.clone());
        Ok(EncodedFrame {
            payload,
            extract: StageCost {
                cpu_wall: t0.elapsed(),
                gpu: Some(detector_workload(gflops)),
            },
        })
    }

    fn decode(&mut self, payload: &[u8]) -> HoloResult<Reconstructed> {
        let t0 = Instant::now();
        let raw = Layers::time(&self.layers, "lzma_decompress", || lzma_decompress(payload))
            .map_err(|e| SemHoloError::Codec(e.to_string()))?;
        let pose = PosePayload::from_bytes(&raw).map_err(|e| SemHoloError::Codec(e.to_string()))?;
        let sdf = Layers::time(&self.layers, "sdf_build", || {
            BodySdf::from_pose(&self.skeleton, &pose.params, SurfaceDetail::bare())
        });
        let resolution = self.fitter.config.resolution;
        let (mesh, _) = Layers::time(&self.layers, "reconstruct", || {
            sparse_extract_with_stats(&sdf, resolution, 0.03)
        });
        Ok(Reconstructed {
            content: Content::Mesh(mesh),
            recon: StageCost {
                cpu_wall: t0.elapsed(),
                gpu: Some(reconstruction_workload(resolution, None).workload),
            },
        })
    }

    fn quality(&mut self, _: &SceneFrame, _: &Content) -> QualityReport {
        QualityReport::default()
    }
}

struct Traced {
    pipeline: Box<dyn SemanticPipeline>,
    payloads: Rc<RefCell<Vec<Bytes>>>,
    raw_bytes: Rc<RefCell<u64>>,
}

fn traced_pipeline(tier: Tier, seed: u64, layers: &SharedLayers) -> Traced {
    let payloads = Rc::new(RefCell::new(Vec::new()));
    let raw_bytes = Rc::new(RefCell::new(0));
    let pipeline: Box<dyn SemanticPipeline> = match tier {
        Tier::Mesh => Box::new(TracedMesh {
            codec: MeshCodecConfig {
                position_bits: MESH_BITS,
            },
            layers: layers.clone(),
            payloads: payloads.clone(),
            raw_bytes: raw_bytes.clone(),
        }),
        Tier::Keypoint => Box::new(TracedKeypoint {
            fitter: KeypointPipeline::new(
                KeypointConfig {
                    resolution: KEYPOINT_RESOLUTION,
                    ..Default::default()
                },
                pipeline_seed(seed),
            ),
            skeleton: Skeleton::neutral(),
            layers: layers.clone(),
            payloads: payloads.clone(),
        }),
    };
    Traced {
        pipeline,
        payloads,
        raw_bytes,
    }
}

/// The traced pipelines must produce the real pipelines' bytes and
/// geometry, or their timings describe some other program.
fn check_fidelity(tier: Tier, fx: &Fixture, seed: u64) -> Result<(), String> {
    let mut real = real_pipeline(tier, seed);
    let mut traced = traced_pipeline(tier, seed, &SharedLayers::default()).pipeline;
    for frame in fx.scene.frames(FIDELITY_FRAMES) {
        let a = real.encode(&frame).map_err(holo)?;
        let b = traced.encode(&frame).map_err(holo)?;
        if a.payload != b.payload {
            return Err(format!(
                "traced {tier:?} encode diverges from the pipeline at frame {}",
                frame.index
            ));
        }
        let (ra, rb) = (
            real.decode(&a.payload).map_err(holo)?,
            traced.decode(&b.payload).map_err(holo)?,
        );
        match (&ra.content, &rb.content) {
            (Content::Mesh(x), Content::Mesh(y))
                if x.faces == y.faces && x.vertices == y.vertices => {}
            _ => {
                return Err(format!(
                    "traced {tier:?} decode diverges at frame {}",
                    frame.index
                ))
            }
        }
    }
    Ok(())
}

/// Replay one batch's payloads through the wire envelope and a twin of
/// the session's transport, timing each. The twin must deliver exactly
/// the frames the session delivered.
fn replay_wire(
    tier: Tier,
    report: &SessionReport,
    payloads: &[Bytes],
    fps: f64,
    seed: u64,
    layers: &SharedLayers,
) -> Result<(), String> {
    let cfg = session_config(seed);
    let mut transport = FrameTransport::new(
        Link::new(cfg.link.clone(), cfg.trace.clone(), cfg.seed),
        cfg.loss_policy,
    );
    let kind = payload_kind_for(match tier {
        Tier::Mesh => SemanticKind::Traditional,
        Tier::Keypoint => SemanticKind::Keypoint,
    });
    if payloads.len() != report.frames.len() {
        return Err(format!(
            "{} payloads for {} frames",
            payloads.len(),
            report.frames.len()
        ));
    }
    for (f, payload) in report.frames.iter().zip(payloads) {
        let (envelope, decoded) = Layers::time(layers, "wire", || {
            let envelope = WireFrame::new(kind, f.index as u64, payload.clone()).encode();
            let decoded = WireFrame::decode(&envelope);
            (envelope, decoded)
        });
        match decoded {
            Ok(w) if w.payload == *payload => {}
            _ => return Err(format!("wire round trip of frame {} failed", f.index)),
        }
        let send_at = SimTime::from_secs_f64(f.index as f64 / fps + f.extract_ms / 1e3);
        let tx = Layers::time(layers, "transport", || {
            transport.send_frame(Bytes::from(envelope), send_at)
        });
        if tx.complete == f.network_ms.is_nan() {
            return Err(format!(
                "transport twin disagrees with the session on frame {}",
                f.index
            ));
        }
    }
    Ok(())
}

/// The traced run: per-layer rows beside the untraced wall time.
pub fn run_traced(tier: Tier, cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set("holo-body.model_build_ms", harness::body_model_build_ms());
    let mut scene_ms = Vec::new();
    let fx = SetupTimes::default().repeat(SETUPS, || {
        let fx = setup(tier, cfg.seed)?;
        scene_ms.push(fx.scene_ms);
        Ok(fx)
    })?;
    out.set("semholo.scene_setup_ms", crate::stats::median(&scene_ms)?);
    account(
        &mut out,
        FIDELITY_FRAMES as u64,
        check_fidelity(tier, &fx, cfg.seed),
    );

    let (mut untraced, mut recorded) = (Untraced::default(), Untraced::default());
    let layers = SharedLayers::default();
    let mut raw_bytes = 0u64;
    let fps = fx.scene.context().config.fps as f64;
    rotate_phases(cfg.seconds, 1, |phase| {
        match phase {
            Phase::Untraced => untraced_batch(tier, &fx, cfg, &mut out, &mut untraced),
            Phase::Recorded => untraced_batch(tier, &fx, cfg, &mut out, &mut recorded),
            Phase::Timed => {
                let traced = traced_pipeline(tier, cfg.seed, &layers);
                let mut pipeline = traced.pipeline;
                let result = Session::new(session_config(cfg.seed))
                    .run(pipeline.as_mut(), &fx.scene, CLIP_FRAMES)
                    .map_err(holo)
                    .and_then(|r| {
                        replay_wire(tier, &r, &traced.payloads.borrow(), fps, cfg.seed, &layers)
                    });
                raw_bytes += *traced.raw_bytes.borrow();
                account(&mut out, CLIP_FRAMES as u64, result);
            }
        }
        Ok(())
    })?;
    let untraced_ms = untraced.wall_s * 1e3 / untraced.frames as f64;
    let recorded_ms = recorded.wall_s * 1e3 / recorded.frames as f64;

    let l = layers.borrow();
    let encode_s = l.total_s("mesh_encode");
    let rows = [
        ("holo-body.pose_mesh_ms", l.mean_ms("pose_mesh")),
        ("holo-compress.mesh_encode_ms", l.mean_ms("mesh_encode")),
        ("holo-compress.mesh_decode_ms", l.mean_ms("mesh_decode")),
        ("holo-keypoints.fit_ms", l.mean_ms("fit")),
        (
            "holo-compress.lzma_compress_us",
            l.mean_ms("lzma_compress") * 1e3,
        ),
        (
            "holo-compress.lzma_decompress_us",
            l.mean_ms("lzma_decompress") * 1e3,
        ),
        ("holo-body.sdf_build_ms", l.mean_ms("sdf_build")),
        ("holo-mesh.reconstruct_ms", l.mean_ms("reconstruct")),
        ("holo-net.wire_us", l.mean_ms("wire") * 1e3),
        ("holo-net.transport_us", l.mean_ms("transport") * 1e3),
    ];
    // One call of each row per frame (every frame is delivered on the
    // clean link), so the per-frame sum is the sum of the means.
    let attributed_ms: f64 = rows
        .iter()
        .map(|(n, v)| if n.ends_with("_us") { v / 1e3 } else { *v })
        .sum();
    for (name, v) in rows {
        out.set(name, v);
    }
    out.set(
        "holo-compress.mesh_encode_mb_per_s",
        if encode_s > 0.0 {
            raw_bytes as f64 / encode_s / 1e6
        } else {
            0.0
        },
    );
    out.set("holo-trace.overhead_ratio", recorded_ms / untraced_ms);
    out.set("untraced_op_ms", untraced_ms);
    out.set("unattributed_ms", untraced_ms - attributed_ms);
    harness::zero_unmeasured_layers(&mut out);
    Ok(out)
}
