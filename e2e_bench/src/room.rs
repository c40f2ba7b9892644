//! `room_sfu`: a 48-party `holo-conf` room on the gaussian tier with a
//! shared encoder, on 25 Mbps symmetric access.
//!
//! One operation is one subscriber-frame: a frame one sender published
//! and one other participant was due to receive. Per-frame payloads are
//! about 60 B, so the room engine (event heap, SFU fan-out, egress
//! queues, dependency accounting) dominates and the codecs idle. The
//! gaussian prebuild is fitted once in set-up; every room reuses it.

use crate::harness::{
    self, account, closed_loop, holo, intervals_ms, mix, rotate_phases, Layers, Observed, Phase,
    RunCfg, SetupTimes, SharedLayers, Tally,
};
use crate::metrics::Outcome;
use crate::stats;
use holo_body::skeleton::Skeleton;
use holo_conf::{ParticipantConfig, Room, RoomConfig, RoomReport};
use holo_gaussian::{
    decode_prebuild, encode_prebuild, fit_avatar, AvatarState, FitConfig, GaussianAvatar,
    GaussianPipeline, GaussianUpdateConfig, GaussianUpdateDecoder, GaussianUpdateEncoder,
};
use holo_gpu::Workload;
use holo_math::Summary;
use holo_net::wire::WIRE_HEADER_BYTES;
use semholo::config::SemHoloConfig;
use semholo::error::{Result as HoloResult, SemHoloError};
use semholo::scene::{SceneFrame, SceneSource};
use semholo::semantics::{
    Content, EncodedFrame, QualityReport, Reconstructed, SemanticKind, SemanticPipeline, StageCost,
};
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

/// Room size.
pub const PARTIES: usize = 48;
/// Frames each sender captures per room run.
pub const ROOM_FRAMES: usize = 300;
/// Symmetric access capacity per participant.
const ACCESS_BPS: f64 = 25e6;
/// Set-up repetitions before measuring; `setup_s` is the median of
/// these and one more before every [`RESETUP_EVERY`]th room.
const SETUPS: usize = 5;
const RESETUP_EVERY: usize = 4;
/// Frames the traced pipeline is checked against the real one on.
const FIDELITY_FRAMES: usize = 8;

/// Subscriber-frames one room run owes.
const SUBSCRIBER_FRAMES: usize = PARTIES * (PARTIES - 1) * ROOM_FRAMES;

fn room_config(seed: u64) -> RoomConfig {
    RoomConfig {
        participants: ParticipantConfig::uniform_room(PARTIES, ACCESS_BPS),
        frames: ROOM_FRAMES,
        share_encoder: true,
        seed: mix(seed, 0x400F),
        ..Default::default()
    }
}

struct Fixture {
    scene: SceneSource,
    pipelines: Vec<Box<dyn SemanticPipeline>>,
    tally: Rc<RefCell<Tally>>,
    scene_ms: f64,
}

/// Scene build, pipeline construction, and a warm-up frame that runs
/// the gaussian prebuild fit.
fn setup(seed: u64) -> Result<Fixture, String> {
    let t0 = Instant::now();
    let config = SemHoloConfig {
        seed,
        ..Default::default()
    };
    let scene = SceneSource::new(&config, ROOM_FRAMES as f32 / config.fps);
    let scene_ms = t0.elapsed().as_secs_f64() * 1e3;
    if scene.len() < ROOM_FRAMES {
        return Err(format!(
            "scene holds {} frames, need {ROOM_FRAMES}",
            scene.len()
        ));
    }
    let mut pipeline = GaussianPipeline::default();
    let warm = pipeline.encode(&scene.frame(0)).map_err(holo)?;
    pipeline.decode(&warm.payload).map_err(holo)?;
    let tally = Rc::new(RefCell::new(Tally::default()));
    let check = Box::new(|c: &Content| matches!(c, Content::Cloud(p) if !p.points.is_empty()));
    let observed: Box<dyn SemanticPipeline> =
        Box::new(Observed::new(Box::new(pipeline), tally.clone(), check));
    Ok(Fixture {
        scene,
        pipelines: vec![observed],
        tally,
        scene_ms,
    })
}

/// Per-subscriber conservation: `usable <= delivered <= expected`, and
/// every subscriber owed every other sender's every frame.
fn check_room(report: &RoomReport, tally: &Tally) -> Result<(), String> {
    if report.subscribers.len() != PARTIES {
        return Err(format!(
            "{} subscribers of {PARTIES}",
            report.subscribers.len()
        ));
    }
    for s in &report.subscribers {
        if s.expected != (PARTIES - 1) * ROOM_FRAMES
            || s.delivered > s.expected
            || s.usable > s.delivered
        {
            return Err(format!(
                "subscriber {}: usable {} delivered {} expected {}",
                s.id, s.usable, s.delivered, s.expected
            ));
        }
    }
    if tally.encode_entries.len() != ROOM_FRAMES || tally.decodes != ROOM_FRAMES as u64 {
        return Err(format!(
            "{} encodes / {} decodes for {ROOM_FRAMES} frames",
            tally.encode_entries.len(),
            tally.decodes
        ));
    }
    if tally.bad_decodes > 0 {
        return Err(format!(
            "{} decoded frames were empty clouds",
            tally.bad_decodes
        ));
    }
    Ok(())
}

/// Rooms of the real pipeline, observed from outside.
#[derive(Default)]
struct Untraced {
    rooms: usize,
    wall_s: f64,
    frame_ms: Vec<f64>,
    /// The first room's report and payload bytes.
    first: Option<(RoomReport, u64)>,
}

/// One room run of the real pipeline.
fn untraced_room(fx: &mut Fixture, cfg: &RunCfg, out: &mut Outcome, u: &mut Untraced) {
    *fx.tally.borrow_mut() = Tally::default();
    let start = Instant::now();
    let result =
        Room::new(room_config(cfg.seed)).and_then(|mut r| r.run(&fx.scene, &mut fx.pipelines));
    let end = Instant::now();
    u.wall_s += end.duration_since(start).as_secs_f64();
    u.rooms += 1;
    let t = fx.tally.borrow();
    // Successive encodes of the shared encoder bound one room frame;
    // the tail (final accounting) is not a frame.
    let mut frame_ms = intervals_ms(&t.encode_entries, end);
    frame_ms.pop();
    u.frame_ms.extend(frame_ms);
    // A report that fails its check still feeds the modelled metrics,
    // so the run prints its result with the failures counted.
    match result.map_err(holo) {
        Ok(report) => {
            account(out, SUBSCRIBER_FRAMES as u64, check_room(&report, &t));
            u.first.get_or_insert((report, t.payload_bytes));
        }
        Err(e) => account(out, SUBSCRIBER_FRAMES as u64, Err(e)),
    }
}

/// The end-to-end run: metrics with per-layer timing off.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    harness::body_model_build_ms();
    let mut setups = SetupTimes::default();
    let mut fx = setups.repeat(SETUPS, || setup(cfg.seed))?;
    let mut resetup = |i| match i % RESETUP_EVERY {
        0 => setups.time(|| setup(cfg.seed)).map(drop),
        _ => Ok(()),
    };
    let mut u = Untraced::default();
    closed_loop(cfg.seconds, 1, &mut resetup, |_| {
        untraced_room(&mut fx, cfg, &mut out, &mut u);
        Ok(())
    })?;
    let (first, payload_bytes) = u.first.as_ref().ok_or("no room ran")?;
    out.set("setup_s", setups.median()?);
    out.set(
        "frames_per_s",
        (u.rooms * SUBSCRIBER_FRAMES) as f64 / u.wall_s,
    );
    harness::set_frame_ms(&mut out, &u.frame_ms, ROOM_FRAMES - 1)?;
    out.set("peak_rss_mb", harness::peak_rss_mb()?);
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set(
        "wire_bytes_per_frame",
        *payload_bytes as f64 / ROOM_FRAMES as f64 + WIRE_HEADER_BYTES as f64,
    );
    let usable: usize = first.subscribers.iter().map(|s| s.usable).sum();
    let expected: usize = first.subscribers.iter().map(|s| s.expected).sum();
    out.set("usable_ratio", usable as f64 / expected as f64);
    let mut e2e = Summary::with_samples();
    for s in &first.subscribers {
        e2e.merge(&s.e2e_ms);
    }
    let n = e2e.count() as usize;
    stats::check_tail(n, 95.0)?;
    out.set(
        "model_e2e_ms_p50",
        e2e.percentile(50.0).ok_or("no latency samples")?,
    );
    out.set(
        "model_e2e_ms_p95",
        e2e.percentile(95.0).ok_or("no latency samples")?,
    );
    Ok(out)
}

// ---------------------------------------------------------------------
// Traced run.
// ---------------------------------------------------------------------

/// The gaussian tier rebuilt from `holo-gaussian`'s public functions,
/// with a stopwatch around the update codec and splat posing.
struct TracedGaussian {
    avatar: GaussianAvatar,
    prebuild_bytes: usize,
    update: GaussianUpdateConfig,
    encoder: GaussianUpdateEncoder,
    decoder: GaussianUpdateDecoder,
    skeleton: Skeleton,
    layers: SharedLayers,
}

impl TracedGaussian {
    fn new(frame: &SceneFrame, layers: &SharedLayers) -> Result<Self, String> {
        let fitted = Layers::time(layers, "fit", || fit_avatar(frame, &FitConfig::default()));
        let blob = encode_prebuild(&fitted);
        let avatar = decode_prebuild(&blob).map_err(|e| format!("prebuild round trip: {e}"))?;
        let update = GaussianUpdateConfig::default();
        Ok(Self {
            avatar,
            prebuild_bytes: blob.len(),
            update,
            encoder: GaussianUpdateEncoder::new(update),
            decoder: GaussianUpdateDecoder::new(),
            skeleton: Skeleton::neutral(),
            layers: layers.clone(),
        })
    }
}

impl SemanticPipeline for TracedGaussian {
    fn kind(&self) -> SemanticKind {
        SemanticKind::Gaussian
    }

    fn encode(&mut self, frame: &SceneFrame) -> HoloResult<EncodedFrame> {
        let t0 = Instant::now();
        let state = AvatarState::from_pose(frame.params.clone());
        let payload = Layers::time(&self.layers, "update_encode", || {
            self.encoder.encode(&state)
        });
        let extract = StageCost {
            cpu_wall: t0.elapsed(),
            gpu: Some(Workload {
                flops: 2.0e9,
                bytes: 8.0e6,
                peak_memory: 64 << 20,
            }),
        };
        self.layers.borrow_mut().add("pipeline", t0.elapsed());
        Ok(EncodedFrame {
            payload: payload.into(),
            extract,
        })
    }

    fn decode(&mut self, payload: &[u8]) -> HoloResult<Reconstructed> {
        let t0 = Instant::now();
        let state = Layers::time(&self.layers, "update_decode", || {
            self.decoder.decode(payload, &self.update)
        })
        .map_err(|e| SemHoloError::Codec(e.to_string()))?;
        let cloud = Layers::time(&self.layers, "posed_cloud", || {
            self.avatar.posed_cloud(&self.skeleton, &state)
        });
        let n = self.avatar.splats.len() as f64;
        let recon = StageCost {
            cpu_wall: t0.elapsed(),
            gpu: Some(Workload {
                flops: n * 4.0e3,
                bytes: n * 96.0,
                peak_memory: (self.prebuild_bytes as u64 * 4).max(16 << 20),
            }),
        };
        self.layers.borrow_mut().add("pipeline", t0.elapsed());
        Ok(Reconstructed {
            content: Content::Cloud(cloud),
            recon,
        })
    }

    fn quality(&mut self, _: &SceneFrame, _: &Content) -> QualityReport {
        QualityReport::default()
    }
}

/// The traced pipeline must reproduce the real one's prebuild, update
/// bytes and decoded clouds.
fn check_fidelity(scene: &SceneSource) -> Result<(), String> {
    let mut real = GaussianPipeline::default();
    let first = scene.frame(0);
    let mut traced = TracedGaussian::new(&first, &SharedLayers::default())?;
    for frame in scene.frames(FIDELITY_FRAMES) {
        let a = real.encode(&frame).map_err(holo)?;
        let b = traced.encode(&frame).map_err(holo)?;
        if a.payload != b.payload || real.prebuild_bytes() != traced.prebuild_bytes {
            return Err(format!(
                "traced gaussian encode diverges at frame {}",
                frame.index
            ));
        }
        let (ra, rb) = (
            real.decode(&a.payload).map_err(holo)?,
            traced.decode(&b.payload).map_err(holo)?,
        );
        match (&ra.content, &rb.content) {
            (Content::Cloud(x), Content::Cloud(y)) if x.points == y.points => {}
            _ => {
                return Err(format!(
                    "traced gaussian decode diverges at frame {}",
                    frame.index
                ))
            }
        }
    }
    Ok(())
}

/// The traced run: per-layer rows beside the untraced wall time.
pub fn run_traced(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    out.set("holo-body.model_build_ms", harness::body_model_build_ms());
    let mut scene_ms = Vec::new();
    let mut fx = SetupTimes::default().repeat(SETUPS, || {
        let fx = setup(cfg.seed)?;
        scene_ms.push(fx.scene_ms);
        Ok(fx)
    })?;
    out.set("semholo.scene_setup_ms", stats::median(&scene_ms)?);
    account(&mut out, FIDELITY_FRAMES as u64, check_fidelity(&fx.scene));

    let layers = SharedLayers::default();
    let first_frame = fx.scene.frame(0);
    let traced =
        SetupTimes::default().repeat(SETUPS, || TracedGaussian::new(&first_frame, &layers))?;
    let mut traced: Vec<Box<dyn SemanticPipeline>> = vec![Box::new(traced)];
    let (mut untraced, mut recorded) = (Untraced::default(), Untraced::default());
    // The room engine is `Room::run` minus the time inside pipeline calls.
    let (mut engine_s, mut rooms) = (0.0, 0);
    rotate_phases(cfg.seconds, 1, |phase| {
        match phase {
            Phase::Untraced => untraced_room(&mut fx, cfg, &mut out, &mut untraced),
            Phase::Recorded => untraced_room(&mut fx, cfg, &mut out, &mut recorded),
            Phase::Timed => {
                let pipeline_before = layers.borrow().total_s("pipeline");
                let t0 = Instant::now();
                let result = Room::new(room_config(cfg.seed))
                    .and_then(|mut r| r.run(&fx.scene, &mut traced));
                let wall = t0.elapsed().as_secs_f64();
                engine_s += wall - (layers.borrow().total_s("pipeline") - pipeline_before);
                rooms += 1;
                account(
                    &mut out,
                    SUBSCRIBER_FRAMES as u64,
                    result.map(drop).map_err(holo),
                );
            }
        }
        Ok(())
    })?;
    let untraced_ms = untraced.wall_s * 1e3 / untraced.rooms as f64;
    let recorded_ms = recorded.wall_s * 1e3 / recorded.rooms as f64;
    let (first, _) = untraced.first.as_ref().ok_or("no room ran")?;
    out.set("holo-conf.sfu_dropped", first.queue_dropped as f64);
    out.set("holo-conf.downlink_lost", first.downlink_lost as f64);

    let l = layers.borrow();
    let engine_ms = engine_s * 1e3 / rooms as f64;
    let enc_us = l.mean_ms("update_encode") * 1e3;
    let dec_us = l.mean_ms("update_decode") * 1e3;
    let pose_us = l.mean_ms("posed_cloud") * 1e3;
    out.set("holo-gaussian.fit_ms", l.mean_ms("fit"));
    out.set("holo-gaussian.update_encode_us", enc_us);
    out.set("holo-gaussian.update_decode_us", dec_us);
    out.set("holo-gaussian.posed_cloud_us", pose_us);
    out.set("holo-conf.room_engine_ms", engine_ms);
    out.set(
        "holo-conf.ns_per_subscriber_frame",
        engine_ms * 1e6 / SUBSCRIBER_FRAMES as f64,
    );
    out.set("holo-trace.overhead_ratio", recorded_ms / untraced_ms);
    out.set("untraced_op_ms", untraced_ms);
    let attributed_ms = engine_ms + ROOM_FRAMES as f64 * (enc_us + dec_us + pose_us) / 1e3;
    out.set("unattributed_ms", untraced_ms - attributed_ms);
    harness::zero_unmeasured_layers(&mut out);
    Ok(out)
}
