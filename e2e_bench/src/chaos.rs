//! `chaos_stream`: the `holo-chaos` stream engines across many seeds.
//!
//! One round draws a fresh seed and runs, over every plan of
//! `uep_sweep_plans`, `run_stream_scenario` under the four
//! `Mechanisms` and `run_uep_stream_scenario` under the uniform and
//! weighted policies: 36 cells of 150 frames. One operation is one
//! stream frame. The streams are byte-size-only, so no codec runs; the
//! faulted link, FEC and retry scheduling do the work.

use crate::harness::{self, account, closed_loop, mix, rotate_phases, Phase, RunCfg, SetupTimes};
use crate::metrics::Outcome;
use holo_chaos::{
    run_stream_scenario, run_uep_stream_scenario, uep_sweep_plans, Mechanisms, StreamConfig,
    StreamOutcome, UepOutcome,
};
use holo_net::wire::PayloadKind;
use holo_uep::UepPolicy;
use std::time::Instant;

/// Rounds whose results feed the modelled metrics and the counts: a
/// fixed prefix, so those figures are a pure function of the seed.
const MODELLED_ROUNDS: usize = 32;
/// Rounds an end-to-end run makes at least: one `frame_ms` sample per
/// round, and a p95 needs ten samples beyond it.
const MIN_ROUNDS: usize = 200;
/// Set-up repetitions before measuring; `setup_s` is the median of
/// these and one more before every [`RESETUP_EVERY`]th round.
const SETUPS: usize = 9;
const RESETUP_EVERY: usize = 40;

fn mechanisms() -> [Mechanisms; 4] {
    [
        Mechanisms::baseline(),
        Mechanisms::fec(),
        Mechanisms::retransmit(),
        Mechanisms::full(),
    ]
}

/// One round's cells and the wall time of each call.
#[derive(Default)]
struct Round {
    streams: Vec<StreamOutcome>,
    ueps: Vec<UepOutcome>,
    stream_s: Vec<f64>,
    uep_s: Vec<f64>,
}

impl Round {
    fn frames(&self) -> usize {
        self.streams.iter().map(|c| c.frames).sum::<usize>()
            + self.ueps.iter().map(|c| c.frames).sum::<usize>()
    }
}

/// A round's stream: the harness default with the payload drawn from
/// +-10% around it, so no two rounds' link schedules coincide.
fn stream_config(seed: u64) -> StreamConfig {
    let base = StreamConfig::default();
    let jitter = (mix(seed, 0xB17E) % 2001) as f64 / 10_000.0 - 0.1;
    StreamConfig {
        payload_bytes: (base.payload_bytes as f64 * (1.0 + jitter)) as usize,
        ..base
    }
}

fn run_round(seed: u64, policies: &[UepPolicy; 2]) -> Round {
    let cfg = stream_config(seed);
    let mut round = Round::default();
    for plan in uep_sweep_plans(seed) {
        for m in mechanisms() {
            let t0 = Instant::now();
            round.streams.push(run_stream_scenario(&plan, &m, &cfg));
            round.stream_s.push(t0.elapsed().as_secs_f64());
        }
        for policy in policies {
            let t0 = Instant::now();
            round.ueps.push(run_uep_stream_scenario(
                &plan,
                policy,
                &cfg,
                PayloadKind::Mesh,
            ));
            round.uep_s.push(t0.elapsed().as_secs_f64());
        }
    }
    round
}

/// Every cell conserves its frames; uniform and weighted spend the same
/// redundancy budget.
fn check_round(round: &Round) -> Result<(), String> {
    for c in &round.streams {
        if c.delivered > c.frames
            || c.usable + c.poisoned != c.delivered
            || c.recovered_fec + c.recovered_retx > c.delivered
        {
            return Err(format!(
                "stream {} / {}: frames {} delivered {} usable {} poisoned {} recovered {}+{}",
                c.plan,
                c.mechanism,
                c.frames,
                c.delivered,
                c.usable,
                c.poisoned,
                c.recovered_fec,
                c.recovered_retx
            ));
        }
    }
    for c in &round.ueps {
        if c.delivered + c.abandoned + c.lost != c.frames || c.usable > c.delivered {
            return Err(format!(
                "uep {} / {}: delivered {} + abandoned {} + lost {} != {} frames",
                c.plan, c.policy, c.delivered, c.abandoned, c.lost, c.frames
            ));
        }
    }
    for pair in round.ueps.chunks(2) {
        let [u, w] = pair else {
            return Err("unpaired uep cell".into());
        };
        if u.parity_frames != w.parity_frames || u.retries_scheduled != w.retries_scheduled {
            return Err(format!(
                "{}: uniform parity {} retries {} vs weighted parity {} retries {}",
                u.plan, u.parity_frames, u.retries_scheduled, w.parity_frames, w.retries_scheduled
            ));
        }
    }
    Ok(())
}

/// Sums over the modelled prefix of rounds.
#[derive(Default)]
struct Totals {
    frames: usize,
    usable: usize,
    wire_bytes: u64,
    /// Mean recovery latency of each stream cell that recovered frames.
    recovery_ms: Vec<f64>,
    parity: usize,
    retries: u64,
    abandoned: usize,
    recovered_fec: usize,
    recovered_retx: usize,
    lost: usize,
    uep_delivered: usize,
    uep_transmissions: u64,
}

impl Totals {
    fn add(&mut self, round: &Round) {
        for c in &round.streams {
            self.frames += c.frames;
            self.usable += c.usable;
            self.wire_bytes += c.wire_bytes;
            if c.recovered_fec + c.recovered_retx > 0 {
                self.recovery_ms.push(c.mean_recovery_ms);
            }
            self.recovered_fec += c.recovered_fec;
            self.recovered_retx += c.recovered_retx;
            self.lost += c.frames - c.delivered;
        }
        for c in &round.ueps {
            self.frames += c.frames;
            self.usable += c.usable;
            self.wire_bytes += c.wire_bytes;
            self.parity += c.parity_frames;
            self.retries += c.retries_sent;
            self.abandoned += c.abandoned;
            self.recovered_fec += c.recovered_fec;
            self.recovered_retx += c.recovered_retx;
            self.lost += c.lost;
            self.uep_delivered += c.delivered;
            self.uep_transmissions += (c.frames + c.parity_frames) as u64 + c.retries_sent;
        }
    }
}

/// Rounds run back to back.
#[derive(Default)]
struct Rounds {
    rounds: usize,
    frames: usize,
    wall_s: f64,
    /// Wall milliseconds per stream frame, one sample per round.
    frame_ms: Vec<f64>,
    stream_s: Vec<f64>,
    uep_s: Vec<f64>,
    totals: Totals,
}

/// Run, check and record the next round of `r`; its seed is the round's
/// index in `r`.
fn one_round(cfg: &RunCfg, policies: &[UepPolicy; 2], out: &mut Outcome, r: &mut Rounds) {
    let start = Instant::now();
    let round = run_round(mix(cfg.seed, r.rounds as u64), policies);
    let round_s = start.elapsed().as_secs_f64();
    let frames = round.frames();
    r.frame_ms.push(round_s * 1e3 / frames as f64);
    r.stream_s.extend(&round.stream_s);
    r.uep_s.extend(&round.uep_s);
    r.frames += frames;
    account(out, frames as u64, check_round(&round));
    if r.rounds < MODELLED_ROUNDS {
        r.totals.add(&round);
    }
    r.rounds += 1;
    r.wall_s += start.elapsed().as_secs_f64();
}

/// Building a round's plans and policies and running one warm-up round.
fn setup(seed: u64) -> Result<(), String> {
    let policies = [UepPolicy::uniform(), UepPolicy::weighted()];
    check_round(&run_round(mix(seed, u64::MAX), &policies))
}

/// The end-to-end run: metrics with per-layer timing off.
pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut setups = SetupTimes::default();
    setups.repeat(SETUPS, || setup(cfg.seed))?;
    let mut resetup = |i| match i % RESETUP_EVERY {
        0 => setups.time(|| setup(cfg.seed)),
        _ => Ok(()),
    };
    let policies = [UepPolicy::uniform(), UepPolicy::weighted()];
    let mut r = Rounds::default();
    closed_loop(cfg.seconds, MIN_ROUNDS, &mut resetup, |_| {
        one_round(cfg, &policies, &mut out, &mut r);
        Ok(())
    })?;
    let t = &r.totals;
    out.set("setup_s", setups.median()?);
    out.set("frames_per_s", r.frames as f64 / r.wall_s);
    harness::set_frame_ms(&mut out, &r.frame_ms, MIN_ROUNDS)?;
    out.set("peak_rss_mb", harness::peak_rss_mb()?);
    out.set("ok_ratio", 1.0 - out.failed as f64 / out.attempted as f64);
    out.set(
        "wire_bytes_per_frame",
        t.wire_bytes as f64 / t.frames as f64,
    );
    out.set("usable_ratio", t.usable as f64 / t.frames as f64);
    harness::set_model_e2e(&mut out, &t.recovery_ms)?;
    Ok(out)
}

/// The traced run. Every round times each engine call (two clock reads
/// per call of about 0.2 ms), so the untraced and timed phases are the
/// same rounds here.
pub fn run_traced(cfg: &RunCfg) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let policies = [UepPolicy::uniform(), UepPolicy::weighted()];
    let (mut r, mut recorded) = (Rounds::default(), Rounds::default());
    rotate_phases(cfg.seconds, MODELLED_ROUNDS.div_ceil(2), |phase| {
        match phase {
            Phase::Untraced | Phase::Timed => one_round(cfg, &policies, &mut out, &mut r),
            Phase::Recorded => one_round(cfg, &policies, &mut out, &mut recorded),
        }
        Ok(())
    })?;
    let round_ms = r.wall_s * 1e3 / r.rounds as f64;
    let mean_us = |s: &[f64]| s.iter().sum::<f64>() * 1e6 / s.len().max(1) as f64;
    let (stream_us, uep_us) = (mean_us(&r.stream_s), mean_us(&r.uep_s));
    let calls_per_round = |s: &[f64]| s.len() as f64 / r.rounds as f64;
    let attributed_ms =
        (stream_us * calls_per_round(&r.stream_s) + uep_us * calls_per_round(&r.uep_s)) / 1e3;

    let t = &r.totals;
    out.set("holo-chaos.stream_scenario_us", stream_us);
    out.set("holo-chaos.uep_scenario_us", uep_us);
    out.set("holo-chaos.parity_frames", t.parity as f64);
    out.set("holo-chaos.retries", t.retries as f64);
    out.set("holo-chaos.abandoned", t.abandoned as f64);
    out.set("holo-chaos.recovered_fec", t.recovered_fec as f64);
    out.set("holo-chaos.recovered_retx", t.recovered_retx as f64);
    out.set("holo-chaos.lost", t.lost as f64);
    out.set(
        "holo-chaos.useful_ratio",
        t.uep_delivered as f64 / t.uep_transmissions as f64,
    );
    out.set(
        "holo-trace.overhead_ratio",
        (recorded.wall_s / recorded.rounds as f64) * 1e3 / round_ms,
    );
    out.set("untraced_op_ms", round_ms);
    out.set("unattributed_ms", round_ms - attributed_ms);
    harness::zero_unmeasured_layers(&mut out);
    Ok(out)
}
