//! The SemHolo workload benchmark.
//!
//! ```text
//! cargo run --release --manifest-path e2e_bench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics, measured with per-layer
//! timing off; `--trace 1` prints the per-layer metrics from a separate
//! traced run, beside the untraced wall time they should add up to.
//! The last line of standard output is the result as one JSON object.
//! See `README.md` beside this crate for what each workload and metric
//! means.

mod chaos;
mod harness;
mod metrics;
mod room;
mod session;
mod stats;

use harness::RunCfg;
use metrics::{Outcome, END_TO_END, PER_LAYER};
use session::Tier;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "session_mesh",
    "session_keypoint",
    "room_sfu",
    "chaos_stream",
];

/// Worker threads the program may use (`SEMHOLO_THREADS`), fixed so
/// runs on machines of any size compare like for like.
const THREADS: usize = 1;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value:?}: expected {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|_| bad("an unsigned integer"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, cfg: &RunCfg, trace: bool) -> Result<Outcome, String> {
    match (name, trace) {
        ("session_mesh", false) => session::run(Tier::Mesh, cfg),
        ("session_mesh", true) => session::run_traced(Tier::Mesh, cfg),
        ("session_keypoint", false) => session::run(Tier::Keypoint, cfg),
        ("session_keypoint", true) => session::run_traced(Tier::Keypoint, cfg),
        ("room_sfu", false) => room::run(cfg),
        ("room_sfu", true) => room::run_traced(cfg),
        ("chaos_stream", false) => chaos::run(cfg),
        ("chaos_stream", true) => chaos::run_traced(cfg),
        _ => Err(format!("unknown workload {name}")),
    }
}

/// The human-readable table: every metric with its unit and direction.
/// In a traced run the layer rows sit beside the untraced wall time.
fn print_table(name: &str, out: &Outcome, trace: bool) {
    let table = if trace { PER_LAYER } else { END_TO_END };
    println!(
        "{:<38} {:>16}  {:<6} better",
        format!("[{name}] metric"),
        "value",
        "unit"
    );
    for s in table {
        println!(
            "{:<38} {:>16.6}  {:<6} {}",
            s.name,
            out.values[s.name],
            s.unit,
            s.better.word()
        );
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("{:<38} {:>16}  ops", "attempted", out.attempted);
    println!(
        "{:<38} {:>16.6}  ratio  lower",
        "failed_ratio", failed_ratio
    );
    if trace {
        println!(
            "untraced wall {:.4} ms per unit of work, unattributed {:.4} ms (layer rows are per call)",
            out.values["untraced_op_ms"], out.values["unattributed_ms"]
        );
    }
}

fn main() {
    // Pin the program's worker pool before anything reads it.
    std::env::set_var("SEMHOLO_THREADS", THREADS.to_string());
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2e-bench: {e}");
            std::process::exit(2);
        }
    };
    let cfg = RunCfg {
        seed: args.seed,
        seconds: args.seconds,
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let names: Vec<&str> = match args.workload.as_str() {
        "all" => WORKLOADS.to_vec(),
        one => vec![one],
    };
    let (mut attempted, mut failed, mut fields) = (0, 0, Vec::new());
    for name in &names {
        println!(
            "# workload={name} seed={} seconds={} trace={} threads={THREADS} nproc={nproc}",
            cfg.seed,
            cfg.seconds,
            u8::from(args.trace)
        );
        let table = if args.trace { PER_LAYER } else { END_TO_END };
        let out = match run_workload(name, &cfg, args.trace)
            .and_then(|o| o.validate(table).map(|()| o))
        {
            Ok(o) => o,
            Err(e) => {
                eprintln!("e2e-bench: {name}: {e}");
                std::process::exit(1);
            }
        };
        print_table(name, &out, args.trace);
        attempted += out.attempted;
        failed += out.failed;
        // A run of one workload keeps the catalogue's names; a run of all
        // prefixes each with its workload.
        let prefix = if names.len() > 1 {
            format!("{name}.")
        } else {
            String::new()
        };
        fields.extend(out.metric_fields(&prefix));
    }
    println!("{}", metrics::result_line(attempted, failed, &fields));
}
