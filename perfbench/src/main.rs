//! `spo-perfbench`: the repository's benchmark. Runs one named workload
//! from a seed against a release `spo` binary and prints every metric by
//! name and unit (see README.md). Usually started through `run.py`,
//! which builds both binaries first:
//!
//! ```text
//! spo-perfbench --workload cli_cold --seed 1 --seconds 15 --trace 0 --spo target/release/spo
//! spo-perfbench compare results-a/ results-b/
//! ```

mod check;
mod compare;
mod inputs;
mod layers;
mod proc;
mod report;
mod rpc;
mod stats;
mod trace;
mod workloads;

use inputs::Workload;
use report::Record;
use std::path::PathBuf;
use std::process::ExitCode;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    spo: PathBuf,
    work: PathBuf,
    out: PathBuf,
    threads: Option<usize>,
    commit: String,
}

fn parse_args() -> Result<Args, String> {
    let mut raw = std::env::args().skip(1);
    let mut get = Flags::default();
    while let Some(flag) = raw.next() {
        let key = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument `{flag}`"))?
            .to_owned();
        let value = raw.next().ok_or_else(|| format!("--{key} needs a value"))?;
        get.0.insert(key, value);
    }
    let workload = get.take("workload")?;
    let workload = Workload::parse(&workload).ok_or_else(|| {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        format!(
            "unknown workload `{workload}` (one of {})",
            names.join(", ")
        )
    })?;
    let number = |v: String, what: &str| -> Result<f64, String> {
        v.parse::<f64>()
            .ok()
            .filter(|x| x.is_finite() && *x > 0.0)
            .ok_or_else(|| format!("--{what} needs a positive number"))
    };
    let args = Args {
        workload,
        seed: get
            .take("seed")?
            .parse()
            .map_err(|_| "--seed needs a whole number")?,
        seconds: number(get.take("seconds")?, "seconds")?,
        trace: match get.take("trace")?.as_str() {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
        },
        spo: get.take("spo")?.into(),
        work: get.take_or("work", ".bench_work").into(),
        out: get.take_or("out", ".bench_results").into(),
        threads: match get.0.remove("threads") {
            Some(t) => Some(t.parse().map_err(|_| "--threads needs a whole number")?),
            None => None,
        },
        commit: get.take_or("commit", "unknown"),
    };
    if let Some(k) = get.0.keys().next() {
        return Err(format!("unknown flag `--{k}`"));
    }
    Ok(args)
}

#[derive(Default)]
struct Flags(std::collections::BTreeMap<String, String>);

impl Flags {
    fn take(&mut self, key: &str) -> Result<String, String> {
        self.0
            .remove(key)
            .ok_or_else(|| format!("--{key} is required"))
    }

    fn take_or(&mut self, key: &str, default: &str) -> String {
        self.0.remove(key).unwrap_or_else(|| default.to_owned())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") => compare::run(&args[1..]),
        _ => real_main(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    // One client for the CLI workloads; one connection per core for the
    // daemon. More generator threads than cores would measure the
    // generator, so such a configuration is refused.
    let threads = args
        .threads
        .unwrap_or(if args.workload == Workload::ServeRpc {
            nproc
        } else {
            1
        });
    if threads == 0 || threads > nproc {
        return Err(format!(
            "--threads {threads}: must be between 1 and nproc ({nproc})"
        ));
    }
    if threads > 1 && args.workload != Workload::ServeRpc {
        return Err(format!("{} is a one-client workload", args.workload.name()));
    }
    let run_dir = args.work.join(format!(
        "{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&run_dir);
    let ticks = proc::cpu_ticks();
    for dir in [&run_dir, &args.out] {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let ctx = workloads::Ctx {
        workload: args.workload,
        spo: args.spo.clone(),
        work: run_dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
        jobs: nproc,
        threads,
    };
    let result = if args.trace {
        traced(&args, &ctx, ticks)
    } else {
        untraced(&args, &ctx, ticks)
    };
    let _ = std::fs::remove_dir_all(&run_dir);
    let (record, summary) = result?;
    let name = format!(
        "{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        u8::from(args.trace)
    );
    std::fs::write(args.out.join(name), format!("{record}\n")).map_err(|e| e.to_string())?;
    println!("{record}");
    println!("{summary}");
    Ok(())
}

/// The run conditions. `ticks` are the host's CPU counters at the start
/// of the run: time the hypervisor gave to other guests since then slows
/// every wall-clock metric, and the record keeps its share so that
/// `compare` can tell drift of the host from a change of the program.
fn conditions(
    args: &Args,
    ctx: &workloads::Ctx,
    threads: usize,
    loop_kind: String,
    ticks: Option<(u64, u64)>,
) -> Vec<(&'static str, String)> {
    let s = report::json_str;
    let steal = proc::steal_ratio(ticks, proc::cpu_ticks());
    vec![
        ("workload", s(args.workload.name())),
        ("trace", u8::from(args.trace).to_string()),
        ("seed", args.seed.to_string()),
        ("seconds", report::num(args.seconds)),
        ("scale", report::num(args.workload.scale())),
        ("nproc", ctx.jobs.to_string()),
        ("spo_jobs", ctx.jobs.to_string()),
        ("generator_threads", threads.to_string()),
        ("loop", s(&loop_kind)),
        ("commit", s(&args.commit)),
        // run.py builds `spo` with `--release` and nothing else.
        ("profile", s("release")),
        ("host_steal_ratio", report::num(steal.unwrap_or(f64::NAN))),
    ]
}

fn untraced(
    args: &Args,
    ctx: &workloads::Ctx,
    ticks: Option<(u64, u64)>,
) -> Result<(String, String), String> {
    let m = workloads::run(ctx)?;
    let metrics = report::end_to_end(&m);
    let loop_kind = format!(
        "closed, {} client(s), whole rounds until {} s",
        ctx.threads, args.seconds
    );
    let conditions = conditions(args, ctx, ctx.threads, loop_kind, ticks);
    let mut failures = m.setup_failures.clone();
    failures.extend(m.tally.failures.iter().cloned());
    let extra = [
        ("rounds", m.round_s.len().to_string()),
        ("window_s", report::num(m.elapsed_s)),
        ("window_truncated", m.truncated.to_string()),
        ("time_share", report::map_json(&m.time_share())),
        (
            "setup_runs_s",
            format!(
                "[{}]",
                m.setup_s
                    .iter()
                    .map(|v| report::num(*v))
                    .collect::<Vec<_>>()
                    .join(",")
            ),
        ),
    ];
    let rec = Record {
        conditions: &conditions,
        correct: m.tally.failed == 0 && m.setup_failures.is_empty(),
        attempted: m.tally.attempted,
        failed: m.tally.failed,
        failures: &failures,
        metrics: &metrics,
        extra: &extra,
    };
    Ok((rec.to_json(), rec.summary(&report::END_TO_END)))
}

fn traced(
    args: &Args,
    ctx: &workloads::Ctx,
    ticks: Option<(u64, u64)>,
) -> Result<(String, String), String> {
    let t = layers::run(ctx)?;
    let spans = layers::spans_path(&args.out, args.workload.name(), args.seed);
    std::fs::write(&spans, t.spans.to_json(args.workload.name(), args.seed))
        .map_err(|e| format!("{}: {e}", spans.display()))?;
    let metrics = report::per_layer(&t);
    for name in report::PER_LAYER {
        if !metrics.contains_key(name) {
            return Err(format!("traced run measured no `{name}`"));
        }
    }
    let conditions = conditions(
        args,
        ctx,
        1,
        "closed, 1 client, whole rounds".to_owned(),
        ticks,
    );
    let extra = [
        ("traced_ops", t.ops.to_string()),
        ("self_ms_per_op", report::map_json(&t.self_ms_per_op)),
        ("setup_self_ms", report::map_json(&t.setup_self_ms)),
        ("spans_file", report::json_str(&spans.display().to_string())),
    ];
    let rec = Record {
        conditions: &conditions,
        correct: t.tally.failed == 0,
        attempted: t.tally.attempted,
        failed: t.tally.failed,
        failures: &t.tally.failures,
        metrics: &metrics,
        extra: &extra,
    };
    Ok((rec.to_json(), rec.summary(&report::PER_LAYER)))
}
