//! The end-to-end runs (`--trace 0`): set-up, reference capture, and a
//! closed loop of whole rounds driving the release `spo` binary as a
//! subprocess, or the `spo serve` daemon over its socket.

use crate::check::{self, path_str, Reference, Tally};
use crate::inputs::{self, CorpusFiles, EditPlan, Op, OpStream, Workload};
use crate::proc;
use crate::rpc::{self, Client, Daemon};
use spo_corpus::Lib;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

pub struct Ctx {
    pub workload: Workload,
    pub spo: PathBuf,
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// `--jobs` / `--workers` handed to `spo`.
    pub jobs: usize,
    /// Generator threads (= connections for `serve_rpc`).
    pub threads: usize,
}

impl Ctx {
    pub fn stderr(&self) -> PathBuf {
        self.work.join("stderr.txt")
    }
}

/// What a run measured, before it is turned into metrics.
#[derive(Default)]
pub struct Measured {
    pub setup_s: Vec<f64>,
    pub setup_failures: Vec<String>,
    /// Latency samples per op kind, in ms.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    pub tally: Tally,
    pub entries: u64,
    /// Wall time of each completed round.
    pub round_s: Vec<f64>,
    /// Closed-loop clients whose rounds these are.
    pub clients: usize,
    pub elapsed_s: f64,
    pub peak_rss_kib: i64,
    /// The loop ran out of pre-generated inputs before `--seconds`.
    pub truncated: bool,
}

impl Measured {
    pub fn ops(&self) -> usize {
        self.samples.values().map(Vec::len).sum()
    }

    /// Each op kind's share of the summed op time.
    pub fn time_share(&self) -> BTreeMap<String, f64> {
        let total: f64 = self.samples.values().flatten().sum();
        self.samples
            .iter()
            .map(|(k, v)| (k.to_string(), v.iter().sum::<f64>() / total))
            .collect()
    }

    fn absorb(&mut self, other: Measured) {
        for (k, v) in other.samples {
            self.samples.entry(k).or_default().extend(v);
        }
        self.tally.absorb(other.tally);
        self.entries += other.entries;
        self.round_s.extend(other.round_s);
        self.clients += other.clients;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
        self.peak_rss_kib = self.peak_rss_kib.max(other.peak_rss_kib);
    }
}

/// One completed op.
pub struct Done {
    pub ms: f64,
    pub outcome: Result<(), String>,
    pub entries: u64,
    pub rss_kib: i64,
}

/// Runs whole rounds until `seconds` have passed (or `limit` rounds).
fn closed_loop(
    seconds: f64,
    limit: Option<u64>,
    stream: &mut OpStream,
    mut exec: impl FnMut(Op) -> Done,
) -> Measured {
    let mut m = Measured {
        clients: 1,
        ..Measured::default()
    };
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        if limit.is_some_and(|l| m.round_s.len() as u64 >= l) {
            m.truncated = true;
            break;
        }
        let round = Instant::now();
        for op in stream.round() {
            let done = exec(op);
            m.samples.entry(op.kind()).or_default().push(done.ms);
            m.tally.record(&format!("{op:?}"), done.outcome);
            m.entries += done.entries;
            m.peak_rss_kib = m.peak_rss_kib.max(done.rss_kib);
        }
        m.round_s.push(round.elapsed().as_secs_f64());
    }
    m.elapsed_s = t0.elapsed().as_secs_f64();
    m
}

/// The inputs and expected outputs of the subprocess workloads.
pub struct Cli<'a> {
    pub ctx: &'a Ctx,
    pub corpus: CorpusFiles,
    pub reference: Reference,
    pub cache_dir: PathBuf,
    pub variants: Vec<PathBuf>,
    pub spi: BTreeMap<Lib, PathBuf>,
}

/// What an op must print.
pub enum Expect<'a> {
    Bytes(&'a str),
    Diff(&'a check::DiffRef),
}

impl Expect<'_> {
    pub fn verify(&self, exit: i32, out: &[u8]) -> Result<(), String> {
        match self {
            Expect::Bytes(want) => {
                check::check_exit(exit, 0)?;
                check::same_bytes(out, want.as_bytes())
            }
            Expect::Diff(want) => {
                check::check_diff(exit, &String::from_utf8_lossy(out), want)?;
                match &want.report {
                    Some(r) => check::same_bytes(out, r.as_bytes()),
                    None => Ok(()),
                }
            }
        }
    }
}

impl<'a> Cli<'a> {
    pub fn prepare(ctx: &'a Ctx) -> Result<Cli<'a>, String> {
        let w = ctx.workload;
        let corpus = inputs::write_corpus(&ctx.work.join("corpus"), w.scale(), w.libs())
            .map_err(|e| format!("write corpus: {e}"))?;
        let reference = Reference::capture(&ctx.spo, &corpus, w.libs(), false, &ctx.stderr())?;
        let spi = w
            .libs()
            .iter()
            .map(|&l| (l, ctx.work.join(format!("{l}.spi"))))
            .collect();
        Ok(Cli {
            ctx,
            corpus,
            reference,
            cache_dir: ctx.work.join("cache"),
            variants: Vec::new(),
            spi,
        })
    }

    pub fn args(&self, op: Op) -> Vec<String> {
        let jobs = self.ctx.jobs.to_string();
        let prelude = path_str(&self.corpus.prelude);
        let lib = |l: Lib| path_str(self.corpus.lib(l));
        let spi = |l: Lib| path_str(&self.spi[&l]);
        let v: Vec<&str> = match op {
            Op::Analyze(l) => vec!["analyze", "--jobs", &jobs, prelude, lib(l)],
            Op::Diff(a, b) => vec![
                "diff",
                "--jobs",
                &jobs,
                prelude,
                lib(a),
                "--vs",
                prelude,
                lib(b),
            ],
            Op::WarmAnalyze(i) => vec![
                "analyze",
                "--jobs",
                &jobs,
                "--cache-dir",
                path_str(&self.cache_dir),
                prelude,
                path_str(&self.variants[i]),
            ],
            Op::IndexQuery(l, i) => {
                vec![
                    "index",
                    "query",
                    &self.reference.libs[&l].sections[i].0,
                    "--index",
                    spi(l),
                ]
            }
            Op::IndexListing(l) => vec!["index", "query", "--index", spi(l)],
            Op::IndexDiff => vec!["index", "diff", spi(Lib::Jdk), spi(Lib::Harmony)],
            Op::RpcQuery(..) | Op::RpcListing(_) | Op::RpcDiff(..) => {
                unreachable!("rpc ops go over the socket")
            }
        };
        v.into_iter().map(str::to_owned).collect()
    }

    pub fn expect(&self, op: Op) -> Expect<'_> {
        let libs = &self.reference.libs;
        match op {
            Op::Analyze(l) | Op::IndexListing(l) | Op::RpcListing(l) => {
                Expect::Bytes(&libs[&l].listing)
            }
            Op::WarmAnalyze(_) => Expect::Bytes(&libs[&Lib::Jdk].listing),
            Op::IndexQuery(l, i) | Op::RpcQuery(l, i) => Expect::Bytes(&libs[&l].sections[i].1),
            Op::Diff(a, b) | Op::RpcDiff(a, b) => Expect::Diff(&self.reference.diffs[&(a, b)]),
            Op::IndexDiff => Expect::Diff(&self.reference.diffs[&(Lib::Jdk, Lib::Harmony)]),
        }
    }

    /// Entry points an op reports or compares.
    pub fn entries(&self, op: Op) -> u64 {
        let ep = |l: Lib| self.reference.libs[&l].entry_points;
        match op {
            Op::Analyze(l) | Op::IndexListing(l) | Op::RpcListing(l) => ep(l),
            Op::WarmAnalyze(_) => ep(Lib::Jdk),
            Op::IndexQuery(..) | Op::RpcQuery(..) => 1,
            Op::Diff(a, b) | Op::RpcDiff(a, b) => ep(a) + ep(b),
            Op::IndexDiff => ep(Lib::Jdk) + ep(Lib::Harmony),
        }
    }

    /// Runs `op` as one `spo` process and checks its output.
    pub fn run(&self, op: Op) -> Done {
        let args = self.args(op);
        let args: Vec<&str> = args.iter().map(String::as_str).collect();
        let stderr = self.ctx.stderr();
        match proc::run(&self.ctx.spo, &args, &stderr) {
            Ok(run) => Done {
                ms: run.ms,
                outcome: self
                    .expect(op)
                    .verify(run.exit.code, &run.stdout)
                    .map_err(|e| format!("{e} [stderr: {}]", proc::stderr_excerpt(&stderr))),
                entries: self.entries(op),
                rss_kib: run.exit.maxrss_kib,
            },
            Err(e) => Done {
                ms: 0.0,
                outcome: Err(format!("spawn: {e}")),
                entries: 0,
                rss_kib: 0,
            },
        }
    }

    /// Times `Workload::setup_reps` runs of `setup`, recording any failed
    /// check.
    fn setup(&self, m: &mut Measured, mut setup: impl FnMut() -> Vec<Done>) {
        for _ in 0..self.ctx.workload.setup_reps() {
            let t0 = Instant::now();
            let done = setup();
            m.setup_s.push(t0.elapsed().as_secs_f64());
            for d in done {
                if let Err(e) = d.outcome {
                    m.setup_failures.push(e);
                }
            }
        }
    }

    /// Set-up for `cli_warm`: fill the cache from the unedited library.
    pub fn fill_cache(&self) -> Vec<Done> {
        let _ = std::fs::remove_dir_all(&self.cache_dir);
        let prelude = path_str(&self.corpus.prelude);
        let jobs = self.ctx.jobs.to_string();
        let cache = path_str(&self.cache_dir);
        let args = [
            "analyze",
            "--jobs",
            &jobs,
            "--cache-dir",
            cache,
            prelude,
            path_str(self.corpus.lib(Lib::Jdk)),
        ];
        vec![self.run_args(
            &args,
            Expect::Bytes(&self.reference.libs[&Lib::Jdk].listing),
        )]
    }

    /// Set-up for `index_s10`: export both libraries' indexes.
    pub fn export_indexes(&self) -> Vec<Done> {
        let prelude = path_str(&self.corpus.prelude);
        let jobs = self.ctx.jobs.to_string();
        self.spi
            .iter()
            .map(|(&l, out)| {
                let args = [
                    "cache",
                    "export-index",
                    "--jobs",
                    &jobs,
                    prelude,
                    path_str(self.corpus.lib(l)),
                    "--name",
                    l.name(),
                    "--out",
                    path_str(out),
                ];
                self.run_args(&args, Expect::Bytes(""))
            })
            .collect()
    }

    fn run_args(&self, args: &[&str], expect: Expect<'_>) -> Done {
        let stderr = self.ctx.stderr();
        match proc::run(&self.ctx.spo, args, &stderr) {
            Ok(run) => Done {
                ms: run.ms,
                outcome: expect
                    .verify(run.exit.code, &run.stdout)
                    .map_err(|e| format!("{} {}: {e}", args[0], args[1])),
                entries: 0,
                rss_kib: run.exit.maxrss_kib,
            },
            Err(e) => Done {
                ms: 0.0,
                outcome: Err(format!("spawn: {e}")),
                entries: 0,
                rss_kib: 0,
            },
        }
    }

    /// Writes the `cli_warm` variants: three times as many as the loop
    /// needs at set-up speed, so a faster program still has fresh edits.
    pub fn write_variants(&mut self, setup_s: f64, seed: u64) -> Result<(), String> {
        let base = std::fs::read_to_string(self.corpus.lib(Lib::Jdk)).map_err(|e| e.to_string())?;
        let plan = EditPlan::new(&base, seed);
        let want = (3.0 * self.ctx.seconds / setup_s.max(1e-3)).ceil() as usize + 8;
        let count = want.min(300).min(plan.max_variants());
        self.variants = plan
            .write_variants(&self.ctx.work.join("variants"), count)
            .map_err(|e| format!("write variants: {e}"))?;
        Ok(())
    }
}

/// The distinct ops of `cli_cold`, run once per set-up pass.
fn cold_pass(cli: &Cli) -> Vec<Done> {
    Lib::ALL
        .map(Op::Analyze)
        .into_iter()
        .chain(inputs::PAIRS.map(|(a, b)| Op::Diff(a, b)))
        .map(|op| cli.run(op))
        .collect()
}

pub fn run(ctx: &Ctx) -> Result<Measured, String> {
    match ctx.workload {
        Workload::ServeRpc => serve_rpc(ctx),
        w => {
            let mut cli = Cli::prepare(ctx)?;
            let mut m = Measured::default();
            let mut limit = None;
            match w {
                Workload::CliCold => cli.setup(&mut m, || cold_pass(&cli)),
                Workload::CliWarm => {
                    cli.setup(&mut m, || cli.fill_cache());
                    cli.write_variants(crate::stats::median(&m.setup_s), ctx.seed)?;
                    limit = Some(cli.variants.len() as u64);
                }
                Workload::IndexS10 => cli.setup(&mut m, || cli.export_indexes()),
                Workload::ServeRpc => unreachable!(),
            }
            let mut stream = OpStream::new(w, ctx.seed, 0, cli.reference.entry_counts());
            let timed = closed_loop(ctx.seconds, limit, &mut stream, |op| cli.run(op));
            m.absorb(timed);
            m.truncated |= limit.is_some_and(|l| m.round_s.len() as u64 >= l);
            Ok(m)
        }
    }
}

/// Expected reply of one rpc op, with the CLI references renamed to the
/// daemon's library names.
pub struct RpcExpect {
    pub reference: Reference,
    /// `rename_sides` applied once per pairing.
    pub diffs: BTreeMap<(Lib, Lib), String>,
}

impl RpcExpect {
    pub fn capture(ctx: &Ctx, corpus: &CorpusFiles) -> Result<RpcExpect, String> {
        let reference = Reference::capture(&ctx.spo, corpus, &Lib::ALL, true, &ctx.stderr())?;
        let diffs = reference
            .diffs
            .iter()
            .map(|(&(a, b), d)| {
                (
                    (a, b),
                    check::rename_sides(d.report.as_deref().unwrap_or(""), a, b),
                )
            })
            .collect();
        Ok(RpcExpect { reference, diffs })
    }

    pub fn request(&self, client: &mut Client, op: Op) -> String {
        match op {
            Op::RpcQuery(l, i) => {
                let sig = &self.reference.libs[&l].sections[i].0;
                client.request("query", &rpc::query_params(l.name(), Some(sig)))
            }
            Op::RpcListing(l) => client.request("query", &rpc::query_params(l.name(), None)),
            Op::RpcDiff(a, b) => client.request("diff", &rpc::diff_params(a.name(), b.name())),
            other => unreachable!("{other:?} is not an rpc op"),
        }
    }

    /// Checks a reply's status, exit code, report bytes and — for a diff
    /// — its headline against the catalog.
    pub fn verify(&self, op: Op, reply: &rpc::Reply) -> Result<(), String> {
        if reply.status != "ok" {
            return Err(format!(
                "status {}: {}",
                reply.status,
                reply.error.as_deref().unwrap_or("")
            ));
        }
        let report = reply.report.as_deref().ok_or("reply has no report")?;
        let exit = reply.exit_code.ok_or("reply has no exit_code")? as i32;
        match op {
            Op::RpcDiff(a, b) => {
                let want = &self.reference.diffs[&(a, b)];
                check::check_diff(exit, report, want)?;
                check::same_bytes(report.as_bytes(), self.diffs[&(a, b)].as_bytes())
            }
            Op::RpcQuery(l, i) => {
                check::check_exit(exit, 0)?;
                check::same_bytes(
                    report.as_bytes(),
                    self.reference.libs[&l].sections[i].1.as_bytes(),
                )
            }
            Op::RpcListing(l) => {
                check::check_exit(exit, 0)?;
                check::same_bytes(
                    report.as_bytes(),
                    self.reference.libs[&l].listing.as_bytes(),
                )
            }
            other => unreachable!("{other:?} is not an rpc op"),
        }
    }

    pub fn entries(&self, op: Op) -> u64 {
        let ep = |l: Lib| self.reference.libs[&l].entry_points;
        match op {
            Op::RpcQuery(..) => 1,
            Op::RpcListing(l) => ep(l),
            Op::RpcDiff(a, b) => ep(a) + ep(b),
            _ => 0,
        }
    }
}

/// Daemon set-up: start it, load the three libraries, and warm their
/// analyses and pairwise diffs. Returns the daemon and any failed reply.
pub fn start_daemon(ctx: &Ctx, corpus: &CorpusFiles) -> Result<(Daemon, Vec<String>), String> {
    let daemon = Daemon::start(
        &ctx.spo,
        &ctx.work.join("spo.sock"),
        ctx.jobs,
        &ctx.work.join("daemon.log"),
    )?;
    let mut c = Client::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?;
    let prelude = path_str(&corpus.prelude);
    let mut requests = Vec::new();
    for l in Lib::ALL {
        requests.push(c.request(
            "load",
            &rpc::load_params(l.name(), &[prelude, path_str(corpus.lib(l))]),
        ));
    }
    for l in Lib::ALL {
        requests.push(c.request("analyze", &rpc::query_params(l.name(), None)));
    }
    for (a, b) in inputs::PAIRS {
        requests.push(c.request("diff", &rpc::diff_params(a.name(), b.name())));
    }
    let mut failures = Vec::new();
    for r in requests {
        match c.call(&r) {
            Ok(reply) if reply.status == "ok" => {}
            Ok(reply) => failures.push(format!("set-up {r}: status {}", reply.status)),
            Err(e) => failures.push(format!("set-up {r}: {e}")),
        }
    }
    Ok((daemon, failures))
}

fn serve_rpc(ctx: &Ctx) -> Result<Measured, String> {
    let corpus = inputs::write_corpus(&ctx.work.join("corpus"), 1.0, &Lib::ALL)
        .map_err(|e| format!("write corpus: {e}"))?;
    let expect = RpcExpect::capture(ctx, &corpus)?;
    let mut m = Measured::default();
    let mut daemon = None;
    let reps = ctx.workload.setup_reps();
    for rep in 0..reps {
        let t0 = Instant::now();
        let (d, failures) = start_daemon(ctx, &corpus)?;
        m.setup_s.push(t0.elapsed().as_secs_f64());
        m.setup_failures.extend(failures);
        if rep + 1 < reps {
            d.shutdown()?;
        } else {
            daemon = Some(d);
        }
    }
    let daemon = daemon.expect("the last set-up keeps its daemon");
    let counts = expect.reference.entry_counts();
    let clients: Vec<Measured> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|client| {
                let (expect, counts, socket) = (&expect, counts.clone(), &daemon.socket);
                s.spawn(move || -> Result<Measured, String> {
                    let mut c = Client::connect(socket).map_err(|e| format!("connect: {e}"))?;
                    let mut stream =
                        OpStream::new(Workload::ServeRpc, ctx.seed, client as u64, counts);
                    Ok(closed_loop(ctx.seconds, None, &mut stream, |op| {
                        let req = expect.request(&mut c, op);
                        let t0 = Instant::now();
                        let reply = c.exchange(&req);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        Done {
                            ms,
                            outcome: reply
                                .and_then(rpc::parse_reply)
                                .and_then(|r| expect.verify(op, &r)),
                            entries: expect.entries(op),
                            rss_kib: 0,
                        }
                    }))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect::<Result<_, _>>()
    })?;
    for c in clients {
        m.absorb(c);
    }
    m.peak_rss_kib = daemon.peak_rss_kib();
    daemon.shutdown()?;
    Ok(m)
}
