//! The traced run (`--trace 1`): the same seeded ops, executed in-process
//! by calling the public functions each `spo` command handler calls, in
//! the handler's order, with a span around every call. Each op also runs
//! once in-process untraced (for the tracing overhead) and once through
//! the real binary or socket (for the time no layer accounts for). Calls
//! a handler makes inside a library function (the engine's own hierarchy,
//! call graph and cache traffic) are timed by probes: the same public
//! functions called on the same inputs outside the op's span. Counters
//! the program keeps itself come from its `Recorder`.

use crate::check::{path_str, Tally};
use crate::inputs::{self, Op, OpStream, Workload};
use crate::proc;
use crate::rpc::Client;
use crate::stats;
use crate::trace::{self, Spans};
use crate::workloads::{self, Cli, Ctx, RpcExpect};
use spo_cache::{CacheKeyer, ContentTable, PolicyCache};
use spo_core::{AnalysisOptions, LibraryPolicies};
use spo_corpus::Lib;
use spo_engine::AnalysisEngine;
use spo_jir::Program;
use spo_obs::Recorder;
use spo_serve::{Method, Registry};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Optional spans: the same code path runs traced and untraced.
struct Tr<'a>(Option<&'a mut Spans>);

impl Tr<'_> {
    fn time<R>(&mut self, name: &str, f: impl FnOnce(&mut Tr<'_>) -> R) -> R {
        match &mut self.0 {
            Some(s) => s.time(name, |s| f(&mut Tr(Some(s)))),
            None => f(self),
        }
    }
}

/// One metric of the traced run.
pub struct Layer {
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
    pub stat: &'static str,
}

/// What the traced run measured.
pub struct TracedRun {
    pub spans: Spans,
    pub tally: Tally,
    pub ops: usize,
    pub layers: BTreeMap<String, Layer>,
    pub self_ms_per_op: BTreeMap<String, f64>,
    pub setup_self_ms: BTreeMap<String, f64>,
}

/// Everything the traced run accumulates besides spans.
struct Acc {
    spans: Spans,
    rec: Recorder,
    tally: Tally,
    /// Library loads (prelude + library) parsed by traced code.
    loads: usize,
    traced_ms: Vec<f64>,
    untraced_ms: Vec<f64>,
    unaccounted_ms: Vec<f64>,
    spawn_ms: Vec<f64>,
    transport_us: Vec<f64>,
    report_bytes: Vec<f64>,
    index_bytes: Vec<f64>,
    reachable: Vec<f64>,
    /// Op ids of set-up work, whose spans are kept apart from the ops'.
    setup_ops: std::collections::BTreeSet<u64>,
}

impl Acc {
    /// Probes the resolve layer on one program: the hierarchy and call
    /// graph the engine and `spo check` build, as top-level spans.
    fn probe_resolve(&mut self, program: &Program) {
        let h = self.spans.time("resolve.hierarchy", |_| {
            spo_resolve::Hierarchy::new(program)
        });
        let cg = self.spans.time("resolve.callgraph", |_| {
            spo_resolve::CallGraph::from_entry_points(&h)
        });
        self.reachable.push(cg.reachable_count() as f64);
    }

    /// Times `spo --help`: what any invocation pays before its handler.
    fn probe_spawn(&mut self, spo: &Path, stderr: &Path) {
        if let Ok(run) = proc::run(spo, &["--help"], stderr) {
            self.spawn_ms.push(run.ms);
        }
    }

    /// Records an op's traced root span: its duration, and the process
    /// time its layers leave unexplained when `sub_ms` is given.
    fn finish_op(&mut self, root: usize, sub_ms: Option<f64>) {
        let all = self.spans.all();
        let layer_ns: u64 = all
            .iter()
            .filter(|s| s.parent == Some(root))
            .map(|s| s.dur_ns())
            .sum();
        self.traced_ms.push(self.spans.dur(root) as f64 / 1e6);
        if let Some(sub) = sub_ms {
            self.unaccounted_ms.push(sub - layer_ns as f64 / 1e6);
        }
    }
}

fn read(tr: &mut Tr<'_>, path: &Path) -> Result<String, String> {
    tr.time("cli.read", |_| std::fs::read_to_string(path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `load_program`: read and parse each file into one program.
fn load(tr: &mut Tr<'_>, rec: &Recorder, paths: &[&Path]) -> Result<Program, String> {
    let mut program = Program::new();
    for p in paths {
        let src = read(tr, p)?;
        let recovery = tr.time("jir.parse", |_| {
            spo_jir::parse_into_recovering_traced(&src, &mut program, rec)
        });
        if !recovery.diagnostics.is_empty() {
            return Err(format!("{}: parse recovered", p.display()));
        }
    }
    Ok(program)
}

fn engine(jobs: usize, rec: &Recorder) -> AnalysisEngine {
    AnalysisEngine::new(jobs).with_recorder(rec.clone())
}

fn intra(options: AnalysisOptions) -> AnalysisOptions {
    AnalysisOptions {
        interprocedural: false,
        ..options
    }
}

/// `cmd_analyze` (optionally with `--cache-dir`).
fn analyze(
    tr: &mut Tr<'_>,
    rec: &Recorder,
    jobs: usize,
    paths: &[&Path],
    cache_dir: Option<&Path>,
) -> Result<Output, String> {
    let program = load(tr, rec, paths)?;
    let mut engine = engine(jobs, rec);
    if let Some(dir) = cache_dir {
        let cache = tr
            .time("cache.open", |_| PolicyCache::open(dir))
            .map_err(|e| e.to_string())?;
        engine = engine.with_cache(std::sync::Arc::new(cache));
    }
    let (lib, _) = tr.time("engine.analyze_library", |_| {
        engine.analyze_library(&program, "input", AnalysisOptions::default())
    });
    let report = tr.time("core.render_analysis", |_| spo_core::render_analysis(&lib));
    Ok(Output {
        exit: if lib.degraded.is_empty() { 0 } else { 2 },
        report,
        programs: vec![program],
        lib: Some(lib),
        index_bytes: None,
    })
}

/// The engine's `compare_all` for two libraries followed by the CLI's
/// rendering, as `cmd_diff` runs it through `compare_implementations`.
fn diff(
    tr: &mut Tr<'_>,
    rec: &Recorder,
    jobs: usize,
    left: &[&Path],
    right: &[&Path],
) -> Result<(Vec<Program>, i32, String), String> {
    let lp = load(tr, rec, left)?;
    let rp = load(tr, rec, right)?;
    let engine = engine(jobs, rec);
    let options = AnalysisOptions::default();
    let mut libs: Vec<LibraryPolicies> = Vec::new();
    for (name, program) in [("left", &lp), ("right", &rp)] {
        for opts in [options, intra(options)] {
            let (lib, _) = tr.time("engine.analyze_library", |_| {
                engine.analyze_library(program, name, opts)
            });
            libs.push(lib);
        }
    }
    let (report, findings) = diff_composition(tr, &libs[0], &libs[1], &libs[2], &libs[3]);
    let degraded = libs.iter().any(|l| !l.degraded.is_empty());
    let exit = if degraded { 2 } else { i32::from(findings) };
    Ok((vec![lp, rp], exit, report))
}

/// Full diff, intra-ablation keys, grouping, rendering: the composition
/// of the engine's `compare_all` and of `spo_index::diff_rendered`.
fn diff_composition(
    tr: &mut Tr<'_>,
    left_full: &LibraryPolicies,
    left_intra: &LibraryPolicies,
    right_full: &LibraryPolicies,
    right_intra: &LibraryPolicies,
) -> (String, bool) {
    let d = tr.time("core.diff_libraries", |_| {
        spo_core::diff_libraries(left_full, right_full)
    });
    let di = tr.time("core.diff_libraries", |_| {
        spo_core::diff_libraries(left_intra, right_intra)
    });
    let keys = tr.time("core.root_keys", |_| spo_core::root_keys(&di));
    let groups = tr.time("core.group_differences", |_| {
        spo_core::group_differences(&d, &keys)
    });
    let report = tr.time("core.render_reports", |_| {
        spo_core::render_reports(&d, &groups)
    });
    (report, !groups.is_empty())
}

fn read_index(tr: &mut Tr<'_>, path: &Path) -> Result<Vec<u8>, String> {
    tr.time("index.read", |_| spo_index::read_index_file(path))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `cmd_index_query` and `cmd_index_diff`.
fn index_op(tr: &mut Tr<'_>, cli: &Cli, op: Op) -> Result<(i32, String, usize), String> {
    match op {
        Op::IndexQuery(l, _) | Op::IndexListing(l) => {
            let bytes = read_index(tr, &cli.spi[&l])?;
            let index = tr.time("index.parse", |_| spo_index::PolicyIndex::parse(&bytes))?;
            let report = match op {
                Op::IndexQuery(l, i) => {
                    let sig = &cli.reference.libs[&l].sections[i].0;
                    tr.time("index.query", |_| index.query(sig))?
                        .ok_or_else(|| format!("no entry point {sig}"))?
                }
                _ => tr.time("index.render_full", |_| index.render_full())?,
            };
            Ok((0, report, bytes.len()))
        }
        Op::IndexDiff => {
            let lb = read_index(tr, &cli.spi[&Lib::Jdk])?;
            let rb = read_index(tr, &cli.spi[&Lib::Harmony])?;
            let left = tr.time("index.parse", |_| spo_index::PolicyIndex::parse(&lb))?;
            let right = tr.time("index.parse", |_| spo_index::PolicyIndex::parse(&rb))?;
            if left.options_token() != right.options_token() {
                return Err("index options mismatch".to_owned());
            }
            let (lf, li) = tr.time("index.to_libraries", |_| left.to_libraries())?;
            let (rf, ri) = tr.time("index.to_libraries", |_| right.to_libraries())?;
            let (report, findings) =
                tr.time("index.diff", |tr| diff_composition(tr, &lf, &li, &rf, &ri));
            Ok((i32::from(findings), report, lb.len() + rb.len()))
        }
        other => unreachable!("{other:?} is not an index op"),
    }
}

/// `cmd_cache_export_index` for one library, in-process.
fn export_index(acc: &mut Acc, cli: &Cli, lib: Lib, jobs: usize) -> Result<(), String> {
    let rec = acc.rec.clone();
    let paths = [cli.corpus.prelude.as_path(), cli.corpus.lib(lib)];
    let op = acc.spans.next_op();
    acc.setup_ops.insert(op);
    let program = acc
        .spans
        .time("setup.export_index", |s| -> Result<Program, String> {
            let mut tr = Tr(Some(s));
            let program = load(&mut tr, &rec, &paths)?;
            let engine = engine(jobs, &rec);
            let options = AnalysisOptions::default();
            let (full, _) = tr.time("engine.analyze_library", |_| {
                engine.analyze_library(&program, lib.name(), options)
            });
            let (intra_lib, _) = tr.time("engine.analyze_library", |_| {
                engine.analyze_library(&program, lib.name(), intra(options))
            });
            let fingerprints = tr.time("cache.keyer", |_| {
                let roots = spo_resolve::entry_points(&program);
                let keyer = CacheKeyer::new(&program, &roots, &options);
                roots
                    .iter()
                    .filter_map(|&r| keyer.key(r).map(|k| (program.method_signature(r), k)))
                    .collect::<BTreeMap<String, u64>>()
            });
            let bytes = tr.time("index.build", |_| {
                spo_index::IndexBuilder::new(lib.name(), &options, &full, &intra_lib)
                    .fingerprints(&fingerprints)
                    .build()
            })?;
            tr.time("index.write", |_| std::fs::write(&cli.spi[&lib], &bytes))
                .map_err(|e| e.to_string())?;
            Ok(program)
        })?;
    acc.loads += 1;
    acc.probe_resolve(&program);
    Ok(())
}

/// The `cli_warm` cache probes around one traced op: content table and
/// lookup pass before it, key + store and flush of the stale roots after
/// it, on a second handle of the same cache (its flush rewrites the pack
/// with the bytes the op's own write-back produced).
struct CacheProbe {
    cache: PolicyCache,
    missed: Vec<spo_jir::MethodId>,
}

fn probe_cache_before(acc: &mut Acc, dir: &Path, program: &Program) -> Result<CacheProbe, String> {
    let cache = PolicyCache::open(dir).map_err(|e| e.to_string())?;
    let options = AnalysisOptions::default();
    let table = acc.spans.time("cache.content_table", |_| {
        ContentTable::new(program, &options)
    });
    let roots = spo_resolve::entry_points(program);
    let missed = acc.spans.time("cache.lookup", |_| {
        roots
            .iter()
            .copied()
            .filter(|&r| {
                let rk = PolicyCache::root_key("input", spo_jir::method_identity_hash(program, r));
                cache.lookup(rk, &table).is_none()
            })
            .collect()
    });
    Ok(CacheProbe { cache, missed })
}

fn probe_cache_after(acc: &mut Acc, probe: CacheProbe, program: &Program, lib: &LibraryPolicies) {
    let options = AnalysisOptions::default();
    acc.spans.time("cache.store", |_| {
        let keyer = CacheKeyer::new(program, &probe.missed, &options);
        for &root in &probe.missed {
            let sig = program.method_signature(root);
            if let (Some(key), Some(cone), Some(entry)) =
                (keyer.key(root), keyer.cone(root), lib.entries.get(&sig))
            {
                let rk =
                    PolicyCache::root_key("input", spo_jir::method_identity_hash(program, root));
                probe.cache.store(rk, key, cone, entry);
            }
        }
    });
    acc.spans.time("cache.flush", |_| probe.cache.flush());
}

fn paths<'p>(cli: &'p Cli, lib: Lib) -> [&'p Path; 2] {
    [cli.corpus.prelude.as_path(), cli.corpus.lib(lib)]
}

/// One CLI op, three ways: untraced in-process, traced in-process (with
/// probes), and through the binary.
fn cli_op(acc: &mut Acc, cli: &Cli, op: Op) -> Result<(), String> {
    let ctx = cli.ctx;
    let jobs = ctx.jobs;
    let expect = cli.expect(op);
    let what = format!("{op:?}");
    let pack = cli.cache_dir.join(spo_cache::PACK_FILE);
    let saved = match op {
        Op::WarmAnalyze(_) => Some(std::fs::read(&pack).map_err(|e| format!("cache pack: {e}"))?),
        _ => None,
    };
    let restore = || -> Result<(), String> {
        match &saved {
            Some(bytes) => std::fs::write(&pack, bytes).map_err(|e| format!("cache pack: {e}")),
            None => Ok(()),
        }
    };
    let off = Recorder::disabled();
    // In-process untraced and traced, alternating which runs first so
    // neither always meets the colder caches.
    let untraced_first = acc.traced_ms.len().is_multiple_of(2);
    if untraced_first {
        untraced_op(acc, cli, op)?;
        restore()?;
    }
    acc.spans.next_op();
    let probe = match op {
        Op::WarmAnalyze(i) => {
            let program = load(
                &mut Tr(None),
                &off,
                &[&cli.corpus.prelude, &cli.variants[i]],
            )?;
            Some((probe_cache_before(acc, &cli.cache_dir, &program)?, program))
        }
        _ => None,
    };
    let rec = acc.rec.clone();
    let name = format!("op.{}", op.kind());
    let out = acc.spans.time(&name, |s| {
        run_in_process(&mut Tr(Some(s)), &rec, cli, op, jobs)
    })?;
    let root = acc.spans.last(&name).expect("op span");
    acc.tally.record(
        &format!("{what} traced"),
        expect.verify(out.exit, out.report.as_bytes()),
    );
    acc.report_bytes.push(out.report.len() as f64);
    acc.loads += out.programs.len();
    if let Some(b) = out.index_bytes {
        acc.index_bytes.push(b as f64);
    }
    if let (Some((probe, program)), Some(lib)) = (probe, &out.lib) {
        probe_cache_after(acc, probe, &program, lib);
    }
    for p in &out.programs {
        acc.probe_resolve(p);
    }
    restore()?;
    if !untraced_first {
        untraced_op(acc, cli, op)?;
        restore()?;
    }

    // Through the binary.
    let done = cli.run(op);
    acc.tally.record(&format!("{what} spo"), done.outcome);
    acc.finish_op(root, Some(done.ms));
    acc.probe_spawn(&ctx.spo, &ctx.stderr());
    Ok(())
}

/// Runs `op` in-process with no spans and a disabled recorder.
fn untraced_op(acc: &mut Acc, cli: &Cli, op: Op) -> Result<(), String> {
    let t0 = Instant::now();
    let out = run_in_process(&mut Tr(None), &Recorder::disabled(), cli, op, cli.ctx.jobs)?;
    acc.untraced_ms.push(t0.elapsed().as_secs_f64() * 1e3);
    let verdict = cli.expect(op).verify(out.exit, out.report.as_bytes());
    acc.tally.record(&format!("{op:?} in-process"), verdict);
    Ok(())
}

struct Output {
    exit: i32,
    report: String,
    programs: Vec<Program>,
    lib: Option<LibraryPolicies>,
    index_bytes: Option<usize>,
}

fn run_in_process(
    tr: &mut Tr<'_>,
    rec: &Recorder,
    cli: &Cli,
    op: Op,
    jobs: usize,
) -> Result<Output, String> {
    let plain = |exit, report, programs| Output {
        exit,
        report,
        programs,
        lib: None,
        index_bytes: None,
    };
    match op {
        Op::Analyze(l) => analyze(tr, rec, jobs, &paths(cli, l), None),
        Op::Diff(a, b) => {
            let (ps, exit, report) = diff(tr, rec, jobs, &paths(cli, a), &paths(cli, b))?;
            Ok(plain(exit, report, ps))
        }
        Op::WarmAnalyze(i) => {
            let files = [cli.corpus.prelude.as_path(), cli.variants[i].as_path()];
            analyze(tr, rec, jobs, &files, Some(&cli.cache_dir))
        }
        Op::IndexQuery(..) | Op::IndexListing(_) | Op::IndexDiff => {
            let (exit, report, bytes) = index_op(tr, cli, op)?;
            Ok(Output {
                index_bytes: Some(bytes),
                ..plain(exit, report, Vec::new())
            })
        }
        other => unreachable!("{other:?} is not a CLI op"),
    }
}

/// The daemon's handling of one request: parse the line, then the
/// registry calls and rendering `dispatch` makes for it.
fn serve_handle(tr: &mut Tr<'_>, registry: &Registry, line: &str) -> Result<(i32, String), String> {
    let req = tr
        .time("serve.parse_request", |_| {
            spo_serve::proto::parse_request(line)
        })
        .map_err(|(_, e)| e.message)?;
    let guard = spo_guard::GuardConfig::default();
    tr.time("serve.handle", |tr| match req.method {
        Method::Query {
            name,
            entry,
            options,
        } => {
            let prog = registry.get(&name).map_err(|e| e.message)?;
            let (a, _) = tr.time("serve.registry_analysis", |_| {
                registry.analysis(&prog, options, &guard)
            });
            let report = match &entry {
                None => a.report.clone(),
                Some(sig) => {
                    let ep = a.lib.entries.get(sig).ok_or("no such entry point")?;
                    tr.time("core.render_entry", |_| spo_core::render_entry(sig, ep))
                }
            };
            Ok((i32::from(a.exit_code), report))
        }
        Method::Diff {
            left,
            right,
            options,
        } => {
            let l = registry.get(&left).map_err(|e| e.message)?;
            let r = registry.get(&right).map_err(|e| e.message)?;
            let (d, _) = tr.time("serve.registry_diff", |_| {
                registry.diff(&l, &r, options, &guard)
            });
            Ok((i32::from(d.exit_code), d.report))
        }
        other => Err(format!("unexpected request {}", other.label())),
    })
}

fn serve_ops(acc: &mut Acc, ctx: &Ctx, seconds: f64) -> Result<(), String> {
    let corpus = inputs::write_corpus(&ctx.work.join("corpus"), 1.0, &Lib::ALL)
        .map_err(|e| format!("write corpus: {e}"))?;
    let expect = RpcExpect::capture(ctx, &corpus)?;

    // Set-up in-process: the registry the daemon holds.
    let registry = Registry::new(ctx.jobs, None, acc.rec.clone());
    let guard = spo_guard::GuardConfig::default();
    let op = acc.spans.next_op();
    acc.setup_ops.insert(op);
    for l in Lib::ALL {
        let files = vec![
            path_str(&corpus.prelude).to_owned(),
            path_str(corpus.lib(l)).to_owned(),
        ];
        acc.spans
            .time("serve.registry_load", |_| registry.load(l.name(), &files))
            .map_err(|e| e.message)?;
        acc.loads += 1;
        let entry = registry.get(l.name()).map_err(|e| e.message)?;
        acc.spans.time("serve.registry_analysis", |_| {
            registry.analysis(&entry, Default::default(), &guard)
        });
        acc.probe_resolve(&entry.program);
    }
    for (a, b) in inputs::PAIRS {
        let (l, r) = (registry.get(a.name()), registry.get(b.name()));
        let (l, r) = (l.map_err(|e| e.message)?, r.map_err(|e| e.message)?);
        acc.spans.time("serve.registry_diff", |_| {
            registry.diff(&l, &r, Default::default(), &guard)
        });
    }
    // And the real daemon, for the socket round trip.
    let (daemon, failures) = workloads::start_daemon(ctx, &corpus)?;
    if let Some(f) = failures.first() {
        return Err(f.clone());
    }
    let mut client = Client::connect(&daemon.socket).map_err(|e| format!("connect: {e}"))?;

    let mut stream = OpStream::new(
        Workload::ServeRpc,
        ctx.seed,
        0,
        expect.reference.entry_counts(),
    );
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < seconds {
        for op in stream.round() {
            let line = expect.request(&mut client, op);
            let what = format!("{op:?}");

            let mut handler_ms = 0.0;
            let untraced_first = acc.traced_ms.len().is_multiple_of(2);
            for traced in [!untraced_first, untraced_first] {
                if traced {
                    acc.spans.next_op();
                    let name = format!("op.{}", op.kind());
                    let out = acc
                        .spans
                        .time(&name, |s| serve_handle(&mut Tr(Some(s)), &registry, &line));
                    let root = acc.spans.last(&name).expect("op span");
                    if let Ok((_, r)) = &out {
                        acc.report_bytes.push(r.len() as f64);
                    }
                    let verdict = out.and_then(|(e, r)| expect.verify(op, &handled(e, r)));
                    acc.tally.record(&format!("{what} traced"), verdict);
                    acc.finish_op(root, None);
                } else {
                    let t = Instant::now();
                    let out = serve_handle(&mut Tr(None), &registry, &line);
                    handler_ms = t.elapsed().as_secs_f64() * 1e3;
                    acc.untraced_ms.push(handler_ms);
                    let verdict = out.and_then(|(e, r)| expect.verify(op, &handled(e, r)));
                    acc.tally.record(&format!("{what} in-process"), verdict);
                }
            }

            let t = Instant::now();
            let rt = client.exchange(&line);
            let rt_ms = t.elapsed().as_secs_f64() * 1e3;
            acc.transport_us.push((rt_ms - handler_ms) * 1e3);
            acc.tally.record(
                &format!("{what} rpc"),
                rt.and_then(crate::rpc::parse_reply)
                    .and_then(|r| expect.verify(op, &r)),
            );
        }
        acc.probe_spawn(&ctx.spo, &ctx.stderr());
    }
    drop(client);
    daemon.shutdown()
}

/// An in-process handler result in the shape the rpc checks read.
fn handled(exit: i32, report: String) -> crate::rpc::Reply {
    crate::rpc::Reply {
        status: "ok".to_owned(),
        report: Some(report),
        exit_code: Some(exit as u64),
        error: None,
    }
}

pub fn run(ctx: &Ctx) -> Result<TracedRun, String> {
    let mut acc = Acc {
        spans: Spans::new(),
        rec: Recorder::new(),
        tally: Tally::default(),
        loads: 0,
        traced_ms: Vec::new(),
        untraced_ms: Vec::new(),
        unaccounted_ms: Vec::new(),
        spawn_ms: Vec::new(),
        transport_us: Vec::new(),
        report_bytes: Vec::new(),
        index_bytes: Vec::new(),
        reachable: Vec::new(),
        setup_ops: Default::default(),
    };
    match ctx.workload {
        Workload::ServeRpc => serve_ops(&mut acc, ctx, ctx.seconds)?,
        w => {
            let mut cli = Cli::prepare(ctx)?;
            match w {
                Workload::CliWarm => {
                    let fill = cli.fill_cache();
                    if let Some(Err(e)) = fill.into_iter().map(|d| d.outcome).find(Result::is_err) {
                        return Err(e);
                    }
                    // A traced op costs several untraced ones, so the
                    // variants sized for 1 s ops outlast the window.
                    cli.write_variants(1.0, ctx.seed)?;
                }
                Workload::IndexS10 => {
                    for l in [Lib::Jdk, Lib::Harmony] {
                        export_index(&mut acc, &cli, l, ctx.jobs)?;
                    }
                }
                _ => {}
            }
            let mut stream = OpStream::new(w, ctx.seed, 0, cli.reference.entry_counts());
            let limit = (w == Workload::CliWarm).then_some(cli.variants.len() as u64);
            let t0 = Instant::now();
            let mut rounds = 0;
            while t0.elapsed().as_secs_f64() < ctx.seconds && limit.is_none_or(|l| rounds < l) {
                for op in stream.round() {
                    cli_op(&mut acc, &cli, op)?;
                }
                rounds += 1;
            }
        }
    }
    Ok(summarize(acc, ctx))
}

fn per_op(total_ns: u64, ops: usize) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total_ns as f64 / 1e6 / ops as f64
    }
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn summarize(acc: Acc, ctx: &Ctx) -> TracedRun {
    let snap = acc.rec.snapshot();
    let dur = |k: &str| snap.durations.get(k).cloned().unwrap_or_default();
    let work = |k: &str| snap.work.get(k).copied().unwrap_or(0) as f64;
    let spans = &acc.spans;
    let mut layers: BTreeMap<String, Layer> = BTreeMap::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str, samples: usize, stat: &'static str| {
            layers.insert(
                name.to_owned(),
                Layer {
                    value,
                    unit,
                    samples,
                    stat,
                },
            );
        };
    // Per-op mean of a span's total time, over the ops that called it.
    let span_ms = |name: &str| {
        let (ns, ops) = spans.total(name);
        (per_op(ns, ops), ops)
    };
    // Per-call mean.
    let call_mean = |name: &str, scale: f64| {
        let calls: Vec<f64> = spans
            .all()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.dur_ns() as f64 / scale)
            .collect();
        (mean(&calls), calls.len())
    };

    let parse = dur("jir.parse");
    put(
        "jir.parse_ms",
        parse.sum as f64 / 1e6 / acc.loads.max(1) as f64,
        "ms",
        acc.loads,
        "mean per library load",
    );
    let parse_bytes = snap.counters.get("jir.parse.bytes").copied().unwrap_or(0) as f64;
    put(
        "jir.parse_mb_per_s",
        parse_bytes / 1e6 / (parse.sum as f64 / 1e9).max(1e-9),
        "MB/s",
        parse.count as usize,
        "bytes / parse time",
    );

    let (v, n) = call_mean("resolve.hierarchy", 1e6);
    put("resolve.hierarchy_ms", v, "ms", n, "mean per probe");
    let (v, n) = call_mean("resolve.callgraph", 1e6);
    put("resolve.callgraph_ms", v, "ms", n, "mean per probe");
    put(
        "resolve.reachable",
        mean(&acc.reachable),
        "count",
        acc.reachable.len(),
        "mean per probe",
    );

    let analyze = dur("engine.analyze");
    let calls = analyze.count.max(1) as f64;
    let analyze_ms = analyze.sum as f64 / 1e6 / calls;
    let fixpoint_ms = (dur("ispa.root.may").sum + dur("ispa.root.must").sum) as f64 / 1e6 / calls;
    let workers = (work("engine.workers") / calls).max(1.0);
    let n = analyze.count as usize;
    put(
        "engine.analyze_ms",
        analyze_ms,
        "ms",
        n,
        "mean per analyze_library",
    );
    put(
        "engine.fixpoint_cpu_ms",
        fixpoint_ms,
        "ms",
        n,
        "mean per analyze_library",
    );
    put(
        "engine.self_ms",
        analyze_ms - fixpoint_ms / workers,
        "ms",
        n,
        "analyze wall - fixpoint cpu / workers",
    );
    put(
        "engine.parallel_efficiency",
        fixpoint_ms / (analyze_ms * workers).max(1e-9),
        "ratio",
        n,
        "fixpoint cpu / (wall x workers)",
    );
    for (metric, counter) in [
        ("engine.frames", "ispa.frames_analyzed"),
        ("engine.steals", "engine.steals"),
        ("engine.batches_formed", "batch.formed"),
        ("engine.writeback_flushes", "writeback.flushes"),
    ] {
        put(
            metric,
            work(counter) / calls,
            "count",
            n,
            "mean per analyze_library",
        );
    }
    let (hits, misses) = (work("ispa.memo.hits"), work("ispa.memo.misses"));
    put(
        "engine.memo_hit_ratio",
        hits / (hits + misses).max(1.0),
        "ratio",
        (hits + misses) as usize,
        "memo hits / lookups",
    );
    let mut lock_wait = spo_obs::HistSnapshot::default();
    for (k, h) in &snap.durations {
        if k.ends_with(".lock_wait") {
            lock_wait.merge(h);
        }
    }
    put(
        "engine.lock_wait_p99_us",
        lock_wait.quantile(0.99) as f64 / 1e3,
        "us",
        lock_wait.count as usize,
        "p99 of contended acquisitions (log2 bucket bound)",
    );

    put(
        "core.report_bytes",
        mean(&acc.report_bytes),
        "bytes",
        acc.report_bytes.len(),
        "mean per traced op",
    );
    if spans.total("core.diff_libraries").1 > 0 {
        let (v, n) = span_ms("core.diff_libraries");
        put("core.diff_ms", v, "ms", n, "mean per op (full + intra)");
        let (v, n) = span_ms("core.group_differences");
        put("core.group_ms", v, "ms", n, "mean per op");
    }
    let (ra, na) = spans.total("core.render_analysis");
    let (rr, nr) = spans.total("core.render_reports");
    if na + nr > 0 {
        put(
            "core.render_ms",
            per_op(ra + rr, na + nr),
            "ms",
            na + nr,
            "mean per op",
        );
    }

    if ctx.workload == Workload::CliWarm {
        for (metric, span) in [
            ("cache.open_ms", "cache.open"),
            ("cache.content_table_ms", "cache.content_table"),
            ("cache.lookup_ms", "cache.lookup"),
            ("cache.store_ms", "cache.store"),
            ("cache.flush_ms", "cache.flush"),
        ] {
            let (v, n) = span_ms(span);
            put(metric, v, "ms", n, "mean per op");
        }
        let (h, m) = (work("cache.hits"), work("cache.misses"));
        put(
            "cache.hit_ratio",
            h / (h + m).max(1.0),
            "ratio",
            (h + m) as usize,
            "hits / lookups",
        );
        put(
            "cache.invalidated",
            work("cache.invalidated") / calls,
            "count",
            n,
            "mean per analyze_library",
        );
        put(
            "cache.bytes",
            work("cache.bytes") / calls,
            "bytes",
            n,
            "mean per analyze_library",
        );
    }
    if ctx.workload == Workload::IndexS10 {
        for (metric, span) in [
            ("index.read_ms", "index.read"),
            ("index.parse_ms", "index.parse"),
            ("index.render_full_ms", "index.render_full"),
            ("index.to_libraries_ms", "index.to_libraries"),
            ("index.diff_ms", "index.diff"),
        ] {
            let (v, n) = span_ms(span);
            put(metric, v, "ms", n, "mean per op");
        }
        let (v, n) = call_mean("index.query", 1e3);
        put("index.query_us", v, "us", n, "mean per call");
        put(
            "index.bytes",
            mean(&acc.index_bytes),
            "bytes",
            acc.index_bytes.len(),
            "mean read per op",
        );
    }
    if ctx.workload == Workload::ServeRpc {
        for (metric, span) in [
            ("serve.registry_load_ms", "serve.registry_load"),
            ("serve.registry_analysis_ms", "serve.registry_analysis"),
            ("serve.registry_diff_ms", "serve.registry_diff"),
        ] {
            let (v, n) = call_mean(span, 1e6);
            put(metric, v, "ms", n, "mean per call");
        }
        let (v, n) = call_mean("serve.parse_request", 1e3);
        put("serve.parse_request_us", v, "us", n, "mean per call");
        if !acc.transport_us.is_empty() {
            put(
                "serve.transport_us",
                stats::median(&acc.transport_us),
                "us",
                acc.transport_us.len(),
                "p50 of round trip - handler",
            );
        }
    }

    if !acc.spawn_ms.is_empty() {
        put(
            "cli.spawn_ms",
            stats::median(&acc.spawn_ms),
            "ms",
            acc.spawn_ms.len(),
            "p50",
        );
    }
    if !acc.unaccounted_ms.is_empty() {
        put(
            "cli.unaccounted_ms",
            stats::median(&acc.unaccounted_ms),
            "ms",
            acc.unaccounted_ms.len(),
            "p50 of spo op - traced layer sum",
        );
    }
    let (t, u) = (
        acc.traced_ms.iter().sum::<f64>(),
        acc.untraced_ms.iter().sum::<f64>(),
    );
    put(
        "trace.overhead_ratio",
        t / u.max(1e-9),
        "ratio",
        acc.traced_ms.len(),
        "traced / untraced in-process op time",
    );

    let ops = acc.traced_ms.len();
    let is_setup = |s: &trace::Span| acc.setup_ops.contains(&s.op);
    let self_ms_per_op = trace::self_times(spans.all(), |s| !is_setup(s))
        .into_iter()
        .map(|(layer, ns)| (layer, per_op(ns, ops)))
        .collect();
    let setup_self_ms = trace::self_times(spans.all(), is_setup)
        .into_iter()
        .map(|(layer, ns)| (layer, ns as f64 / 1e6))
        .collect();
    TracedRun {
        spans: acc.spans,
        tally: acc.tally,
        ops,
        layers,
        self_ms_per_op,
        setup_self_ms,
    }
}

pub fn spans_path(out: &Path, workload: &str, seed: u64) -> PathBuf {
    out.join(format!("{workload}-seed{seed}-spans.json"))
}
