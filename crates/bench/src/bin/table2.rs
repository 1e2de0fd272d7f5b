//! Regenerates **Table 2 — Analysis time** for the MAY and MUST passes
//! under the three memoization configurations: no summaries, per-entry
//! summaries, and global summaries — plus a worker-count sweep of the
//! global configuration, which the paper's serial analysis had no
//! counterpart for.
//!
//! The paper reports minutes on 2011 hardware for 600 KLoC subjects; the
//! reproduction target is the *shape* — per-entry memoization beats no
//! memoization, and global memoization beats both by a further large
//! factor (the paper's overall 15–65×).
//!
//! Besides the console tables, the binary writes `BENCH_table2.json`
//! (per-configuration may/must time and memo hit rates, and the sweep's
//! median and noise band per cell) into the current directory. Every
//! timed run keeps the recorder disabled so instrumentation can't perturb
//! the published timings.
//!
//! ```text
//! cargo run -p spo-bench --release --bin table2
//! SPO_SCALE=0.1 SPO_SWEEP_SCALES=1,3 SPO_SWEEP_JOBS=1,2 target/release/table2
//! ```
//!
//! `SPO_SWEEP_SCALES` and `SPO_SWEEP_JOBS` are comma-separated lists; an
//! entry that does not parse, an empty list, or a jobs list without the
//! serial baseline `1` is an error, not a silently shorter sweep.

use spo_bench::{corpus_from_env, scale_from_env, Table};
use spo_core::{AnalysisOptions, MemoScope};
use spo_corpus::Lib;
use spo_engine::{AnalysisEngine, EngineStats};
use std::process::ExitCode;

/// Paper values in minutes: rows (no-memo, per-entry, global) × (may, must)
/// per library.
const PAPER_MAY: [(Lib, [usize; 3]); 3] = [
    (Lib::Jdk, [300, 180, 10]),
    (Lib::Harmony, [190, 130, 13]),
    (Lib::Classpath, [340, 190, 20]),
];
const PAPER_MUST: [(Lib, [usize; 3]); 3] = [
    (Lib::Jdk, [560, 50, 10]),
    (Lib::Harmony, [290, 40, 12]),
    (Lib::Classpath, [650, 50, 10]),
];

/// The paper's three configurations, in its row order. Each runs on one
/// worker: the engine with one worker is the serial analyzer.
const CONFIGS: [(&str, MemoScope); 3] = [
    ("No summaries", MemoScope::None),
    ("Summaries (per entry point)", MemoScope::PerEntry),
    ("Summaries (global)", MemoScope::Global),
];

/// One measured configuration of one library.
struct Measurement {
    lib: Lib,
    stats: EngineStats,
}

impl Measurement {
    fn may_ms(&self) -> f64 {
        self.stats.analysis.may_nanos as f64 / 1e6
    }
    fn must_ms(&self) -> f64 {
        self.stats.analysis.must_nanos as f64 / 1e6
    }
    fn wall_ms(&self) -> f64 {
        self.stats.wall_nanos as f64 / 1e6
    }
    fn hit_rate(&self) -> f64 {
        let a = &self.stats.analysis;
        if a.memo_hits + a.memo_misses == 0 {
            0.0
        } else {
            a.memo_hits as f64 / (a.memo_hits + a.memo_misses) as f64
        }
    }
}

fn measure(corpus: &spo_corpus::Corpus, config: &str, scope: MemoScope) -> Vec<Measurement> {
    let engine = AnalysisEngine::new(1);
    Lib::ALL
        .iter()
        .map(|&lib| {
            let options = AnalysisOptions {
                memo: scope,
                ..Default::default()
            };
            let (_, stats) = engine.analyze_library(corpus.program(lib), lib.name(), options);
            let m = Measurement { lib, stats };
            eprintln!(
                "{config:<28} {lib:<10} may {:>9.1} ms  must {:>9.1} ms  wall {:>9.1} ms  \
                 ({} frames, {} memo hits)",
                m.may_ms(),
                m.must_ms(),
                m.wall_ms(),
                m.stats.analysis.frames_analyzed,
                m.stats.analysis.memo_hits,
            );
            m
        })
        .collect()
}

/// Timed trials per (scale, jobs) cell of the scale sweep.
const SWEEP_TRIALS: usize = 5;

/// One (scale, jobs) cell of the scale sweep: the median trial's stats
/// plus the spread of every trial's wall clock.
struct SweepRow {
    jobs: usize,
    /// Stats of the median trial by wall clock.
    stats: EngineStats,
    /// Fastest trial's wall clock, in milliseconds.
    min_ms: f64,
    /// Slowest trial's wall clock, in milliseconds.
    max_ms: f64,
}

impl SweepRow {
    /// Median trial's wall clock, in milliseconds.
    fn wall_ms(&self) -> f64 {
        self.stats.wall_nanos as f64 / 1e6
    }
    fn lock_wait_us(&self, q: f64) -> f64 {
        let w = self.stats.lock_wait();
        if w.count == 0 {
            0.0
        } else {
            w.quantile(q) as f64 / 1e3
        }
    }
}

/// One swept corpus scale and its grid of runs.
struct SweepScale {
    scale: f64,
    entry_points: usize,
    rows: Vec<SweepRow>,
}

impl SweepScale {
    /// This row's speedup over the jobs-1 median at the same scale (the
    /// grid always holds a jobs-1 row; see [`sweep_grid`]).
    fn speedup(&self, row: &SweepRow) -> f64 {
        let baseline = self
            .rows
            .iter()
            .find(|b| b.jobs == 1)
            .map_or(0.0, SweepRow::wall_ms);
        baseline / row.wall_ms().max(1e-9)
    }
}

/// Parses the comma-separated list `text` held by the variable `var`.
/// Every entry must parse and be accepted by `valid`, and the list must
/// not be empty; the error names the variable and the offending value.
fn parse_list<T: std::str::FromStr>(
    var: &str,
    text: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<Vec<T>, String> {
    let mut out = Vec::new();
    for entry in text.split(',').map(str::trim) {
        match entry.parse() {
            Ok(v) if valid(&v) => out.push(v),
            _ => return Err(format!("{var}: bad entry `{entry}` in `{text}`")),
        }
    }
    Ok(out)
}

/// Validates the sweep grid: positive finite scales, and positive worker
/// counts that include the serial baseline `1`.
fn sweep_grid(scales: &str, jobs: &str) -> Result<(Vec<f64>, Vec<usize>), String> {
    let scales = parse_list("SPO_SWEEP_SCALES", scales, |s: &f64| {
        s.is_finite() && *s > 0.0
    })?;
    let jobs_list = parse_list("SPO_SWEEP_JOBS", jobs, |&j: &usize| j > 0)?;
    if !jobs_list.contains(&1) {
        return Err(format!(
            "SPO_SWEEP_JOBS: `{jobs}` has no `1`, the serial baseline every speedup is measured \
             against"
        ));
    }
    Ok((scales, jobs_list))
}

/// Reads `var`, falling back to `default` when it is unset.
fn env_or(var: &str, default: &str) -> Result<String, String> {
    match std::env::var(var) {
        Ok(v) => Ok(v),
        Err(std::env::VarError::NotPresent) => Ok(default.to_owned()),
        Err(e) => Err(format!("{var}: {e}")),
    }
}

/// The scale sweep: for each corpus scale in `scales`, analyze the jdk
/// implementation under global memoization [`SWEEP_TRIALS`] times at each
/// worker count in `jobs` and keep the median, min, and max wall clock.
fn measure_scale_sweep(scales: &[f64], jobs: &[usize]) -> Vec<SweepScale> {
    use spo_corpus::{generate, CorpusConfig};
    let options = AnalysisOptions {
        memo: MemoScope::Global,
        ..Default::default()
    };
    let mut out = Vec::new();
    for &scale in scales {
        eprintln!("scale sweep: generating jdk corpus at scale {scale} ...");
        let corpus = generate(&CorpusConfig {
            scale,
            ..Default::default()
        });
        let program = corpus.program(Lib::Jdk);
        let entry_points = spo_resolve::entry_points(program).len();
        // One untimed warm-up run per scale: the first analysis of a
        // freshly generated corpus pays page faults and allocator growth
        // that would otherwise be billed to whichever grid cell runs
        // first.
        let _ = AnalysisEngine::new(1).analyze_library(program, "jdk", options);
        let mut rows = Vec::new();
        for &j in jobs {
            // The median trial carries the row; min and max give its
            // noise band, so a later run can tell a change from jitter.
            let mut trials: Vec<EngineStats> = (0..SWEEP_TRIALS)
                .map(|_| {
                    AnalysisEngine::new(j)
                        .analyze_library(program, "jdk", options)
                        .1
                })
                .collect();
            trials.sort_by_key(|s| s.wall_nanos);
            let ms = |s: &EngineStats| s.wall_nanos as f64 / 1e6;
            let (min_ms, max_ms) = (ms(&trials[0]), ms(&trials[SWEEP_TRIALS - 1]));
            let row = SweepRow {
                jobs: j,
                stats: trials.swap_remove(SWEEP_TRIALS / 2),
                min_ms,
                max_ms,
            };
            eprintln!(
                "scale {scale:>4} jobs {j} wall {:>9.1} ms (min {:.1}, max {:.1})  \
                 lock p99 {:>7.1} us",
                row.wall_ms(),
                row.min_ms,
                row.max_ms,
                row.lock_wait_us(0.99),
            );
            rows.push(row);
        }
        out.push(SweepScale {
            scale,
            entry_points,
            rows,
        });
    }
    out
}

fn write_json(
    path: &str,
    scale: f64,
    runs: &[Vec<Measurement>],
    cores: usize,
    sweep: &[SweepScale],
) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("{\n");
    let _ = writeln!(out, "  \"scale\": {scale},");
    out.push_str("  \"configurations\": [\n");
    for (ci, (ms, (config, _))) in runs.iter().zip(CONFIGS).enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"config\": \"{config}\",");
        let _ = writeln!(out, "      \"jobs\": 1,");
        out.push_str("      \"libraries\": [\n");
        for (li, m) in ms.iter().enumerate() {
            let a = &m.stats.analysis;
            let _ = writeln!(
                out,
                "        {{ \"library\": \"{}\", \"may_ms\": {:.3}, \"must_ms\": {:.3}, \
                 \"wall_ms\": {:.3}, \"frames\": {}, \"memo_hits\": {}, \"memo_misses\": {}, \
                 \"memo_hit_rate\": {:.4} }}{}",
                m.lib.name(),
                m.may_ms(),
                m.must_ms(),
                m.wall_ms(),
                a.frames_analyzed,
                a.memo_hits,
                a.memo_misses,
                m.hit_rate(),
                if li + 1 < ms.len() { "," } else { "" },
            );
        }
        out.push_str("      ]\n");
        let _ = writeln!(out, "    }}{}", if ci + 1 < runs.len() { "," } else { "" });
    }
    out.push_str("  ],\n");
    // Scale sweep: jdk under global memo across corpus scales × worker
    // counts, median of SWEEP_TRIALS with min and max. `parallel_speedup`
    // is the jobs=1 median over this row's median at the same scale;
    // `cores` bounds what any cross-jobs speedup can honestly reach on
    // this machine.
    out.push_str("  \"scale_sweep\": {\n");
    let _ = writeln!(out, "    \"cores\": {cores},");
    out.push_str("    \"scales\": [\n");
    for (si, s) in sweep.iter().enumerate() {
        let _ = writeln!(out, "      {{");
        let _ = writeln!(out, "        \"scale\": {},", s.scale);
        let _ = writeln!(out, "        \"entry_points\": {},", s.entry_points);
        out.push_str("        \"rows\": [\n");
        for (ri, r) in s.rows.iter().enumerate() {
            let _ = writeln!(
                out,
                "          {{ \"jobs\": {}, \"workers\": {}, \"oversubscribed\": {}, \
                 \"trials\": {SWEEP_TRIALS}, \"wall_ms\": {:.3}, \"wall_ms_min\": {:.3}, \
                 \"wall_ms_max\": {:.3}, \"parallel_speedup\": {:.3}, \
                 \"lock_wait_events\": {}, \"lock_wait_p50_us\": {:.3}, \
                 \"lock_wait_p99_us\": {:.3} }}{}",
                r.jobs,
                r.stats.workers,
                r.stats.workers > cores,
                r.wall_ms(),
                r.min_ms,
                r.max_ms,
                s.speedup(r),
                r.stats.lock_wait().count,
                r.lock_wait_us(0.5),
                r.lock_wait_us(0.99),
                if ri + 1 < s.rows.len() { "," } else { "" },
            );
        }
        out.push_str("        ]\n");
        let _ = writeln!(
            out,
            "      }}{}",
            if si + 1 < sweep.len() { "," } else { "" }
        );
    }
    out.push_str("    ]\n");
    out.push_str("  }\n");
    out.push_str("}\n");
    std::fs::write(path, out)
}

fn main() -> ExitCode {
    // Validate the sweep grid before any timed work, so a typo fails in
    // milliseconds instead of after the Table 2 runs.
    let grid = env_or("SPO_SWEEP_SCALES", "1,10").and_then(|scales| {
        env_or("SPO_SWEEP_JOBS", "1,2,4,8").and_then(|jobs| sweep_grid(&scales, &jobs))
    });
    let (sweep_scales, sweep_jobs) = match grid {
        Ok(grid) => grid,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let corpus = corpus_from_env();
    let scale = scale_from_env();

    let runs: Vec<Vec<Measurement>> = CONFIGS
        .iter()
        .map(|&(config, scope)| measure(&corpus, config, scope))
        .collect();

    for (pass, paper, pick) in [("MAY", &PAPER_MAY, 0usize), ("MUST", &PAPER_MUST, 1usize)] {
        let mut table = Table::new(vec![
            "configuration",
            "jdk ms",
            "(paper min)",
            "harmony ms",
            "(paper min)",
            "classpath ms",
            "(paper min)",
        ]);
        for (ci, (ms, (config, _))) in runs.iter().zip(CONFIGS).enumerate() {
            let mut row = vec![config.to_string()];
            for m in ms {
                let v = if pick == 0 { m.may_ms() } else { m.must_ms() };
                row.push(format!("{v:.1}"));
                let paper_row = paper.iter().find(|(l, _)| *l == m.lib).unwrap().1;
                row.push(paper_row[ci].to_string());
            }
            table.row(row);
        }
        println!("\nTable 2 ({pass} pass): analysis time, measured (ms) vs paper (minutes)\n");
        println!("{}", table.render());
    }

    // Speedup summary (the paper's headline: 1.5–13x from per-entry
    // summaries, a further 3–18x from global reuse, 15–65x overall).
    let mut table = Table::new(vec![
        "library",
        "no-memo/per-entry",
        "per-entry/global",
        "overall",
    ]);
    for (li, first) in runs[0].iter().enumerate() {
        let total = |ci: usize| runs[ci][li].may_ms() + runs[ci][li].must_ms();
        table.row(vec![
            first.lib.to_string(),
            format!("{:.1}x", total(0) / total(1)),
            format!("{:.1}x", total(1) / total(2)),
            format!("{:.1}x", total(0) / total(2)),
        ]);
    }
    println!("Memoization speedups (paper: 1.5-13x, 3-18x, 15-65x)\n");
    println!("{}", table.render());

    // Scale sweep: does parallel analysis win at scale, and what does
    // summary publication cost in lock waits when it matters? Cross-jobs
    // speedup is only meaningful relative to the machine's core count,
    // which the JSON records alongside the rows.
    eprintln!("measuring scale sweep (SPO_SWEEP_SCALES x SPO_SWEEP_JOBS) ...");
    let cores = std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1);
    let sweep = measure_scale_sweep(&sweep_scales, &sweep_jobs);
    let mut table = Table::new(vec![
        "scale",
        "jobs",
        "median ms",
        "min ms",
        "max ms",
        "speedup",
        "lock p99 us",
    ]);
    for s in &sweep {
        for r in &s.rows {
            // An oversubscribed cell (workers > cores) measures the
            // host's time slicing, not the engine; label it instead of
            // printing a speedup that reads as a regression.
            let speedup = if r.stats.workers > cores {
                "(oversubscribed)".to_owned()
            } else {
                format!("{:.2}x", s.speedup(r))
            };
            table.row(vec![
                format!("{}", s.scale),
                r.jobs.to_string(),
                format!("{:.1}", r.wall_ms()),
                format!("{:.1}", r.min_ms),
                format!("{:.1}", r.max_ms),
                speedup,
                format!("{:.1}", r.lock_wait_us(0.99)),
            ]);
        }
    }
    println!("Scale sweep, jdk, global memo, {SWEEP_TRIALS} trials per row ({cores} cores)\n");
    println!("{}", table.render());

    match write_json("BENCH_table2.json", scale, &runs, cores, &sweep) {
        Ok(()) => {
            eprintln!("wrote BENCH_table2.json");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("BENCH_table2.json: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_grid_accepts_the_defaults_and_the_ci_grid() {
        assert_eq!(
            sweep_grid("1,10", "1,2,4,8"),
            Ok((vec![1.0, 10.0], vec![1, 2, 4, 8]))
        );
        assert_eq!(
            sweep_grid(" 1, 3 ", "2 ,1"),
            Ok((vec![1.0, 3.0], vec![2, 1]))
        );
    }

    #[test]
    fn sweep_grid_names_an_entry_that_does_not_parse() {
        let e = sweep_grid("0.5,x", "1,2").unwrap_err();
        assert!(e.contains("SPO_SWEEP_SCALES") && e.contains("`x`"), "{e}");
        let e = sweep_grid("1", "1,two").unwrap_err();
        assert!(e.contains("SPO_SWEEP_JOBS") && e.contains("`two`"), "{e}");
    }

    #[test]
    fn sweep_grid_rejects_empty_lists_and_empty_entries() {
        let e = sweep_grid("", "1").unwrap_err();
        assert!(e.contains("SPO_SWEEP_SCALES"), "{e}");
        let e = sweep_grid("1", "").unwrap_err();
        assert!(e.contains("SPO_SWEEP_JOBS"), "{e}");
        let e = sweep_grid("1,,3", "1").unwrap_err();
        assert!(e.contains("SPO_SWEEP_SCALES") && e.contains("``"), "{e}");
    }

    #[test]
    fn sweep_grid_rejects_non_positive_values() {
        for (scales, jobs, var, bad) in [
            ("0", "1", "SPO_SWEEP_SCALES", "`0`"),
            ("-1", "1", "SPO_SWEEP_SCALES", "`-1`"),
            ("NaN", "1", "SPO_SWEEP_SCALES", "`NaN`"),
            ("1", "1,0", "SPO_SWEEP_JOBS", "`0`"),
        ] {
            let e = sweep_grid(scales, jobs).unwrap_err();
            assert!(e.contains(var) && e.contains(bad), "{e}");
        }
    }

    #[test]
    fn sweep_grid_requires_the_serial_baseline() {
        let e = sweep_grid("1", "2,4").unwrap_err();
        assert!(e.contains("SPO_SWEEP_JOBS") && e.contains("`2,4`"), "{e}");
    }
}
