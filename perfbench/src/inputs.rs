//! Everything the program is fed, made from the seed before the timed
//! loop: the corpus files, the edited variants of `cli_warm`, and the op
//! sequence of every workload.

use spo_corpus::figures::{ALL_FIGURES, FP_GET_PROPERTY};
use spo_corpus::{BugCatalog, CorpusConfig, Lib};
use spo_rng::SmallRng;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Every unordered pairing, in the order the paper's Table 3 lists them.
pub const PAIRS: [(Lib, Lib); 3] = [
    (Lib::Jdk, Lib::Harmony),
    (Lib::Jdk, Lib::Classpath),
    (Lib::Harmony, Lib::Classpath),
];

/// The generated corpus on disk (the same files `gencorpus` writes) plus
/// its ground-truth catalog.
pub struct CorpusFiles {
    pub prelude: PathBuf,
    pub libs: BTreeMap<Lib, PathBuf>,
    pub catalog: BugCatalog,
}

impl CorpusFiles {
    pub fn lib(&self, lib: Lib) -> &Path {
        &self.libs[&lib]
    }
}

/// Writes the corpus at `scale` into `dir`. The corpus keeps the
/// generator's calibrated seed, whose catalog is the paper's Table 3
/// ground truth; the benchmark seed varies what the workloads do with it.
pub fn write_corpus(dir: &Path, scale: f64, libs: &[Lib]) -> std::io::Result<CorpusFiles> {
    std::fs::create_dir_all(dir)?;
    let corpus = spo_corpus::generate(&CorpusConfig {
        scale,
        ..CorpusConfig::default()
    });
    let prelude = dir.join("prelude.jir");
    std::fs::write(&prelude, spo_corpus::prelude_source())?;
    let mut paths = BTreeMap::new();
    for &lib in libs {
        let mut src = String::new();
        for fig in ALL_FIGURES.iter().chain([&FP_GET_PROPERTY]) {
            if let Some(s) = fig.source(lib) {
                src.push_str(s);
                src.push('\n');
            }
        }
        src.push_str(&corpus.sources[&lib]);
        let path = dir.join(format!("{lib}.jir"));
        std::fs::write(&path, src)?;
        paths.insert(lib, path);
    }
    Ok(CorpusFiles {
        prelude,
        libs: paths,
        catalog: corpus.catalog.clone(),
    })
}

/// One operation of a workload. Queries name an entry point by its index
/// into the reference listing of its library.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Op {
    /// `spo analyze prelude lib` (cold, no cache).
    Analyze(Lib),
    /// `spo diff prelude a --vs prelude b`.
    Diff(Lib, Lib),
    /// `spo analyze --cache-dir D prelude variant_i`.
    WarmAnalyze(usize),
    /// `spo index query SIG --index lib.spi`.
    IndexQuery(Lib, usize),
    /// `spo index query --index lib.spi` (the full listing).
    IndexListing(Lib),
    /// `spo index diff jdk.spi harmony.spi`.
    IndexDiff,
    /// rpc `query` for one entry point.
    RpcQuery(Lib, usize),
    /// rpc `query` without an entry point (the full listing).
    RpcListing(Lib),
    /// rpc `diff`.
    RpcDiff(Lib, Lib),
}

impl Op {
    /// The latency class the op's samples are reported under.
    pub fn kind(self) -> &'static str {
        match self {
            Op::Analyze(_) | Op::WarmAnalyze(_) => "analyze",
            Op::Diff(..) | Op::IndexDiff | Op::RpcDiff(..) => "diff",
            Op::IndexQuery(..) | Op::RpcQuery(..) => "query",
            Op::IndexListing(_) | Op::RpcListing(_) => "listing",
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Workload {
    CliCold,
    CliWarm,
    IndexS10,
    ServeRpc,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CliCold,
        Workload::CliWarm,
        Workload::IndexS10,
        Workload::ServeRpc,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CliCold => "cli_cold",
            Workload::CliWarm => "cli_warm",
            Workload::IndexS10 => "index_s10",
            Workload::ServeRpc => "serve_rpc",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Corpus scale the workload runs at.
    pub fn scale(self) -> f64 {
        match self {
            Workload::IndexS10 => 10.0,
            _ => 1.0,
        }
    }

    /// How many times the set-up runs; `setup_s` is the median. A cheap
    /// set-up runs more often, so its median holds still.
    pub fn setup_reps(self) -> usize {
        match self {
            Workload::CliWarm => 9,
            Workload::ServeRpc => 5,
            Workload::CliCold | Workload::IndexS10 => 3,
        }
    }

    /// Libraries the workload touches.
    pub fn libs(self) -> &'static [Lib] {
        match self {
            Workload::CliWarm => &[Lib::Jdk],
            Workload::IndexS10 => &[Lib::Jdk, Lib::Harmony],
            _ => &Lib::ALL,
        }
    }
}

/// How many ops of each kind a round holds. The rule: every op kind takes
/// about an equal share of a round's summed op time, so no one kind's
/// speed decides `ops_per_s` alone. The counts were set from op times
/// measured on a 2-vCPU VM when the benchmark was defined, and stay fixed
/// so that every commit is measured on the same mix; the full record
/// reports each kind's measured share (`time_share`), which shows where a
/// change of throughput comes from. Fixed ops (one per library or pair)
/// set the unit, and the seeded queries fill their share:
///
/// - `cli_cold`: analyze p50 128 ms, diff 380 ms. Each pairing is diffed
///   once and each library analyzed `ANALYZES_PER_LIB` times: 9 × 128 ≈
///   3 × 380 ms; measured shares 0.50 / 0.50.
/// - `index_s10`: query p50 31 ms, listing 900 ms, diff 1.55 s. One diff,
///   one listing per library, and `INDEX_QUERIES_PER_ROUND` queries: 50 ×
///   31 ≈ 2 × 900 ≈ 1550 ms; measured shares 0.32 / 0.37 / 0.31.
/// - `serve_rpc`, per connection: one diff per pairing (p50 10 ms),
///   `RPC_LISTINGS_PER_LIB` listings per library (1 ms) and
///   `RPC_QUERIES_PER_ROUND` queries. A query's p50 is 75 µs, but while
///   the other connection's listings and diffs hold the cores its mean is
///   about 0.2 ms, so the counts follow the means; measured shares 0.39 /
///   0.31 / 0.30.
pub const ANALYZES_PER_LIB: usize = 3;
pub const INDEX_QUERIES_PER_ROUND: usize = 50;
pub const RPC_LISTINGS_PER_LIB: usize = 10;
pub const RPC_QUERIES_PER_ROUND: usize = 200;

/// The seeded op sequence of one client. A round holds a fixed multiset
/// of ops (see `ANALYZES_PER_LIB`) in seeded order; queries draw their
/// entry points from the seed. The closed loop runs whole rounds, so
/// every run measures the same mix.
pub struct OpStream {
    workload: Workload,
    rng: SmallRng,
    /// Entry points per library that queries draw from.
    entries: BTreeMap<Lib, usize>,
    next_variant: usize,
}

impl OpStream {
    pub fn new(workload: Workload, seed: u64, client: u64, entries: BTreeMap<Lib, usize>) -> Self {
        let stream = seed ^ client.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ workload as u64;
        OpStream {
            workload,
            rng: SmallRng::seed_from_u64(stream),
            entries,
            next_variant: 0,
        }
    }

    pub fn round(&mut self) -> Vec<Op> {
        let mut ops: Vec<Op> = match self.workload {
            Workload::CliCold => Lib::ALL
                .iter()
                .flat_map(|&l| [Op::Analyze(l); ANALYZES_PER_LIB])
                .chain(PAIRS.map(|(a, b)| Op::Diff(a, b)))
                .collect(),
            Workload::CliWarm => {
                self.next_variant += 1;
                vec![Op::WarmAnalyze(self.next_variant - 1)]
            }
            Workload::IndexS10 => (0..INDEX_QUERIES_PER_ROUND)
                .map(|_| {
                    let (lib, i) = self.any_entry();
                    Op::IndexQuery(lib, i)
                })
                .chain([
                    Op::IndexListing(Lib::Jdk),
                    Op::IndexListing(Lib::Harmony),
                    Op::IndexDiff,
                ])
                .collect(),
            Workload::ServeRpc => (0..RPC_QUERIES_PER_ROUND)
                .map(|_| {
                    let (lib, i) = self.any_entry();
                    Op::RpcQuery(lib, i)
                })
                .chain(
                    Lib::ALL
                        .iter()
                        .flat_map(|&l| [Op::RpcListing(l); RPC_LISTINGS_PER_LIB]),
                )
                .chain(PAIRS.map(|(a, b)| Op::RpcDiff(a, b)))
                .collect(),
        };
        shuffle(&mut self.rng, &mut ops);
        ops
    }

    /// A uniformly drawn entry point over all libraries of the stream.
    fn any_entry(&mut self) -> (Lib, usize) {
        let total: usize = self.entries.values().sum();
        let mut pick = self.rng.gen_range(0..total);
        for (&lib, &n) in &self.entries {
            if pick < n {
                return (lib, pick);
            }
            pick -= n;
        }
        unreachable!("pick < total")
    }
}

pub fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
}

/// Methods edited per `cli_warm` op.
pub const EDITS_PER_OP: usize = 8;

/// The `cli_warm` edit plan: line numbers (one per method with a body)
/// of each method's first `return`, in seeded order. Op `i` runs on the
/// base source with the first `(i + 1) * EDITS_PER_OP` of them edited, so
/// every op carries edits no earlier op has seen.
pub struct EditPlan {
    lines: Vec<String>,
    sites: Vec<usize>,
}

impl EditPlan {
    pub fn new(base: &str, seed: u64) -> EditPlan {
        let lines: Vec<String> = base.lines().map(str::to_owned).collect();
        let mut sites = Vec::new();
        let mut in_method = false;
        for (i, l) in lines.iter().enumerate() {
            if l.starts_with("  method ") {
                in_method = true;
            } else if in_method && l.starts_with("    return") {
                sites.push(i);
                in_method = false;
            }
        }
        shuffle(&mut SmallRng::seed_from_u64(seed), &mut sites);
        EditPlan { lines, sites }
    }

    pub fn max_variants(&self) -> usize {
        self.sites.len() / EDITS_PER_OP
    }

    /// Writes variants `0..count` as `dir/v<i>.jir`. Each edit inserts a
    /// redundant `goto` to a fresh label right before a method's first
    /// return: the method's content hash changes, its semantics and the
    /// program's structure do not.
    pub fn write_variants(&self, dir: &Path, count: usize) -> std::io::Result<Vec<PathBuf>> {
        std::fs::create_dir_all(dir)?;
        let mut lines = self.lines.clone();
        let mut paths = Vec::with_capacity(count);
        for v in 0..count {
            for (k, &site) in self.sites[v * EDITS_PER_OP..(v + 1) * EDITS_PER_OP]
                .iter()
                .enumerate()
            {
                let label = format!("pb{}", v * EDITS_PER_OP + k);
                lines[site] = format!("    goto {label};\n  {label}:\n{}", lines[site]);
            }
            let path = dir.join(format!("v{v}.jir"));
            let mut text = lines.join("\n");
            text.push('\n');
            std::fs::write(&path, text)?;
            paths.push(path);
        }
        Ok(paths)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entries() -> BTreeMap<Lib, usize> {
        Lib::ALL.iter().map(|&l| (l, 500)).collect()
    }

    fn ops(w: Workload, seed: u64, client: u64, rounds: usize) -> Vec<Op> {
        let mut s = OpStream::new(w, seed, client, entries());
        (0..rounds).flat_map(|_| s.round()).collect()
    }

    #[test]
    fn same_seed_same_ops_other_seed_other_ops() {
        for w in Workload::ALL {
            assert_eq!(ops(w, 7, 0, 5), ops(w, 7, 0, 5), "{}", w.name());
        }
        for w in [Workload::CliCold, Workload::IndexS10, Workload::ServeRpc] {
            assert_ne!(ops(w, 7, 0, 5), ops(w, 8, 0, 5), "{}", w.name());
        }
        assert_ne!(
            ops(Workload::ServeRpc, 7, 0, 2),
            ops(Workload::ServeRpc, 7, 1, 2)
        );
    }

    #[test]
    fn every_round_holds_the_same_mix() {
        for w in Workload::ALL {
            let mut s = OpStream::new(w, 3, 0, entries());
            // Queries draw their entry points from the seed; every other
            // op is the same in every round.
            let count = |ops: &[Op]| {
                let mut c: BTreeMap<String, usize> = BTreeMap::new();
                for op in ops {
                    let key = match op.kind() {
                        "query" => "query".to_owned(),
                        _ if matches!(op, Op::WarmAnalyze(_)) => "warm".to_owned(),
                        _ => format!("{op:?}"),
                    };
                    *c.entry(key).or_default() += 1;
                }
                c
            };
            let first = count(&s.round());
            for _ in 0..10 {
                assert_eq!(count(&s.round()), first, "{}", w.name());
            }
        }
    }

    #[test]
    fn edit_plans_follow_the_seed_and_never_reuse_a_method() {
        let base = "class a.B {\n  method public void m() {\n    return;\n  }\n  method public int n(int x) {\n    return x;\n  }\n  method public native void z();\n}\n";
        let a = EditPlan::new(base, 1);
        assert_eq!(a.sites.len(), 2, "one site per method with a body");
        let mut seen = a.sites.clone();
        seen.sort();
        seen.dedup();
        assert_eq!(seen.len(), a.sites.len());
        let many: String = (0..64)
            .map(|i| base.replace("a.B", &format!("a.B{i}")))
            .collect();
        assert_ne!(EditPlan::new(&many, 1).sites, EditPlan::new(&many, 2).sites);
        assert_eq!(EditPlan::new(&many, 1).sites, EditPlan::new(&many, 1).sites);
    }
}
