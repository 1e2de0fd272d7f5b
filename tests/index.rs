//! End-to-end tests of the compiled policy index (`spo cache
//! export-index` / `spo index`, DESIGN.md §16). The standing contract:
//! query and diff output is byte-identical to the full-analysis path for
//! every entry point, and every corruption mode degrades to a typed
//! fatal error (exit 3, empty stdout) — never a wrong answer.

use spo_core::{render_analysis, render_entry, AnalysisOptions};
use spo_engine::AnalysisEngine;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn fixture(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("examples/jir")
        .join(name)
}

fn spo(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spo"))
        .args(args)
        .output()
        .expect("spo binary runs")
}

/// Scratch directory removed on drop, so a failing test never leaks it.
struct Workdir(PathBuf);

impl Workdir {
    fn new(tag: &str) -> Workdir {
        let dir = std::env::temp_dir().join(format!("spo-index-test-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("workdir");
        Workdir(dir)
    }
    fn path(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// `spo cache export-index` over one fixture, returning the `.spi` path.
fn export(dir: &Workdir, name: &str, jir: &Path) -> PathBuf {
    let out = dir.path(&format!("{name}.spi"));
    let run = spo(&[
        "cache",
        "export-index",
        jir.to_str().unwrap(),
        "--name",
        name,
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        run.status.code(),
        Some(0),
        "export-index succeeds: {}",
        String::from_utf8_lossy(&run.stderr)
    );
    out
}

/// The full listing (`spo index query` with no signature) and every
/// single-entry query must reproduce the analysis path byte-for-byte.
#[test]
fn cli_query_is_byte_identical_to_analyze() {
    let jdk = fixture("figure1_jdk.jir");
    let dir = Workdir::new("cli-query");
    let spi = export(&dir, "lib", &jdk);

    let analyze = spo(&["analyze", jdk.to_str().unwrap()]);
    assert!(analyze.status.success());
    let listing = spo(&["index", "query", "--index", spi.to_str().unwrap()]);
    assert_eq!(listing.status.code(), Some(0));
    assert_eq!(
        listing.stdout, analyze.stdout,
        "full listing matches `spo analyze` bytes"
    );

    // Per-entry: each `entry <sig>` section of the listing (up to the
    // next section or the `#` footer), queried individually, returns
    // exactly that section.
    let text = String::from_utf8(analyze.stdout).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mut queried = 0;
    for (i, line) in lines.iter().enumerate() {
        let Some(sig) = line.strip_prefix("entry ") else {
            continue;
        };
        let mut want = String::new();
        for l in &lines[i..] {
            if !want.is_empty() && (l.starts_with("entry ") || l.starts_with('#')) {
                break;
            }
            want.push_str(l);
            want.push('\n');
        }
        let one = spo(&["index", "query", sig, "--index", spi.to_str().unwrap()]);
        assert_eq!(one.status.code(), Some(0), "query {sig}");
        assert_eq!(
            String::from_utf8(one.stdout).unwrap(),
            want,
            "single query for {sig} matches its listing section"
        );
        queried += 1;
    }
    assert!(queried > 0, "fixture has entries with checks");
}

/// `spo index diff` over two compiled indexes prints the same report and
/// exit code as `spo diff` over the source programs.
#[test]
fn cli_diff_is_byte_identical_to_full_diff() {
    let jdk = fixture("figure1_jdk.jir");
    let harmony = fixture("figure1_harmony.jir");
    let dir = Workdir::new("cli-diff");
    // `spo diff` names its sides "left" and "right"; exporting under the
    // same names keeps the rendered report identical.
    let left = export(&dir, "left", &jdk);
    let right = export(&dir, "right", &harmony);

    let full = spo(&[
        "diff",
        jdk.to_str().unwrap(),
        "--vs",
        harmony.to_str().unwrap(),
    ]);
    assert_eq!(full.status.code(), Some(1), "figure 1 has findings");
    let indexed = spo(&[
        "index",
        "diff",
        left.to_str().unwrap(),
        right.to_str().unwrap(),
    ]);
    assert_eq!(indexed.status.code(), Some(1), "findings keep exit code 1");
    assert_eq!(
        indexed.stdout, full.stdout,
        "index diff matches `spo diff` bytes"
    );
}

/// Querying a signature the index does not hold is a typed fatal error
/// (exit 3), same contract as the daemon's not-found path.
#[test]
fn cli_query_unknown_entry_is_fatal() {
    let dir = Workdir::new("cli-missing");
    let spi = export(&dir, "lib", &fixture("figure1_jdk.jir"));
    let out = spo(&[
        "index",
        "query",
        "no.such.Class.method()",
        "--index",
        spi.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    assert!(out.stdout.is_empty(), "no partial report");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("no entry point \"no.such.Class.method()\" in \"lib\""),
        "typed diagnostic names the signature and library: {err}"
    );
}

/// Diffing two indexes compiled under different analysis options is
/// refused — mixed options would make every reported difference suspect.
#[test]
fn cli_diff_rejects_mismatched_options() {
    let jdk = fixture("figure1_jdk.jir");
    let dir = Workdir::new("cli-mismatch");
    let narrow = export(&dir, "lib", &jdk);
    let broad = dir.path("broad.spi");
    let run = spo(&[
        "cache",
        "export-index",
        jdk.to_str().unwrap(),
        "--name",
        "lib",
        "--out",
        broad.to_str().unwrap(),
        "--broad",
    ]);
    assert_eq!(run.status.code(), Some(0));
    let out = spo(&[
        "index",
        "diff",
        narrow.to_str().unwrap(),
        broad.to_str().unwrap(),
    ]);
    assert_eq!(out.status.code(), Some(3));
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("options mismatch"),
        "diagnostic names the mismatch"
    );
}

/// Runs `spo` and asserts the typed unusable-index failure: exit 3, an
/// empty stdout, and the fallback diagnostic on stderr.
fn assert_unusable(what: &str, args: &[&str]) {
    let out = spo(args);
    assert_eq!(out.status.code(), Some(3), "{what}: fatal exit");
    assert!(out.stdout.is_empty(), "{what}: no partial report");
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("the index is unusable"),
        "{what}: typed diagnostic suggests the fallback"
    );
}

/// Four ways of damaging the `.spi` file — a flipped payload byte, a
/// mid-file truncation, a truncated trailing checksum, and a format
/// version bump — must each surface as the typed unusable-index error
/// with exit 3 and an empty stdout, for the full listing, a single-entry
/// query, and a diff with the damaged file on either side. Degraded,
/// never wrong.
#[test]
fn corrupted_index_degrades_not_wrong() {
    let dir = Workdir::new("corrupt");
    let jdk = fixture("figure1_jdk.jir");
    let spi = export(&dir, "lib", &jdk);
    let other = export(&dir, "other", &fixture("figure1_harmony.jir"));
    let clean = std::fs::read(&spi).expect("read index");
    let listing = spo(&["index", "query", "--index", spi.to_str().unwrap()]);
    let sig = String::from_utf8(listing.stdout)
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("entry ").map(str::to_owned))
        .expect("fixture has an entry with checks");
    let cases: [(&str, Vec<u8>); 4] = [
        ("flipped payload byte", {
            let mut b = clean.clone();
            let mid = b.len() / 2;
            b[mid] ^= 0x40;
            b
        }),
        ("mid-file truncation", clean[..clean.len() / 2].to_vec()),
        (
            "truncated trailing checksum",
            clean[..clean.len() - 3].to_vec(),
        ),
        ("format version bump", {
            let mut b = clean.clone();
            // Header is `spo-index 2\n`; bump the version digit.
            b[10] = b'9';
            b
        }),
    ];
    let other = other.to_str().unwrap();
    for (what, bytes) in cases {
        let bad = dir.path("bad.spi");
        std::fs::write(&bad, &bytes).expect("write damaged index");
        let bad = bad.to_str().unwrap();
        assert_unusable(
            &format!("{what} (listing)"),
            &["index", "query", "--index", bad],
        );
        assert_unusable(
            &format!("{what} (query {sig})"),
            &["index", "query", &sig, "--index", bad],
        );
        assert_unusable(
            &format!("{what} (diff, left side)"),
            &["index", "diff", bad, other],
        );
        assert_unusable(
            &format!("{what} (diff, right side)"),
            &["index", "diff", other, bad],
        );
    }
}

/// A file in the previous `spo-index/1` format (whole-file byte-serial
/// checksum) is refused as a version mismatch, never read under the new
/// checksum.
#[test]
fn version_one_index_is_refused() {
    let dir = Workdir::new("v1");
    let spi = export(&dir, "lib", &fixture("figure1_jdk.jir"));
    let mut bytes = std::fs::read(&spi).expect("read index");
    assert!(
        bytes.starts_with(b"spo-index 2\n"),
        "exports write format 2"
    );
    bytes[10] = b'1';
    let old = dir.path("old.spi");
    std::fs::write(&old, &bytes).expect("write v1 header");
    let old = old.to_str().unwrap();
    let out = spo(&["index", "query", "--index", old]);
    assert!(
        String::from_utf8_lossy(&out.stderr).contains("index format version 1 != 2"),
        "diagnostic names both versions"
    );
    assert_unusable("v1 listing", &["index", "query", "--index", old]);
    assert_unusable("v1 diff", &["index", "diff", old, spi.to_str().unwrap()]);
}

/// `export-index` refuses to bake a degraded analysis into a durable
/// file: a budget-tripped root would silently read as "no checks"
/// forever after.
#[test]
fn export_refuses_degraded_analysis() {
    let dir = Workdir::new("degraded");
    let out = dir.path("lib.spi");
    let run = spo(&[
        "cache",
        "export-index",
        fixture("figure1_jdk.jir").to_str().unwrap(),
        "--name",
        "lib",
        "--out",
        out.to_str().unwrap(),
        "--budget-steps",
        "1",
    ]);
    assert_eq!(run.status.code(), Some(3), "degraded export is fatal");
    assert!(!out.exists(), "no index file is left behind");
    assert!(
        String::from_utf8_lossy(&run.stderr).contains("degraded"),
        "diagnostic says why"
    );
}

/// In-process round trip at corpus scale 1: every entry point queried
/// from the parsed index renders byte-identically to the analysis-path
/// `render_entry`, and the full listing matches `render_analysis`.
#[test]
fn roundtrip_matches_analysis_rendering_at_scale_one() {
    let corpus = spo_corpus::generate(&spo_corpus::CorpusConfig::default());
    let program = corpus.program(spo_corpus::Lib::Jdk);
    let options = AnalysisOptions::default();
    let engine = AnalysisEngine::new(0);
    let (full, _) = engine.analyze_library(program, "jdk", options);
    let intra_options = AnalysisOptions {
        interprocedural: false,
        ..options
    };
    let (intra, _) = engine.analyze_library(program, "jdk", intra_options);
    let bytes = spo_index::IndexBuilder::new("jdk", &options, &full, &intra)
        .build()
        .expect("index builds");
    let index = spo_index::PolicyIndex::parse(&bytes).expect("index parses");
    assert_eq!(index.len(), full.entries.len(), "every entry point stored");
    for (sig, entry) in &full.entries {
        let got = index
            .query(sig)
            .expect("query decodes")
            .expect("entry point found");
        assert_eq!(got, render_entry(sig, entry), "round trip for {sig}");
    }
    assert_eq!(
        index.render_full().expect("listing decodes"),
        render_analysis(&full),
        "full listing matches render_analysis"
    );
}

/// Strided sample at paper scale 10 — ignored by default (takes tens of
/// seconds); CI and `--ignored` runs keep the large-scale contract.
#[test]
#[ignore = "paper-scale corpus; run explicitly with --ignored"]
fn roundtrip_strided_sample_at_scale_ten() {
    let corpus = spo_corpus::generate(&spo_corpus::CorpusConfig {
        scale: 10.0,
        ..Default::default()
    });
    let program = corpus.program(spo_corpus::Lib::Jdk);
    let options = AnalysisOptions::default();
    let engine = AnalysisEngine::new(0);
    let (full, _) = engine.analyze_library(program, "jdk", options);
    let (intra, _) = engine.analyze_library(
        program,
        "jdk",
        AnalysisOptions {
            interprocedural: false,
            ..options
        },
    );
    let bytes = spo_index::IndexBuilder::new("jdk", &options, &full, &intra)
        .build()
        .expect("index builds");
    let index = spo_index::PolicyIndex::parse(&bytes).expect("index parses");
    assert_eq!(index.len(), full.entries.len());
    // Prime-strided sample: cheap, yet covers the whole key range.
    for (sig, entry) in full.entries.iter().step_by(97) {
        let got = index
            .query(sig)
            .expect("query decodes")
            .expect("entry point found");
        assert_eq!(got, render_entry(sig, entry), "round trip for {sig}");
    }
}

/// Compiles one library (full + intra) into index bytes.
fn compile(
    name: &str,
    full: &spo_core::LibraryPolicies,
    intra: &spo_core::LibraryPolicies,
) -> Vec<u8> {
    spo_index::IndexBuilder::new(name, &AnalysisOptions::default(), full, intra)
        .build()
        .expect("index builds")
}

/// The listing and the diff answered from the index bytes equal the
/// reconstruction route (`to_libraries` + `render_analysis` /
/// `diff_rendered`) for every scale-1 library and every ordered pair.
#[test]
fn listing_and_diff_match_reconstruction_for_every_scale_one_pair() {
    let corpus = spo_corpus::generate(&spo_corpus::CorpusConfig::default());
    let options = AnalysisOptions::default();
    let intra_options = AnalysisOptions {
        interprocedural: false,
        ..options
    };
    let engine = AnalysisEngine::new(0);
    let compiled: Vec<Vec<u8>> = spo_corpus::Lib::ALL
        .iter()
        .map(|&lib| {
            let program = corpus.program(lib);
            let (full, _) = engine.analyze_library(program, lib.name(), options);
            let (intra, _) = engine.analyze_library(program, lib.name(), intra_options);
            compile(lib.name(), &full, &intra)
        })
        .collect();
    let indexes: Vec<spo_index::PolicyIndex<'_>> = compiled
        .iter()
        .map(|b| spo_index::PolicyIndex::parse(b).expect("index parses"))
        .collect();
    let rebuilt: Vec<_> = indexes
        .iter()
        .map(|i| i.to_libraries().expect("libraries decode"))
        .collect();
    for (index, (full, _)) in indexes.iter().zip(&rebuilt) {
        assert_eq!(
            index.render_full().expect("listing decodes"),
            render_analysis(full),
            "listing of {}",
            index.library()
        );
    }
    let mut any_findings = false;
    for (a, left) in indexes.iter().enumerate() {
        for (b, right) in indexes.iter().enumerate() {
            if a == b {
                continue;
            }
            let got = spo_index::diff_indexes(left, right).expect("diff decodes");
            let want = spo_index::diff_rendered(
                &rebuilt[a].0,
                &rebuilt[a].1,
                &rebuilt[b].0,
                &rebuilt[b].1,
            );
            assert_eq!(got, want, "{} vs {}", left.library(), right.library());
            any_findings |= got.1;
        }
    }
    assert!(
        any_findings,
        "the corpus plants differences between libraries"
    );
}

mod hand_built {
    use super::compile;
    use spo_core::{Check, CheckSet, EntryPolicy, EventKey, EventPolicy, LibraryPolicies};
    use spo_dataflow::Dnf;

    /// An event policy from its per-path check sets (must = checks on
    /// every path, may = their union).
    fn policy(paths: &[&[Check]]) -> EventPolicy {
        let may_paths: Dnf = paths
            .iter()
            .map(|p| p.iter().copied().collect::<CheckSet>().bits())
            .collect();
        EventPolicy {
            must: CheckSet::from_bits(may_paths.must_view()),
            may: CheckSet::from_bits(may_paths.flat_union()),
            may_paths,
        }
    }

    fn native(name: &str) -> EventKey {
        EventKey::Native(name.to_owned())
    }

    /// One entry: its events, each check performed in `guard`, each
    /// event in `site`.
    fn entry(sig: &str, events: Vec<(EventKey, EventPolicy)>, guard: &str) -> EntryPolicy {
        let mut e = EntryPolicy::new(sig.to_owned());
        for (key, p) in events {
            for check in p.may.iter() {
                e.check_origins
                    .entry(check.index())
                    .or_default()
                    .insert(guard.to_owned());
            }
            e.event_origins
                .entry(key.clone())
                .or_default()
                .insert(format!("{sig}#site"));
            e.events.insert(key, p);
        }
        e
    }

    fn library(name: &str, entries: Vec<EntryPolicy>) -> LibraryPolicies {
        let mut lib = LibraryPolicies {
            name: name.to_owned(),
            ..Default::default()
        };
        for e in entries {
            lib.entries.insert(e.signature.clone(), e);
        }
        lib.stats.entry_points = lib.entries.len();
        lib
    }

    /// Full and intra entry lists per side; diffs both directions from
    /// the index bytes and from the reconstruction, and returns the
    /// left-to-right report.
    fn diff_both_ways(
        left: (Vec<EntryPolicy>, Vec<EntryPolicy>),
        right: (Vec<EntryPolicy>, Vec<EntryPolicy>),
    ) -> (String, bool) {
        let (lf, li) = (library("left", left.0), library("left", left.1));
        let (rf, ri) = (library("right", right.0), library("right", right.1));
        let (lb, rb) = (compile("left", &lf, &li), compile("right", &rf, &ri));
        let l = spo_index::PolicyIndex::parse(&lb).expect("left parses");
        let r = spo_index::PolicyIndex::parse(&rb).expect("right parses");
        let forward = spo_index::diff_indexes(&l, &r).expect("diff decodes");
        assert_eq!(forward, spo_index::diff_rendered(&lf, &li, &rf, &ri));
        let backward = spo_index::diff_indexes(&r, &l).expect("diff decodes");
        assert_eq!(backward, spo_index::diff_rendered(&rf, &ri, &lf, &li));
        forward
    }

    /// The same entry list for full and intra.
    fn same(entries: Vec<EntryPolicy>) -> (Vec<EntryPolicy>, Vec<EntryPolicy>) {
        (entries.clone(), entries)
    }

    fn unchecked(sig: &str) -> EntryPolicy {
        entry(sig, vec![(EventKey::ApiReturn, policy(&[&[]]))], "-")
    }

    #[test]
    fn entry_on_one_side_only_is_not_matched() {
        let checked = entry(
            "Net.only()",
            vec![(native("connect0"), policy(&[&[Check::Connect]]))],
            "Net.guard",
        );
        let (report, findings) = diff_both_ways(
            same(vec![checked, unchecked("Util.both()")]),
            same(vec![unchecked("Util.both()"), unchecked("Util.right()")]),
        );
        assert!(!findings);
        assert!(report.contains("0 distinct difference(s)"), "{report}");
    }

    #[test]
    fn events_unique_to_one_side_report_nothing() {
        let shared = (native("read0"), policy(&[&[Check::Read]]));
        let left = entry(
            "Io.read()",
            vec![shared.clone(), (native("extra"), policy(&[&[Check::Exit]]))],
            "Io.guard",
        );
        let right = entry("Io.read()", vec![shared], "Io.guard");
        let (_, findings) = diff_both_ways(same(vec![left]), same(vec![right]));
        assert!(!findings);
    }

    #[test]
    fn both_sides_without_checks_report_nothing() {
        let left = entry(
            "Util.len()",
            vec![
                (native("a"), policy(&[&[]])),
                (EventKey::ApiReturn, policy(&[&[]])),
            ],
            "-",
        );
        let right = entry("Util.len()", vec![(native("b"), policy(&[&[]]))], "-");
        let (_, findings) = diff_both_ways(same(vec![left]), same(vec![right]));
        assert!(!findings);
    }

    #[test]
    fn equal_must_and_may_with_different_paths_report_nothing() {
        // {{Read},{Write},{Read,Write}} vs {{Read},{Write}}: flat may and
        // must agree, so the paper's comparison sees no difference.
        let left = entry(
            "Fs.open()",
            vec![(
                native("open0"),
                policy(&[
                    &[Check::Read],
                    &[Check::Write],
                    &[Check::Read, Check::Write],
                ]),
            )],
            "Fs.guard",
        );
        let right = entry(
            "Fs.open()",
            vec![(native("open0"), policy(&[&[Check::Read], &[Check::Write]]))],
            "Fs.guard",
        );
        let (_, findings) = diff_both_ways(same(vec![left]), same(vec![right]));
        assert!(!findings);
    }

    #[test]
    fn intra_only_difference_makes_a_group_intraprocedural() {
        // `A.x()` differs in the full analysis only; `B.y()` differs in
        // the intraprocedural ablation only, under the same root key
        // (delta Connect, implicated method Net.guard). The ablation's key
        // classifies A's group as intraprocedural.
        let checked = |sig: &str| {
            entry(
                sig,
                vec![(native("connect0"), policy(&[&[Check::Connect]]))],
                "Net.guard",
            )
        };
        let (report, findings) = diff_both_ways(
            (
                vec![checked("A.x()"), checked("B.y()")],
                vec![unchecked("A.x()"), checked("B.y()")],
            ),
            (
                vec![unchecked("A.x()"), checked("B.y()")],
                vec![unchecked("A.x()"), unchecked("B.y()")],
            ),
        );
        assert!(findings);
        assert!(report.contains("intraprocedural cause"), "{report}");
    }

    #[test]
    fn listing_counts_match_render_analysis() {
        // Bottom (no-path) events still count one may policy each; a
        // multi-path event counts one per path.
        let lib = library(
            "lib",
            vec![
                entry(
                    "Z.last()",
                    vec![
                        (EventKey::ApiReturn, EventPolicy::default()),
                        (
                            native("open0"),
                            policy(&[&[Check::Read], &[Check::Write], &[]]),
                        ),
                    ],
                    "Z.guard",
                ),
                entry(
                    "A.first()",
                    vec![(native("x"), EventPolicy::default())],
                    "-",
                ),
                unchecked("M.mid()"),
                entry(
                    "B.second()",
                    vec![(native("exit0"), policy(&[&[Check::Exit]]))],
                    "B.guard",
                ),
            ],
        );
        let bytes = compile("lib", &lib, &lib);
        let index = spo_index::PolicyIndex::parse(&bytes).expect("index parses");
        let listing = index.render_full().expect("listing decodes");
        assert_eq!(listing, spo_core::render_analysis(&lib));
        assert!(
            listing.ends_with("# 4 entry points, 2 with checks, 7 may / 5 must policies\n"),
            "{listing}"
        );
    }

    #[test]
    fn group_representative_is_the_first_signature() {
        // Many entries share one root key (delta Connect, Net.guard) but
        // carry different evidence; the report shows the evidence of the
        // signature-first manifestation, whatever the root-key order.
        let lefts: Vec<EntryPolicy> = (0..12)
            .map(|i| {
                let paths: &[&[Check]] = if i % 2 == 0 {
                    &[&[Check::Connect]]
                } else {
                    &[&[Check::Connect], &[]]
                };
                entry(
                    &format!("C{i:02}.m()"),
                    vec![(native("connect0"), policy(paths))],
                    "Net.guard",
                )
            })
            .collect();
        let rights: Vec<EntryPolicy> = (0..12)
            .map(|i| unchecked(&format!("C{i:02}.m()")))
            .collect();
        let (report, findings) = diff_both_ways(same(lefts), same(rights));
        assert!(findings);
        assert!(report.contains("(12 manifestations"), "{report}");
    }
}
