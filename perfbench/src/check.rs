//! Per-op correctness. Every op's output is compared with a reference
//! captured during set-up on a different path (the `--jobs 1` cold CLI),
//! and every diff's headline with the corpus generator's ground truth.
//! A failed check makes the op a failed op however fast it was.

use crate::inputs::{CorpusFiles, PAIRS};
use crate::proc;
use spo_corpus::{BugCatalog, Lib};
use std::collections::BTreeMap;
use std::path::Path;

/// Reference outputs of one library: the full listing, its per-entry
/// sections in listing order, and the entry-point count from its footer.
pub struct LibRef {
    pub listing: String,
    pub sections: Vec<(String, String)>,
    pub entry_points: u64,
}

impl LibRef {
    pub fn from_listing(listing: String) -> Result<LibRef, String> {
        let sections = split_sections(&listing);
        let footer = listing.lines().last().unwrap_or_default();
        let entry_points = footer
            .strip_prefix("# ")
            .and_then(|f| f.split(' ').next())
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| format!("listing footer `{footer}` has no entry-point count"))?;
        if sections.is_empty() {
            return Err("reference listing has no entry points".to_owned());
        }
        Ok(LibRef {
            listing,
            sections,
            entry_points,
        })
    }
}

/// Splits an analysis listing into `(signature, section)` pairs: each
/// section runs from its `entry SIG` line to the next one, the footer
/// excluded — exactly what a single-entry query prints.
pub fn split_sections(listing: &str) -> Vec<(String, String)> {
    let mut out: Vec<(String, String)> = Vec::new();
    for line in listing.split_inclusive('\n') {
        if let Some(sig) = line.strip_prefix("entry ") {
            out.push((sig.trim_end().to_owned(), line.to_owned()));
        } else if line.starts_with("# ") {
            break;
        } else if let Some((_, section)) = out.last_mut() {
            section.push_str(line);
        }
    }
    out
}

/// What a diff of one pairing must report.
pub struct DiffRef {
    /// Distinct differences and manifestations the catalog predicts.
    pub distinct: usize,
    pub manifestations: usize,
    /// The `--jobs 1` CLI report, when the workload compares bytes.
    pub report: Option<String>,
}

impl DiffRef {
    pub fn expected_exit(&self) -> i32 {
        i32::from(self.distinct > 0)
    }
}

/// Ground truth for the pairing `(a, b)`: every vulnerability, interop
/// bug and false positive visible to it (the classification Table 3
/// makes), under the default options.
pub fn expected_diff(catalog: &BugCatalog, a: Lib, b: Lib) -> (usize, usize) {
    let exp = catalog.expected(a, b);
    let manifestations =
        exp.vulns.values().map(|v| v.1).sum::<usize>() + exp.interop.1 + exp.false_positives.1;
    (exp.total_distinct(), manifestations)
}

pub struct Reference {
    pub libs: BTreeMap<Lib, LibRef>,
    pub diffs: BTreeMap<(Lib, Lib), DiffRef>,
}

impl Reference {
    /// Captures the reference listings with `spo analyze --jobs 1` and,
    /// when `diff_bytes` is set, the reference diffs with `spo diff
    /// --jobs 1`.
    pub fn capture(
        spo: &Path,
        corpus: &CorpusFiles,
        libs: &[Lib],
        diff_bytes: bool,
        stderr: &Path,
    ) -> Result<Reference, String> {
        let prelude = path_str(&corpus.prelude);
        let mut out = BTreeMap::new();
        for &lib in libs {
            let run = proc::run(
                spo,
                &["analyze", "--jobs", "1", prelude, path_str(corpus.lib(lib))],
                stderr,
            )
            .map_err(|e| format!("reference analyze {lib}: {e}"))?;
            if run.exit.code != 0 {
                return Err(format!(
                    "reference analyze {lib} exited {}: {}",
                    run.exit.code,
                    proc::stderr_excerpt(stderr)
                ));
            }
            let listing = String::from_utf8(run.stdout).map_err(|e| e.to_string())?;
            out.insert(lib, LibRef::from_listing(listing)?);
        }
        let mut diffs = BTreeMap::new();
        for (a, b) in PAIRS {
            if !(libs.contains(&a) && libs.contains(&b)) {
                continue;
            }
            let (distinct, manifestations) = expected_diff(&corpus.catalog, a, b);
            let mut expect = DiffRef {
                distinct,
                manifestations,
                report: None,
            };
            if diff_bytes {
                let (pa, pb) = (path_str(corpus.lib(a)), path_str(corpus.lib(b)));
                let run = proc::run(
                    spo,
                    &["diff", "--jobs", "1", prelude, pa, "--vs", prelude, pb],
                    stderr,
                )
                .map_err(|e| format!("reference diff {a}/{b}: {e}"))?;
                expect.report = Some(String::from_utf8(run.stdout).map_err(|e| e.to_string())?);
            }
            diffs.insert((a, b), expect);
        }
        Ok(Reference { libs: out, diffs })
    }

    /// Entry points per library, for drawing queries.
    pub fn entry_counts(&self) -> BTreeMap<Lib, usize> {
        self.libs
            .iter()
            .map(|(&l, r)| (l, r.sections.len()))
            .collect()
    }
}

pub fn path_str(p: &Path) -> &str {
    p.to_str().expect("work paths are UTF-8")
}

/// Byte-for-byte comparison with a reference, naming the first
/// differing offset.
pub fn same_bytes(got: &[u8], want: &[u8]) -> Result<(), String> {
    if got == want {
        return Ok(());
    }
    let at = got
        .iter()
        .zip(want)
        .position(|(a, b)| a != b)
        .unwrap_or(got.len().min(want.len()));
    Err(format!(
        "report differs from the reference at byte {at} ({} bytes, reference {})",
        got.len(),
        want.len()
    ))
}

pub fn check_exit(got: i32, want: i32) -> Result<(), String> {
    if got == want {
        Ok(())
    } else {
        Err(format!("exit code {got}, expected {want}"))
    }
}

/// Reads `X vs Y: D distinct difference(s), M manifestation(s)`.
pub fn diff_headline(report: &str) -> Option<(usize, usize)> {
    let line = report.lines().next()?;
    let (_, counts) = line.split_once(": ")?;
    let mut nums = counts
        .split(|c: char| !c.is_ascii_digit())
        .filter(|s| !s.is_empty())
        .map(|s| s.parse::<usize>());
    Some((nums.next()?.ok()?, nums.next()?.ok()?))
}

/// A diff is right when its exit code says whether there were findings
/// and its headline counts match the catalog.
pub fn check_diff(exit: i32, report: &str, expect: &DiffRef) -> Result<(), String> {
    check_exit(exit, expect.expected_exit())?;
    match diff_headline(report) {
        Some((d, m)) if (d, m) == (expect.distinct, expect.manifestations) => Ok(()),
        Some((d, m)) => Err(format!(
            "diff reports {d} distinct / {m} manifestations, the catalog expects {} / {}",
            expect.distinct, expect.manifestations
        )),
        None => Err("diff report has no headline".to_owned()),
    }
}

/// The CLI names the sides `left` and `right`; the daemon names them by
/// library, in the headline and in each group's per-side evidence lines.
/// Everything else must match byte for byte.
pub fn rename_sides(cli_report: &str, a: Lib, b: Lib) -> String {
    let mut out = String::with_capacity(cli_report.len());
    for (i, line) in cli_report.split_inclusive('\n').enumerate() {
        let renamed = if i == 0 {
            line.strip_prefix("left vs right")
                .map(|rest| format!("{a} vs {b}{rest}"))
        } else if let Some(rest) = line.strip_prefix("    left: ") {
            Some(format!("    {a}: {rest}"))
        } else {
            line.strip_prefix("    right: ")
                .map(|rest| format!("    {b}: {rest}"))
        };
        out.push_str(renamed.as_deref().unwrap_or(line));
    }
    out
}

/// Counts attempted and failed ops, keeping the first few failure
/// messages.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Tally {
    pub fn record(&mut self, what: &str, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failures.len() < 8 {
                self.failures.push(format!("{what}: {e}"));
            }
        }
    }

    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LISTING: &str = "entry a.B.m()\n  MUST check: {}  Event: API return\nentry a.C.n(int)\n  MUST check: {checkRead}  Event: API return\n  MAY  check: {{checkRead}}  Event: API return\n# 9 entry points, 2 with checks, 1 may / 2 must policies\n";

    #[test]
    fn listing_splits_into_query_sized_sections() {
        let r = LibRef::from_listing(LISTING.to_owned()).unwrap();
        assert_eq!(r.entry_points, 9);
        assert_eq!(r.sections.len(), 2);
        assert_eq!(r.sections[0].0, "a.B.m()");
        assert_eq!(
            r.sections[1].1,
            "entry a.C.n(int)\n  MUST check: {checkRead}  Event: API return\n  MAY  check: {{checkRead}}  Event: API return\n"
        );
        let joined: String = r.sections.iter().map(|(_, s)| s.as_str()).collect();
        assert!(LISTING.starts_with(&joined));
    }

    #[test]
    fn one_flipped_byte_is_a_failed_op() {
        let want = LISTING.as_bytes();
        let mut got = want.to_vec();
        got[17] ^= 0x01;
        let mut tally = Tally::default();
        tally.record("analyze jdk", same_bytes(want, want));
        tally.record("analyze jdk", same_bytes(&got, want));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(
            tally.failures[0].contains("byte 17"),
            "{}",
            tally.failures[0]
        );
    }

    #[test]
    fn diff_checks_exit_code_and_catalog_counts() {
        let expect = DiffRef {
            distinct: 19,
            manifestations: 54,
            report: None,
        };
        let report = "left vs right: 19 distinct difference(s), 54 manifestation(s)\n\n[1] ...\n";
        assert_eq!(diff_headline(report), Some((19, 54)));
        assert!(check_diff(1, report, &expect).is_ok());
        assert!(check_diff(0, report, &expect).is_err(), "wrong exit code");
        let off = report.replace("54 manif", "53 manif");
        assert!(
            check_diff(1, &off, &expect).is_err(),
            "wrong manifestation count"
        );
        let group = "\n[1] x\n    left: must {} may {}\n    right: must {a} may {{a}}\n";
        assert_eq!(
            rename_sides(&format!("{report}{group}"), Lib::Jdk, Lib::Harmony),
            format!(
                "{}{}",
                report.replace("left vs right", "jdk vs harmony"),
                "\n[1] x\n    jdk: must {} may {}\n    harmony: must {a} may {{a}}\n"
            )
        );
    }
}
