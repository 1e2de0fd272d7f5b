//! The synthetic three-implementation library generator.
//!
//! Emits three interoperable "implementations" (`jdk`, `harmony`,
//! `classpath`) of a Java-class-library-like API as `.jir` text:
//!
//! * **background mass** — thousands of entry points per visibility group
//!   with realistic patterns (field getters/setters, shared utility call
//!   chains with fan-out that memoization collapses, native leaf calls, and
//!   a small fraction of security-checked entries), identical across the
//!   implementations that share them;
//! * **figure scenarios** — the paper's code examples
//!   ([`figures`](crate::figures));
//! * **injected inconsistencies** — a fixed plan of vulnerabilities,
//!   interoperability bugs, false positives, and ICP-only near-misses whose
//!   per-pairing distinct/manifestation counts reproduce Table 3
//!   (see `bug_plans`).
//!
//! Generation is deterministic for a given [`CorpusConfig`].

use crate::catalog::{BugCatalog, BugCategory, BugKind, BugRecord};
use crate::figures::{ALL_FIGURES, FP_GET_PROPERTY};
use crate::lib_id::{Group, Lib};
use spo_core::Check;
use spo_rng::SmallRng;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Corpus generation parameters.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CorpusConfig {
    /// RNG seed; the corpus is a pure function of the config.
    pub seed: u64,
    /// Scale factor on the background entry-point counts. `1.0`
    /// approximates the paper's library sizes (≈6,000 entry points per
    /// implementation); tests use small fractions. Injected bugs are not
    /// scaled.
    pub scale: f64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0x5350_4f31,
            scale: 1.0,
        }
    }
}

impl CorpusConfig {
    /// A small corpus for unit/integration tests (bugs intact, little
    /// background mass).
    pub fn test_sized() -> Self {
        CorpusConfig {
            scale: 0.02,
            ..Default::default()
        }
    }
}

/// A generated corpus: one program per implementation plus ground truth.
#[derive(Debug)]
pub struct Corpus {
    /// The configuration that produced this corpus.
    pub config: CorpusConfig,
    /// Generated `.jir` source per implementation (prelude and figures not
    /// included; useful for size metrics).
    pub sources: BTreeMap<Lib, String>,
    /// Parsed programs (prelude + figures + generated source).
    pub programs: BTreeMap<Lib, spo_jir::Program>,
    /// Ground-truth labels for every injected inconsistency.
    pub catalog: BugCatalog,
}

impl Corpus {
    /// The program for one implementation.
    pub fn program(&self, lib: Lib) -> &spo_jir::Program {
        &self.programs[&lib]
    }

    /// The `.jir` text of one implementation as `gencorpus` writes it to
    /// `<lib>.jir`: the paper's figures, then the generated classes. The
    /// prelude is a separate file, layered underneath.
    pub fn library_source(&self, lib: Lib) -> String {
        let mut src = String::new();
        for fig in ALL_FIGURES.iter().chain([&FP_GET_PROPERTY]) {
            if let Some(s) = fig.source(lib) {
                src.push_str(s);
                src.push('\n');
            }
        }
        src.push_str(&self.sources[&lib]);
        src
    }

    /// Non-comment, non-blank source lines per implementation (prelude and
    /// figure code included) — the corpus analogue of Table 1's
    /// "Non-comment lines of code".
    pub fn loc(&self, lib: Lib) -> usize {
        let mut total = count_loc(&crate::prelude_source());
        for fig in ALL_FIGURES.iter().chain([&FP_GET_PROPERTY]) {
            if let Some(src) = fig.source(lib) {
                total += count_loc(src);
            }
        }
        total + count_loc(&self.sources[&lib])
    }
}

fn count_loc(src: &str) -> usize {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//"))
        .count()
}

/// Background entry-point targets per visibility group at scale 1.0,
/// chosen so per-implementation totals and per-pairing matching-API counts
/// land near Table 1/Table 3 (≈6,008 / 5,835 / 4,563 entries; ≈4,161–4,758
/// matching).
const GROUP_TARGETS: [(Group, usize); 7] = [
    (Group::All, 4100),
    (Group::JdkHarmony, 290),
    (Group::JdkClasspath, 420),
    (Group::ClasspathHarmony, 10),
    (Group::JdkOnly, 950),
    (Group::HarmonyOnly, 1370),
    (Group::ClasspathOnly, 10),
];

const PACKAGES: [&str; 8] = [
    "net", "io", "lang", "util", "security", "text", "nio", "crypto",
];

/// Checks drawn on by the background checked-entry patterns. Disjoint from
/// the checks the bug plan uses for deltas, so background noise cannot
/// collide with an injected bug's root key.
const BACKGROUND_CHECKS: [Check; 4] =
    [Check::Permission, Check::Read, Check::Write, Check::Connect];

/// Generates the corpus.
///
/// # Panics
///
/// Panics if generated sources fail to parse — a bug in this crate, caught
/// by its tests.
pub fn generate(config: &CorpusConfig) -> Corpus {
    let mut sources: BTreeMap<Lib, String> = Lib::ALL
        .iter()
        .map(|&l| (l, String::with_capacity(1 << 20)))
        .collect();

    // Background mass: identical text appended to every member of a group.
    let mut rng = SmallRng::seed_from_u64(config.seed);
    let depth = util_depth(config.scale);
    for (group, target) in GROUP_TARGETS {
        let n = ((target as f64) * config.scale).round() as usize;
        let text = emit_background(group, n.max(1), depth, &mut rng);
        for lib in Lib::ALL {
            if group.contains(lib) {
                sources.get_mut(&lib).unwrap().push_str(&text);
            }
        }
    }

    // Injected inconsistencies.
    let mut catalog = BugCatalog::default();
    for plan in bug_plans() {
        emit_bug(&plan, &mut sources);
        catalog.bugs.push(plan.into_record());
    }
    catalog.bugs.extend(figure_records());
    emit_figure_wrappers(&mut sources);

    // Assemble programs: prelude + figures + generated text.
    let mut programs = BTreeMap::new();
    for lib in Lib::ALL {
        let mut p = crate::prelude_program();
        for fig in ALL_FIGURES.iter().chain([&FP_GET_PROPERTY]) {
            if let Some(src) = fig.source(lib) {
                spo_jir::parse_into(src, &mut p)
                    .unwrap_or_else(|e| panic!("{} {lib}: {e}", fig.name));
            }
        }
        spo_jir::parse_into(&sources[&lib], &mut p)
            .unwrap_or_else(|e| panic!("generated {lib} source: {e}"));
        programs.insert(lib, p);
    }

    Corpus {
        config: *config,
        sources,
        programs,
        catalog,
    }
}

// ---------------------------------------------------------------------------
// Background emission
// ---------------------------------------------------------------------------

/// Utility-chain depth as a function of scale. Scale ≤ 1 keeps the
/// historical depth of 8 (sources at those scales stay byte-identical);
/// above that, depth grows logarithmically so `SPO_SCALE=10` reaches
/// Table-1-order call-graph depth (~21) without quadratic source blowup.
fn util_depth(scale: f64) -> usize {
    if scale <= 1.0 {
        8
    } else {
        ((8.0 + 4.0 * scale.log2()).round() as usize).min(32)
    }
}

fn emit_background(group: Group, n: usize, depth: usize, rng: &mut SmallRng) -> String {
    let mut out = String::new();
    let tag = group.tag();
    // Shared per-package utility layer with call fan-out: u0 calls u1
    // twice, u1 calls u2 twice, ... — a diamond-rich call DAG whose
    // re-analysis cost memoization collapses (Table 2). Levels past the
    // diamond head (j ≥ 5) chain with fan-out 1 down to the leaf at
    // `depth - 1`, so deeper corpora cost linearly more frames per cone.
    for pkg in PACKAGES {
        writeln!(out, "class gen.{tag}.{pkg}.Util {{").unwrap();
        for j in 0..depth {
            writeln!(out, "  method public static int u{j}(int x) {{").unwrap();
            writeln!(out, "    local int a, b;").unwrap();
            writeln!(out, "    a = x + {j};").unwrap();
            if j < 5 {
                writeln!(
                    out,
                    "    b = staticinvoke gen.{tag}.{pkg}.Util.u{}(a);",
                    j + 1
                )
                .unwrap();
                writeln!(
                    out,
                    "    b = staticinvoke gen.{tag}.{pkg}.Util.u{}(a);",
                    j + 1
                )
                .unwrap();
            } else if j < depth - 1 {
                writeln!(
                    out,
                    "    b = staticinvoke gen.{tag}.{pkg}.Util.u{}(a);",
                    j + 1
                )
                .unwrap();
            } else {
                writeln!(out, "    b = a * 2;").unwrap();
            }
            writeln!(out, "    return b;").unwrap();
            writeln!(out, "  }}").unwrap();
        }
        writeln!(out, "}}").unwrap();
    }

    let mut entries_left = n;
    let mut class_idx = 0usize;
    while entries_left > 0 {
        let in_class = entries_left.min(8);
        entries_left -= in_class;
        let pkg = PACKAGES[class_idx % PACKAGES.len()];
        writeln!(out, "class gen.{tag}.{pkg}.C{class_idx} {{").unwrap();
        for f in 0..3 {
            writeln!(out, "  field private int f{f};").unwrap();
        }
        for k in 0..in_class {
            emit_background_entry(&mut out, tag, pkg, class_idx, k, rng);
        }
        writeln!(out, "}}").unwrap();
        class_idx += 1;
    }
    out
}

fn emit_background_entry(
    out: &mut String,
    tag: &str,
    pkg: &str,
    class_idx: usize,
    k: usize,
    rng: &mut SmallRng,
) {
    let roll: u32 = rng.gen_range(0..100);
    if roll < 50 {
        // Field getter/setter: API-return event touching private state.
        writeln!(out, "  method public int m{k}(int x) {{").unwrap();
        writeln!(out, "    local int v;").unwrap();
        writeln!(out, "    this.f{} = x;", k % 3).unwrap();
        writeln!(out, "    v = this.f{};", k % 3).unwrap();
        writeln!(out, "    return v;").unwrap();
        writeln!(out, "  }}").unwrap();
    } else if roll < 78 {
        // Utility chain: interprocedural mass.
        let u = rng.gen_range(0..3);
        writeln!(out, "  method public int m{k}(int x) {{").unwrap();
        writeln!(out, "    local int v;").unwrap();
        writeln!(out, "    v = staticinvoke gen.{tag}.{pkg}.Util.u{u}(x);").unwrap();
        writeln!(out, "    return v;").unwrap();
        writeln!(out, "  }}").unwrap();
    } else if roll < 89 {
        // Unchecked native leaf.
        writeln!(out, "  method public void m{k}() {{").unwrap();
        writeln!(
            out,
            "    staticinvoke gen.{tag}.{pkg}.C{class_idx}.nat{k}();"
        )
        .unwrap();
        writeln!(out, "    return;").unwrap();
        writeln!(out, "  }}").unwrap();
        writeln!(out, "  method private static native void nat{k}();").unwrap();
    } else if roll < 96 {
        // Protected helper-style entry (protected methods are entry points
        // too).
        writeln!(out, "  method protected int m{k}(int x, int y) {{").unwrap();
        writeln!(out, "    local int v;").unwrap();
        writeln!(out, "    v = x + y;").unwrap();
        writeln!(out, "    return v;").unwrap();
        writeln!(out, "  }}").unwrap();
    } else {
        // Security-checked entry; identical in every implementation that
        // has it, so it never produces a difference.
        let check = BACKGROUND_CHECKS[rng.gen_range(0..BACKGROUND_CHECKS.len())];
        let args = check_args(check);
        let shape: u32 = rng.gen_range(0..3);
        writeln!(out, "  method public void m{k}(bool c) {{").unwrap();
        writeln!(out, "    local java.lang.SecurityManager sm;").unwrap();
        writeln!(
            out,
            "    sm = staticinvoke java.lang.System.getSecurityManager();"
        )
        .unwrap();
        match shape {
            0 => {
                // Unconditional: a must policy.
                writeln!(out, "    virtualinvoke sm.{}({args});", check.method_name()).unwrap();
            }
            1 => {
                // Guarded: a may policy.
                writeln!(out, "    if sm == null goto go;").unwrap();
                writeln!(out, "    virtualinvoke sm.{}({args});", check.method_name()).unwrap();
                writeln!(out, "  go:").unwrap();
                writeln!(out, "    nop;").unwrap();
            }
            _ => {
                // Disjunctive: different checks on alternative paths.
                let other = BACKGROUND_CHECKS
                    [(rng.gen_range(0..BACKGROUND_CHECKS.len() - 1) + 1) % BACKGROUND_CHECKS.len()];
                writeln!(out, "    if c goto alt;").unwrap();
                writeln!(out, "    virtualinvoke sm.{}({args});", check.method_name()).unwrap();
                writeln!(out, "    goto go;").unwrap();
                writeln!(out, "  alt:").unwrap();
                writeln!(
                    out,
                    "    virtualinvoke sm.{}({});",
                    other.method_name(),
                    check_args(other)
                )
                .unwrap();
                writeln!(out, "  go:").unwrap();
                writeln!(out, "    nop;").unwrap();
            }
        }
        writeln!(
            out,
            "    staticinvoke gen.{tag}.{pkg}.C{class_idx}.nat{k}();"
        )
        .unwrap();
        writeln!(out, "    return;").unwrap();
        writeln!(out, "  }}").unwrap();
        writeln!(out, "  method private static native void nat{k}();").unwrap();
    }
}

fn check_args(check: Check) -> String {
    vec!["null"; check.argc() as usize].join(", ")
}

// ---------------------------------------------------------------------------
// Injected bugs
// ---------------------------------------------------------------------------

/// Whether a bug site is a shared internal method (interprocedural root
/// cause) or written directly inside its entry point (intraprocedural).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum SiteStyle {
    Helper,
    Inline,
}

struct BugPlan {
    id: &'static str,
    buggy: Lib,
    category: BugCategory,
    kind: BugKind,
    base_checks: &'static [Check],
    wrappers: &'static [(Group, usize)],
    style: SiteStyle,
}

impl BugPlan {
    fn into_record(self) -> BugRecord {
        let culprit = match self.style {
            SiteStyle::Helper => format!("gen.bug.{}.Impl.{}", self.id, self.site_method()),
            SiteStyle::Inline => {
                let (group, _) = self.wrappers[0];
                format!("gen.bug.{}.W{}.w0", self.id, group.tag())
            }
        };
        BugRecord {
            id: self.id.to_owned(),
            buggy_lib: self.buggy,
            category: self.category,
            kind: self.kind,
            culprit,
            wrappers: self.wrappers.to_vec(),
            broad_only: false,
        }
    }

    fn site_method(&self) -> &'static str {
        if matches!(self.kind, BugKind::IcpGuard(_)) {
            "guarded"
        } else {
            "doWork"
        }
    }
}

/// The full injection plan. Distinct-bug and manifestation counts per
/// pairing reproduce Table 3; see DESIGN.md for the accounting.
#[allow(clippy::too_many_lines)]
fn bug_plans() -> Vec<BugPlan> {
    use BugCategory::{FalsePositive, IcpOnly, Interop, Vulnerability};
    use BugKind::{
        DropAllChecks, DropCheck, ExtraCheck, IcpGuard, MustMayDowngrade, PrivilegedChecks,
        WrongCheck,
    };
    use Check as C;
    use Group::{All, ClasspathHarmony as CH, JdkClasspath as JC, JdkHarmony as JH};
    use Lib::{Classpath, Harmony, Jdk};
    use SiteStyle::{Helper, Inline};

    let plan = |id, buggy, category, kind, base_checks, wrappers, style| BugPlan {
        id,
        buggy,
        category,
        kind,
        base_checks,
        wrappers,
        style,
    };
    vec![
        // --- JDK vulnerabilities: checks inside privileged blocks (§6.2).
        plan(
            "jv1",
            Jdk,
            Vulnerability,
            PrivilegedChecks,
            &[C::CreateClassLoader],
            &[(JC, 4)],
            Helper,
        ),
        plan(
            "jv2",
            Jdk,
            Vulnerability,
            PrivilegedChecks,
            &[C::SetFactory],
            &[(JC, 4)],
            Helper,
        ),
        plan(
            "jv3",
            Jdk,
            Vulnerability,
            PrivilegedChecks,
            &[C::PropertiesAccess],
            &[(JC, 5)],
            Helper,
        ),
        plan(
            "jv4",
            Jdk,
            Vulnerability,
            PrivilegedChecks,
            &[C::Delete],
            &[(JC, 5)],
            Helper,
        ),
        plan(
            "jv5",
            Jdk,
            Vulnerability,
            PrivilegedChecks,
            &[C::Exec],
            &[(JH, 2)],
            Helper,
        ),
        // --- Harmony vulnerabilities (plus Figures 1 and 6).
        plan(
            "hv1",
            Harmony,
            Vulnerability,
            DropCheck(C::Listen),
            &[C::Listen],
            &[(All, 2), (CH, 1)],
            Helper,
        ),
        plan(
            "hv2",
            Harmony,
            Vulnerability,
            DropCheck(C::PackageAccess),
            &[C::PackageAccess],
            &[(All, 2), (CH, 1)],
            Helper,
        ),
        plan(
            "hv3",
            Harmony,
            Vulnerability,
            DropCheck(C::Write),
            &[C::Write, C::Read],
            &[(All, 2), (CH, 2)],
            Helper,
        ),
        plan(
            "hv4",
            Harmony,
            Vulnerability,
            DropAllChecks,
            &[C::AccessGroup],
            &[(JH, 2)],
            Helper,
        ),
        // --- Classpath vulnerabilities (plus Figure 7).
        plan(
            "cv1",
            Classpath,
            Vulnerability,
            DropCheck(C::Read),
            &[C::Read],
            &[(All, 2)],
            Helper,
        ),
        plan(
            "cv2",
            Classpath,
            Vulnerability,
            DropCheck(C::Connect),
            &[C::Connect, C::Accept],
            &[(All, 2)],
            Helper,
        ),
        plan(
            "cv3",
            Classpath,
            Vulnerability,
            DropAllChecks,
            &[C::PropertyAccess],
            &[(All, 2)],
            Helper,
        ),
        plan(
            "cv4",
            Classpath,
            Vulnerability,
            PrivilegedChecks,
            &[C::MemberAccess],
            &[(All, 2)],
            Helper,
        ),
        plan(
            "cv5",
            Classpath,
            Vulnerability,
            DropCheck(C::Multicast),
            &[C::Multicast],
            &[(JC, 5)],
            Helper,
        ),
        plan(
            "cv6",
            Classpath,
            Vulnerability,
            DropAllChecks,
            &[C::Link],
            &[(JC, 6)],
            Helper,
        ),
        plan(
            "cv7",
            Classpath,
            Vulnerability,
            DropCheck(C::TopLevelWindow),
            &[C::TopLevelWindow],
            &[(JC, 1)],
            Inline,
        ),
        // --- Interoperability bugs (plus Figure 8).
        plan(
            "ji1",
            Jdk,
            Interop,
            ExtraCheck(C::AwtEventQueueAccess),
            &[C::Read],
            &[(All, 2)],
            Helper,
        ),
        plan(
            "ji2",
            Jdk,
            Interop,
            ExtraCheck(C::PrintJobAccess),
            &[C::Write],
            &[(All, 3)],
            Helper,
        ),
        plan(
            "hi1",
            Harmony,
            Interop,
            ExtraCheck(C::SystemClipboardAccess),
            &[C::Read],
            &[(All, 5), (CH, 35)],
            Helper,
        ),
        plan(
            "hi2",
            Harmony,
            Interop,
            ExtraCheck(C::PackageDefinition),
            &[C::Connect],
            &[(All, 5), (CH, 35)],
            Helper,
        ),
        plan(
            "hi3",
            Harmony,
            Interop,
            ExtraCheck(C::MulticastTtl),
            &[C::Multicast],
            &[(All, 5), (CH, 30)],
            Helper,
        ),
        plan(
            "hi4",
            Harmony,
            Interop,
            ExtraCheck(C::ReadFd),
            &[C::Read],
            &[(JH, 7)],
            Helper,
        ),
        plan(
            "hi5",
            Harmony,
            Interop,
            ExtraCheck(C::WriteFd),
            &[C::Write],
            &[(JH, 6)],
            Helper,
        ),
        plan(
            "hi6",
            Harmony,
            Interop,
            MustMayDowngrade(C::SecurityAccess),
            &[C::SecurityAccess],
            &[(JH, 5)],
            Helper,
        ),
        plan(
            "ci1",
            Classpath,
            Interop,
            ExtraCheck(C::ConnectContext),
            &[C::Connect],
            &[(JC, 108)],
            Helper,
        ),
        plan(
            "ci2",
            Classpath,
            Interop,
            ExtraCheck(C::ReadContext),
            &[C::Read],
            &[(JC, 108)],
            Helper,
        ),
        // --- False positives (plus the Security.getProperty figure).
        plan(
            "fp2",
            Harmony,
            FalsePositive,
            WrongCheck {
                expected: C::PropertyAccess,
                actual: C::PropertiesAccess,
            },
            &[C::PropertyAccess],
            &[(All, 1)],
            Helper,
        ),
        plan(
            "fp3",
            Harmony,
            FalsePositive,
            WrongCheck {
                expected: C::Access,
                actual: C::AccessGroup,
            },
            &[C::Access],
            &[(All, 1)],
            Helper,
        ),
        // --- ICP-only near-misses (plus Figure 4).
        plan(
            "icp1",
            Jdk,
            IcpOnly,
            IcpGuard(C::Permission),
            &[],
            &[(All, 8)],
            Helper,
        ),
        plan(
            "icp2",
            Harmony,
            IcpOnly,
            IcpGuard(C::PermissionContext),
            &[],
            &[(All, 12)],
            Helper,
        ),
        plan(
            "icp3",
            Classpath,
            IcpOnly,
            IcpGuard(C::MemberAccess),
            &[],
            &[(All, 25)],
            Helper,
        ),
        plan(
            "icp4",
            Jdk,
            IcpOnly,
            IcpGuard(C::Delete),
            &[],
            &[(All, 14)],
            Helper,
        ),
        plan(
            "icp5",
            Classpath,
            IcpOnly,
            IcpGuard(C::Exec),
            &[],
            &[(All, 25)],
            Helper,
        ),
    ]
}

/// Ground-truth records for the paper-figure scenarios (code lives in
/// [`figures`](crate::figures)).
fn figure_records() -> Vec<BugRecord> {
    use BugCategory::{FalsePositive, IcpOnly, Interop, Vulnerability};
    use Check as C;
    let rec = |id: &str,
               buggy,
               category,
               kind,
               culprit: &str,
               wrappers: Vec<(Group, usize)>,
               broad_only| BugRecord {
        id: id.to_owned(),
        buggy_lib: buggy,
        category,
        kind,
        culprit: culprit.to_owned(),
        wrappers,
        broad_only,
    };
    vec![
        rec(
            "fig1",
            Lib::Harmony,
            Vulnerability,
            BugKind::DropCheck(C::Accept),
            "java.net.DatagramSocket.connectInternal",
            vec![(Group::All, 1)],
            false,
        ),
        rec(
            "fig3",
            Lib::Harmony,
            Vulnerability,
            BugKind::DropCheck(C::Read),
            "hypo.Holder.a",
            vec![(Group::All, 1)],
            true,
        ),
        rec(
            "fig4",
            Lib::Harmony,
            IcpOnly,
            BugKind::IcpGuard(C::Permission),
            "java.net.URL.initFull",
            vec![(Group::All, 1)],
            false,
        ),
        rec(
            "fig5",
            Lib::Jdk,
            Vulnerability,
            BugKind::DropCheck(C::Read),
            "java.lang.RuntimeLib.loadLib",
            vec![(Group::JdkClasspath, 3)],
            false,
        ),
        rec(
            "fig6",
            Lib::Harmony,
            Vulnerability,
            BugKind::DropAllChecks,
            "java.net.URLConnection.openConnection",
            vec![(Group::JdkHarmony, 1)],
            false,
        ),
        rec(
            "fig7",
            Lib::Classpath,
            Vulnerability,
            BugKind::DropAllChecks,
            "java.net.Socket.connect",
            vec![(Group::All, 4), (Group::JdkClasspath, 36)],
            false,
        ),
        rec(
            "fig8",
            Lib::Jdk,
            Interop,
            BugKind::ExtraCheck(C::Exit),
            "java.lang.System.exit",
            vec![(Group::All, 1)],
            false,
        ),
        rec(
            "figfp",
            Lib::Harmony,
            FalsePositive,
            BugKind::WrongCheck {
                expected: C::Permission,
                actual: C::SecurityAccess,
            },
            "java.security.Security.getProperty",
            vec![(Group::All, 1)],
            false,
        ),
    ]
}

fn emit_bug(plan: &BugPlan, sources: &mut BTreeMap<Lib, String>) {
    let member_libs: Vec<Lib> = Lib::ALL
        .into_iter()
        .filter(|&l| plan.wrappers.iter().any(|(g, _)| g.contains(l)))
        .collect();
    // The site (shared internal method or inline body per wrapper).
    if plan.style == SiteStyle::Helper {
        for &lib in &member_libs {
            let text = render_impl_class(plan, lib == plan.buggy);
            sources.get_mut(&lib).unwrap().push_str(&text);
        }
    }
    // Wrappers.
    for &(group, count) in plan.wrappers {
        for &lib in &member_libs {
            if !group.contains(lib) {
                continue;
            }
            let text = match plan.style {
                SiteStyle::Helper => render_wrapper_class(plan, group, count),
                SiteStyle::Inline => render_inline_class(plan, group, count, lib == plan.buggy),
            };
            sources.get_mut(&lib).unwrap().push_str(&text);
        }
    }
}

/// Renders the shared internal site class for one implementation.
fn render_impl_class(plan: &BugPlan, buggy: bool) -> String {
    let id = plan.id;
    let mut out = String::new();
    writeln!(out, "class gen.bug.{id}.Impl {{").unwrap();
    if let BugKind::IcpGuard(check) = plan.kind {
        // Correct libs call the native directly; the differing lib routes
        // through a constant-null-guarded helper (Figure 4's shape).
        writeln!(out, "  method static void enter(int x) {{").unwrap();
        if buggy {
            writeln!(out, "    staticinvoke gen.bug.{id}.Impl.guarded(null, x);").unwrap();
        } else {
            writeln!(out, "    staticinvoke gen.bug.{id}.Impl.nat(x);").unwrap();
        }
        writeln!(out, "    return;").unwrap();
        writeln!(out, "  }}").unwrap();
        if buggy {
            writeln!(
                out,
                "  method static void guarded(java.lang.Object h, int x) {{"
            )
            .unwrap();
            writeln!(out, "    local java.lang.SecurityManager sm;").unwrap();
            writeln!(
                out,
                "    sm = staticinvoke java.lang.System.getSecurityManager();"
            )
            .unwrap();
            writeln!(out, "    if sm == null goto go;").unwrap();
            writeln!(out, "    if h == null goto go;").unwrap();
            writeln!(
                out,
                "    virtualinvoke sm.{}({});",
                check.method_name(),
                check_args(check)
            )
            .unwrap();
            writeln!(out, "  go:").unwrap();
            writeln!(out, "    staticinvoke gen.bug.{id}.Impl.nat(x);").unwrap();
            writeln!(out, "    return;").unwrap();
            writeln!(out, "  }}").unwrap();
        }
        writeln!(out, "  method private static native void nat(int x);").unwrap();
        writeln!(out, "}}").unwrap();
        return out;
    }

    writeln!(out, "  method static void doWork(int x) {{").unwrap();
    writeln!(out, "    local java.lang.SecurityManager sm;").unwrap();
    writeln!(
        out,
        "    sm = staticinvoke java.lang.System.getSecurityManager();"
    )
    .unwrap();
    render_check_block(&mut out, plan, buggy);
    writeln!(out, "    staticinvoke gen.bug.{id}.Impl.nat(x);").unwrap();
    writeln!(out, "    return;").unwrap();
    writeln!(out, "  }}").unwrap();
    writeln!(out, "  method private static native void nat(int x);").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

/// Renders the check section of a bug site, applying the plan's mutation
/// for the buggy implementation.
fn render_check_block(out: &mut String, plan: &BugPlan, buggy: bool) {
    let line = |out: &mut String, c: Check| {
        writeln!(
            out,
            "    virtualinvoke sm.{}({});",
            c.method_name(),
            check_args(c)
        )
        .unwrap();
    };
    match (plan.kind, buggy) {
        (BugKind::MustMayDowngrade(c), false) => {
            // Correct: unconditional (a must policy).
            line(out, c);
        }
        (BugKind::MustMayDowngrade(c), true) => {
            // Buggy: conditional on a parameter (a may policy).
            writeln!(out, "    if x == 0 goto go;").unwrap();
            line(out, c);
            writeln!(out, "  go:").unwrap();
            writeln!(out, "    nop;").unwrap();
        }
        (BugKind::PrivilegedChecks, true) => {
            writeln!(out, "    privileged {{").unwrap();
            for &c in plan.base_checks {
                line(out, c);
            }
            writeln!(out, "    }}").unwrap();
        }
        (BugKind::DropAllChecks, true) => {}
        (BugKind::DropCheck(dropped), true) => {
            for &c in plan.base_checks {
                if c != dropped {
                    line(out, c);
                }
            }
        }
        (BugKind::ExtraCheck(extra), true) => {
            for &c in plan.base_checks {
                line(out, c);
            }
            line(out, extra);
        }
        (BugKind::WrongCheck { expected, actual }, true) => {
            for &c in plan.base_checks {
                if c == expected {
                    line(out, actual);
                } else {
                    line(out, c);
                }
            }
        }
        // The correct implementations all perform the base checks.
        (_, false) => {
            for &c in plan.base_checks {
                line(out, c);
            }
        }
        (BugKind::IcpGuard(_), true) => unreachable!("handled in render_impl_class"),
    }
}

fn render_wrapper_class(plan: &BugPlan, group: Group, count: usize) -> String {
    let id = plan.id;
    let entry = if matches!(plan.kind, BugKind::IcpGuard(_)) {
        "enter"
    } else {
        "doWork"
    };
    let mut out = String::new();
    writeln!(out, "class gen.bug.{id}.W{} {{", group.tag()).unwrap();
    for n in 0..count {
        writeln!(out, "  method public void w{n}(int x) {{").unwrap();
        writeln!(out, "    staticinvoke gen.bug.{id}.Impl.{entry}(x);").unwrap();
        writeln!(out, "    return;").unwrap();
        writeln!(out, "  }}").unwrap();
    }
    writeln!(out, "}}").unwrap();
    out
}

/// Renders an inline bug site: each wrapper method contains the pattern
/// directly (an intraprocedural root cause).
fn render_inline_class(plan: &BugPlan, group: Group, count: usize, buggy: bool) -> String {
    let id = plan.id;
    let mut out = String::new();
    writeln!(out, "class gen.bug.{id}.W{} {{", group.tag()).unwrap();
    for n in 0..count {
        writeln!(out, "  method public void w{n}(int x) {{").unwrap();
        writeln!(out, "    local java.lang.SecurityManager sm;").unwrap();
        writeln!(
            out,
            "    sm = staticinvoke java.lang.System.getSecurityManager();"
        )
        .unwrap();
        render_check_block(&mut out, plan, buggy);
        writeln!(
            out,
            "    staticinvoke gen.bug.{id}.W{}.nat(x);",
            group.tag()
        )
        .unwrap();
        writeln!(out, "    return;").unwrap();
        writeln!(out, "  }}").unwrap();
    }
    writeln!(out, "  method private static native void nat(int x);").unwrap();
    writeln!(out, "}}").unwrap();
    out
}

/// Extra wrapper entries that call into figure APIs, giving the figure bugs
/// their Table 3 manifestation counts.
fn emit_figure_wrappers(sources: &mut BTreeMap<Lib, String>) {
    // Figure 5: two additional JDK/Classpath entries reach
    // RuntimeLib.loadLibrary.
    let fig5 = r#"
class gen.bug.fig5.Wjc {
  method public void w0(java.lang.String name) {
    local java.lang.RuntimeLib r;
    r = new java.lang.RuntimeLib;
    virtualinvoke r.loadLibrary(name);
    return;
  }
  method public void w1(java.lang.String name) {
    local java.lang.RuntimeLib r;
    r = new java.lang.RuntimeLib;
    virtualinvoke r.loadLibrary(name);
    return;
  }
}
"#;
    for lib in [Lib::Jdk, Lib::Classpath] {
        sources.get_mut(&lib).unwrap().push_str(fig5);
    }
    // Figure 7: Socket.connect is reachable from many contexts — 3 extra
    // entries shared by all, 36 shared by JDK and Classpath only.
    let mut all = String::from("class gen.bug.fig7.Wall {\n");
    for n in 0..3 {
        write!(
            all,
            "  method public void w{n}(java.net.SocketAddress ep, int t) {{\n    local java.net.Socket s;\n    s = new java.net.Socket;\n    virtualinvoke s.connect(ep, t);\n    return;\n  }}\n"
        )
        .unwrap();
    }
    all.push_str("}\n");
    for lib in Lib::ALL {
        sources.get_mut(&lib).unwrap().push_str(&all);
    }
    let mut jc = String::from("class gen.bug.fig7.Wjc {\n");
    for n in 0..36 {
        write!(
            jc,
            "  method public void w{n}(java.net.SocketAddress ep, int t) {{\n    local java.net.Socket s;\n    s = new java.net.Socket;\n    virtualinvoke s.connect(ep, t);\n    return;\n  }}\n"
        )
        .unwrap();
    }
    jc.push_str("}\n");
    for lib in [Lib::Jdk, Lib::Classpath] {
        sources.get_mut(&lib).unwrap().push_str(&jc);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_generates_and_parses() {
        let corpus = generate(&CorpusConfig::test_sized());
        for lib in Lib::ALL {
            let p = corpus.program(lib);
            assert!(p.class_count() > 50, "{lib}: {}", p.class_count());
            assert!(corpus.loc(lib) > 500);
        }
        assert!(corpus.catalog.bugs.len() > 30);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&CorpusConfig::test_sized());
        let b = generate(&CorpusConfig::test_sized());
        for lib in Lib::ALL {
            assert_eq!(a.sources[&lib], b.sources[&lib]);
        }
    }

    #[test]
    fn scale_changes_background_size_only() {
        let small = generate(&CorpusConfig {
            scale: 0.01,
            ..Default::default()
        });
        let larger = generate(&CorpusConfig {
            scale: 0.05,
            ..Default::default()
        });
        assert!(larger.sources[&Lib::Jdk].len() > small.sources[&Lib::Jdk].len());
        assert_eq!(small.catalog.bugs.len(), larger.catalog.bugs.len());
    }

    #[test]
    fn util_depth_fixed_at_or_below_scale_one_and_grows_above() {
        assert_eq!(util_depth(0.02), 8);
        assert_eq!(util_depth(1.0), 8);
        assert_eq!(util_depth(3.0), 14);
        assert_eq!(util_depth(10.0), 21);
        // Bounded, however absurd the scale.
        assert_eq!(util_depth(1e9), 32);
    }

    #[test]
    fn deep_utility_chain_emits_and_parses() {
        let mut rng = SmallRng::seed_from_u64(7);
        let depth = util_depth(10.0);
        let text = emit_background(Group::All, 4, depth, &mut rng);
        assert!(text.contains("u20"), "deepest level present");
        assert!(!text.contains("u21"), "depth bounded");
        let mut p = crate::prelude_program();
        spo_jir::parse_into(&text, &mut p).expect("deep chain parses");
    }

    #[test]
    fn expected_pairing_counts_match_table_3() {
        let corpus = generate(&CorpusConfig::test_sized());
        let cat = &corpus.catalog;
        // Classpath vs Harmony column.
        let ch = cat.expected(Lib::Classpath, Lib::Harmony);
        assert_eq!(ch.vulns[&Lib::Classpath], (5, 12));
        assert_eq!(ch.vulns[&Lib::Harmony], (4, 11));
        assert_eq!(ch.interop, (3, 115));
        assert_eq!(ch.false_positives, (3, 3));
        assert_eq!(ch.icp_eliminated.0, 4);
        // JDK vs Harmony column.
        let jh = cat.expected(Lib::Jdk, Lib::Harmony);
        assert_eq!(jh.vulns[&Lib::Jdk], (1, 2));
        assert_eq!(jh.vulns[&Lib::Harmony], (6, 10));
        assert_eq!(jh.interop, (9, 39));
        assert_eq!(jh.false_positives, (3, 3));
        assert_eq!(jh.icp_eliminated.0, 4);
        // JDK vs Classpath column.
        let jc = cat.expected(Lib::Jdk, Lib::Classpath);
        assert_eq!(jc.vulns[&Lib::Jdk], (5, 21));
        assert_eq!(jc.vulns[&Lib::Classpath], (8, 60));
        assert_eq!(jc.interop, (5, 222));
        assert_eq!(jc.false_positives, (0, 0));
        assert_eq!(jc.icp_eliminated.0, 4);
        // Totals.
        assert_eq!(cat.total_vulnerabilities(Lib::Jdk), 6);
        assert_eq!(cat.total_vulnerabilities(Lib::Harmony), 6);
        assert_eq!(cat.total_vulnerabilities(Lib::Classpath), 8);
    }
}
