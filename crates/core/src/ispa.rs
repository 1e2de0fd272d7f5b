//! The security policy analysis: SPDA (Algorithm 1) and ISPA (Algorithm 2).
//!
//! For each API entry point the analyzer computes, per security-sensitive
//! event, the checks that **may** (∪-joined, disjunctive [`Dnf`]) and
//! **must** (∩-joined [`MustSet`]) precede it. The analysis is flow- and
//! context-sensitive, propagates constants inter-procedurally through
//! parameter binding, ignores checks inside privileged regions, skips call
//! sites that do not resolve to a unique target, cuts recursion, and
//! memoizes `(method, in-policy, const-params, privileged)` summaries.

use crate::checks::{check_of_call, Check};
use crate::events::{EventDef, EventKey};
use crate::policy::{AnalysisStats, EntryPolicy, EventPolicy, LibraryPolicies};
use crate::store::{EventRec, LocalStore, MemoKey, Summary, SummaryStore};
use spo_dataflow::{
    run_forward_governed, AbsVal, ConstEnv, Dnf, FixpointStats, Flow, ForwardAnalysis, JoinLattice,
    MustSet,
};
use spo_guard::Governor;
use spo_jir::{Expr, FieldFlags, FieldRef, FieldTarget, LocalId, MethodId, Program, Stmt};
use spo_obs::{Counter, Histogram, Recorder};
use spo_resolve::{entry_points, Hierarchy, Resolution, Resolver};
use std::collections::HashMap;
use std::fmt::Debug;
use std::hash::Hash;
use std::sync::Arc;
use std::time::Instant;

/// How widely method summaries are reused (Table 2's three configurations).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum MemoScope {
    /// Never reuse: every calling context re-analyzed ("No summaries").
    None,
    /// Reuse within one entry point's analysis, cleared between entries
    /// ("Summaries (per entry point)").
    PerEntry,
    /// Reuse across the whole library ("Summaries (global)").
    #[default]
    Global,
}

/// Configuration of one analysis run.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AnalysisOptions {
    /// Summary reuse policy.
    pub memo: MemoScope,
    /// Interprocedural (and conditional intraprocedural) constant
    /// propagation: fold constant branches, bind constant arguments.
    /// Disabling reproduces the "False positives eliminated by ICP"
    /// ablation of Table 3.
    pub icp: bool,
    /// Which events are security-sensitive.
    pub events: EventDef,
    /// When `false`, calls are never followed: the intraprocedural-only
    /// ablation used to attribute root causes in Table 3.
    pub interprocedural: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        AnalysisOptions {
            memo: MemoScope::Global,
            icp: true,
            events: EventDef::Narrow,
            interprocedural: true,
        }
    }
}

/// The dataflow value carried by one of the two passes: the MAY pass uses
/// [`Dnf`], the MUST pass uses [`MustSet`]. Sealed: these are the only two
/// policy domains.
pub trait PolicyDomain: JoinLattice + Clone + Eq + Hash + Debug + private::Sealed {
    /// The value on entry to an API entry point (no checks yet, one path).
    fn entry_value() -> Self;

    /// The gen operation at a security-check statement.
    fn gen_check(&mut self, check: Check);
}

mod private {
    pub trait Sealed {}
    impl Sealed for spo_dataflow::Dnf {}
    impl Sealed for spo_dataflow::MustSet {}
}

impl PolicyDomain for Dnf {
    fn entry_value() -> Self {
        Dnf::empty_path()
    }

    fn gen_check(&mut self, check: Check) {
        self.gen(check.index());
    }
}

impl PolicyDomain for MustSet {
    fn entry_value() -> Self {
        MustSet::Set(spo_dataflow::BitSet32::empty())
    }

    fn gen_check(&mut self, check: Check) {
        self.insert(check.index());
    }
}

/// Combined per-statement dataflow state: policy ⊗ constants ⊗ privilege
/// depth.
#[derive(Clone, PartialEq, Debug)]
struct SpState<P> {
    policy: P,
    env: ConstEnv,
    priv_depth: u32,
}

impl<P: PolicyDomain> JoinLattice for SpState<P> {
    fn join(&mut self, other: &Self) -> bool {
        let a = self.policy.join(&other.policy);
        let b = self.env.join(&other.env);
        // Privileged regions are well nested, so depths agree at joins; if
        // they ever disagree, taking the max conservatively treats the
        // point as privileged (checks ignored, never over-reported).
        let c = if other.priv_depth > self.priv_depth {
            self.priv_depth = other.priv_depth;
            true
        } else {
            false
        };
        a || b || c
    }
}

/// The security policy analyzer for one program.
///
/// # Examples
///
/// ```
/// use spo_core::{Analyzer, AnalysisOptions};
///
/// let program = spo_jir::parse_program(r#"
/// class java.lang.SecurityManager {
///   method public native void checkExit(int status);
/// }
/// class java.lang.System {
///   field static java.lang.SecurityManager security;
///   method public static java.lang.SecurityManager getSecurityManager() {
///     local java.lang.SecurityManager sm;
///     sm = java.lang.System.security;
///     return sm;
///   }
/// }
/// class demo.Halt {
///   method public void stop(int code) {
///     local java.lang.SecurityManager sm;
///     sm = staticinvoke java.lang.System.getSecurityManager();
///     if sm == null goto doit;
///     virtualinvoke sm.checkExit(code);
///   doit:
///     staticinvoke demo.Halt.halt0(code);
///     return;
///   }
///   method private static native void halt0(int code);
/// }
/// "#).unwrap();
/// let analyzer = Analyzer::new(&program, AnalysisOptions::default());
/// let lib = analyzer.analyze_library("demo");
/// let entry = &lib.entries["demo.Halt.stop(int)"];
/// // checkExit may (but not must) precede the native halt0 call.
/// let ev = &entry.events[&spo_core::EventKey::Native("halt0".into())];
/// assert!(ev.may.contains(spo_core::Check::Exit));
/// assert!(!ev.must.contains(spo_core::Check::Exit));
/// ```
pub struct Analyzer<'p> {
    program: &'p Program,
    hierarchy: Hierarchy<'p>,
    options: AnalysisOptions,
    recorder: Recorder,
}

impl<'p> Analyzer<'p> {
    /// Creates an analyzer (builds the class hierarchy). Metrics are off;
    /// use [`Analyzer::with_recorder`] to collect them.
    pub fn new(program: &'p Program, options: AnalysisOptions) -> Self {
        let hierarchy = Hierarchy::new(program);
        Analyzer {
            program,
            hierarchy,
            options,
            recorder: Recorder::disabled(),
        }
    }

    /// Attaches an observability recorder: spans, counters, and fixpoint
    /// histograms from every subsequent analysis land in it. Pass
    /// [`Recorder::disabled`] (the default) for zero-overhead runs.
    pub fn with_recorder(mut self, recorder: Recorder) -> Self {
        self.recorder = recorder;
        self
    }

    /// The attached recorder (disabled unless set).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The program under analysis.
    pub fn program(&self) -> &'p Program {
        self.program
    }

    /// The analysis options.
    pub fn options(&self) -> AnalysisOptions {
        self.options
    }

    /// Analyzes every API entry point of the program with both the MAY and
    /// MUST passes and returns the merged per-entry policies.
    pub fn analyze_library(&self, name: &str) -> LibraryPolicies {
        let roots = entry_points(self.program);
        self.analyze_entries(name, &roots)
    }

    /// Analyzes the single entry point with the given signature
    /// (`Class.method(paramtypes)`), if it exists.
    ///
    /// # Examples
    ///
    /// See [`Analyzer`]'s type-level example; this is the one-entry
    /// variant of [`Analyzer::analyze_library`].
    pub fn analyze_entry(&self, signature: &str) -> Option<EntryPolicy> {
        let root = entry_points(self.program)
            .into_iter()
            .find(|&m| self.program.method_signature(m) == signature)?;
        let lib = self.analyze_entries("single", &[root]);
        lib.entries.into_values().next()
    }

    /// Analyzes a chosen set of entry points (both passes) with private
    /// serial summary stores.
    pub fn analyze_entries(&self, name: &str, roots: &[MethodId]) -> LibraryPolicies {
        let may_store = LocalStore::default();
        let must_store = LocalStore::default();
        self.analyze_entries_with(name, roots, &may_store, &must_store)
    }

    /// Analyzes a chosen set of entry points (both passes) against the
    /// given summary stores.
    ///
    /// This is the store-pluggable variant behind [`analyze_entries`]: the
    /// serial analyzer passes fresh [`LocalStore`]s, while the parallel
    /// engine passes [`SharedStore`]s so workers reuse each other's
    /// summaries. Results are identical either way — memoized summaries
    /// are pure functions of their key.
    ///
    /// [`analyze_entries`]: Analyzer::analyze_entries
    /// [`SharedStore`]: crate::SharedStore
    pub fn analyze_entries_with(
        &self,
        name: &str,
        roots: &[MethodId],
        may_store: &dyn SummaryStore<Dnf>,
        must_store: &dyn SummaryStore<MustSet>,
    ) -> LibraryPolicies {
        let mut stats = AnalysisStats {
            entry_points: roots.len(),
            ..Default::default()
        };

        let t0 = Instant::now();
        let may = self.run_pass::<Dnf>(roots, &mut stats, may_store);
        stats.may_nanos = t0.elapsed().as_nanos();
        self.recorder
            .duration("ispa.pass.may")
            .record(stats.may_nanos as u64);

        let t1 = Instant::now();
        let must = self.run_pass::<MustSet>(roots, &mut stats, must_store);
        stats.must_nanos = t1.elapsed().as_nanos();
        self.recorder
            .duration("ispa.pass.must")
            .record(stats.must_nanos as u64);
        stats.record_into(&self.recorder);

        let mut entries = std::collections::BTreeMap::new();
        for (sig, raw_may) in may {
            let entry = combine_raw(sig.clone(), raw_may, must.get(&sig));
            entries.insert(sig, entry);
        }
        LibraryPolicies {
            name: name.to_owned(),
            entries,
            stats,
            degraded: std::collections::BTreeMap::new(),
        }
    }

    /// Analyzes a single entry point (both passes) against the given
    /// summary stores, returning its signature key and policy.
    ///
    /// This is the unit of work the parallel engine fans out: each worker
    /// analyzes whole roots against shared stores and the engine merges the
    /// `(signature, policy)` pairs back in root order, reproducing the
    /// serial first-root-wins merge exactly.
    pub fn analyze_root_with(
        &self,
        root: MethodId,
        may_store: &dyn SummaryStore<Dnf>,
        must_store: &dyn SummaryStore<MustSet>,
        stats: &mut AnalysisStats,
    ) -> (String, EntryPolicy) {
        self.analyze_root_traced(root, may_store, must_store, stats, &self.recorder)
    }

    /// Like [`Analyzer::analyze_root_with`], recording metrics into an
    /// explicit recorder instead of the analyzer's own — the parallel
    /// engine hands each worker a private recorder here and merges them in
    /// worker-id order afterwards.
    ///
    /// [`Analyzer::analyze_root_with`]: Analyzer::analyze_root_with
    pub fn analyze_root_traced(
        &self,
        root: MethodId,
        may_store: &dyn SummaryStore<Dnf>,
        must_store: &dyn SummaryStore<MustSet>,
        stats: &mut AnalysisStats,
        rec: &Recorder,
    ) -> (String, EntryPolicy) {
        self.analyze_root_governed(
            root,
            may_store,
            must_store,
            stats,
            rec,
            &Governor::unlimited(),
        )
    }

    /// Like [`Analyzer::analyze_root_traced`], under a per-root
    /// [`Governor`]: every method-frame entry and worklist transfer is
    /// checked against the governor's budget and cancel token. Exhaustion
    /// raises an [`Interrupt`](spo_guard::Interrupt) unwind — callers with
    /// a non-trivial budget must run this inside
    /// [`quarantine`](spo_guard::quarantine), as the parallel engine does.
    ///
    /// [`Analyzer::analyze_root_traced`]: Analyzer::analyze_root_traced
    pub fn analyze_root_governed(
        &self,
        root: MethodId,
        may_store: &dyn SummaryStore<Dnf>,
        must_store: &dyn SummaryStore<MustSet>,
        stats: &mut AnalysisStats,
        rec: &Recorder,
        governor: &Governor,
    ) -> (String, EntryPolicy) {
        stats.entry_points += 1;

        let t0 = Instant::now();
        let raw_may = self.root_pass::<Dnf>(root, stats, may_store, rec, governor);
        let may_nanos = t0.elapsed().as_nanos();
        stats.may_nanos += may_nanos;
        rec.duration("ispa.root.may").record(may_nanos as u64);

        let t1 = Instant::now();
        let raw_must = self.root_pass::<MustSet>(root, stats, must_store, rec, governor);
        let must_nanos = t1.elapsed().as_nanos();
        stats.must_nanos += must_nanos;
        rec.duration("ispa.root.must").record(must_nanos as u64);

        let sig = self.program.method_signature(root);
        let entry = combine_raw(sig.clone(), raw_may, Some(&raw_must));
        (sig, entry)
    }

    /// Runs one pass (MAY or MUST) over all roots.
    fn run_pass<P: PolicyDomain>(
        &self,
        roots: &[MethodId],
        stats: &mut AnalysisStats,
        store: &dyn SummaryStore<P>,
    ) -> std::collections::BTreeMap<String, RawEntry<P>> {
        let resolver = Resolver::new(&self.hierarchy);
        let governor = Governor::unlimited();
        let mut pass = Pass {
            program: self.program,
            resolver,
            options: self.options,
            store,
            stack: Vec::new(),
            taint_floor: usize::MAX,
            stats,
            obs: PassObs::new(&self.recorder),
            governor: &governor,
        };
        let mut out = std::collections::BTreeMap::new();
        for &root in roots {
            if pass.options.memo == MemoScope::PerEntry {
                pass.store.clear();
            }
            let raw = pass.analyze_entry(root);
            // Protected methods can collide with public overrides on the
            // signature key across class boundaries; keep the first
            // (deterministic: roots come in program order).
            out.entry(self.program.method_signature(root))
                .or_insert(raw);
        }
        out
    }

    /// Runs one pass (MAY or MUST) over a single root.
    fn root_pass<P: PolicyDomain>(
        &self,
        root: MethodId,
        stats: &mut AnalysisStats,
        store: &dyn SummaryStore<P>,
        rec: &Recorder,
        governor: &Governor,
    ) -> RawEntry<P> {
        let resolver = Resolver::new(&self.hierarchy);
        let mut pass = Pass {
            program: self.program,
            resolver,
            options: self.options,
            store,
            stack: Vec::new(),
            taint_floor: usize::MAX,
            stats,
            obs: PassObs::new(rec),
            governor,
        };
        pass.analyze_entry(root)
    }
}

/// Zips the per-root results of the two passes into an [`EntryPolicy`].
fn combine_raw(
    sig: String,
    raw_may: RawEntry<Dnf>,
    raw_must: Option<&RawEntry<MustSet>>,
) -> EntryPolicy {
    let mut entry = EntryPolicy::new(sig);
    for (key, dnf) in raw_may.events {
        let mut ep = EventPolicy {
            may: crate::checks::CheckSet::from_bits(dnf.flat_union()),
            may_paths: dnf,
            ..Default::default()
        };
        if let Some(rm) = raw_must {
            if let Some(ms) = rm.events.get(&key) {
                ep.must = crate::checks::CheckSet::from_bits(ms.unwrap_or_empty());
            }
        }
        entry.events.insert(key, ep);
    }
    entry.event_origins = raw_may.event_origins;
    entry.check_origins = raw_may.check_origins;
    entry
}

/// Per-entry raw result of one pass.
struct RawEntry<P> {
    events: std::collections::BTreeMap<EventKey, P>,
    event_origins: std::collections::BTreeMap<EventKey, crate::policy::Origins>,
    check_origins: std::collections::BTreeMap<u8, crate::policy::Origins>,
}

/// Pre-resolved metric handles for one pass, so per-frame recording is a
/// handful of atomic adds (or no-ops when the recorder is disabled).
///
/// Frame metrics are split by *commit status* to keep the deterministic
/// sections independent of worker count and schedule:
///
/// - **committed** frames — the top frame, any frame with memoization off,
///   or the frame whose clean summary newly entered the store — flush to
///   deterministic counters/histograms. The set of inserted memo keys is
///   schedule-independent (a clean summary is a pure function of its key),
///   so these totals are byte-identical for `--jobs 1` and `--jobs 8`.
/// - **speculative** frames lost an insert race: a parallel worker
///   recomputed work another worker committed first. Work counters only.
/// - **tainted** frames were cut by recursion; how often they are recomputed
///   depends on memo state and schedule. Work counters only.
struct PassObs {
    rec: Recorder,
    frames: Counter,
    transfers: Counter,
    cfg_edges: Counter,
    calls_resolved: Counter,
    calls_unresolved: Counter,
    hist_transfers: Histogram,
    hist_repasses: Histogram,
    spec_frames: Counter,
    spec_transfers: Counter,
    tainted_frames: Counter,
    tainted_transfers: Counter,
}

impl PassObs {
    fn new(rec: &Recorder) -> Self {
        PassObs {
            rec: rec.clone(),
            frames: rec.counter("ispa.frames"),
            transfers: rec.counter("dataflow.transfers"),
            cfg_edges: rec.counter("ispa.cfg.edges"),
            calls_resolved: rec.counter("ispa.calls.resolved"),
            calls_unresolved: rec.counter("ispa.calls.unresolved"),
            hist_transfers: rec.histogram("fixpoint.transfers"),
            hist_repasses: rec.histogram("fixpoint.repasses"),
            spec_frames: rec.work_counter("ispa.speculative.frames"),
            spec_transfers: rec.work_counter("ispa.speculative.transfers"),
            tainted_frames: rec.work_counter("ispa.tainted.frames"),
            tainted_transfers: rec.work_counter("ispa.tainted.transfers"),
        }
    }

    fn flush_committed(&self, f: &FrameObs) {
        self.frames.incr();
        self.transfers.add(f.fx.transfers);
        self.cfg_edges.add(f.cfg_edges);
        self.calls_resolved.add(f.resolved);
        self.calls_unresolved.add(f.unresolved);
        self.hist_transfers.record(f.fx.transfers);
        self.hist_repasses
            .record(f.fx.transfers.saturating_sub(f.fx.visited));
    }

    fn flush_speculative(&self, f: &FrameObs) {
        self.spec_frames.incr();
        self.spec_transfers.add(f.fx.transfers);
    }

    fn flush_tainted(&self, f: &FrameObs) {
        self.tainted_frames.incr();
        self.tainted_transfers.add(f.fx.transfers);
    }
}

/// Metrics one frame collects about itself, flushed at frame end through
/// the [`PassObs`] commit protocol.
#[derive(Default)]
struct FrameObs {
    fx: FixpointStats,
    cfg_edges: u64,
    resolved: u64,
    unresolved: u64,
}

/// Mutable state of one pass over one library.
struct Pass<'a, 'p, P: PolicyDomain> {
    program: &'p Program,
    resolver: Resolver<'a>,
    options: AnalysisOptions,
    store: &'a dyn SummaryStore<P>,
    stack: Vec<MethodId>,
    /// Minimum stack position targeted by a recursion cut in the current
    /// subtree; frames deeper than this position must not be memoized
    /// (their summaries depend on the outer stack).
    taint_floor: usize,
    stats: &'a mut AnalysisStats,
    obs: PassObs,
    /// Per-root budget and cancellation state; trips (unwinds) on
    /// exhaustion. Unlimited for ungoverned runs.
    governor: &'a Governor,
}

impl<'a, 'p, P: PolicyDomain> Pass<'a, 'p, P> {
    fn analyze_entry(&mut self, root: MethodId) -> RawEntry<P> {
        let n_params = self
            .program
            .method(root)
            .body
            .as_ref()
            .map(|b| b.n_params)
            .unwrap_or_default();
        let consts = vec![AbsVal::Bottom; n_params];
        let mut summary = self.analyze_method(root, &P::entry_value(), consts, false, true);
        // A native entry point is itself a JNI event reached with no checks.
        let root_method = self.program.method(root);
        if root_method.is_native() {
            let mut with_event = Summary {
                exit: summary.exit.clone(),
                events: summary.events.clone(),
                checks: summary.checks.clone(),
            };
            with_event.events.push(EventRec {
                key: EventKey::Native(self.program.str(root_method.name).to_owned()),
                policy: P::entry_value(),
                origin: root,
            });
            summary = Arc::new(with_event);
        }
        let mut events: std::collections::BTreeMap<EventKey, P> = Default::default();
        let mut event_origins: std::collections::BTreeMap<EventKey, crate::policy::Origins> =
            Default::default();
        let mut check_origins: std::collections::BTreeMap<u8, crate::policy::Origins> =
            Default::default();
        for rec in &summary.events {
            match events.entry(rec.key.clone()) {
                std::collections::btree_map::Entry::Occupied(mut e) => {
                    e.get_mut().join(&rec.policy);
                }
                std::collections::btree_map::Entry::Vacant(v) => {
                    v.insert(rec.policy.clone());
                }
            }
            event_origins
                .entry(rec.key.clone())
                .or_default()
                .insert(self.program.method_name(rec.origin));
        }
        // The API return is itself a security-sensitive event; its policy is
        // the entry's exit value.
        events
            .entry(EventKey::ApiReturn)
            .and_modify(|p| {
                p.join(&summary.exit);
            })
            .or_insert_with(|| summary.exit.clone());
        event_origins
            .entry(EventKey::ApiReturn)
            .or_default()
            .insert(self.program.method_name(root));
        for (check, origin) in &summary.checks {
            check_origins
                .entry(check.index())
                .or_default()
                .insert(self.program.method_name(*origin));
        }
        RawEntry {
            events,
            event_origins,
            check_origins,
        }
    }

    /// Analyzes `method` in the context `(in_policy, consts, privileged)`,
    /// returning its summary. `top` marks the entry frame, which is never
    /// memoized.
    fn analyze_method(
        &mut self,
        method: MethodId,
        in_policy: &P,
        consts: Vec<AbsVal>,
        privileged: bool,
        top: bool,
    ) -> Arc<Summary<P>> {
        // Frame budget: counted before the memo lookup so the count is a
        // pure function of the root's call tree, independent of which
        // worker populated the shared store first.
        self.governor.enter_frame();
        let memo_on = self.options.memo != MemoScope::None;
        let key = MemoKey {
            method,
            policy: in_policy.clone(),
            consts: consts.clone(),
            privileged,
        };
        if !top && memo_on {
            if let Some(hit) = self.store.get(&key) {
                self.stats.memo_hits += 1;
                return hit;
            }
            self.stats.memo_misses += 1;
        }
        self.stats.frames_analyzed += 1;

        let program = self.program;
        let m = program.method(method);
        let Some(body) = m.body.as_ref() else {
            // Native/abstract target reached directly (callers normally
            // handle natives as events before getting here): identity.
            return Arc::new(Summary {
                exit: in_policy.clone(),
                events: Vec::new(),
                checks: Vec::new(),
            });
        };

        let depth = self.stack.len();
        self.stack.push(method);

        // Entry constant environment: parameters from the calling context,
        // other locals unassigned.
        let mut env = ConstEnv::top(body.locals.len());
        for (i, v) in consts.iter().enumerate().take(body.n_params) {
            env.set(
                LocalId(i as u32),
                if self.options.icp { *v } else { AbsVal::Bottom },
            );
        }

        let cfg = body.cfg_traced(&self.obs.rec);
        let governor = self.governor;
        let mut spda = Spda {
            pass: self,
            boundary: SpState {
                policy: in_policy.clone(),
                env,
                priv_depth: u32::from(privileged),
            },
            call_cache: HashMap::new(),
        };
        let (results, fx) = run_forward_governed(body, &cfg, &mut spda, governor);
        let call_cache = spda.call_cache;
        let mut fobs = FrameObs {
            fx,
            cfg_edges: if self.obs.rec.is_enabled() {
                cfg.edge_count() as u64
            } else {
                0
            },
            ..Default::default()
        };

        // Post-pass: exit value, events, and check origins at the fixpoint.
        let mut exit: Option<P> = None;
        let mut events: Vec<EventRec<P>> = Vec::new();
        let mut checks: Vec<(Check, MethodId)> = Vec::new();
        for (idx, stmt) in body.stmts.iter().enumerate() {
            let Some(st) = results.input(idx) else {
                continue;
            };
            match stmt {
                Stmt::Return { .. } => match &mut exit {
                    Some(e) => {
                        e.join(&st.policy);
                    }
                    none => *none = Some(st.policy.clone()),
                },
                Stmt::Invoke { call, .. } => {
                    if let Some(check) = check_of_call(program, call) {
                        if st.priv_depth == 0 {
                            checks.push((check, method));
                        }
                        continue;
                    }
                    match self.resolver.resolve(call) {
                        Resolution::Unique(target) => {
                            fobs.resolved += 1;
                            let tm = program.method(target);
                            if tm.is_native() {
                                events.push(EventRec {
                                    key: EventKey::Native(program.str(tm.name).to_owned()),
                                    policy: st.policy.clone(),
                                    origin: method,
                                });
                            } else if tm.body.is_some()
                                && self.options.interprocedural
                                && !self.stack.contains(&target)
                            {
                                let summary = match call_cache.get(&idx) {
                                    Some(s) => Arc::clone(s),
                                    None => {
                                        let args = call_arg_vals(call, &st.env, self.options.icp);
                                        self.analyze_method(
                                            target,
                                            &st.policy,
                                            args,
                                            st.priv_depth > 0,
                                            false,
                                        )
                                    }
                                };
                                events.extend(summary.events.iter().cloned());
                                checks.extend(summary.checks.iter().cloned());
                            }
                        }
                        Resolution::Ambiguous(_) | Resolution::Unknown => {
                            self.stats.unresolved_calls += 1;
                            fobs.unresolved += 1;
                        }
                    }
                }
                Stmt::Assign {
                    value: Expr::FieldLoad(target),
                    ..
                } if self.options.events == EventDef::Broad => {
                    if let Some(name) = self.private_field_name(target) {
                        events.push(EventRec {
                            key: EventKey::DataRead(name),
                            policy: st.policy.clone(),
                            origin: method,
                        });
                    }
                }
                Stmt::FieldStore { target, .. } if self.options.events == EventDef::Broad => {
                    if let Some(name) = self.private_field_name(target) {
                        events.push(EventRec {
                            key: EventKey::DataWrite(name),
                            policy: st.policy.clone(),
                            origin: method,
                        });
                    }
                }
                _ => {}
            }
            // Broad events: accesses to API parameters in the entry frame.
            if self.options.events == EventDef::Broad && top {
                for l in stmt.read_locals() {
                    if l.index() < body.n_params && l.index() > 0 {
                        events.push(EventRec {
                            key: EventKey::DataRead(
                                program.str(body.locals[l.index()].name).to_owned(),
                            ),
                            policy: st.policy.clone(),
                            origin: method,
                        });
                    }
                }
                if let Some(d) = stmt.def_local() {
                    if d.index() < body.n_params && d.index() > 0 {
                        events.push(EventRec {
                            key: EventKey::DataWrite(
                                program.str(body.locals[d.index()].name).to_owned(),
                            ),
                            policy: st.policy.clone(),
                            origin: method,
                        });
                    }
                }
            }
        }

        self.stack.pop();
        let summary = Arc::new(Summary {
            // Methods with no reachable return (always-throwing): identity,
            // a conservative choice exercised rarely.
            exit: exit.unwrap_or_else(|| in_policy.clone()),
            events,
            checks,
        });
        let clean = self.taint_floor >= depth;
        if clean {
            self.taint_floor = usize::MAX;
        }
        // Commit protocol: only committed frames (top frame, memo off, or
        // the insert that newly entered the store) flush to deterministic
        // metrics; race losers and recursion-tainted frames flush to
        // scheduling-dependent work counters. See [`PassObs`].
        if top || !memo_on {
            self.obs.flush_committed(&fobs);
        } else if clean {
            if self.store.insert(key, Arc::clone(&summary)) {
                self.obs.flush_committed(&fobs);
            } else {
                self.obs.flush_speculative(&fobs);
            }
        } else {
            self.obs.flush_tainted(&fobs);
        }
        summary
    }

    /// The simple name of a private field, if `target` resolves to one
    /// (searching the superclass chain).
    fn private_field_name(&self, target: &FieldTarget) -> Option<String> {
        let fr: FieldRef = target.field();
        let mut class = self.program.class_by_name(fr.class)?;
        loop {
            if let Some(fid) = self.program.find_field(class, fr.name) {
                let f = self.program.field(fid);
                return f
                    .flags
                    .contains(FieldFlags::PRIVATE)
                    .then(|| self.program.str(f.name).to_owned());
            }
            class = self.resolver.hierarchy().superclass(class)?;
        }
    }
}

/// Abstract argument values at a call site (receiver first for instance
/// calls), or all-⊥ when ICP is off.
fn call_arg_vals(call: &spo_jir::Call, env: &ConstEnv, icp: bool) -> Vec<AbsVal> {
    let n = call.args.len() + usize::from(call.receiver.is_some());
    if !icp {
        return vec![AbsVal::Bottom; n];
    }
    let mut out = Vec::with_capacity(n);
    if let Some(r) = call.receiver {
        out.push(env.get(r));
    }
    out.extend(call.args.iter().map(|&a| env.eval_operand(a)));
    out
}

/// The intraprocedural transfer functions (Algorithm 1), parameterized over
/// the policy domain and recursing into [`Pass::analyze_method`] at resolved
/// call sites (Algorithm 2's mutual recursion).
struct Spda<'s, 'a, 'p, P: PolicyDomain> {
    pass: &'s mut Pass<'a, 'p, P>,
    boundary: SpState<P>,
    /// Last summary computed per call-site statement; reused by the
    /// post-pass (the final transfer of a statement sees its fixpoint IN).
    call_cache: HashMap<usize, Arc<Summary<P>>>,
}

impl<P: PolicyDomain> ForwardAnalysis for Spda<'_, '_, '_, P> {
    type State = SpState<P>;

    fn boundary(&mut self) -> SpState<P> {
        self.boundary.clone()
    }

    fn transfer(&mut self, idx: usize, stmt: &Stmt, input: &SpState<P>) -> Flow<SpState<P>> {
        let mut out = input.clone();
        match stmt {
            Stmt::Assign { .. } => out.env.transfer(stmt),
            Stmt::EnterPriv => out.priv_depth += 1,
            Stmt::ExitPriv => out.priv_depth = out.priv_depth.saturating_sub(1),
            Stmt::If { cond, .. } => {
                let decided = if self.pass.options.icp {
                    input.env.eval_cond(cond)
                } else {
                    None
                };
                return match decided {
                    Some(true) => Flow::Branch {
                        taken: Some(out),
                        fall: None,
                    },
                    Some(false) => Flow::Branch {
                        taken: None,
                        fall: Some(out),
                    },
                    None => Flow::Branch {
                        taken: Some(out.clone()),
                        fall: Some(out),
                    },
                };
            }
            Stmt::Invoke { dst, call } => {
                if let Some(d) = dst {
                    out.env.set(*d, AbsVal::Bottom);
                }
                if let Some(check) = check_of_call(self.pass.program, call) {
                    // Checks inside privileged regions always succeed:
                    // semantic no-ops (§6.2).
                    if input.priv_depth == 0 {
                        out.policy.gen_check(check);
                    }
                    return Flow::Uniform(out);
                }
                if !self.pass.options.interprocedural {
                    return Flow::Uniform(out);
                }
                if let Resolution::Unique(target) = self.pass.resolver.resolve(call) {
                    let tm = self.pass.program.method(target);
                    if tm.body.is_some() && !tm.is_native() && !self.pass.stack.contains(&target) {
                        let args = call_arg_vals(call, &input.env, self.pass.options.icp);
                        let summary = self.pass.analyze_method(
                            target,
                            &input.policy,
                            args,
                            input.priv_depth > 0,
                            false,
                        );
                        out.policy = summary.exit.clone();
                        self.call_cache.insert(idx, summary);
                    } else if self.pass.stack.contains(&target) {
                        // Recursion cut: taint every frame deeper than the
                        // cut target so context-dependent summaries are not
                        // memoized.
                        let pos = self
                            .pass
                            .stack
                            .iter()
                            .position(|&m| m == target)
                            .expect("target just found in stack");
                        self.pass.taint_floor = self.pass.taint_floor.min(pos);
                    }
                }
            }
            _ => {}
        }
        Flow::Uniform(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks::CheckSet;

    /// Minimal runtime prelude shared by the test programs.
    const PRELUDE: &str = r#"
class java.lang.Object { }
class java.lang.SecurityManager {
  method public native void checkExit(int status);
  method public native void checkConnect(java.lang.String host, int port);
  method public native void checkAccept(java.lang.String host, int port);
  method public native void checkMulticast(java.net.InetAddress addr);
  method public native void checkRead(java.lang.String file);
  method public native void checkLink(java.lang.String lib);
  method public native void checkWrite(java.lang.String file);
  method public native void checkPermission(java.lang.Object perm);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
"#;

    fn analyze(src: &str) -> LibraryPolicies {
        analyze_opts(src, AnalysisOptions::default())
    }

    fn analyze_opts(src: &str, options: AnalysisOptions) -> LibraryPolicies {
        let mut program = spo_jir::parse_program(PRELUDE).unwrap();
        spo_jir::parse_into(src, &mut program).unwrap();
        let analyzer = Analyzer::new(&program, options);
        analyzer.analyze_library("test")
    }

    fn may_of(lib: &LibraryPolicies, sig: &str, ev: &EventKey) -> CheckSet {
        lib.entries[sig].events[ev].may
    }

    fn must_of(lib: &LibraryPolicies, sig: &str, ev: &EventKey) -> CheckSet {
        lib.entries[sig].events[ev].must
    }

    #[test]
    fn straight_line_check_is_must_and_may() {
        let lib = analyze(
            r#"
class t.A {
  method public void m() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkExit(0);
    staticinvoke t.A.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(may_of(&lib, "t.A.m()", &ev), CheckSet::of(Check::Exit));
        assert_eq!(must_of(&lib, "t.A.m()", &ev), CheckSet::of(Check::Exit));
        // The API return sees the same policy.
        assert_eq!(
            must_of(&lib, "t.A.m()", &EventKey::ApiReturn),
            CheckSet::of(Check::Exit)
        );
    }

    #[test]
    fn branch_makes_check_may_not_must() {
        let lib = analyze(
            r#"
class t.B {
  method public void m(bool cond) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if cond goto skip;
    virtualinvoke sm.checkExit(0);
  skip:
    staticinvoke t.B.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(may_of(&lib, "t.B.m(bool)", &ev), CheckSet::of(Check::Exit));
        assert_eq!(must_of(&lib, "t.B.m(bool)", &ev), CheckSet::empty());
        // The disjunctive may view has two paths: {} and {checkExit}.
        let paths = &lib.entries["t.B.m(bool)"].events[&ev].may_paths;
        assert_eq!(paths.disjuncts().len(), 2);
    }

    #[test]
    fn figure_1_disjunctive_policy() {
        // JDK DatagramSocket.connect shape: either checkMulticast, or
        // checkConnect+checkAccept, before the native connect.
        let lib = analyze(
            r#"
class t.D {
  method public void connect(java.net.InetAddress addr, int port) {
    local java.lang.SecurityManager sm;
    local bool multicast;
    sm = staticinvoke java.lang.System.getSecurityManager();
    multicast = staticinvoke t.D.isMulticast(addr);
    if multicast goto mcast;
    virtualinvoke sm.checkConnect("h", port);
    virtualinvoke sm.checkAccept("h", port);
    goto doit;
  mcast:
    virtualinvoke sm.checkMulticast(addr);
  doit:
    staticinvoke t.D.connect0(addr, port);
    return;
  }
  method private static native bool isMulticast(java.net.InetAddress addr);
  method private static native void connect0(java.net.InetAddress addr, int port);
}
"#,
        );
        let sig = "t.D.connect(java.net.InetAddress,int)";
        let ev = EventKey::Native("connect0".into());
        let policy = &lib.entries[sig].events[&ev];
        assert_eq!(policy.must, CheckSet::empty());
        assert_eq!(
            policy.may,
            [Check::Multicast, Check::Connect, Check::Accept]
                .into_iter()
                .collect()
        );
        // Exactly the Figure 2 disjuncts.
        let expected_a: CheckSet = [Check::Multicast].into_iter().collect();
        let expected_b: CheckSet = [Check::Connect, Check::Accept].into_iter().collect();
        let disjuncts: Vec<CheckSet> = policy
            .may_paths
            .disjuncts()
            .iter()
            .map(|&d| CheckSet::from_bits(d))
            .collect();
        assert_eq!(disjuncts.len(), 2);
        assert!(disjuncts.contains(&expected_a));
        assert!(disjuncts.contains(&expected_b));
    }

    #[test]
    fn interprocedural_check_reaches_event() {
        let lib = analyze(
            r#"
class t.E {
  method public void outer() {
    local t.E x;
    x = this;
    virtualinvoke x.doCheck();
    staticinvoke t.E.op0();
    return;
  }
  method private void doCheck() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("f");
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(must_of(&lib, "t.E.outer()", &ev), CheckSet::of(Check::Read));
    }

    #[test]
    fn event_inside_callee_attributed_to_entry() {
        let lib = analyze(
            r#"
class t.F {
  method public void outer() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkLink("lib");
    staticinvoke t.F.inner();
    return;
  }
  method private static void inner() {
    staticinvoke t.F.load0();
    return;
  }
  method private static native void load0();
}
"#,
        );
        let ev = EventKey::Native("load0".into());
        assert_eq!(must_of(&lib, "t.F.outer()", &ev), CheckSet::of(Check::Link));
        // Origin is the method containing the native call.
        let origins = &lib.entries["t.F.outer()"].event_origins[&ev];
        assert!(origins.contains("t.F.inner"));
    }

    #[test]
    fn privileged_checks_are_noops() {
        let lib = analyze(
            r#"
class t.G {
  method public void m() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    privileged {
      virtualinvoke sm.checkExit(0);
    }
    staticinvoke t.G.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(may_of(&lib, "t.G.m()", &ev), CheckSet::empty());
    }

    #[test]
    fn privileged_propagates_into_callees() {
        let lib = analyze(
            r#"
class t.H {
  method public void m() {
    privileged {
      staticinvoke t.H.helper();
    }
    staticinvoke t.H.op0();
    return;
  }
  method private static void helper() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkExit(0);
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(may_of(&lib, "t.H.m()", &ev), CheckSet::empty());
    }

    #[test]
    fn figure_4_context_sensitive_constants() {
        // URL(String) -> URL(URL, String, Handler=null): the null context
        // must not pick up the handler check; an unknown context must.
        let lib = analyze(
            r#"
class t.URL {
  method public void init1(java.lang.String spec) {
    local t.URL x;
    x = this;
    virtualinvoke x.init3(null, spec, null);
    return;
  }
  method public void init3(t.URL context, java.lang.String spec, t.Handler handler) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if handler == null goto skip;
    virtualinvoke sm.checkPermission(handler);
  skip:
    staticinvoke t.URL.parse0(spec);
    return;
  }
  method private static native void parse0(java.lang.String spec);
}
class t.Handler { }
"#,
        );
        let ev = EventKey::Native("parse0".into());
        // Through init1 the handler is null: no check anywhere.
        assert_eq!(
            may_of(&lib, "t.URL.init1(java.lang.String)", &ev),
            CheckSet::empty()
        );
        // Direct calls to init3 may perform the check.
        assert_eq!(
            may_of(&lib, "t.URL.init3(t.URL,java.lang.String,t.Handler)", &ev),
            CheckSet::of(Check::Permission)
        );
    }

    #[test]
    fn icp_off_reintroduces_spurious_path() {
        let src = r#"
class t.URL {
  method public void init1(java.lang.String spec) {
    local t.URL x;
    x = this;
    virtualinvoke x.init3(null, spec, null);
    return;
  }
  method public void init3(t.URL context, java.lang.String spec, t.Handler handler) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if handler == null goto skip;
    virtualinvoke sm.checkPermission(handler);
  skip:
    staticinvoke t.URL.parse0(spec);
    return;
  }
  method private static native void parse0(java.lang.String spec);
}
class t.Handler { }
"#;
        let no_icp = analyze_opts(
            src,
            AnalysisOptions {
                icp: false,
                ..Default::default()
            },
        );
        let ev = EventKey::Native("parse0".into());
        assert_eq!(
            may_of(&no_icp, "t.URL.init1(java.lang.String)", &ev),
            CheckSet::of(Check::Permission)
        );
    }

    #[test]
    fn recursion_terminates_and_is_memo_safe() {
        let src = r#"
class t.R {
  method public void m(int n) {
    local java.lang.SecurityManager sm;
    local t.R x;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkWrite("f");
    x = this;
    virtualinvoke x.rec(n);
    staticinvoke t.R.op0();
    return;
  }
  method public void rec(int n) {
    local t.R x;
    if n <= 0 goto done;
    x = this;
    virtualinvoke x.rec(n);
  done:
    return;
  }
  method private static native void op0();
}
"#;
        for memo in [MemoScope::None, MemoScope::PerEntry, MemoScope::Global] {
            let lib = analyze_opts(
                src,
                AnalysisOptions {
                    memo,
                    ..Default::default()
                },
            );
            let ev = EventKey::Native("op0".into());
            assert_eq!(
                must_of(&lib, "t.R.m(int)", &ev),
                CheckSet::of(Check::Write),
                "memo scope {memo:?}"
            );
        }
    }

    #[test]
    fn memo_scopes_agree() {
        let src = r#"
class t.S {
  method public void a() {
    staticinvoke t.S.shared(1);
    return;
  }
  method public void b() {
    staticinvoke t.S.shared(1);
    return;
  }
  method private static void shared(int x) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if x == 0 goto skip;
    virtualinvoke sm.checkExit(x);
  skip:
    staticinvoke t.S.op0();
    return;
  }
  method private static native void op0();
}
"#;
        let base = analyze_opts(
            src,
            AnalysisOptions {
                memo: MemoScope::None,
                ..Default::default()
            },
        );
        for memo in [MemoScope::PerEntry, MemoScope::Global] {
            let lib = analyze_opts(
                src,
                AnalysisOptions {
                    memo,
                    ..Default::default()
                },
            );
            for (sig, entry) in &base.entries {
                assert_eq!(
                    &lib.entries[sig].events, &entry.events,
                    "{sig} under {memo:?}"
                );
            }
        }
        // Global memo actually hits across the two entries.
        let global = analyze_opts(
            src,
            AnalysisOptions {
                memo: MemoScope::Global,
                ..Default::default()
            },
        );
        assert!(global.stats.memo_hits > 0);
    }

    #[test]
    fn unresolved_calls_are_skipped() {
        let lib = analyze(
            r#"
class t.U {
  method public void m() {
    staticinvoke unknown.Ext.boom();
    staticinvoke t.U.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        assert!(lib.entries.contains_key("t.U.m()"));
        assert!(lib.stats.unresolved_calls > 0);
    }

    #[test]
    fn broad_events_catch_figure_3() {
        // Implementation reads private fields data1/data2; checkRead only
        // dominates data2's read.
        let opts = AnalysisOptions {
            events: EventDef::Broad,
            ..Default::default()
        };
        let lib = analyze_opts(
            r#"
class t.V {
  field private java.lang.Object data1;
  field private java.lang.Object data2;
  method public java.lang.Object a(bool condition) {
    local java.lang.SecurityManager sm;
    local java.lang.Object o;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if condition goto fast;
    virtualinvoke sm.checkRead("x");
    o = this.data2;
    return o;
  fast:
    o = this.data1;
    return o;
  }
}
"#,
            opts,
        );
        let e = &lib.entries["t.V.a(bool)"];
        assert_eq!(
            e.events[&EventKey::DataRead("data1".into())].must,
            CheckSet::empty()
        );
        assert_eq!(
            e.events[&EventKey::DataRead("data2".into())].must,
            CheckSet::of(Check::Read)
        );
    }

    #[test]
    fn narrow_mode_has_no_broad_events() {
        let lib = analyze(
            r#"
class t.W {
  field private int secret;
  method public int m() {
    local int x;
    x = this.secret;
    return x;
  }
}
"#,
        );
        let e = &lib.entries["t.W.m()"];
        assert!(e.events.keys().all(|k| !k.is_broad()));
    }

    #[test]
    fn intraprocedural_mode_misses_callee_checks() {
        let src = r#"
class t.X {
  method public void outer() {
    staticinvoke t.X.inner();
    staticinvoke t.X.op0();
    return;
  }
  method private static void inner() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkExit(1);
    return;
  }
  method private static native void op0();
}
"#;
        let inter = analyze_opts(src, AnalysisOptions::default());
        let intra = analyze_opts(
            src,
            AnalysisOptions {
                interprocedural: false,
                ..Default::default()
            },
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(
            may_of(&inter, "t.X.outer()", &ev),
            CheckSet::of(Check::Exit)
        );
        assert_eq!(may_of(&intra, "t.X.outer()", &ev), CheckSet::empty());
    }

    #[test]
    fn multiple_occurrences_combine() {
        // The same native called twice: must = intersection, may = union.
        let lib = analyze(
            r#"
class t.Y {
  method public void m(bool c) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    if c goto second;
    virtualinvoke sm.checkRead("a");
    staticinvoke t.Y.op0();
    return;
  second:
    virtualinvoke sm.checkWrite("b");
    staticinvoke t.Y.op0();
    return;
  }
  method private static native void op0();
}
"#,
        );
        let ev = EventKey::Native("op0".into());
        assert_eq!(must_of(&lib, "t.Y.m(bool)", &ev), CheckSet::empty());
        assert_eq!(
            may_of(&lib, "t.Y.m(bool)", &ev),
            [Check::Read, Check::Write].into_iter().collect()
        );
    }

    #[test]
    fn recorder_collects_deterministic_pass_metrics() {
        let src = r#"
class t.O {
  method public void a() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkExit(0);
    staticinvoke t.O.shared(1);
    return;
  }
  method public void b() {
    staticinvoke t.O.shared(1);
    return;
  }
  method private static void shared(int x) {
    staticinvoke t.O.op0();
    return;
  }
  method private static native void op0();
}
"#;
        let mut program = spo_jir::parse_program(PRELUDE).unwrap();
        spo_jir::parse_into(src, &mut program).unwrap();
        let run = || {
            let rec = Recorder::new();
            let analyzer =
                Analyzer::new(&program, AnalysisOptions::default()).with_recorder(rec.clone());
            let lib = analyzer.analyze_library("test");
            (lib, rec.snapshot())
        };
        let (lib, snap) = run();
        // Both passes commit each distinct frame once: committed frames are
        // bounded by computed frames (bodyless native roots never commit).
        assert!(snap.counters["ispa.frames"] > 0);
        assert!(snap.counters["ispa.frames"] <= lib.stats.frames_analyzed as u64);
        assert!(snap.counters["dataflow.transfers"] > 0);
        assert!(snap.counters["ispa.cfg.edges"] > 0);
        assert!(snap.counters["ispa.calls.resolved"] > 0);
        assert_eq!(
            snap.histograms["fixpoint.transfers"].count,
            snap.counters["ispa.frames"]
        );
        // Work counters mirror AnalysisStats.
        assert_eq!(snap.work["ispa.memo.hits"], lib.stats.memo_hits as u64);
        assert_eq!(
            snap.work["ispa.frames_analyzed"],
            lib.stats.frames_analyzed as u64
        );
        // Pass durations were recorded.
        assert_eq!(snap.durations["ispa.pass.may"].count, 1);
        assert_eq!(snap.durations["ispa.pass.must"].count, 1);
        // Deterministic sections are stable across reruns.
        let (_, snap2) = run();
        assert_eq!(snap.deterministic_json(), snap2.deterministic_json());
        // A recorder-less run produces identical analysis results.
        let plain = Analyzer::new(&program, AnalysisOptions::default()).analyze_library("test");
        for (sig, entry) in &plain.entries {
            assert_eq!(&lib.entries[sig].events, &entry.events, "{sig}");
        }
    }

    #[test]
    fn api_return_policy_joins_all_returns() {
        let lib = analyze(
            r#"
class t.Z {
  method public void m(bool c) {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("a");
    if c goto out;
    virtualinvoke sm.checkWrite("b");
    return;
  out:
    return;
  }
}
"#,
        );
        let e = &lib.entries["t.Z.m(bool)"].events[&EventKey::ApiReturn];
        assert_eq!(e.must, CheckSet::of(Check::Read));
        assert_eq!(e.may, [Check::Read, Check::Write].into_iter().collect());
    }
}
