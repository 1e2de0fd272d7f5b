//! # spo-cache — persistent incremental summary cache
//!
//! The paper's Phase 2 (§5) makes whole-library policy extraction
//! tractable with *in-memory* method-summary memoization; this crate
//! extends the idea across process boundaries. Every API entry point's
//! finished [`EntryPolicy`] is stored on disk together with its
//! *dependency cone* and a key derived from the content of everything its
//! analysis could observe, so a later run — after an edit — re-analyzes
//! only the roots whose observable content changed and warm-starts the
//! rest, byte-identical to a cold run.
//!
//! ## Key derivation
//!
//! A root's cached policy is a pure function of:
//!
//! 1. the **key version** — bumped whenever the key derivation or the
//!    analysis semantics change (the pack layout is versioned separately
//!    by [`FORMAT_VERSION`], so a layout change leaves keys, and the
//!    `.spi` cone fingerprints built from them, untouched);
//! 2. the **analysis options** that affect results (`icp`, the event
//!    definition, interprocedurality — the memo scope is deliberately
//!    excluded because results are memo-invariant);
//! 3. the program's **structure salt** ([`spo_jir::structure_hash`]): every
//!    class declaration without bodies. Hierarchy-based resolution,
//!    devirtualization, and private-field classification read exactly this
//!    surface, so a structural edit conservatively invalidates *every*
//!    root, while a body edit invalidates none of it;
//! 4. the root's **dependency cone**: the sorted content hashes of every
//!    method reachable from the root in the call graph
//!    ([`spo_resolve::CallGraph`]) — an edit to a method body invalidates
//!    exactly the roots whose cones contain it.
//!
//! ## Warm-path validation without a call graph
//!
//! Re-deriving every cone on every warm run would cost a full call-graph
//! construction — a large fraction of a whole cold analysis. Instead, each
//! stored entry carries its cone as a list of [*method identity
//! hashes*](spo_jir::method_identity_hash), and a warm run validates it
//! against a [`ContentTable`]: one pass over the program computing each
//! method's identity and content hash. Re-keying the *stored* cone with
//! *current* content hashes is sound because the cone itself is a pure
//! function of the structure salt and the member bodies: if every stored
//! member's body and the class structure are unchanged, resolution
//! reproduces exactly the same cone, and if any of them changed, the
//! recomputed key differs and the root misses (the follow-up cold
//! analysis stores the new cone). Only missed roots ever need the call
//! graph — [`CacheKeyer`] is built over just those.
//!
//! All key hashing is [`spo_jir::Fnv64`]: seedless, platform-independent,
//! and stable across parses (it hashes resolved strings and structural
//! tags, never interned ids).
//!
//! ## Storage layout
//!
//! One *pack file* per cache directory (`policies.spc`): a text version
//! header line followed by length-prefixed binary entries, each the
//! compact encoding of one root's `(signature, key, cone, EntryPolicy)`,
//! addressed by a *root key* ([`PolicyCache::root_key`]: library name +
//! root identity, so implementations sharing signatures coexist in one
//! directory). The pack is loaded once at [`PolicyCache::open`]; lookups
//! and stores then touch only memory, and [`PolicyCache::flush`] rewrites
//! the pack atomically (temp file + `rename`) when anything changed. The
//! warm path of a run with thousands of roots therefore costs one
//! sequential read and at most one sequential write — never a syscall per
//! root.
//!
//! ## Corruption safety
//!
//! A cache can be truncated, corrupted, or written by a different version
//! at any time; none of that may panic or change results. The pack header
//! and every entry's framing are validated at load, and each entry's
//! content is re-validated at lookup; any mismatch degrades to a *cold*
//! analysis plus a [`Diagnostic`] on the `cache` phase — warnings only,
//! never an error, never an exit-code change. The next flush rewrites the
//! pack from the healthy in-memory store, healing the corruption.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spo_chaos::FaultPlan;
use spo_core::{AnalysisOptions, EntryPolicy, EventPolicy};
use spo_dataflow::{BitSet32, Dnf};
use spo_guard::{Cause, Diagnostic, Phase, Severity};
use spo_jir::{
    method_content_hash, method_identity_hash, structure_hash, Fnv64, MethodId, Program,
};
use spo_obs::trace;
use spo_resolve::{CallGraph, Hierarchy};
use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

/// The on-disk format version. Any change to the pack layout or the entry
/// serialization must bump this; old packs then read as version
/// mismatches and fall back to cold analysis.
pub const FORMAT_VERSION: u32 = 4;

/// Salts every cone key. Any change to the key derivation or the analysis
/// semantics the cached policies depend on must bump this, which
/// invalidates every stored entry and every `.spi` cone fingerprint.
const KEY_VERSION: u64 = 3;

/// Name of the pack file inside the cache directory.
pub const PACK_FILE: &str = "policies.spc";

/// Folds one cone's sorted member content hashes into a cache key.
fn fold_key(opts: &str, salt: u64, sorted_contents: &[u64]) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(KEY_VERSION);
    h.write_str(opts);
    h.write_u64(salt);
    for &content in sorted_contents {
        h.write_u64(content);
    }
    h.finish()
}

/// Renders the result-affecting analysis options into the key. The memo
/// scope is excluded: summaries are memo-invariant, so one cache serves
/// every memoization configuration. Shared with the compiled policy
/// index so both identify an options configuration by the same token.
fn options_token(options: &AnalysisOptions) -> String {
    spo_index::options_token(options)
}

/// Current identity → content hashes of every method in one program, plus
/// the structure salt and options token — everything needed to re-key a
/// *stored* cone without building a call graph.
pub struct ContentTable {
    opts: String,
    salt: u64,
    content_by_identity: HashMap<u64, u64>,
}

impl ContentTable {
    /// Hashes every method of `program` once (identity and content).
    pub fn new(program: &Program, options: &AnalysisOptions) -> ContentTable {
        ContentTable {
            opts: options_token(options),
            salt: structure_hash(program),
            content_by_identity: program
                .all_methods()
                .map(|(id, _)| {
                    (
                        method_identity_hash(program, id),
                        method_content_hash(program, id),
                    )
                })
                .collect(),
        }
    }

    /// Re-keys a stored cone against the current program: `None` if any
    /// member no longer exists (the key then cannot match and the root
    /// must re-analyze).
    pub fn key_of_cone(&self, cone: &[u64]) -> Option<u64> {
        let mut contents: Vec<u64> = cone
            .iter()
            .map(|identity| self.content_by_identity.get(identity).copied())
            .collect::<Option<_>>()?;
        contents.sort_unstable();
        Some(fold_key(&self.opts, self.salt, &contents))
    }
}

/// Derives the cache key and cone of each given root from the call graph —
/// the *store-path* keyer, built over just the roots that missed (the
/// warm path validates stored cones with a [`ContentTable`] instead).
pub struct CacheKeyer {
    roots: BTreeMap<MethodId, (u64, Vec<u64>)>,
}

impl CacheKeyer {
    /// Computes the key and sorted cone identity list for every root in
    /// `roots` over `program`.
    pub fn new(program: &Program, roots: &[MethodId], options: &AnalysisOptions) -> CacheKeyer {
        let hierarchy = Hierarchy::new(program);
        let cg = CallGraph::build(&hierarchy, roots.to_vec());
        let salt = structure_hash(program);
        let opts = options_token(options);
        // Dense re-indexing of the reachable set, then one hash pair per
        // reachable method and an epoch-stamped DFS per root with no
        // allocation inside the loop (cones overlap heavily, so per-root
        // ordered sets would allocate far more than the graph itself).
        let reachable: Vec<MethodId> = cg.reachable().collect();
        let index: HashMap<MethodId, u32> = reachable
            .iter()
            .enumerate()
            .map(|(i, &m)| (m, i as u32))
            .collect();
        let adj: Vec<Vec<u32>> = reachable
            .iter()
            .map(|&m| cg.callees(m).iter().map(|c| index[c]).collect())
            .collect();
        let contents: Vec<u64> = reachable
            .iter()
            .map(|&m| method_content_hash(program, m))
            .collect();
        let identities: Vec<u64> = reachable
            .iter()
            .map(|&m| method_identity_hash(program, m))
            .collect();
        let mut keys = BTreeMap::new();
        let mut mark: Vec<u32> = vec![u32::MAX; reachable.len()];
        let mut stack: Vec<u32> = Vec::new();
        for (epoch, &root) in roots.iter().enumerate() {
            let epoch = epoch as u32;
            let mut cone_contents: Vec<u64> = Vec::new();
            let mut cone_identities: Vec<u64> = Vec::new();
            stack.clear();
            let r = index[&root];
            mark[r as usize] = epoch;
            stack.push(r);
            while let Some(m) = stack.pop() {
                cone_contents.push(contents[m as usize]);
                cone_identities.push(identities[m as usize]);
                for &callee in &adj[m as usize] {
                    if mark[callee as usize] != epoch {
                        mark[callee as usize] = epoch;
                        stack.push(callee);
                    }
                }
            }
            cone_contents.sort_unstable();
            cone_identities.sort_unstable();
            let key = fold_key(&opts, salt, &cone_contents);
            keys.insert(root, (key, cone_identities));
        }
        CacheKeyer { roots: keys }
    }

    /// The cache key of `root` (`None` if it was not in the constructed
    /// root set).
    pub fn key(&self, root: MethodId) -> Option<u64> {
        self.roots.get(&root).map(|(key, _)| *key)
    }

    /// The sorted cone identity list of `root` (`None` if it was not in
    /// the constructed root set).
    pub fn cone(&self, root: MethodId) -> Option<&[u64]> {
        self.roots.get(&root).map(|(_, cone)| cone.as_slice())
    }
}

/// Running counters of one cache's activity in this process.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups the cache could not answer — no entry for the root, or the
    /// stored cone re-keyed differently (an edit) — so the root analyzed
    /// cold.
    pub misses: u64,
    /// Unusable cache state rejected (corrupt or version-bumped pack,
    /// undecodable entry) — the affected roots fell back to cold analysis.
    pub invalidated: u64,
    /// Total encoded entry bytes read from and written to the cache.
    pub bytes: u64,
    /// Flush attempts repeated after a transient write error (interrupted
    /// syscall or injected chaos fault) before the pack landed or the
    /// flush gave up.
    pub flush_retries: u64,
}

/// Flush attempts before a persistently failing pack write degrades to a
/// diagnostic (the first attempt plus bounded retries of transient
/// errors).
pub const FLUSH_ATTEMPTS: u32 = 3;

/// Whether an IO error is worth retrying: interrupted syscalls and
/// timeout-shaped kinds, which is also the shape `spo-chaos` gives its
/// injected transient faults.
fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::Interrupted
            | std::io::ErrorKind::WouldBlock
            | std::io::ErrorKind::TimedOut
    )
}

/// In-memory view of the pack: encoded entry blobs by root key, plus
/// whether anything diverged from the on-disk pack since open/flush.
#[derive(Debug, Default)]
struct Store {
    entries: HashMap<u64, Vec<u8>>,
    dirty: bool,
}

/// A persistent store of per-root policy entries (one pack file per
/// directory).
///
/// All operations are infallible from the caller's perspective: I/O and
/// decode failures surface as [`Diagnostic`]s (drained via
/// [`PolicyCache::take_diagnostics`]) and cold-path fallbacks, never as
/// panics or `Result`s in the analysis hot path.
#[derive(Debug)]
pub struct PolicyCache {
    dir: PathBuf,
    // Read-mostly once warm: a resident process (the serve daemon) shares
    // one handle across many concurrent sessions whose lookups vastly
    // outnumber write-backs, so reads take a shared lock and only
    // store/flush/invalidation take the exclusive one.
    store: RwLock<Store>,
    stats: Mutex<CacheStats>,
    diagnostics: Mutex<Vec<Diagnostic>>,
    // Captured from the process-wide spo-chaos plan at open (and
    // overridable per handle for tests): fault sites in the flush path
    // draw from this plan. Disabled plans cost one branch per probe.
    chaos: Mutex<FaultPlan>,
}

impl PolicyCache {
    /// Opens the cache directory (creating it if needed) and loads the
    /// pack file. A missing pack is an empty cache; a corrupt, truncated,
    /// or version-mismatched pack degrades to an empty cache with a
    /// diagnostic — the next [`PolicyCache::flush`] heals it.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the directory cannot be created —
    /// the one cache failure that is a usage error rather than a
    /// degradation.
    pub fn open(dir: impl Into<PathBuf>) -> std::io::Result<PolicyCache> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let cache = PolicyCache {
            dir,
            store: RwLock::new(Store::default()),
            stats: Mutex::new(CacheStats::default()),
            diagnostics: Mutex::new(Vec::new()),
            chaos: Mutex::new(spo_chaos::current()),
        };
        let path = cache.pack_path();
        match std::fs::read(&path) {
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
            Err(e) => {
                cache.lock_stats().invalidated += 1;
                cache.diag(PACK_FILE, format!("{}: {e}", path.display()));
            }
            Ok(bytes) => match parse_pack(&bytes) {
                Ok(entries) => cache.lock_store().entries = entries,
                Err(why) => {
                    cache.lock_stats().invalidated += 1;
                    cache.diag(
                        PACK_FILE,
                        format!("{}: {why}; falling back to cold analysis", path.display()),
                    );
                }
            },
        }
        Ok(cache)
    }

    /// The address of one root's entry: library name (so implementations
    /// with overlapping signatures coexist in one directory) + the root's
    /// [identity hash](spo_jir::method_identity_hash).
    pub fn root_key(library: &str, identity: u64) -> u64 {
        let mut h = Fnv64::new();
        h.write_str(library);
        h.write_u64(identity);
        h.finish()
    }

    /// The cache directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn pack_path(&self) -> PathBuf {
        self.dir.join(PACK_FILE)
    }

    fn read_store(&self) -> std::sync::RwLockReadGuard<'_, Store> {
        self.store.read().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_store(&self) -> std::sync::RwLockWriteGuard<'_, Store> {
        self.store.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_stats(&self) -> std::sync::MutexGuard<'_, CacheStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn diag(&self, unit: &str, message: String) {
        self.diagnostics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Diagnostic::cache_fallback(unit.to_owned(), message));
    }

    fn chaos_diag(&self, message: String) {
        self.diagnostics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Diagnostic {
                severity: Severity::Warning,
                phase: Phase::Chaos,
                root: PACK_FILE.to_owned(),
                cause: Cause::Chaos,
                message,
            });
    }

    /// Replaces the fault plan this handle draws injected faults from
    /// (tests arm a plan without touching the process-wide one).
    pub fn set_fault_plan(&self, plan: FaultPlan) {
        *self.chaos.lock().unwrap_or_else(|e| e.into_inner()) = plan;
    }

    /// Looks up the policy stored under `root_key`, validating the stored
    /// cone against `table`. Returns the stored signature and policy on a
    /// hit. A stale entry (its cone re-keys differently — an edit) is a
    /// plain miss; an undecodable entry counts as invalidated, is dropped
    /// from the store (healed on flush), and emits a diagnostic. Either
    /// way the caller analyzes cold.
    pub fn lookup(&self, root_key: u64, table: &ContentTable) -> Option<(String, EntryPolicy)> {
        // The hot path (hit, miss, stale) only reads, so concurrent
        // sessions validate under the shared lock; the exclusive lock is
        // taken only to drop an undecodable entry below.
        let store = self.read_store();
        let Some(blob) = store.entries.get(&root_key) else {
            drop(store);
            self.lock_stats().misses += 1;
            trace::instant_now("cache.miss", "cache");
            return None;
        };
        match decode_blob(blob, table) {
            Ok(Some((signature, entry))) => {
                let len = blob.len() as u64;
                drop(store);
                let mut stats = self.lock_stats();
                stats.hits += 1;
                stats.bytes += len;
                drop(stats);
                trace::instant_now("cache.hit", "cache");
                Some((signature, entry))
            }
            Ok(None) => {
                // Stale: the cone re-keyed differently under the current
                // program. The follow-up store overwrites this entry.
                drop(store);
                self.lock_stats().misses += 1;
                trace::instant_now("cache.stale", "cache");
                None
            }
            Err(why) => {
                drop(store);
                // Re-acquire exclusively; removal is idempotent if another
                // session already dropped the same corrupt entry.
                let mut store = self.lock_store();
                if store.entries.remove(&root_key).is_some() {
                    store.dirty = true;
                }
                drop(store);
                self.lock_stats().invalidated += 1;
                trace::instant_now("cache.invalidated", "cache");
                self.diag(
                    &format!("{root_key:016x}"),
                    format!("entry {root_key:016x}: {why}; falling back to cold analysis"),
                );
                None
            }
        }
    }

    /// Stores `entry` with its `key` and cone under `root_key` in memory;
    /// [`PolicyCache::flush`] persists it.
    pub fn store(&self, root_key: u64, key: u64, cone: &[u64], entry: &EntryPolicy) {
        let blob = encode_blob(key, cone, entry);
        self.lock_stats().bytes += blob.len() as u64;
        let mut store = self.lock_store();
        store.entries.insert(root_key, blob);
        store.dirty = true;
    }

    /// Writes the pack file atomically and durably if anything changed
    /// since open or the last flush: temp file + `sync_all`, atomic
    /// `rename` over the pack, then a best-effort `sync_all` on the
    /// directory so the rename itself survives a crash. Transient errors
    /// (interrupted syscalls, injected chaos faults) are retried up to
    /// [`FLUSH_ATTEMPTS`] times with a short backoff; persistent failures
    /// degrade to a diagnostic — the run's results are already computed
    /// and unaffected, and the next flush retries from scratch because
    /// the store stays dirty.
    pub fn flush(&self) {
        let mut store = self.lock_store();
        if !store.dirty {
            return;
        }
        let _trace = trace::span_now("cache.flush", "cache");
        let pack = render_pack(&store.entries);
        let path = self.pack_path();
        // pid + per-process sequence: two sessions of one resident daemon
        // flushing the same directory concurrently must not share a temp
        // file (the rename itself is atomic either way).
        static FLUSH_SEQ: AtomicU64 = AtomicU64::new(0);
        let tmp = self.dir.join(format!(
            "{PACK_FILE}.tmp-{}-{}",
            std::process::id(),
            FLUSH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let chaos = self.chaos.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let mut last_err: Option<std::io::Error> = None;
        for attempt in 0..FLUSH_ATTEMPTS {
            match self.write_pack_durably(&chaos, &tmp, &path, &pack) {
                Ok(()) => {
                    store.dirty = false;
                    if attempt > 0 {
                        chaos.note_recovered(PACK_FILE);
                        let why = last_err
                            .take()
                            .map_or_else(String::new, |e| format!(": {e}"));
                        self.chaos_diag(format!(
                            "{}: flush recovered after {attempt} retry(s){why}",
                            path.display()
                        ));
                    }
                    return;
                }
                Err(e) if attempt + 1 < FLUSH_ATTEMPTS && is_transient(&e) => {
                    self.lock_stats().flush_retries += 1;
                    last_err = Some(e);
                    // Tiny exponential backoff: 1ms, 2ms. Real transient
                    // errors (EINTR under signal storms) clear quickly;
                    // anything slower is persistent and hits the cap.
                    std::thread::sleep(std::time::Duration::from_millis(1 << attempt));
                }
                Err(e) => {
                    last_err = Some(e);
                    break;
                }
            }
        }
        let _ = std::fs::remove_file(&tmp);
        drop(store);
        let e = last_err.expect("every failed attempt records its error");
        self.diag(PACK_FILE, format!("{}: write failed: {e}", path.display()));
    }

    /// One durable write attempt: create + write + `sync_all` the temp
    /// file, `rename` it over the pack, `sync_all` the directory.
    /// Chaos fault sites are compiled into each step; the bit-flip site
    /// corrupts the payload but lets the write *succeed* (silent
    /// corruption for the next open to detect and heal).
    fn write_pack_durably(
        &self,
        chaos: &FaultPlan,
        tmp: &Path,
        path: &Path,
        pack: &[u8],
    ) -> std::io::Result<()> {
        use spo_chaos::sites;
        use std::io::Write as _;
        let flipped: Vec<u8>;
        let payload: &[u8] = if !pack.is_empty() && chaos.should_fire(sites::CACHE_BITFLIP) {
            let pos = chaos.amount(sites::CACHE_BITFLIP, pack.len() as u64) as usize;
            let mut copy = pack.to_vec();
            copy[pos] ^= 0x01;
            flipped = copy;
            &flipped
        } else {
            pack
        };
        {
            let mut f = std::fs::File::create(tmp)?;
            if chaos.should_fire(sites::CACHE_WRITE_SHORT) {
                f.write_all(&payload[..payload.len() / 2])?;
                let _ = f.sync_all();
                return Err(spo_chaos::injected_io_error(sites::CACHE_WRITE_SHORT));
            }
            f.write_all(payload)?;
            if chaos.should_fire(sites::CACHE_FSYNC_FAIL) {
                return Err(spo_chaos::injected_io_error(sites::CACHE_FSYNC_FAIL));
            }
            f.sync_all()?;
        }
        if chaos.should_fire(sites::CACHE_RENAME_FAIL) {
            return Err(spo_chaos::injected_io_error(sites::CACHE_RENAME_FAIL));
        }
        std::fs::rename(tmp, path)?;
        // The rename is durable only once the directory entry is synced;
        // a failure here is not worth failing the flush over (the data
        // file itself is already synced).
        if let Ok(dir) = std::fs::File::open(&self.dir) {
            let _ = dir.sync_all();
        }
        Ok(())
    }

    /// This process's running counters.
    pub fn stats(&self) -> CacheStats {
        *self.lock_stats()
    }

    /// Drains the accumulated cache diagnostics (warnings only — cache
    /// problems never change results or exit codes).
    pub fn take_diagnostics(&self) -> Vec<Diagnostic> {
        std::mem::take(&mut self.diagnostics.lock().unwrap_or_else(|e| e.into_inner()))
    }

    /// Cached entries and the pack file's size in bytes on disk.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the pack file's metadata cannot be
    /// read (a missing pack is simply empty, not an error).
    pub fn disk_usage(&self) -> std::io::Result<(usize, u64)> {
        let entries = self.read_store().entries.len();
        match std::fs::metadata(self.pack_path()) {
            Ok(meta) => Ok((entries, meta.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok((entries, 0)),
            Err(e) => Err(e),
        }
    }

    /// Removes the pack file and the in-memory store, returning how many
    /// entries were dropped.
    ///
    /// # Errors
    ///
    /// Returns the underlying error if the pack file exists but cannot be
    /// removed.
    pub fn clear(&self) -> std::io::Result<usize> {
        let mut store = self.lock_store();
        let removed = store.entries.len();
        store.entries.clear();
        store.dirty = false;
        match std::fs::remove_file(self.pack_path()) {
            Ok(()) => Ok(removed),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(removed),
            Err(e) => Err(e),
        }
    }
}

impl Drop for PolicyCache {
    /// Best-effort persistence for callers that never flushed explicitly.
    fn drop(&mut self) {
        self.flush();
    }
}

// ---------------------------------------------------------------------------
// Pack format
//
//   "spo-cache <FORMAT_VERSION>\n"
//   u64 LE  entry count
//   repeated: u64 LE root key, u32 LE blob length, blob bytes
//   u64 LE  checksum of everything above (spo_index::codec::checksum)
//
// and each blob (see encode_blob/decode_blob):
//
//   str     signature                    (str = u32 LE length + UTF-8 bytes)
//   u64     cone key
//   u32     cone size, u64 identity hash each (sorted)
//   u32     event count
//   per event: EventKey, u32 must bits, u32 may bits,
//              u32 disjunct count, u32 bits each
//   u32     event-origin count;  per item: EventKey, u32 count, str each
//   u32     check-origin count;  per item: u8 check, u32 count, str each
//
// EventKey = u8 tag (0 = ApiReturn, 1 = Native, 2 = DataRead,
// 3 = DataWrite) + str name for every tag but 0.
//
// The primitive writers and the bounded reader are shared with the
// compiled policy index ([`spo_index::codec`]); only the blob layout is
// cache-specific.
// ---------------------------------------------------------------------------

use spo_index::codec::{checksum, put_event_key, put_str, put_u32, put_u64, Cursor};

fn encode_blob(key: u64, cone: &[u64], entry: &EntryPolicy) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64 + 8 * cone.len());
    put_str(&mut buf, &entry.signature);
    put_u64(&mut buf, key);
    put_u32(&mut buf, cone.len() as u32);
    for &identity in cone {
        put_u64(&mut buf, identity);
    }
    put_u32(&mut buf, entry.events.len() as u32);
    for (event, policy) in &entry.events {
        put_event_key(&mut buf, event);
        put_u32(&mut buf, policy.must.bits().bits());
        put_u32(&mut buf, policy.may.bits().bits());
        let disjuncts = policy.may_paths.disjuncts();
        put_u32(&mut buf, disjuncts.len() as u32);
        for d in disjuncts {
            put_u32(&mut buf, d.bits());
        }
    }
    put_u32(&mut buf, entry.event_origins.len() as u32);
    for (event, origins) in &entry.event_origins {
        put_event_key(&mut buf, event);
        put_u32(&mut buf, origins.len() as u32);
        for origin in origins {
            put_str(&mut buf, origin);
        }
    }
    put_u32(&mut buf, entry.check_origins.len() as u32);
    for (&check, origins) in &entry.check_origins {
        buf.push(check);
        put_u32(&mut buf, origins.len() as u32);
        for origin in origins {
            put_str(&mut buf, origin);
        }
    }
    buf
}

/// Decodes a blob and validates its stored cone against `table`.
/// `Ok(None)` means well-formed but stale (cone re-keys differently);
/// the policy body is then not decoded at all.
///
/// Every length-prefixed collection is read through the shared checked
/// counted reads ([`Cursor::counted`]): a count is validated against the
/// bytes actually remaining *before* anything is reserved, so a length
/// field truncated or corrupted into a huge value degrades to the
/// cold-fallback diagnostic path instead of a capacity panic.
fn decode_blob(blob: &[u8], table: &ContentTable) -> Result<Option<(String, EntryPolicy)>, String> {
    let mut c = Cursor::new(blob);
    let signature = c.str()?;
    let key = c.u64()?;
    let cone_len = c.counted(8)?;
    let mut cone = Vec::with_capacity(cone_len as usize);
    for _ in 0..cone_len {
        cone.push(c.u64()?);
    }
    if table.key_of_cone(&cone) != Some(key) {
        return Ok(None);
    }
    let mut entry = EntryPolicy::new(signature);
    // Min event encoding: u8 tag + u32 must + u32 may + u32 disjunct count.
    for _ in 0..c.counted(13)? {
        let event = c.event_key()?;
        let must = spo_core::CheckSet::from_bits(BitSet32::from_bits(c.u32()?));
        let may = spo_core::CheckSet::from_bits(BitSet32::from_bits(c.u32()?));
        let n_disjuncts = c.counted(4)?;
        let may_paths: Dnf = (0..n_disjuncts)
            .map(|_| c.u32().map(BitSet32::from_bits))
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .collect();
        entry.events.insert(
            event,
            EventPolicy {
                must,
                may,
                may_paths,
            },
        );
    }
    // Min origin-list encoding: u8 event tag / check + u32 count.
    for _ in 0..c.counted(5)? {
        let event = c.event_key()?;
        let n = c.counted(4)?;
        let origins = (0..n).map(|_| c.str()).collect::<Result<_, _>>()?;
        entry.event_origins.insert(event, origins);
    }
    for _ in 0..c.counted(5)? {
        let check = c.u8()?;
        let n = c.counted(4)?;
        let origins = (0..n).map(|_| c.str()).collect::<Result<_, _>>()?;
        entry.check_origins.insert(check, origins);
    }
    if c.pos() != blob.len() {
        return Err("trailing bytes in entry".to_owned());
    }
    let signature = entry.signature.clone();
    Ok(Some((signature, entry)))
}

fn render_pack(entries: &HashMap<u64, Vec<u8>>) -> Vec<u8> {
    let payload: usize = entries.values().map(|b| b.len() + 12).sum();
    let mut pack = Vec::with_capacity(40 + payload);
    pack.extend_from_slice(format!("spo-cache {FORMAT_VERSION}\n").as_bytes());
    put_u64(&mut pack, entries.len() as u64);
    // Key order, so identical stores render identical packs regardless of
    // hash-map iteration order.
    let mut keys: Vec<u64> = entries.keys().copied().collect();
    keys.sort_unstable();
    for key in keys {
        let blob = &entries[&key];
        put_u64(&mut pack, key);
        put_u32(&mut pack, blob.len() as u32);
        pack.extend_from_slice(blob);
    }
    // Trailing whole-pack checksum: a single flipped bit anywhere in the
    // file must discard the pack, not decode into a different-but-valid
    // summary (policy bitmasks have no internal redundancy of their own).
    let sum = checksum(&pack);
    put_u64(&mut pack, sum);
    pack
}

/// Parses and validates a pack file; the `Err` string names what was
/// wrong for the diagnostic. Any framing damage or checksum mismatch
/// discards the whole pack — the cache degrades to cold roots and heals
/// on the next flush.
fn parse_pack(bytes: &[u8]) -> Result<HashMap<u64, Vec<u8>>, String> {
    let header_end = bytes
        .iter()
        .position(|&b| b == b'\n')
        .ok_or("missing cache version header")?;
    let header = std::str::from_utf8(&bytes[..header_end])
        .map_err(|_| "missing cache version header".to_owned())?;
    match header.strip_prefix("spo-cache ") {
        Some(v) if v == FORMAT_VERSION.to_string() => {}
        Some(v) => return Err(format!("cache format version {v} != {FORMAT_VERSION}")),
        None => return Err("missing cache version header".to_owned()),
    }
    if bytes.len() < header_end + 9 {
        return Err("truncated pack (no checksum)".to_owned());
    }
    let (body, tail) = bytes.split_at(bytes.len() - 8);
    let want = u64::from_le_bytes(tail.try_into().expect("split_at leaves 8 bytes"));
    if checksum(body) != want {
        return Err("pack checksum mismatch (corrupt cache)".to_owned());
    }
    let bytes = body;
    let mut c = Cursor::at(bytes, header_end + 1);
    // Min entry encoding: u64 key + u32 length. The checked counted read
    // bounds the count against the remaining bytes before the map is
    // sized, so a corrupt count cannot drive a huge reservation.
    let count = c
        .counted64(12)
        .map_err(|_| "truncated pack (no entry count)".to_owned())?;
    let mut entries = HashMap::with_capacity(count as usize);
    for i in 0..count {
        let frame = || format!("truncated pack (entry {i} of {count})");
        let key = c.u64().map_err(|_| frame())?;
        let len = c.u32().map_err(|_| frame())? as usize;
        let blob = c.take(len).map_err(|_| frame())?;
        entries.insert(key, blob.to_vec());
    }
    if c.pos() != bytes.len() {
        return Err("trailing bytes after last pack entry".to_owned());
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spo_core::Analyzer;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn temp_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "spo-cache-test-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    const SRC: &str = r#"
class java.lang.SecurityManager {
  method public native void checkRead(java.lang.String file);
}
class java.lang.System {
  field static java.lang.SecurityManager security;
  method public static java.lang.SecurityManager getSecurityManager() {
    local java.lang.SecurityManager sm;
    sm = java.lang.System.security;
    return sm;
  }
}
class t.A {
  method public void read() {
    local java.lang.SecurityManager sm;
    sm = staticinvoke java.lang.System.getSecurityManager();
    virtualinvoke sm.checkRead("f");
    staticinvoke t.A.op0();
    return;
  }
  method public void idle() {
    local int i;
    i = 0;
    return;
  }
  method private static native void op0();
}
"#;

    fn analyzed_entry(src: &str, sig_contains: &str) -> (Program, MethodId, EntryPolicy) {
        let program = spo_jir::parse_program(src).unwrap();
        let lib = Analyzer::new(&program, AnalysisOptions::default()).analyze_library("t");
        let root = spo_resolve::entry_points(&program)
            .into_iter()
            .find(|&m| program.method_signature(m).contains(sig_contains))
            .unwrap();
        let sig = program.method_signature(root);
        let entry = lib.entries[&sig].clone();
        (program, root, entry)
    }

    /// One root's full cache context: root key, cone key + identities,
    /// and the current content table.
    fn keyed(program: &Program, root: MethodId) -> (u64, u64, Vec<u64>, ContentTable) {
        let options = AnalysisOptions::default();
        let keyer = CacheKeyer::new(program, &[root], &options);
        let rk = PolicyCache::root_key("t", method_identity_hash(program, root));
        let table = ContentTable::new(program, &options);
        (
            rk,
            keyer.key(root).unwrap(),
            keyer.cone(root).unwrap().to_vec(),
            table,
        )
    }

    #[test]
    fn roundtrip_store_flush_reopen_lookup() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (rk, key, cone, table) = keyed(&program, root);
        let dir = temp_dir("roundtrip");
        let cache = PolicyCache::open(&dir).unwrap();
        assert_eq!(cache.lookup(rk, &table), None);
        cache.store(rk, key, &cone, &entry);
        assert_eq!(
            cache.lookup(rk, &table),
            Some((entry.signature.clone(), entry.clone()))
        );
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.invalidated), (1, 1, 0));
        assert!(stats.bytes > 0);
        assert!(cache.take_diagnostics().is_empty());
        cache.flush();

        // A fresh open reads the flushed pack.
        let reopened = PolicyCache::open(&dir).unwrap();
        assert_eq!(
            reopened.lookup(rk, &table),
            Some((entry.signature.clone(), entry))
        );
        assert!(reopened.take_diagnostics().is_empty());
    }

    #[test]
    fn drop_flushes_unpersisted_stores() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (rk, key, cone, table) = keyed(&program, root);
        let dir = temp_dir("drop-flush");
        {
            let cache = PolicyCache::open(&dir).unwrap();
            cache.store(rk, key, &cone, &entry);
            // No explicit flush.
        }
        let reopened = PolicyCache::open(&dir).unwrap();
        assert_eq!(
            reopened.lookup(rk, &table),
            Some((entry.signature.clone(), entry))
        );
    }

    #[test]
    fn stored_cone_revalidates_without_a_call_graph() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (rk, key, cone, table) = keyed(&program, root);
        // The cone carries the root and its transitive callees by identity.
        assert!(cone.contains(&method_identity_hash(&program, root)));
        assert_eq!(table.key_of_cone(&cone), Some(key));

        let cache = PolicyCache::open(temp_dir("revalidate")).unwrap();
        cache.store(rk, key, &cone, &entry);

        // A body edit inside the cone re-keys it: stale entry, plain miss,
        // no diagnostic.
        let edited = SRC.replace("virtualinvoke sm.checkRead(\"f\");", "nop;");
        let program2 = spo_jir::parse_program(&edited).unwrap();
        let table2 = ContentTable::new(&program2, &AnalysisOptions::default());
        assert_ne!(table2.key_of_cone(&cone), Some(key));
        assert_eq!(cache.lookup(rk, &table2), None);
        assert_eq!(cache.stats().misses, 1);
        assert!(cache.take_diagnostics().is_empty());

        // A deleted cone member also re-keys (to nothing at all).
        let removed = SRC.replace("method private static native void op0();", "");
        let program3 = spo_jir::parse_program(&removed).unwrap();
        let table3 = ContentTable::new(&program3, &AnalysisOptions::default());
        assert_eq!(table3.key_of_cone(&cone), None);
        assert_eq!(cache.lookup(rk, &table3), None);

        // Unrelated edits keep the hit.
        let unrelated = SRC.replace("i = 0;", "i = 7;");
        let program4 = spo_jir::parse_program(&unrelated).unwrap();
        let table4 = ContentTable::new(&program4, &AnalysisOptions::default());
        assert_eq!(
            cache.lookup(rk, &table4),
            Some((entry.signature.clone(), entry))
        );
    }

    #[test]
    fn root_keys_separate_libraries() {
        let (program, root, _) = analyzed_entry(SRC, "t.A.read");
        let identity = method_identity_hash(&program, root);
        assert_ne!(
            PolicyCache::root_key("jdk", identity),
            PolicyCache::root_key("harmony", identity)
        );
    }

    #[test]
    fn blob_codec_roundtrips_exactly() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (_, key, cone, table) = keyed(&program, root);
        assert!(!entry.events.is_empty(), "fixture should have events");
        assert!(
            !entry.event_origins.is_empty() || !entry.check_origins.is_empty(),
            "fixture should have origins"
        );
        let blob = encode_blob(key, &cone, &entry);
        assert_eq!(
            decode_blob(&blob, &table),
            Ok(Some((entry.signature.clone(), entry)))
        );
    }

    #[test]
    fn body_edit_changes_only_affected_cone_keys() {
        let program = spo_jir::parse_program(SRC).unwrap();
        let roots = spo_resolve::entry_points(&program);
        let options = AnalysisOptions::default();
        let keyer1 = CacheKeyer::new(&program, &roots, &options);

        // Edit a body inside t.A.read's cone but outside t.A.idle's.
        let edited = SRC.replace("virtualinvoke sm.checkRead(\"f\");", "nop;");
        let program2 = spo_jir::parse_program(&edited).unwrap();
        let roots2 = spo_resolve::entry_points(&program2);
        let keyer2 = CacheKeyer::new(&program2, &roots2, &options);

        for (&r1, &r2) in roots.iter().zip(&roots2) {
            let sig = program.method_signature(r1);
            assert_eq!(sig, program2.method_signature(r2));
            let (k1, k2) = (keyer1.key(r1).unwrap(), keyer2.key(r2).unwrap());
            if sig.contains("read") {
                assert_ne!(k1, k2, "{sig} key must change");
            } else {
                assert_eq!(k1, k2, "{sig} key must not change");
            }
        }
    }

    #[test]
    fn structural_edit_changes_every_key() {
        let program = spo_jir::parse_program(SRC).unwrap();
        let roots = spo_resolve::entry_points(&program);
        let options = AnalysisOptions::default();
        let keyer1 = CacheKeyer::new(&program, &roots, &options);
        let edited = SRC.replace("class t.A {", "class t.A {\n  field int pad;");
        let program2 = spo_jir::parse_program(&edited).unwrap();
        let keyer2 = CacheKeyer::new(&program2, &spo_resolve::entry_points(&program2), &options);
        for (&r1, &r2) in roots
            .iter()
            .zip(spo_resolve::entry_points(&program2).iter())
        {
            assert_ne!(keyer1.key(r1).unwrap(), keyer2.key(r2).unwrap());
        }
    }

    #[test]
    fn result_affecting_options_partition_the_key_space() {
        let program = spo_jir::parse_program(SRC).unwrap();
        let roots = spo_resolve::entry_points(&program);
        let base = AnalysisOptions::default();
        let root = roots[0];
        let key = |o: &AnalysisOptions| CacheKeyer::new(&program, &roots, o).key(root).unwrap();
        let base_key = key(&base);
        for options in [
            AnalysisOptions { icp: false, ..base },
            AnalysisOptions {
                events: spo_core::EventDef::Broad,
                ..base
            },
            AnalysisOptions {
                interprocedural: false,
                ..base
            },
        ] {
            assert_ne!(key(&options), base_key, "{options:?}");
        }
        // Memo scope is result-invariant and shares the key.
        let memo = AnalysisOptions {
            memo: spo_core::MemoScope::None,
            ..base
        };
        assert_eq!(key(&memo), base_key);
    }

    #[test]
    fn corrupt_truncated_and_version_bumped_packs_degrade_cleanly() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (rk, key, cone, table) = keyed(&program, root);
        let dir = temp_dir("corrupt");
        {
            let cache = PolicyCache::open(&dir).unwrap();
            cache.store(rk, key, &cone, &entry);
            cache.flush();
        }
        let path = dir.join(PACK_FILE);
        let good = std::fs::read(&path).unwrap();

        let mut bumped = good.clone();
        bumped.splice(..b"spo-cache 2".len(), b"spo-cache 9".iter().copied());
        let mangled: [Vec<u8>; 5] = [
            b"@@@ not a cache pack @@@".to_vec(), // corrupt header
            good[..good.len() / 2].to_vec(),      // truncated mid-entry
            bumped,                               // version bump
            Vec::new(),                           // empty file
            good.iter().rev().copied().collect(), // garbage body
        ];
        for (i, bad) in mangled.iter().enumerate() {
            std::fs::write(&path, bad).unwrap();
            let cache = PolicyCache::open(&dir).unwrap();
            assert_eq!(cache.lookup(rk, &table), None, "case {i}");
            let stats = cache.stats();
            assert_eq!((stats.invalidated, stats.misses), (1, 1), "case {i}");
            let diags = cache.take_diagnostics();
            assert_eq!(diags.len(), 1, "case {i}");
            assert_eq!(diags[0].cause, spo_guard::Cause::Cache);
            assert_eq!(diags[0].severity, spo_guard::Severity::Warning);
            // A fresh store + flush heals the pack in place.
            cache.store(rk, key, &cone, &entry);
            cache.flush();
            let healed = PolicyCache::open(&dir).unwrap();
            assert_eq!(
                healed.lookup(rk, &table),
                Some((entry.signature.clone(), entry.clone())),
                "case {i}"
            );
            assert!(healed.take_diagnostics().is_empty(), "case {i}");
        }
    }

    #[test]
    fn undecodable_entry_is_dropped_and_healed() {
        let (program, root, _) = analyzed_entry(SRC, "t.A.read");
        let (rk, _, _, table) = keyed(&program, root);
        let cache = PolicyCache::open(temp_dir("bad-entry")).unwrap();
        // Well-framed pack, nonsense blob under the right root key.
        cache.lock_store().entries.insert(rk, vec![0xde, 0xad]);
        assert_eq!(cache.lookup(rk, &table), None);
        assert_eq!(cache.stats().invalidated, 1);
        assert_eq!(cache.take_diagnostics().len(), 1);
        // The bad blob was dropped: next lookup is a plain miss.
        assert_eq!(cache.lookup(rk, &table), None);
        assert_eq!(cache.stats().misses, 1);
    }

    #[test]
    fn clear_and_disk_usage() {
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (rk, key, cone, _) = keyed(&program, root);
        let cache = PolicyCache::open(temp_dir("clear")).unwrap();
        cache.store(rk, key, &cone, &entry);
        cache.flush();
        let (entries, bytes) = cache.disk_usage().unwrap();
        assert_eq!(entries, 1);
        assert!(bytes > 0);
        assert_eq!(cache.clear().unwrap(), 1);
        assert_eq!(cache.disk_usage().unwrap(), (0, 0));
    }

    #[test]
    fn flush_retries_injected_transient_faults_and_recovers() {
        use spo_chaos::{sites, FaultPlan};
        for site in [
            sites::CACHE_WRITE_SHORT,
            sites::CACHE_FSYNC_FAIL,
            sites::CACHE_RENAME_FAIL,
        ] {
            let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
            let (rk, key, cone, table) = keyed(&program, root);
            let dir = temp_dir(&format!("retry-{}", site.replace('.', "-")));
            let cache = PolicyCache::open(&dir).unwrap();
            let plan = FaultPlan::seeded(1).site_once(site);
            cache.set_fault_plan(plan.clone());
            cache.store(rk, key, &cone, &entry);
            cache.flush();
            // The injected failure was absorbed by one retry: the pack
            // landed, the recovery is on the record, and no temp file
            // litters the directory.
            assert_eq!(plan.injected(), 1, "{site}");
            assert_eq!(plan.recovered(), 1, "{site}");
            assert_eq!(cache.stats().flush_retries, 1, "{site}");
            let diags = cache.take_diagnostics();
            assert_eq!(diags.len(), 1, "{site}: {diags:?}");
            assert_eq!(diags[0].cause, spo_guard::Cause::Chaos);
            assert_eq!(diags[0].phase, spo_guard::Phase::Chaos);
            assert!(diags[0].message.contains("recovered after 1 retry"));
            let leftovers: Vec<_> = std::fs::read_dir(&dir)
                .unwrap()
                .filter_map(Result::ok)
                .filter(|e| e.file_name().to_string_lossy().contains(".tmp-"))
                .collect();
            assert!(leftovers.is_empty(), "{site}: {leftovers:?}");
            drop(cache);
            let reopened = PolicyCache::open(&dir).unwrap();
            assert_eq!(
                reopened.lookup(rk, &table),
                Some((entry.signature.clone(), entry.clone())),
                "{site}"
            );
        }
    }

    #[test]
    fn persistent_flush_failure_degrades_to_a_diagnostic_and_stays_dirty() {
        use spo_chaos::{sites, FaultPlan};
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (rk, key, cone, table) = keyed(&program, root);
        let dir = temp_dir("flush-fail");
        let cache = PolicyCache::open(&dir).unwrap();
        // Rate 1.0 fires on every attempt: all FLUSH_ATTEMPTS fail.
        cache.set_fault_plan(FaultPlan::seeded(2).site(sites::CACHE_RENAME_FAIL, 1.0));
        cache.store(rk, key, &cone, &entry);
        cache.flush();
        assert_eq!(cache.stats().flush_retries, u64::from(FLUSH_ATTEMPTS - 1));
        let diags = cache.take_diagnostics();
        assert!(
            diags.iter().any(|d| d.message.contains("write failed")),
            "{diags:?}"
        );
        assert!(!dir.join(PACK_FILE).exists());
        // Disarm the plan: the store is still dirty, so the next flush
        // lands the pack — degradation never loses the computed entries.
        cache.set_fault_plan(FaultPlan::disabled());
        cache.flush();
        drop(cache);
        let reopened = PolicyCache::open(&dir).unwrap();
        assert_eq!(
            reopened.lookup(rk, &table),
            Some((entry.signature.clone(), entry.clone()))
        );
    }

    #[test]
    fn bitflip_corruption_is_caught_on_reopen_and_heals_on_flush() {
        use spo_chaos::{sites, FaultPlan};
        let (program, root, entry) = analyzed_entry(SRC, "t.A.read");
        let (rk, key, cone, table) = keyed(&program, root);
        let dir = temp_dir("bitflip");
        {
            let cache = PolicyCache::open(&dir).unwrap();
            cache.set_fault_plan(FaultPlan::seeded(3).site_once(sites::CACHE_BITFLIP));
            cache.store(rk, key, &cone, &entry);
            cache.flush();
            // The flip is silent at write time: the flush "succeeded".
            assert!(cache.take_diagnostics().is_empty());
            cache.set_fault_plan(FaultPlan::disabled());
        }
        // The corruption surfaces on the next open or lookup as a
        // degrade-to-cold (never a panic), and a fresh store + flush
        // heals the pack in place.
        let reopened = PolicyCache::open(&dir).unwrap();
        if reopened.lookup(rk, &table) != Some((entry.signature.clone(), entry.clone())) {
            reopened.store(rk, key, &cone, &entry);
        }
        reopened.flush();
        drop(reopened);
        let healed = PolicyCache::open(&dir).unwrap();
        assert!(healed.take_diagnostics().is_empty());
        assert_eq!(
            healed.lookup(rk, &table),
            Some((entry.signature.clone(), entry.clone()))
        );
    }
}
