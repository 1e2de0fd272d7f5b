//! # spo-index — compiled single-file policy index
//!
//! The analysis pipeline answers "what checks guard entry point X?" and
//! "where do two implementations disagree?" by re-deriving
//! [`LibraryPolicies`] from source — seconds of work at scale. This crate
//! compiles a finished `LibraryPolicies` (plus its intraprocedural
//! ablation, which root-cause classification needs) into one small,
//! versioned, checksummed file — `policies.spi`, format `spo-index/2` —
//! so both questions become pure index reads on a sub-millisecond budget.
//!
//! ## Layout (`spo-index/2`, all integers little-endian)
//!
//! ```text
//! "spo-index 2\n"                       text version header
//! str   library name                    (str = u32 length + UTF-8 bytes)
//! str   options token                   (cache-compatible, see options_token)
//! u64   entry-point stat (full)         feeds render_analysis's footer
//! u64   entry-point stat (intra)
//! u32 S; S × str                        string table (signatures, event
//!                                        names, origin methods — interned)
//! u32 C; C × check set                  check-set table: u32 must bits,
//!                                        u32 may bits, u32 D, D × u32 —
//!                                        each distinct (must, may, paths)
//!                                        triple stored once
//! u64 N                                 entry-point count
//! N × 36-byte row                       offset table, sorted by root key:
//!                                        u64 root_key | u32 off | u32 len |
//!                                        u32 flags | u64 content_hash |
//!                                        u64 cone fingerprint
//! u64 B; B bytes                        blob region (off/len index into it)
//! u64   checksum of everything above    word-wise FNV-1a over 4 lanes
//! ```
//!
//! Each entry blob holds the full policy then the intra policy, both as:
//! interned signature id, then events (`event key`, u32 check-set id),
//! event origins and check origins (interned string ids). Event keys in
//! blobs are a u8 tag plus an interned u32 name id — unlike the cache
//! blob codec, names are never inlined.
//!
//! ## Query model
//!
//! [`PolicyIndex::parse`] validates the checksum and decodes only the two
//! small shared tables; the offset table and blob region stay borrowed
//! `&[u8]`. A query is two phases, following the fingerprint→evaluate
//! model: [`PolicyIndex::find`] binary-searches the fixed-width offset
//! table by `root_key(signature)` without allocating, then
//! [`PolicyIndex::decode`] materializes just that entry's policies for
//! rendering. Output is byte-identical to the analysis path because both
//! funnel through [`spo_core::render_entry`] / [`spo_core::render_analysis`].
//!
//! The full listing and the diff work on the borrowed bytes too; neither
//! rebuilds a [`LibraryPolicies`]. [`PolicyIndex::render_full`] reads only
//! each entry's event list (tag, name id, check-set id) to count the
//! footer and pick the entries with checks, then decodes just those.
//! [`diff_indexes`] zips the two root-key-sorted offset tables, compares
//! each matched entry's event lists by (event, must, may) through each
//! file's own check-set table, and decodes and diffs only the pairs that
//! differ — a handful out of tens of thousands at scale.
//!
//! ## Corruption discipline
//!
//! A trailing whole-file checksum plus bounded, counted reads
//! ([`codec::Cursor`]) mean a truncated, bit-flipped, or version-bumped
//! index degrades to a typed parse error — callers fall back to full
//! analysis with a diagnostic, never a silent wrong answer and never a
//! panic.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use spo_core::{
    diff_entry, group_differences, render_entry, render_reports, root_keys, AnalysisOptions,
    AnalysisStats, DiffResult, EntryPolicy, EventKey, EventPolicy, LibraryPolicies,
};
use spo_dataflow::{BitSet32, Dnf};
use spo_jir::Fnv64;
use std::collections::BTreeMap;
use std::collections::HashMap;
use std::path::Path;

pub mod codec;

use codec::{checksum, Cursor};

/// The on-disk index format version; bumped whenever the layout or the
/// policy semantics it captures change. Old files then read as version
/// mismatches and consumers fall back to full analysis.
pub const FORMAT_VERSION: u32 = 2;

/// Conventional file name for a compiled index.
pub const INDEX_FILE: &str = "policies.spi";

/// Fixed-width offset-table row size in bytes: u64 root key, u32 blob
/// offset, u32 blob length, u32 flags, u64 content hash, u64 fingerprint.
pub const ROW_BYTES: usize = 36;

/// Per-entry flag bits stored in the offset table, readable without
/// decoding the blob.
pub mod flags {
    /// The full (interprocedural) policy performs at least one check.
    pub const HAS_CHECKS: u32 = 1 << 0;
    /// Some event of the full policy has an empty may set — the shape an
    /// unguarded event or a privileged-region-wrapped call site leaves.
    pub const UNGUARDED_EVENT: u32 = 1 << 1;
    /// The intraprocedural ablation policy performs at least one check.
    pub const INTRA_HAS_CHECKS: u32 = 1 << 2;
    /// The index was built with inferred-check-patterns (ICP) guard
    /// recognition enabled.
    pub const OPT_ICP: u32 = 1 << 3;
    /// The index was built from an interprocedural full analysis.
    pub const OPT_INTERPROCEDURAL: u32 = 1 << 4;
    /// The index was built under the broad event definition.
    pub const OPT_BROAD: u32 = 1 << 5;
}

/// Renders the result-affecting analysis options into a stable token. The
/// memo scope is excluded: results are memo-invariant. This is the cache
/// crate's key token, shared so an index and a cache built from the same
/// options agree on identity.
pub fn options_token(options: &AnalysisOptions) -> String {
    format!(
        "icp={} events={:?} interprocedural={}",
        options.icp, options.events, options.interprocedural
    )
}

/// The root key an entry point's signature sorts and binary-searches
/// under: its seedless FNV-64 hash.
pub fn root_key(signature: &str) -> u64 {
    let mut h = Fnv64::new();
    h.write(signature.as_bytes());
    h.finish()
}

fn header_line() -> String {
    format!("spo-index {FORMAT_VERSION}\n")
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Interns values of one kind, assigning dense u32 ids in first-use order
/// (deterministic: the builder walks entries in signature order).
struct Interner<T: std::hash::Hash + Eq + Clone> {
    ids: HashMap<T, u32>,
    items: Vec<T>,
}

impl<T: std::hash::Hash + Eq + Clone> Interner<T> {
    fn new() -> Self {
        Interner {
            ids: HashMap::new(),
            items: Vec::new(),
        }
    }

    fn intern(&mut self, item: &T) -> u32 {
        if let Some(&id) = self.ids.get(item) {
            return id;
        }
        let id = self.items.len() as u32;
        self.ids.insert(item.clone(), id);
        self.items.push(item.clone());
        id
    }
}

/// Compiles a library's full and intraprocedural policies into
/// `spo-index/2` bytes.
pub struct IndexBuilder<'a> {
    name: &'a str,
    options: &'a AnalysisOptions,
    full: &'a LibraryPolicies,
    intra: &'a LibraryPolicies,
    fingerprints: Option<&'a BTreeMap<String, u64>>,
}

impl<'a> IndexBuilder<'a> {
    /// Starts a builder over one library's full analysis and its
    /// intraprocedural ablation (both from the same program and options —
    /// the ablation is what root-cause classification diffs against).
    pub fn new(
        name: &'a str,
        options: &'a AnalysisOptions,
        full: &'a LibraryPolicies,
        intra: &'a LibraryPolicies,
    ) -> Self {
        IndexBuilder {
            name,
            options,
            full,
            intra,
            fingerprints: None,
        }
    }

    /// Attaches per-signature dependency-cone fingerprints (from the
    /// cache's [`spo_cache` keyer]); entries without one store 0. Advisory
    /// metadata: consumers use it to cross-check freshness against a
    /// cache, never for correctness.
    pub fn fingerprints(mut self, map: &'a BTreeMap<String, u64>) -> Self {
        self.fingerprints = Some(map);
        self
    }

    /// Builds the sealed index bytes.
    ///
    /// # Errors
    ///
    /// Fails if either analysis has degraded roots (a quarantined root has
    /// *no* stored policy, so compiling it would bake an unsound answer
    /// into a file that outlives the incident), if the two analyses
    /// disagree on the entry-point set, or on a root-key collision.
    pub fn build(&self) -> Result<Vec<u8>, String> {
        if !self.full.degraded.is_empty() || !self.intra.degraded.is_empty() {
            return Err(format!(
                "degraded analysis cannot be compiled into an index ({} quarantined root(s))",
                self.full.degraded.len().max(self.intra.degraded.len())
            ));
        }
        if self.full.entries.len() != self.intra.entries.len()
            || !self
                .full
                .entries
                .keys()
                .zip(self.intra.entries.keys())
                .all(|(a, b)| a == b)
        {
            return Err("full and intra analyses disagree on the entry-point set".to_owned());
        }

        let mut strings: Interner<String> = Interner::new();
        let mut sets: Interner<(u32, u32, Vec<u32>)> = Interner::new();
        // (root_key, blob, flags, fingerprint) per entry, then sorted.
        let mut rows: Vec<(u64, Vec<u8>, u32, u64)> = Vec::with_capacity(self.full.entries.len());

        let opt_flags = {
            let mut f = 0;
            if self.options.icp {
                f |= flags::OPT_ICP;
            }
            if self.options.interprocedural {
                f |= flags::OPT_INTERPROCEDURAL;
            }
            if matches!(self.options.events, spo_core::EventDef::Broad) {
                f |= flags::OPT_BROAD;
            }
            f
        };

        for (sig, full_entry) in &self.full.entries {
            let intra_entry = &self.intra.entries[sig];
            let mut blob = Vec::with_capacity(64);
            codec::put_u32(&mut blob, strings.intern(sig));
            encode_policy(&mut blob, full_entry, &mut strings, &mut sets);
            encode_policy(&mut blob, intra_entry, &mut strings, &mut sets);

            let mut entry_flags = opt_flags;
            if !full_entry.has_no_checks() {
                entry_flags |= flags::HAS_CHECKS;
            }
            if full_entry.events.values().any(|p| p.may.is_empty()) {
                entry_flags |= flags::UNGUARDED_EVENT;
            }
            if !intra_entry.has_no_checks() {
                entry_flags |= flags::INTRA_HAS_CHECKS;
            }
            let fingerprint = self
                .fingerprints
                .and_then(|m| m.get(sig).copied())
                .unwrap_or(0);
            rows.push((root_key(sig), blob, entry_flags, fingerprint));
        }
        rows.sort_by_key(|r| r.0);
        if rows.windows(2).any(|w| w[0].0 == w[1].0) {
            return Err("root-key collision between entry-point signatures".to_owned());
        }

        let mut out = Vec::with_capacity(4096);
        out.extend_from_slice(header_line().as_bytes());
        codec::put_str(&mut out, self.name);
        codec::put_str(&mut out, &options_token(self.options));
        codec::put_u64(&mut out, self.full.stats.entry_points as u64);
        codec::put_u64(&mut out, self.intra.stats.entry_points as u64);

        codec::put_u32(&mut out, strings.items.len() as u32);
        for s in &strings.items {
            codec::put_str(&mut out, s);
        }
        codec::put_u32(&mut out, sets.items.len() as u32);
        for (must, may, disjuncts) in &sets.items {
            codec::put_u32(&mut out, *must);
            codec::put_u32(&mut out, *may);
            codec::put_u32(&mut out, disjuncts.len() as u32);
            for &d in disjuncts {
                codec::put_u32(&mut out, d);
            }
        }

        codec::put_u64(&mut out, rows.len() as u64);
        let blob_total: usize = rows.iter().map(|r| r.1.len()).sum();
        if blob_total > u32::MAX as usize {
            return Err("blob region exceeds the u32 offset space".to_owned());
        }
        let mut off = 0u32;
        for (key, blob, entry_flags, fingerprint) in &rows {
            codec::put_u64(&mut out, *key);
            codec::put_u32(&mut out, off);
            codec::put_u32(&mut out, blob.len() as u32);
            codec::put_u32(&mut out, *entry_flags);
            let mut h = Fnv64::new();
            h.write(blob);
            codec::put_u64(&mut out, h.finish());
            codec::put_u64(&mut out, *fingerprint);
            off += blob.len() as u32;
        }
        codec::put_u64(&mut out, blob_total as u64);
        for (_, blob, _, _) in &rows {
            out.extend_from_slice(blob);
        }

        let sum = checksum(&out);
        codec::put_u64(&mut out, sum);
        Ok(out)
    }
}

fn put_event_key_interned(buf: &mut Vec<u8>, key: &EventKey, strings: &mut Interner<String>) {
    match key {
        EventKey::ApiReturn => buf.push(0),
        EventKey::Native(name) => {
            buf.push(1);
            codec::put_u32(buf, strings.intern(name));
        }
        EventKey::DataRead(name) => {
            buf.push(2);
            codec::put_u32(buf, strings.intern(name));
        }
        EventKey::DataWrite(name) => {
            buf.push(3);
            codec::put_u32(buf, strings.intern(name));
        }
    }
}

fn encode_policy(
    buf: &mut Vec<u8>,
    entry: &EntryPolicy,
    strings: &mut Interner<String>,
    sets: &mut Interner<(u32, u32, Vec<u32>)>,
) {
    codec::put_u32(buf, entry.events.len() as u32);
    for (event, policy) in &entry.events {
        put_event_key_interned(buf, event, strings);
        let triple = (
            policy.must.bits().bits(),
            policy.may.bits().bits(),
            policy
                .may_paths
                .disjuncts()
                .iter()
                .map(|d| d.bits())
                .collect::<Vec<u32>>(),
        );
        codec::put_u32(buf, sets.intern(&triple));
    }
    codec::put_u32(buf, entry.event_origins.len() as u32);
    for (event, origins) in &entry.event_origins {
        put_event_key_interned(buf, event, strings);
        codec::put_u32(buf, origins.len() as u32);
        for origin in origins {
            codec::put_u32(buf, strings.intern(origin));
        }
    }
    codec::put_u32(buf, entry.check_origins.len() as u32);
    for (&check, origins) in &entry.check_origins {
        buf.push(check);
        codec::put_u32(buf, origins.len() as u32);
        for origin in origins {
            codec::put_u32(buf, strings.intern(origin));
        }
    }
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// One offset-table row, decoded from its fixed-width record without
/// touching the blob region.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    /// FNV-64 of the entry's signature ([`root_key`]).
    pub root_key: u64,
    /// Per-entry [`flags`] bits.
    pub flags: u32,
    /// FNV-64 of the entry's encoded blob — a structure/content hash that
    /// changes whenever any part of either policy changes.
    pub content_hash: u64,
    /// The entry's dependency-cone fingerprint, or 0 if none was attached
    /// at build time.
    pub fingerprint: u64,
    off: u32,
    len: u32,
}

/// Summary counters of a parsed index, for stats displays and benches.
#[derive(Clone, Copy, Debug)]
pub struct IndexStats {
    /// Entry points indexed.
    pub entries: usize,
    /// Interned strings.
    pub strings: usize,
    /// Interned distinct check sets.
    pub check_sets: usize,
    /// Total file size in bytes (including checksum).
    pub bytes: usize,
}

/// Zero-copy accessor over a parsed `spo-index/2` file.
///
/// Parsing decodes only the header and the two shared tables; the offset
/// table and blob region stay borrowed from the input. [`Self::find`] is
/// allocation-free; [`Self::decode`] allocates only the returned policies.
#[derive(Debug)]
pub struct PolicyIndex<'a> {
    library: &'a str,
    options_token: &'a str,
    entry_points_full: u64,
    entry_points_intra: u64,
    strings: Vec<&'a str>,
    sets: Vec<EventPolicy>,
    rows: &'a [u8],
    count: usize,
    blobs: &'a [u8],
    file_bytes: usize,
}

impl<'a> PolicyIndex<'a> {
    /// Parses and validates index bytes (header, whole-file checksum,
    /// table framing, offset-table sort order).
    ///
    /// # Errors
    ///
    /// Names what was wrong — version mismatch, checksum mismatch,
    /// truncation — for the caller's fall-back diagnostic.
    pub fn parse(bytes: &'a [u8]) -> Result<PolicyIndex<'a>, String> {
        let header_end = bytes
            .iter()
            .position(|&b| b == b'\n')
            .ok_or("missing index version header")?;
        let header = std::str::from_utf8(&bytes[..header_end])
            .map_err(|_| "missing index version header".to_owned())?;
        match header.strip_prefix("spo-index ") {
            Some(v) if v == FORMAT_VERSION.to_string() => {}
            Some(v) => return Err(format!("index format version {v} != {FORMAT_VERSION}")),
            None => return Err("missing index version header".to_owned()),
        }
        if bytes.len() < header_end + 9 {
            return Err("truncated index (no checksum)".to_owned());
        }
        let (body, tail) = bytes.split_at(bytes.len() - 8);
        let want = u64::from_le_bytes(tail.try_into().map_err(|_| "truncated index")?);
        if checksum(body) != want {
            return Err("index checksum mismatch (corrupt index)".to_owned());
        }

        let mut c = Cursor::at(body, header_end + 1);
        let library = c.str_ref()?;
        let options_token = c.str_ref()?;
        let entry_points_full = c.u64()?;
        let entry_points_intra = c.u64()?;

        let n_strings = c.counted(4)?;
        let mut strings = Vec::with_capacity(n_strings as usize);
        for _ in 0..n_strings {
            strings.push(c.str_ref()?);
        }
        let n_sets = c.counted(12)?;
        let mut sets = Vec::with_capacity(n_sets as usize);
        for _ in 0..n_sets {
            let must = spo_core::CheckSet::from_bits(BitSet32::from_bits(c.u32()?));
            let may = spo_core::CheckSet::from_bits(BitSet32::from_bits(c.u32()?));
            let n_disjuncts = c.counted(4)?;
            let may_paths: Dnf = (0..n_disjuncts)
                .map(|_| c.u32().map(BitSet32::from_bits))
                .collect::<Result<Vec<_>, _>>()?
                .into_iter()
                .collect();
            sets.push(EventPolicy {
                must,
                may,
                may_paths,
            });
        }

        let count = c.counted64(ROW_BYTES)? as usize;
        let rows = c.take(count * ROW_BYTES)?;
        let blob_len = c.counted64(1)? as usize;
        let blobs = c.take(blob_len)?;
        if c.pos() != body.len() {
            return Err("trailing bytes after index blob region".to_owned());
        }

        let index = PolicyIndex {
            library,
            options_token,
            entry_points_full,
            entry_points_intra,
            strings,
            sets,
            rows,
            count,
            blobs,
            file_bytes: bytes.len(),
        };
        // Sorted, duplicate-free keys are what make `find` sound.
        for i in 1..index.count {
            if index.row(i - 1).root_key >= index.row(i).root_key {
                return Err("index offset table is not sorted by root key".to_owned());
            }
        }
        Ok(index)
    }

    /// The library name the index was compiled from.
    pub fn library(&self) -> &'a str {
        self.library
    }

    /// The cache-compatible options token the index was compiled under.
    /// Consumers must match it against their requested options before
    /// serving answers from the index.
    pub fn options_token(&self) -> &'a str {
        self.options_token
    }

    /// Number of indexed entry points.
    pub fn len(&self) -> usize {
        self.count
    }

    /// `true` if the index holds no entry points.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Summary counters.
    pub fn stats(&self) -> IndexStats {
        IndexStats {
            entries: self.count,
            strings: self.strings.len(),
            check_sets: self.sets.len(),
            bytes: self.file_bytes,
        }
    }

    fn row(&self, i: usize) -> Record {
        let r = &self.rows[i * ROW_BYTES..(i + 1) * ROW_BYTES];
        let u32_at = |o: usize| u32::from_le_bytes([r[o], r[o + 1], r[o + 2], r[o + 3]]);
        let u64_at = |o: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&r[o..o + 8]);
            u64::from_le_bytes(b)
        };
        Record {
            root_key: u64_at(0),
            off: u32_at(8),
            len: u32_at(12),
            flags: u32_at(16),
            content_hash: u64_at(20),
            fingerprint: u64_at(28),
        }
    }

    /// Binary search over the offset table by root key. Allocation-free.
    pub fn find(&self, key: u64) -> Option<Record> {
        let mut lo = 0usize;
        let mut hi = self.count;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let rec = self.row(mid);
            match rec.root_key.cmp(&key) {
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
                std::cmp::Ordering::Equal => return Some(rec),
            }
        }
        None
    }

    /// Iterates every record in root-key order.
    pub fn records(&self) -> impl Iterator<Item = Record> + '_ {
        (0..self.count).map(|i| self.row(i))
    }

    fn blob_of(&self, rec: Record) -> Result<&'a [u8], String> {
        let start = rec.off as usize;
        let end = start
            .checked_add(rec.len as usize)
            .filter(|&e| e <= self.blobs.len())
            .ok_or("entry blob out of bounds")?;
        Ok(&self.blobs[start..end])
    }

    fn string(&self, id: u32) -> Result<&'a str, String> {
        self.strings
            .get(id as usize)
            .copied()
            .ok_or_else(|| format!("string id {id} out of range"))
    }

    fn event_key(&self, c: &mut Cursor<'a>) -> Result<EventKey, String> {
        match c.u8()? {
            0 => Ok(EventKey::ApiReturn),
            1 => Ok(EventKey::Native(self.string(c.u32()?)?.to_owned())),
            2 => Ok(EventKey::DataRead(self.string(c.u32()?)?.to_owned())),
            3 => Ok(EventKey::DataWrite(self.string(c.u32()?)?.to_owned())),
            t => Err(format!("unknown event tag {t}")),
        }
    }

    /// The signature a record indexes, read from the first field of its
    /// blob without decoding the policies.
    pub fn signature_of(&self, rec: Record) -> Result<&'a str, String> {
        let mut c = Cursor::new(self.blob_of(rec)?);
        self.string(c.u32()?)
    }

    fn set(&self, id: u32) -> Result<&EventPolicy, String> {
        self.sets
            .get(id as usize)
            .ok_or_else(|| format!("check-set id {id} out of range"))
    }

    /// Reads one policy's event list into `out` as borrowed views, without
    /// allocating strings or policies (`out` is a reused buffer).
    fn read_events<'s>(
        &'s self,
        c: &mut Cursor<'a>,
        out: &mut Vec<EventRef<'s>>,
    ) -> Result<(), String> {
        out.clear();
        for _ in 0..c.counted(5)? {
            let tag = c.u8()?;
            let name = match tag {
                0 => "",
                1..=3 => self.string(c.u32()?)?,
                t => return Err(format!("unknown event tag {t}")),
            };
            out.push(EventRef {
                tag,
                name,
                policy: self.set(c.u32()?)?,
            });
        }
        Ok(())
    }

    fn decode_policy(&self, sig: &str, c: &mut Cursor<'a>) -> Result<EntryPolicy, String> {
        let mut entry = EntryPolicy::new(sig.to_owned());
        for _ in 0..c.counted(5)? {
            let event = self.event_key(c)?;
            let policy = self.set(c.u32()?)?;
            entry.events.insert(event, policy.clone());
        }
        for _ in 0..c.counted(5)? {
            let event = self.event_key(c)?;
            let origins = (0..c.counted(4)?)
                .map(|_| Ok(self.string(c.u32()?)?.to_owned()))
                .collect::<Result<_, String>>()?;
            entry.event_origins.insert(event, origins);
        }
        for _ in 0..c.counted(5)? {
            let check = c.u8()?;
            let origins = (0..c.counted(4)?)
                .map(|_| Ok(self.string(c.u32()?)?.to_owned()))
                .collect::<Result<_, String>>()?;
            entry.check_origins.insert(check, origins);
        }
        Ok(entry)
    }

    /// Decodes a record into `(signature, full policy, intra policy)`.
    pub fn decode(&self, rec: Record) -> Result<(String, EntryPolicy, EntryPolicy), String> {
        let blob = self.blob_of(rec)?;
        let mut c = Cursor::new(blob);
        let sig = self.string(c.u32()?)?.to_owned();
        let full = self.decode_policy(&sig, &mut c)?;
        let intra = self.decode_policy(&sig, &mut c)?;
        if c.pos() != blob.len() {
            return Err("trailing bytes in entry blob".to_owned());
        }
        Ok((sig, full, intra))
    }

    /// Decodes only a record's full policy, leaving the intra half unread.
    fn decode_full(&self, rec: Record) -> Result<EntryPolicy, String> {
        let mut c = Cursor::new(self.blob_of(rec)?);
        let sig = self.string(c.u32()?)?;
        self.decode_policy(sig, &mut c)
    }

    /// Looks a signature up and renders its policy block exactly as `spo
    /// analyze` and the daemon do (via [`spo_core::render_entry`]; an
    /// entry with no checks renders as the empty string). `Ok(None)` means
    /// the entry point is not in the index.
    pub fn query(&self, signature: &str) -> Result<Option<String>, String> {
        let Some(rec) = self.find(root_key(signature)) else {
            return Ok(None);
        };
        if self.signature_of(rec)? != signature {
            return Ok(None);
        }
        Ok(Some(render_entry(signature, &self.decode_full(rec)?)))
    }

    /// Renders the full library listing exactly as `spo analyze` does
    /// ([`spo_core::render_analysis`] of [`Self::to_libraries`]'s full
    /// half), without rebuilding the library: one pass over the event
    /// lists yields the footer counts and the entries with checks, and
    /// only those are decoded and rendered, in signature order.
    ///
    /// # Errors
    ///
    /// Propagates blob decode failures.
    pub fn render_full(&self) -> Result<String, String> {
        let (mut with_checks, mut may_policies, mut must_policies) = (0usize, 0usize, 0usize);
        let mut checked: Vec<(&'a str, Record)> = Vec::new();
        let mut events = Vec::new();
        for rec in self.records() {
            let mut c = Cursor::new(self.blob_of(rec)?);
            let sig = self.string(c.u32()?)?;
            self.read_events(&mut c, &mut events)?;
            // The counts of LibraryPolicies::{entries_with_checks,
            // may_policy_count, must_policy_count}.
            must_policies += events.len();
            may_policies += events
                .iter()
                .map(|e| e.policy.may_paths.disjuncts().len().max(1))
                .sum::<usize>();
            if events.iter().any(|e| !e.policy.is_unchecked()) {
                with_checks += 1;
                checked.push((sig, rec));
            }
        }
        checked.sort_unstable_by_key(|&(sig, _)| sig);
        let mut out = String::new();
        for (sig, rec) in checked {
            out.push_str(&render_entry(sig, &self.decode_full(rec)?));
        }
        out.push_str(&format!(
            "# {} entry points, {with_checks} with checks, {may_policies} may / \
             {must_policies} must policies\n",
            self.entry_points_full,
        ));
        Ok(out)
    }

    /// Reconstructs the `(full, intra)` [`LibraryPolicies`] pair the index
    /// was compiled from — what diffing and the daemon's warm path need.
    /// Degraded maps are empty by construction (degraded analyses are
    /// rejected at build time).
    pub fn to_libraries(&self) -> Result<(LibraryPolicies, LibraryPolicies), String> {
        let mut full = LibraryPolicies {
            name: self.library.to_owned(),
            entries: BTreeMap::new(),
            stats: AnalysisStats {
                entry_points: self.entry_points_full as usize,
                ..AnalysisStats::default()
            },
            degraded: BTreeMap::new(),
        };
        let mut intra = LibraryPolicies {
            name: self.library.to_owned(),
            entries: BTreeMap::new(),
            stats: AnalysisStats {
                entry_points: self.entry_points_intra as usize,
                ..AnalysisStats::default()
            },
            degraded: BTreeMap::new(),
        };
        for rec in self.records() {
            let (sig, f, i) = self.decode(rec)?;
            full.entries.insert(sig.clone(), f);
            intra.entries.insert(sig, i);
        }
        Ok((full, intra))
    }
}

/// One event of an encoded policy, borrowed from its index: the event key
/// as (tag, name — empty for the API return) and its interned policy.
struct EventRef<'s> {
    tag: u8,
    name: &'s str,
    policy: &'s EventPolicy,
}

/// `true` if two event lists (each in its file's canonical event-key
/// order) have the same events with the same must and may sets — exactly
/// when paper-mode [`spo_core::diff_entry`] can report nothing for them.
fn same_paper_events(left: &[EventRef<'_>], right: &[EventRef<'_>]) -> bool {
    left.len() == right.len()
        && left.iter().zip(right).all(|(l, r)| {
            l.tag == r.tag
                && l.name == r.name
                && l.policy.must == r.policy.must
                && l.policy.may == r.policy.may
        })
}

/// Steps a cursor over one policy's event-origin and check-origin
/// sections (interned ids only, nothing to resolve).
fn skip_origins(c: &mut Cursor<'_>) -> Result<(), String> {
    for _ in 0..c.counted(5)? {
        match c.u8()? {
            0 => {}
            1..=3 => {
                c.u32()?;
            }
            t => return Err(format!("unknown event tag {t}")),
        }
        let n = c.counted(4)?;
        c.take(n as usize * 4)?;
    }
    for _ in 0..c.counted(5)? {
        c.u8()?;
        let n = c.counted(4)?;
        c.take(n as usize * 4)?;
    }
    Ok(())
}

/// The pairwise oracle diff answered from two parsed indexes, without
/// rebuilding either library: the same report bytes and findings bit as
/// [`diff_rendered`] over both sides' [`PolicyIndex::to_libraries`].
///
/// One linear pass zips the two root-key-sorted offset tables; a key match
/// counts only if the signatures agree. Each matched pair whose full (or
/// intra) event lists agree on every (event, must, may) is skipped, since
/// paper-mode [`spo_core::diff_entry`] reports nothing for it. Only the
/// remaining pairs are decoded and diffed — full pairs in signature order,
/// because [`spo_core::group_differences`] keeps each group's first
/// difference as its representative.
///
/// The caller checks [`PolicyIndex::options_token`] agreement first, as
/// for any two analyses being compared.
///
/// # Errors
///
/// Propagates blob decode failures from either side.
pub fn diff_indexes(
    left: &PolicyIndex<'_>,
    right: &PolicyIndex<'_>,
) -> Result<(String, bool), String> {
    let mut matching_apis = 0;
    let mut full_pairs: Vec<(&str, Record, Record)> = Vec::new();
    let mut intra_pairs: Vec<(Record, Record)> = Vec::new();
    let (mut lev, mut rev) = (Vec::new(), Vec::new());
    let (mut i, mut j) = (0, 0);
    while i < left.count && j < right.count {
        let (l, r) = (left.row(i), right.row(j));
        match l.root_key.cmp(&r.root_key) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                i += 1;
                j += 1;
                let mut lc = Cursor::new(left.blob_of(l)?);
                let mut rc = Cursor::new(right.blob_of(r)?);
                let sig = left.string(lc.u32()?)?;
                if sig != right.string(rc.u32()?)? {
                    continue;
                }
                matching_apis += 1;
                left.read_events(&mut lc, &mut lev)?;
                right.read_events(&mut rc, &mut rev)?;
                if !same_paper_events(&lev, &rev) {
                    full_pairs.push((sig, l, r));
                }
                skip_origins(&mut lc)?;
                skip_origins(&mut rc)?;
                left.read_events(&mut lc, &mut lev)?;
                right.read_events(&mut rc, &mut rev)?;
                if !same_paper_events(&lev, &rev) {
                    intra_pairs.push((l, r));
                }
            }
        }
    }
    full_pairs.sort_unstable_by_key(|p| p.0);

    let mut diff = DiffResult {
        left_name: left.library.to_owned(),
        right_name: right.library.to_owned(),
        matching_apis,
        differences: Vec::new(),
    };
    for (_, l, r) in full_pairs {
        let (lf, rf) = (left.decode_full(l)?, right.decode_full(r)?);
        diff.differences.extend(diff_entry(&lf, &rf));
    }
    let mut intra = DiffResult::default();
    for (l, r) in intra_pairs {
        let ((_, _, li), (_, _, ri)) = (left.decode(l)?, right.decode(r)?);
        intra.differences.extend(diff_entry(&li, &ri));
    }
    Ok(render_diff(&diff, &intra))
}

/// Groups a full-policy diff, classifying root causes against the intra
/// ablation's diff, and renders it: the report plus whether any
/// difference was found.
fn render_diff(diff: &DiffResult, intra: &DiffResult) -> (String, bool) {
    let groups = group_differences(diff, &root_keys(intra));
    (render_reports(diff, &groups), !groups.is_empty())
}

/// Composes the analysis-path pairwise diff from two reconstructed
/// `(full, intra)` pairs: differences over the full policies, root-cause
/// classification against the intra ablation's keys, grouped and rendered
/// via [`spo_core::render_reports`]. Returns the report and whether any
/// difference was found — the same composition (and therefore the same
/// bytes and findings bit) as the engine's `compare_all` and the daemon's
/// diff path.
pub fn diff_rendered(
    left_full: &LibraryPolicies,
    left_intra: &LibraryPolicies,
    right_full: &LibraryPolicies,
    right_intra: &LibraryPolicies,
) -> (String, bool) {
    render_diff(
        &spo_core::diff_libraries(left_full, right_full),
        &spo_core::diff_libraries(left_intra, right_intra),
    )
}

/// Reads an index file in one `read()`, with the `index.read.bitflip`
/// chaos site probed between the read and the caller's checksum verify —
/// an injected flip must surface as a typed [`PolicyIndex::parse`]
/// failure, never a wrong answer.
///
/// # Errors
///
/// Propagates the underlying IO error.
pub fn read_index_file(path: &Path) -> std::io::Result<Vec<u8>> {
    read_index_file_with(path, &spo_chaos::current())
}

/// [`read_index_file`] with an explicit fault plan (tests inject without
/// touching the process-wide plan).
///
/// # Errors
///
/// Propagates the underlying IO error.
pub fn read_index_file_with(path: &Path, plan: &spo_chaos::FaultPlan) -> std::io::Result<Vec<u8>> {
    let mut bytes = std::fs::read(path)?;
    if !bytes.is_empty() && plan.should_fire(spo_chaos::sites::INDEX_READ_BITFLIP) {
        let pos = plan.amount(spo_chaos::sites::INDEX_READ_BITFLIP, bytes.len() as u64) as usize;
        bytes[pos] ^= 0x01;
    }
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use spo_core::{render_analysis, Check, CheckSet};

    fn policy(must: &[Check], may_paths: &[&[Check]]) -> EventPolicy {
        let must: CheckSet = must.iter().copied().collect();
        let paths: Dnf = may_paths
            .iter()
            .map(|p| p.iter().copied().collect::<CheckSet>().bits())
            .collect();
        EventPolicy {
            must,
            may: CheckSet::from_bits(paths.flat_union()),
            may_paths: paths,
        }
    }

    fn fixture() -> (LibraryPolicies, LibraryPolicies) {
        let mut full = LibraryPolicies {
            name: "jdk".into(),
            ..Default::default()
        };
        let mut intra = LibraryPolicies {
            name: "jdk".into(),
            ..Default::default()
        };
        for (sig, checked) in [
            ("Net.connect(Addr)", true),
            ("Net.accept()", true),
            ("Util.length()", false),
        ] {
            let mut f = EntryPolicy::new(sig.into());
            let mut i = EntryPolicy::new(sig.into());
            if checked {
                f.events.insert(
                    EventKey::Native("connect0".into()),
                    policy(&[Check::Connect], &[&[Check::Connect], &[Check::Accept]]),
                );
                f.events.insert(EventKey::ApiReturn, EventPolicy::default());
                f.event_origins.insert(
                    EventKey::Native("connect0".into()),
                    ["Net.impl".to_owned()].into(),
                );
                f.check_origins.insert(
                    Check::Connect.index(),
                    ["Net.guard".to_owned(), "Net.impl".to_owned()].into(),
                );
                i.events
                    .insert(EventKey::ApiReturn, policy(&[], &[&[Check::Connect]]));
            } else {
                f.events.insert(EventKey::ApiReturn, EventPolicy::default());
                i.events.insert(EventKey::ApiReturn, EventPolicy::default());
            }
            full.entries.insert(sig.into(), f);
            intra.entries.insert(sig.into(), i);
        }
        full.stats.entry_points = full.entries.len();
        intra.stats.entry_points = intra.entries.len();
        (full, intra)
    }

    fn build(full: &LibraryPolicies, intra: &LibraryPolicies) -> Vec<u8> {
        IndexBuilder::new("jdk", &AnalysisOptions::default(), full, intra)
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip_reconstructs_libraries() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let index = PolicyIndex::parse(&bytes).unwrap();
        assert_eq!(index.library(), "jdk");
        assert_eq!(index.len(), 3);
        let (rfull, rintra) = index.to_libraries().unwrap();
        assert_eq!(rfull.entries, full.entries);
        assert_eq!(rintra.entries, intra.entries);
        assert_eq!(rfull.stats.entry_points, 3);
        assert_eq!(render_analysis(&rfull), render_analysis(&full));
    }

    #[test]
    fn query_matches_render_entry() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let index = PolicyIndex::parse(&bytes).unwrap();
        for (sig, entry) in &full.entries {
            let got = index.query(sig).unwrap().unwrap();
            assert_eq!(got, render_entry(sig, entry));
        }
        assert_eq!(index.query("No.such()").unwrap(), None);
    }

    #[test]
    fn check_sets_and_strings_are_interned() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let index = PolicyIndex::parse(&bytes).unwrap();
        let stats = index.stats();
        // Two identical checked entries share one checked set; plus the
        // empty set and the intra set: far fewer than one per event.
        assert!(stats.check_sets <= 3, "check sets: {}", stats.check_sets);
        // "Net.impl" appears in two entries' origins but is stored once.
        let occurrences = index.strings.iter().filter(|s| **s == "Net.impl").count();
        assert_eq!(occurrences, 1);
    }

    #[test]
    fn flags_reflect_policies_without_decoding() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let index = PolicyIndex::parse(&bytes).unwrap();
        let rec = index.find(root_key("Net.connect(Addr)")).unwrap();
        assert!(rec.flags & flags::HAS_CHECKS != 0);
        assert!(rec.flags & flags::UNGUARDED_EVENT != 0); // bare ApiReturn
        assert!(rec.flags & flags::INTRA_HAS_CHECKS != 0);
        assert!(rec.flags & flags::OPT_ICP != 0);
        let unchecked = index.find(root_key("Util.length()")).unwrap();
        assert!(unchecked.flags & flags::HAS_CHECKS == 0);
    }

    #[test]
    fn degraded_analysis_is_rejected() {
        let (mut full, intra) = fixture();
        full.degraded.insert(
            "Net.connect(Addr)".into(),
            spo_guard::Diagnostic {
                phase: spo_guard::Phase::Analysis,
                root: "Net.connect(Addr)".into(),
                cause: spo_guard::Cause::Panic,
                severity: spo_guard::Severity::Warning,
                message: "boom".into(),
            },
        );
        let err = IndexBuilder::new("jdk", &AnalysisOptions::default(), &full, &intra)
            .build()
            .unwrap_err();
        assert!(err.contains("degraded"), "{err}");
    }

    #[test]
    fn corruption_degrades_not_wrong() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        // Bitflip anywhere in the body: checksum mismatch.
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert!(PolicyIndex::parse(&flipped)
            .unwrap_err()
            .contains("checksum"));
        // Truncation: missing checksum or framing damage.
        assert!(PolicyIndex::parse(&bytes[..bytes.len() - 3]).is_err());
        assert!(PolicyIndex::parse(&bytes[..10]).is_err());
        // Version bump: clean version error, no decode attempt.
        let mut bumped = bytes.clone();
        bumped[10] = b'9'; // "spo-index 2\n" -> "spo-index 9\n"
        assert!(PolicyIndex::parse(&bumped).unwrap_err().contains("version"));
        // Garbage header.
        assert!(PolicyIndex::parse(b"not an index\n").is_err());
    }

    #[test]
    fn every_probed_bitflip_fails_the_checksum() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let tail = bytes.len().saturating_sub(64);
        let positions = (0..bytes.len()).step_by(7).chain(tail..bytes.len());
        for pos in positions {
            for bit in [0x01u8, 0x80] {
                let mut flipped = bytes.clone();
                flipped[pos] ^= bit;
                assert!(
                    PolicyIndex::parse(&flipped).is_err(),
                    "flip {bit:#04x} at byte {pos} of {} went unnoticed",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn chaos_bitflip_surfaces_as_parse_error() {
        let (full, intra) = fixture();
        let bytes = build(&full, &intra);
        let dir = std::env::temp_dir().join(format!("spo-index-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(INDEX_FILE);
        std::fs::write(&path, &bytes).unwrap();
        let plan = spo_chaos::FaultPlan::seeded(7).site_once(spo_chaos::sites::INDEX_READ_BITFLIP);
        let read = read_index_file_with(&path, &plan).unwrap();
        assert_ne!(read, bytes, "the chaos site must have flipped a byte");
        assert!(PolicyIndex::parse(&read).is_err());
        // The second read is clean (site fires once) and parses.
        let read = read_index_file_with(&path, &plan).unwrap();
        assert_eq!(read, bytes);
        assert!(PolicyIndex::parse(&read).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn diff_rendered_matches_manual_composition() {
        let (full_a, intra_a) = fixture();
        let (mut full_b, intra_b) = fixture();
        full_b.name = "harmony".into();
        // Drop a check on one side to force a difference.
        full_b
            .entries
            .get_mut("Net.accept()")
            .unwrap()
            .events
            .insert(EventKey::Native("connect0".into()), EventPolicy::default());
        let (report, findings) = diff_rendered(&full_a, &intra_a, &full_b, &intra_b);
        assert!(findings);
        assert!(report.contains("jdk vs harmony"), "{report}");
    }
}
