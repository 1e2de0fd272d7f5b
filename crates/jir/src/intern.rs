//! String interning.
//!
//! Every identifier in a [`Program`](crate::Program) — class names, method
//! names, field names, local names, string literals — is interned into a
//! compact [`Symbol`] so that the analysis layers can compare and hash names
//! in O(1) and store them in dense tables.

use std::fmt;

/// An interned string.
///
/// Symbols are only meaningful relative to the [`Interner`] (and therefore
/// the [`Program`](crate::Program)) that produced them. Comparing symbols
/// from different interners is a logic error, though not memory-unsafe.
///
/// # Examples
///
/// ```
/// use spo_jir::Interner;
///
/// let mut interner = Interner::new();
/// let a = interner.intern("java.lang.Object");
/// let b = interner.intern("java.lang.Object");
/// assert_eq!(a, b);
/// assert_eq!(interner.resolve(a), "java.lang.Object");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Symbol(u32);

impl Symbol {
    /// Returns the dense index of this symbol, suitable for table lookups.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sym#{}", self.0)
    }
}

/// A deduplicating string table mapping strings to [`Symbol`]s and back.
///
/// Interning the same string twice returns the same symbol. Resolution is
/// O(1). The interner never forgets a string.
///
/// Each string is stored once, back to back with the others in a single
/// buffer; the hash index holds symbols, not copies of the text.
#[derive(Clone, Default)]
pub struct Interner {
    /// Every interned string, in symbol order.
    text: String,
    /// `ends[s]` is the offset in `text` where symbol `s` ends; it starts
    /// where symbol `s - 1` ends.
    ends: Vec<u32>,
    /// Open-addressed hash index with linear probing. An occupied slot
    /// holds the high 32 bits of the string's hash above `symbol + 1`; an
    /// empty slot is 0. The length is zero or a power of two at least
    /// twice the number of symbols.
    slots: Vec<u64>,
}

/// The FxHash mix: a word at a time, rotate, xor, multiply. Fast on the
/// short names a program is made of, and deterministic. Not resistant to
/// chosen collisions, which is fine for tables keyed by source names.
#[derive(Clone, Copy, Default)]
pub(crate) struct FxHasher(u64);

/// `HashMap` state for [`FxHasher`].
pub(crate) type FxBuildHasher = std::hash::BuildHasherDefault<FxHasher>;

impl FxHasher {
    fn add(&mut self, word: u64) {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(K);
    }
}

impl std::hash::Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let mut word = [0u8; 8];
            word.copy_from_slice(w);
            self.add(u64::from_le_bytes(word));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            let word = rest
                .iter()
                .rev()
                .fold(0u64, |w, &b| (w << 8) | u64::from(b));
            self.add(word);
        }
    }

    fn write_u8(&mut self, b: u8) {
        self.add(u64::from(b));
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// The interner's hash of `s`: the well-mixed high 32 bits of its FxHash.
/// They pick the probe start and pre-screen string comparisons.
fn hash(s: &str) -> u32 {
    let mut h = FxHasher(s.len() as u64);
    std::hash::Hasher::write(&mut h, s.as_bytes());
    (h.0 >> 32) as u32
}

impl Interner {
    /// Creates an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// The slot holding `s`, or the empty slot where it would go.
    fn probe(&self, s: &str, h: u32) -> Result<Symbol, usize> {
        let mask = self.slots.len() - 1;
        let mut at = h as usize & mask;
        loop {
            let slot = self.slots[at];
            if slot == 0 {
                return Err(at);
            }
            let sym = Symbol(slot as u32 - 1);
            if (slot >> 32) as u32 == h && self.text.as_bytes()[self.span(sym)] == *s.as_bytes() {
                return Ok(sym);
            }
            at = (at + 1) & mask;
        }
    }

    /// Puts an occupied slot value into the first free slot of its probe
    /// sequence.
    fn place(&mut self, slot: u64) {
        let mask = self.slots.len() - 1;
        let mut at = (slot >> 32) as usize & mask;
        while self.slots[at] != 0 {
            at = (at + 1) & mask;
        }
        self.slots[at] = slot;
    }

    /// Doubles the hash index, re-placing each slot by its stored hash.
    fn grow(&mut self) {
        let len = (self.slots.len() * 2).max(64);
        let old = std::mem::replace(&mut self.slots, vec![0; len]);
        for slot in old.into_iter().filter(|&s| s != 0) {
            self.place(slot);
        }
    }

    /// Forgets every string interned after the first `len`, whose symbols
    /// stay valid.
    pub(crate) fn truncate(&mut self, len: usize) {
        if len >= self.ends.len() {
            return;
        }
        self.ends.truncate(len);
        self.text
            .truncate(self.ends.last().map_or(0, |&end| end as usize));
        self.slots.fill(0);
        for i in 0..len {
            let h = hash(self.resolve(Symbol(i as u32)));
            self.place((u64::from(h) << 32) | (i as u64 + 1));
        }
    }

    /// Interns `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Symbol {
        if self.slots.len() < 2 * (self.ends.len() + 1) {
            self.grow();
        }
        let h = hash(s);
        match self.probe(s, h) {
            Ok(sym) => sym,
            Err(at) => {
                let next = u32::try_from(self.ends.len() + 1).expect("interner overflow");
                let sym = Symbol(next - 1);
                self.text.push_str(s);
                self.ends
                    .push(u32::try_from(self.text.len()).expect("interner overflow"));
                self.slots[at] = (u64::from(h) << 32) | u64::from(next);
                sym
            }
        }
    }

    /// Returns the symbol for `s` if it has been interned before.
    pub fn get(&self, s: &str) -> Option<Symbol> {
        if self.slots.is_empty() {
            return None;
        }
        self.probe(s, hash(s)).ok()
    }

    /// Resolves a symbol back to its string.
    ///
    /// # Panics
    ///
    /// Panics if `sym` was produced by a different interner and is out of
    /// range for this one.
    pub fn resolve(&self, sym: Symbol) -> &str {
        &self.text[self.span(sym)]
    }

    /// Where `sym`'s text lies in `text`.
    fn span(&self, sym: Symbol) -> std::ops::Range<usize> {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        start..self.ends[i] as usize
    }

    /// Number of distinct strings interned so far.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Returns `true` if nothing has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }
}

impl fmt::Debug for Interner {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Interner")
            .field("len", &self.ends.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("foo");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn distinct_strings_get_distinct_symbols() {
        let mut i = Interner::new();
        let a = i.intern("foo");
        let b = i.intern("bar");
        assert_ne!(a, b);
        assert_eq!(i.resolve(a), "foo");
        assert_eq!(i.resolve(b), "bar");
    }

    #[test]
    fn get_without_interning() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
    }

    #[test]
    fn empty_interner() {
        let i = Interner::new();
        assert!(i.is_empty());
        assert_eq!(i.len(), 0);
    }

    #[test]
    fn truncate_forgets_later_strings_only() {
        let mut i = Interner::new();
        let kept: Vec<Symbol> = (0..100).map(|n| i.intern(&format!("s{n}"))).collect();
        for n in 100..200 {
            i.intern(&format!("s{n}"));
        }
        i.truncate(100);
        assert_eq!(i.len(), 100);
        assert_eq!(i.get("s150"), None);
        for (n, &sym) in kept.iter().enumerate() {
            assert_eq!(i.get(&format!("s{n}")), Some(sym));
        }
        let new = i.intern("new");
        assert_eq!(i.resolve(new), "new");
        assert_eq!(i.len(), 101);
    }

    #[test]
    fn empty_string_interns() {
        let mut i = Interner::new();
        let s = i.intern("");
        assert_eq!(i.resolve(s), "");
    }
}
