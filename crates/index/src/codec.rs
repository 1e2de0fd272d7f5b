//! Shared little-endian codec primitives for the length-prefixed binary
//! packs (`spo-cache`'s `policies.spc` and this crate's `policies.spi`),
//! and the trailing whole-file [`checksum`] both packs end with.
//!
//! Reading is built on [`Cursor`], a bounded reader whose every method
//! fails soundly on truncation, and on *checked counted reads*
//! ([`Cursor::counted`]): a decoded element count is validated against the
//! bytes actually remaining **before** any allocation or slicing, so a
//! length field truncated or corrupted into a huge value degrades to a
//! decode error instead of a capacity panic or an over-reserve.

use spo_core::EventKey;

/// Appends a little-endian u32.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian u64.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string (u32 length + bytes).
pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

/// Appends an [`EventKey`] with its name inlined: u8 tag (0 = ApiReturn,
/// 1 = Native, 2 = DataRead, 3 = DataWrite) + [`put_str`] name for every
/// tag but 0. This is the cache-blob encoding; the index interns names
/// and encodes keys itself.
pub fn put_event_key(buf: &mut Vec<u8>, key: &EventKey) {
    match key {
        EventKey::ApiReturn => buf.push(0),
        EventKey::Native(name) => {
            buf.push(1);
            put_str(buf, name);
        }
        EventKey::DataRead(name) => {
            buf.push(2);
            put_str(buf, name);
        }
        EventKey::DataWrite(name) => {
            buf.push(3);
            put_str(buf, name);
        }
    }
}

/// Bounded reader over a byte slice; every method fails soundly on
/// truncation and nothing is allocated before its length is validated.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// A cursor at byte offset `pos` (for skipping a text header).
    pub fn at(bytes: &'a [u8], pos: usize) -> Cursor<'a> {
        Cursor { bytes, pos }
    }

    /// Current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    pub fn remaining(&self) -> usize {
        self.bytes.len().saturating_sub(self.pos)
    }

    /// Takes the next `n` bytes, or fails if fewer remain.
    ///
    /// # Errors
    ///
    /// `"truncated entry"` on overrun.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or("truncated entry")?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian u32.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().map_err(|_| "truncated entry")?,
        ))
    }

    /// Reads a little-endian u64.
    ///
    /// # Errors
    ///
    /// Fails on truncation.
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().map_err(|_| "truncated entry")?,
        ))
    }

    /// Reads a u32 element count and validates `count * min_item_bytes`
    /// against the bytes remaining **before** the caller allocates or
    /// loops — the checked-read guard for length-prefixed collections.
    /// `min_item_bytes` is the smallest possible encoding of one element,
    /// so the check is a sound lower bound.
    ///
    /// # Errors
    ///
    /// Fails on truncation or an impossible count.
    pub fn counted(&mut self, min_item_bytes: usize) -> Result<u32, String> {
        let n = self.u32()?;
        self.check_count(n as u64, min_item_bytes)?;
        Ok(n)
    }

    /// [`Self::counted`] for u64 counts (pack-level entry counts).
    ///
    /// # Errors
    ///
    /// Fails on truncation or an impossible count.
    pub fn counted64(&mut self, min_item_bytes: usize) -> Result<u64, String> {
        let n = self.u64()?;
        self.check_count(n, min_item_bytes)?;
        Ok(n)
    }

    fn check_count(&self, n: u64, min_item_bytes: usize) -> Result<(), String> {
        let need = n.checked_mul(min_item_bytes as u64);
        match need {
            Some(need) if need <= self.remaining() as u64 => Ok(()),
            _ => Err(format!(
                "impossible count {n} (needs ≥ {} bytes, {} remain)",
                need.map_or("overflowing".to_owned(), |b| b.to_string()),
                self.remaining()
            )),
        }
    }

    /// Reads a length-prefixed UTF-8 string, owned.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn str(&mut self) -> Result<String, String> {
        Ok(self.str_ref()?.to_owned())
    }

    /// Reads a length-prefixed UTF-8 string borrowed from the underlying
    /// bytes — the zero-copy variant the index reader uses.
    ///
    /// # Errors
    ///
    /// Fails on truncation or invalid UTF-8.
    pub fn str_ref(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8 in entry".to_owned())
    }

    /// Reads an [`EventKey`] in the inlined-name encoding of
    /// [`put_event_key`].
    ///
    /// # Errors
    ///
    /// Fails on truncation or an unknown tag.
    pub fn event_key(&mut self) -> Result<EventKey, String> {
        match self.u8()? {
            0 => Ok(EventKey::ApiReturn),
            1 => Ok(EventKey::Native(self.str()?)),
            2 => Ok(EventKey::DataRead(self.str()?)),
            3 => Ok(EventKey::DataWrite(self.str()?)),
            t => Err(format!("unknown event tag {t}")),
        }
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// The trailing whole-file checksum of both binary packs (`policies.spc`
/// and `policies.spi`): FNV-1a run word-wise over four independent lanes,
/// so the multiplies of neighbouring words overlap instead of forming one
/// serial chain. Lane `i` takes every fourth
/// little-endian u64 word starting at word `i`; the lanes are then folded
/// together, followed by the bytes of the last partial 32-byte block and
/// the length.
///
/// Every step `h ← (h ^ x) · prime` is a bijection in `x` for fixed `h`
/// and in `h` for fixed `x` (the prime is odd), so a change confined to
/// one word or one tail byte — in particular any single flipped bit or
/// byte — always changes the sum.
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut lanes = [FNV_OFFSET, FNV_OFFSET ^ 1, FNV_OFFSET ^ 2, FNV_OFFSET ^ 3];
    let mut blocks = bytes.chunks_exact(32);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            let mut w = [0u8; 8];
            w.copy_from_slice(word);
            *lane = (*lane ^ u64::from_le_bytes(w)).wrapping_mul(FNV_PRIME);
        }
    }
    let mut h = lanes[0];
    for lane in &lanes[1..] {
        h = (h ^ lane).wrapping_mul(FNV_PRIME);
    }
    for &b in blocks.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(FNV_PRIME);
    }
    (h ^ bytes.len() as u64).wrapping_mul(FNV_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_scalars_and_strings() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 7);
        put_u64(&mut buf, u64::MAX - 1);
        put_str(&mut buf, "Class.method(int)");
        put_event_key(&mut buf, &EventKey::Native("connect0".into()));
        let mut c = Cursor::new(&buf);
        assert_eq!(c.u32().unwrap(), 7);
        assert_eq!(c.u64().unwrap(), u64::MAX - 1);
        assert_eq!(c.str().unwrap(), "Class.method(int)");
        assert_eq!(c.event_key().unwrap(), EventKey::Native("connect0".into()));
        assert_eq!(c.remaining(), 0);
    }

    #[test]
    fn truncation_fails_soundly() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hello");
        let mut c = Cursor::new(&buf[..6]); // length says 5, only 2 remain
        assert!(c.str().is_err());
    }

    #[test]
    fn counted_rejects_impossible_counts_before_allocation() {
        // A corrupted count of ~4 billion items in a 12-byte buffer must
        // fail the guard, not reach a collect() that pre-reserves.
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u64(&mut buf, 0);
        let mut c = Cursor::new(&buf);
        let err = c.counted(4).unwrap_err();
        assert!(err.contains("impossible count"), "{err}");

        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX); // × any min size overflows u64
        let mut c = Cursor::new(&buf);
        assert!(c.counted64(12).is_err());

        // A plausible count passes and the items read back.
        let mut buf = Vec::new();
        put_u32(&mut buf, 2);
        put_u32(&mut buf, 10);
        put_u32(&mut buf, 20);
        let mut c = Cursor::new(&buf);
        let n = c.counted(4).unwrap();
        let items: Vec<u32> = (0..n).map(|_| c.u32().unwrap()).collect();
        assert_eq!(items, [10, 20]);
    }

    #[test]
    fn checksum_covers_words_tail_and_length() {
        let base: Vec<u8> = (0..77u8).collect(); // two 32-byte blocks + 13 tail bytes
        let sum = checksum(&base);
        for pos in 0..base.len() {
            let mut b = base.clone();
            b[pos] ^= 0x10;
            assert_ne!(checksum(&b), sum, "byte {pos}");
        }
        // Trailing zeros are not free: the length is folded in.
        let mut longer = base.clone();
        longer.push(0);
        assert_ne!(checksum(&longer), sum);
        assert_ne!(checksum(&[]), checksum(&[0]));
    }
}
