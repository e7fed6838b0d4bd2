//! Deterministic structural fingerprints — the keys of the memoised
//! query layer.
//!
//! The paper's data-mining phase (Sec 11, `mcompare`) asks the same
//! questions over and over: *is this final state allowed for this test
//! under this model?* Memoising the answers needs a stable identity for
//! each question, and this module provides it: a 128-bit [`Fingerprint`]
//! computed by an FNV-1a-style stream hasher ([`FpHasher`]) over a
//! *structural* encoding of the inputs.
//!
//! Three properties matter more than raw speed here:
//!
//! - **Determinism.** The digest of a given structure is identical
//!   across runs, processes and platforms — no per-process seeds, no
//!   pointer values, no `HashMap` iteration order (callers feed `BTreeMap`
//!   contents, which iterate sorted).
//! - **Injectivity in practice.** Every write is framed: variable-length
//!   pieces are length-prefixed and each logical field starts with a
//!   domain-separation tag, so `("ab", "c")` and `("a", "bc")` — or a
//!   register part and a memory part — can never collide by
//!   concatenation.
//! - **No dependencies.** 128-bit FNV-1a is four lines over `u128`
//!   arithmetic; the offline build stays offline.
//!
//! The 128-bit width makes accidental collisions across a realistic
//! corpus (billions of distinct keys) vanishingly unlikely, which is what
//! lets `herd-cache` treat the fingerprint as the *whole* key — a
//! content-addressed store, not a hash table with stored keys.

/// A 128-bit content fingerprint; the key type of the `herd-cache` store.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// The low 64 bits — handy as a shard selector or compact display.
    #[inline]
    pub fn lo(self) -> u64 {
        self.0 as u64
    }
}

impl std::fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

/// FNV-1a offset basis, 128-bit variant.
const FNV_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
/// FNV-1a prime, 128-bit variant.
const FNV_PRIME: u128 = 0x0000000001000000000000000000013b;

/// An incremental FNV-1a-128 stream hasher with framed writes.
///
/// Every `write_*` method frames its payload (a one-byte kind tag, a
/// length prefix for variable-length data) so distinct call sequences
/// produce distinct streams. Domain separation across logical fields is
/// the caller's job via [`FpHasher::tag`].
///
/// # Examples
///
/// ```
/// use herd_core::fingerprint::FpHasher;
///
/// let mut h = FpHasher::new("query/v1");
/// h.tag("test");
/// h.write_str("SB x86");
/// h.tag("model");
/// h.write_str("TSO");
/// let a = h.finish();
///
/// // Same content, same key — across runs and processes.
/// let mut h2 = FpHasher::new("query/v1");
/// h2.tag("test");
/// h2.write_str("SB x86");
/// h2.tag("model");
/// h2.write_str("TSO");
/// assert_eq!(a, h2.finish());
/// ```
#[derive(Clone, Debug)]
pub struct FpHasher {
    state: u128,
}

impl FpHasher {
    /// A fresh hasher seeded with a schema label (e.g. `"query/v1"`);
    /// bumping the label invalidates every key derived under it.
    pub fn new(schema: &str) -> Self {
        let mut h = FpHasher { state: FNV_OFFSET };
        h.write_str(schema);
        h
    }

    /// A hasher resuming from an existing fingerprint — how per-outcome
    /// keys extend a `(test, model, opts)` base key.
    pub fn from(base: Fingerprint) -> Self {
        FpHasher { state: base.0 }
    }

    #[inline]
    fn step(&mut self, byte: u8) {
        self.state ^= byte as u128;
        self.state = self.state.wrapping_mul(FNV_PRIME);
    }

    /// Mixes raw bytes (unframed — used by the framed writers below).
    #[inline]
    fn raw(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.step(b);
        }
    }

    /// Starts a logical field: a domain-separation tag. Cheap insurance
    /// that reordered or omitted fields change the digest.
    pub fn tag(&mut self, name: &str) {
        self.step(T_TAG);
        self.raw(&(name.len() as u64).to_le_bytes());
        self.raw(name.as_bytes());
    }

    /// Mixes a length-prefixed byte string.
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.step(T_BYTES);
        self.raw(&(bytes.len() as u64).to_le_bytes());
        self.raw(bytes);
    }

    /// Mixes a length-prefixed UTF-8 string.
    pub fn write_str(&mut self, s: &str) {
        self.step(T_STR);
        self.raw(&(s.len() as u64).to_le_bytes());
        self.raw(s.as_bytes());
    }

    /// Mixes an unsigned 64-bit integer.
    pub fn write_u64(&mut self, v: u64) {
        self.step(T_U64);
        self.raw(&v.to_le_bytes());
    }

    /// Mixes a signed 64-bit integer.
    pub fn write_i64(&mut self, v: i64) {
        self.step(T_I64);
        self.raw(&v.to_le_bytes());
    }

    /// Mixes a boolean.
    pub fn write_bool(&mut self, v: bool) {
        self.step(T_BOOL);
        self.step(v as u8);
    }

    /// Mixes a collection length — write it before iterating the items so
    /// `[ab]` and `[a, b]` framings cannot collide.
    pub fn write_len(&mut self, n: usize) {
        self.step(T_LEN);
        self.raw(&(n as u64).to_le_bytes());
    }

    /// The digest of everything written so far (the hasher stays usable).
    pub fn finish(&self) -> Fingerprint {
        // One final avalanche round: FNV's raw state is weak in its low
        // bits for short inputs; xor-folding the multiplied halves spreads
        // every input byte across the whole digest.
        let s = self.state;
        let folded = s ^ s.rotate_left(67) ^ s.rotate_left(113);
        Fingerprint(folded.wrapping_mul(FNV_PRIME) ^ folded >> 71)
    }
}

// Framing kind tags (arbitrary distinct bytes).
const T_TAG: u8 = 0x7a;
const T_BYTES: u8 = 0xb1;
const T_STR: u8 = 0x51;
const T_U64: u8 = 0x64;
const T_I64: u8 = 0x69;
const T_BOOL: u8 = 0xb0;
const T_LEN: u8 = 0x1e;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = FpHasher::new("t/v1");
        a.write_str("x");
        a.write_u64(7);
        let mut b = FpHasher::new("t/v1");
        b.write_str("x");
        b.write_u64(7);
        assert_eq!(a.finish(), b.finish());

        let mut c = FpHasher::new("t/v1");
        c.write_u64(7);
        c.write_str("x");
        assert_ne!(a.finish(), c.finish(), "field order is part of the identity");
    }

    #[test]
    fn framing_prevents_concatenation_collisions() {
        let mut a = FpHasher::new("t/v1");
        a.write_str("ab");
        a.write_str("c");
        let mut b = FpHasher::new("t/v1");
        b.write_str("a");
        b.write_str("bc");
        assert_ne!(a.finish(), b.finish());

        let mut c = FpHasher::new("t/v1");
        c.write_bytes(b"ab");
        let mut d = FpHasher::new("t/v1");
        d.write_str("ab");
        assert_ne!(c.finish(), d.finish(), "kind tags separate types");
    }

    #[test]
    fn schema_and_tags_separate_domains() {
        let mut a = FpHasher::new("q/v1");
        a.write_u64(1);
        let mut b = FpHasher::new("q/v2");
        b.write_u64(1);
        assert_ne!(a.finish(), b.finish());

        let mut c = FpHasher::new("q/v1");
        c.tag("regs");
        c.write_u64(1);
        let mut d = FpHasher::new("q/v1");
        d.tag("mem");
        d.write_u64(1);
        assert_ne!(c.finish(), d.finish());
    }

    #[test]
    fn resuming_extends_a_base_key() {
        let mut base = FpHasher::new("q/v1");
        base.write_str("test+model");
        let k = base.finish();
        let mut row1 = FpHasher::from(k);
        row1.write_str("0:r1=1");
        let mut row2 = FpHasher::from(k);
        row2.write_str("0:r1=0");
        assert_ne!(row1.finish(), row2.finish());
    }

    #[test]
    fn digests_spread_over_the_low_bits() {
        // Shard selection uses the low bits; make sure small inputs do
        // not collapse onto a few residues.
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..64u64 {
            let mut h = FpHasher::new("t/v1");
            h.write_u64(i);
            seen.insert(h.finish().lo() % 16);
        }
        assert!(seen.len() >= 12, "low bits poorly distributed: {seen:?}");
    }
}
