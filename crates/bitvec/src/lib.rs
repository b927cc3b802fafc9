//! # lr-bv: arbitrary-width bitvectors
//!
//! This crate provides [`BitVec`], a fixed-width (but arbitrarily wide) two's-complement
//! bitvector value type. It is the value domain shared by every other crate in the
//! Lakeroad reproduction: the ℒlr interpreter evaluates to `BitVec`s, the QF_BV term
//! graph folds constants over `BitVec`s, FPGA primitive models compute with `BitVec`s,
//! and counterexamples produced by the synthesis engine are environments of `BitVec`s.
//!
//! The representation is a little-endian vector of 64-bit limbs with all bits above
//! `width` kept at zero (a maintained invariant checked in debug builds).
//!
//! ```
//! use lr_bv::BitVec;
//!
//! let a = BitVec::from_u64(5, 8);
//! let b = BitVec::from_u64(7, 8);
//! assert_eq!(a.add(&b), BitVec::from_u64(12, 8));
//! assert_eq!(a.mul(&b), BitVec::from_u64(35, 8));
//! assert_eq!(a.concat(&b).width(), 16);
//! ```
//!
//! The crate also holds [`Rng`], the workspace's one seeded generator (xorshift64*
//! with Lemire reduction). Every seeded stream draws from it: the HDL fuzz
//! generator, random AIGs, synthetic batch scenarios, cache-replay stimulus, the
//! enumerator's probes, and the spec-vs-implementation agreement check in `lr_ir`.
//! Two streams deliberately stay separate: the SAT solver's branch randomizer and
//! CEGIS's seed examples. Their exact values steer the search that the committed
//! SAT and CEGIS bench records pin, and `lr_sat` depends on nothing.

mod format;
mod ops;
mod rng;

pub use format::ParseBitVecError;
pub use rng::Rng;

/// A fixed-width bitvector value.
///
/// The width may be any non-zero number of bits. All operations are width-checked:
/// mixing operands of different widths panics (this mirrors the strictness of the
/// SMT-LIB QF_BV theory the paper's synthesis queries are expressed in).
///
/// The derived `Ord` compares `(width, limbs)` lexicographically. It is a *total*
/// order (used to keep e-graph rebuilds and canonical-form extraction
/// deterministic across processes), not the numeric order of the values —
/// use [`BitVec::ult`] and friends for numeric comparison.
#[derive(Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BitVec {
    /// Width in bits. Always >= 1.
    width: u32,
    /// Little-endian limbs; bits above `width` are zero.
    limbs: Vec<u64>,
}

pub(crate) fn limbs_for(width: u32) -> usize {
    (width as usize).div_ceil(64)
}

impl BitVec {
    /// Creates a zero-valued bitvector of the given width.
    ///
    /// # Panics
    /// Panics if `width == 0`.
    pub fn zeros(width: u32) -> Self {
        assert!(width > 0, "bitvector width must be non-zero");
        BitVec { width, limbs: vec![0; limbs_for(width)] }
    }

    /// Creates an all-ones bitvector of the given width.
    pub fn ones(width: u32) -> Self {
        let mut bv = Self::zeros(width);
        for limb in bv.limbs.iter_mut() {
            *limb = u64::MAX;
        }
        bv.mask_top();
        bv
    }

    /// Creates a bitvector of width `width` holding `value` truncated to that width.
    pub fn from_u64(value: u64, width: u32) -> Self {
        let mut bv = Self::zeros(width);
        bv.limbs[0] = value;
        bv.mask_top();
        bv
    }

    /// Creates a bitvector of width `width` holding `value` truncated to that width.
    pub fn from_u128(value: u128, width: u32) -> Self {
        let mut bv = Self::zeros(width);
        bv.limbs[0] = value as u64;
        if bv.limbs.len() > 1 {
            bv.limbs[1] = (value >> 64) as u64;
        }
        bv.mask_top();
        bv
    }

    /// Creates a bitvector from an i64, sign-extended/truncated to `width`.
    pub fn from_i64(value: i64, width: u32) -> Self {
        let mut bv = Self::zeros(width);
        let fill = if value < 0 { u64::MAX } else { 0 };
        bv.limbs[0] = value as u64;
        for limb in bv.limbs.iter_mut().skip(1) {
            *limb = fill;
        }
        bv.mask_top();
        bv
    }

    /// Creates a bitvector from booleans, least-significant bit first.
    ///
    /// # Panics
    /// Panics if `bits` is empty.
    pub fn from_bits_lsb_first(bits: &[bool]) -> Self {
        assert!(!bits.is_empty(), "cannot build a zero-width bitvector");
        let mut bv = Self::zeros(bits.len() as u32);
        for (i, &b) in bits.iter().enumerate() {
            if b {
                bv.limbs[i / 64] |= 1u64 << (i % 64);
            }
        }
        bv
    }

    /// Creates a single-bit bitvector from a boolean.
    pub fn from_bool(b: bool) -> Self {
        Self::from_u64(b as u64, 1)
    }

    /// The width of this bitvector in bits.
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Returns bit `i` (0 = least significant).
    ///
    /// # Panics
    /// Panics if `i >= self.width()`.
    pub fn bit(&self, i: u32) -> bool {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        (self.limbs[(i / 64) as usize] >> (i % 64)) & 1 == 1
    }

    /// Returns a copy with bit `i` set to `value`.
    pub fn with_bit(&self, i: u32, value: bool) -> Self {
        assert!(i < self.width, "bit index {i} out of range for width {}", self.width);
        let mut out = self.clone();
        let limb = (i / 64) as usize;
        let mask = 1u64 << (i % 64);
        if value {
            out.limbs[limb] |= mask;
        } else {
            out.limbs[limb] &= !mask;
        }
        out
    }

    /// Iterates over bits, least significant first.
    pub fn bits_lsb_first(&self) -> impl Iterator<Item = bool> + '_ {
        (0..self.width).map(move |i| self.bit(i))
    }

    /// Returns true if every bit is zero.
    pub fn is_zero(&self) -> bool {
        self.limbs.iter().all(|&l| l == 0)
    }

    /// Returns true if every bit is one.
    pub fn is_all_ones(&self) -> bool {
        *self == Self::ones(self.width)
    }

    /// The most significant (sign) bit.
    pub fn msb(&self) -> bool {
        self.bit(self.width - 1)
    }

    /// The value as `u64`, if the width is at most 64 bits; otherwise the low 64 bits.
    pub fn low_u64(&self) -> u64 {
        self.limbs[0]
    }

    /// The value as `u64` if it fits (all higher bits zero), otherwise `None`.
    pub fn to_u64(&self) -> Option<u64> {
        if self.limbs.iter().skip(1).all(|&l| l == 0) {
            Some(self.limbs[0])
        } else {
            None
        }
    }

    /// The value as `u128` if it fits, otherwise `None`.
    pub fn to_u128(&self) -> Option<u128> {
        if self.limbs.iter().skip(2).all(|&l| l == 0) {
            let lo = self.limbs[0] as u128;
            let hi = self.limbs.get(1).copied().unwrap_or(0) as u128;
            Some(lo | (hi << 64))
        } else {
            None
        }
    }

    /// The value interpreted as a signed integer, if the width is at most 64 bits.
    pub fn to_i64(&self) -> Option<i64> {
        if self.width > 64 {
            return None;
        }
        let raw = self.limbs[0];
        if self.width == 64 {
            return Some(raw as i64);
        }
        let sign = 1u64 << (self.width - 1);
        if raw & sign != 0 {
            Some((raw | !(sign | (sign - 1))) as i64)
        } else {
            Some(raw as i64)
        }
    }

    pub(crate) fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    pub(crate) fn limbs_mut(&mut self) -> &mut Vec<u64> {
        &mut self.limbs
    }

    /// Zeroes any bits above `width` in the top limb (maintains the representation
    /// invariant after limb-wise arithmetic).
    pub(crate) fn mask_top(&mut self) {
        let rem = self.width % 64;
        if rem != 0 {
            let last = self.limbs.len() - 1;
            self.limbs[last] &= (1u64 << rem) - 1;
        }
        debug_assert_eq!(self.limbs.len(), limbs_for(self.width));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones() {
        let z = BitVec::zeros(70);
        assert!(z.is_zero());
        assert_eq!(z.width(), 70);
        let o = BitVec::ones(70);
        assert!(o.is_all_ones());
        assert!(!o.is_zero());
        assert!(o.bit(69));
    }

    #[test]
    fn from_u64_truncates() {
        let bv = BitVec::from_u64(0xFF, 4);
        assert_eq!(bv.to_u64(), Some(0xF));
    }

    #[test]
    fn from_i64_sign_extends() {
        let bv = BitVec::from_i64(-1, 100);
        assert!(bv.is_all_ones());
        let bv = BitVec::from_i64(-2, 8);
        assert_eq!(bv.to_u64(), Some(0xFE));
    }

    #[test]
    fn from_u128_roundtrip() {
        let v = 0x1234_5678_9abc_def0_1111_2222_3333_4444u128;
        let bv = BitVec::from_u128(v, 128);
        assert_eq!(bv.to_u128(), Some(v));
    }

    #[test]
    fn bit_access() {
        let bv = BitVec::from_u64(0b1010, 4);
        assert!(!bv.bit(0));
        assert!(bv.bit(1));
        assert!(!bv.bit(2));
        assert!(bv.bit(3));
        assert!(bv.msb());
    }

    #[test]
    fn with_bit() {
        let bv = BitVec::zeros(8);
        let bv = bv.with_bit(3, true);
        assert_eq!(bv.to_u64(), Some(8));
        let bv = bv.with_bit(3, false);
        assert!(bv.is_zero());
    }

    #[test]
    fn bits_roundtrip() {
        let bv = BitVec::from_u64(0b1101_0010, 8);
        let bits: Vec<bool> = bv.bits_lsb_first().collect();
        assert_eq!(BitVec::from_bits_lsb_first(&bits), bv);
    }

    #[test]
    fn to_i64_signed() {
        assert_eq!(BitVec::from_u64(0xFF, 8).to_i64(), Some(-1));
        assert_eq!(BitVec::from_u64(0x7F, 8).to_i64(), Some(127));
        assert_eq!(BitVec::from_u64(0x80, 8).to_i64(), Some(-128));
        assert_eq!(BitVec::from_i64(-5, 64).to_i64(), Some(-5));
    }

    #[test]
    #[should_panic]
    fn zero_width_panics() {
        BitVec::zeros(0);
    }

    #[test]
    #[should_panic]
    fn out_of_range_bit_panics() {
        BitVec::zeros(4).bit(4);
    }

    #[test]
    fn from_bool() {
        assert_eq!(BitVec::from_bool(true).to_u64(), Some(1));
        assert_eq!(BitVec::from_bool(false).to_u64(), Some(0));
        assert_eq!(BitVec::from_bool(true).width(), 1);
    }
}
