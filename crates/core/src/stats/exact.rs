//! Exact, order-independent accumulation of non-negative `f64` sums.
//!
//! Floating-point addition is not associative, so a sum folded per shard
//! and merged can differ — in the last bits — from the same sum taken in
//! node order on one thread. The parallel packet engine's convergence
//! trace must be **bit-identical** to the sequential engine's at every
//! worker count, while the per-epoch fold runs inside the workers and
//! the driver only merges one partial per shard. The only way both can
//! hold is for the accumulation to be *exact*: [`ExactSum`] represents
//! the running sum as a wide fixed-point integer, so adding terms in any
//! order — or merging any grouping of partials — yields the same exact
//! value, rounded once (to nearest, ties to even) when read out.
//!
//! The representation is a 2176-bit accumulator (34 × 64-bit limbs)
//! whose least-significant bit sits below `2^-1074`, the smallest
//! subnormal. Every finite non-negative `f64` is an integer multiple of
//! that ulp, so [`ExactSum::add`] is error-free; the headroom above
//! `f64::MAX` absorbs more than `2^60` maximal terms before overflow.

/// Number of 64-bit limbs in the accumulator.
const LIMBS: usize = 34;
/// Exponent of the accumulator's least-significant bit: limb 0 bit 0
/// represents `2^BASE_EXP`. Chosen 64-aligned below `-1074` (the
/// smallest subnormal exponent), so every `f64` lands at bit 14 or
/// higher.
const BASE_EXP: i32 = -1088;

/// An exact accumulator of non-negative `f64` values.
///
/// `add` and `merge` are error-free; `value()` rounds the exact total to
/// the nearest `f64` (ties to even). Because the internal state encodes
/// the exact real sum, the result is independent of the order terms were
/// added in and of how partial sums were grouped before merging — the
/// property the worker-folded convergence-trace sample relies on.
///
/// # Example
///
/// ```
/// use ww_core::stats::ExactSum;
///
/// let xs = [0.1, 0.2, 0.3, 1e-300, 1e17];
/// let mut forward = ExactSum::new();
/// let mut split_a = ExactSum::new();
/// let mut split_b = ExactSum::new();
/// for &x in &xs {
///     forward.add(x);
/// }
/// for &x in &xs[..2] {
///     split_b.add(x);
/// }
/// for &x in xs[2..].iter().rev() {
///     split_a.add(x);
/// }
/// split_a.merge(&split_b);
/// assert_eq!(forward.value().to_bits(), split_a.value().to_bits());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExactSum {
    limbs: [u64; LIMBS],
}

impl Default for ExactSum {
    fn default() -> Self {
        ExactSum::new()
    }
}

impl ExactSum {
    /// The empty sum (zero).
    pub fn new() -> Self {
        ExactSum { limbs: [0; LIMBS] }
    }

    /// Adds `x` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `x` is negative, NaN, or infinite.
    pub fn add(&mut self, x: f64) {
        assert!(
            x.is_finite() && x >= 0.0,
            "ExactSum accumulates finite non-negative values, got {x}"
        );
        if x == 0.0 {
            return;
        }
        let bits = x.to_bits();
        let biased = ((bits >> 52) & 0x7FF) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        // Normals carry the implicit leading bit; subnormals share the
        // minimum exponent.
        let (mant, lsb_exp) = if biased == 0 {
            (frac, -1074)
        } else {
            (frac | (1u64 << 52), biased - 1075)
        };
        let pos = (lsb_exp - BASE_EXP) as usize;
        let (limb, shift) = (pos / 64, pos % 64);
        let wide = (mant as u128) << shift;
        self.add_at(limb, wide);
    }

    /// Adds `x * x` exactly — the squared term as `f64` multiplication
    /// rounds it, which keeps the accumulated *elements* identical to a
    /// plain `sum += x * x` loop; only the summation becomes exact.
    pub fn add_square(&mut self, x: f64) {
        self.add(x * x);
    }

    /// Folds another exact sum into this one, exactly.
    pub fn merge(&mut self, other: &ExactSum) {
        let mut carry = 0u64;
        for i in 0..LIMBS {
            let (a, c1) = self.limbs[i].overflowing_add(other.limbs[i]);
            let (b, c2) = a.overflowing_add(carry);
            self.limbs[i] = b;
            carry = u64::from(c1) + u64::from(c2);
        }
        assert_eq!(carry, 0, "ExactSum overflow on merge");
    }

    /// The raw accumulator limbs, least significant first — the exact
    /// state, suitable for transporting a partial sum across a process
    /// boundary and rebuilding it with [`ExactSum::from_limbs`].
    pub fn limbs(&self) -> &[u64] {
        &self.limbs
    }

    /// Rebuilds an accumulator from the limbs of [`ExactSum::limbs`].
    /// Returns `None` when the slice is not exactly the accumulator
    /// width (the limb count is a representation invariant, so a
    /// mismatch means the bytes are not an `ExactSum`).
    pub fn from_limbs(limbs: &[u64]) -> Option<Self> {
        let limbs: [u64; LIMBS] = limbs.try_into().ok()?;
        Some(ExactSum { limbs })
    }

    /// The exact total, rounded to the nearest `f64` (ties to even).
    /// Returns `f64::INFINITY` if the exact sum exceeds `f64::MAX`
    /// (unreachable for fewer than ~2^60 finite terms).
    pub fn value(&self) -> f64 {
        // Most significant set bit of the accumulator.
        let Some(top) = (0..LIMBS).rev().find(|&i| self.limbs[i] != 0) else {
            return 0.0;
        };
        let msb = top * 64 + (63 - self.limbs[top].leading_zeros() as usize);
        // The mantissa's least significant bit: 52 below the MSB for a
        // normal result, pinned at 2^-1074 (accumulator bit 14) for a
        // subnormal one.
        let lsb = msb.saturating_sub(52).max((-1074 - BASE_EXP) as usize);
        let mut mant = self.extract_bits(lsb, msb);
        // Round to nearest, ties to even, on the guard bit + sticky rest.
        if lsb > 0 {
            let guard = self.bit(lsb - 1);
            if guard {
                let sticky = lsb >= 2 && self.any_bits_below(lsb - 1);
                if sticky || (mant & 1) == 1 {
                    mant += 1;
                }
            }
        }
        let mut lsb_exp = lsb as i32 + BASE_EXP;
        if mant >= (1u64 << 53) {
            // Rounding carried into a 54th bit.
            mant >>= 1;
            lsb_exp += 1;
        }
        if mant < (1u64 << 52) {
            // Subnormal result: lsb_exp is pinned at -1074 here.
            debug_assert_eq!(lsb_exp, -1074);
            return f64::from_bits(mant);
        }
        let biased = lsb_exp + 1075;
        if biased >= 0x7FF {
            return f64::INFINITY;
        }
        f64::from_bits(((biased as u64) << 52) | (mant & ((1u64 << 52) - 1)))
    }

    /// Adds a (≤ 128-bit) value whose bit 0 sits at limb `limb`, bit 0.
    fn add_at(&mut self, mut limb: usize, mut wide: u128) {
        while wide != 0 {
            assert!(limb < LIMBS, "ExactSum overflow");
            let (sum, carry) = self.limbs[limb].overflowing_add(wide as u64);
            self.limbs[limb] = sum;
            wide = (wide >> 64) + u128::from(carry);
            limb += 1;
        }
    }

    /// Bit `pos` of the accumulator.
    fn bit(&self, pos: usize) -> bool {
        (self.limbs[pos / 64] >> (pos % 64)) & 1 == 1
    }

    /// `true` when any bit strictly below `pos` is set.
    fn any_bits_below(&self, pos: usize) -> bool {
        let (limb, shift) = (pos / 64, pos % 64);
        if shift > 0 && self.limbs[limb] & ((1u64 << shift) - 1) != 0 {
            return true;
        }
        self.limbs[..limb].iter().any(|&l| l != 0)
    }

    /// Bits `lsb..=msb` (inclusive, ≤ 53 of them) as an integer.
    fn extract_bits(&self, lsb: usize, msb: usize) -> u64 {
        debug_assert!(msb - lsb < 54);
        let mut out = 0u64;
        for pos in (lsb..=msb).rev() {
            out = (out << 1) | u64::from(self.bit(pos));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sum_of(xs: &[f64]) -> f64 {
        let mut acc = ExactSum::new();
        for &x in xs {
            acc.add(x);
        }
        acc.value()
    }

    #[test]
    fn empty_and_single_values_round_trip() {
        assert_eq!(ExactSum::new().value(), 0.0);
        for x in [
            0.0,
            1.0,
            0.1,
            1e-308,
            5e-324,
            f64::MAX,
            3.5,
            2.0f64.powi(-1060),
        ] {
            assert_eq!(sum_of(&[x]).to_bits(), x.to_bits(), "value {x}");
        }
    }

    #[test]
    fn exact_small_integer_sums() {
        assert_eq!(sum_of(&[1.0, 2.0, 3.0]), 6.0);
        assert_eq!(sum_of(&[0.5; 7]), 3.5);
        // 2^53 + 1 is not representable; the exact sum 2^53 + 2 is.
        let big = 2f64.powi(53);
        assert_eq!(sum_of(&[big, 1.0, 1.0]), big + 2.0);
    }

    #[test]
    fn rounds_to_nearest_even() {
        let big = 2f64.powi(53);
        // Exact total 2^53 + 1: halfway, ties to even => 2^53.
        assert_eq!(sum_of(&[big, 1.0]).to_bits(), big.to_bits());
        // Exact total 2^53 + 3: halfway between 2^53+2 and 2^53+4 => +4.
        assert_eq!(sum_of(&[big, 2.0, 1.0]).to_bits(), (big + 4.0).to_bits());
        // Guard bit set with sticky below: round up off the halfway point.
        assert_eq!(
            sum_of(&[big, 1.0, 2.0f64.powi(-30)]).to_bits(),
            (big + 2.0).to_bits()
        );
    }

    #[test]
    fn order_and_grouping_independent() {
        let xs: Vec<f64> = (0..64)
            .map(|i| ((i as f64) * 0.37 + 0.001).exp() * 1e-3)
            .collect();
        let forward = sum_of(&xs);
        let mut reversed: Vec<f64> = xs.clone();
        reversed.reverse();
        assert_eq!(forward.to_bits(), sum_of(&reversed).to_bits());
        for split in [1, 7, 32, 63] {
            let mut a = ExactSum::new();
            let mut b = ExactSum::new();
            for &x in &xs[..split] {
                a.add(x);
            }
            for &x in &xs[split..] {
                b.add(x);
            }
            a.merge(&b);
            assert_eq!(forward.to_bits(), a.value().to_bits(), "split {split}");
        }
    }

    #[test]
    fn subnormal_totals() {
        let tiny = 5e-324; // smallest subnormal
        assert_eq!(sum_of(&[tiny, tiny, tiny]), 3.0 * tiny);
        assert!(sum_of(&[tiny; 8]).is_subnormal());
    }

    #[test]
    fn wide_dynamic_range_is_exact() {
        // 1e308 + many tiny values the naive sum would swallow entirely.
        let mut acc = ExactSum::new();
        acc.add(1e308);
        for _ in 0..1000 {
            acc.add(1e-300);
        }
        let mut down = ExactSum::new();
        for _ in 0..1000 {
            down.add(1e-300);
        }
        down.add(1e308);
        assert_eq!(acc.value().to_bits(), down.value().to_bits());
    }

    #[test]
    fn add_square_matches_rounded_product() {
        let mut acc = ExactSum::new();
        acc.add_square(0.3);
        assert_eq!(acc.value().to_bits(), (0.3f64 * 0.3f64).to_bits());
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative() {
        ExactSum::new().add(-1.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_nan() {
        ExactSum::new().add(f64::NAN);
    }
}
