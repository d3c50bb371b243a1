//! The kernel arithmetic every backend implements: IEEE-754 binary32
//! with flush-to-zero (FTZ) and denormals-are-zero (DAZ) — the x86
//! MXCSR mode Devito-generated operators switch on in their prologue.
//!
//! * Every arithmetic op reads a subnormal operand as a zero of the
//!   same sign (DAZ).
//! * Every arithmetic op whose result is *tiny* returns a zero of the
//!   result's sign (FTZ). Tininess is the x86 rule: the exact result,
//!   rounded to 24 significant bits with an unbounded exponent, lies
//!   below 2⁻¹²⁶.
//! * Moves (loads, stores, temporaries, broadcasts) copy bits unchanged.
//!
//! The JIT gets these semantics from the hardware: each generated box
//! function ORs [`MXCSR_FTZ_DAZ`] into MXCSR on entry and restores the
//! caller's value before it returns. The interpreter emulates them with
//! the helpers below, which every evaluator calls once per lane; the
//! flush itself is a branch-free mask, so lane loops still vectorize.
//!
//! Why the emulation is exact:
//!
//! * A sum of operands that are normal or zero lies on the 2⁻¹⁴⁹ grid,
//!   so a tiny sum is exactly representable as a subnormal: flushing a
//!   subnormal default-mode sum is FTZ.
//! * A product or quotient can round *up* to `f32::MIN_POSITIVE` in
//!   default mode while its unbounded-exponent rounding stays below it
//!   (exact results in `[2⁻¹²⁶ − 2⁻¹⁵⁰, 2⁻¹²⁶ − 2⁻¹⁵¹)`). The helpers
//!   decide tininess on the same operation with one operand scaled by
//!   2²⁴, which lands in the normal range where f32 rounding *is* the
//!   unbounded-exponent rounding.

use mpix_symbolic::UnaryFn;

/// MXCSR bits the generated code ORs in: FTZ (bit 15) and DAZ (bit 6).
pub const MXCSR_FTZ_DAZ: u32 = 0x8040;

const SIGN: u32 = 0x8000_0000;
/// Bit pattern of `f32::MIN_POSITIVE` (2⁻¹²⁶).
const MIN_NORMAL_BITS: u32 = 0x0080_0000;
/// 2²⁴: lifts a tiny product or quotient into the normal range.
const SCALE: f32 = 16_777_216.0;
/// Bit pattern of `f32::MIN_POSITIVE · SCALE` = 2⁻¹⁰².
const SCALED_MIN_NORMAL_BITS: u32 = 0x0C80_0000;

/// Magnitude bits of `x`; for non-NaN values their integer order is
/// the order of `|x|`. The helpers compare in this domain so the lane
/// loops vectorize.
#[inline(always)]
fn mag_bits(x: f32) -> u32 {
    x.to_bits() & !SIGN
}

/// `x` with its magnitude bits cleared when `|x|` lies below the
/// magnitude whose bits are `below` (a zero of `x`'s sign), `x`
/// unchanged otherwise (NaNs included). Branch-free.
#[inline(always)]
fn zero_below(x: f32, probe: f32, below: u32) -> f32 {
    let keep = ((mag_bits(probe) >= below) as u32).wrapping_neg() | SIGN;
    f32::from_bits(x.to_bits() & keep)
}

/// Subnormal → signed zero; every other value (zeros, normals,
/// infinities, NaNs) unchanged. The DAZ read and the FTZ write of the
/// exact ops.
#[inline(always)]
pub fn flush(x: f32) -> f32 {
    zero_below(x, x, MIN_NORMAL_BITS)
}

/// `a + b` under FTZ/DAZ.
#[inline(always)]
pub fn add(a: f32, b: f32) -> f32 {
    add_flushed(flush(a), flush(b))
}

/// `a · b` under FTZ/DAZ.
#[inline(always)]
pub fn mul(a: f32, b: f32) -> f32 {
    mul_flushed(flush(a), flush(b))
}

/// `a / b` under FTZ/DAZ (a flushed divisor divides by zero).
#[inline(always)]
pub fn div(a: f32, b: f32) -> f32 {
    let (a, b) = (flush(a), flush(b));
    zero_below(a / b, (a * SCALE) / b, SCALED_MIN_NORMAL_BITS)
}

/// `acc + x · y` with two roundings — the fused superinstructions'
/// semantics on every backend (no FMA contraction).
#[inline(always)]
pub fn mul_add(acc: f32, x: f32, y: f32) -> f32 {
    add(acc, mul(x, y))
}

/// [`add`] for operands that are already flushed (results of kernel
/// arithmetic, or values flushed where they were pushed): the DAZ pass
/// is a no-op on them.
#[inline(always)]
pub fn add_flushed(a: f32, b: f32) -> f32 {
    flush(a + b)
}

/// [`mul`] for operands that are already flushed.
#[inline(always)]
pub fn mul_flushed(a: f32, b: f32) -> f32 {
    zero_below(a * b, (a * SCALE) * b, SCALED_MIN_NORMAL_BITS)
}

/// Multiplication by a coefficient fixed for a whole launch, prepared
/// once: `c · x` is tiny exactly when `|x|` lies below a threshold that
/// depends on `c` alone, so each lane needs one compare instead of the
/// DAZ pass plus the scaled tininess product of [`mul`].
#[derive(Clone, Copy, Debug)]
pub struct Coeff {
    c: f32,
    /// Bits of the smallest `|x|` that is normal and whose product with
    /// `c` is not tiny (`+∞` when no finite `x` qualifies).
    min_x: u32,
}

impl Coeff {
    pub fn new(c: f32) -> Coeff {
        let c = flush(c);
        // `|c · x|` is tiny iff it lies below 2⁻¹²⁶ − 2⁻¹⁵¹ (the halfway
        // point to the largest unbounded-exponent value under 2⁻¹²⁶;
        // the tie rounds up to 2⁻¹²⁶). f32 × f32 is exact in f64.
        let bound = f32::MIN_POSITIVE as f64 - 2f64.powi(-151);
        let m = (c as f64).abs();
        let fits = |x: f32| x as f64 * m >= bound;
        let min_x = if c.is_nan() || fits(f32::MIN_POSITIVE) {
            f32::MIN_POSITIVE
        } else if !fits(f32::MAX) {
            f32::INFINITY
        } else {
            let mut x = (bound / m) as f32;
            while !fits(x) {
                x = x.next_up();
            }
            while fits(x.next_down()) {
                x = x.next_down();
            }
            x
        };
        Coeff {
            c,
            min_x: min_x.to_bits(),
        }
    }

    /// `c · x` under FTZ/DAZ, bitwise equal to [`mul`]`(c, x)`.
    #[inline(always)]
    pub fn times(self, x: f32) -> f32 {
        self.c * zero_below(x, x, self.min_x)
    }
}

/// `v^n`, the `Pow` op: `v·v`, `1/v` and `1/(v·v)` for the exponents
/// the JIT lowers, square-and-multiply for the rest. `Pow(1)` is a move
/// and `Pow(0)` yields 1 for every input.
#[inline]
pub fn powi(v: f32, n: i32) -> f32 {
    match n {
        0 => 1.0,
        1 => v,
        2 => mul(v, v),
        -1 => div(1.0, v),
        -2 => div(1.0, mul(v, v)),
        _ => {
            let (mut base, mut e, mut r) = (v, n.unsigned_abs(), 1.0f32);
            loop {
                if e & 1 == 1 {
                    r = mul(r, base);
                }
                e >>= 1;
                if e == 0 {
                    break;
                }
                base = mul(base, base);
            }
            if n < 0 {
                div(1.0, r)
            } else {
                r
            }
        }
    }
}

/// An elementary-function `Call`: DAZ on the argument, FTZ on the
/// result.
#[inline]
pub fn call(fx: UnaryFn, v: f32) -> f32 {
    flush(fx.apply_f32(flush(v)))
}

#[cfg(test)]
mod tests {
    use super::*;

    const MIN: f32 = f32::MIN_POSITIVE;

    #[test]
    fn flush_zeroes_exactly_the_subnormals() {
        let sub = f32::from_bits(1);
        assert_eq!(flush(sub).to_bits(), 0);
        assert_eq!(flush(-sub).to_bits(), SIGN);
        assert_eq!(flush(MIN), MIN);
        assert_eq!(flush(-MIN), -MIN);
        assert_eq!(flush(f32::INFINITY), f32::INFINITY);
        assert!(flush(f32::NAN).is_nan());
        assert_eq!(flush(-0.0).to_bits(), SIGN);
    }

    #[test]
    fn add_reads_subnormals_as_zero_and_flushes_tiny_sums() {
        let sub = MIN * 0.5;
        // DAZ: the subnormal addend vanishes.
        assert_eq!(add(1.0, sub), 1.0);
        assert_eq!(add(sub, sub).to_bits(), 0);
        // FTZ: two normals whose difference is subnormal.
        let a = f32::from_bits(MIN_NORMAL_BITS + 1);
        assert_eq!(add(a, -MIN).to_bits(), 0);
        assert_eq!(add(-a, MIN).to_bits(), SIGN);
    }

    #[test]
    fn mul_uses_after_rounding_tininess() {
        // Exact product 2⁻¹²⁶ − 2⁻¹⁵⁰ rounds to MIN_POSITIVE in default
        // mode but to 2⁻¹²⁶ − 2⁻¹⁵⁰ with an unbounded exponent: tiny.
        let a = 1.0 - f32::EPSILON / 2.0; // 1 − 2⁻²⁴
        assert_eq!(a * MIN, MIN);
        assert_eq!(mul(a, MIN).to_bits(), 0);
        assert_eq!(mul(-a, MIN).to_bits(), SIGN);
        // Exact product 2⁻¹²⁶ (1 − 2⁻⁴⁶) rounds up to 2⁻¹²⁶ either way:
        // not tiny.
        let x = f32::from_bits(0x3F7F_FFFE); // 1 − 2⁻²³
        let y = f32::from_bits(0x0080_0001); // 2⁻¹²⁶ (1 + 2⁻²³)
        assert!(x as f64 * y as f64 >= MIN as f64 - 2f64.powi(-151));
        assert_eq!(mul(x, y), MIN);
        assert_eq!(mul(2.0, MIN * 0.5).to_bits(), 0); // DAZ operand
        assert_eq!(mul(MIN, 1.0), MIN);
    }

    #[test]
    fn prepared_coefficient_matches_mul() {
        let edge = [
            0.0,
            -0.0,
            MIN * 0.5,
            MIN,
            f32::from_bits(0x0080_0001),
            1.0 - f32::EPSILON / 2.0,
            f32::from_bits(0x3F7F_FFFE),
            1.0,
            3.0,
            1e-30,
            1e30,
            f32::MAX,
            f32::INFINITY,
            f32::NAN,
        ];
        let mut xs: Vec<f32> = edge.iter().flat_map(|&v| [v, -v]).collect();
        // Operands around the tininess threshold of each coefficient.
        for &c in &edge {
            if c.is_finite() && c != 0.0 && c >= MIN {
                let t = (MIN as f64 / c as f64) as f32;
                let mut x = t;
                for _ in 0..4 {
                    x = x.next_down();
                }
                for _ in 0..8 {
                    xs.push(x);
                    x = x.next_up();
                }
            }
        }
        for &c in &edge {
            for c in [c, -c] {
                let k = Coeff::new(c);
                for &x in &xs {
                    let (got, want) = (k.times(x), mul(c, x));
                    assert!(
                        got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
                        "{c:e} * {x:e}: {got:e} != {want:e}"
                    );
                }
            }
        }
    }

    #[test]
    fn div_and_pow_flush() {
        assert_eq!(div(MIN, 2.0).to_bits(), 0);
        assert_eq!(div(1.0, MIN * 0.5), f32::INFINITY); // DAZ divisor
        assert_eq!(powi(MIN * 0.5, -1), f32::INFINITY);
        assert_eq!(powi(1e-20, 2).to_bits(), 0);
        assert_eq!(powi(1e-20, 3).to_bits(), 0);
        assert_eq!(powi(3.0, 2), 9.0);
        assert_eq!(powi(2.0, -1), 0.5);
        assert_eq!(powi(2.0, -2), 0.25);
        assert_eq!(powi(2.0, 3), 8.0);
        assert_eq!(powi(2.0, 5), 32.0);
        assert_eq!(powi(2.0, -3), 0.125);
        let sub = MIN * 0.25;
        assert_eq!(powi(sub, 1).to_bits(), sub.to_bits()); // a move
        assert_eq!(powi(sub, 0), 1.0);
        assert_eq!(call(UnaryFn::Abs, -sub).to_bits(), 0);
    }
}
