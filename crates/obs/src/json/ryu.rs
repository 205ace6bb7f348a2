//! Shortest round-trip decimal digits of a double: Ryū (Ulf Adams, "Ryū:
//! fast float-to-string conversion", PLDI 2018), for
//! [`super::write_number`].
//!
//! [`shortest`] finds, for a finite nonzero `v`, the shortest decimal
//! `digits × 10^exponent` that reads back as `v`; where several are that
//! short, the one closest to `v`'s exact value. Those are the digits
//! `core::fmt` prints for `{}`. Two details follow `core` rather than the
//! paper's reference code:
//!
//! - a tie (the exact value halfway between the two closest shortest
//!   candidates, as for 1125899906842624.25) rounds up, not to even;
//! - the rounding interval is the one `core`'s decoder searches:
//!   asymmetric (a quarter ulp below, half an ulp above) for every normal
//!   power of two, `f64::MIN_POSITIVE` included, and inclusive on every
//!   subnormal. Unlike the tie rule, this changes no digit on any input
//!   the tests try; it keeps the search the same as `core`'s.
//!
//! The power-of-5 tables hold 125-bit approximations of `5^i` and
//! `2^k / 5^q`, derived once per process by an exact big-integer routine.

use std::sync::OnceLock;

/// Bits kept of each `5^i` (the paper's `B_0`).
const POW5_BITCOUNT: u32 = 125;
/// Bits kept of each `2^k / 5^q` (the paper's `B_1`).
const POW5_INV_BITCOUNT: u32 = 125;
/// `q` runs to `⌊log10 2^969⌋ − 1 = 290` for binary exponents `e2 ≥ 0`.
const POW5_INV_LEN: usize = 291;
/// `−e2 − q` runs to 325 for `e2 < 0` (at `e2 = −1076`).
const POW5_LEN: usize = 326;

struct Tables {
    /// `⌊5^i / 2^(len(5^i) − 125)⌋`: the 125 leading bits of `5^i`.
    pow5: [u128; POW5_LEN],
    /// `⌊2^(len(5^q) − 1 + 125) / 5^q⌋ + 1`.
    pow5_inv: [u128; POW5_INV_LEN],
}

fn tables() -> &'static Tables {
    static TABLES: OnceLock<Tables> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut tables = Tables { pow5: [0; POW5_LEN], pow5_inv: [0; POW5_INV_LEN] };
        let mut power = Big::pow2(0);
        for i in 0..POW5_LEN.max(POW5_INV_LEN) {
            let len = power.bit_len();
            if i < POW5_LEN {
                tables.pow5[i] = if len >= POW5_BITCOUNT {
                    power.bits(len - POW5_BITCOUNT, POW5_BITCOUNT)
                } else {
                    power.bits(0, len) << (POW5_BITCOUNT - len)
                };
            }
            if i < POW5_INV_LEN {
                tables.pow5_inv[i] = power.reciprocal(len - 1 + POW5_INV_BITCOUNT) + 1;
            }
            power.mul_small(5);
        }
        tables
    })
}

/// An unsigned integer of up to 832 bits, little-endian limbs: room for
/// `5^325` (755 bits) and twice any remainder of a division by it.
#[derive(Clone, Copy)]
struct Big([u64; 13]);

impl Big {
    fn pow2(k: u32) -> Big {
        let mut limbs = [0; 13];
        limbs[k as usize / 64] = 1 << (k % 64);
        Big(limbs)
    }

    fn mul_small(&mut self, k: u64) {
        let mut carry = 0u128;
        for limb in &mut self.0 {
            let product = *limb as u128 * k as u128 + carry;
            *limb = product as u64;
            carry = product >> 64;
        }
        assert_eq!(carry, 0, "power of 5 overflows its limbs");
    }

    fn bit_len(&self) -> u32 {
        (0..self.0.len())
            .rev()
            .find(|&i| self.0[i] != 0)
            .map_or(0, |i| 64 * i as u32 + 64 - self.0[i].leading_zeros())
    }

    /// Bits `[low, low + count)` as an integer; `count ≤ 128`.
    fn bits(&self, low: u32, count: u32) -> u128 {
        (0..count).fold(0, |acc, k| {
            let at = low + k;
            acc | ((self.0[at as usize / 64] >> (at % 64) & 1) as u128) << k
        })
    }

    fn shl1(&mut self) {
        let mut carry = 0;
        for limb in &mut self.0 {
            (*limb, carry) = (*limb << 1 | carry, *limb >> 63);
        }
    }

    fn at_least(&self, other: &Big) -> bool {
        self.0.iter().rev().ge(other.0.iter().rev())
    }

    fn sub(&mut self, other: &Big) {
        let mut borrow = false;
        for (limb, &take) in self.0.iter_mut().zip(&other.0) {
            let (difference, under) = limb.overflowing_sub(take);
            let (difference, under_borrow) = difference.overflowing_sub(borrow as u64);
            *limb = difference;
            borrow = under || under_borrow;
        }
        assert!(!borrow, "subtraction underflows");
    }

    /// `⌊2^k / self⌋` for `2^(len − 1) ≤ 2^k < 2^(len + 127)`, where `len`
    /// is `self`'s bit length: binary long division, starting from the
    /// quotient and remainder of `2^(len − 1)` (which `self` divides at
    /// most once).
    fn reciprocal(&self, k: u32) -> u128 {
        let start = self.bit_len() - 1;
        let mut remainder = Big::pow2(start);
        let mut quotient = 0u128;
        for step in 0..=k - start {
            if step > 0 {
                remainder.shl1();
                quotient <<= 1;
            }
            if remainder.at_least(self) {
                remainder.sub(self);
                quotient |= 1;
            }
        }
        quotient
    }
}

/// `⌈log2 5^e⌉` (1 at `e = 0`): the bit length of `5^e`, for `e ≤ 3528`.
fn pow5_bits(e: u32) -> u32 {
    ((e * 1217359) >> 19) + 1
}

/// `⌊log10 2^e⌋`, for `e ≤ 1650`.
fn log10_pow2(e: u32) -> u32 {
    (e * 78913) >> 18
}

/// `⌊log10 5^e⌋`, for `e ≤ 2620`.
fn log10_pow5(e: u32) -> u32 {
    (e * 732923) >> 20
}

fn multiple_of_pow5(mut value: u64, p: u32) -> bool {
    let mut count = 0;
    while value.is_multiple_of(5) && count < p {
        value /= 5;
        count += 1;
    }
    count >= p
}

/// `⌊m · factor / 2^shift⌋` for a 125-bit `factor` and `shift ≥ 64`.
fn mul_shift(m: u64, factor: u128, shift: u32) -> u64 {
    let low = m as u128 * (factor as u64) as u128;
    let high = m as u128 * (factor >> 64);
    (((low >> 64) + high) >> (shift - 64)) as u64
}

/// The shortest decimal that reads back as the finite, nonzero `v`:
/// `(digits, exponent)` with `|v| ≈ digits × 10^exponent` and `digits`
/// free of trailing zeros.
pub(super) fn shortest(v: f64) -> (u64, i32) {
    debug_assert!(v.is_finite() && v != 0.0);
    let bits = v.to_bits();
    let ieee_mantissa = bits & ((1 << 52) - 1);
    let ieee_exponent = (bits >> 52 & 0x7ff) as u32;
    // Two extra bits below the mantissa leave room for the interval bounds
    // `mv − 1 − mm_shift` and `mv + 2` around `mv = 4·m2`.
    let (e2, m2) = if ieee_exponent == 0 {
        (1 - 1023 - 52 - 2, ieee_mantissa)
    } else {
        (ieee_exponent as i32 - 1023 - 52 - 2, ieee_mantissa | 1 << 52)
    };
    // `core` keeps a subnormal's interval bounds (its decoder doubles the
    // mantissa) and a normal one's when the mantissa is even.
    let accept_bounds = ieee_exponent == 0 || m2 & 1 == 0;
    // 1: the lower bound is half an ulp away, as the upper one; 0: a
    // quarter ulp, on every normal power of two.
    let mm_shift = u64::from(ieee_mantissa != 0 || ieee_exponent == 0);
    let mv = 4 * m2;
    let tables = tables();

    // The value and its interval bounds, scaled by 10^−e10 and truncated:
    // by 2^e2 / 5^q for e2 ≥ 0, by 5^i·2^e2 / 2^q otherwise.
    let (q, e10, factor, shift) = if e2 >= 0 {
        let q = log10_pow2(e2 as u32) - u32::from(e2 > 3);
        let k = POW5_INV_BITCOUNT + pow5_bits(q) - 1;
        (q, q as i32, tables.pow5_inv[q as usize], (q as i32 + k as i32 - e2) as u32)
    } else {
        let q = log10_pow5(-e2 as u32) - u32::from(-e2 > 1);
        let i = (-e2 - q as i32) as u32;
        let k = pow5_bits(i) as i32 - POW5_BITCOUNT as i32;
        (q, q as i32 + e2, tables.pow5[i as usize], (q as i32 - k) as u32)
    };
    let mut vr = mul_shift(mv, factor, shift);
    let mut vp = mul_shift(mv + 2, factor, shift);
    let mut vm = mul_shift(mv - 1 - mm_shift, factor, shift);
    // Whether the lower bound scaled exactly (its dropped part is zero).
    let mut vm_trailing_zeros = false;
    if e2 >= 0 {
        // Only a small q can divide the bounds; at most one of mv, mp and
        // mm is a multiple of 5. An excluded upper bound that scaled
        // exactly is pulled one below.
        if q <= 21 && mv % 5 != 0 {
            if accept_bounds {
                vm_trailing_zeros = multiple_of_pow5(mv - 1 - mm_shift, q);
            } else {
                vp -= u64::from(multiple_of_pow5(mv + 2, q));
            }
        }
    } else if q <= 1 {
        // mv = 4·m2 has two trailing zero bits, mp = mv + 2 one, and mm
        // one iff mm_shift is 1.
        if accept_bounds {
            vm_trailing_zeros = mm_shift == 1;
        } else {
            vp -= 1;
        }
    }

    // Drop digits while the interval still holds a shorter decimal.
    let mut removed = 0;
    let mut last_removed = 0;
    if !vm_trailing_zeros {
        // The common case: two digits at a time while both go.
        if vp / 100 > vm / 100 {
            last_removed = vr % 100 / 10;
            (vr, vp, vm) = (vr / 100, vp / 100, vm / 100);
            removed = 2;
        }
    }
    while vp / 10 > vm / 10 {
        vm_trailing_zeros &= vm.is_multiple_of(10);
        last_removed = vr % 10;
        (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
        removed += 1;
    }
    if vm_trailing_zeros {
        // The lower bound is itself a decimal with fewer digits, and in
        // the interval.
        while vm.is_multiple_of(10) {
            last_removed = vr % 10;
            (vr, vp, vm) = (vr / 10, vp / 10, vm / 10);
            removed += 1;
        }
    }
    // Round up when the last dropped digit is 5 or more (ties included),
    // or when vr is the lower bound and the interval excludes it.
    let round_up = last_removed >= 5 || (vr == vm && !(accept_bounds && vm_trailing_zeros));
    (vr + u64::from(round_up), e10 + removed)
}
