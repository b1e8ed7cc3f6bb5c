//! Arbitrary-precision signed integers.
//!
//! Representation: a [`Sign`] plus a little-endian magnitude of `u64` limbs
//! with no trailing zero limbs. Zero is canonically `Sign::Zero` with an
//! empty limb vector, so structural equality coincides with numeric equality.

use std::cmp::Ordering;
use std::error::Error;
use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Rem, Shl, Shr, Sub};
use std::str::FromStr;

/// Sign of a [`BigInt`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Sign {
    /// Strictly negative.
    Negative,
    /// Exactly zero.
    Zero,
    /// Strictly positive.
    Positive,
}

impl Sign {
    fn flip(self) -> Sign {
        match self {
            Sign::Negative => Sign::Positive,
            Sign::Zero => Sign::Zero,
            Sign::Positive => Sign::Negative,
        }
    }
}

/// An arbitrary-precision signed integer.
///
/// # Examples
///
/// ```
/// use staub_numeric::BigInt;
///
/// let a: BigInt = "123456789012345678901234567890".parse().unwrap();
/// let b = BigInt::from(10u64).pow(29);
/// assert!(a > b);
/// assert_eq!((&a - &a), BigInt::zero());
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct BigInt {
    sign: Sign,
    /// Little-endian magnitude; invariant: no trailing zero limb.
    limbs: Vec<u64>,
}

/// Error returned when parsing a [`BigInt`] from a malformed string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBigIntError {
    offending: String,
}

impl fmt::Display for ParseBigIntError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid integer literal `{}`", self.offending)
    }
}

impl Error for ParseBigIntError {}

// ---------------------------------------------------------------------------
// Magnitude (unsigned limb vector) helpers
// ---------------------------------------------------------------------------

fn mag_trim(limbs: &mut Vec<u64>) {
    while limbs.last() == Some(&0) {
        limbs.pop();
    }
}

fn mag_cmp(a: &[u64], b: &[u64]) -> Ordering {
    if a.len() != b.len() {
        return a.len().cmp(&b.len());
    }
    for i in (0..a.len()).rev() {
        match a[i].cmp(&b[i]) {
            Ordering::Equal => {}
            ord => return ord,
        }
    }
    Ordering::Equal
}

fn mag_add(a: &[u64], b: &[u64]) -> Vec<u64> {
    let (long, short) = if a.len() >= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(long.len() + 1);
    let mut carry = 0u64;
    for (i, &limb) in long.iter().enumerate() {
        let (s1, c1) = limb.overflowing_add(*short.get(i).unwrap_or(&0));
        let (s2, c2) = s1.overflowing_add(carry);
        out.push(s2);
        carry = u64::from(c1) + u64::from(c2);
    }
    if carry != 0 {
        out.push(carry);
    }
    out
}

/// Computes `a - b`; requires `a >= b`.
fn mag_sub(a: &[u64], b: &[u64]) -> Vec<u64> {
    debug_assert!(mag_cmp(a, b) != Ordering::Less);
    let mut out = Vec::with_capacity(a.len());
    let mut borrow = 0u64;
    for (i, &limb) in a.iter().enumerate() {
        let (d1, b1) = limb.overflowing_sub(*b.get(i).unwrap_or(&0));
        let (d2, b2) = d1.overflowing_sub(borrow);
        out.push(d2);
        borrow = u64::from(b1) + u64::from(b2);
    }
    debug_assert_eq!(borrow, 0);
    mag_trim(&mut out);
    out
}

fn mag_mul(a: &[u64], b: &[u64]) -> Vec<u64> {
    if a.is_empty() || b.is_empty() {
        return Vec::new();
    }
    let mut out = vec![0u64; a.len() + b.len()];
    for (i, &ai) in a.iter().enumerate() {
        if ai == 0 {
            continue;
        }
        let mut carry = 0u128;
        for (j, &bj) in b.iter().enumerate() {
            let t = u128::from(ai) * u128::from(bj) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        let mut k = i + b.len();
        while carry != 0 {
            let t = u128::from(out[k]) + carry;
            out[k] = t as u64;
            carry = t >> 64;
            k += 1;
        }
    }
    mag_trim(&mut out);
    out
}

fn mag_shl(a: &[u64], bits: usize) -> Vec<u64> {
    if a.is_empty() {
        return Vec::new();
    }
    let limb_shift = bits / 64;
    let bit_shift = bits % 64;
    let mut out = vec![0u64; limb_shift];
    if bit_shift == 0 {
        out.extend_from_slice(a);
    } else {
        let mut carry = 0u64;
        for &limb in a {
            out.push((limb << bit_shift) | carry);
            carry = limb >> (64 - bit_shift);
        }
        if carry != 0 {
            out.push(carry);
        }
    }
    mag_trim(&mut out);
    out
}

fn mag_shr(a: &[u64], bits: usize) -> Vec<u64> {
    let limb_shift = bits / 64;
    if limb_shift >= a.len() {
        return Vec::new();
    }
    let bit_shift = bits % 64;
    let src = &a[limb_shift..];
    let mut out = Vec::with_capacity(src.len());
    if bit_shift == 0 {
        out.extend_from_slice(src);
    } else {
        for i in 0..src.len() {
            let hi = if i + 1 < src.len() {
                src[i + 1] << (64 - bit_shift)
            } else {
                0
            };
            out.push((src[i] >> bit_shift) | hi);
        }
    }
    mag_trim(&mut out);
    out
}

fn mag_bit_len(a: &[u64]) -> usize {
    match a.last() {
        None => 0,
        Some(&top) => (a.len() - 1) * 64 + (64 - top.leading_zeros() as usize),
    }
}

fn mag_get_bit(a: &[u64], i: usize) -> bool {
    let limb = i / 64;
    limb < a.len() && (a[limb] >> (i % 64)) & 1 == 1
}

fn mag_set_bit(a: &mut Vec<u64>, i: usize) {
    let limb = i / 64;
    if limb >= a.len() {
        a.resize(limb + 1, 0);
    }
    a[limb] |= 1u64 << (i % 64);
}

/// Schoolbook binary long division: returns `(quotient, remainder)`.
///
/// Runs in O(bits(a) * limbs(b)); fine for the constraint sizes this
/// workspace manipulates, where divisions are rare compared to add/mul.
fn mag_div_rem(a: &[u64], b: &[u64]) -> (Vec<u64>, Vec<u64>) {
    assert!(!b.is_empty(), "division by zero magnitude");
    if mag_cmp(a, b) == Ordering::Less {
        return (Vec::new(), a.to_vec());
    }
    // Fast path: single-limb divisor.
    if b.len() == 1 {
        let d = u128::from(b[0]);
        let mut quot = vec![0u64; a.len()];
        let mut rem = 0u128;
        for i in (0..a.len()).rev() {
            let cur = (rem << 64) | u128::from(a[i]);
            quot[i] = (cur / d) as u64;
            rem = cur % d;
        }
        mag_trim(&mut quot);
        let mut r = vec![rem as u64];
        mag_trim(&mut r);
        return (quot, r);
    }
    let n = mag_bit_len(a);
    let mut quot: Vec<u64> = Vec::new();
    let mut rem: Vec<u64> = Vec::new();
    for i in (0..n).rev() {
        rem = mag_shl(&rem, 1);
        if mag_get_bit(a, i) {
            if rem.is_empty() {
                rem.push(1);
            } else {
                rem[0] |= 1;
            }
        }
        if mag_cmp(&rem, b) != Ordering::Less {
            rem = mag_sub(&rem, b);
            mag_set_bit(&mut quot, i);
        }
    }
    mag_trim(&mut quot);
    (quot, rem)
}

// ---------------------------------------------------------------------------
// BigInt
// ---------------------------------------------------------------------------

impl BigInt {
    /// The integer zero.
    ///
    /// ```
    /// use staub_numeric::BigInt;
    /// assert!(BigInt::zero().is_zero());
    /// ```
    pub fn zero() -> BigInt {
        BigInt {
            sign: Sign::Zero,
            limbs: Vec::new(),
        }
    }

    /// The integer one.
    pub fn one() -> BigInt {
        BigInt::from(1)
    }

    fn from_mag(sign: Sign, mut limbs: Vec<u64>) -> BigInt {
        mag_trim(&mut limbs);
        if limbs.is_empty() {
            BigInt::zero()
        } else {
            debug_assert!(sign != Sign::Zero);
            BigInt { sign, limbs }
        }
    }

    /// Returns `true` if `self` is zero.
    pub fn is_zero(&self) -> bool {
        self.sign == Sign::Zero
    }

    /// Returns `true` if `self` is strictly negative.
    pub fn is_negative(&self) -> bool {
        self.sign == Sign::Negative
    }

    /// Returns `true` if `self` is strictly positive.
    pub fn is_positive(&self) -> bool {
        self.sign == Sign::Positive
    }

    /// Returns `true` if `self` is odd.
    pub fn is_odd(&self) -> bool {
        self.limbs.first().is_some_and(|l| l & 1 == 1)
    }

    /// The sign of this integer.
    pub fn sign(&self) -> Sign {
        self.sign
    }

    /// Absolute value.
    ///
    /// ```
    /// use staub_numeric::BigInt;
    /// assert_eq!(BigInt::from(-5).abs(), BigInt::from(5));
    /// ```
    pub fn abs(&self) -> BigInt {
        BigInt {
            sign: if self.sign == Sign::Negative {
                Sign::Positive
            } else {
                self.sign
            },
            limbs: self.limbs.clone(),
        }
    }

    /// Number of bits in the magnitude's binary representation; 0 for zero.
    ///
    /// ```
    /// use staub_numeric::BigInt;
    /// assert_eq!(BigInt::from(15).bit_len(), 4);
    /// assert_eq!(BigInt::from(16).bit_len(), 5);
    /// assert_eq!(BigInt::zero().bit_len(), 0);
    /// ```
    pub fn bit_len(&self) -> usize {
        mag_bit_len(&self.limbs)
    }

    /// Returns bit `i` of the magnitude (little-endian).
    pub fn bit(&self, i: usize) -> bool {
        mag_get_bit(&self.limbs, i)
    }

    /// `self` raised to the power `exp`.
    ///
    /// ```
    /// use staub_numeric::BigInt;
    /// assert_eq!(BigInt::from(2).pow(10), BigInt::from(1024));
    /// ```
    pub fn pow(&self, mut exp: u32) -> BigInt {
        let mut base = self.clone();
        let mut acc = BigInt::one();
        while exp > 0 {
            if exp & 1 == 1 {
                acc = &acc * &base;
            }
            exp >>= 1;
            if exp > 0 {
                base = &base * &base;
            }
        }
        acc
    }

    /// Truncated division and remainder, with C/SMT-LIB-agnostic semantics:
    /// quotient rounds toward zero, `self = q * other + r`, `|r| < |other|`,
    /// and `r` has the sign of `self`.
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem_trunc(&self, other: &BigInt) -> (BigInt, BigInt) {
        assert!(!other.is_zero(), "division by zero");
        let (q_mag, r_mag) = mag_div_rem(&self.limbs, &other.limbs);
        let q_sign = if self.sign == other.sign || q_mag.is_empty() {
            Sign::Positive
        } else {
            Sign::Negative
        };
        (
            BigInt::from_mag(q_sign, q_mag),
            BigInt::from_mag(self.sign, r_mag),
        )
    }

    /// Euclidean division as used by SMT-LIB's `div`/`mod` for integers:
    /// the remainder is always in `[0, |other|)`.
    ///
    /// ```
    /// use staub_numeric::BigInt;
    /// let (q, r) = BigInt::from(-7).div_rem_euclid(&BigInt::from(2));
    /// assert_eq!(q, BigInt::from(-4));
    /// assert_eq!(r, BigInt::from(1));
    /// ```
    ///
    /// # Panics
    ///
    /// Panics if `other` is zero.
    pub fn div_rem_euclid(&self, other: &BigInt) -> (BigInt, BigInt) {
        let (q, r) = self.div_rem_trunc(other);
        if r.is_negative() {
            if other.is_positive() {
                (&q - &BigInt::one(), &r + other)
            } else {
                (&q + &BigInt::one(), &r - other)
            }
        } else {
            (q, r)
        }
    }

    /// Greatest common divisor of the magnitudes (always non-negative).
    ///
    /// ```
    /// use staub_numeric::BigInt;
    /// assert_eq!(BigInt::from(12).gcd(&BigInt::from(-18)), BigInt::from(6));
    /// ```
    pub fn gcd(&self, other: &BigInt) -> BigInt {
        let mut a = self.abs();
        let mut b = other.abs();
        while !b.is_zero() {
            let (_, r) = a.div_rem_trunc(&b);
            a = b;
            b = r;
        }
        a
    }

    /// Converts to `i64` if the value fits.
    pub fn to_i64(&self) -> Option<i64> {
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive => {
                if self.limbs.len() == 1 && self.limbs[0] <= i64::MAX as u64 {
                    Some(self.limbs[0] as i64)
                } else {
                    None
                }
            }
            Sign::Negative => {
                if self.limbs.len() == 1 && self.limbs[0] <= 1u64 << 63 {
                    Some((self.limbs[0] as i64).wrapping_neg())
                } else {
                    None
                }
            }
        }
    }

    /// Converts to `u64` if the value is in range.
    pub fn to_u64(&self) -> Option<u64> {
        match self.sign {
            Sign::Zero => Some(0),
            Sign::Positive if self.limbs.len() == 1 => Some(self.limbs[0]),
            _ => None,
        }
    }

    /// Approximates the value as an `f64` (saturating to infinity).
    pub fn to_f64(&self) -> f64 {
        let mut v = 0.0f64;
        for &limb in self.limbs.iter().rev() {
            v = v * 1.8446744073709552e19 + limb as f64;
        }
        if self.sign == Sign::Negative {
            -v
        } else {
            v
        }
    }

    /// Shifts the value left by `bits` (multiplication by `2^bits`).
    pub fn shl_bits(&self, bits: usize) -> BigInt {
        BigInt::from_mag(self.sign, mag_shl(&self.limbs, bits))
    }

    /// Arithmetic shift right by `bits` toward negative infinity is *not*
    /// what this does: it shifts the magnitude (division by `2^bits`
    /// truncated toward zero).
    pub fn shr_bits(&self, bits: usize) -> BigInt {
        BigInt::from_mag(self.sign, mag_shr(&self.limbs, bits))
    }

    /// The number of trailing zero bits of the magnitude; `None` for zero.
    pub fn trailing_zeros(&self) -> Option<usize> {
        if self.is_zero() {
            return None;
        }
        let mut count = 0usize;
        for &limb in &self.limbs {
            if limb == 0 {
                count += 64;
            } else {
                return Some(count + limb.trailing_zeros() as usize);
            }
        }
        unreachable!("nonzero BigInt had all-zero limbs")
    }
}

impl Default for BigInt {
    fn default() -> BigInt {
        BigInt::zero()
    }
}

macro_rules! impl_from_signed {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                let v = v as i128;
                match v.cmp(&0) {
                    Ordering::Equal => BigInt::zero(),
                    Ordering::Greater => {
                        let u = v as u128;
                        BigInt::from_mag(Sign::Positive, vec![u as u64, (u >> 64) as u64])
                    }
                    Ordering::Less => {
                        let u = v.unsigned_abs();
                        BigInt::from_mag(Sign::Negative, vec![u as u64, (u >> 64) as u64])
                    }
                }
            }
        }
    )*};
}

macro_rules! impl_from_unsigned {
    ($($t:ty),*) => {$(
        impl From<$t> for BigInt {
            fn from(v: $t) -> BigInt {
                let u = v as u128;
                if u == 0 {
                    BigInt::zero()
                } else {
                    BigInt::from_mag(Sign::Positive, vec![u as u64, (u >> 64) as u64])
                }
            }
        }
    )*};
}

impl_from_signed!(i8, i16, i32, i64, i128, isize);
impl_from_unsigned!(u8, u16, u32, u64, u128, usize);

/// The largest power of ten that fits a limb: decimal conversion works in
/// chunks of this many digits.
const CHUNK_DIGITS: usize = 19;

/// `10^CHUNK_DIGITS`.
const CHUNK: u64 = 10_000_000_000_000_000_000;

/// `a = a * m + add`, in place.
fn mag_mul_add_small(a: &mut Vec<u64>, m: u64, add: u64) {
    let mut carry = u128::from(add);
    for limb in a.iter_mut() {
        let t = u128::from(*limb) * u128::from(m) + carry;
        *limb = t as u64;
        carry = t >> 64;
    }
    if carry != 0 {
        a.push(carry as u64);
    }
}

/// `a = a / d` in place, returning the remainder; `d` must be non-zero.
fn mag_div_small(a: &mut Vec<u64>, d: u64) -> u64 {
    let d = u128::from(d);
    let mut rem = 0u128;
    for limb in a.iter_mut().rev() {
        let cur = (rem << 64) | u128::from(*limb);
        *limb = (cur / d) as u64;
        rem = cur % d;
    }
    mag_trim(a);
    rem as u64
}

/// Writes `v` in decimal, left-padded with zeros to `width` digits.
fn write_u64(f: &mut fmt::Formatter<'_>, mut v: u64, width: usize) -> fmt::Result {
    let mut digits = [b'0'; 20];
    let mut at = digits.len();
    while v != 0 {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
    }
    let at = at.min(digits.len() - width.max(1));
    f.write_str(std::str::from_utf8(&digits[at..]).expect("ASCII digits"))
}

impl FromStr for BigInt {
    type Err = ParseBigIntError;

    /// Parses an optionally signed (`-` or `+`) decimal integer, one
    /// 19-digit chunk at a time.
    fn from_str(s: &str) -> Result<BigInt, ParseBigIntError> {
        let (sign, digits) = match s.strip_prefix('-') {
            Some(rest) => (Sign::Negative, rest),
            None => (Sign::Positive, s.strip_prefix('+').unwrap_or(s)),
        };
        if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
            return Err(ParseBigIntError {
                offending: s.to_string(),
            });
        }
        // The first chunk takes the remainder, so every later one is full.
        let first = match digits.len() % CHUNK_DIGITS {
            0 => CHUNK_DIGITS,
            r => r,
        };
        let (head, tail) = digits.as_bytes().split_at(first);
        let value = |chunk: &[u8]| {
            chunk
                .iter()
                .fold(0u64, |v, &b| v * 10 + u64::from(b - b'0'))
        };
        let mut limbs = vec![value(head)];
        for chunk in tail.chunks(CHUNK_DIGITS) {
            mag_mul_add_small(&mut limbs, CHUNK, value(chunk));
        }
        Ok(BigInt::from_mag(sign, limbs))
    }
}

impl fmt::Display for BigInt {
    /// Prints in decimal, one 19-digit chunk at a time (a single limb
    /// directly).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.sign == Sign::Negative {
            f.write_str("-")?;
        }
        if let [limb] = self.limbs[..] {
            return write_u64(f, limb, 1);
        }
        let mut mag = self.limbs.clone();
        let mut chunks = Vec::new();
        while !mag.is_empty() {
            chunks.push(mag_div_small(&mut mag, CHUNK));
        }
        let (top, rest) = chunks.split_last().unwrap_or((&0, &[]));
        write_u64(f, *top, 1)?;
        for &chunk in rest.iter().rev() {
            write_u64(f, chunk, CHUNK_DIGITS)?;
        }
        Ok(())
    }
}

impl fmt::Debug for BigInt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BigInt({self})")
    }
}

impl PartialOrd for BigInt {
    fn partial_cmp(&self, other: &BigInt) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BigInt {
    fn cmp(&self, other: &BigInt) -> Ordering {
        match self.sign.cmp(&other.sign) {
            Ordering::Equal => {}
            ord => return ord,
        }
        match self.sign {
            Sign::Zero => Ordering::Equal,
            Sign::Positive => mag_cmp(&self.limbs, &other.limbs),
            Sign::Negative => mag_cmp(&other.limbs, &self.limbs),
        }
    }
}

impl Neg for BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        BigInt {
            sign: self.sign.flip(),
            limbs: self.limbs,
        }
    }
}

impl Neg for &BigInt {
    type Output = BigInt;
    fn neg(self) -> BigInt {
        -self.clone()
    }
}

impl Add for &BigInt {
    type Output = BigInt;
    fn add(self, rhs: &BigInt) -> BigInt {
        match (self.sign, rhs.sign) {
            (Sign::Zero, _) => rhs.clone(),
            (_, Sign::Zero) => self.clone(),
            (a, b) if a == b => BigInt::from_mag(a, mag_add(&self.limbs, &rhs.limbs)),
            (a, _) => match mag_cmp(&self.limbs, &rhs.limbs) {
                Ordering::Equal => BigInt::zero(),
                Ordering::Greater => BigInt::from_mag(a, mag_sub(&self.limbs, &rhs.limbs)),
                Ordering::Less => BigInt::from_mag(a.flip(), mag_sub(&rhs.limbs, &self.limbs)),
            },
        }
    }
}

impl Sub for &BigInt {
    type Output = BigInt;
    fn sub(self, rhs: &BigInt) -> BigInt {
        self + &(-rhs)
    }
}

impl Mul for &BigInt {
    type Output = BigInt;
    fn mul(self, rhs: &BigInt) -> BigInt {
        if self.is_zero() || rhs.is_zero() {
            return BigInt::zero();
        }
        let sign = if self.sign == rhs.sign {
            Sign::Positive
        } else {
            Sign::Negative
        };
        BigInt::from_mag(sign, mag_mul(&self.limbs, &rhs.limbs))
    }
}

impl Div for &BigInt {
    type Output = BigInt;
    /// Truncating division (see [`BigInt::div_rem_trunc`]).
    fn div(self, rhs: &BigInt) -> BigInt {
        self.div_rem_trunc(rhs).0
    }
}

impl Rem for &BigInt {
    type Output = BigInt;
    /// Truncating remainder (see [`BigInt::div_rem_trunc`]).
    fn rem(self, rhs: &BigInt) -> BigInt {
        self.div_rem_trunc(rhs).1
    }
}

macro_rules! impl_owned_binops {
    ($($trait:ident, $method:ident);*) => {$(
        impl $trait for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                (&self).$method(&rhs)
            }
        }
        impl $trait<&BigInt> for BigInt {
            type Output = BigInt;
            fn $method(self, rhs: &BigInt) -> BigInt {
                (&self).$method(rhs)
            }
        }
        impl $trait<BigInt> for &BigInt {
            type Output = BigInt;
            fn $method(self, rhs: BigInt) -> BigInt {
                self.$method(&rhs)
            }
        }
    )*};
}

impl_owned_binops!(Add, add; Sub, sub; Mul, mul; Div, div; Rem, rem);

impl AddAssign<&BigInt> for BigInt {
    fn add_assign(&mut self, rhs: &BigInt) {
        *self = &*self + rhs;
    }
}

impl Shl<usize> for &BigInt {
    type Output = BigInt;
    fn shl(self, bits: usize) -> BigInt {
        self.shl_bits(bits)
    }
}

impl Shr<usize> for &BigInt {
    type Output = BigInt;
    fn shr(self, bits: usize) -> BigInt {
        self.shr_bits(bits)
    }
}

impl std::iter::Sum for BigInt {
    fn sum<I: Iterator<Item = BigInt>>(iter: I) -> BigInt {
        iter.fold(BigInt::zero(), |acc, x| &acc + &x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bi(v: i128) -> BigInt {
        BigInt::from(v)
    }

    #[test]
    fn zero_is_canonical() {
        assert_eq!(bi(0), BigInt::zero());
        assert_eq!(&bi(5) - &bi(5), BigInt::zero());
        assert!((&bi(5) - &bi(5)).limbs.is_empty());
    }

    #[test]
    fn add_sub_small() {
        assert_eq!(&bi(2) + &bi(3), bi(5));
        assert_eq!(&bi(-2) + &bi(3), bi(1));
        assert_eq!(&bi(2) + &bi(-3), bi(-1));
        assert_eq!(&bi(-2) + &bi(-3), bi(-5));
        assert_eq!(&bi(10) - &bi(3), bi(7));
        assert_eq!(&bi(3) - &bi(10), bi(-7));
    }

    #[test]
    fn mul_signs() {
        assert_eq!(&bi(-4) * &bi(6), bi(-24));
        assert_eq!(&bi(-4) * &bi(-6), bi(24));
        assert_eq!(&bi(0) * &bi(-6), bi(0));
    }

    #[test]
    fn carries_across_limbs() {
        let max = BigInt::from(u64::MAX);
        let one = BigInt::one();
        let sum = &max + &one;
        assert_eq!(sum.bit_len(), 65);
        assert_eq!(&sum - &one, max);
    }

    #[test]
    fn mul_large() {
        let a: BigInt = "123456789123456789123456789".parse().unwrap();
        let b: BigInt = "987654321987654321".parse().unwrap();
        let p = &a * &b;
        assert_eq!(
            p.to_string(),
            "121932631356500531469135800347203169112635269"
        );
    }

    #[test]
    fn div_rem_trunc_signs() {
        for (a, b, q, r) in [
            (7, 2, 3, 1),
            (-7, 2, -3, -1),
            (7, -2, -3, 1),
            (-7, -2, 3, -1),
        ] {
            let (qq, rr) = bi(a).div_rem_trunc(&bi(b));
            assert_eq!((qq, rr), (bi(q), bi(r)), "case {a}/{b}");
        }
    }

    #[test]
    fn div_rem_euclid_nonnegative_remainder() {
        for a in -20i128..20 {
            for b in [-7i128, -3, 2, 5] {
                let (q, r) = bi(a).div_rem_euclid(&bi(b));
                assert!(!r.is_negative(), "remainder negative for {a} / {b}");
                assert!(r < bi(b.abs()));
                assert_eq!(&(&q * &bi(b)) + &r, bi(a), "identity for {a} / {b}");
            }
        }
    }

    #[test]
    fn division_large() {
        let a: BigInt = "340282366920938463463374607431768211456".parse().unwrap(); // 2^128
        let b: BigInt = "18446744073709551616".parse().unwrap(); // 2^64
        let (q, r) = a.div_rem_trunc(&b);
        assert_eq!(q, b);
        assert!(r.is_zero());
    }

    #[test]
    fn display_round_trip() {
        for s in [
            "0",
            "-1",
            "98765432109876543210",
            "-340282366920938463463374607431768211457",
        ] {
            let v: BigInt = s.parse().unwrap();
            assert_eq!(v.to_string(), s);
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("".parse::<BigInt>().is_err());
        assert!("-".parse::<BigInt>().is_err());
        assert!("12a".parse::<BigInt>().is_err());
    }

    #[test]
    fn bit_len_and_bits() {
        assert_eq!(bi(0b1011).bit_len(), 4);
        assert!(bi(0b1011).bit(0));
        assert!(bi(0b1011).bit(1));
        assert!(!bi(0b1011).bit(2));
        assert!(bi(0b1011).bit(3));
        assert!(!bi(0b1011).bit(100));
    }

    #[test]
    fn shifts() {
        assert_eq!(bi(5).shl_bits(3), bi(40));
        assert_eq!(bi(40).shr_bits(3), bi(5));
        assert_eq!(bi(41).shr_bits(3), bi(5));
        let big = bi(1).shl_bits(200);
        assert_eq!(big.bit_len(), 201);
        assert_eq!(big.shr_bits(200), bi(1));
    }

    #[test]
    fn pow_and_gcd() {
        assert_eq!(bi(3).pow(0), bi(1));
        assert_eq!(bi(3).pow(5), bi(243));
        assert_eq!(bi(48).gcd(&bi(36)), bi(12));
        assert_eq!(bi(0).gcd(&bi(5)), bi(5));
    }

    #[test]
    fn ordering() {
        assert!(bi(-10) < bi(-2));
        assert!(bi(-2) < bi(0));
        assert!(bi(0) < bi(7));
        assert!(bi(7) < bi(100));
        let big: BigInt = "99999999999999999999999".parse().unwrap();
        assert!(bi(1) < big);
        assert!(-big.clone() < bi(1));
    }

    #[test]
    fn to_primitive_conversions() {
        assert_eq!(bi(-5).to_i64(), Some(-5));
        assert_eq!(bi(i64::MIN as i128).to_i64(), Some(i64::MIN));
        assert_eq!(bi(i64::MAX as i128 + 1).to_i64(), None);
        assert_eq!(bi(5).to_u64(), Some(5));
        assert_eq!(bi(-5).to_u64(), None);
    }

    #[test]
    fn to_f64_approximation() {
        assert_eq!(bi(1 << 40).to_f64(), (1u64 << 40) as f64);
        assert!((bi(-3).to_f64() + 3.0).abs() < 1e-12);
    }

    #[test]
    fn trailing_zeros() {
        assert_eq!(bi(0).trailing_zeros(), None);
        assert_eq!(bi(1).trailing_zeros(), Some(0));
        assert_eq!(bi(96).trailing_zeros(), Some(5));
        assert_eq!(bi(1).shl_bits(130).trailing_zeros(), Some(130));
    }
}
