//! Property-based tests for the numeric substrate, cross-checked against
//! the platform's `i128` and IEEE-754 `f32`/`f64` arithmetic.

use proptest::prelude::*;
use staub::numeric::{BigInt, BigRational, BitVecValue, RoundingMode, SoftFloat};

fn big(v: i128) -> BigInt {
    BigInt::from(v)
}

/// Decimal parsing one digit at a time, one multiply and add per digit:
/// the oracle for the chunked `FromStr`.
fn parse_per_digit(s: &str) -> Option<BigInt> {
    let (negative, digits) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s.strip_prefix('+').unwrap_or(s)),
    };
    if digits.is_empty() {
        return None;
    }
    let mut acc = BigInt::zero();
    for ch in digits.chars() {
        acc = &(&acc * &big(10)) + &big(i128::from(ch.to_digit(10)?));
    }
    Some(if negative { -acc } else { acc })
}

/// Decimal printing one digit at a time, one division per digit: the
/// oracle for the chunked `Display`.
fn display_per_digit(v: &BigInt) -> String {
    let mut mag = v.abs();
    let mut digits = Vec::new();
    while !mag.is_zero() {
        let (q, r) = mag.div_rem_trunc(&big(10));
        digits.push(char::from(b'0' + r.to_u64().unwrap() as u8));
        mag = q;
    }
    if digits.is_empty() {
        digits.push('0');
    }
    if v.is_negative() {
        digits.push('-');
    }
    digits.iter().rev().collect()
}

/// Checks parsing and printing of `s` against the per-digit oracle, and
/// against `i128` where the value fits.
fn check_decimal(s: &str) -> Result<(), TestCaseError> {
    let parsed = s.parse::<BigInt>();
    match parse_per_digit(s) {
        None => {
            let err = parsed.expect_err("the oracle rejects it");
            prop_assert_eq!(err.to_string(), format!("invalid integer literal `{s}`"));
        }
        Some(expected) => {
            let v = parsed.expect("the oracle accepts it");
            prop_assert_eq!(&v, &expected);
            prop_assert_eq!(v.to_string(), display_per_digit(&v));
            prop_assert_eq!(v.to_string().parse::<BigInt>().unwrap(), v.clone());
            if let Ok(n) = s.parse::<i128>() {
                prop_assert_eq!(v.to_string(), n.to_string());
            }
        }
    }
    Ok(())
}

/// Every length across the 19- and 38-digit chunk boundaries (and past
/// the 57-digit one), with each sign spelling and leading zeros.
#[test]
fn bigint_decimal_chunk_boundaries() {
    for len in 1..=80 {
        for digits in [
            "9".repeat(len),
            format!("1{}", "0".repeat(len - 1)),
            (0..len)
                .map(|i| char::from(b'0' + (i * 7 % 10) as u8))
                .collect(),
        ] {
            for prefix in ["", "-", "+", "00", "-0", "+000"] {
                check_decimal(&format!("{prefix}{digits}")).unwrap();
            }
        }
    }
    for bad in [
        "", "-", "+", "+-1", "-+1", "--1", " 1", "1 ", "1_000", "0x1f", "١٢",
    ] {
        check_decimal(bad).unwrap();
    }
}

proptest! {
    #[test]
    fn bigint_add_matches_i128(a in -(1i128 << 100)..(1i128 << 100), b in -(1i128 << 100)..(1i128 << 100)) {
        prop_assert_eq!(&big(a) + &big(b), big(a + b));
    }

    #[test]
    fn bigint_mul_matches_i128(a in -(1i128 << 60)..(1i128 << 60), b in -(1i128 << 60)..(1i128 << 60)) {
        prop_assert_eq!(&big(a) * &big(b), big(a * b));
    }

    #[test]
    fn bigint_div_rem_identity(a in any::<i64>(), b in any::<i64>()) {
        prop_assume!(b != 0);
        let (q, r) = big(a as i128).div_rem_trunc(&big(b as i128));
        prop_assert_eq!(&(&q * &big(b as i128)) + &r, big(a as i128));
        prop_assert_eq!(q, big((a as i128) / (b as i128)));
        prop_assert_eq!(r, big((a as i128) % (b as i128)));
    }

    #[test]
    fn bigint_euclid_remainder_nonnegative(a in any::<i64>(), b in any::<i64>()) {
        prop_assume!(b != 0);
        let (q, r) = big(a as i128).div_rem_euclid(&big(b as i128));
        prop_assert!(!r.is_negative());
        prop_assert!(r < big((b as i128).abs()));
        prop_assert_eq!(&(&q * &big(b as i128)) + &r, big(a as i128));
    }

    #[test]
    fn bigint_string_round_trip(a in any::<i128>()) {
        let v = big(a);
        let s = v.to_string();
        prop_assert_eq!(s.parse::<BigInt>().unwrap(), v);
    }

    #[test]
    fn bigint_decimal_matches_per_digit(
        sign in "[+\\-]?",
        zeros in "0{0,3}",
        digits in "[0-9]{1,80}",
    ) {
        check_decimal(&format!("{sign}{zeros}{digits}"))?;
    }

    #[test]
    fn bigint_decimal_rejects_what_per_digit_rejects(s in "[+\\-0-9a ]{0,6}") {
        check_decimal(&s)?;
    }

    #[test]
    fn bigint_display_matches_i128_and_per_digit(a in any::<i128>(), b in any::<i128>(), c in any::<i64>()) {
        prop_assert_eq!(big(a).to_string(), a.to_string());
        // Products of up to four limbs exercise the multi-chunk path.
        let v = &(&big(a) * &big(b)) * &big(i128::from(c));
        prop_assert_eq!(v.to_string(), display_per_digit(&v));
    }

    #[test]
    fn bigint_shift_is_pow2_mul(a in -(1i128 << 80)..(1i128 << 80), k in 0usize..40) {
        prop_assert_eq!(big(a).shl_bits(k), &big(a) * &big(1i128 << k));
    }

    #[test]
    fn bigint_ordering_matches_i128(a in any::<i128>(), b in any::<i128>()) {
        prop_assert_eq!(big(a).cmp(&big(b)), a.cmp(&b));
    }

    #[test]
    fn rational_field_laws(an in -1000i64..1000, ad in 1i64..100, bn in -1000i64..1000, bd in 1i64..100) {
        let a = BigRational::new(BigInt::from(an), BigInt::from(ad));
        let b = BigRational::new(BigInt::from(bn), BigInt::from(bd));
        prop_assert_eq!(&a + &b, &b + &a);
        prop_assert_eq!(&a * &b, &b * &a);
        prop_assert_eq!(&(&a - &b) + &b, a.clone());
        if !b.is_zero() {
            prop_assert_eq!(&(&a / &b) * &b, a.clone());
        }
    }

    #[test]
    fn rational_floor_ceil_bracket(n in -10_000i64..10_000, d in 1i64..500) {
        let v = BigRational::new(BigInt::from(n), BigInt::from(d));
        let floor = v.floor();
        let ceil = v.ceil();
        prop_assert!(BigRational::from_int(floor.clone()) <= v);
        prop_assert!(BigRational::from_int(ceil.clone()) >= v);
        let diff = &ceil - &floor;
        prop_assert!(diff == BigInt::zero() || diff == BigInt::one());
    }

    #[test]
    fn rational_dig_definition(n in -5000i64..5000, d in 1i64..2000) {
        let v = BigRational::new(BigInt::from(n), BigInt::from(d));
        if let Some(k) = v.dig() {
            // 2^k * v is an integer, and k is minimal.
            let scaled = &v * &BigRational::from_int(BigInt::one().shl_bits(k));
            prop_assert!(scaled.is_integer());
            if k > 0 {
                let under = &v * &BigRational::from_int(BigInt::one().shl_bits(k - 1));
                prop_assert!(!under.is_integer());
            }
        }
    }

    #[test]
    fn bitvec_ops_match_wrapping_i64(a in any::<i32>(), b in any::<i32>()) {
        let (a, b) = (a as i64, b as i64);
        let x = BitVecValue::from_i64(a, 32);
        let y = BitVecValue::from_i64(b, 32);
        prop_assert_eq!(x.bvadd(&y).to_signed(), big(((a as i32).wrapping_add(b as i32)) as i128));
        prop_assert_eq!(x.bvsub(&y).to_signed(), big(((a as i32).wrapping_sub(b as i32)) as i128));
        prop_assert_eq!(x.bvmul(&y).to_signed(), big(((a as i32).wrapping_mul(b as i32)) as i128));
        prop_assert_eq!(x.bvneg().to_signed(), big(((a as i32).wrapping_neg()) as i128));
        prop_assert_eq!(x.scmp(&y), (a as i32).cmp(&(b as i32)));
        prop_assert_eq!(x.ucmp(&y), (a as u32).cmp(&(b as u32)));
    }

    #[test]
    fn bitvec_bitwise_match_i32(a in any::<i32>(), b in any::<i32>()) {
        let x = BitVecValue::from_i64(a as i64, 32);
        let y = BitVecValue::from_i64(b as i64, 32);
        prop_assert_eq!(x.bvand(&y).to_signed(), big((a & b) as i128));
        prop_assert_eq!(x.bvor(&y).to_signed(), big((a | b) as i128));
        prop_assert_eq!(x.bvxor(&y).to_signed(), big((a ^ b) as i128));
        prop_assert_eq!(x.bvnot().to_signed(), big((!a) as i128));
    }

    #[test]
    fn bitvec_overflow_predicates_match_checked(a in any::<i8>(), b in any::<i8>()) {
        let x = BitVecValue::from_i64(a as i64, 8);
        let y = BitVecValue::from_i64(b as i64, 8);
        prop_assert_eq!(x.bvsaddo(&y), a.checked_add(b).is_none());
        prop_assert_eq!(x.bvssubo(&y), a.checked_sub(b).is_none());
        prop_assert_eq!(x.bvsmulo(&y), a.checked_mul(b).is_none());
        prop_assert_eq!(x.bvnego(), a.checked_neg().is_none());
        if b != 0 {
            prop_assert_eq!(x.bvsdivo(&y), a.checked_div(b).is_none());
            prop_assert_eq!(x.bvsdiv(&y).to_signed(), big(a.wrapping_div(b) as i128));
            prop_assert_eq!(x.bvsrem(&y).to_signed(), big(a.wrapping_rem(b) as i128));
        }
    }

    #[test]
    fn softfloat_rounding_matches_f32(n in -(1i64 << 40)..(1i64 << 40), e in -30i64..30) {
        // v = n * 2^e, exactly representable as a rational.
        let v = BigRational::dyadic(BigInt::from(n), e);
        let ours = SoftFloat::from_rational(8, 24, &v);
        let hw = v.to_f64() as f32;
        if hw.is_infinite() {
            prop_assert!(ours.is_infinite() || !ours.is_finite());
        } else {
            let got = ours.to_rational().unwrap().to_f64() as f32;
            prop_assert_eq!(got.to_bits(), hw.to_bits(), "value {}", v);
        }
    }

    #[test]
    fn softfloat_add_matches_f32(a in any::<i32>(), b in any::<i32>()) {
        // Interpret bit patterns as f32s; skip NaN inputs (semantics match
        // but payloads are canonicalized).
        let fa = f32::from_bits(a as u32);
        let fb = f32::from_bits(b as u32);
        prop_assume!(!fa.is_nan() && !fb.is_nan());
        let sa = sf_from_f32(fa);
        let sb = sf_from_f32(fb);
        let sum = sa.add(&sb, RoundingMode::NearestEven);
        let hw = fa + fb;
        if hw.is_nan() {
            prop_assert!(sum.is_nan());
        } else if hw.is_infinite() {
            prop_assert!(sum.is_infinite());
            prop_assert_eq!(sum.sign(), hw < 0.0);
        } else if hw == 0.0 {
            // `to_rational` cannot carry the zero sign; compare directly.
            prop_assert!(sum.is_zero());
            prop_assert_eq!(sum.sign(), hw.is_sign_negative());
        } else {
            let got = sum.to_rational().unwrap().to_f64() as f32;
            prop_assert_eq!(got.to_bits(), hw.to_bits());
        }
    }

    #[test]
    fn softfloat_mul_matches_f32(a in any::<i32>(), b in any::<i32>()) {
        let fa = f32::from_bits(a as u32);
        let fb = f32::from_bits(b as u32);
        prop_assume!(!fa.is_nan() && !fb.is_nan());
        let prod = sf_from_f32(fa).mul(&sf_from_f32(fb), RoundingMode::NearestEven);
        let hw = fa * fb;
        if hw.is_nan() {
            prop_assert!(prod.is_nan());
        } else if hw.is_infinite() {
            prop_assert!(prod.is_infinite());
            prop_assert_eq!(prod.sign(), hw < 0.0);
        } else if hw == 0.0 {
            prop_assert!(prod.is_zero());
            prop_assert_eq!(prod.sign(), hw.is_sign_negative());
        } else {
            let got = prod.to_rational().unwrap().to_f64() as f32;
            prop_assert_eq!(got.to_bits(), hw.to_bits());
        }
    }

    #[test]
    fn softfloat_fields_round_trip(a in any::<u32>()) {
        let f = f32::from_bits(a);
        prop_assume!(!f.is_nan());
        let sf = sf_from_f32(f);
        let (sign, e, m) = sf.to_fields();
        let back = SoftFloat::from_fields(8, 24, sign, &e, &m);
        prop_assert_eq!(sf, back);
    }
}

fn sf_from_f32(v: f32) -> SoftFloat {
    let bits = v.to_bits();
    SoftFloat::from_fields(
        8,
        24,
        bits >> 31 == 1,
        &BigInt::from((bits >> 23) & 0xff),
        &BigInt::from(bits & 0x7f_ffff),
    )
}
