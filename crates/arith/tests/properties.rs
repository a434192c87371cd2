//! Property tests for the exact-arithmetic substrate the census counts
//! rest on: `BigInt` against `i128` reference arithmetic, `Ratio`'s
//! field axioms and normal form, `Poly` products evaluated pointwise,
//! and falling factorials against enumerated injections.
//!
//! Seeded (`CAZ_TEST_SEED`, default 3707; every assertion names the
//! seed and case): each property draws its own stream. Integers are
//! drawn with a random bit length, so small values, word boundaries and
//! `i128`'s extremes all turn up.
//! Reproduce with `CAZ_TEST_SEED=<seed> cargo test -p caz-arith --test properties`.

use caz_arith::{BigInt, Poly, Ratio};
use caz_testutil::rngs::StdRng;
use caz_testutil::{Rng, RngExt, SeedableRng};

const CASES: usize = 256;

fn seed() -> u64 {
    std::env::var("CAZ_TEST_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(3707)
}

/// The stream for one property: the suite seed mixed with a salt, so
/// properties draw independent cases.
fn stream(salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed() ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn big(v: i128) -> BigInt {
    BigInt::from(v)
}

/// A signed integer of at most `bits` magnitude bits (`bits ≤ 127`),
/// its bit length drawn uniformly; now and then `i128::MIN` or `MAX`
/// when the full width is allowed.
fn int(rng: &mut StdRng, bits: u32) -> i128 {
    if bits == 127 && rng.random_bool(0.02) {
        return if rng.random_bool(0.5) {
            i128::MIN
        } else {
            i128::MAX
        };
    }
    let len = rng.random_range(0..=bits);
    let word = (u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64());
    let magnitude = (word & ((1u128 << len) - 1)) as i128;
    if rng.random_bool(0.5) {
        -magnitude
    } else {
        magnitude
    }
}

/// A nonzero [`int`].
fn nonzero(rng: &mut StdRng, bits: u32) -> i128 {
    loop {
        let v = int(rng, bits);
        if v != 0 {
            return v;
        }
    }
}

#[test]
fn add_sub_mul_match_i128() {
    let (seed, mut rng) = (seed(), stream(1));
    for case in 0..CASES {
        let (a, b) = (int(&mut rng, 100), int(&mut rng, 100));
        let at = format!("CAZ_TEST_SEED={seed} case {case}: a = {a}, b = {b}");
        assert_eq!(big(a) + big(b), big(a + b), "{at}");
        assert_eq!(big(a) - big(b), big(a - b), "{at}");
        let (c, d) = (int(&mut rng, 60), int(&mut rng, 60));
        assert_eq!(
            big(c) * big(d),
            big(c * d),
            "CAZ_TEST_SEED={seed} case {case}: {c} * {d}"
        );
    }
}

#[test]
fn div_rem_matches_i128_and_reconstructs() {
    let (seed, mut rng) = (seed(), stream(2));
    for case in 0..CASES {
        let (a, b) = (int(&mut rng, 127), nonzero(&mut rng, 127));
        let at = format!("CAZ_TEST_SEED={seed} case {case}: a = {a}, b = {b}");
        let (q, r) = big(a).div_rem(&big(b));
        // Truncating division, as `i128`'s (whose one overflow is skipped).
        if let (Some(want_q), Some(want_r)) = (a.checked_div(b), a.checked_rem(b)) {
            assert_eq!((q.clone(), r.clone()), (big(want_q), big(want_r)), "{at}");
        }
        assert_eq!(&(&q * &big(b)) + &r, big(a), "{at}");
        assert!(r.abs() < big(b).abs(), "{at}");
    }
}

#[test]
fn gcd_divides_both_and_is_positive() {
    let (seed, mut rng) = (seed(), stream(3));
    for case in 0..CASES {
        let (a, b) = (int(&mut rng, 63), int(&mut rng, 63));
        let at = format!("CAZ_TEST_SEED={seed} case {case}: a = {a}, b = {b}");
        let g = big(a).gcd(&big(b));
        if a == 0 && b == 0 {
            assert!(g.is_zero(), "{at}");
            continue;
        }
        assert!(g.is_positive(), "{at}");
        assert!((&big(a) % &g).is_zero() && (&big(b) % &g).is_zero(), "{at}");
        // The greatest: the cofactors share no factor.
        let (ca, cb) = (&big(a) / &g, &big(b) / &g);
        assert_eq!(ca.gcd(&cb), BigInt::one(), "{at}");
    }
}

#[test]
fn strings_order_and_i128_round_trip() {
    let (seed, mut rng) = (seed(), stream(4));
    for case in 0..CASES {
        let (a, b) = (int(&mut rng, 127), int(&mut rng, 127));
        let at = format!("CAZ_TEST_SEED={seed} case {case}: a = {a}, b = {b}");
        let x = big(a);
        assert_eq!(x.to_string(), a.to_string(), "{at}");
        assert_eq!(x.to_string().parse::<BigInt>().unwrap(), x, "{at}");
        assert_eq!(x.to_i128(), Some(a), "{at}");
        assert_eq!(x.cmp(&big(b)), a.cmp(&b), "{at}");
    }
}

#[test]
fn shifts_scale_by_powers_of_two_and_round_trip() {
    let (seed, mut rng) = (seed(), stream(5));
    let two = BigInt::from(2u64);
    for case in 0..CASES {
        let (a, n) = (int(&mut rng, 127), rng.random_range(0..200usize));
        let at = format!("CAZ_TEST_SEED={seed} case {case}: a = {a}, n = {n}");
        let shifted = big(a).shl(n);
        assert_eq!(shifted, &big(a) * &two.pow(n as u32), "{at}");
        assert_eq!(shifted.shr(n), big(a), "{at}");
    }
}

/// A fraction `p/q` with `q` in `1..10_000`.
fn ratio(rng: &mut StdRng) -> (i128, i128) {
    (int(rng, 63), rng.random_range(1..10_000i64).into())
}

#[test]
fn ratio_field_axioms() {
    let (seed, mut rng) = (seed(), stream(6));
    for case in 0..CASES {
        let [(p1, q1), (p2, q2), (p3, q3)] = [ratio(&mut rng), ratio(&mut rng), ratio(&mut rng)];
        let at = format!("CAZ_TEST_SEED={seed} case {case}: {p1}/{q1}, {p2}/{q2}, {p3}/{q3}");
        let (a, b, c) = (
            Ratio::from_frac(p1, q1),
            Ratio::from_frac(p2, q2),
            Ratio::from_frac(p3, q3),
        );
        assert_eq!(&a + &b, &b + &a, "{at}");
        assert_eq!(&a * &b, &b * &a, "{at}");
        assert_eq!(&(&a + &b) + &c, &a + &(&b + &c), "{at}");
        assert_eq!(&(&a * &b) * &c, &a * &(&b * &c), "{at}");
        assert_eq!(&a * &(&b + &c), &(&a * &b) + &(&a * &c), "{at}");
        assert_eq!(&a - &a, Ratio::zero(), "{at}");
        assert_eq!(&a + &Ratio::zero(), a, "{at}");
        assert_eq!(&a * &Ratio::one(), a, "{at}");
        if !b.is_zero() {
            assert_eq!(&b * &b.recip(), Ratio::one(), "{at}");
            assert_eq!(&(&a / &b) * &b, a, "{at}");
        }
        // The order is the cross-multiplied one (denominators are
        // positive): p1·q2 vs p2·q1 fits in i128 at these sizes.
        assert_eq!(a.cmp(&b), (p1 * q2).cmp(&(p2 * q1)), "{at}");
    }
}

#[test]
fn ratios_are_normalized() {
    let (seed, mut rng) = (seed(), stream(7));
    for case in 0..CASES {
        let (p, q) = (int(&mut rng, 63), nonzero(&mut rng, 63));
        let at = format!("CAZ_TEST_SEED={seed} case {case}: {p}/{q}");
        let r = Ratio::from_frac(p, q);
        assert!(r.denom().is_positive(), "{at}");
        assert_eq!(r.numer().gcd(r.denom()), BigInt::one(), "{at}");
        // Same value: p·den = q·num.
        assert_eq!(&big(p) * r.denom(), &big(q) * r.numer(), "{at}");
    }
}

#[test]
fn poly_products_and_sums_evaluate_pointwise() {
    let (seed, mut rng) = (seed(), stream(8));
    let coeffs = |rng: &mut StdRng| -> Vec<i64> {
        (0..rng.random_range(0..5usize))
            .map(|_| rng.random_range(-20..20i64))
            .collect()
    };
    for case in 0..CASES {
        let (a, b, x) = (
            coeffs(&mut rng),
            coeffs(&mut rng),
            rng.random_range(-50..50i64),
        );
        let at = format!("CAZ_TEST_SEED={seed} case {case}: {a:?} and {b:?} at {x}");
        let pa = Poly::from_coeffs(a.iter().map(|&c| Ratio::from_int(c)).collect());
        let pb = Poly::from_coeffs(b.iter().map(|&c| Ratio::from_int(c)).collect());
        let xi = BigInt::from(x);
        assert_eq!(
            (&pa * &pb).eval_int(&xi),
            &pa.eval_int(&xi) * &pb.eval_int(&xi),
            "{at}"
        );
        assert_eq!(
            (&pa + &pb).eval_int(&xi),
            &pa.eval_int(&xi) + &pb.eval_int(&xi),
            "{at}"
        );
    }
}

/// Injections of `j` blocks into `n` targets, by enumeration: each
/// block in turn takes a target no earlier block holds.
fn injections(j: usize, n: usize) -> i64 {
    fn extend(left: usize, used: &mut [bool]) -> i64 {
        if left == 0 {
            return 1;
        }
        let mut total = 0;
        for t in 0..used.len() {
            if !used[t] {
                used[t] = true;
                total += extend(left - 1, used);
                used[t] = false;
            }
        }
        total
    }
    extend(j, &mut vec![false; n])
}

#[test]
fn falling_factorials_count_injections() {
    let (seed, mut rng) = (seed(), stream(9));
    for case in 0..CASES {
        let (c, j) = (rng.random_range(0..6i64), rng.random_range(0..5usize));
        // The engine's regime: k ≥ c, so k − c named-free values remain.
        let k = c + rng.random_range(0..10i64);
        let at = format!("CAZ_TEST_SEED={seed} case {case}: c = {c}, j = {j}, k = {k}");
        let ff = Poly::falling_factorial(c, j);
        let count = injections(j, (k - c) as usize);
        assert_eq!(
            ff.eval_int(&BigInt::from(k)),
            Ratio::from_int(count),
            "{at}"
        );
    }
}
