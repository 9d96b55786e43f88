//! Packed binary words and the language `L_n`.
//!
//! Words of length `2n ≤ 64` over `{a, b}` are packed into `u64` bitmasks:
//! bit `i` (0-based) is set iff position `i+1` (1-based, as in the paper)
//! carries an `a`. Under the Section 4.1 set perspective the same mask *is*
//! the pair `(X_w, Y_w)`: the low `n` bits are `X_w ⊆ {x_1..x_n}` and the
//! high `n` bits are `Y_w ⊆ {y_1..y_n}`.
//!
//! `L_n` membership is a two-instruction bit trick:
//! `w ∈ L_n ⇔ (w & (w >> n)) & mask_n ≠ 0`.
//!
//! ```
//! use ucfg_core::words;
//!
//! let n = 3;
//! let w = words::from_string(n, "abbaba").unwrap();
//! assert!(words::ln_contains(n, w));          // pair at positions (1, 4)
//! assert_eq!(words::witness_count(n, w), 1);
//! assert_eq!(words::ln_size(n).to_u64(), Some(37)); // 4³ − 3³
//! assert_eq!(words::ln_iter(n).count(), 37);
//! ```

use ucfg_grammar::bignum::BigUint;
use ucfg_support::par;

/// A word of length `2n` packed as a bitmask (bit i ⇔ position i+1 is `a`).
pub type Word = u64;

/// Maximum supported `n` (words have length `2n` and must fit in 64 bits).
pub const MAX_N: usize = 32;

/// Bitmask with the low `k` bits set.
#[inline]
pub fn low_mask(k: usize) -> u64 {
    debug_assert!(k <= 64);
    if k == 64 {
        u64::MAX
    } else {
        (1u64 << k) - 1
    }
}

/// Is `w` (a word of length `2n`) in `L_n`? True iff some `i ∈ [1, n]` has
/// `a` at positions `i` and `i + n`.
#[inline]
pub fn ln_contains(n: usize, w: Word) -> bool {
    debug_assert!((1..=MAX_N).contains(&n));
    (w & (w >> n)) & low_mask(n) != 0
}

/// `LOW_HITS[m]` has bit `k` set iff `k & m ≠ 0` (`k, m < 64`).
const LOW_HITS: [u64; 64] = {
    let mut table = [0u64; 64];
    let mut m = 0;
    while m < 64 {
        let mut k = 0;
        while k < 64 {
            if k & m != 0 {
                table[m] |= 1 << k;
            }
            k += 1;
        }
        m += 1;
    }
    table
};

/// `L_n` membership of the 64 words `w0, w0 + 1, …, w0 + 63` as one
/// bitmask: bit `k` is `ln_contains(n, w0 + k)`, and bits past the
/// `2^{2n}` domain are clear. `w0` must be a multiple of 64.
///
/// For `n ≥ 6` the 64 words share `Y` and every bit of `X` above the low
/// six, which run through `k` itself. So `X ∩ Y ≠ ∅` either already holds
/// on the shared bits (all 64 words are members) or reduces to
/// `k & (Y & 63) ≠ 0`, one lookup in a 64-entry table. Smaller `n` tests
/// the (at most 1024) words one by one.
#[inline]
pub(crate) fn ln_block(n: usize, w0: Word) -> u64 {
    debug_assert!(w0.is_multiple_of(64), "blocks start at multiples of 64");
    if n >= 6 {
        let y = w0 >> n;
        if w0 & y & low_mask(n) != 0 {
            u64::MAX
        } else {
            LOW_HITS[(y & 63) as usize]
        }
    } else {
        (0..64)
            .filter(|&k| w0 + k < 1 << (2 * n) && ln_contains(n, w0 + k))
            .fold(0, |m, k| m | 1 << k)
    }
}

/// Number of witnessing pairs: `|{i : w_i = w_{i+n} = a}|`.
#[inline]
pub fn witness_count(n: usize, w: Word) -> u32 {
    ((w & (w >> n)) & low_mask(n)).count_ones()
}

/// The `X_w` component (low `n` bits).
#[inline]
pub fn x_part(n: usize, w: Word) -> u64 {
    w & low_mask(n)
}

/// The `Y_w` component, shifted down to `[0, n)` bit positions.
#[inline]
pub fn y_part(n: usize, w: Word) -> u64 {
    (w >> n) & low_mask(n)
}

/// Rebuild a word from its `X` and `Y` components (both in low bits).
#[inline]
pub fn from_parts(n: usize, x: u64, y: u64) -> Word {
    debug_assert_eq!(x & !low_mask(n), 0);
    debug_assert_eq!(y & !low_mask(n), 0);
    x | (y << n)
}

/// Exact size of `L_n`: the `n` pairs `(i, i+n)` are independent, a word
/// avoids `L_n` iff every pair avoids `(a, a)` (3 of 4 choices), so
/// `|L_n| = 4^n − 3^n`.
pub fn ln_size(n: usize) -> BigUint {
    BigUint::small_pow(4, n as u64)
        .checked_sub(&BigUint::small_pow(3, n as u64))
        .expect("4^n > 3^n")
}

/// Enumerate all of `L_n` (2^{2n} scan; for experiment-scale `n`).
///
/// The scan runs on [`ucfg_support::par`] workers (`UCFG_THREADS`
/// override); the result is in ascending mask order and bit-identical to
/// the serial scan for every thread count.
pub fn enumerate_ln(n: usize) -> Vec<Word> {
    enumerate_ln_threads(n, par::thread_count())
}

/// [`enumerate_ln`] with an explicit worker count (`threads = 1` is the
/// serial reference path).
pub fn enumerate_ln_threads(n: usize, threads: usize) -> Vec<Word> {
    assert!(
        2 * n <= 26,
        "enumeration is exponential; use ln_size for large n"
    );
    par::map_ranges_threads(0..(1u64 << (2 * n)), threads, |range| {
        range.filter(|&w| ln_contains(n, w)).collect::<Vec<Word>>()
    })
    .into_iter()
    .flatten()
    .collect()
}

/// Enumerate the complement of `L_n` within `{a,b}^{2n}`.
pub fn enumerate_ln_complement(n: usize) -> Vec<Word> {
    assert!(2 * n <= 26, "enumeration is exponential");
    (0..(1u64 << (2 * n)))
        .filter(|&w| !ln_contains(n, w))
        .collect()
}

/// The witness spectrum: `spectrum[k]` = number of words of `Σ^{2n}` with
/// exactly `k` witnessing pairs. The `n` pairs `(i, i+n)` are independent
/// (they partition the positions), so the count is binomial:
/// `C(n, k) · 3^{n−k}`. This is exactly the overlap histogram of the
/// Example 8 cover (each rectangle `L_n^k` collects one witness).
pub fn witness_spectrum(n: usize) -> Vec<BigUint> {
    let mut binom = BigUint::one();
    let mut out = Vec::with_capacity(n + 1);
    for k in 0..=n as u64 {
        let entry = &binom * &BigUint::small_pow(3, n as u64 - k);
        out.push(entry);
        // binom C(n, k+1) = C(n, k) · (n − k) / (k + 1)
        if k < n as u64 {
            let (q, r) = (&binom * &BigUint::from_u64(n as u64 - k)).div_rem_small(k as u32 + 1);
            debug_assert_eq!(r, 0);
            binom = q;
        }
    }
    out
}

/// Streaming iterator over `L_n` in numeric (mask) order, O(1) memory —
/// for sweeps where materialising `4^n − 3^n` words is wasteful.
pub fn ln_iter(n: usize) -> impl Iterator<Item = Word> {
    assert!(n >= 1 && 2 * n <= 63, "mask iteration domain");
    (0..(1u64 << (2 * n))).filter(move |&w| ln_contains(n, w))
}

/// Streaming iterator over the complement of `L_n` within `Σ^{2n}`.
pub fn ln_complement_iter(n: usize) -> impl Iterator<Item = Word> {
    assert!(n >= 1 && 2 * n <= 63);
    (0..(1u64 << (2 * n))).filter(move |&w| !ln_contains(n, w))
}

/// Render a word as a `String` over `{a, b}`.
pub fn to_string(n: usize, w: Word) -> String {
    (0..2 * n)
        .map(|i| if w >> i & 1 == 1 { 'a' } else { 'b' })
        .collect()
}

/// Parse a word from a `&str` over `{a, b}`; `None` on foreign characters
/// or wrong length.
pub fn from_string(n: usize, s: &str) -> Option<Word> {
    if s.chars().count() != 2 * n {
        return None;
    }
    let mut w = 0u64;
    for (i, c) in s.chars().enumerate() {
        match c {
            'a' => w |= 1u64 << i,
            'b' => {}
            _ => return None,
        }
    }
    Some(w)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_trick_matches_definition() {
        for n in 1..=6 {
            for w in 0..(1u64 << (2 * n)) {
                let naive = (0..n).any(|i| w >> i & 1 == 1 && w >> (i + n) & 1 == 1);
                assert_eq!(ln_contains(n, w), naive, "n={n} w={w:b}");
            }
        }
    }

    #[test]
    fn ln_block_matches_per_word_test() {
        // n = 1…5 take the per-word branch (domains of 4…1024 words,
        // ragged below 64); n = 6…9 the table, exhaustively; n = 20 and
        // n = 32 sample blocks across the full u64 address space.
        let check = |n: usize, w0: u64| {
            let expect = (0..64u64)
                .filter(|&k| (w0 + k) & !low_mask(2 * n) == 0 && ln_contains(n, w0 + k))
                .fold(0u64, |m, k| m | 1 << k);
            assert_eq!(ln_block(n, w0), expect, "n={n} w0={w0:#x}");
        };
        for n in 1..=9usize {
            for w0 in (0..(1u64 << (2 * n))).step_by(64) {
                check(n, w0);
            }
        }
        for n in [20usize, 32] {
            let top = low_mask(2 * n) & !63;
            for i in 0..4096u64 {
                check(n, i.wrapping_mul(0x9E37_79B9_7F4A_7C15) & top);
            }
        }
    }

    #[test]
    fn ln_size_matches_enumeration() {
        for n in 1..=8 {
            let count = enumerate_ln(n).len() as u64;
            assert_eq!(ln_size(n).to_u64(), Some(count), "n={n}");
            assert_eq!(
                enumerate_ln_complement(n).len() as u64,
                (1u64 << (2 * n)) - count
            );
        }
    }

    #[test]
    fn ln_size_closed_form() {
        assert_eq!(ln_size(1).to_u64(), Some(1)); // {aa}
        assert_eq!(ln_size(2).to_u64(), Some(7));
        assert_eq!(ln_size(3).to_u64(), Some(37));
        // Large n goes through BigUint without overflow.
        assert_eq!(ln_size(64), {
            let f = BigUint::small_pow(4, 64);
            f.checked_sub(&BigUint::small_pow(3, 64)).unwrap()
        });
    }

    #[test]
    fn witness_spectrum_closed_form() {
        for n in 1..=6usize {
            let spectrum = witness_spectrum(n);
            assert_eq!(spectrum.len(), n + 1);
            // Exhaustive cross-check.
            let mut counted = vec![0u64; n + 1];
            for w in 0..(1u64 << (2 * n)) {
                counted[witness_count(n, w) as usize] += 1;
            }
            for (k, c) in counted.iter().enumerate() {
                assert_eq!(spectrum[k].to_u64(), Some(*c), "n={n} k={k}");
            }
            // Totals: Σ = 4^n; Σ_{k≥1} = |L_n|.
            let total: BigUint = spectrum.iter().cloned().sum();
            assert_eq!(total, BigUint::small_pow(4, n as u64));
            let in_ln: BigUint = spectrum[1..].iter().cloned().sum();
            assert_eq!(in_ln, ln_size(n));
        }
    }

    #[test]
    fn spectrum_equals_example8_overlap_histogram() {
        // hist[k] of the Example 8 cover = C(n,k)·3^{n−k} for k ≥ 1.
        let n = 4;
        let hist = crate::cover::overlap_histogram(n, &crate::cover::example8_cover(n));
        let spectrum = witness_spectrum(n);
        for (k, s) in spectrum.iter().enumerate().take(n + 1).skip(1) {
            assert_eq!(
                s.to_u64().unwrap() as usize,
                hist.get(k).copied().unwrap_or(0),
                "k={k}"
            );
        }
    }

    #[test]
    fn iterators_match_materialisation() {
        for n in 1..=6 {
            assert!(ln_iter(n).eq(enumerate_ln(n).into_iter()), "n={n}");
            assert!(
                ln_complement_iter(n).eq(enumerate_ln_complement(n).into_iter()),
                "n={n}"
            );
            // The two streams partition the domain.
            assert_eq!(
                ln_iter(n).count() + ln_complement_iter(n).count(),
                1usize << (2 * n)
            );
        }
    }

    #[test]
    fn parallel_enumeration_is_bit_identical() {
        for n in [3usize, 6, 9] {
            let serial = enumerate_ln_threads(n, 1);
            for threads in [2usize, 8] {
                assert_eq!(
                    serial,
                    enumerate_ln_threads(n, threads),
                    "n={n} threads={threads}"
                );
            }
            assert_eq!(serial, enumerate_ln(n), "n={n} default threads");
        }
    }

    #[test]
    fn string_roundtrip() {
        for n in 1..=4 {
            for w in 0..(1u64 << (2 * n)) {
                let s = to_string(n, w);
                assert_eq!(s.len(), 2 * n);
                assert_eq!(from_string(n, &s), Some(w));
            }
        }
        assert_eq!(from_string(2, "abc"), None);
        assert_eq!(from_string(2, "abab!"), None);
        assert_eq!(from_string(2, "aaaaaa"), None); // wrong length
    }

    #[test]
    fn concrete_members() {
        // n = 2: abab has a at positions 1 and 3 → distance 2 ✓.
        assert!(ln_contains(2, from_string(2, "abab").unwrap()));
        assert!(!ln_contains(2, from_string(2, "abba").unwrap()));
        assert!(ln_contains(2, from_string(2, "aaaa").unwrap()));
        assert!(!ln_contains(2, from_string(2, "bbbb").unwrap()));
    }

    #[test]
    fn witness_counts() {
        assert_eq!(witness_count(2, from_string(2, "aaaa").unwrap()), 2);
        assert_eq!(witness_count(2, from_string(2, "abab").unwrap()), 1);
        assert_eq!(witness_count(2, from_string(2, "bbbb").unwrap()), 0);
    }

    #[test]
    fn parts_roundtrip() {
        for n in [1usize, 3, 5] {
            for w in [0u64, 1, (1 << (2 * n)) - 1, 0b1010 & low_mask(2 * n)] {
                assert_eq!(from_parts(n, x_part(n, w), y_part(n, w)), w);
            }
        }
    }

    #[test]
    fn set_perspective_alignment() {
        // x_i ∈ X_w and y_i ∈ Y_w ⇔ the word has the witnessing pair i.
        let n = 3;
        let w = from_string(n, "abbaba").unwrap(); // a at 1, 4, 6 → pairs: (1,4)? positions 1..6; pair i: (i, i+3): i=1: pos1=a, pos4=a ✓
        assert!(ln_contains(n, w));
        assert_eq!(x_part(n, w) & y_part(n, w) & low_mask(n), 0b001);
    }
}
