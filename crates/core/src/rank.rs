//! The rank bound (Theorem 17's classical route).
//!
//! Under the fixed `[1, n]` partition, `L_n` is the 1-set of the
//! communication matrix `M[X][Y] = [X ∩ Y ≠ ∅]` (the complement of set
//! disjointness). If `L_n` is a disjoint union of `ℓ` `[1,n]`-rectangles
//! then `M` is a sum of `ℓ` rank-1 0/1 matrices, so `ℓ ≥ rank_F(M)` over
//! *any* field `F` (\[23\]; textbook: \[31, Ch. 2\]). We compute the rank
//! exactly over GF(2) and over a large prime field; both equal `2^n − 1`,
//! certifying an exponential lower bound for the fixed-partition case on
//! concrete instances.

use crate::wordset::chunked;
use crate::wordset::WordSet;
use ucfg_support::{obs, par};

/// Row `X` of the GF(2) communication matrix as a bitset of width
/// `width = ⌈2^n / 64⌉` words: bit `Y` is set iff `X ∩ Y ≠ ∅`. Built
/// output-sensitively — start from the all-ones row and clear the
/// `2^{n−|X|}` subsets of `~X` by the standard descending subset walk
/// (`s−1 & m`), including the empty set, for `Σ_X 2^{n−|X|} = 3^n` total
/// work instead of the `O(4^n)` bit-by-bit scan.
fn gf2_row(x: u64, size: usize, width: usize) -> Vec<u64> {
    let mut row = vec![u64::MAX; width];
    if !size.is_multiple_of(64) {
        row[width - 1] = (1u64 << (size % 64)) - 1;
    }
    let m = !x & (size as u64 - 1);
    let mut s = m;
    loop {
        row[(s / 64) as usize] &= !(1u64 << (s % 64));
        if s == 0 {
            break;
        }
        s = (s - 1) & m;
    }
    row
}

/// Rank of the `L_n` communication matrix over GF(2), by bitset Gaussian
/// elimination. `n ≤ 13` (matrix is `2^n × 2^n`).
///
/// Row `X` has zeros exactly at the subsets of `~X` (the `Y` with
/// `X ∩ Y = ∅`), so the build starts from the all-ones row and clears
/// those `2^{n−|X|}` bits by direct subset enumeration — `Σ_X 2^{n−|X|} =
/// 3^n` work instead of the `O(4^n)` bit-by-bit scan kept as
/// [`rank_gf2_scalar`].
///
/// The row construction runs on [`ucfg_support::par`] workers
/// (`UCFG_THREADS` override); rows are emitted in row order, so the rank
/// (and the eliminated matrix) is bit-identical to the serial build for
/// every thread count. The elimination itself is sequential.
pub fn rank_gf2(n: usize) -> usize {
    rank_gf2_threads(n, par::thread_count())
}

/// [`rank_gf2`] with an explicit worker count (`threads = 1` is the serial
/// reference path).
pub fn rank_gf2_threads(n: usize, threads: usize) -> usize {
    assert!(n <= 13, "matrix is 2^n × 2^n");
    obs::count!("rank.gf2.calls");
    obs::count!("rank.gf2.rows", 1u64 << n);
    let _t = obs::span!("rank.gf2");
    let size = 1usize << n;
    let width = size.div_ceil(64);
    let mut rows: Vec<Vec<u64>> = par::map_ranges_threads(0..size as u64, threads, |range| {
        range.map(|x| gf2_row(x, size, width)).collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    gf2_rank_of_rows(&mut rows)
}

/// A streamed census of the `L_n` communication matrix: the matrix is
/// flattened row-major into `4^n` bits (bit `k` is set iff
/// `(k >> n) ∩ (k mod 2^n) ≠ ∅`), the same shape the GF(2) row build
/// materialises, and folded block by block over
/// [`chunked::block_plan`], so no more than a block per worker is ever
/// held and the census runs at `n = 16`–`18`, where the dense matrix
/// cannot be. The digest uses the [`chunked::set_digest`] scheme, so it
/// is bit-identical across thread counts and block sizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RankMatrixScan {
    /// Number of matrix rows, `2^n`.
    pub rows: u64,
    /// Number of ones `|{(X, Y) : X ∩ Y ≠ ∅}| = 4^n − 3^n`.
    pub ones: u64,
    /// Order-invariant digest of the flattened matrix.
    pub digest: u64,
}

/// [`rank_matrix_scan_threads`] at the ambient worker count.
pub fn rank_matrix_scan(n: usize) -> RankMatrixScan {
    rank_matrix_scan_threads(n, par::thread_count())
}

/// The streamed [`RankMatrixScan`] with an explicit worker count
/// (`threads = 1` is the serial reference path; results are
/// bit-identical for every thread count and block size).
pub fn rank_matrix_scan_threads(n: usize, threads: usize) -> RankMatrixScan {
    obs::count!("rank.matrix_scan.calls");
    let _t = obs::span!("rank.matrix_scan");
    let mask = (1u64 << n) - 1;
    let plan = chunked::block_plan(chunked::logical_word_domain(n));
    obs::count!("rank.matrix_scan.blocks", plan.num_chunks() as u64);
    let (ones, digest) = plan
        .run(threads, |base, len| {
            let slab = WordSet::from_pred_threads(len, 1, |k| {
                let k = base + k;
                (k >> n) & (k & mask) != 0
            });
            (slab.count(), chunked::digest_words(base, slab.blocks()))
        })
        .into_iter()
        .fold((0u64, 0u64), |(c, d), (cc, cd)| (c + cc, d ^ cd));
    RankMatrixScan {
        rows: 1u64 << n,
        ones,
        digest,
    }
}

/// The scalar reference for [`rank_gf2`]: the `O(4^n)` bit-by-bit row
/// build (every `(X, Y)` pair probed).
pub fn rank_gf2_scalar(n: usize) -> usize {
    rank_gf2_scalar_threads(n, par::thread_count())
}

/// [`rank_gf2_scalar`] with an explicit worker count; rows are emitted in
/// row order, so the result is bit-identical for every thread count.
pub fn rank_gf2_scalar_threads(n: usize, threads: usize) -> usize {
    assert!(n <= 13, "matrix is 2^n × 2^n");
    let size = 1usize << n;
    let width = size.div_ceil(64);
    // Row X: bits Y with X∩Y ≠ ∅.
    let mut rows: Vec<Vec<u64>> = par::map_ranges_threads(0..size as u64, threads, |range| {
        range
            .map(|x| {
                let mut row = vec![0u64; width];
                for y in 0..size as u64 {
                    if x & y != 0 {
                        row[(y / 64) as usize] |= 1u64 << (y % 64);
                    }
                }
                row
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    gf2_rank_of_rows(&mut rows)
}

/// GF(2) rank of arbitrary bitset rows (each row a `Vec<u64>` of equal
/// width).
pub fn gf2_rank_of_rows(rows: &mut [Vec<u64>]) -> usize {
    let width = rows.first().map_or(0, Vec::len);
    let mut rank = 0usize;
    let mut pivot_row = 0usize;
    for col in 0..width * 64 {
        let (w, b) = (col / 64, col % 64);
        // Find a row with a 1 in this column.
        let Some(found) = (pivot_row..rows.len()).find(|&r| rows[r][w] >> b & 1 == 1) else {
            continue;
        };
        rows.swap(pivot_row, found);
        let pivot = rows[pivot_row].clone();
        for (r, row) in rows.iter_mut().enumerate() {
            if r != pivot_row && row[w] >> b & 1 == 1 {
                ucfg_support::simd::xor_assign(row, &pivot);
            }
        }
        pivot_row += 1;
        rank += 1;
    }
    rank
}

/// Rank of the `L_n` communication matrix over GF(p) with
/// `p = 2^{61} − 1`. Since `rank_{GF(p)}(M) ≤ rank_ℚ(M)` and both are
/// rectangle-count lower bounds, this is a valid certificate.
/// O(2^{3n}) — keep `n ≤ 9` outside benches. Row construction is
/// parallel (`UCFG_THREADS`); the elimination is sequential.
pub fn rank_mod_p(n: usize) -> usize {
    rank_mod_p_threads(n, par::thread_count())
}

/// [`rank_mod_p`] with an explicit worker count (`threads = 1` is the
/// serial reference path).
pub fn rank_mod_p_threads(n: usize, threads: usize) -> usize {
    assert!(n <= 11, "O(2^(3n)) elimination");
    obs::count!("rank.mod_p.calls");
    let _t = obs::span!("rank.mod_p");
    const P: u128 = (1u128 << 61) - 1;
    let size = 1usize << n;
    let mut rows: Vec<Vec<u64>> = par::map_ranges_threads(0..size as u64, threads, |range| {
        range
            .map(|x| (0..size as u64).map(|y| u64::from(x & y != 0)).collect())
            .collect::<Vec<Vec<u64>>>()
    })
    .into_iter()
    .flatten()
    .collect();
    let mut rank = 0usize;
    let mut pivot_row = 0usize;
    for col in 0..size {
        let Some(found) = (pivot_row..size).find(|&r| rows[r][col] != 0) else {
            continue;
        };
        rows.swap(pivot_row, found);
        // Normalise pivot row.
        let inv = mod_inv(rows[pivot_row][col] as u128, P);
        for cell in rows[pivot_row].iter_mut() {
            *cell = ((*cell as u128 * inv) % P) as u64;
        }
        let pivot = rows[pivot_row].clone();
        for (r, row) in rows.iter_mut().enumerate() {
            if r != pivot_row && row[col] != 0 {
                let factor = row[col] as u128;
                for (cell, &p) in row.iter_mut().zip(&pivot) {
                    let sub = (factor * p as u128) % P;
                    let cur = *cell as u128;
                    *cell = ((cur + P - sub) % P) as u64;
                }
            }
        }
        pivot_row += 1;
        rank += 1;
    }
    rank
}

fn mod_inv(a: u128, p: u128) -> u128 {
    // Fermat: a^{p-2} mod p.
    mod_pow(a % p, p - 2, p)
}

fn mod_pow(mut base: u128, mut exp: u128, p: u128) -> u128 {
    let mut acc: u128 = 1;
    base %= p;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * base % p;
        }
        base = base * base % p;
        exp >>= 1;
    }
    acc
}

/// The rank-bound statement: any disjoint cover of `L_n` by
/// `[1,n]`-rectangles has at least this many rectangles (the max of the two
/// field ranks we compute).
pub fn rank_lower_bound(n: usize) -> usize {
    rank_gf2(n).max(if n <= 9 { rank_mod_p(n) } else { 0 })
}

/// GF(2) rank of the `L_n` communication matrix under an **arbitrary**
/// ordered partition `(Π₀, Π₁)`: rows are subsets of `Π₀`, columns subsets
/// of `Π₁`, `M[u][v] = [u ∪ v ∈ L_n]`. A disjoint cover of `L_n` by
/// rectangles over this partition needs ≥ this many rectangles — the
/// per-partition certificate behind the multi-partition discussion (T19).
pub fn rank_for_partition(n: usize, part: crate::partition::OrderedPartition) -> usize {
    rank_for_partition_threads(n, part, par::thread_count())
}

/// [`rank_for_partition`] with an explicit worker count (`threads = 1` is
/// the serial reference path). Row construction is parallel; elimination
/// is sequential.
pub fn rank_for_partition_threads(
    n: usize,
    part: crate::partition::OrderedPartition,
    threads: usize,
) -> usize {
    let ins = part.inside();
    let outs = part.outside();
    let in_bits: Vec<u32> = (0..64).filter(|&b| ins >> b & 1 == 1).collect();
    let out_bits: Vec<u32> = (0..64).filter(|&b| outs >> b & 1 == 1).collect();
    assert!(
        in_bits.len() <= 14 && out_bits.len() <= 20,
        "matrix too large"
    );
    let rows = 1usize << in_bits.len();
    let cols = 1usize << out_bits.len();
    let width = cols.div_ceil(64);
    let expand = |mask: usize, bits: &[u32]| -> u64 {
        bits.iter()
            .enumerate()
            .filter(|&(i, _)| mask >> i & 1 == 1)
            .map(|(_, &b)| 1u64 << b)
            .sum()
    };
    let mut m: Vec<Vec<u64>> = par::map_ranges_threads(0..rows as u64, threads, |range| {
        range
            .map(|u| {
                let uu = expand(u as usize, &in_bits);
                let mut row = vec![0u64; width];
                for v in 0..cols {
                    let vv = expand(v, &out_bits);
                    if crate::words::ln_contains(n, uu | vv) {
                        row[v / 64] |= 1u64 << (v % 64);
                    }
                }
                row
            })
            .collect::<Vec<_>>()
    })
    .into_iter()
    .flatten()
    .collect();
    gf2_rank_of_rows(&mut m)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_are_2n_minus_1() {
        for n in 1..=7 {
            assert_eq!(rank_gf2(n), (1 << n) - 1, "GF(2), n={n}");
            assert_eq!(rank_mod_p(n), (1 << n) - 1, "GF(p), n={n}");
        }
    }

    #[test]
    fn subset_enumeration_build_matches_scalar() {
        // The output-sensitive row build must produce the same rank as the
        // bit-by-bit reference — across word-boundary sizes (n = 6 is the
        // first width-1 full word, n = 7 spans two words).
        for n in 1..=8 {
            assert_eq!(rank_gf2(n), rank_gf2_scalar(n), "n={n}");
        }
        for threads in [1usize, 2, 8] {
            assert_eq!(
                rank_gf2_threads(8, threads),
                rank_gf2_scalar_threads(8, threads),
                "threads={threads}"
            );
        }
    }

    #[test]
    fn matrix_scan_census_is_exact() {
        // ones = #{(X,Y) : X∩Y ≠ ∅} = 4^n − 3^n, and the scan is
        // bit-identical across thread counts.
        for n in [1usize, 4, 6, 8, 10] {
            let scan = rank_matrix_scan_threads(n, 1);
            assert_eq!(scan.rows, 1u64 << n, "n={n}");
            assert_eq!(scan.ones, 4u64.pow(n as u32) - 3u64.pow(n as u32), "n={n}");
            for threads in [2usize, 8] {
                assert_eq!(scan, rank_matrix_scan_threads(n, threads), "n={n}");
            }
        }
    }

    #[test]
    fn matrix_scan_digest_matches_the_row_build() {
        // At n ≥ 6 each GF(2) row occupies whole 64-bit words, so the
        // flattened-matrix digest must equal the XOR of per-row digests of
        // the very rows the elimination consumes — a reference that does
        // not depend on the block size. n = 9 fills one default 2^18-bit
        // block exactly; n = 10 spans four.
        for n in [6usize, 7, 8, 9, 10] {
            let size = 1usize << n;
            let width = size.div_ceil(64);
            let from_rows = (0..size as u64)
                .map(|x| chunked::digest_words(x << n, &gf2_row(x, size, width)))
                .fold(0u64, |d, rd| d ^ rd);
            assert_eq!(rank_matrix_scan_threads(n, 1).digest, from_rows, "n={n}");
        }
    }

    #[test]
    fn rank_lower_bound_is_exponential() {
        assert_eq!(rank_lower_bound(6), 63);
        assert_eq!(rank_lower_bound(8), 255);
    }

    #[test]
    fn gf2_rank_of_simple_matrices() {
        // Identity 3x3.
        let mut rows = vec![vec![0b001u64], vec![0b010], vec![0b100]];
        assert_eq!(gf2_rank_of_rows(&mut rows), 3);
        // Dependent rows.
        let mut rows = vec![vec![0b011u64], vec![0b101], vec![0b110]];
        assert_eq!(gf2_rank_of_rows(&mut rows), 2); // r3 = r1 ⊕ r2
                                                    // Zero matrix.
        let mut rows = vec![vec![0u64]; 4];
        assert_eq!(gf2_rank_of_rows(&mut rows), 0);
    }

    #[test]
    fn parallel_ranks_are_bit_identical() {
        for n in [4usize, 7, 9] {
            let gf2_serial = rank_gf2_threads(n, 1);
            for threads in [2usize, 8] {
                assert_eq!(gf2_serial, rank_gf2_threads(n, threads), "gf2 n={n}");
            }
            assert_eq!(gf2_serial, rank_gf2(n), "gf2 n={n} default");
        }
        for n in [4usize, 6] {
            let p_serial = rank_mod_p_threads(n, 1);
            for threads in [2usize, 8] {
                assert_eq!(p_serial, rank_mod_p_threads(n, threads), "mod_p n={n}");
            }
        }
        use crate::partition::OrderedPartition;
        let part = OrderedPartition::new(4, 2, 5);
        let serial = rank_for_partition_threads(4, part, 1);
        for threads in [2usize, 8] {
            assert_eq!(serial, rank_for_partition_threads(4, part, threads));
        }
    }

    #[test]
    fn mod_pow_and_inv() {
        const P: u128 = (1u128 << 61) - 1;
        assert_eq!(mod_pow(2, 10, P), 1024);
        let inv7 = mod_inv(7, P);
        assert_eq!(7 * inv7 % P, 1);
    }

    #[test]
    fn rank_for_partition_generalises_middle_cut() {
        use crate::partition::OrderedPartition;
        for n in [2usize, 3, 4] {
            let mid = OrderedPartition::new(n, 1, n);
            assert_eq!(rank_for_partition(n, mid), rank_gf2(n), "n={n}");
        }
    }

    #[test]
    fn shifted_partitions_have_lower_rank() {
        use crate::partition::OrderedPartition;
        // Partitions that keep pairs together lose rank: in the extreme,
        // if every pair is on one side the matrix has rank O(1) per trace.
        let n = 4;
        let mid = rank_for_partition(n, OrderedPartition::new(n, 1, n));
        let shifted = rank_for_partition(n, OrderedPartition::new(n, 3, 6));
        assert!(shifted <= mid, "shifted {shifted} vs middle {mid}");
        assert!(shifted >= 1);
    }

    #[test]
    fn example8_cover_size_vs_rank_bound() {
        // Example 8 gives a NON-disjoint cover of size n; the disjoint rank
        // bound 2^n − 1 is exponentially larger — exactly the paper's
        // point that disjointness is expensive.
        for n in [4usize, 6] {
            assert!(rank_lower_bound(n) > n);
        }
    }
}
