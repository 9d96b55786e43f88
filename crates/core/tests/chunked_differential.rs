//! Differential suite for the chunked wordset algebra: every blocked or
//! streamed kernel must agree **exactly** — counts, digests, verdicts,
//! signed sums — with a reference, across chunk sizes and worker counts,
//! on exhaustive small-`n` domains and random rectangle families.
//!
//! The word-domain cover scan and histogram have one implementation, the
//! blocked scan, so their reference is scalar: [`verify_cover_scalar`] and
//! [`overlap_histogram_scalar`] for the report and the histogram, and
//! per-word [`SetRectangle::contains`] / [`ln_contains`] probes for the
//! union and `L_n` counts and digests. The streamed family-domain
//! discrepancy, which runs past the cap only, is compared here with the
//! in-memory route at every `n` where both can run; `wordset_kernels.rs`
//! pins that route to its `*_scalar` reference.
//!
//! Chunk plans are passed explicitly ([`ChunkPlan::with_chunk_bits`]), so
//! nothing here touches the `UCFG_WORDSET_CHUNK` environment variable and
//! the suite is safe under the parallel test runner.

use std::collections::BTreeSet;

use ucfg_core::cover::{
    cover_scan_threads, example8_cover, overlap_histogram_scalar, overlap_histogram_threads,
    verify_cover_scalar_threads, verify_cover_threads,
};
use ucfg_core::discrepancy::{
    discrepancy_threads, family_accounting, family_size, full_family_rectangle,
    random_family_rectangle, supports_blocks,
};
use ucfg_core::partition::OrderedPartition;
use ucfg_core::rectangle::SetRectangle;
use ucfg_core::words::{ln_contains, ln_size};
use ucfg_core::wordset::chunked::{
    cover_scan_chunked_threads, discrepancy_chunked_threads, logical_family_domain,
    logical_word_domain, overlap_histogram_chunked_threads, set_digest, ChunkPlan, CoverScan,
};
use ucfg_core::wordset::{family_rectangle_bitmap_threads, WordSet};
use ucfg_support::prop::Gen;
use ucfg_support::rng::{Rng, SeedableRng, StdRng};
use ucfg_support::{prop_assert_eq, property};

/// Worker counts every chunked kernel is pinned across.
const THREADS: [usize; 3] = [1, 2, 8];

/// Chunk sizes (bits) for the word-domain matrix: deliberately tiny so
/// even `n = 4` (256-bit domain) splits into many chunks.
const WORD_CHUNKS: [u64; 3] = [1 << 10, 1 << 16, 1 << 20];

/// Block sizes for the straddling-members property: the smallest legal
/// block, two of the matrix sizes, and the default cover block.
const STRADDLE_BLOCKS: [u64; 4] = [64, 1 << 10, 1 << 16, 1 << 18];

/// Worker count of the scalar reference passes (themselves pinned
/// across worker counts by the unit tests).
const REFERENCE_THREADS: usize = 8;

fn random_partition(n: usize, rng: &mut StdRng) -> OrderedPartition {
    let i = rng.random_range(1..=n);
    let j = rng.random_range(i..=2 * n - 1);
    OrderedPartition::new(n, i, j)
}

fn random_rect_family(n: usize, rng: &mut StdRng) -> Vec<SetRectangle> {
    let mut rects = Vec::new();
    if rng.random_range(0..2u8) == 0 {
        rects.extend(example8_cover(n));
    }
    if supports_blocks(n) {
        for _ in 0..rng.random_range(0..3usize) {
            let part = random_partition(n, rng);
            rects.push(random_family_rectangle(n, part, rng));
        }
    }
    rects
}

/// A random rectangle over a random partition whose sides straddle the
/// boundaries of every block size in [`STRADDLE_BLOCKS`]: besides random
/// subsets of each side's positions, each side holds the last member
/// below and the first member at or above every block boundary `2^b`
/// (projected onto the side), so products land on both sides of it.
fn straddling_rectangle(n: usize, rng: &mut StdRng) -> SetRectangle {
    let part = random_partition(n, rng);
    let side = |mask: u64, rng: &mut StdRng| -> BTreeSet<u64> {
        let mut members: BTreeSet<u64> = (0..rng.random_range(0..12usize))
            .map(|_| rng.random_range(0..1u64 << (2 * n)) & mask)
            .collect();
        for b in STRADDLE_BLOCKS.map(u64::trailing_zeros) {
            if b < 2 * n as u32 {
                members.insert(((1u64 << b) - 1) & mask);
                members.insert((1u64 << b) & mask);
            }
        }
        members
    };
    let s = side(part.inside(), rng);
    let t = side(part.outside(), rng);
    SetRectangle::new(part, s, t)
}

/// The scalar reference of a cover scan: the report facts from
/// [`verify_cover_scalar_threads`], the union and `L_n` counts and
/// digests from per-word probes.
fn reference_scan(n: usize, rects: &[SetRectangle]) -> CoverScan {
    let report = verify_cover_scalar_threads(n, rects, REFERENCE_THREADS);
    let domain = logical_word_domain(n);
    let union = WordSet::from_pred_threads(domain, REFERENCE_THREADS, |w| {
        rects.iter().any(|r| r.contains(w))
    });
    let ln = ln_by_probes(n);
    CoverScan {
        size: report.size,
        covers_exactly: report.covers_exactly,
        all_balanced: report.all_balanced,
        max_overlap: report.max_overlap,
        union_count: union.count(),
        union_digest: set_digest(&union),
        ln_count: ln.count(),
        ln_digest: set_digest(&ln),
    }
}

/// `L_n` built by one [`ln_contains`] probe per word.
fn ln_by_probes(n: usize) -> WordSet {
    WordSet::from_pred_threads(logical_word_domain(n), REFERENCE_THREADS, |w| {
        ln_contains(n, w)
    })
}

/// The Example 8 scan as the paper states it, for `n` where the
/// per-word rectangle probes are too slow: the `n` rectangles cover
/// `L_n` exactly, the all-`a` word lies in all of them, and the union
/// and `L_n` counts and digests come from [`ln_contains`] probes.
fn example8_reference(n: usize) -> CoverScan {
    let ln = ln_by_probes(n);
    assert_eq!(Some(ln.count()), ln_size(n).to_u64(), "|L_n| = 4^n − 3^n");
    CoverScan {
        size: n,
        covers_exactly: true,
        all_balanced: true,
        max_overlap: n,
        union_count: ln.count(),
        union_digest: set_digest(&ln),
        ln_count: ln.count(),
        ln_digest: set_digest(&ln),
    }
}

/// Compare the blocked cover kernels for one `(n, rects)` input with the
/// scalar references, across the given chunk sizes and all of
/// [`THREADS`]; the default-plan entry points must agree too.
fn assert_cover_kernels_agree(n: usize, rects: &[SetRectangle], chunks: &[u64]) {
    let reference = reference_scan(n, rects);
    let hist_reference = overlap_histogram_scalar(n, rects);
    assert_eq!(
        reference,
        cover_scan_threads(n, rects, 2),
        "default plan: n={n}"
    );
    assert_eq!(
        reference.into_report(),
        verify_cover_threads(n, rects, 2),
        "verify_cover: n={n}"
    );
    assert_eq!(
        hist_reference,
        overlap_histogram_threads(n, rects, 2),
        "default histogram: n={n}"
    );
    for &chunk in chunks {
        let plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), chunk);
        for t in THREADS {
            assert_eq!(
                reference,
                cover_scan_chunked_threads(n, rects, t, &plan),
                "cover scan: n={n} chunk={chunk} threads={t}"
            );
            assert_eq!(
                hist_reference,
                overlap_histogram_chunked_threads(n, rects, t, &plan),
                "histogram: n={n} chunk={chunk} threads={t}"
            );
        }
    }
}

#[test]
fn cover_kernels_exhaustive_small_n() {
    for n in [2usize, 4, 6, 8] {
        assert_cover_kernels_agree(n, &example8_cover(n), &WORD_CHUNKS);
        // The empty family must also stream cleanly (union empty,
        // covers_exactly false, histogram all-in-bucket-0).
        assert_cover_kernels_agree(n, &[], &WORD_CHUNKS);
    }
}

#[test]
fn cover_kernels_at_larger_n() {
    // 4^10 = 2^20 and 4^12 = 2^24 logical bits: many chunks at 2^16 /
    // 2^20. The per-word rectangle probes take minutes at n = 12 in a
    // debug build, so that size is checked against Example 8's stated
    // facts (the full scalar comparison runs in the ignored matrix).
    assert_cover_kernels_agree(10, &example8_cover(10), &[1 << 16]);
    let n = 12;
    let reference = example8_reference(n);
    assert_eq!(reference, cover_scan_threads(n, &example8_cover(n), 8));
    let plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), 1 << 20);
    for t in [1usize, 8] {
        assert_eq!(
            reference,
            cover_scan_chunked_threads(n, &example8_cover(n), t, &plan),
            "n={n} threads={t}"
        );
    }
}

#[test]
fn family_kernels_chunked_equals_in_memory() {
    for n in [4usize, 8, 12] {
        let mut rng = StdRng::seed_from_u64(0xD1FF ^ n as u64);
        let mut rects = vec![
            full_family_rectangle(n),
            SetRectangle::new(
                OrderedPartition::new(n, 1, n),
                BTreeSet::new(),
                BTreeSet::new(),
            ),
        ];
        for _ in 0..4 {
            let part = random_partition(n, &mut rng);
            rects.push(random_family_rectangle(n, part, &mut rng));
        }
        for r in &rects {
            let d_ref = discrepancy_threads(n, r, 1);
            for chunk in [64u64, 256, 1 << 10] {
                let plan = ChunkPlan::with_chunk_bits(logical_family_domain(n), chunk);
                for t in THREADS {
                    assert_eq!(
                        d_ref,
                        discrepancy_chunked_threads(n, r, t, &plan),
                        "discrepancy: n={n} chunk={chunk} threads={t}"
                    );
                }
            }
        }
    }
}

#[test]
fn bignum_accounting_matches_the_kernels() {
    // The closed-form BigInt ledger must agree with what the streamed
    // kernels measure wherever both can run.
    for n in [4usize, 8, 12] {
        let m = (n / 4) as u64;
        let acc = family_accounting(m);
        let full = full_family_rectangle(n);
        let plan = ChunkPlan::with_chunk_bits(logical_family_domain(n), 64);
        assert_eq!(
            Some(i128::from(discrepancy_chunked_threads(n, &full, 8, &plan))),
            acc.full_family_discrepancy.to_i128(),
            "n={n}: full-family discrepancy is −2^{{3m}} exactly"
        );
        let count = family_rectangle_bitmap_threads(n, &full, 8).count();
        assert_eq!(Some(count), acc.family_size.to_u64(), "n={n}");
        assert_eq!(acc.family_size, family_size(m));
    }
    // Past every enumeration/materialisation cap the ledger still knows
    // the answer: the full-family discrepancy at n = 32 (m = 8) and far
    // beyond, exact where i64 kernels could never go.
    for m in [8u64, 16, 40] {
        let acc = family_accounting(m);
        assert!(acc.full_family_discrepancy.is_negative());
        assert_eq!(acc.full_family_discrepancy.magnitude(), &acc.lemma19_bound);
        assert!(acc.lemma18_holds, "m={m}");
    }
}

property! {
    cases = 16;
    fn cover_scan_matches_scalar_on_random_families(
        n in |g: &mut Gen| g.int_in(3usize..=8),
        chunk in |g: &mut Gen| *g.choice(&WORD_CHUNKS),
        seed in |g: &mut Gen| g.int_in(0u64..1 << 48),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rects = random_rect_family(n, &mut rng);
        let reference = reference_scan(n, &rects);
        let plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), chunk);
        for t in THREADS {
            prop_assert_eq!(reference, cover_scan_chunked_threads(n, &rects, t, &plan));
        }
    }

    cases = 12;
    fn cover_kernels_match_scalar_on_block_straddling_rectangles(
        n in |g: &mut Gen| g.int_in(4usize..=9),
        len in |g: &mut Gen| g.int_in(1usize..=4),
        seed in |g: &mut Gen| g.int_in(0u64..1 << 48),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let rects: Vec<SetRectangle> =
            (0..len).map(|_| straddling_rectangle(n, &mut rng)).collect();
        let reference = reference_scan(n, &rects);
        let hist_reference = overlap_histogram_scalar(n, &rects);
        for block in STRADDLE_BLOCKS {
            let plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), block);
            for t in THREADS {
                prop_assert_eq!(reference, cover_scan_chunked_threads(n, &rects, t, &plan));
                prop_assert_eq!(
                    hist_reference.clone(),
                    overlap_histogram_chunked_threads(n, &rects, t, &plan)
                );
            }
        }
    }

    cases = 16;
    fn chunked_family_kernels_match_in_memory_on_random_rectangles(
        k in |g: &mut Gen| g.int_in(1usize..=2),
        chunk in |g: &mut Gen| *g.choice(&[64u64, 256, 1 << 10]),
        seed in |g: &mut Gen| g.int_in(0u64..1 << 48),
    ) {
        let n = 4 * k;
        let mut rng = StdRng::seed_from_u64(seed);
        let part = random_partition(n, &mut rng);
        let r = random_family_rectangle(n, part, &mut rng);
        let plan = ChunkPlan::with_chunk_bits(logical_family_domain(n), chunk);
        let d_ref = discrepancy_threads(n, &r, 1);
        for t in THREADS {
            prop_assert_eq!(d_ref, discrepancy_chunked_threads(n, &r, t, &plan));
        }
    }
}

/// The acceptance matrix: every `n ≤ 15` word domain, blocked scans at
/// several block sizes against the scalar reference up to `n = 12` and
/// against Example 8's stated facts above it. `2^30` logical bits at the
/// top — run in release (`cargo test --release -- --ignored full_matrix`).
#[test]
#[ignore = "minutes in debug; run with --release -- --ignored"]
fn full_matrix_to_n15_matches_reference() {
    for n in 2usize..=12 {
        assert_cover_kernels_agree(n, &example8_cover(n), &WORD_CHUNKS);
    }
    for n in [13usize, 14, 15] {
        let rects = example8_cover(n);
        let reference = example8_reference(n);
        assert_eq!(reference, cover_scan_threads(n, &rects, 8), "n={n}");
        for chunk in [1 << 20, 1 << 26] {
            let plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), chunk);
            for t in [1usize, 8] {
                assert_eq!(
                    reference,
                    cover_scan_chunked_threads(n, &rects, t, &plan),
                    "n={n} chunk={chunk} threads={t}"
                );
            }
        }
    }
}
