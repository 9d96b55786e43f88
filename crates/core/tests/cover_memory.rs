//! Pins the memory property of the blocked cover kernels: verifying
//! Example 8 at `n = 12` and taking its overlap histogram at `n = 10`
//! never build a full-domain `L_n` bitmap, so the process-wide canonical
//! cache stays empty.
//!
//! This lives in its own integration-test binary (own process) because
//! the canonical cache is process-global: any other test that builds
//! `ln_bitmap(n)` in the same process would fill it.

use ucfg_core::cover::{example8_cover, overlap_histogram, verify_cover, CoverReport};
use ucfg_core::words::witness_spectrum;
use ucfg_core::wordset;

#[test]
fn blocked_cover_kernels_leave_the_canonical_cache_empty() {
    assert_eq!(wordset::canonical_cache_len(), 0);

    let report = verify_cover(12, &example8_cover(12));
    assert_eq!(
        report,
        CoverReport {
            size: 12,
            covers_exactly: true,
            disjoint: false,
            all_balanced: true,
            max_overlap: 12,
        }
    );

    // hist[k] = C(n, k) · 3^{n−k} for k ≥ 1: the witness spectrum.
    let n = 10;
    let hist = overlap_histogram(n, &example8_cover(n));
    let spectrum: Vec<usize> = witness_spectrum(n)
        .iter()
        .map(|c| c.to_u64().expect("small") as usize)
        .collect();
    assert_eq!(hist[0], 0, "only L_n members are counted");
    assert_eq!(hist[1..], spectrum[1..]);

    assert_eq!(
        wordset::canonical_cache_len(),
        0,
        "a cover kernel built a full-domain canonical bitmap"
    );
}
