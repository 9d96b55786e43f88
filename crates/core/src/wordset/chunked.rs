//! Chunked / streamed wordset algebra: blocked scans of logical domains.
//!
//! [`super::WordSet`] hard-caps materialisation at [`MAX_DOMAIN_BITS`]
//! (2^30 bits), which stops exhaustive word-domain kernels near `n = 15`.
//! This module lifts that ceiling *without* raising the cap: a logical
//! domain is split into fixed-size chunks by a [`ChunkPlan`], each chunk
//! is materialised as an ordinary `WordSet`, combined, folded into scalar
//! aggregates, and dropped — through the deterministic [`par`] layer, so
//! no worker ever holds more than a few chunk-sized bitmaps and the full
//! domain is never allocated.
//!
//! Every blocked scan runs over one plan, [`block_plan`]: blocks of
//! [`BLOCK_BITS`] (cache-sized), or of the [`CHUNK_ENV`] size when set,
//! capped at the domain. The word-domain cover scan and overlap histogram
//! ([`cover_scan_chunked_threads`], [`overlap_histogram_chunked_threads`],
//! and through them [`crate::cover`]) build each rectangle's slice by the
//! grouped pair product of [`super::pair_or_bitmap`] over the side
//! members that land in the block, and the `L_n` slice a backing word at
//! a time. The rank census ([`crate::rank::rank_matrix_scan`]) folds the
//! flattened communication matrix block by block. The family-domain
//! discrepancy streams ([`discrepancy_chunked_threads`]) only past the
//! cap, where its in-memory bitmap route cannot run
//! ([`crate::discrepancy::discrepancy_plan`]). Which path a kernel takes
//! depends on `n` alone; the block size never selects one.
//!
//! Chunk boundaries depend only on the plan (never on the thread count)
//! and all per-chunk aggregates merge with order-free operations (sums,
//! maxima, XORs), so every result here is bit-identical across
//! `UCFG_THREADS` *and* across chunk sizes — the invariant the
//! differential suite and the CI chunked-determinism job pin down.
//!
//! Cross-domain comparisons use an order-invariant **digest**
//! ([`set_digest`] / [`digest_words`]): every nonzero 64-bit backing
//! block contributes `FNV1a(global_block_index, block)` and the
//! contributions XOR together. Chunks own whole blocks (chunk sizes are
//! multiples of 64), so the digest of a streamed domain equals the digest
//! of the same domain materialised in one piece — equal sets have equal
//! digests no matter how they were produced.

use super::{ln_slice, pair_or_into, OverlapCounter, WordSet, MAX_DOMAIN_BITS};
use crate::discrepancy::{family_unrank, in_a, supports_blocks};
use crate::rectangle::SetRectangle;
use std::ops::Range;
use ucfg_support::fnv::Fnv1a;
use ucfg_support::{obs, par};

/// Environment variable overriding the block size in **bits** (a power of
/// two ≥ 64) of every blocked scan ([`block_plan`]). It sets the block
/// size only and never selects a path; results are identical at every
/// size, which is what the CI determinism job checks by varying it.
pub const CHUNK_ENV: &str = "UCFG_WORDSET_CHUNK";

/// Default block size: 2^18 bits = 32 KiB per bitmap, so a block's
/// slices (rectangle, overlap-counter layers, `L_n`) stay cache-resident.
pub const BLOCK_BITS: u64 = 1 << 18;

/// Is `bits` a valid chunk size? Power of two so chunk indexing is a
/// shift, ≥ 64 so chunks own whole backing blocks (which is what makes
/// [`set_digest`] chunk-size-invariant), ≤ the cap so every chunk is
/// materialisable.
fn valid_chunk_bits(bits: u64) -> bool {
    bits.is_power_of_two() && (64..=MAX_DOMAIN_BITS).contains(&bits)
}

/// Parse a chunk-size override; `Err` carries the reason.
fn parse_chunk_bits(spec: &str) -> Result<u64, String> {
    let bits: u64 = spec
        .trim()
        .parse()
        .map_err(|_| format!("invalid chunk size '{spec}' (want an integer number of bits)"))?;
    if !valid_chunk_bits(bits) {
        return Err(format!(
            "invalid chunk size {bits}: want a power of two in [64, {MAX_DOMAIN_BITS}]"
        ));
    }
    Ok(bits)
}

/// The [`CHUNK_ENV`] override, parsed: `Ok(None)` when unset, `Err` with
/// the reason when present but malformed.
fn env_chunk_bits() -> Result<Option<u64>, String> {
    match std::env::var(CHUNK_ENV) {
        Ok(spec) => parse_chunk_bits(&spec)
            .map(Some)
            .map_err(|e| format!("{CHUNK_ENV}: {e}")),
        Err(std::env::VarError::NotPresent) => Ok(None),
        Err(std::env::VarError::NotUnicode(_)) => Err(format!("{CHUNK_ENV}: not valid UTF-8")),
    }
}

/// The process-wide block-size override: [`CHUNK_ENV`] when set. A
/// present-but-malformed value panics — a CI job that typos the variable
/// must fail, not silently run at the default size. The binaries reject
/// such a value up front in [`strip_chunk_flags`], so a running command
/// never reaches this panic.
pub fn chunk_override() -> Option<u64> {
    env_chunk_bits().unwrap_or_else(|e| panic!("{e}"))
}

/// Set the block-size override for this process by setting [`CHUNK_ENV`]
/// — the funnel behind the binaries' `--chunk-bits` flag.
pub fn set_chunk_bits(bits: u64) {
    assert!(
        valid_chunk_bits(bits),
        "invalid chunk size {bits}: want a power of two in [64, {MAX_DOMAIN_BITS}]"
    );
    std::env::set_var(CHUNK_ENV, bits.to_string());
}

/// Strip every `--chunk-bits` flag from a binary's argument list,
/// applying the override via [`set_chunk_bits`], and return the remaining
/// arguments. Both `--chunk-bits N` and `--chunk-bits=N` are accepted; a
/// missing or malformed size is a hard error, mirroring
/// [`par::strip_thread_flags`]. An ambient [`CHUNK_ENV`] that no flag
/// replaced is validated here too, so a malformed value fails the
/// command before it runs instead of panicking the first kernel that
/// reads it (in `ucfg serve`, a shard thread).
pub fn strip_chunk_flags(args: &[String]) -> Result<Vec<String>, String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        let spec: Option<&str> = if arg == "--chunk-bits" {
            match iter.next() {
                Some(v) => Some(v.as_str()),
                None => return Err("--chunk-bits requires a size in bits".to_string()),
            }
        } else {
            arg.strip_prefix("--chunk-bits=")
        };
        match spec {
            Some(v) => set_chunk_bits(parse_chunk_bits(v)?),
            None => rest.push(arg.clone()),
        }
    }
    env_chunk_bits()?;
    Ok(rest)
}

/// The logical word-domain size `2^{2n}` **without** the materialisation
/// cap — the address space the chunked kernels stream over. Still guarded
/// against shift overflow: `u64` addressing stops at `2n ≤ 63`.
pub fn logical_word_domain(n: usize) -> u64 {
    assert!(
        2 * n <= 63,
        "word domain 2^{} for n = {n} exceeds u64 addressing (2n ≤ 63)",
        2 * n
    );
    1u64 << (2 * n)
}

/// The logical family-rank domain size `2^n` without the cap (guarded at
/// `n ≤ 63` like [`logical_word_domain`]).
pub fn logical_family_domain(n: usize) -> u64 {
    assert!(
        n <= 63,
        "family domain 2^{n} exceeds u64 addressing (n ≤ 63)"
    );
    1u64 << n
}

/// A fixed split of a logical domain into power-of-two chunks. Chunk
/// boundaries are a pure function of `(domain, chunk_bits)`, so every
/// downstream aggregate is reproducible by construction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkPlan {
    domain: u64,
    chunk_bits: u64,
}

impl ChunkPlan {
    /// Builder: a plan with an explicit chunk size (power of two in
    /// `[64, MAX_DOMAIN_BITS]`).
    pub fn with_chunk_bits(domain: u64, chunk_bits: u64) -> ChunkPlan {
        assert!(
            valid_chunk_bits(chunk_bits),
            "invalid chunk size {chunk_bits}: want a power of two in [64, {MAX_DOMAIN_BITS}]"
        );
        ChunkPlan { domain, chunk_bits }
    }

    /// The logical domain this plan streams over.
    pub fn domain(&self) -> u64 {
        self.domain
    }

    /// Bits per chunk (the last chunk may be shorter when the domain is
    /// not a multiple — power-of-two domains always split evenly).
    pub fn chunk_bits(&self) -> u64 {
        self.chunk_bits
    }

    /// Number of chunks.
    pub fn num_chunks(&self) -> usize {
        self.domain.div_ceil(self.chunk_bits).max(1) as usize
    }

    /// The half-open element range of chunk `ci`.
    pub fn chunk_range(&self, ci: usize) -> Range<u64> {
        let lo = ci as u64 * self.chunk_bits;
        lo..(lo + self.chunk_bits).min(self.domain)
    }

    /// Run `f(base, len)` on every block on the deterministic [`par`]
    /// layer; results come back in block order.
    pub fn run<A: Send>(&self, threads: usize, f: impl Fn(u64, u64) -> A + Sync) -> Vec<A> {
        par::run_chunks(self.num_chunks(), threads, |ci| {
            let range = self.chunk_range(ci);
            f(range.start, range.end - range.start)
        })
    }

    /// A one-line description of the block geometry, e.g.
    /// `blocked (2^20 bits in 4 blocks of 2^18)`.
    pub fn describe(&self) -> String {
        let pow2 = |x: u64| {
            if x.is_power_of_two() {
                format!("2^{}", x.trailing_zeros())
            } else {
                x.to_string()
            }
        };
        format!(
            "blocked ({} bits in {} block{} of {})",
            pow2(self.domain),
            self.num_chunks(),
            if self.num_chunks() == 1 { "" } else { "s" },
            pow2(self.chunk_bits)
        )
    }
}

/// The block plan of a logical domain of `domain` bits: blocks of
/// [`BLOCK_BITS`] (or the [`chunk_override`] when set), capped at the
/// whole domain when that is smaller.
pub fn block_plan(domain: u64) -> ChunkPlan {
    let bits = chunk_override().unwrap_or(BLOCK_BITS);
    ChunkPlan::with_chunk_bits(domain, bits.min(domain.max(64)))
}

/// Order-invariant digest of a run of backing words starting at bit
/// `base_bit` (a multiple of 64) of some logical domain: every nonzero
/// word at global block index `i` contributes `FNV1a(i, word)`, XORed
/// together. Zero words contribute nothing, so the digest of a set equals
/// the XOR of the digests of any chunking of it.
pub fn digest_words(base_bit: u64, words: &[u64]) -> u64 {
    debug_assert!(base_bit.is_multiple_of(64), "chunks must own whole blocks");
    let base_block = base_bit / 64;
    let mut acc = 0u64;
    for (i, &w) in words.iter().enumerate() {
        if w != 0 {
            acc ^= Fnv1a::new()
                .write_u64(base_block + i as u64)
                .write_u64(w)
                .finish();
        }
    }
    acc
}

/// [`digest_words`] over a whole materialised set (base bit 0). Equal
/// sets have equal digests; a chunked scan producing the same logical set
/// XORs to the same value.
pub fn set_digest(set: &WordSet) -> u64 {
    digest_words(0, set.blocks())
}

/// A rectangle's sides prepared for a blocked scan with `2^shift`-bit
/// blocks. Each side is bucketed once by `member >> shift`: the sides
/// come out of their `BTreeSet`s ascending, and the bucket key is
/// monotone in the member, so sorting by member *is* the bucketing and a
/// block finds its bucket by binary search. `s_low`/`t_low` hold the
/// members' in-block offsets in the same order.
struct BlockedRect {
    ins: u64,
    outs: u64,
    shift: u32,
    s_key: Vec<u64>,
    s_low: Vec<u64>,
    t_key: Vec<u64>,
    t_low: Vec<u64>,
}

impl BlockedRect {
    fn new(r: &SetRectangle, shift: u32) -> BlockedRect {
        let low = (1u64 << shift) - 1;
        let split = |side: &std::collections::BTreeSet<u64>| -> (Vec<u64>, Vec<u64>) {
            side.iter().map(|&m| (m >> shift, m & low)).unzip()
        };
        let (s_key, s_low) = split(&r.s);
        let (t_key, t_low) = split(&r.t);
        BlockedRect {
            ins: r.partition.inside(),
            outs: r.partition.outside(),
            shift,
            s_key,
            s_low,
            t_key,
            t_low,
        }
    }

    /// The in-block offsets of the side members whose products land in
    /// the block at `base`, or `None` when no member does. `S` and `T`
    /// live on disjoint position masks, so `u | v` lands in the block iff
    /// `u` matches the block base on `Π₀`'s positions above the block and
    /// `v` matches it on `Π₁`'s. Summed over all blocks, the grouped
    /// [`pair_or_into`] products over these slices cost the `O(|S|·|T|)`
    /// of [`SetRectangle::to_wordset`].
    fn block(&self, base: u64) -> Option<(&[u64], &[u64])> {
        let bucket = |keys: &[u64], key: u64| {
            keys.partition_point(|&k| k < key)..keys.partition_point(|&k| k <= key)
        };
        let s = bucket(&self.s_key, (base & self.ins) >> self.shift);
        let t = bucket(&self.t_key, (base & self.outs) >> self.shift);
        if s.is_empty() || t.is_empty() {
            return None;
        }
        Some((&self.s_low[s], &self.t_low[t]))
    }
}

/// One block of the word-domain cover scan: the block-local overlap
/// counter over every rectangle's slice (each written straight into the
/// counter's carry buffer), and the `L_n` slice ([`ln_slice`]). A block
/// holds a handful of block-sized bitmaps, so the full domain is never
/// allocated.
fn scan_block(n: usize, rects: &[BlockedRect], base: u64, len: u64) -> (OverlapCounter, WordSet) {
    let mut counter = OverlapCounter::new(len);
    for r in rects {
        if let Some((s, t)) = r.block(base) {
            counter.add_with(|bits| pair_or_into(bits, len, s, t));
        }
    }
    (counter, ln_slice(n, base, len))
}

/// Run [`scan_block`] over every block of `plan` on the deterministic
/// [`par`] layer, reducing each block with `fold`; results come back in
/// block order.
fn scan_blocks<A: Send>(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
    plan: &ChunkPlan,
    fold: impl Fn(u64, &OverlapCounter, &WordSet) -> A + Sync,
) -> Vec<A> {
    assert_eq!(
        plan.domain(),
        logical_word_domain(n),
        "plan/domain mismatch"
    );
    obs::count!("cover.blocks", plan.num_chunks() as u64);
    let shift = plan.chunk_bits().trailing_zeros();
    let blocked: Vec<BlockedRect> = rects.iter().map(|r| BlockedRect::new(r, shift)).collect();
    plan.run(threads, |base, len| {
        let (counter, ln) = scan_block(n, &blocked, base, len);
        fold(base, &counter, &ln)
    })
}

/// Aggregates of one word-domain cover-verification pass — everything
/// [`crate::cover::CoverReport`] needs plus the counts and digests the
/// differential suite and the CI determinism job byte-compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CoverScan {
    /// Number of rectangles.
    pub size: usize,
    /// Union of the rectangles equals `L_n` exactly.
    pub covers_exactly: bool,
    /// All rectangles balanced (a per-rectangle property, domain-free).
    pub all_balanced: bool,
    /// Maximum number of rectangles containing a single word.
    pub max_overlap: usize,
    /// `|⋃ R_i|`.
    pub union_count: u64,
    /// Digest of `⋃ R_i` ([`set_digest`] scheme).
    pub union_digest: u64,
    /// `|L_n|`.
    pub ln_count: u64,
    /// Digest of `L_n`.
    pub ln_digest: u64,
}

/// The blocked cover scan over `plan`, with the union / `L_n` counts and
/// digests. Block results merge with order-free folds (AND / max / sum /
/// XOR) in block order, so the scan is bit-identical across thread
/// counts *and* block sizes. [`crate::cover::cover_scan_threads`] is this
/// scan at the default [`block_plan`].
pub fn cover_scan_chunked_threads(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
    plan: &ChunkPlan,
) -> CoverScan {
    let blocks = scan_blocks(n, rects, threads, plan, |base, counter, ln| {
        let union = counter.any();
        (
            union == *ln,
            counter.max_count(),
            union.count(),
            digest_words(base, union.blocks()),
            ln.count(),
            digest_words(base, ln.blocks()),
        )
    });
    let mut scan = CoverScan {
        size: rects.len(),
        covers_exactly: true,
        all_balanced: rects.iter().all(SetRectangle::is_balanced),
        max_overlap: 0,
        union_count: 0,
        union_digest: 0,
        ln_count: 0,
        ln_digest: 0,
    };
    for (exact, max, union_count, union_digest, ln_count, ln_digest) in blocks {
        scan.covers_exactly &= exact;
        scan.max_overlap = scan.max_overlap.max(max);
        scan.union_count += union_count;
        scan.union_digest ^= union_digest;
        scan.ln_count += ln_count;
        scan.ln_digest ^= ln_digest;
    }
    scan
}

/// The [`crate::cover::CoverReport`] facts of the blocked scan over
/// `plan` — coverage and the maximum overlap only, with no counts or
/// digests.
pub(crate) fn cover_facts_chunked_threads(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
    plan: &ChunkPlan,
) -> (bool, usize) {
    scan_blocks(n, rects, threads, plan, |_, counter, ln| {
        (counter.any() == *ln, counter.max_count())
    })
    .into_iter()
    .fold((true, 0), |(exact, max), (e, m)| (exact & e, max.max(m)))
}

/// The blocked overlap histogram over `plan`: per-block exact-`k`
/// popcounts against the block's `L_n` slice, summed bucket-wise across
/// blocks and trimmed like [`crate::cover::overlap_histogram`].
pub fn overlap_histogram_chunked_threads(
    n: usize,
    rects: &[SetRectangle],
    threads: usize,
    plan: &ChunkPlan,
) -> Vec<usize> {
    let partials = scan_blocks(n, rects, threads, plan, |_, counter, ln| {
        (0..=counter.max_count())
            .map(|k| counter.exactly_and_count(k, ln) as usize)
            .collect::<Vec<usize>>()
    });
    let mut hist = vec![0];
    for p in partials {
        if hist.len() < p.len() {
            hist.resize(p.len(), 0);
        }
        for (h, v) in hist.iter_mut().zip(p) {
            *h += v;
        }
    }
    // The counter's maximum ranges over all words; the histogram is
    // indexed by hits over `L_n` members only, so trailing zero buckets
    // (attained only outside `L_n`) are trimmed to match the scalar shape.
    while hist.len() > 1 && hist.last() == Some(&0) {
        hist.pop();
    }
    hist
}

/// Signed discrepancy `|R ∩ A| − |R ∩ B|` streamed over the family-rank
/// domain: per chunk, the rectangle slice is intersected with the `A`
/// slice (both built by per-rank probes) and the two popcounts
/// subtracted; per-chunk signed sums add in chunk order.
pub fn discrepancy_chunked_threads(
    n: usize,
    r: &SetRectangle,
    threads: usize,
    plan: &ChunkPlan,
) -> i64 {
    assert!(supports_blocks(n));
    assert_eq!(
        plan.domain(),
        logical_family_domain(n),
        "plan/domain mismatch"
    );
    obs::count!("wordset.chunked.discrepancies");
    let _t = obs::span!("wordset.chunked.discrepancy");
    let partials = plan.run(threads, |base, len| {
        let rect = WordSet::from_pred_threads(len, 1, |k| r.contains(family_unrank(n, base + k)));
        let a = WordSet::from_pred_threads(len, 1, |k| in_a(n, family_unrank(n, base + k)));
        let in_a_count = rect.and_count(&a) as i64;
        let in_b_count = rect.count() as i64 - in_a_count;
        in_a_count - in_b_count
    });
    partials.into_iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover::example8_cover;

    #[test]
    fn chunk_spec_parsing_and_validation() {
        assert!(parse_chunk_bits("64").is_ok());
        assert!(parse_chunk_bits(" 1024 ").is_ok());
        assert_eq!(parse_chunk_bits("65536"), Ok(1 << 16));
        for bad in ["", "banana", "0", "63", "100", "-64"] {
            assert!(parse_chunk_bits(bad).is_err(), "spec {bad:?}");
        }
        // 2^31 exceeds the materialisation cap: a chunk that big could
        // never be built.
        assert!(parse_chunk_bits(&(MAX_DOMAIN_BITS * 2).to_string()).is_err());
        assert!(valid_chunk_bits(MAX_DOMAIN_BITS));
        assert!(!valid_chunk_bits(MAX_DOMAIN_BITS + 1));
    }

    /// Tests that set or read [`CHUNK_ENV`] must not interleave under the
    /// parallel test runner.
    fn env_gate() -> std::sync::MutexGuard<'static, ()> {
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());
        GATE.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Clear [`CHUNK_ENV`] for the test body and restore the ambient
    /// value on drop — the CI chunked-determinism job exports the
    /// variable process-wide, and these tests assert about both states.
    struct EnvRestore(Option<String>);
    impl EnvRestore {
        fn clear() -> EnvRestore {
            let saved = std::env::var(CHUNK_ENV).ok();
            std::env::remove_var(CHUNK_ENV);
            EnvRestore(saved)
        }
    }
    impl Drop for EnvRestore {
        fn drop(&mut self) {
            match &self.0 {
                Some(v) => std::env::set_var(CHUNK_ENV, v),
                None => std::env::remove_var(CHUNK_ENV),
            }
        }
    }

    #[test]
    fn strip_chunk_flags_round_trip() {
        let _g = env_gate();
        let _e = EnvRestore::clear();
        let argv = |args: &[&str]| -> Vec<String> { args.iter().map(|s| s.to_string()).collect() };
        for form in [
            &["--chunk-bits", "1024", "cmd"][..],
            &["--chunk-bits=1024", "cmd"],
        ] {
            let rest = strip_chunk_flags(&argv(form)).expect("valid spelling");
            assert_eq!(rest, argv(&["cmd"]), "form {form:?}");
            assert_eq!(std::env::var(CHUNK_ENV).as_deref(), Ok("1024"));
            std::env::remove_var(CHUNK_ENV);
        }
        for bad in [
            &["--chunk-bits"][..],
            &["--chunk-bits", "0"],
            &["--chunk-bits=banana"],
            &["--chunk-bits", "100"],
        ] {
            assert!(strip_chunk_flags(&argv(bad)).is_err(), "form {bad:?}");
        }
        // Unrelated args pass through untouched.
        assert_eq!(
            strip_chunk_flags(&argv(&["a", "b"])).unwrap(),
            argv(&["a", "b"])
        );
    }

    #[test]
    fn plan_geometry() {
        let plan = ChunkPlan::with_chunk_bits(1 << 12, 1 << 10);
        assert_eq!(plan.num_chunks(), 4);
        assert_eq!(plan.chunk_range(0), 0..1024);
        assert_eq!(plan.chunk_range(3), 3072..4096);
        // Chunk larger than the domain: one short chunk.
        let plan = ChunkPlan::with_chunk_bits(100, 1 << 10);
        assert_eq!(plan.num_chunks(), 1);
        assert_eq!(plan.chunk_range(0), 0..100);
        // The empty domain still plans one (empty) chunk.
        let plan = ChunkPlan::with_chunk_bits(0, 64);
        assert_eq!(plan.num_chunks(), 1);
        assert_eq!(plan.chunk_range(0), 0..0);
    }

    #[test]
    fn cover_plan_blocks_and_banner() {
        let _g = env_gate();
        let _e = EnvRestore::clear();
        let words = |n: usize| block_plan(logical_word_domain(n));
        let plan = words(10);
        assert_eq!((plan.chunk_bits(), plan.num_chunks()), (BLOCK_BITS, 4));
        assert_eq!(plan.describe(), "blocked (2^20 bits in 4 blocks of 2^18)");
        // Domains below one block are a single whole-domain block.
        assert_eq!(
            words(8).describe(),
            "blocked (2^16 bits in 1 block of 2^16)"
        );
        assert_eq!(words(2).chunk_bits(), 64);
        assert_eq!(words(16).num_chunks(), 1 << 14);
        // The family domain takes the same plan: past the cap at n = 32,
        // and one 64-bit block for the smallest family.
        assert_eq!(
            block_plan(logical_family_domain(32)).describe(),
            "blocked (2^32 bits in 16384 blocks of 2^18)"
        );
        assert_eq!(block_plan(logical_family_domain(4)).chunk_range(0), 0..16);
        assert_eq!(chunk_override(), None);
        // The override sets the block size, still capped at the domain.
        std::env::set_var(CHUNK_ENV, "65536");
        assert_eq!(chunk_override(), Some(65536));
        assert_eq!(words(10).num_chunks(), 16);
        assert_eq!(words(4).num_chunks(), 1);
        assert_eq!(words(4).chunk_bits(), 256);
        assert_eq!(
            ChunkPlan::with_chunk_bits(100, 64).describe(),
            "blocked (100 bits in 2 blocks of 2^6)"
        );
    }

    #[test]
    #[should_panic(expected = "invalid chunk size")]
    fn plan_rejects_non_power_of_two() {
        let _ = ChunkPlan::with_chunk_bits(1 << 12, 100);
    }

    #[test]
    #[should_panic(expected = "u64 addressing")]
    fn logical_word_domain_guards_the_shift() {
        let _ = logical_word_domain(32);
    }

    #[test]
    fn digest_is_chunking_invariant() {
        let domain = 1u64 << 12;
        let set = WordSet::from_pred_threads(domain, 1, |k| k.is_multiple_of(3) || k > 4000);
        let whole = set_digest(&set);
        for chunk_bits in [64u64, 256, 1024, 4096] {
            let plan = ChunkPlan::with_chunk_bits(domain, chunk_bits);
            let mut acc = 0u64;
            for ci in 0..plan.num_chunks() {
                let r = plan.chunk_range(ci);
                let piece =
                    WordSet::from_pred_threads(r.end - r.start, 1, |k| set.contains(r.start + k));
                acc ^= digest_words(r.start, piece.blocks());
            }
            assert_eq!(acc, whole, "chunk_bits={chunk_bits}");
        }
        // Digests distinguish sets and positions.
        let other = WordSet::from_pred_threads(domain, 1, |k| k.is_multiple_of(3));
        assert_ne!(set_digest(&other), whole);
        assert_ne!(digest_words(0, &[1]), digest_words(64, &[1]));
        assert_eq!(set_digest(&WordSet::empty(domain)), 0);
    }

    #[test]
    fn rect_word_chunks_reassemble_to_wordset() {
        let n = 4usize;
        for r in example8_cover(n) {
            let whole = r.to_wordset(n);
            for chunk_bits in [64u64, 128] {
                let plan = ChunkPlan::with_chunk_bits(whole.domain(), chunk_bits);
                let mut count = 0u64;
                let mut digest = 0u64;
                let blocked = BlockedRect::new(&r, chunk_bits.trailing_zeros());
                for ci in 0..plan.num_chunks() {
                    let rg = plan.chunk_range(ci);
                    if let Some((s, t)) = blocked.block(rg.start) {
                        let piece = crate::wordset::pair_or_bitmap(rg.end - rg.start, s, t);
                        count += piece.count();
                        digest ^= digest_words(rg.start, piece.blocks());
                    }
                }
                assert_eq!(count, whole.count(), "chunk_bits={chunk_bits}");
                assert_eq!(digest, set_digest(&whole), "chunk_bits={chunk_bits}");
            }
        }
    }

    #[test]
    fn chunked_scans_are_thread_and_chunk_invariant() {
        let n = 4usize;
        let rects = example8_cover(n);
        let word_plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), 64);
        let base = cover_scan_chunked_threads(n, &rects, 1, &word_plan);
        let base_hist = overlap_histogram_chunked_threads(n, &rects, 1, &word_plan);
        for chunk_bits in [64u64, 256, 1 << 20] {
            let plan = ChunkPlan::with_chunk_bits(logical_word_domain(n), chunk_bits);
            for threads in [1usize, 2, 8] {
                assert_eq!(
                    base,
                    cover_scan_chunked_threads(n, &rects, threads, &plan),
                    "chunk_bits={chunk_bits} threads={threads}"
                );
                assert_eq!(
                    base_hist,
                    overlap_histogram_chunked_threads(n, &rects, threads, &plan),
                    "chunk_bits={chunk_bits} threads={threads}"
                );
            }
        }
        assert!(base.covers_exactly);
        assert_eq!(base.max_overlap, n);
        assert_eq!(base.union_count, base.ln_count);
        assert_eq!(base.union_digest, base.ln_digest);
    }

    #[test]
    fn chunked_discrepancy_matches_scalar() {
        let n = 8usize;
        let plan = ChunkPlan::with_chunk_bits(logical_family_domain(n), 64);
        for r in example8_cover(n) {
            let expect = crate::discrepancy::discrepancy_scalar_threads(n, &r, 1);
            for threads in [1usize, 4] {
                assert_eq!(
                    expect,
                    discrepancy_chunked_threads(n, &r, threads, &plan),
                    "threads={threads}"
                );
            }
        }
    }
}
