//! The content-addressed artifact cache.
//!
//! Keys are stable FNV-1a digests ([`Grammar::content_hash`] for
//! grammars, [`crate::protocol::RectRequest::cache_key`] for rectangle
//! families); values are the expensive compiled artifacts a one-shot
//! binary rebuilds on every run:
//!
//! - [`GrammarArtifact`] — the parsed [`Grammar`], its CNF conversion,
//!   the block-sparse [`CykRuleIndex`] (`O(nts + binary rules)` bytes),
//!   and the Earley nullable table;
//! - [`RectsArtifact`] — a materialised rectangle family for the
//!   cover/discrepancy kernels.
//!
//! (The canonical `L_n` bitmaps have their own process-wide cache in
//! `ucfg_core::wordset`; the kernels hit it automatically and its
//! traffic shows up under the `wordset.cache.*` counters.)
//!
//! Eviction is LRU under a fixed entry capacity. Instrumentation:
//! `serve.cache.hits` / `serve.cache.misses` / `serve.cache.evictions`
//! deterministic counters, plus volatile per-shard
//! `serve.shard.<i>.cache.{hits,misses,evictions}` counters when the
//! cache is one shard of a [`crate::shard::ShardSet`] (volatile
//! because shard layout depends on `--shards`, which must not perturb
//! the deterministic metrics stratum).
//!
//! Memory: the cache keeps the summed [`Artifact::heap_bytes`] of its
//! entries, updated on every insert and eviction. It is readable
//! without the cache lock ([`ArtifactCache::bytes_handle`], for
//! `/healthz`) and mirrored into the volatile
//! `serve.shard.<i>.cache.bytes` gauge.

use crate::protocol::{ApiError, RectFamily, RectRequest};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use ucfg_core::cover::extraction_to_set_rectangles;
use ucfg_core::extract::extract_cover;
use ucfg_core::ln_grammars::example4_ucfg;
use ucfg_core::SetRectangle;
use ucfg_grammar::analysis::nullable;
use ucfg_grammar::cyk::CykRuleIndex;
use ucfg_grammar::earley::Earley;
use ucfg_grammar::{CnfGrammar, Grammar};
use ucfg_support::obs;

/// Everything `/parse` needs, compiled once per distinct grammar hash.
#[derive(Debug)]
pub struct GrammarArtifact {
    /// The grammar's [`Grammar::content_hash`].
    pub hash: u64,
    /// The original grammar (Earley runs on this — it handles non-CNF
    /// bodies directly).
    pub grammar: Grammar,
    /// The Earley table: the nullable fixpoint, precomputed.
    pub nullable: Vec<bool>,
    /// The Chomsky normal form the CYK chart parses with.
    pub cnf: CnfGrammar,
    /// The block-sparse bitset rule index shared by every chart.
    pub index: CykRuleIndex,
}

impl GrammarArtifact {
    /// Compile the full artifact set for `grammar`.
    pub fn compile(grammar: Grammar) -> Arc<GrammarArtifact> {
        let _t = obs::span!("serve.compile.grammar");
        let hash = grammar.content_hash();
        let nullable = nullable(&grammar);
        let cnf = CnfGrammar::from_grammar(&grammar);
        let index = CykRuleIndex::new(&cnf);
        Arc::new(GrammarArtifact {
            hash,
            grammar,
            nullable,
            cnf,
            index,
        })
    }

    /// Bytes this artifact holds on the heap: grammar, nullable table,
    /// CNF and rule index.
    pub fn heap_bytes(&self) -> usize {
        self.grammar.heap_bytes()
            + self.nullable.capacity()
            + self.cnf.heap_bytes()
            + self.index.heap_bytes()
    }

    /// An Earley recogniser borrowing this artifact's grammar and
    /// precomputed table.
    pub fn earley(&self) -> Earley<'_> {
        Earley::with_nullable(&self.grammar, self.nullable.clone())
    }
}

/// A materialised rectangle family.
#[derive(Debug)]
pub struct RectsArtifact {
    /// The half-length parameter.
    pub n: usize,
    /// The rectangles.
    pub rects: Vec<SetRectangle>,
}

impl RectsArtifact {
    /// Build the family for a bounds-checked [`RectRequest`].
    pub fn build(req: RectRequest) -> Result<Arc<RectsArtifact>, ApiError> {
        let _t = obs::span!("serve.compile.rects");
        let rects = match req.family {
            RectFamily::Example8 => ucfg_core::cover::example8_cover(req.n),
            RectFamily::Extraction => {
                let cnf = CnfGrammar::from_grammar(&example4_ucfg(req.n));
                let res = extract_cover(&cnf, 2 * req.n)
                    .map_err(|e| ApiError::Internal(format!("extraction failed: {e:?}")))?;
                extraction_to_set_rectangles(req.n, &res)
            }
        };
        Ok(Arc::new(RectsArtifact { n: req.n, rects }))
    }

    /// Heap bytes of the family's payload: the rectangle vector plus
    /// one `u64` per side mask (B-tree node overhead is not counted).
    pub fn heap_bytes(&self) -> usize {
        self.rects.capacity() * std::mem::size_of::<SetRectangle>()
            + self
                .rects
                .iter()
                .map(|r| (r.s.len() + r.t.len()) * std::mem::size_of::<u64>())
                .sum::<usize>()
    }
}

/// A cached artifact (cheap to clone — contents are behind `Arc`s).
#[derive(Debug, Clone)]
pub enum Artifact {
    /// A compiled grammar.
    Grammar(Arc<GrammarArtifact>),
    /// A rectangle family.
    Rects(Arc<RectsArtifact>),
}

impl Artifact {
    /// The grammar artifact, if that's what this is.
    pub fn as_grammar(&self) -> Option<&Arc<GrammarArtifact>> {
        match self {
            Artifact::Grammar(g) => Some(g),
            _ => None,
        }
    }

    /// Bytes the artifact holds on the heap.
    pub fn heap_bytes(&self) -> usize {
        match self {
            Artifact::Grammar(g) => g.heap_bytes(),
            Artifact::Rects(r) => r.heap_bytes(),
        }
    }

    /// The rectangle family, if that's what this is.
    pub fn as_rects(&self) -> Option<&Arc<RectsArtifact>> {
        match self {
            Artifact::Rects(r) => Some(r),
            _ => None,
        }
    }
}

struct Entry {
    value: Artifact,
    last_used: u64,
    bytes: usize,
}

/// An LRU map from content hash to compiled [`Artifact`].
pub struct ArtifactCache {
    capacity: usize,
    tick: u64,
    entries: HashMap<u64, Entry>,
    /// `Some(i)` when this cache is shard `i` of a sharded server —
    /// adds volatile per-shard hit/miss/eviction counters and the
    /// per-shard bytes gauge.
    shard: Option<usize>,
    /// Summed [`Artifact::heap_bytes`] of the entries, shared so it
    /// can be read while a compile holds the cache lock.
    bytes: Arc<AtomicUsize>,
}

impl ArtifactCache {
    /// A cache holding at most `capacity` artifacts (min 1).
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            capacity: capacity.max(1),
            tick: 0,
            entries: HashMap::new(),
            shard: None,
            bytes: Arc::new(AtomicUsize::new(0)),
        }
    }

    /// A cache acting as shard `shard_idx`: identical behaviour, plus
    /// volatile `serve.shard.<i>.cache.*` counters so the shard spread
    /// is observable without touching the deterministic stratum.
    pub fn with_shard(capacity: usize, shard_idx: usize) -> ArtifactCache {
        ArtifactCache {
            shard: Some(shard_idx),
            ..ArtifactCache::new(capacity)
        }
    }

    /// Bump this shard's volatile counter for `event` (hit/miss/…).
    fn shard_count(&self, event: &str) {
        if let Some(i) = self.shard {
            if obs::enabled() {
                obs::vcounter(&format!("serve.shard.{i}.cache.{event}")).add(1);
            }
        }
    }

    /// Adjust the byte total and mirror it into this shard's volatile
    /// `serve.shard.<i>.cache.bytes` gauge. Only the lock holder writes,
    /// so a load and a store suffice.
    fn account(&mut self, added: usize, removed: usize) {
        let total = self.bytes.load(Ordering::Relaxed) + added - removed;
        self.bytes.store(total, Ordering::Relaxed);
        if let Some(i) = self.shard {
            if obs::enabled() {
                obs::vgauge(&format!("serve.shard.{i}.cache.bytes")).set(total as i64);
            }
        }
    }

    /// A lock-free reader of the heap bytes held by the cached
    /// artifacts.
    pub fn bytes_handle(&self) -> Arc<AtomicUsize> {
        Arc::clone(&self.bytes)
    }

    /// Current number of cached artifacts.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetch `key`, or build, insert, and (if over capacity) evict the
    /// least-recently-used entry. Returns the artifact and whether it
    /// was a hit. `build` may fail (e.g. extraction bounds); failures
    /// are not cached.
    pub fn get_or_insert_with(
        &mut self,
        key: u64,
        build: impl FnOnce() -> Result<Artifact, ApiError>,
    ) -> Result<(Artifact, bool), ApiError> {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used = self.tick;
            let value = e.value.clone();
            obs::count!("serve.cache.hits");
            self.shard_count("hits");
            return Ok((value, true));
        }
        obs::count!("serve.cache.misses");
        self.shard_count("misses");
        let value = build()?;
        let bytes = value.heap_bytes();
        self.entries.insert(
            key,
            Entry {
                value: value.clone(),
                last_used: self.tick,
                bytes,
            },
        );
        let mut evicted = 0;
        while self.entries.len() > self.capacity {
            if let Some((&lru, _)) = self
                .entries
                .iter()
                .filter(|(k, _)| **k != key)
                .min_by_key(|(_, e)| e.last_used)
            {
                evicted += self.entries.remove(&lru).map_or(0, |e| e.bytes);
                obs::count!("serve.cache.evictions");
                self.shard_count("evictions");
            } else {
                break;
            }
        }
        self.account(bytes, evicted);
        Ok((value, false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn grammar_artifact(src: &str) -> Artifact {
        let g = ucfg_grammar::text::parse_grammar(src).unwrap();
        Artifact::Grammar(GrammarArtifact::compile(g))
    }

    #[test]
    fn compile_produces_consistent_pieces() {
        let g = ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap();
        let art = GrammarArtifact::compile(g);
        assert_eq!(art.hash, art.grammar.content_hash());
        // Dyck word: both engines agree through the artifact's parts.
        let e = art.earley();
        assert!(e.recognize_str("aabb"));
        let w = art.cnf.encode("aabb").unwrap();
        let chart = ucfg_grammar::cyk::CykChart::build_with_index(&art.cnf, &art.index, &w);
        assert!(chart.accepted());
    }

    #[test]
    fn hit_then_miss_accounting() {
        let mut c = ArtifactCache::new(4);
        let (a1, hit1) = c
            .get_or_insert_with(1, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        assert!(!hit1);
        let (a2, hit2) = c
            .get_or_insert_with(1, || panic!("must not rebuild"))
            .unwrap();
        assert!(hit2);
        // Same Arc, not a recompile.
        assert!(Arc::ptr_eq(
            a1.as_grammar().unwrap(),
            a2.as_grammar().unwrap()
        ));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut c = ArtifactCache::new(2);
        c.get_or_insert_with(1, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        c.get_or_insert_with(2, || Ok(grammar_artifact("S -> b")))
            .unwrap();
        // Touch 1 so 2 is the LRU.
        c.get_or_insert_with(1, || panic!("hit expected")).unwrap();
        c.get_or_insert_with(3, || Ok(grammar_artifact("S -> a b")))
            .unwrap();
        assert_eq!(c.len(), 2);
        let (_, hit1) = c.get_or_insert_with(1, || panic!("1 evicted")).unwrap();
        assert!(hit1);
        let (_, hit2) = c
            .get_or_insert_with(2, || Ok(grammar_artifact("S -> b")))
            .unwrap();
        assert!(!hit2, "2 should have been evicted");
    }

    #[test]
    fn byte_total_tracks_inserts_and_evictions() {
        let mut c = ArtifactCache::with_shard(2, 7);
        let reader = c.bytes_handle();
        let bytes = || reader.load(Ordering::Relaxed);
        assert_eq!(bytes(), 0);
        let (a1, _) = c
            .get_or_insert_with(1, || Ok(grammar_artifact("S -> a S b S | ()")))
            .unwrap();
        let b1 = a1.heap_bytes();
        assert!(b1 > 0);
        assert_eq!(bytes(), b1);
        let (a2, _) = c
            .get_or_insert_with(2, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        assert_eq!(bytes(), b1 + a2.heap_bytes());
        // Inserting a third entry evicts key 1 (the LRU).
        obs::set_enabled(true);
        let (a3, _) = c
            .get_or_insert_with(3, || Ok(grammar_artifact("S -> a b")))
            .unwrap();
        let gauge = obs::vgauge("serve.shard.7.cache.bytes").value();
        obs::set_enabled(false);
        let expect = a2.heap_bytes() + a3.heap_bytes();
        assert_eq!(bytes(), expect);
        assert_eq!(gauge, expect as i64);
    }

    #[test]
    fn grammar_artifact_bytes_cover_every_part() {
        let art = GrammarArtifact::compile(
            ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap(),
        );
        assert!(art.heap_bytes() > art.cnf.heap_bytes() + art.index.heap_bytes());
        assert!(art.index.heap_bytes() > 0);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let mut c = ArtifactCache::new(2);
        let r = c.get_or_insert_with(9, || Err(ApiError::BadRequest("no".into())));
        assert!(r.is_err());
        assert_eq!(c.len(), 0);
        // A later successful build under the same key works.
        let (_, hit) = c
            .get_or_insert_with(9, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        assert!(!hit);
    }

    #[test]
    fn capacity_one_still_serves() {
        let mut c = ArtifactCache::new(0); // clamped to 1
        c.get_or_insert_with(1, || Ok(grammar_artifact("S -> a")))
            .unwrap();
        c.get_or_insert_with(2, || Ok(grammar_artifact("S -> b")))
            .unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn rects_artifacts_build_for_both_families() {
        let req = |src: &str| RectRequest::from_json(&Json::parse(src).unwrap(), false).unwrap();
        let e8 = RectsArtifact::build(req(r#"{"n":4,"family":"example8"}"#)).unwrap();
        assert_eq!(e8.rects.len(), 4);
        let ex = RectsArtifact::build(req(r#"{"n":3,"family":"extraction"}"#)).unwrap();
        assert!(!ex.rects.is_empty());
        assert_eq!(ex.n, 3);
    }
}
