//! Worker shards: per-shard artifact cache + batch queue, keyed by
//! content hash.
//!
//! The event loop routes every compute job to a shard by **rendezvous
//! (highest-random-weight) hashing** of its cache key
//! ([`Grammar::content_hash`](ucfg_grammar::Grammar::content_hash) for
//! `/parse`, [`RectRequest::cache_key`](crate::protocol::RectRequest)
//! for the rectangle endpoints): shard = argmax over `i` of
//! `fnv1a(key, i)`. That gives the two properties the cache wants —
//! the same key always lands on the same shard (so a grammar's
//! artifact is compiled once, not once per shard), and changing the
//! shard count remaps only the keys whose argmax moved (no global
//! reshuffle).
//!
//! Each shard owns a [`Scheduler`] drained by its own thread
//! (`ucfg-serve-shard-<i>`) and an [`ArtifactCache`] slice of the
//! configured total capacity. Shard *placement* depends on
//! `--shards`, so per-shard counters are volatile instruments; the
//! deterministic stratum only carries aggregates that are invariant
//! across shard layouts (responses themselves stay byte-identical
//! because each job's result is a pure function of the request).

use crate::batch::{Scheduler, SessionStore, MAX_SESSIONS_PER_SHARD};
use crate::cache::ArtifactCache;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;
use ucfg_support::fnv::Fnv1a;

/// One worker shard: a cache and a batch queue with its drain thread.
pub struct Shard {
    /// The shard's index (names its thread and volatile counters).
    pub index: usize,
    /// This shard's slice of the artifact cache.
    pub cache: Mutex<ArtifactCache>,
    /// Heap bytes held by this shard's cache, readable without the
    /// cache lock (a compile holds it for the whole build).
    pub cache_bytes: Arc<AtomicUsize>,
    /// This shard's bounded batch queue.
    pub sched: Scheduler,
    /// This shard's live stream sessions (rendezvous-routed by the
    /// deterministic session id, like cache keys).
    pub sessions: Mutex<SessionStore>,
}

/// The fixed set of shards behind a server.
pub struct ShardSet {
    shards: Vec<Arc<Shard>>,
}

impl ShardSet {
    /// Build `count` shards (min 1). `cache_capacity` is the *total*
    /// across shards, split evenly (rounded up); `queue_depth` and
    /// `deadline` apply per shard.
    pub fn new(
        count: usize,
        cache_capacity: usize,
        queue_depth: usize,
        deadline: Duration,
    ) -> ShardSet {
        let count = count.max(1);
        let per_shard_cache = cache_capacity.div_ceil(count);
        let shards = (0..count)
            .map(|index| {
                let cache = ArtifactCache::with_shard(per_shard_cache, index);
                Arc::new(Shard {
                    index,
                    cache_bytes: cache.bytes_handle(),
                    cache: Mutex::new(cache),
                    sched: Scheduler::new(queue_depth, deadline),
                    sessions: Mutex::new(SessionStore::new(MAX_SESSIONS_PER_SHARD)),
                })
            })
            .collect();
        ShardSet { shards }
    }

    /// How many shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Never true — there is always at least one shard.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// All shards, for aggregation (e.g. summing queue depths).
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The shard responsible for `key`, by rendezvous hashing.
    pub fn pick(&self, key: u64) -> &Arc<Shard> {
        let winner = self
            .shards
            .iter()
            .max_by_key(|s| Fnv1a::new().write_u64(key).write_usize(s.index).finish())
            .expect("at least one shard");
        winner
    }

    /// Total queued jobs across shards (for `/healthz`).
    pub fn queue_len(&self) -> usize {
        self.shards.iter().map(|s| s.sched.queue_len()).sum()
    }

    /// Heap bytes held by each shard's artifact cache (for `/healthz`).
    pub fn cache_bytes(&self) -> Vec<usize> {
        self.shards
            .iter()
            .map(|s| s.cache_bytes.load(Ordering::Relaxed))
            .collect()
    }

    /// Total live stream sessions across shards (for `/healthz`).
    pub fn session_count(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.sessions.lock().expect("sessions poisoned").len())
            .sum()
    }

    /// Spawn one drain thread per shard. Join the handles after
    /// [`ShardSet::stop`].
    pub fn spawn(&self) -> io::Result<Vec<thread::JoinHandle<()>>> {
        self.shards
            .iter()
            .map(|s| {
                let shard = Arc::clone(s);
                thread::Builder::new()
                    .name(format!("ucfg-serve-shard-{}", shard.index))
                    .spawn(move || shard.sched.run(&shard.cache, &shard.sessions))
            })
            .collect()
    }

    /// Ask every shard's drain loop to exit once its queue is empty.
    pub fn stop(&self) {
        for s in &self.shards {
            s.sched.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(count: usize) -> ShardSet {
        ShardSet::new(count, 64, 16, Duration::from_secs(5))
    }

    #[test]
    fn pick_is_stable_and_total() {
        let s4 = set(4);
        for key in [0u64, 1, 0xdead_beef, u64::MAX] {
            let a = s4.pick(key).index;
            let b = s4.pick(key).index;
            assert_eq!(a, b, "same key, same shard");
            assert!(a < 4);
        }
    }

    #[test]
    fn keys_spread_across_shards() {
        let s4 = set(4);
        let mut seen = [false; 4];
        for key in 0..256u64 {
            seen[s4.pick(key).index] = true;
        }
        assert!(seen.iter().all(|&s| s), "256 keys must touch all 4 shards");
    }

    #[test]
    fn rendezvous_moves_few_keys_when_growing() {
        // Growing 4 → 5 shards may only remap keys onto the *new*
        // shard: any key whose winner is still in {0..3} keeps it.
        let s4 = set(4);
        let s5 = set(5);
        for key in 0..512u64 {
            let old = s4.pick(key).index;
            let new = s5.pick(key).index;
            assert!(new == old || new == 4, "key {key}: {old} -> {new}");
        }
    }

    #[test]
    fn single_shard_takes_everything() {
        let s1 = set(1);
        for key in 0..32u64 {
            assert_eq!(s1.pick(key).index, 0);
        }
    }

    #[test]
    fn spawn_drain_stop_joins_cleanly() {
        let s = set(3);
        let handles = s.spawn().unwrap();
        assert_eq!(handles.len(), 3);
        s.stop();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn cache_capacity_splits_rounded_up() {
        // 64 total over 3 shards → 22 each; just check construction
        // and that queue_len starts at 0.
        let s = ShardSet::new(3, 64, 16, Duration::from_secs(5));
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.queue_len(), 0);
    }
}
