//! Pillar 2: sliding-window membership over an unbounded token stream.
//!
//! A [`WindowParser`] keeps the last `capacity` tokens in a ring of
//! Earley sets and answers, after every push, "does the current window
//! parse?" and "which window suffixes parse?" — by delta maintenance,
//! not reparsing. The trick is the **all-starts chart**: start-rule
//! items are seeded at *every* position, so a complete start item with
//! origin `j` in the newest set certifies `tokens[j..now] ∈ L(G)` for
//! any `j` at once, the same shape streaming RPQ evaluators use for
//! their window delta operators.
//!
//! Sliding is sound because evicted items form a closed ecosystem: an
//! item whose origin predates the window base can only complete waiters
//! that also predate the base, so dropping the front sets (and lazily
//! pruning stragglers) never changes an answer about origins the window
//! still covers.

use crate::incremental::count_append;
use std::sync::Arc;
use ucfg_grammar::earley::Chart;
use ucfg_grammar::symbol::Terminal;
use ucfg_grammar::Grammar;

/// A fixed-capacity sliding window with incremental Earley membership.
///
/// ```
/// use std::sync::Arc;
/// use ucfg_stream::WindowParser;
///
/// let g = Arc::new(ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap());
/// let mut w = WindowParser::new(Arc::clone(&g), 4);
/// for c in "abaabb".chars() {
///     w.push(g.terminal_of(c).unwrap());
/// }
/// // Window now holds "aabb" (capacity 4): balanced.
/// assert!(w.current_member());
/// // Suffixes "aabb", "abb", "bb", "b", "": two of the five parse
/// // ("aabb" and the empty suffix).
/// assert_eq!(w.suffix_match_count(), 2);
/// ```
pub struct WindowParser {
    chart: Chart<Arc<Grammar>>,
    capacity: usize,
    /// Evictions since the last prune (amortises prune cost).
    evicted_since_prune: usize,
}

impl WindowParser {
    /// An empty window holding at most `capacity ≥ 1` tokens.
    pub fn new(g: Arc<Grammar>, capacity: usize) -> WindowParser {
        assert!(capacity >= 1, "window capacity must be at least 1");
        WindowParser {
            chart: Chart::new(g, None, true),
            capacity,
            evicted_since_prune: 0,
        }
    }

    /// The grammar this window parses against.
    pub fn grammar(&self) -> &Arc<Grammar> {
        self.chart.grammar()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Absolute position of the oldest token still in the window.
    pub fn base(&self) -> u64 {
        self.chart.base()
    }

    /// Absolute position just past the newest token (= tokens pushed).
    pub fn total(&self) -> u64 {
        self.chart.total()
    }

    /// Tokens currently in the window, oldest first.
    pub fn window(&self) -> Vec<Terminal> {
        self.chart.tokens().collect()
    }

    /// Number of tokens currently in the window.
    pub fn window_len(&self) -> usize {
        self.chart.len()
    }

    /// Push one token; returns the number of tokens evicted from the
    /// front (0 until the window fills, then 1 per push).
    pub fn push(&mut self, t: Terminal) -> usize {
        count_append(self.chart.cells());
        self.chart.append(t);
        let mut evicted = 0;
        while self.chart.len() > self.capacity {
            self.chart.evict_front();
            evicted += 1;
        }
        // Amortised prune: stale pre-base items are skipped by the
        // chart, but dropping them every half-capacity slides keeps
        // per-set sizes proportional to the window.
        self.evicted_since_prune += evicted;
        if self.evicted_since_prune >= self.capacity.div_ceil(2) {
            self.chart.prune();
            self.evicted_since_prune = 0;
        }
        evicted
    }

    /// Rewind to absolute position `to`, discarding the newest
    /// `total() - to` tokens. The kept chart prefix is final, so this is
    /// a pure suffix drop — the window base (and every suffix answer
    /// about retained positions) is preserved. Callers validate
    /// `base() <= to <= total()`.
    pub fn truncate(&mut self, to: u64) {
        self.chart.truncate(to);
    }

    /// Does the *current* window content belong to the language?
    pub fn current_member(&self) -> bool {
        self.chart.suffix_complete(self.chart.base())
    }

    /// Does the window suffix starting at absolute position `j` belong
    /// to the language? `j = total()` asks about the empty suffix.
    /// Returns `false` for positions the window no longer covers.
    pub fn suffix_member(&self, j: u64) -> bool {
        j >= self.chart.base() && j <= self.chart.total() && self.chart.suffix_complete(j)
    }

    /// How many window suffixes (including the empty one) belong to the
    /// language right now.
    pub fn suffix_match_count(&self) -> usize {
        (self.chart.base()..=self.chart.total())
            .filter(|&j| self.chart.suffix_complete(j))
            .count()
    }

    /// Total live chart items (bounded by the window, not the stream).
    pub fn cell_count(&self) -> u64 {
        self.chart.cells()
    }

    /// Digest of the retained chart, restricted to live (post-prune)
    /// state. Two windows over the same grammar holding the same tokens
    /// at the same absolute positions agree on all queries; the
    /// differential suite compares queries, which — unlike raw
    /// fingerprints — are insensitive to prune timing.
    pub fn fingerprint(&self) -> u64 {
        self.chart.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucfg_grammar::earley::Earley;
    use ucfg_grammar::text::parse_grammar;

    fn dyck() -> Arc<Grammar> {
        Arc::new(parse_grammar("S -> a S b S | ()").unwrap())
    }

    #[test]
    fn window_membership_matches_full_reparse_at_every_slide() {
        let g = dyck();
        let e = Earley::new(&g);
        let mut w = WindowParser::new(Arc::clone(&g), 4);
        let stream = "abaabbababbaabab";
        let tokens: Vec<char> = stream.chars().collect();
        for (i, &c) in tokens.iter().enumerate() {
            w.push(g.terminal_of(c).unwrap());
            let lo = (i + 1).saturating_sub(4);
            let content: String = tokens[lo..=i].iter().collect();
            assert_eq!(
                w.current_member(),
                e.recognize_str(&content),
                "window {content:?} after {} pushes",
                i + 1
            );
            // Every suffix too.
            for j in lo..=i + 1 {
                let suffix: String = tokens[j..=i].iter().collect();
                assert_eq!(
                    w.suffix_member(j as u64),
                    e.recognize_str(&suffix),
                    "suffix {suffix:?}"
                );
            }
        }
        assert_eq!(w.base(), 12);
        assert_eq!(w.total(), 16);
    }

    #[test]
    fn eviction_bounds_chart_size() {
        let g = dyck();
        let mut w = WindowParser::new(Arc::clone(&g), 8);
        let mut peak = 0;
        for i in 0..200 {
            let c = if i % 2 == 0 { 'a' } else { 'b' };
            w.push(g.terminal_of(c).unwrap());
            peak = peak.max(w.cell_count());
        }
        assert!(w.window_len() <= 8);
        // Cells stay window-bounded; a growing chart would be ~200 sets.
        assert!(peak < 2_000, "cells {peak} not window-bounded");
    }

    #[test]
    fn suffix_counts_include_the_empty_suffix_iff_nullable() {
        let g = dyck();
        let mut w = WindowParser::new(Arc::clone(&g), 4);
        assert_eq!(w.suffix_match_count(), 1, "empty suffix of empty window");
        for c in "abab".chars() {
            w.push(g.terminal_of(c).unwrap());
        }
        // Suffixes: "abab" ✓, "bab" ✗, "ab" ✓, "b" ✗, "" ✓.
        assert_eq!(w.suffix_match_count(), 3);

        // A non-nullable grammar: the empty suffix never counts.
        let g2 = Arc::new(parse_grammar("S -> a S | b").unwrap());
        let mut w2 = WindowParser::new(Arc::clone(&g2), 4);
        assert_eq!(w2.suffix_match_count(), 0);
        for c in "aab".chars() {
            w2.push(g2.terminal_of(c).unwrap());
        }
        // Suffixes: "aab" ✓, "ab" ✓, "b" ✓, "" ✗.
        assert_eq!(w2.suffix_match_count(), 3);
    }

    #[test]
    fn capacity_one_window_tracks_single_letters() {
        let g2 = Arc::new(parse_grammar("S -> a S | b").unwrap());
        let mut w = WindowParser::new(Arc::clone(&g2), 1);
        w.push(g2.terminal_of('a').unwrap());
        assert!(!w.current_member());
        let evicted = w.push(g2.terminal_of('b').unwrap());
        assert_eq!(evicted, 1);
        assert!(w.current_member(), "window is exactly \"b\"");
    }
}
