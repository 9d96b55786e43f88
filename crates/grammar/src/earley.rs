//! Earley recognition for arbitrary grammars, batch and incremental.
//!
//! Used as an independent membership oracle: it works directly on non-CNF
//! grammars (e.g. the Appendix A grammar with its long rule bodies), so it
//! cross-checks both the CNF conversion and the CYK chart.
//!
//! There is one engine, the growable [`Chart`]. [`Earley::recognize`]
//! appends every token of a word to a fresh chart and tests the newest
//! set; the streaming parsers in `ucfg-stream` keep a chart alive and
//! append, rewind or slide it as tokens arrive.
//!
//! The chart exploits a locality property of Earley's algorithm:
//! processing chart set `k` only ever *writes* into set `k` (predict,
//! complete) and set `k + 1` (scan), and only ever *reads* sets `≤ k`.
//! Once a set is closed under predict/complete it is final — appending a
//! token never revisits it. That makes three operations cheap:
//!
//! * **append** — scan the last closed set into a fresh set, then close
//!   the new set; every earlier set is reused verbatim;
//! * **truncate** — drop the suffix of sets/tokens; the kept prefix is
//!   already final, so rewinding is a pair of `truncate` calls;
//! * **evict** — drop the *front* of the chart (sliding windows). Items
//!   whose origin predates the new base form a closed ecosystem: their
//!   completions only advance waiters in dropped sets, so discarding
//!   them cannot change any item whose origin survives.

use crate::analysis::nullable;
use crate::cfg::Grammar;
use crate::symbol::{Symbol, Terminal};
use std::borrow::Borrow;
use std::collections::{HashSet, VecDeque};
use ucfg_support::fnv::Fnv1a;

/// An Earley item: rule `rule` with the dot before position `dot`,
/// started at **absolute** input position `origin` (absolute so that
/// window eviction never has to rewrite surviving items).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
struct Item {
    rule: u32,
    dot: u32,
    origin: u64,
}

/// One Earley set: its items in insertion order, plus a membership
/// index so each item enters once.
#[derive(Default)]
struct Set {
    items: Vec<Item>,
    seen: HashSet<Item>,
}

impl Set {
    fn add(&mut self, it: Item) {
        if self.seen.insert(it) {
            self.items.push(it);
        }
    }
}

/// A growable Earley chart over any handle to a grammar (`&Grammar`,
/// `Arc<Grammar>`, …).
///
/// `sets[i]` is the Earley set at absolute position `base + i`, and
/// token `i` sits between sets `i` and `i + 1`. Every set is closed
/// under predict/complete at all times, so a chart grown by appends is
/// identical — same items, same per-set insertion order — to the chart a
/// from-scratch recognition of the same tokens builds.
///
/// ```
/// use ucfg_grammar::earley::Chart;
/// use ucfg_grammar::text::parse_grammar;
///
/// let g = parse_grammar("S -> a S b S | ()").unwrap();
/// let mut chart = Chart::new(&g, None, false);
/// for c in "aabb".chars() {
///     chart.append(g.terminal_of(c).unwrap());
/// }
/// assert!(chart.suffix_complete(0));
/// chart.truncate(3);
/// assert!(!chart.suffix_complete(0));
/// ```
pub struct Chart<G: Borrow<Grammar>> {
    g: G,
    nullable: Vec<bool>,
    /// Seed start-rule items at *every* position (sliding-window mode),
    /// not just position 0, so "does the suffix starting at j parse?"
    /// can be read off the newest set.
    all_starts: bool,
    /// Absolute position of `sets[0]`.
    base: u64,
    tokens: VecDeque<Terminal>,
    sets: VecDeque<Set>,
    /// Total live items across all sets.
    cells: u64,
}

impl<G: Borrow<Grammar>> Chart<G> {
    /// An empty chart at position 0 (set 0 seeded and closed).
    ///
    /// `nullable_table` is an optional precomputed `nullable(g)` (the
    /// "Earley table" an artifact cache stores alongside the grammar);
    /// `None` computes it. A mismatched table gives wrong answers, so it
    /// is checked by a debug assertion. With `all_starts`, start-rule
    /// items are seeded at every position, not just 0.
    pub fn new(g: G, nullable_table: Option<Vec<bool>>, all_starts: bool) -> Self {
        let nullable = match nullable_table {
            Some(table) => {
                debug_assert_eq!(table, nullable(g.borrow()), "nullable table mismatch");
                table
            }
            None => nullable(g.borrow()),
        };
        Self::with_table(g, nullable, all_starts)
    }

    /// [`Chart::new`] with a table already known to be `nullable(g)`.
    fn with_table(g: G, nullable: Vec<bool>, all_starts: bool) -> Self {
        let mut chart = Chart {
            g,
            nullable,
            all_starts,
            base: 0,
            tokens: VecDeque::new(),
            sets: VecDeque::new(),
            cells: 0,
        };
        let mut first = Set::default();
        chart.seed(&mut first, 0);
        chart.close_and_push(first, 0);
        chart
    }

    /// The grammar this chart parses against.
    pub fn grammar(&self) -> &G {
        &self.g
    }

    /// Absolute position of the oldest retained set.
    pub fn base(&self) -> u64 {
        self.base
    }

    /// Absolute position of the newest set (= total tokens ever
    /// appended minus those truncated away).
    pub fn total(&self) -> u64 {
        self.base + self.tokens.len() as u64
    }

    /// Retained tokens, oldest first.
    pub fn tokens(&self) -> impl Iterator<Item = Terminal> + '_ {
        self.tokens.iter().copied()
    }

    /// Number of retained tokens.
    pub fn len(&self) -> usize {
        self.tokens.len()
    }

    /// Are no tokens retained?
    pub fn is_empty(&self) -> bool {
        self.tokens.is_empty()
    }

    /// Total live chart items (all retained sets).
    pub fn cells(&self) -> u64 {
        self.cells
    }

    /// Seed start-rule items with origin `pos` into `set`.
    fn seed(&self, set: &mut Set, pos: u64) {
        let g = self.g.borrow();
        for &ri in &g.rules_by_lhs[g.start.index()] {
            set.add(Item {
                rule: ri as u32,
                dot: 0,
                origin: pos,
            });
        }
    }

    /// Close `set`, the new set at absolute position `pos = total()`,
    /// under predict and complete (scans are deferred to
    /// [`Chart::append`]), with the Aycock–Horspool nullable advance;
    /// then retain it as the newest set.
    fn close_and_push(&mut self, mut set: Set, pos: u64) {
        let g = self.g.borrow();
        let mut i = 0;
        while i < set.items.len() {
            let it = set.items[i];
            i += 1;
            let rule = &g.rules[it.rule as usize];
            if (it.dot as usize) < rule.rhs.len() {
                match rule.rhs[it.dot as usize] {
                    Symbol::N(b) => {
                        // Predict.
                        for &ri in &g.rules_by_lhs[b.index()] {
                            set.add(Item {
                                rule: ri as u32,
                                dot: 0,
                                origin: pos,
                            });
                        }
                        // Aycock–Horspool nullable fix: if b is
                        // nullable, advance over it immediately so
                        // late-predicted items are not missed by an
                        // already-processed completion.
                        if self.nullable[b.index()] {
                            set.add(Item {
                                dot: it.dot + 1,
                                ..it
                            });
                        }
                    }
                    // Scan waits for the next token.
                    Symbol::T(_) => {}
                }
            } else {
                // Complete. An origin that predates the window base
                // points at an evicted set; its waiters were evicted
                // with it and can only beget more pre-base items.
                if it.origin < self.base {
                    continue;
                }
                let waiters = if it.origin == pos {
                    &set.items
                } else {
                    &self.sets[(it.origin - self.base) as usize].items
                };
                let waiting_on = Symbol::N(rule.lhs);
                // Collect first: when `it.origin == pos` the waiters are
                // this very set, which grows as we add.
                let advanced: Vec<Item> = waiters
                    .iter()
                    .filter(|p| {
                        g.rules[p.rule as usize].rhs.get(p.dot as usize) == Some(&waiting_on)
                    })
                    .map(|p| Item {
                        dot: p.dot + 1,
                        ..*p
                    })
                    .collect();
                for p in advanced {
                    set.add(p);
                }
            }
        }
        self.cells += set.items.len() as u64;
        self.sets.push_back(set);
    }

    /// Append one token: scan the last closed set into a fresh set, seed
    /// it (all-starts mode), and close it. Every previously closed set
    /// is reused untouched.
    pub fn append(&mut self, t: Terminal) {
        let g = self.g.borrow();
        let mut next = Set::default();
        let last = self.sets.back().expect("chart has a newest set");
        for it in &last.items {
            if it.origin < self.base {
                continue; // stale pre-base item awaiting a prune
            }
            if g.rules[it.rule as usize].rhs.get(it.dot as usize) == Some(&Symbol::T(t)) {
                next.add(Item {
                    dot: it.dot + 1,
                    ..*it
                });
            }
        }
        self.tokens.push_back(t);
        let pos = self.total();
        if self.all_starts {
            self.seed(&mut next, pos);
        }
        self.close_and_push(next, pos);
    }

    /// Rewind to absolute position `to` (keep the first `to - base`
    /// retained tokens). The kept sets are final, so this is a pure
    /// truncation. Panics if `to` is outside `[base, total]` — callers
    /// validate.
    pub fn truncate(&mut self, to: u64) {
        assert!(
            to >= self.base && to <= self.total(),
            "truncate {to} outside [{}, {}]",
            self.base,
            self.total()
        );
        let keep = (to - self.base) as usize;
        self.tokens.truncate(keep);
        self.sets.truncate(keep + 1);
        self.cells = self.sets.iter().map(|set| set.items.len() as u64).sum();
    }

    /// Drop the oldest set and token, advancing the base by one. Stale
    /// items (origin < base) left in surviving sets are skipped by the
    /// scan/complete steps and removed by the next [`Chart::prune`].
    pub fn evict_front(&mut self) {
        debug_assert!(!self.tokens.is_empty(), "evicting an empty chart");
        let dropped = self.sets.pop_front().expect("non-empty chart");
        self.tokens.pop_front();
        self.cells -= dropped.items.len() as u64;
        self.base += 1;
    }

    /// Remove items whose origin predates the base from every retained
    /// set. Called periodically (amortised) by a sliding window so set
    /// sizes stay proportional to the window.
    pub fn prune(&mut self) {
        let base = self.base;
        for set in self.sets.iter_mut() {
            if set.items.iter().all(|it| it.origin >= base) {
                continue;
            }
            set.items.retain(|it| it.origin >= base);
            set.seen.retain(|it| it.origin >= base);
        }
        self.cells = self.sets.iter().map(|set| set.items.len() as u64).sum();
    }

    /// Is there a complete start-rule item with origin `j` in the newest
    /// set — i.e. does `tokens[j..total]` belong to the language?
    pub fn suffix_complete(&self, j: u64) -> bool {
        let g = self.g.borrow();
        let newest = self.sets.back().expect("chart has a newest set");
        newest.items.iter().any(|it| {
            let r = &g.rules[it.rule as usize];
            r.lhs == g.start && it.origin == j && it.dot as usize == r.rhs.len()
        })
    }

    /// An order-insensitive digest of the retained chart: base, tokens,
    /// and every set as a sorted item list. Two charts with equal
    /// fingerprints hold identical item sets at identical positions.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        h.write_u64(self.base)
            .write_usize(self.tokens.len())
            .write_u8(u8::from(self.all_starts));
        for t in &self.tokens {
            h.write_u64(t.index() as u64);
        }
        for set in &self.sets {
            let mut items: Vec<Item> = set.items.clone();
            items.sort_unstable();
            h.write_usize(items.len());
            for it in items {
                h.write_u64(u64::from(it.rule))
                    .write_u64(u64::from(it.dot))
                    .write_u64(it.origin);
            }
        }
        h.finish()
    }
}

/// Earley recogniser: a [`Chart`] at position 0 per word.
pub struct Earley<'g> {
    g: &'g Grammar,
    nullable: Vec<bool>,
}

impl<'g> Earley<'g> {
    /// Wrap a grammar for recognition.
    pub fn new(g: &'g Grammar) -> Self {
        Self::with_nullable(g, nullable(g))
    }

    /// Wrap a grammar with a precomputed nullable table (the "Earley
    /// table" an artifact cache stores alongside the grammar), skipping
    /// the per-construction [`nullable`] fixpoint.
    ///
    /// `precomputed` must be `nullable(g)` for this exact grammar; a
    /// mismatched table gives wrong answers, so this is checked by a
    /// debug assertion.
    pub fn with_nullable(g: &'g Grammar, precomputed: Vec<bool>) -> Self {
        debug_assert_eq!(precomputed, nullable(g), "nullable table mismatch");
        Earley {
            g,
            nullable: precomputed,
        }
    }

    /// Is `word ∈ L(G)`?
    pub fn recognize(&self, word: &[Terminal]) -> bool {
        let mut chart = Chart::with_table(self.g, self.nullable.clone(), false);
        chart.tokens.reserve(word.len());
        chart.sets.reserve(word.len());
        for &t in word {
            chart.append(t);
        }
        chart.suffix_complete(0)
    }

    /// Recognise a `&str` (must be over the grammar's alphabet).
    pub fn recognize_str(&self, w: &str) -> bool {
        match self.g.encode(w) {
            Some(word) => self.recognize(&word),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GrammarBuilder;

    #[test]
    fn recognizes_regular_language() {
        // S → a S | b : a*b
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s));
        b.rule(s, |r| r.t('b'));
        let g = b.build(s);
        let e = Earley::new(&g);
        assert!(e.recognize_str("b"));
        assert!(e.recognize_str("aaab"));
        assert!(!e.recognize_str("ba"));
        assert!(!e.recognize_str(""));
        assert!(!e.recognize_str("abc")); // foreign letter
    }

    #[test]
    fn recognizes_dyck_like() {
        // S → a S b S | ε  over {a,b} = balanced with a=( and b=).
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s).t('b').n(s));
        b.epsilon_rule(s);
        let g = b.build(s);
        let e = Earley::new(&g);
        for w in ["", "ab", "aabb", "abab", "aababb"] {
            assert!(e.recognize_str(w), "{w}");
        }
        for w in ["a", "ba", "abb", "aab"] {
            assert!(!e.recognize_str(w), "{w}");
        }
    }

    #[test]
    fn handles_long_bodies_without_cnf() {
        // S → a B b a ; B → b | a a
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let bb = b.nonterminal("B");
        b.rule(s, |r| r.t('a').n(bb).t('b').t('a'));
        b.rule(bb, |r| r.t('b'));
        b.rule(bb, |r| r.ts("aa"));
        let g = b.build(s);
        let e = Earley::new(&g);
        assert!(e.recognize_str("abba"));
        assert!(e.recognize_str("aaaba"));
        assert!(!e.recognize_str("abab"));
    }

    #[test]
    fn nullable_chains() {
        // S → A A a ; A → ε : language {a}
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a).t('a'));
        b.epsilon_rule(a);
        let g = b.build(s);
        let e = Earley::new(&g);
        assert!(e.recognize_str("a"));
        assert!(!e.recognize_str(""));
        assert!(!e.recognize_str("aa"));
    }

    #[test]
    fn with_nullable_matches_new() {
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s).t('b').n(s));
        b.epsilon_rule(s);
        let g = b.build(s);
        let table = crate::analysis::nullable(&g);
        let e = Earley::with_nullable(&g, table);
        assert!(e.recognize_str("aabb"));
        assert!(!e.recognize_str("ba"));
    }

    #[test]
    fn chart_handles_agree_and_rewind() {
        // The same chart over `&Grammar` and `Arc<Grammar>`, with and
        // without a precomputed table; a truncate followed by appends
        // lands on the chart a fresh parse builds.
        let g = crate::text::parse_grammar("S -> a S b S | ()").unwrap();
        let shared = std::sync::Arc::new(g.clone());
        let word = g.encode("abaabb").unwrap();
        let mut borrowed = Chart::new(&g, Some(crate::analysis::nullable(&g)), false);
        let mut owned = Chart::new(shared, None, false);
        for &t in &word {
            borrowed.append(t);
            owned.append(t);
        }
        assert!(borrowed.suffix_complete(0));
        assert_eq!(borrowed.fingerprint(), owned.fingerprint());
        assert_eq!(borrowed.cells(), owned.cells());

        owned.truncate(2);
        owned.append(g.terminal_of('b').unwrap());
        let mut fresh = Chart::new(&g, None, false);
        for c in "abb".chars() {
            fresh.append(g.terminal_of(c).unwrap());
        }
        assert_eq!(owned.fingerprint(), fresh.fingerprint());
        assert!(!owned.suffix_complete(0));
    }

    #[test]
    fn unit_cycles_terminate() {
        // S → A, A → S | a.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a));
        b.rule(a, |r| r.n(s));
        b.rule(a, |r| r.t('a'));
        let g = b.build(s);
        let e = Earley::new(&g);
        assert!(e.recognize_str("a"));
        assert!(!e.recognize_str("aa"));
    }
}
