//! Differential property tests for the streaming subsystem.
//!
//! The streaming parsers drive `ucfg_grammar::earley::Chart` through
//! append/truncate/evict deltas; these tests pin them to from-scratch
//! parses on random general grammars and random streams. The membership
//! oracle is the scalar CYK fill over the grammar's CNF — a different
//! algorithm from the Earley chart under test:
//!
//! * a chart grown by k appends is *identical* (same items at every
//!   position, same cell count) to the chart a fresh parse of the same
//!   tokens builds, and agrees with CYK on membership at every prefix;
//! * truncate/rewind round-trips land on the checkpointed chart
//!   fingerprint exactly, no matter what streamed in between;
//! * sliding-window membership, suffix counts, and `CFG ∩ regex` match
//!   counts agree with brute-force CYK parses of every window suffix;
//! * everything above is bit-identical across `par` thread counts
//!   1 / 2 / 8 — the streaming layer is deterministic under the same
//!   knob the serve matrix varies.

use std::sync::Arc;
use ucfg_automata::dfa::Dfa;
use ucfg_automata::regex::Regex;
use ucfg_grammar::cyk::CykChart;
use ucfg_grammar::{CnfGrammar, Grammar, GrammarBuilder, NonTerminal, Symbol, Terminal};
use ucfg_stream::{ProductQuery, StreamParser, StreamSession, WindowParser};
use ucfg_support::prop::Gen;
use ucfg_support::rng::Rng;
use ucfg_support::{par, prop_assert, prop_assert_eq, property};

const ALPHABET: [char; 2] = ['a', 'b'];

/// Regex pool for the product layer; all parse, some are empty against
/// many random grammars (both emptiness verdicts get exercised).
const REGEXES: [&str; 5] = ["a(a|b)*b", "(ab)*", "a*", "b(a|b)?", "(a|b)(a|b)*"];

/// A random general grammar: bodies of length 0..=3 mixing terminals
/// and non-terminals, so ε-rules, unit rules, and useless symbols all
/// occur (same shape as the grammar crate's own differential suite).
fn rand_grammar(g: &mut Gen) -> Arc<Grammar> {
    let nts = g.int_in(1usize..=4);
    let mut b = GrammarBuilder::new(&ALPHABET);
    let ids: Vec<NonTerminal> = (0..nts).map(|i| b.nonterminal(&format!("N{i}"))).collect();
    let rules = g.int_in(1usize..=(2 * nts + 3));
    for _ in 0..rules {
        let lhs = *g.choice(&ids);
        let body_len = g.int_in(0usize..=3);
        let rhs: Vec<Symbol> = (0..body_len)
            .map(|_| {
                if g.bool() {
                    Symbol::T(Terminal(g.rng().random_range(0..2u16)))
                } else {
                    Symbol::N(*g.choice(&ids))
                }
            })
            .collect();
        b.raw_rule(lhs, rhs);
    }
    Arc::new(b.build(ids[0]))
}

/// Is `word` in the language of `cnf`? The scalar CYK fill answers
/// non-empty words; the CNF's empty-word flag answers the empty one.
fn cyk_member(cnf: &CnfGrammar, word: &[Terminal]) -> bool {
    if word.is_empty() {
        cnf.accepts_epsilon()
    } else {
        CykChart::build_scalar(cnf, word).accepted()
    }
}

/// A random token stream over {a, b}, length 0..=12.
fn rand_stream(g: &mut Gen) -> Vec<Terminal> {
    g.vec_of(0..13, |g| Terminal(g.rng().random_range(0..2u16)))
}

/// A random append/truncate edit script. Each step either appends a
/// token or rewinds to a random earlier position.
#[derive(Debug, Clone)]
enum Edit {
    Append(Terminal),
    TruncateTo(u64),
}

fn rand_edits(g: &mut Gen) -> Vec<Edit> {
    g.vec_of(1..16, |g| {
        if g.rng().random_range(0..4u32) == 0 {
            // Interpreted modulo the current length at replay time.
            Edit::TruncateTo(g.rng().random_range(0..16u64))
        } else {
            Edit::Append(Terminal(g.rng().random_range(0..2u16)))
        }
    })
}

property! {
    cases = 96;
    /// k appends build the same chart a from-scratch parse builds, and
    /// agree with CYK membership at every prefix.
    fn appends_equal_full_reparse(
        g in rand_grammar,
        stream in rand_stream,
    ) {
        let cnf = CnfGrammar::from_grammar(&g);
        let mut p = StreamParser::new(Arc::clone(&g));
        prop_assert_eq!(p.accepted(), cnf.accepts_epsilon(), "empty prefix");
        for (i, &t) in stream.iter().enumerate() {
            p.append(t);
            prop_assert_eq!(
                p.accepted(),
                cyk_member(&cnf, &stream[..=i]),
                "prefix of length {}",
                i + 1
            );
            let mut fresh = StreamParser::new(Arc::clone(&g));
            for &t in &stream[..=i] {
                fresh.append(t);
            }
            prop_assert_eq!(p.fingerprint(), fresh.fingerprint());
            prop_assert_eq!(p.cell_count(), fresh.cell_count());
        }
    }

    cases = 96;
    /// Any append/truncate script is equivalent to a fresh parse of the
    /// surviving tokens, and a checkpoint taken anywhere restores the
    /// exact chart fingerprint.
    fn edit_scripts_equal_replay(
        g in rand_grammar,
        edits in rand_edits,
    ) {
        let mut p = StreamParser::new(Arc::clone(&g));
        let mut shadow: Vec<Terminal> = Vec::new();
        let cp = p.checkpoint();
        let cp_fp = p.fingerprint();
        for e in &edits {
            match e {
                Edit::Append(t) => {
                    p.append(*t);
                    shadow.push(*t);
                }
                Edit::TruncateTo(raw) => {
                    let to = if shadow.is_empty() { 0 } else { raw % (shadow.len() as u64 + 1) };
                    p.truncate(ucfg_stream::Checkpoint(to)).unwrap();
                    shadow.truncate(to as usize);
                }
            }
            let mut fresh = StreamParser::new(Arc::clone(&g));
            for &t in &shadow {
                fresh.append(t);
            }
            prop_assert_eq!(p.fingerprint(), fresh.fingerprint(), "after {:?}", e);
        }
        // Rewinding all the way back restores the initial chart.
        p.truncate(cp).unwrap();
        prop_assert_eq!(p.fingerprint(), cp_fp);
        prop_assert!(p.is_empty());
    }

    cases = 64;
    /// Sliding-window membership, suffix counts, and product-query match
    /// counts agree with brute-force CYK parses at every slide.
    fn window_and_product_equal_brute_force(
        g in rand_grammar,
        stream in rand_stream,
        cap in |g: &mut Gen| g.int_in(1usize..=5),
        ri in |g: &mut Gen| g.int_in(0usize..REGEXES.len()),
    ) {
        let cnf = CnfGrammar::from_grammar(&g);
        let regex = REGEXES[ri];
        let dfa = Dfa::from_nfa(&Regex::parse(regex).unwrap().glushkov());
        let mut w = WindowParser::new(Arc::clone(&g), cap);
        let mut q = ProductQuery::compile(&g, regex).unwrap();
        for (i, &t) in stream.iter().enumerate() {
            w.push(t);
            q.push(t);
            q.sync(&w);
            let lo = (i + 1).saturating_sub(cap);
            let mut suffix_members = 0usize;
            let mut product_matches = 0usize;
            for j in lo..=i + 1 {
                let suffix = &stream[j..=i];
                let member = cyk_member(&cnf, suffix);
                prop_assert_eq!(w.suffix_member(j as u64), member, "suffix at {j}");
                suffix_members += usize::from(member);
                let text: String = suffix.iter().map(|&t| ALPHABET[t.index()]).collect();
                product_matches += usize::from(member && dfa.accepts(&text));
            }
            prop_assert_eq!(w.suffix_match_count(), suffix_members);
            prop_assert_eq!(q.window_matches(&w), product_matches);
            prop_assert_eq!(w.current_member(), cyk_member(&cnf, &stream[lo..=i]));
        }
    }
}

/// The whole streaming layer is deterministic across `par` thread
/// counts: identical fingerprints and identical session reports at
/// 1, 2, and 8 threads (the axis the serve CI matrix varies).
#[test]
fn results_are_identical_across_thread_counts() {
    let mut outcomes: Vec<(u64, String)> = Vec::new();
    for threads in [1usize, 2, 8] {
        par::set_thread_count(threads);
        let mut g = Gen::new(0x5eed_1e55, 1.0);
        let grammar = rand_grammar(&mut g);
        let stream = rand_stream(&mut g);
        let mut s = StreamSession::open(Arc::clone(&grammar), 4, Some("a(a|b)*b"), "dt").unwrap();
        let text: String = stream.iter().map(|&t| ALPHABET[t.index()]).collect();
        s.feed(&text).unwrap();
        let q = s.query();
        let mut p = StreamParser::new(Arc::clone(&grammar));
        for &t in &stream {
            p.append(t);
        }
        outcomes.push((p.fingerprint(), format!("{q:?}")));
    }
    par::set_thread_count(1);
    assert_eq!(outcomes[0], outcomes[1], "1 vs 2 threads");
    assert_eq!(outcomes[0], outcomes[2], "1 vs 8 threads");
}
