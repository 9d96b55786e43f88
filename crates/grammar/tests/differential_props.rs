//! Differential property tests across the crate's independent parsers.
//!
//! Three recognisers/counters exist with no shared kernel code: the
//! bitset CYK fill, the scalar reference CYK fill, and the Earley
//! recogniser (which works on arbitrary grammars, not just CNF). On
//! random CNF grammars and random words they must agree bit for bit —
//! membership, per-span chart contents, and exact parse-tree counts —
//! and on random *general* grammars Earley must agree with CYK through
//! the CNF conversion. Any divergence is a real bug in one of the
//! kernels, which is exactly what the serve daemon's `"check": true`
//! cross-check relies on.

use ucfg_grammar::count::TreeCounter;
use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
use ucfg_grammar::earley::Earley;
use ucfg_grammar::language::language_up_to;
use ucfg_grammar::{BigUint, CnfGrammar, Grammar, GrammarBuilder, NonTerminal, Symbol, Terminal};
use ucfg_support::prop::Gen;
use ucfg_support::rng::Rng;
use ucfg_support::{prop_assert, prop_assert_eq, property};

const ALPHABET: [char; 2] = ['a', 'b'];

/// A random CNF grammar: up to 5 non-terminals over {a, b}, random
/// terminal and binary rules (deduplicated so rule multiplicity never
/// muddies tree counts), random ε acceptance. Sparse enough that empty
/// and infinite languages both occur.
fn rand_cnf(g: &mut Gen) -> CnfGrammar {
    let nts = g.int_in(1usize..=5);
    let names = (0..nts).map(|i| format!("N{i}")).collect();
    let nt = |g: &mut Gen, nts: usize| NonTerminal(g.rng().random_range(0..nts as u32));
    let mut term_rules: Vec<(NonTerminal, Terminal)> = g.vec_of(0..(2 * nts + 2), |g| {
        (nt(g, nts), Terminal(g.rng().random_range(0..2u16)))
    });
    term_rules.sort();
    term_rules.dedup();
    let mut bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)> =
        g.vec_of(0..(3 * nts + 2), |g| (nt(g, nts), nt(g, nts), nt(g, nts)));
    bin_rules.sort();
    bin_rules.dedup();
    CnfGrammar::from_rules(
        ALPHABET.to_vec(),
        names,
        NonTerminal(0),
        g.bool(),
        term_rules,
        bin_rules,
    )
}

/// A random *wide* CNF grammar: 65–300 non-terminals, so every chart
/// cell spans several 64-bit words. A few left children get right-child
/// sets spread over every block, and each `(B, C)` pair gets up to four
/// heads, so the block-sparse rule index sees multi-block right sets,
/// multi-head pairs and heads in several blocks. The start symbol is
/// over-represented among heads so some words are accepted.
fn rand_wide_cnf(g: &mut Gen) -> CnfGrammar {
    let nts = g.int_in(65usize..=300);
    let blocks = nts.div_ceil(64);
    let names = (0..nts).map(|i| format!("N{i}")).collect();
    let nt = |g: &mut Gen| NonTerminal(g.rng().random_range(0..nts as u32));
    let mut term_rules = Vec::new();
    for a in 0..nts as u32 {
        for t in 0..2u16 {
            if g.rng().random_range(0..3u32) == 0 {
                term_rules.push((NonTerminal(a), Terminal(t)));
            }
        }
    }
    let mut bin_rules = Vec::new();
    for _ in 0..g.int_in(4usize..=12) {
        let b = nt(g);
        for block in 0..blocks {
            let width = (nts - block * 64).min(64) as u32;
            for _ in 0..g.int_in(0usize..=3) {
                let c = NonTerminal(block as u32 * 64 + g.rng().random_range(0..width));
                for _ in 0..g.int_in(1usize..=4) {
                    let a = if g.rng().random_range(0..4u32) == 0 {
                        NonTerminal(0)
                    } else {
                        nt(g)
                    };
                    bin_rules.push((a, b, c));
                }
            }
        }
    }
    term_rules.sort();
    bin_rules.sort();
    bin_rules.dedup();
    CnfGrammar::from_rules(
        ALPHABET.to_vec(),
        names,
        NonTerminal(0),
        false,
        term_rules,
        bin_rules,
    )
}

/// A random word over {a, b} as terminal ids, length 0..=7.
fn rand_word(g: &mut Gen) -> Vec<Terminal> {
    g.vec_of(0..8, |g| Terminal(g.rng().random_range(0..2u16)))
}

/// A random *general* grammar: bodies of length 0..=3 mixing terminals
/// and non-terminals freely, so ε-rules, unit rules, and useless
/// non-terminals all occur and the CNF conversion is genuinely
/// exercised.
fn rand_general(g: &mut Gen) -> Grammar {
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
    b.build(ids[0])
}

property! {
    cases = 128;
    /// Bitset CYK, scalar CYK, and Earley agree on membership — and the
    /// two CYK fills agree on every chart cell, not just acceptance.
    fn membership_kernels_agree(
        cnf in rand_cnf,
        word in rand_word,
    ) {
        let bitset = CykChart::build(&cnf, &word);
        let scalar = CykChart::build_scalar(&cnf, &word);
        prop_assert_eq!(bitset.accepted(), scalar.accepted());
        for len in 1..=word.len() {
            for i in 0..=word.len() - len {
                prop_assert_eq!(
                    bitset.nonterminals_at(i, len),
                    scalar.nonterminals_at(i, len),
                    "cell ({i}, {len}) diverges on {}",
                    cnf.decode(&word)
                );
            }
        }
        // `to_grammar` documents that the ε-flag is dropped, so Earley
        // sees the ε-free language; ε itself is answered by the flag.
        if word.is_empty() {
            prop_assert_eq!(bitset.accepted(), cnf.accepts_epsilon());
        } else {
            let g = cnf.to_grammar();
            prop_assert_eq!(
                Earley::new(&g).recognize(&word),
                bitset.accepted(),
                "Earley vs CYK on {:?}",
                cnf.decode(&word)
            );
        }
    }

    cases = 128;
    /// Exact parse-tree counts agree between the two CYK fills, match
    /// acceptance, and — when the language is finite — match the
    /// independent `TreeCounter` recurrence on the un-converted grammar.
    fn parse_counts_agree(
        cnf in rand_cnf,
        word in rand_word,
    ) {
        let n_bitset = CykChart::build(&cnf, &word).count_trees();
        let n_scalar = CykChart::build_scalar(&cnf, &word).count_trees();
        prop_assert_eq!(&n_bitset, &n_scalar);
        prop_assert_eq!(
            n_bitset.is_zero(),
            !CykChart::build(&cnf, &word).accepted(),
            "count {} vs membership on {:?}",
            n_bitset,
            cnf.decode(&word)
        );
        // CNF ⊂ general grammars, so the CNF rules *are* a grammar the
        // length-indexed TreeCounter recurrence runs on directly — an
        // algorithmically unrelated count. (ε is represented as a flag in
        // CNF but a rule in the grammar view, so compare nonempty words.)
        if !word.is_empty() {
            if let Ok(counter) = TreeCounter::new(&cnf.to_grammar()) {
                prop_assert_eq!(
                    counter.count(&word),
                    n_bitset,
                    "TreeCounter vs CYK on {:?}",
                    cnf.decode(&word)
                );
            }
        }
    }

    cases = 64;
    /// On wide grammars (several words per cell) the block-sparse index
    /// fill agrees with the scalar reference on every chart cell and on
    /// the exact tree count.
    fn wide_index_fill_matches_scalar(
        cnf in rand_wide_cnf,
        word in rand_word,
    ) {
        prop_assert!(cnf.nonterminal_count() > 64);
        let index = CykRuleIndex::new(&cnf);
        let fast = CykChart::build_with_index(&cnf, &index, &word);
        let scalar = CykChart::build_scalar(&cnf, &word);
        for len in 1..=word.len() {
            for i in 0..=word.len() - len {
                prop_assert_eq!(
                    fast.nonterminals_at(i, len),
                    scalar.nonterminals_at(i, len),
                    "cell ({i}, {len}) diverges on {}",
                    cnf.decode(&word)
                );
            }
        }
        prop_assert_eq!(fast.accepted(), scalar.accepted());
        prop_assert_eq!(fast.count_trees(), scalar.count_trees());
    }

    cases = 96;
    /// Membership survives the CNF conversion: Earley on a random
    /// general grammar (ε-rules, unit rules and all) agrees with CYK on
    /// `CnfGrammar::from_grammar` for every word — including ε, where
    /// CYK answers via the `accepts_epsilon` flag.
    fn conversion_preserves_membership(
        g in rand_general,
        word in rand_word,
    ) {
        let earley = Earley::new(&g);
        let cnf = CnfGrammar::from_grammar(&g);
        prop_assert_eq!(
            earley.recognize(&word),
            CykChart::build(&cnf, &word).accepted(),
            "Earley on the original vs CYK on the CNF of\n{}on {:?}",
            g.pretty(),
            g.decode(&word)
        );
    }

    cases = 48;
    /// Positive coverage: every enumerated language word up to length 4
    /// is accepted by all kernels with a nonzero count. (Random words
    /// alone under-sample sparse languages.)
    fn enumerated_words_are_members(cnf in rand_cnf) {
        for word in language_up_to(&cnf, 4) {
            let chart = CykChart::build(&cnf, &word);
            prop_assert!(
                chart.accepted(),
                "enumerated word {:?} rejected by the bitset kernel",
                cnf.decode(&word)
            );
            prop_assert!(!chart.count_trees().is_zero());
            prop_assert!(CykChart::build_scalar(&cnf, &word).accepted());
            if !word.is_empty() {
                // ε lives in the CNF flag, which `to_grammar` drops.
                let g = cnf.to_grammar();
                prop_assert!(Earley::new(&g).recognize(&word));
            }
        }
    }
}

/// Counts are exercised above only when random draws hit the language;
/// pin one deterministic ambiguous case end to end so the property
/// suite can never silently degrade to vacuous agreement on zeros.
#[test]
fn pinned_ambiguous_counts() {
    let cnf = CnfGrammar::from_rules(
        ALPHABET.to_vec(),
        vec!["S".into()],
        NonTerminal(0),
        false,
        vec![(NonTerminal(0), Terminal(0))],
        vec![(NonTerminal(0), NonTerminal(0), NonTerminal(0))],
    );
    // Catalan numbers: 1, 1, 2, 5, 14 trees for a^1 .. a^5.
    for (len, expect) in [(1u64, 1u64), (2, 1), (3, 2), (4, 5), (5, 14)] {
        let word = vec![Terminal(0); len as usize];
        let n = CykChart::build(&cnf, &word).count_trees();
        assert_eq!(n, BigUint::from_u64(expect), "a^{len}");
        assert_eq!(CykChart::build_scalar(&cnf, &word).count_trees(), n);
    }
}
