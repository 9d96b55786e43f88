//! Property tests for the extension modules: regexes vs the Glushkov
//! construction, grammar combinators, semiring counting, parser
//! agreement, and the grammar text format. Runs on the in-tree
//! `ucfg_support::prop` harness.

use std::collections::BTreeSet;
use ucfg_automata::regex::Regex;
use ucfg_grammar::bignum::BigUint;
use ucfg_grammar::count::TreeCounter;
use ucfg_grammar::language::finite_language;
use ucfg_grammar::normal_form::CnfGrammar;
use ucfg_grammar::ops;
use ucfg_grammar::text::{parse_grammar, print_grammar};
use ucfg_grammar::weighted::{inside_at, Count, UnitWeights};
use ucfg_grammar::GrammarBuilder;
use ucfg_support::prop::Gen;
use ucfg_support::{prop_assert, prop_assert_eq, property};

// ---------- Random regexes vs the Glushkov automaton ----------

fn arb_regex_depth(g: &mut Gen, depth: usize) -> Regex {
    let leaf_only = depth == 0;
    let pick = if leaf_only {
        g.int_in(0usize..3)
    } else {
        g.int_in(0usize..6)
    };
    match pick {
        0 => Regex::Epsilon,
        1 => Regex::Letter('a'),
        2 => Regex::Letter('b'),
        3 => Regex::Concat(
            Box::new(arb_regex_depth(g, depth - 1)),
            Box::new(arb_regex_depth(g, depth - 1)),
        ),
        4 => Regex::Alt(
            Box::new(arb_regex_depth(g, depth - 1)),
            Box::new(arb_regex_depth(g, depth - 1)),
        ),
        _ => Regex::Star(Box::new(arb_regex_depth(g, depth - 1))),
    }
}

fn arb_regex(g: &mut Gen) -> Regex {
    // Size scales the recursion depth, mirroring proptest's `prop_recursive`.
    let depth = (3.0 * g.size()).ceil() as usize;
    arb_regex_depth(g, depth)
}

property! {
    cases = 48;
    fn glushkov_matches_backtracking_oracle(r in arb_regex) {
        let nfa = r.glushkov();
        for len in 0..=5usize {
            for mask in 0..(1u32 << len) {
                let w: String = (0..len)
                    .map(|i| if mask >> i & 1 == 1 { 'a' } else { 'b' })
                    .collect();
                prop_assert_eq!(nfa.accepts(&w), r.matches(&w), "{:?} on {}", r, w);
            }
        }
    }
}

// ---------- Grammar combinators ----------

fn arb_words(g: &mut Gen) -> Vec<String> {
    g.btree_set_of(1..5, |g| g.string_of(&['a', 'b'], 1..=4))
        .into_iter()
        .collect()
}

fn literal_grammar(words: &[String]) -> ucfg_grammar::Grammar {
    let mut b = GrammarBuilder::new(&['a', 'b']);
    let s = b.nonterminal("S");
    for w in words {
        b.rule(s, |r| r.ts(w));
    }
    b.build(s)
}

property! {
    cases = 48;
    fn union_concat_reverse_semantics(w1 in arb_words, w2 in arb_words) {
        let g1 = literal_grammar(&w1);
        let g2 = literal_grammar(&w2);
        let s1: BTreeSet<String> = w1.iter().cloned().collect();
        let s2: BTreeSet<String> = w2.iter().cloned().collect();

        let u = finite_language(&ops::union(&g1, &g2)).unwrap();
        let expect: BTreeSet<String> = s1.union(&s2).cloned().collect();
        prop_assert_eq!(u, expect);

        let c = finite_language(&ops::concat(&g1, &g2)).unwrap();
        let expect: BTreeSet<String> =
            s1.iter().flat_map(|a| s2.iter().map(move |b| format!("{a}{b}"))).collect();
        prop_assert_eq!(c, expect);

        let r = finite_language(&ops::reverse(&g1)).unwrap();
        let expect: BTreeSet<String> =
            s1.iter().map(|w| w.chars().rev().collect()).collect();
        prop_assert_eq!(r, expect);
    }

    cases = 48;
    fn semiring_count_equals_tree_counts(w1 in arb_words) {
        let g = literal_grammar(&w1);
        let cnf = CnfGrammar::from_grammar(&g);
        let counter = TreeCounter::new(&g).unwrap();
        // Sum over every length: Σ_w #trees(w) via both routes.
        for len in 1..=4usize {
            let Count(via_semiring) = inside_at(&cnf, &UnitWeights, len);
            let via_counter: BigUint = w1
                .iter()
                .filter(|w| w.chars().count() == len)
                .map(|w| counter.count_str(w))
                .sum();
            prop_assert_eq!(via_semiring, via_counter, "len {}", len);
        }
    }

    cases = 48;
    fn text_format_roundtrip(w1 in arb_words) {
        let g = literal_grammar(&w1);
        let printed = print_grammar(&g);
        let back = parse_grammar(&printed).unwrap();
        prop_assert_eq!(finite_language(&back), finite_language(&g));
    }
}

// ---------- Parser agreement on random grammars ----------

property! {
    cases = 48;
    fn earley_cyk_and_membership_agree(
        w1 in arb_words,
        probe in |g: &mut Gen| g.string_of(&['a', 'b'], 0..=5),
    ) {
        use ucfg_grammar::cyk;
        use ucfg_grammar::earley::Earley;
        let g = literal_grammar(&w1);
        let cnf = CnfGrammar::from_grammar(&g);
        let earley = Earley::new(&g);
        let in_set = w1.iter().any(|w| w == &probe);
        prop_assert_eq!(earley.recognize_str(&probe), in_set);
        if let Some(encoded) = cnf.encode(&probe) {
            prop_assert_eq!(cyk::recognize(&cnf, &encoded), in_set);
        }
    }

    cases = 48;
    fn lint_clean_iff_trim_stable_on_literals(w1 in arb_words) {
        use ucfg_grammar::lint::{has_warnings, lint};
        // Literal grammars from distinct words are always lint-clean.
        let g = literal_grammar(&w1);
        let findings = lint(&g);
        prop_assert!(!has_warnings(&findings), "{:?}", findings);
    }
}

// ---------- Proposition 7 on random unambiguous grammars ----------

property! {
    cases = 32;
    fn extraction_on_random_fixed_length_word_sets(
        set in |g: &mut Gen| g.btree_set_of(1..14, |g| g.string_of(&['a', 'b'], 4..=4)),
    ) {
        use ucfg_core::extract::extract_cover;
        let words: Vec<String> = set.iter().cloned().collect();
        let g = literal_grammar(&words);
        // Distinct literal alternatives → unambiguous.
        let cnf = CnfGrammar::from_grammar(&g);
        let res = extract_cover(&cnf, 4).unwrap();
        prop_assert_eq!(res.covered_words(), set.clone());
        prop_assert!(res.is_disjoint(), "uCFG extraction must be disjoint");
        prop_assert!(res.all_balanced());
        prop_assert!(res.rectangles.len() <= res.bound);
    }
}

// ---------- The L_n protocol view ----------

property! {
    cases = 16;
    fn example8_protocol_certificates_count_witnesses(
        n in |g: &mut Gen| g.int_in(3usize..=5),
    ) {
        use ucfg_core::comm::NondetProtocol;
        use ucfg_core::cover::example8_cover;
        use ucfg_core::words;
        let p = NondetProtocol::from_cover(example8_cover(n));
        // Certificates of w = witnessing pairs of w.
        for w in 0..(1u64 << (2 * n)) {
            prop_assert_eq!(
                p.certificate_count(w) as u32,
                words::witness_count(n, w)
            );
        }
    }
}
