//! Parsing benches: membership and parse-forest work on the paper's
//! grammars and automata (experiments F1/T1/T2 timing side).

use std::hint::black_box;
use ucfg_automata::ln_nfa::{exact_nfa, pattern_nfa};
use ucfg_core::ln_grammars::{appendix_a_grammar, example4_ucfg};
use ucfg_core::words;
use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
use ucfg_grammar::earley::Earley;
use ucfg_grammar::normal_form::CnfGrammar;
use ucfg_grammar::parse_tree::FixedLenParser;
use ucfg_support::bench::{Options, Suite};

fn some_words(n: usize, how_many: usize) -> Vec<String> {
    // Deterministic mix of members and non-members of L_n.
    (0..how_many as u64)
        .map(|i| {
            words::to_string(
                n,
                i.wrapping_mul(0x9e3779b97f4a7c15) & words::low_mask(2 * n),
            )
        })
        .collect()
}

fn bench_cyk(suite: &mut Suite) {
    let mut g = suite.group("cyk_recognize");
    for n in [3usize, 4, 5] {
        let cnf = CnfGrammar::from_grammar(&example4_ucfg(n));
        let inputs: Vec<Vec<_>> = some_words(n, 16)
            .iter()
            .map(|w| cnf.encode(w).unwrap())
            .collect();
        g.bench(&format!("example4_ucfg/{n}"), || {
            let mut acc = 0usize;
            for w in &inputs {
                acc += usize::from(CykChart::build(black_box(&cnf), w).accepted());
            }
            acc
        });
    }
}

/// Rule-index construction on the Example 4 uCFG (1 174 and 3 439 CNF
/// non-terminals): the compile step `/parse` pays on a cache miss.
fn bench_cyk_index(suite: &mut Suite) {
    let mut g = suite.group("cyk_index_build");
    for n in [6usize, 7] {
        let cnf = CnfGrammar::from_grammar(&example4_ucfg(n));
        g.bench(&format!("example4_ucfg/{n}"), || {
            CykRuleIndex::new(black_box(&cnf)).heap_bytes()
        });
    }
}

fn bench_cyk_count(suite: &mut Suite) {
    let mut g = suite.group("cyk_count_trees");
    for n in [3usize, 4] {
        let cnf = CnfGrammar::from_grammar(&appendix_a_grammar(n));
        let all_a = cnf.encode(&"a".repeat(2 * n)).unwrap();
        g.bench(&format!("appendixA_all_a/{n}"), || {
            CykChart::build(black_box(&cnf), &all_a).count_trees()
        });
    }
}

fn bench_fixed_len_parser(suite: &mut Suite) {
    let mut g = suite.group("fixed_len_parser");
    for n in [4usize, 6] {
        let gr = appendix_a_grammar(n);
        let parser = FixedLenParser::new(&gr).unwrap();
        let inputs: Vec<Vec<_>> = some_words(n, 16)
            .iter()
            .map(|w| gr.encode(w).unwrap())
            .collect();
        g.bench(&format!("appendixA_count/{n}"), || {
            let mut acc = 0u64;
            for w in &inputs {
                acc += parser
                    .count_trees(black_box(w))
                    .to_u64()
                    .unwrap_or(u64::MAX);
            }
            acc
        });
    }
}

fn bench_earley(suite: &mut Suite) {
    let mut g = suite.group("earley_recognize");
    for n in [3usize, 4] {
        let gr = appendix_a_grammar(n);
        let e = Earley::new(&gr);
        let inputs = some_words(n, 8);
        g.bench(&format!("appendixA/{n}"), || {
            let mut acc = 0usize;
            for w in &inputs {
                acc += usize::from(e.recognize_str(black_box(w)));
            }
            acc
        });
    }
}

fn bench_nfa(suite: &mut Suite) {
    let mut g = suite.group("nfa_accepts");
    for n in [8usize, 16, 32] {
        let pat = pattern_nfa(n);
        let exact = exact_nfa(n);
        let inputs = some_words(n, 32);
        g.bench(&format!("pattern/{n}"), || {
            inputs.iter().filter(|w| pat.accepts(black_box(w))).count()
        });
        g.bench(&format!("exact/{n}"), || {
            inputs
                .iter()
                .filter(|w| exact.accepts(black_box(w)))
                .count()
        });
    }
}

/// Build and execute the suite; the caller decides what to do with the
/// finished records (write them via [`Suite::finish`], or read them).
pub(super) fn build(opts: Options) -> Suite {
    let mut suite = Suite::with_options("parsing", opts);
    bench_cyk(&mut suite);
    bench_cyk_index(&mut suite);
    bench_cyk_count(&mut suite);
    bench_fixed_len_parser(&mut suite);
    bench_earley(&mut suite);
    bench_nfa(&mut suite);
    suite
}
