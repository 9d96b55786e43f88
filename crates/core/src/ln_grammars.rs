//! The paper's grammars for `L_n`.
//!
//! * [`example3_grammar`] — the Θ(n)-size CFG `G_n` of Example 3, accepting
//!   `L_{2^n + 1}`;
//! * [`appendix_a_grammar`] — the O(log n)-size CFG for `L_n`, every `n`
//!   (Appendix A; Theorem 1(1));
//! * [`example4_ucfg`] — the exponential-size *unambiguous* CFG of
//!   Example 4 (the upper bound side of Theorem 1(3));
//! * [`naive_grammar`] — the trivial `S → w` baseline (also unambiguous).
//!
//! One deviation from the paper's text: Appendix A states the insertion
//! chain as `A_i → B_{i-1} A_{i-1}` only. With a single orientation the
//! insertion point can only reach the right end of each block, which loses
//! words; we use both orientations `A_i → B_{i-1} A_{i-1} | A_{i-1} B_{i-1}`
//! exactly as in Example 3 (clearly the intent — the tests verify
//! `L(G) = L_n` exhaustively for small `n`).

use crate::words;
use ucfg_grammar::bignum::BigUint;
use ucfg_grammar::{Grammar, GrammarBuilder, NonTerminal};

/// Example 3: the grammar `G_n` of size Θ(n) accepting `L_{2^n + 1}`.
pub fn example3_grammar(n: usize) -> Grammar {
    let mut b = GrammarBuilder::new(&['a', 'b']);
    let a_nt: Vec<NonTerminal> = (0..=n).map(|i| b.nonterminal(&format!("A{i}"))).collect();
    let b_nt: Vec<NonTerminal> = (0..=n).map(|i| b.nonterminal(&format!("B{i}"))).collect();
    for i in 1..=n {
        b.rule(a_nt[i], |r| r.n(b_nt[i - 1]).n(a_nt[i - 1]));
        b.rule(a_nt[i], |r| r.n(a_nt[i - 1]).n(b_nt[i - 1]));
    }
    b.rule(a_nt[0], |r| r.n(b_nt[0]).t('a').n(b_nt[n]).t('a'));
    b.rule(a_nt[0], |r| r.t('a').n(b_nt[n]).t('a').n(b_nt[0]));
    for i in 1..=n {
        b.rule(b_nt[i], |r| r.n(b_nt[i - 1]).n(b_nt[i - 1]));
    }
    b.rule(b_nt[0], |r| r.t('a'));
    b.rule(b_nt[0], |r| r.t('b'));
    b.build(a_nt[n])
}

/// Appendix A: a CFG of size O(log n) accepting `L_n`, for every `n ≥ 1`.
pub fn appendix_a_grammar(n: usize) -> Grammar {
    assert!(n >= 1);
    let mut b = GrammarBuilder::new(&['a', 'b']);
    if n == 1 {
        // L_1 = {aa}.
        let s = b.nonterminal("Start");
        b.rule(s, |r| r.ts("aa"));
        return b.build(s);
    }
    // Powers of two present in n-1 (the block lengths of the free word w).
    let m = n - 1;
    let bits: Vec<usize> = (0..64).filter(|i| m >> i & 1 == 1).collect();
    let max_bit = *bits.last().expect("n ≥ 2 so m ≥ 1");

    // B_i generates all words of length 2^i (doubling).
    let b_nt: Vec<NonTerminal> = (0..=max_bit)
        .map(|i| b.nonterminal(&format!("B{i}")))
        .collect();
    b.rule(b_nt[0], |r| r.t('a'));
    b.rule(b_nt[0], |r| r.t('b'));
    for i in 1..=max_bit {
        b.rule(b_nt[i], |r| r.n(b_nt[i - 1]).n(b_nt[i - 1]));
    }

    // S generates the inner free word w' of length n-1 (block by block).
    let s = b.nonterminal("S");
    {
        let blocks: Vec<NonTerminal> = bits.iter().map(|&i| b_nt[i]).collect();
        b.raw_rule(s, blocks.iter().map(|&x| x.into()).collect());
    }

    // A_i: a block of length 2^i with "a w' a" inserted at one of its gaps.
    let a_nt: Vec<NonTerminal> = (0..=max_bit)
        .map(|i| b.nonterminal(&format!("A{i}")))
        .collect();
    b.rule(a_nt[0], |r| r.n(b_nt[0]).t('a').n(s).t('a'));
    b.rule(a_nt[0], |r| r.t('a').n(s).t('a').n(b_nt[0]));
    for i in 1..=max_bit {
        b.rule(a_nt[i], |r| r.n(b_nt[i - 1]).n(a_nt[i - 1]));
        b.rule(a_nt[i], |r| r.n(a_nt[i - 1]).n(b_nt[i - 1]));
    }

    // Balanced binary tree over the blocks: C_v = insertion below v,
    // D_v = no insertion below v.
    // Leaves are the elements of `bits`, in order.
    struct TreeCtx<'a> {
        b: &'a mut GrammarBuilder,
        a_nt: &'a [NonTerminal],
        b_nt: &'a [NonTerminal],
        next_id: usize,
    }
    fn build_tree(ctx: &mut TreeCtx<'_>, leaves: &[usize]) -> (NonTerminal, NonTerminal) {
        if leaves.len() == 1 {
            let i = leaves[0];
            let id = ctx.next_id;
            ctx.next_id += 1;
            let c = ctx.b.nonterminal(&format!("C{id}"));
            let d = ctx.b.nonterminal(&format!("D{id}"));
            let (ai, bi) = (ctx.a_nt[i], ctx.b_nt[i]);
            ctx.b.rule(c, |r| r.n(ai));
            ctx.b.rule(d, |r| r.n(bi));
            return (c, d);
        }
        let mid = leaves.len() / 2;
        let (cl, dl) = build_tree(ctx, &leaves[..mid]);
        let (cr, dr) = build_tree(ctx, &leaves[mid..]);
        let id = ctx.next_id;
        ctx.next_id += 1;
        let c = ctx.b.nonterminal(&format!("C{id}"));
        let d = ctx.b.nonterminal(&format!("D{id}"));
        ctx.b.rule(c, |r| r.n(cl).n(dr));
        ctx.b.rule(c, |r| r.n(dl).n(cr));
        ctx.b.rule(d, |r| r.n(dl).n(dr));
        (c, d)
    }
    let (root_c, _root_d) = build_tree(
        &mut TreeCtx {
            b: &mut b,
            a_nt: &a_nt,
            b_nt: &b_nt,
            next_id: 0,
        },
        &bits,
    );

    ucfg_grammar::analysis::trim(&b.build(root_c))
}

/// Appendix A **as literally stated in the paper**: the insertion chain
/// has only the orientation `A_i → B_{i-1} A_{i-1}` (plus `A_0`'s two
/// sides).
///
/// **Erratum (found by executing the construction):** with a single
/// orientation the insertion point can only reach the right end of each
/// block, so gaps in the left parts of blocks are unreachable and words
/// are lost — e.g. for `n = 5` the blocks of `n−1 = 4` give only insertion
/// gaps `{3, 4}`, missing every word of `L_5` whose first `a` of the
/// witnessing pair sits at positions 1–3. The corrected
/// [`appendix_a_grammar`] uses both orientations, as Example 3 does.
/// [`literal_appendix_a_is_incomplete`](#) (test) and experiment F2
/// exhibit concrete missing words.
pub fn appendix_a_grammar_literal(n: usize) -> Grammar {
    assert!(n >= 1);
    let mut b = GrammarBuilder::new(&['a', 'b']);
    if n == 1 {
        let s = b.nonterminal("Start");
        b.rule(s, |r| r.ts("aa"));
        return b.build(s);
    }
    let m = n - 1;
    let bits: Vec<usize> = (0..64).filter(|i| m >> i & 1 == 1).collect();
    let max_bit = *bits.last().expect("n ≥ 2 so m ≥ 1");
    let b_nt: Vec<NonTerminal> = (0..=max_bit)
        .map(|i| b.nonterminal(&format!("B{i}")))
        .collect();
    b.rule(b_nt[0], |r| r.t('a'));
    b.rule(b_nt[0], |r| r.t('b'));
    for i in 1..=max_bit {
        b.rule(b_nt[i], |r| r.n(b_nt[i - 1]).n(b_nt[i - 1]));
    }
    let s = b.nonterminal("S");
    {
        let blocks: Vec<NonTerminal> = bits.iter().map(|&i| b_nt[i]).collect();
        b.raw_rule(s, blocks.iter().map(|&x| x.into()).collect());
    }
    let a_nt: Vec<NonTerminal> = (0..=max_bit)
        .map(|i| b.nonterminal(&format!("A{i}")))
        .collect();
    b.rule(a_nt[0], |r| r.n(b_nt[0]).t('a').n(s).t('a'));
    b.rule(a_nt[0], |r| r.t('a').n(s).t('a').n(b_nt[0]));
    for i in 1..=max_bit {
        // The paper's text: only B_{i-1} A_{i-1}.
        b.rule(a_nt[i], |r| r.n(b_nt[i - 1]).n(a_nt[i - 1]));
    }
    let mut c_nodes: Vec<(NonTerminal, NonTerminal)> = Vec::new();
    for (idx, &i) in bits.iter().enumerate() {
        let c = b.nonterminal(&format!("C{idx}"));
        let d = b.nonterminal(&format!("D{idx}"));
        b.rule(c, |r| r.n(a_nt[i]));
        b.rule(d, |r| r.n(b_nt[i]));
        c_nodes.push((c, d));
    }
    // Fold the leaves into a (left-leaning) tree.
    let mut id = bits.len();
    while c_nodes.len() > 1 {
        let (cr, dr) = c_nodes.pop().unwrap();
        let (cl, dl) = c_nodes.pop().unwrap();
        let c = b.nonterminal(&format!("C{id}"));
        let d = b.nonterminal(&format!("D{id}"));
        id += 1;
        b.rule(c, |r| r.n(cl).n(dr));
        b.rule(c, |r| r.n(dl).n(cr));
        b.rule(d, |r| r.n(dl).n(dr));
        c_nodes.push((c, d));
    }
    let (root_c, _) = c_nodes.pop().expect("at least one block");
    ucfg_grammar::analysis::trim(&b.build(root_c))
}

/// Example 4: the exponential-size **unambiguous** CFG for `L_n`.
///
/// Each derivation fixes the *first* witnessing pair `(i, i+n)`: the rules
/// pin the prefix `w` (positions `1..i-1`) and the corresponding stretch
/// `v` (positions `n+1..n+i-1`) to letter patterns with **no common `a`
/// position**, so no pair before `i` can match.
///
/// **Erratum (found by executing the construction):** the paper's rule
/// `A_i → A_w a C_{n-i} A_w̄ a C_{n-i}` uses the exact complement `w̄`,
/// which forces position `j+n` to be `a` whenever position `j` is `b`.
/// That loses every word where positions `j` and `j+n` are *both* `b`
/// (e.g. `baba ∈ L_2`, whose first — and only — pair is `(2, 4)`).
/// Minimality of the pair only requires ¬(both `a`), so we range over all
/// pairs `(w, v) ∈ Σ^{i-1} × Σ^{i-1}` whose `a`-positions are disjoint
/// (3^{i-1} pairs). Unambiguity is preserved: the word still determines
/// `i` (its first pair), and then `w`, `v` and the free stretches are
/// positionally forced. The tests verify both `L(G) = L_n` and
/// unambiguity exhaustively.
pub fn example4_ucfg(n: usize) -> Grammar {
    assert!(n >= 1);
    let mut b = GrammarBuilder::new(&['a', 'b']);
    let s = b.nonterminal("S");

    // C_i generates all words of length i, unambiguously.
    let c_nt: Vec<Option<NonTerminal>> = (0..n)
        .map(|i| {
            if i >= 1 {
                Some(b.nonterminal(&format!("C{i}")))
            } else {
                None
            }
        })
        .collect();
    if n >= 2 {
        let c1 = c_nt[1].unwrap();
        b.rule(c1, |r| r.t('a'));
        b.rule(c1, |r| r.t('b'));
        for i in 2..n {
            let ci = c_nt[i].unwrap();
            let prev = c_nt[i - 1].unwrap();
            b.rule(ci, |r| r.t('a').n(prev));
            b.rule(ci, |r| r.t('b').n(prev));
        }
    }

    // A_w → w for every w with 1 ≤ |w| ≤ n-1.
    let mut word_nt = std::collections::HashMap::new();
    for len in 1..n {
        for mask in 0..(1u64 << len) {
            let w: String = (0..len)
                .map(|p| if mask >> p & 1 == 1 { 'a' } else { 'b' })
                .collect();
            let nt = b.nonterminal(&format!("A[{w}]"));
            b.rule(nt, |r| r.ts(&w));
            word_nt.insert((len, mask), nt);
        }
    }
    // A_i for i ∈ [1, n]. For each i, one rule per pair (w, v) of
    // length-(i-1) patterns with disjoint a-positions (3^{i-1} pairs).
    for i in 1..=n {
        let ai = b.nonterminal(&format!("A{i}"));
        b.rule(s, |r| r.n(ai));
        let wlen = i - 1;
        let pairs: Vec<(u64, u64)> = if wlen == 0 {
            vec![(0, 0)]
        } else {
            let mut out = Vec::new();
            for w in 0..(1u64 << wlen) {
                // Enumerate submasks v of the complement of w.
                let free = !w & words::low_mask(wlen);
                let mut v = free;
                loop {
                    out.push((w, v));
                    if v == 0 {
                        break;
                    }
                    v = (v - 1) & free;
                }
            }
            out
        };
        for (wmask, vmask) in pairs {
            let parts: (Option<NonTerminal>, Option<NonTerminal>) = if wlen >= 1 {
                (Some(word_nt[&(wlen, wmask)]), Some(word_nt[&(wlen, vmask)]))
            } else {
                (None, None)
            };
            if i < n {
                let gap = c_nt[n - i].expect("n - i ≥ 1");
                b.rule(ai, |r| {
                    let r = match parts.0 {
                        Some(nt) => r.n(nt),
                        None => r,
                    };
                    let r = r.t('a').n(gap);
                    let r = match parts.1 {
                        Some(nt) => r.n(nt),
                        None => r,
                    };
                    r.t('a').n(gap)
                });
            } else {
                b.rule(ai, |r| {
                    let r = match parts.0 {
                        Some(nt) => r.n(nt),
                        None => r,
                    };
                    let r = r.t('a');
                    let r = match parts.1 {
                        Some(nt) => r.n(nt),
                        None => r,
                    };
                    r.t('a')
                });
            }
        }
    }
    b.build(s)
}

/// Exact size of [`example4_ucfg`] computed from the construction, without
/// building it (for large-`n` tables). Verified against the built grammar
/// in tests.
pub fn example4_size(n: u64) -> BigUint {
    assert!(n >= 1);
    let mut total = BigUint::zero();
    // S → A_i : n rules of size 1.
    total += &BigUint::from_u64(n);
    // C rules (only for n ≥ 2): C_1 two rules of size 1; C_i (2 ≤ i ≤ n-1)
    // two rules of size 2.
    if n >= 2 {
        total += &BigUint::from_u64(2 + 4 * (n - 2));
    }
    // A_w → w : for each length ℓ ∈ [1, n-1], 2^ℓ rules of size ℓ.
    for l in 1..n {
        total += &(&BigUint::from_u64(l) * &BigUint::pow2(l));
    }
    // A_i bodies: 3^{i-1} rules each (pairs with disjoint a-positions).
    for i in 1..=n {
        let body = if i < n {
            if i == 1 {
                4
            } else {
                6
            } // [A_w] a C [A_v] a C
        } else if i == 1 {
            2 // aa
        } else {
            4 // A_w a A_v a
        };
        let count = BigUint::small_pow(3, i - 1);
        total += &(&BigUint::from_u64(body) * &count);
    }
    total
}

/// The trivial grammar `S → w` for every `w ∈ L_n` — the materialisation
/// baseline; size `2n · |L_n|`, and trivially unambiguous.
pub fn naive_grammar(n: usize) -> Grammar {
    let mut b = GrammarBuilder::new(&['a', 'b']);
    let s = b.nonterminal("S");
    for w in words::enumerate_ln(n) {
        let string = words::to_string(n, w);
        b.rule(s, |r| r.ts(&string));
    }
    b.build(s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::words::{enumerate_ln, to_string};
    use std::collections::BTreeSet;
    use ucfg_grammar::count::decide_unambiguous;
    use ucfg_grammar::language::finite_language;

    /// The CYK rule index of the Example 4 uCFG is sized by its rule
    /// count, not by the square of its non-terminal count (10 040 CNF
    /// non-terminals at n = 8, where an `nts × nts` table alone would
    /// need ~400 MB).
    #[test]
    fn example4_rule_index_is_linear_in_grammar_size() {
        use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
        use ucfg_grammar::CnfGrammar;
        let cnf = CnfGrammar::from_grammar(&example4_ucfg(8));
        let index = CykRuleIndex::new(&cnf);
        let budget = 64 * (cnf.nonterminal_count() + cnf.bin_rules().len());
        assert!(
            index.heap_bytes() <= budget,
            "index {} B over budget {budget} B",
            index.heap_bytes()
        );
        let word = cnf.encode("abbbbbbbabbbbbbb").unwrap();
        let chart = CykChart::build_with_index(&cnf, &index, &word);
        assert_eq!(chart.count_trees(), BigUint::one());
    }

    fn ln_strings(n: usize) -> BTreeSet<String> {
        enumerate_ln(n)
            .into_iter()
            .map(|w| to_string(n, w))
            .collect()
    }

    #[test]
    fn example3_accepts_l_2n_plus_1() {
        for n in 0..=2 {
            let g = example3_grammar(n);
            let target = (1usize << n) + 1; // L_{2^n + 1}
            assert_eq!(
                finite_language(&g).unwrap(),
                ln_strings(target),
                "n={n} (L_{target})"
            );
        }
    }

    #[test]
    fn example3_size_is_linear() {
        for n in [1usize, 5, 10, 20] {
            let g = example3_grammar(n);
            assert_eq!(g.size(), 4 * n + 8 + 2 * n + 2);
        }
    }

    #[test]
    fn example3_is_ambiguous() {
        let g = example3_grammar(1);
        match decide_unambiguous(&g) {
            ucfg_grammar::count::UnambiguityVerdict::Ambiguous { .. } => {}
            v => panic!("expected ambiguous, got {v:?}"),
        }
    }

    #[test]
    fn appendix_a_accepts_ln() {
        for n in 1..=8 {
            let g = appendix_a_grammar(n);
            assert_eq!(finite_language(&g).unwrap(), ln_strings(n), "n={n}");
        }
    }

    #[test]
    fn appendix_a_size_is_logarithmic() {
        for n in [2usize, 16, 256, 4096, 65536] {
            let g = appendix_a_grammar(n);
            let log = (n as f64).log2();
            assert!(
                g.size() as f64 <= 40.0 * log + 40.0,
                "n={n}: size {} not O(log n)",
                g.size()
            );
        }
    }

    #[test]
    fn literal_appendix_a_is_incomplete() {
        // Erratum #2: the single-orientation chain of the appendix text
        // loses words. For n = 5 the literal grammar is a strict subset of
        // L_5 (e.g. it cannot place the insertion at gap 0).
        let n = 5;
        let literal = finite_language(&appendix_a_grammar_literal(n)).unwrap();
        let full = ln_strings(n);
        assert!(literal.is_subset(&full), "never generates non-members");
        assert!(
            literal.len() < full.len(),
            "literal construction should miss words: {} vs {}",
            literal.len(),
            full.len()
        );
        // A concrete missing word: first pair at position 1.
        let missing = format!("a{}a{}", "b".repeat(n - 1), "b".repeat(n - 1));
        assert!(full.contains(&missing));
        assert!(!literal.contains(&missing), "{missing} should be missing");
        // The corrected construction has it.
        assert!(finite_language(&appendix_a_grammar(n))
            .unwrap()
            .contains(&missing));
    }

    #[test]
    fn example4_accepts_ln() {
        for n in 1..=6 {
            let g = example4_ucfg(n);
            assert_eq!(finite_language(&g).unwrap(), ln_strings(n), "n={n}");
        }
    }

    #[test]
    fn example4_is_unambiguous() {
        for n in 1..=5 {
            let g = example4_ucfg(n);
            assert!(
                decide_unambiguous(&g).is_unambiguous(),
                "Example 4 grammar must be a uCFG (n={n})"
            );
        }
    }

    #[test]
    fn example4_size_formula_matches_construction() {
        for n in 1..=9 {
            let g = example4_ucfg(n);
            assert_eq!(
                example4_size(n as u64).to_u64(),
                Some(g.size() as u64),
                "n={n}"
            );
        }
    }

    #[test]
    fn example4_size_is_exponential() {
        // 2^{Ω(n)} growth: size(n) ≥ 2^{n-1}.
        for n in [4u64, 8, 16, 32, 64] {
            assert!(example4_size(n) >= BigUint::pow2(n - 1), "n={n}");
        }
    }

    #[test]
    fn naive_grammar_matches_and_is_unambiguous() {
        for n in 1..=4 {
            let g = naive_grammar(n);
            assert_eq!(finite_language(&g).unwrap(), ln_strings(n), "n={n}");
            assert!(decide_unambiguous(&g).is_unambiguous(), "n={n}");
            let expected = 2 * n * crate::words::ln_size(n).to_u64().unwrap() as usize;
            assert_eq!(g.size(), expected);
        }
    }

    #[test]
    fn separation_shape_small_n() {
        // The headline separation: log-size CFG vs exponential uCFG.
        for n in [4usize, 6, 8] {
            let cfg = appendix_a_grammar(n).size();
            let ucfg = example4_size(n as u64).to_u64().unwrap() as usize;
            assert!(ucfg > cfg, "n={n}: uCFG {ucfg} vs CFG {cfg}");
        }
        // And the gap widens.
        let gap4 = example4_size(4).to_u64().unwrap() / appendix_a_grammar(4).size() as u64;
        let gap8 = example4_size(8).to_u64().unwrap() / appendix_a_grammar(8).size() as u64;
        assert!(gap8 > gap4);
    }
}
