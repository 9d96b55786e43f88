//! Counting derivations and deciding unambiguity.
//!
//! A CFG is *unambiguous* when every word of its language has exactly one
//! parse tree. For the finite languages of the paper this is decidable, and
//! everything the experiments claim about "uCFGs" is machine-checked through
//! this module rather than trusted.
//!
//! Two routes are provided:
//! * [`TreeCounter`] — exact per-word parse-tree counts on an arbitrary
//!   grammar with acyclic derivations (which every grammar of a finite
//!   language has, unless it has non-growing cycles — those are detected and
//!   reported as infinite ambiguity);
//! * length-indexed aggregate counting on CNF
//!   ([`derivation_counts_by_length`]), which decides unambiguity without
//!   per-word work via `Σ_w #trees(w) = #words ⇔ unambiguous`.

use crate::analysis::{has_derivation_cycle, is_language_finite, trim};
use crate::bignum::BigUint;
use crate::cfg::Grammar;
use crate::language::{finite_language, max_word_length, word_counts_by_length};
use crate::normal_form::CnfGrammar;
use crate::symbol::{NonTerminal, Symbol, Terminal};
use std::collections::HashMap;

/// Outcome of [`decide_unambiguous`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnambiguityVerdict {
    /// Every word has exactly one parse tree.
    Unambiguous,
    /// Some word has ≥ 2 parse trees; a witness and its degree.
    Ambiguous {
        /// A word with more than one parse tree.
        witness: String,
        /// Its exact number of parse trees.
        degree: BigUint,
    },
    /// A non-growing derivation cycle gives some word infinitely many trees.
    InfinitelyAmbiguous,
    /// The language is infinite; this decision procedure does not apply.
    InfiniteLanguage,
}

impl UnambiguityVerdict {
    /// True only for the clean `Unambiguous` verdict.
    pub fn is_unambiguous(&self) -> bool {
        matches!(self, UnambiguityVerdict::Unambiguous)
    }
}

/// Exact parse-tree counting on a general grammar.
///
/// Requires acyclic derivations (no non-terminal can appear properly nested
/// below itself with the same yield); construction fails otherwise.
pub struct TreeCounter {
    g: Grammar,
    /// `possible_lens[A]` — the set of word lengths derivable from A.
    possible_lens: Vec<Vec<bool>>,
    max_len: usize,
}

/// Error from [`TreeCounter::new`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CounterError {
    /// The grammar has a derivation cycle (infinite ambiguity).
    DerivationCycle,
    /// The language is infinite.
    InfiniteLanguage,
}

impl TreeCounter {
    /// Build a counter for a finite-language, derivation-acyclic grammar.
    pub fn new(g: &Grammar) -> Result<Self, CounterError> {
        let g = trim(g);
        if !is_language_finite(&g) {
            return Err(CounterError::InfiniteLanguage);
        }
        if has_derivation_cycle(&g) {
            return Err(CounterError::DerivationCycle);
        }
        let max_len = max_word_length(&g).expect("finite language has a max length");
        // Possible length sets per non-terminal, by fixpoint.
        let n = g.nonterminal_count();
        let mut lens = vec![vec![false; max_len + 1]; n];
        let mut changed = true;
        while changed {
            changed = false;
            for r in g.rules() {
                // Convolve the length sets of the body.
                let mut acc = vec![false; max_len + 1];
                acc[0] = true;
                for s in &r.rhs {
                    let mut next = vec![false; max_len + 1];
                    match s {
                        Symbol::T(_) => {
                            for l in 0..max_len {
                                if acc[l] {
                                    next[l + 1] = true;
                                }
                            }
                        }
                        Symbol::N(m) => {
                            for l in 0..=max_len {
                                if !acc[l] {
                                    continue;
                                }
                                for (bl, &ok) in lens[m.index()].iter().enumerate() {
                                    if ok && l + bl <= max_len {
                                        next[l + bl] = true;
                                    }
                                }
                            }
                        }
                    }
                    acc = next;
                }
                for (l, &ok) in acc.iter().enumerate() {
                    if ok && !lens[r.lhs.index()][l] {
                        lens[r.lhs.index()][l] = true;
                        changed = true;
                    }
                }
            }
        }
        Ok(TreeCounter {
            g,
            possible_lens: lens,
            max_len,
        })
    }

    /// The trimmed grammar the counter operates on.
    pub fn grammar(&self) -> &Grammar {
        &self.g
    }

    /// Number of parse trees of `word` from the start symbol.
    pub fn count(&self, word: &[Terminal]) -> BigUint {
        if word.len() > self.max_len {
            return BigUint::zero();
        }
        let mut memo = HashMap::new();
        self.count_nt(self.g.start(), word, 0, word.len(), &mut memo)
    }

    /// Count for a `&str` word.
    pub fn count_str(&self, w: &str) -> BigUint {
        match self.g.encode(w) {
            Some(word) => self.count(&word),
            None => BigUint::zero(),
        }
    }

    fn count_nt(
        &self,
        a: NonTerminal,
        word: &[Terminal],
        pos: usize,
        len: usize,
        memo: &mut HashMap<(u32, usize, usize), BigUint>,
    ) -> BigUint {
        if len > self.max_len || !self.possible_lens[a.index()][len] {
            return BigUint::zero();
        }
        if let Some(c) = memo.get(&(a.0, pos, len)) {
            return c.clone();
        }
        let mut total = BigUint::zero();
        for r in self.g.rules_for(a) {
            total += &self.count_body(&r.rhs, 0, word, pos, len, memo);
        }
        memo.insert((a.0, pos, len), total.clone());
        total
    }

    /// Count derivations of `word[pos .. pos+len]` from `rhs[idx..]`.
    fn count_body(
        &self,
        rhs: &[Symbol],
        idx: usize,
        word: &[Terminal],
        pos: usize,
        len: usize,
        memo: &mut HashMap<(u32, usize, usize), BigUint>,
    ) -> BigUint {
        if idx == rhs.len() {
            return if len == 0 {
                BigUint::one()
            } else {
                BigUint::zero()
            };
        }
        match rhs[idx] {
            Symbol::T(t) => {
                if len >= 1 && word[pos] == t {
                    self.count_body(rhs, idx + 1, word, pos + 1, len - 1, memo)
                } else {
                    BigUint::zero()
                }
            }
            Symbol::N(b) => {
                let mut total = BigUint::zero();
                for bl in 0..=len {
                    if !self.possible_lens[b.index()][bl] {
                        continue;
                    }
                    let head = self.count_nt(b, word, pos, bl, memo);
                    if head.is_zero() {
                        continue;
                    }
                    let tail = self.count_body(rhs, idx + 1, word, pos + bl, len - bl, memo);
                    total += &(&head * &tail);
                }
                total
            }
        }
    }
}

/// Decide unambiguity of an arbitrary grammar with a finite language by
/// exhaustive per-word tree counting.
pub fn decide_unambiguous(g: &Grammar) -> UnambiguityVerdict {
    let counter = match TreeCounter::new(g) {
        Ok(c) => c,
        Err(CounterError::InfiniteLanguage) => return UnambiguityVerdict::InfiniteLanguage,
        Err(CounterError::DerivationCycle) => return UnambiguityVerdict::InfinitelyAmbiguous,
    };
    let lang = finite_language(counter.grammar()).expect("finite by construction");
    for w in lang {
        let degree = counter.count_str(&w);
        debug_assert!(!degree.is_zero(), "{w} is in L(G) but has no tree");
        if !degree.is_one() {
            return UnambiguityVerdict::Ambiguous { witness: w, degree };
        }
    }
    UnambiguityVerdict::Unambiguous
}

/// Per-word ambiguity degrees of the whole (finite) language, sorted by
/// word.
pub fn ambiguity_profile(g: &Grammar) -> Result<Vec<(String, BigUint)>, CounterError> {
    let counter = TreeCounter::new(g)?;
    let lang = finite_language(counter.grammar()).expect("finite by construction");
    Ok(lang
        .into_iter()
        .map(|w| {
            let c = counter.count_str(&w);
            (w, c)
        })
        .collect())
}

/// `table[A][l-1]` = number of parse trees deriving some word of length
/// `l ∈ 1..=max_len` from non-terminal `A` (the DP behind
/// [`derivation_counts_by_length`]).
pub fn tree_count_table(g: &CnfGrammar, max_len: usize) -> Vec<Vec<BigUint>> {
    let nts = g.nonterminal_count();
    let mut t: Vec<Vec<BigUint>> = vec![vec![BigUint::zero(); max_len]; nts];
    if max_len >= 1 {
        for &(a, _) in g.term_rules() {
            t[a.index()][0] += &BigUint::one();
        }
        for l in 2..=max_len {
            for &(a, b, c) in g.bin_rules() {
                let mut acc = BigUint::zero();
                for k in 1..l {
                    let lb = &t[b.index()][k - 1];
                    let rc = &t[c.index()][l - k - 1];
                    if !lb.is_zero() && !rc.is_zero() {
                        acc += &(lb * rc);
                    }
                }
                if !acc.is_zero() {
                    let cell = &mut t[a.index()][l - 1];
                    *cell += &acc;
                }
            }
        }
    }
    t
}

/// `counts[l]` = total number of parse trees of words of length `l` from the
/// start symbol of a CNF grammar (ε contributes 1 iff accepted).
pub fn derivation_counts_by_length(g: &CnfGrammar, max_len: usize) -> Vec<BigUint> {
    let t = tree_count_table(g, max_len);
    let mut out = Vec::with_capacity(max_len + 1);
    out.push(if g.accepts_epsilon() {
        BigUint::one()
    } else {
        BigUint::zero()
    });
    for l in 1..=max_len {
        out.push(t[g.start().index()][l - 1].clone());
    }
    out
}

/// Fast aggregate unambiguity check for a CNF grammar of a finite language:
/// unambiguous ⇔ for every length, Σ_w #trees(w) equals the number of
/// distinct words.
pub fn is_unambiguous_cnf(g: &CnfGrammar, max_len: usize) -> bool {
    let trees = derivation_counts_by_length(g, max_len);
    let words = word_counts_by_length(g, max_len);
    trees
        .iter()
        .zip(words.iter())
        .all(|(t, &w)| *t == BigUint::from_u64(w as u64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GrammarBuilder;

    fn ambiguous_aa() -> Grammar {
        // S → A B | B A ; A → a ; B → a : "aa" has 2 trees.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        let bb = b.nonterminal("B");
        b.rule(s, |r| r.n(a).n(bb));
        b.rule(s, |r| r.n(bb).n(a));
        b.rule(a, |r| r.t('a'));
        b.rule(bb, |r| r.t('a'));
        b.build(s)
    }

    fn unambiguous_pairs() -> Grammar {
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.rule(a, |r| r.t('a'));
        b.rule(a, |r| r.t('b'));
        b.build(s)
    }

    #[test]
    fn counts_on_general_grammar() {
        let g = ambiguous_aa();
        let c = TreeCounter::new(&g).unwrap();
        assert_eq!(c.count_str("aa").to_u64(), Some(2));
        assert_eq!(c.count_str("a").to_u64(), Some(0));
        assert_eq!(c.count_str("zz").to_u64(), Some(0));
    }

    #[test]
    fn counts_with_epsilon_and_units() {
        // S → A S' | a ; S' → ε ; mixed-length: L = {a}. One tree per route.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        let sp = b.nonterminal("Sp");
        b.rule(s, |r| r.n(a).n(sp));
        b.rule(s, |r| r.t('a'));
        b.rule(a, |r| r.t('a'));
        b.epsilon_rule(sp);
        let g = b.build(s);
        let c = TreeCounter::new(&g).unwrap();
        // "a" derives via S → a and via S → A Sp: 2 trees.
        assert_eq!(c.count_str("a").to_u64(), Some(2));
    }

    #[test]
    fn verdicts() {
        assert!(decide_unambiguous(&unambiguous_pairs()).is_unambiguous());
        match decide_unambiguous(&ambiguous_aa()) {
            UnambiguityVerdict::Ambiguous { witness, degree } => {
                assert_eq!(witness, "aa");
                assert_eq!(degree.to_u64(), Some(2));
            }
            v => panic!("expected ambiguous, got {v:?}"),
        }
    }

    #[test]
    fn infinite_ambiguity_detected() {
        // S → A, A → S | a: unit cycle.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a));
        b.rule(a, |r| r.n(s));
        b.rule(a, |r| r.t('a'));
        assert_eq!(
            decide_unambiguous(&b.build(s)),
            UnambiguityVerdict::InfinitelyAmbiguous
        );
    }

    #[test]
    fn infinite_language_detected() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s));
        b.rule(s, |r| r.t('a'));
        assert_eq!(
            decide_unambiguous(&b.build(s)),
            UnambiguityVerdict::InfiniteLanguage
        );
    }

    #[test]
    fn ambiguity_profile_lists_degrees() {
        let profile = ambiguity_profile(&ambiguous_aa()).unwrap();
        assert_eq!(profile.len(), 1);
        assert_eq!(profile[0].0, "aa");
        assert_eq!(profile[0].1.to_u64(), Some(2));
    }

    #[test]
    fn aggregate_cnf_check_agrees() {
        let amb = CnfGrammar::from_grammar(&ambiguous_aa());
        let unamb = CnfGrammar::from_grammar(&unambiguous_pairs());
        assert!(!is_unambiguous_cnf(&amb, 2));
        assert!(is_unambiguous_cnf(&unamb, 2));
    }

    #[test]
    fn derivation_counts_match_catalan() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.n(s).n(s));
        b.rule(s, |r| r.t('a'));
        let cnf = CnfGrammar::from_grammar(&b.build(s));
        let counts = derivation_counts_by_length(&cnf, 6);
        let expect = [0u64, 1, 1, 2, 5, 14, 42];
        for (l, &e) in expect.iter().enumerate() {
            assert_eq!(counts[l].to_u64(), Some(e), "length {l}");
        }
    }

    #[test]
    fn counter_agrees_with_cyk_on_cnf() {
        use crate::cyk::ambiguity_of;
        let g = ambiguous_aa();
        let cnf = CnfGrammar::from_grammar(&g);
        let c = TreeCounter::new(&g).unwrap();
        let w = cnf.encode("aa").unwrap();
        assert_eq!(c.count_str("aa"), ambiguity_of(&cnf, &w));
    }
}
