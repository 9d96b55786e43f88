//! Chomsky normal form.
//!
//! The paper assumes w.l.o.g. that grammars are in CNF (rules `A → BC` or
//! `A → a`), citing the classical conversion with `|G'| ≤ |G|²`. This module
//! implements the conversion (TERM → BIN → DEL → UNIT, then trimming) and a
//! dedicated [`CnfGrammar`] representation optimised for CYK parsing and
//! counting.
//!
//! For ε-free grammars without unit cycles — which covers every grammar in
//! the paper — the conversion is a parse-tree bijection, so it preserves
//! unambiguity; this is verified by the counting tests in `count.rs`.

use crate::analysis::{body_fixpoint, trim};
use crate::cfg::{Grammar, Rule};
use crate::symbol::{NonTerminal, Symbol, Terminal};
use crate::vec_bytes;
use std::collections::HashMap;

/// A grammar in Chomsky normal form.
///
/// All rules are `A → B C` (`bin_rules`) or `A → a` (`term_rules`); the
/// empty word, if accepted, is flagged separately (`accepts_epsilon`) rather
/// than materialised as a rule, matching the usual CNF convention.
#[derive(Debug, Clone)]
pub struct CnfGrammar {
    alphabet: Vec<char>,
    names: Vec<String>,
    start: NonTerminal,
    accepts_epsilon: bool,
    term_rules: Vec<(NonTerminal, Terminal)>,
    bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)>,
    term_by_lhs: Vec<Vec<Terminal>>,
    bin_by_lhs: Vec<Vec<(NonTerminal, NonTerminal)>>,
}

/// An ε-free rule body during conversion (TERM and BIN have already
/// bounded bodies to one symbol or two non-terminals).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Body {
    Term(Terminal),
    Unit(NonTerminal),
    Pair(NonTerminal, NonTerminal),
}

impl CnfGrammar {
    /// Assemble from explicit rule lists (used by transformations).
    pub fn from_rules(
        alphabet: Vec<char>,
        names: Vec<String>,
        start: NonTerminal,
        accepts_epsilon: bool,
        term_rules: Vec<(NonTerminal, Terminal)>,
        bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)>,
    ) -> Self {
        let n = names.len();
        let mut term_by_lhs = vec![Vec::new(); n];
        for &(a, t) in &term_rules {
            term_by_lhs[a.index()].push(t);
        }
        let mut bin_by_lhs = vec![Vec::new(); n];
        for &(a, b, c) in &bin_rules {
            bin_by_lhs[a.index()].push((b, c));
        }
        CnfGrammar {
            alphabet,
            names,
            start,
            accepts_epsilon,
            term_rules,
            bin_rules,
            term_by_lhs,
            bin_by_lhs,
        }
    }

    /// Convert an arbitrary grammar to CNF.
    ///
    /// The input is trimmed first (the paper's "no redundant non-terminals"
    /// assumption); duplicate rules arising during conversion are merged.
    pub fn from_grammar(g: &Grammar) -> Self {
        let g = trim(g);
        let alphabet = g.alphabet().to_vec();
        let mut names: Vec<String> = (0..g.nonterminal_count())
            .map(|i| g.name(NonTerminal(i as u32)).to_string())
            .collect();
        // Fresh names carry their id so they stay globally unique — the
        // annotation machinery (Lemma 10) re-identifies non-terminals by
        // name after trimming.
        let fresh = |names: &mut Vec<String>, base: String| -> NonTerminal {
            let id = NonTerminal(names.len() as u32);
            names.push(format!("{base}·{}", id.0));
            id
        };

        // ---- TERM: terminals only occur alone in bodies of length 1. ----
        let mut term_proxy: HashMap<Terminal, NonTerminal> = HashMap::new();
        let mut rules: Vec<Rule> = Vec::new();
        let mut extra_rules: Vec<Rule> = Vec::new();
        for r in g.rules() {
            if r.rhs.len() >= 2 {
                let rhs = r
                    .rhs
                    .iter()
                    .map(|&s| match s {
                        Symbol::T(t) => {
                            let p = *term_proxy.entry(t).or_insert_with(|| {
                                let nt = fresh(&mut names, format!("⟨{}⟩", g.letter(t)));
                                extra_rules.push(Rule {
                                    lhs: nt,
                                    rhs: vec![Symbol::T(t)],
                                });
                                nt
                            });
                            Symbol::N(p)
                        }
                        n => n,
                    })
                    .collect();
                rules.push(Rule { lhs: r.lhs, rhs });
            } else {
                rules.push(r.clone());
            }
        }
        rules.extend(extra_rules);

        // ---- BIN: bodies of length ≥ 3 are chained. ----
        let mut bin_rules_acc: Vec<Rule> = Vec::new();
        for r in rules {
            if r.rhs.len() <= 2 {
                bin_rules_acc.push(r);
                continue;
            }
            let mut prev = r.lhs;
            let k = r.rhs.len();
            for i in 0..k - 2 {
                let cont = fresh(&mut names, format!("⟨{}#{}⟩", g.name(r.lhs), i + 1));
                bin_rules_acc.push(Rule {
                    lhs: prev,
                    rhs: vec![r.rhs[i], Symbol::N(cont)],
                });
                prev = cont;
            }
            bin_rules_acc.push(Rule {
                lhs: prev,
                rhs: vec![r.rhs[k - 2], r.rhs[k - 1]],
            });
        }
        let rules = bin_rules_acc;

        // ---- DEL: ε-elimination. Bodies now have length ≤ 2. ----
        let null = body_fixpoint(names.len(), &rules, false);
        let mut no_eps: Vec<(NonTerminal, Body)> = Vec::with_capacity(rules.len());
        for r in &rules {
            match *r.rhs.as_slice() {
                [] => {}
                [Symbol::T(t)] => no_eps.push((r.lhs, Body::Term(t))),
                [Symbol::N(b)] => no_eps.push((r.lhs, Body::Unit(b))),
                // After TERM, length-2 bodies contain only non-terminals.
                [Symbol::N(x), Symbol::N(y)] => {
                    no_eps.push((r.lhs, Body::Pair(x, y)));
                    if null[y.index()] {
                        no_eps.push((r.lhs, Body::Unit(x)));
                    }
                    if null[x.index()] {
                        no_eps.push((r.lhs, Body::Unit(y)));
                    }
                }
                _ => unreachable!("TERM and BIN leave bodies of length ≤ 2 without terminals"),
            }
        }
        no_eps.sort_unstable();
        no_eps.dedup();
        let accepts_epsilon = null[g.start().index()];

        // ---- UNIT: eliminate A → B by expanding unit closures. ----
        // Each node's closure (the B with A →* B over unit rules, A
        // included) is one depth-first walk over the ε-free rules grouped
        // by left-hand side, so the step costs the size of its output
        // instead of a rule scan per (A, B) pair.
        let n_now = names.len();
        let mut lhs_start = vec![0usize; n_now + 1];
        for (lhs, _) in &no_eps {
            lhs_start[lhs.index() + 1] += 1;
        }
        for a in 0..n_now {
            lhs_start[a + 1] += lhs_start[a];
        }
        let mut term_rules: Vec<(NonTerminal, Terminal)> = Vec::new();
        let mut bin_rules: Vec<(NonTerminal, NonTerminal, NonTerminal)> = Vec::new();
        // `walked[b] == a` marks b as already in a's closure.
        let mut walked = vec![usize::MAX; n_now];
        let mut stack = Vec::new();
        for a in 0..n_now {
            let head = NonTerminal(a as u32);
            walked[a] = a;
            stack.push(a);
            while let Some(b) = stack.pop() {
                for &(_, body) in &no_eps[lhs_start[b]..lhs_start[b + 1]] {
                    match body {
                        Body::Term(t) => term_rules.push((head, t)),
                        Body::Unit(c) => {
                            if walked[c.index()] != a {
                                walked[c.index()] = a;
                                stack.push(c.index());
                            }
                        }
                        Body::Pair(x, y) => bin_rules.push((head, x, y)),
                    }
                }
            }
        }
        term_rules.sort_unstable();
        term_rules.dedup();
        bin_rules.sort_unstable();
        bin_rules.dedup();
        let cnf = CnfGrammar::from_rules(
            alphabet,
            names,
            g.start(),
            accepts_epsilon,
            term_rules,
            bin_rules,
        );
        cnf.trimmed()
    }

    /// Remove non-terminals that are unproductive or unreachable.
    pub fn trimmed(&self) -> CnfGrammar {
        let g = self.to_grammar();
        let g = trim(&g);
        // `to_grammar`/`trim` roundtrip preserves CNF shape.
        let mut term_rules = Vec::new();
        let mut bin_rules = Vec::new();
        for r in g.rules() {
            match r.rhs.as_slice() {
                [Symbol::T(t)] => term_rules.push((r.lhs, *t)),
                [Symbol::N(b), Symbol::N(c)] => bin_rules.push((r.lhs, *b, *c)),
                _ => unreachable!("trim preserves CNF rule shapes"),
            }
        }
        let names = (0..g.nonterminal_count())
            .map(|i| g.name(NonTerminal(i as u32)).to_string())
            .collect();
        CnfGrammar::from_rules(
            g.alphabet().to_vec(),
            names,
            g.start(),
            self.accepts_epsilon,
            term_rules,
            bin_rules,
        )
    }

    /// View as a generic [`Grammar`] (for printing and shared analyses).
    /// The ε-flag is not representable and is dropped.
    pub fn to_grammar(&self) -> Grammar {
        let mut rules = Vec::with_capacity(self.term_rules.len() + self.bin_rules.len());
        for &(a, t) in &self.term_rules {
            rules.push(Rule {
                lhs: a,
                rhs: vec![Symbol::T(t)],
            });
        }
        for &(a, b, c) in &self.bin_rules {
            rules.push(Rule {
                lhs: a,
                rhs: vec![Symbol::N(b), Symbol::N(c)],
            });
        }
        Grammar::from_parts(self.alphabet.clone(), self.names.clone(), rules, self.start)
    }

    /// The paper's size measure: 1 per terminal rule, 2 per binary rule.
    pub fn size(&self) -> usize {
        self.term_rules.len() + 2 * self.bin_rules.len()
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.term_rules.len() + self.bin_rules.len()
    }

    /// Bytes this grammar holds on the heap (allocated capacity of its
    /// name strings, rule lists and per-head indexes).
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.alphabet)
            + vec_bytes(&self.names)
            + self.names.iter().map(String::capacity).sum::<usize>()
            + vec_bytes(&self.term_rules)
            + vec_bytes(&self.bin_rules)
            + vec_bytes(&self.term_by_lhs)
            + self.term_by_lhs.iter().map(vec_bytes).sum::<usize>()
            + vec_bytes(&self.bin_by_lhs)
            + self.bin_by_lhs.iter().map(vec_bytes).sum::<usize>()
    }

    /// Number of non-terminals.
    pub fn nonterminal_count(&self) -> usize {
        self.names.len()
    }

    /// The start symbol.
    pub fn start(&self) -> NonTerminal {
        self.start
    }

    /// Whether ε ∈ L(G).
    pub fn accepts_epsilon(&self) -> bool {
        self.accepts_epsilon
    }

    /// The alphabet Σ.
    pub fn alphabet(&self) -> &[char] {
        &self.alphabet
    }

    /// All terminal rules `A → a`.
    pub fn term_rules(&self) -> &[(NonTerminal, Terminal)] {
        &self.term_rules
    }

    /// All binary rules `A → B C`.
    pub fn bin_rules(&self) -> &[(NonTerminal, NonTerminal, NonTerminal)] {
        &self.bin_rules
    }

    /// Terminal rules of a given non-terminal.
    pub fn terms_of(&self, a: NonTerminal) -> &[Terminal] {
        &self.term_by_lhs[a.index()]
    }

    /// Binary rules of a given non-terminal.
    pub fn bins_of(&self, a: NonTerminal) -> &[(NonTerminal, NonTerminal)] {
        &self.bin_by_lhs[a.index()]
    }

    /// Display name of a non-terminal.
    pub fn name(&self, a: NonTerminal) -> &str {
        &self.names[a.index()]
    }

    /// The character a terminal stands for.
    pub fn letter(&self, t: Terminal) -> char {
        self.alphabet[t.index()]
    }

    /// Encode a `&str` into terminal ids; `None` if any char is foreign.
    pub fn encode(&self, word: &str) -> Option<Vec<Terminal>> {
        word.chars()
            .map(|c| {
                self.alphabet
                    .iter()
                    .position(|&x| x == c)
                    .map(|i| Terminal(i as u16))
            })
            .collect()
    }

    /// Decode terminal ids back to a `String`.
    pub fn decode(&self, word: &[Terminal]) -> String {
        word.iter().map(|&t| self.letter(t)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GrammarBuilder;

    fn abba_grammar() -> Grammar {
        // S → a B b a | ε-free long body exercising TERM+BIN.
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let bb = b.nonterminal("B");
        b.rule(s, |r| r.t('a').n(bb).t('b').t('a'));
        b.rule(bb, |r| r.t('b'));
        b.build(s)
    }

    #[test]
    fn cnf_shapes_only() {
        let cnf = CnfGrammar::from_grammar(&abba_grammar());
        assert!(!cnf.accepts_epsilon());
        for &(_, _b, _c) in cnf.bin_rules() {}
        // Every non-terminal has only CNF-shaped rules by construction;
        // validate via the generic view.
        let g = cnf.to_grammar();
        for r in g.rules() {
            match r.rhs.as_slice() {
                [Symbol::T(_)] => {}
                [Symbol::N(_), Symbol::N(_)] => {}
                other => panic!("non-CNF rule shape: {other:?}"),
            }
        }
    }

    #[test]
    fn cnf_size_quadratic_bound() {
        let g = abba_grammar();
        let cnf = CnfGrammar::from_grammar(&g);
        assert!(
            cnf.size() <= g.size() * g.size().max(1),
            "CNF size {} exceeds |G|^2 = {}",
            cnf.size(),
            g.size() * g.size()
        );
    }

    #[test]
    fn epsilon_elimination_sets_flag() {
        // S → A A, A → a | ε : language {ε, a, aa}.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.rule(a, |r| r.t('a'));
        b.epsilon_rule(a);
        let cnf = CnfGrammar::from_grammar(&b.build(s));
        assert!(cnf.accepts_epsilon());
        // S must still derive "a" and "aa": S → a (via DEL+UNIT) and S → A A.
        assert!(cnf.terms_of(cnf.start()).len() == 1);
        assert!(!cnf.bins_of(cnf.start()).is_empty());
    }

    #[test]
    fn unit_rules_are_eliminated() {
        // S → A, A → B, B → a b
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        let bb = b.nonterminal("B");
        b.rule(s, |r| r.n(a));
        b.rule(a, |r| r.n(bb));
        b.rule(bb, |r| r.t('a').t('b'));
        let cnf = CnfGrammar::from_grammar(&b.build(s));
        let g = cnf.to_grammar();
        for r in g.rules() {
            if r.rhs.len() == 1 {
                assert!(r.rhs[0].is_terminal()); // no unit N bodies
            }
        }
        // S itself derives "ab" via a binary rule after unit elimination.
        assert!(!cnf.bins_of(cnf.start()).is_empty());
    }

    #[test]
    fn already_cnf_grammar_is_stable() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.rule(a, |r| r.t('a'));
        let g = b.build(s);
        let cnf = CnfGrammar::from_grammar(&g);
        assert_eq!(cnf.size(), g.size());
        assert_eq!(cnf.rule_count(), g.rule_count());
    }

    #[test]
    fn roundtrip_to_grammar_preserves_size() {
        let cnf = CnfGrammar::from_grammar(&abba_grammar());
        assert_eq!(cnf.size(), cnf.to_grammar().size());
        assert_eq!(cnf.rule_count(), cnf.to_grammar().rule_count());
    }

    #[test]
    fn indexes_are_consistent() {
        let cnf = CnfGrammar::from_grammar(&abba_grammar());
        let by_lhs_total: usize = (0..cnf.nonterminal_count())
            .map(|i| {
                cnf.terms_of(NonTerminal(i as u32)).len() + cnf.bins_of(NonTerminal(i as u32)).len()
            })
            .sum();
        assert_eq!(by_lhs_total, cnf.rule_count());
    }
}
