//! Static grammar analyses.
//!
//! * productive / reachable symbols and trimming (the paper's standing
//!   assumption that "every non-terminal appears in at least one parse
//!   tree"),
//! * language-finiteness (the paper only deals with finite languages),
//! * the Observation 9 analysis: in a grammar whose language has a single
//!   word length, every useful non-terminal generates words of exactly one
//!   length.

use crate::cfg::{Grammar, Rule};
use crate::symbol::{NonTerminal, Symbol};

/// Which non-terminals can derive some terminal word.
pub fn productive(g: &Grammar) -> Vec<bool> {
    body_fixpoint(g.nonterminal_count(), g.rules(), true)
}

/// The least set of non-terminals `A` such that some rule `A → α` has
/// every symbol of `α` in the set, where terminals count as members iff
/// `terminals_hold`. Productivity is the `true` case, nullability the
/// `false` one.
///
/// Worklist over per-rule counts of non-terminal occurrences not yet in
/// the set: each occurrence is visited once when its non-terminal joins,
/// so the pass is linear in `|G|` whatever the rule order.
pub(crate) fn body_fixpoint(nts: usize, rules: &[Rule], terminals_hold: bool) -> Vec<bool> {
    let mut holds = vec![false; nts];
    let mut missing = vec![0usize; rules.len()];
    // Rules by non-terminal occurrence, in compressed rows: the
    // occurrences of `n` are `occ[occ_start[n]..occ_start[n + 1]]`.
    let mut occ_start = vec![0usize; nts + 1];
    let mut queue = Vec::new();
    for (i, r) in rules.iter().enumerate() {
        if !terminals_hold && r.rhs.iter().any(|s| s.is_terminal()) {
            missing[i] = usize::MAX; // can never fire
            continue;
        }
        for s in &r.rhs {
            if let Symbol::N(n) = s {
                missing[i] += 1;
                occ_start[n.index() + 1] += 1;
            }
        }
        if missing[i] == 0 && !holds[r.lhs.index()] {
            holds[r.lhs.index()] = true;
            queue.push(r.lhs);
        }
    }
    for n in 0..nts {
        occ_start[n + 1] += occ_start[n];
    }
    let mut fill = occ_start.clone();
    let mut occ = vec![0usize; occ_start[nts]];
    for (i, r) in rules.iter().enumerate() {
        if missing[i] == usize::MAX {
            continue;
        }
        for s in &r.rhs {
            if let Symbol::N(n) = s {
                occ[fill[n.index()]] = i;
                fill[n.index()] += 1;
            }
        }
    }
    while let Some(n) = queue.pop() {
        for &i in &occ[occ_start[n.index()]..occ_start[n.index() + 1]] {
            missing[i] -= 1;
            let lhs = rules[i].lhs;
            if missing[i] == 0 && !holds[lhs.index()] {
                holds[lhs.index()] = true;
                queue.push(lhs);
            }
        }
    }
    holds
}

/// Which non-terminals are reachable from the start symbol.
pub fn reachable(g: &Grammar) -> Vec<bool> {
    let mut reach = vec![false; g.nonterminal_count()];
    let mut stack = vec![g.start()];
    reach[g.start().index()] = true;
    while let Some(a) = stack.pop() {
        for r in g.rules_for(a) {
            for s in &r.rhs {
                if let Symbol::N(n) = s {
                    if !reach[n.index()] {
                        reach[n.index()] = true;
                        stack.push(*n);
                    }
                }
            }
        }
    }
    reach
}

/// Which non-terminals are *useful*: they appear in at least one parse tree
/// of the grammar (reachable via productive context and productive
/// themselves).
pub fn useful(g: &Grammar) -> Vec<bool> {
    let prod = productive(g);
    // Reachability restricted to rules whose body is entirely productive —
    // a non-terminal only appears in a parse tree if the whole rule that
    // introduces it can complete.
    let mut reach = vec![false; g.nonterminal_count()];
    if prod[g.start().index()] {
        reach[g.start().index()] = true;
        let mut stack = vec![g.start()];
        while let Some(a) = stack.pop() {
            for r in g.rules_for(a) {
                let body_prod = r.rhs.iter().all(|s| match s {
                    Symbol::T(_) => true,
                    Symbol::N(n) => prod[n.index()],
                });
                if !body_prod {
                    continue;
                }
                for s in &r.rhs {
                    if let Symbol::N(n) = s {
                        if !reach[n.index()] {
                            reach[n.index()] = true;
                            stack.push(*n);
                        }
                    }
                }
            }
        }
    }
    (0..g.nonterminal_count())
        .map(|i| prod[i] && reach[i])
        .collect()
}

/// Remove useless non-terminals and the rules mentioning them, remapping
/// ids densely. The start symbol is always kept (if the language is empty
/// the result has a start with no rules).
pub fn trim(g: &Grammar) -> Grammar {
    let keep = useful(g);
    let mut remap: Vec<Option<NonTerminal>> = vec![None; g.nonterminal_count()];
    let mut names = Vec::new();
    for i in 0..g.nonterminal_count() {
        if keep[i] || NonTerminal(i as u32) == g.start() {
            remap[i] = Some(NonTerminal(names.len() as u32));
            names.push(g.name(NonTerminal(i as u32)).to_string());
        }
    }
    let mut rules = Vec::new();
    'rules: for r in g.rules() {
        let Some(lhs) = remap[r.lhs.index()] else {
            continue;
        };
        if !keep[r.lhs.index()] {
            continue; // start kept only as a placeholder when useless
        }
        let mut rhs = Vec::with_capacity(r.rhs.len());
        for &s in &r.rhs {
            match s {
                Symbol::T(t) => rhs.push(Symbol::T(t)),
                Symbol::N(n) => match remap[n.index()] {
                    Some(m) if keep[n.index()] => rhs.push(Symbol::N(m)),
                    _ => continue 'rules,
                },
            }
        }
        rules.push(Rule { lhs, rhs });
    }
    let start = remap[g.start().index()].expect("start is always kept");
    Grammar::from_parts(g.alphabet().to_vec(), names, rules, start)
}

/// Which non-terminals can derive ε.
pub fn nullable(g: &Grammar) -> Vec<bool> {
    body_fixpoint(g.nonterminal_count(), g.rules(), false)
}

/// Is `L(G)` a finite language?
///
/// For a trimmed grammar, the language is infinite iff some strongly
/// connected component of the non-terminal graph contains a *growing* edge:
/// a rule `A → α B β` with `A, B` in the same SCC and `αβ` able to derive a
/// non-empty word. (Pure unit cycles keep the language finite — they only
/// make ambiguity infinite.)
pub fn is_language_finite(g: &Grammar) -> bool {
    let g = trim(g);
    let n = g.nonterminal_count();
    // can_derive_nonempty[A]: some word derived from A has length >= 1.
    let mut nonempty = vec![false; n];
    let mut changed = true;
    while changed {
        changed = false;
        for r in g.rules() {
            if nonempty[r.lhs.index()] {
                continue;
            }
            let ok = r.rhs.iter().any(|s| match s {
                Symbol::T(_) => true,
                Symbol::N(m) => nonempty[m.index()],
            });
            if ok {
                nonempty[r.lhs.index()] = true;
                changed = true;
            }
        }
    }
    let scc = scc_ids(&g);
    for r in g.rules() {
        for (i, s) in r.rhs.iter().enumerate() {
            let Symbol::N(b) = s else { continue };
            if scc[r.lhs.index()] != scc[b.index()] {
                continue;
            }
            // Is there growth alongside b in this rule?
            let grows = r.rhs.iter().enumerate().any(|(j, s2)| {
                j != i
                    && match s2 {
                        Symbol::T(_) => true,
                        Symbol::N(m) => nonempty[m.index()],
                    }
            });
            if grows {
                return false;
            }
        }
    }
    true
}

/// Does some non-terminal admit infinitely many parse trees for a single
/// word (equivalently after trimming: is there any cycle at all in the
/// non-terminal graph, including pure unit/ε cycles)?
pub fn has_derivation_cycle(g: &Grammar) -> bool {
    let g = trim(g);
    let scc = scc_ids(&g);
    let n = g.nonterminal_count();
    let mut comp_size = vec![0usize; n];
    for &c in &scc {
        comp_size[c] += 1;
    }
    for r in g.rules() {
        for s in &r.rhs {
            if let Symbol::N(b) = s {
                let c = scc[r.lhs.index()];
                if c == scc[b.index()] && (comp_size[c] > 1 || r.lhs == *b) {
                    return true;
                }
            }
        }
    }
    // Self-loops within singleton SCCs: A → …A… was caught above via lhs==b.
    false
}

/// Tarjan SCC over the non-terminal graph (edge A→B for each occurrence of
/// B in a body of an A-rule). Returns a component id per non-terminal.
fn scc_ids(g: &Grammar) -> Vec<usize> {
    let n = g.nonterminal_count();
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
    for r in g.rules() {
        for s in &r.rhs {
            if let Symbol::N(b) = s {
                adj[r.lhs.index()].push(b.index());
            }
        }
    }
    // Iterative Tarjan.
    let mut index = vec![usize::MAX; n];
    let mut low = vec![0usize; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut comp = vec![usize::MAX; n];
    let mut next_index = 0usize;
    let mut next_comp = 0usize;
    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        // call stack: (node, next child position)
        let mut call: Vec<(usize, usize)> = vec![(root, 0)];
        index[root] = next_index;
        low[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ci)) = call.last_mut() {
            if *ci < adj[v].len() {
                let w = adj[v][*ci];
                *ci += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    low[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
                    loop {
                        let w = stack.pop().expect("scc stack nonempty");
                        on_stack[w] = false;
                        comp[w] = next_comp;
                        if w == v {
                            break;
                        }
                    }
                    next_comp += 1;
                }
            }
        }
    }
    comp
}

/// Observation 9: in a grammar accepting a language in which all words have
/// the same length, every useful non-terminal generates words of exactly
/// one length. Computes that length per non-terminal.
///
/// Returns `None` if some useful non-terminal generates words of two
/// different lengths (i.e. the grammar cannot accept a fixed-length
/// language), otherwise `Some(lengths)` where `lengths[A]` is the unique
/// generated length (`None` for useless non-terminals of the input).
pub fn uniform_lengths(g: &Grammar) -> Option<Vec<Option<usize>>> {
    let keep = useful(g);
    let mut len: Vec<Option<usize>> = vec![None; g.nonterminal_count()];
    let mut changed = true;
    while changed {
        changed = false;
        for r in g.rules() {
            if !keep[r.lhs.index()] {
                continue;
            }
            let mut total = 0usize;
            let mut known = true;
            for s in &r.rhs {
                match s {
                    Symbol::T(_) => total += 1,
                    Symbol::N(m) => match len[m.index()] {
                        Some(l) => total += l,
                        None => {
                            known = false;
                            break;
                        }
                    },
                }
            }
            if !known {
                continue;
            }
            match len[r.lhs.index()] {
                None => {
                    len[r.lhs.index()] = Some(total);
                    changed = true;
                }
                Some(existing) if existing != total => return None,
                Some(_) => {}
            }
        }
    }
    // Cross-check: every rule with a known body must agree (a rule may have
    // been skipped above after its lhs was fixed by another rule, and then
    // become fully known in a later sweep that made no other change).
    for r in g.rules() {
        if !keep[r.lhs.index()] {
            continue;
        }
        let mut total = 0usize;
        let mut known = true;
        for s in &r.rhs {
            match s {
                Symbol::T(_) => total += 1,
                Symbol::N(m) => match len[m.index()] {
                    Some(l) => total += l,
                    None => known = false,
                },
            }
        }
        if known && len[r.lhs.index()] != Some(total) {
            return None;
        }
    }
    Some(len)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GrammarBuilder;

    /// S → A B | a ;  A → a ;  C → c  (C unreachable, B unproductive)
    fn with_useless() -> Grammar {
        let mut b = GrammarBuilder::new(&['a', 'c']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        let bb = b.nonterminal("B");
        let c = b.nonterminal("C");
        b.rule(s, |r| r.n(a).n(bb));
        b.rule(s, |r| r.t('a'));
        b.rule(a, |r| r.t('a'));
        b.rule(c, |r| r.t('c'));
        b.build(s)
    }

    #[test]
    fn productive_detects_dead_nonterminal() {
        let g = with_useless();
        let p = productive(&g);
        assert_eq!(p, vec![true, true, false, true]); // S A B C
    }

    #[test]
    fn reachable_from_start() {
        let g = with_useless();
        let r = reachable(&g);
        assert_eq!(r, vec![true, true, true, false]);
    }

    #[test]
    fn useful_requires_whole_rule_productive() {
        let g = with_useless();
        let u = useful(&g);
        // A is only introduced by S → A B whose body is unproductive, so A
        // never appears in a complete parse tree.
        assert_eq!(u, vec![true, false, false, false]);
    }

    #[test]
    fn trim_removes_useless() {
        let g = trim(&with_useless());
        assert_eq!(g.nonterminal_count(), 1);
        assert_eq!(g.rule_count(), 1); // S → a
        assert_eq!(g.size(), 1);
    }

    #[test]
    fn trim_empty_language_keeps_start() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.n(s).t('a')); // S only derives via itself: empty language
        let g = trim(&b.build(s));
        assert_eq!(g.nonterminal_count(), 1);
        assert_eq!(g.rule_count(), 0);
    }

    #[test]
    fn nullable_closure() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.epsilon_rule(a);
        b.rule(a, |r| r.t('a'));
        let g = b.build(s);
        assert_eq!(nullable(&g), vec![true, true]);
    }

    #[test]
    fn finite_language_detected() {
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.ts("ab"));
        b.rule(s, |r| r.ts("ba"));
        assert!(is_language_finite(&b.build(s)));
    }

    #[test]
    fn infinite_language_detected() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a').n(s));
        b.rule(s, |r| r.t('a'));
        assert!(!is_language_finite(&b.build(s)));
    }

    #[test]
    fn unit_cycle_is_finite_language_but_cyclic_derivations() {
        // S → A, A → S | a : language {a} but infinitely many trees.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a));
        b.rule(a, |r| r.n(s));
        b.rule(a, |r| r.t('a'));
        let g = b.build(s);
        assert!(is_language_finite(&g));
        assert!(has_derivation_cycle(&g));
    }

    #[test]
    fn acyclic_grammar_has_no_derivation_cycle() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.rule(a, |r| r.t('a'));
        assert!(!has_derivation_cycle(&b.build(s)));
    }

    #[test]
    fn uniform_lengths_of_fixed_length_grammar() {
        // S → A A, A → a | b : all words have length 2.
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.rule(a, |r| r.t('a'));
        b.rule(a, |r| r.t('b'));
        let lens = uniform_lengths(&b.build(s)).expect("fixed length");
        assert_eq!(lens, vec![Some(2), Some(1)]);
    }

    #[test]
    fn uniform_lengths_rejects_mixed_lengths() {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.t('a'));
        b.rule(s, |r| r.ts("aa"));
        assert!(uniform_lengths(&b.build(s)).is_none());
    }

    #[test]
    fn uniform_lengths_ignores_useless_mixed_nonterminal() {
        // B generates length 1 and 2, but B is unreachable.
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        let bb = b.nonterminal("B");
        b.rule(s, |r| r.t('a'));
        b.rule(bb, |r| r.t('a'));
        b.rule(bb, |r| r.ts("aa"));
        let lens = uniform_lengths(&b.build(s)).expect("useless B ignored");
        assert_eq!(lens[0], Some(1));
        assert_eq!(lens[1], None);
    }
}
