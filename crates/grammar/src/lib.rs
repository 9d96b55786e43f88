//! # ucfg-grammar — context-free grammar substrate
//!
//! The CFG machinery underlying the reproduction of *“A Lower Bound on
//! Unambiguous Context Free Grammars via Communication Complexity”*
//! (Mengel & Vinall-Smeeth, PODS 2025):
//!
//! * [`mod@cfg`] / [`builder`] — grammars `(Σ, N, R, S)` with the paper's size
//!   measure `|G| = Σ|rhs|`;
//! * [`analysis`] — trimming, finiteness, and the Observation 9 uniform
//!   length analysis;
//! * [`normal_form`] — Chomsky normal form with the `≤ |G|²` conversion the
//!   paper assumes w.l.o.g.;
//! * [`cyk`] / [`earley`] / [`parse_tree`] — parsing, parse-tree counting
//!   and enumeration (the notions behind unambiguity);
//! * [`language`] / [`count`] — finite-language materialisation and the
//!   *decision procedure for unambiguity* used to machine-check every
//!   "uCFG" claim in the experiments;
//! * [`annotated`] — the Lemma 10 position-annotation `G → G'` with
//!   `|G'| ≤ n|G|`;
//! * [`sample`] — uniform parse-tree/word sampling (an algorithmic benefit
//!   of unambiguity);
//! * [`slp`] — straight-line programs (grammar-based compression, the
//!   related-work contrast);
//! * [`bignum`] — the arbitrary-precision arithmetic all counting rests on.
//!
//! # Example
//!
//! ```
//! use ucfg_grammar::GrammarBuilder;
//! use ucfg_grammar::count::decide_unambiguous;
//! use ucfg_grammar::language::finite_language;
//!
//! // S → A A ; A → a | b  — all words of length 2, unambiguously.
//! let mut b = GrammarBuilder::new(&['a', 'b']);
//! let s = b.nonterminal("S");
//! let a = b.nonterminal("A");
//! b.rule(s, |r| r.n(a).n(a));
//! b.rule(a, |r| r.t('a'));
//! b.rule(a, |r| r.t('b'));
//! let g = b.build(s);
//!
//! assert_eq!(g.size(), 4);                       // the paper's Σ|rhs| measure
//! assert_eq!(finite_language(&g).unwrap().len(), 4);
//! assert!(decide_unambiguous(&g).is_unambiguous());
//! ```

#![warn(missing_docs)]

pub mod analysis;
pub mod annotated;
pub mod bignum;
pub mod builder;
pub mod cfg;
pub mod count;
pub mod cyk;
pub mod derivation;
pub mod earley;
pub mod enumerate;
pub mod language;
pub mod lint;
pub mod metrics;
pub mod normal_form;
pub mod ops;
pub mod parse_tree;
pub mod sample;
pub mod slp;
pub mod symbol;
pub mod text;
pub mod weighted;

pub use bignum::BigUint;
pub use builder::GrammarBuilder;
pub use cfg::{Grammar, Rule};
pub use normal_form::CnfGrammar;
pub use symbol::{NonTerminal, Symbol, Terminal};

/// Heap bytes a vector has allocated (its capacity, not its length).
pub(crate) fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * std::mem::size_of::<T>()
}
