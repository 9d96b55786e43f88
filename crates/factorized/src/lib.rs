//! # ucfg-factorized — the database-facing substrate
//!
//! The factorised-representation context the paper's motivation rests on:
//!
//! * [`circuit`] — d-representations in the unnamed perspective
//!   (ε/letter/∪/× DAGs), size, counting, determinism;
//! * [`convert`] — the Kimelfeld–Martens–Niewerth isomorphism between CFGs
//!   for finite languages and d-representations (unambiguity ↔ determinism);
//! * [`join`] — a micro factorised-join engine reproducing the
//!   Olteanu–Závodný exponential gap between factorised and materialised
//!   query results;
//! * [`csv_scenario`] — the introduction's CSV column-agreement extraction
//!   task, with its small ambiguous CFG and the reduction from `L_n` that
//!   makes every uCFG for it exponential in the column set.
//!
//! # Example — a factorised join, counted and ordered
//!
//! ```
//! use ucfg_factorized::join::{complete_chain, factorized_path_join, path_join_count};
//! use ucfg_factorized::ordering::lex_extreme;
//!
//! let rels = complete_chain(3, 4);                 // 3^5 = 243 tuples
//! let circuit = factorized_path_join(&rels);
//! assert_eq!(circuit.count_derivations(), path_join_count(&rels));
//! assert!(circuit.size() < 100);                   // vs 243 · 5 characters
//! assert_eq!(lex_extreme(&circuit, true).unwrap(), "00000");
//! assert_eq!(lex_extreme(&circuit, false).unwrap(), "22222");
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod convert;
pub mod csv_scenario;
pub mod join;
pub mod ordering;

pub use circuit::{Circuit, CircuitBuilder, Node};
