//! A stream session: one grammar, one sliding window, optionally one
//! registered `CFG ∩ regex` query — the unit `/stream/*` endpoints and
//! the `ucfg stream` CLI driver operate on.
//!
//! Sessions are **deterministic by construction**: the session id is an
//! FNV digest of the opening parameters (grammar content hash, window,
//! regex, client-chosen name), every report is a pure function of the
//! token history, and truncation uses absolute stream positions. The
//! serve layer leans on this for its byte-identical-across-shards
//! contract.

use crate::product::ProductQuery;
use crate::window::WindowParser;
use std::fmt;
use std::sync::Arc;
use ucfg_grammar::cyk::{CykChart, CykRuleIndex};
use ucfg_grammar::normal_form::CnfGrammar;
use ucfg_grammar::symbol::Terminal;
use ucfg_grammar::Grammar;
use ucfg_support::fnv::Fnv1a;
use ucfg_support::obs;

/// Why a session operation was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamError {
    /// A fed character is not in the grammar's alphabet.
    UnknownLetter(char),
    /// The registered regex failed to parse.
    BadRegex(String),
    /// A truncate position outside `[base, total]`.
    TruncateOutOfRange {
        /// The requested position.
        requested: u64,
        /// Oldest position still covered (window base).
        base: u64,
        /// Current stream position.
        total: u64,
    },
}

impl fmt::Display for StreamError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamError::UnknownLetter(c) => {
                write!(f, "letter {c:?} is not in the grammar's alphabet")
            }
            StreamError::BadRegex(msg) => write!(f, "regex: {msg}"),
            StreamError::TruncateOutOfRange {
                requested,
                base,
                total,
            } => write!(
                f,
                "truncate to {requested} outside the retained range [{base}, {total}]"
            ),
        }
    }
}

/// What a feed (or truncate) reports back.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeedReport {
    /// Tokens appended by this call (0 for truncates).
    pub fed: usize,
    /// Tokens evicted from the window front by this call.
    pub evicted: u64,
    /// Absolute stream position after the call.
    pub total: u64,
    /// Oldest position still in the window.
    pub base: u64,
    /// Tokens currently in the window.
    pub window_len: usize,
    /// Does the current window content parse?
    pub member: bool,
}

/// The registered product query's slice of a [`QueryReport`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProductReport {
    /// Is `L(G) ∩ L(regex)` non-empty (static Bar-Hillel verdict)?
    pub nonempty: bool,
    /// States in the compiled DFA.
    pub dfa_states: usize,
    /// Window suffixes currently in `L(G) ∩ L(regex)`.
    pub matches: usize,
}

/// A full point-in-time answer about the session's window.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReport {
    /// Absolute stream position.
    pub total: u64,
    /// Oldest position still in the window.
    pub base: u64,
    /// The window content, decoded to a string.
    pub window: String,
    /// Does the window content parse?
    pub member: bool,
    /// Window suffixes (incl. the empty one) in `L(G)`.
    pub suffix_matches: usize,
    /// Exact parse-tree count of the window content (CYK over the CNF
    /// conversion, same semantics as `/parse`), as a decimal string.
    pub count: String,
    /// Product-query answers, when a regex is registered.
    pub product: Option<ProductReport>,
}

/// One live streaming session.
pub struct StreamSession {
    id: u64,
    g: Arc<Grammar>,
    window: WindowParser,
    product: Option<ProductQuery>,
    cnf: CnfGrammar,
    /// Built once at open and shared by every query's chart.
    index: CykRuleIndex,
}

/// Derive the deterministic session id from the opening parameters.
/// Exposed so the serve router can shard-place a session without
/// building it.
pub fn session_id(grammar_hash: u64, window: usize, regex: Option<&str>, name: &str) -> u64 {
    let mut h = Fnv1a::new();
    h.write(b"ucfg-stream-session-v1")
        .write_u64(grammar_hash)
        .write_usize(window);
    match regex {
        Some(r) => {
            h.write_u8(1).write_usize(r.len()).write(r.as_bytes());
        }
        None => {
            h.write_u8(0);
        }
    }
    h.write_usize(name.len()).write(name.as_bytes());
    h.finish()
}

impl StreamSession {
    /// Open a session: window of `capacity` tokens over `g`, optional
    /// regex for the product layer, `name` to distinguish otherwise
    /// identical sessions.
    pub fn open(
        g: Arc<Grammar>,
        capacity: usize,
        regex: Option<&str>,
        name: &str,
    ) -> Result<StreamSession, StreamError> {
        let id = session_id(g.content_hash(), capacity, regex, name);
        let product = match regex {
            Some(r) => Some(ProductQuery::compile(&g, r).map_err(StreamError::BadRegex)?),
            None => None,
        };
        let cnf = CnfGrammar::from_grammar(&g);
        let index = CykRuleIndex::new(&cnf);
        let window = WindowParser::new(Arc::clone(&g), capacity);
        if obs::enabled() {
            obs::counter("stream.sessions").add(1);
        }
        Ok(StreamSession {
            id,
            g,
            window,
            product,
            cnf,
            index,
        })
    }

    /// The deterministic session id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The session's grammar.
    pub fn grammar(&self) -> &Arc<Grammar> {
        &self.g
    }

    /// The window capacity this session was opened with.
    pub fn capacity(&self) -> usize {
        self.window.capacity()
    }

    /// Total tokens accepted over the session's lifetime (monotone
    /// except for truncates).
    pub fn total(&self) -> u64 {
        self.window.total()
    }

    /// Feed a text chunk; every character must be in the grammar's
    /// alphabet (nothing is fed otherwise).
    pub fn feed(&mut self, text: &str) -> Result<FeedReport, StreamError> {
        let tokens: Vec<Terminal> = text
            .chars()
            .map(|c| self.g.terminal_of(c).ok_or(StreamError::UnknownLetter(c)))
            .collect::<Result<_, _>>()?;
        let mut evicted = 0u64;
        for &t in &tokens {
            evicted += self.window.push(t) as u64;
            if let Some(q) = self.product.as_mut() {
                q.push(t);
            }
        }
        if let Some(q) = self.product.as_mut() {
            q.sync(&self.window);
        }
        Ok(self.feed_report(tokens.len(), evicted))
    }

    /// Rewind the stream to absolute position `to`. Only positions the
    /// window still covers are reachable; anything older was evicted.
    pub fn truncate(&mut self, to: u64) -> Result<FeedReport, StreamError> {
        let (base, total) = (self.window.base(), self.window.total());
        if to < base || to > total {
            return Err(StreamError::TruncateOutOfRange {
                requested: to,
                base,
                total,
            });
        }
        self.window.truncate(to);
        if let Some(q) = self.product.as_mut() {
            q.rewind(&self.window);
        }
        Ok(self.feed_report(0, 0))
    }

    fn feed_report(&self, fed: usize, evicted: u64) -> FeedReport {
        FeedReport {
            fed,
            evicted,
            total: self.window.total(),
            base: self.window.base(),
            window_len: self.window.window_len(),
            member: self.window.current_member(),
        }
    }

    /// Answer every query the session supports, in one deterministic
    /// report.
    pub fn query(&self) -> QueryReport {
        let tokens = self.window.window();
        let window: String = self.g.decode(&tokens);
        let count = match self.cnf.encode(&window) {
            Some(w) => CykChart::build_with_index(&self.cnf, &self.index, &w)
                .count_trees()
                .to_string(),
            None => "0".to_string(),
        };
        let product = self.product.as_ref().map(|q| ProductReport {
            nonempty: q.nonempty(),
            dfa_states: q.dfa_states(),
            matches: q.window_matches(&self.window),
        });
        QueryReport {
            total: self.window.total(),
            base: self.window.base(),
            window,
            member: self.window.current_member(),
            suffix_matches: self.window.suffix_match_count(),
            count,
            product,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucfg_grammar::text::parse_grammar;

    fn dyck() -> Arc<Grammar> {
        Arc::new(parse_grammar("S -> a S b S | ()").unwrap())
    }

    #[test]
    fn session_ids_are_deterministic_and_parameter_sensitive() {
        let g = dyck();
        let a = StreamSession::open(Arc::clone(&g), 8, None, "").unwrap();
        let b = StreamSession::open(Arc::clone(&g), 8, None, "").unwrap();
        assert_eq!(a.id(), b.id());
        let c = StreamSession::open(Arc::clone(&g), 9, None, "").unwrap();
        let d = StreamSession::open(Arc::clone(&g), 8, Some("ab"), "").unwrap();
        let e = StreamSession::open(Arc::clone(&g), 8, None, "two").unwrap();
        assert_ne!(a.id(), c.id());
        assert_ne!(a.id(), d.id());
        assert_ne!(a.id(), e.id());
    }

    #[test]
    fn feed_query_truncate_round_trip() {
        let g = dyck();
        let mut s = StreamSession::open(Arc::clone(&g), 8, Some("a(a|b)*b"), "").unwrap();
        let r = s.feed("aabb").unwrap();
        assert_eq!(r.fed, 4);
        assert!(r.member);
        let q = s.query();
        assert_eq!(q.window, "aabb");
        assert_eq!(q.count, "1");
        let p = q.product.clone().unwrap();
        assert!(p.nonempty);
        assert_eq!(p.matches, 1, "only \"aabb\" matches both");

        // Feed junk, rewind, and get the same report back.
        s.feed("ab").unwrap();
        let r = s.truncate(4).unwrap();
        assert_eq!(r.total, 4);
        assert_eq!(s.query(), q);

        // Out-of-range truncates are refused with the retained range.
        let err = s.truncate(99).unwrap_err();
        assert!(matches!(err, StreamError::TruncateOutOfRange { .. }));
    }

    #[test]
    fn truncate_cannot_reach_evicted_positions() {
        let g = dyck();
        let mut s = StreamSession::open(Arc::clone(&g), 4, None, "").unwrap();
        s.feed("abababab").unwrap(); // base is now 4
        let err = s.truncate(2).unwrap_err();
        assert_eq!(
            err,
            StreamError::TruncateOutOfRange {
                requested: 2,
                base: 4,
                total: 8
            }
        );
        // But positions within the window are reachable.
        let r = s.truncate(6).unwrap();
        assert_eq!((r.base, r.total, r.window_len), (4, 6, 2));
    }

    #[test]
    fn foreign_letters_are_rejected_atomically() {
        let g = dyck();
        let mut s = StreamSession::open(Arc::clone(&g), 8, None, "").unwrap();
        assert_eq!(s.feed("abxb").unwrap_err(), StreamError::UnknownLetter('x'));
        assert_eq!(s.total(), 0);
    }
}
