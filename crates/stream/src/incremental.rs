//! Pillar 1: the incremental Earley parser over an append-only token
//! stream, with explicit checkpoint/rewind.

use std::sync::Arc;
use ucfg_grammar::earley::Chart;
use ucfg_grammar::symbol::Terminal;
use ucfg_grammar::Grammar;
use ucfg_support::obs;

/// A resumable position in a [`StreamParser`]'s history, returned by
/// [`StreamParser::checkpoint`] and consumed by
/// [`StreamParser::truncate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Checkpoint(pub u64);

/// An Earley recogniser over a growing token stream.
///
/// Each [`StreamParser::append`] extends the chart by exactly one set,
/// reusing every previously closed set verbatim — amortised
/// O(new-set work) instead of the O(n · set work) a full reparse pays.
/// [`StreamParser::accepted`] answers "is the whole stream so far in
/// `L(G)`?" after any append, and [`StreamParser::truncate`] rewinds to
/// an earlier [`Checkpoint`] by dropping the chart suffix (the kept
/// prefix is final and needs no recomputation).
///
/// ```
/// use std::sync::Arc;
/// use ucfg_stream::StreamParser;
///
/// let g = Arc::new(ucfg_grammar::text::parse_grammar("S -> a S b S | ()").unwrap());
/// let mut p = StreamParser::new(Arc::clone(&g));
/// for c in "aabb".chars() {
///     p.append(g.terminal_of(c).unwrap());
/// }
/// assert!(p.accepted());
/// let cp = p.checkpoint();
/// p.append(g.terminal_of('a').unwrap());
/// assert!(!p.accepted());
/// p.truncate(cp).unwrap();
/// assert!(p.accepted());
/// ```
pub struct StreamParser {
    chart: Chart<Arc<Grammar>>,
}

impl StreamParser {
    /// An empty stream over `g` (the empty prefix is already parsed).
    pub fn new(g: Arc<Grammar>) -> StreamParser {
        StreamParser {
            chart: Chart::new(g, None, false),
        }
    }

    /// The grammar this parser recognises.
    pub fn grammar(&self) -> &Arc<Grammar> {
        self.chart.grammar()
    }

    /// Append one token, extending the chart by one closed set.
    pub fn append(&mut self, t: Terminal) {
        count_append(self.chart.cells());
        self.chart.append(t);
    }

    /// Append every character of `text`, encoded through the grammar's
    /// alphabet. Returns the number of tokens appended, or the first
    /// foreign character (nothing is appended in that case).
    pub fn append_str(&mut self, text: &str) -> Result<usize, char> {
        let g = Arc::clone(self.chart.grammar());
        let tokens: Vec<Terminal> = text
            .chars()
            .map(|c| g.terminal_of(c).ok_or(c))
            .collect::<Result<_, _>>()?;
        for t in &tokens {
            self.append(*t);
        }
        Ok(tokens.len())
    }

    /// Number of tokens appended (and not truncated away).
    pub fn len(&self) -> u64 {
        self.chart.total()
    }

    /// Has nothing been appended (or everything been truncated)?
    pub fn is_empty(&self) -> bool {
        self.chart.total() == 0
    }

    /// Is the entire stream so far a member of the language?
    pub fn accepted(&self) -> bool {
        self.chart.suffix_complete(0)
    }

    /// The stream's tokens, oldest first.
    pub fn tokens(&self) -> Vec<Terminal> {
        self.chart.tokens().collect()
    }

    /// Mark the current position for a later [`StreamParser::truncate`].
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint(self.chart.total())
    }

    /// Rewind to a checkpoint, discarding every set and token appended
    /// after it. Fails (without modifying the chart) if the checkpoint
    /// lies beyond the current position.
    pub fn truncate(&mut self, cp: Checkpoint) -> Result<(), Checkpoint> {
        if cp.0 > self.chart.total() {
            return Err(cp);
        }
        self.chart.truncate(cp.0);
        Ok(())
    }

    /// Total live chart items across every set (the quantity an append
    /// reuses instead of recomputing).
    pub fn cell_count(&self) -> u64 {
        self.chart.cells()
    }

    /// An order-insensitive digest of the whole chart; equal
    /// fingerprints mean identical item sets at every position. The
    /// differential suite uses this to prove append/truncate sequences
    /// land on the same chart a from-scratch parse builds.
    pub fn fingerprint(&self) -> u64 {
        self.chart.fingerprint()
    }
}

/// Record one streamed token and the chart items its append reuses.
/// Kept out of the grammar-crate chart so batch recognition (the serve
/// cross-check) never moves the `stream.*` counters.
pub(crate) fn count_append(reused_cells: u64) {
    if obs::enabled() {
        obs::counter("stream.tokens").add(1);
        obs::counter("stream.chart_cells_reused").add(reused_cells);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ucfg_grammar::earley::Earley;
    use ucfg_grammar::text::parse_grammar;

    fn dyck() -> Arc<Grammar> {
        Arc::new(parse_grammar("S -> a S b S | ()").unwrap())
    }

    #[test]
    fn append_tracks_full_recognition() {
        let g = dyck();
        let e = Earley::new(&g);
        let mut p = StreamParser::new(Arc::clone(&g));
        assert!(p.accepted(), "empty word is balanced");
        let text = "aabbabab";
        for (i, c) in text.char_indices() {
            p.append(g.terminal_of(c).unwrap());
            let prefix = &text[..=i];
            assert_eq!(p.accepted(), e.recognize_str(prefix), "prefix {prefix}");
        }
        assert_eq!(p.len(), 8);
    }

    #[test]
    fn truncate_rewinds_to_the_checkpointed_chart() {
        let g = dyck();
        let mut p = StreamParser::new(Arc::clone(&g));
        p.append_str("aabb").unwrap();
        let cp = p.checkpoint();
        let fp = p.fingerprint();
        p.append_str("ababab").unwrap();
        assert_ne!(p.fingerprint(), fp);
        p.truncate(cp).unwrap();
        assert_eq!(p.fingerprint(), fp);
        assert!(p.accepted());

        // A stale checkpoint from the discarded future is rejected.
        assert!(p.truncate(Checkpoint(10)).is_err());
        // Truncating to the current position is a no-op.
        p.truncate(p.checkpoint()).unwrap();
        assert_eq!(p.fingerprint(), fp);
    }

    #[test]
    fn append_str_rejects_foreign_letters_atomically() {
        let g = dyck();
        let mut p = StreamParser::new(g);
        assert_eq!(p.append_str("abxab"), Err('x'));
        assert!(p.is_empty(), "nothing appended on a foreign letter");
        assert_eq!(p.append_str("ab"), Ok(2));
    }

    #[test]
    fn incremental_chart_matches_from_scratch() {
        let g = dyck();
        let mut incremental = StreamParser::new(Arc::clone(&g));
        incremental.append_str("aab").unwrap();
        incremental.truncate(Checkpoint(1)).unwrap();
        incremental.append_str("babab").unwrap();

        // Final token sequence: "a" + "babab".
        let mut fresh = StreamParser::new(Arc::clone(&g));
        fresh.append_str("ababab").unwrap();
        assert_eq!(incremental.fingerprint(), fresh.fingerprint());
        assert_eq!(incremental.cell_count(), fresh.cell_count());
    }
}
