//! CYK parsing over Chomsky normal form.
//!
//! The chart stores, for every span `(i, len)`, the bitset of non-terminals
//! deriving that span. Chart filling uses a rule-indexed **bitset kernel**
//! ([`CykRuleIndex`]): binary rules are grouped by left child, and cells
//! combine with word-level AND/OR over the non-zero 64-non-terminal
//! blocks of the rule sets instead of per-rule scalar bit probes. The
//! classic per-rule loop is kept as [`CykChart::build_scalar`], the
//! differential reference.
//!
//! On top of the boolean chart we provide exact parse-tree **counting**
//! (the ambiguity degree of a word — the quantity whose `= 1` everywhere
//! defines a uCFG) and bounded tree enumeration.

use crate::bignum::BigUint;
use crate::normal_form::CnfGrammar;
use crate::parse_tree::{Child, ParseTree};
use crate::symbol::{NonTerminal, Terminal};
use crate::vec_bytes;
use std::collections::HashMap;
use ucfg_support::{arena, obs, simd};

/// Binary rules re-indexed for the bitset CYK kernel, block-sparse.
///
/// Rules `A → B C` are grouped by left child `B`, then by `(B, C)`
/// *pair*. Pairs are numbered in `(B, C)` order. For each `B` the index
/// keeps only the non-zero 64-bit blocks of its right-child set; each
/// block records the number of its lowest pair, so the pair of a right
/// child `C` that hits is that base plus the rank of `C` within the
/// block (a popcount). For each pair it keeps only the non-zero 64-bit
/// blocks of its head set. Memory is `O(nts + binary rules)` — never
/// `nts²` — which is what lets exponential-size grammars such as the
/// paper's Example 4 uCFG compile at all.
///
/// The chart kernel walks the set bits of the left cell, ANDs each of
/// `B`'s right blocks against the matching word of the right cell, and
/// ORs the head blocks of every hit pair into the target cell: work
/// proportional to the live `(B, C)` pairs, with all-zero words of the
/// rule sets never stored or visited.
///
/// Build it once per grammar ([`CykRuleIndex::new`]) and reuse it across
/// words via [`CykChart::build_with_index`]; [`CykChart::build`] creates a
/// throwaway index internally.
#[derive(Debug)]
pub struct CykRuleIndex {
    words_per_set: usize,
    /// Bitset of left children that head at least one binary rule
    /// (`words_per_set` words): ANDed into each left cell before the bit
    /// walk, so non-terminals that never combine rightward — terminal-only
    /// producers, most of a CNF conversion's chain symbols — cost nothing
    /// per split. Every live `B` has at least one right block.
    left_live: Vec<u64>,
    /// Per left child `B`: its right blocks are
    /// `right[right_start[B]..right_start[B + 1]]` (`nts + 1` entries).
    /// With one word per set, `right[B]` is `B`'s only block (empty when
    /// `B` is not live).
    right_start: Vec<u32>,
    right: Vec<RightBlock>,
    /// Per pair `p`: its head blocks are `head[head_start[p]..head_start[p
    /// + 1]]` (`pairs + 1` entries). With one word per set every pair has
    /// exactly one head block, so `head[p]` belongs to pair `p`.
    head_start: Vec<u32>,
    head: Vec<HeadBlock>,
}

/// One non-zero word of a left child's right-child set.
#[derive(Debug, Clone, Copy)]
struct RightBlock {
    /// The right children `C` in this word.
    mask: u64,
    /// Which word of the right cell the block covers.
    word: u32,
    /// The pair number of the block's lowest right child.
    pair: u32,
}

/// One non-zero word of a pair's head set.
#[derive(Debug, Clone, Copy)]
struct HeadBlock {
    /// The heads `A` in this word.
    mask: u64,
    /// Which word of the target cell the block covers.
    word: u32,
}

impl CykRuleIndex {
    /// Index the binary rules of `g` by left child, then by `(B, C)`
    /// pair: two counting-sort passes over the rules, one pass to size
    /// the tables exactly (growing them instead costs more than the rest
    /// of a small build), and one pass to fill them.
    pub fn new(g: &CnfGrammar) -> Self {
        obs::count!("cyk.index_builds");
        let nts = g.nonterminal_count();
        let words_per_set = nts.div_ceil(64);
        // Order the rules by (B, C) with two stable counting passes — by
        // C, then by B — so each pair's heads keep their `bin_rules`
        // order (ascending for every converted grammar).
        let mut rules: Vec<(u32, u32, u32)> = g
            .bin_rules()
            .iter()
            .map(|&(a, b, c)| (b.0, c.0, a.0))
            .collect();
        let mut sorted = vec![(0, 0, 0); rules.len()];
        let mut slot = vec![0usize; nts + 1];
        for by_left in [false, true] {
            let key = |r: &(u32, u32, u32)| (if by_left { r.0 } else { r.1 }) as usize;
            slot.fill(0);
            for r in &rules {
                slot[key(r) + 1] += 1;
            }
            for k in 0..nts {
                slot[k + 1] += slot[k];
            }
            for r in &rules {
                sorted[slot[key(r)]] = *r;
                slot[key(r)] += 1;
            }
            std::mem::swap(&mut rules, &mut sorted);
        }
        // A rule opens a pair when its (B, C) is new, a right block when
        // its (B, C-word) is new, and a head block when its (B, C,
        // A-word) is new.
        let (mut pairs, mut right_blocks, mut head_blocks) = (0, 0, 0);
        for (i, &(b, c, a)) in rules.iter().enumerate() {
            let prev = i.checked_sub(1).map(|j| rules[j]);
            let new_pair = prev.is_none_or(|(pb, pc, _)| (pb, pc) != (b, c));
            pairs += usize::from(new_pair);
            right_blocks +=
                usize::from(prev.is_none_or(|(pb, pc, _)| (pb, pc / 64) != (b, c / 64)));
            head_blocks +=
                usize::from(new_pair || prev.is_some_and(|(_, _, pa)| pa / 64 != a / 64));
        }
        if words_per_set == 1 {
            right_blocks = nts;
        }
        let offset = |len: usize| u32::try_from(len).expect("rule index offset fits u32");
        let mut index = CykRuleIndex {
            words_per_set,
            left_live: vec![0u64; words_per_set],
            right_start: Vec::with_capacity(nts + 1),
            right: Vec::with_capacity(right_blocks),
            head_start: Vec::with_capacity(pairs + 1),
            head: Vec::with_capacity(head_blocks),
        };
        let mut r = 0;
        for b in 0..nts {
            let first_block = index.right.len();
            let first_rule = r;
            index.right_start.push(offset(first_block));
            if words_per_set == 1 {
                // Every B owns exactly one (possibly empty) right block.
                index.right.push(RightBlock {
                    mask: 0,
                    word: 0,
                    pair: offset(index.head_start.len()),
                });
            }
            while r < rules.len() && rules[r].0 as usize == b {
                // A new pair (B, C): open a right block unless C shares
                // the previous right child's word.
                let c = rules[r].1;
                let pair = offset(index.head_start.len());
                match index.right[first_block..].last_mut() {
                    Some(blk) if blk.word == c / 64 => {
                        blk.mask |= 1u64 << (c % 64);
                    }
                    _ => index.right.push(RightBlock {
                        mask: 1u64 << (c % 64),
                        word: c / 64,
                        pair,
                    }),
                }
                let first_head = index.head.len();
                index.head_start.push(offset(first_head));
                while r < rules.len() && rules[r].0 as usize == b && rules[r].1 == c {
                    let a = rules[r].2;
                    match index.head[first_head..].last_mut() {
                        Some(blk) if blk.word == a / 64 => {
                            blk.mask |= 1u64 << (a % 64);
                        }
                        _ => index.head.push(HeadBlock {
                            mask: 1u64 << (a % 64),
                            word: a / 64,
                        }),
                    }
                    r += 1;
                }
            }
            if r > first_rule {
                index.left_live[b / 64] |= 1u64 << (b % 64);
            }
        }
        index.right_start.push(offset(index.right.len()));
        index.head_start.push(offset(index.head.len()));
        debug_assert_eq!(
            (index.right.len(), index.head.len()),
            (right_blocks, head_blocks)
        );
        index
    }

    /// Bytes this index holds on the heap (allocated capacity of every
    /// table): `O(nts + binary rules)`.
    pub fn heap_bytes(&self) -> usize {
        vec_bytes(&self.left_live)
            + vec_bytes(&self.right_start)
            + vec_bytes(&self.right)
            + vec_bytes(&self.head_start)
            + vec_bytes(&self.head)
    }
}

/// A filled CYK chart for one word.
///
/// The chart is one flat slab — span `(i, len)` owns the `words_per_set`
/// words at `((len-1) * n + i) * words_per_set` — so filling a chart costs
/// one allocation instead of one per cell, span rows are contiguous in
/// memory (the fill streams them L1/L2-resident), and the slab is pooled
/// through [`ucfg_support::arena`] across charts: the serve daemon's
/// batch path parses request after request without touching the
/// allocator.
pub struct CykChart<'g> {
    g: &'g CnfGrammar,
    word: Vec<Terminal>,
    words_per_set: usize,
    cells: Vec<u64>,
}

impl Drop for CykChart<'_> {
    fn drop(&mut self) {
        arena::recycle(std::mem::take(&mut self.cells));
    }
}

impl<'g> CykChart<'g> {
    /// Parse `word` with the bitset kernel (throwaway rule index). For
    /// batches of words over one grammar, build a [`CykRuleIndex`] once
    /// and use [`CykChart::build_with_index`].
    pub fn build(g: &'g CnfGrammar, word: &[Terminal]) -> Self {
        obs::count!("cyk.charts.throwaway_index");
        Self::chart(g, &CykRuleIndex::new(g), word)
    }

    /// Parse `word` with the rule-indexed bitset kernel: for every span
    /// and split, walk the set bits `B` of the left cell and combine the
    /// right cell with `B`'s rule group block-wise (word-level AND to find
    /// live right children, word-level OR to deposit heads).
    pub fn build_with_index(g: &'g CnfGrammar, index: &CykRuleIndex, word: &[Terminal]) -> Self {
        obs::count!("cyk.charts.reused_index");
        Self::chart(g, index, word)
    }

    /// Shared entry of [`CykChart::build`] / [`CykChart::build_with_index`]:
    /// dispatch on the trace flag once per chart, so the untraced fill is
    /// monomorphised without any counting code in its hot loops.
    fn chart(g: &'g CnfGrammar, index: &CykRuleIndex, word: &[Terminal]) -> Self {
        if obs::enabled() {
            obs::count!("cyk.charts");
            Self::fill_dispatch::<true>(g, index, word)
        } else {
            Self::fill_dispatch::<false>(g, index, word)
        }
    }

    /// Run the fill with the hardware `popcnt` instruction when the CPU
    /// has it. Every hit ranks its right child inside a right block with
    /// a popcount, and the default `x86-64` target compiles `count_ones`
    /// to a ~12-op SWAR sequence. Both paths fill identical charts.
    fn fill_dispatch<const TRACE: bool>(
        g: &'g CnfGrammar,
        index: &CykRuleIndex,
        word: &[Terminal],
    ) -> Self {
        #[cfg(target_arch = "x86_64")]
        if simd::backend() == simd::Backend::Avx2 {
            // SAFETY: `Backend::Avx2` is only ever produced after runtime
            // detection confirmed `popcnt` (and `avx2`).
            return unsafe { Self::fill_popcnt::<TRACE>(g, index, word) };
        }
        Self::fill::<TRACE>(g, index, word)
    }

    /// [`CykChart::fill`] compiled with `popcnt` enabled.
    ///
    /// # Safety
    ///
    /// The CPU must support `popcnt`.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "popcnt")]
    unsafe fn fill_popcnt<const TRACE: bool>(
        g: &'g CnfGrammar,
        index: &CykRuleIndex,
        word: &[Terminal],
    ) -> Self {
        Self::fill::<TRACE>(g, index, word)
    }

    /// The bitset fill. With `TRACE`, the right blocks ANDed and the head
    /// blocks ORed accumulate in locals and flush to the `cyk.and_ops` /
    /// `cyk.or_ops` counters once per chart; with `TRACE = false` the
    /// accumulation compiles out.
    ///
    /// The span loop is **cache-blocked**: for a fixed `(len, split)` the
    /// inner loop walks `i`, so the three rows it touches — the length-
    /// `split` row (left cells), the length-`(len-split)` row (right
    /// cells) and the output row — are each streamed contiguously through
    /// the flat slab instead of jumping rows per split. Heads OR directly
    /// into the output cell (it starts zeroed), which also drops the old
    /// per-cell accumulator copy. Grammars with ≤ 64 non-terminals (one
    /// word per cell — the common case here) take a scalar-register fast
    /// path; wider grammars combine cells block-wise, touching only the
    /// cell words that `B`'s right blocks and each pair's head blocks
    /// name.
    #[inline(always)]
    fn fill<const TRACE: bool>(g: &'g CnfGrammar, index: &CykRuleIndex, word: &[Terminal]) -> Self {
        let n = word.len();
        let wps = index.words_per_set;
        let mut cells = arena::take_zeroed(n * n * wps);
        let mut and_ops: u64 = 0;
        let mut or_ops: u64 = 0;
        // Length 1: terminal rules.
        for (i, &t) in word.iter().enumerate() {
            for &(a, tt) in g.term_rules() {
                if tt == t {
                    cells[i * wps + a.index() / 64] |= 1u64 << (a.index() % 64);
                }
            }
        }
        // Longer spans. Rows below `len` are complete, so the slab splits
        // into a read-only prefix and the output row without aliasing.
        for len in 2..=n {
            let (done, out_row) = cells.split_at_mut((len - 1) * n * wps);
            for split in 1..len {
                let lrow = &done[(split - 1) * n * wps..];
                let rrow = &done[(len - split - 1) * n * wps..];
                if wps == 1 {
                    let live = index.left_live[0];
                    for i in 0..=n - len {
                        let mut lbits = lrow[i] & live;
                        let rw = rrow[i + split];
                        if lbits == 0 || rw == 0 {
                            continue;
                        }
                        let mut out = out_row[i];
                        while lbits != 0 {
                            let b = lbits.trailing_zeros() as usize;
                            lbits &= lbits - 1;
                            let blk = index.right[b];
                            let mut hits = blk.mask & rw;
                            if TRACE {
                                and_ops += 1;
                            }
                            while hits != 0 {
                                let below = (hits - 1) & !hits;
                                hits &= hits - 1;
                                let p = blk.pair + (blk.mask & below).count_ones();
                                out |= index.head[p as usize].mask;
                                if TRACE {
                                    or_ops += 1;
                                }
                            }
                        }
                        out_row[i] = out;
                    }
                } else {
                    for i in 0..=n - len {
                        let left = &lrow[i * wps..][..wps];
                        let right = &rrow[(i + split) * wps..][..wps];
                        if right.iter().all(|&rw| rw == 0) {
                            continue;
                        }
                        let out = &mut out_row[i * wps..][..wps];
                        for (bw, &lword) in left.iter().enumerate() {
                            let mut lbits = lword & index.left_live[bw];
                            while lbits != 0 {
                                let b = bw * 64 + lbits.trailing_zeros() as usize;
                                lbits &= lbits - 1;
                                let blocks = index.right_start[b] as usize
                                    ..index.right_start[b + 1] as usize;
                                if TRACE {
                                    and_ops += blocks.len() as u64;
                                }
                                for blk in &index.right[blocks] {
                                    let mut hits = blk.mask & right[blk.word as usize];
                                    while hits != 0 {
                                        let below = (hits - 1) & !hits;
                                        hits &= hits - 1;
                                        let p =
                                            (blk.pair + (blk.mask & below).count_ones()) as usize;
                                        let heads = index.head_start[p] as usize
                                            ..index.head_start[p + 1] as usize;
                                        if TRACE {
                                            or_ops += heads.len() as u64;
                                        }
                                        for h in &index.head[heads] {
                                            out[h.word as usize] |= h.mask;
                                        }
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
        if TRACE {
            obs::count!("cyk.and_ops", and_ops);
            obs::count!("cyk.or_ops", or_ops);
        }
        CykChart {
            g,
            word: word.to_vec(),
            words_per_set: wps,
            cells,
        }
    }

    /// Parse `word` with the classic O(n³·|R|) per-rule scalar loop. This
    /// is the reference kernel the bitset path is differentially tested
    /// (and benchmarked) against; prefer [`CykChart::build`].
    pub fn build_scalar(g: &'g CnfGrammar, word: &[Terminal]) -> Self {
        let n = word.len();
        let nts = g.nonterminal_count();
        let words_per_set = nts.div_ceil(64);
        let mut cells = vec![0u64; n * n * words_per_set];
        let idx = |i: usize, len: usize| ((len - 1) * n + i) * words_per_set;
        // Length 1: terminal rules.
        for (i, &t) in word.iter().enumerate() {
            for &(a, tt) in g.term_rules() {
                if tt == t {
                    cells[idx(i, 1) + a.index() / 64] |= 1u64 << (a.index() % 64);
                }
            }
        }
        // Longer spans.
        for len in 2..=n {
            for i in 0..=n - len {
                for split in 1..len {
                    let (li, ri) = (idx(i, split), idx(i + split, len - split));
                    for &(a, b, c) in g.bin_rules() {
                        let bset = cells[li + b.index() / 64] >> (b.index() % 64) & 1;
                        let cset = cells[ri + c.index() / 64] >> (c.index() % 64) & 1;
                        if bset & cset == 1 {
                            cells[idx(i, len) + a.index() / 64] |= 1u64 << (a.index() % 64);
                        }
                    }
                }
            }
        }
        CykChart {
            g,
            word: word.to_vec(),
            words_per_set,
            cells,
        }
    }

    fn cell(&self, i: usize, len: usize) -> &[u64] {
        let at = ((len - 1) * self.word.len() + i) * self.words_per_set;
        &self.cells[at..at + self.words_per_set]
    }

    /// Does non-terminal `a` derive `word[i .. i+len]`?
    pub fn derives(&self, a: NonTerminal, i: usize, len: usize) -> bool {
        if len == 0 || i + len > self.word.len() {
            return false;
        }
        self.cell(i, len)[a.index() / 64] >> (a.index() % 64) & 1 == 1
    }

    /// All non-terminals deriving `word[i .. i+len]`.
    ///
    /// Contract: spans that do not lie inside the word (`len == 0` or
    /// `i + len > word.len()`) have no deriving non-terminals and return
    /// an empty `Vec` — mirroring [`CykChart::derives`], which answers
    /// `false` for the same spans. This is deliberate Option-style
    /// behavior, not an error.
    pub fn nonterminals_at(&self, i: usize, len: usize) -> Vec<NonTerminal> {
        let mut out = Vec::new();
        if len == 0 || i + len > self.word.len() {
            return out;
        }
        for (w, &set) in self.cell(i, len).iter().enumerate() {
            let mut bits = set;
            while bits != 0 {
                let b = bits.trailing_zeros() as usize;
                out.push(NonTerminal((w * 64 + b) as u32));
                bits &= bits - 1;
            }
        }
        out
    }

    /// Is the whole word accepted?
    pub fn accepted(&self) -> bool {
        if self.word.is_empty() {
            return self.g.accepts_epsilon();
        }
        self.derives(self.g.start(), 0, self.word.len())
    }

    /// Exact number of parse trees of the whole word from the start symbol.
    pub fn count_trees(&self) -> BigUint {
        if self.word.is_empty() {
            return if self.g.accepts_epsilon() {
                BigUint::one()
            } else {
                BigUint::zero()
            };
        }
        let mut memo: HashMap<(u32, usize, usize), BigUint> = HashMap::new();
        self.count_at(self.g.start(), 0, self.word.len(), &mut memo)
    }

    fn count_at(
        &self,
        a: NonTerminal,
        i: usize,
        len: usize,
        memo: &mut HashMap<(u32, usize, usize), BigUint>,
    ) -> BigUint {
        if !self.derives(a, i, len) {
            return BigUint::zero();
        }
        if len == 1 {
            let hits = self
                .g
                .terms_of(a)
                .iter()
                .filter(|&&t| t == self.word[i])
                .count();
            return BigUint::from_u64(hits as u64);
        }
        if let Some(c) = memo.get(&(a.0, i, len)) {
            return c.clone();
        }
        let mut total = BigUint::zero();
        for &(b, c) in self.g.bins_of(a) {
            for split in 1..len {
                if self.derives(b, i, split) && self.derives(c, i + split, len - split) {
                    let lb = self.count_at(b, i, split, memo);
                    if lb.is_zero() {
                        continue;
                    }
                    let rc = self.count_at(c, i + split, len - split, memo);
                    total += &(&lb * &rc);
                }
            }
        }
        memo.insert((a.0, i, len), total.clone());
        total
    }

    /// Enumerate up to `limit` parse trees of the whole word.
    pub fn trees(&self, limit: usize) -> Vec<ParseTree> {
        if self.word.is_empty() || limit == 0 {
            return Vec::new();
        }
        self.trees_at(self.g.start(), 0, self.word.len(), limit)
    }

    fn trees_at(&self, a: NonTerminal, i: usize, len: usize, limit: usize) -> Vec<ParseTree> {
        let mut out = Vec::new();
        if !self.derives(a, i, len) {
            return out;
        }
        if len == 1 {
            for &t in self.g.terms_of(a) {
                if t == self.word[i] {
                    out.push(ParseTree {
                        nt: a,
                        children: vec![Child::Leaf(t)],
                    });
                    if out.len() >= limit {
                        return out;
                    }
                }
            }
            return out;
        }
        'rules: for &(b, c) in self.g.bins_of(a) {
            for split in 1..len {
                if !(self.derives(b, i, split) && self.derives(c, i + split, len - split)) {
                    continue;
                }
                let lefts = self.trees_at(b, i, split, limit);
                for lt in &lefts {
                    let rights = self.trees_at(c, i + split, len - split, limit);
                    for rt in rights {
                        out.push(ParseTree {
                            nt: a,
                            children: vec![Child::Tree(lt.clone()), Child::Tree(rt)],
                        });
                        if out.len() >= limit {
                            break 'rules;
                        }
                    }
                }
            }
        }
        out
    }
}

/// Convenience: is `word ∈ L(G)`?
pub fn recognize(g: &CnfGrammar, word: &[Terminal]) -> bool {
    CykChart::build(g, word).accepted()
}

/// Convenience: the ambiguity degree (number of parse trees) of `word`.
pub fn ambiguity_of(g: &CnfGrammar, word: &[Terminal]) -> BigUint {
    CykChart::build(g, word).count_trees()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GrammarBuilder;
    use crate::cfg::Grammar;
    use crate::normal_form::CnfGrammar;

    /// Balanced parentheses-ish: S → S S | a  (Catalan ambiguity).
    fn catalan() -> CnfGrammar {
        let mut b = GrammarBuilder::new(&['a']);
        let s = b.nonterminal("S");
        b.rule(s, |r| r.n(s).n(s));
        b.rule(s, |r| r.t('a'));
        CnfGrammar::from_grammar(&b.build(s))
    }

    fn pairs() -> (Grammar, CnfGrammar) {
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let a = b.nonterminal("A");
        b.rule(s, |r| r.n(a).n(a));
        b.rule(a, |r| r.t('a'));
        b.rule(a, |r| r.t('b'));
        let g = b.build(s);
        let cnf = CnfGrammar::from_grammar(&g);
        (g, cnf)
    }

    #[test]
    fn recognizes_fixed_length_words() {
        let (_, cnf) = pairs();
        for w in ["aa", "ab", "ba", "bb"] {
            assert!(recognize(&cnf, &cnf.encode(w).unwrap()), "{w}");
        }
        assert!(!recognize(&cnf, &cnf.encode("a").unwrap()));
        assert!(!recognize(&cnf, &cnf.encode("aba").unwrap()));
    }

    #[test]
    fn empty_word_follows_epsilon_flag() {
        let (_, cnf) = pairs();
        assert!(!recognize(&cnf, &[]));
    }

    #[test]
    fn catalan_tree_counts() {
        // #trees of a^k under S→SS|a is the Catalan number C_{k-1}:
        // 1, 1, 2, 5, 14, 42, ...
        let g = catalan();
        let expected = [1u64, 1, 2, 5, 14, 42, 132];
        for (k, &e) in (1..=7).zip(expected.iter()) {
            let w = vec![Terminal(0); k];
            assert_eq!(ambiguity_of(&g, &w).to_u64(), Some(e), "k={k}");
        }
    }

    #[test]
    fn tree_enumeration_matches_count_for_small_words() {
        let g = catalan();
        let w = vec![Terminal(0); 4];
        let trees = CykChart::build(&g, &w).trees(100);
        assert_eq!(trees.len(), 5);
        // All distinct and all valid with the right yield.
        let gg = g.to_grammar();
        for (i, t) in trees.iter().enumerate() {
            assert!(t.is_valid(&gg));
            assert_eq!(t.yield_terminals(), w);
            for u in &trees[i + 1..] {
                assert_ne!(t, u);
            }
        }
    }

    #[test]
    fn tree_limit_respected() {
        let g = catalan();
        let w = vec![Terminal(0); 5];
        assert_eq!(CykChart::build(&g, &w).trees(3).len(), 3);
    }

    #[test]
    fn chart_introspection() {
        let (_, cnf) = pairs();
        let w = cnf.encode("ab").unwrap();
        let chart = CykChart::build(&cnf, &w);
        assert!(chart.accepted());
        assert!(chart.derives(cnf.start(), 0, 2));
        assert!(!chart.derives(cnf.start(), 0, 1));
        let at0 = chart.nonterminals_at(0, 1);
        assert!(!at0.is_empty());
        assert!(chart.nonterminals_at(0, 3).is_empty()); // out of range
    }

    /// The bitset and scalar kernels must fill identical charts.
    fn assert_charts_equal(g: &CnfGrammar, word: &[Terminal]) {
        let index = CykRuleIndex::new(g);
        let bitset = CykChart::build_with_index(g, &index, word);
        let via_build = CykChart::build(g, word);
        let scalar = CykChart::build_scalar(g, word);
        assert_eq!(bitset.cells, scalar.cells, "word {word:?}");
        assert_eq!(via_build.cells, scalar.cells, "word {word:?}");
        assert_eq!(bitset.accepted(), scalar.accepted());
        assert_eq!(bitset.count_trees(), scalar.count_trees());
        for len in 1..=word.len() {
            for i in 0..=word.len() - len {
                assert_eq!(
                    bitset.nonterminals_at(i, len),
                    scalar.nonterminals_at(i, len),
                    "span ({i}, {len})"
                );
            }
        }
    }

    #[test]
    fn bitset_kernel_matches_scalar_reference() {
        let g = catalan();
        for k in 1..=7 {
            assert_charts_equal(&g, &vec![Terminal(0); k]);
        }
        let (_, cnf) = pairs();
        for w in ["aa", "ab", "ba", "bb", "a", "abab", "bbbb"] {
            assert_charts_equal(&cnf, &cnf.encode(w).unwrap());
        }
        // A grammar with > 64 non-terminals exercises multi-block masks.
        let mut b = GrammarBuilder::new(&['a', 'b']);
        let s = b.nonterminal("S");
        let mut prev = s;
        for i in 0..80 {
            let nt = b.nonterminal(&format!("N{i}"));
            // prev → nt nt; leaves alternate over {a, b}.
            b.rule(prev, |r| r.n(nt).n(nt));
            if i % 3 == 0 {
                b.rule(nt, |r| r.t('a'));
            } else {
                b.rule(nt, |r| r.t('b'));
            }
            prev = nt;
        }
        let wide = CnfGrammar::from_grammar(&b.build(s));
        assert!(wide.nonterminal_count() > 64);
        for w in ["aa", "bb", "ab", "aabb", "bbbbbbbb"] {
            assert_charts_equal(&wide, &wide.encode(w).unwrap());
        }
    }

    #[test]
    fn rule_index_reuse_across_words() {
        let (_, cnf) = pairs();
        let index = CykRuleIndex::new(&cnf);
        for w in ["aa", "ab", "ba", "bb"] {
            let word = cnf.encode(w).unwrap();
            assert!(CykChart::build_with_index(&cnf, &index, &word).accepted());
        }
        assert!(!CykChart::build_with_index(&cnf, &index, &cnf.encode("aba").unwrap()).accepted());
    }

    #[test]
    fn traced_fill_matches_untraced_and_counts_work() {
        let g = catalan();
        let w = vec![Terminal(0); 6];
        let untraced = CykChart::build(&g, &w);
        obs::set_enabled(true);
        let charts0 = obs::counter("cyk.charts").value();
        let and0 = obs::counter("cyk.and_ops").value();
        let or0 = obs::counter("cyk.or_ops").value();
        let reused0 = obs::counter("cyk.charts.reused_index").value();
        let traced = CykChart::build(&g, &w);
        let index = CykRuleIndex::new(&g);
        let traced_reuse = CykChart::build_with_index(&g, &index, &w);
        obs::set_enabled(false);
        // Same chart bytes on every path, traced or not.
        assert_eq!(traced.cells, untraced.cells);
        assert_eq!(traced_reuse.cells, untraced.cells);
        assert_eq!(traced.cells, CykChart::build_scalar(&g, &w).cells);
        assert!(obs::counter("cyk.charts").value() >= charts0 + 2);
        assert!(obs::counter("cyk.charts.reused_index").value() > reused0);
        assert!(
            obs::counter("cyk.and_ops").value() > and0,
            "AND ops counted"
        );
        assert!(obs::counter("cyk.or_ops").value() > or0, "OR ops counted");
    }

    #[test]
    fn cyk_agrees_with_fixed_len_parser() {
        use crate::parse_tree::FixedLenParser;
        let (g, cnf) = pairs();
        let p = FixedLenParser::new(&g).unwrap();
        for w in ["aa", "ab", "ba", "bb"] {
            let wg = g.encode(w).unwrap();
            assert_eq!(
                p.count_trees(&wg),
                ambiguity_of(&cnf, &cnf.encode(w).unwrap()),
                "{w}"
            );
        }
    }
}
