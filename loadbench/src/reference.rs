//! Independent answers. Every distinct request's expected answer is
//! computed before timing, by a path the daemon does not take:
//!
//! * `/parse`: `count::TreeCounter` on the original (non-CNF) grammar,
//!   where the daemon runs the bitset CYK over the CNF conversion;
//! * `/cover/verify`, `/discrepancy`: `verify_cover_scalar` and
//!   `discrepancy_accounting_scalar`, where the daemon runs the SIMD
//!   word-set kernels, plus the closed form |L_n| = 4^n − 3^n for the
//!   disjoint (extraction) family;
//! * `/stream/*`: the benchmark's own window model, a fresh full
//!   `Earley` reparse of the window for queries, and direct
//!   characterisations of the session grammars and regexes for suffix
//!   and product counts, where the daemon runs incremental Earley over a
//!   ring of sets and a product DFA.
//!
//! A response that differs from its expectation is a failed operation.

use crate::gen::{Op, Plan, Req, Window, STREAM_GRAMMARS};
use std::collections::HashMap;
use ucfg_core::cover::{
    discrepancy_accounting_scalar, example8_cover, extraction_to_set_rectangles,
    verify_cover_scalar,
};
use ucfg_core::extract::extract_cover;
use ucfg_core::ln_grammars::example4_ucfg;
use ucfg_core::rectangle::SetRectangle;
use ucfg_grammar::count::TreeCounter;
use ucfg_grammar::earley::Earley;
use ucfg_grammar::normal_form::CnfGrammar;
use ucfg_grammar::text::parse_grammar;
use ucfg_serve::Json;

/// The fields a correct response body must carry (dotted paths for
/// nested objects). Fields not listed are not checked.
#[derive(Debug, Clone, PartialEq)]
pub struct Expect(pub Vec<(&'static str, Json)>);

impl Expect {
    /// Check one response against this expectation.
    pub fn check(&self, status: u16, body: &str) -> Result<(), String> {
        if status != 200 {
            return Err(format!("status {status}: {}", body.trim()));
        }
        let v = Json::parse(body).map_err(|e| format!("bad body {e}: {body}"))?;
        for (path, want) in &self.0 {
            let got = path.split('.').try_fold(&v, |cur, key| cur.get(key));
            if got != Some(want) {
                return Err(format!(
                    "{path}: want {}, got {}",
                    want.render(),
                    body.trim()
                ));
            }
        }
        Ok(())
    }
}

/// The rectangle family the daemon's `RectsArtifact::build` constructs.
pub fn family_rects(family: &str, n: usize) -> Vec<SetRectangle> {
    match family {
        "example8" => example8_cover(n),
        "extraction" => {
            let cnf = CnfGrammar::from_grammar(&example4_ucfg(n));
            let res = extract_cover(&cnf, 2 * n).expect("example4 extraction succeeds");
            extraction_to_set_rectangles(n, &res)
        }
        other => panic!("unknown family {other}"),
    }
}

/// |L_n| = 4^n − 3^n.
pub fn ln_size(n: usize) -> u128 {
    4u128.pow(n as u32) - 3u128.pow(n as u32)
}

/// Membership in the session grammar `g` (an index into
/// [`STREAM_GRAMMARS`]), by direct characterisation of its language.
pub fn in_language(g: usize, s: &[u8]) -> bool {
    match g {
        // Dyck words over a = open, b = close.
        0 => {
            let mut depth = 0i64;
            for &c in s {
                depth += if c == b'a' { 1 } else { -1 };
                if depth < 0 {
                    return false;
                }
            }
            depth == 0
        }
        // a^k b^k.
        1 => {
            let k = s.len() / 2;
            s.len().is_multiple_of(2)
                && s[..k].iter().all(|&c| c == b'a')
                && s[k..].iter().all(|&c| c == b'b')
        }
        // Non-empty, ending in b.
        2 => s.last() == Some(&b'b'),
        _ => unreachable!("three stream grammars"),
    }
}

/// Membership in regex `r` (an index into `STREAM_REGEXES`), by direct
/// characterisation.
pub fn in_regex(r: usize, s: &[u8]) -> bool {
    match r {
        // a(a|b)*b
        0 => s.len() >= 2 && s[0] == b'a' && s[s.len() - 1] == b'b',
        // (a|b)*bb
        1 => s.ends_with(b"bb"),
        // (ab)*
        2 => s.len().is_multiple_of(2) && s.chunks(2).all(|c| c == b"ab"),
        _ => unreachable!("three stream regexes"),
    }
}

/// Is `L(G) ∩ L(regex)` non-empty? Every pair used has a witness of at
/// most 8 letters, so a bounded search decides it.
fn product_nonempty(g: usize, r: usize) -> bool {
    (0..=8usize).any(|len| {
        (0..1u32 << len).any(|bits| {
            let w: Vec<u8> = (0..len)
                .map(|i| if bits >> i & 1 == 1 { b'a' } else { b'b' })
                .collect();
            in_language(g, &w) && in_regex(r, &w)
        })
    })
}

fn int(v: impl TryInto<i64>) -> Json {
    Json::Int(v.try_into().ok().expect("fits in i64"))
}

fn window_fields(w: &Window) -> Vec<(&'static str, Json)> {
    vec![
        ("total", int(w.total)),
        ("base", int(w.base)),
        ("window_len", int(w.text.len())),
        (
            "member",
            Json::Bool(in_language(w.grammar, w.text.as_bytes())),
        ),
    ]
}

/// Expectations for every request of a plan, computed once per distinct
/// request.
pub struct Reference {
    counters: Vec<Option<TreeCounter>>,
    parse: HashMap<(usize, String, bool), Expect>,
    rects: HashMap<(bool, &'static str, usize), Expect>,
    earley: Vec<ucfg_grammar::Grammar>,
    plan_grammars: Vec<ucfg_grammar::Grammar>,
}

impl Reference {
    /// An empty reference for `plan`'s grammars.
    pub fn new(plan: &Plan) -> Reference {
        Reference {
            counters: (0..plan.grammars.len()).map(|_| None).collect(),
            parse: HashMap::new(),
            rects: HashMap::new(),
            earley: STREAM_GRAMMARS
                .iter()
                .map(|s| parse_grammar(s).expect("stream grammar parses"))
                .collect(),
            plan_grammars: plan.grammars.iter().map(|g| g.spec.build()).collect(),
        }
    }

    /// The expectation for one request.
    pub fn expect(&mut self, req: &Req) -> Expect {
        match &req.op {
            Op::Parse { g, word, check } => {
                let key = (*g, word.clone(), *check);
                if let Some(e) = self.parse.get(&key) {
                    return e.clone();
                }
                let grammar = &self.plan_grammars[*g];
                let counter = self.counters[*g].get_or_insert_with(|| {
                    TreeCounter::new(grammar).expect("workload grammars are finite and acyclic")
                });
                let count = counter.count_str(word);
                let one = ucfg_grammar::BigUint::one();
                let mut fields = vec![
                    ("member", Json::Bool(!count.is_zero())),
                    ("parse_count", Json::Str(count.to_string())),
                    ("ambiguous", Json::Bool(!count.is_zero() && count != one)),
                ];
                if *check {
                    fields.push(("cross_check", Json::Str("ok".into())));
                }
                let e = Expect(fields);
                self.parse.insert(key, e.clone());
                e
            }
            &Op::Rect {
                discrepancy,
                family,
                n,
            } => self
                .rects
                .entry((discrepancy, family, n))
                .or_insert_with(|| rect_expect(discrepancy, family, n))
                .clone(),
            Op::Open {
                id,
                window,
                grammar,
                regex,
            } => {
                let mut f = vec![
                    ("session", Json::Str(format!("{id:016x}"))),
                    ("window", int(*window)),
                ];
                if let Some(r) = regex {
                    f.push((
                        "product_nonempty",
                        Json::Bool(product_nonempty(*grammar, *r)),
                    ));
                }
                Expect(f)
            }
            Op::Feed {
                fed,
                evicted,
                after,
                ..
            } => {
                let mut f = vec![("fed", int(*fed)), ("evicted", int(*evicted))];
                f.extend(window_fields(after));
                Expect(f)
            }
            Op::Truncate { after, .. } => {
                let mut f = vec![("fed", int(0)), ("evicted", int(0))];
                f.extend(window_fields(after));
                Expect(f)
            }
            Op::Query { after, .. } => {
                let text = after.text.as_bytes();
                let member = Earley::new(&self.earley[after.grammar]).recognize_str(&after.text);
                let suffixes = (0..=text.len()).filter(|&j| in_language(after.grammar, &text[j..]));
                let mut f = vec![
                    ("total", int(after.total)),
                    ("base", int(after.base)),
                    ("window", Json::Str(after.text.clone())),
                    ("member", Json::Bool(member)),
                    ("suffix_matches", int(suffixes.clone().count())),
                    // Every session grammar is unambiguous: one tree or none.
                    ("count", Json::Str(if member { "1" } else { "0" }.into())),
                ];
                if let Some(r) = after.regex {
                    let matches = suffixes.filter(|&j| in_regex(r, &text[j..])).count();
                    f.push(("product.matches", int(matches)));
                }
                Expect(f)
            }
            Op::Close { id } => Expect(vec![
                ("session", Json::Str(format!("{id:016x}"))),
                ("closed", Json::Bool(true)),
            ]),
            Op::Healthz => Expect(vec![("status", Json::Str("ok".into()))]),
        }
    }

    /// Expectations for every request of every sequence of the plan:
    /// `(priming, [conn0, conn1])`.
    pub fn for_plan(plan: &Plan) -> (Vec<Expect>, [Vec<Expect>; 2]) {
        let mut r = Reference::new(plan);
        let priming = plan.priming.iter().map(|q| r.expect(q)).collect();
        let a = plan.conns[0].iter().map(|q| r.expect(q)).collect();
        let b = plan.conns[1].iter().map(|q| r.expect(q)).collect();
        (priming, [a, b])
    }
}

fn rect_expect(discrepancy: bool, family: &'static str, n: usize) -> Expect {
    let rects = family_rects(family, n);
    let mut f = vec![
        ("n", int(n)),
        ("family", Json::Str(family.into())),
        ("size", int(rects.len())),
    ];
    if discrepancy {
        let (discs, sums) = discrepancy_accounting_scalar(n, &rects);
        f.push((
            "discrepancies",
            Json::Arr(discs.into_iter().map(Json::Int).collect()),
        ));
        f.push(("sums_to_gap", Json::Bool(sums)));
    } else {
        let report = verify_cover_scalar(n, &rects);
        let mut covers = report.covers_exactly;
        if report.disjoint {
            // A disjoint exact cover partitions L_n: the sizes must add up.
            let total: u128 = rects.iter().map(|r| r.len() as u128).sum();
            covers &= total == ln_size(n);
        }
        f.push(("covers_exactly", Json::Bool(covers)));
        f.push(("disjoint", Json::Bool(report.disjoint)));
        f.push(("all_balanced", Json::Bool(report.all_balanced)));
        f.push(("max_overlap", int(report.max_overlap)));
    }
    Expect(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::WORKLOADS;
    use crate::gen::plan;

    #[test]
    fn check_catches_an_injected_wrong_answer() {
        let p = plan(&WORKLOADS[0], 3);
        let mut r = Reference::new(&p);
        let req = &p.conns[0][0];
        let e = r.expect(req);
        let Op::Parse { g, word, .. } = &req.op else {
            panic!("parse_hot sends /parse")
        };
        // The right answer, rendered the way the daemon renders it.
        let counter = TreeCounter::new(&p.grammars[*g].spec.build()).unwrap();
        let count = counter.count_str(word);
        let good = format!(
            "{{\"member\":{},\"parse_count\":\"{count}\",\"ambiguous\":{},\"cache\":\"hit\",\"cross_check\":\"ok\"}}",
            !count.is_zero(),
            count > ucfg_grammar::BigUint::one()
        );
        assert_eq!(e.check(200, &good), Ok(()));
        let wrong_count = good.replace(
            &format!("\"parse_count\":\"{count}\""),
            &format!("\"parse_count\":\"{}\"", count.to_string() + "0"),
        );
        assert!(e.check(200, &wrong_count).is_err());
        let flipped = good.replace(
            &format!("\"member\":{}", !count.is_zero()),
            &format!("\"member\":{}", count.is_zero()),
        );
        assert!(e.check(200, &flipped).is_err());
        assert!(e.check(503, &good).is_err());
        assert!(e.check(200, "not json").is_err());
    }

    #[test]
    fn rect_reference_matches_the_paper() {
        let e = rect_expect(false, "example8", 4);
        let body = "{\"n\":4,\"family\":\"example8\",\"size\":4,\"covers_exactly\":true,\"disjoint\":false,\"all_balanced\":true,\"max_overlap\":4}";
        assert_eq!(e.check(200, body), Ok(()));
        assert!(e
            .check(
                200,
                &body.replace("\"covers_exactly\":true", "\"covers_exactly\":false")
            )
            .is_err());
        assert_eq!(ln_size(3), 37);
    }

    #[test]
    fn language_characterisations_agree_with_earley() {
        for (g, src) in STREAM_GRAMMARS.iter().enumerate() {
            let grammar = parse_grammar(src).unwrap();
            let earley = Earley::new(&grammar);
            for len in 0..=8usize {
                for bits in 0..1u32 << len {
                    let w: String = (0..len)
                        .map(|i| if bits >> i & 1 == 1 { 'a' } else { 'b' })
                        .collect();
                    assert_eq!(
                        earley.recognize_str(&w),
                        in_language(g, w.as_bytes()),
                        "{src} on {w:?}"
                    );
                }
            }
        }
    }
}
