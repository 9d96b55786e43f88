//! # ucfg-cli — command implementations
//!
//! The logic behind the `ucfg` binary, kept in a library so every command
//! is unit-testable. Commands operate on the paper's language `L_n`, on
//! grammars in the text format of `ucfg_grammar::text`, and on the
//! lower-bound machinery of `ucfg-core`.

#![warn(missing_docs)]

use std::fmt::Write as _;
use ucfg_core::extract::extract_cover;
use ucfg_core::ln_grammars::{appendix_a_grammar, example3_grammar, example4_ucfg};
use ucfg_core::separation::separation_row;
use ucfg_core::words;
use ucfg_grammar::count::{decide_unambiguous, UnambiguityVerdict};
use ucfg_grammar::language::finite_language;
use ucfg_grammar::lint;
use ucfg_grammar::normal_form::CnfGrammar;
use ucfg_grammar::text::{parse_grammar, print_grammar};

/// Errors surfaced to the CLI user.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

fn err(msg: impl Into<String>) -> CliError {
    CliError(msg.into())
}

fn parse_n(s: &str) -> Result<usize, CliError> {
    let n: usize = s.parse().map_err(|_| err(format!("not a number: {s}")))?;
    if n == 0 || n > 32 {
        return Err(err("n must be in 1..=32"));
    }
    Ok(n)
}

/// `ucfg member <n> <word>` — is the word in `L_n`?
pub fn cmd_member(n: &str, word: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    let w = words::from_string(n, word)
        .ok_or_else(|| err(format!("word must be over {{a,b}} with length {}", 2 * n)))?;
    Ok(format!(
        "{word} ∈ L_{n}: {} (witnessing pairs: {})\n",
        words::ln_contains(n, w),
        words::witness_count(n, w)
    ))
}

/// `ucfg count <n>` — |L_n| by closed form.
pub fn cmd_count(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    Ok(format!("|L_{n}| = 4^{n} − 3^{n} = {}\n", words::ln_size(n)))
}

/// `ucfg grammar <which> <n>` — print one of the paper's grammars.
pub fn cmd_grammar(which: &str, n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    let g = match which {
        "appendix-a" | "cfg" => appendix_a_grammar(n),
        "example3" => example3_grammar(n),
        "example4" | "ucfg" => {
            if n > 10 {
                return Err(err("example4 is exponential; n ≤ 10"));
            }
            example4_ucfg(n)
        }
        other => {
            return Err(err(format!(
                "unknown grammar {other:?} (use appendix-a | example3 | example4)"
            )))
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "# {which} grammar, n = {n}, size {}", g.size());
    out.push_str(&print_grammar(&g));
    Ok(out)
}

/// `ucfg sizes <n>` — the Theorem 1 size row.
pub fn cmd_sizes(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    let row = separation_row(n, 16, 8);
    let mut out = String::new();
    let _ = writeln!(out, "n = {n}  (|L_n| = {})", row.language_size);
    let _ = writeln!(out, "  CFG (Appendix A):        {}", row.cfg_size);
    let _ = writeln!(
        out,
        "  NFA (Θ(n), promise):     {}",
        row.nfa_pattern_transitions
    );
    if let Some(t) = row.nfa_exact_transitions {
        let _ = writeln!(out, "  NFA (exact, Θ(n²)):      {t}");
    }
    let _ = writeln!(out, "  uCFG (Example 4):        {}", row.ucfg_example4_size);
    if let Some(d) = row.ucfg_dawg_size {
        let _ = writeln!(out, "  uCFG (DAWG):             {d}");
    }
    if let Some(lb) = row.ucfg_lower_bound_log2 {
        let _ = writeln!(out, "  every uCFG ≥             2^{lb:.2}");
    }
    Ok(out)
}

/// `ucfg check < grammar.txt` — parse a grammar and analyse it.
pub fn cmd_check(src: &str) -> Result<String, CliError> {
    let g = parse_grammar(src).map_err(|e| err(e.to_string()))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "parsed: {} non-terminals, {} rules, size {}",
        g.nonterminal_count(),
        g.rule_count(),
        g.size()
    );
    match finite_language(&g) {
        Some(lang) => {
            let _ = writeln!(out, "finite language: {} words", lang.len());
            let show: Vec<&str> = lang.iter().take(8).map(|s| s.as_str()).collect();
            let _ = writeln!(
                out,
                "  {}{}",
                show.join(" "),
                if lang.len() > 8 { " …" } else { "" }
            );
            match decide_unambiguous(&g) {
                UnambiguityVerdict::Unambiguous => {
                    let _ = writeln!(out, "unambiguous ✓");
                }
                UnambiguityVerdict::Ambiguous { witness, degree } => {
                    let _ = writeln!(out, "AMBIGUOUS: {witness:?} has {degree} parse trees");
                }
                v => {
                    let _ = writeln!(out, "verdict: {v:?}");
                }
            }
        }
        None => {
            let _ = writeln!(out, "infinite language (size analyses skipped)");
        }
    }
    // Structural lints.
    let findings = lint::lint(&g);
    for f in &findings {
        let _ = writeln!(out, "{f}");
    }
    if findings.is_empty() {
        let _ = writeln!(out, "no lints ✓");
    }
    Ok(out)
}

/// `ucfg extract <n>` — run the Proposition 7 extraction on the Example 4
/// uCFG for `L_n`.
pub fn cmd_extract(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    if n > 5 {
        return Err(err("extraction demo is exponential; n ≤ 5"));
    }
    let g = example4_ucfg(n);
    let cnf = CnfGrammar::from_grammar(&g);
    let res = extract_cover(&cnf, 2 * n).map_err(|e| err(format!("{e:?}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Proposition 7 on the Example 4 uCFG (n = {n}, |G| = {}):",
        g.size()
    );
    let _ = writeln!(
        out,
        "  {} balanced rectangles (bound n·|G| = {}), disjoint: {}",
        res.rectangles.len(),
        res.bound,
        res.is_disjoint()
    );
    for r in res.rectangles.iter().take(10) {
        let _ = writeln!(
            out,
            "  [{}..{}] |middles| = {:>3} |contexts| = {:>3}   (from {})",
            r.position,
            r.position + r.span_len - 1,
            r.rectangle.middles.len(),
            r.rectangle.contexts.len(),
            r.nt_name
        );
    }
    if res.rectangles.len() > 10 {
        let _ = writeln!(out, "  … {} more", res.rectangles.len() - 10);
    }
    Ok(out)
}

/// `ucfg rank <n>` — the Theorem 17 rank certificates for the `L_n`
/// communication matrix under the `[1, n]` partition. Runs on the
/// parallel kernels (worker count from `$UCFG_THREADS`, else all cores);
/// the result is bit-identical for every thread count. Past `n = 10` the
/// Gaussian elimination is infeasible, but the matrix census (ones count
/// and digest) streams block by block up to `n = 18`; the GF(2) line
/// then names the census block plan.
pub fn cmd_rank(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    if n > 18 {
        return Err(err("the rank matrix census streams 4^n bits; n ≤ 18"));
    }
    let threads = ucfg_support::par::thread_count();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Theorem 17 rank certificates for M_{{L_{n}}} ({threads} thread{}):",
        if threads == 1 { "" } else { "s" }
    );
    if n <= 10 {
        let gf2 = ucfg_core::rank::rank_gf2(n);
        let _ = writeln!(out, "  rank over GF(2):           {gf2}");
    } else {
        use ucfg_core::wordset::chunked::{block_plan, logical_word_domain};
        let _ = writeln!(
            out,
            "  rank over GF(2):           (elimination needs n ≤ 10; census {})",
            block_plan(logical_word_domain(n)).describe()
        );
    }
    if n <= 9 {
        let gfp = ucfg_core::rank::rank_mod_p(n);
        let _ = writeln!(out, "  rank over GF(2^61 − 1):    {gfp}");
    }
    let scan = ucfg_core::rank::rank_matrix_scan(n);
    let _ = writeln!(
        out,
        "  matrix ones (4^n − 3^n):   {} (digest {:016x})",
        scan.ones, scan.digest
    );
    let _ = writeln!(
        out,
        "  ⇒ any disjoint [1,n]-rectangle cover of L_{n} needs ≥ {} rectangles",
        (1u64 << n) - 1
    );
    Ok(out)
}

/// `ucfg cover <n>` — verify the Example 8 cover of `L_n` with the
/// blocked cover scan: the word domain streams in blocks of
/// [`ucfg_core::wordset::chunked::BLOCK_BITS`], or of
/// `--chunk-bits` / `UCFG_WORDSET_CHUNK` when set. The banner line names
/// the block plan; everything below it is byte-identical across thread
/// counts and block sizes — the CI determinism job byte-compares these
/// lines.
pub fn cmd_cover(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    if n > 18 {
        return Err(err("the cover scan streams 4^n bits; n ≤ 18"));
    }
    let threads = ucfg_support::par::thread_count();
    let plan = ucfg_core::wordset::chunked::block_plan(
        ucfg_core::wordset::chunked::logical_word_domain(n),
    );
    let rects = ucfg_core::cover::example8_cover(n);
    let scan = ucfg_core::cover::cover_scan_threads(n, &rects, threads);
    let mut out = String::new();
    let _ = writeln!(out, "Example 8 cover of L_{n}, {}:", plan.describe());
    let _ = writeln!(out, "  rectangles:     {}", scan.size);
    let _ = writeln!(out, "  covers exactly: {}", scan.covers_exactly);
    let _ = writeln!(out, "  all balanced:   {}", scan.all_balanced);
    let _ = writeln!(out, "  max overlap:    {}", scan.max_overlap);
    let _ = writeln!(
        out,
        "  union:          count {} digest {:016x}",
        scan.union_count, scan.union_digest
    );
    let _ = writeln!(
        out,
        "  L_{n}:            count {} digest {:016x}",
        scan.ln_count, scan.ln_digest
    );
    Ok(out)
}

/// `ucfg discrepancy <n>` — the signed discrepancy `|R∩A| − |R∩B|` of
/// the full-family rectangle `R = 𝓛` at the `[1, n]` cut, cross-checked
/// against the exact closed-form ledger value `−2^{3m}` — the Lemma 19
/// bound met with equality. The banner names the path `n` selects: the
/// in-memory bitmaps up to `n = 28`, the block plan of the streamed
/// family domain at `n = 32` ([`ucfg_core::discrepancy::discrepancy_plan`]).
pub fn cmd_discrepancy(n: &str) -> Result<String, CliError> {
    let n = parse_n(n)?;
    if !ucfg_core::discrepancy::supports_blocks(n) {
        return Err(err("the family 𝓛 needs n ≡ 0 mod 4"));
    }
    if n > 32 {
        return Err(err("the streamed scan probes 2^n family ranks; n ≤ 32"));
    }
    let threads = ucfg_support::par::thread_count();
    let path = match ucfg_core::discrepancy::discrepancy_plan(n) {
        Some(plan) => plan.describe(),
        None => format!("in-memory (2^{n} bits)"),
    };
    let rect = ucfg_core::discrepancy::full_family_rectangle(n);
    let d = ucfg_core::discrepancy::discrepancy_threads(n, &rect, threads);
    let acc = ucfg_core::discrepancy::family_accounting((n / 4) as u64);
    let exact = &acc.full_family_discrepancy;
    let mut out = String::new();
    let _ = writeln!(out, "Full-family discrepancy at n = {n}, {path}:");
    let _ = writeln!(out, "  disc(𝓛) = |𝓛∩A| − |𝓛∩B|:   {d}");
    let _ = writeln!(out, "  exact ledger −2^{{3m}}:       {exact}");
    let _ = writeln!(
        out,
        "  streamed = exact:           {}",
        if exact.to_i128() == Some(i128::from(d)) {
            "true"
        } else {
            "FALSE"
        }
    );
    Ok(out)
}

/// `ucfg accounting <m>` — the exact Lemma 18/19 ledger for the family
/// `𝓛` at `n = 4m`, in closed form over the big-integer layer. Valid at
/// any `m`, in particular `n ≥ 32` where enumeration and bitmaps are
/// impossible and the signed quantities overflow `i64`; cross-checked
/// against enumeration and the streamed kernels at every feasible `n`
/// by the differential suite.
pub fn cmd_accounting(m: &str) -> Result<String, CliError> {
    let m: u64 = m.parse().map_err(|_| err(format!("not a number: {m}")))?;
    if m == 0 || m > 1024 {
        return Err(err("m must be in 1..=1024"));
    }
    let acc = ucfg_core::discrepancy::family_accounting(m);
    let mut out = String::new();
    let _ = writeln!(out, "Lemma 18/19 ledger for 𝓛 at m = {m} (n = {}):", 4 * m);
    let _ = writeln!(out, "  |𝓛| = 16^m:                 {}", acc.family_size);
    let _ = writeln!(out, "  |A| = (16^m − 8^m)/2:       {}", acc.a_size);
    let _ = writeln!(out, "  |B| = (16^m + 8^m)/2:       {}", acc.b_size);
    let _ = writeln!(out, "  |B ∖ L_n| = 12^m:           {}", acc.b_outside_ln);
    let _ = writeln!(out, "  |A ∩ L_n| = |A|:            {}", acc.a_in_ln);
    let _ = writeln!(out, "  |B ∩ L_n| = |B| − 12^m:     {}", acc.b_in_ln);
    let _ = writeln!(out, "  gap = 12^m − 8^m:           {}", acc.gap);
    let _ = writeln!(
        out,
        "  disc(𝓛) = |A| − |B|:        {}",
        acc.full_family_discrepancy
    );
    let _ = writeln!(out, "  Lemma 19 bound 2^{{3m}}:      {}", acc.lemma19_bound);
    let _ = writeln!(
        out,
        "  Lemma 18 (gap > 2^{{7m/2}}):   {}",
        if acc.lemma18_holds { "holds" } else { "fails" }
    );
    Ok(out)
}

/// `ucfg determinize < grammar.txt` — the KMN CFG → uCFG conversion with
/// accounting.
pub fn cmd_determinize(src: &str) -> Result<String, CliError> {
    let g = parse_grammar(src).map_err(|e| err(e.to_string()))?;
    let d = ucfg_core::kmn::determinize_grammar(&g).map_err(|e| err(format!("{e:?}")))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# determinized: |G| = {} → |G'| = {}  (|L| = {}, max len {})",
        d.input_size, d.output_size, d.language_size, d.max_word_len
    );
    debug_assert!(decide_unambiguous(&d.ucfg).is_unambiguous());
    out.push_str(&print_grammar(&d.ucfg));
    Ok(out)
}

/// Parsed flags for `ucfg serve`. Thread flags are stripped by
/// [`dispatch`] before these are parsed, so `--threads`/-j` compose with
/// every option here.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeArgs {
    /// Interface to bind (default loopback).
    pub host: String,
    /// TCP port (default 7878; `0` asks the OS for an ephemeral port).
    pub port: u16,
    /// Bounded batch-queue depth.
    pub queue_depth: usize,
    /// Per-request queue deadline in milliseconds.
    pub deadline_ms: u64,
    /// Artifact-cache capacity in entries (total across shards).
    pub cache_capacity: usize,
    /// Maximum concurrent connections (accept backpressure beyond).
    pub max_connections: usize,
    /// Worker shards (per-shard cache + batch queue).
    pub shards: usize,
    /// Largest accepted request body in bytes.
    pub max_body_bytes: usize,
    /// Per-request header+body deadline in milliseconds.
    pub request_timeout_ms: u64,
    /// Close connections with no forward progress for this long (ms).
    pub idle_timeout_ms: u64,
}

impl Default for ServeArgs {
    fn default() -> Self {
        let d = ucfg_serve::ServeConfig::default();
        ServeArgs {
            host: d.host,
            port: d.port,
            queue_depth: d.queue_depth,
            deadline_ms: d.deadline_ms,
            cache_capacity: d.cache_capacity,
            max_connections: d.max_connections,
            shards: d.shards,
            max_body_bytes: d.max_body_bytes,
            request_timeout_ms: d.request_timeout_ms,
            idle_timeout_ms: d.idle_timeout_ms,
        }
    }
}

/// Pop the value for a `--flag VALUE` / `--flag=VALUE` pair. Returns
/// `Ok(None)` when `args[*i]` is not this flag; advances `*i` past the
/// consumed tokens otherwise.
fn flag_value(args: &[String], i: &mut usize, name: &str) -> Result<Option<String>, CliError> {
    let arg = &args[*i];
    if let Some(v) = arg.strip_prefix(&format!("{name}=")) {
        *i += 1;
        return Ok(Some(v.to_string()));
    }
    if arg == name {
        let v = args
            .get(*i + 1)
            .ok_or_else(|| err(format!("{name} needs a value")))?;
        *i += 2;
        return Ok(Some(v.clone()));
    }
    Ok(None)
}

fn parse_port(s: &str) -> Result<u16, CliError> {
    s.parse()
        .map_err(|_| err(format!("not a valid port: {s:?} (expected 0..=65535)")))
}

fn parse_positive<T: std::str::FromStr>(s: &str, what: &str) -> Result<T, CliError> {
    s.parse()
        .map_err(|_| err(format!("not a valid {what}: {s:?}")))
}

/// Parse the flags of `ucfg serve`.
pub fn parse_serve_args(args: &[String]) -> Result<ServeArgs, CliError> {
    let mut out = ServeArgs::default();
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = flag_value(args, &mut i, "--port")? {
            out.port = parse_port(&v)?;
        } else if let Some(v) = flag_value(args, &mut i, "--host")? {
            out.host = v;
        } else if let Some(v) = flag_value(args, &mut i, "--queue-depth")? {
            out.queue_depth = parse_positive(&v, "queue depth")?;
        } else if let Some(v) = flag_value(args, &mut i, "--deadline-ms")? {
            out.deadline_ms = parse_positive(&v, "deadline")?;
        } else if let Some(v) = flag_value(args, &mut i, "--cache-capacity")? {
            out.cache_capacity = parse_positive(&v, "cache capacity")?;
        } else if let Some(v) = flag_value(args, &mut i, "--max-connections")? {
            out.max_connections = parse_positive(&v, "connection bound")?;
        } else if let Some(v) = flag_value(args, &mut i, "--shards")? {
            out.shards = parse_positive(&v, "shard count")?;
        } else if let Some(v) = flag_value(args, &mut i, "--max-body-bytes")? {
            out.max_body_bytes = parse_positive(&v, "body bound")?;
        } else if let Some(v) = flag_value(args, &mut i, "--request-timeout-ms")? {
            out.request_timeout_ms = parse_positive(&v, "request timeout")?;
        } else if let Some(v) = flag_value(args, &mut i, "--idle-timeout-ms")? {
            out.idle_timeout_ms = parse_positive(&v, "idle timeout")?;
        } else {
            return Err(err(format!("unrecognised serve flag: {}", args[i])));
        }
    }
    Ok(out)
}

/// `ucfg serve [--port N] [--host H] [...]` — run the query daemon.
///
/// Blocks until SIGTERM / ctrl-c / `POST /shutdown`, then drains
/// in-flight batches and returns a one-line summary. The metrics layer
/// is always on for the daemon; `out/METRICS_serve.json` (honouring
/// `$UCFG_OUT_DIR`) is written after the graceful drain. The listening
/// address goes to stderr *before* the accept loop starts so scripts
/// can synchronise on it.
pub fn cmd_serve(args: &[String]) -> Result<String, CliError> {
    let sa = parse_serve_args(args)?;
    ucfg_support::obs::set_enabled(true);
    ucfg_serve::Server::install_signal_handlers();
    let server = ucfg_serve::Server::bind(ucfg_serve::ServeConfig {
        host: sa.host,
        port: sa.port,
        queue_depth: sa.queue_depth,
        deadline_ms: sa.deadline_ms,
        cache_capacity: sa.cache_capacity,
        max_connections: sa.max_connections,
        shards: sa.shards,
        max_body_bytes: sa.max_body_bytes,
        request_timeout_ms: sa.request_timeout_ms,
        idle_timeout_ms: sa.idle_timeout_ms,
    })
    .map_err(|e| err(format!("bind failed: {e}")))?;
    let addr = server
        .local_addr()
        .map_err(|e| err(format!("no local address: {e}")))?;
    let threads = ucfg_support::par::thread_count();
    eprintln!(
        "ucfg-serve listening on {addr} ({threads} thread{}, {} shard{})",
        if threads == 1 { "" } else { "s" },
        sa.shards,
        if sa.shards == 1 { "" } else { "s" }
    );
    let summary = server
        .run()
        .map_err(|e| err(format!("server error: {e}")))?;
    let metrics = ucfg_support::obs::write_metrics("serve")
        .map_err(|e| err(format!("could not write metrics: {e}")))?;
    Ok(format!(
        "served {} requests; metrics written to {}\n",
        summary.requests,
        metrics.display()
    ))
}

/// Parsed flags for `ucfg query`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryArgs {
    /// Daemon host (default loopback).
    pub host: String,
    /// Daemon port — required; there is no default so a stray `query`
    /// can't silently talk to an unrelated local service.
    pub port: u16,
    /// Script file (JSON lines); `None` means the script came on stdin.
    pub file: Option<String>,
    /// Send `POST /shutdown` after the script.
    pub shutdown: bool,
    /// Per-response read timeout in milliseconds; `None` uses the
    /// client default ([`ucfg_serve::client::DEFAULT_READ_TIMEOUT`]).
    pub timeout_ms: Option<u64>,
}

/// Parse the flags of `ucfg query`.
pub fn parse_query_args(args: &[String]) -> Result<QueryArgs, CliError> {
    let mut host = "127.0.0.1".to_string();
    let mut port: Option<u16> = None;
    let mut file = None;
    let mut shutdown = false;
    let mut timeout_ms = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = flag_value(args, &mut i, "--port")? {
            port = Some(parse_port(&v)?);
        } else if let Some(v) = flag_value(args, &mut i, "--host")? {
            host = v;
        } else if let Some(v) = flag_value(args, &mut i, "--file")? {
            file = Some(v);
        } else if let Some(v) = flag_value(args, &mut i, "--timeout-ms")? {
            let ms: u64 = parse_positive(&v, "timeout")?;
            if ms == 0 {
                return Err(err("--timeout-ms must be ≥ 1"));
            }
            timeout_ms = Some(ms);
        } else if args[i] == "--shutdown" {
            shutdown = true;
            i += 1;
        } else {
            return Err(err(format!("unrecognised query flag: {}", args[i])));
        }
    }
    let port = port.ok_or_else(|| err("query needs --port N"))?;
    Ok(QueryArgs {
        host,
        port,
        file,
        shutdown,
        timeout_ms,
    })
}

/// `ucfg query --port N [--file script.jsonl] [--shutdown]
/// [--timeout-ms N]` — drive a running daemon with a script of JSON
/// lines. `--timeout-ms` bounds each response read (default 30 s) so a
/// wedged daemon fails the script fast.
///
/// Each non-empty, non-`#` line is a JSON object whose `"path"` key
/// routes the request; an optional `"method"` overrides the verb and
/// every *other* key becomes the request body. Lines with no body keys
/// default to `GET`, lines with body keys to `POST` — so
/// `{"path": "/healthz"}` probes and
/// `{"path": "/parse", "grammar": "S -> a", "word": "a"}` parses.
/// The output is one `<status> <body>` line per request, in script
/// order, suitable for byte-comparison across daemon configurations.
pub fn cmd_query(args: &[String], stdin: &str) -> Result<String, CliError> {
    let qa = parse_query_args(args)?;
    let script = match &qa.file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| err(format!("could not read {path}: {e}")))?
        }
        None => stdin.to_string(),
    };
    let addr = format!("{}:{}", qa.host, qa.port);
    let read_timeout = qa
        .timeout_ms
        .map(std::time::Duration::from_millis)
        .unwrap_or(ucfg_serve::client::DEFAULT_READ_TIMEOUT);
    let mut client = ucfg_serve::Client::connect_retry_with(
        &addr,
        std::time::Duration::from_secs(10),
        Some(read_timeout),
    )
    .map_err(|e| err(format!("could not connect to {addr}: {e}")))?;
    let mut out = String::new();
    for (lineno, line) in script.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let v = ucfg_serve::Json::parse(line)
            .map_err(|e| err(format!("script line {}: {e}", lineno + 1)))?;
        let entries = match v {
            ucfg_serve::Json::Obj(entries) => entries,
            _ => return Err(err(format!("script line {}: not an object", lineno + 1))),
        };
        let mut path = None;
        let mut method = None;
        let mut body_entries = Vec::new();
        for (k, val) in entries {
            match (k.as_str(), &val) {
                ("path", ucfg_serve::Json::Str(s)) => path = Some(s.clone()),
                ("method", ucfg_serve::Json::Str(s)) => method = Some(s.clone()),
                ("path" | "method", _) => {
                    return Err(err(format!(
                        "script line {}: {k:?} must be a string",
                        lineno + 1
                    )))
                }
                _ => body_entries.push((k, val)),
            }
        }
        let path =
            path.ok_or_else(|| err(format!("script line {}: missing \"path\"", lineno + 1)))?;
        let body = if body_entries.is_empty() {
            None
        } else {
            Some(ucfg_serve::Json::Obj(body_entries).render())
        };
        let method =
            method.unwrap_or_else(|| if body.is_none() { "GET" } else { "POST" }.to_string());
        let r = client
            .request(&method, &path, body.as_deref())
            .map_err(|e| err(format!("script line {}: request failed: {e}", lineno + 1)))?;
        let _ = writeln!(out, "{} {}", r.status, r.body.trim_end_matches('\n'));
    }
    if qa.shutdown {
        let r = client
            .request("POST", "/shutdown", None)
            .map_err(|e| err(format!("shutdown request failed: {e}")))?;
        let _ = writeln!(out, "{} {}", r.status, r.body.trim_end_matches('\n'));
    }
    Ok(out)
}

/// Parsed flags for `ucfg stream`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamArgs {
    /// Daemon host (default loopback).
    pub host: String,
    /// Daemon port — required, like `ucfg query`.
    pub port: u16,
    /// Inline grammar text (mutually exclusive with `builtin`).
    pub grammar: Option<String>,
    /// Builtin family name (needs `n`).
    pub builtin: Option<String>,
    /// Builtin parameter.
    pub n: Option<u64>,
    /// Sliding-window capacity.
    pub window: usize,
    /// Optional product regex.
    pub regex: Option<String>,
    /// Session tag (defaults to empty).
    pub name: String,
    /// Token file; `None` means `--text` supplies the stream.
    pub file: Option<String>,
    /// Inline token text.
    pub text: Option<String>,
    /// Feed chunk size in characters.
    pub chunk: usize,
    /// Per-response read timeout override.
    pub timeout_ms: Option<u64>,
    /// Send `POST /shutdown` after closing the session.
    pub shutdown: bool,
}

/// Parse the flags of `ucfg stream`.
pub fn parse_stream_args(args: &[String]) -> Result<StreamArgs, CliError> {
    let mut sa = StreamArgs {
        host: "127.0.0.1".into(),
        port: 0,
        grammar: None,
        builtin: None,
        n: None,
        window: 64,
        regex: None,
        name: String::new(),
        file: None,
        text: None,
        chunk: 16,
        timeout_ms: None,
        shutdown: false,
    };
    let mut port: Option<u16> = None;
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = flag_value(args, &mut i, "--port")? {
            port = Some(parse_port(&v)?);
        } else if let Some(v) = flag_value(args, &mut i, "--host")? {
            sa.host = v;
        } else if let Some(v) = flag_value(args, &mut i, "--grammar")? {
            sa.grammar = Some(v);
        } else if let Some(v) = flag_value(args, &mut i, "--builtin")? {
            sa.builtin = Some(v);
        } else if let Some(v) = flag_value(args, &mut i, "--n")? {
            sa.n = Some(parse_positive(&v, "n")?);
        } else if let Some(v) = flag_value(args, &mut i, "--window")? {
            sa.window = parse_positive::<usize>(&v, "window")?;
            if sa.window == 0 {
                return Err(err("--window must be ≥ 1"));
            }
        } else if let Some(v) = flag_value(args, &mut i, "--regex")? {
            sa.regex = Some(v);
        } else if let Some(v) = flag_value(args, &mut i, "--name")? {
            sa.name = v;
        } else if let Some(v) = flag_value(args, &mut i, "--file")? {
            sa.file = Some(v);
        } else if let Some(v) = flag_value(args, &mut i, "--text")? {
            sa.text = Some(v);
        } else if let Some(v) = flag_value(args, &mut i, "--chunk")? {
            sa.chunk = parse_positive::<usize>(&v, "chunk")?;
            if sa.chunk == 0 {
                return Err(err("--chunk must be ≥ 1"));
            }
        } else if let Some(v) = flag_value(args, &mut i, "--timeout-ms")? {
            let ms: u64 = parse_positive(&v, "timeout")?;
            if ms == 0 {
                return Err(err("--timeout-ms must be ≥ 1"));
            }
            sa.timeout_ms = Some(ms);
        } else if args[i] == "--shutdown" {
            sa.shutdown = true;
            i += 1;
        } else {
            return Err(err(format!("unrecognised stream flag: {}", args[i])));
        }
    }
    sa.port = port.ok_or_else(|| err("stream needs --port N"))?;
    match (&sa.grammar, &sa.builtin) {
        (Some(_), Some(_)) => return Err(err("give --grammar or --builtin, not both")),
        (None, None) => return Err(err("stream needs --grammar SRC or --builtin NAME --n N")),
        (None, Some(_)) if sa.n.is_none() => return Err(err("--builtin needs --n N")),
        _ => {}
    }
    if sa.file.is_some() && sa.text.is_some() {
        return Err(err("give --file or --text, not both"));
    }
    if sa.file.is_none() && sa.text.is_none() {
        return Err(err("stream needs --file tokens.txt or --text CHARS"));
    }
    Ok(sa)
}

/// `ucfg stream --port N (--grammar SRC | --builtin NAME --n N)
/// (--file tokens.txt | --text CHARS) [--window W] [--regex R]
/// [--name S] [--chunk N] [--timeout-ms N] [--shutdown]` — drive a
/// running daemon's streaming endpoints: open a session, feed the
/// token stream in `--chunk`-character slices, query the final window,
/// and close. Whitespace in the token source is ignored, so files can
/// be line-wrapped.
///
/// The output is one `<status> <body>` line per request, in order
/// (open, each feed, query, close), suitable for byte-comparison
/// across daemon thread counts and shard layouts.
pub fn cmd_stream(args: &[String]) -> Result<String, CliError> {
    let sa = parse_stream_args(args)?;
    let tokens: String = match &sa.file {
        Some(path) => {
            std::fs::read_to_string(path).map_err(|e| err(format!("could not read {path}: {e}")))?
        }
        None => sa.text.clone().unwrap_or_default(),
    }
    .chars()
    .filter(|c| !c.is_whitespace())
    .collect();
    let addr = format!("{}:{}", sa.host, sa.port);
    let read_timeout = sa
        .timeout_ms
        .map(std::time::Duration::from_millis)
        .unwrap_or(ucfg_serve::client::DEFAULT_READ_TIMEOUT);
    let mut client = ucfg_serve::Client::connect_retry_with(
        &addr,
        std::time::Duration::from_secs(10),
        Some(read_timeout),
    )
    .map_err(|e| err(format!("could not connect to {addr}: {e}")))?;

    use ucfg_serve::Json;
    let mut open = Vec::new();
    match (&sa.grammar, &sa.builtin) {
        (Some(g), None) => open.push(("grammar".to_string(), Json::Str(g.clone()))),
        (None, Some(b)) => {
            open.push(("builtin".to_string(), Json::Str(b.clone())));
            open.push(("n".to_string(), Json::Int(sa.n.unwrap_or(0) as i64)));
        }
        _ => unreachable!("parse_stream_args enforces exactly one"),
    }
    open.push(("window".to_string(), Json::Int(sa.window as i64)));
    if let Some(r) = &sa.regex {
        open.push(("regex".to_string(), Json::Str(r.clone())));
    }
    open.push(("name".to_string(), Json::Str(sa.name.clone())));

    let mut out = String::new();
    let send = |client: &mut ucfg_serve::Client,
                out: &mut String,
                path: &str,
                body: String|
     -> Result<(u16, String), CliError> {
        let r = client
            .request("POST", path, Some(&body))
            .map_err(|e| err(format!("{path} request failed: {e}")))?;
        let line = r.body.trim_end_matches('\n').to_string();
        let _ = writeln!(out, "{} {}", r.status, line);
        Ok((r.status, line))
    };

    let (status, body) = send(
        &mut client,
        &mut out,
        "/stream/open",
        Json::Obj(open).render(),
    )?;
    if status != 200 {
        return Err(err(format!("open failed: {status} {body}")));
    }
    let session = Json::parse(&body)
        .ok()
        .and_then(|v| v.get("session").and_then(Json::as_str).map(str::to_string))
        .ok_or_else(|| err(format!("open response has no session id: {body}")))?;

    let chars: Vec<char> = tokens.chars().collect();
    for slice in chars.chunks(sa.chunk) {
        let chunk: String = slice.iter().collect();
        let body = Json::Obj(vec![
            ("session".to_string(), Json::Str(session.clone())),
            ("tokens".to_string(), Json::Str(chunk)),
        ])
        .render();
        let (status, body) = send(&mut client, &mut out, "/stream/feed", body)?;
        if status != 200 {
            return Err(err(format!("feed failed: {status} {body}")));
        }
    }

    let sess_body = Json::Obj(vec![("session".to_string(), Json::Str(session.clone()))]).render();
    send(&mut client, &mut out, "/stream/query", sess_body.clone())?;
    send(&mut client, &mut out, "/stream/close", sess_body)?;
    if sa.shutdown {
        let r = client
            .request("POST", "/shutdown", None)
            .map_err(|e| err(format!("shutdown request failed: {e}")))?;
        let _ = writeln!(out, "{} {}", r.status, r.body.trim_end_matches('\n'));
    }
    Ok(out)
}

/// Parse the flags of `ucfg orchestrate`.
pub fn parse_orchestrate_args(
    args: &[String],
) -> Result<ucfg_bench::orchestrate::Config, CliError> {
    let mut cfg = ucfg_bench::orchestrate::Config::default();
    let mut i = 0;
    while i < args.len() {
        if let Some(v) = flag_value(args, &mut i, "--baseline")? {
            cfg.baseline_path = Some(v.into());
        } else if let Some(v) = flag_value(args, &mut i, "--out-dir")? {
            cfg.out_dir = Some(v.into());
        } else if let Some(v) = flag_value(args, &mut i, "--cache-dir")? {
            cfg.cache_dir = Some(v.into());
        } else if let Some(v) = flag_value(args, &mut i, "--tolerance")? {
            let r: f64 = v
                .parse()
                .map_err(|_| err(format!("not a valid tolerance ratio: {v:?}")))?;
            if r.is_nan() || r < 1.0 {
                return Err(err(format!("--tolerance must be ≥ 1.0, got {v}")));
            }
            cfg.max_ratio = Some(r);
        } else if let Some(v) = flag_value(args, &mut i, "--floor-ns")? {
            let f: f64 = v
                .parse()
                .map_err(|_| err(format!("not a valid noise floor: {v:?}")))?;
            if f.is_nan() || f < 0.0 {
                return Err(err(format!("--floor-ns must be ≥ 0, got {v}")));
            }
            cfg.floor_ns = Some(f);
        } else if let Some(v) = flag_value(args, &mut i, "--filter")? {
            cfg.filter = Some(v);
        } else if args[i] == "--smoke" {
            cfg.smoke = true;
            i += 1;
        } else if args[i] == "--check" {
            cfg.check = true;
            i += 1;
        } else if args[i] == "--write-baseline" {
            cfg.write_baseline = true;
            i += 1;
        } else if args[i] == "--refresh" {
            cfg.refresh = true;
            i += 1;
        } else if args[i] == "--list" {
            cfg.list = true;
            i += 1;
        } else if !args[i].starts_with('-') && cfg.filter.is_none() {
            cfg.filter = Some(args[i].clone());
            i += 1;
        } else {
            return Err(err(format!("unrecognised orchestrate flag: {}", args[i])));
        }
    }
    Ok(cfg)
}

/// `ucfg orchestrate [--smoke] [--check] [--write-baseline] …` — run the
/// experiment matrix as a cached job graph; see
/// [`ucfg_bench::orchestrate`].
///
/// Exits nonzero (via `Err`) when a job fails or — under `--check` — a
/// baseline comparison regresses.
pub fn cmd_orchestrate(args: &[String]) -> Result<String, CliError> {
    let cfg = parse_orchestrate_args(args)?;
    let outcome = ucfg_bench::orchestrate::run(&cfg).map_err(err)?;
    if outcome.is_failure() {
        return Err(err(format!(
            "{}orchestrate failed: {} regression(s), {} failed job(s)",
            outcome.summary, outcome.regressions, outcome.failed_jobs
        )));
    }
    Ok(outcome.summary)
}

/// Usage text.
pub fn usage() -> String {
    "ucfg — the uCFG lower-bound toolkit (PODS 2025 reproduction)\n\
     \n\
     usage:\n\
       ucfg member  <n> <word>       is <word> ∈ L_n?\n\
       ucfg count   <n>              |L_n|\n\
       ucfg sizes   <n>              Theorem 1 size row for L_n\n\
       ucfg grammar <which> <n>      print a grammar (appendix-a | example3 | example4)\n\
       ucfg check                    parse a grammar from stdin and analyse it\n\
       ucfg determinize              CFG → uCFG (the [20] route), grammar on stdin\n\
       ucfg extract <n>              Proposition 7 extraction demo\n\
       ucfg rank    <n>              Theorem 17 rank certificates (parallel;\n\
                                     set UCFG_THREADS to pin the worker count)\n\
       ucfg cover   <n>              verify the Example 8 cover of L_n (streams\n\
                                     2^18-bit blocks at every n; see --chunk-bits)\n\
       ucfg discrepancy <n>          streamed full-family discrepancy at the\n\
                                     [1,n] cut vs the exact −2^{3m} ledger\n\
       ucfg accounting <m>           exact Lemma 18/19 ledger for 𝓛 at n = 4m\n\
                                     (big-integer; any m, way past enumeration)\n\
       ucfg serve [--port N] [--host H] [--queue-depth N]\n\
                  [--deadline-ms N] [--cache-capacity N] [--max-connections N]\n\
                  [--shards N] [--max-body-bytes N] [--request-timeout-ms N]\n\
                  [--idle-timeout-ms N]\n\
                                     run the resident query daemon: epoll event\n\
                                     loop, N worker shards (default port 7878;\n\
                                     metrics → out/METRICS_serve.json)\n\
       ucfg query --port N [--host H] [--file script.jsonl] [--shutdown]\n\
                  [--timeout-ms N]   drive a daemon with JSON-lines requests\n\
                                     (script from --file, else stdin)\n\
       ucfg stream --port N (--grammar SRC | --builtin NAME --n N)\n\
                  (--file tokens.txt | --text CHARS) [--window W] [--regex R]\n\
                  [--name S] [--chunk N] [--timeout-ms N] [--shutdown]\n\
                                     drive a daemon's streaming endpoints:\n\
                                     open a session, feed in chunks, query\n\
                                     the window, close\n\
       ucfg orchestrate [--smoke] [--check] [--write-baseline] [--list]\n\
                  [--filter S] [--baseline PATH] [--out-dir DIR]\n\
                  [--cache-dir DIR] [--refresh] [--tolerance R] [--floor-ns N]\n\
                                     run the experiment matrix as a cached job\n\
                                     graph; --check gates on baselines/<profile>.json\n\
     \n\
     global flags:\n\
       --threads N | --threads=N | -j N | -jN\n\
                                     override UCFG_THREADS for this invocation\n\
       --trace                       kernel metrics (or UCFG_TRACE=1): summary\n\
                                     to stderr + out/METRICS_ucfg.json\n\
       --chunk-bits N | --chunk-bits=N\n\
                                     override UCFG_WORDSET_CHUNK: the block size\n\
                                     of every blocked wordset scan (power of two\n\
                                     ≥ 64; default 2^18)\n"
        .to_string()
}

/// Dispatch a full argument vector (without the program name).
///
/// A thread-override flag anywhere in the arguments — any of the four
/// spellings `--threads N`, `--threads=N`, `-j N`, `-jN` — overrides
/// `UCFG_THREADS` for this invocation via
/// [`ucfg_support::par::set_thread_count`] before the command runs; every
/// parallel kernel downstream picks the count up from
/// [`ucfg_support::par::thread_count`]. A `--trace` flag switches the
/// [`ucfg_support::obs`] metrics layer on (the binary then writes
/// `out/METRICS_ucfg.json` and a summary at exit). A `--chunk-bits N` /
/// `--chunk-bits=N` flag anywhere sets `UCFG_WORDSET_CHUNK` for this
/// invocation via [`ucfg_core::wordset::chunked::set_chunk_bits`] — the
/// blocked wordset scans then run on `N`-bit blocks. A malformed ambient
/// `UCFG_WORDSET_CHUNK` is rejected here, before any command runs.
pub fn dispatch(args: &[String], stdin: &str) -> Result<String, CliError> {
    let (args, trace) = ucfg_support::obs::strip_trace_flag(args);
    if trace {
        ucfg_support::obs::set_enabled(true);
    }
    let rest = ucfg_support::par::strip_thread_flags(&args).map_err(err)?;
    let rest = ucfg_core::wordset::chunked::strip_chunk_flags(&rest).map_err(err)?;
    match &rest[..] {
        [cmd, n, word] if cmd == "member" => cmd_member(n, word),
        [cmd, n] if cmd == "count" => cmd_count(n),
        [cmd, n] if cmd == "sizes" => cmd_sizes(n),
        [cmd, which, n] if cmd == "grammar" => cmd_grammar(which, n),
        [cmd] if cmd == "check" => cmd_check(stdin),
        [cmd] if cmd == "determinize" => cmd_determinize(stdin),
        [cmd, n] if cmd == "extract" => cmd_extract(n),
        [cmd, n] if cmd == "rank" => cmd_rank(n),
        [cmd, n] if cmd == "cover" => cmd_cover(n),
        [cmd, n] if cmd == "discrepancy" => cmd_discrepancy(n),
        [cmd, m] if cmd == "accounting" => cmd_accounting(m),
        [cmd, flags @ ..] if cmd == "serve" => cmd_serve(flags),
        [cmd, flags @ ..] if cmd == "query" => cmd_query(flags, stdin),
        [cmd, flags @ ..] if cmd == "stream" => cmd_stream(flags),
        [cmd, flags @ ..] if cmd == "orchestrate" => cmd_orchestrate(flags),
        [] => Ok(usage()),
        _ => Err(err(format!(
            "unrecognised arguments: {rest:?}\n\n{}",
            usage()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn member_command() {
        let out = cmd_member("2", "abab").unwrap();
        assert!(out.contains("true"));
        let out = cmd_member("2", "abba").unwrap();
        assert!(out.contains("false"));
        assert!(cmd_member("2", "ab").is_err());
        assert!(cmd_member("0", "").is_err());
        assert!(cmd_member("x", "").is_err());
    }

    #[test]
    fn count_command() {
        assert!(cmd_count("3").unwrap().contains("37"));
    }

    #[test]
    fn grammar_command() {
        let out = cmd_grammar("appendix-a", "4").unwrap();
        assert!(out.contains("size"));
        assert!(cmd_grammar("example4", "11").is_err());
        assert!(cmd_grammar("nope", "3").is_err());
        // Printed grammars re-parse.
        let body: String = out
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        assert!(ucfg_grammar::text::parse_grammar(&body).is_ok());
    }

    #[test]
    fn sizes_command() {
        let out = cmd_sizes("8").unwrap();
        assert!(out.contains("CFG"));
        assert!(out.contains("uCFG"));
    }

    #[test]
    fn check_command() {
        let out = cmd_check("S -> A A\nA -> a | b\n").unwrap();
        assert!(out.contains("unambiguous ✓"), "{out}");
        assert!(out.contains("no lints"), "{out}");
        let out = cmd_check("S -> A B | B A\nA -> a\nB -> a\n").unwrap();
        assert!(out.contains("AMBIGUOUS"), "{out}");
        assert!(cmd_check("garbage").is_err());
        // Lints fire on sloppy grammars.
        let out = cmd_check("S -> a | a\nDead -> Dead a\n").unwrap();
        assert!(out.contains("warning:"), "{out}");
    }

    #[test]
    fn determinize_command() {
        // An ambiguous grammar becomes unambiguous with the same language.
        let src = "S -> A B | B A\nA -> a\nB -> a\n";
        let out = cmd_determinize(src).unwrap();
        assert!(out.contains("determinized"), "{out}");
        let body: String = out
            .lines()
            .filter(|l| !l.starts_with('#'))
            .collect::<Vec<_>>()
            .join("\n");
        let g = ucfg_grammar::text::parse_grammar(&body).unwrap();
        assert!(decide_unambiguous(&g).is_unambiguous());
        assert_eq!(finite_language(&g).unwrap().len(), 1); // {aa}
                                                           // Infinite language rejected.
        assert!(cmd_determinize("S -> a S | a").is_err());
    }

    #[test]
    fn extract_command() {
        let out = cmd_extract("2").unwrap();
        assert!(out.contains("disjoint: true"), "{out}");
        assert!(cmd_extract("9").is_err());
    }

    #[test]
    fn rank_command() {
        let out = cmd_rank("4").unwrap();
        assert!(out.contains("GF(2):           15"), "{out}");
        assert!(out.contains("GF(2^61 − 1):    15"), "{out}");
        assert!(out.contains("≥ 15 rectangles"), "{out}");
        // Past the elimination ceiling only the streamed census runs:
        // ones = 4^11 − 3^11 with the census block plan named in the
        // banner.
        let out = cmd_rank("11").unwrap();
        assert!(out.contains("elimination needs n ≤ 10"), "{out}");
        assert!(out.contains("census blocked (2^22 bits in"), "{out}");
        assert!(out.contains("matrix ones (4^n − 3^n):   4017157"), "{out}");
        assert!(cmd_rank("19").is_err());
        assert!(cmd_rank("0").is_err());
    }

    #[test]
    fn cover_command() {
        let out = cmd_cover("4").unwrap();
        assert!(out.contains("rectangles:     4"), "{out}");
        assert!(out.contains("covers exactly: true"), "{out}");
        assert!(out.contains("all balanced:   true"), "{out}");
        assert!(out.contains("max overlap:    4"), "{out}");
        // |L_4| = 4^4 − 3^4 = 175, and the union equals it.
        assert_eq!(out.matches("count 175").count(), 2, "{out}");
        assert!(cmd_cover("19").is_err());
        assert!(cmd_cover("0").is_err());
    }

    #[test]
    fn discrepancy_command() {
        // n = 8 (m = 2): disc(𝓛) = −2^6 = −64, streamed = ledger.
        let out = cmd_discrepancy("8").unwrap();
        assert!(out.contains("disc(𝓛) = |𝓛∩A| − |𝓛∩B|:   -64"), "{out}");
        assert!(out.contains("exact ledger −2^{3m}:       -64"), "{out}");
        assert!(out.contains("streamed = exact:           true"), "{out}");
        assert!(out.starts_with("Full-family discrepancy at n = 8, in-memory (2^8 bits):"));
        assert!(cmd_discrepancy("6").is_err(), "n ≢ 0 mod 4");
        assert!(cmd_discrepancy("36").is_err(), "past the scan ceiling");
    }

    #[test]
    fn accounting_command() {
        // m = 2 (n = 8): enumeration-checkable numbers.
        let out = cmd_accounting("2").unwrap();
        assert!(out.contains("|𝓛| = 16^m:                 256"), "{out}");
        assert!(out.contains("gap = 12^m − 8^m:           80"), "{out}");
        assert!(out.contains("disc(𝓛) = |A| − |B|:        -64"), "{out}");
        // m = 8 (n = 32): past every enumeration/materialisation cap.
        let out = cmd_accounting("8").unwrap();
        assert!(out.contains("4294967296"), "16^8: {out}"); // |𝓛| = 2^32
        assert!(out.contains("-16777216"), "−2^24: {out}");
        assert!(out.contains("holds"), "{out}");
        assert!(cmd_accounting("0").is_err());
        assert!(cmd_accounting("1025").is_err());
        assert!(cmd_accounting("x").is_err());
    }

    #[test]
    fn chunk_flag_round_trips_to_the_wordset_layer() {
        // --chunk-bits must set the cover scan's block size, and every
        // line after the banner must be byte-identical to the default
        // plan's — the invariant CI's determinism job pins.
        let small = dispatch(
            &["--chunk-bits=1024".into(), "cover".into(), "6".into()],
            "",
        )
        .unwrap();
        assert!(
            small.contains("blocked (2^12 bits in 4 blocks of 2^10)"),
            "{small}"
        );
        std::env::remove_var(ucfg_core::wordset::chunked::CHUNK_ENV);
        let default = dispatch(&["cover".into(), "6".into()], "").unwrap();
        assert!(
            default.contains("blocked (2^12 bits in 1 block of 2^12)"),
            "{default}"
        );
        let tail = |s: &str| s.lines().skip(1).collect::<Vec<_>>().join("\n");
        assert_eq!(tail(&small), tail(&default));
        // Malformed sizes are hard errors in both spellings, and must
        // not leave an override behind.
        assert!(dispatch(&["--chunk-bits".into()], "").is_err());
        assert!(dispatch(&["--chunk-bits".into(), "banana".into()], "").is_err());
        assert!(dispatch(&["--chunk-bits=63".into(), "count".into(), "2".into()], "").is_err());
        assert!(dispatch(&["--chunk-bits=0".into()], "").is_err());
        assert!(std::env::var(ucfg_core::wordset::chunked::CHUNK_ENV).is_err());
    }

    #[test]
    fn threads_flag_round_trips_to_the_par_layer() {
        // `--threads N` must land in ucfg_support::par::thread_count for
        // every kernel the command runs.
        let out = dispatch(
            &["--threads".into(), "3".into(), "count".into(), "2".into()],
            "",
        )
        .unwrap();
        assert!(out.contains("7"));
        assert_eq!(ucfg_support::par::thread_count(), 3);
        // The short form, with no command → usage.
        assert!(dispatch(&["-j".into(), "2".into()], "")
            .unwrap()
            .contains("usage"));
        assert_eq!(ucfg_support::par::thread_count(), 2);
        // The attached spellings must work too — they used to be passed
        // through to the command router and rejected as bogus arguments.
        let out = dispatch(&["--threads=5".into(), "count".into(), "2".into()], "").unwrap();
        assert!(out.contains("7"));
        assert_eq!(ucfg_support::par::thread_count(), 5);
        let out = dispatch(&["-j4".into(), "count".into(), "2".into()], "").unwrap();
        assert!(out.contains("7"));
        assert_eq!(ucfg_support::par::thread_count(), 4);
        // Malformed values are rejected, in every spelling.
        assert!(dispatch(&["--threads".into()], "").is_err());
        assert!(dispatch(&["--threads".into(), "0".into()], "").is_err());
        assert!(dispatch(&["--threads".into(), "x".into()], "").is_err());
        assert!(dispatch(&["--threads=0".into()], "").is_err());
        assert!(dispatch(&["--threads=x".into()], "").is_err());
        assert!(dispatch(&["-j0".into()], "").is_err());
        assert!(dispatch(&["-jx".into()], "").is_err());
    }

    #[test]
    fn serve_args_parse_and_reject() {
        let d = parse_serve_args(&[]).unwrap();
        assert_eq!(d.port, 7878);
        assert_eq!(d.host, "127.0.0.1");
        assert_eq!(d.shards, 1);
        assert_eq!(d.max_body_bytes, 4 << 20);
        assert_eq!(d.request_timeout_ms, 10_000);
        assert_eq!(d.idle_timeout_ms, 60_000);
        let a = parse_serve_args(&[
            "--port".into(),
            "9000".into(),
            "--host=0.0.0.0".into(),
            "--queue-depth".into(),
            "8".into(),
            "--deadline-ms=250".into(),
            "--cache-capacity".into(),
            "4".into(),
            "--max-connections=2".into(),
            "--shards=4".into(),
            "--max-body-bytes".into(),
            "1024".into(),
            "--request-timeout-ms=500".into(),
            "--idle-timeout-ms=2000".into(),
        ])
        .unwrap();
        assert_eq!(
            a,
            ServeArgs {
                host: "0.0.0.0".into(),
                port: 9000,
                queue_depth: 8,
                deadline_ms: 250,
                cache_capacity: 4,
                max_connections: 2,
                shards: 4,
                max_body_bytes: 1024,
                request_timeout_ms: 500,
                idle_timeout_ms: 2000,
            }
        );
        // Malformed ports are hard errors, in both flag spellings.
        for bad in ["x", "-1", "65536", "70000", "1.5", ""] {
            assert!(
                parse_serve_args(&["--port".into(), bad.into()]).is_err(),
                "--port {bad} must be rejected"
            );
            assert!(
                parse_serve_args(&[format!("--port={bad}")]).is_err(),
                "--port={bad} must be rejected"
            );
        }
        assert!(parse_serve_args(&["--port".into()]).is_err());
        assert!(parse_serve_args(&["--bogus".into()]).is_err());
        assert!(parse_serve_args(&["--queue-depth".into(), "x".into()]).is_err());
        assert!(parse_serve_args(&["--shards".into(), "x".into()]).is_err());
        assert!(parse_serve_args(&["--max-body-bytes=huge".into()]).is_err());
        assert!(parse_serve_args(&["--request-timeout-ms".into()]).is_err());
        assert!(parse_serve_args(&["--idle-timeout-ms=x".into()]).is_err());
    }

    #[test]
    fn query_args_parse_and_reject() {
        let q = parse_query_args(&["--port".into(), "7878".into()]).unwrap();
        assert_eq!(
            q,
            QueryArgs {
                host: "127.0.0.1".into(),
                port: 7878,
                file: None,
                shutdown: false,
                timeout_ms: None,
            }
        );
        let q = parse_query_args(&[
            "--port=1234".into(),
            "--host".into(),
            "::1".into(),
            "--file".into(),
            "s.jsonl".into(),
            "--shutdown".into(),
            "--timeout-ms=2500".into(),
        ])
        .unwrap();
        assert_eq!(q.port, 1234);
        assert_eq!(q.file.as_deref(), Some("s.jsonl"));
        assert!(q.shutdown);
        assert_eq!(q.timeout_ms, Some(2500));
        // Port is mandatory and malformed ports are hard errors.
        assert!(parse_query_args(&[]).is_err());
        assert!(parse_query_args(&["--port".into(), "no".into()]).is_err());
        assert!(parse_query_args(&["--port=99999".into()]).is_err());
        assert!(parse_query_args(&["--wat".into()]).is_err());
        assert!(parse_query_args(&["--port=1".into(), "--timeout-ms=0".into()]).is_err());
        assert!(parse_query_args(&["--port=1".into(), "--timeout-ms=x".into()]).is_err());
    }

    #[test]
    fn query_drives_a_live_daemon() {
        // A real daemon on an ephemeral loopback port, driven through
        // the same code path as `ucfg query` with a stdin script.
        let server = ucfg_serve::Server::bind(ucfg_serve::ServeConfig {
            port: 0,
            ..ucfg_serve::ServeConfig::default()
        })
        .expect("bind");
        let port = server.local_addr().expect("addr").port();
        let join = std::thread::spawn(move || server.run().expect("run"));

        // Script errors are reported with line numbers.
        let bad = cmd_query(&["--port".into(), port.to_string()], "not json\n").unwrap_err();
        assert!(bad.to_string().contains("line 1"), "{bad}");
        let bad = cmd_query(
            &["--port".into(), port.to_string()],
            "{\"method\": \"GET\"}\n",
        )
        .unwrap_err();
        assert!(bad.to_string().contains("missing \"path\""), "{bad}");

        let script = "# probe, parse twice (second hits the cache), then stop\n\
                      {\"path\": \"/healthz\"}\n\
                      {\"path\": \"/parse\", \"grammar\": \"S -> a S b S | ()\", \"word\": \"ab\"}\n\
                      {\"path\": \"/parse\", \"grammar\": \"S -> a S b S | ()\", \"word\": \"ab\"}\n";
        let out = cmd_query(
            &["--port".into(), port.to_string(), "--shutdown".into()],
            script,
        )
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4, "{out}");
        assert!(lines[0].starts_with("200 "), "{out}");
        assert!(lines[1].contains("\"member\":true"), "{out}");
        assert!(lines[1].contains("\"cache\":\"miss\""), "{out}");
        assert_eq!(
            lines[2],
            lines[1].replace("\"cache\":\"miss\"", "\"cache\":\"hit\""),
            "warm repeat identical apart from the cache tag"
        );
        assert!(lines[3].contains("draining"), "{out}");
        join.join().expect("clean join");
    }

    #[test]
    fn stream_args_parse_and_reject() {
        let sa = parse_stream_args(&[
            "--port=1234".into(),
            "--grammar".into(),
            "S -> a".into(),
            "--text".into(),
            "aaa".into(),
            "--window=8".into(),
            "--regex".into(),
            "a*".into(),
            "--chunk=2".into(),
        ])
        .unwrap();
        assert_eq!(sa.port, 1234);
        assert_eq!(sa.window, 8);
        assert_eq!(sa.chunk, 2);
        assert_eq!(sa.regex.as_deref(), Some("a*"));
        // Port, grammar source, and token source are all mandatory;
        // conflicting sources are hard errors.
        assert!(parse_stream_args(&[]).is_err());
        assert!(parse_stream_args(&["--port=1".into(), "--text=a".into()]).is_err());
        assert!(parse_stream_args(&["--port=1".into(), "--grammar=S -> a".into()]).is_err());
        assert!(parse_stream_args(&[
            "--port=1".into(),
            "--grammar=S -> a".into(),
            "--builtin=example3".into(),
            "--n=2".into(),
            "--text=a".into(),
        ])
        .is_err());
        assert!(parse_stream_args(&[
            "--port=1".into(),
            "--builtin=example3".into(),
            "--text=a".into(),
        ])
        .is_err());
        assert!(parse_stream_args(&[
            "--port=1".into(),
            "--grammar=S -> a".into(),
            "--text=a".into(),
            "--file=f".into(),
        ])
        .is_err());
        assert!(parse_stream_args(&[
            "--port=1".into(),
            "--grammar=S -> a".into(),
            "--text=a".into(),
            "--window=0".into(),
        ])
        .is_err());
    }

    #[test]
    fn stream_drives_a_live_daemon() {
        let server = ucfg_serve::Server::bind(ucfg_serve::ServeConfig {
            port: 0,
            shards: 2,
            ..ucfg_serve::ServeConfig::default()
        })
        .expect("bind");
        let port = server.local_addr().expect("addr").port();
        let join = std::thread::spawn(move || server.run().expect("run"));

        let out = cmd_stream(&[
            "--port".into(),
            port.to_string(),
            "--grammar".into(),
            "S -> a S b | a b".into(),
            "--window=8".into(),
            "--regex".into(),
            "a(a|b)*b".into(),
            "--text".into(),
            "aaaa bbbb".into(),
            "--chunk=3".into(),
            "--shutdown".into(),
        ])
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        // open + 3 feed chunks (8 chars / 3) + query + close + shutdown.
        assert_eq!(lines.len(), 7, "{out}");
        assert!(lines[0].starts_with("200 "), "{out}");
        assert!(lines[0].contains("\"session\""), "{out}");
        assert!(lines[3].contains("\"member\":true"), "{out}");
        assert!(lines[4].contains("\"window\":\"aaaabbbb\""), "{out}");
        assert!(lines[4].contains("\"count\":\"1\""), "{out}");
        assert!(lines[5].contains("\"closed\":true"), "{out}");
        assert!(lines[6].contains("draining"), "{out}");
        join.join().expect("clean join");
    }

    #[test]
    fn dispatch_routes() {
        let ok = dispatch(&["count".into(), "2".into()], "").unwrap();
        assert!(ok.contains("7"));
        assert!(dispatch(&[], "").unwrap().contains("usage"));
        assert!(dispatch(&["bogus".into()], "").is_err());
        let checked = dispatch(&["check".into()], "S -> a\n").unwrap();
        assert!(checked.contains("1 words"));
    }
}
