//! The nine rule families the workspace gates on.
//!
//! Every rule pattern-matches against scrubbed source (see [`crate::scrub`]),
//! so tokens inside comments and string literals never fire, and every rule
//! skips test-only lines. Findings can be suppressed per line with
//! `// cwc-lint: allow(<rule>)`.

use crate::scrub::ScrubbedFile;
use std::collections::BTreeSet;

/// One rule violation, anchored to a 1-based source line.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Finding {
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    pub rule: &'static str,
    pub message: String,
}

impl Finding {
    fn new(file: &ScrubbedFile, line0: usize, rule: &'static str, message: String) -> Self {
        Finding {
            rel: file.rel.clone(),
            line: line0 + 1,
            rule,
            message,
        }
    }
}

/// A lint rule: scans one scrubbed file and appends findings.
pub trait Rule {
    fn name(&self) -> &'static str;
    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>);
}

/// The full rule set, in reporting order.
pub fn default_rules() -> Vec<Box<dyn Rule>> {
    vec![
        Box::new(Determinism),
        Box::new(SansIo),
        Box::new(PanicSafety),
        Box::new(UnitSafety),
        Box::new(ProtocolExhaustiveness),
        Box::new(ObsRouting),
        Box::new(ErrorSwallowing),
        Box::new(StateMutation),
        Box::new(UnsafeAudit),
    ]
}

/// Is `code[pos..pos+word.len()]` a whole-word occurrence of `word`?
fn whole_word(line: &str, pos: usize, word: &str) -> bool {
    let before_ok = pos == 0
        || !line[..pos]
            .chars()
            .next_back()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    let after = pos + word.len();
    let after_ok = after >= line.len()
        || !line[after..]
            .chars()
            .next()
            .is_some_and(|c| c.is_alphanumeric() || c == '_');
    before_ok && after_ok
}

/// Yields byte positions of whole-word occurrences of `word` in `line`.
fn word_positions<'a>(line: &'a str, word: &'a str) -> impl Iterator<Item = usize> + 'a {
    let mut from = 0usize;
    std::iter::from_fn(move || {
        while let Some(p) = line[from..].find(word) {
            let pos = from + p;
            from = pos + word.len();
            if whole_word(line, pos, word) {
                return Some(pos);
            }
        }
        None
    })
}

/// Strips trailing `&`, `&mut`, and whitespace from a type position, so
/// `x: &mut HashMap` and `x: HashMap` bind the same way.
fn strip_ref_suffix(before: &str) -> &str {
    let mut b = before.trim_end();
    loop {
        let t = b.trim_end_matches('&').trim_end();
        let t = match t.strip_suffix("mut") {
            Some(rest)
                if rest.is_empty()
                    || rest.ends_with(|c: char| !(c.is_alphanumeric() || c == '_')) =>
            {
                rest.trim_end()
            }
            _ => t,
        };
        if t.len() == b.len() {
            return b;
        }
        b = t;
    }
}

/// Identifier ending immediately before byte `pos` (skipping spaces).
fn ident_before(line: &str, pos: usize) -> Option<&str> {
    let trimmed = line[..pos].trim_end();
    let end = trimmed.len();
    let start = trimmed
        .char_indices()
        .rev()
        .take_while(|(_, c)| c.is_alphanumeric() || *c == '_')
        .map(|(i, _)| i)
        .last()?;
    if start == end {
        None
    } else {
        Some(&trimmed[start..end])
    }
}

// ---------------------------------------------------------------------------
// Rule 1: determinism
// ---------------------------------------------------------------------------

/// Crates whose output must be a pure function of (inputs, seed): the
/// scheduler core, the simulator, chaos planning, the LP bound, and the
/// profiler. `crates/server/src/engine.rs` produces `Schedule`s and is held
/// to the same bar even though the rest of `cwc-server` touches wall clocks,
/// and the whole sans-IO coordinator kernel (`crates/server/src/coord/`) is
/// in scope because replay equality depends on it. `crates/server/src/live.rs`
/// legitimately reads wall clocks (it drives real sockets) but still must not
/// iterate hash collections: the order of events it feeds the kernel decides
/// the command stream, so it gets the hash-iteration half of the rule only.
/// The reactor (`crates/net/src/reactor.rs`) is held to the same half: the
/// order it surfaces readiness and timers decides the kernel's event order.
pub struct Determinism;

const DETERMINISTIC_CRATES: [&str; 5] = ["core", "sim", "chaos", "lp", "profiler"];
const DETERMINISTIC_FILES: [&str; 1] = ["crates/server/src/engine.rs"];
const DETERMINISTIC_DIRS: [&str; 1] = ["crates/server/src/coord/"];
const HASH_ORDER_ONLY_FILES: [&str; 2] = ["crates/server/src/live.rs", "crates/net/src/reactor.rs"];

const WALL_CLOCK_TOKENS: [(&str, &str); 3] = [
    ("Instant::now", "wall-clock read"),
    ("SystemTime::now", "wall-clock read"),
    ("thread_rng", "OS-seeded RNG"),
];

const HASH_ITER_METHODS: [&str; 7] = [
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
];

impl Determinism {
    /// Full scope: wall-clock/RNG reads and hash-order iteration both fire.
    fn applies(file: &ScrubbedFile) -> bool {
        DETERMINISTIC_CRATES.contains(&file.krate.as_str())
            || DETERMINISTIC_FILES.contains(&file.rel.as_str())
            || DETERMINISTIC_DIRS.iter().any(|d| file.rel.starts_with(d))
    }

    /// Reduced scope: only hash-order iteration fires (wall clocks allowed).
    fn applies_hash_order_only(file: &ScrubbedFile) -> bool {
        HASH_ORDER_ONLY_FILES.contains(&file.rel.as_str())
    }

    /// Pass 1: names bound to `HashMap`/`HashSet` in this file — typed
    /// bindings (`x: HashMap<..>`), constructor bindings
    /// (`let x = HashMap::new()`), and functions returning one
    /// (`fn f(..) -> HashMap<..>`).
    fn hash_names(file: &ScrubbedFile) -> BTreeSet<String> {
        let mut names = BTreeSet::new();
        for (_, line) in file.active_lines() {
            for ty in ["HashMap", "HashSet"] {
                for pos in word_positions(line, ty) {
                    // Strip reference sigils: `x: &mut HashMap<..>`.
                    let before = strip_ref_suffix(line[..pos].trim_end());
                    if let Some(prefix) = before.strip_suffix(':') {
                        // `name: HashMap<..>` — but not `::HashMap`.
                        if !prefix.ends_with(':') {
                            if let Some(name) = ident_before(line, prefix.len()) {
                                names.insert(name.to_owned());
                            }
                        }
                        // `fn f(..) -> HashMap` handled below via `->`.
                    }
                    if before.ends_with("->") {
                        if let Some(fn_pos) = line.find("fn ") {
                            let rest = &line[fn_pos + 3..];
                            let name: String = rest
                                .chars()
                                .take_while(|c| c.is_alphanumeric() || *c == '_')
                                .collect();
                            if !name.is_empty() {
                                names.insert(name);
                            }
                        }
                    }
                    if before.ends_with('=') && !before.ends_with("==") {
                        // `let [mut] name = HashMap::new()`.
                        if let Some(name) = ident_before(line, before.len() - 1) {
                            if name != "mut" {
                                names.insert(name.to_owned());
                            }
                        }
                    }
                }
            }
        }
        names
    }
}

impl Rule for Determinism {
    fn name(&self) -> &'static str {
        "determinism"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        let full = Self::applies(file);
        if !full && !Self::applies_hash_order_only(file) {
            return;
        }
        if full {
            for (line0, line) in file.active_lines() {
                for (token, what) in WALL_CLOCK_TOKENS {
                    for (pos, _) in line.match_indices(token) {
                        let boundary = pos == 0
                            || !line[..pos]
                                .chars()
                                .next_back()
                                .is_some_and(|c| c.is_alphanumeric() || c == '_');
                        if boundary {
                            out.push(Finding::new(
                                file,
                                line0,
                                self.name(),
                                format!("`{token}` is a {what}; deterministic code must take time/randomness as an input"),
                            ));
                        }
                    }
                }
            }
        }

        let names = Self::hash_names(file);
        for (line0, line) in file.active_lines() {
            for name in &names {
                for pos in word_positions(line, name) {
                    let mut rest = &line[pos + name.len()..];
                    // Skip a call's parens: `partitions_per_job().iter()`.
                    if let Some(stripped) = rest.strip_prefix("()") {
                        rest = stripped;
                    }
                    if let Some(m) = rest.strip_prefix('.') {
                        for method in HASH_ITER_METHODS {
                            if m.starts_with(method) && m[method.len()..].starts_with('(') {
                                out.push(Finding::new(
                                    file,
                                    line0,
                                    self.name(),
                                    format!(
                                        "iteration over hash collection `{name}` (`.{method}()`) has nondeterministic order; use BTreeMap/BTreeSet or sort first"
                                    ),
                                ));
                            }
                        }
                    }
                    // `for x in [&[mut ]]name` — direct IntoIterator use.
                    let before = line[..pos].trim_end();
                    let before = before
                        .strip_suffix("&mut")
                        .or_else(|| before.strip_suffix('&'))
                        .unwrap_or(before)
                        .trim_end();
                    if before.ends_with(" in") || before == "in" {
                        let after = &line[pos + name.len()..];
                        if !after.trim_start().starts_with('[') && !after.starts_with('.') {
                            out.push(Finding::new(
                                file,
                                line0,
                                self.name(),
                                format!(
                                    "`for .. in {name}` iterates a hash collection in nondeterministic order; use BTreeMap/BTreeSet or sort first"
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 2: sans-IO kernel purity
// ---------------------------------------------------------------------------

/// The coordinator kernel (`crates/server/src/coord/`) is an event-in /
/// command-out state machine: drivers own every socket, clock, and thread,
/// and hand the kernel time as an explicit `now` argument. Any I/O or timing
/// type inside the kernel breaks sim/live equivalence and replay, so this
/// rule bans the `std::time` / `std::net` / `std::thread` families outright
/// in that directory.
///
/// The reactor (`crates/net/src/reactor.rs`) gets a reduced variant: it
/// *owns* sockets and durations by design, but must never read clocks,
/// sleep, or spawn — time enters it only as explicit timeout/deadline
/// arguments, which is what keeps the event loop single-threaded and the
/// wheel's firing order replayable.
pub struct SansIo;

const SANS_IO_DIRS: [&str; 1] = ["crates/server/src/coord/"];
const REACTOR_FILES: [&str; 1] = ["crates/net/src/reactor.rs"];

const REACTOR_TOKENS: [(&str, &str); 6] = [
    ("std::thread", "threading module"),
    ("spawn", "thread primitive"),
    ("sleep", "blocking wait"),
    ("Instant", "wall-clock type"),
    ("SystemTime", "wall-clock type"),
    ("thread_rng", "OS-seeded RNG"),
];

const SANS_IO_TOKENS: [(&str, &str); 9] = [
    ("std::time", "clock/timer module"),
    ("std::net", "socket module"),
    ("std::thread", "threading module"),
    ("Instant", "wall-clock type"),
    ("SystemTime", "wall-clock type"),
    ("TcpStream", "socket type"),
    ("TcpListener", "socket type"),
    ("UdpSocket", "socket type"),
    ("spawn", "thread primitive"),
];

impl SansIo {
    fn applies(file: &ScrubbedFile) -> bool {
        SANS_IO_DIRS.iter().any(|d| file.rel.starts_with(d))
    }

    /// Reduced scope: sockets are the reactor's job, but clocks, sleeps,
    /// and threads stay banned.
    fn applies_reactor(file: &ScrubbedFile) -> bool {
        REACTOR_FILES.contains(&file.rel.as_str())
    }
}

impl Rule for SansIo {
    fn name(&self) -> &'static str {
        "sans_io"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        if Self::applies(file) {
            for (line0, line) in file.active_lines() {
                for (token, what) in SANS_IO_TOKENS {
                    if word_positions(line, token).next().is_some() {
                        out.push(Finding::new(
                            file,
                            line0,
                            self.name(),
                            format!(
                                "`{token}` is a {what}; the coordinator kernel is sans-IO — take `now` as an argument and emit commands for the driver to execute"
                            ),
                        ));
                    }
                }
            }
        }
        if Self::applies_reactor(file) {
            for (line0, line) in file.active_lines() {
                for (token, what) in REACTOR_TOKENS {
                    if word_positions(line, token).next().is_some() {
                        out.push(Finding::new(
                            file,
                            line0,
                            self.name(),
                            format!(
                                "`{token}` is a {what}; the reactor never reads clocks or blocks — callers pass timeouts and deadlines in, and waits become timer-wheel entries"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: panic-safety
// ---------------------------------------------------------------------------

/// The live networking path must not bring the coordinator down on malformed
/// peer input: no unwrap/expect/panic family macros and no panicking slice
/// indexing in `crates/net` or the server's live/resilience modules. The
/// scheduler hot path (`crates/core`'s `greedy.rs` + `pack.rs`) is held to
/// the same bar: it runs on the failure-recovery critical path at every
/// reschedule instant, where a panic would take the whole fleet down. The
/// same goes for `reliability.rs`, which runs inside that instant too
/// (derisking every candidate problem) and consumes profiler-derived
/// probabilities that may be malformed.
pub struct PanicSafety;

const PANIC_TOKENS: [&str; 6] = [
    ".unwrap()",
    ".expect(",
    "panic!",
    "unreachable!",
    "todo!",
    "unimplemented!",
];

/// Keywords that legitimately precede `[` without it being an index
/// expression (`&mut [u8]`, `return [a, b]`, ...).
const PRE_BRACKET_KEYWORDS: [&str; 12] = [
    "mut", "ref", "return", "in", "as", "dyn", "impl", "where", "else", "match", "break", "await",
];

impl PanicSafety {
    fn applies(file: &ScrubbedFile) -> bool {
        (file.krate == "net" && file.rel.contains("/src/"))
            || file.rel == "crates/server/src/live.rs"
            || file.rel == "crates/server/src/resilience.rs"
            || file.rel == "crates/core/src/greedy.rs"
            || file.rel == "crates/core/src/pack.rs"
            || file.rel == "crates/core/src/reliability.rs"
    }
}

impl Rule for PanicSafety {
    fn name(&self) -> &'static str {
        "panic_safety"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        if !Self::applies(file) {
            return;
        }
        for (line0, line) in file.active_lines() {
            for token in PANIC_TOKENS {
                if line.contains(token) {
                    let display = token.trim_start_matches('.').trim_end_matches('(');
                    out.push(Finding::new(
                        file,
                        line0,
                        self.name(),
                        format!("`{display}` can panic; propagate an error or record a protocol violation instead"),
                    ));
                }
            }
            // Index expressions: `[` whose previous non-space char ends an
            // expression (identifier, `)`, `]`, or a closing quote).
            for (pos, _) in line.match_indices('[') {
                let before = line[..pos].trim_end();
                let Some(prev) = before.chars().next_back() else {
                    continue;
                };
                let is_expr_end = prev.is_alphanumeric()
                    || prev == '_'
                    || prev == ')'
                    || prev == ']'
                    || prev == '"';
                if !is_expr_end {
                    continue;
                }
                if let Some(word) = ident_before(line, pos) {
                    if PRE_BRACKET_KEYWORDS.contains(&word) {
                        continue;
                    }
                    // `&'a [u8]`: a lifetime before `[` is a type, not an
                    // index expression.
                    let word_start = before.len() - word.len();
                    if line[..word_start].ends_with('\'') {
                        continue;
                    }
                }
                out.push(Finding::new(
                    file,
                    line0,
                    self.name(),
                    "slice/map indexing can panic on out-of-range or missing keys; use .get()"
                        .to_owned(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: unit-safety
// ---------------------------------------------------------------------------

/// Raw arithmetic mixing unit-suffixed quantities (`x_ms + y_kb`) bypasses
/// the `cwc-types` newtypes (Millis, KiloBytes, ...). Adding or comparing
/// across units is always a bug; multiplying/dividing (rates) is allowed.
pub struct UnitSafety;

const UNIT_SUFFIXES: [&str; 6] = ["ms", "us", "kb", "mhz", "khz", "secs"];

fn unit_suffix(ident: &str) -> Option<&'static str> {
    let last = ident.rsplit('_').next()?;
    if last.len() == ident.len() {
        // No underscore: `ms` alone is not a unit-suffixed quantity.
        return None;
    }
    UNIT_SUFFIXES.iter().find(|u| **u == last).copied()
}

/// Operators where both operands must share a unit.
const UNIT_STRICT_OPS: [&str; 10] = ["+=", "-=", "<=", ">=", "==", "!=", "+", "-", "<", ">"];

impl Rule for UnitSafety {
    fn name(&self) -> &'static str {
        "unit_safety"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        for (line0, line) in file.active_lines() {
            // Tokenize identifiers with their spans.
            let mut idents: Vec<(usize, usize, &str)> = Vec::new();
            let mut start = None;
            for (i, c) in line.char_indices() {
                if c.is_alphanumeric() || c == '_' {
                    start.get_or_insert(i);
                } else if let Some(s) = start.take() {
                    idents.push((s, i, &line[s..i]));
                }
            }
            if let Some(s) = start {
                idents.push((s, line.len(), &line[s..]));
            }
            // Collapse field chains (`self.elapsed_ms`) into one token named
            // after the final segment, so chained accesses still pair up.
            let mut merged: Vec<(usize, usize, &str)> = Vec::new();
            for (s, e, t) in idents {
                if let Some(last) = merged.last_mut() {
                    if &line[last.1..s] == "." {
                        *last = (last.0, e, t);
                        continue;
                    }
                }
                merged.push((s, e, t));
            }
            for w in merged.windows(2) {
                let (_, end_a, a) = w[0];
                let (start_b, _, b) = w[1];
                let (Some(ua), Some(ub)) = (unit_suffix(a), unit_suffix(b)) else {
                    continue;
                };
                if ua == ub {
                    continue;
                }
                let between = line[end_a..start_b].trim();
                if UNIT_STRICT_OPS.contains(&between) {
                    out.push(Finding::new(
                        file,
                        line0,
                        self.name(),
                        format!(
                            "`{a} {between} {b}` mixes units ({ua} vs {ub}); convert through the cwc-types newtypes first"
                        ),
                    ));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: protocol exhaustiveness
// ---------------------------------------------------------------------------

/// Wire-protocol drift guard: every `Frame` variant must be handled by both
/// `Frame::encode` and `Frame::decode_body`, and every `FaultKind` variant
/// must be listed in `FaultKind::ALL` so chaos scripts can draw it.
pub struct ProtocolExhaustiveness;

impl ProtocolExhaustiveness {
    /// Variant names of `enum <enum_name>` plus the 0-based declaration
    /// line. Depth tracking uses `{}`/`()` only: payload types (tuple or
    /// struct variants) sit at depth ≥ 2, so their fields never parse as
    /// variants. Operates on scrubbed text.
    fn enum_variants(code: &str, enum_name: &str) -> Option<(usize, Vec<String>)> {
        let decl = format!("enum {enum_name}");
        let pos = code.find(&decl).filter(|p| {
            code[p + decl.len()..]
                .chars()
                .next()
                .is_none_or(|c| !(c.is_alphanumeric() || c == '_'))
        })?;
        let open = pos + code[pos..].find('{')?;
        let bytes = code.as_bytes();
        let mut depth = 0usize;
        let mut variants = Vec::new();
        let mut expect_variant = false;
        let mut i = open;
        while i < bytes.len() {
            match bytes[i] {
                b'{' | b'(' => {
                    depth += 1;
                    if depth == 1 {
                        expect_variant = true;
                    }
                    i += 1;
                }
                b'}' | b')' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        break;
                    }
                    i += 1;
                }
                b',' if depth == 1 => {
                    expect_variant = true;
                    i += 1;
                }
                b'=' if depth == 1 => {
                    // Explicit discriminant: skip to the comma.
                    expect_variant = false;
                    i += 1;
                }
                b'#' if depth == 1 => {
                    // Skip `#[...]` attribute.
                    match code[i..].find(']') {
                        Some(close) => i += close + 1,
                        None => i += 1,
                    }
                }
                c if depth == 1 && expect_variant && (c as char).is_ascii_uppercase() => {
                    let name: String = code[i..]
                        .chars()
                        .take_while(|ch| ch.is_alphanumeric() || *ch == '_')
                        .collect();
                    i += name.len();
                    variants.push(name);
                    expect_variant = false;
                }
                _ => i += 1,
            }
        }
        let line = code[..pos].lines().count().saturating_sub(1);
        Some((line, variants))
    }

    /// Body text of `fn <name>` (first occurrence), brace-matched.
    fn fn_body<'a>(code: &'a str, fn_name: &str) -> Option<&'a str> {
        let (_, open, close) = braced_item(code, "fn", fn_name)?;
        Some(&code[open..=close])
    }
}

/// Byte offsets `(decl, open, close)` of the first `<keyword> <name> { .. }`
/// item in scrubbed `code`: the keyword, the opening brace of the body and
/// its brace-matched close.
fn braced_item(code: &str, keyword: &str, name: &str) -> Option<(usize, usize, usize)> {
    let decl = format!("{keyword} {name}");
    let mut from = 0usize;
    let pos = loop {
        let p = from + code[from..].find(&decl)?;
        let after = p + decl.len();
        let boundary = code[after..]
            .chars()
            .next()
            .is_some_and(|c| !(c.is_alphanumeric() || c == '_'));
        if boundary && whole_word(code, p, keyword) {
            break p;
        }
        from = after;
    };
    let open = pos + code[pos..].find('{')?;
    let mut depth = 0usize;
    for (i, b) in code.bytes().enumerate().skip(open) {
        match b {
            b'{' => depth += 1,
            b'}' => {
                depth -= 1;
                if depth == 0 {
                    return Some((pos, open, i));
                }
            }
            _ => {}
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule 6: observability routing
// ---------------------------------------------------------------------------

/// Instrumented crates narrate through the `cwc-obs` event bus, where output
/// is timestamped, severity-tagged, capturable by the flight recorder, and
/// reproducible under replay. A bare `println!`/`eprintln!` in library code
/// bypasses all of that (and corrupts machine-read stdout in the binaries),
/// so the rule bans them in the instrumented crates' `src/` trees. CLI
/// entrypoints under `bin/` are exempt — stdout is their user interface —
/// and the scrubber already exempts test code.
///
/// On the per-chunk path — the coordinator kernel and its two drivers
/// (live and sim), which run once per report — the rule also bans the
/// eager `.emit(event)`:
/// it formats and allocates the event before the bus can say nobody
/// listens. Those files emit through `Obs::emit_with(|| event)`, whose
/// closure runs only with a sink attached.
///
/// The kernel and its drivers also may not *format* a metric name per
/// write: `.metrics.add(&format!(..), n)` (likewise `inc`, `observe`)
/// allocates a `String` and takes the registry lock for every ship or
/// transfer. A name that varies per phone is resolved once into a
/// `Counter` / `Histogram` handle (`.metrics.counter(&format!(..))` is
/// how) and the handle is written to; a name that varies over a closed
/// set is spelled out per member.
pub struct ObsRouting;

const OBS_ROUTED_CRATES: [&str; 4] = ["core", "server", "net", "device"];
const BARE_PRINT_MACROS: [&str; 2] = ["println", "eprintln"];
const LAZY_EMIT_ONLY: [&str; 3] = [
    "crates/server/src/coord/",
    "crates/server/src/live.rs",
    "crates/server/src/engine.rs",
];

const NO_FORMATTED_METRIC_NAMES: [&str; 3] = [
    "crates/server/src/coord/kernel.rs",
    "crates/server/src/live.rs",
    "crates/server/src/engine.rs",
];
const METRIC_WRITES: [&str; 3] = [".add(", ".inc(", ".observe("];

impl ObsRouting {
    fn applies(file: &ScrubbedFile) -> bool {
        OBS_ROUTED_CRATES.contains(&file.krate.as_str())
            && file.rel.contains("/src/")
            && !file.rel.contains("/bin/")
    }

    /// Byte offsets of every `format!(` inside the argument list of a
    /// `.metrics.add(` / `.inc(` / `.observe(` call in scrubbed `code`
    /// (rustfmt breaks such a chain before `.metrics` and before the
    /// method, so the call is matched across lines).
    fn formatted_metric_names(code: &str) -> Vec<usize> {
        let mut hits = Vec::new();
        let mut from = 0usize;
        while let Some(at) = code[from..].find(".metrics") {
            from += at + ".metrics".len();
            let rest = code[from..].trim_start();
            let Some(write) = METRIC_WRITES.iter().find(|w| rest.starts_with(**w)) else {
                continue;
            };
            let args = code.len() - rest.len() + write.len();
            let mut depth = 1usize;
            let mut close = code.len();
            for (i, b) in code.bytes().enumerate().skip(args) {
                match b {
                    b'(' => depth += 1,
                    b')' => {
                        depth -= 1;
                        if depth == 0 {
                            close = i;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            hits.extend(
                code[args..close]
                    .match_indices("format!(")
                    .map(|(i, _)| args + i),
            );
        }
        hits
    }
}

impl Rule for ObsRouting {
    fn name(&self) -> &'static str {
        "obs_routing"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        if !Self::applies(file) {
            return;
        }
        if NO_FORMATTED_METRIC_NAMES.contains(&file.rel.as_str()) {
            for offset in Self::formatted_metric_names(&file.code) {
                let line0 = file.code[..offset].matches('\n').count();
                if !file.is_test_line(line0) {
                    out.push(Finding::new(
                        file,
                        line0,
                        self.name(),
                        "`format!` inside a metric write builds the name and takes the registry lock per call; resolve a `Counter`/`Histogram` handle once (or spell the names out) and write to that".to_string(),
                    ));
                }
            }
        }
        let lazy_only = LAZY_EMIT_ONLY.iter().any(|p| file.rel.starts_with(p));
        for (line0, line) in file.active_lines() {
            if lazy_only && line.contains(".emit(") {
                out.push(Finding::new(
                    file,
                    line0,
                    self.name(),
                    "`.emit(..)` builds its event even when no sink is attached; on the per-chunk path use `Obs::emit_with(|| ..)` so a silent run neither formats nor allocates".to_string(),
                ));
            }
            for mac in BARE_PRINT_MACROS {
                for pos in word_positions(line, mac) {
                    if line[pos + mac.len()..].starts_with('!') {
                        out.push(Finding::new(
                            file,
                            line0,
                            self.name(),
                            format!(
                                "`{mac}!` bypasses the observability bus; emit a `cwc_obs::Event` (routed to a `TextSink` when human output is wanted) so the line is captured, filtered, and replayable"
                            ),
                        ));
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 7: error swallowing
// ---------------------------------------------------------------------------

/// Dataflow guard against silently discarded `Result`s in the crates
/// whose errors carry recovery decisions (`core`, `server`, `net`):
/// a `let _ = call(..)` binding or a statement-terminal `.ok();` throws
/// the error away without the reader ever seeing a decision. Handle it,
/// propagate it, or — where best-effort really is the contract (e.g. a
/// shutdown frame on a torn connection) — keep the discard visible under
/// a commented `// cwc-lint: allow(error_swallowing)` pragma.
pub struct ErrorSwallowing;

const ERROR_SWALLOW_CRATES: [&str; 3] = ["core", "server", "net"];

impl ErrorSwallowing {
    fn applies(file: &ScrubbedFile) -> bool {
        ERROR_SWALLOW_CRATES.contains(&file.krate.as_str())
            && file.rel.contains("/src/")
            && !file.rel.contains("/bin/")
    }
}

impl Rule for ErrorSwallowing {
    fn name(&self) -> &'static str {
        "error_swallowing"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        if !Self::applies(file) {
            return;
        }
        for (line0, line) in file.active_lines() {
            // `let _ = <call>(..)`: a discarded call result. A plain
            // `let _ = x;` rebind and tuple RHS (`let _ = (..)`) stay
            // legal — only an RHS that *calls* something is suspect.
            for pos in word_positions(line, "let") {
                let rest = line[pos + 3..].trim_start();
                let Some(rest) = rest.strip_prefix('_') else {
                    continue;
                };
                let rest = rest.trim_start();
                let Some(rhs) = rest.strip_prefix('=') else {
                    continue;
                };
                let rhs = rhs.trim_start();
                if rhs.starts_with('=') {
                    continue; // `==` comparison, not a binding.
                }
                if rhs.contains('(') && !rhs.starts_with('(') {
                    out.push(Finding::new(
                        file,
                        line0,
                        self.name(),
                        "`let _ = <call>` discards the call's Result; handle or propagate the error (or pragma a justified best-effort discard)".to_owned(),
                    ));
                }
            }
            // Statement-terminal `.ok();`: Result demoted to Option and
            // immediately dropped. As an expression (`if x.ok() ..`,
            // `.ok()?`, `.ok().map(..)`) the Option is consumed — fine.
            if line.trim_end().ends_with(".ok();") {
                out.push(Finding::new(
                    file,
                    line0,
                    self.name(),
                    "statement-terminal `.ok()` silently swallows the error; handle or propagate it (or pragma a justified best-effort discard)".to_owned(),
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 8: kernel state-mutation discipline
// ---------------------------------------------------------------------------

/// Bookkeeping fields of the coordinator state machines (the kernel's
/// progress accounting, redundancy groups, round state, latches; the
/// fleet allocator's cross-shard KB conservation and steal counters)
/// must only be mutated from their own `impl` blocks in their own file —
/// every invariant the model checker (`cwc-check`) proves, and every
/// conservation property the sharding tests assert, is stated over
/// transitions of *those* methods. A sibling module assigning
/// `kernel.progress` or `alloc.pending_kb` directly would bypass the
/// byte-conservation and latch invariants without failing a single unit
/// test. Uses the scrubber's brace-aware [`impl` scope
/// tracker](crate::scrub::ScrubbedFile::impl_scope).
pub struct StateMutation;

const KERNEL_FILE: &str = "crates/server/src/coord/kernel.rs";
const KERNEL_DIR: &str = "crates/server/src/coord/";
const FLEET_FILE: &str = "crates/server/src/coord/fleet.rs";

/// Kernel bookkeeping fields under mutation discipline.
const KERNEL_STATE_FIELDS: [&str; 12] = [
    "progress",
    "completed_at",
    "failed",
    "round_pending",
    "probing",
    "replica_groups",
    "next_group",
    "next_seq",
    "spec_budget_left",
    "finished",
    "fleet_loss",
    "fatal",
];

/// Fleet-allocator bookkeeping fields under mutation discipline. Names
/// are deliberately disjoint from [`KERNEL_STATE_FIELDS`] so a finding
/// always names the right struct.
const ALLOCATOR_STATE_FIELDS: [&str; 7] = [
    "done_kb",
    "pending_kb",
    "lost_workers",
    "lost_quarantined",
    "loss_detail",
    "chunks_stolen",
    "rounds_stolen",
];

/// One mutation-discipline entry: `fields` may only be assigned inside
/// `impl <impl_name>` blocks of `file`. The *scan* still covers the whole
/// coord directory — the point is to catch siblings reaching in.
struct Discipline {
    file: &'static str,
    impl_name: &'static str,
    fields: &'static [&'static str],
}

const DISCIPLINES: [Discipline; 2] = [
    Discipline {
        file: KERNEL_FILE,
        impl_name: "Kernel",
        fields: &KERNEL_STATE_FIELDS,
    },
    Discipline {
        file: FLEET_FILE,
        impl_name: "FleetAllocator",
        fields: &ALLOCATOR_STATE_FIELDS,
    },
];

/// Mutating operators that may follow `.field`.
const MUTATION_OPS: [&str; 3] = ["=", "+=", "-="];

impl StateMutation {
    fn applies(file: &ScrubbedFile) -> bool {
        file.rel.starts_with(KERNEL_DIR)
    }

    /// Does `rest` (the text right after `.field`) begin with a mutating
    /// operator? `==`, `=>`, `<=`, `>=`, `!=` are comparisons/arrows.
    fn is_mutation(rest: &str) -> bool {
        let rest = rest.trim_start();
        for op in MUTATION_OPS {
            if let Some(after) = rest.strip_prefix(op) {
                if op == "=" && (after.starts_with('=') || after.starts_with('>')) {
                    continue;
                }
                return true;
            }
        }
        false
    }
}

impl Rule for StateMutation {
    fn name(&self) -> &'static str {
        "state_mutation"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        if !Self::applies(file) {
            return;
        }
        for (line0, line) in file.active_lines() {
            for disc in &DISCIPLINES {
                for &field in disc.fields {
                    for pos in word_positions(line, field) {
                        // Field access: preceded directly by `.`.
                        if pos == 0 || !line[..pos].ends_with('.') {
                            continue;
                        }
                        if !Self::is_mutation(&line[pos + field.len()..]) {
                            continue;
                        }
                        let in_owner_impl =
                            file.rel == disc.file && file.impl_scope(line0) == Some(disc.impl_name);
                        if !in_owner_impl {
                            out.push(Finding::new(
                                file,
                                line0,
                                self.name(),
                                format!(
                                    "direct assignment to `{impl_name}` bookkeeping field `{field}` outside its own `impl {impl_name}`; route the mutation through a method so the checked invariants keep covering it",
                                    impl_name = disc.impl_name,
                                ),
                            ));
                        }
                    }
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 9: unsafe audit
// ---------------------------------------------------------------------------

/// `unsafe` is an allow-list, not a habit: the workspace has two regions
/// where it is needed — the reactor's epoll/rlimit syscall shim and the
/// CRC32 carry-less-multiply kernel — and each is one private inline module
/// small enough to read whole. The word `unsafe` (block, fn, impl) and
/// `#[allow(unsafe_code)]` anywhere else in non-test code is a finding, so
/// a third region arrives as a reviewed change to this table. Inside the
/// audited modules every `unsafe { .. }` block must sit directly under a
/// `// SAFETY:` comment saying why its operation's requirements hold.
pub struct UnsafeAudit;

/// `(file, inline module)` pairs allowed to contain `unsafe`.
const AUDITED_UNSAFE_MODULES: [(&str, &str); 2] = [
    ("crates/net/src/reactor.rs", "sys"),
    ("crates/net/src/protocol.rs", "clmul"),
];

impl UnsafeAudit {
    /// 0-based inclusive line spans of this file's audited modules, each
    /// widened upwards over the attribute lines (`#[allow(unsafe_code)]`,
    /// `#[cfg(..)]`) that belong to its `mod` item.
    fn audited_spans(file: &ScrubbedFile) -> Vec<(usize, usize)> {
        let line_of = |offset: usize| file.code[..offset].matches('\n').count();
        let lines: Vec<&str> = file.code.lines().collect();
        AUDITED_UNSAFE_MODULES
            .iter()
            .filter(|(rel, _)| *rel == file.rel)
            .filter_map(|(_, module)| braced_item(&file.code, "mod", module))
            .map(|(decl, _, close)| {
                let mut first = line_of(decl);
                while first > 0 && lines[first - 1].trim_start().starts_with("#[") {
                    first -= 1;
                }
                (first, line_of(close))
            })
            .collect()
    }
}

impl Rule for UnsafeAudit {
    fn name(&self) -> &'static str {
        "unsafe_audit"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        let audited = Self::audited_spans(file);
        for (line0, line) in file.active_lines() {
            let mut words = word_positions(line, "unsafe").peekable();
            if words.peek().is_none() && !line.contains("allow(unsafe_code)") {
                continue;
            }
            let inside = audited
                .iter()
                .any(|(first, last)| (*first..=*last).contains(&line0));
            let opens_block =
                words.any(|pos| line[pos + "unsafe".len()..].trim_start().starts_with('{'));
            if !inside {
                out.push(Finding::new(
                    file,
                    line0,
                    self.name(),
                    "`unsafe` outside the audited modules; use a safe construct, or move the operation into an audited module (rules.rs, AUDITED_UNSAFE_MODULES)".to_owned(),
                ));
            } else if opens_block && !file.has_safety_comment_above(line0) {
                out.push(Finding::new(
                    file,
                    line0,
                    self.name(),
                    "`unsafe` block without a `// SAFETY:` comment directly above it; state why the operation's requirements hold".to_owned(),
                ));
            }
        }
    }
}

impl Rule for ProtocolExhaustiveness {
    fn name(&self) -> &'static str {
        "protocol_exhaustiveness"
    }

    fn check(&self, file: &ScrubbedFile, out: &mut Vec<Finding>) {
        if let Some((line0, variants)) = Self::enum_variants(&file.code, "Frame") {
            if file.code.contains("pub enum Frame") {
                for fn_name in ["encode", "decode_body"] {
                    let Some(body) = Self::fn_body(&file.code, fn_name) else {
                        out.push(Finding::new(
                            file,
                            line0,
                            self.name(),
                            format!("`Frame` is defined here but `fn {fn_name}` was not found"),
                        ));
                        continue;
                    };
                    for v in &variants {
                        if word_positions(body, v).next().is_none() {
                            out.push(Finding::new(
                                file,
                                line0,
                                self.name(),
                                format!("`Frame::{v}` is not handled in `fn {fn_name}`"),
                            ));
                        }
                    }
                }
            }
        }
        if file.code.contains("pub enum FaultKind") {
            if let Some((line0, variants)) = Self::enum_variants(&file.code, "FaultKind") {
                // `const ALL: [FaultKind; N] = [ ... ];` — take the
                // initializer bracket (after `=`), not the type bracket.
                let all = file
                    .code
                    .find("ALL:")
                    .and_then(|p| {
                        let eq = p + file.code[p..].find('=')?;
                        let open = eq + file.code[eq..].find('[')?;
                        let close = open + file.code[open..].find(']')?;
                        Some(&file.code[open..close])
                    })
                    .unwrap_or("");
                for v in &variants {
                    if word_positions(all, v).next().is_none() {
                        out.push(Finding::new(
                            file,
                            line0,
                            self.name(),
                            format!("`FaultKind::{v}` is missing from `FaultKind::ALL`"),
                        ));
                    }
                }
                if Self::fn_body(&file.code, "script").is_none()
                    && Self::fn_body(&file.code, "worker_chaos").is_none()
                {
                    out.push(Finding::new(
                        file,
                        line0,
                        self.name(),
                        "no fault-script constructor (`fn script` / `fn worker_chaos`) found alongside `FaultKind`".to_owned(),
                    ));
                }
            }
        }
    }
}
