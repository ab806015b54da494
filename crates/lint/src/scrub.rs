//! Source scrubbing: the tokenizer half of the lint engine.
//!
//! `scrub()` walks a Rust source file character by character and produces a
//! *scrubbed* copy where the contents of comments, string literals, and char
//! literals are blanked to spaces while every newline (and every other
//! character position) is preserved. Rules then pattern-match against the
//! scrubbed text, so a forbidden token inside a comment or a string literal
//! can never fire — and line numbers in findings map 1:1 onto the original
//! file.
//!
//! Three side channels are extracted during the same pass:
//!
//! * `// cwc-lint: allow(rule_a, rule_b)` suppression pragmas. A pragma on a
//!   line with code suppresses those rules on that line; a pragma that is the
//!   whole line suppresses them on the *next* line. `allow(all)` suppresses
//!   every rule.
//! * `#[cfg(test)]` regions (and `#[test]` functions): the attribute plus the
//!   brace-delimited item that follows are marked as test code, which the
//!   rules skip. Files under `tests/`, `benches/`, or `examples/` are test
//!   code in their entirety.
//! * `// SAFETY:` line comments: which lines carry one is kept, because the
//!   `unsafe_audit` rule asks for one above each `unsafe` block and the
//!   scrubbed text no longer has it.

use std::collections::BTreeSet;

/// One scrubbed source file plus the per-line metadata rules need.
pub struct ScrubbedFile {
    /// Workspace-relative path, `/`-separated (e.g. `crates/net/src/mux.rs`).
    pub rel: String,
    /// Crate directory under `crates/` (`net`, `core`, ...) or `""` for
    /// files that belong to the root package.
    pub krate: String,
    /// The scrubbed source: identical line structure to the original, with
    /// comment and literal contents blanked.
    pub code: String,
    /// Per line (0-based): is this line inside test-only code?
    test_line: Vec<bool>,
    /// Per line (0-based): rules suppressed on this line by pragmas.
    allowed: Vec<BTreeSet<String>>,
    /// Lines (0-based) holding a line comment that contains `SAFETY:`.
    safety_comment: BTreeSet<usize>,
    /// Per line (0-based): the self type of the innermost enclosing
    /// `impl` block, if any (brace-matched on scrubbed text).
    impl_scope: Vec<Option<String>>,
}

impl ScrubbedFile {
    /// True when `line0` (0-based) is test-only code.
    pub fn is_test_line(&self, line0: usize) -> bool {
        self.test_line.get(line0).copied().unwrap_or(false)
    }

    /// Self type of the innermost `impl` block enclosing `line0`
    /// (0-based): `Some("Kernel")` inside `impl Kernel { .. }` and
    /// `impl Trait for Kernel { .. }`, `None` at module level.
    pub fn impl_scope(&self, line0: usize) -> Option<&str> {
        self.impl_scope.get(line0)?.as_deref()
    }

    /// True when `rule` is suppressed on `line0` (0-based) by a pragma.
    pub fn is_allowed(&self, line0: usize, rule: &str) -> bool {
        match self.allowed.get(line0) {
            Some(set) => set.contains(rule) || set.contains("all"),
            None => false,
        }
    }

    /// True when the comment block directly above `line0` (0-based) — the
    /// lines above it that hold no code — has a `// SAFETY:` line.
    pub fn has_safety_comment_above(&self, line0: usize) -> bool {
        let above: Vec<&str> = self.code.lines().take(line0).collect();
        let no_code = above.iter().rev().take_while(|text| text.trim().is_empty());
        (line0 - no_code.count()..line0).any(|l| self.safety_comment.contains(&l))
    }

    /// Iterates `(line0, text)` over scrubbed lines that are *active*:
    /// not test code. Pragma suppression is applied later, per finding.
    pub fn active_lines(&self) -> impl Iterator<Item = (usize, &str)> {
        self.code
            .lines()
            .enumerate()
            .filter(|(i, _)| !self.is_test_line(*i))
    }
}

/// Scrubs `src`, collecting pragmas and test regions. `rel` should use `/`
/// separators; `krate` is the directory under `crates/` or `""`.
pub fn scrub(rel: &str, krate: &str, src: &str) -> ScrubbedFile {
    let chars: Vec<char> = src.chars().collect();
    let n = chars.len();
    let mut out = String::with_capacity(src.len());
    // (line, rules, standalone): pragmas found while scanning comments.
    let mut pragmas: Vec<(usize, Vec<String>, bool)> = Vec::new();
    let mut safety_comment = BTreeSet::new();
    let mut line = 0usize;
    let mut line_has_code = false;
    let mut i = 0usize;

    let is_ident = |c: char| c.is_alphanumeric() || c == '_';

    while i < n {
        let c = chars[i];
        let next = chars.get(i + 1).copied();
        match c {
            '\n' => {
                out.push('\n');
                line += 1;
                line_has_code = false;
                i += 1;
            }
            '/' if next == Some('/') => {
                // Line comment (covers `//`, `///`, `//!`). Blank it, but
                // first check for a suppression pragma in its text.
                let mut j = i;
                while j < n && chars[j] != '\n' {
                    j += 1;
                }
                let text: String = chars[i..j].iter().collect();
                if let Some(rules) = parse_pragma(&text) {
                    pragmas.push((line, rules, !line_has_code));
                }
                if text.contains("SAFETY:") {
                    safety_comment.insert(line);
                }
                for _ in i..j {
                    out.push(' ');
                }
                i = j;
            }
            '/' if next == Some('*') => {
                // Block comment; Rust block comments nest.
                let mut depth = 1usize;
                out.push(' ');
                out.push(' ');
                i += 2;
                while i < n && depth > 0 {
                    if chars[i] == '/' && chars.get(i + 1) == Some(&'*') {
                        depth += 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if chars[i] == '*' && chars.get(i + 1) == Some(&'/') {
                        depth -= 1;
                        out.push(' ');
                        out.push(' ');
                        i += 2;
                    } else if chars[i] == '\n' {
                        out.push('\n');
                        line += 1;
                        i += 1;
                    } else {
                        out.push(' ');
                        i += 1;
                    }
                }
            }
            '"' => {
                i = scrub_string(&chars, i, &mut out, &mut line);
            }
            'r' | 'b' if !prev_is_ident(&chars, i, is_ident) => {
                // Possible raw string r"…" / r#"…"#, byte string b"…",
                // raw byte string br#"…"#, or byte char b'…'.
                let mut j = i;
                if chars[j] == 'b' {
                    j += 1;
                }
                let raw = chars.get(j) == Some(&'r');
                if raw {
                    j += 1;
                }
                let mut hashes = 0usize;
                while raw && chars.get(j) == Some(&'#') {
                    hashes += 1;
                    j += 1;
                }
                if raw && chars.get(j) == Some(&'"') {
                    // Raw string: emit prefix verbatim, blank contents.
                    out.extend(chars[i..=j].iter());
                    i = j + 1;
                    loop {
                        if i >= n {
                            break;
                        }
                        if chars[i] == '"' && closes_raw(&chars, i, hashes) {
                            out.push('"');
                            for k in 0..hashes {
                                out.push(chars[i + 1 + k]);
                            }
                            i += 1 + hashes;
                            break;
                        }
                        if chars[i] == '\n' {
                            out.push('\n');
                            line += 1;
                        } else {
                            out.push(' ');
                        }
                        i += 1;
                    }
                    line_has_code = true;
                } else if chars[i] == 'b' && next == Some('"') {
                    out.push('b');
                    i = scrub_string(&chars, i + 1, &mut out, &mut line);
                    line_has_code = true;
                } else if chars[i] == 'b' && next == Some('\'') {
                    out.push('b');
                    i = scrub_char(&chars, i + 1, &mut out);
                    line_has_code = true;
                } else {
                    // Just an identifier starting with r/b.
                    line_has_code = true;
                    out.push(c);
                    i += 1;
                }
            }
            '\'' => {
                // Char literal or lifetime. A lifetime is `'` followed by an
                // identifier with no closing quote right after one char.
                let is_char_lit = match next {
                    Some('\\') => true,
                    Some(_) => chars.get(i + 2) == Some(&'\''),
                    None => false,
                };
                if is_char_lit {
                    i = scrub_char(&chars, i, &mut out);
                } else {
                    out.push('\'');
                    i += 1;
                }
                line_has_code = true;
            }
            _ => {
                if !c.is_whitespace() {
                    line_has_code = true;
                }
                out.push(c);
                i += 1;
            }
        }
    }

    let line_count = out.lines().count().max(line + 1);
    let mut allowed = vec![BTreeSet::new(); line_count + 1];
    for (pline, rules, standalone) in pragmas {
        let target = if standalone { pline + 1 } else { pline };
        if let Some(set) = allowed.get_mut(target) {
            set.extend(rules.iter().cloned());
        }
        // A pragma also always covers its own line, so inline placement
        // after the offending code works too.
        if let Some(set) = allowed.get_mut(pline) {
            set.extend(rules);
        }
    }

    let mut test_line = vec![false; line_count + 1];
    if is_test_path(rel) {
        test_line.iter_mut().for_each(|t| *t = true);
    } else {
        mark_test_regions(&out, &mut test_line);
    }

    let impl_scope = mark_impl_scopes(&out, line_count + 1);

    ScrubbedFile {
        rel: rel.to_owned(),
        krate: krate.to_owned(),
        code: out,
        test_line,
        allowed,
        safety_comment,
        impl_scope,
    }
}

/// Brace-aware `impl` scope tracker: records, per line, the self type of
/// the innermost enclosing `impl` block. `impl Type`, `impl<T> Type<T>`,
/// and `impl Trait for Type` all resolve to `Type` (path-qualified types
/// resolve to their last segment). Operates on scrubbed text, so braces
/// in strings or comments cannot desynchronise the matcher. Later (inner)
/// blocks overwrite earlier (outer) ones, which yields innermost-wins.
fn mark_impl_scopes(code: &str, line_count: usize) -> Vec<Option<String>> {
    let mut scopes = vec![None; line_count];
    let mut line_starts = vec![0usize];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(l) => l,
        Err(l) => l - 1,
    };
    let bytes = code.as_bytes();
    let is_ident = |b: u8| b.is_ascii_alphanumeric() || b == b'_';

    let mut from = 0usize;
    while let Some(p) = code[from..].find("impl") {
        let start = from + p;
        from = start + 4;
        // Whole-word `impl` only (not e.g. `implementation`).
        if (start > 0 && is_ident(bytes[start - 1]))
            || bytes.get(start + 4).copied().is_some_and(is_ident)
        {
            continue;
        }
        // Header: everything up to the opening `{` of the block, with
        // generic parameter lists (`<..>`) skipped brace-aware so a
        // `{` inside a const generic default cannot fool us.
        let mut j = start + 4;
        let mut angle = 0usize;
        let mut open = None;
        while j < bytes.len() {
            match bytes[j] {
                b'<' => angle += 1,
                b'>' => angle = angle.saturating_sub(1),
                b'{' if angle == 0 => {
                    open = Some(j);
                    break;
                }
                b';' if angle == 0 => break,
                _ => {}
            }
            j += 1;
        }
        let Some(open) = open else {
            continue;
        };
        let header = &code[start + 4..open];
        let Some(name) = impl_self_type(header) else {
            continue;
        };
        // Brace-match the block body.
        let mut depth = 0usize;
        let mut end = open;
        for (k, b) in code.bytes().enumerate().skip(open) {
            match b {
                b'{' => depth += 1,
                b'}' => {
                    depth -= 1;
                    if depth == 0 {
                        end = k;
                        break;
                    }
                }
                _ => {}
            }
        }
        for l in line_of(open)..=line_of(end) {
            if let Some(s) = scopes.get_mut(l) {
                *s = Some(name.clone());
            }
        }
    }
    scopes
}

/// Self-type name out of an `impl` header (the text between `impl` and
/// `{`): the segment after `for` when present, generics stripped, the
/// last `::` path segment, reference/pointer sigils dropped.
fn impl_self_type(header: &str) -> Option<String> {
    // `impl<T> Trait<T> for Type<T> where ..` -> `Type<T> where ..`:
    // skip the leading generic parameter list, angle-bracket matched.
    let mut rest = header.trim_start();
    if rest.starts_with('<') {
        let mut depth = 0usize;
        let mut cut = rest.len();
        for (i, c) in rest.char_indices() {
            match c {
                '<' => depth += 1,
                '>' => {
                    depth -= 1;
                    if depth == 0 {
                        cut = i + 1;
                        break;
                    }
                }
                _ => {}
            }
        }
        rest = &rest[cut..];
    }
    // `Trait for Type` -> `Type`; tokenised so `Vec<for<'a> F>` in a
    // generic position (already stripped above) cannot confuse it.
    let after_for = rest
        .split_whitespace()
        .collect::<Vec<_>>()
        .windows(2)
        .find(|w| w[0] == "for")
        .map(|w| w[1].to_owned());
    let ty = match after_for {
        Some(t) => t,
        None => rest.split_whitespace().next()?.to_owned(),
    };
    // Drop `where`-clause leftovers, generics, sigils, path prefixes.
    let ty = ty.split('<').next().unwrap_or(&ty);
    let ty = ty.trim_start_matches(['&', '*']);
    let ty = ty.rsplit("::").next().unwrap_or(ty);
    let name: String = ty
        .chars()
        .take_while(|c| c.is_alphanumeric() || *c == '_')
        .collect();
    if name.is_empty() {
        None
    } else {
        Some(name)
    }
}

fn prev_is_ident(chars: &[char], i: usize, is_ident: impl Fn(char) -> bool) -> bool {
    i > 0 && is_ident(chars[i - 1])
}

/// Does the `"` at `i` close a raw string with `hashes` trailing `#`s?
fn closes_raw(chars: &[char], i: usize, hashes: usize) -> bool {
    (1..=hashes).all(|k| chars.get(i + k) == Some(&'#'))
}

/// Scrubs a normal string literal starting at the opening `"` at `i`.
/// Returns the index just past the closing quote.
fn scrub_string(chars: &[char], mut i: usize, out: &mut String, line: &mut usize) -> usize {
    out.push('"');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                out.push(' ');
                if i + 1 < chars.len() {
                    if chars[i + 1] == '\n' {
                        out.push('\n');
                        *line += 1;
                    } else {
                        out.push(' ');
                    }
                    i += 2;
                } else {
                    i += 1;
                }
            }
            '"' => {
                out.push('"');
                return i + 1;
            }
            '\n' => {
                out.push('\n');
                *line += 1;
                i += 1;
            }
            _ => {
                out.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Scrubs a char literal starting at the opening `'` at `i`. Returns the
/// index just past the closing quote.
fn scrub_char(chars: &[char], mut i: usize, out: &mut String) -> usize {
    out.push('\'');
    i += 1;
    while i < chars.len() {
        match chars[i] {
            '\\' => {
                out.push(' ');
                if i + 1 < chars.len() {
                    out.push(' ');
                }
                i += 2;
            }
            '\'' => {
                out.push('\'');
                return i + 1;
            }
            _ => {
                out.push(' ');
                i += 1;
            }
        }
    }
    i
}

/// Parses `cwc-lint: allow(rule_a, rule_b)` out of a comment's text.
fn parse_pragma(comment: &str) -> Option<Vec<String>> {
    let idx = comment.find("cwc-lint:")?;
    let rest = comment[idx + "cwc-lint:".len()..].trim_start();
    let rest = rest.strip_prefix("allow")?.trim_start();
    let rest = rest.strip_prefix('(')?;
    let close = rest.find(')')?;
    let rules: Vec<String> = rest[..close]
        .split(',')
        .map(|r| r.trim().to_owned())
        .filter(|r| !r.is_empty())
        .collect();
    if rules.is_empty() {
        None
    } else {
        Some(rules)
    }
}

/// Whole-file test paths: integration tests, benches, examples.
fn is_test_path(rel: &str) -> bool {
    rel.split('/')
        .any(|seg| seg == "tests" || seg == "benches" || seg == "examples")
}

/// Marks `#[cfg(test)]` / `#[test]` attributes and the brace-delimited item
/// that follows each as test code. Operates on scrubbed text, so braces in
/// strings or comments cannot desynchronise the matcher.
fn mark_test_regions(code: &str, test_line: &mut [bool]) {
    // Byte offset of the start of each line, for offset -> line conversion.
    let mut line_starts = vec![0usize];
    for (i, b) in code.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |off: usize| match line_starts.binary_search(&off) {
        Ok(l) => l,
        Err(l) => l - 1,
    };

    for marker in ["#[cfg(test)]", "#[test]"] {
        let mut from = 0usize;
        while let Some(pos) = code[from..].find(marker) {
            let start = from + pos;
            from = start + marker.len();
            let bytes = code.as_bytes();
            // Find the opening brace of the item; stop at `;` (no body).
            let mut j = start + marker.len();
            let mut open = None;
            while j < bytes.len() {
                match bytes[j] {
                    b'{' => {
                        open = Some(j);
                        break;
                    }
                    b';' => break,
                    _ => j += 1,
                }
            }
            let Some(open) = open else {
                // Attribute with no braced body: mark just its line.
                test_line[line_of(start)] = true;
                continue;
            };
            let mut depth = 0usize;
            let mut end = open;
            for (k, b) in code.bytes().enumerate().skip(open) {
                match b {
                    b'{' => depth += 1,
                    b'}' => {
                        depth -= 1;
                        if depth == 0 {
                            end = k;
                            break;
                        }
                    }
                    _ => {}
                }
            }
            for l in line_of(start)..=line_of(end) {
                if let Some(t) = test_line.get_mut(l) {
                    *t = true;
                }
            }
        }
    }
}
