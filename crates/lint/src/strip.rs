//! Source scrubbing: the lexical front half of the analyzer.
//!
//! Rules must never fire on commented-out code, string payloads, or test-only
//! items (tests may use clocks, `unwrap()` and ad-hoc seeds freely).  This
//! module produces a *scrubbed* copy of a source file — byte-for-byte the same
//! length and line structure, with comment bodies, string contents, char
//! literals and `#[cfg(test)]`/`#[test]` items blanked to spaces — plus the
//! side tables the rules do want: comment text per line (for `lint:allow` and
//! `relaxed:` directives) and string-literal contents per position (for the
//! metric-name and raw-HTTP rules).
//!
//! The scrubber is a hand-rolled state machine, not a parser: it understands
//! exactly as much Rust lexical structure as the rules need — nested block
//! comments, escapes, raw strings (`r#"…"#`), byte strings, char literals vs.
//! lifetimes, and attribute + item extents by bracket/brace matching.

/// A string literal surviving in the scrubbed text as `"   "` (delimiters kept
/// so call-shape scanning still sees an argument slot).
#[derive(Debug, Clone)]
pub struct StrLit {
    /// Byte offset of the opening delimiter in the scrubbed text.
    pub start: usize,
    /// 1-based line of the opening delimiter.
    pub line: usize,
    /// The literal's content (escapes left as written; rules match substrings).
    pub content: String,
}

/// A scrubbed source file plus the side tables rules consume.
#[derive(Debug)]
pub struct Scrubbed {
    /// Same length as the input; non-code bytes are spaces (newlines kept).
    pub code: String,
    /// `(1-based line, comment text on that line)` — block comments spanning
    /// lines contribute one entry per line.
    pub comments: Vec<(usize, String)>,
    /// Every string literal, in source order.
    pub strings: Vec<StrLit>,
    /// Byte offset of each line start (index 0 = line 1).
    line_starts: Vec<usize>,
}

impl Scrubbed {
    /// Maps a byte offset in `code` to a 1-based line number.
    pub fn line_of(&self, byte: usize) -> usize {
        match self.line_starts.binary_search(&byte) {
            Ok(i) => i + 1,
            Err(i) => i,
        }
    }

    /// The scrubbed text of a 1-based line (empty for out-of-range lines).
    pub fn line_text(&self, line: usize) -> &str {
        if line == 0 || line > self.line_starts.len() {
            return "";
        }
        let start = self.line_starts[line - 1];
        let end = self
            .line_starts
            .get(line)
            .copied()
            .unwrap_or(self.code.len());
        self.code[start..end].trim_end_matches(['\n', '\r'])
    }
}

/// Blanks `out[range]` to spaces, preserving newlines so line numbers survive.
fn blank(out: &mut [u8], start: usize, end: usize) {
    for b in &mut out[start..end] {
        if *b != b'\n' && *b != b'\r' {
            *b = b' ';
        }
    }
}

/// Records `text` (which may span lines) into the per-line comment table.
fn record_comment(comments: &mut Vec<(usize, String)>, first_line: usize, text: &str) {
    for (k, seg) in text.split('\n').enumerate() {
        let seg = seg.trim();
        if !seg.is_empty() {
            comments.push((first_line + k, seg.to_string()));
        }
    }
}

/// Scrubs comments, strings and char literals out of `src`.
pub fn scrub(src: &str) -> Scrubbed {
    let b = src.as_bytes();
    let mut out = b.to_vec();
    let mut comments = Vec::new();
    let mut strings = Vec::new();

    let mut line_starts = vec![0usize];
    for (i, &c) in b.iter().enumerate() {
        if c == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |byte: usize| match line_starts.binary_search(&byte) {
        Ok(i) => i + 1,
        Err(i) => i,
    };

    let mut i = 0usize;
    while i < b.len() {
        let c = b[i];
        // Line comment.
        if c == b'/' && b.get(i + 1) == Some(&b'/') {
            let end = b[i..]
                .iter()
                .position(|&x| x == b'\n')
                .map(|p| i + p)
                .unwrap_or(b.len());
            let text = src[i + 2..end].trim_start_matches(['/', '!']);
            record_comment(&mut comments, line_of(i), text);
            blank(&mut out, i, end);
            i = end;
            continue;
        }
        // Block comment (nesting, as in Rust).
        if c == b'/' && b.get(i + 1) == Some(&b'*') {
            let mut depth = 1usize;
            let mut j = i + 2;
            while j < b.len() && depth > 0 {
                if b[j] == b'/' && b.get(j + 1) == Some(&b'*') {
                    depth += 1;
                    j += 2;
                } else if b[j] == b'*' && b.get(j + 1) == Some(&b'/') {
                    depth -= 1;
                    j += 2;
                } else {
                    j += 1;
                }
            }
            let inner_end = j.saturating_sub(2).max(i + 2);
            record_comment(&mut comments, line_of(i), &src[i + 2..inner_end]);
            blank(&mut out, i, j);
            i = j;
            continue;
        }
        // Raw / byte / plain strings.  The `r`/`b` prefixes only start a literal
        // when not part of a longer identifier.
        let prev_is_ident = i > 0 && (b[i - 1].is_ascii_alphanumeric() || b[i - 1] == b'_');
        if !prev_is_ident && (c == b'r' || c == b'b') {
            // Accept r", b", br", rb" (the last is not Rust but harmless), each
            // with optional `#` repetitions for raw strings.
            let mut j = i;
            while j < b.len() && (b[j] == b'r' || b[j] == b'b') && j - i < 2 {
                j += 1;
            }
            let raw = src[i..j].contains('r');
            let mut hashes = 0usize;
            while raw && b.get(j) == Some(&b'#') {
                hashes += 1;
                j += 1;
            }
            if b.get(j) == Some(&b'"') && (raw || j == i + 1) {
                let content_start = j + 1;
                let mut k = content_start;
                let end = loop {
                    match b.get(k) {
                        None => break b.len(),
                        Some(&b'\\') if !raw => k += 2,
                        Some(&b'"') => {
                            let closes = !raw
                                || b.get(k + 1..k + 1 + hashes)
                                    .is_some_and(|t| t.iter().all(|&h| h == b'#'));
                            if closes {
                                break k;
                            }
                            k += 1;
                        }
                        Some(_) => k += 1,
                    }
                };
                let content = src[content_start..end.min(b.len())].to_string();
                let close = (end + 1 + if raw { hashes } else { 0 }).min(b.len());
                blank(&mut out, i, close);
                out[i] = b'"';
                if end < b.len() {
                    out[close - 1] = b'"';
                }
                strings.push(StrLit {
                    start: i,
                    line: line_of(i),
                    content,
                });
                i = close;
                continue;
            }
            // Not a literal after all: skip the identifier-ish run as code.
            i += 1;
            continue;
        }
        if c == b'"' {
            let mut k = i + 1;
            let end = loop {
                match b.get(k) {
                    None => break b.len(),
                    Some(&b'\\') => k += 2,
                    Some(&b'"') => break k,
                    Some(_) => k += 1,
                }
            };
            let content = src[i + 1..end.min(b.len())].to_string();
            let close = (end + 1).min(b.len());
            blank(&mut out, i, close);
            out[i] = b'"';
            if end < b.len() {
                out[close - 1] = b'"';
            }
            strings.push(StrLit {
                start: i,
                line: line_of(i),
                content,
            });
            i = close;
            continue;
        }
        // Char literal vs. lifetime: 'x' / '\n' are literals, 'static is not.
        if c == b'\'' {
            if b.get(i + 1) == Some(&b'\\') {
                let mut k = i + 2;
                while k < b.len() && b[k] != b'\'' {
                    k += if b[k] == b'\\' { 2 } else { 1 };
                }
                blank(&mut out, i, (k + 1).min(b.len()));
                i = (k + 1).min(b.len());
                continue;
            }
            if b.get(i + 2) == Some(&b'\'') {
                blank(&mut out, i, i + 3);
                i += 3;
                continue;
            }
            // Lifetime: leave as code.
            i += 1;
            continue;
        }
        i += 1;
    }

    let mut scrubbed = Scrubbed {
        code: String::from_utf8_lossy(&out).into_owned(),
        comments,
        strings,
        line_starts,
    };
    strip_test_items(&mut scrubbed);
    scrubbed
}

/// Whether a (whitespace-stripped) attribute body marks a test-only item.
fn is_test_attr(body: &str) -> bool {
    body == "test"
        || body == "cfg(test)"
        || body.starts_with("cfg(all(test")
        || body.starts_with("cfg(any(test")
}

/// Blanks `#[cfg(test)]` / `#[test]` items (attribute through the end of the
/// item: the matching `}` of its body, or the `;` of a bodyless item).
fn strip_test_items(sc: &mut Scrubbed) {
    let mut out = sc.code.clone().into_bytes();
    let b = sc.code.as_bytes();
    let mut i = 0usize;
    while i < b.len() {
        if b[i] != b'#' || b.get(i + 1) != Some(&b'[') {
            i += 1;
            continue;
        }
        let attr_start = i;
        let Some(rb) = matching(b, i + 1, b'[', b']') else {
            break;
        };
        let body: String = sc.code[i + 2..rb]
            .chars()
            .filter(|c| !c.is_whitespace())
            .collect();
        if !is_test_attr(&body) {
            i = rb + 1;
            continue;
        }
        // Skip any further attributes stacked on the same item.
        let mut j = rb + 1;
        loop {
            while j < b.len() && b[j].is_ascii_whitespace() {
                j += 1;
            }
            if b.get(j) == Some(&b'#') && b.get(j + 1) == Some(&b'[') {
                match matching(b, j + 1, b'[', b']') {
                    Some(r) => j = r + 1,
                    None => break,
                }
            } else {
                break;
            }
        }
        // Walk the item: ends at `;` outside any nesting (bodyless) or at the
        // `}` closing the first top-level brace block (fn/mod/impl body).
        let (mut dp, mut db, mut dc) = (0i64, 0i64, 0i64);
        let mut saw_brace = false;
        let end = loop {
            match b.get(j) {
                None => break b.len(),
                Some(&b'(') => dp += 1,
                Some(&b')') => dp -= 1,
                Some(&b'[') => db += 1,
                Some(&b']') => db -= 1,
                Some(&b'{') => {
                    dc += 1;
                    saw_brace = true;
                }
                Some(&b'}') => {
                    dc -= 1;
                    if saw_brace && dc == 0 && dp == 0 && db == 0 {
                        break j + 1;
                    }
                }
                Some(&b';') => {
                    if !saw_brace && dc == 0 && dp == 0 && db == 0 {
                        break j + 1;
                    }
                }
                Some(_) => {}
            }
            j += 1;
        };
        blank(&mut out, attr_start, end);
        i = end;
    }
    sc.code = String::from_utf8_lossy(&out).into_owned();
}

/// Index of the bracket matching `b[open]` (which must be `lhs`), or `None`.
fn matching(b: &[u8], open: usize, lhs: u8, rhs: u8) -> Option<usize> {
    let mut depth = 0i64;
    for (k, &c) in b.iter().enumerate().skip(open) {
        if c == lhs {
            depth += 1;
        } else if c == rhs {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_are_blanked_but_recorded() {
        let sc = scrub("let a = 1; // lint:allow(R3, fine)\n/* block */ let b = 2;\n");
        assert!(!sc.code.contains("lint:allow"));
        assert!(!sc.code.contains("block"));
        assert!(sc.code.contains("let a = 1;"));
        assert!(sc.code.contains("let b = 2;"));
        assert_eq!(sc.comments[0], (1, "lint:allow(R3, fine)".to_string()));
        assert_eq!(sc.comments[1], (2, "block".to_string()));
    }

    #[test]
    fn strings_keep_delimiters_and_content_on_the_side() {
        let sc = scrub("f(\"partial_cmp\"); g('x'); h(r#\"HTTP/1.1\"#);\n");
        assert!(!sc.code.contains("partial_cmp"));
        assert!(!sc.code.contains("HTTP"));
        assert_eq!(sc.strings.len(), 2);
        assert_eq!(sc.strings[0].content, "partial_cmp");
        assert_eq!(sc.strings[1].content, "HTTP/1.1");
        // Call shape survives: an argument slot is still visible.
        assert!(sc.code.contains("f(\""));
    }

    #[test]
    fn escaped_quotes_do_not_end_strings() {
        let sc = scrub(r#"let s = "a\"b"; let t = 1;"#);
        assert_eq!(sc.strings[0].content, r#"a\"b"#);
        assert!(sc.code.contains("let t = 1;"));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let sc = scrub("fn f<'a>(x: &'a str) { let c = 'y'; }\n");
        assert!(sc.code.contains("'a str"));
        assert!(!sc.code.contains("'y'"));
    }

    #[test]
    fn cfg_test_mods_and_test_fns_are_blanked() {
        let src = "fn live() { x.unwrap(); }\n\
                   #[cfg(test)]\nmod tests {\n    fn t() { y.unwrap(); }\n}\n\
                   #[test]\nfn solo() { z.unwrap(); }\n\
                   fn also_live() {}\n";
        let sc = scrub(src);
        assert!(sc.code.contains("x.unwrap()"));
        assert!(!sc.code.contains("y.unwrap()"));
        assert!(!sc.code.contains("z.unwrap()"));
        assert!(sc.code.contains("also_live"));
    }

    #[test]
    fn cfg_attr_and_cfg_not_test_are_left_alone() {
        let src = "#[cfg_attr(test, derive(Debug))]\nstruct S;\n#[cfg(not(test))]\nfn f() {}\n";
        let sc = scrub(src);
        assert!(sc.code.contains("struct S;"));
        assert!(sc.code.contains("fn f() {}"));
    }

    #[test]
    fn stacked_attributes_on_a_test_fn_are_blanked_with_it() {
        let src = "#[test]\n#[should_panic]\nfn t() { boom.unwrap(); }\nfn live() {}\n";
        let sc = scrub(src);
        assert!(!sc.code.contains("boom"));
        assert!(sc.code.contains("fn live() {}"));
    }

    #[test]
    fn line_numbers_are_preserved() {
        let sc = scrub("a\n\"s\ntr\"\nb // c\nd\n");
        assert_eq!(sc.line_of(0), 1);
        assert_eq!(sc.line_text(4), "b     ");
        assert_eq!(sc.comments, vec![(4, "c".to_string())]);
        // The multi-line string keeps its newline so later lines stay put.
        assert_eq!(sc.line_text(5), "d");
    }
}
