//! Source preprocessing: blank out comments and string literals while
//! preserving line structure, and mark `#[cfg(test)]` regions.
//!
//! Every lint pattern matches against *stripped* source, so a lint
//! token inside a doc comment, a `//` note, or a string literal (the
//! linter's own pattern tables, for instance) can never fire.

/// Returns `src` with comments, string literals and char literals
/// replaced by spaces. Newlines are preserved so byte offsets map to
/// the same line numbers as the original.
pub(crate) fn strip_source(src: &str) -> String {
    let b = src.as_bytes();
    let mut out = vec![b' '; b.len()];
    // Keep newlines.
    for (i, &c) in b.iter().enumerate() {
        if c == b'\n' {
            out[i] = b'\n';
        }
    }
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'/' if i + 1 < b.len() && b[i + 1] == b'/' => {
                // Line comment: skip to newline.
                while i < b.len() && b[i] != b'\n' {
                    i += 1;
                }
            }
            b'/' if i + 1 < b.len() && b[i + 1] == b'*' => {
                // Block comment, nestable.
                let mut depth = 1;
                i += 2;
                while i < b.len() && depth > 0 {
                    if b[i] == b'/' && i + 1 < b.len() && b[i + 1] == b'*' {
                        depth += 1;
                        i += 2;
                    } else if b[i] == b'*' && i + 1 < b.len() && b[i + 1] == b'/' {
                        depth -= 1;
                        i += 2;
                    } else {
                        i += 1;
                    }
                }
            }
            b'"' => {
                // String literal with escapes.
                i += 1;
                while i < b.len() {
                    match b[i] {
                        b'\\' => i += 2,
                        b'"' => {
                            i += 1;
                            break;
                        }
                        _ => i += 1,
                    }
                }
            }
            b'r' if is_raw_string_start(b, i) => {
                // Raw string r"..." / r#"..."# / byte raw br"...".
                i += 1; // past 'r'
                let mut hashes = 0;
                while i < b.len() && b[i] == b'#' {
                    hashes += 1;
                    i += 1;
                }
                i += 1; // past opening quote
                'raw: while i < b.len() {
                    if b[i] == b'"' {
                        let mut ok = true;
                        for k in 0..hashes {
                            if i + 1 + k >= b.len() || b[i + 1 + k] != b'#' {
                                ok = false;
                                break;
                            }
                        }
                        if ok {
                            i += 1 + hashes;
                            break 'raw;
                        }
                    }
                    i += 1;
                }
            }
            b'\'' => {
                // Char literal vs lifetime. A char literal closes
                // within a few bytes ('x', '\n', '\u{1F600}'); a
                // lifetime never closes with a quote.
                if let Some(end) = char_literal_end(b, i) {
                    i = end;
                } else {
                    // Lifetime: keep the identifier (it is code).
                    let start = i;
                    i += 1;
                    while i < b.len() && is_ident_byte(b[i]) {
                        i += 1;
                    }
                    copy_span(&mut out, b, start, i);
                }
            }
            _ => {
                out[i] = b[i];
                i += 1;
            }
        }
    }
    String::from_utf8(out).expect("stripping only writes ASCII spaces over UTF-8")
}

fn copy_span(out: &mut [u8], b: &[u8], start: usize, end: usize) {
    out[start..end].copy_from_slice(&b[start..end]);
}

fn is_ident_byte(c: u8) -> bool {
    c.is_ascii_alphanumeric() || c == b'_'
}

/// Is `b[i] == 'r'` the start of a raw string (`r"`, `r#`), and not
/// just an identifier ending in `r`?
fn is_raw_string_start(b: &[u8], i: usize) -> bool {
    if i > 0 && is_ident_byte(b[i - 1]) {
        return false;
    }
    let mut j = i + 1;
    while j < b.len() && b[j] == b'#' {
        j += 1;
    }
    j < b.len() && b[j] == b'"'
}

/// If position `i` (at a `'`) starts a char literal, returns the index
/// one past its closing quote.
fn char_literal_end(b: &[u8], i: usize) -> Option<usize> {
    let mut j = i + 1;
    if j >= b.len() {
        return None;
    }
    if b[j] == b'\\' {
        // Escape: \n, \', \u{...}, \x7f ...
        j += 2;
        if j < b.len() && b[j - 1] == b'u' && b[j] == b'{' {
            while j < b.len() && b[j] != b'}' {
                j += 1;
            }
            j += 1;
        } else if j < b.len() && b[j - 1] == b'x' {
            j += 2; // two hex digits
        }
        (j < b.len() && b[j] == b'\'').then_some(j + 1)
    } else {
        // One char (possibly multi-byte UTF-8) then a closing quote.
        let mut k = j + 1;
        while k < b.len() && (b[k] & 0xc0) == 0x80 {
            k += 1;
        }
        (k < b.len() && b[k] == b'\'' && b[j] != b'\'').then_some(k + 1)
    }
}

/// Returns, for each line of *stripped* source, whether it lies inside
/// a `#[cfg(test)]`-gated item (tracked by brace depth) or ends a
/// bodiless one (`#[cfg(test)] mod name;`).
pub(crate) fn test_lines(stripped: &str) -> Vec<bool> {
    let mut out = Vec::new();
    let mut depth: usize = 0;
    // Depths at which an active test region began.
    let mut test_stack: Vec<usize> = Vec::new();
    let mut pending_attr = false;
    // `(` and `[` opened since the pending attribute: a `;` inside
    // them (an array type) does not end the attributed item.
    let mut nest: usize = 0;
    for line in stripped.split('\n') {
        let mut is_test = !test_stack.is_empty();
        if line.contains("cfg(test")
            || line.contains("cfg(all(test")
            || line.contains("cfg(any(test")
        {
            pending_attr = true;
            nest = 0;
        }
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    if pending_attr {
                        test_stack.push(depth);
                        pending_attr = false;
                        is_test = true;
                    }
                }
                '}' => {
                    if test_stack.last() == Some(&depth) {
                        test_stack.pop();
                    }
                    depth = depth.saturating_sub(1);
                }
                '(' | '[' if pending_attr => nest += 1,
                ')' | ']' if pending_attr => nest = nest.saturating_sub(1),
                // An item without a body (`#[cfg(test)] mod name;`)
                // takes the attribute with it.
                ';' if pending_attr && nest == 0 => {
                    pending_attr = false;
                    is_test = true;
                }
                _ => {}
            }
        }
        is_test = is_test || !test_stack.is_empty();
        out.push(is_test);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comments_and_strings_are_blanked() {
        let src = "let a = 1; // Instant::now()\nlet b = \"SystemTime\"; /* HashMap */ let c = 2;";
        let s = strip_source(src);
        assert!(!s.contains("Instant"));
        assert!(!s.contains("SystemTime"));
        assert!(!s.contains("HashMap"));
        assert!(s.contains("let a = 1;"));
        assert!(s.contains("let c = 2;"));
        assert_eq!(s.matches('\n').count(), src.matches('\n').count());
    }

    #[test]
    fn raw_strings_and_escapes() {
        let s = strip_source(r##"let x = r#"thread_rng"#; let y = "a\"thread_rng";"##);
        assert!(!s.contains("thread_rng"));
        assert!(s.contains("let y ="));
    }

    #[test]
    fn lifetimes_survive_char_literals_do_not() {
        let s = strip_source("fn f<'a>(x: &'a str) { let c = '\\n'; let d = 'z'; }");
        assert!(s.contains("<'a>"));
        assert!(s.contains("&'a str"));
        assert!(!s.contains('z'));
    }

    #[test]
    fn nested_block_comments() {
        let s = strip_source("a /* x /* SystemTime */ y */ b");
        assert!(!s.contains("SystemTime"));
        assert!(s.starts_with('a'));
        assert!(s.trim_end().ends_with('b'));
    }

    #[test]
    fn cfg_test_regions_are_tracked() {
        let src = "\
fn real() {}
#[cfg(test)]
mod tests {
    fn t() {}
}
fn also_real() {}
#[cfg(test)] mod event_log;
fn array_arg(x: [u8; 2]) {}
";
        let flags = test_lines(&strip_source(src));
        assert!(!flags[0], "real fn");
        assert!(flags[2], "mod tests line");
        assert!(flags[3], "inside tests");
        assert!(!flags[5], "after tests");
        assert!(flags[6], "out-of-line test module declaration");
        assert!(!flags[7], "the `;` ended the attributed item");
    }

    #[test]
    fn cfg_test_in_comment_is_ignored() {
        let src = "// #[cfg(test)]\nfn real() { let x = 1; }\n";
        let flags = test_lines(&strip_source(src));
        assert!(!flags[1]);
    }
}
