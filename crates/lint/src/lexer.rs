//! A minimal Rust lexer — just enough fidelity for rule scanning.
//!
//! The linter must never confuse a banned identifier inside a string
//! literal or comment with real code, and must never mis-lex a lifetime as
//! a char literal (or vice versa), because `#[cfg(test)]` block detection
//! and every rule walk this token stream. Everything
//! else (numeric suffix details, exact punct joining) is irrelevant to the
//! rules and deliberately kept loose.

/// Token classes the rule engine distinguishes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TokKind {
    /// Identifier or keyword (including raw identifiers, `r#type`).
    Ident,
    /// Single punctuation character (`::` arrives as two `:` tokens).
    Punct,
    /// String, byte-string, or raw-string literal.
    Str,
    /// Character or byte literal.
    Char,
    /// Lifetime (`'a`, `'static`).
    Lifetime,
    /// Numeric literal.
    Num,
}

/// One lexed token with its source position (1-based line and column).
#[derive(Debug, Clone)]
pub struct Tok {
    pub kind: TokKind,
    pub text: String,
    pub line: u32,
    pub col: u32,
}

/// A comment, kept out of the token stream but retained for
/// `dcert-lint:` directive parsing.
#[derive(Debug, Clone)]
pub struct Comment {
    pub text: String,
    pub line: u32,
}

/// Lexes `source` into tokens and comments.
///
/// Unterminated literals/comments simply end the affected token at EOF;
/// the real compiler rejects such files long before the linter matters.
pub fn lex(source: &str) -> (Vec<Tok>, Vec<Comment>) {
    let chars: Vec<char> = source.chars().collect();
    let mut toks = Vec::new();
    let mut comments = Vec::new();
    let mut i = 0usize;
    let mut line = 1u32;
    let mut col = 1u32;

    macro_rules! bump {
        () => {{
            if chars[i] == '\n' {
                line += 1;
                col = 1;
            } else {
                col += 1;
            }
            i += 1;
        }};
    }

    while i < chars.len() {
        let c = chars[i];
        let (tline, tcol) = (line, col);

        // Whitespace.
        if c.is_whitespace() {
            bump!();
            continue;
        }

        // Comments.
        if c == '/' && i + 1 < chars.len() {
            match chars[i + 1] {
                '/' => {
                    let start = i;
                    while i < chars.len() && chars[i] != '\n' {
                        bump!();
                    }
                    comments.push(Comment {
                        text: chars[start..i].iter().collect(),
                        line: tline,
                    });
                    continue;
                }
                '*' => {
                    let start = i;
                    let mut depth = 0usize;
                    while i < chars.len() {
                        if chars[i] == '/' && i + 1 < chars.len() && chars[i + 1] == '*' {
                            depth += 1;
                            bump!();
                            bump!();
                        } else if chars[i] == '*' && i + 1 < chars.len() && chars[i + 1] == '/' {
                            depth -= 1;
                            bump!();
                            bump!();
                            if depth == 0 {
                                break;
                            }
                        } else {
                            bump!();
                        }
                    }
                    comments.push(Comment {
                        text: chars[start..i].iter().collect(),
                        line: tline,
                    });
                    continue;
                }
                _ => {}
            }
        }

        // Raw strings / raw identifiers / byte strings: r"..", r#".."#,
        // br#".."#, b"..", rb is not a thing but br is; c"..".
        if c == 'r' || c == 'b' || c == 'c' {
            // Look ahead past an optional second prefix letter.
            let mut j = i + 1;
            if j < chars.len() && (chars[j] == 'r' || chars[j] == 'b') && c == 'b' {
                j += 1;
            } else if j < chars.len() && chars[j] == 'b' && c == 'r' {
                // `rb` prefix does not exist; fall through to ident.
                j = i + 1;
            }
            // Raw identifier r#ident (not r#" which is a raw string).
            if c == 'r'
                && i + 1 < chars.len()
                && chars[i + 1] == '#'
                && i + 2 < chars.len()
                && is_ident_start(chars[i + 2])
            {
                bump!(); // r
                bump!(); // #
                let start = i;
                while i < chars.len() && is_ident_continue(chars[i]) {
                    bump!();
                }
                toks.push(Tok {
                    kind: TokKind::Ident,
                    text: chars[start..i].iter().collect(),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            // Raw string r##"..."## (with any number of #).
            let has_raw = c == 'r' || (j > i + 1 && chars[j - 1] == 'r');
            if has_raw && j < chars.len() && (chars[j] == '#' || chars[j] == '"') {
                let mut hashes = 0usize;
                let mut k = j;
                while k < chars.len() && chars[k] == '#' {
                    hashes += 1;
                    k += 1;
                }
                if k < chars.len() && chars[k] == '"' {
                    // Consume prefix + opening quote.
                    while i <= k {
                        bump!();
                    }
                    // Scan to closing quote followed by `hashes` #s.
                    'raw: while i < chars.len() {
                        if chars[i] == '"' {
                            let mut h = 0usize;
                            while h < hashes && i + 1 + h < chars.len() && chars[i + 1 + h] == '#' {
                                h += 1;
                            }
                            if h == hashes {
                                for _ in 0..=hashes {
                                    bump!();
                                }
                                break 'raw;
                            }
                        }
                        bump!();
                    }
                    toks.push(Tok {
                        kind: TokKind::Str,
                        text: String::new(),
                        line: tline,
                        col: tcol,
                    });
                    continue;
                }
            }
            // b"..." / b'.' / c"..."
            if (c == 'b' || c == 'c') && i + 1 < chars.len() && chars[i + 1] == '"' {
                bump!();
                lex_quoted(&chars, &mut i, &mut line, &mut col, '"');
                toks.push(Tok {
                    kind: TokKind::Str,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            if c == 'b' && i + 1 < chars.len() && chars[i + 1] == '\'' {
                bump!();
                lex_quoted(&chars, &mut i, &mut line, &mut col, '\'');
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            // Fall through: plain identifier starting with r/b/c.
        }

        // Identifiers and keywords.
        if is_ident_start(c) {
            let start = i;
            while i < chars.len() && is_ident_continue(chars[i]) {
                bump!();
            }
            toks.push(Tok {
                kind: TokKind::Ident,
                text: chars[start..i].iter().collect(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Numbers (loose: consume alphanumerics, `.` handled by puncts so
        // `0..4` ranges stay three tokens, and `1.5` stays one).
        if c.is_ascii_digit() {
            let start = i;
            while i < chars.len()
                && (chars[i].is_ascii_alphanumeric()
                    || chars[i] == '_'
                    || (chars[i] == '.'
                        && i + 1 < chars.len()
                        && chars[i + 1].is_ascii_digit()
                        && !chars[start..i].contains(&'.')))
            {
                bump!();
            }
            toks.push(Tok {
                kind: TokKind::Num,
                text: chars[start..i].iter().collect(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Strings.
        if c == '"' {
            lex_quoted(&chars, &mut i, &mut line, &mut col, '"');
            toks.push(Tok {
                kind: TokKind::Str,
                text: String::new(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Lifetime or char literal.
        if c == '\'' {
            // 'x' / '\n' → char; 'ident (no closing quote) → lifetime.
            if i + 1 < chars.len() && chars[i + 1] == '\\' {
                lex_quoted(&chars, &mut i, &mut line, &mut col, '\'');
                toks.push(Tok {
                    kind: TokKind::Char,
                    text: String::new(),
                    line: tline,
                    col: tcol,
                });
                continue;
            }
            if i + 1 < chars.len() && is_ident_start(chars[i + 1]) {
                let mut k = i + 1;
                while k < chars.len() && is_ident_continue(chars[k]) {
                    k += 1;
                }
                if k < chars.len() && chars[k] == '\'' && k == i + 2 {
                    // Exactly one ident char then a quote: char literal 'a'.
                    lex_quoted(&chars, &mut i, &mut line, &mut col, '\'');
                    toks.push(Tok {
                        kind: TokKind::Char,
                        text: String::new(),
                        line: tline,
                        col: tcol,
                    });
                } else {
                    // Lifetime.
                    bump!();
                    let start = i;
                    while i < chars.len() && is_ident_continue(chars[i]) {
                        bump!();
                    }
                    toks.push(Tok {
                        kind: TokKind::Lifetime,
                        text: chars[start..i].iter().collect(),
                        line: tline,
                        col: tcol,
                    });
                }
                continue;
            }
            // '(' etc: single-char literal of punctuation.
            lex_quoted(&chars, &mut i, &mut line, &mut col, '\'');
            toks.push(Tok {
                kind: TokKind::Char,
                text: String::new(),
                line: tline,
                col: tcol,
            });
            continue;
        }

        // Everything else: single punct.
        toks.push(Tok {
            kind: TokKind::Punct,
            text: c.to_string(),
            line: tline,
            col: tcol,
        });
        bump!();
    }

    (toks, comments)
}

/// Consumes a quoted literal starting at the opening quote, honoring
/// backslash escapes.
fn lex_quoted(chars: &[char], i: &mut usize, line: &mut u32, col: &mut u32, quote: char) {
    macro_rules! bump {
        () => {{
            if chars[*i] == '\n' {
                *line += 1;
                *col = 1;
            } else {
                *col += 1;
            }
            *i += 1;
        }};
    }
    bump!(); // opening quote
    while *i < chars.len() {
        if chars[*i] == '\\' {
            bump!();
            if *i < chars.len() {
                bump!();
            }
            continue;
        }
        if chars[*i] == quote {
            bump!();
            return;
        }
        bump!();
    }
}

fn is_ident_start(c: char) -> bool {
    c.is_alphabetic() || c == '_'
}

fn is_ident_continue(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Is `toks[i]` the punct `s`? (`false` past the end.)
pub fn is_punct(toks: &[Tok], i: usize, s: &str) -> bool {
    toks.get(i)
        .is_some_and(|t| t.kind == TokKind::Punct && t.text == s)
}

/// Index of the bracket matching `toks[open]`.
pub fn matching(toks: &[Tok], open: usize, open_s: &str, close_s: &str) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            if t.text == open_s {
                depth += 1;
            } else if t.text == close_s {
                depth -= 1;
                if depth == 0 {
                    return Some(k);
                }
            }
        }
    }
    None
}
