//! Tokenizer for the mini-HDL.

use std::fmt;

/// A lexical token.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Token {
    /// An identifier or keyword.
    Ident(String),
    /// An unsized decimal number. The subset sizes these at 32 bits, so a
    /// larger one is a lexical error rather than a silently truncated value.
    Number(u32),
    /// A sized literal such as `8'hff` (kept as text; parsed by `lr-bv`).
    SizedLiteral(String),
    /// Any punctuation or operator symbol.
    Symbol(String),
}

impl fmt::Display for Token {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Token::Ident(s) => write!(f, "{s}"),
            Token::Number(n) => write!(f, "{n}"),
            Token::SizedLiteral(s) => write!(f, "{s}"),
            Token::Symbol(s) => write!(f, "{s}"),
        }
    }
}

/// Tokenizes mini-HDL source text. Comments (`//` and `/* */`) are skipped.
pub fn tokenize(src: &str) -> Result<Vec<Token>, String> {
    let bytes: Vec<char> = src.chars().collect();
    let mut i = 0;
    let mut out = Vec::new();
    let n = bytes.len();
    while i < n {
        let c = bytes[i];
        if c.is_whitespace() {
            i += 1;
            continue;
        }
        // Comments.
        if c == '/' && i + 1 < n && bytes[i + 1] == '/' {
            while i < n && bytes[i] != '\n' {
                i += 1;
            }
            continue;
        }
        if c == '/' && i + 1 < n && bytes[i + 1] == '*' {
            i += 2;
            while i + 1 < n && !(bytes[i] == '*' && bytes[i + 1] == '/') {
                i += 1;
            }
            i = (i + 2).min(n);
            continue;
        }
        // Identifiers and keywords.
        if c.is_ascii_alphabetic() || c == '_' || c == '\\' || c == '$' {
            let start = i;
            i += 1;
            while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_' || bytes[i] == '$')
            {
                i += 1;
            }
            out.push(Token::Ident(bytes[start..i].iter().collect()));
            continue;
        }
        // Numbers and sized literals.
        if c.is_ascii_digit() {
            let start = i;
            while i < n && (bytes[i].is_ascii_digit() || bytes[i] == '_') {
                i += 1;
            }
            if i < n && bytes[i] == '\'' {
                // Sized literal: width ' base digits
                i += 1; // consume '
                if i < n {
                    i += 1; // consume base char
                }
                while i < n && (bytes[i].is_ascii_alphanumeric() || bytes[i] == '_') {
                    i += 1;
                }
                out.push(Token::SizedLiteral(bytes[start..i].iter().collect()));
            } else {
                let text: String = bytes[start..i].iter().filter(|c| **c != '_').collect();
                let value: u32 = text
                    .parse()
                    .map_err(|_| format!("unsized literal `{text}` does not fit in 32 bits"))?;
                out.push(Token::Number(value));
            }
            continue;
        }
        // Multi-character symbols. Three-character shifts come first so that
        // `>>>` / `<<<` lex as one arithmetic-shift token instead of `>>` + `>`
        // (which would mis-parse downstream as a shift followed by a compare).
        let three: String = bytes[i..n.min(i + 3)].iter().collect();
        if [">>>", "<<<"].contains(&three.as_str()) {
            out.push(Token::Symbol(three));
            i += 3;
            continue;
        }
        let two: String = bytes[i..n.min(i + 2)].iter().collect();
        if ["<=", ">=", "==", "!=", "&&", "||", "<<", ">>"].contains(&two.as_str()) {
            out.push(Token::Symbol(two));
            i += 2;
            continue;
        }
        // Single-character symbols.
        if "()[]{}:;,.=+-*&|^~?!<>#@".contains(c) {
            out.push(Token::Symbol(c.to_string()));
            i += 1;
            continue;
        }
        return Err(format!("unexpected character `{c}` at offset {i}"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tokenizes_a_module_header() {
        let toks = tokenize("module m(input [7:0] a, output out);").unwrap();
        assert_eq!(toks[0], Token::Ident("module".into()));
        assert_eq!(toks[1], Token::Ident("m".into()));
        assert!(toks.contains(&Token::Symbol("[".into())));
        assert!(toks.contains(&Token::Number(7)));
    }

    #[test]
    fn tokenizes_sized_literals_and_operators() {
        let toks = tokenize("assign x = a + 8'hff - 4'b1010 << 2;").unwrap();
        assert!(toks.contains(&Token::SizedLiteral("8'hff".into())));
        assert!(toks.contains(&Token::SizedLiteral("4'b1010".into())));
        assert!(toks.contains(&Token::Symbol("<<".into())));
    }

    #[test]
    fn skips_comments() {
        let toks = tokenize("a // comment\n /* block \n comment */ b").unwrap();
        assert_eq!(toks, vec![Token::Ident("a".into()), Token::Ident("b".into())]);
    }

    #[test]
    fn arithmetic_shifts_are_single_tokens() {
        let toks = tokenize("a >>> 2").unwrap();
        assert_eq!(toks[1], Token::Symbol(">>>".into()), "`>>>` must not split into `>>` `>`");
        let toks = tokenize("a <<< 2").unwrap();
        assert_eq!(toks[1], Token::Symbol("<<<".into()));
        // Adjacent logical shift + compare still needs whitespace to lex as such.
        let toks = tokenize("a >> b > c").unwrap();
        assert_eq!(toks[1], Token::Symbol(">>".into()));
        assert_eq!(toks[3], Token::Symbol(">".into()));
    }

    #[test]
    fn nonblocking_operator_is_one_token() {
        let toks = tokenize("r <= a;").unwrap();
        assert_eq!(toks[1], Token::Symbol("<=".into()));
    }

    #[test]
    fn rejects_unknown_characters() {
        assert!(tokenize("a ` b").is_err());
    }
}
