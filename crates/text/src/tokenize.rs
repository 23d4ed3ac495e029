//! Deterministic tokenizer, sentence/paragraph segmentation, and word-shape
//! classification.
//!
//! The tokenizer is intentionally simple and fully specified so that
//! stylometric feature extraction is reproducible: a token is a maximal run
//! of alphabetic characters (plus internal apostrophes/hyphens), a maximal
//! run of digits, or a single punctuation/symbol character. Whitespace
//! separates tokens and is never emitted.

/// The lexical class of a [`Token`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TokenKind {
    /// Alphabetic word, possibly with internal `'` or `-` (e.g. `don't`).
    Word,
    /// Maximal run of ASCII digits (e.g. `2015`).
    Number,
    /// Single punctuation character from the sentence-punctuation set
    /// `. , ; : ! ? ' " ( ) -`.
    Punct,
    /// Any other non-alphanumeric, non-whitespace character (e.g. `$`, `~`).
    Symbol,
}

/// Case/shape class of a word token, used by the "word shape" stylometric
/// features in Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WordShape {
    /// Every alphabetic character is uppercase and the word has ≥ 2 letters
    /// (e.g. `ALT`).
    AllUpper,
    /// Every alphabetic character is lowercase (e.g. `doctor`).
    AllLower,
    /// First character uppercase, the rest lowercase (e.g. `Doctor`).
    Capitalized,
    /// Mixed case that is not simple capitalization (e.g. `WebMD`,
    /// `camelCase`).
    Camel,
    /// Single uppercase letter, or shapes that fit no other class.
    Other,
}

/// A token with its byte span in the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Token<'a> {
    /// The token text, borrowed from the input.
    pub text: &'a str,
    /// Lexical class.
    pub kind: TokenKind,
    /// Byte offset of the first byte of the token in the input.
    pub start: usize,
}

impl<'a> Token<'a> {
    /// Number of `char`s in the token.
    #[must_use]
    pub fn char_len(&self) -> usize {
        self.text.chars().count()
    }

    /// Word-shape class. Only meaningful for [`TokenKind::Word`] tokens;
    /// other kinds return [`WordShape::Other`].
    #[must_use]
    pub fn shape(&self) -> WordShape {
        if self.kind != TokenKind::Word {
            return WordShape::Other;
        }
        let (mut n_letters, mut n_upper, mut first_upper) = (0usize, 0usize, false);
        for c in self.text.chars().filter(|c| c.is_alphabetic()) {
            let upper = c.is_uppercase();
            if n_letters == 0 {
                first_upper = upper;
            }
            n_letters += 1;
            n_upper += usize::from(upper);
        }
        if n_letters == 0 {
            return WordShape::Other;
        }
        if n_upper == n_letters {
            if n_letters >= 2 {
                WordShape::AllUpper
            } else {
                WordShape::Other
            }
        } else if n_upper == 0 {
            WordShape::AllLower
        } else if first_upper && n_upper == 1 {
            WordShape::Capitalized
        } else {
            WordShape::Camel
        }
    }
}

const PUNCT_SET: &[char] = &['.', ',', ';', ':', '!', '?', '\'', '"', '(', ')', '-'];

fn is_punct(c: char) -> bool {
    PUNCT_SET.contains(&c)
}

fn is_word_char(c: char) -> bool {
    c.is_alphabetic()
}

/// Tokenize `text` into [`Token`]s: [`tokens`] collected.
///
/// Guarantees:
/// - never panics on any UTF-8 input,
/// - token spans are non-overlapping and increasing,
/// - concatenating token texts with the skipped gaps reproduces the input.
#[must_use]
pub fn tokenize(text: &str) -> Vec<Token<'_>> {
    tokens(text).collect()
}

/// The tokens of `text` in order, produced lazily (no allocation).
#[must_use]
pub fn tokens(text: &str) -> Tokens<'_> {
    Tokens { text, at: 0 }
}

/// Iterator over the tokens of a text; see [`tokens`].
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    text: &'a str,
    /// Byte offset where the next token search starts.
    at: usize,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Token<'a>;

    fn next(&mut self) -> Option<Token<'a>> {
        let text = self.text;
        let Some(skip) = text[self.at..].find(|c: char| !c.is_whitespace()) else {
            self.at = text.len();
            return None;
        };
        let start = self.at + skip;
        let c = text[start..].chars().next()?;
        let (end, kind) = if is_word_char(c) {
            // Maximal alphabetic run, allowing internal ' and - when
            // followed by another letter (don't, well-known).
            let mut end = start + c.len_utf8();
            while let Some(nc) = text[end..].chars().next() {
                if is_word_char(nc) {
                    end += nc.len_utf8();
                } else if (nc == '\'' || nc == '-')
                    && text[end + 1..].chars().next().is_some_and(is_word_char)
                {
                    end += 1;
                } else {
                    break;
                }
            }
            (end, TokenKind::Word)
        } else if c.is_ascii_digit() {
            let run = text[start..].bytes().take_while(u8::is_ascii_digit).count();
            (start + run, TokenKind::Number)
        } else {
            let kind = if is_punct(c) { TokenKind::Punct } else { TokenKind::Symbol };
            (start + c.len_utf8(), kind)
        };
        self.at = end;
        Some(Token { text: &text[start..end], kind, start })
    }
}

/// Split `text` into sentences.
///
/// A sentence boundary is a `.`, `!` or `?` followed by whitespace-or-end.
/// Returns non-empty trimmed sentence slices.
#[must_use]
pub fn sentences(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0usize;
    let mut chars = text.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if matches!(c, '.' | '!' | '?') {
            let at_end = chars.peek().is_none_or(|&(_, nc)| nc.is_whitespace());
            if at_end {
                let end = i + c.len_utf8();
                let s = text[start..end].trim();
                if !s.is_empty() {
                    out.push(s);
                }
                start = end;
            }
        }
    }
    let tail = text[start..].trim();
    if !tail.is_empty() {
        out.push(tail);
    }
    out
}

/// Split `text` into paragraphs (separated by one or more blank lines).
#[must_use]
pub fn paragraphs(text: &str) -> Vec<&str> {
    text.split("\n\n")
        .flat_map(|p| p.split("\r\n\r\n"))
        .map(str::trim)
        .filter(|p| !p.is_empty())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn words(text: &str) -> Vec<&str> {
        tokenize(text).into_iter().filter(|t| t.kind == TokenKind::Word).map(|t| t.text).collect()
    }

    #[test]
    fn basic_tokenization() {
        let toks = tokenize("I have hep c, genotype 3b!");
        let texts: Vec<&str> = toks.iter().map(|t| t.text).collect();
        assert_eq!(texts, vec!["I", "have", "hep", "c", ",", "genotype", "3", "b", "!"]);
    }

    #[test]
    fn contraction_kept_whole() {
        assert_eq!(words("don't stop"), vec!["don't", "stop"]);
    }

    #[test]
    fn hyphenated_word_kept_whole() {
        assert_eq!(words("well-known issue"), vec!["well-known", "issue"]);
    }

    #[test]
    fn trailing_apostrophe_not_absorbed() {
        let toks = tokenize("doctors' advice");
        assert_eq!(toks[0].text, "doctors");
        assert_eq!(toks[1].kind, TokenKind::Punct);
    }

    #[test]
    fn numbers_are_separate_tokens() {
        let toks = tokenize("ALT is 400 now");
        let nums: Vec<&str> =
            toks.iter().filter(|t| t.kind == TokenKind::Number).map(|t| t.text).collect();
        assert_eq!(nums, vec!["400"]);
    }

    #[test]
    fn symbols_classified() {
        let toks = tokenize("cost $30 @home");
        assert!(toks.iter().any(|t| t.text == "$" && t.kind == TokenKind::Symbol));
        assert!(toks.iter().any(|t| t.text == "@" && t.kind == TokenKind::Symbol));
    }

    #[test]
    fn spans_are_increasing_and_in_bounds() {
        let text = "Hello, world! \u{e9}t\u{e9} 42.";
        let toks = tokenize(text);
        let mut prev_end = 0;
        for t in &toks {
            assert!(t.start >= prev_end);
            prev_end = t.start + t.text.len();
            assert!(prev_end <= text.len());
            assert_eq!(&text[t.start..prev_end], t.text);
        }
    }

    #[test]
    fn word_shapes() {
        let shape = |s: &str| tokenize(s)[0].shape();
        assert_eq!(shape("ALT"), WordShape::AllUpper);
        assert_eq!(shape("doctor"), WordShape::AllLower);
        assert_eq!(shape("Doctor"), WordShape::Capitalized);
        assert_eq!(shape("WebMD"), WordShape::Camel);
        assert_eq!(shape("camelCase"), WordShape::Camel);
        assert_eq!(shape("I"), WordShape::Other);
    }

    #[test]
    fn sentence_split_basic() {
        let s = sentences("I am sick. Are you? Yes! indeed");
        assert_eq!(s, vec!["I am sick.", "Are you?", "Yes!", "indeed"]);
    }

    #[test]
    fn sentence_split_does_not_break_decimal() {
        let s = sentences("my viral load is 3.5 million today");
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn paragraph_split() {
        let p = paragraphs("first para\nstill first\n\nsecond para\n\n\nthird");
        assert_eq!(p.len(), 3);
        assert_eq!(p[1], "second para");
    }

    #[test]
    fn empty_and_whitespace_inputs() {
        assert!(tokenize("").is_empty());
        assert!(tokenize("   \n\t ").is_empty());
        assert!(sentences("").is_empty());
        assert!(paragraphs("\n\n\n").is_empty());
    }

    #[test]
    fn unicode_words() {
        let toks = tokenize("na\u{ef}ve caf\u{e9}");
        assert_eq!(toks.len(), 2);
        assert_eq!(toks[0].kind, TokenKind::Word);
        assert_eq!(toks[0].char_len(), 5);
    }
}
