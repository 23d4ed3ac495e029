//! Per-post feature extraction.
//!
//! `extract` maps one post to a dense vector of `M` non-negative values in
//! the [`crate::registry`] layout. All frequency features are *relative*
//! (divided by the relevant token/character count) so posts of different
//! lengths are comparable; the raw length features themselves are kept in
//! natural units. A value of `0` means "the post does not exhibit this
//! feature", which is exactly the attribute semantics of Section II-B.
//!
//! Extraction is one pass over the characters and one over the tokens.
//! Each word is lowercased once and probed once in the lexicon table; every
//! feature is an integer counter in a per-thread scratch, divided once when
//! the output vector is built. Counts are exact integers in `f64`, so each
//! value is the same single division however the counting is organised.

use std::cell::RefCell;

use dehealth_text::lexicon::{self, lexicon_key};
use dehealth_text::pos::Tagger;
use dehealth_text::stats::{legomena, yules_k};
use dehealth_text::tokenize::{paragraphs, tokens, TokenKind, WordShape};

use crate::registry::{idx, M, MAX_WORD_LEN, N_POS, PUNCT_CHARS, SPECIAL_CHARS};
use crate::vector::FeatureVector;

fn shape_slot(shape: WordShape) -> usize {
    match shape {
        WordShape::AllUpper => 0,
        WordShape::AllLower => 1,
        WordShape::Capitalized => 2,
        WordShape::Camel => 3,
        WordShape::Other => 4,
    }
}

/// Slot of each ASCII byte in `chars`, or `NONE`.
const fn ascii_slots(chars: &[char]) -> [u8; 128] {
    let mut slots = [NONE; 128];
    let mut k = 0;
    while k < chars.len() {
        assert!((chars[k] as u32) < 128, "character inventories are ASCII");
        slots[chars[k] as usize] = k as u8;
        k += 1;
    }
    slots
}

const NONE: u8 = u8::MAX;
const SPECIAL_SLOT: [u8; 128] = ascii_slots(&SPECIAL_CHARS);
const PUNCT_SLOT: [u8; 128] = ascii_slots(&PUNCT_CHARS);

/// Scratch capacity kept between posts; a longer post's buffers are
/// trimmed back to it afterwards, so one huge post does not pin memory in
/// every worker for the thread's lifetime.
const RETAIN_WORDS: usize = 4096;

/// One extraction thread's reusable buffers.
struct Scratch {
    /// One integer counter per feature; all zero between calls.
    counts: Vec<u64>,
    /// The post's lowercased words, back to back.
    lower: String,
    /// Byte range of each word in `lower`.
    spans: Vec<(usize, usize)>,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::new(Scratch {
        counts: vec![0; M],
        lower: String::new(),
        spans: Vec::new(),
    });
}

/// Extract the Table-I feature vector of one post.
///
/// Never panics; empty or pathological inputs yield an all-zero vector.
///
/// ```
/// use dehealth_stylometry::{extract, feature_name};
/// let v = extract("I recieve the results tomorrow!");
/// // The misspelling feature fires...
/// let idx = (0..dehealth_stylometry::M)
///     .find(|&i| feature_name(i) == "misspell_recieve")
///     .unwrap();
/// assert!(v.get(idx) > 0.0);
/// // ...and the function word "the" is counted.
/// assert!(v.iter_nonzero().count() > 10);
/// ```
#[must_use]
pub fn extract(text: &str) -> FeatureVector {
    SCRATCH.with_borrow_mut(|scratch| scratch.extract(text))
}

impl Scratch {
    fn extract(&mut self, text: &str) -> FeatureVector {
        let Scratch { counts: c, lower, spans } = self;

        // --- Characters: length, letters, digits, specials, punctuation ---
        let (mut n_chars, mut n_letters) = (0u64, 0u64);
        for ch in text.chars().filter(|ch| !ch.is_whitespace()) {
            n_chars += 1;
            if ch.is_alphabetic() {
                n_letters += 1;
                if ch.is_uppercase() {
                    c[idx::UPPER_PCT] += 1;
                }
            }
            if ch.is_ascii() {
                let b = ch as u8;
                if b.is_ascii_alphabetic() {
                    c[idx::LETTER + usize::from(b.to_ascii_lowercase() - b'a')] += 1;
                } else if b.is_ascii_digit() {
                    c[idx::DIGIT + usize::from(b - b'0')] += 1;
                } else if SPECIAL_SLOT[usize::from(b)] != NONE {
                    c[idx::SPECIAL + usize::from(SPECIAL_SLOT[usize::from(b)])] += 1;
                }
                if PUNCT_SLOT[usize::from(b)] != NONE {
                    c[idx::PUNCT + usize::from(PUNCT_SLOT[usize::from(b)])] += 1;
                }
            }
        }
        c[idx::LENGTH] = n_chars;
        c[idx::LENGTH + 1] = paragraphs(text).len() as u64;

        // --- Tokens: word length, shape, lexicon, POS ---
        let mut tagger = Tagger::new();
        let (mut n_words, mut n_tags) = (0u64, 0u64);
        let mut prev_shape: Option<usize> = None;
        let mut prev_tag: Option<usize> = None;
        for tok in tokens(text) {
            let tag = if tok.kind == TokenKind::Word {
                n_words += 1;
                let len = tok.char_len();
                c[idx::LENGTH + 2] += len as u64;
                c[idx::WORD_LEN + len.min(MAX_WORD_LEN) - 1] += 1;

                let ascii = tok.text.is_ascii();
                let start = lower.len();
                if ascii {
                    lower.push_str(tok.text);
                    lower[start..].make_ascii_lowercase();
                } else {
                    // Keep `str::to_lowercase`'s context rules (a final Σ
                    // becomes ς), which no per-char mapping reproduces.
                    lower.push_str(&tok.text.to_lowercase());
                }
                spans.push((start, lower.len()));
                let word_lower = &lower[start..];
                let entry = lexicon::lookup(word_lower);
                let lex =
                    if ascii { entry } else { lexicon::lookup(lexicon_key(tok.text, word_lower)) };
                if let Some(i) = lex.function_word {
                    c[idx::FUNC + usize::from(i)] += 1;
                }
                if let Some(i) = lex.misspelling {
                    c[idx::MISSPELL + usize::from(i)] += 1;
                }

                let shape = tok.shape();
                let slot = shape_slot(shape);
                c[idx::SHAPE + slot] += 1;
                if let Some(prev) = prev_shape.filter(|&p| p < 4 && slot < 4) {
                    c[idx::SHAPE + 5 + prev * 4 + slot] += 1;
                }
                prev_shape = Some(slot);
                tagger.word(word_lower, shape, entry.tag)
            } else {
                tagger.non_word(&tok)
            };
            let tag = tag.index();
            c[idx::POS + tag] += 1;
            if let Some(prev) = prev_tag {
                c[idx::POS_BIGRAM + prev * N_POS + tag] += 1;
            }
            prev_tag = Some(tag);
            n_tags += 1;
        }

        // --- Vocabulary richness: runs of equal lowercased words ---
        spans.sort_unstable_by(|a, b| lower[a.0..a.1].cmp(&lower[b.0..b.1]));
        let runs = spans.chunk_by(|a, b| lower[a.0..a.1] == lower[b.0..b.1]).map(<[_]>::len);
        let yule = yules_k(runs.clone());
        let l = legomena(runs);
        for (k, n) in [l.hapax, l.dis, l.tris, l.tetrakis].into_iter().enumerate() {
            c[idx::VOCAB + 1 + k] = n as u64;
        }
        lower.clear();
        lower.shrink_to(RETAIN_WORDS * 8);
        spans.clear();
        spans.shrink_to(RETAIN_WORDS);

        // --- Divide once, into a vector of exact capacity ---
        let nnz = c.iter().filter(|&&n| n != 0).count() + usize::from(yule != 0.0);
        let mut out = Entries { counts: c, entries: Vec::with_capacity(nnz) };
        out.raw(idx::LENGTH, 2);
        out.ratio(idx::LENGTH + 2, 1, n_words);
        out.ratio(idx::WORD_LEN, MAX_WORD_LEN, n_words);
        out.value(idx::VOCAB, yule);
        out.ratio(idx::VOCAB + 1, 4, n_words);
        out.ratio(idx::LETTER, 26 + 10, n_chars); // letters, then digits
        out.ratio(idx::UPPER_PCT, 1, n_letters);
        out.ratio(idx::SPECIAL, SPECIAL_CHARS.len(), n_chars);
        out.ratio(idx::SHAPE, 5, n_words);
        out.ratio(idx::SHAPE + 5, 16, n_words.saturating_sub(1));
        out.ratio(idx::PUNCT, PUNCT_CHARS.len(), n_chars);
        out.ratio(idx::FUNC, idx::POS - idx::FUNC, n_words);
        out.ratio(idx::POS, N_POS, n_tags);
        out.ratio(idx::POS_BIGRAM, N_POS * N_POS, n_tags.saturating_sub(1));
        out.ratio(idx::MISSPELL, M - idx::MISSPELL, n_words);
        debug_assert_eq!(out.entries.len(), nnz);
        debug_assert!(out.counts.iter().all(|&n| n == 0), "a counter block was not drained");
        FeatureVector::from_extracted(out.entries)
    }
}

/// Drains counter blocks, in index order, into sorted feature entries.
struct Entries<'a> {
    counts: &'a mut [u64],
    entries: Vec<(u32, f64)>,
}

impl Entries<'_> {
    /// `count / denom` for each non-zero counter of `start..start + len`,
    /// zeroing the counters. A non-zero counter implies `denom > 0`.
    fn ratio(&mut self, start: usize, len: usize, denom: u64) {
        for (k, n) in self.counts[start..start + len].iter_mut().enumerate() {
            if *n != 0 {
                self.entries.push(((start + k) as u32, *n as f64 / denom as f64));
                *n = 0;
            }
        }
    }

    /// Counters kept in natural units.
    fn raw(&mut self, start: usize, len: usize) {
        for (k, n) in self.counts[start..start + len].iter_mut().enumerate() {
            if *n != 0 {
                self.entries.push(((start + k) as u32, *n as f64));
                *n = 0;
            }
        }
    }

    /// A value computed outside the counters.
    fn value(&mut self, i: usize, v: f64) {
        if v != 0.0 {
            self.entries.push((i as u32, v));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::feature_name;

    fn value(text: &str, name: &str) -> f64 {
        let v = extract(text);
        let i = (0..M)
            .find(|&i| feature_name(i) == name)
            .unwrap_or_else(|| panic!("no feature named {name}"));
        v.get(i)
    }

    #[test]
    fn empty_post_is_all_zero() {
        let v = extract("");
        assert!(v.iter_nonzero().next().is_none());
    }

    #[test]
    fn length_features() {
        assert_eq!(value("ab cd", "n_chars"), 4.0);
        assert_eq!(value("one\n\ntwo", "n_paragraphs"), 2.0);
        assert!((value("ab cdef", "avg_chars_per_word") - 3.0).abs() < 1e-12);
    }

    #[test]
    fn word_length_histogram_sums_to_one() {
        let v = extract("a bb ccc dddd");
        let sum: f64 = (0..MAX_WORD_LEN).map(|k| v.get(idx::WORD_LEN + k)).sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!((v.get(idx::WORD_LEN) - 0.25).abs() < 1e-12); // one 1-char word of 4
    }

    #[test]
    fn letter_frequency_case_folded() {
        // "Aa" -> 2 of 2 chars are 'a'.
        assert!((value("Aa", "letter_a") - 1.0).abs() < 1e-12);
    }

    #[test]
    fn digit_frequency() {
        assert!((value("a 1 2 2", "digit_2") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn uppercase_percentage() {
        assert!((value("AB cd", "uppercase_pct") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn special_and_punct_counts() {
        assert!(value("a $ b", "special_$") > 0.0);
        assert!(value("hello, world", "punct_,") > 0.0);
        assert_eq!(value("hello world", "punct_,"), 0.0);
    }

    #[test]
    fn function_word_frequency() {
        // "the" twice of 4 words.
        assert!((value("the cat the dog", "func_the") - 0.5).abs() < 1e-12);
    }

    #[test]
    fn misspelling_detected() {
        assert!(value("i recieve mail", "misspell_recieve") > 0.0);
        assert_eq!(value("i receive mail", "misspell_recieve"), 0.0);
    }

    #[test]
    fn vocabulary_richness_is_case_insensitive() {
        // "The"/"the" are one type seen twice, "Doctor" a type seen once.
        let v = extract("The the Doctor");
        assert!((v.get(idx::VOCAB + 1) - 1.0 / 3.0).abs() < 1e-12); // hapax: doctor
        assert!((v.get(idx::VOCAB + 2) - 1.0 / 3.0).abs() < 1e-12); // dis: the
                                                                    // K = 1e4 · (4 + 1 − 3) / 9.
        assert!((v.get(idx::VOCAB) - 1e4 * 2.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn scratch_is_clean_between_posts() {
        let long = "The doctor said the pain was really bad. ".repeat(2000);
        let _ = extract(&long);
        assert_eq!(extract("hello"), extract("hello"));
        assert!(extract("").iter_nonzero().next().is_none());
    }

    #[test]
    fn pos_tags_sum_to_one() {
        let v = extract("The doctor prescribed antibiotics.");
        let sum: f64 = (0..N_POS).map(|k| v.get(idx::POS + k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn pos_bigrams_sum_to_one() {
        let v = extract("The doctor helped me");
        let sum: f64 = (0..N_POS * N_POS).map(|k| v.get(idx::POS_BIGRAM + k)).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn word_shape_distribution() {
        let v = extract("ALT alt Alt");
        assert!((v.get(idx::SHAPE) - 1.0 / 3.0).abs() < 1e-12); // AllUpper
        assert!((v.get(idx::SHAPE + 1) - 1.0 / 3.0).abs() < 1e-12); // AllLower
        assert!((v.get(idx::SHAPE + 2) - 1.0 / 3.0).abs() < 1e-12); // Capitalized
    }

    #[test]
    fn all_values_non_negative_and_finite() {
        let v = extract("Weird ~~ input $$$ 123 don't STOP!!!");
        for (_, x) in v.iter_nonzero() {
            assert!(x > 0.0 && x.is_finite());
        }
    }

    #[test]
    fn single_token_post() {
        // No bigrams; must not divide by zero.
        let v = extract("hello");
        assert!((0..N_POS * N_POS).all(|k| v.get(idx::POS_BIGRAM + k) == 0.0));
    }
}
