//! Lexicon lookups: the function-word list and the misspelling list used by
//! the Table-I stylometric features, and the POS tagger's closed-class
//! word lists.
//!
//! All three are compiled in as static arrays (see [`FUNCTION_WORDS`],
//! [`MISSPELLINGS`] and the lists in [`crate::pos`]) and merged, at first
//! use, into one hash table from a lowercase word to a [`LexEntry`]: its
//! function-word index, its misspelling index and its closed-class tag.
//! One probe answers every lexicon question about a word.

use std::borrow::Cow;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::OnceLock;

use crate::pos::{closed_class_words, PosTag};

#[path = "function_words.rs"]
mod function_words;
#[path = "misspellings.rs"]
mod misspellings;

pub use function_words::FUNCTION_WORDS;
pub use misspellings::MISSPELLINGS;

/// What the lexicon knows about one lowercase word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LexEntry {
    /// Index in [`FUNCTION_WORDS`].
    pub function_word: Option<u16>,
    /// Index in [`MISSPELLINGS`].
    pub misspelling: Option<u16>,
    /// Closed-class POS tag. A word on several closed-class lists takes
    /// the tag of the first list in the tagger's precedence order
    /// (`no` is a determiner, not an interjection).
    pub tag: Option<PosTag>,
}

/// FNV-1a: the keys are short words, for which it beats SipHash several
/// times over; the table is built from static data, so hash flooding is
/// not a concern.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

type Table = HashMap<&'static str, LexEntry, BuildHasherDefault<Fnv>>;

fn table() -> &'static Table {
    static TABLE: OnceLock<Table> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = Table::default();
        for (i, &w) in FUNCTION_WORDS.iter().enumerate() {
            t.entry(w).or_default().function_word = Some(i as u16);
        }
        for (i, &(w, _)) in MISSPELLINGS.iter().enumerate() {
            t.entry(w).or_default().misspelling = Some(i as u16);
        }
        for (w, tag) in closed_class_words() {
            t.entry(w).or_default().tag.get_or_insert(tag);
        }
        t
    })
}

/// Everything the lexicon knows about `lower`, an already-lowercased word
/// (all `None` for an unknown word).
#[must_use]
pub fn lookup(lower: &str) -> LexEntry {
    table().get(lower).copied().unwrap_or_default()
}

/// Index of a function word in [`FUNCTION_WORDS`], or `None`.
///
/// Case-insensitive: `"The"` matches `"the"`.
#[must_use]
pub fn function_word_index(word: &str) -> Option<usize> {
    lookup(&to_lower(word)).function_word.map(usize::from)
}

/// `true` if `word` is one of the 337 function words (case-insensitive).
#[must_use]
pub fn is_function_word(word: &str) -> bool {
    function_word_index(word).is_some()
}

/// Index of a misspelling in [`MISSPELLINGS`], or `None` (case-insensitive).
#[must_use]
pub fn misspelling_index(word: &str) -> Option<usize> {
    lookup(&to_lower(word)).misspelling.map(usize::from)
}

/// The correction for a known misspelling, if any (case-insensitive).
#[must_use]
pub fn correction(word: &str) -> Option<&'static str> {
    misspelling_index(word).map(|i| MISSPELLINGS[i].1)
}

/// [`lexicon_key`] for a caller that holds only `word`.
fn to_lower(word: &str) -> Cow<'_, str> {
    if has_ascii_upper(word) {
        Cow::Owned(word.to_lowercase())
    } else {
        Cow::Borrowed(word)
    }
}

/// The key [`function_word_index`] and [`misspelling_index`] look `word`
/// up under, for a caller that already holds `lower`, the
/// `str::to_lowercase` of `word`: `lower` when `word` has an ASCII
/// uppercase letter, `word` unchanged otherwise. (So a non-ASCII
/// uppercase letter alone, like the Kelvin sign in `li\u{212A}e`, is not
/// folded.)
#[must_use]
pub fn lexicon_key<'a>(word: &'a str, lower: &'a str) -> &'a str {
    if has_ascii_upper(word) {
        lower
    } else {
        word
    }
}

fn has_ascii_upper(word: &str) -> bool {
    word.bytes().any(|b| b.is_ascii_uppercase())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_word_count_matches_table_i() {
        assert_eq!(FUNCTION_WORDS.len(), 337);
    }

    #[test]
    fn misspelling_count_matches_table_i() {
        assert_eq!(MISSPELLINGS.len(), 248);
    }

    #[test]
    fn function_words_sorted_unique_lowercase() {
        for w in FUNCTION_WORDS.windows(2) {
            assert!(w[0] < w[1], "{} !< {}", w[0], w[1]);
        }
        assert!(FUNCTION_WORDS.iter().all(|w| w.chars().all(|c| !c.is_uppercase())));
    }

    #[test]
    fn misspellings_sorted_unique() {
        for w in MISSPELLINGS.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
    }

    #[test]
    fn common_function_words_present() {
        for w in ["the", "a", "of", "because", "herself", "notwithstanding"] {
            assert!(is_function_word(w), "{w} should be a function word");
        }
        assert!(!is_function_word("doctor"));
        assert!(!is_function_word("hepatitis"));
    }

    #[test]
    fn lookup_is_case_insensitive() {
        assert!(is_function_word("The"));
        assert!(is_function_word("BECAUSE"));
        assert!(misspelling_index("Recieve").is_some());
    }

    #[test]
    fn corrections_resolve() {
        assert_eq!(correction("recieve"), Some("receive"));
        assert_eq!(correction("diabetis"), Some("diabetes"));
        assert_eq!(correction("receive"), None);
    }

    #[test]
    fn every_function_word_and_misspelling_resolves_to_its_list_position() {
        // The lookups these replace were binary searches over the sorted
        // lists; every entry, in any ASCII case, must land where they did.
        for (i, &w) in FUNCTION_WORDS.iter().enumerate() {
            assert_eq!(FUNCTION_WORDS.binary_search(&w), Ok(i));
            assert_eq!(function_word_index(w), Some(i), "{w}");
            assert_eq!(function_word_index(&w.to_ascii_uppercase()), Some(i), "{w}");
        }
        for (i, &(w, _)) in MISSPELLINGS.iter().enumerate() {
            assert_eq!(misspelling_index(w), Some(i), "{w}");
            assert_eq!(misspelling_index(&w.to_ascii_uppercase()), Some(i), "{w}");
        }
    }

    #[test]
    fn lexicon_words_are_ascii() {
        // `lexicon_key` leaves non-ASCII words without an ASCII uppercase
        // letter unfolded; with ASCII keys such a word can never match.
        assert!(FUNCTION_WORDS.iter().all(|w| w.is_ascii()));
        assert!(MISSPELLINGS.iter().all(|(w, _)| w.is_ascii()));
    }

    #[test]
    fn closed_class_precedence_follows_the_tagger() {
        assert_eq!(lookup("no").tag, Some(PosTag::Dt)); // not UH
        assert_eq!(lookup("there").tag, Some(PosTag::Ex)); // not RB
        assert_eq!(lookup("like").tag, Some(PosTag::In));
        assert_eq!(lookup("well").tag, Some(PosTag::Uh));
        assert_eq!(lookup("don't").tag, Some(PosTag::Vb));
        assert_eq!(lookup("i'm").tag, Some(PosTag::Prp));
        assert_eq!(lookup("to").tag, Some(PosTag::To));
        assert_eq!(lookup("doctor").tag, None);
        // One word, three facts.
        let like = lookup("like");
        assert_eq!(like.function_word.map(usize::from), FUNCTION_WORDS.binary_search(&"like").ok());
        assert_eq!(like.misspelling, None);
    }

    #[test]
    fn kelvin_sign_is_folded_only_next_to_ascii_uppercase() {
        assert_eq!(to_lower("li\u{212A}e"), "li\u{212A}e");
        assert_eq!(to_lower("LI\u{212A}E"), "like");
        assert!(!is_function_word("li\u{212A}e"));
        assert!(is_function_word("LI\u{212A}E"));
        assert_eq!(lexicon_key("li\u{212A}e", "like"), "li\u{212A}e");
        assert_eq!(lexicon_key("Li\u{212A}e", "like"), "like");
    }

    #[test]
    fn indices_are_stable_and_in_range() {
        let i = function_word_index("the").unwrap();
        assert_eq!(FUNCTION_WORDS[i], "the");
        let j = misspelling_index("seperate").unwrap();
        assert_eq!(MISSPELLINGS[j].0, "seperate");
    }
}
