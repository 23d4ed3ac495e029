//! # dehealth-text
//!
//! Natural-language substrate for the De-Health reproduction.
//!
//! The paper's stylometric feature set (Table I) needs word/sentence/
//! paragraph segmentation, word-shape classification, a part-of-speech
//! tagger, a function-word lexicon, a misspelling lexicon, and vocabulary
//! richness statistics. No suitable offline NLP crate exists, so this
//! crate implements all of them from scratch:
//!
//! - [`mod@tokenize`] — deterministic tokenizer producing word, number,
//!   punctuation and symbol tokens, plus sentence and paragraph splitting
//!   and word-shape classification.
//! - [`lexicon`] — the 337-entry function-word list and the 248-entry
//!   common-misspelling list used by Table I, merged with the tagger's
//!   closed-class lists into one `O(1)` lookup table.
//! - [`pos`] — a rule-based, streaming part-of-speech tagger
//!   (closed-class lexicon + suffix/shape heuristics) over a compact
//!   Penn-Treebank-like tagset, with bigram extraction.
//! - [`stats`] — vocabulary richness measures: Yule's K and
//!   hapax/dis/tris/tetrakis legomena counts.

pub mod lexicon;
pub mod pos;
pub mod stats;
pub mod tokenize;

pub use pos::{pos_bigrams, tag_tokens, PosTag, Tagger};
pub use stats::{legomena, yules_k, Legomena};
pub use tokenize::{paragraphs, sentences, tokenize, tokens, Token, TokenKind, Tokens, WordShape};
