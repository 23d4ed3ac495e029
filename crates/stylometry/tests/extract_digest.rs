//! Bit-identity pin for the Table-I extractor.
//!
//! Every feature value of `extract` over a fixed input set is folded into
//! one FNV-1a digest of `(index, value.to_bits())`. The constant below was
//! computed with the original multi-pass extractor (per-word lowercase,
//! linear closed-class scans, a `HashMap` frequency table); the single-pass
//! extractor must reproduce it bit for bit, in every build profile.

use dehealth_corpus::{Forum, ForumConfig};
use dehealth_stylometry::registry::{PUNCT_CHARS, SPECIAL_CHARS};
use dehealth_stylometry::{extract, M};

/// Digest of the original extractor over [`inputs`].
const EXPECTED_DIGEST: u64 = 0x9632_f025_a349_c639;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv(mut h: u64, word: u64) -> u64 {
    for b in word.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Inputs that exercise the non-ASCII lowercase rules, the tokenizer's
/// edge cases and every character-class slot.
fn adversarial() -> Vec<String> {
    let mut all_chars: String = SPECIAL_CHARS.iter().chain(PUNCT_CHARS.iter()).collect();
    all_chars.push_str(" mixed with words: the $5 (and) 'quoted' \"text\"!");
    vec![
        // Kelvin sign (lowercases to ASCII 'k') inside words with and
        // without ASCII uppercase.
        "I \u{212A}now the \u{212A}NOW and \u{212A}now well".to_string(),
        "\u{212A}ING \u{212A}ings thin\u{212A}ing".to_string(),
        // Kelvin sign inside lexicon words: "li\u{212A}e" has no ASCII
        // uppercase, so the lexicon keeps it as is while the tagger and
        // the vocabulary fold it to "like".
        "li\u{212A}e LI\u{212A}E Li\u{212A}e bac\u{212A} BAC\u{212A} aw\u{212A}ard AW\u{212A}ARD o\u{212A}".to_string(),
        // Final sigma: `str::to_lowercase` maps a word-final Σ to ς.
        "ΣΑΣ σας ΣΑΣ. Σ ΟΔΟΣ".to_string(),
        // Dotted capital I lowercases to two chars.
        "İstanbul is İSTANBUL and istanbul".to_string(),
        "Straße STRASSE strasse straße".to_string(),
        // Titlecase digraph: neither upper nor lower case.
        "ǅemal ǄEMAL ǆemal".to_string(),
        "the\u{000B}vertical\u{000B}tab the".to_string(),
        "First paragraph here.\r\n\r\nSecond one.\r\n\r\n\r\nThird\n\nFourth".to_string(),
        "a abcdefghijklmnopqrstuvwxy pneumonoultramicroscopicsilicovolcanoconiosis".to_string(),
        "我有肝炎 病毒 the 医生 said".to_string(),
        "don't DON'T Don't I'M i'm it's IT'S It's well-known x-ray".to_string(),
        "No there like well NO THERE LIKE WELL. There no like.".to_string(),
        "Recieve RECIEVE recieve diabetis Diabetis THE The the".to_string(),
        "my need the ache his help. Need help!".to_string(),
        all_chars,
        "0123456789 42 3.5 1,000".to_string(),
        String::new(),
        "   \n\t ".to_string(),
        "x".to_string(),
        "!!!???...".to_string(),
    ]
}

/// Seeded random texts spliced from tricky fragments, so token boundaries,
/// apostrophes, hyphens and case mixes land in combinations no list above
/// spells out.
fn spliced(n: usize) -> Vec<String> {
    const FRAGMENTS: [&str; 32] = [
        "the",
        "The",
        "THE",
        "no",
        "There",
        "like",
        "Well",
        "don't",
        "I'M",
        "it's",
        "-",
        "'",
        "recieve",
        "Diabetis",
        "\u{212A}",
        "li\u{212A}e",
        "ΣΑΣ",
        "ς",
        "İ",
        "ß",
        "ǅ",
        "我",
        " ",
        "  ",
        "\n\n",
        "\r\n\r\n",
        "\u{000B}",
        ".",
        "?!",
        "$",
        "42",
        "WebMD",
    ];
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        state =
            state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
        (state >> 33) as usize
    };
    (0..n)
        .map(|_| {
            let len = next() % 40;
            (0..len).map(|_| FRAGMENTS[next() % FRAGMENTS.len()]).collect()
        })
        .collect()
}

fn inputs() -> Vec<String> {
    let mut texts: Vec<String> =
        Forum::generate(&ForumConfig::tiny(), 42).posts.into_iter().map(|p| p.text).collect();
    texts
        .extend(Forum::generate(&ForumConfig::webmd_like(40), 7).posts.into_iter().map(|p| p.text));
    texts.extend(adversarial());
    texts.extend(spliced(400));
    texts
}

fn digest(texts: &[String]) -> u64 {
    let mut h = FNV_OFFSET;
    for (i, text) in texts.iter().enumerate() {
        let v = extract(text);
        h = fnv(h, i as u64);
        h = fnv(h, v.nnz() as u64);
        for (j, x) in v.iter_nonzero() {
            assert!(j < M);
            h = fnv(h, j as u64);
            h = fnv(h, x.to_bits());
        }
    }
    h
}

#[test]
fn extractor_output_is_bit_identical_to_the_pinned_digest() {
    let texts = inputs();
    assert!(texts.len() > 300, "input set shrank to {}", texts.len());
    let got = digest(&texts);
    assert_eq!(got, EXPECTED_DIGEST, "extractor digest changed: {got:#018x}");
}

#[test]
fn digest_is_stable_across_threads() {
    // Each extraction thread owns its scratch; interleaving them must not
    // leak state from one post into another.
    let texts = inputs();
    let serial = digest(&texts);
    let parallel: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2).map(|_| scope.spawn(|| digest(&texts))).collect();
        handles.into_iter().map(|h| h.join().expect("worker panicked")).collect()
    });
    assert!(parallel.iter().all(|&d| d == serial));
}
