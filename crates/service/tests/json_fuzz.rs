//! Property/fuzz loop for the JSON wire path: seeded byte-level
//! corruption of valid `attack`, `add_auxiliary_users` and control
//! requests must always produce either a typed error or a valid parse —
//! never a panic or a hang.
//!
//! The harness drives the sequence the daemon runs on every
//! newline-delimited request: lossy UTF-8 decoding and trimming of the
//! line, the front thread's zero-parse `cmd`/`threads` byte scan
//! ([`scan_top_level`]), the worker's full [`Json::parse`], and then the
//! command's field decoding ([`forum_from_json`] and the per-request
//! option accessors). The mutation strategies are those of
//! `frame_fuzz.rs` carried over to text: byte flips, truncation,
//! trailing garbage, splices of the document into itself, and length
//! blow-ups (a run of one byte repeated up to 4096 times, which drives
//! nesting depth, string length and token length).
//!
//! Blow-ups repeat non-digit bytes only, and the seed documents carry no
//! digit run longer than four. `forum_from_json` allocates one slot per
//! declared user before reading any post, so a mutant that grew
//! `n_users` to ten digits would ask for gigabytes; bounding that
//! allocation is a fix of its own, not a property of the parser.

use dehealth_corpus::{Forum, ForumConfig};
use dehealth_service::frame::scan_top_level;
use dehealth_service::json::{Json, MAX_DEPTH};
use dehealth_service::protocol::forum_from_json;
use dehealth_service::protocol::forum_to_json;
use dehealth_service::AttackOptions;

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// What one daemon pass over a request line produced.
#[derive(Debug, PartialEq, Eq)]
enum Outcome {
    /// Blank after trimming: the daemon skips the line.
    Blank,
    /// `Json::parse` rejected the line (`invalid_json`).
    InvalidJson(&'static str),
    /// Parsed, but no string `cmd` (`missing_cmd`).
    MissingCmd,
    /// Parsed with a `cmd` the protocol does not know (`unknown_cmd`).
    UnknownCmd,
    /// A known command whose fields failed to decode
    /// (`invalid_argument`).
    BadArgument,
    /// A known command with well-formed fields.
    Valid(&'static str),
}

/// Decode the per-request attack overrides the way the daemon's worker
/// does: each present field must have its expected type.
fn attack_fields_ok(request: &Json) -> bool {
    let usize_field = |key: &str| request.get(key).is_none_or(|v| v.as_usize().is_some());
    let mode_ok =
        request.get("mode").is_none_or(|m| matches!(m.as_str(), Some("exact" | "approx")));
    let margin_ok = request.get("margin").is_none_or(|m| m.as_f64().is_some_and(f64::is_finite));
    ["top_k", "n_landmarks", "seed", "threads"].into_iter().all(usize_field) && mode_ok && margin_ok
}

/// Run the daemon's line → scan → parse → decode sequence. Any panic
/// escapes and fails the test; any return is an acceptable outcome.
fn drive(bytes: &[u8]) -> Outcome {
    let line = String::from_utf8_lossy(bytes);
    let line = line.trim();
    if line.is_empty() {
        return Outcome::Blank;
    }
    // The front thread's classification probes; their answers only pick
    // a queue, so any value (or none) is acceptable.
    let _ = scan_top_level(line.as_bytes(), "cmd");
    let _ = scan_top_level(line.as_bytes(), "threads").and_then(|t| t.parse::<usize>().ok());
    let request = match Json::parse(line) {
        Ok(request) => request,
        Err(e) => return Outcome::InvalidJson(e.message),
    };
    // A valid parse re-emits as valid JSON.
    assert!(Json::parse(&request.emit()).is_ok(), "re-emitted parse failed for {line:?}");
    let Some(cmd) = request.get("cmd").and_then(Json::as_str) else {
        return Outcome::MissingCmd;
    };
    let (label, fields_ok) = match cmd {
        "attack" => (
            "attack",
            request.get("forum").is_some_and(|f| forum_from_json(f).is_ok())
                && attack_fields_ok(&request),
        ),
        "add_auxiliary_users" => (
            "add_auxiliary_users",
            request.get("forum").is_some_and(|f| forum_from_json(f).is_ok()),
        ),
        "load_snapshot" => ("load_snapshot", request.get("path").and_then(Json::as_str).is_some()),
        "stats" => ("stats", true),
        "metrics" => ("metrics", true),
        "shutdown" => ("shutdown", true),
        _ => return Outcome::UnknownCmd,
    };
    if fields_ok {
        Outcome::Valid(label)
    } else {
        Outcome::BadArgument
    }
}

/// One seeded mutation of a valid request line. Every strategy changes
/// the bytes (XOR masks are forced nonzero; the others change the
/// length).
fn mutate(doc: &[u8], state: &mut u64) -> Vec<u8> {
    let mut out = doc.to_vec();
    let pick = |state: &mut u64, n: usize| (splitmix64(state) % n as u64) as usize;
    match splitmix64(state) % 6 {
        // Flip one random byte.
        0 => {
            let at = pick(state, out.len());
            out[at] ^= (splitmix64(state) % 255 + 1) as u8;
        }
        // Flip up to 8 random bytes.
        1 => {
            for _ in 0..=(splitmix64(state) % 8) {
                let at = pick(state, out.len());
                out[at] ^= (splitmix64(state) % 255 + 1) as u8;
            }
        }
        // Truncate to a random shorter prefix.
        2 => out.truncate(pick(state, doc.len())),
        // Append random trailing garbage.
        3 => {
            for _ in 0..=(splitmix64(state) % 32) {
                out.push((splitmix64(state) % 256) as u8);
            }
        }
        // Splice a random slice of the document into a random offset.
        4 => {
            let from = pick(state, doc.len());
            let len = 1 + pick(state, (doc.len() - from).min(256));
            let at = pick(state, out.len() + 1);
            out.splice(at..at, doc[from..from + len].iter().copied());
        }
        // Length blow-up: a run of one non-digit byte, 2^k long.
        _ => {
            const BYTES: &[u8] = b"[{\"\\:,]} aZ\xc3\xff";
            let byte = BYTES[pick(state, BYTES.len())];
            let run = 1usize << (1 + pick(state, 12));
            let at = pick(state, out.len() + 1);
            out.splice(at..at, std::iter::repeat_n(byte, run));
        }
    }
    out
}

fn valid_requests() -> Vec<(Vec<u8>, &'static str)> {
    let forum = Forum::generate(&ForumConfig::tiny(), 11);
    // Twelve users' posts keep each document a few KB, like a request.
    let small = Forum::from_posts(
        12,
        forum.n_threads,
        forum.posts.iter().filter(|p| p.author < 12).cloned().collect(),
    );
    let options = AttackOptions {
        top_k: Some(5),
        n_landmarks: Some(12),
        threads: Some(2),
        seed: Some(7),
        approx_margin: Some(0.25),
    };
    let cmd = |c: &str| ("cmd".to_string(), Json::Str(c.into()));
    let mut attack = vec![cmd("attack"), ("forum".into(), forum_to_json(&small))];
    attack.extend(options.to_fields());
    let docs = [
        (Json::Obj(attack), "attack"),
        (
            Json::Obj(vec![cmd("add_auxiliary_users"), ("forum".into(), forum_to_json(&small))]),
            "add_auxiliary_users",
        ),
        (
            Json::Obj(vec![cmd("load_snapshot"), ("path".into(), Json::Str("c.snap".into()))]),
            "load_snapshot",
        ),
        (Json::Obj(vec![cmd("stats")]), "stats"),
    ];
    let docs: Vec<_> =
        docs.into_iter().map(|(doc, label)| (doc.emit().into_bytes(), label)).collect();
    for (doc, label) in &docs {
        let longest_digit_run =
            doc.split(|b| !b.is_ascii_digit()).map(<[u8]>::len).max().unwrap_or(0);
        assert!(longest_digit_run <= 4, "{label} carries a {longest_digit_run}-digit number");
    }
    docs
}

#[test]
fn seeded_mutations_never_panic_and_always_classify() {
    let mut state = 0x15_0bf2_2e55_u64;
    let requests = valid_requests();
    let mut invalid_json = 0usize;
    let mut decoded = 0usize;
    for round in 0..150 {
        for (doc, label) in &requests {
            assert_eq!(
                drive(doc),
                Outcome::Valid(label),
                "pristine {label} failed (round {round})"
            );
            let mutant = mutate(doc, &mut state);
            assert_ne!(&mutant, doc, "mutation was a no-op (round {round})");
            match drive(&mutant) {
                Outcome::InvalidJson(_) => invalid_json += 1,
                Outcome::Blank => {}
                _ => decoded += 1,
            }
        }
    }
    // The 600 mutants must reach both the parser's error paths and the
    // field decoding behind it.
    assert!(invalid_json > 100, "parser error paths underexercised: {invalid_json}");
    assert!(decoded > 20, "field decoding underexercised: {decoded}");
}

#[test]
fn every_truncation_of_a_small_request_is_typed() {
    // Exhaustive over the short documents: every prefix is either a
    // typed JSON error or (the complete document) a valid parse.
    for (doc, label) in valid_requests().into_iter().filter(|(d, _)| d.len() < 200) {
        for cut in 0..doc.len() {
            assert!(
                matches!(drive(&doc[..cut]), Outcome::Blank | Outcome::InvalidJson(_)),
                "{label} truncated to {cut} bytes did not fail to parse"
            );
        }
        assert_eq!(drive(&doc), Outcome::Valid(label));
    }
}

#[test]
fn nesting_past_max_depth_is_a_typed_error() {
    let nested = |open: &str, close: &str, n: usize| open.repeat(n) + &close.repeat(n);
    // The outermost value sits at depth 0, so MAX_DEPTH + 1 brackets is
    // the deepest accepted document.
    assert!(Json::parse(&nested("[", "]", MAX_DEPTH + 1)).is_ok());
    let err = Json::parse(&nested("[", "]", MAX_DEPTH + 2)).unwrap_err();
    assert_eq!(err.message, "nesting too deep");
    let objects = nested("{\"a\":", "}", MAX_DEPTH + 1).replace("{\"a\":}", "{\"a\":1}");
    assert_eq!(Json::parse(&objects).unwrap_err().message, "nesting too deep");
    // A megabyte of open brackets fails at the guard, not on the stack.
    let flood = "[".repeat(1 << 20);
    assert_eq!(Json::parse(&flood).unwrap_err().message, "nesting too deep");
    assert_eq!(drive(flood.as_bytes()), Outcome::InvalidJson("nesting too deep"));
}

#[test]
fn lone_surrogate_escapes_are_typed_errors() {
    for (text, message) in [
        (r#""\ud800""#, "lone high surrogate"),
        (r#""\udbff tail""#, "lone high surrogate"),
        (r#""\ud800A""#, "lone high surrogate"),
        (r#""\ud800\ud800""#, "invalid low surrogate"),
        (r#""\udc00""#, "lone low surrogate"),
        (r#""\udfff\ud800""#, "lone low surrogate"),
        (r#"{"cmd":"stats","x":"\ud83c"}"#, "lone high surrogate"),
    ] {
        assert_eq!(Json::parse(text).map_err(|e| e.message), Err(message), "{text}");
    }
    // A proper pair decodes.
    assert_eq!(Json::parse(r#""\ud83c\udf0d""#).unwrap().as_str(), Some("🌍"));
}

#[test]
fn invalid_escapes_are_typed_errors() {
    for (text, message) in [
        (r#""\q""#, "invalid escape"),
        (r#""\x41""#, "invalid escape"),
        (r#""\U0041""#, "invalid escape"),
        (r#""\u12""#, "truncated unicode escape"),
        (r#""\u12xy""#, "invalid hex digit"),
        (r#""\u12G4""#, "invalid hex digit"),
        (r#""\u12"#, "truncated unicode escape"),
        ("\"\\", "invalid escape"), // a backslash at the end of input
        (r#"{"cmd\q":"stats"}"#, "invalid escape"),
    ] {
        assert_eq!(Json::parse(text).map_err(|e| e.message), Err(message), "{text}");
        assert_eq!(drive(text.as_bytes()), Outcome::InvalidJson(message), "{text}");
    }
}
