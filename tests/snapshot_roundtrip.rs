//! Snapshot persistence: round-trip bit-parity against a freshly built
//! corpus, v1 ↔ v2 ↔ v3 compatibility (v3 = v2 plus an optional
//! quantized-arena section), zero-copy (mmap) vs owned load
//! parity, and robustness of the decoder against malformed files —
//! truncation, bad magic, wrong version, corrupted payloads, bad
//! padding, misaligned arenas, and a v1 file fed to the v2 fast path
//! must all surface as typed [`SnapshotError`]s, never panics or
//! unaligned casts.

use de_health::core::index::AttributeIndex;
use de_health::core::refined::{ClassifierKind, RefinedContext};
use de_health::corpus::snapshot::{
    ParseOptions, SnapshotError, SnapshotReader, ALIGN, MAGIC, V1, V2, V3, VERSION,
};
use de_health::corpus::split::{closed_world_split, SplitConfig};
use de_health::corpus::{Forum, ForumConfig};
use de_health::mapped::ByteSource;
use de_health::service::{LoadMode, PreparedCorpus};

fn built_corpus(classifier: ClassifierKind) -> PreparedCorpus {
    let forum = Forum::generate(&ForumConfig::tiny(), 42);
    let split = closed_world_split(&forum, &SplitConfig::fraction(0.5), 7);
    PreparedCorpus::build(split.auxiliary, classifier)
}

#[test]
fn roundtrip_is_bit_identical_to_fresh_build() {
    for classifier in [ClassifierKind::default(), ClassifierKind::Centroid] {
        let fresh = built_corpus(classifier);
        let bytes = fresh.to_snapshot_bytes();
        let loaded = PreparedCorpus::from_snapshot_bytes(&bytes).unwrap();

        // The loaded corpus re-serializes to the identical byte stream:
        // forum, per-post features, attribute index and refined context
        // all round-trip bit for bit (floats are stored as raw IEEE-754
        // bits).
        assert_eq!(loaded.to_snapshot_bytes(), bytes, "{classifier:?}");

        // And the derived state matches the freshly built corpus
        // structurally.
        assert_eq!(loaded.n_users(), fresh.n_users());
        assert_eq!(loaded.n_posts(), fresh.n_posts());
        assert_eq!(loaded.index().n_postings(), fresh.index().n_postings());
        assert_eq!(loaded.context().is_sparse(), fresh.context().is_sparse());
        assert_eq!(loaded.uda().present_users(), fresh.uda().present_users());
    }
}

#[test]
fn file_roundtrip_via_save_and_load() {
    let fresh = built_corpus(ClassifierKind::default());
    let path = std::env::temp_dir().join("dehealth-snapshot-roundtrip-test.snap");
    fresh.save(&path).unwrap();
    let (loaded, seconds) = PreparedCorpus::load_timed(&path).unwrap();
    assert!(seconds >= 0.0);
    assert_eq!(loaded.to_snapshot_bytes(), fresh.to_snapshot_bytes());
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn truncated_files_return_typed_errors_at_every_length() {
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    // Every proper prefix must fail with a *typed* error — mostly
    // Truncated, with ChecksumMismatch for prefixes that cut inside a
    // trailing checksum's section, and never a panic. Sampling every
    // offset would be slow; probe a spread plus all boundaries.
    let probes: Vec<usize> =
        (0..bytes.len()).step_by(97).chain([0, 1, 7, 8, 15, 16, 27, bytes.len() - 1]).collect();
    for n in probes {
        match PreparedCorpus::from_snapshot_bytes(&bytes[..n]) {
            Err(
                SnapshotError::Truncated { .. }
                | SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::MissingSection(_)
                | SnapshotError::BadMagic,
            ) => {}
            other => panic!("prefix of {n} bytes: expected a typed error, got {other:?}"),
        }
    }
}

#[test]
fn bad_magic_is_rejected() {
    let mut bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    bytes[..MAGIC.len()].copy_from_slice(b"NOTSNAP!");
    assert!(matches!(PreparedCorpus::from_snapshot_bytes(&bytes), Err(SnapshotError::BadMagic)));
}

#[test]
fn wrong_version_is_rejected() {
    let mut bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    let future = VERSION + 41;
    bytes[8..10].copy_from_slice(&future.to_le_bytes());
    assert!(matches!(
        PreparedCorpus::from_snapshot_bytes(&bytes),
        Err(SnapshotError::UnsupportedVersion(v)) if v == future
    ));
}

#[test]
fn corrupted_payload_fails_its_checksum() {
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    // Flip one byte at a spread of payload offsets; every corruption must
    // surface as a checksum mismatch (the header itself is covered by the
    // magic/version/truncation tests above).
    for at in (20..bytes.len()).step_by((bytes.len() / 23).max(1)) {
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 0x5a;
        match PreparedCorpus::from_snapshot_bytes(&corrupted) {
            Err(
                SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Truncated { .. }
                | SnapshotError::Malformed { .. }
                | SnapshotError::MissingSection(_),
            ) => {}
            Ok(_) => panic!("corruption at byte {at} went undetected"),
            other => panic!("corruption at byte {at}: unexpected {other:?}"),
        }
    }
}

#[test]
fn io_errors_are_propagated() {
    let missing = std::env::temp_dir().join("dehealth-no-such-snapshot.snap");
    assert!(matches!(PreparedCorpus::load(&missing), Err(SnapshotError::Io(_))));
    assert!(matches!(
        PreparedCorpus::load_with(&missing, LoadMode::Mapped),
        Err(SnapshotError::Io(_))
    ));
}

#[test]
fn current_snapshots_are_v2_with_aligned_sections() {
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), V2);
    assert_eq!(VERSION, V2);
    // The in-header alignment guarantee.
    assert_eq!(u16::from_le_bytes([bytes[10], bytes[11]]) as usize, ALIGN);
    let reader = SnapshotReader::parse(&bytes).unwrap();
    assert_eq!(reader.version(), V2);
}

#[test]
fn v1_files_still_load_bit_exact_via_the_copying_path() {
    for classifier in [ClassifierKind::default(), ClassifierKind::Centroid] {
        let fresh = built_corpus(classifier);
        let v1 = fresh.to_snapshot_bytes_v1();
        assert_eq!(u16::from_le_bytes([v1[8], v1[9]]), V1);
        // Borrowed-bytes decode (version-dispatched inside).
        let loaded = PreparedCorpus::from_snapshot_bytes(&v1).unwrap();
        assert!(!loaded.is_mapped());
        assert_eq!(loaded.to_snapshot_bytes_v1(), v1, "{classifier:?}");
        assert_eq!(loaded.to_snapshot_bytes(), fresh.to_snapshot_bytes(), "{classifier:?}");
        // A v1 file handed to the *mapped* load mode falls back to the
        // copying path gracefully — still correct, just not borrowed.
        let path = std::env::temp_dir().join("dehealth-snapshot-v1-compat-test.snap");
        std::fs::write(&path, &v1).unwrap();
        let loaded = PreparedCorpus::load_with(&path, LoadMode::Mapped).unwrap();
        assert!(!loaded.is_mapped());
        assert_eq!(loaded.to_snapshot_bytes(), fresh.to_snapshot_bytes());
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn v1_payloads_fed_to_the_v2_fast_path_yield_typed_errors() {
    // The strict v2 decoders must reject a v1-schema payload with a
    // typed error, never a panic or a misinterpretation.
    let corpus = built_corpus(ClassifierKind::default());
    let v1 = corpus.to_snapshot_bytes_v1();
    let reader = SnapshotReader::parse(&v1).unwrap();
    assert_eq!(reader.version(), V1);
    let mut s = reader.section(de_health::service::corpus::SECTION_INDEX).unwrap();
    match AttributeIndex::decode_v2(&mut s, None) {
        Err(
            SnapshotError::Malformed { .. }
            | SnapshotError::Truncated { .. }
            | SnapshotError::Misaligned { .. },
        ) => {}
        other => panic!("v1 index payload through the v2 decoder: {other:?}"),
    }
    let mut s = reader.section(de_health::service::corpus::SECTION_CONTEXT).unwrap();
    match RefinedContext::decode_v2(&mut s, None) {
        Err(
            SnapshotError::Malformed { .. }
            | SnapshotError::Truncated { .. }
            | SnapshotError::Misaligned { .. },
        ) => {}
        other => panic!("v1 context payload through the v2 decoder: {other:?}"),
    }
}

#[test]
fn mapped_and_owned_loads_restore_identical_corpora() {
    for classifier in [ClassifierKind::default(), ClassifierKind::Centroid] {
        let fresh = built_corpus(classifier);
        let path = std::env::temp_dir().join(format!(
            "dehealth-snapshot-mapped-parity-{}.snap",
            if fresh.context().is_sparse() { "sparse" } else { "dense" }
        ));
        fresh.save(&path).unwrap();
        let owned = PreparedCorpus::load_with(&path, LoadMode::Owned).unwrap();
        let mapped = PreparedCorpus::load_with(&path, LoadMode::Mapped).unwrap();
        assert!(mapped.is_mapped() && !owned.is_mapped(), "{classifier:?}");
        assert_eq!(mapped.to_snapshot_bytes(), owned.to_snapshot_bytes(), "{classifier:?}");
        assert_eq!(mapped.to_snapshot_bytes(), fresh.to_snapshot_bytes(), "{classifier:?}");
        // The whole index/context footprint stays in the file mapping.
        let stats = mapped.memory_stats();
        assert_eq!(stats.resident_arena_bytes, 0, "{classifier:?}");
        assert!(stats.borrowed_arena_bytes > 0, "{classifier:?}");
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn v3_quantized_snapshots_roundtrip_owned_and_mapped() {
    let mut fresh = built_corpus(ClassifierKind::default());
    assert!(fresh.quantized().is_none());
    assert!(fresh.ensure_quantized());
    let bytes = fresh.to_snapshot_bytes();
    // A corpus carrying quantized arenas serializes as v3 with the QCTX
    // section appended after the v2 layout.
    assert_eq!(u16::from_le_bytes([bytes[8], bytes[9]]), V3);
    assert_eq!(SnapshotReader::parse(&bytes).unwrap().version(), V3);

    // Owned load restores the quantized mirror and re-serializes to the
    // identical v3 byte stream.
    let loaded = PreparedCorpus::from_snapshot_bytes(&bytes).unwrap();
    let q = loaded.quantized().expect("v3 QCTX section restores the quantized mirror");
    assert!(q.matches_context(loaded.context()));
    assert_eq!(loaded.to_snapshot_bytes(), bytes);

    // Mapped load keeps the quantized arenas borrowed from the mapping.
    let path = std::env::temp_dir().join("dehealth-snapshot-v3-roundtrip-test.snap");
    std::fs::write(&path, &bytes).unwrap();
    let mapped = PreparedCorpus::load_with(&path, LoadMode::Mapped).unwrap();
    assert!(mapped.is_mapped());
    let q = mapped.quantized().expect("mapped v3 load restores the quantized mirror");
    assert!(q.is_borrowed(), "mapped load must not copy the quantized arenas");
    assert!(q.matches_context(mapped.context()));
    assert_eq!(mapped.to_snapshot_bytes(), bytes);
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn v2_and_sectionless_v3_files_load_without_a_quantized_mirror() {
    // A plain v2 file (today's default for unquantized corpora) loads
    // everywhere with `quantized() == None`.
    let fresh = built_corpus(ClassifierKind::default());
    let v2 = fresh.to_snapshot_bytes();
    assert_eq!(u16::from_le_bytes([v2[8], v2[9]]), V2);
    assert!(PreparedCorpus::from_snapshot_bytes(&v2).unwrap().quantized().is_none());

    // A v3 file *without* the optional QCTX section is layout-identical
    // to v2 (the 16-byte header carries the version but is not covered
    // by a section checksum), and degrades gracefully: it loads with no
    // quantized mirror and re-serializes as v2.
    let mut v3 = v2.clone();
    v3[8..10].copy_from_slice(&V3.to_le_bytes());
    let loaded = PreparedCorpus::from_snapshot_bytes(&v3).unwrap();
    assert!(loaded.quantized().is_none());
    assert_eq!(loaded.to_snapshot_bytes(), v2, "no mirror, so it re-serializes as v2");

    // Versions beyond v3 stay typed errors.
    let mut v4 = v2.clone();
    v4[8..10].copy_from_slice(&4u16.to_le_bytes());
    assert!(matches!(
        PreparedCorpus::from_snapshot_bytes(&v4),
        Err(SnapshotError::UnsupportedVersion(4))
    ));
}

#[test]
fn v3_quantized_section_must_match_its_context() {
    // Corrupting the QCTX payload either trips its checksum or — when the
    // bytes still parse — fails the quantized/context cross-check with a
    // typed Malformed error. Never an inconsistent corpus.
    let mut fresh = built_corpus(ClassifierKind::default());
    assert!(fresh.ensure_quantized());
    let bytes = fresh.to_snapshot_bytes();
    let v2_len = {
        let plain = built_corpus(ClassifierKind::default());
        assert!(plain.quantized().is_none());
        plain.to_snapshot_bytes().len()
    };
    assert!(bytes.len() > v2_len, "QCTX section must extend the file");
    for at in (v2_len + 16..bytes.len()).step_by(((bytes.len() - v2_len) / 11).max(1)) {
        let mut corrupted = bytes.clone();
        corrupted[at] ^= 0x5a;
        match PreparedCorpus::from_snapshot_bytes(&corrupted) {
            Err(
                SnapshotError::ChecksumMismatch { .. }
                | SnapshotError::Malformed { .. }
                | SnapshotError::Truncated { .. }
                | SnapshotError::Misaligned { .. },
            ) => {}
            Ok(_) => panic!("QCTX corruption at byte {at} went undetected"),
            other => panic!("QCTX corruption at byte {at}: unexpected {other:?}"),
        }
    }
}

#[test]
fn corrupt_forum_counts_are_refused_before_decoding_on_both_load_paths() {
    // The forum section's user and thread counts size allocations before
    // any cross-section check can bound them: decoded, `u32::MAX` users
    // would ask for ~100 GB. Both loads must catch the corruption by the
    // forum's checksum first, the mapped one included.
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    assert_eq!(&bytes[16..20], b"FORM", "the forum is the first section");
    let forum = de_health::service::corpus::SECTION_FORUM;
    // Its payload starts after the 16-byte container and section headers
    // with the user count, then the thread count.
    for field in [32..36, 36..40] {
        let mut bad = bytes.clone();
        bad[field.clone()].copy_from_slice(&u32::MAX.to_le_bytes());
        match PreparedCorpus::from_shared_bytes(&ByteSource::from_vec(bad.clone())) {
            Err(SnapshotError::ChecksumMismatch { tag }) if tag == forum => {}
            other => panic!("mapped load of forum field {field:?}: got {other:?}"),
        }
        match PreparedCorpus::from_snapshot_bytes(&bad) {
            Err(SnapshotError::ChecksumMismatch { tag }) if tag == forum => {}
            other => panic!("owned load of forum field {field:?}: got {other:?}"),
        }
    }
}

#[test]
fn misaligned_backing_yields_a_typed_error_not_an_unaligned_cast() {
    // Shift a valid v2 snapshot by 4 bytes inside an 8-aligned buffer:
    // every u64/f64 arena offset is now misaligned in memory. The strict
    // zero-copy decoders must answer with `SnapshotError::Misaligned`.
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    let mut shifted = vec![0u8; 4];
    shifted.extend_from_slice(&bytes);
    let backing = ByteSource::from_vec(shifted);
    let snapshot = &backing.bytes()[4..];
    let reader = SnapshotReader::parse(snapshot).unwrap();
    let mut s = reader.section(de_health::service::corpus::SECTION_INDEX).unwrap();
    match AttributeIndex::decode_v2(&mut s, Some(&backing)) {
        Err(SnapshotError::Misaligned { .. }) => {}
        other => panic!("misaligned index arena must be refused, got {other:?}"),
    }
    let mut s = reader.section(de_health::service::corpus::SECTION_CONTEXT).unwrap();
    match RefinedContext::decode_v2(&mut s, Some(&backing)) {
        Err(SnapshotError::Misaligned { .. }) => {}
        other => panic!("misaligned context arena must be refused, got {other:?}"),
    }
}

#[test]
fn nonzero_v2_padding_is_rejected() {
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    // Corrupt the first section header's padding (fixed offset 20..24).
    let mut bad = bytes.clone();
    bad[21] = 0x5a;
    assert!(matches!(
        PreparedCorpus::from_snapshot_bytes(&bad),
        Err(SnapshotError::Malformed { context: "nonzero section header padding" })
    ));
    // Walk the section table to find a section with payload padding and
    // corrupt the first pad byte.
    let mut at = 16usize;
    let mut patched = None;
    while at + 16 <= bytes.len() {
        let len = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap()) as usize;
        let payload_end = at + 16 + len;
        let pad = len.wrapping_neg() % ALIGN;
        if pad > 0 {
            patched = Some(payload_end);
            break;
        }
        at = payload_end + pad + 8;
    }
    let payload_end = patched.expect("at least one section has payload padding");
    let mut bad = bytes.clone();
    bad[payload_end] = 0xff;
    assert!(matches!(
        PreparedCorpus::from_snapshot_bytes(&bad),
        Err(SnapshotError::Malformed { context: "nonzero section padding" })
    ));
}

#[test]
fn truncated_aligned_tails_are_typed_errors() {
    // Cut a v2 file inside the final checksum, inside the final padding,
    // and on the padding boundary — all must be `Truncated`, and the
    // zero-copy (trusting) parse must agree with the verified one.
    let bytes = built_corpus(ClassifierKind::default()).to_snapshot_bytes();
    for cut in [bytes.len() - 1, bytes.len() - 7, bytes.len() - 9, bytes.len() - 16] {
        let prefix = &bytes[..cut];
        assert!(matches!(
            PreparedCorpus::from_snapshot_bytes(prefix),
            Err(SnapshotError::Truncated { .. })
        ));
        assert!(matches!(
            SnapshotReader::parse_with(prefix, &ParseOptions::trusting()),
            Err(SnapshotError::Truncated { .. })
        ));
    }
}

#[test]
fn error_display_is_informative() {
    let text = format!("{}", SnapshotError::BadMagic);
    assert!(text.contains("magic"));
    let text = format!("{}", SnapshotError::UnsupportedVersion(9));
    assert!(text.contains('9'));
    let text = format!("{}", SnapshotError::Truncated { context: "section payload" });
    assert!(text.contains("section payload"));
}
