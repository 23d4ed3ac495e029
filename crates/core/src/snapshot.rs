//! Snapshot codecs for the attack's per-post feature vectors.
//!
//! The container format (magic/version header, checksummed sections,
//! little-endian primitives) lives in [`dehealth_corpus::snapshot`]; the
//! derived attack structures serialize themselves
//! ([`AttributeIndex::encode`](crate::index::AttributeIndex::encode),
//! [`RefinedContext::encode`](crate::refined::RefinedContext::encode)).
//! This module adds the one codec that belongs to neither: the per-post
//! [`FeatureVector`] lists that every derived structure is computed from.
//! Persisting them is what lets a reload skip stylometric feature
//! extraction — by far the most expensive part of preparing a corpus.

use dehealth_corpus::snapshot::{SectionReader, SectionWrite, SnapshotError};
use dehealth_stylometry::FeatureVector;

/// Encode per-post feature vectors: a count, then each vector as its
/// non-zero `(index u32, value f64-bits)` entry list.
///
/// # Panics
/// Panics if there are more than `u32::MAX` vectors or entries per vector
/// (beyond any supported corpus).
pub fn encode_features<W: SectionWrite>(features: &[FeatureVector], buf: &mut W) {
    buf.put_u32(u32::try_from(features.len()).expect("feature count overflows u32"));
    for v in features {
        buf.put_u32(u32::try_from(v.nnz()).expect("entry count overflows u32"));
        for (i, x) in v.iter_nonzero() {
            buf.put_u32(u32::try_from(i).expect("feature index overflows u32"));
            buf.put_f64(x);
        }
    }
}

/// Decode feature vectors written by [`encode_features`], revalidating
/// the sparse-vector invariants (strictly ascending in-range indices,
/// non-zero finite values) through
/// [`FeatureVector::try_from_sorted_entries`].
///
/// # Errors
/// [`SnapshotError::Truncated`] or [`SnapshotError::Malformed`] on
/// malformed payloads; never panics.
pub fn decode_features(r: &mut SectionReader<'_>) -> Result<Vec<FeatureVector>, SnapshotError> {
    let n = r.take_u32()? as usize;
    if n > r.remaining() / 4 {
        return Err(SnapshotError::Malformed { context: "implausible feature-vector count" });
    }
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        let nnz = r.take_u32()? as usize;
        if nnz > r.remaining() / 12 {
            return Err(SnapshotError::Malformed { context: "implausible entry count" });
        }
        let mut entries = Vec::with_capacity(nnz);
        for e in r.take_raw(nnz * 12)?.chunks_exact(12) {
            let i = u32::from_le_bytes([e[0], e[1], e[2], e[3]]);
            let v = f64::from_le_bytes([e[4], e[5], e[6], e[7], e[8], e[9], e[10], e[11]]);
            entries.push((i, v));
        }
        out.push(
            FeatureVector::try_from_sorted_entries(entries)
                .map_err(|_| SnapshotError::Malformed { context: "invalid feature vector" })?,
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::snapshot::{SectionTag, SnapshotReader, SnapshotWriter};
    use dehealth_stylometry::extract;

    const TAG: SectionTag = SectionTag(*b"TEST");

    fn roundtrip(features: &[FeatureVector]) -> Result<Vec<FeatureVector>, SnapshotError> {
        let mut w = SnapshotWriter::new();
        encode_features(features, w.section(TAG));
        let bytes = w.finish();
        let reader = SnapshotReader::parse(&bytes)?;
        let mut s = reader.section(TAG)?;
        let out = decode_features(&mut s)?;
        s.expect_end()?;
        Ok(out)
    }

    #[test]
    fn extracted_features_roundtrip_bit_exact() {
        let features: Vec<FeatureVector> = [
            "I realy hate this migrane pain!",
            "rest helps a lot, the doctor said so.",
            "",
            "20 mg twice a day & water",
        ]
        .iter()
        .map(|t| extract(t))
        .collect();
        let back = roundtrip(&features).unwrap();
        assert_eq!(back.len(), features.len());
        for (a, b) in back.iter().zip(&features) {
            assert_eq!(a.nnz(), b.nnz());
            for ((i, x), (j, y)) in a.iter_nonzero().zip(b.iter_nonzero()) {
                assert_eq!(i, j);
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn corrupt_entries_are_rejected_not_panicked() {
        // Hand-craft a payload with a descending index pair.
        let mut w = SnapshotWriter::new();
        let s = w.section(TAG);
        s.put_u32(1); // one vector
        s.put_u32(2); // two entries
        s.put_u32(5);
        s.put_f64(1.0);
        s.put_u32(3); // descending
        s.put_f64(1.0);
        let bytes = w.finish();
        let reader = SnapshotReader::parse(&bytes).unwrap();
        let mut s = reader.section(TAG).unwrap();
        assert!(matches!(
            decode_features(&mut s),
            Err(SnapshotError::Malformed { context: "invalid feature vector" })
        ));
    }
}
