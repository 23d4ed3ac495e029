//! The paper's answer-quality metrics, computed from an attack's mapping
//! and candidate sets against the split's ground-truth [`Oracle`].
//!
//! Daemon workloads attack the anonymized side in slices of consecutive
//! users renumbered from 0, so each slice's answers are shifted back by
//! the slice's offset before the oracle is consulted. [`self_test`] pins
//! this code to the reference, `AttackOutcome::evaluate`.

use dehealth_core::refined::Verification;
use dehealth_core::{AttackConfig, ClassifierKind, DeHealth};
use dehealth_corpus::{
    closed_world_split, open_world_split, Forum, ForumConfig, Oracle, SplitConfig,
};
use dehealth_engine::{Engine, EngineConfig};
use dehealth_service::PreparedCorpus;

/// Tallies behind Top-K hit rate, DA accuracy and false-positive rate.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Quality {
    /// Anonymized users with a true mapping.
    pub overlapping: usize,
    /// Overlapping users whose true mapping is in the candidate set.
    pub candidate_hits: usize,
    /// Overlapping users mapped to their true identity.
    pub correct: usize,
    /// Anonymized users with no true mapping.
    pub non_overlapping: usize,
    /// Non-overlapping users mapped to somebody.
    pub false_positives: usize,
}

impl Quality {
    /// Score one slice's answers: `mapping[i]` and `candidates[i]` belong
    /// to anonymized user `offset + i`.
    pub fn add_slice(
        &mut self,
        oracle: &Oracle,
        offset: usize,
        mapping: &[Option<usize>],
        candidates: &[Vec<usize>],
    ) {
        assert_eq!(mapping.len(), candidates.len(), "mapping/candidates length mismatch");
        for (i, (mapped, cands)) in mapping.iter().zip(candidates).enumerate() {
            match oracle.true_mapping(offset + i) {
                Some(truth) => {
                    self.overlapping += 1;
                    self.candidate_hits += usize::from(cands.contains(&truth));
                    self.correct += usize::from(*mapped == Some(truth));
                }
                None => {
                    self.non_overlapping += 1;
                    self.false_positives += usize::from(mapped.is_some());
                }
            }
        }
    }

    /// Share of overlapping users whose true mapping survived into the
    /// final candidate set.
    #[must_use]
    pub fn topk_hit_rate(&self) -> f64 {
        ratio(self.candidate_hits, self.overlapping)
    }

    /// DA accuracy `Y_c / Y`.
    #[must_use]
    pub fn da_accuracy(&self) -> f64 {
        ratio(self.correct, self.overlapping)
    }

    /// Share of non-overlapping users mapped to somebody (0 in a closed
    /// world).
    #[must_use]
    pub fn fp_rate(&self) -> f64 {
        ratio(self.false_positives, self.non_overlapping)
    }
}

fn ratio(num: usize, den: usize) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Check [`Quality`] against `AttackOutcome::evaluate` on
/// `ForumConfig::tiny()`, closed and open world: once on the serial
/// reference's own answers cut into offset slices, once on the engine's
/// answers for the whole anonymized side. Every value must match
/// exactly.
///
/// # Errors
/// A description of the first mismatch.
pub fn self_test() -> Result<(), String> {
    let forum = Forum::generate(&ForumConfig::tiny(), 42);
    let closed = closed_world_split(&forum, &SplitConfig::fraction(0.7), 7);
    let open = open_world_split(&forum, 0.7, 7);
    let worlds =
        [("closed", closed, Verification::None), ("open", open, Verification::Mean { r: 0.25 })];
    for (world, split, verification) in worlds {
        let attack =
            AttackConfig { top_k: 10, n_landmarks: 30, verification, ..AttackConfig::default() };
        let outcome = DeHealth::new(attack.clone()).run(&split.auxiliary, &split.anonymized);
        let reference = outcome.evaluate(&split.oracle);
        let expected = [reference.candidate_hit_rate(), reference.accuracy(), reference.fp_rate()];

        let mut sliced = Quality::default();
        let n = outcome.mapping.len();
        for offset in (0..n).step_by(7) {
            let end = (offset + 7).min(n);
            sliced.add_slice(
                &split.oracle,
                offset,
                &outcome.mapping[offset..end],
                &outcome.candidates[offset..end],
            );
        }

        let corpus = PreparedCorpus::build(split.auxiliary.clone(), ClassifierKind::default());
        let engine = Engine::new(EngineConfig { attack, ..EngineConfig::default() });
        let served = corpus.attack(&engine, &split.anonymized);
        let mut whole = Quality::default();
        whole.add_slice(&split.oracle, 0, &served.mapping, &served.candidates);

        for (how, q) in [("sliced serial", sliced), ("engine", whole)] {
            let got = [q.topk_hit_rate(), q.da_accuracy(), q.fp_rate()];
            if got.map(f64::to_bits) != expected.map(f64::to_bits) {
                return Err(format!(
                    "{world} world, {how} answers: (topk_hit_rate, da_accuracy, fp_rate) = \
                     {got:?}, evaluate() gives {expected:?}"
                ));
            }
        }
        if world == "open" && reference.n_non_overlapping == 0 {
            return Err("open-world self-test split has no non-overlapping users".into());
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_metrics_match_evaluate_on_tiny_closed_and_open_worlds() {
        self_test().unwrap();
    }

    #[test]
    fn slices_are_shifted_back_by_their_offset() {
        let forum = Forum::generate(&ForumConfig::tiny(), 3);
        let split = closed_world_split(&forum, &SplitConfig::fraction(0.7), 5);
        let truth: Vec<Option<usize>> =
            (0..split.oracle.len()).map(|u| split.oracle.true_mapping(u)).collect();
        let candidates: Vec<Vec<usize>> =
            truth.iter().map(|t| t.iter().copied().collect()).collect();
        let mut q = Quality::default();
        q.add_slice(&split.oracle, 0, &truth[..4], &candidates[..4]);
        q.add_slice(&split.oracle, 4, &truth[4..], &candidates[4..]);
        assert_eq!((q.topk_hit_rate(), q.da_accuracy()), (1.0, 1.0));
        // The same answers scored without the shift are (almost all) wrong.
        let mut unshifted = Quality::default();
        unshifted.add_slice(&split.oracle, 0, &truth[4..], &candidates[4..]);
        assert!(unshifted.da_accuracy() < 0.5);
    }
}
