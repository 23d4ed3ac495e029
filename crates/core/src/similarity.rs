//! Structural similarity `s_uv = c1·s^d_uv + c2·s^s_uv + c3·s^a_uv`
//! (Section III-B).
//!
//! - `s^d` (degree similarity): `min(d_u,d_v)/max(d_u,d_v) +
//!   min(wd_u,wd_v)/max(wd_u,wd_v) + cos(D_u, D_v)` with NCS vectors
//!   zero-padded to a common length;
//! - `s^s` (distance similarity): `cos(H_u(S1), H_v(S2)) +
//!   cos(WH_u(S1), WH_v(S2))` over landmark closeness vectors;
//! - `s^a` (attribute similarity): Jaccard plus weighted Jaccard of the
//!   user attribute sets.
//!
//! The per-user inputs of `s^d` and `s^s` — degrees, weighted degrees,
//! NCS and landmark-closeness vectors and their Euclidean norms — live in
//! one [`StructuralState`] per side, computed once. An auxiliary side's
//! state does not depend on the anonymized side, so a standing corpus
//! builds it once and lends it to every attack
//! ([`SimilarityEngine::with_aux_state`]).

use std::borrow::Cow;

use crate::uda::UdaGraph;

/// The `c1, c2, c3` weights of the combined similarity. The paper's
/// default is `(0.05, 0.05, 0.9)`: degree and distance carry little signal
/// in sparse disconnected health-forum graphs, so attributes dominate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimilarityWeights {
    /// Weight of the degree similarity `s^d`.
    pub c1: f64,
    /// Weight of the distance similarity `s^s`.
    pub c2: f64,
    /// Weight of the attribute similarity `s^a`.
    pub c3: f64,
}

impl Default for SimilarityWeights {
    fn default() -> Self {
        Self { c1: 0.05, c2: 0.05, c3: 0.9 }
    }
}

impl SimilarityWeights {
    /// Upper bound on a pair's structural term `c1·s^d + c2·s^s` given
    /// its degree ratios `d + wd` ([`SimilarityEngine::degree_ratios`]):
    /// `c1·(d + wd + 1) + c2·2`, every cosine at its clamp of 1. `f64`
    /// addition and multiplication by a non-negative weight are
    /// monotone, so with the score's own association this is never below
    /// the rounded term. The structural vectors (edge weights, landmark
    /// closeness) are non-negative, so every cosine lies in `[0, 1]` and
    /// a negative weight contributes its maximum, 0.
    /// At `degree_ratios = 2` (the ratios' own cap) it is the global
    /// structural bound `c1·3 + c2·2`.
    pub(crate) fn structural_ceiling(&self, degree_ratios: f64) -> f64 {
        let td = if self.c1 >= 0.0 { self.c1 * (degree_ratios + 1.0) } else { 0.0 };
        let ts = if self.c2 >= 0.0 { self.c2 * 2.0 } else { 0.0 };
        td + ts
    }
}

/// Leading NCS components coded exactly in [`QuantizedStructural`];
/// everything beyond is folded into a tail norm and bounded via
/// Cauchy–Schwarz. NCS vectors are sorted decreasing, so the prefix
/// carries the mass that matters.
const NCS_PREFIX: usize = 32;

/// Additive slack applied to a quantized cosine before it is used as a
/// score ceiling, covering u8 rounding (≤ `0.5/255` per component,
/// amplified through the norm ratio).
const QUANT_COS_SLACK: f64 = 0.02;

/// Ratio `min/max` with the convention that two zeros are perfectly
/// similar.
fn ratio(a: f64, b: f64) -> f64 {
    let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
    if hi == 0.0 {
        1.0
    } else {
        lo / hi
    }
}

/// Euclidean norm, summed in the order [`padded_cosine`] sums it.
fn norm(a: &[f64]) -> f64 {
    a.iter().map(|x| x * x).sum::<f64>().sqrt()
}

/// Cosine of two equal-or-different length vectors, zero-padding the
/// shorter one (the paper: "we pad the short vector with zeros").
///
/// Clamped to at most 1.0: rounding can push `dot / (na·nb)` a few ulps
/// past 1 for near-parallel vectors, and the indexed scorer's pruning
/// bounds ([`crate::index`]) rely on every cosine being `≤ 1` *exactly*
/// in `f64` arithmetic.
#[must_use]
pub fn padded_cosine(a: &[f64], b: &[f64]) -> f64 {
    let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    let na: f64 = a.iter().map(|x| x * x).sum::<f64>().sqrt();
    let nb: f64 = b.iter().map(|x| x * x).sum::<f64>().sqrt();
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        (dot / (na * nb)).min(1.0)
    }
}

/// [`padded_cosine`] with both norms supplied (as computed by [`norm`]):
/// the same `f64` operations in the same order, so the result is bit for
/// bit the same (pinned by a property test), minus the two norm sums.
fn normed_cosine(a: &[f64], na: f64, b: &[f64], nb: f64) -> f64 {
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    let dot: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
    (dot / (na * nb)).min(1.0)
}

/// Variable-length `f64` rows in one contiguous arena, each with its
/// Euclidean norm.
#[derive(Debug, Clone)]
struct NormedRows {
    values: Vec<f64>,
    /// Row `i` is `values[starts[i]..starts[i + 1]]`.
    starts: Vec<usize>,
    norms: Vec<f64>,
}

impl NormedRows {
    fn from_rows(rows: impl IntoIterator<Item = Vec<f64>>) -> Self {
        let mut out = Self { values: Vec::new(), starts: vec![0], norms: Vec::new() };
        for row in rows {
            out.norms.push(norm(&row));
            out.values.extend_from_slice(&row);
            out.starts.push(out.values.len());
        }
        out
    }

    fn row(&self, i: usize) -> &[f64] {
        &self.values[self.starts[i]..self.starts[i + 1]]
    }

    fn rows(&self) -> impl Iterator<Item = &[f64]> + '_ {
        self.starts.windows(2).map(|w| &self.values[w[0]..w[1]])
    }

    /// [`padded_cosine`] of `self[i]` and `other[j]` off the cached norms.
    fn cosine(&self, i: usize, other: &Self, j: usize) -> f64 {
        normed_cosine(self.row(i), self.norms[i], other.row(j), other.norms[j])
    }
}

/// The per-user structural inputs of one side of the similarity: degrees
/// and weighted degrees, NCS vectors, and landmark-closeness vectors
/// against that side's own `n_landmarks` landmarks — each vector stored
/// in a flat arena next to its Euclidean norm.
///
/// Built once per side ([`Self::build`]); nothing in it depends on the
/// other side, the similarity weights, or any request, so a standing
/// auxiliary corpus builds its state once per landmark count.
#[derive(Debug, Clone)]
pub struct StructuralState {
    n_landmarks: usize,
    degrees: Vec<f64>,
    weighted_degrees: Vec<f64>,
    ncs: NormedRows,
    hops: NormedRows,
    whops: NormedRows,
}

impl StructuralState {
    /// Select `n_landmarks` landmarks of `uda` and precompute every
    /// user's degrees, NCS and landmark-closeness vectors and norms.
    #[must_use]
    pub fn build(uda: &UdaGraph, n_landmarks: usize) -> Self {
        let landmarks = uda.landmarks(n_landmarks);
        let (hops, whops) = uda.landmark_closeness(&landmarks);
        let graph = &uda.graph;
        let n = uda.n_users();
        Self {
            n_landmarks,
            degrees: (0..n).map(|u| graph.degree(u) as f64).collect(),
            weighted_degrees: (0..n).map(|u| graph.weighted_degree(u)).collect(),
            ncs: NormedRows::from_rows((0..n).map(|u| graph.ncs_vector(u))),
            hops: NormedRows::from_rows(hops),
            whops: NormedRows::from_rows(whops),
        }
    }

    /// Number of users covered.
    #[must_use]
    pub fn n_users(&self) -> usize {
        self.degrees.len()
    }

    /// The landmark count this state was built for.
    #[must_use]
    pub fn n_landmarks(&self) -> usize {
        self.n_landmarks
    }

    /// `min/max(d) + min/max(wd)` of user `u` here and `v` in `other`.
    fn degree_ratios(&self, u: usize, other: &Self, v: usize) -> f64 {
        ratio(self.degrees[u], other.degrees[v])
            + ratio(self.weighted_degrees[u], other.weighted_degrees[v])
    }

    /// `cos(D_u, D_v)`.
    fn ncs_cosine(&self, u: usize, other: &Self, v: usize) -> f64 {
        self.ncs.cosine(u, &other.ncs, v)
    }

    /// `s^s_uv = cos(H_u, H_v) + cos(WH_u, WH_v)`.
    fn distance_similarity(&self, u: usize, other: &Self, v: usize) -> f64 {
        self.hops.cosine(u, &other.hops, v) + self.whops.cosine(u, &other.whops, v)
    }
}

/// Pairwise similarity engine between an anonymized and an auxiliary UDA
/// graph.
#[derive(Debug)]
pub struct SimilarityEngine<'a> {
    anon: &'a UdaGraph,
    aux: &'a UdaGraph,
    weights: SimilarityWeights,
    anon_state: StructuralState,
    aux_state: Cow<'a, StructuralState>,
}

impl<'a> SimilarityEngine<'a> {
    /// Prepare the engine: select `n_landmarks` landmarks on each side and
    /// precompute both sides' [`StructuralState`]s.
    #[must_use]
    pub fn new(
        anon: &'a UdaGraph,
        aux: &'a UdaGraph,
        weights: SimilarityWeights,
        n_landmarks: usize,
    ) -> Self {
        let aux_state = Cow::Owned(StructuralState::build(aux, n_landmarks));
        Self::with_state(anon, aux, weights, aux_state)
    }

    /// Prepare the engine against an auxiliary side whose
    /// [`StructuralState`] was built beforehand (with
    /// [`StructuralState::build`] over `aux`): only the anonymized side is
    /// computed, with `aux_state`'s landmark count. Scores are bit-identical
    /// to [`Self::new`] with that landmark count.
    ///
    /// # Panics
    /// Panics if `aux_state` does not cover `aux`'s users.
    #[must_use]
    pub fn with_aux_state(
        anon: &'a UdaGraph,
        aux: &'a UdaGraph,
        weights: SimilarityWeights,
        aux_state: &'a StructuralState,
    ) -> Self {
        assert_eq!(aux_state.n_users(), aux.n_users(), "structural state does not cover aux");
        Self::with_state(anon, aux, weights, Cow::Borrowed(aux_state))
    }

    fn with_state(
        anon: &'a UdaGraph,
        aux: &'a UdaGraph,
        weights: SimilarityWeights,
        aux_state: Cow<'a, StructuralState>,
    ) -> Self {
        let anon_state = StructuralState::build(anon, aux_state.n_landmarks());
        Self { anon, aux, weights, anon_state, aux_state }
    }

    /// The degree-ratio part `min/max(d) + min/max(wd) ∈ [0, 2]` of
    /// [`Self::degree_similarity`], which adds the NCS cosine to it.
    pub(crate) fn degree_ratios(&self, u: usize, v: usize) -> f64 {
        self.anon_state.degree_ratios(u, &self.aux_state, v)
    }

    /// NCS cosine `cos(D_u, D_v) ∈ [0, 1]`.
    pub(crate) fn ncs_cosine(&self, u: usize, v: usize) -> f64 {
        self.anon_state.ncs_cosine(u, &self.aux_state, v)
    }

    /// Degree similarity `s^d_uv ∈ [0, 3]`.
    #[must_use]
    pub fn degree_similarity(&self, u: usize, v: usize) -> f64 {
        self.degree_ratios(u, v) + self.ncs_cosine(u, v)
    }

    /// Distance similarity `s^s_uv ∈ [0, 2]`.
    #[must_use]
    pub fn distance_similarity(&self, u: usize, v: usize) -> f64 {
        self.anon_state.distance_similarity(u, &self.aux_state, v)
    }

    /// Attribute similarity `s^a_uv ∈ [0, 2]`.
    #[must_use]
    pub fn attribute_similarity(&self, u: usize, v: usize) -> f64 {
        let a = &self.anon.attributes[u];
        let b = &self.aux.attributes[v];
        a.jaccard(b) + a.weighted_jaccard(b)
    }

    /// Combined structural similarity `s_uv`.
    #[must_use]
    pub fn similarity(&self, u: usize, v: usize) -> f64 {
        let SimilarityWeights { c1, c2, c3 } = self.weights;
        c1 * self.degree_similarity(u, v)
            + c2 * self.distance_similarity(u, v)
            + c3 * self.attribute_similarity(u, v)
    }

    /// Number of anonymized users.
    #[must_use]
    pub fn n_anon(&self) -> usize {
        self.anon.n_users()
    }

    /// Number of auxiliary users.
    #[must_use]
    pub fn n_aux(&self) -> usize {
        self.aux.n_users()
    }

    /// The similarity weights.
    #[must_use]
    pub fn weights(&self) -> SimilarityWeights {
        self.weights
    }

    /// The anonymized-side UDA graph.
    #[must_use]
    pub fn anon_uda(&self) -> &UdaGraph {
        self.anon
    }

    /// The auxiliary-side UDA graph.
    #[must_use]
    pub fn aux_uda(&self) -> &UdaGraph {
        self.aux
    }

    /// Build an [`crate::index::AttributeIndex`] over this engine's
    /// auxiliary side — the entry point of the sparse scoring path.
    #[must_use]
    pub fn attribute_index(&self) -> crate::index::AttributeIndex {
        crate::index::AttributeIndex::from_uda(self.aux)
    }

    /// Build the u8-quantized mirror of this engine's structural state
    /// (degrees + NCS/closeness vectors) that powers the approximate
    /// tier's per-pair score ceiling ([`QuantizedStructural`]). Only the
    /// margin prescreen reads it; the exact scoring paths never do.
    #[must_use]
    pub fn quantized_structural(&self) -> QuantizedStructural {
        let (a, b) = (&self.anon_state, &*self.aux_state);
        let hops_dim = [&a.hops, &b.hops, &a.whops, &b.whops]
            .iter()
            .map(|rows| rows.rows().next().map_or(0, <[f64]>::len))
            .max()
            .unwrap_or(0);
        QuantizedStructural {
            c1: self.weights.c1,
            c2: self.weights.c2,
            anon_deg: a.degrees.clone(),
            anon_wdeg: a.weighted_degrees.clone(),
            aux_deg: b.degrees.clone(),
            aux_wdeg: b.weighted_degrees.clone(),
            anon_ncs: QuantizedFamily::from_rows(&a.ncs, NCS_PREFIX),
            aux_ncs: QuantizedFamily::from_rows(&b.ncs, NCS_PREFIX),
            anon_hops: QuantizedFamily::from_rows(&a.hops, hops_dim),
            aux_hops: QuantizedFamily::from_rows(&b.hops, hops_dim),
            anon_whops: QuantizedFamily::from_rows(&a.whops, hops_dim),
            aux_whops: QuantizedFamily::from_rows(&b.whops, hops_dim),
        }
    }

    /// Scores of anonymized user `u` against every *present* auxiliary
    /// user, as a `(aux_user, score)` stream. Absent auxiliary users (no
    /// posts) are skipped entirely; every yielded score is finite.
    ///
    /// This is the blockwise-scoring primitive: consumers that only need
    /// the best few candidates (bounded Top-K heaps, streaming engines)
    /// can drain it without ever materializing a dense row.
    pub fn scores_for(&self, u: usize) -> impl Iterator<Item = (usize, f64)> + '_ {
        (0..self.aux.n_users())
            .filter(|&v| self.aux.post_counts[v] > 0)
            .map(move |v| (v, self.similarity(u, v)))
    }

    /// Blockwise scoring: the score streams of a contiguous range of
    /// anonymized users. Blocks are the unit of work sharded across
    /// worker threads by `dehealth-engine`.
    pub fn score_block(
        &self,
        anon_range: std::ops::Range<usize>,
    ) -> impl Iterator<Item = (usize, impl Iterator<Item = (usize, f64)> + '_)> + '_ {
        anon_range.map(move |u| (u, self.scores_for(u)))
    }

    /// One dense row of [`Self::matrix`]: the `scores_for` stream of `u`
    /// materialized over the full auxiliary id space. The streaming API
    /// *skips* absent auxiliary users; a dense row has to put something in
    /// their slots, and that placeholder is `-inf` — an explicit mask every
    /// downstream consumer (`BoundedTopK::insert`, `ScoreBounds::observe`,
    /// `rank_of`, `matching_selection`) already treats as "absent". Kept
    /// private so skipping stays the one public absence contract.
    fn row(&self, u: usize) -> Vec<f64> {
        let mut row = vec![f64::NEG_INFINITY; self.aux.n_users()];
        for (v, s) in self.scores_for(u) {
            row[v] = s;
        }
        row
    }

    /// Full similarity matrix: `matrix[u][v]` for every anonymized `u` and
    /// auxiliary `v`, with `-inf` masking absent auxiliary users. Rows are
    /// computed on all available cores (scoped `std::thread`, no extra
    /// dependencies): the matrix is the attack's `O(n1·n2·nnz)` hot spot
    /// and survives as the *dense oracle* the sparse indexed path
    /// ([`crate::index::IndexedScorer`]) is differential-tested against.
    #[must_use]
    pub fn matrix(&self) -> Vec<Vec<f64>> {
        let n1 = self.anon.n_users();
        let n_threads = std::thread::available_parallelism()
            .map_or(1, std::num::NonZeroUsize::get)
            .min(n1.max(1));
        if n_threads <= 1 || n1 < 64 {
            return (0..n1).map(|u| self.row(u)).collect();
        }
        let chunk = n1.div_ceil(n_threads);
        let mut rows: Vec<Vec<f64>> = Vec::with_capacity(n1);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..n_threads)
                .map(|t| {
                    let start = t * chunk;
                    let end = ((t + 1) * chunk).min(n1);
                    scope.spawn(move || (start..end).map(|u| self.row(u)).collect::<Vec<_>>())
                })
                .collect();
            for h in handles {
                rows.extend(h.join().expect("similarity worker panicked"));
            }
        });
        rows
    }
}

/// One family of fixed-stride quantized vectors: u8 codes (each vector
/// scaled against its own maximum — cosine is invariant to per-vector
/// scale, so the scales cancel in every cross-side dot), the full-vector
/// Euclidean norm in code units, and the norm of the components beyond
/// the stored prefix (used to bound the truncated part of a dot product
/// via Cauchy–Schwarz). Assumes non-negative inputs (edge weights and
/// closeness values); negative components clamp to code 0.
#[derive(Debug, Clone, Default)]
struct QuantizedFamily {
    dim: usize,
    codes: Vec<u8>,
    norms: Vec<f64>,
    tails: Vec<f64>,
}

impl QuantizedFamily {
    fn from_rows(rows: &NormedRows, dim: usize) -> Self {
        let n = rows.norms.len();
        let mut codes = vec![0u8; n * dim];
        let mut norms = vec![0.0; n];
        let mut tails = vec![0.0; n];
        for (i, row) in rows.rows().enumerate() {
            let max = row.iter().copied().fold(0.0_f64, f64::max);
            if max <= 0.0 {
                continue;
            }
            let scale = max / 255.0;
            let (mut norm2, mut tail2) = (0.0, 0.0);
            for (j, &v) in row.iter().enumerate() {
                let c = (v / scale).round().clamp(0.0, 255.0);
                if j < dim {
                    codes[i * dim + j] = c as u8;
                } else {
                    tail2 += c * c;
                }
                norm2 += c * c;
            }
            norms[i] = norm2.sqrt();
            tails[i] = tail2.sqrt();
        }
        Self { dim, codes, norms, tails }
    }

    /// Approximate ceiling on `padded_cosine` of the original vectors
    /// `self[i]` and `other[j]`: integer dot over the code prefixes, the
    /// truncated tails bounded by the product of their norms, plus
    /// [`QUANT_COS_SLACK`] for rounding. Zero-norm vectors answer 0.0
    /// exactly like [`padded_cosine`].
    fn cos_ceiling(&self, i: usize, other: &Self, j: usize) -> f64 {
        let (na, nb) = (self.norms[i], other.norms[j]);
        if na == 0.0 || nb == 0.0 {
            return 0.0;
        }
        debug_assert_eq!(self.dim, other.dim, "families quantized at different strides");
        let a = &self.codes[i * self.dim..(i + 1) * self.dim];
        let b = &other.codes[j * other.dim..(j + 1) * other.dim];
        let dot: u64 = a.iter().zip(b).map(|(&x, &y)| u64::from(x) * u64::from(y)).sum();
        let cos = (dot as f64 + self.tails[i] * other.tails[j]) / (na * nb);
        (cos + QUANT_COS_SLACK).min(1.0)
    }
}

/// u8-quantized mirror of a [`SimilarityEngine`]'s structural state —
/// per-user degrees plus quantized NCS and landmark-closeness vectors —
/// built once per scoring pass by
/// [`SimilarityEngine::quantized_structural`].
///
/// Its one product is [`Self::ceiling`]: a cheap per-pair *approximate*
/// upper bound on the structural part `c1·s^d + c2·s^s` of the combined
/// score. The degree/weighted-degree ratios are exact; the three cosines
/// are integer dots over u8 codes padded with a small additive slack. The
/// ceiling is not a strict bound — quantization can underestimate a
/// cosine by more than the slack in pathological cases — which is
/// exactly why only the approximate tier's margin band consults it; the
/// recall meter (`repro recall`) measures the resulting loss.
#[derive(Debug, Clone)]
pub struct QuantizedStructural {
    c1: f64,
    c2: f64,
    anon_deg: Vec<f64>,
    anon_wdeg: Vec<f64>,
    aux_deg: Vec<f64>,
    aux_wdeg: Vec<f64>,
    anon_ncs: QuantizedFamily,
    aux_ncs: QuantizedFamily,
    anon_hops: QuantizedFamily,
    aux_hops: QuantizedFamily,
    anon_whops: QuantizedFamily,
    aux_whops: QuantizedFamily,
}

impl QuantizedStructural {
    /// Approximate per-pair ceiling on `c1·s^d_uv + c2·s^s_uv` for
    /// anonymized user `u` against auxiliary user `v` (indexed in the
    /// source engine's id space). Negative weights contribute 0, matching
    /// the global bound convention of the indexed scorer.
    #[must_use]
    pub fn ceiling(&self, u: usize, v: usize) -> f64 {
        let d = ratio(self.anon_deg[u], self.aux_deg[v])
            + ratio(self.anon_wdeg[u], self.aux_wdeg[v])
            + self.anon_ncs.cos_ceiling(u, &self.aux_ncs, v);
        let s = self.anon_hops.cos_ceiling(u, &self.aux_hops, v)
            + self.anon_whops.cos_ceiling(u, &self.aux_whops, v);
        let td = if self.c1 >= 0.0 { self.c1 * d } else { 0.0 };
        let ts = if self.c2 >= 0.0 { self.c2 * s } else { 0.0 };
        td + ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dehealth_corpus::{Forum, Post};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn uda(posts: Vec<Post>, n_users: usize, n_threads: usize) -> UdaGraph {
        UdaGraph::build(&Forum::from_posts(n_users, n_threads, posts))
    }

    fn p(author: usize, thread: usize, text: &str) -> Post {
        Post { author, thread, text: text.into() }
    }

    #[test]
    fn ratio_conventions() {
        assert_eq!(ratio(0.0, 0.0), 1.0);
        assert_eq!(ratio(0.0, 5.0), 0.0);
        assert!((ratio(2.0, 4.0) - 0.5).abs() < 1e-12);
        assert!((ratio(4.0, 2.0) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn padded_cosine_handles_unequal_lengths() {
        assert!((padded_cosine(&[1.0], &[1.0, 0.0]) - 1.0).abs() < 1e-12);
        assert_eq!(padded_cosine(&[], &[1.0]), 0.0);
        assert_eq!(padded_cosine(&[0.0], &[1.0]), 0.0);
    }

    #[test]
    fn padded_cosine_never_exceeds_one() {
        // Near-parallel vectors whose quotient could round past 1.0: the
        // clamp keeps the pruning bound's `s^d ≤ 3` invariant exact.
        let a: Vec<f64> = (1..40).map(|i| 1.0 / f64::from(i)).collect();
        assert!(padded_cosine(&a, &a) <= 1.0);
        let b: Vec<f64> = a.iter().map(|x| x * 3.000000000000001).collect();
        assert!(padded_cosine(&a, &b) <= 1.0);
    }

    /// A random vector for the property tests: empty, all-zero, small
    /// integers (edge-weight-like), signed floats, or closeness-like
    /// values in (0, 1], with a random length.
    fn random_vector(rng: &mut StdRng) -> Vec<f64> {
        let len = rng.gen_range(0..9usize);
        match rng.gen_range(0..5u32) {
            0 => Vec::new(),
            1 => vec![0.0; len],
            2 => (0..len).map(|_| f64::from(rng.gen_range(1..6u32))).collect(),
            3 => (0..len).map(|_| rng.gen_range(-2.0..2.0)).collect(),
            _ => (0..len).map(|_| 1.0 / (1.0 + f64::from(rng.gen_range(0..5u32)))).collect(),
        }
    }

    /// `b`, or a near-parallel rescaling of `a` (where the cosine clamp
    /// bites), or a truncation of `a` (unequal lengths, shared prefix).
    fn partner(rng: &mut StdRng, a: &[f64], b: Vec<f64>) -> Vec<f64> {
        match rng.gen_range(0..4u32) {
            0 => a.iter().map(|x| x * 3.000000000000001).collect(),
            1 => a[..rng.gen_range(0..=a.len())].to_vec(),
            _ => b,
        }
    }

    #[test]
    fn normed_cosine_matches_padded_cosine_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(0x5eed_c051);
        for case in 0..5000 {
            let a = random_vector(&mut rng);
            let b = random_vector(&mut rng);
            let b = partner(&mut rng, &a, b);
            let reference = padded_cosine(&a, &b);
            assert!(reference <= 1.0);
            let cached = normed_cosine(&a, norm(&a), &b, norm(&b));
            assert_eq!(cached.to_bits(), reference.to_bits(), "case {case}: {a:?} vs {b:?}");
            // The arena path answers from its stored norms.
            let rows = NormedRows::from_rows([a.clone(), b.clone()]);
            assert_eq!(rows.cosine(0, &rows, 1).to_bits(), reference.to_bits(), "case {case}");
        }
    }

    #[test]
    fn structural_ceiling_never_undercuts_the_score() {
        const WEIGHTS: [f64; 7] = [-0.7, -0.05, -0.0, 0.0, 0.05, 0.3, 1.0];
        let mut rng = StdRng::seed_from_u64(0xce11_1ae5);
        let pick = |rng: &mut StdRng| WEIGHTS[rng.gen_range(0..WEIGHTS.len())];
        for case in 0..5000 {
            let w =
                SimilarityWeights { c1: pick(&mut rng), c2: pick(&mut rng), c3: pick(&mut rng) };
            // One user per side, with random degrees and vectors. Edge
            // weights and closeness values are never negative, so neither
            // are the structural vectors nor, hence, their cosines.
            let side = |rng: &mut StdRng| {
                let degree = f64::from(rng.gen_range(0..4u32));
                let weighted = if degree == 0.0 { 0.0 } else { degree * rng.gen_range(1.0..3.0) };
                let mut nonneg =
                    || random_vector(rng).into_iter().map(f64::abs).collect::<Vec<_>>();
                (degree, weighted, nonneg(), nonneg(), nonneg())
            };
            let (da, wa, na, ha, wha) = side(&mut rng);
            let (db, wb, nb, hb, whb) = side(&mut rng);
            let (nb, hb, whb) = (
                partner(&mut rng, &na, nb),
                partner(&mut rng, &ha, hb),
                partner(&mut rng, &wha, whb),
            );
            let state =
                |d: f64, wd: f64, ncs: Vec<f64>, hops: Vec<f64>, whops: Vec<f64>| StructuralState {
                    n_landmarks: hops.len(),
                    degrees: vec![d],
                    weighted_degrees: vec![wd],
                    ncs: NormedRows::from_rows([ncs]),
                    hops: NormedRows::from_rows([hops]),
                    whops: NormedRows::from_rows([whops]),
                };
            let (a, b) = (state(da, wa, na, ha, wha), state(db, wb, nb, hb, whb));
            // An attribute similarity `inter/union + min/wunion` as the
            // scorer forms it, in [0, 2].
            let union = rng.gen_range(1..20u64);
            let wunion = rng.gen_range(1..50u64);
            let s_attr = rng.gen_range(0..=union) as f64 / union as f64
                + rng.gen_range(0..=wunion) as f64 / wunion as f64;
            // The score exactly as `SimilarityEngine::similarity` forms it.
            let ratios = a.degree_ratios(0, &b, 0);
            let s_d = ratios + a.ncs_cosine(0, &b, 0);
            let s_s = a.distance_similarity(0, &b, 0);
            let score = w.c1 * s_d + w.c2 * s_s + w.c3 * s_attr;
            let ceiling = w.structural_ceiling(ratios) + w.c3 * s_attr;
            assert!(ceiling >= score, "case {case}: ceiling {ceiling} < score {score} ({w:?})");
            // The per-pair ceiling never exceeds the global one.
            assert!(w.structural_ceiling(ratios) <= w.structural_ceiling(2.0), "case {case}");
        }
    }

    #[test]
    fn aux_state_engine_matches_build_everything_engine() {
        let anon = uda(vec![p(0, 0, "a b c !!!"), p(1, 0, "1 2 3"), p(2, 1, "x y")], 3, 2);
        let aux = uda(vec![p(0, 0, "x y z"), p(1, 0, "a b c"), p(2, 1, "q r s")], 4, 2);
        let weights = SimilarityWeights::default();
        let state = StructuralState::build(&aux, 2);
        let lent = SimilarityEngine::with_aux_state(&anon, &aux, weights, &state);
        let built = SimilarityEngine::new(&anon, &aux, weights, 2);
        for u in 0..3 {
            for v in 0..4 {
                assert_eq!(lent.similarity(u, v).to_bits(), built.similarity(u, v).to_bits());
            }
        }
    }

    #[test]
    fn padded_cosine_edge_cases() {
        // Both empty.
        assert_eq!(padded_cosine(&[], &[]), 0.0);
        // Disjoint supports (dot = 0) with non-zero norms.
        assert_eq!(padded_cosine(&[1.0, 0.0], &[0.0, 1.0]), 0.0);
        // Identical vectors.
        assert!((padded_cosine(&[0.3, 0.4], &[0.3, 0.4]) - 1.0).abs() < 1e-12);
        // Parallel vectors of different scale.
        assert!((padded_cosine(&[1.0, 2.0], &[2.0, 4.0]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn identical_users_maximize_similarity() {
        // Same text, same thread structure on both sides.
        let anon = uda(
            vec![p(0, 0, "I realy hate this migrane pain!"), p(1, 0, "rest helps a lot")],
            2,
            1,
        );
        let aux = uda(
            vec![p(0, 0, "I realy hate this migrane pain!"), p(1, 0, "rest helps a lot")],
            2,
            1,
        );
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 2);
        // Self-similarity should beat cross-similarity.
        assert!(eng.similarity(0, 0) > eng.similarity(0, 1));
        assert!(eng.similarity(1, 1) > eng.similarity(1, 0));
        // Attribute similarity of identical users is the max (2.0).
        assert!((eng.attribute_similarity(0, 0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn matrix_masks_absent_aux_users() {
        let anon = uda(vec![p(0, 0, "hello there")], 1, 1);
        // Aux user 1 has no posts.
        let aux = uda(vec![p(0, 0, "hello there")], 2, 1);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 1);
        let m = eng.matrix();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].len(), 2);
        assert!(m[0][1].is_infinite() && m[0][1] < 0.0);
        assert!(m[0][0].is_finite());
    }

    #[test]
    fn weights_scale_components() {
        let anon = uda(vec![p(0, 0, "the same text here"), p(1, 0, "other words")], 2, 1);
        let aux = uda(vec![p(0, 0, "the same text here"), p(1, 0, "other words")], 2, 1);
        let only_attr =
            SimilarityEngine::new(&anon, &aux, SimilarityWeights { c1: 0.0, c2: 0.0, c3: 1.0 }, 1);
        let s = only_attr.similarity(0, 0);
        assert!((s - only_attr.attribute_similarity(0, 0)).abs() < 1e-12);
    }

    #[test]
    fn parallel_matrix_matches_serial_rows() {
        // 80 users on each side to cross the parallel threshold.
        let mk = |salt: usize| -> UdaGraph {
            let posts = (0..80)
                .map(|u| {
                    p(
                        u,
                        u % 7,
                        if (u + salt).is_multiple_of(2) {
                            "short one."
                        } else {
                            "a much longer post with more words!"
                        },
                    )
                })
                .collect();
            uda(posts, 80, 7)
        };
        let anon = mk(0);
        let aux = mk(1);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 5);
        let m = eng.matrix();
        for u in (0..80).step_by(17) {
            assert_eq!(m[u], eng.row(u), "row {u} differs");
        }
    }

    #[test]
    fn scores_for_matches_row_on_present_users() {
        let anon = uda(vec![p(0, 0, "hello there"), p(1, 0, "more text!")], 2, 1);
        // Aux user 1 has no posts.
        let aux = uda(vec![p(0, 0, "hello there"), p(2, 0, "other words")], 3, 1);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 1);
        assert_eq!(eng.n_anon(), 2);
        assert_eq!(eng.n_aux(), 3);
        for u in 0..2 {
            let row = eng.row(u);
            let streamed: Vec<(usize, f64)> = eng.scores_for(u).collect();
            assert_eq!(streamed.iter().map(|&(v, _)| v).collect::<Vec<_>>(), vec![0, 2]);
            for (v, s) in streamed {
                assert_eq!(row[v].to_bits(), s.to_bits(), "u={u} v={v}");
            }
            assert!(row[1].is_infinite() && row[1] < 0.0);
        }
    }

    #[test]
    fn score_block_covers_the_range() {
        let anon = uda(vec![p(0, 0, "a b c"), p(1, 0, "d e f"), p(2, 1, "g h")], 3, 2);
        let aux = uda(vec![p(0, 0, "a b c"), p(1, 1, "x y")], 2, 2);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 1);
        let block: Vec<(usize, Vec<(usize, f64)>)> =
            eng.score_block(1..3).map(|(u, scores)| (u, scores.collect())).collect();
        assert_eq!(block.len(), 2);
        assert_eq!(block[0].0, 1);
        assert_eq!(block[1].0, 2);
        for (u, scores) in block {
            let row = eng.row(u);
            for (v, s) in scores {
                assert_eq!(row[v].to_bits(), s.to_bits());
            }
        }
    }

    #[test]
    fn engine_is_sync_and_send() {
        fn assert_sync_send<T: Sync + Send>() {}
        // The sharded engine moves `&SimilarityEngine` across scoped
        // threads; regressing these bounds would break it.
        assert_sync_send::<SimilarityEngine<'_>>();
        assert_sync_send::<crate::refined::Side<'_>>();
    }

    #[test]
    fn similarity_is_finite_and_bounded() {
        let anon = uda(vec![p(0, 0, "a b c !!!"), p(1, 1, "1 2 3 $$$")], 2, 2);
        let aux = uda(vec![p(0, 0, "x y z"), p(1, 1, "q r s")], 2, 2);
        let eng = SimilarityEngine::new(&anon, &aux, SimilarityWeights::default(), 2);
        for u in 0..2 {
            for v in 0..2 {
                let s = eng.similarity(u, v);
                assert!(s.is_finite());
                // Max possible: 0.05*3 + 0.05*2 + 0.9*2 = 2.05.
                assert!((0.0..=2.05 + 1e-9).contains(&s));
            }
        }
    }
}
