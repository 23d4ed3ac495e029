//! `batch-closed-10k`: the offline attacker's job — one exact batch attack
//! of the whole anonymized side, repeated a fixed number of times.

use std::time::Instant;

use dehealth_core::refined::{RefinedConfig, Side};
use dehealth_core::uda::{extract_post_features, UdaGraph};
use dehealth_core::{refine_user, AttackConfig, BoundedTopK, ClassifierKind, SimilarityEngine};
use dehealth_corpus::{closed_world_split, Forum, ForumConfig, SplitConfig};
use dehealth_engine::{Engine, EngineConfig, EngineOutcome};
use dehealth_service::PreparedCorpus;

use crate::quality::Quality;
use crate::stats;
use crate::trace::{durations, Tracer};
use crate::{nproc, peak_rss_mb, splitmix64, stage_seconds, Run, RunResult, SETUP_REPEATS};

const USERS: usize = 10_000;
/// Batch attacks per second of `--seconds`: one attack takes about 7 s
/// at two engine threads on a 2-core x86-64 VM, so 20 s buys two, beside
/// the set-ups of about 5 s each.
const ATTACKS_PER_SECOND: f64 = 0.1;
/// Anonymized users whose dense Top-K row is recomputed from
/// `SimilarityEngine::scores_for` and compared bit for bit.
const SAMPLED_TOPK_USERS: usize = 24;
/// Anonymized users whose refined decision is recomputed by the
/// per-user `refine_user` reference.
const SAMPLED_REFINED_USERS: usize = 8;

pub fn run(run: &Run, tracer: &Tracer) -> Result<RunResult, String> {
    let (forum, _) = tracer.time("generate", 0, 0, || {
        Forum::generate(&ForumConfig::webmd_like(USERS), crate::FORUM_SEED)
    });
    let (split, _) = tracer.time("split", 0, 0, || {
        closed_world_split(&forum, &SplitConfig::fraction(0.7), splitmix64(run.seed))
    });
    drop(forum);
    let anonymized = split.anonymized;
    let aux_posts = split.auxiliary.posts.len();

    let mut setups = Vec::new();
    let mut corpus = None;
    for _ in 0..SETUP_REPEATS {
        drop(corpus.take());
        let forum = split.auxiliary.clone();
        let id = tracer.open();
        let (built, wall) = tracer.time_as(id, "setup", 0, 0, || {
            let (features, _) = tracer.time("extract", id, 0, || extract_post_features(&forum));
            let (corpus, _) = tracer.time("derive", id, 0, || {
                PreparedCorpus::from_features(forum, features, ClassifierKind::default())
            });
            corpus
        });
        corpus = Some(built);
        setups.push(wall.as_secs_f64());
    }
    let corpus = corpus.expect("at least one set-up");

    let engine = Engine::new(EngineConfig {
        attack: AttackConfig { top_k: 10, n_landmarks: 30, ..AttackConfig::default() },
        n_threads: nproc(),
        ..EngineConfig::default()
    });
    let attacks = run.units(ATTACKS_PER_SECOND, 1);
    let mut walls = Vec::new();
    let mut outcomes: Vec<EngineOutcome> = Vec::new();
    let window = Instant::now();
    for request in 1..=attacks as u64 {
        let (outcome, wall) =
            tracer.time("attack", 0, request, || corpus.attack(&engine, &anonymized));
        walls.push(wall.as_secs_f64());
        if let Some(first) = outcomes.first() {
            if outcome.mapping != first.mapping || outcome.candidates != first.candidates {
                return Err(format!("attack {request} disagrees with attack 1 on the same input"));
            }
        }
        outcomes.push(outcome);
    }
    let elapsed = window.elapsed().as_secs_f64();
    let peak_rss = peak_rss_mb();

    tracer
        .time("oracle", 0, 0, || {
            sampled_oracle(&corpus, &anonymized, &outcomes[0], &engine, run.seed)
        })
        .0?;

    let first = &outcomes[0];
    let mut quality = Quality::default();
    quality.add_slice(&split.oracle, 0, &first.mapping, &first.candidates);

    let topk = first.report.stage("topk");
    let scored = topk.map_or(0, |s| s.items);
    let pruned = topk.map_or(0, |s| s.skipped);
    let stage_mean = |name: &str| {
        stats::mean(&outcomes.iter().map(|o| stage_seconds(&o.report, name)).collect::<Vec<_>>())
    };
    let staged: Vec<f64> = outcomes.iter().map(|o| o.report.total_seconds()).collect();

    let mut result = RunResult::new(walls.len() as u64, 0);
    result.end_to_end = vec![
        ("setup_s", stats::median(&setups).expect("at least one set-up").value),
        ("attack_mean_s", stats::mean(&walls)),
        ("requests_per_s", attacks as f64 / elapsed),
        ("topk_hit_rate", quality.topk_hit_rate()),
        ("da_accuracy", quality.da_accuracy()),
        ("peak_rss_mb", peak_rss),
    ];
    if tracer.enabled() {
        let (spans, _) = tracer.finish();
        result.per_layer = vec![
            ("stylometry.extract_s", stats::mean(&durations(&spans, "extract"))),
            ("core.derive_s", stats::mean(&durations(&spans, "derive"))),
            ("engine.prepare_s", stage_mean("prepare")),
            ("engine.topk_s", stage_mean("topk")),
            ("engine.refined_s", stage_mean("refined")),
            ("engine.unstaged_s", stats::mean(&walls) - stats::mean(&staged)),
            ("engine.topk.pairs_scored", scored as f64),
            ("engine.topk.pairs_pruned", pruned as f64),
            ("engine.topk.scored_share", scored as f64 / (scored + pruned).max(1) as f64),
            ("trace.attack_mean_s", stats::mean(&walls)),
        ];
    }
    result.detail(
        "workload_sizes",
        &[
            ("forum_users", USERS as f64),
            ("aux_users", corpus.n_users() as f64),
            ("aux_posts", aux_posts as f64),
            ("anon_users", anonymized.n_users as f64),
            ("anon_posts", anonymized.posts.len() as f64),
        ],
    );
    result.samples("attack_s", &walls);
    Ok(result)
}

/// `k` distinct seeded indices from `0..n`, ascending.
fn sample_indices(n: usize, k: usize, seed: u64) -> Vec<usize> {
    let mut state = seed;
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k.min(n) {
        state = splitmix64(state);
        picked.insert((state % n as u64) as usize);
    }
    picked.into_iter().collect()
}

/// The sampled bit-exact differential oracle: seeded anonymized users get
/// their dense Top-K row recomputed by `SimilarityEngine::scores_for` and
/// their refined decision by the per-user `refine_user` reference.
fn sampled_oracle(
    corpus: &PreparedCorpus,
    anonymized: &Forum,
    outcome: &EngineOutcome,
    engine: &Engine,
    seed: u64,
) -> Result<(), String> {
    let cfg = &engine.config().attack;
    let anon_feats = extract_post_features(anonymized);
    let anon_uda = UdaGraph::build_with_features(anonymized, &anon_feats);
    let sim = SimilarityEngine::new(&anon_uda, corpus.uda(), cfg.weights, cfg.n_landmarks);
    for u in sample_indices(anonymized.n_users, SAMPLED_TOPK_USERS, seed ^ 0x7075) {
        let mut heap = BoundedTopK::new(cfg.top_k);
        for (v, s) in sim.scores_for(u) {
            heap.insert(v, s);
        }
        let dense: Vec<(usize, u64)> =
            heap.into_sorted_entries().into_iter().map(|(v, s)| (v, s.to_bits())).collect();
        let served: Vec<(usize, u64)> =
            outcome.candidate_scores[u].iter().map(|&(v, s)| (v, s.to_bits())).collect();
        if served != dense {
            return Err(format!("Top-K row of anonymized user {u} differs from the dense oracle"));
        }
    }
    let anon_side = Side { forum: anonymized, uda: &anon_uda, post_features: &anon_feats };
    let aux_side =
        Side { forum: corpus.forum(), uda: corpus.uda(), post_features: corpus.features() };
    let refined_cfg = RefinedConfig {
        classifier: cfg.classifier,
        verification: cfg.verification,
        seed: cfg.seed,
    };
    let mut row = vec![f64::NEG_INFINITY; corpus.n_users()];
    for u in sample_indices(anonymized.n_users, SAMPLED_REFINED_USERS, seed ^ 0x5246) {
        for &(v, s) in &outcome.candidate_scores[u] {
            row[v] = s;
        }
        let reference =
            refine_user(u, &outcome.candidates[u], &anon_side, &aux_side, &row, &refined_cfg);
        if reference != outcome.mapping[u] {
            return Err(format!(
                "refined decision of anonymized user {u} differs from refine_user: \
                 engine {:?}, reference {reference:?}",
                outcome.mapping[u]
            ));
        }
        for &(v, _) in &outcome.candidate_scores[u] {
            row[v] = f64::NEG_INFINITY;
        }
    }
    Ok(())
}
