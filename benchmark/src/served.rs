//! The daemon workloads: `serve-open-4k` (the standing attack service
//! under two closed-loop clients) and `ingest-4k` (one client alternating
//! corpus growth with attacks).
//!
//! Both run an in-process [`Daemon`] on an ephemeral loopback port, fed a
//! snapshot that was built, saved and reloaded mapped, and talk to it
//! only over the newline-JSON protocol through [`ServiceClient`]. Each run
//! sends a fixed list of requests, sized from `--seconds`, and times it to
//! completion. Every reply is checked, after the timed part, against an
//! in-process [`PreparedCorpus::attack`] of the same request on an
//! identical corpus.

use std::collections::HashMap;
use std::path::Path;
use std::time::{Duration, Instant};

use dehealth_core::refined::Verification;
use dehealth_core::uda::extract_post_features;
use dehealth_core::{AttackConfig, ClassifierKind};
use dehealth_corpus::{
    closed_world_split, open_world_split, Forum, ForumConfig, Oracle, Post, SplitConfig,
};
use dehealth_engine::{Engine, EngineConfig, EngineOutcome};
use dehealth_service::client::ClientTimeouts;
use dehealth_service::protocol::forum_to_json;
use dehealth_service::{
    AttackOptions, Daemon, DaemonLimits, Json, LoadMode, PreparedCorpus, ServiceClient,
    ServiceError,
};

use crate::quality::Quality;
use crate::stats;
use crate::trace::{durations, Tracer};
use crate::{nproc, peak_rss_mb, splitmix64, stage_seconds, Run, RunResult, SETUP_REPEATS};

const USERS: usize = 4_000;
/// Seed of the ingest cohort. Like the forum population it is fixed, so
/// every run ingests the same chunks and the ingest path's cost is
/// compared like with like; `--seed` still draws the corpus the chunks
/// land in and every attack.
const COHORT_SEED: u64 = 0xC0407;
/// Consecutive anonymized users per attack request.
const SLICE_USERS: usize = 12;
/// Fresh auxiliary users per `add_auxiliary_users` chunk.
const CHUNK_USERS: usize = 40;
/// Size of the separately seeded cohort the ingest chunks are cut from:
/// 100 chunks, enough for `--seconds` up to 200.
const COHORT_USERS: usize = 4_000;
/// `serve-open-4k` attack requests per second of `--seconds` (both
/// clients together); about what the daemon answers on a 2-core x86-64
/// VM.
const SERVE_REQUESTS_PER_SECOND: f64 = 5.0;
/// Fewest `serve-open-4k` attacks a run sends: enough that ten samples
/// lie beyond p90, so the tail percentile is always reported.
const SERVE_MIN_REQUESTS: usize = 10 * stats::MIN_BEYOND;
/// `ingest-4k` chunk-and-attack pairs per second of `--seconds`; one pair
/// takes about 2 s on a 2-core x86-64 VM.
const INGEST_PAIRS_PER_SECOND: f64 = 0.5;
/// A request unanswered for this long counts as failed.
const READ_TIMEOUT: Duration = Duration::from_secs(60);

/// The daemon's engine configuration. The open world verifies with the
/// paper's Fig. 6 setting; the closed world accepts every decision, as
/// the paper does there (under the mean test a closed-world corpus maps
/// nobody, since every user's Top-K scores sit close together).
fn daemon_config(verification: Verification) -> EngineConfig {
    EngineConfig {
        attack: AttackConfig {
            top_k: 10,
            n_landmarks: 30,
            verification,
            ..AttackConfig::default()
        },
        ..EngineConfig::default()
    }
}

const OPEN_WORLD: Verification = Verification::Mean { r: 0.25 };
const CLOSED_WORLD: Verification = Verification::None;

/// Per-request options: one engine thread, so two daemon workers fit two
/// cores.
fn attack_options() -> AttackOptions {
    AttackOptions { threads: Some(1), ..AttackOptions::default() }
}

/// Users `lo..hi` of `forum` as a forum of their own: authors renumbered
/// from 0, threads renumbered in order of first use, post order kept.
fn slice_users(forum: &Forum, lo: usize, hi: usize) -> Forum {
    let mut threads: HashMap<usize, usize> = HashMap::new();
    let posts: Vec<Post> = forum
        .posts
        .iter()
        .filter(|p| (lo..hi).contains(&p.author))
        .map(|p| {
            let next = threads.len();
            let thread = *threads.entry(p.thread).or_insert(next);
            Post { author: p.author - lo, thread, text: p.text.clone() }
        })
        .collect();
    Forum::from_posts(hi - lo, threads.len(), posts)
}

/// `forum` cut into slices of `size` consecutive users, as `(offset,
/// slice)` pairs in [`stratified_order`] of their text bytes.
fn slices(forum: &Forum, size: usize) -> Vec<(usize, Forum)> {
    let mut slices: Vec<Option<(usize, Forum)>> = (0..forum.n_users)
        .step_by(size)
        .map(|lo| Some((lo, slice_users(forum, lo, (lo + size).min(forum.n_users)))))
        .collect();
    let bytes: Vec<usize> = slices
        .iter()
        .map(|s| s.as_ref().map_or(0, |(_, f)| f.posts.iter().map(|p| p.text.len()).sum()))
        .collect();
    stratified_order(&bytes)
        .into_iter()
        .map(|i| slices[i].take().expect("each index once"))
        .collect()
}

/// Indices of `sizes` ordered so that every prefix samples the size
/// distribution evenly: the items sorted by size, visited at the van der
/// Corput fractions 0, 1/2, 1/4, 3/4, 1/8, … of their rank (smallest,
/// median, quartiles, octiles, …). Request sizes are heavy-tailed, so a
/// run that sends only a prefix of its requests sees the same quantiles
/// of small and large ones whatever the seed, instead of whichever few
/// giants came first.
fn stratified_order(sizes: &[usize]) -> Vec<usize> {
    let n = sizes.len();
    if n == 0 {
        return Vec::new();
    }
    let mut by_size: Vec<usize> = (0..n).collect();
    by_size.sort_by_key(|&i| (sizes[i], i));
    let bits = n.next_power_of_two().trailing_zeros();
    let mut taken = vec![false; n];
    let mut order = Vec::with_capacity(n);
    for i in 0..n.next_power_of_two() {
        // The i-th van der Corput fraction is bitrev(i) / 2^bits; with
        // 2^bits >= n every rank is hit at least once.
        let fraction = if bits == 0 { 0 } else { i.reverse_bits() >> (usize::BITS - bits) };
        let rank = (fraction * n) >> bits;
        if !std::mem::replace(&mut taken[rank], true) {
            order.push(by_size[rank]);
        }
    }
    order
}

/// What set-up left running, and what it cost.
struct Setup {
    /// Median set-up wall time, seconds.
    seconds: f64,
    extract: Vec<f64>,
    derive: Vec<f64>,
    save: Vec<f64>,
    load: Vec<f64>,
    bytes: u64,
}

/// Build, save, mapped-load and serve `aux`, [`SETUP_REPEATS`] times;
/// every daemon but the last is shut down again.
fn set_up(
    aux: &Forum,
    snapshot: &Path,
    config: &EngineConfig,
    tracer: &Tracer,
) -> Result<(Daemon, Setup), String> {
    let mut walls = Vec::new();
    let (mut extract, mut derive, mut save, mut load) = (vec![], vec![], vec![], vec![]);
    let mut daemon = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = daemon.take() {
            stop(previous);
        }
        let forum = aux.clone();
        let id = tracer.open();
        let (bound, wall) = tracer.time_as(id, "setup", 0, 0, || {
            let (features, e) = tracer.time("extract", id, 0, || extract_post_features(&forum));
            let (corpus, d) = tracer.time("derive", id, 0, || {
                PreparedCorpus::from_features(forum, features, ClassifierKind::default())
            });
            extract.push(e.as_secs_f64());
            derive.push(d.as_secs_f64());
            let (saved, s) = tracer.time("save", id, 0, || corpus.save(snapshot));
            saved.map_err(|e| format!("snapshot save: {e}"))?;
            save.push(s.as_secs_f64());
            drop(corpus);
            let (loaded, l) = tracer
                .time("load", id, 0, || PreparedCorpus::load_with(snapshot, LoadMode::Mapped));
            load.push(l.as_secs_f64());
            let corpus = loaded.map_err(|e| format!("snapshot load: {e}"))?;
            let (bound, _) = tracer.time("bind", id, 0, || {
                Daemon::bind_with(
                    "127.0.0.1:0",
                    config.clone(),
                    Some(corpus),
                    DaemonLimits::default(),
                )
            });
            bound.map_err(|e| format!("daemon bind: {e}"))
        });
        daemon = Some(bound?);
        walls.push(wall.as_secs_f64());
    }
    let bytes = std::fs::metadata(snapshot).map_err(|e| format!("snapshot size: {e}"))?.len();
    let daemon = daemon.expect("at least one set-up");
    Ok((
        daemon,
        Setup {
            seconds: stats::median(&walls).expect("at least one set-up").value,
            extract,
            derive,
            save,
            load,
            bytes,
        },
    ))
}

fn stop(daemon: Daemon) {
    daemon.request_shutdown();
    daemon.join();
}

fn connect(daemon: &Daemon) -> Result<ServiceClient, String> {
    ServiceClient::connect_with(
        daemon.addr(),
        ClientTimeouts { connect: Some(Duration::from_secs(10)), read: Some(READ_TIMEOUT) },
    )
    .map_err(|e| format!("connect: {e}"))
}

/// Sum and count of one daemon histogram in a `metrics` reply.
fn histogram(metrics: &Json, name: &str, label: Option<(&str, &str)>) -> (f64, f64) {
    let entries = metrics.get("metrics").and_then(Json::as_array).unwrap_or(&[]);
    entries
        .iter()
        .find(|m| {
            m.get("name").and_then(Json::as_str) == Some(name)
                && label.is_none_or(|(k, v)| {
                    m.get("labels").and_then(|l| l.get(k)).and_then(Json::as_str) == Some(v)
                })
        })
        .map_or((0.0, 0.0), |m| {
            let get = |k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            (get("sum_seconds"), get("count"))
        })
}

/// Daemon histogram deltas across the timed requests.
struct Registry<'a> {
    before: &'a Json,
    after: &'a Json,
}

impl Registry<'_> {
    /// `(sum, count)` accumulated between the two scrapes.
    fn delta(&self, name: &str, label: Option<(&str, &str)>) -> (f64, f64) {
        let (s0, c0) = histogram(self.before, name, label);
        let (s1, c1) = histogram(self.after, name, label);
        (s1 - s0, c1 - c0)
    }

    /// Exact mean over the timed requests (sum / count), 0 with no
    /// samples.
    fn mean(&self, name: &str, label: Option<(&str, &str)>) -> f64 {
        let (sum, count) = self.delta(name, label);
        if count > 0.0 {
            sum / count
        } else {
            0.0
        }
    }
}

/// One answered request as its client saw it.
struct Sample {
    /// Index into the slice list (attacks) or the chunk list (ingests).
    item: usize,
    round_trip: f64,
    mapping: Vec<Option<usize>>,
    candidates: Vec<Vec<usize>>,
}

/// What a client's closed loop did.
#[derive(Default)]
struct Load {
    attacks: Vec<Sample>,
    ingests: Vec<Sample>,
    attempted: u64,
    failed: u64,
}

/// Send one attack for slice `item`; `false`, with the failure counted,
/// when no valid reply comes back.
fn send_attack(
    client: &mut ServiceClient,
    tracer: &Tracer,
    request: u64,
    item: usize,
    slice: &Forum,
    load: &mut Load,
) -> bool {
    load.attempted += 1;
    let (reply, wall) =
        tracer.time("request", 0, request, || client.attack(slice, &attack_options()));
    match reply {
        Ok(reply) => {
            load.attacks.push(Sample {
                item,
                round_trip: wall.as_secs_f64(),
                mapping: reply.mapping,
                candidates: reply.candidates,
            });
            true
        }
        Err(e) => fail(load, &e),
    }
}

fn fail(load: &mut Load, e: &ServiceError) -> bool {
    eprintln!("request failed: {e}");
    load.failed += 1;
    false
}

/// Mean client-side encode time and mean size of the request lines for
/// `forums`, encoded as [`ServiceClient`] encodes them.
fn encode_cost(
    tracer: &Tracer,
    cmd: &str,
    forums: &[&Forum],
    options: Option<&AttackOptions>,
) -> (f64, f64) {
    let (mut seconds, mut bytes) = (Vec::new(), Vec::new());
    for forum in forums {
        let mut fields = vec![
            ("cmd".to_string(), Json::Str(cmd.into())),
            ("forum".into(), forum_to_json(forum)),
        ];
        let (line, wall) = tracer.time("encode", 0, 0, || {
            if let Some(options) = options {
                fields.extend(options.to_fields());
            }
            let mut line = Json::Obj(std::mem::take(&mut fields)).emit().into_bytes();
            line.push(b'\n');
            line
        });
        seconds.push(wall.as_secs_f64());
        bytes.push(line.len() as f64);
    }
    (stats::mean(&seconds), stats::mean(&bytes))
}

/// In-process answers to every slice on `corpus`, each at one engine
/// thread as the daemon runs it (two at a time, like the daemon's two
/// workers): the outcomes for the reply checks, and the paper metrics over
/// the whole anonymized side, the Top-K pair counts and the engine's
/// per-stage timings. They depend on the seed alone, not on the load.
struct Pass {
    outcomes: Vec<EngineOutcome>,
    walls: Vec<f64>,
    quality: Quality,
    scored: u64,
    pruned: u64,
}

fn reference_pass(
    corpus: &PreparedCorpus,
    config: &EngineConfig,
    tracer: &Tracer,
    slices: &[(usize, Forum)],
    oracle: &Oracle,
) -> Pass {
    let engine = Engine::new(EngineConfig { n_threads: 1, ..config.clone() });
    let count = slices.len();
    let mut answers: Vec<Option<(EngineOutcome, f64)>> = (0..count).map(|_| None).collect();
    std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|w| {
                let engine = &engine;
                scope.spawn(move || {
                    (w..count)
                        .step_by(2)
                        .map(|i| {
                            let (outcome, wall) = tracer.time("attack", 0, i as u64 + 1, || {
                                corpus.attack(engine, &slices[i].1)
                            });
                            (i, outcome, wall.as_secs_f64())
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for worker in workers {
            for (i, outcome, wall) in worker.join().expect("reference worker panicked") {
                answers[i] = Some((outcome, wall));
            }
        }
    });
    let mut pass =
        Pass { outcomes: vec![], walls: vec![], quality: Quality::default(), scored: 0, pruned: 0 };
    for (i, answer) in answers.into_iter().enumerate() {
        let (outcome, wall) = answer.expect("every slice answered");
        pass.quality.add_slice(oracle, slices[i].0, &outcome.mapping, &outcome.candidates);
        if let Some(topk) = outcome.report.stage("topk") {
            pass.scored += topk.items;
            pass.pruned += topk.skipped;
        }
        pass.walls.push(wall);
        pass.outcomes.push(outcome);
    }
    pass
}

/// Check one reply against the in-process answer to the same request.
fn check(what: &str, sample: &Sample, reference: &EngineOutcome) -> Result<(), String> {
    if sample.mapping != reference.mapping || sample.candidates != reference.candidates {
        return Err(format!("{what}: wire reply differs from PreparedCorpus::attack"));
    }
    Ok(())
}

/// Per-layer numbers both daemon workloads report the same way.
fn per_layer(
    result: &mut RunResult,
    tracer: &Tracer,
    setup: &Setup,
    registry: &Registry<'_>,
    load: &Load,
    pass: &Pass,
    encode: (f64, f64),
) {
    let (spans, _) = tracer.finish();
    let fixed = &pass.outcomes;
    let stage_mean = |name: &str| {
        stats::mean(&fixed.iter().map(|o| stage_seconds(&o.report, name)).collect::<Vec<_>>())
    };
    let staged = stats::mean(&fixed.iter().map(|o| o.report.total_seconds()).collect::<Vec<_>>());
    let (attack_sum, attack_n) = registry.delta("daemon_command_seconds", Some(("cmd", "attack")));
    let (add_sum, add_n) =
        registry.delta("daemon_command_seconds", Some(("cmd", "add_auxiliary_users")));
    let (emit_sum, _) = registry.delta("daemon_emit_seconds", None);
    let parse = registry.mean("daemon_parse_seconds", None);
    let queue = registry.mean("daemon_queue_seconds", None);
    let engine = registry.mean("daemon_engine_seconds", None);
    let served = (attack_n + add_n).max(1.0);
    let round_trips: f64 = load.attacks.iter().chain(&load.ingests).map(|s| s.round_trip).sum();
    let attack_walls: Vec<f64> = load.attacks.iter().map(|s| s.round_trip).collect();
    let (scored, pruned) = (pass.scored as f64, pass.pruned as f64);
    result.per_layer = vec![
        ("stylometry.extract_s", stats::mean(&setup.extract)),
        ("core.derive_s", stats::mean(&setup.derive)),
        ("engine.prepare_s", stage_mean("prepare")),
        ("engine.topk_s", stage_mean("topk")),
        ("engine.refined_s", stage_mean("refined")),
        ("engine.unstaged_s", stats::mean(&pass.walls) - staged),
        ("engine.topk.pairs_scored", scored),
        ("engine.topk.pairs_pruned", pruned),
        ("engine.topk.scored_share", scored / (scored + pruned).max(1.0)),
        ("service.snapshot.save_s", stats::mean(&setup.save)),
        ("service.snapshot.load_s", stats::mean(&setup.load)),
        ("service.snapshot.bytes", setup.bytes as f64),
        ("service.json.encode_s", encode.0),
        ("service.json.request_bytes", encode.1),
        ("service.daemon.parse_s", parse),
        ("service.daemon.queue_s", queue),
        ("service.daemon.engine_s", engine),
        ("service.daemon.emit_s", registry.mean("daemon_emit_seconds", None)),
        ("service.daemon.other_s", (attack_sum + add_sum) / served - parse - queue - engine),
        ("service.daemon.batch_size", registry.mean("daemon_batch_size", None)),
        ("service.daemon.add_s", if add_n > 0.0 { add_sum / add_n } else { 0.0 }),
        ("service.corpus.clone_s", stats::mean(&durations(&spans, "clone"))),
        ("service.corpus.append_s", stats::mean(&durations(&spans, "append"))),
        ("netpoll.wire_s", (round_trips - attack_sum - add_sum - emit_sum) / served),
        ("trace.attack_mean_s", stats::mean(&attack_walls)),
    ];
}

fn scrape(client: &mut ServiceClient) -> Result<Json, String> {
    client.metrics().map_err(|e| format!("metrics scrape: {e}"))
}

/// `serve-open-4k`: two closed-loop clients attacking an open-world
/// corpus in ~12-user slices.
pub fn serve(run: &Run, tracer: &Tracer, work: &Path) -> Result<RunResult, String> {
    let (forum, _) = tracer.time("generate", 0, 0, || {
        Forum::generate(&ForumConfig::webmd_like(USERS), crate::FORUM_SEED)
    });
    let (split, _) =
        tracer.time("split", 0, 0, || open_world_split(&forum, 0.7, splitmix64(run.seed)));
    drop(forum);
    let slices = slices(&split.anonymized, SLICE_USERS);
    let config = daemon_config(OPEN_WORLD);
    let snapshot = work.join("serve.snap");
    let (daemon, setup) = set_up(&split.auxiliary, &snapshot, &config, tracer)?;
    let encode = if tracer.enabled() {
        let forums: Vec<&Forum> = slices.iter().map(|(_, f)| f).collect();
        encode_cost(tracer, "attack", &forums, Some(&attack_options()))
    } else {
        (0.0, 0.0)
    };

    // Client `c` sends requests c, c + 2, …; request `r` attacks slice
    // `r mod slices`, so every run sends the same stratified prefix.
    let requests = run.units(SERVE_REQUESTS_PER_SECOND, SERVE_MIN_REQUESTS);
    let mut clients = [connect(&daemon)?, connect(&daemon)?];
    let before = scrape(&mut clients[0])?;
    let window = Instant::now();
    let loads: Vec<Load> = std::thread::scope(|scope| {
        let handles: Vec<_> = clients
            .iter_mut()
            .enumerate()
            .map(|(c, client)| {
                let slices = &slices;
                scope.spawn(move || {
                    let mut load = Load::default();
                    for r in (c..requests).step_by(2) {
                        let request = ((c as u64) << 32) | load.attempted;
                        let slice = r % slices.len();
                        if !send_attack(client, tracer, request, slice, &slices[slice].1, &mut load)
                        {
                            break;
                        }
                    }
                    load
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let elapsed = window.elapsed().as_secs_f64();
    let after = scrape(&mut clients[0])?;
    drop(clients);
    stop(daemon);
    let peak_rss = peak_rss_mb();
    let load = loads.into_iter().fold(Load::default(), |mut all, l| {
        all.attacks.extend(l.attacks);
        all.attempted += l.attempted;
        all.failed += l.failed;
        all
    });

    let corpus = PreparedCorpus::load_with(&snapshot, LoadMode::Mapped)
        .map_err(|e| format!("snapshot reload: {e}"))?;
    let pass = reference_pass(&corpus, &config, tracer, &slices, &split.oracle);
    for (n, sample) in load.attacks.iter().enumerate() {
        check(&format!("attack {n} (slice {})", sample.item), sample, &pass.outcomes[sample.item])?;
    }

    let walls: Vec<f64> = load.attacks.iter().map(|s| s.round_trip).collect();
    let mut result = RunResult::new(load.attempted, load.failed);
    result.end_to_end = end_to_end(&setup, &load, elapsed, &pass.quality, peak_rss);
    if tracer.enabled() {
        per_layer(
            &mut result,
            tracer,
            &setup,
            &Registry { before: &before, after: &after },
            &load,
            &pass,
            encode,
        );
    }
    result.detail(
        "workload_sizes",
        &[
            ("forum_users", USERS as f64),
            ("aux_users", corpus.n_users() as f64),
            ("anon_users", split.anonymized.n_users as f64),
            ("slices", slices.len() as f64),
            ("slice_users", SLICE_USERS as f64),
            ("requests", requests as f64),
            ("clients", 2.0),
        ],
    );
    result.samples("attack_s", &walls);
    result.detail("quality", &[("fp_rate", pass.quality.fp_rate())]);
    Ok(result)
}

/// The end-to-end metrics, as both daemon workloads define them;
/// `elapsed` is the wall time of the whole request list.
fn end_to_end(
    setup: &Setup,
    load: &Load,
    elapsed: f64,
    quality: &Quality,
    peak_rss: f64,
) -> Vec<(&'static str, f64)> {
    let attack_walls: Vec<f64> = load.attacks.iter().map(|s| s.round_trip).collect();
    let answered = (load.attacks.len() + load.ingests.len()) as f64;
    vec![
        ("setup_s", setup.seconds),
        ("attack_mean_s", stats::mean(&attack_walls)),
        ("requests_per_s", answered / elapsed),
        ("topk_hit_rate", quality.topk_hit_rate()),
        ("da_accuracy", quality.da_accuracy()),
        ("peak_rss_mb", peak_rss),
    ]
}

/// `ingest-4k`: one client alternating a ~40-user `add_auxiliary_users`
/// chunk from a disjoint cohort with a ~12-user attack.
pub fn ingest(run: &Run, tracer: &Tracer, work: &Path) -> Result<RunResult, String> {
    let (forum, _) = tracer.time("generate", 0, 0, || {
        Forum::generate(&ForumConfig::webmd_like(USERS), crate::FORUM_SEED)
    });
    let (split, _) = tracer.time("split", 0, 0, || {
        closed_world_split(&forum, &SplitConfig::fraction(0.7), splitmix64(run.seed))
    });
    drop(forum);
    let (cohort, _) = tracer.time("generate", 0, 0, || {
        Forum::generate(&ForumConfig::webmd_like(COHORT_USERS), COHORT_SEED)
    });
    let chunks = slices(&cohort, CHUNK_USERS);
    drop(cohort);
    let pairs = run.units(INGEST_PAIRS_PER_SECOND, 1);
    if pairs > chunks.len() {
        return Err(format!("{pairs} chunks asked for, the cohort has {}", chunks.len()));
    }
    let slices = slices(&split.anonymized, SLICE_USERS);
    let config = daemon_config(CLOSED_WORLD);
    let snapshot = work.join("ingest.snap");
    let (daemon, setup) = set_up(&split.auxiliary, &snapshot, &config, tracer)?;
    let encode = if tracer.enabled() {
        let forums: Vec<&Forum> = chunks[..pairs].iter().map(|(_, f)| f).collect();
        encode_cost(tracer, "add_auxiliary_users", &forums, None)
    } else {
        (0.0, 0.0)
    };

    let mut client = connect(&daemon)?;
    let before = scrape(&mut client)?;
    let mut load = Load::default();
    let window = Instant::now();
    for (i, (_, chunk)) in chunks[..pairs].iter().enumerate() {
        load.attempted += 1;
        let request = load.attempted;
        let (reply, wall) =
            tracer.time("request", 0, request, || client.add_auxiliary_users(chunk));
        if let Err(e) = reply {
            fail(&mut load, &e);
            break;
        }
        load.ingests.push(Sample {
            item: i,
            round_trip: wall.as_secs_f64(),
            mapping: vec![],
            candidates: vec![],
        });
        let slice = i % slices.len();
        let request = load.attempted + 1;
        if !send_attack(&mut client, tracer, request, slice, &slices[slice].1, &mut load) {
            break;
        }
    }
    let elapsed = window.elapsed().as_secs_f64();
    let after = scrape(&mut client)?;
    drop(client);
    stop(daemon);
    let peak_rss = peak_rss_mb();

    // Replay every chunk on an identical corpus, checking each attack
    // against the corpus it was served from; the paper metrics are then
    // taken on the grown corpus, so they cover the append path too.
    let mut mirror = PreparedCorpus::load_with(&snapshot, LoadMode::Mapped)
        .map_err(|e| format!("snapshot reload: {e}"))?;
    let engine = Engine::new(EngineConfig { n_threads: nproc(), ..config.clone() });
    for (i, (_, chunk)) in chunks[..pairs].iter().enumerate() {
        let (mut next, _) = tracer.time("clone", 0, 0, || mirror.clone());
        tracer.time("append", 0, 0, || next.append_users(chunk));
        mirror = next;
        if let Some(sample) = load.attacks.get(i) {
            let reference = mirror.attack(&engine, &slices[sample.item].1);
            check(&format!("attack after chunk {i}"), sample, &reference)?;
        }
    }
    let pass = reference_pass(&mirror, &config, tracer, &slices, &split.oracle);

    let walls: Vec<f64> = load.attacks.iter().map(|s| s.round_trip).collect();
    let ingest_walls: Vec<f64> = load.ingests.iter().map(|s| s.round_trip).collect();
    let mut result = RunResult::new(load.attempted, load.failed);
    result.end_to_end = end_to_end(&setup, &load, elapsed, &pass.quality, peak_rss);
    if tracer.enabled() {
        per_layer(
            &mut result,
            tracer,
            &setup,
            &Registry { before: &before, after: &after },
            &load,
            &pass,
            encode,
        );
    }
    result.detail(
        "workload_sizes",
        &[
            ("forum_users", USERS as f64),
            ("aux_users_at_start", split.auxiliary.n_users as f64),
            ("aux_users_at_end", mirror.n_users() as f64),
            ("anon_users", split.anonymized.n_users as f64),
            ("slices", slices.len() as f64),
            ("slice_users", SLICE_USERS as f64),
            ("chunk_users", CHUNK_USERS as f64),
            ("chunks_ingested", load.ingests.len() as f64),
            ("clients", 1.0),
        ],
    );
    result.samples("attack_s", &walls);
    result.samples("ingest_s", &ingest_walls);
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stratified_order_is_a_permutation_whose_prefixes_span_the_sizes() {
        for n in [0, 1, 2, 7, 65, 238] {
            let sizes: Vec<usize> = (0..n).map(|i| (i * 7919) % 1000).collect();
            let order = stratified_order(&sizes);
            let mut seen = order.clone();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n}");
        }
        let sizes: Vec<usize> = (0..100).rev().collect();
        let prefix: Vec<usize> = stratified_order(&sizes)[..5].iter().map(|&i| sizes[i]).collect();
        // The minimum, median, quartiles and first octile of the sorted
        // sizes, not five neighbours.
        assert_eq!(prefix, vec![0, 50, 25, 75, 12]);
    }

    #[test]
    fn slices_renumber_users_and_threads_and_keep_every_post() {
        let forum = Forum::generate(&ForumConfig::tiny(), 11);
        let cut = slices(&forum, 7);
        let mut offsets: Vec<usize> = cut.iter().map(|(o, _)| *o).collect();
        offsets.sort_unstable();
        assert_eq!(offsets, (0..forum.n_users).step_by(7).collect::<Vec<_>>());
        let mut posts = 0;
        for (offset, slice) in &cut {
            for (u, post) in slice.posts.iter().map(|p| (p.author, p)) {
                assert!(u < slice.n_users && post.thread < slice.n_threads);
                let original = &forum.posts[forum.user_posts(offset + u)[0]];
                assert_eq!(original.author, offset + u);
            }
            posts += slice.posts.len();
        }
        assert_eq!(posts, forum.posts.len());
    }
}
