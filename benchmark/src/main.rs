//! End-to-end and per-layer benchmark of the De-Health attack system.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Each run generates its workload from
//! `--seed`, sets the system up, times a fixed amount of work to completion
//! (sized from `--seconds`, see [`Run::units`]), checks every answer
//! against a reference, and prints two JSON lines on stdout: the
//! run's provenance and details (sample counts, tail percentiles, the
//! false-positive rate), then the result object — the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A traced run
//! also writes its spans to `.bench_trace/<workload>-seed<n>.json`. A
//! wrong answer ends the run with a non-zero exit and no result line.
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! - `batch-closed-10k` — exact batch attacks of ~1.9k anonymized users
//!   against a 10k-user closed-world corpus, in process ([`batch`]).
//! - `serve-open-4k` — two closed-loop clients attacking a daemon serving
//!   an open-world 4k corpus in ~12-user JSON requests ([`served`]).
//! - `ingest-4k` — one client alternating ~40-user `add_auxiliary_users`
//!   chunks with ~12-user attacks against a closed-world 4k daemon.

mod batch;
mod quality;
mod served;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use dehealth_engine::EngineReport;
use dehealth_service::Json;

/// Seed of every workload's forum population. The population is fixed so
/// that runs on different seeds compare like with like: post counts are
/// heavy-tailed, and a population drawn afresh per seed moves the few
/// largest users — and with them every timing — more than any change
/// worth detecting. `--seed` draws the split (who is anonymized, which
/// posts are auxiliary), hence the corpus and every attack request.
pub const FORUM_SEED: u64 = 20_200_420;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

/// End-to-end metrics, printed by every untraced run: name and unit.
///
/// Attack latency is an exact mean. The daemon's front thread collects
/// finished replies only on its 25 ms poll tick, so wire latencies come
/// in whole ticks and their median jumps a tick (12–15%) at a time; the
/// nearest-rank median and p90, with their sample counts, are on the
/// details line.
const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("attack_mean_s", "s"),
    ("requests_per_s", "1/s"),
    ("topk_hit_rate", "share"),
    ("da_accuracy", "share"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by every traced run: name and unit. A
/// workload that does not exercise a layer reports 0 for it.
const PER_LAYER: [(&str, &str); 26] = [
    ("stylometry.extract_s", "s"),
    ("core.derive_s", "s"),
    ("engine.prepare_s", "s"),
    ("engine.topk_s", "s"),
    ("engine.refined_s", "s"),
    ("engine.unstaged_s", "s"),
    ("engine.topk.pairs_scored", "count"),
    ("engine.topk.pairs_pruned", "count"),
    ("engine.topk.scored_share", "share"),
    ("service.snapshot.save_s", "s"),
    ("service.snapshot.load_s", "s"),
    ("service.snapshot.bytes", "bytes"),
    ("service.json.encode_s", "s"),
    ("service.json.request_bytes", "bytes"),
    ("service.daemon.parse_s", "s"),
    ("service.daemon.queue_s", "s"),
    ("service.daemon.engine_s", "s"),
    ("service.daemon.emit_s", "s"),
    ("service.daemon.other_s", "s"),
    ("service.daemon.batch_size", "count"),
    ("service.daemon.add_s", "s"),
    ("service.corpus.clone_s", "s"),
    ("service.corpus.append_s", "s"),
    ("netpoll.wire_s", "s"),
    ("trace.attack_mean_s", "s"),
    ("trace.overhead_s", "s"),
];

/// One benchmark invocation.
#[derive(Debug, Clone)]
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Run {
    /// Units of work (attacks, requests, chunks) a run does: `--seconds`
    /// at `per_second`, the rate the workload sustains on a 2-core x86-64
    /// VM, and at least `min`. The work depends on `--seconds` alone and
    /// is timed to completion, so a slower or faster host moves the
    /// times, never what was measured.
    #[must_use]
    pub fn units(&self, per_second: f64, min: usize) -> usize {
        ((self.seconds * per_second).round() as usize).max(min)
    }
}

/// What a workload measured.
#[derive(Debug, Default)]
pub struct RunResult {
    attempted: u64,
    failed: u64,
    end_to_end: Vec<(&'static str, f64)>,
    per_layer: Vec<(&'static str, f64)>,
    details: Vec<(String, Json)>,
}

impl RunResult {
    fn new(attempted: u64, failed: u64) -> Self {
        Self { attempted, failed, ..Self::default() }
    }

    /// Attach a group of named numbers to the details line.
    fn detail(&mut self, group: &str, values: &[(&str, f64)]) {
        let fields = values.iter().map(|&(k, v)| (k.to_string(), Json::Num(v))).collect();
        self.details.push((group.to_string(), Json::Obj(fields)));
    }

    /// Attach a latency distribution: sample count, max, nearest-rank
    /// median, and p90 only when ten samples lie beyond it.
    fn samples(&mut self, group: &str, samples: &[f64]) {
        let percentile = |p: Option<stats::Percentile>| match p {
            Some(p) => Json::Obj(vec![
                ("value".into(), Json::Num(p.value)),
                ("samples".into(), Json::int(p.samples)),
                ("beyond".into(), Json::int(p.beyond)),
            ]),
            None => Json::Null,
        };
        let max = samples.iter().copied().fold(f64::NAN, f64::max);
        self.details.push((
            group.to_string(),
            Json::Obj(vec![
                ("samples".into(), Json::int(samples.len())),
                ("max".into(), Json::Num(max)),
                ("p50".into(), percentile(stats::median(samples))),
                ("p90".into(), percentile(stats::tail(samples, 0.9))),
            ]),
        ));
    }
}

/// Worker threads the engine gets for in-process attacks.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process (VmHWM), MiB; 0 where `/proc` is
/// unavailable.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|text| {
            let line = text.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// splitmix64: derives the workload's sub-seeds from `--seed`.
#[must_use]
pub fn splitmix64(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Seconds an engine report spent in `stage` (0 when absent).
#[must_use]
pub fn stage_seconds(report: &EngineReport, stage: &str) -> f64 {
    report.stage(stage).map_or(0.0, |s| s.seconds)
}

fn parse_args() -> Result<Run, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Result<&str, String> {
        let at = args.iter().position(|a| a == flag).ok_or(format!("missing {flag}"))?;
        args.get(at + 1).map(String::as_str).ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = value("--seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    Ok(Run {
        workload: value("--workload")?.to_string(),
        seed: value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match value("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// FNV-1a over every source file that builds the system, so a result
/// names the code it measured even in a checkout without git metadata.
fn source_fingerprint() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else { return };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    walk(Path::new("benchmark"), &mut files);
    files.sort();
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for file in files {
        let Ok(bytes) = std::fs::read(&file) else { continue };
        for b in file.to_string_lossy().bytes().chain(bytes) {
            hash = (hash ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{hash:016x}")
}

/// The checked-out git revision, read from `.git` without running git.
fn git_revision() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(Path::new(".git").join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
    packed
        .lines()
        .find(|l| l.ends_with(reference))
        .and_then(|l| l.split_whitespace().next())
        .map(str::to_string)
}

/// Removes the run's working directory (snapshot files) however the run
/// ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        let _ = std::fs::remove_dir(".bench_work");
    }
}

/// The result line's `metrics` object. A name missing from `values` is
/// `missing`'s value, or a bug when there is none.
fn metrics_json(
    values: &[(&'static str, f64)],
    names: &[(&str, &str)],
    missing: Option<f64>,
) -> Json {
    Json::Obj(
        names
            .iter()
            .map(|&(name, unit)| {
                let value = values
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v)
                    .or(missing)
                    .unwrap_or_else(|| panic!("workload did not measure {name}"));
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(value)),
                        ("unit".into(), Json::Str(unit.into())),
                    ]),
                )
            })
            .collect(),
    )
}

fn main() -> ExitCode {
    let run = match parse_args() {
        Ok(run) => run,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: --workload <batch-closed-10k|serve-open-4k|ingest-4k> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("error: run from the repository root (no crates/ directory here)");
        return ExitCode::from(2);
    }
    if let Err(e) = quality::self_test() {
        eprintln!("error: paper-metric self-test failed: {e}");
        return ExitCode::FAILURE;
    }

    let tracer = trace::Tracer::new(run.trace);
    let work = WorkDir(PathBuf::from(".bench_work").join(std::process::id().to_string()));
    if let Err(e) = std::fs::create_dir_all(&work.0) {
        eprintln!("error: creating {}: {e}", work.0.display());
        return ExitCode::FAILURE;
    }
    let outcome = match run.workload.as_str() {
        "batch-closed-10k" => batch::run(&run, &tracer),
        "serve-open-4k" => served::serve(&run, &tracer, &work.0),
        "ingest-4k" => served::ingest(&run, &tracer, &work.0),
        other => Err(format!("unknown workload {other}")),
    };
    drop(work);
    let mut result = match outcome {
        Ok(result) => result,
        Err(e) => {
            eprintln!("error: {}: {e}", run.workload);
            return ExitCode::FAILURE;
        }
    };

    let metrics = if run.trace {
        let (spans, overhead) = tracer.finish();
        let dir = Path::new(".bench_trace");
        let path = dir.join(format!("{}-seed{}.json", run.workload, run.seed));
        if let Err(e) = std::fs::create_dir_all(dir)
            .and_then(|()| std::fs::write(&path, trace::spans_to_json(&spans)))
        {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        result.per_layer.push(("trace.overhead_s", overhead.as_secs_f64()));
        result.detail("trace", &[("spans", spans.len() as f64)]);
        metrics_json(&result.per_layer, &PER_LAYER, Some(0.0))
    } else {
        metrics_json(&result.end_to_end, &END_TO_END, None)
    };

    let provenance = Json::Obj(vec![
        ("git_revision".into(), git_revision().map_or(Json::Null, Json::Str)),
        ("source_fingerprint".into(), Json::Str(source_fingerprint())),
        ("nproc".into(), Json::int(nproc())),
        ("workload".into(), Json::Str(run.workload.clone())),
        ("seed".into(), Json::Str(run.seed.to_string())),
        ("seconds".into(), Json::Num(run.seconds)),
        ("trace".into(), Json::Bool(run.trace)),
        ("attempted".into(), Json::Num(result.attempted as f64)),
        ("failed".into(), Json::Num(result.failed as f64)),
        ("failed_share".into(), Json::Num(result.failed as f64 / result.attempted.max(1) as f64)),
    ]);
    let mut details = vec![("provenance".to_string(), provenance)];
    details.append(&mut result.details);
    println!("{}", Json::Obj(details).emit());
    println!(
        "{}",
        Json::Obj(vec![
            ("correct".into(), Json::Bool(true)),
            ("attempted".into(), Json::Num(result.attempted as f64)),
            ("failed".into(), Json::Num(result.failed as f64)),
            ("metrics".into(), metrics),
        ])
        .emit()
    );
    ExitCode::SUCCESS
}
