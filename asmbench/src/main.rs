//! `asmbench`: the repository's benchmark (see README.md beside this file).
//!
//! ```text
//! asmbench --workload <mcf_mix|compute_mix|policy_sweep|mix_sweep|all>
//!          [--seed N] [--seconds S] [--trace 0|1] [--scale full|smoke]
//!          [--record]
//! ```
//!
//! Each workload runs in one process as a closed loop: one cycle-tier
//! operation, then its fast-tier operation(s), the next only after the
//! previous finished, until `--seconds` have passed. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics, or with `--trace 1` the
//! per-layer metrics), each metric as `{"value", "unit"}`.

mod digest;
mod host;
mod stats;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use asm_core::RunResult;
use asm_experiments::collect;
use asm_telemetry::JsonValue;

use crate::stats::{median, quartiles, tail};
use crate::workload::{Inputs, Kind, Scale};

/// The seed the benchmark runs when none is given: `SystemConfig`'s own.
const DEFAULT_SEED: u64 = 1;

/// Set-up passes per untraced run: at least [`SETUP_REPS`], and more
/// (up to [`SETUP_MAX_REPS`]) until [`SETUP_MIN_S`] seconds are spent, so
/// a set-up of a tenth of a second is not one noisy reading. `setup_s`
/// is their median: work moved into set-up shows without one slow pass
/// deciding the figure.
const SETUP_REPS: usize = 3;
const SETUP_MIN_S: f64 = 2.0;
const SETUP_MAX_REPS: usize = 25;

/// Shown beside every speed figure.
const UNVALIDATED: &str = "model unvalidated against hardware: accuracy is against internal references only (estimator vs simulated ground truth, fast tier vs cycle tier)";

#[derive(Debug, Clone)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    scale: Scale,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        scale: Scale::Full,
        record: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => a.workload = value()?,
            "--seed" => a.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => a.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => {
                a.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v}")),
                }
            }
            "--scale" => {
                a.scale = match value()?.as_str() {
                    "full" => Scale::Full,
                    "smoke" => Scale::Smoke,
                    v => return Err(format!("--scale takes full or smoke, not {v}")),
                }
            }
            "--record" => a.record = true,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    if a.workload != "all" && !workload::NAMES.contains(&a.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {} or all",
            workload::NAMES.join(", ")
        ));
    }
    if !(a.seconds.is_finite() && a.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

/// The directory this program was built from: recorded digests live
/// there, and traces are written under its `out/`.
fn home() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// One metric of a result.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// How `value` summarises `samples`.
    statistic: &'static str,
    /// Per-operation samples (empty for a single reading).
    samples: Vec<f64>,
    /// The same samples in plain wall time, where `samples` are host
    /// times rescaled to the reference host.
    wall: Option<Vec<f64>>,
}

/// Median, quartiles and tail of some samples, for the record.
fn summary(xs: &[f64]) -> Vec<(String, JsonValue)> {
    let mut m = vec![("samples".into(), JsonValue::num_u64(xs.len() as u64))];
    if let Some(med) = median(xs) {
        m.push(("median".into(), JsonValue::Num(med)));
    }
    if let Some((q1, q3)) = quartiles(xs) {
        m.push(("q1".into(), JsonValue::Num(q1)));
        m.push(("q3".into(), JsonValue::Num(q3)));
    }
    if let Some(t) = tail(xs) {
        m.push((format!("p{}", t.pct), JsonValue::Num(t.value)));
        m.push(("beyond".into(), JsonValue::num_u64(t.beyond as u64)));
    }
    if !xs.is_empty() {
        m.push((
            "values".into(),
            JsonValue::Arr(xs.iter().map(|&v| JsonValue::Num(v)).collect()),
        ));
    }
    m
}

impl Metric {
    fn one(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric {
            name,
            unit,
            value,
            statistic: "reading",
            samples: Vec::new(),
            wall: None,
        }
    }

    /// The median of host-time `samples` rescaled to the reference host,
    /// with their wall-time originals.
    fn rescaled_median(
        name: &'static str,
        samples: Vec<f64>,
        wall: Vec<f64>,
        unit: &'static str,
    ) -> Self {
        Metric {
            name,
            unit,
            value: median(&samples).unwrap_or(f64::NAN),
            statistic: "rescaled median",
            samples,
            wall: Some(wall),
        }
    }

    /// The 90th percentile of wall times, for an operation whose time
    /// does not follow the reference kernel (see `host.rs`). Its times
    /// split into a fast and a slow mode with host load, and the share
    /// of each varies from run to run; in every run measured, more than a
    /// tenth of the calls fell in the slow mode, so the 90th percentile
    /// stays in it.
    fn wall_p90(name: &'static str, samples: Vec<f64>, unit: &'static str) -> Self {
        Metric {
            name,
            unit,
            value: stats::percentile(&samples, 90.0).unwrap_or(f64::NAN),
            statistic: "wall-time p90",
            samples,
            wall: None,
        }
    }

    fn record(&self) -> JsonValue {
        let mut m = vec![
            ("value".into(), JsonValue::Num(self.value)),
            ("unit".into(), JsonValue::str(self.unit)),
        ];
        if !self.samples.is_empty() {
            m.push(("statistic".into(), JsonValue::str(self.statistic)));
            m.extend(summary(&self.samples));
        }
        if let Some(wall) = &self.wall {
            m.push(("wall".into(), JsonValue::Obj(summary(wall))));
        }
        JsonValue::Obj(m)
    }
}

/// Everything one workload run reports.
struct Outcome {
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    metrics: Vec<Metric>,
    /// Speed and accuracy under their per-tier names (name, value, unit),
    /// printed after the metrics.
    named: Vec<(&'static str, f64, &'static str)>,
    extra: Vec<(String, JsonValue)>,
}

impl Outcome {
    /// A run that could not complete its first operation.
    fn failed_at_start(members: u64, problem: &str) -> Self {
        Outcome {
            attempted: members,
            failed: members,
            problems: vec![problem.to_owned()],
            metrics: Vec::new(),
            named: Vec::new(),
            extra: Vec::new(),
        }
    }
}

/// Digests an operation's outputs must match: the first iteration's,
/// and the recorded ones when `digests.json` holds this seed.
#[derive(Default)]
struct Expect {
    first: Option<Vec<u64>>,
    recorded: Option<Vec<u64>>,
}

impl Expect {
    /// Checks one operation's per-member digests and sanity flags;
    /// returns the number of failed members.
    fn check(
        &mut self,
        tier: &str,
        digests: &[u64],
        sane: &[bool],
        problems: &mut Vec<String>,
    ) -> u64 {
        let mut failed = 0;
        for (i, (d, ok)) in digests.iter().zip(sane).enumerate() {
            let mut bad = Vec::new();
            if self.first.as_ref().is_some_and(|f| f.get(i) != Some(d)) {
                bad.push("differs from the first iteration");
            }
            if self.recorded.as_ref().is_some_and(|r| r.get(i) != Some(d)) {
                bad.push("differs from the recorded digest");
            }
            if !ok {
                bad.push("has a slowdown out of range");
            }
            if !bad.is_empty() {
                failed += 1;
                problems.push(format!("{tier} member {i} ({d:016x}) {}", bad.join(", ")));
            }
        }
        if self.first.is_none() {
            self.first = Some(digests.to_vec());
        }
        failed
    }
}

fn cycle_digests(results: &[RunResult]) -> (Vec<u64>, Vec<bool>) {
    let sane = results
        .iter()
        .map(|r| {
            r.whole_run_slowdowns
                .iter()
                .all(|s| s.is_finite() && *s >= 1.0)
        })
        .collect();
    (results.iter().map(digest::of_run).collect(), sane)
}

fn fast_digests(fast: &workload::FastOut) -> (Vec<u64>, Vec<bool>) {
    let sane = fast
        .slowdowns
        .iter()
        .map(|m| m.iter().all(|s| s.is_finite() && *s > 0.0))
        .collect();
    (
        fast.slowdowns
            .iter()
            .map(|m| digest::of_slowdowns(m))
            .collect(),
        sane,
    )
}

fn hex_list(ds: &[u64]) -> JsonValue {
    JsonValue::Arr(
        ds.iter()
            .map(|x| JsonValue::str(format!("{x:016x}")))
            .collect(),
    )
}

/// Set-up times in seconds: rescaled to the reference host, and wall.
struct SetupTimes {
    scaled: Vec<f64>,
    wall: Vec<f64>,
}

/// Runs set-up at least `reps` times (and, for `reps` > 1, until
/// [`SETUP_MIN_S`] of wall time is spent) and installs the last pass's
/// alone cache process-wide, so both tiers read it.
fn set_up(
    args: &Args,
    reps: usize,
    host: &mut host::HostLog,
) -> (Inputs, workload::Setup, SetupTimes) {
    let mut t = SetupTimes {
        scaled: Vec::new(),
        wall: Vec::new(),
    };
    let mut last = None;
    while t.wall.len() < reps
        || (reps > 1 && t.wall.len() < SETUP_MAX_REPS && t.wall.iter().sum::<f64>() < SETUP_MIN_S)
    {
        host.begin();
        let (inp, s) = workload::setup(&args.workload, args.seed, args.scale);
        let speed = host.end();
        t.scaled.push(s.total_s * speed);
        t.wall.push(s.total_s);
        last = Some((inp, s));
    }
    let (inp, s) = last.expect("reps >= 1");
    collect::install_alone_cache(std::sync::Arc::clone(&s.cache));
    (inp, s, t)
}

/// Runs `f`, timing it and logging the host around it. Returns the
/// output (`None` on a panic), the wall time, and the factor that
/// rescales it to the reference host.
fn timed<T>(host: &mut host::HostLog, f: impl FnOnce() -> T) -> (Option<T>, f64, f64) {
    host.begin();
    let t = Instant::now();
    let out = catch_unwind(AssertUnwindSafe(f)).ok();
    let dt = t.elapsed().as_secs_f64();
    let speed = host.end();
    (out, dt, speed)
}

fn measure(args: &Args, cycle: &mut Expect, fast: &mut Expect) -> Outcome {
    let mut host = host::HostLog::default();
    let (inp, setup, setup_times) = set_up(args, SETUP_REPS, &mut host);
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let members = inp.runs.len() as u64;

    // The process-wide analytic profile store fills on its first solve;
    // do that before the clock starts, like the alone cache above.
    let (warm_fast, warm_fast_s, _) = timed(&mut host, || workload::fast_op(&inp));
    let Some(warm_fast) = warm_fast else {
        return Outcome::failed_at_start(members, "fast tier panicked");
    };
    attempted += members;
    let (d, sane) = fast_digests(&warm_fast);
    failed += fast.check("fast", &d, &sane, &mut problems);

    let sim_cycles = workload::sim_cycles(&inp) as f64;
    let (mut mcps, mut fast_s) = (Vec::new(), Vec::new());
    let (mut mcps_wall, mut fast_wall) = (Vec::new(), Vec::new());
    let mut first_results: Option<Vec<RunResult>> = None;
    let t0 = Instant::now();
    while mcps.is_empty() || t0.elapsed().as_secs_f64() < args.seconds {
        attempted += members;
        let (out, dt, speed) = timed(&mut host, || workload::cycle_op(&inp, &setup.cache));
        let Some(results) = out else {
            failed += members;
            problems.push("cycle tier panicked".into());
            break;
        };
        let (d, sane) = cycle_digests(&results);
        failed += cycle.check("cycle", &d, &sane, &mut problems);
        mcps.push(sim_cycles / (dt * speed) / 1e6);
        mcps_wall.push(sim_cycles / dt / 1e6);
        first_results.get_or_insert(results);
        // One host reading around the group: a single-mix solve takes
        // about a millisecond, less than the reference kernel.
        host.begin();
        let mut group = Vec::with_capacity(inp.fast_reps);
        for _ in 0..inp.fast_reps {
            attempted += members;
            let t = Instant::now();
            let out = catch_unwind(AssertUnwindSafe(|| workload::fast_op(&inp))).ok();
            let dt = t.elapsed().as_secs_f64();
            let Some(f) = out else {
                failed += members;
                problems.push("fast tier panicked".into());
                continue;
            };
            let (d, sane) = fast_digests(&f);
            failed += fast.check("fast", &d, &sane, &mut problems);
            group.push(dt);
        }
        let speed = host.end();
        fast_s.extend(group.iter().map(|dt| dt * speed));
        fast_wall.extend(group);
    }
    // The sampled tier runs the simulator and is rescaled like the cycle
    // tier. The analytic solver's time does not follow the reference
    // kernel, so it stays in wall time.
    let fast_metric = if inp.kind == Kind::PolicySweep {
        Metric::rescaled_median("fast_s", fast_s, fast_wall, "s")
    } else {
        Metric::wall_p90("fast_s", fast_wall, "s")
    };
    let measured_s = t0.elapsed().as_secs_f64();
    let acc = first_results
        .as_deref()
        .map(|r| workload::Accuracy::of(&inp, r, &warm_fast));

    let named = acc.map_or_else(Vec::new, |a| a.named(&inp, fast_metric.value));
    let metrics = vec![
        Metric::rescaled_median("sim_mcps", mcps, mcps_wall, "Mcycles/s"),
        fast_metric,
        Metric::rescaled_median("setup_s", setup_times.scaled, setup_times.wall, "s"),
        Metric::one("peak_rss_mb", host::peak_rss_mb(), "MB"),
    ];
    let extra = vec![
        ("host".into(), host.to_json()),
        ("measured_s".into(), JsonValue::Num(measured_s)),
        ("warm_fast_s".into(), JsonValue::Num(warm_fast_s)),
        ("runner_alone_s".into(), JsonValue::Num(setup.alone_s)),
        ("sim_cycles_per_op".into(), JsonValue::Num(sim_cycles)),
        (
            "recorded_digests".into(),
            JsonValue::Bool(cycle.recorded.is_some() && fast.recorded.is_some()),
        ),
    ];
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
        named,
        extra,
    }
}

fn traced(args: &Args, cycle: &mut Expect, fast: &mut Expect) -> Outcome {
    let mut host = host::HostLog::default();
    let (inp, setup, _) = set_up(args, 1, &mut host);
    let members = inp.runs.len() as u64;
    let mut problems = Vec::new();
    let (out, u_wall, u_speed) = timed(&mut host, || workload::cycle_op(&inp, &setup.cache));
    let Some(results) = out else {
        return Outcome::failed_at_start(members, "cycle tier panicked");
    };
    let (d, sane) = cycle_digests(&results);
    let mut failed = cycle.check("cycle", &d, &sane, &mut problems);
    let (out, _, _) = timed(&mut host, || workload::fast_op(&inp));
    let Some(f) = out else {
        return Outcome::failed_at_start(members, "fast tier panicked");
    };
    let (d, sane) = fast_digests(&f);
    failed += fast.check("fast", &d, &sane, &mut problems);
    let mut attempted = 2 * members;
    let acc = workload::Accuracy::of(&inp, &results, &f);
    let tr = trace::run(
        &inp,
        &setup.cache,
        (&results, u_wall * u_speed),
        &f,
        setup.alone_s,
        &mut host,
    );
    attempted += tr.attempted;
    failed += tr.failed;
    problems.extend(tr.problems);
    let out_dir = home().join("out");
    let path = out_dir.join(format!("trace-{}-{}.json", inp.name, args.seed));
    let written = std::fs::create_dir_all(&out_dir)
        .and_then(|()| std::fs::write(&path, tr.spans.to_json().to_json()));
    if let Err(e) = written {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    let mut metrics: Vec<Metric> = tr
        .metrics
        .into_iter()
        .map(|(n, v, u)| Metric::one(n, v, u))
        .collect();
    metrics.push(Metric::one("accuracy.asm_err_pct", acc.asm_err_pct, "%"));
    metrics.push(Metric::one("accuracy.fast_err_pct", acc.fast_err_pct, "%"));
    metrics.push(Metric::one(
        "accuracy.fast_worst_pct",
        acc.fast_worst_pct,
        "%",
    ));
    Outcome {
        attempted,
        failed,
        problems,
        metrics,
        named: Vec::new(),
        extra: vec![
            ("host".into(), host.to_json()),
            (
                "trace_file".into(),
                JsonValue::str(path.display().to_string()),
            ),
        ],
    }
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(correct)),
        ("attempted".into(), JsonValue::num_u64(attempted)),
        ("failed".into(), JsonValue::num_u64(failed)),
        (
            "metrics".into(),
            JsonValue::Obj(
                metrics
                    .iter()
                    .map(|m| {
                        (
                            m.name.to_owned(),
                            JsonValue::Obj(vec![
                                ("value".into(), JsonValue::Num(m.value)),
                                ("unit".into(), JsonValue::str(m.unit)),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ),
    ])
    .to_json()
}

fn run_one(args: &Args) -> Result<bool, String> {
    let path: PathBuf = home().join(digest::FILE);
    let mut file = digest::Recorded::load(&path)?;
    let key = digest::key(args.scale.name(), &args.workload, args.seed);
    let fast_key = format!("{key}/fast");
    let recorded = |k: &str| {
        if args.record {
            None
        } else {
            file.get(k).map(<[u64]>::to_vec)
        }
    };
    let mut cycle = Expect {
        first: None,
        recorded: recorded(&key),
    };
    let mut fast = Expect {
        first: None,
        recorded: recorded(&fast_key),
    };
    let mut o = if args.trace {
        traced(args, &mut cycle, &mut fast)
    } else {
        measure(args, &mut cycle, &mut fast)
    };
    let correct = o.failed == 0 && o.problems.is_empty() && !o.metrics.is_empty();
    if let (Some(c), Some(f)) = (&cycle.first, &fast.first) {
        o.extra.push(("digests".into(), hex_list(c)));
        o.extra.push(("fast_digests".into(), hex_list(f)));
        if args.record && correct {
            file.set(key.clone(), c.clone());
            file.set(fast_key, f.clone());
            file.save(&path)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("recorded {key}");
        }
    }

    println!(
        "asmbench {} seed={} scale={} trace={} ({UNVALIDATED})",
        args.workload,
        args.seed,
        args.scale.name(),
        u8::from(args.trace)
    );
    for m in &o.metrics {
        let mut spread = quartiles(&m.samples)
            .map(|(q1, q3)| {
                format!(
                    "  {} of {}; q1 {q1:.6} q3 {q3:.6}",
                    m.statistic,
                    m.samples.len()
                )
            })
            .unwrap_or_default();
        if let Some(wall) = m.wall.as_deref().and_then(median) {
            spread.push_str(&format!("; wall median {wall:.6}"));
        }
        println!("  {:<34} {:>16.6} {:<10}{spread}", m.name, m.value, m.unit);
    }
    for (name, value, unit) in &o.named {
        println!("  {name:<34} {value:>16.6} {unit}");
    }
    println!(
        "  failed_frac {} ({} of {} operations)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted
    );
    for p in &o.problems {
        println!("  problem: {p}");
    }
    let mut record = vec![
        ("workload".into(), JsonValue::str(args.workload.clone())),
        ("seed".into(), JsonValue::num_u64(args.seed)),
        ("scale".into(), JsonValue::str(args.scale.name())),
        ("trace".into(), JsonValue::Bool(args.trace)),
        (
            "metrics".into(),
            JsonValue::Obj(
                o.metrics
                    .iter()
                    .map(|m| (m.name.to_owned(), m.record()))
                    .collect(),
            ),
        ),
    ];
    record.push((
        "named".into(),
        JsonValue::Obj(
            o.named
                .iter()
                .map(|&(n, v, _)| (n.to_owned(), JsonValue::Num(v)))
                .collect(),
        ),
    ));
    record.extend(o.extra);
    println!("record {}", JsonValue::Obj(record).to_json());
    println!(
        "{}",
        result_line(correct, o.attempted.max(1), o.failed, &o.metrics)
    );
    Ok(correct)
}

/// `--workload all`: each workload in its own process (the alone cache
/// and profile store are process-wide), one after the other.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut all_ok = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut metrics = Vec::new();
    for name in workload::NAMES {
        let mut cmd = std::process::Command::new(&exe);
        cmd.args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .args(["--scale", args.scale.name()]);
        if args.record {
            cmd.arg("--record");
        }
        let out = cmd.output().map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!(
            "{}",
            stdout
                .lines()
                .filter(|l| !l.starts_with('{'))
                .map(|l| format!("{l}\n"))
                .collect::<String>()
        );
        let last = stdout.lines().last().unwrap_or_default();
        let doc =
            asm_telemetry::json::parse(last).map_err(|e| format!("{name}: no result ({e:?})"))?;
        all_ok &= out.status.success() && matches!(doc.get("correct"), Some(JsonValue::Bool(true)));
        attempted += doc
            .get("attempted")
            .and_then(JsonValue::as_num)
            .unwrap_or(0.0) as u64;
        failed += doc.get("failed").and_then(JsonValue::as_num).unwrap_or(1.0) as u64;
        if let Some(JsonValue::Obj(ms)) = doc.get("metrics") {
            for (k, v) in ms {
                metrics.push((format!("{name}/{k}"), v.clone()));
            }
        }
    }
    let line = JsonValue::Obj(vec![
        ("correct".into(), JsonValue::Bool(all_ok)),
        ("attempted".into(), JsonValue::num_u64(attempted.max(1))),
        ("failed".into(), JsonValue::num_u64(failed)),
        ("metrics".into(), JsonValue::Obj(metrics)),
    ]);
    println!("{}", line.to_json());
    Ok(all_ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("asmbench: {e}");
            return ExitCode::from(2);
        }
    };
    let res = if args.workload == "all" {
        run_all(&args)
    } else {
        run_one(&args)
    };
    // A run that printed its result exits 0; `correct` carries the verdict.
    match res {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("asmbench: {e}");
            ExitCode::from(2)
        }
    }
}
