//! The four workloads: their inputs (a pure function of the seed and the
//! scale), their set-up, and the operations the timed loop repeats.
//!
//! The simulator receives only the generated profiles and
//! configurations. Every workload runs the cycle tier; each also has a
//! *fast tier* compared against it:
//!
//! | workload       | cycle tier                    | fast tier                          |
//! |----------------|-------------------------------|------------------------------------|
//! | `mcf_mix`      | one `Runner::run`             | `analytic::solve_mixes` on the mix |
//! | `compute_mix`  | one `Runner::run`             | `analytic::solve_mixes` on the mix |
//! | `policy_sweep` | `plan::run_campaign`, 38 runs | `sampled::run_campaign`            |
//! | `mix_sweep`    | `plan::run_campaign`, 38 runs | `analytic::solve_mixes`, 38 mixes  |

use std::sync::Arc;
use std::time::Instant;

use asm_analytic::{ProfileParams, ProfileStore};
use asm_core::SystemConfig;
use asm_core::{AloneCache, CachePolicy, EstimatorSet, MemPolicy, QosConfig, RunResult, Runner};
use asm_cpu::AppProfile;
use asm_experiments::exps::xval;
use asm_experiments::plan::{self, PlannedRun};
use asm_experiments::{analytic, sampled};
use asm_simcore::{AppId, Cycle};
use asm_workloads::suite;

/// The workloads, in the order `--workload all` runs them.
pub const NAMES: [&str; 4] = ["mcf_mix", "compute_mix", "policy_sweep", "mix_sweep"];

/// Run length: `full` is what the benchmark measures; `smoke` runs every
/// workload end to end in seconds (a check of the benchmark itself, not
/// a measurement).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The measured scale.
    Full,
    /// Seconds per workload.
    Smoke,
}

impl Scale {
    /// The CLI spelling.
    pub fn name(self) -> &'static str {
        match self {
            Scale::Full => "full",
            Scale::Smoke => "smoke",
        }
    }
}

/// Which kind of campaign a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// One cycle-tier run; the analytic tier solves the same mix.
    Single,
    /// 38 policies on one mix; the sampled tier is the fast tier.
    PolicySweep,
    /// 38 mixes under one neutral config; the analytic tier is the fast tier.
    MixSweep,
}

/// One workload's generated inputs.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Workload name.
    pub name: &'static str,
    /// Campaign kind.
    pub kind: Kind,
    /// Every cycle-tier run (one for single runs, 38 for sweeps).
    pub runs: Vec<PlannedRun>,
    /// Quanta at the start of each run left out of accuracy figures:
    /// caches start empty.
    pub warmup_quanta: usize,
    /// Sampled-tier scale (`policy_sweep` only; unused elsewhere).
    pub sampled: asm_experiments::Scale,
    /// Fast-tier calls per timed iteration: a single-mix analytic solve
    /// takes about a millisecond, so it is repeated to give the median
    /// enough samples.
    pub fast_reps: usize,
    /// The member the traced run steps in quantum chunks and the layer
    /// measurements take their shape from.
    pub rep: usize,
}

fn profiles(names: &[&str]) -> Vec<AppProfile> {
    names
        .iter()
        .map(|n| suite::by_name(n).expect("suite profile exists"))
        .collect()
}

/// The 19 cache policies of the policy sweep: four plain mechanisms,
/// naive QoS and 14 ASM-QoS bounds, all targeting app 0.
fn cache_policies() -> Vec<CachePolicy> {
    let target = AppId::new(0);
    let mut v = vec![
        CachePolicy::None,
        CachePolicy::Ucp,
        CachePolicy::Mcfq,
        CachePolicy::AsmCache,
        CachePolicy::NaiveQos(target),
    ];
    for k in 0..14 {
        v.push(CachePolicy::AsmQos(QosConfig {
            target,
            bound: 1.5 + 0.25 * f64::from(k),
        }));
    }
    v
}

/// Builds a workload's inputs from its name, seed and scale. `None` for
/// an unknown name.
#[must_use]
pub fn inputs(name: &str, seed: u64, scale: Scale) -> Option<Inputs> {
    let smoke = scale == Scale::Smoke;
    let mut sampled = asm_experiments::Scale::reduced();
    sampled.jobs = 1;
    sampled.seed = seed;
    let (name, kind, runs, warmup_quanta, fast_reps, rep) = match name {
        "mcf_mix" | "compute_mix" => {
            let apps = if name == "mcf_mix" {
                profiles(&["mcf_like"; 4])
            } else {
                profiles(&["h264ref_like", "povray_like", "h264ref_like", "povray_like"])
            };
            let mut c = SystemConfig::default();
            c.seed = seed;
            let cycles = if smoke {
                c.quantum = 500_000;
                1_500_000
            } else {
                10_000_000
            };
            let name = if name == "mcf_mix" {
                "mcf_mix"
            } else {
                "compute_mix"
            };
            (
                name,
                Kind::Single,
                vec![PlannedRun::new(c, apps, cycles)],
                1,
                20,
                0,
            )
        }
        "policy_sweep" => {
            let apps = profiles(&["mcf_like", "libquantum_like", "soplex_like", "h264ref_like"]);
            let (quantum, cycles) = if smoke {
                (20_000, 400_000)
            } else {
                (50_000, 1_000_000)
            };
            let mut runs = Vec::new();
            for cache in cache_policies() {
                for mem in [MemPolicy::Uniform, MemPolicy::SlowdownWeighted] {
                    let mut c = SystemConfig::default();
                    c.quantum = quantum;
                    c.epoch = 2_000;
                    c.seed = seed;
                    c.cache_policy = cache;
                    c.mem_policy = mem;
                    runs.push(PlannedRun::new(c, apps.clone(), cycles));
                }
            }
            sampled.quantum = quantum;
            sampled.cycles = cycles;
            sampled.sample_intervals = 2;
            sampled.sample_quanta = 2;
            // The representative member: ASM-Cache with slowdown-weighted
            // memory, whose quantum boundaries run estimator and
            // partitioning work.
            let rep = runs
                .iter()
                .position(|r| {
                    r.config.cache_policy == CachePolicy::AsmCache
                        && r.config.mem_policy == MemPolicy::SlowdownWeighted
                })
                .expect("the sweep has an ASM-Cache member");
            ("policy_sweep", Kind::PolicySweep, runs, 2, 1, rep)
        }
        "mix_sweep" => {
            // The xval validation sweep: 36 ordered matrix pairs plus two
            // binned 4-app mixes drawn from the seed, under the neutral
            // configuration the analytic tier is calibrated against.
            let mut xs = asm_experiments::Scale::reduced();
            xs.seed = seed;
            let mixes = xval::sweep_mixes(xs);
            let mut c = SystemConfig::default();
            c.seed = seed;
            c.estimators = EstimatorSet::none();
            c.epochs_enabled = false;
            let cycles = if smoke {
                c.quantum = 100_000;
                200_000
            } else {
                c.quantum = 1_000_000;
                1_000_000
            };
            let runs = mixes
                .into_iter()
                .map(|m| PlannedRun::new(c.clone(), m, cycles))
                .collect();
            ("mix_sweep", Kind::MixSweep, runs, 0, 5, 0)
        }
        _ => return None,
    };
    Some(Inputs {
        name,
        kind,
        runs,
        warmup_quanta,
        sampled,
        fast_reps,
        rep,
    })
}

/// What one set-up pass built, with its timings.
pub struct Setup {
    /// Alone-run cache filled for every (mix, slot) at its horizon.
    pub cache: Arc<AloneCache>,
    /// Seconds spent filling it (`Runner::alone_progress`).
    pub alone_s: f64,
    /// Whole set-up, seconds.
    pub total_s: f64,
}

/// One set-up pass: builds the inputs, fills a fresh alone-run cache and,
/// where the analytic tier runs, extracts every profile into a fresh store.
#[must_use]
pub fn setup(name: &str, seed: u64, scale: Scale) -> (Inputs, Setup) {
    let t0 = Instant::now();
    let inp = inputs(name, seed, scale).expect("caller checked the workload name");
    let cache = Arc::new(AloneCache::new());
    let t_alone = Instant::now();
    for run in &inp.runs {
        let runner = Runner::with_cache(run.config.clone(), Arc::clone(&cache));
        for slot in 0..run.apps.len() {
            let _ = runner.alone_progress(&run.apps, slot, run.cycles);
        }
    }
    let alone_s = t_alone.elapsed().as_secs_f64();
    let params = ProfileParams::from_system(&inp.runs[0].config);
    let mut store = ProfileStore::new();
    if inp.kind != Kind::PolicySweep {
        for run in &inp.runs {
            for app in &run.apps {
                let _ = store.ensure(app, &params);
            }
        }
    }
    let total_s = t0.elapsed().as_secs_f64();
    (
        inp,
        Setup {
            cache,
            alone_s,
            total_s,
        },
    )
}

/// The cycle-tier operation: one run, or one 38-member campaign (prefix
/// forking on, `jobs` = 1, as the CLI runs it).
#[must_use]
pub fn cycle_op(inp: &Inputs, cache: &Arc<AloneCache>) -> Vec<RunResult> {
    match inp.kind {
        Kind::Single => {
            let run = &inp.runs[0];
            let runner = Runner::with_cache(run.config.clone(), Arc::clone(cache));
            vec![runner.run(&run.apps, run.cycles)]
        }
        Kind::PolicySweep | Kind::MixSweep => plan::run_campaign(&inp.runs, 1),
    }
}

/// What one fast-tier operation produced.
pub struct FastOut {
    /// Per-member, per-app whole-run slowdowns.
    pub slowdowns: Vec<Vec<f64>>,
    /// Sampled-tier members estimated from medoid probes (a nonzero
    /// confidence interval) rather than run in full or read off a
    /// fingerprint; 0 for the analytic tier.
    pub probed: usize,
}

/// The fast-tier operation.
#[must_use]
pub fn fast_op(inp: &Inputs) -> FastOut {
    match inp.kind {
        Kind::PolicySweep => {
            let est = sampled::run_campaign(&inp.runs, &inp.sampled);
            FastOut {
                probed: est
                    .iter()
                    .filter(|r| r.slowdowns.iter().any(|e| e.ci > 0.0))
                    .count(),
                slowdowns: est
                    .into_iter()
                    .map(|r| r.slowdowns.iter().map(|e| e.value).collect())
                    .collect(),
            }
        }
        Kind::Single | Kind::MixSweep => {
            let mixes: Vec<Vec<AppProfile>> = inp.runs.iter().map(|r| r.apps.clone()).collect();
            FastOut {
                slowdowns: analytic::solve_mixes(&inp.runs[0].config, &mixes, 1)
                    .into_iter()
                    .map(|s| s.slowdowns)
                    .collect(),
                probed: 0,
            }
        }
    }
}

/// Simulated shared-run cycles one cycle-tier operation delivers,
/// counting each member's full horizon.
#[must_use]
pub fn sim_cycles(inp: &Inputs) -> Cycle {
    inp.runs.iter().map(|r| r.cycles).sum()
}

/// Per-app symmetric disagreement `max/min − 1` between fast-tier and
/// cycle-tier whole-run slowdowns (the `xval` definition).
#[must_use]
pub fn tier_errors(cycle: &[RunResult], fast: &[Vec<f64>]) -> Vec<f64> {
    let mut errs = Vec::new();
    for (r, f) in cycle.iter().zip(fast) {
        for (&c, &a) in r.whole_run_slowdowns.iter().zip(f) {
            if c.is_finite() && c > 0.0 && a.is_finite() && a > 0.0 {
                errs.push(a.max(c) / a.min(c) - 1.0);
            }
        }
    }
    errs
}

/// Mean ASM estimation error (%) over post-warmup quanta, as
/// `collect::collect_accuracy` computes it; `None` when no estimator ran.
#[must_use]
pub fn asm_err_pct(results: &[RunResult], warmup_quanta: usize) -> Option<f64> {
    let mut sum = 0.0;
    let mut n = 0u64;
    for r in results {
        for q in r.quanta.iter().skip(warmup_quanta) {
            for (name, est) in &q.estimates {
                if name != "ASM" {
                    continue;
                }
                for (&e, &a) in est.iter().zip(&q.actual) {
                    if a.is_finite() && a > 0.0 {
                        sum += asm_metrics::estimation_error_pct(e, a);
                        n += 1;
                    }
                }
            }
        }
    }
    (n > 0).then(|| sum / n as f64)
}

/// A workload's accuracy figures, all against internal references.
#[derive(Debug, Clone, Copy)]
pub struct Accuracy {
    /// ASM estimate vs simulated ground truth, mean over post-warmup
    /// quanta (%); 0 where no estimator runs (`mix_sweep`).
    pub asm_err_pct: f64,
    /// Fast tier vs cycle tier, geomean per-app disagreement (%).
    pub fast_err_pct: f64,
    /// Fast tier vs cycle tier, worst per-app disagreement (%).
    pub fast_worst_pct: f64,
}

impl Accuracy {
    /// The figures for one cycle-tier and one fast-tier operation.
    #[must_use]
    pub fn of(inp: &Inputs, cycle: &[RunResult], fast: &FastOut) -> Self {
        let errs = tier_errors(cycle, &fast.slowdowns);
        Accuracy {
            asm_err_pct: asm_err_pct(cycle, inp.warmup_quanta).unwrap_or(0.0),
            fast_err_pct: crate::stats::geomean_err(&errs).map_or(f64::NAN, |e| 100.0 * e),
            fast_worst_pct: 100.0 * errs.iter().copied().fold(f64::NAN, f64::max),
        }
    }

    /// The figures under their per-tier names, with `fast_s` as the
    /// fast tier's speed: sampled-tier time on the policy sweep,
    /// analytic mixes per second elsewhere, and the ASM error where an
    /// estimator runs. (name, value, unit).
    #[must_use]
    pub fn named(self, inp: &Inputs, fast_s: f64) -> Vec<(&'static str, f64, &'static str)> {
        let mut v = if inp.kind == Kind::PolicySweep {
            vec![
                ("sampled_s", fast_s, "s"),
                ("sampled_err_pct", self.fast_err_pct, "%"),
                ("sampled_worst_pct", self.fast_worst_pct, "%"),
            ]
        } else {
            vec![
                (
                    "analytic_mixes_per_s",
                    inp.runs.len() as f64 / fast_s,
                    "1/s",
                ),
                ("analytic_err_pct", self.fast_err_pct, "%"),
                ("analytic_worst_pct", self.fast_worst_pct, "%"),
            ]
        };
        if inp.kind != Kind::MixSweep {
            v.push(("asm_err_pct", self.asm_err_pct, "%"));
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_built_from_the_seed() {
        for name in NAMES {
            let a = inputs(name, 3, Scale::Smoke).unwrap();
            let b = inputs(name, 4, Scale::Smoke).unwrap();
            assert!(a.runs.iter().all(|r| r.config.seed == 3));
            assert!(b.runs.iter().all(|r| r.config.seed == 4));
            assert!(a.rep < a.runs.len());
        }
        assert!(inputs("nope", 1, Scale::Full).is_none());
    }

    #[test]
    fn sweeps_have_38_members() {
        for name in ["policy_sweep", "mix_sweep"] {
            assert_eq!(inputs(name, 1, Scale::Full).unwrap().runs.len(), 38);
        }
    }

    #[test]
    fn smoke_outputs_match_recorded_digests() {
        use crate::digest;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(digest::FILE);
        let file = digest::Recorded::load(&path).unwrap();
        for name in NAMES {
            let (inp, s) = setup(name, 1, Scale::Smoke);
            let key = digest::key("smoke", name, 1);
            let cycle: Vec<u64> = cycle_op(&inp, &s.cache)
                .iter()
                .map(digest::of_run)
                .collect();
            assert_eq!(file.get(&key), Some(&cycle[..]), "{name}: cycle tier");
            let fast: Vec<u64> = fast_op(&inp)
                .slowdowns
                .iter()
                .map(|m| digest::of_slowdowns(m))
                .collect();
            assert_eq!(
                file.get(&format!("{key}/fast")),
                Some(&fast[..]),
                "{name}: fast tier"
            );
        }
    }

    #[test]
    fn binned_mixes_follow_the_seed() {
        let sig = |seed| {
            inputs("mix_sweep", seed, Scale::Full).unwrap().runs[36..]
                .iter()
                .map(|r| asm_core::checkpoint::mix_signature(&r.apps))
                .collect::<Vec<_>>()
        };
        assert_eq!(sig(1), sig(1));
        assert_ne!(sig(1), sig(2));
    }
}
