//! The traced run: per-layer numbers for one workload.
//!
//! Spans are recorded in memory around calls into each layer's public
//! API, from this program's side (no tracing inside the simulator), and
//! written out as Chrome trace-event JSON at the end. Counts come from
//! public getters and the telemetry counters, and repeat exactly for a
//! seed. A layer's host time is its ns/op — measured by driving that
//! layer's public API alone on input shaped like the workload (its
//! profiles, geometry, app count, scheduler and partitioning) —
//! multiplied by the traced run's op count; what the layers do not
//! explain is reported as `core.loop_residual_s`.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use asm_analytic::{AnalyticConfig, MixSolver, ProfileParams, ProfileStore};
use asm_cache::{AuxiliaryTagStore, SetAssocCache, WayPartition};
use asm_core::checkpoint;
use asm_core::{
    AloneCache, CachePolicy, QuantumResult, RunOptions, RunResult, RunTelemetry, Runner, System,
    SystemConfig,
};
use asm_cpu::{AddressStream, AppProfile, Core, MemIssueResult, ProgressLog};
use asm_dram::{MemRequest, MemorySystem};
use asm_experiments::plan::PlannedRun;
use asm_sampling::{cluster, fingerprint, measure_interval, SampleSpec};
use asm_simcore::{AppId, Cycle, LineAddr, SimRng};
use asm_telemetry::{names, JsonValue};

use crate::digest;
use crate::host::HostLog;
use crate::stats::{median, percentile};
use crate::workload::{self, Inputs, Kind};

/// One recorded span.
#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u128,
    dur_ns: u128,
    parent: Option<usize>,
}

/// Spans kept in memory until the run ends.
#[derive(Debug)]
pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    fn new() -> Self {
        Spans {
            t0: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Runs `f` inside a span; returns its result and duration (s).
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> (T, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.spans.push(Span {
            name,
            start_ns: start.duration_since(self.t0).as_nanos(),
            dur_ns: end.duration_since(start).as_nanos(),
            parent,
        });
        (out, end.duration_since(start).as_secs_f64())
    }

    /// A span that encloses later spans: open it, then [`Self::close`].
    fn open(&mut self, name: &'static str, parent: Option<usize>) -> usize {
        self.spans.push(Span {
            name,
            start_ns: self.t0.elapsed().as_nanos(),
            dur_ns: 0,
            parent,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) -> f64 {
        let s = &mut self.spans[id];
        s.dur_ns = self.t0.elapsed().as_nanos() - s.start_ns;
        s.dur_ns as f64 * 1e-9
    }

    /// Chrome trace-event JSON (`chrome://tracing`, Perfetto).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                let mut args = vec![("id".into(), JsonValue::num_u64(id as u64))];
                if let Some(p) = s.parent {
                    args.push(("parent".into(), JsonValue::num_u64(p as u64)));
                }
                JsonValue::Obj(vec![
                    ("name".into(), JsonValue::str(s.name)),
                    ("ph".into(), JsonValue::str("X")),
                    ("ts".into(), JsonValue::Num(s.start_ns as f64 / 1e3)),
                    ("dur".into(), JsonValue::Num(s.dur_ns as f64 / 1e3)),
                    ("pid".into(), JsonValue::num_u64(1)),
                    ("tid".into(), JsonValue::num_u64(1)),
                    ("args".into(), JsonValue::Obj(args)),
                ])
            })
            .collect();
        JsonValue::Obj(vec![("traceEvents".into(), JsonValue::Arr(events))])
    }
}

/// Simulated work counted over the traced run.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    sim_cycles: u64,
    executed: u64,
    core_ticks: u64,
    retired: u64,
    mem_ops: u64,
    rob_stalls: u64,
    llc_hits: u64,
    llc_misses: u64,
    evictions: u64,
    row_hits: u64,
    row_misses: u64,
    lat_sum: f64,
    lat_n: u64,
}

impl Counts {
    fn add(&mut self, config: &SystemConfig, n_apps: usize, cycles: Cycle, tele: &RunTelemetry) {
        let c: BTreeMap<&str, u64> = tele
            .counters
            .iter()
            .map(|(k, v)| (k.as_str(), *v))
            .collect();
        let get = |name: &str| c.get(name).copied().unwrap_or(0);
        self.sim_cycles += cycles;
        let executed = get(names::SYS_EXECUTED_CYCLES);
        self.executed += executed;
        self.core_ticks += executed * n_apps as u64;
        for i in 0..n_apps {
            self.retired += get(&names::core_retired(i));
            self.mem_ops += get(&names::core_mem_ops(i));
            self.rob_stalls += get(&names::core_rob_stalls(i));
            self.llc_hits += get(&names::llc_app_hits(i));
            self.llc_misses += get(&names::llc_app_misses(i));
            self.evictions += get(&names::llc_app_evictions_caused(i));
        }
        for ch in 0..config.dram.channels {
            for b in 0..config.dram.banks {
                self.row_hits += get(&names::dram_bank_row_hits(ch, b));
                self.row_misses += get(&names::dram_bank_row_misses(ch, b));
            }
        }
        let h = &tele.mem_latency_hist;
        if let Some(m) = h.mean() {
            let n = h.total() - h.overflow();
            self.lat_sum += m * n as f64;
            self.lat_n += n;
        }
    }

    fn llc_accesses(&self) -> u64 {
        self.llc_hits + self.llc_misses
    }

    fn dram_requests(&self) -> u64 {
        self.row_hits + self.row_misses
    }

    fn avg_miss_cycles(&self) -> f64 {
        if self.lat_n == 0 {
            0.0
        } else {
            self.lat_sum / self.lat_n as f64
        }
    }
}

/// A finished shared system's outputs, paired with its alone runs the
/// way `Runner` pairs them, so a system stepped here digests exactly
/// like a `Runner::run` result.
fn outputs(sys: &System, alone: &[Arc<ProgressLog>]) -> RunResult {
    let n = sys.app_count();
    let quanta = sys
        .records()
        .iter()
        .map(|r| {
            let q_cycles = (r.end_cycle - r.start_cycle) as f64;
            let actual = (0..n)
                .map(|i| {
                    let work = r.retired_end[i].saturating_sub(r.retired_start[i]);
                    if work == 0 {
                        return f64::NAN;
                    }
                    let alone_cycles =
                        alone[i].cycles_between(r.retired_start[i], r.retired_end[i]);
                    if alone_cycles <= 0.0 {
                        return f64::NAN;
                    }
                    let ipc_shared = work as f64 / q_cycles;
                    let ipc_alone = work as f64 / alone_cycles;
                    (ipc_alone / ipc_shared).max(1.0)
                })
                .collect();
            QuantumResult {
                estimates: r.estimates.clone(),
                actual,
                car_shared: r.car_shared.clone(),
                partition: r.partition.clone(),
            }
        })
        .collect();
    let total = sys.now() as f64;
    let whole_run_slowdowns = (0..n)
        .map(|i| {
            let retired = sys.retired(AppId::new(i));
            if retired == 0 {
                return f64::NAN;
            }
            (total / alone[i].cycle_at(retired).max(1.0)).max(1.0)
        })
        .collect();
    RunResult {
        app_names: sys.app_names().to_vec(),
        quanta,
        whole_run_slowdowns,
        alone_latency_hist: None,
        estimator_latency_hists: Vec::new(),
        telemetry: None,
        attribution: None,
    }
}

/// The rep member stepped in quantum chunks with telemetry on: each
/// quantum is `run_for(Q − 1)` then `run_for(1)` across the boundary.
struct Chunked {
    sys: System,
    quantum_ms: Vec<f64>,
    boundary_us: Vec<f64>,
    total_s: f64,
}

fn run_chunked(spans: &mut Spans, run: &PlannedRun) -> Chunked {
    let mut sys = System::new(&run.apps, run.config.clone());
    sys.enable_telemetry(None);
    let q = run.config.quantum;
    let root = spans.open("core.run_for", None);
    let (mut quantum_ms, mut boundary_us) = (Vec::new(), Vec::new());
    let mut done = 0;
    while done < run.cycles {
        let chunk = (q - done % q).min(run.cycles - done);
        let mut q_s = 0.0;
        if chunk > 1 {
            q_s += spans
                .time("core.quantum_body", Some(root), || sys.run_for(chunk - 1))
                .1;
        }
        let (_, b_s) = spans.time("core.boundary", Some(root), || sys.run_for(1));
        quantum_ms.push((q_s + b_s) * 1e3);
        boundary_us.push(b_s * 1e6);
        done += chunk;
    }
    let total_s = spans.close(root);
    Chunked {
        sys,
        quantum_ms,
        boundary_us,
        total_s,
    }
}

/// Median seconds per call of `f`, called until `budget_s` is spent
/// (at least `min_calls` times).
fn per_call(budget_s: f64, min_calls: usize, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let t0 = Instant::now();
    while samples.len() < min_calls || t0.elapsed().as_secs_f64() < budget_s {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples).expect("at least one call")
}

/// The LLC access stream of a mix: each app's address stream, round
/// robin, filtered through a private L1 of the configured geometry.
fn llc_stream(
    apps: &[AppProfile],
    config: &SystemConfig,
    len: usize,
) -> Vec<(LineAddr, AppId, bool)> {
    let mut streams: Vec<AddressStream> = apps
        .iter()
        .enumerate()
        .map(|(i, p)| AddressStream::new(p, i, config.seed))
        .collect();
    let mut l1s: Vec<SetAssocCache> = apps
        .iter()
        .map(|_| SetAssocCache::new(config.l1_geometry, 1))
        .collect();
    let mut out = Vec::with_capacity(len);
    let mut i = 0;
    let mut guard = 0usize;
    while out.len() < len && guard < len * 1000 {
        let op = streams[i].next_op();
        if !l1s[i].access(op.line, AppId::new(0), op.is_write).hit {
            out.push((op.line, AppId::new(i), op.is_write));
        }
        i = (i + 1) % apps.len();
        guard += 1;
    }
    out
}

/// Nanoseconds per `Core::tick`, with the hierarchy answering from the
/// traced run's L1/LLC/DRAM mix of latencies.
fn tick_ns(apps: &[AppProfile], config: &SystemConfig, c: &Counts) -> f64 {
    let l1_miss = c.llc_accesses() as f64 / c.mem_ops.max(1) as f64;
    let llc_miss = c.llc_misses as f64 / c.llc_accesses().max(1) as f64;
    let (l1_lat, llc_lat) = (config.l1_latency, config.llc_latency);
    let mem_lat = llc_lat + c.avg_miss_cycles() as Cycle;
    let mut rng = SimRng::seed_from(config.seed);
    let mut cores: Vec<Core> = apps
        .iter()
        .enumerate()
        .map(|(i, p)| Core::new(AppId::new(i), p, config.seed))
        .collect();
    let ticks = 200_000u64;
    let t = Instant::now();
    for now in 0..ticks {
        for core in &mut cores {
            core.tick(now, &mut |_, _| {
                let u = rng.gen_f64();
                let lat = if u >= l1_miss {
                    l1_lat
                } else if u >= l1_miss * llc_miss {
                    llc_lat
                } else {
                    mem_lat
                };
                MemIssueResult::Completed(now + lat)
            });
        }
    }
    black_box(&cores);
    t.elapsed().as_secs_f64() * 1e9 / (ticks * apps.len() as u64) as f64
}

/// Nanoseconds per `SetAssocCache::access` and per `Ats::access` on the
/// mix's LLC stream (after one warming pass), plus the lines that missed.
fn cache_ns(
    stream: &[(LineAddr, AppId, bool)],
    config: &SystemConfig,
    n_apps: usize,
    partitioned: bool,
) -> (f64, f64, Vec<(LineAddr, AppId)>) {
    let mut llc = SetAssocCache::new(config.llc_geometry, n_apps);
    if partitioned {
        llc.set_partition(Some(WayPartition::even(config.llc_geometry.ways(), n_apps)));
    }
    for &(line, app, w) in stream {
        let _ = llc.access(line, app, w);
    }
    let mut misses = Vec::new();
    let t = Instant::now();
    for &(line, app, w) in stream {
        if !llc.access(line, app, w).hit {
            misses.push((line, app));
        }
    }
    let llc_ns = t.elapsed().as_secs_f64() * 1e9 / stream.len().max(1) as f64;
    let mut ats: Vec<AuxiliaryTagStore> = (0..n_apps)
        .map(|_| AuxiliaryTagStore::new(config.llc_geometry, config.ats_sampled_sets))
        .collect();
    for &(line, app, _) in stream {
        let _ = ats[app.index()].access(line);
    }
    let t = Instant::now();
    for &(line, app, _) in stream {
        black_box(ats[app.index()].access(line));
    }
    let ats_ns = t.elapsed().as_secs_f64() * 1e9 / stream.len().max(1) as f64;
    (llc_ns, ats_ns, misses)
}

/// Nanoseconds per DRAM request: `MemorySystem::enqueue` plus the ticks
/// that serve it, arrivals spaced like the traced run's requests and the
/// clock advanced event to event as skip mode does.
fn dram_ns(misses: &[(LineAddr, AppId)], config: &SystemConfig, n_apps: usize, c: &Counts) -> f64 {
    let gap = (c.sim_cycles / c.dram_requests().max(1)).max(1);
    let mut mem = MemorySystem::with_seed(
        config.dram.clone(),
        config.scheduler,
        n_apps,
        config.seed ^ 0xD12A,
    );
    let mut out = Vec::new();
    let mut now: Cycle = 0;
    // Cycle through the misses so a cache-friendly mix still measures
    // enough requests for a stable per-request time.
    let n = 50_000;
    let advance = |mem: &mut MemorySystem, out: &mut Vec<_>, now: &mut Cycle, target: Cycle| {
        while *now < target {
            mem.tick(*now, out);
            out.clear();
            let next = mem.next_event(*now).unwrap_or(target);
            *now = next.clamp(*now + 1, target.max(*now + 1));
        }
    };
    let t = Instant::now();
    for (id, &(line, app)) in misses.iter().cycle().take(n).enumerate() {
        while mem
            .enqueue(MemRequest::read(id as u64, line, app, now))
            .is_err()
        {
            let target = now + 1;
            advance(&mut mem, &mut out, &mut now, target);
        }
        let target = now + gap;
        advance(&mut mem, &mut out, &mut now, target);
    }
    t.elapsed().as_secs_f64() * 1e9 / n as f64
}

/// The traced run's result.
pub struct Traced {
    /// Every per-layer metric: (name, value, unit).
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Operations checked.
    pub attempted: u64,
    /// Operations whose outputs differed from their reference.
    pub failed: u64,
    /// Problems found, one line each.
    pub problems: Vec<String>,
    /// The spans, for writing out.
    pub spans: Spans,
}

/// Runs the traced pass. `untraced` holds the untraced cycle-tier
/// operation's results and host time rescaled to the reference host,
/// `fast` the fast-tier operation's output, `alone_s` the set-up's
/// alone-fill time. `host` rescales the traced cycle tier's time the
/// same way, so the overhead figures compare like with like.
pub fn run(
    inp: &Inputs,
    cache: &Arc<AloneCache>,
    untraced: (&[RunResult], f64),
    fast: &workload::FastOut,
    alone_s: f64,
    host: &mut HostLog,
) -> Traced {
    let (u_results, u_scaled) = untraced;
    let u_digests: Vec<u64> = u_results.iter().map(digest::of_run).collect();
    let mut spans = Spans::new();
    let mut problems = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut check = |what: String, got: u64, want: u64, problems: &mut Vec<String>| {
        attempted += 1;
        if got != want {
            failed += 1;
            problems.push(format!(
                "{what}: traced digest {got:016x} != untraced {want:016x}"
            ));
        }
    };
    let rep = &inp.runs[inp.rep];
    let n_apps = rep.apps.len();
    let alone_of = |run: &PlannedRun| -> Vec<Arc<ProgressLog>> {
        let runner = Runner::with_cache(run.config.clone(), Arc::clone(cache));
        (0..run.apps.len())
            .map(|slot| runner.alone_progress(&run.apps, slot, run.cycles))
            .collect()
    };

    // The traced cycle tier.
    let mut counts = Counts::default();
    let mut member_ms = Vec::new();
    let (mut warm_ms, mut snapshot_bytes, mut forks, mut fallbacks) =
        (f64::NAN, 0usize, 0u64, 0u64);
    let run_s;
    let chunked;
    host.begin();
    match inp.kind {
        Kind::Single => {
            let mut c = run_chunked(&mut spans, rep);
            check(
                "run".into(),
                digest::of_run(&outputs(&c.sys, &alone_of(rep))),
                u_digests[0],
                &mut problems,
            );
            run_s = c.total_s;
            member_ms.push(c.total_s * 1e3);
            let tele = c.sys.take_telemetry();
            counts.add(&rep.config, n_apps, rep.cycles, &tele);
            c.sys.enable_telemetry(None);
            chunked = c;
        }
        Kind::PolicySweep | Kind::MixSweep => {
            let opts = RunOptions {
                telemetry: true,
                ..RunOptions::default()
            };
            let root = spans.open("experiments.campaign", None);
            let warm = if inp.kind == Kind::PolicySweep {
                let runner = Runner::with_cache(inp.runs[0].config.clone(), Arc::clone(cache));
                let (snap, s) = spans.time("runner.warm_snapshot", Some(root), || {
                    runner.warm_snapshot(&inp.runs[0].apps, opts)
                });
                warm_ms = s * 1e3;
                Some(snap)
            } else {
                None
            };
            for (i, run) in inp.runs.iter().enumerate() {
                let runner = Runner::with_cache(run.config.clone(), Arc::clone(cache));
                let (r, s) = spans.time("runner.member", Some(root), || match &warm {
                    Some(snap) => match runner.run_with_snapshot(&run.apps, run.cycles, opts, snap)
                    {
                        Ok(r) => (r, true),
                        Err(_) => (runner.run_with(&run.apps, run.cycles, opts), false),
                    },
                    None => (runner.run_with(&run.apps, run.cycles, opts), false),
                });
                let (mut r, forked) = r;
                if warm.is_some() {
                    if forked {
                        forks += 1;
                    } else {
                        fallbacks += 1;
                        problems.push(format!("member {i}: snapshot restore failed"));
                    }
                }
                member_ms.push(s * 1e3);
                let tele = r.telemetry.take().expect("telemetry was requested");
                counts.add(&run.config, run.apps.len(), run.cycles, &tele);
                check(
                    format!("member {i}"),
                    digest::of_run(&r),
                    u_digests[i],
                    &mut problems,
                );
            }
            run_s = spans.close(root);
            let c = run_chunked(&mut spans, rep);
            check(
                format!("member {} stepped in quantum chunks", inp.rep),
                digest::of_run(&outputs(&c.sys, &alone_of(rep))),
                u_digests[inp.rep],
                &mut problems,
            );
            chunked = c;
        }
    }
    let run_scaled = run_s * host.end();

    // Layer costs, on input shaped like the rep member.
    let cfg = &rep.config;
    let tick = spans
        .time("cpu.Core::tick", None, || tick_ns(&rep.apps, cfg, &counts))
        .0;
    let stream = llc_stream(&rep.apps, cfg, 200_000);
    let partitioned = !matches!(cfg.cache_policy, CachePolicy::None);
    let (llc_ns, ats_ns, misses) = spans
        .time("cache.access", None, || {
            cache_ns(&stream, cfg, n_apps, partitioned)
        })
        .0;
    let misses = if misses.is_empty() {
        stream.iter().map(|&(line, app, _)| (line, app)).collect()
    } else {
        misses
    };
    let req_ns = spans
        .time("dram.request", None, || {
            dram_ns(&misses, cfg, n_apps, &counts)
        })
        .0;

    // Checkpoint capture/resume of the chunked system's final state.
    let key = 0x5EED_u64;
    let bytes = checkpoint::capture(&chunked.sys, key, chunked.sys.now());
    let capture_ms = spans
        .time("checkpoint.capture", None, || {
            per_call(0.05, 3, || {
                black_box(checkpoint::capture(&chunked.sys, key, chunked.sys.now()));
            })
        })
        .0
        * 1e3;
    let restore_ms = spans
        .time("checkpoint.resume", None, || {
            let mut samples = Vec::new();
            for _ in 0..3 {
                let mut fresh = System::new(&rep.apps, cfg.clone());
                fresh.enable_telemetry(None);
                let t = Instant::now();
                let ok = checkpoint::resume(&bytes, key, &mut fresh).is_ok();
                samples.push(t.elapsed().as_secs_f64());
                assert!(ok, "a fresh capture restores into its own configuration");
            }
            median(&samples).expect("three samples")
        })
        .0
        * 1e3;

    // The warmup snapshot: the policy sweep's own, else one taken on the
    // rep member for the layer's cost.
    let warm_runner = Runner::with_cache(cfg.clone(), Arc::clone(cache));
    let (snap, s) = spans.time("runner.warm_snapshot", None, || {
        warm_runner.warm_snapshot(&rep.apps, RunOptions::default())
    });
    snapshot_bytes = snapshot_bytes.max(snap.len());
    if warm_ms.is_nan() {
        warm_ms = s * 1e3;
    }

    // Sampling layer on the rep member's group.
    let n_int = (rep.cycles / cfg.quantum) as usize;
    let spec = if inp.kind == Kind::PolicySweep {
        inp.sampled.sample_spec()
    } else {
        SampleSpec {
            intervals: n_int.saturating_sub(1).clamp(1, 2),
            quanta: 1,
        }
    };
    let alone = alone_of(rep);
    let prefix = checkpoint::prefix_config(cfg);
    let (plan, fingerprint_s) = spans.time("sampling.fingerprint", None, || {
        fingerprint(&rep.apps, &prefix, rep.cycles, spec, &alone)
    });
    let mut probe_ms = Vec::new();
    for &m in &plan.clustering.medoids {
        let (r, s) = spans.time("sampling.measure_interval", None, || {
            measure_interval(&rep.apps, cfg, &plan, m, &alone)
        });
        if r.is_err() {
            problems.push(format!("probe of interval {m} failed to restore"));
        }
        probe_ms.push(s * 1e3);
    }
    let dims = 5 * n_apps + 2;
    let mut rng = SimRng::seed_from(cfg.seed);
    let features: Vec<Vec<f64>> = (0..plan.n_intervals)
        .map(|_| (0..dims).map(|_| rng.gen_f64()).collect())
        .collect();
    let cluster_ms = spans
        .time("sampling.cluster", None, || {
            per_call(0.05, 5, || {
                black_box(cluster(&features, spec.intervals, cfg.seed));
            })
        })
        .0
        * 1e3;
    let (probes, sim_frac) = if inp.kind == Kind::PolicySweep {
        let probes = (fast.probed * spec.intervals) as f64;
        let full = inp.runs.len() as f64 * rep.cycles as f64;
        let sim = rep.cycles as f64 + probes * spec.interval_cycles(cfg.quantum) as f64;
        (probes, sim / full)
    } else {
        (0.0, 0.0)
    };

    // Analytic layer: one MixSolver::run per mix of the workload.
    let params = ProfileParams::from_system(cfg);
    let mut store = ProfileStore::new();
    let mut extract_ms = Vec::new();
    for run in &inp.runs {
        for app in &run.apps {
            if store.get(app.name()).is_none() {
                let (_, s) = spans.time("analytic.ReuseProfile::extract", None, || {
                    store.ensure(app, &params).key()
                });
                extract_ms.push(s * 1e3);
            }
        }
    }
    let acfg = AnalyticConfig::from_system(cfg);
    let solve_us = spans
        .time("analytic.MixSolver::run", None, || {
            let mut samples = Vec::new();
            let t0 = Instant::now();
            while samples.len() < inp.runs.len() || t0.elapsed().as_secs_f64() < 0.05 {
                let run = &inp.runs[samples.len() % inp.runs.len()];
                let profiles: Vec<_> = run
                    .apps
                    .iter()
                    .map(|a| store.get(a.name()).expect("extracted above"))
                    .collect();
                let t = Instant::now();
                black_box(MixSolver::new(acfg).run(&profiles));
                samples.push(t.elapsed().as_secs_f64() * 1e6);
            }
            median(&samples).expect("samples")
        })
        .0;

    let cpu_est = tick * counts.core_ticks as f64 * 1e-9;
    let cache_est = (llc_ns + ats_ns) * counts.llc_accesses() as f64 * 1e-9;
    let dram_est = req_ns * counts.dram_requests() as f64 * 1e-9;
    let metrics = vec![
        ("core.sim_cycles", counts.sim_cycles as f64, "count"),
        ("core.executed_cycles", counts.executed as f64, "count"),
        (
            "core.skip_frac",
            1.0 - counts.executed as f64 / counts.sim_cycles.max(1) as f64,
            "ratio",
        ),
        (
            "core.quantum_ms.p50",
            median(&chunked.quantum_ms).unwrap_or(0.0),
            "ms",
        ),
        (
            "core.quantum_ms.p90",
            percentile(&chunked.quantum_ms, 90.0).unwrap_or(0.0),
            "ms",
        ),
        (
            "core.boundary_us.p50",
            median(&chunked.boundary_us).unwrap_or(0.0),
            "us",
        ),
        ("core.run_s", run_s, "s"),
        (
            "core.loop_residual_s",
            run_s - cpu_est - cache_est - dram_est,
            "s",
        ),
        ("cpu.retired", counts.retired as f64, "count"),
        ("cpu.mem_ops", counts.mem_ops as f64, "count"),
        ("cpu.rob_stalls", counts.rob_stalls as f64, "count"),
        ("cpu.tick_ns", tick, "ns"),
        ("cpu.est_s", cpu_est, "s"),
        ("cache.llc_accesses", counts.llc_accesses() as f64, "count"),
        ("cache.llc_misses", counts.llc_misses as f64, "count"),
        (
            "cache.llc_evictions_caused",
            counts.evictions as f64,
            "count",
        ),
        ("cache.llc_access_ns", llc_ns, "ns"),
        ("cache.ats_access_ns", ats_ns, "ns"),
        ("cache.est_s", cache_est, "s"),
        ("dram.row_hits", counts.row_hits as f64, "count"),
        ("dram.row_misses", counts.row_misses as f64, "count"),
        ("dram.avg_miss_cycles", counts.avg_miss_cycles(), "cycles"),
        ("dram.request_ns", req_ns, "ns"),
        ("dram.est_s", dram_est, "s"),
        ("checkpoint.snapshot_bytes", snapshot_bytes as f64, "bytes"),
        ("checkpoint.capture_ms", capture_ms, "ms"),
        ("checkpoint.restore_ms", restore_ms, "ms"),
        ("checkpoint.forks", forks as f64, "count"),
        ("checkpoint.fallbacks", fallbacks as f64, "count"),
        ("runner.warm_ms", warm_ms, "ms"),
        (
            "runner.member_ms.p50",
            median(&member_ms).unwrap_or(0.0),
            "ms",
        ),
        (
            "runner.member_ms.p75",
            percentile(&member_ms, 75.0).unwrap_or(0.0),
            "ms",
        ),
        ("runner.alone_s", alone_s, "s"),
        ("sampling.fingerprint_s", fingerprint_s, "s"),
        ("sampling.cluster_ms", cluster_ms, "ms"),
        (
            "sampling.probe_ms.p50",
            median(&probe_ms).unwrap_or(0.0),
            "ms",
        ),
        ("sampling.probes", probes, "count"),
        ("sampling.sim_frac", sim_frac, "ratio"),
        (
            "analytic.extract_ms",
            median(&extract_ms).unwrap_or(0.0),
            "ms",
        ),
        ("analytic.solve_us", solve_us, "us"),
        (
            "experiments.campaign_overhead_s",
            u_scaled - run_scaled,
            "s",
        ),
        (
            "trace.overhead_pct",
            100.0 * (run_scaled - u_scaled) / u_scaled,
            "%",
        ),
    ];
    Traced {
        metrics,
        attempted,
        failed,
        problems,
        spans,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Scale;

    /// The traced pass (forked members on the policy sweep, the chunked
    /// single run) reproduces the untraced outputs bit for bit, and every
    /// per-layer metric is finite.
    #[test]
    fn traced_smoke_runs_match_untraced() {
        for name in ["mcf_mix", "policy_sweep"] {
            let (inp, s) = workload::setup(name, 1, Scale::Smoke);
            let results = workload::cycle_op(&inp, &s.cache);
            let fast = workload::fast_op(&inp);
            let mut host = HostLog::default();
            let tr = run(&inp, &s.cache, (&results, 1.0), &fast, s.alone_s, &mut host);
            assert_eq!(tr.failed, 0, "{name}: {:?}", tr.problems);
            assert!(tr.problems.is_empty(), "{name}: {:?}", tr.problems);
            assert!(tr.metrics.iter().all(|(_, v, _)| v.is_finite()), "{name}");
        }
    }
}
