//! Differential check of the closed-form catch-up: a core ticked every
//! cycle (the oracle) against a twin that is ticked only at its wake-ups —
//! `Core::next_event`, completion cycles and stall-clearing cycles — and
//! runs every cycle in between through `Core::advance_to`.
//!
//! Both cores get the same seed, profile, window, width and MLP, and a
//! memory model whose answers depend only on the op (issue is program
//! order, so the n-th accepted op is the same op in both) and on absolute
//! cycles: an op stalls for a fixed number of cycles after its first
//! attempt, then hits (`Completed(now + k)`, `k = 1` being an L1 hit) or
//! misses (`Pending`, completed later). At every wake the twin must agree
//! with the oracle on the counters, the head state, the progress
//! milestones and the per-cycle attribution classes; at the end the two
//! snapshots must be byte-identical.

use asm_cpu::{AppProfile, Core, HeadStall, MemIssueResult, ProgressLog};
use asm_simcore::persist::StateWriter;
use asm_simcore::{AppId, Cycle, SimRng};
use proptest::prelude::*;

const END: Cycle = 4_000;

/// Deterministic memory answers, keyed by the op's issue order.
struct Memory {
    seed: u64,
    /// Ops accepted so far (the next op to answer is number `accepted`).
    accepted: u64,
    /// First attempt cycle of op `accepted`.
    first_try: Option<Cycle>,
    /// Outstanding misses as (finish, token).
    pending: Vec<(Cycle, u64)>,
}

impl Memory {
    fn new(seed: u64) -> Self {
        Memory {
            seed,
            accepted: 0,
            first_try: None,
            pending: Vec::new(),
        }
    }

    /// (stall cycles, answer kind, latency) of op `n`.
    fn plan(&self, n: u64) -> (Cycle, u64, Cycle) {
        let mut rng = SimRng::seed_from(self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let stall = if rng.gen_range(4) == 0 {
            1 + rng.gen_range(40)
        } else {
            0
        };
        let kind = rng.gen_range(3);
        let latency = match kind {
            0 => 1,
            1 => 2 + rng.gen_range(30),
            _ => 1 + rng.gen_range(300),
        };
        (stall, kind, latency)
    }

    fn answer(&mut self, now: Cycle) -> MemIssueResult {
        let first = *self.first_try.get_or_insert(now);
        let (stall, kind, latency) = self.plan(self.accepted);
        if now < first + stall {
            return MemIssueResult::Stall;
        }
        let token = self.accepted;
        self.accepted += 1;
        self.first_try = None;
        match kind {
            0 | 1 => MemIssueResult::Completed(now + latency),
            _ => {
                self.pending.push((now + latency, token));
                MemIssueResult::Pending(token)
            }
        }
    }

    /// Delivers the misses finishing at `now`, in token order.
    fn deliver(&mut self, core: &mut Core, now: Cycle) {
        let mut due: Vec<u64> = self
            .pending
            .iter()
            .filter(|&&(f, _)| f == now)
            .map(|&(_, t)| t)
            .collect();
        due.sort_unstable();
        self.pending.retain(|&(f, _)| f != now);
        for token in due {
            core.complete(token, now);
        }
    }

    /// The next cycle after `now` at which the memory side changes: a
    /// completion, or the current op's stall clearing.
    fn next_event(&self, now: Cycle) -> Cycle {
        let mut next = self
            .pending
            .iter()
            .map(|&(f, _)| f)
            .min()
            .unwrap_or(Cycle::MAX);
        if let Some(first) = self.first_try {
            next = next.min(first + self.plan(self.accepted).0);
        }
        next.max(now + 1)
    }
}

/// The oracle's view after the tick at one cycle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct After {
    retired: u64,
    mem_ops: u64,
    stall_episodes: u64,
    head: HeadStall,
    /// The tick's attribution class: progress if it retired anything,
    /// else the head state.
    class: HeadStall,
}

fn after(core: &Core, now: Cycle, retired_before: u64) -> After {
    let head = core.head_stall(now);
    After {
        retired: core.retired(),
        mem_ops: core.mem_ops_issued(),
        stall_episodes: core.stall_episodes(),
        head,
        class: if core.retired() > retired_before {
            HeadStall::Progress
        } else {
            head
        },
    }
}

fn snapshot(core: &Core) -> Vec<u8> {
    let mut w = StateWriter::new("core-diff", 1);
    core.save_state(&mut w);
    w.finish()
}

fn build(seed: u64, mpk: u32, mlp: u32, window: usize, width: usize) -> Core {
    let profile = AppProfile::builder("diff")
        .mem_per_kilo(mpk)
        .mlp(mlp)
        .build();
    Core::with_window(AppId::new(0), &profile, seed, window, width)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn advance_to_matches_per_cycle_ticking(
        seed in 0u64..1_000_000,
        mpk in prop_oneof![0u32..3, 3u32..120, 120u32..1001],
        mlp in 1u32..9,
        window in prop_oneof![1usize..8, 8usize..160],
        width in 1usize..6,
        interval in 1u64..40,
    ) {
        // Oracle: tick every cycle.
        let mut oracle = build(seed, mpk, mlp, window, width);
        let mut mem = Memory::new(seed);
        let mut log = ProgressLog::new(interval);
        let mut trace = Vec::with_capacity(END as usize);
        for now in 0..END {
            mem.deliver(&mut oracle, now);
            let before = oracle.retired();
            oracle.tick(now, &mut |_, _| mem.answer(now));
            log.record(oracle.retired(), now);
            trace.push(after(&oracle, now, before));
        }

        // Twin: tick only at wake-ups, catch up in between — once recording
        // progress milestones, once without (which reuses the walk
        // `next_event` already ran).
        for with_log in [true, false] {
            let mut twin = build(seed, mpk, mlp, window, width);
            let mut mem = Memory::new(seed);
            let mut twin_log = ProgressLog::new(interval);
            // Even the first tick may be caught up rather than run.
            let mut wake = twin.next_event().unwrap_or(Cycle::MAX).min(END);
            let mut real_ticks = 0u64;
            while wake < END {
                let now = wake;
                let from = twin.next_tick();
                let span = twin.advance_to(now, with_log.then_some(&mut twin_log));
                let elided = &trace[from as usize..now as usize];
                let count = |k: HeadStall| elided.iter().filter(|a| a.class == k).count() as u64;
                prop_assert_eq!(span.progress, count(HeadStall::Progress), "progress ticks in [{}, {})", from, now);
                prop_assert_eq!(span.hit_wait, count(HeadStall::HitWait), "hit-wait ticks in [{}, {})", from, now);
                prop_assert_eq!(span.backpressure, count(HeadStall::Backpressure), "backpressure ticks in [{}, {})", from, now);
                prop_assert_eq!(span.mem_stall, count(HeadStall::MemStall), "mem-stall ticks in [{}, {})", from, now);
                let first_mem_stall = elided
                    .iter()
                    .position(|a| a.class == HeadStall::MemStall)
                    .map(|i| from + i as Cycle);
                prop_assert_eq!(span.first_mem_stall, first_mem_stall);
                if let Some(first) = first_mem_stall {
                    prop_assert_eq!(first + span.mem_stall, now, "mem-stall ticks are not the span's tail");
                }
                if now > from {
                    let want = trace[now as usize - 1];
                    prop_assert_eq!(twin.retired(), want.retired, "retired after catching up to {}", now);
                    prop_assert_eq!(twin.head_stall(now - 1), want.head, "head after catching up to {}", now);
                }

                mem.deliver(&mut twin, now);
                let before = twin.retired();
                twin.tick(now, &mut |_, _| mem.answer(now));
                real_ticks += 1;
                if with_log {
                    twin_log.record(twin.retired(), now);
                }
                prop_assert_eq!(after(&twin, now, before), trace[now as usize], "tick at {}", now);

                wake = twin
                    .next_event()
                    .unwrap_or(Cycle::MAX)
                    .min(mem.next_event(now));
            }
            twin.advance_to(END, with_log.then_some(&mut twin_log));
            prop_assert_eq!(twin.next_tick(), oracle.next_tick());
            prop_assert_eq!(twin.retired(), oracle.retired());
            prop_assert_eq!(twin.mem_ops_issued(), oracle.mem_ops_issued());
            prop_assert_eq!(twin.stall_episodes(), oracle.stall_episodes());
            if with_log {
                prop_assert_eq!(twin_log.milestone_cycles(), log.milestone_cycles());
            }
            prop_assert_eq!(snapshot(&twin), snapshot(&oracle));
            // A compute-heavy core really is skipped.
            if mpk < 3 && window >= width {
                prop_assert!(real_ticks * 4 < END, "{} real ticks of {}", real_ticks, END);
            }
        }
    }
}
