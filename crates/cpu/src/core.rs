//! The out-of-order core model.
//!
//! A 128-entry instruction window with 3-wide fetch and in-order 3-wide
//! retirement (Table 2). Non-memory instructions complete in one cycle;
//! memory instructions resolve through the cache hierarchy via a callback
//! supplied by the system simulator. Independent misses overlap up to the
//! application's MLP cap and the window size — reproducing the
//! memory-level parallelism that makes per-request interference accounting
//! inaccurate (§2.2).
//!
//! Stores are modelled as non-blocking (retired through a store buffer):
//! they generate cache/memory traffic but never stall retirement, matching
//! the common simplification that load latency dominates stalls.

use std::collections::VecDeque;

use asm_simcore::{AppId, Cycle, LineAddr};

use crate::appmodel::AppProfile;
use crate::progress::ProgressLog;
use crate::source::AccessSource;
use crate::stream::{AddressStream, MemOp};

/// What the memory hierarchy did with an issued access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemIssueResult {
    /// The access hit in a cache; data arrives at the given cycle.
    Completed(Cycle),
    /// The access misses to main memory; the token will be passed to
    /// [`Core::complete`] when data returns.
    Pending(u64),
    /// The memory system cannot accept the access now; the core retries
    /// next cycle.
    Stall,
}

/// What the reorder-buffer head is blocked on (see [`Core::head_stall`]).
/// Mirrors `asm-attrib`'s stall taxonomy without depending on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadStall {
    /// Retiring/fetching/issuing normally.
    Progress,
    /// Head completes in the future: cache-hit latency.
    HitWait,
    /// Head wants to issue but the memory system refused the access.
    Backpressure,
    /// Head is an outstanding memory request.
    MemStall,
}

/// One reorder-buffer entry. Non-memory instructions are stored as runs;
/// every memory instruction keeps an entry of its own.
#[derive(Debug, Clone, Copy)]
enum Entry {
    /// `n ≥ 1` consecutive non-memory instructions. A non-memory op
    /// completes the cycle after the tick that fetched it, and a tick
    /// retires before it fetches, so every op of a run is ready at every
    /// later tick: the run needs no timestamp.
    Compute(u64),
    /// A memory operation whose data arrives at the given cycle.
    Done(Cycle),
    /// A memory operation waiting to be issued to the hierarchy.
    WaitIssue(MemOp),
    /// A memory operation outstanding in the memory system.
    Outstanding,
}

/// How the ticks [`Core::advance_to`] ran in closed form were spent, one
/// count per cycle: a tick that retired anything is progress, any other
/// tick is classified by [`Core::head_stall`] after it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanClasses {
    /// Ticks that retired at least one instruction.
    pub progress: u64,
    /// Non-retiring ticks whose head was a hit still in flight.
    pub hit_wait: u64,
    /// Non-retiring ticks whose head was waiting to issue.
    pub backpressure: u64,
    /// Non-retiring ticks whose head was an outstanding miss. No
    /// completion arrives inside a span, so these are its last ticks.
    pub mem_stall: u64,
    /// The first of the `mem_stall` ticks.
    pub first_mem_stall: Option<Cycle>,
}

/// Where [`Core::walk`] stopped.
#[derive(Debug, Clone, Copy)]
struct Walked {
    /// The first tick not simulated.
    t: Cycle,
    /// Whether `t` is the tick that fetches the next memory op.
    fetch: bool,
    retired: u64,
    fetched: u64,
    /// Ops fetched by the tick at `t - 1`.
    last_fetch: u64,
}

/// `min(k, budget / per)`, dividing only when the budget binds (a
/// 64-bit division costs more than the rest of a walk step).
#[inline]
fn at_most(k: u64, budget: u64, per: u64) -> u64 {
    if k.checked_mul(per).is_some_and(|n| n <= budget) {
        k
    } else {
        budget / per
    }
}

/// The out-of-order core for one application.
///
/// Drive it by calling [`tick`](Self::tick) once per cycle with a callback
/// that performs the cache access, and [`complete`](Self::complete) when a
/// pending access's data returns. A caller may instead skip the ticks
/// before [`next_event`](Self::next_event) that no memory answer can
/// affect and catch them up with [`advance_to`](Self::advance_to).
///
/// # Examples
///
/// ```
/// use asm_cpu::{AppProfile, Core, MemIssueResult};
/// use asm_simcore::AppId;
///
/// let p = AppProfile::builder("t").mem_per_kilo(0).build();
/// let mut core = Core::new(AppId::new(0), &p, 42);
/// for now in 0..100 {
///     core.tick(now, &mut |_, _| MemIssueResult::Stall);
/// }
/// // With no memory operations the core retires at full width.
/// assert!(core.retired() >= 3 * 98);
/// ```
#[derive(Debug)]
pub struct Core {
    app: AppId,
    source: Box<dyn AccessSource>,
    typ_rng: asm_simcore::SimRng,
    mem_prob: f64,
    /// Precomputed `ln(1 - mem_prob)` — the geometric-sampling
    /// denominator is constant per core, and `ln` shows up in profiles
    /// when recomputed on every fetch.
    gap_log1mp: f64,
    window: usize,
    width: usize,
    mlp_cap: u32,

    mlp_throttle: Option<u32>,
    rob: VecDeque<Entry>,
    /// Sequence number of `rob[0]`: entry `s` lives at `rob[s - first_seq]`.
    /// Snapshots store head-relative indices instead, so equal windows
    /// encode to equal bytes however the entries were created.
    first_seq: u64,
    /// Instructions in the window (the entries' op counts summed).
    rob_ops: u64,
    /// Sequence numbers of the entries waiting to issue, in program order.
    waiting: VecDeque<u64>,
    /// Outstanding (token, entry sequence number) pairs. At most `mlp`
    /// entries (single digits), so a linear vector beats any map.
    tokens: Vec<(u64, u64)>,
    outstanding: u32,
    gap_left: u64,
    /// The next cycle to tick: the state is the one after the tick at
    /// `next_tick - 1`.
    next_tick: Cycle,
    /// Instructions fetched by the tick at `next_tick - 1`; they are the
    /// youngest ops in the window.
    fetched_last: u64,
    /// The walk [`next_event`](Self::next_event) ran from the current
    /// state, and how its ticks were spent, so that catching up to exactly
    /// that cycle does not walk again. Dropped by every state change.
    ahead: Option<(Walked, SpanClasses)>,

    retired: u64,
    mem_ops_issued: u64,
    /// Distinct program-order ops whose first issue attempt stalled (each
    /// op counted once, however many retries it takes). Counting episodes
    /// rather than stalled cycles keeps the number invariant under
    /// event-driven skipping: elided ticks only ever re-attempt the *same*
    /// stalled head op, and an op's first stall always happens on an
    /// executed tick.
    stall_episodes: u64,
    /// Whether the first waiting op's stall is already counted, so
    /// retries don't re-count it.
    stall_counted: bool,
}

/// The paper's window size (Table 2).
pub const DEFAULT_WINDOW: usize = 128;
/// The paper's issue/retire width (Table 2).
pub const DEFAULT_WIDTH: usize = 3;

impl Core {
    /// Creates a core running `profile` as application `app`, with
    /// deterministic behaviour derived from `seed`.
    #[must_use]
    pub fn new(app: AppId, profile: &AppProfile, seed: u64) -> Self {
        Self::with_window(app, profile, seed, DEFAULT_WINDOW, DEFAULT_WIDTH)
    }

    /// Like [`new`](Self::new) with explicit window size and width.
    ///
    /// # Panics
    ///
    /// Panics if `window` or `width` is zero.
    #[must_use]
    pub fn with_window(
        app: AppId,
        profile: &AppProfile,
        seed: u64,
        window: usize,
        width: usize,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(width > 0, "width must be positive");
        let source = Box::new(AddressStream::new(profile, app.index(), seed));
        Self::from_source(
            app,
            source,
            profile.mem_probability(),
            profile.mlp(),
            seed,
            window,
            width,
        )
    }

    /// Builds a core around an arbitrary access source (e.g. a
    /// [`crate::source::TraceSource`] replaying a recorded trace).
    ///
    /// `mem_probability` is the chance any instruction is a memory
    /// operation; `mlp` caps outstanding misses.
    ///
    /// # Panics
    ///
    /// Panics if `window`, `width` or `mlp` is zero, or `mem_probability`
    /// is outside `[0, 1]`.
    #[must_use]
    pub fn from_source(
        app: AppId,
        source: Box<dyn AccessSource>,
        mem_probability: f64,
        mlp: u32,
        seed: u64,
        window: usize,
        width: usize,
    ) -> Self {
        assert!(window > 0, "window must be positive");
        assert!(width > 0, "width must be positive");
        assert!(mlp > 0, "mlp must be positive");
        assert!(
            (0.0..=1.0).contains(&mem_probability),
            "mem_probability must be in [0, 1]"
        );
        let mut typ_rng = asm_simcore::SimRng::seed_from(
            seed ^ 0xC0DE ^ (app.index() as u64).wrapping_mul(0x1234_5678_9ABC_DEF1),
        );
        let mem_prob = mem_probability;
        let gap_log1mp = (1.0 - mem_prob).ln();
        let gap_left = Self::sample_gap(&mut typ_rng, mem_prob, gap_log1mp);
        Core {
            app,
            source,
            typ_rng,
            mem_prob,
            gap_log1mp,
            window,
            width,
            mlp_cap: mlp,
            mlp_throttle: None,
            rob: VecDeque::new(),
            first_seq: 0,
            rob_ops: 0,
            waiting: VecDeque::new(),
            tokens: Vec::new(),
            outstanding: 0,
            gap_left,
            next_tick: 0,
            fetched_last: 0,
            ahead: None,
            retired: 0,
            mem_ops_issued: 0,
            stall_episodes: 0,
            stall_counted: false,
        }
    }

    /// The application this core runs.
    #[must_use]
    pub fn app(&self) -> AppId {
        self.app
    }

    /// Instructions retired so far.
    #[must_use]
    pub fn retired(&self) -> u64 {
        self.retired
    }

    /// Memory operations issued to the hierarchy so far.
    #[must_use]
    pub fn mem_ops_issued(&self) -> u64 {
        self.mem_ops_issued
    }

    /// Memory ops that stalled at least once at issue (MSHR/queue
    /// back-pressure episodes, not stalled cycles).
    #[must_use]
    pub fn stall_episodes(&self) -> u64 {
        self.stall_episodes
    }

    /// Memory accesses currently outstanding in the memory system.
    #[must_use]
    pub fn outstanding(&self) -> u32 {
        self.outstanding
    }

    /// The next cycle to tick: every tick before it has been run, by
    /// [`tick`](Self::tick) or in closed form by
    /// [`advance_to`](Self::advance_to).
    #[must_use]
    pub fn next_tick(&self) -> Cycle {
        self.next_tick
    }

    /// The application's intrinsic MLP cap (ignoring any throttle).
    #[must_use]
    pub fn base_mlp(&self) -> u32 {
        self.mlp_cap
    }

    /// Applies (or clears) a source-throttling cap on outstanding misses;
    /// the effective cap is the minimum of the intrinsic MLP and the
    /// throttle. Used by FST-style source throttling.
    pub fn set_mlp_throttle(&mut self, throttle: Option<u32>) {
        self.mlp_throttle = throttle.map(|t| t.max(1));
    }

    fn effective_mlp(&self) -> u32 {
        self.mlp_throttle
            .map_or(self.mlp_cap, |t| t.min(self.mlp_cap))
    }

    /// Geometric inter-memory-op gap (number of non-memory instructions
    /// before the next memory op).
    fn sample_gap(rng: &mut asm_simcore::SimRng, p: f64, log1mp: f64) -> u64 {
        if p <= 0.0 {
            return u64::MAX;
        }
        if p >= 1.0 {
            return 0;
        }
        let u = rng.gen_f64().max(1e-18);
        (u.ln() / log1mp) as u64
    }

    fn push_entry(&mut self, e: Entry) -> u64 {
        let seq = self.first_seq + self.rob.len() as u64;
        self.rob.push_back(e);
        seq
    }

    fn push_compute(&mut self, n: u64) {
        match self.rob.back_mut() {
            Some(Entry::Compute(run)) => *run += n,
            _ => self.rob.push_back(Entry::Compute(n)),
        }
    }

    fn pop_head(&mut self) {
        self.rob.pop_front();
        self.first_seq += 1;
    }

    /// Advances the core one cycle. `issue` is called for each memory
    /// operation ready to access the hierarchy this cycle.
    pub fn tick(&mut self, now: Cycle, issue: &mut dyn FnMut(LineAddr, bool) -> MemIssueResult) {
        self.ahead = None;
        let width = self.width as u64;
        // 1) In-order retirement, up to `width` per cycle.
        let mut budget = width;
        while budget > 0 {
            match self.rob.front_mut() {
                Some(Entry::Compute(n)) => {
                    let k = (*n).min(budget);
                    *n -= k;
                    budget -= k;
                    if *n == 0 {
                        self.pop_head();
                    }
                }
                Some(Entry::Done(c)) if *c <= now => {
                    self.pop_head();
                    budget -= 1;
                }
                _ => break,
            }
        }
        let retired_now = width - budget;
        self.retired += retired_now;
        self.rob_ops -= retired_now;

        // 2) Fetch up to `width` new instructions into the window.
        let room = (self.window as u64 - self.rob_ops).min(width);
        let mut fetched = 0;
        while fetched < room {
            if self.gap_left == 0 {
                let op = self.source.next_op();
                let seq = self.push_entry(Entry::WaitIssue(op));
                self.waiting.push_back(seq);
                self.gap_left = Self::sample_gap(&mut self.typ_rng, self.mem_prob, self.gap_log1mp);
                fetched += 1;
            } else {
                let k = self.gap_left.min(room - fetched);
                self.gap_left -= k;
                self.push_compute(k);
                fetched += k;
            }
        }
        self.rob_ops += fetched;
        self.fetched_last = fetched;
        self.next_tick = now + 1;

        // 3) Issue waiting memory operations (program order) while under
        // the (possibly throttled) MLP cap.
        while self.outstanding < self.effective_mlp() {
            let Some(&seq) = self.waiting.front() else {
                break;
            };
            let idx = (seq - self.first_seq) as usize;
            let Entry::WaitIssue(op) = self.rob[idx] else {
                unreachable!("waiting queue points at a non-waiting entry");
            };
            match issue(op.line, op.is_write) {
                MemIssueResult::Completed(c) => {
                    self.rob[idx] = Entry::Done(c);
                }
                MemIssueResult::Pending(token) => {
                    self.rob[idx] = Entry::Outstanding;
                    self.tokens.push((token, seq));
                    self.outstanding += 1;
                }
                MemIssueResult::Stall => {
                    if !self.stall_counted {
                        self.stall_counted = true;
                        self.stall_episodes += 1;
                    }
                    break;
                }
            }
            self.waiting.pop_front();
            self.stall_counted = false;
            self.mem_ops_issued += 1;
        }
    }

    /// Runs the ticks `next_tick..end` in closed form on a read-only view
    /// of the core, stopping early at the tick that would fetch a memory
    /// op. Valid while no issue attempt can succeed and no completion
    /// arrives: a tick then only retires ready ops and fetches non-memory
    /// ops, so each stretch of ticks that retire and fetch the same
    /// amounts is one step, and the cost grows with the entries in the
    /// window, not with cycles. `visit` sees every stretch as `(first
    /// tick, ticks, retired per tick, class)`.
    fn walk(&self, end: Cycle, mut visit: impl FnMut(Cycle, u64, u64, HeadStall)) -> Walked {
        let width = self.width as u64;
        let window = self.window as u64;
        let mut t = self.next_tick;
        let mut len = self.rob_ops;
        let mut gap = self.gap_left;
        // `ready` ops lie between the head and `next`, the first entry
        // not known to be ready at `t`.
        let mut ready = 0;
        let mut entries = self.rob.iter().copied();
        let mut next = entries.next();
        let (mut retired, mut fetched, mut last_fetch) = (0, 0, self.fetched_last);
        while t < end {
            let blocker = loop {
                match next {
                    Some(Entry::Compute(n)) => ready += n,
                    Some(Entry::Done(c)) if c <= t => ready += 1,
                    other => break other,
                }
                next = entries.next();
            };
            // Without a blocker every op in the window is ready, the ones
            // fetched by this walk included: they are the youngest.
            let (avail, horizon) = match blocker {
                None => (len, end),
                Some(Entry::Done(c)) => (ready, end.min(c)),
                Some(_) => (ready, end),
            };
            let r = avail.min(width);
            // `f >= r`: retiring `r` frees `r` slots.
            let f = (window - len + r).min(width);
            // How many ticks in a row retire `r` and fetch `f`.
            let mut k = horizon - t;
            match blocker {
                None if r == f => {}
                Some(_) if r == 0 && f == 0 => {}
                Some(_) if r == width => k = at_most(k, avail, width),
                Some(_) if r == 0 && f == width => k = at_most(k, window - len, width),
                _ => k = 1,
            }
            // Fetching the `gap + 1`-th op is the memory op's tick.
            if f > 0 {
                k = at_most(k, gap, f);
                if k == 0 {
                    return Walked {
                        t,
                        fetch: true,
                        retired,
                        fetched,
                        last_fetch,
                    };
                }
            }
            let class = match blocker {
                _ if r > 0 => HeadStall::Progress,
                // An empty window's head is the op fetched this tick.
                None | Some(Entry::Done(_)) => HeadStall::HitWait,
                Some(Entry::WaitIssue(_)) => HeadStall::Backpressure,
                Some(_) => HeadStall::MemStall,
            };
            visit(t, k, r, class);
            t += k;
            len += k * (f - r);
            gap -= k * f;
            fetched += k * f;
            retired += k * r;
            ready = ready.saturating_sub(k * r);
            last_fetch = f;
        }
        Walked {
            t,
            fetch: false,
            retired,
            fetched,
            last_fetch,
        }
    }

    /// Runs the ticks `next_tick..t` in closed form, recording the
    /// progress milestones they cross into `log`, and returns how they
    /// were spent. Exactly equivalent to calling [`tick`](Self::tick) for
    /// each of them, provided none of them fetches a memory op (`t` is at
    /// most [`next_event`](Self::next_event)), no completion arrives
    /// before `t`, and every issue attempt in between would stall again
    /// (a caller knows this from the memory hierarchy being unchanged
    /// since the last stall).
    pub fn advance_to(&mut self, t: Cycle, log: Option<&mut ProgressLog>) -> SpanClasses {
        if let Some((walked, classes)) = self.ahead.take() {
            if walked.t == t && log.is_none() {
                self.apply(&walked);
                return classes;
            }
        }
        let (walked, classes) = self.walk_classified(t, log);
        debug_assert!(
            walked.t == t || t < self.next_tick,
            "advance_to({t}) runs past the memory-op fetch at {}",
            walked.t
        );
        self.apply(&walked);
        classes
    }

    /// [`walk`](Self::walk) to `end`, counting its ticks by class and
    /// recording the milestones they cross into `log`.
    fn walk_classified(
        &self,
        end: Cycle,
        mut log: Option<&mut ProgressLog>,
    ) -> (Walked, SpanClasses) {
        let mut classes = SpanClasses::default();
        let mut retired = self.retired;
        let walked = self.walk(end, |first, ticks, per_tick, class| {
            if let Some(log) = log.as_deref_mut() {
                log.record_steady(retired, per_tick, first, ticks);
            }
            retired += per_tick * ticks;
            match class {
                HeadStall::Progress => classes.progress += ticks,
                HeadStall::HitWait => classes.hit_wait += ticks,
                HeadStall::Backpressure => classes.backpressure += ticks,
                HeadStall::MemStall => {
                    classes.mem_stall += ticks;
                    classes.first_mem_stall.get_or_insert(first);
                }
            }
        });
        (walked, classes)
    }

    /// Applies a walk from the current state: retires its ops from the
    /// head (once the old entries are gone, out of the ops it fetched) and
    /// appends the rest of its fetches as one compute run.
    fn apply(&mut self, walked: &Walked) {
        if walked.t <= self.next_tick {
            return;
        }
        let mut left = walked.retired;
        let mut tail = walked.fetched;
        while left > 0 {
            match self.rob.front_mut() {
                Some(Entry::Compute(n)) => {
                    let k = (*n).min(left);
                    *n -= k;
                    left -= k;
                    if *n == 0 {
                        self.pop_head();
                    }
                }
                Some(_) => {
                    self.pop_head();
                    left -= 1;
                }
                None => {
                    tail -= left;
                    left = 0;
                }
            }
        }
        if tail > 0 {
            self.push_compute(tail);
        }
        self.retired += walked.retired;
        self.rob_ops = self.rob_ops + walked.fetched - walked.retired;
        self.gap_left -= walked.fetched;
        self.fetched_last = walked.last_fetch;
        self.next_tick = walked.t;
    }

    /// The cycle of the next tick that does more than retire ready ops
    /// and fetch non-memory ops: the tick that fetches the next memory
    /// op, given that no completion arrives and every issue attempt keeps
    /// stalling until then — or, behind a full window, the cycle its head
    /// hit returns, an earlier bound that saves the walk. `None` means
    /// that fetch waits on an external event (a
    /// [`complete`](Self::complete) call, or a stall clearing) — both of
    /// which only happen on cycles the memory system itself reports as
    /// events, so a caller folding this with the memory system's
    /// `next_event` never misses a wake-up (see DESIGN.md §8). Every tick
    /// before the returned cycle can be caught up with
    /// [`advance_to`](Self::advance_to).
    #[must_use]
    pub fn next_event(&mut self) -> Option<Cycle> {
        // Two cheap answers cover most memory-bound cores without a walk.
        // Retiring only adds room, so when the window already has room for
        // the rest of the gap and the memory op, the next tick fetches it.
        let room = (self.window as u64 - self.rob_ops).min(self.width as u64);
        if self.gap_left < room {
            return Some(self.next_tick);
        }
        // A full window behind a head that is not ready fetches nothing
        // until the head's data arrives: waking then is a lower bound.
        if room == 0 {
            match self.rob.front() {
                Some(Entry::Outstanding | Entry::WaitIssue(_)) => return None,
                Some(&Entry::Done(c)) if c >= self.next_tick => return Some(c),
                _ => {}
            }
        }
        let (walked, classes) = self.walk_classified(Cycle::MAX, None);
        if !walked.fetch {
            return None;
        }
        self.ahead = Some((walked, classes));
        Some(walked.t)
    }

    /// Delivers data for a pending access issued earlier; `finish` is the
    /// cycle the data arrived. Unknown tokens are ignored (e.g. prefetch
    /// fills the core never waited on).
    #[inline]
    pub fn complete(&mut self, token: u64, finish: Cycle) {
        self.ahead = None;
        if let Some(pos) = self.tokens.iter().position(|&(t, _)| t == token) {
            let (_, seq) = self.tokens.swap_remove(pos);
            let idx = (seq - self.first_seq) as usize;
            self.rob[idx] = Entry::Done(finish);
            self.outstanding -= 1;
        }
    }

    /// What the reorder-buffer head is blocked on after the tick at `now`
    /// (the last tick run) — the per-cycle fact driving ground-truth cycle
    /// attribution. The mapping is exhaustive: a ready head (or an empty
    /// window) is progress; a hit still in flight — a future `Done`, or a
    /// non-memory op fetched by this very tick — is hit latency; a head
    /// waiting to issue is memory backpressure (a head waiting to issue
    /// implies program-order issue already drained every older op, so the
    /// core has zero outstanding requests and the only obstacle is the
    /// memory system refusing the access); an outstanding head is a
    /// memory stall whose component is decided when its data returns.
    #[must_use]
    #[inline]
    pub fn head_stall(&self, now: Cycle) -> HeadStall {
        match self.rob.front() {
            Some(Entry::Done(c)) if *c > now => HeadStall::HitWait,
            Some(Entry::Compute(_)) if self.rob_ops <= self.fetched_last => HeadStall::HitWait,
            Some(Entry::WaitIssue(_)) => HeadStall::Backpressure,
            Some(Entry::Outstanding) => HeadStall::MemStall,
            _ => HeadStall::Progress,
        }
    }

    /// The memory-system token the reorder-buffer head is waiting on, when
    /// the head is an outstanding memory request (i.e. [`head_stall`]
    /// reports `MemStall`). This is the completion whose delivery ends the
    /// current stall episode.
    ///
    /// [`head_stall`]: Self::head_stall
    #[must_use]
    #[inline]
    pub fn blocking_token(&self) -> Option<u64> {
        if !matches!(self.rob.front(), Some(Entry::Outstanding)) {
            return None;
        }
        self.tokens
            .iter()
            .find(|&&(_, seq)| seq == self.first_seq)
            .map(|&(t, _)| t)
    }

    /// Serializes the core's dynamic state — ROB entries, issue/waiting
    /// queues, outstanding tokens, RNG position, fetch gap, tick position,
    /// throttle, and lifetime counters — for checkpointing. Entries are
    /// referenced by their index from the head. The profile-derived
    /// parameters (window, width, MLP, memory probability) and the access
    /// source's configuration are structural: the restore target must be
    /// constructed from the same profile and seed.
    pub fn save_state(&self, w: &mut asm_simcore::persist::StateWriter) {
        self.source.save_state(w);
        self.typ_rng.save_state(w);
        w.opt_u64(self.mlp_throttle.map(u64::from));
        w.usize(self.rob.len());
        for e in &self.rob {
            match e {
                Entry::Done(c) => {
                    w.u8(0);
                    w.u64(*c);
                }
                Entry::WaitIssue(op) => {
                    w.u8(1);
                    w.u64(op.line.raw());
                    w.bool(op.is_write);
                }
                Entry::Outstanding => w.u8(2),
                Entry::Compute(n) => {
                    w.u8(3);
                    w.u64(*n);
                }
            }
        }
        // The program-order id range the entries cover.
        w.u64(self.retired);
        w.u64(self.retired + self.rob_ops);
        w.usize(self.waiting.len());
        for &seq in &self.waiting {
            w.u64(seq - self.first_seq);
        }
        w.usize(self.tokens.len());
        for &(token, seq) in &self.tokens {
            w.u64(token);
            w.u64(seq - self.first_seq);
        }
        w.u32(self.outstanding);
        w.u64(self.gap_left);
        w.u64(self.next_tick);
        w.u64(self.fetched_last);
        w.u64(self.mem_ops_issued);
        w.u64(self.stall_episodes);
        w.bool(self.stall_counted);
    }

    /// Restores state captured by [`save_state`](Self::save_state) into a
    /// core built from the same profile, seed, window, and width.
    ///
    /// # Errors
    ///
    /// [`asm_simcore::persist::PersistError::Corrupt`] when the stored
    /// state is internally inconsistent or does not fit this core.
    pub fn restore_state(
        &mut self,
        r: &mut asm_simcore::persist::StateReader<'_>,
    ) -> Result<(), asm_simcore::persist::PersistError> {
        use asm_simcore::persist::PersistError;
        let corrupt = |what: &str| PersistError::Corrupt(format!("core state: {what}"));
        self.source.restore_state(r)?;
        self.typ_rng.restore_state(r)?;
        let throttle = r.opt_u64()?;
        self.mlp_throttle = match throttle {
            Some(t) => Some(u32::try_from(t).map_err(|_| corrupt("throttle out of range"))?),
            None => None,
        };
        let entries = r.checked_len(1)?;
        if entries > self.window {
            return Err(corrupt("more entries than the window"));
        }
        let mut rob = VecDeque::with_capacity(entries);
        let mut rob_ops: u64 = 0;
        for _ in 0..entries {
            let e = match r.u8()? {
                0 => Entry::Done(r.u64()?),
                1 => {
                    let line = LineAddr::new(r.u64()?);
                    let is_write = r.bool()?;
                    Entry::WaitIssue(MemOp { line, is_write })
                }
                2 => Entry::Outstanding,
                3 => match r.u64()? {
                    0 => return Err(corrupt("zero-length compute run")),
                    n if matches!(rob.back(), Some(Entry::Compute(_))) => {
                        return Err(corrupt(&format!("compute run of {n} follows another")))
                    }
                    n => Entry::Compute(n),
                },
                b => return Err(corrupt(&format!("entry tag {b}"))),
            };
            rob_ops = match e {
                Entry::Compute(n) => rob_ops.checked_add(n),
                _ => rob_ops.checked_add(1),
            }
            .filter(|&ops| ops <= self.window as u64)
            .ok_or_else(|| corrupt("runs exceed the window"))?;
            rob.push_back(e);
        }
        let first_id = r.u64()?;
        let next_id = r.u64()?;
        if next_id.checked_sub(first_id) != Some(rob_ops) {
            return Err(corrupt("id range does not match the entries"));
        }
        let entry_at = |idx: u64| usize::try_from(idx).ok().and_then(|i| rob.get(i));
        let waiting_len = r.checked_len(8)?;
        let mut waiting = VecDeque::with_capacity(waiting_len);
        for _ in 0..waiting_len {
            let idx = r.u64()?;
            if !matches!(entry_at(idx), Some(Entry::WaitIssue(_))) {
                return Err(corrupt("waiting id does not point at a waiting entry"));
            }
            if waiting.back().is_some_and(|&prev| prev >= idx) {
                return Err(corrupt("waiting ids out of program order"));
            }
            waiting.push_back(idx);
        }
        if rob.iter().filter(|e| matches!(e, Entry::WaitIssue(_))).count() != waiting_len {
            return Err(corrupt("waiting entries missing from the issue queue"));
        }
        let token_len = r.checked_len(16)?;
        let mut tokens = Vec::with_capacity(token_len);
        for _ in 0..token_len {
            let token = r.u64()?;
            let idx = r.u64()?;
            if !matches!(entry_at(idx), Some(Entry::Outstanding)) {
                return Err(corrupt("token id does not point at an outstanding entry"));
            }
            if tokens.iter().any(|&(_, i)| i == idx) {
                return Err(corrupt("two tokens for one entry"));
            }
            tokens.push((token, idx));
        }
        let outstanding = r.u32()?;
        if outstanding as usize != token_len
            || rob.iter().filter(|e| matches!(e, Entry::Outstanding)).count() != token_len
        {
            return Err(corrupt("outstanding count does not match tokens"));
        }
        let gap_left = r.u64()?;
        let next_tick = r.u64()?;
        let fetched_last = r.u64()?;
        if fetched_last > self.width as u64 {
            return Err(corrupt("fetched more than the width"));
        }
        self.ahead = None;
        self.rob = rob;
        self.first_seq = 0;
        self.rob_ops = rob_ops;
        self.waiting = waiting;
        self.tokens = tokens;
        self.outstanding = outstanding;
        self.gap_left = gap_left;
        self.next_tick = next_tick;
        self.fetched_last = fetched_last;
        self.retired = first_id;
        self.mem_ops_issued = r.u64()?;
        self.stall_episodes = r.u64()?;
        self.stall_counted = r.bool()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(mpk: u32) -> AppProfile {
        AppProfile::builder("t").mem_per_kilo(mpk).mlp(4).build()
    }

    #[test]
    fn compute_bound_core_reaches_full_width_ipc() {
        let mut core = Core::new(AppId::new(0), &profile(0), 1);
        for now in 0..1_000 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        let ipc = core.retired() as f64 / 1_000.0;
        assert!(ipc > 2.9, "IPC {ipc}");
    }

    #[test]
    fn head_fetched_this_tick_is_hit_wait() {
        // A non-memory op completes the cycle after its fetch, so a head
        // fetched by the tick just run is still in flight.
        let mut core = Core::new(AppId::new(0), &profile(0), 1);
        core.tick(0, &mut |_, _| MemIssueResult::Stall);
        assert_eq!(core.head_stall(0), HeadStall::HitWait);
        // A full-width steady state retires every op and refetches.
        let mut narrow = Core::with_window(AppId::new(0), &profile(0), 1, 3, 3);
        for now in 0..10 {
            narrow.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert_eq!(narrow.head_stall(9), HeadStall::HitWait);
    }

    #[test]
    fn memory_latency_reduces_ipc() {
        let run = |latency: Cycle| {
            let mut core = Core::new(AppId::new(0), &profile(100), 1);
            for now in 0..20_000 {
                core.tick(now, &mut |_, _| MemIssueResult::Completed(now + latency));
            }
            core.retired()
        };
        let fast = run(5);
        let slow = run(300);
        assert!(
            fast as f64 > slow as f64 * 1.5,
            "fast {fast} vs slow {slow}"
        );
    }

    #[test]
    fn pending_accesses_block_head_until_completed() {
        let mut core = Core::new(AppId::new(0), &profile(1000), 1);
        // Every instruction is a memory op; never complete them.
        let mut token = 0u64;
        for now in 0..200 {
            core.tick(now, &mut |_, _| {
                token += 1;
                MemIssueResult::Pending(token)
            });
        }
        // mlp cap 4: at most 4 outstanding, nothing retires.
        assert_eq!(core.retired(), 0);
        assert_eq!(core.outstanding(), 4);
    }

    #[test]
    fn completion_unblocks_retirement() {
        let mut core = Core::new(AppId::new(0), &profile(1000), 1);
        let mut tokens = Vec::new();
        for now in 0..10 {
            core.tick(now, &mut |_, _| {
                let t = 1000 + tokens.len() as u64;
                tokens.push(t);
                MemIssueResult::Pending(t)
            });
        }
        let before = core.retired();
        for &t in &tokens {
            core.complete(t, 10);
        }
        for now in 11..40 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert!(core.retired() > before);
        assert_eq!(core.outstanding(), 0);
    }

    #[test]
    fn stall_retries_without_losing_ops() {
        let mut core = Core::new(AppId::new(0), &profile(1000), 1);
        // Stall for a while, then accept everything.
        for now in 0..50 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert_eq!(core.mem_ops_issued(), 0);
        for now in 50..200 {
            core.tick(now, &mut |_, _| MemIssueResult::Completed(now + 1));
        }
        assert!(core.mem_ops_issued() > 0);
        assert!(core.retired() > 0);
    }

    #[test]
    fn stall_episodes_count_ops_not_cycles() {
        let mut core = Core::new(AppId::new(0), &profile(1000), 1);
        // 50 cycles of stalling is a single episode: the same head op
        // retries every cycle.
        for now in 0..50 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert_eq!(core.stall_episodes(), 1);
        // Let it through; the next op that stalls opens a new episode.
        core.tick(50, &mut |_, _| MemIssueResult::Completed(51));
        for now in 51..60 {
            core.tick(now, &mut |_, _| MemIssueResult::Stall);
        }
        assert_eq!(core.stall_episodes(), 2);
    }

    #[test]
    fn mlp_cap_limits_overlap() {
        let p = AppProfile::builder("t").mem_per_kilo(1000).mlp(2).build();
        let mut core = Core::new(AppId::new(0), &p, 1);
        let mut max_outstanding = 0;
        let mut token = 0u64;
        for now in 0..300 {
            core.tick(now, &mut |_, _| {
                token += 1;
                MemIssueResult::Pending(token)
            });
            max_outstanding = max_outstanding.max(core.outstanding());
        }
        assert_eq!(max_outstanding, 2);
    }

    #[test]
    fn unknown_token_completion_is_ignored() {
        let mut core = Core::new(AppId::new(0), &profile(10), 1);
        core.complete(9999, 5); // must not panic or underflow
        assert_eq!(core.outstanding(), 0);
    }

    #[test]
    fn window_bounds_rob_occupancy() {
        let mut core = Core::with_window(AppId::new(0), &profile(1000), 1, 16, 3);
        let mut token = 0u64;
        for now in 0..200 {
            core.tick(now, &mut |_, _| {
                token += 1;
                MemIssueResult::Pending(token)
            });
        }
        assert!(core.rob_ops <= 16);
    }

    /// A real snapshot, mutated one way per case, must be rejected with
    /// an error — never a panic, never a silently inconsistent core.
    #[test]
    fn restore_rejects_inconsistent_run_length_state() {
        use asm_simcore::persist::{StateReader, StateWriter};
        let p = AppProfile::builder("t").mem_per_kilo(100).mlp(2).build();
        let fresh = || Core::new(AppId::new(0), &p, 3);
        let mut core = fresh();
        let mut token = 0u64;
        for now in 0..400 {
            core.tick(now, &mut |_, _| {
                token += 1;
                MemIssueResult::Pending(token)
            });
        }
        // Outstanding misses, ops waiting to issue, and compute runs.
        assert_eq!(core.outstanding(), 2);
        assert!(!core.waiting.is_empty());
        let compute_seq = core.first_seq
            + core
                .rob
                .iter()
                .position(|e| matches!(e, Entry::Compute(_)))
                .expect("a compute run") as u64;
        let save = |c: &Core| {
            let mut w = StateWriter::new("core", 1);
            c.save_state(&mut w);
            w.finish()
        };
        let restore = |bytes: &[u8]| {
            let mut r = StateReader::new(bytes, "core", 1).expect("header");
            fresh().restore_state(&mut r)
        };
        let snapshot = save(&core);
        let mutated = |mutate: &dyn Fn(&mut Core)| {
            let mut c = fresh();
            let mut r = StateReader::new(&snapshot, "core", 1).expect("header");
            c.restore_state(&mut r).expect("the real snapshot restores");
            mutate(&mut c);
            restore(&save(&c))
        };
        let idx = (compute_seq - core.first_seq) as usize;
        let cases: [(&str, &dyn Fn(&mut Core)); 5] = [
            ("zero-length compute run", &|c| c.rob[idx] = Entry::Compute(0)),
            ("runs exceed the window", &|c| {
                if let Entry::Compute(n) = &mut c.rob[idx] {
                    *n += DEFAULT_WINDOW as u64;
                }
                c.rob_ops += DEFAULT_WINDOW as u64;
            }),
            ("id range does not match", &|c| c.rob_ops += 1),
            ("waiting id does not point", &|c| c.waiting[0] = idx as u64),
            ("token id does not point", &|c| c.tokens[0].1 = idx as u64),
        ];
        for (want, mutate) in cases {
            match mutated(mutate) {
                Err(e) => assert!(e.to_string().contains(want), "{want}: got {e}"),
                Ok(()) => panic!("{want}: accepted"),
            }
        }
    }

    #[test]
    fn deterministic_for_same_seed() {
        let run = || {
            let mut core = Core::new(AppId::new(0), &profile(100), 77);
            for now in 0..5_000 {
                core.tick(now, &mut |_, _| MemIssueResult::Completed(now + 20));
            }
            core.retired()
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Whatever the memory hierarchy does (random latencies, stalls,
        /// out-of-order completions), the core's structural invariants
        /// hold every cycle.
        #[test]
        fn core_invariants_under_random_memory(
            seed in 0u64..10_000,
            mpk in 0u32..1000,
            mlp in 1u32..16,
        ) {
            let profile = AppProfile::builder("prop")
                .mem_per_kilo(mpk)
                .mlp(mlp)
                .build();
            let mut core = Core::new(AppId::new(0), &profile, seed);
            let mut rng = asm_simcore::SimRng::seed_from(seed ^ 0xFEED);
            let mut pending: Vec<(u64, u64)> = Vec::new(); // (token, finish)
            let mut next_token = 0u64;
            let mut last_retired = 0;
            for now in 0..3_000u64 {
                // Randomly complete some pending accesses.
                pending.retain(|&(token, finish)| {
                    if finish <= now {
                        core.complete(token, finish);
                        false
                    } else {
                        true
                    }
                });
                core.tick(now, &mut |_, _| match rng.gen_range(3) {
                    0 => MemIssueResult::Completed(now + 1 + rng.gen_range(50)),
                    1 => {
                        next_token += 1;
                        pending.push((next_token, now + 1 + rng.gen_range(400)));
                        MemIssueResult::Pending(next_token)
                    }
                    _ => MemIssueResult::Stall,
                });
                prop_assert!(core.rob_ops <= DEFAULT_WINDOW as u64, "ROB overflow");
                prop_assert!(core.outstanding() <= mlp, "MLP cap violated");
                prop_assert!(core.retired() >= last_retired, "retirement regressed");
                prop_assert!(
                    core.retired() <= (now + 1) * DEFAULT_WIDTH as u64,
                    "retired more than width allows"
                );
                last_retired = core.retired();
            }
            // Everything still pending can complete and the core drains.
            for (token, _) in pending.drain(..) {
                core.complete(token, 3_000);
            }
            for now in 3_000..3_200 {
                core.tick(now, &mut |_, _| MemIssueResult::Completed(now + 1));
            }
            prop_assert!(core.retired() > last_retired || last_retired > 0);
        }
    }
}
