//! Central registry of probe names.
//!
//! Every telemetry counter/series/span family in the workspace is named
//! here, in one module, instead of as string literals scattered through
//! the simulation crates. Probe names are stringly-typed by design (the
//! registry and series set key on them, and external consumers join on
//! them in `stats.json`/CSV outputs), which makes a typo'd name fail
//! *silently* — the probe registers, increments, and is simply never read
//! by anything. Centralizing the constructors turns that failure mode
//! into a compile error: `asm-lint` rule R13 bans inline dotted-name
//! literals in simulation crates, so a new probe must be added here,
//! where its neighbours make a misspelling conspicuous.
//!
//! Naming scheme (dot-separated, `{family}.{instance}.{metric}`):
//!
//! - `llc.app{i}.*` — shared-cache counters per application
//! - `app{i}.*` — per-application estimator series
//! - `core{i}.*` — per-core gauges
//! - `dram.ch{c}.bank{b}.*` — per-bank gauges
//! - `sys.*` — whole-system gauges
//! - `attrib.app{i}.*` — ground-truth cycle-attribution counters
//! - `attrib.app{v}.blame.app{o}` — per-quantum blame-matrix series

/// Whole-system executed-cycle gauge.
pub const SYS_EXECUTED_CYCLES: &str = "sys.executed_cycles";
/// Whole-system gauge of `Core::tick` calls (the core cycles skip mode
/// neither elided nor caught up in closed form).
pub const SYS_CORE_TICKS: &str = "sys.core_ticks";
/// Whole-system dropped-writeback gauge.
pub const SYS_DROPPED_WRITEBACKS: &str = "sys.dropped_writebacks";

/// LLC hits counter for application `i`.
#[must_use]
pub fn llc_app_hits(i: usize) -> String {
    format!("llc.app{i}.hits")
}

/// LLC misses counter for application `i`.
#[must_use]
pub fn llc_app_misses(i: usize) -> String {
    format!("llc.app{i}.misses")
}

/// Cross-application LLC evictions caused by application `i`.
#[must_use]
pub fn llc_app_evictions_caused(i: usize) -> String {
    format!("llc.app{i}.evictions_caused")
}

/// Estimated-slowdown series for application `i`.
#[must_use]
pub fn app_est_slowdown(i: usize) -> String {
    format!("app{i}.est_slowdown")
}

/// Actual-slowdown series for application `i` (runner-joined).
#[must_use]
pub fn app_actual_slowdown(i: usize) -> String {
    format!("app{i}.actual_slowdown")
}

/// Shared-run cache-access-rate series for application `i`.
#[must_use]
pub fn app_car_shared(i: usize) -> String {
    format!("app{i}.car_shared")
}

/// Alone-run cache-access-rate series for application `i`.
#[must_use]
pub fn app_car_alone(i: usize) -> String {
    format!("app{i}.car_alone")
}

/// ATS miss-rate series for application `i`.
#[must_use]
pub fn app_ats_miss_rate(i: usize) -> String {
    format!("app{i}.ats_miss_rate")
}

/// Per-quantum interference-cycle series for application `i`.
#[must_use]
pub fn app_interference_cycles(i: usize) -> String {
    format!("app{i}.interference_cycles")
}

/// An arbitrary per-application series name, `app{i}.{metric}` — for
/// consumers (like the sampling fingerprinter) that look up a family of
/// per-app series by metric suffix.
#[must_use]
pub fn app_series(i: usize, metric: &str) -> String {
    format!("app{i}.{metric}")
}

/// Reorder-buffer stall-episode gauge for core `i`.
#[must_use]
pub fn core_rob_stalls(i: usize) -> String {
    format!("core{i}.rob_stalls")
}

/// Retired-instruction gauge for core `i`.
#[must_use]
pub fn core_retired(i: usize) -> String {
    format!("core{i}.retired")
}

/// Issued-memory-operation gauge for core `i`.
#[must_use]
pub fn core_mem_ops(i: usize) -> String {
    format!("core{i}.mem_ops")
}

/// Row-hit gauge for channel `ch`, bank `b`.
#[must_use]
pub fn dram_bank_row_hits(ch: usize, b: usize) -> String {
    format!("dram.ch{ch}.bank{b}.row_hits")
}

/// Row-miss gauge for channel `ch`, bank `b`.
#[must_use]
pub fn dram_bank_row_misses(ch: usize, b: usize) -> String {
    format!("dram.ch{ch}.bank{b}.row_misses")
}

/// Ground-truth attribution counter: cumulative cycles of application
/// `i` attributed to ledger component `component` (an `asm-attrib`
/// component name, e.g. `dram_frfcfs`).
#[must_use]
pub fn attrib_component(i: usize, component: &str) -> String {
    format!("attrib.app{i}.{component}")
}

/// Per-quantum blame-matrix series: cycles of victim `v` blamed on
/// offender `o` in each quantum.
#[must_use]
pub fn attrib_blame(v: usize, o: usize) -> String {
    format!("attrib.app{v}.blame.app{o}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compose_the_documented_scheme() {
        assert_eq!(llc_app_hits(3), "llc.app3.hits");
        assert_eq!(app_est_slowdown(0), "app0.est_slowdown");
        assert_eq!(app_series(2, "est_slowdown"), app_est_slowdown(2));
        assert_eq!(dram_bank_row_hits(1, 7), "dram.ch1.bank7.row_hits");
        assert_eq!(attrib_component(1, "dram_frfcfs"), "attrib.app1.dram_frfcfs");
        assert_eq!(attrib_blame(0, 2), "attrib.app0.blame.app2");
    }
}
