//! Host-side readings: CPU count, load, steal time, peak memory, and the
//! host's speed from a fixed reference kernel.
//!
//! Wall time on a small shared host drifts from hour to hour; each result
//! records what the host was doing around every timed operation, so a
//! noisy run reads as noise rather than as a regression.

use std::hint::black_box;
use std::time::Instant;

use asm_telemetry::JsonValue;

/// Reference-kernel time (seconds) on this benchmark's reference host
/// when no other tenant competes for its core: a 2-vCPU Intel Xeon
/// guest (2 MiB L2 per vCPU, 105 MiB shared L3). Timed operations are
/// rescaled to this speed (see [`HostLog::end`]).
pub const REFERENCE_S: f64 = 1.15e-3;

/// Entries in the reference kernel's table: 1 MiB, inside a private L2.
const TABLE_LEN: usize = 1 << 17;

/// The reference kernel: eight independent multiply-rotate chains, then
/// data-dependent reads and writes at random places in a 1 MiB table,
/// the two halves about equally long. Its code never changes, so its
/// time measures the host alone. Other tenants on the same physical core
/// slow it much as they slow the simulator: the first half competes for
/// issue ports, the second for the private caches. A fixed dependent
/// chain (core frequency alone) tracked the simulator far worse.
fn reference_kernel(table: &mut [u64]) -> u64 {
    let mut lanes = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..150_000u64 {
        for (j, x) in lanes.iter_mut().enumerate() {
            *x = black_box(
                x.wrapping_mul(0x9E37_79B9_7F4A_7C15)
                    .wrapping_add(i ^ j as u64)
                    .rotate_left(7),
            );
        }
    }
    let mask = table.len() - 1;
    let (mut acc, mut x) = (
        lanes.iter().fold(0, |a, &l| a ^ l),
        0x2545_F491_4F6C_DD1D_u64,
    );
    for _ in 0..60_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let i = x as usize & mask;
        let v = table[i];
        if v & 1 == 0 {
            acc = acc.wrapping_add(v);
        } else {
            table[i] = v.wrapping_add(acc);
        }
    }
    acc
}

/// Median of three reference-kernel timings, in seconds.
fn reference_s(table: &mut [u64]) -> f64 {
    let mut t: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            black_box(reference_kernel(black_box(&mut *table)));
            start.elapsed().as_secs_f64()
        })
        .collect();
    t.sort_by(f64::total_cmp);
    t[1]
}

/// Cumulative CPU jiffies from the first line of `/proc/stat`.
#[derive(Debug, Clone, Copy, Default)]
struct CpuTimes {
    steal: u64,
    total: u64,
}

fn cpu_times() -> Option<CpuTimes> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let line = stat.lines().next()?;
    let fields: Vec<u64> = line
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal [guest guest_nice];
    // guest time is already counted in user/nice.
    let total = fields.iter().take(8).sum();
    Some(CpuTimes {
        steal: fields.get(7).copied().unwrap_or(0),
        total,
    })
}

fn load_avg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Peak resident set size of this process in MiB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Logical CPUs available to this process.
#[must_use]
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Host readings taken around timed operations.
#[derive(Debug)]
pub struct HostLog {
    load: Vec<f64>,
    steal_pct: Vec<f64>,
    reference_s: Vec<f64>,
    open: Option<CpuTimes>,
    ref_before: f64,
    table: Vec<u64>,
}

impl Default for HostLog {
    fn default() -> Self {
        HostLog {
            load: Vec::new(),
            steal_pct: Vec::new(),
            reference_s: Vec::new(),
            open: None,
            ref_before: REFERENCE_S,
            table: (0..TABLE_LEN as u64)
                .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 20)
                .collect(),
        }
    }
}

impl HostLog {
    /// Call just before a timed operation: times the reference kernel
    /// and reads `/proc`.
    pub fn begin(&mut self) {
        self.ref_before = reference_s(&mut self.table);
        self.reference_s.push(self.ref_before);
        self.open = cpu_times();
        if let Some(l) = load_avg_1m() {
            self.load.push(l);
        }
    }

    /// Call just after the operation: records the share of CPU time
    /// stolen by the hypervisor while it ran, times the reference kernel
    /// again, and returns the factor that rescales the operation's host
    /// time to the reference host's speed: [`REFERENCE_S`] over the mean
    /// kernel time before and after.
    pub fn end(&mut self) -> f64 {
        if let (Some(a), Some(b)) = (self.open.take(), cpu_times()) {
            let total = b.total.saturating_sub(a.total);
            if total > 0 {
                let steal = b.steal.saturating_sub(a.steal);
                self.steal_pct.push(100.0 * steal as f64 / total as f64);
            }
        }
        if let Some(l) = load_avg_1m() {
            self.load.push(l);
        }
        let after = reference_s(&mut self.table);
        self.reference_s.push(after);
        REFERENCE_S / (0.5 * (self.ref_before + after))
    }

    /// The record: `nproc`, load-average, steal and reference-kernel
    /// summaries.
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let summary = |xs: &[f64]| {
            let max = xs.iter().copied().fold(f64::NAN, f64::max);
            JsonValue::Obj(vec![
                ("samples".into(), JsonValue::num_u64(xs.len() as u64)),
                (
                    "median".into(),
                    JsonValue::Num(crate::stats::median(xs).unwrap_or(f64::NAN)),
                ),
                ("max".into(), JsonValue::Num(max)),
            ])
        };
        JsonValue::Obj(vec![
            ("nproc".into(), JsonValue::num_u64(nproc() as u64)),
            ("load_avg_1m".into(), summary(&self.load)),
            ("steal_pct".into(), summary(&self.steal_pct)),
            ("reference_s".into(), summary(&self.reference_s)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_log_rescales_by_the_reference_kernel() {
        let mut host = HostLog::default();
        host.begin();
        let speed = host.end();
        assert!(speed.is_finite() && speed > 0.0, "{speed}");
        let JsonValue::Obj(fields) = host.to_json() else {
            panic!("the record is an object");
        };
        assert!(fields.iter().any(|(k, _)| k == "reference_s"));
        assert_eq!(host.reference_s.len(), 2);
    }
}
