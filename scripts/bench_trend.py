#!/usr/bin/env python3
"""Aggregate every committed BENCH_pr*.json into one trajectory table.

Reads the snapshots scripts/bench_snapshot.sh writes, sorts them by PR
number, and prints a markdown table with one row per headline metric and
one column per PR — the repo's performance history at a glance. All
values are min-based (shared-container noise only ever adds time, so the
per-iteration minimum is the robust estimator), matching bench_compare.py
and the derived sections inside the snapshots themselves. A metric whose
bench group predates a snapshot renders as `—`.

Usage:
    scripts/bench_trend.py                # all BENCH_pr*.json in the repo root
    scripts/bench_trend.py BENCH_pr8.json BENCH_pr9.json

The output is checked into EXPERIMENTS.md ("Benchmark trajectory");
regenerate that section with this script after adding a snapshot.
"""

import glob
import json
import os
import re
import sys


def fmt_cps(ns):
    """Simulated cycles per wall-clock second from a 10M-cycle min."""
    return f"{10_000_000 / (ns / 1e9) / 1e6:.1f}M"


def fmt_ms(ns):
    return f"{ns / 1e6:.1f}ms"


def fmt_us(ns):
    return f"{ns / 1e3:.0f}us"


# (label, raw bench id or derived key, formatter). Raw ids index the
# snapshot's min-merged "raw" section; derived rows compute a ratio of
# two raw mins so every snapshot is treated identically regardless of
# which derived sections it carries.
METRICS = [
    ("sim throughput, mcf mix (cycles/s, skip)", "sim_throughput/mcf_mix_10m_skip", fmt_cps),
    ("sim throughput, mcf mix (cycles/s, no skip)", "sim_throughput/mcf_mix_10m_no_skip", fmt_cps),
    ("skip-mode speedup (mcf mix)",
     ("ratio", "sim_throughput/mcf_mix_10m_no_skip", "sim_throughput/mcf_mix_10m_skip"),
     lambda r: f"{r:.2f}x"),
    ("sim throughput, compute mix (cycles/s, skip)", "sim_throughput/compute_mix_10m_skip", fmt_cps),
    ("sim throughput, compute mix (cycles/s, no skip)",
     "sim_throughput/compute_mix_10m_no_skip", fmt_cps),
    ("skip-mode speedup (compute mix)",
     ("ratio", "sim_throughput/compute_mix_10m_no_skip", "sim_throughput/compute_mix_10m_skip"),
     lambda r: f"{r:.2f}x"),
    ("LLC mixed access, 100k (min)", "cache/llc_access_mixed_100k", fmt_us),
    ("FR-FCFS stream, 2k requests (min)", "dram/stream_2k_requests_FRFCFS", fmt_us),
    ("telemetry idle over off",
     ("overhead", "telemetry_overhead/mcf_mix_10m_idle", "telemetry_overhead/mcf_mix_10m_off"),
     lambda r: f"{r:+.2%}"),
    ("attribution off, mcf mix 10M (min; cross-PR gate in bench_compare.py)",
     "attrib_overhead/mcf_mix_10m_off", fmt_ms),
    ("attribution on over off",
     ("overhead", "attrib_overhead/mcf_mix_10m_on", "attrib_overhead/mcf_mix_10m_off"),
     lambda r: f"{r:+.2%}"),
    ("whole-workspace lint (min)", "lint_workspace/full_pass", fmt_ms),
    ("analytic tier, 1k mixes (min)", "analytic_tier/mixes_1k", fmt_ms),
    ("checkpoint fork speedup (38-config sweep)",
     ("ratio", "checkpoint_fork/sweep38_cold", "checkpoint_fork/sweep38_forked"),
     lambda r: f"{r:.2f}x"),
    ("sampled-tier speedup (38-config sweep)",
     ("ratio", "sampled_sweep/sweep38_full", "sampled_sweep/sweep38_sampled"),
     lambda r: f"{r:.2f}x"),
]


def pr_key(path):
    m = re.search(r"BENCH_pr(\d+)", os.path.basename(path))
    return (int(m.group(1)) if m else 1 << 30, path)


def cell(raw, spec, fmt):
    if isinstance(spec, tuple):
        kind, a, b = spec
        ra, rb = raw.get(a), raw.get(b)
        if not ra or not rb or not rb["min_ns"]:
            return "—"
        ratio = ra["min_ns"] / rb["min_ns"]
        return fmt(ratio - 1.0 if kind == "overhead" else ratio)
    r = raw.get(spec)
    return fmt(r["min_ns"]) if r else "—"


def main():
    paths = sys.argv[1:] or sorted(glob.glob("BENCH_pr*.json"), key=pr_key)
    if not paths:
        sys.exit("bench_trend: no BENCH_pr*.json snapshots found")
    snapshots = []
    for path in sorted(paths, key=pr_key):
        with open(path, encoding="utf-8") as f:
            snapshot = json.load(f)
        raw = snapshot.get("raw")
        if not isinstance(raw, dict):
            sys.exit(f"bench_trend: {path} has no 'raw' section — not a snapshot?")
        tag = re.sub(r"^BENCH_|\.json$", "", os.path.basename(path))
        snapshots.append((tag, raw))

    tags = [t for t, _ in snapshots]
    header = ["metric (min-based)"] + tags
    rows = [[label] + [cell(raw, spec, fmt) for _, raw in snapshots]
            for label, spec, fmt in METRICS]
    widths = [max(len(r[i]) for r in [header] + rows) for i in range(len(header))]

    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"

    print(line(header))
    print("|" + "|".join("-" * (w + 2) for w in widths) + "|")
    for r in rows:
        print(line(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
