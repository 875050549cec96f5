"""Summarize run records written by bench/run.py.

For each workload and end-to-end metric: the median, the quartiles and the
spread (third minus first quartile, as statistics.quantiles(values, n=4)
gives them, over the median) of the runs selected; with --split, also the
same for two sets of runs (oldest half and newest half) and the change of
the second median against the first. Also reports the reference kernel,
the failed share and, when traced runs are present, the tracing overhead
(traced wall_s over untraced wall_s, minus one).

Usage: python3 bench/summarize.py [--since YYYYmmddTHHMMSS] [--split]
"""
import argparse
import glob
import json
import os
import statistics

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out", "runs")
METRICS = ("setup_s", "wall_s", "op_p50_ms", "op_tail_ms", "peak_rss_mb")


def load(since: str) -> list:
    recs = []
    for path in sorted(glob.glob(os.path.join(OUT, "*.json"))):
        stamp = path.rsplit("-", 1)[1][:-5]
        if stamp >= since:
            with open(path, encoding="utf-8") as fh:
                recs.append(json.load(fh))
    return recs


def spread(values: list) -> tuple:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--since", default="")
    ap.add_argument("--split", action="store_true")
    args = ap.parse_args()
    recs = load(args.since)
    for wl in ("sweep", "zero-scan", "profile", "cli"):
        plain = [r for r in recs if r["workload"] == wl and not r["trace"]]
        traced = [r for r in recs if r["workload"] == wl and r["trace"]]
        if len(plain) < 2:
            continue
        sets = [plain[: len(plain) // 2], plain[len(plain) // 2:]] if args.split else [plain]
        print(f"== {wl}: {len(plain)} runs, seeds {[r['seed'] for r in plain]}")
        shares = {(r["failed"], r["attempted"]) for r in plain}
        print(f"   failed/attempted: {sorted(shares)}, all correct: "
              f"{all(r['correct'] for r in plain)}, rounds: {[r['rounds'] for r in plain]}")
        for name in METRICS + ("ref_kernel_ms", "raw:wall_s", "raw:op_p50_ms",
                               "raw:op_tail_ms", "raw:setup_s_scaled"):
            cells, meds = [], []
            for s in sets:
                if name.startswith("raw:"):
                    vals = [r["raw_timings"][name[4:]] for r in s]
                elif name in s[0]["end_to_end"]:
                    vals = [r["end_to_end"][name] for r in s]
                else:
                    vals = [r[name] for r in s]
                if len(vals) < 2:
                    continue
                med, q1, q3, sp = spread(vals)
                meds.append(med)
                cells.append(f"median {med:.4g} [{q1:.4g}, {q3:.4g}] spread {sp:.3f}")
            change = f"  second/first - 1 = {meds[1] / meds[0] - 1:+.3f}" if len(meds) == 2 else ""
            print(f"   {name:18s} " + " | ".join(cells) + change)
        if traced:
            w_t = statistics.median(r["end_to_end"]["wall_s"] for r in traced)
            w_u = statistics.median(r["end_to_end"]["wall_s"] for r in plain)
            print(f"   tracing overhead on wall_s: {w_t / w_u - 1:+.3f} "
                  f"({len(traced)} traced runs)")
        phases = {k: statistics.median(r["phase_s"][k] for r in plain if "phase_s" in r)
                  for k in ("prepare", "setup", "measure", "checks")} if all(
            "phase_s" in r for r in plain) else {}
        if phases:
            print("   phase medians (s): " + ", ".join(f"{k} {v:.1f}" for k, v in phases.items()))


if __name__ == "__main__":
    main()
