#!/usr/bin/env python3
"""Summarise benchmark runs across seeds.

    python3 perfbench/summarize.py                      # print
    python3 perfbench/summarize.py --write perfbench/baseline.json

Reads every ``.perfbench_out/*/summary.json`` that run.py left and gives, per
workload and metric, the median over seeds, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, and their distance as a
share of the median (the spread the regression bounds are checked against).
It also lists each seed's report CSV sha256 and the machine it ran on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
from collections import defaultdict
from pathlib import Path

import numpy
import scipy

OUT = Path(__file__).resolve().parent.parent / ".perfbench_out"


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med, "n": len(values)}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None, "n": len(values)}


def summarize(out_dir: Path) -> dict:
    runs = defaultdict(list)
    for path in sorted(out_dir.glob("*/summary.json")):
        s = json.loads(path.read_text())
        runs[(s["workload"], s["trace"])].append(s)
    workloads = {}
    for (workload, trace), group in sorted(runs.items()):
        w = workloads.setdefault(workload, {})
        group.sort(key=lambda s: s["seed"])
        metrics = defaultdict(list)
        for s in group:
            for k, v in s["metrics"].items():
                metrics[k].append(v)
            if not trace:
                for k, v in s["oracle"].items():
                    metrics[k].append(v)
        key = "traced" if trace else "untraced"
        w[key] = {
            "seeds": [s["seed"] for s in group],
            "frames": group[0]["frames"],
            "passes": group[0]["passes"],
            "all_correct": all(all(s["checks"].values()) for s in group),
            "failures": {str(s["seed"]): s["failures"] for s in group if s["failures"]},
            "metrics": {k: stats(v) for k, v in sorted(metrics.items())},
        }
        if not trace:
            w[key]["report_sha256"] = {str(s["seed"]): s["report_sha256"] for s in group}
            w[key]["tail_percentile"] = group[0]["tail_percentile"]
    return {
        "machine": {
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": platform.processor() or platform.machine(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
        },
        "workloads": workloads,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", metavar="FILE")
    args = parser.parse_args(argv)
    summary = summarize(OUT)
    if not summary["workloads"]:
        print(f"error: no runs under {OUT}", file=sys.stderr)
        return 1
    for workload, by_trace in summary["workloads"].items():
        for key, group in by_trace.items():
            print(f"{workload} ({key}, seeds {group['seeds']}, all correct: {group['all_correct']})")
            for name, st in group["metrics"].items():
                if "spread" in st:
                    spread = "-" if st["spread"] is None else f"{st['spread']:.3f}"
                    print(f"  {name:40s} median {st['median']:12.4f}  q1 {st['q1']:12.4f}  q3 {st['q3']:12.4f}  spread {spread}")
    if args.write:
        Path(args.write).write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
