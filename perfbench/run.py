#!/usr/bin/env python3
"""Phantom-corpus benchmark of the fetalbiometry measure path.

Run from the repository root:

    python3 perfbench/run.py --workload clean --seed 0 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 0

A run renders the workload's seeded corpus, then drives the real CLI
in-process as a closed loop with one client: each request is one
``cli.main([...])`` call on one frame (``ensemble`` then ``measure`` on the
ensemble workload), sent when the previous one has returned.  Then it times
one ``measure --jobs <nproc>`` batch over the same corpus.  ``--trace 0``
reports the bounded end-to-end metrics.  ``--trace 1`` sends every request
twice, untraced and with the measure path wrapped (see tracing.py), and
reports per-layer metrics per frame, the client timings, the tracing overhead
and the oracle accuracy.

Checks, each of which makes ``correct`` false: repeated requests for a frame
give the same report bytes; the per-frame report rows are byte-identical to
the batch CSV and, with ``--trace 1``, to the traced requests' rows; traced
self times add up to the frame time; and on ``clean`` and ``ensemble`` most
frames meet the acceptance tolerances.  An exception that is not a
FetalBiometryError, or an exit code other than 0/2, aborts the run without a
result.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Run files go to
``.perfbench_out/<workload>-seed<seed>-trace<t>/``; the corpus itself is
deleted when the run ends.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import tracing

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

WORKLOAD_NAMES = ("clean", "protrusion", "ensemble")

# acceptance-gate tolerances of tests/test_acceptance.py
AOP_TOL_DEG = 1.5
HSD_TOL_PX = 2.0
# Share of frames that must meet these tolerances for a run to count as
# correct.  Measured miss rates are about 1-2% on clean phantoms (the
# acceptance gate allows 2%) and 6-8% on decided ensemble masks; at those
# rates a sound pipeline trips the gate with probability below 1e-5 per run.
# Protrusion accuracy is reported only: the pipeline makes no accuracy claim
# for protrusions on both classes.
ORACLE_GATE = {"clean": 0.8, "ensemble": 0.6}
SETUP_RUNS = 5
TAIL_BEYOND = 10

# Bounded metrics.  At the baseline their spread over ten seeds stays below
# 0.1 on every workload; setup_s moves more but only its median is compared.
# README.md says why the median, the mean and the batch rate carry no bound.
END_TO_END = {
    "frame_tail_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Reported on every run; recorded with the per-layer metrics of a traced run.
CLIENT = {
    "client.frame_p50_ms": "ms",
    "client.frame_mean_ms": "ms",
    "client.batch_fps": "1/s",
}

# span name -> per-frame fields reported for it
LAYERS = {
    "cli.measure": ("self_ms",),
    "cli.ensemble": ("self_ms",),
    "io_formats.read_label_mask": ("self_ms", "bytes"),
    "io_formats.read_prob_map": ("self_ms", "bytes"),
    "io_formats.write_prob_map": ("self_ms", "bytes"),
    "io_formats.write_label_mask": ("self_ms", "bytes"),
    "io_formats.write_report_csv": ("self_ms", "bytes"),
    "ensemble.average": ("self_ms",),
    "ensemble.decide": ("self_ms",),
    "biometry.measure_frame_detailed": ("self_ms",),
    "biometry.compute_aop": ("self_ms",),
    "biometry.compute_hsd": ("self_ms",),
    "morphology.largest_component": ("self_ms",),
    "morphology.close": ("self_ms", "px"),
    "refine.refine": ("self_ms", "calls"),
    "refine.prune": ("self_ms", "calls"),
    "refine.protrusion_ratio": ("self_ms",),
    "edges.canny": ("self_ms", "calls", "px"),
    "edges.extract_chains": ("self_ms", "edge_px"),
    "edges.longest_chain": ("self_ms",),
    "ellipse.fit_ams": ("self_ms", "calls", "points"),
    "ellipse.rasterize": ("self_ms", "px"),
}
FIELD_UNITS = {"self_ms": "ms", "calls": "count", "bytes": "bytes", "px": "px", "edge_px": "px", "points": "count"}

ORACLE = {
    "oracle.aop_err_p50_deg": "deg",
    "oracle.aop_err_p95_deg": "deg",
    "oracle.hsd_err_p50_px": "px",
    "oracle.hsd_err_p95_px": "px",
    "oracle.within_tol_frac": "ratio",
    "oracle.fail_frac": "ratio",
}
TRACE = {
    "trace.traced_p50_ms": "ms",
    "trace.overhead_ms": "ms",
}


class BenchmarkError(Exception):
    """The program broke its contract; the run has no result."""


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.{f}": FIELD_UNITS[f] for layer, fields in LAYERS.items() for f in fields}
    units["refine.used_ellipse_frac"] = "ratio"
    for cls in (*tracing.FAIL_CLASSES, "other"):
        units[tracing.fail_key(cls)] = "count"
    return {**units, **ORACLE, **CLIENT, **TRACE}


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with TAIL_BEYOND samples above it."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        raise ValueError(f"need more than {TAIL_BEYOND} samples for a tail, got {n}")
    rank = n - TAIL_BEYOND
    return sorted(samples)[rank - 1], 100.0 * rank / n


def setup_seconds() -> float:
    """Median time to import fetalbiometry.cli in a fresh interpreter."""
    code = (
        "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
        "import fetalbiometry.cli; print(time.perf_counter() - t)"
    )
    times = []
    for _ in range(SETUP_RUNS):
        r = subprocess.run(
            [sys.executable, "-c", code, str(SRC)], cwd=ROOT, capture_output=True, text=True, timeout=120
        )
        if r.returncode != 0:
            raise BenchmarkError(f"importing fetalbiometry.cli failed: {r.stderr.strip()}")
        times.append(float(r.stdout))
    return statistics.median(times)


class Client:
    """Closed loop with one client over a corpus; the CLI's stderr is kept, not shown."""

    def __init__(self, cli, frames):
        self.cli = cli
        self.frames = frames
        self.requests = [[list(argv) for argv in f.requests] for f in frames]
        self.stderr = io.StringIO()
        # per frame: the first untraced report CSV, and every distinct one seen
        self.first: list[bytes | None] = [None] * len(frames)
        self.seen = {"untraced": [set() for _ in frames], "traced": [set() for _ in frames]}

    def _main(self, argv):
        try:
            with contextlib.redirect_stderr(self.stderr):
                return self.cli.main(argv)
        except SystemExit as e:
            raise BenchmarkError(f"cli {argv[0]} exited with {e.code}") from e

    def request(self, i: int, tracer=None) -> float:
        """Send frame i's request and wait for it; returns its latency (s)."""
        t0 = time.perf_counter()
        for argv in self.requests[i]:
            if tracer is None:
                rc = self._main(argv)
            else:
                tracer.frame = i
                rc = tracer.call(f"cli.{argv[0]}", self._main, (argv,), request=True)
            if rc not in (0, 2) or (rc == 2 and argv[0] != "measure"):
                raise BenchmarkError(f"{self.frames[i].name}: cli {argv[0]} returned {rc}")
        latency = time.perf_counter() - t0
        report = Path(self.frames[i].report).read_bytes()
        if tracer is None and self.first[i] is None:
            self.first[i] = report
        self.seen["untraced" if tracer is None else "traced"][i].add(report)
        return latency

    def loop(self, passes: int) -> list[float]:
        """Latencies (s) of `passes` passes over the corpus."""
        return [self.request(i) for _ in range(passes) for i in range(len(self.frames))]

    def paired_loop(self, passes: int, tracer) -> tuple[list[float], list[float]]:
        """(untraced, traced) latencies.  Each frame is sent both ways back to
        back, in alternating order, so drift in machine speed cancels out of
        the tracing overhead."""
        plain, traced = [], []
        for k in range(passes):
            for i in range(len(self.frames)):
                for with_trace in (False, True) if (i + k) % 2 == 0 else (True, False):
                    if with_trace:
                        with tracing.installed(tracer):
                            traced.append(self.request(i, tracer))
                    else:
                        plain.append(self.request(i))
        return plain, traced

    def repeatable(self) -> bool:
        return all(len(s) == 1 for s in self.seen["untraced"])

    def trace_neutral(self) -> bool:
        return self.seen["traced"] == self.seen["untraced"]

    def batch(self, out: Path, jobs: int) -> tuple[int, float]:
        argv = ["measure", *[f.measured for f in self.frames], "--out", str(out), "--jobs", str(jobs)]
        t0 = time.perf_counter()
        rc = self._main(argv)
        return rc, time.perf_counter() - t0


def split_reports(reports: list[bytes]) -> tuple[bytes, list[bytes | None]]:
    """(header, row or None per frame) from the per-frame report CSVs."""
    header = reports[0].splitlines(keepends=True)[0]
    rows = []
    for rep in reports:
        lines = rep.splitlines(keepends=True)
        if lines[0] != header or len(lines) > 2:
            raise BenchmarkError("unexpected per-frame report layout")
        rows.append(lines[1] if len(lines) == 2 else None)
    return header, rows


def failure_classes(frames, rows) -> dict[str, str]:
    """Frame name -> error class of every frame without a row; each must be a FetalBiometryError."""
    from fetalbiometry import biometry, io_formats
    from fetalbiometry.errors import FetalBiometryError

    out = {}
    for f, row in zip(frames, rows):
        if row is not None:
            continue
        try:
            biometry.measure_frame_detailed(io_formats.read_label_mask(f.measured))
        except FetalBiometryError as e:
            out[f.name] = type(e).__name__
        else:
            raise BenchmarkError(f"{f.name}: the CLI reported a failure but the frame measures")
    return out


def oracle(frames, rows) -> dict[str, float]:
    """Accuracy against the analytic AoP/HSD; a failed frame is outside tolerance."""
    aop_err, hsd_err, within = [], [], 0
    for f, row in zip(frames, rows):
        if row is None:
            continue
        fields = row.decode().strip().split(",")
        da, dh = abs(float(fields[1]) - f.aop_deg), abs(float(fields[2]) - f.hsd_px)
        aop_err.append(da)
        hsd_err.append(dh)
        within += da <= AOP_TOL_DEG and dh <= HSD_TOL_PX
    n = len(frames)

    def pct(v, q):
        return float(np.percentile(v, q)) if v else float("nan")

    return {
        "oracle.aop_err_p50_deg": pct(aop_err, 50),
        "oracle.aop_err_p95_deg": pct(aop_err, 95),
        "oracle.hsd_err_p50_px": pct(hsd_err, 50),
        "oracle.hsd_err_p95_px": pct(hsd_err, 95),
        "oracle.within_tol_frac": within / n,
        "oracle.fail_frac": (n - len(aop_err)) / n,
    }


def layer_metrics(table: dict, requests: int) -> dict[str, float]:
    """Per-frame values of every per-layer metric from a tracing.layer_table."""
    out = {}
    for layer, fields in LAYERS.items():
        row = table.get(layer, {"calls": 0, "self_ms": 0.0, "counts": {}})
        for f in fields:
            total = row[f] if f in ("calls", "self_ms") else row["counts"].get(f, 0)
            out[f"{layer}.{f}"] = total / requests
    refine = table.get("refine.refine")
    out["refine.used_ellipse_frac"] = refine["counts"]["used_ellipse"] / refine["calls"] if refine else 0.0
    for cls in (*tracing.FAIL_CLASSES, "other"):
        out[tracing.fail_key(cls)] = 0.0
    for cls, n in table.get("biometry.measure_frame_detailed", {"errors": {}})["errors"].items():
        out[tracing.fail_key(cls)] += n / requests
    return out


def print_layer_table(table: dict, requests: int, frame_ms: float) -> None:
    print(f"  per-layer, per frame (traced, {requests} requests, {frame_ms:.2f} ms/frame):")
    print(f"    {'layer':34s} {'calls':>7s} {'self ms':>9s} {'share':>7s}  counts")
    for name, row in sorted(table.items(), key=lambda kv: -kv[1]["self_ms"]):
        self_ms = row["self_ms"] / requests
        counts = " ".join(f"{k}={v / requests:.6g}" for k, v in sorted(row["counts"].items()))
        raised = " ".join(f"raised.{k}={v}" for k, v in sorted(row["errors"].items()))
        print(
            f"    {name:34s} {row['calls'] / requests:7.2f} {self_ms:9.3f} "
            f"{100 * self_ms / frame_ms:6.2f}%  {counts} {raised}".rstrip()
        )


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import corpus
    from fetalbiometry import cli

    run_dir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    summary = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace)}
    metrics = {}
    try:
        setup = None if trace else setup_seconds()
        frames = corpus.build(workload, seed, run_dir)
        passes = corpus.passes(workload, seconds, trace)
        client = Client(cli, frames)
        for argv in client.requests[0]:  # untimed warm-up
            client._main(argv)

        if trace:
            tracer = tracing.Tracer()
            latencies, traced = client.paired_loop(passes, tracer)
        else:
            latencies = client.loop(passes)
        header, rows = split_reports(client.first)
        report_csv = header + b"".join(r for r in rows if r is not None)
        failures = failure_classes(frames, rows)
        checks = {"repeated requests give identical reports": client.repeatable()}
        jobs = len(os.sched_getaffinity(0))
        rc, batch_s = client.batch(run_dir / "batch.csv", jobs)
        if rc not in (0, 2):
            raise BenchmarkError(f"batch measure returned {rc}")
        checks["batch exit code matches failures"] = rc == (2 if failures else 0)
        checks["per-frame rows == batch CSV"] = (run_dir / "batch.csv").read_bytes() == report_csv
        attempted = len(latencies) + len(frames)
        failed = len(failures) * (passes + 1)
        tail_ms, tail_pct = tail(latencies)
        metrics.update(
            {
                "frame_tail_ms": tail_ms * 1e3,
                "client.frame_p50_ms": statistics.median(latencies) * 1e3,
                "client.frame_mean_ms": statistics.mean(latencies) * 1e3,
                "client.batch_fps": len(frames) / batch_s,
            }
        )
        summary.update(tail_percentile=tail_pct, samples=len(latencies), jobs=jobs)
        if trace:
            checks["traced reports == untraced reports"] = client.trace_neutral()
            attempted += len(traced)
            failed += len(failures) * passes
            table = tracing.layer_table(tracer.spans)
            metrics.update(layer_metrics(table, len(traced)))
            traced_p50 = statistics.median(traced) * 1e3
            # median over frames of traced minus untraced latency of the same frame
            overhead = statistics.median(t - u for u, t in zip(latencies, traced)) * 1e3
            metrics.update({"trace.traced_p50_ms": traced_p50, "trace.overhead_ms": overhead})
            # client-measured frame time not covered by any self time: the cost
            # of taking counts plus wrapper calls, never negative
            frame_self = tracing.frame_self_ms(tracer.spans)
            gap = (sum(traced) * 1e3 - sum(frame_self.values())) / len(traced)
            summary["self_time_gap_ms"] = gap
            checks["self times sum to frame time within tracing overhead"] = (
                0.0 <= gap <= max(overhead, 0.0) + 0.01 * traced_p50
            )
            tracing.dump(tracer.spans, run_dir / "spans.jsonl")
            summary["layers"] = {
                k: {"calls": v["calls"], "self_ms": v["self_ms"], "counts": dict(v["counts"]), "errors": dict(v["errors"])}
                for k, v in table.items()
            }
        else:
            metrics["setup_s"] = setup
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        acc = oracle(frames, rows)
        if trace:
            metrics.update(acc)
        if workload in ORACLE_GATE:
            gate = ORACLE_GATE[workload]
            checks[f"within_tol_frac >= {gate}"] = acc["oracle.within_tol_frac"] >= gate
        (run_dir / "report.csv").write_bytes(report_csv)
        (run_dir / "cli_stderr.txt").write_text(client.stderr.getvalue())
        summary.update(
            frames=len(frames),
            passes=passes,
            report_sha256=hashlib.sha256(report_csv).hexdigest(),
            failures=failures,
            checks=checks,
            oracle=acc,
            metrics=metrics,
        )
    finally:
        shutil.rmtree(run_dir / "inputs", ignore_errors=True)
        shutil.rmtree(run_dir / "outputs", ignore_errors=True)
    (run_dir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {len(frames)} frames x {passes} passes")
    print(
        f"  frame_tail_ms   {metrics['frame_tail_ms']:12.4f} ms   (p{summary['tail_percentile']:.1f} of "
        f"{summary['samples']} requests, {TAIL_BEYOND} beyond)"
    )
    for name in ("setup_s", "peak_rss_mb"):
        if name in metrics:
            print(f"  {name:15s} {metrics[name]:12.4f} {END_TO_END[name]}")
    for name, unit in CLIENT.items():
        print(f"  {name.removeprefix('client.'):15s} {metrics[name]:12.4f} {unit}")
    scope = "measure only, " if workload == "ensemble" else ""
    print(
        f"  batch_fps x frame_p50_ms = {metrics['client.batch_fps'] * metrics['client.frame_p50_ms'] / 1e3:.3f} "
        f"(batch of {scope}--jobs {jobs}, over one client)"
    )
    for name, v in acc.items():
        print(f"  {name.removeprefix('oracle.'):15s} {v:12.4f} {ORACLE[name]}")
    if trace:
        print(
            f"  tracing overhead: {metrics['trace.overhead_ms']:+.3f} ms per frame (paired median); "
            f"frame_p50_ms {metrics['client.frame_p50_ms']:.3f} untraced, {metrics['trace.traced_p50_ms']:.3f} traced; "
            f"frame time outside self times: {summary['self_time_gap_ms']:.3f} ms"
        )
        print_layer_table(table, len(traced), statistics.mean(traced) * 1e3)
    print(f"  report_sha256 {summary['report_sha256']}")
    for name, ok in checks.items():
        print(f"  check {'ok  ' if ok else 'FAIL'} {name}")
    if failures:
        print(f"  failed frames: {failures}")

    wanted = per_layer_units() if trace else END_TO_END
    return {
        "correct": all(checks.values()),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in wanted.items()},
    }


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for workload in WORKLOAD_NAMES:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
            r = subprocess.run([*argv, "--trace", str(trace)], capture_output=True, text=True, timeout=900)
            lines = r.stdout.splitlines()
            print("\n".join(lines[:-1]))
            sys.stderr.write(r.stderr)
            if r.returncode != 0:
                print(f"error: {workload} trace {trace} exited with {r.returncode}", file=sys.stderr)
                return 1
            results[(workload, trace)] = json.loads(lines[-1])
    combined = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{m}": v for (w, t), r in results.items() if t == 0 for m, v in r["metrics"].items()},
    }
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOAD_NAMES, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (SRC / "fetalbiometry" / "cli.py").is_file():
        print(f"error: {SRC / 'fetalbiometry'} not found; run from a checkout of the repository", file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
