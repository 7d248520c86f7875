"""Self-tests of the benchmark.  Run from the repository root:

    python3 -m pytest perfbench -q
"""

import json
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from fetalbiometry import cli  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_same_seed_gives_identical_inputs(tmp_path, workload):
    a = corpus.build(workload, 7, tmp_path / "a", frames=2)
    b = corpus.build(workload, 7, tmp_path / "b", frames=2)
    c = corpus.build(workload, 8, tmp_path / "c", frames=2)
    files_a = _files(tmp_path / "a" / "inputs")
    assert files_a and files_a == _files(tmp_path / "b" / "inputs")
    assert files_a != _files(tmp_path / "c" / "inputs")
    assert [(f.aop_deg, f.hsd_px) for f in a] == [(f.aop_deg, f.hsd_px) for f in b]
    assert [(f.aop_deg, f.hsd_px) for f in a] != [(f.aop_deg, f.hsd_px) for f in c]


def test_metric_names_and_units():
    per_layer = run.per_layer_units()
    names = [*run.END_TO_END, *per_layer]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for unit in [*run.END_TO_END.values(), *per_layer.values()]:
        assert UNIT.fullmatch(unit), unit


def test_benchmark_json_matches_the_metrics_emitted():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.per_layer_units()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(corpus.WORKLOADS)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_wrappers_leave_results_unchanged(tmp_path, workload):
    frames = corpus.build(workload, 3, tmp_path, frames=1)
    client = run.Client(cli, frames)
    before = {(m, a): getattr(m, a) for m, a, _, _ in tracing._targets()}
    tracer = tracing.Tracer()
    plain, traced = client.paired_loop(1, tracer)
    assert {(m, a): getattr(m, a) for m, a, _, _ in tracing._targets()} == before
    assert client.repeatable() and client.trace_neutral()
    assert len(plain) == len(traced) == 1
    names = {s.name for s in tracer.spans}
    assert {"cli.measure", "biometry.measure_frame_detailed", "edges.canny", "refine.refine"} <= names
    # worker-thread spans hang under the request span, so only requests are roots
    assert {s.name for s in tracer.spans if s.parent is None} <= {"cli.measure", "cli.ensemble"}
    selfs = tracing.self_times(tracer.spans)
    assert min(selfs.values()) >= 0.0
    assert sum(selfs.values()) <= traced[0]


def test_self_time_subtracts_the_union_of_children():
    S = tracing.Span
    spans = [
        S(1, None, "root", 0, 0.0, 10.0, 10.0),
        S(2, 1, "a", 0, 1.0, 3.0, 3.0),
        S(3, 1, "b", 0, 2.0, 4.5, 5.0),  # overlaps a; counts taken until 5.0
        S(4, 3, "c", 0, 2.5, 3.5, 3.5),
    ]
    selfs = tracing.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 4.0)
    assert selfs[3] == pytest.approx(2.5 - 1.0)
    assert selfs[2] == pytest.approx(2.0)


@pytest.mark.parametrize("n", [11, 20, 40, 48, 64, 101])
def test_tail_label_matches_sample_count(n):
    samples = [float(i) for i in range(n, 0, -1)]
    value, pct = run.tail(samples)
    assert sum(s > value for s in samples) == run.TAIL_BEYOND
    assert pct == pytest.approx(100.0 * (n - run.TAIL_BEYOND) / n)


def test_tail_needs_more_samples_than_it_leaves_beyond():
    with pytest.raises(ValueError):
        run.tail([1.0] * run.TAIL_BEYOND)


def test_passes_is_at_least_one():
    for workload in corpus.WORKLOADS:
        assert corpus.passes(workload, 0.001) == 1
        assert corpus.passes(workload, 10) * corpus.WORKLOADS[workload].frames > run.TAIL_BEYOND
