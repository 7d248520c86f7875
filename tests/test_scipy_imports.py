"""The measure path never loads scipy: importing it costs more than measuring
a frame.  Only ``augment`` and ``metrics`` may load it.

Each check runs in a fresh interpreter, since this test process has loaded
scipy already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs each step and prints, per step, its exit code and the scipy modules
# loaded after it.  The phantom frame seeds every later step's inputs.
SCRIPT = r"""
import json, sys
from pathlib import Path

import numpy as np

steps = []


def record(step, rc=0):
    steps.append([step, rc, sorted(k for k in sys.modules if k == "scipy" or k.startswith("scipy."))])


from fetalbiometry import io_formats
from fetalbiometry.cli import main

record("import fetalbiometry.cli")
d = Path(sys.argv[1])
record("phantom", main(["phantom", "--seed", "3", "--size", "256", "--out-dir", str(d)]))
labels = io_formats.read_label_mask(d / "phantom_0003.pgm")
onehot = np.stack([labels == c for c in range(3)], axis=-1).astype(np.float32)
io_formats.write_prob_map(onehot, d / "f.fpm")
record("measure pgm", main(["measure", str(d / "phantom_0003.pgm"), "--out", str(d / "pgm.csv")]))
record("measure fpm", main(["measure", str(d / "f.fpm"), "--out", str(d / "fpm.csv")]))
members = [str(d / "f.fpm")] * 3
record("ensemble", main(["ensemble", *members, "--out", str(d / "avg.fpm"), "--decide-out", str(d / "dec.pgm")]))
record("augment", main(["augment", "--image", str(d / "phantom_0003.pgm"), "--out", str(d / "aug.pgm")]))
pair = ["--pred", str(d / "dec.pgm"), "--gt", str(d / "phantom_0003.pgm")]
record("metrics", main(["metrics", *pair, "--out", str(d / "m.json")]))
print(json.dumps(steps))
"""


def run_steps(tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    r = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(tmp_path)], env=env, capture_output=True, text=True, timeout=300
    )
    assert r.returncode == 0, r.stderr
    return {step: (rc, loaded) for step, rc, loaded in json.loads(r.stdout.splitlines()[-1])}


def test_measure_path_never_loads_scipy(tmp_path):
    steps = run_steps(tmp_path)
    for step in ("import fetalbiometry.cli", "phantom", "measure pgm", "measure fpm", "ensemble"):
        rc, loaded = steps[step]
        assert rc == 0, step
        assert loaded == [], f"{step} loaded {loaded[:3]}"
    # the two subcommands that use scipy still run, and the check does see it
    assert steps["augment"][0] == 0 and steps["metrics"][0] == 0
    assert "scipy" in steps["metrics"][1]
