"""The benchmark's hooks into the package still hold: bench/child.py, loaded as it is.

``bench/child.py`` wraps package functions by module, class and attribute
name, and reads the sampled forms of a ``FlowResult``.  A refactor that
renames one of them breaks ``bench/run.py --trace 1`` without failing any
other test, so these tests load the file by path and check its targets.
"""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from plurisym.calculus import TorusGrid
from plurisym.flow import FlowConfig, make_initial_hs, run_flow

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "bench" / "child.py"


@pytest.fixture(scope="module")
def child():
    # no bytecode cache either: nothing is written under bench/
    spec = importlib.util.spec_from_file_location("bench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    saved, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


def test_every_layer_target_resolves(child):
    assert set(child.CORE) <= set(child.LAYERS)
    for name, targets in child.LAYERS.items():
        for target in targets:
            module = importlib.import_module("plurisym." + target[0])
            if len(target) == 3:
                # child._install reads the raw attribute from the class dict
                cls = getattr(module, target[1])
                assert callable(getattr(cls, target[2])), (name, target)
                assert target[2] in vars(cls), (name, target)
            else:
                assert callable(getattr(module, target[1])), (name, target)


def test_snapshot_bytes_reads_a_real_flow_result(child):
    grid = TorusGrid(2, 8)
    state = make_initial_hs(grid, epsilon=0.05, seed=7, mode_cutoff=1)
    result = run_flow(grid, state, FlowConfig(dt=1e-4, steps=4, sample_every=2,
                                              collect_states=True))
    per_sample = 16 * grid.points ** 4 * (2 * 2 + 1)  # omega's 4 components, phi's 1
    assert child._snapshot_bytes(result) == 3 * per_sample
    assert child._snapshot_bytes(run_flow(grid, state, FlowConfig(dt=1e-4, steps=2))) == 0


def test_traced_child_runs_a_volume_command(tmp_path):
    # the whole --trace path in a fresh process: every wrapper installed,
    # a volume command run under them, and the spans written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dimension": 2, "grid": 8, "initial": {"mode_cutoff": 1},
                               "flow": {"steps": 24, "sample_every": 3}}), encoding="utf-8")
    marks, trace = tmp_path / "marks.json", tmp_path / "trace.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(CHILD), str(marks), str(trace), "--",
         "volume", "--config", str(cfg)],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("name,value,provenance,tolerance,status\n")
    spans = json.loads(trace.read_text(encoding="utf-8"))
    names = {span[0] for span in spans}
    assert {"flow.run_flow", "flow.step", "volume.identities", "forms.metric_build",
            "forms.metric_trace"} <= names
    snapshot = [span[4] for span in spans if span[0] == "flow.run_flow"]
    assert snapshot == [9 * 16 * 8 ** 4 * 5]
    clock = json.loads(marks.read_text(encoding="utf-8"))
    assert clock["core_start"] <= clock["core_end"]
