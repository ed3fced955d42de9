"""Tests of the benchmark itself:

    python3 -m pytest perfbench/test_perfbench.py

The last test runs the traced benchmark twice (about half a minute).
"""

import gc
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import run
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
wf = run.import_program()


def test_self_time_subtracts_covered_child_intervals():
    spans = [["root", 0.0, 10.0, -1, 0],
             ["a", 1.0, 3.0, 0, 0],
             ["b", 2.5, 4.0, 0, 0],     # overlaps a by 0.5: covered once
             ["leaf", 1.5, 2.0, 1, 0],
             ["other", 11.0, 12.0, -1, 1]]
    own = tracing.self_times(spans)
    assert own == pytest.approx([7.0, 1.5, 1.5, 0.5, 1.0])
    assert tracing.per_step(spans, "root", [0, 1]) == pytest.approx([10.0, 0.0])
    assert tracing.per_step(spans, "a", [0], own) == pytest.approx([1.5])


def test_active_hinges_matches_a_loop():
    rng = np.random.default_rng(0)
    entries = [(m, label) for label in range(3) for m in "atv"]
    vectors = [rng.normal(size=(1, 4)) for _ in entries]
    vectors[4] = np.zeros((1, 4))
    triplets = wf.losses.build_triplets(entries)

    def cos(u, v):
        nu, nv = np.linalg.norm(u), np.linalg.norm(v)
        return 0.0 if nu == 0 or nv == 0 else float(u.ravel() @ v.ravel()) / (nu * nv)

    expect = sum(0.5 - cos(vectors[t.anchor], vectors[t.positive])
                 + cos(vectors[t.anchor], vectors[t.negative]) > 0 for t in triplets)
    assert tracing.active_hinges(vectors, triplets, 0.5) == expect


def test_tracer_restores_the_program():
    model = wf.WavFusionModel(num_classes=2, feature_dims={"a": 3, "t": 3, "v": 3}, d=4,
                              heads=1, n_shallow=1, n_deep=1, lvc_centers=2)
    before = {(owner, attr): owner.__dict__[attr]
              for owner, attr, _ in tracing.Tracer(wf)._targets}
    before[(wf.Tensor, "__init__")] = wf.Tensor.__dict__["__init__"]
    tracer = tracing.Tracer(wf)
    tracer.watch(model)
    with tracer:
        assert wf.train.batch_objective is not before[(wf.train, "batch_objective")]
        assert wf.Tensor.__init__ is not before[(wf.Tensor, "__init__")]
    assert all(owner.__dict__[attr] is fn for (owner, attr), fn in before.items())
    assert tracer._on_gc not in gc.callbacks


def test_benchmark_json_matches_the_runner():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


EXACT = ("tensor.tensors_per_step", "losses.triplets_per_step", "losses.active_hinge_frac",
         "runtime.gc_gen2_per_step")


def traced_run(workload, seed):
    out = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", workload,
                          "--seed", str(seed), "--seconds", "1", "--trace", "1"],
                         capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    record = json.loads((run.WORK / "results" / f"{workload}-s{seed}-trace1.json").read_text())
    return result, record["loss_fingerprint"]


def test_traced_counters_repeat_exactly_for_a_seed():
    first, first_print = traced_run("margin-b16", 7)
    second, second_print = traced_run("margin-b16", 7)
    assert first["correct"] and second["correct"]
    for name in EXACT:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    assert first["metrics"]["losses.triplets_per_step"]["value"] > 0
    assert first_print == second_print
