"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests

They pin that inputs depend only on the seed, that every metric named in
BENCHMARK.json is emitted with its unit, that exact counts repeat, and that
the output checks reject wrong answers.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import inputs  # noqa: E402
from tracer import COUNTS  # noqa: E402

MAXWELL = (ROOT / "scripts/maxwell.ind").read_text(encoding="utf-8")


def run_bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )
    return proc


def last_json(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = inputs.build(workload, 7, MAXWELL)
    assert first == inputs.build(workload, 7, MAXWELL)
    assert json.dumps(first) != json.dumps(inputs.build(workload, 8, MAXWELL))


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_seed_changes_labels_not_sizes(workload):
    a, b = (inputs.build(workload, seed, MAXWELL) for seed in (1, 2))
    assert [j["name"] for j in a["jobs"]] == [j["name"] for j in b["jobs"]]
    for ja, jb in zip(a["jobs"], b["jobs"]):
        if "expr" in ja:
            assert [len(t[2]) for t in ja["expr"]] == [len(t[2]) for t in jb["expr"]]


def test_every_end_to_end_metric_with_its_unit():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    result = last_json(run_bench("--workload", "scripts", "--seconds", "0.2"))
    want = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert result["correct"] and result["failed"] == 0
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_every_per_layer_metric_and_counts_repeat():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = [last_json(run_bench("--workload", "invariants", "--seconds", "0.2",
                                "--trace", "1", "--seed", "3"))
            for _ in range(2)]
    want = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert {k: v["unit"] for k, v in runs[0]["metrics"].items()} == want
    for name in COUNTS + ("numeval.valuations", "setup.numpy_loaded"):
        assert runs[0]["metrics"][name] == runs[1]["metrics"][name], name
    assert runs[0]["metrics"]["algebra.canform.candidates"]["value"] > 0


def test_refuses_to_run_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scripts",
         "--seconds", "0.2"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# -- the checks reject wrong answers -----------------------------------------


def _negated(terms):
    return [[-num, den, factors] for num, den, factors in terms]


def test_numeric_check_rejects_a_wrong_sign():
    terms = inputs.sum_terms(random.Random(0), 12, "m0")
    assert check.numerically_equal(terms, terms, seed=1) is None
    wrong = terms[:-1] + _negated(terms[-1:])
    assert check.numerically_equal(wrong, terms, seed=1) is not None


def test_numeric_check_binds_the_curl():
    _, terms = inputs.maxwell_sites(random.Random(0), 3)
    rewritten = []
    for num, den, (a, w) in terms[::2]:  # c * A_{r,p} W^{p r} -> c * F_{p r} W^{p r}
        (r, _), p = a[1][0], a[2][0]
        rewritten.append([num, den, [["F", [[p, False], [r, False]], []], w]])
    assert check.numerically_equal(rewritten, terms, 5, curl=("F", "A")) is None
    assert check.numerically_equal(_negated(rewritten), terms, 5, curl=("F", "A"))


def test_odd_mixed_chains_vanish_numerically():
    chain = inputs.mixed_chain(random.Random(0), 5)
    assert check.numerically_equal(chain, [], seed=2) is None
    even = inputs.mixed_chain(random.Random(0), 4)
    assert check.numerically_equal(even, [], seed=2) is not None


def test_field_equation_check():
    field = {"field": "phi", "polynomial": [[3, 1, 0], [-4, 1, 1]]}
    divergence = ["'covdiff", [["g", [["%1", True], ["%2", True]], []],
                               ["phi", [], ["%1"]]], "%2"]
    good = [[3, 1, []], [-4, 1, [["phi", [], []]]], [-1, 1, [divergence]]]
    assert check.field_equation_problem(good, field) is None
    assert check.field_equation_problem(good[:2], field)
    assert check.field_equation_problem(
        [[3, 1, []], [4, 1, [["phi", [], []]]], [-1, 1, [divergence]]], field)
    wrong_index = ["'covdiff", divergence[1], "%1"]
    assert check.field_equation_problem(good[:2] + [[-1, 1, [wrong_index]]], field)


def test_numeval_check_rejects_a_wrong_value():
    job = {"kind": "numeval", "name": "x",
           "expr": [[1, 1, [["X", [["a", False]], []], ["Y", [["a", True]], []]]]]}
    g = [[2.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 1.0, 0], [0, 0, 0, 4.0]]
    x, y = [1.0, 2.0, 3.0, 4.0], [1.0, 1.0, 1.0, 1.0]
    output = {"metric": "g", "arrays": {"g,2,0": g, "X,1,0": x, "Y,1,0": y},
              "value": 1 / 2 + 2 + 3 + 1}
    assert check.check_output(job, output, 0) is None
    output["value"] += 1e-3
    assert check.check_output(job, output, 0) is not None
