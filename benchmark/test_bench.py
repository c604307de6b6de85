"""Tests of the benchmark itself: python -m pytest -q benchmark"""

from __future__ import annotations

import dataclasses
import inspect
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import bench  # noqa: E402
import sparsetc as st  # noqa: E402
from gate import Gate  # noqa: E402
from tracing import NullTracer  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_spec_names_every_workload_with_its_reason():
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == {
        name: make().why for name, make in WORKLOADS.items()
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_definition_says_why_it_exists(name):
    assert "# Why:" in inspect.getsource(WORKLOADS[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_emits_every_metric_and_passes_the_gate(name, trace, tmp_path):
    result = bench.measure(WORKLOADS[name](tiny=True), 5, 0.05, trace, str(tmp_path), log=lambda _: None)
    expected = _units("per_layer" if trace else "end_to_end")
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert result["attempted"] >= 1
    assert result["failed"] == 0 and result["correct"]


def test_same_seed_gives_identical_input_digests(tmp_path):
    w = WORKLOADS["sparse-out-io"](tiny=True)
    runs = []
    for sub in ("a", "b", "c"):
        os.mkdir(tmp_path / sub)
        runs.append(generate(w, 7 if sub != "c" else 8, str(tmp_path / sub)).digests)
    assert runs[0] == runs[1]
    assert all(runs[0][k] != runs[2][k] for k in runs[0])


def _first_pass(name, tmp_path):
    w = WORKLOADS[name](tiny=True)
    inputs = generate(w, 3, str(tmp_path))
    program = bench.Program(NullTracer())
    tensors = bench.construct(w, inputs, program)
    gate = Gate(w, inputs)
    first = bench.run_pass(w, tensors, program, str(tmp_path), replay=False)
    assert all(gate.check(i, ev) for i, ev in enumerate(first))
    return gate, first


def test_perturbed_value_is_a_failure(tmp_path):
    gate, first = _first_pass("rowwise-dense", tmp_path)
    out = first[1].out
    values = out.storage.values.copy()
    values[0] += 1e-6
    storage = dataclasses.replace(out.storage, values=values)
    bad = dataclasses.replace(first[1], out=dataclasses.replace(out, storage=storage))
    assert not gate.check(1, bad)
    assert (gate.attempted, gate.failed) == (3, 1)
    assert any("einsum reference" in p for p in gate.problems)


def test_counter_off_by_one_is_a_failure(tmp_path):
    gate, first = _first_pass("rowwise-dense", tmp_path)
    c = first[0].counter
    off = st.OpCounter(c.scalar_mults + 1, c.scalar_adds, c.iterator_advances)
    assert not gate.check(0, dataclasses.replace(first[0], counter=off))
    assert (gate.attempted, gate.failed) == (3, 1)
    assert any("counter law" in p for p in gate.problems)


def test_raising_evaluation_is_a_failure(tmp_path):
    gate, first = _first_pass("csr-transpose", tmp_path)
    assert not gate.check(0, bench.Evaluation(error="ShapeError: boom"))
    assert gate.failed == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "plan-heavy", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
