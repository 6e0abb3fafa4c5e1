"""Tests of the benchmark itself: its gates, its seeding and its tracer.

Run with ``python -m pytest perfbench/tests`` from the repository root.
"""

import dataclasses
import itertools
import json
import math
import shutil
import signal
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import circlequad as cq
from perfbench import bench, run
from perfbench.clock import REF_S, RefClock, kernel
from perfbench.trace import Tracer
from perfbench.workloads import (
    PAPER_ARCS_OVER_PI,
    SCAN_GRID,
    WORKLOADS,
    rules_check,
    rules_run,
    scan_check,
    scan_inputs,
)

ROOT = Path(__file__).resolve().parents[2]


def _published_scan(shift_over_pi=0.0, mirror=False):
    b = sorted((2.0 - x if mirror else x) * math.pi for x in PAPER_ARCS_OVER_PI)
    b[2] += shift_over_pi * math.pi
    thetas = np.arange(SCAN_GRID) * (2 * math.pi / SCAN_GRID)
    return cq.TauScan(thetas=thetas, labels=["positive"] * SCAN_GRID,
                      arcs=[(b[0], b[1]), (b[2], b[3]), (b[4], b[5])])


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_scan_gate_passes_published_arcs_and_catches_a_shifted_bound(seed):
    inp = next(scan_inputs(seed))
    problems, ratio = scan_check(cq, inp, _published_scan(mirror=inp["mirror"]))
    assert problems == [] and ratio < 1.0
    shifted = _published_scan(shift_over_pi=0.003, mirror=inp["mirror"])
    problems, _ = scan_check(cq, inp, shifted)
    assert any("published" in p for p in problems)


@pytest.fixture(scope="module")
def large_rule():
    inp = {"q": 0.6, "radau": True, "theta": 2.0}
    return inp, rules_run(cq, inp)


def test_rules_gate_passes_a_good_rule(large_rule):
    inp, out = large_rule
    problems, ratio = rules_check(cq, inp, out)
    assert problems == [] and ratio < 1.0


def test_rules_gate_catches_a_corrupted_weight(large_rule):
    inp, (rule, report, deltas) = large_rule
    weights = rule.weights.copy()
    weights[7] *= 1.0 + 1e-6
    bad = dataclasses.replace(rule, weights=weights)
    problems, ratio = rules_check(cq, inp, (bad, report, deltas))
    assert ratio > 1.0
    assert any("moment residual" in p for p in problems)


def test_run_names_every_workload():
    assert run.WORKLOAD_NAMES == list(WORKLOADS)


def test_mix_gate_catches_a_moved_prescription():
    workload = WORKLOADS["prescribe-mix"]
    for inp in workload.inputs(5):
        if inp["kind"] != "2l" or inp["measure"][0] != "rs":
            continue
        try:
            answer, mu, deltas = out = workload.run(cq, inp)
        except cq.CircleQuadError:
            continue
        if answer.admissible:
            break
    problems, ratio = workload.check(cq, inp, out)
    assert problems == [] and ratio < 1.0
    spec = answer.spec
    moved = cq.ComplexPoly(spec.P.coeffs + np.r_[1e-3 * np.ones(spec.ell), 0.0])
    bad = dataclasses.replace(answer, spec=dataclasses.replace(spec, P=moved))
    problems, _ = workload.check(cq, inp, (bad, mu, deltas))
    assert any("missing" in p for p in problems)


def test_mix_draw_keeps_the_failures_out_of_the_timed_loop():
    workload = dataclasses.replace(WORKLOADS["prescribe-mix"], draw=80)
    inputs, drawn = bench.draw(cq, workload, 4)
    outcomes, gates = drawn
    failed = bench.failures(workload, outcomes)
    assert len(outcomes) == 80 and gates["checked"] > 0
    assert failed["measure-not-positive-definite"] > 0  # the breakdown stays in the draw
    answered = 80 - sum(failed.values())
    timed = bench.measure(cq, workload, inputs(), 0.0, max_ops=2 * answered)
    gates = bench.audit(cq, workload, timed)
    assert not bench.failures(workload, timed)
    assert bench.is_correct(workload, timed, drawn)
    assert [o.inp for o in timed[:answered]] == [o.inp for o in timed[answered:]]
    e2e = bench.end_to_end(workload, timed, gates, 0.1, 50.0, drawn)
    assert e2e["answered_ratio"]["value"] == pytest.approx(answered / 80)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_seed_regenerates_identical_inputs(name):
    inputs = WORKLOADS[name].inputs
    first = list(itertools.islice(inputs(7), 50))
    assert first == list(itertools.islice(inputs(7), 50))
    assert first != list(itertools.islice(inputs(8), 50))


def _traced_run(name, seed, ops):
    workload = WORKLOADS[name]
    inputs = list(itertools.islice(workload.inputs(seed), ops))
    tracer = Tracer()
    with tracer:
        outcomes = bench.measure(cq, workload, inputs, 0.0, max_ops=ops, tracer=tracer)
    gates = bench.audit(cq, workload, outcomes)
    return bench.per_layer(workload, outcomes, gates, tracer, untraced_s=1.0)


@pytest.mark.parametrize("name,ops", [("prescribe-mix", 60), ("rules-large", 1)])
def test_two_traced_runs_give_identical_call_counts(name, ops):
    first, second = (_traced_run(name, 3, ops) for _ in range(2))
    calls = [k for k in first if k.endswith(".calls") or k.endswith(".point_steps")]
    assert any(first[k]["value"] for k in calls)
    assert {k: first[k] for k in calls} == {k: second[k] for k in calls}
    wall = first["trace.wall_s"]["value"]
    listed = sum(first[k]["value"] for k in first if k.endswith(".self_s")) * ops
    glue = first["trace.glue_self_s"]["value"] * ops
    assert listed + glue == pytest.approx(wall, rel=1e-9)


def test_ref_clock_reads_the_kernel_at_its_reference_time_and_disarms():
    before = signal.getsignal(signal.SIGPROF)
    with RefClock() as clock:
        t0 = clock.now()
        for _ in range(300):
            kernel()
        elapsed = clock.now() - t0
        assert clock.ticks >= 3
    # the kernel's own time inside a tick is left out
    assert elapsed == pytest.approx(300 * REF_S, rel=0.25)
    assert signal.getsignal(signal.SIGPROF) is before
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)


def test_tracer_restores_every_binding():
    before = (cq.scan_tau, cq.quadrature.zeros_on_circle, cq.qpopuc.szego_eval,
              cq._kernels.szego_eval, cq.ComplexPoly.roots)
    with Tracer():
        assert cq.quadrature.zeros_on_circle is not before[1]
        assert cq.qpopuc.szego_eval is not before[2]
    after = (cq.scan_tau, cq.quadrature.zeros_on_circle, cq.qpopuc.szego_eval,
             cq._kernels.szego_eval, cq.ComplexPoly.roots)
    assert after == before


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workload = WORKLOADS["prescribe-mix"]
    outcomes = bench.measure(cq, workload, workload.inputs(0), 0.0, max_ops=5)
    gates = bench.audit(cq, workload, outcomes)
    e2e = bench.end_to_end(workload, outcomes, gates, 0.1, 50.0)
    layer = _traced_run("prescribe-mix", 0, 5)
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert [m["name"] for m in spec["per_layer"]] == list(layer)
    units = {k: v["unit"] for k, v in {**e2e, **layer}.items()}
    assert all(m["unit"] == units[m["name"]] for m in spec["end_to_end"] + spec["per_layer"])


def test_run_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scan", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
