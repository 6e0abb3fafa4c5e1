"""Closed-loop driver: one client, one operation at a time, no threads.

Operation times are read from a CPU clock: CPU time of this process,
scaled to a reference host speed on the workloads that ask for it (see
``perfbench/clock.py``). The library is single-threaded and CPU-bound, so
on an idle host CPU time equals wall time; on a shared host it leaves out
the time the host gives the CPU to others, which otherwise moves wall
times by tens of percent between runs. The run length is wall time.

``measure`` runs a workload's operations until their summed time reaches
the run length, ``audit`` applies the workload's correctness gates
afterwards, and ``end_to_end`` / ``per_layer`` turn the outcomes into the
metrics named in ``BENCHMARK.json``. A workload with a ``draw`` first
answers and gates a fixed number of seeded inputs (``draw``); the timed
loop then cycles through the inputs answered correctly there, and the
draw's failures are reported as counts and as the answered share.
"""

from __future__ import annotations

import itertools
import resource
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from time import perf_counter, process_time

import numpy as np

from perfbench.trace import ROOT, SPAN_NAMES, Tracer
from perfbench.workloads import SCAN_GRID

CHECK_FAILED = "check-failed"
CRASH = "exception"  # raised, but not a CircleQuadError
# error conditions of circlequad.errors, plus the benchmark's own two
CONDITIONS = [
    "measure-not-positive-definite", "insufficient-moments", "invalid-parameter",
    "degree-error", "domain-error", "internal-consistency", "boundary-degenerate",
    "not-invariant", "not-representable", "no-solution", "condition-violation",
    "rank-deficiency", "nodes-not-quadrature", "positivity-violation",
    "file-format", "error", CHECK_FAILED, CRASH,
]
SCAN_LABELS = ["positive", "inadmissible-schur", "simple-nodes-nonpositive-weights",
               "boundary-degenerate"]


@dataclass(slots=True)
class Outcome:
    """One operation: its input, its output (kept only for answers the gates
    will check), its error condition when it raised, and its times on the
    CPU clock and on the wall clock."""

    inp: dict
    out: object
    condition: str | None
    cpu: float
    wall: float


def measure(cq, workload, inputs, seconds, max_ops=None, tracer=None, keep_all=False,
            clock=process_time):
    """Run operations from ``inputs`` until their wall time sums to ``seconds``
    (at least one; a next operation is skipped when the last one's time
    says it would overrun) or until ``max_ops`` have run.

    Outputs are kept only for answers the gates will check (all of them
    with ``keep_all``), so memory does not grow with the number of
    operations a run fits in.
    """
    outcomes, spent, kept = [], 0.0, 0
    run = tracer.wrap(ROOT, workload.run) if tracer else workload.run
    for inp in inputs:
        out, condition = None, None
        w0, c0 = perf_counter(), clock()
        try:
            out = run(cq, inp)
        except cq.CircleQuadError as exc:
            condition = exc.condition
        except Exception:  # count the crash as a failure and keep measuring
            condition = CRASH
            traceback.print_exc(file=sys.stderr)
        cpu, wall = clock() - c0, perf_counter() - w0
        if condition is None and (keep_all or workload.audit_all
                                  or (inp.get("audit") and kept < workload.audit_max)):
            kept += 1
        else:
            out = None
        outcomes.append(Outcome(inp, out, condition, cpu, wall))
        spent += wall
        if max_ops is not None and len(outcomes) >= max_ops:
            break
        if max_ops is None and spent + wall > seconds:
            break
    return outcomes


def audit(cq, workload, outcomes, show=5) -> dict:
    """Apply the workload's gates; a failed gate turns the answer into a
    failure with the ``check-failed`` condition. The first ``show``
    failures are printed to standard error."""
    worst, checked, wrong = 0.0, 0, 0
    for outcome in outcomes:
        if outcome.condition is not None or outcome.out is None:
            continue
        checked += 1
        try:
            problems, ratio = workload.check(cq, outcome.inp, outcome.out)
        except cq.CircleQuadError as exc:
            problems, ratio = [f"check raised {exc.condition}: {exc}"], 0.0
        worst = max(worst, ratio)
        if problems:
            outcome.condition = CHECK_FAILED
            wrong += 1
            if wrong <= show:
                print(f"check failed on {outcome.inp}: {problems}", file=sys.stderr)
    return {"checked": checked, "wrong": wrong, "resid_ratio_max": worst}


NO_DRAW = ([], {"checked": 0, "wrong": 0, "resid_ratio_max": 0.0})


def draw(cq, workload, seed):
    """Answer and gate the workload's first ``draw`` seeded inputs, untimed.

    Returns a function that starts a fresh stream of the inputs to time,
    which cycles through the inputs the draw answered correctly, and the
    draw's outcomes and gate summary. A workload without a draw times its
    seeded inputs directly. Each answer is gated as soon as it is made and
    then dropped, so the draw holds no outputs.
    """
    if not workload.draw:
        return (lambda: workload.inputs(seed)), NO_DRAW
    outcomes, checked, wrong, worst = [], 0, 0, 0.0
    for inp in itertools.islice(workload.inputs(seed), workload.draw):
        outcome = measure(cq, workload, [inp], float("inf"), keep_all=True)
        gates = audit(cq, workload, outcome, show=5 - wrong)
        checked, wrong = checked + gates["checked"], wrong + gates["wrong"]
        worst = max(worst, gates["resid_ratio_max"])
        outcome[0].out = None
        outcomes += outcome
    pool = [o.inp for o in outcomes
            if o.condition is None or o.condition in workload.verdicts]
    if not pool:
        raise SystemExit(f"no input of the {workload.name} draw was answered")
    gates = {"checked": checked, "wrong": wrong, "resid_ratio_max": worst}
    return (lambda: itertools.cycle(pool)), (outcomes, gates)


def failures(workload, outcomes) -> Counter:
    return Counter(o.condition for o in outcomes
                   if o.condition is not None and o.condition not in workload.verdicts)


def is_correct(workload, outcomes, drawn=NO_DRAW) -> bool:
    """No timed operation failed, and nothing in the draw crashed. The
    draw's other failures are the program's known limits: counted, not
    fatal."""
    return not failures(workload, outcomes) and not failures(workload, drawn[0])[CRASH]


def answered_share(workload, outcomes, gates) -> float:
    """Share of attempts answered correctly. Answers outside the audit
    sample are taken to fail the gates at the sample's rate."""
    raised = sum(1 for o in outcomes if o.condition not in (None, CHECK_FAILED)
                 and o.condition not in workload.verdicts)
    answered = len(outcomes) - raised
    wrong_share = gates["wrong"] / gates["checked"] if gates["checked"] else 0.0
    return answered * (1.0 - wrong_share) / len(outcomes)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def tail_percentile(samples) -> float:
    """The highest of the 99th, 90th and 50th percentiles that has at least
    ten samples beyond it; the median when there are fewer than 20."""
    for pct, needed in ((99, 1000), (90, 100)):
        if len(samples) >= needed:
            return float(np.percentile(samples, pct))
    return float(np.percentile(samples, 50))


def end_to_end(workload, outcomes, gates, setup_s: float, rss_mb: float,
               drawn=NO_DRAW) -> dict:
    """``answered_ratio`` is taken over the draw when the workload has one,
    and over the timed operations otherwise."""
    share = answered_share(workload, outcomes, gates)
    answered = [o.cpu for o in outcomes
                if o.condition is None or o.condition in workload.verdicts]
    lat = np.array(answered or [o.cpu for o in outcomes]) * 1e3
    total = sum(o.cpu for o in outcomes)
    values = {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "answered_ratio": (1.0 - sum(failures(workload, drawn[0]).values()) / len(drawn[0])
                           if drawn[0] else share, "ratio"),
        "op_p50_ms": (float(np.percentile(lat, 50)), "ms"),
        "op_tail_ms": (tail_percentile(lat), "ms"),
        "ops_per_s": (share * len(outcomes) / total, "1/s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def per_layer(workload, outcomes, gates, tracer: Tracer, untraced_s: float,
              drawn=NO_DRAW) -> dict:
    """Per-operation calls and self time of each traced layer, plus the
    counts and ratios measured at the same boundaries. Failure counts and
    gate figures cover the draw and the traced operations together; the
    verdict count covers the draw when there is one."""
    ops = len(outcomes)
    summary = tracer.summarise()
    values = {}
    for name in SPAN_NAMES:
        calls, self_s, _ = summary.get(name, (0, 0.0, 0.0))
        values[f"{name}.calls"] = (calls / ops, "count/op")
        values[f"{name}.self_s"] = (self_s / ops, "s/op")
    counts = tracer.counts
    values["kernels.szego_eval.point_steps"] = (
        counts["kernels.szego_eval.point_steps"] / ops, "count/op")
    prescriptions = sum(summary.get(f"prescribe.{fn}", (0,))[0]
                        for fn in ("prescribe_2l", "prescribe_2lp1"))
    values["prescribe.admissible_ratio"] = (
        counts["prescribe.admissible"] / prescriptions if prescriptions else 0.0, "ratio")

    scans = [o.out for o in outcomes if o.condition is None and hasattr(o.out, "labels")]
    labels = Counter(lab for scan in scans for lab in scan.labels)
    for lab in SCAN_LABELS:
        values[f"scan.share.{lab}"] = (
            labels[lab] / sum(labels.values()) if labels else 0.0, "ratio")
    # each label evaluation of a scan runs one prescribe_2l directly under it
    scan_spans = {i for i, s in enumerate(tracer.spans) if s[0] == "quadrature.scan_tau"}
    evals = sum(1 for s in tracer.spans
                if s[0] == "prescribe.prescribe_2l" and s[3] in scan_spans)
    values["scan.refine_evals"] = (
        (evals - SCAN_GRID * len(scan_spans)) / len(scan_spans) if scan_spans else 0.0,
        "count/op")

    fails = failures(workload, outcomes) + failures(workload, drawn[0])
    for cond in CONDITIONS:
        values[f"fail.{cond}"] = (fails.pop(cond, 0), "count")
    values["fail.other"] = (sum(fails.values()), "count")
    values["verdict.no-solution"] = (
        sum(o.condition == "no-solution" for o in drawn[0] or outcomes), "count")
    both = {k: gates[k] + drawn[1][k] for k in ("checked", "wrong")}
    values["quadrature.resid_ratio_max"] = (
        max(gates["resid_ratio_max"], drawn[1]["resid_ratio_max"]), "ratio")
    values["check.audited"] = (both["checked"], "count")
    values["check.failed_share"] = (
        both["wrong"] / both["checked"] if both["checked"] else 0.0, "ratio")

    _, glue_s, wall_s = summary.get(ROOT, (0, 0.0, 0.0))
    values["trace.ops"] = (ops, "count")
    values["trace.wall_s"] = (wall_s, "s")
    values["trace.glue_self_s"] = (glue_s / ops, "s/op")
    values["trace.listed_share"] = ((wall_s - glue_s) / wall_s, "ratio")
    values["trace.overhead_ratio"] = (wall_s / untraced_s - 1.0, "ratio")
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
