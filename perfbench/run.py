"""End-to-end benchmark of circlequad.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload scan --seed 0 --seconds 30 --trace 0

Workloads: ``scan``, ``rules-large``, ``prescribe-mix`` (see
``perfbench/workloads.py`` for what each one stresses and why), or ``all``
to run the three in turn. Each workload runs in one process as a closed
loop with one client; BLAS is held to one thread.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reports the
per-layer metrics of a traced pass over the operations of an untraced
pass, and the tracing overhead between the two. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
run environment and a readable summary.

The package is imported from ``src/`` next to this directory; without it
the run stops with exit code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import process_time

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

# the keys of perfbench.workloads.WORKLOADS, listed here so that a set-up
# probe imports numpy only inside its timed region
WORKLOAD_NAMES = ["scan", "rules-large", "prescribe-mix"]
SETUP_PROBES = 11
SETUP_KERNELS = 15


def probe_setup(name: str) -> None:
    """Child process: time the import of circlequad plus the workload's
    first, untimed operation, and print the CPU seconds, scaled to the
    reference host speed by the calibration kernel run right after."""
    t0 = process_time()
    import circlequad as cq

    from perfbench.workloads import WORKLOADS

    WORKLOADS[name].warmup(cq)
    cpu = process_time() - t0
    from perfbench.clock import REF_S, kernel_seconds

    print(repr(cpu * REF_S / statistics.median(kernel_seconds(SETUP_KERNELS))))


def setup_seconds(name: str) -> float:
    """Median set-up time over fresh processes, run one after another."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--probe-setup", name],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            raise SystemExit(f"set-up probe for {name} failed")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def environment(cq) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "using_numba": cq.using_numba(),
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import circlequad as cq

    from perfbench import bench
    from perfbench.clock import RefClock
    from perfbench.trace import Tracer
    from perfbench.workloads import WORKLOADS

    workload = WORKLOADS[name]
    print("env " + json.dumps(environment(cq)))
    setup_s = None if trace else setup_seconds(name)
    workload.warmup(cq)
    inputs, drawn = bench.draw(cq, workload, seed)
    if drawn[0]:
        drawn_failed = sum(bench.failures(workload, drawn[0]).values())
        print(f"draw: {len(drawn[0])} requests answered and gated before timing, "
              f"{drawn_failed} failed; the timed loop cycles through the rest")
    if trace:
        plain = bench.measure(cq, workload, inputs(), seconds / 2)
        untraced_s = sum(o.wall for o in plain)
        tracer = Tracer()
        with tracer:
            outcomes = bench.measure(cq, workload, inputs(), seconds,
                                     max_ops=len(plain), tracer=tracer)
    else:
        with RefClock() if workload.ref_clock else contextlib.nullcontext() as clock:
            outcomes = bench.measure(cq, workload, inputs(), seconds,
                                     clock=clock.now if clock else process_time)
        rss = bench.peak_rss_mb()
    gates = bench.audit(cq, workload, outcomes)
    if trace:
        metrics = bench.per_layer(workload, outcomes, gates, tracer, untraced_s, drawn)
    else:
        metrics = bench.end_to_end(workload, outcomes, gates, setup_s, rss, drawn)
    failed = sum(bench.failures(workload, outcomes).values())
    cpu, wall = sum(o.cpu for o in outcomes), sum(o.wall for o in outcomes)
    print(f"workload {name}: seed {seed}, {len(outcomes)} operations in {cpu:.2f} s CPU clock "
          f"and {wall:.2f} s wall, {failed} failed, {gates['checked']} checked by the gates")
    for key, metric in metrics.items():
        print(f"  {key:48s} {metric['value']:.6g} {metric['unit']}")
    return {
        "correct": bench.is_correct(workload, outcomes, drawn),
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", choices=WORKLOAD_NAMES, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe_setup:
        probe_setup(args.probe_setup)
        return 0
    try:
        import circlequad  # noqa: F401
    except ImportError as exc:
        print(f"cannot import circlequad from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        for name in WORKLOAD_NAMES:
            done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                   "--workload", name, "--seed", str(args.seed),
                                   "--seconds", str(args.seconds), "--trace", str(args.trace)])
            if done.returncode != 0:
                return done.returncode
        return 0
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
