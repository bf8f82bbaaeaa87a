"""Benchmark of the ``mns`` workflows: three workloads from the paper's
examples, timed end to end, with a traced mode that reports per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from anywhere inside a checkout; the package is imported from the
checkout's ``src/``.  Rounds of the workload repeat until ``--seconds`` would
be exceeded (at least one, two where the workload or the traced mode needs
them).  Every round's outputs are checked against ``reference.py``.

``--trace 0`` reports ``setup_s`` (median of fresh-interpreter set-ups),
``wall_s`` (median round time) and ``peak_rss_mb``.  ``--trace 1`` runs one
untraced round and then traced rounds, and reports the per-layer metrics
(median over traced rounds) and ``trace.overhead.s``.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  Outputs,
the run record and the span file go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import os
import sys

# One BLAS thread: load comes from this single process, and one thread gives
# the steadiest timings on a small shared machine.  Set before NumPy loads.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 5
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, read from its name (``layer.what.unit[.dN]``)."""
    if metric in END_TO_END_UNITS:
        return END_TO_END_UNITS[metric]
    if metric.endswith("_per_iter"):
        return "calls/iter"
    if metric == "search.agreement":
        return "fraction"
    return next((t for t in reversed(metric.split(".")) if t in ("us", "ms", "s")), "count")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def machine_info() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


def time_setup(config_paths) -> list[float]:
    """Wall time of fresh interpreters that import mns and build each channel."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), *map(str, config_paths)],
            cwd=ROOT, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


def status(op, workload_name: str) -> str:
    if not op.failed:
        return f"{op.name} ok"
    known = " (known fault)" if op.known_fault(workload_name) else ""
    return f"{op.name} FAILED{known}: " + (op.error or ", ".join(c.describe() for c in op.checks if not c.ok))


def run_rounds(workload, out_dir: Path, seconds: float, tracer):
    """Repeat rounds while another of the median round length fits in
    ``seconds`` (at least the workload's minimum; with a tracer, one untraced
    round and at least one traced one).  Returns the round records, every
    operation, and the span range of each traced round."""
    min_rounds = max(workload.min_rounds, 2 if tracer else 1)
    rounds, ops_all, traced = [], [], []
    started = time.perf_counter()
    while len(rounds) < min_rounds or (
        time.perf_counter() - started + statistics.median(r["wall_s"] for r in rounds) <= seconds
    ):
        use_tracer = tracer is not None and len(rounds) > 0
        if use_tracer:
            lo = tracer.mark()
            tracer.install()
        round_dir = out_dir / f"round{len(rounds)}"
        t0 = time.perf_counter()
        try:
            with open(out_dir / "commands.log", "a") as log, contextlib.redirect_stdout(log):
                outcomes = workload.run(round_dir)
        finally:
            wall = time.perf_counter() - t0
            if use_tracer:
                tracer.uninstall()
                traced.append((lo, tracer.mark()))
        ops = workload.check(outcomes, round_dir)
        ops_all += ops
        rounds.append({"wall_s": wall, "traced": use_tracer, "ops": [
            {"name": op.name, "failed": op.failed, "error": op.error,
             "checks": [c.describe() for c in op.checks]} for op in ops]})
        print(f"round {len(rounds) - 1}{' (traced)' if use_tracer else ''}: {wall:.3f} s; "
              + "; ".join(status(op, workload.name) for op in ops))
    return rounds, ops_all, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "mns" / "__init__.py").is_file():
        print(f"error: no mns package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import mns
    from tracing import Tracer, round_metrics
    from workloads import WORKLOADS

    if not Path(mns.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"error: mns imported from {mns.__file__}, not this checkout", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    out_dir = HERE / "out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    workload = WORKLOADS[args.workload](ROOT, args.seed, out_dir)
    workload.prepare()
    info = machine_info()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          + ", ".join(f"{k} {v}" for k, v in info.items()))

    setup = [] if args.trace else time_setup(workload.configs.values())
    tracer = Tracer() if args.trace else None
    rounds, ops_all, traced = run_rounds(workload, out_dir, args.seconds, tracer)

    walls = [r["wall_s"] for r in rounds if not r["traced"]]
    if args.trace:
        per_round = [round_metrics(tracer, lo, hi) for lo, hi in traced]
        values = {k: statistics.median(m[k] for m in per_round) for k in per_round[0]}
        values["trace.overhead.s"] = (
            statistics.median(r["wall_s"] for r in rounds if r["traced"]) - statistics.median(walls)
        )
        tracer.write(out_dir / "spans.csv", traced)
    else:
        values = {"setup_s": statistics.median(setup), "wall_s": statistics.median(walls),
                  "peak_rss_mb": peak_rss_mb()}
    metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    failed = sum(op.failed for op in ops_all)
    correct = all(not op.failed or op.known_fault(workload.name) for op in ops_all)
    record = {"args": vars(args), "machine": info, "setup_s": setup, "rounds": rounds, "metrics": metrics}
    (out_dir / "run.json").write_text(json.dumps(record, indent=2) + "\n")
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": len(ops_all), "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
