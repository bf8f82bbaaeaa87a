"""The benchmark's traced mode, run end to end on its quickest workloads."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _reject_constant(token):
    raise ValueError(f"not strict JSON: {token}")


def _traced_result(workload: str) -> dict:
    # the traced mode wraps search and fidelity functions by name; a target
    # whose call pattern changes must still leave a run that ends in its one
    # strict-JSON result line, with nothing printed after it
    run = subprocess.run(
        [
            sys.executable,
            str(ROOT / "bench" / "run.py"),
            "--workload", workload,
            "--seed", "1",
            "--seconds", "0",
            "--trace", "1",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    result = json.loads(run.stdout.splitlines()[-1], parse_constant=_reject_constant)
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0
    # the tracer leaves out the metrics of a target the package no longer
    # defines, so a dropped target shows here as a missing name
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert sorted(result["metrics"]) == sorted(metric["name"] for metric in declared)
    return result


def test_traced_bench_run_ends_in_its_result_line():
    # find_mns runs each dims pair's restarts through the wrapped
    # bfgs_maximize, so the restart span has a duration
    result = _traced_result("collective_dfs")
    assert result["metrics"]["search.iterations"]["value"] > 0
    assert result["metrics"]["search.restart.s.d8"]["value"] > 0


def test_traced_fidelity_sweep_run_ends_in_its_result_line():
    # the sweep scores each model through the wrapped worst_case_fidelity;
    # on a Hermitian model it does not call the wrapped evolve, whose
    # metrics read 0 calls
    result = _traced_result("fidelity_sweep")
    metrics = result["metrics"]
    assert metrics["search.iterations"]["value"] > 0
    assert metrics["search.restart.s.d8"]["value"] > 0
    assert metrics["fidelity.worst_case.calls"]["value"] >= 1
    assert metrics["fidelity.self.s"]["value"] > 0


def test_traced_local_dephasing_run_ends_in_its_result_line():
    # no DFS exists, so the search runs to its stop rules on a flat landscape
    # with tolerances below f's rounding; both dims pairs are searched
    result = _traced_result("local_dephasing")
    assert result["metrics"]["search.iterations"]["value"] > 0
