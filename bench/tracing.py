"""Spans around the public functions of each ``mns`` layer, and the per-layer
metrics computed from them.

The wrappers live here, not in the package: ``Tracer.install`` replaces each
target function in every ``mns`` module namespace that holds it (the defining
module and every module that imported the name), and ``uninstall`` puts the
originals back.  Modules are reached through ``sys.modules``, because the
package attribute ``mns.objective`` is rebound to a function by
``mns/__init__.py``.  A target the package no longer defines is skipped, and
its metrics are left out of the report rather than reported as zero.

Spans are recorded from one thread; the benchmark runs the searches with
``threads=1``.
"""

from __future__ import annotations

import csv
import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

# (module, function) -> span name, grouped by layer.
TARGETS = {
    ("mns.parametrization", "realize"): "parametrization.realize",
    ("mns.parametrization", "realize_with_partials"): "parametrization.realize_with_partials",
    ("mns.objective", "objective_of_unitary"): "objective.value",
    ("mns.objective", "gradient_analytic"): "objective.gradient",
    ("mns.search", "bfgs_maximize"): "search.restart",
    ("mns.search", "find_mns"): "search.find_mns",
    ("mns.noise", "lindblad_to_kraus"): "noise.channel",
    ("mns.noise", "dfs_check"): "noise.dfs_check",
    ("mns.fidelity", "evolve"): "fidelity.evolve",
    ("mns.fidelity", "worst_case_fidelity"): "fidelity.worst_case",
    ("mns.fidelity", "fidelity_sweep"): "fidelity.sweep",
    ("mns.experiments", "load_config"): "experiments.load_config",
    ("mns.experiments", "cmd_find_mns"): "experiments.find_mns",
    ("mns.experiments", "cmd_verify_dfs"): "experiments.verify_dfs",
    ("mns.experiments", "cmd_fidelity_sweep"): "experiments.fidelity_sweep",
}

# Spans whose return value the metrics read (the restart records).
KEEP_RESULT = {"search.find_mns"}


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int
    dim: int | None
    result: object = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def _dim_of(args) -> int | None:
    if not args:
        return None
    first = args[0]
    dim = getattr(first, "dim", None)
    if isinstance(dim, int):
        return dim
    shape = getattr(first, "shape", None)
    return shape[0] if shape else None


@dataclass
class Tracer:
    spans: list[Span] = field(default_factory=list)
    installed: set[str] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _patched: list[tuple[object, str, object]] = field(default_factory=list)

    def _wrap(self, name: str, fn):
        spans, stack, keep = self.spans, self._stack, name in KEEP_RESULT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, _dim_of(args))
            spans.append(span)
            stack.append(idx)
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if keep:
                span.result = out
            return out

        return wrapper

    def install(self) -> None:
        package = [(n, m) for n, m in sys.modules.items() if m and (n == "mns" or n.startswith("mns."))]
        for (module_name, attr), name in TARGETS.items():
            original = getattr(sys.modules.get(module_name), attr, None)
            if original is None:
                continue
            wrapper = self._wrap(name, original)
            for _, module in package:
                if getattr(module, attr, None) is original:
                    setattr(module, attr, wrapper)
                    self._patched.append((module, attr, original))
            self.installed.add(name)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def mark(self) -> int:
        return len(self.spans)

    def write(self, path, rounds: list[tuple[int, int]]) -> None:
        """Write every span as CSV: index, round, name, start, end, parent, dim."""
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "round", "name", "start", "end", "parent", "dim"])
            for r, (lo, hi) in enumerate(rounds):
                for i in range(lo, hi):
                    s = self.spans[i]
                    out.writerow([i, r, s.name, f"{s.start:.9f}", f"{s.end:.9f}", s.parent, s.dim])


def _self_time(spans: list[Span], hi: int, idx: int, children_named=None) -> float:
    """Duration of span ``idx`` minus the time its (named) child spans cover."""
    covered = sum(
        s.duration
        for s in spans[idx + 1 : hi]
        if s.parent == idx and (children_named is None or s.name == children_named)
    )
    return spans[idx].duration - covered


def _ancestor_named(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def round_metrics(tracer: Tracer, lo: int, hi: int) -> dict[str, float]:
    """Per-layer metrics of the spans recorded in [lo, hi) (one round)."""
    spans = tracer.spans
    idx = range(lo, hi)
    out: dict[str, float] = {}

    def named(name):
        return [i for i in idx if spans[i].name == name]

    def median(name, scale, dim=None):
        vals = [spans[i].duration for i in named(name) if dim is None or spans[i].dim == dim]
        return statistics.median(vals) * scale if vals else 0.0

    have = tracer.installed.__contains__
    per_dim = (
        ("parametrization.realize", "us", 1e6),
        ("parametrization.realize_with_partials", "ms", 1e3),
        ("objective.value", "us", 1e6),
        ("objective.gradient", "ms", 1e3),
    )
    for name, unit, scale in per_dim:
        if have(name):
            out[f"{name}.calls"] = len(named(name))
            for dim in (8, 16):
                out[f"{name}.{unit}.d{dim}"] = median(name, scale, dim)
    if have("search.restart"):
        for dim in (8, 16):
            out[f"search.restart.s.d{dim}"] = median("search.restart", 1.0, dim)
    if have("search.find_mns"):
        searches = [i for i in named("search.find_mns") if spans[i].result is not None]
        records = [rec for i in searches for res in spans[i].result.values() for rec in res.per_restart]
        iterations = sum(rec.iterations for rec in records)
        out["search.iterations"] = iterations
        for key, name in (("search.f_per_iter", "objective.value"), ("search.g_per_iter", "objective.gradient")):
            if have(name) and have("search.restart"):
                inside = sum(1 for i in named(name) if _ancestor_named(spans, i, "search.restart"))
                out[key] = inside / iterations if iterations else 0.0
        agreeing = 0
        for i in searches:
            for res in spans[i].result.values():
                best = max(rec.final_j for rec in res.per_restart)
                agreeing += sum(rec.final_j >= best - 1e-6 for rec in res.per_restart)
        out["search.agreement"] = agreeing / len(records) if records else 0.0
        out["search.degraded_restarts"] = sum(rec.degraded for rec in records)
        out["search.polish.s"] = sum(_self_time(spans, hi, i, "search.restart") for i in searches)
    if have("noise.channel"):
        out["noise.channel.ms"] = median("noise.channel", 1e3)
    if have("noise.dfs_check"):
        out["noise.dfs_check.ms"] = median("noise.dfs_check", 1e3)
    for name, key in (("fidelity.evolve", "fidelity.evolve"), ("fidelity.worst_case", "fidelity.worst_case")):
        if have(name):
            out[f"{key}.calls"] = len(named(name))
            out[f"{key}.ms"] = median(name, 1e3)
    if have("fidelity.sweep"):
        out["fidelity.self.s"] = sum(_self_time(spans, hi, i) for i in named("fidelity.sweep"))
    experiments = [i for i in idx if spans[i].name.startswith("experiments.")]
    if experiments:
        out["experiments.self.s"] = sum(_self_time(spans, hi, i) for i in experiments)
    return out
