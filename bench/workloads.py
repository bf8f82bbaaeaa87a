"""The three benchmark workloads, taken from the paper's examples.

Each workload writes its input configs once (``prepare``).  A round runs
every operation's commands through the package's public entry points
(``run``, the timed part), then checks the files those commands wrote
against ``reference`` (``check``, untimed).  An operation is one
candidate-dims search or one sweep together with its checks.

Inputs come from ``--seed`` where that keeps the work per round steady; the
other searches keep the bundled configs' fixed seed.  The README gives the
reasons next to each workload.
"""

from __future__ import annotations

import json
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import reference as ref
from reference import Check

# Checks that fail on every run because of a known fault in the program.  An
# operation whose only failed checks are listed here counts as failed but does
# not make the run incorrect; any other failed check does.
KNOWN_FAULTS = {
    # bfgs_maximize stops on the J-improvement rule and reports convergence
    # with |grad J| above gradient_tolerance, so the (2,1) subspace is
    # resolved to ~6e-5 only.
    ("local_dephasing", "search_2x1"): {"subspace_resolution"},
    # mns.fidelity.decode sums the H2 block over all index pairs
    # ("iajb->ij") instead of tracing it out, so every fidelity of an n2 = 2
    # encoding is off once t > 0.
    ("fidelity_sweep", "sweep"): {"matches_reference", "not_above_reference"},
}


@dataclass
class Op:
    name: str
    checks: list[Check] = field(default_factory=list)
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None or not all(c.ok for c in self.checks)

    def known_fault(self, workload: str) -> bool:
        bad = {c.name for c in self.checks if not c.ok}
        return self.error is None and bool(bad) and bad <= KNOWN_FAULTS.get((workload, self.name), set())


def _attempt(fn) -> tuple[object, str | None]:
    """(result, None), or (None, traceback) if ``fn`` raised: a command or
    check that raises is reported as a failed operation, not a crash."""
    try:
        return fn(), None
    except Exception:
        return None, traceback.format_exc(limit=3)


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


def _write_json(path: Path, payload: dict) -> Path:
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


class Workload:
    name = ""
    min_rounds = 1
    operations: tuple[str, ...] = ()

    def __init__(self, root: Path, seed: int, out_dir: Path):
        self.root, self.seed, self.out_dir = root, seed, out_dir
        self.configs: dict[str, Path] = {}
        self.rng = np.random.default_rng(seed)

    def bundled_config(self, name: str) -> dict:
        return _read_json(self.root / "configs" / name)

    def prepare(self) -> None:
        """Write one input config per operation into ``out_dir``."""
        raise NotImplementedError

    def command(self, op: str, out: Path):
        """Run one operation's commands, writing into ``out``.  Entry points
        are imported on each call so that a tracer's wrappers, installed
        between rounds, are the functions called."""
        raise NotImplementedError

    def verify(self, op: str, result, out: Path) -> list[Check]:
        """Check what one operation's commands returned and wrote."""
        raise NotImplementedError

    def run(self, round_dir: Path) -> dict[str, tuple[object, str | None]]:
        return {op: _attempt(lambda: self.command(op, round_dir / op)) for op in self.operations}

    def check(self, outcomes: dict[str, tuple[object, str | None]], round_dir: Path) -> list[Op]:
        ops = []
        for name, (result, error) in outcomes.items():
            checks = None
            if error is None:
                checks, error = _attempt(lambda: self.verify(name, result, round_dir / name))
            ops.append(Op(name, checks or [], error))
        return ops


class CollectiveDfs(Workload):
    """find-mns then verify-dfs on collective x+z noise, 3 and 4 qubits."""

    name = "collective_dfs"
    operations = ("search_3q_2x2", "search_4q_2x1")
    shapes = {"search_3q_2x2": (3, 2, 2), "search_4q_2x1": (4, 2, 1)}  # qubits, n1, n2

    def prepare(self) -> None:
        self.models = {}
        for op, (n_qubits, n1, n2) in self.shapes.items():
            cfg = self.bundled_config("collective_xz_n3.json")
            cfg["model"]["n_qubits"] = n_qubits
            cfg["search"].update(candidate_dims=[[n1, n2]], num_restarts=2 if n_qubits == 3 else 1)
            self.configs[op] = _write_json(self.out_dir / f"collective_xz_n{n_qubits}.json", cfg)
            self.models[op] = cfg["model"]

    def command(self, op: str, out: Path):
        from mns.experiments import cmd_find_mns, cmd_verify_dfs, load_config

        _, n1, n2 = self.shapes[op]
        config = load_config(self.configs[op])
        cmd_find_mns(config, out)
        return cmd_verify_dfs(config, out / f"encoding_{n1}x{n2}.json")

    def verify(self, op: str, verdict: dict, out: Path) -> list[Check]:
        n_qubits, n1, n2 = self.shapes[op]
        terms = ref.model_terms(self.models[op])
        kraus = ref.first_order_kraus(terms, ref.default_step(terms))
        result = _read_json(out / "result.json")["results"][0]
        u = ref.encoding_unitary(_read_json(out / f"encoding_{n1}x{n2}.json"))
        sector = ref.spin_sector_projector(n_qubits, 0.5 if n_qubits % 2 else 0.0)
        return ref.check_dfs_encoding(kraus, u, n1, n2, sector, result["j_opt"], self.rng) + [
            Check("reported_dfs", bool(result["is_dfs"]), float(result["is_dfs"]), "is_dfs true"),
            Check("verifier_passes", verdict["passed"] and verdict["max_defect"] <= 1e-8,
                  verdict["max_defect"], "verify-dfs PASS, defect <= 1e-8"),
        ]


class LocalDephasing(Workload):
    """find-mns for subspaces under collective plus weak local dephasing."""

    name = "local_dephasing"
    operations = ("search_2x1", "search_3x1")
    n1 = {"search_2x1": 2, "search_3x1": 3}

    def prepare(self) -> None:
        for op, n1 in self.n1.items():
            cfg = self.bundled_config("sz_local_dephasing_n3.json")
            if n1 == 2:
                # The config's seed 1 and its first 9 restarts: restart 8 is
                # the first to reach the global optimum's basin.
                cfg["search"].update(candidate_dims=[[2, 1]], num_restarts=9)
            else:
                cfg["search"].update(candidate_dims=[[3, 1]], num_restarts=4, seed=self.seed)
            self.configs[op] = _write_json(self.out_dir / f"sz_local_dephasing_{n1}x1.json", cfg)
            self.model = cfg["model"]

    def command(self, op: str, out: Path):
        from mns.experiments import cmd_find_mns, load_config

        return cmd_find_mns(load_config(self.configs[op]), out)

    def verify(self, op: str, payload: dict, out: Path) -> list[Check]:
        n1 = self.n1[op]
        terms = ref.model_terms(self.model)
        kraus = ref.first_order_kraus(terms, ref.default_step(terms))
        result = _read_json(out / "result.json")["results"][0]
        u = ref.encoding_unitary(_read_json(out / f"encoding_{n1}x1.json"))
        return ref.check_diagonal_optimum(kraus, u, n1, result["j_opt"])


class FidelitySweep(Workload):
    """fidelity-sweep over evolution time for a symmetry-breaking collective
    perturbation: one search, then evolve + worst-case fidelity per time."""

    name = "fidelity_sweep"
    min_rounds = 2  # the second sweep must write the first one's CSV bytes
    operations = ("sweep",)
    n_times = 21

    def prepare(self) -> None:
        cfg = self.bundled_config("perturbed_global_tf_sweep.json")
        cfg["model"]["delta"] = 0.1
        cfg["search"].update(num_restarts=2)
        inner = np.sort(self.rng.uniform(0.0, 1.0, self.n_times - 2))
        cfg["sweep"] = {"mode": "tf", "grid": [0.0, *inner.tolist(), 1.0], "delta": 0.1}
        self.configs["sweep"] = _write_json(self.out_dir / "perturbed_global_tf.json", cfg)
        self.model = cfg["model"]
        self.first_csv: bytes | None = None

    def command(self, op: str, out: Path):
        from mns.experiments import cmd_fidelity_sweep, load_config

        return cmd_fidelity_sweep(load_config(self.configs[op]), out)

    def verify(self, op: str, payload: dict, out: Path) -> list[Check]:
        raw = (out / "sweep.csv").read_bytes()
        rows = np.array([line.split(",")[:3] for line in raw.decode().splitlines()[1:]], dtype=float)
        times, fi_mns, fi_dfs = rows.T
        iso_mns = ref.encoding_unitary(_read_json(out / "result.json")["points"][-1]["mns_params"])[:4]
        isometries = (iso_mns, ref.dfs_isometry_3q())
        terms = ref.model_terms(self.model)
        at = range(5, len(times), 5)  # t = 1 is always among them
        reference = {i: ref.reference_fidelities(terms, times[i], isometries, 2) for i in at}
        checks = ref.check_sweep(times, fi_mns, fi_dfs, reference)
        if self.first_csv is None:
            self.first_csv = raw
        else:
            checks.append(Check("csv_identical", raw == self.first_csv, float(raw != self.first_csv),
                                "byte-identical to the run's first sweep"))
        return checks


WORKLOADS = {w.name: w for w in (CollectiveDfs, LocalDephasing, FidelitySweep)}
