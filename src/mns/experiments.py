"""Experiment configuration, runners, and result serialization.

A config is a JSON document with two or three sections::

    {
      "model":  {"kind": "...", "n_qubits": 3, ...rates...},
      "search": {"candidate_dims": [[2, 2]], "num_restarts": 20, "seed": 1,
                 "dt": null, ...tolerances...},
      "sweep":  {"mode": "delta", "grid": [...], "t_f": 1.0, "delta": 0.1}
    }

Model kinds: ``collective_xz``, ``collective_z_local_dephasing``,
``perturbed_collective_global``, ``perturbed_collective_local``.  The sweep
section is only consumed by ``fidelity-sweep``.  Identical config + seed
reproduces results bit for bit; the CSV emitted for sweeps is byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .fidelity import fidelity_sweep
from .noise import (
    KrausChannel,
    LindbladModel,
    collective_dfs_encoding,
    collective_xz,
    collective_z_with_local_dephasing,
    default_dt,
    dfs_check,
    lindblad_to_kraus,
    perturbed_collective,
    random_perturbation_unitary,
)
from .parametrization import UnitaryParams, realize
from .search import SearchConfig, SearchResult, find_mns

__all__ = [
    "ModelSpec",
    "SearchSpec",
    "SweepSpec",
    "ExperimentConfig",
    "parse_config",
    "load_config",
    "config_to_dict",
    "config_hash",
    "build_model",
    "build_channel",
    "cmd_find_mns",
    "cmd_verify_dfs",
    "cmd_fidelity_sweep",
    "cmd_show_result",
    "load_encoding",
    "format_float",
]

# the model fields each kind reads, besides kind and n_qubits
MODEL_FIELDS = {
    "collective_xz": ("gamma_x", "gamma_z"),
    "collective_z_local_dephasing": ("gamma_z", "delta", "local_rates"),
    "perturbed_collective_global": ("gamma_1", "gamma_2", "delta", "perturbation_seed"),
    "perturbed_collective_local": ("gamma_1", "gamma_2", "delta", "perturbation_seed"),
}
MODEL_KINDS = tuple(MODEL_FIELDS)


@dataclass(frozen=True)
class ModelSpec:
    kind: str
    n_qubits: int
    gamma_x: float = 1.0
    gamma_z: float = 1.0
    gamma_1: float = 1.0
    gamma_2: float = 1.0
    delta: float = 0.0
    local_rates: tuple[float, ...] = ()
    perturbation_seed: int = 0


@dataclass(frozen=True)
class SearchSpec:
    candidate_dims: tuple[tuple[int, int], ...]
    num_restarts: int = 20
    max_iterations: int = 2000
    gradient_tolerance: float = 1e-8
    objective_tolerance: float = 1e-12
    seed: int = 0
    dt: float | None = None

    def to_search_config(self) -> SearchConfig:
        return SearchConfig(
            max_iterations=self.max_iterations,
            gradient_tolerance=self.gradient_tolerance,
            objective_tolerance=self.objective_tolerance,
            num_restarts=self.num_restarts,
            seed=self.seed,
            candidate_dims=self.candidate_dims,
        )


@dataclass(frozen=True)
class SweepSpec:
    mode: str
    grid: tuple[float, ...]
    t_f: float = 1.0
    delta: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    search: SearchSpec
    sweep: SweepSpec | None = None


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required field '{path}.{key}'")
    return mapping[key]


def _number(value, path: str, minimum=None) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{path}' must be a number, got {value!r}")
    value = float(value)
    if minimum is not None and value < minimum:
        raise ConfigError(f"field '{path}' must be >= {minimum}, got {value}")
    return value


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{path}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field '{path}' must be >= {minimum}, got {value}")
    return value


def _reject_unknown(mapping: dict, known, section: str) -> None:
    """A key the parser does not read is an error, so a misspelt one cannot
    run on the defaults."""
    unknown = sorted(set(mapping) - set(known))
    if unknown:
        raise ConfigError(f"unknown field(s) in {section}: {', '.join(map(repr, unknown))}")


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config; errors name the offending field."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")

    model_raw = _require(raw, "model", "$")
    if not isinstance(model_raw, dict):
        raise ConfigError("field 'model' must be an object")
    kind = _require(model_raw, "kind", "model")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {kind!r}")
    n_qubits = _integer(_require(model_raw, "n_qubits", "model"), "model.n_qubits", 1)
    known = ("kind", "n_qubits", *MODEL_FIELDS[kind])
    _reject_unknown(model_raw, known, f"'model' (kind {kind!r})")

    kwargs: dict = {"kind": kind, "n_qubits": n_qubits}
    if kind == "collective_xz":
        kwargs["gamma_x"] = _number(model_raw.get("gamma_x", 1.0), "model.gamma_x", 0.0)
        kwargs["gamma_z"] = _number(model_raw.get("gamma_z", 1.0), "model.gamma_z", 0.0)
    elif kind == "collective_z_local_dephasing":
        kwargs["gamma_z"] = _number(model_raw.get("gamma_z", 1.0), "model.gamma_z", 0.0)
        kwargs["delta"] = _number(model_raw.get("delta", 0.0), "model.delta", 0.0)
        rates = _require(model_raw, "local_rates", "model")
        if not isinstance(rates, list) or len(rates) != n_qubits:
            raise ConfigError(
                f"model.local_rates must be a list of {n_qubits} rates"
            )
        kwargs["local_rates"] = tuple(
            _number(r, f"model.local_rates[{i}]", 0.0) for i, r in enumerate(rates)
        )
    else:  # perturbed_collective_{global,local}
        kwargs["gamma_1"] = _number(model_raw.get("gamma_1", 1.0), "model.gamma_1", 0.0)
        kwargs["gamma_2"] = _number(model_raw.get("gamma_2", 1.0), "model.gamma_2", 0.0)
        kwargs["delta"] = _number(model_raw.get("delta", 0.0), "model.delta", 0.0)
        kwargs["perturbation_seed"] = _integer(
            model_raw.get("perturbation_seed", 0), "model.perturbation_seed"
        )
    model = ModelSpec(**kwargs)

    search_raw = _require(raw, "search", "$")
    if not isinstance(search_raw, dict):
        raise ConfigError("field 'search' must be an object")
    _reject_unknown(search_raw, [f.name for f in fields(SearchSpec)], "'search'")
    dims_raw = _require(search_raw, "candidate_dims", "search")
    if (
        not isinstance(dims_raw, list)
        or not dims_raw
        or not all(isinstance(d, list) and len(d) == 2 for d in dims_raw)
    ):
        raise ConfigError("search.candidate_dims must be a non-empty list of [n1, n2] pairs")
    dims = tuple(
        (
            _integer(d[0], f"search.candidate_dims[{i}][0]", 1),
            _integer(d[1], f"search.candidate_dims[{i}][1]", 1),
        )
        for i, d in enumerate(dims_raw)
    )
    dt_raw = search_raw.get("dt")
    dt = None if dt_raw is None else _number(dt_raw, "search.dt")
    if dt is not None and dt <= 0:
        raise ConfigError(f"search.dt must be positive, got {dt}")
    search = SearchSpec(
        candidate_dims=dims,
        num_restarts=_integer(search_raw.get("num_restarts", 20), "search.num_restarts", 1),
        max_iterations=_integer(search_raw.get("max_iterations", 2000), "search.max_iterations", 1),
        gradient_tolerance=_number(
            search_raw.get("gradient_tolerance", 1e-8), "search.gradient_tolerance"
        ),
        objective_tolerance=_number(
            search_raw.get("objective_tolerance", 1e-12), "search.objective_tolerance"
        ),
        seed=_integer(search_raw.get("seed", 0), "search.seed"),
        dt=dt,
    )

    sweep = None
    if "sweep" in raw and raw["sweep"] is not None:
        sweep_raw = raw["sweep"]
        if not isinstance(sweep_raw, dict):
            raise ConfigError("field 'sweep' must be an object")
        _reject_unknown(sweep_raw, [f.name for f in fields(SweepSpec)], "'sweep'")
        mode = _require(sweep_raw, "mode", "sweep")
        if mode not in ("delta", "tf"):
            raise ConfigError(f"sweep.mode must be 'delta' or 'tf', got {mode!r}")
        grid_raw = _require(sweep_raw, "grid", "sweep")
        if isinstance(grid_raw, dict):
            start = _number(_require(grid_raw, "start", "sweep.grid"), "sweep.grid.start")
            stop = _number(_require(grid_raw, "stop", "sweep.grid"), "sweep.grid.stop")
            num = _integer(_require(grid_raw, "num", "sweep.grid"), "sweep.grid.num", 2)
            grid = tuple(np.linspace(start, stop, num).tolist())
        elif isinstance(grid_raw, list) and grid_raw:
            grid = tuple(_number(v, f"sweep.grid[{i}]") for i, v in enumerate(grid_raw))
        else:
            raise ConfigError("sweep.grid must be a list of values or {start, stop, num}")
        sweep = SweepSpec(
            mode=mode,
            grid=grid,
            t_f=_number(sweep_raw.get("t_f", 1.0), "sweep.t_f", 0.0),
            delta=_number(sweep_raw.get("delta", 0.1), "sweep.delta", 0.0),
        )

    return ExperimentConfig(model=model, search=search, sweep=sweep)


def load_config(path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file not found: {p}")
    return parse_config(p.read_text())


def config_to_dict(config: ExperimentConfig) -> dict:
    """Round-trippable plain-dict form: parse(json.dumps(...)) == config."""
    model = config.model
    model_d: dict = {"kind": model.kind, "n_qubits": model.n_qubits}
    if model.kind == "collective_xz":
        model_d.update(gamma_x=model.gamma_x, gamma_z=model.gamma_z)
    elif model.kind == "collective_z_local_dephasing":
        model_d.update(
            gamma_z=model.gamma_z, delta=model.delta, local_rates=list(model.local_rates)
        )
    else:
        model_d.update(
            gamma_1=model.gamma_1,
            gamma_2=model.gamma_2,
            delta=model.delta,
            perturbation_seed=model.perturbation_seed,
        )
    s = config.search
    search_d = {
        "candidate_dims": [list(d) for d in s.candidate_dims],
        "num_restarts": s.num_restarts,
        "max_iterations": s.max_iterations,
        "gradient_tolerance": s.gradient_tolerance,
        "objective_tolerance": s.objective_tolerance,
        "seed": s.seed,
        "dt": s.dt,
    }
    out = {"model": model_d, "search": search_d}
    if config.sweep is not None:
        out["sweep"] = {
            "mode": config.sweep.mode,
            "grid": list(config.sweep.grid),
            "t_f": config.sweep.t_f,
            "delta": config.sweep.delta,
        }
    return out


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_model(spec: ModelSpec, delta_override: float | None = None) -> LindbladModel:
    delta = spec.delta if delta_override is None else float(delta_override)
    if spec.kind == "collective_xz":
        return collective_xz(spec.n_qubits, spec.gamma_x, spec.gamma_z)
    if spec.kind == "collective_z_local_dephasing":
        return collective_z_with_local_dephasing(
            spec.n_qubits, spec.gamma_z, delta, spec.local_rates
        )
    mode = "global" if spec.kind == "perturbed_collective_global" else "local-tensor"
    v = random_perturbation_unitary(2**spec.n_qubits, delta, mode, spec.perturbation_seed)
    return perturbed_collective(spec.n_qubits, spec.gamma_1, spec.gamma_2, v)


def build_channel(config: ExperimentConfig, delta_override: float | None = None) -> KrausChannel:
    model = build_model(config.model, delta_override)
    dt = config.search.dt if config.search.dt is not None else default_dt(model)
    return lindblad_to_kraus(model, dt)


def format_float(x: float) -> str:
    """Fixed 15-significant-digit decimal form used in CSV and result files."""
    return f"{x:.14e}"


def _params_dict(params: UnitaryParams) -> dict:
    return {
        "dim": params.dim,
        "phases": [float(v) for v in params.phases],
        "angles": [float(v) for v in params.angles],
    }


def load_encoding(path) -> tuple[UnitaryParams, tuple[int, int]]:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"encoding file not found: {p}")
    try:
        raw = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"encoding file is not valid JSON: {exc}") from exc
    for key in ("dim", "n1", "n2", "phases", "angles"):
        if key not in raw:
            raise ConfigError(f"encoding file is missing field '{key}'")
    params = UnitaryParams(
        int(raw["dim"]),
        np.asarray(raw["phases"], dtype=float),
        np.asarray(raw["angles"], dtype=float),
    )
    return params, (int(raw["n1"]), int(raw["n2"]))


def _result_entry(dims: tuple[int, int], result: SearchResult) -> dict:
    return {
        "n1": dims[0],
        "n2": dims[1],
        "n3": result.dims[2],
        "j_opt": float(result.best_j),
        "is_dfs": bool(result.is_dfs),
        "best_restart": result.best_restart,
        "agreement_fraction": result.agreement_fraction,
        "params": _params_dict(result.best_params),
        "restarts": [
            {
                "index": rec.index,
                "seed": list(rec.seed),
                "final_j": float(rec.final_j),
                "iterations": rec.iterations,
                "converged": rec.converged,
                "degraded": rec.degraded,
                "stop_reason": rec.stop_reason,
                "gradient_norm": float(rec.gradient_norm),
            }
            for rec in result.per_restart
        ],
    }


def _write_result(out_dir: Path, payload: dict) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "result.json"
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def cmd_find_mns(config: ExperimentConfig, out_dir) -> dict:
    """Run the search and write result.json plus one replayable encoding file
    per candidate dimension pair."""
    out_dir = Path(out_dir)
    started = time.monotonic()
    channel = build_channel(config)
    results = find_mns(channel, config.search.to_search_config())
    entries = [_result_entry(dims, res) for dims, res in results.items()]
    out_dir.mkdir(parents=True, exist_ok=True)
    for dims, res in results.items():
        enc = _params_dict(res.best_params)
        enc.update(n1=dims[0], n2=dims[1])
        (out_dir / f"encoding_{dims[0]}x{dims[1]}.json").write_text(
            json.dumps(enc, indent=2) + "\n"
        )
    payload = {
        "command": "find-mns",
        "tool_version": __version__,
        "config": config_to_dict(config),
        "config_hash": config_hash(config),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": round(time.monotonic() - started, 3),
        "dt": channel.dt,
        "results": entries,
    }
    _write_result(out_dir, payload)
    for entry in entries:
        print(
            f"dims ({entry['n1']},{entry['n2']}): J_opt={format_float(entry['j_opt'])} "
            f"is_dfs={str(entry['is_dfs']).lower()} "
            f"agreement={entry['agreement_fraction']:.2f}"
        )
    print(f"result written to {out_dir / 'result.json'}")
    return payload


def cmd_verify_dfs(config: ExperimentConfig, encoding_path, threshold: float = 1e-8) -> dict:
    """Check the decoherence-free condition for a stored encoding."""
    params, (n1, n2) = load_encoding(encoding_path)
    channel = build_channel(config)
    if params.dim != channel.dim:
        raise ConfigError(
            f"encoding dim {params.dim} does not match model dim {channel.dim}"
        )
    ok, defect, per_op = dfs_check(channel, realize(params), n1, n2, threshold=threshold)
    for k, op_defect in enumerate(per_op):
        print(f"E[{k}]: commutation defect {op_defect:.3e}")
    verdict = "PASS" if ok else "FAIL"
    print(f"max defect {defect:.3e} vs threshold {threshold:.1e}: {verdict}")
    return {
        "per_operator": per_op,
        "max_defect": defect,
        "threshold": threshold,
        "passed": bool(ok),
    }


def cmd_fidelity_sweep(config: ExperimentConfig, out_dir) -> dict:
    """Run the sweep and write sweep.csv (byte-stable) and result.json."""
    if config.sweep is None:
        raise ConfigError("config has no 'sweep' section")
    if config.model.kind not in ("perturbed_collective_global", "perturbed_collective_local"):
        raise ConfigError(
            "fidelity sweeps compare against the collective-noise reference encoding "
            "and need a perturbed_collective_* model"
        )
    if config.model.n_qubits != 3:
        raise ConfigError("fidelity sweeps are defined for the 3-qubit benchmark")
    dims_list = config.search.candidate_dims
    if len(dims_list) != 1:
        raise ConfigError("fidelity sweeps need exactly one candidate dimension pair")
    dims = dims_list[0]
    if dims != (2, 2):
        raise ConfigError("the reference encoding is the (2, 2) subsystem; use dims [2, 2]")

    out_dir = Path(out_dir)
    started = time.monotonic()
    sweep = config.sweep
    u_dfs = collective_dfs_encoding(3)
    if sweep.mode == "delta":
        model_for = lambda value: build_model(config.model, delta_override=value)
    else:
        model_for = lambda _value: build_model(config.model, delta_override=sweep.delta)
    points = fidelity_sweep(
        model_for,
        sweep.grid,
        sweep.mode,
        u_dfs,
        dims,
        config.search.to_search_config(),
        t_f=sweep.t_f,
        dt=config.search.dt,
    )

    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "sweep.csv"
    lines = ["param,fi_mns,fi_dfs,J_opt,converged"]
    for pt in points:
        lines.append(
            ",".join(
                [
                    format_float(pt.param),
                    format_float(pt.fi_mns),
                    format_float(pt.fi_dfs),
                    format_float(pt.j_opt),
                    "true" if pt.converged else "false",
                ]
            )
        )
    csv_path.write_bytes(("\n".join(lines) + "\n").encode("utf-8"))

    payload = {
        "command": "fidelity-sweep",
        "tool_version": __version__,
        "config": config_to_dict(config),
        "config_hash": config_hash(config),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": round(time.monotonic() - started, 3),
        "csv": csv_path.name,
        "points": [
            {
                "param": pt.param,
                "fi_mns": pt.fi_mns,
                "fi_dfs": pt.fi_dfs,
                "j_opt": pt.j_opt,
                "converged": pt.converged,
                "mns_params": None if pt.mns_params is None else _params_dict(pt.mns_params),
                "error": pt.error,
            }
            for pt in points
        ],
    }
    _write_result(out_dir, payload)
    print(f"sweep written to {csv_path}")
    return payload


def cmd_show_result(path) -> dict:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"result file not found: {p}")
    try:
        payload = json.loads(p.read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"result file is not valid JSON: {exc}") from exc
    print(f"command:      {payload.get('command', '?')}")
    print(f"tool version: {payload.get('tool_version', '?')}")
    print(f"config hash:  {payload.get('config_hash', '?')}")
    print(f"created:      {payload.get('created_utc', '?')}")
    for entry in payload.get("results", []):
        print(
            f"  dims ({entry['n1']},{entry['n2']}): J_opt={format_float(entry['j_opt'])} "
            f"is_dfs={str(entry['is_dfs']).lower()} "
            f"agreement={entry.get('agreement_fraction', float('nan')):.2f}"
        )
        for rec in entry.get("restarts", []):
            print(
                f"    restart {rec['index']}: J={format_float(rec['final_j'])} "
                f"iterations={rec['iterations']} stop={rec.get('stop_reason', '?')} "
                f"|grad|={rec.get('gradient_norm', float('nan')):.3e}"
            )
    points = payload.get("points", [])
    if points:
        print(f"  sweep points: {len(points)}")
        for pt in points:
            print(
                f"    param={format_float(pt['param'])} "
                f"fi_mns={format_float(pt['fi_mns'])} fi_dfs={format_float(pt['fi_dfs'])}"
                + (f" error={pt['error']}" if pt.get("error") else "")
            )
    return payload
