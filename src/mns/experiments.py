"""Experiment configuration, runners, and result serialization.

A config is a JSON document with two or three sections::

    {
      "model":  {"kind": "...", "n_qubits": 3, ...rates...},
      "search": {"candidate_dims": [[2, 2]], "num_restarts": 20, "seed": 1,
                 "dt": null, ...tolerances...},
      "sweep":  {"mode": "delta", "grid": [...], "t_f": 1.0}
    }

Model kinds: ``collective_xz``, ``collective_z_local_dephasing``,
``perturbed_collective_global``, ``perturbed_collective_local``; the last is
a local deformation of the collective S_x arm (the paper's symmetry-breaking
collective noise, not added local noise; ``noise.random_perturbation_unitary``).
The sweep section is only consumed by ``fidelity-sweep``.  ``MODEL_FIELDS``
and ``SWEEP_FIELDS`` list the fields each model kind and sweep mode reads, the
dataclasses hold each field's default and ``READERS`` its type and bound.
Identical config + seed reproduces results bit for bit; the CSV emitted for
sweeps is byte-stable.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, fields, replace
from datetime import datetime, timezone
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from .errors import ConfigError
from .fidelity import FidelityPoint, fidelity_sweep
from .noise import (
    DFS_THRESHOLD,
    KrausChannel,
    LindbladModel,
    collective_dfs_encoding,
    collective_xz,
    collective_z_with_local_dephasing,
    dfs_check,
    lindblad_to_kraus,
    perturbed_collective,
    random_perturbation_unitary,
)
from .parametrization import UnitaryParams, realize
from .search import SearchConfig, SearchResult, find_mns

__all__ = [
    "ModelSpec",
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
# the fields each sweep mode reads, besides mode: a "tf" sweep's grid values
# are the times, and it runs at the one amplitude sweep.delta
SWEEP_FIELDS = {"delta": ("grid", "t_f"), "tf": ("grid", "delta")}
SEARCH_FIELDS = tuple(f.name for f in fields(SearchConfig))
# the fields a config must state: their dataclasses give no usable default
REQUIRED = ("n_qubits", "local_rates", "candidate_dims", "grid")


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
class SweepSpec:
    mode: str
    grid: tuple[float, ...]
    t_f: float = 1.0
    delta: float = 0.1


@dataclass(frozen=True)
class ExperimentConfig:
    model: ModelSpec
    search: SearchConfig
    sweep: SweepSpec | None = None


def _require(mapping: dict, key: str, path: str):
    if key not in mapping:
        raise ConfigError(f"missing required field '{path}.{key}'")
    return mapping[key]


def _number(value, path: str, minimum=None, positive=False) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{path}' must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:  # an integer beyond the float range
        value = math.inf
    if not math.isfinite(value):  # json reads NaN and Infinity tokens
        raise ConfigError(f"field '{path}' must be a finite number, got {value}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field '{path}' must be >= {minimum}, got {value}")
    if positive and value <= 0:
        raise ConfigError(f"{path} must be positive, got {value}")
    return value


def _integer(value, path: str, minimum=None) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field '{path}' must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"field '{path}' must be >= {minimum}, got {value}")
    return value


def _rates(value, path: str) -> tuple[float, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"field '{path}' must be a list of rates, got {value!r}")
    return tuple(_rate(r, f"{path}[{i}]") for i, r in enumerate(value))


def _dims(value, path: str) -> tuple[tuple[int, int], ...]:
    pairs = isinstance(value, list) and all(isinstance(d, list) and len(d) == 2 for d in value)
    if not (pairs and value):
        raise ConfigError(f"{path} must be a non-empty list of [n1, n2] pairs")
    return tuple(
        (_integer(a, f"{path}[{i}][0]", 1), _integer(b, f"{path}[{i}][1]", 1))
        for i, (a, b) in enumerate(value)
    )


def _grid(value, path: str) -> tuple[float, ...]:
    if isinstance(value, dict):
        _reject_unknown(value, ("num", "start", "stop"), repr(path))
        start = _rate(_require(value, "start", path), f"{path}.start")
        stop = _rate(_require(value, "stop", path), f"{path}.stop")
        num = _integer(_require(value, "num", path), f"{path}.num", 2)
        return tuple(np.linspace(start, stop, num).tolist())
    if isinstance(value, list) and value:
        return tuple(_rate(v, f"{path}[{i}]") for i, v in enumerate(value))
    raise ConfigError(f"{path} must be a list of values or {{start, stop, num}}")


_count = partial(_integer, minimum=1)
_rate = partial(_number, minimum=0.0)
_positive = partial(_number, positive=True)
# each field's type and bound, by name; model.delta and sweep.delta share one
READERS = {
    **dict.fromkeys(("n_qubits", "num_restarts", "max_iterations"), _count),
    **dict.fromkeys(("perturbation_seed", "seed"), partial(_integer, minimum=0)),
    **dict.fromkeys(("gamma_x", "gamma_z", "gamma_1", "gamma_2", "delta", "t_f"), _rate),
    **dict.fromkeys(("gradient_tolerance", "objective_tolerance"), _positive),
    "dt": lambda value, path: None if value is None else _positive(value, path),
    "local_rates": _rates,
    "candidate_dims": _dims,
    "grid": _grid,
}


def _object(raw: dict, key: str) -> dict:
    value = _require(raw, key, "$")
    if not isinstance(value, dict):
        raise ConfigError(f"field '{key}' must be an object")
    return value


def _reject_unknown(raw: dict, known, label: str) -> None:
    """Raise if ``raw`` holds a key outside ``known``, so a misspelt or
    foreign one cannot run on the defaults."""
    unknown = sorted(set(raw) - set(known))
    if unknown:
        raise ConfigError(
            f"unknown field(s) in {label}: {', '.join(map(repr, unknown))}"
            f"; it reads {', '.join(map(repr, known))}"
        )


def _read_section(cls, raw: dict, section: str, names, label=None, **given):
    """``cls`` from ``given`` and each field of ``names`` through its reader;
    an absent field keeps its dataclass default and any other key is an
    error."""
    _reject_unknown(raw, (*given, *names), label or repr(section))
    read = {
        name: READERS[name](_require(raw, name, section), f"{section}.{name}")
        for name in names
        if name in raw or name in REQUIRED
    }
    return cls(**given, **read)


def _read(path, what: str) -> str:
    """The text of the file at ``path``; ``what`` names it in the error."""
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"{what} not found: {p}")
    return p.read_text()


def _json_object(text: str, what: str) -> dict:
    """The JSON object ``text`` holds; ``what`` names it in the errors."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{what} root must be a JSON object")
    return raw


def parse_config(text: str) -> ExperimentConfig:
    """Parse and validate a JSON config; errors name the offending field."""
    raw = _json_object(text, "config")
    model_raw = _object(raw, "model")
    kind = _require(model_raw, "kind", "model")
    if kind not in MODEL_KINDS:
        raise ConfigError(f"model.kind must be one of {MODEL_KINDS}, got {kind!r}")
    names = ("n_qubits", *MODEL_FIELDS[kind])
    label = f"'model' (kind {kind!r})"
    model = _read_section(ModelSpec, model_raw, "model", names, label, kind=kind)
    if "local_rates" in names and len(model.local_rates) != model.n_qubits:
        raise ConfigError(f"model.local_rates must be a list of {model.n_qubits} rates")

    search = _read_section(SearchConfig, _object(raw, "search"), "search", SEARCH_FIELDS)

    sweep = None
    if raw.get("sweep") is not None:
        sweep_raw = _object(raw, "sweep")
        mode = _require(sweep_raw, "mode", "sweep")
        if not isinstance(mode, str) or mode not in SWEEP_FIELDS:
            raise ConfigError(f"sweep.mode must be 'delta' or 'tf', got {mode!r}")
        sweep = _read_section(SweepSpec, sweep_raw, "sweep", SWEEP_FIELDS[mode], mode=mode)
        if mode == "tf" and "delta" in model_raw and model.delta != sweep.delta:
            raise ConfigError(
                f"model.delta is {model.delta} but sweep.delta is {sweep.delta}; a 'tf' "
                "sweep runs at sweep.delta, so drop model.delta or make the two equal"
            )
    return ExperimentConfig(model=model, search=search, sweep=sweep)


def load_config(path) -> ExperimentConfig:
    return parse_config(_read(path, "config file"))


def _plain(value):
    return [_plain(v) for v in value] if isinstance(value, tuple) else value


def config_to_dict(config: ExperimentConfig) -> dict:
    """Round-trippable plain-dict form: parse(json.dumps(...)) == config.
    Each section holds exactly the fields that parse_config reads for it."""

    def section(spec, names) -> dict:
        return {name: _plain(getattr(spec, name)) for name in names}

    model, sweep = config.model, config.sweep
    out = {
        "model": section(model, ("kind", "n_qubits", *MODEL_FIELDS[model.kind])),
        "search": section(config.search, SEARCH_FIELDS),
    }
    if sweep is not None:
        out["sweep"] = section(sweep, ("mode", *SWEEP_FIELDS[sweep.mode]))
    return out


def config_hash(config: ExperimentConfig) -> str:
    canonical = json.dumps(config_to_dict(config), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def build_model(spec: ModelSpec) -> LindbladModel:
    if spec.kind == "collective_xz":
        return collective_xz(spec.n_qubits, spec.gamma_x, spec.gamma_z)
    if spec.kind == "collective_z_local_dephasing":
        return collective_z_with_local_dephasing(
            spec.n_qubits, spec.gamma_z, spec.delta, spec.local_rates
        )
    mode = "global" if spec.kind == "perturbed_collective_global" else "local-tensor"
    v = random_perturbation_unitary(2**spec.n_qubits, spec.delta, mode, spec.perturbation_seed)
    return perturbed_collective(spec.n_qubits, spec.gamma_1, spec.gamma_2, v)


def build_channel(config: ExperimentConfig) -> KrausChannel:
    return lindblad_to_kraus(build_model(config.model), config.search.dt)


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
    raw = _json_object(_read(path, "encoding file"), "encoding file")
    for key in ("dim", "n1", "n2", "phases", "angles"):
        if key not in raw:
            raise ConfigError(f"encoding file is missing field '{key}'")
    dim, n1, n2 = (_count(raw[key], f"encoding.{key}") for key in ("dim", "n1", "n2"))
    phases, angles = (_finite_list(raw[key], f"encoding.{key}") for key in ("phases", "angles"))
    return UnitaryParams(dim, phases, angles), (n1, n2)


def _finite_list(value, path: str) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError(f"field '{path}' must be a list of numbers, got {value!r}")
    return np.array([_number(v, f"{path}[{i}]") for i, v in enumerate(value)], dtype=float)


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
                "evaluations": rec.evaluations,
                "converged": rec.converged,
                "degraded": rec.degraded,
                "stop_reason": rec.stop_reason,
                "gradient_norm": float(rec.gradient_norm),
            }
            for rec in result.per_restart
        ],
    }


def _point_entry(pt: FidelityPoint) -> dict:
    """A sweep point for result.json; a failed point's numbers are null, not
    the NaN tokens that strict JSON readers refuse."""
    failed = pt.error is not None
    return {
        "param": pt.param,
        "fi_mns": None if failed else pt.fi_mns,
        "fi_dfs": None if failed else pt.fi_dfs,
        "j_opt": None if failed else pt.j_opt,
        "converged": pt.converged,
        "mns_params": None if pt.mns_params is None else _params_dict(pt.mns_params),
        "error": pt.error,
    }


def _write_result(out_dir: Path, command: str, config: ExperimentConfig, started, **body) -> dict:
    """Write and return result.json: the header of every command, then ``body``."""
    payload = {
        "command": command,
        "tool_version": __version__,
        "config": config_to_dict(config),
        "config_hash": config_hash(config),
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "duration_seconds": round(time.monotonic() - started, 3),
        **body,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    # no indent: only then does json.dumps take its C encoder
    (out_dir / "result.json").write_text(json.dumps(payload) + "\n")
    return payload


def cmd_find_mns(config: ExperimentConfig, out_dir) -> dict:
    """Run the search and write result.json plus one replayable encoding file
    per candidate dimension pair."""
    out_dir = Path(out_dir)
    started = time.monotonic()
    channel = build_channel(config)
    results = find_mns(channel, config.search)
    entries = [_result_entry(dims, res) for dims, res in results.items()]
    payload = _write_result(out_dir, "find-mns", config, started, dt=channel.dt, results=entries)
    for entry in entries:
        n1, n2 = entry["n1"], entry["n2"]
        (out_dir / f"encoding_{n1}x{n2}.json").write_text(
            json.dumps({**entry["params"], "n1": n1, "n2": n2}, indent=2) + "\n"
        )
        print(
            f"dims ({n1},{n2}): J_opt={format_float(entry['j_opt'])} "
            f"is_dfs={str(entry['is_dfs']).lower()} "
            f"agreement={entry['agreement_fraction']:.2f}"
        )
    print(f"result written to {out_dir / 'result.json'}")
    return payload


def cmd_verify_dfs(config: ExperimentConfig, encoding_path, threshold: float = DFS_THRESHOLD) -> dict:
    """Check the decoherence-free condition (``dfs_check``) for the first
    n1*n2 rows of a stored encoding's chart point, at a finite threshold >= 0."""
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ConfigError(f"--threshold must be a finite number >= 0, got {threshold}")
    params, (n1, n2) = load_encoding(encoding_path)
    channel = build_channel(config)
    if params.dim != channel.dim:
        raise ConfigError(
            f"encoding dim {params.dim} does not match model dim {channel.dim}"
        )
    ok, defect, per_op = dfs_check(channel, realize(params)[: n1 * n2], n1, n2, threshold=threshold)
    for k, op_defect in enumerate(per_op):
        print(f"E[{k}]: residual defect {op_defect:.3e}")
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
    v_dfs = collective_dfs_encoding()
    model_for = lambda value: build_model(
        replace(config.model, delta=value if sweep.mode == "delta" else sweep.delta)
    )
    points = fidelity_sweep(
        model_for, sweep.grid, sweep.mode, v_dfs, dims, config.search, t_f=sweep.t_f
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

    entries = [_point_entry(pt) for pt in points]
    payload = _write_result(
        out_dir, "fidelity-sweep", config, started, csv=csv_path.name, points=entries
    )
    print(f"sweep written to {csv_path}")
    return payload


def _entry(value, path: str, keys) -> dict:
    """One object of a result file, which must hold each of ``keys``."""
    if not isinstance(value, dict):
        raise ConfigError(f"'{path}' in the result file must be an object, got {value!r}")
    for key in keys:
        _require(value, key, path)
    return value


def _items(value, path: str) -> list:
    """A list of objects in a result file."""
    if not isinstance(value, list):
        raise ConfigError(f"'{path}' in the result file must be a list, got {value!r}")
    return value


def _shown(entry: dict, key: str, path: str, spec: str = ".14e") -> str:
    """A number of a result-file object in the format ``spec`` (the
    ``format_float`` form by default): "nan" where it is missing, "null"
    where it is null."""
    value = entry.get(key, math.nan)
    if value is None:
        return "null"
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"field '{path}.{key}' must be a number, got {value!r}")
    return format(value, spec)


def cmd_show_result(path) -> dict:
    payload = _json_object(_read(path, "result file"), "result file")
    print(f"command:      {payload.get('command', '?')}")
    print(f"tool version: {payload.get('tool_version', '?')}")
    print(f"config hash:  {payload.get('config_hash', '?')}")
    print(f"created:      {payload.get('created_utc', '?')}")
    for i, entry in enumerate(_items(payload.get("results", []), "results")):
        at = f"results[{i}]"
        entry = _entry(entry, at, ("n1", "n2", "j_opt", "is_dfs"))
        print(
            f"  dims ({entry['n1']},{entry['n2']}): J_opt={_shown(entry, 'j_opt', at)} "
            f"is_dfs={str(entry['is_dfs']).lower()} "
            f"agreement={_shown(entry, 'agreement_fraction', at, '.2f')}"
        )
        for j, rec in enumerate(_items(entry.get("restarts", []), f"{at}.restarts")):
            rec_at = f"{at}.restarts[{j}]"
            rec = _entry(rec, rec_at, ("index", "final_j", "iterations"))
            print(
                f"    restart {rec['index']}: J={_shown(rec, 'final_j', rec_at)} "
                f"iterations={rec['iterations']} evaluations={rec.get('evaluations', '?')} "
                f"stop={rec.get('stop_reason', '?')} "
                f"|grad|={_shown(rec, 'gradient_norm', rec_at, '.3e')}"
            )
    points = _items(payload.get("points", []), "points")
    if points:
        print(f"  sweep points: {len(points)}")
        for i, pt in enumerate(points):
            at = f"points[{i}]"
            pt = _entry(pt, at, ("param", "fi_mns", "fi_dfs"))
            print(
                f"    param={_shown(pt, 'param', at)} fi_mns={_shown(pt, 'fi_mns', at)} "
                f"fi_dfs={_shown(pt, 'fi_dfs', at)}"
                + (f" error={pt['error']}" if pt.get("error") else "")
            )
    return payload
