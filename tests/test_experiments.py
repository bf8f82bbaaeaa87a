"""Config parsing, experiment runners, result files, and the CLI."""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mns.cli import main
from mns.errors import ConfigError
from mns.experiments import (
    ExperimentConfig,
    build_channel,
    build_model,
    cmd_fidelity_sweep,
    cmd_find_mns,
    cmd_show_result,
    cmd_verify_dfs,
    config_hash,
    config_to_dict,
    format_float,
    load_config,
    load_encoding,
    parse_config,
)
from mns.noise import (
    collective_xz,
    collective_z_with_local_dephasing,
    default_dt,
    perturbed_collective,
    random_perturbation_unitary,
)
from mns.objective import objective_of_unitary
from mns.parametrization import random_params, realize
from mns.search import SearchConfig

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
ROOT = CONFIG_DIR.parent

FULL_CONFIG_TEXT = json.dumps(
    {
        "model": {
            "kind": "perturbed_collective_global",
            "n_qubits": 3,
            "gamma_1": 0.8,
            "gamma_2": 1.2,
            "delta": 0.07,
            "perturbation_seed": 4,
        },
        "search": {
            "candidate_dims": [[2, 2], [2, 1]],
            "num_restarts": 5,
            "max_iterations": 300,
            "gradient_tolerance": 1e-9,
            "objective_tolerance": 1e-13,
            "seed": 11,
            "dt": 0.0005,
        },
        "sweep": {"mode": "delta", "grid": [0.0, 0.05, 0.1], "t_f": 2.0},
    }
)

SMALL_COLLECTIVE_TEXT = json.dumps(
    {
        "model": {"kind": "collective_xz", "n_qubits": 3, "gamma_x": 1.0, "gamma_z": 1.0},
        "search": {"candidate_dims": [[2, 2]], "num_restarts": 2, "seed": 1, "dt": None},
    }
)

NOISELESS_TEXT = json.dumps(
    {
        "model": {"kind": "collective_xz", "n_qubits": 3, "gamma_x": 0.0, "gamma_z": 0.0},
        "search": {"candidate_dims": [[2, 1], [2, 2], [3, 1]], "num_restarts": 1, "seed": 0},
    }
)


# ---------------------------------------------------------------------------
# parsing and validation


def test_parse_config_round_trips_through_dict_form():
    config = parse_config(FULL_CONFIG_TEXT)
    again = parse_config(json.dumps(config_to_dict(config)))
    assert again == config
    assert config.model.kind == "perturbed_collective_global"
    assert config.search.candidate_dims == ((2, 2), (2, 1))
    assert config.sweep.grid == (0.0, 0.05, 0.1)
    assert config.search.dt == 0.0005


def test_search_defaults_come_from_search_config():
    model = {"kind": "collective_xz", "n_qubits": 3}
    config = parse_config(json.dumps({"model": model, "search": {"candidate_dims": [[2, 1]]}}))
    assert config.search == SearchConfig(candidate_dims=((2, 1),))


def test_parse_config_defaults_and_optional_sweep():
    config = parse_config(SMALL_COLLECTIVE_TEXT)
    assert config.sweep is None
    assert config.search.max_iterations == 2000
    assert config.search.gradient_tolerance == 1e-8
    assert config.search.objective_tolerance == 1e-12
    assert config.search.dt is None
    assert config.model.gamma_x == 1.0


LOCAL_DEPHASING_MODEL = {
    "kind": "collective_z_local_dephasing",
    "n_qubits": 3,
    "gamma_z": 1.0,
    "delta": 0.1,
    "local_rates": [0.33, 0.47, 0.85],
}
# every field read as a float: (the model it is read for, or None for
# FULL_CONFIG_TEXT's, and the field's path)
FLOAT_FIELDS = [
    ({"kind": "collective_xz", "n_qubits": 3}, "model.gamma_x"),
    ({"kind": "collective_xz", "n_qubits": 3}, "model.gamma_z"),
    (LOCAL_DEPHASING_MODEL, "model.gamma_z"),
    (LOCAL_DEPHASING_MODEL, "model.delta"),
    (LOCAL_DEPHASING_MODEL, "model.local_rates[1]"),
    (None, "model.gamma_1"),
    (None, "model.gamma_2"),
    (None, "model.delta"),
    (None, "search.gradient_tolerance"),
    (None, "search.objective_tolerance"),
    (None, "search.dt"),
    (None, "sweep.grid[2]"),
    (None, "sweep.grid.start"),
    (None, "sweep.grid.stop"),
    (None, "sweep.t_f"),
    (None, "sweep.delta"),
]


def _set_path(raw: dict, path: str, value) -> None:
    """Set the field at a path like "sweep.grid[2]" or "sweep.grid.start",
    turning the sweep into the mode or grid form the field belongs to."""
    if path == "sweep.delta":
        raw["sweep"] = {"mode": "tf", "grid": [0.5, 1.0]}
        del raw["model"]["delta"]
    if path.startswith("sweep.grid."):
        raw["sweep"]["grid"] = {"start": 0.0, "stop": 0.1, "num": 3}
    *parents, name = re.split(r"\.|\[", path)
    target = raw
    for key in parents:
        target = target[key]
    if name.endswith("]"):
        target[int(name[:-1])] = value
    else:
        target[name] = value


@pytest.mark.parametrize(
    "token", ["NaN", "Infinity", "-Infinity", "1e999", pytest.param("1" + "0" * 400, id="int1e400")]
)
def test_parse_config_rejects_non_finite_numbers(token):
    # Python's json reads NaN and +-Infinity tokens, 1e999 as inf and a
    # 401-digit integer as an int no float can hold
    for model, path in FLOAT_FIELDS:
        raw = json.loads(FULL_CONFIG_TEXT)
        if model is not None:
            raw["model"] = dict(model)
        _set_path(raw, path, "TOKEN")
        text = json.dumps(raw).replace('"TOKEN"', token)
        with pytest.raises(ConfigError, match=re.escape(f"field '{path}' must be a finite number")):
            parse_config(text)


def test_cli_rejects_infinite_gradient_tolerance(tmp_path, capsys):
    # an infinite tolerance would report every restart converged at iteration 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(SMALL_COLLECTIVE_TEXT.replace('"seed": 1', '"seed": 1, "gradient_tolerance": Infinity'))
    assert main(["find-mns", "--config", str(cfg), "--out-dir", str(tmp_path / "out")]) == 1
    assert "field 'search.gradient_tolerance' must be a finite number" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _mutated(mutate):
    raw = json.loads(FULL_CONFIG_TEXT)
    mutate(raw)
    return json.dumps(raw)


@pytest.mark.parametrize(
    "text, message",
    [
        ("not json {", "not valid JSON"),
        ("[1, 2]", "root must be a JSON object"),
        (_mutated(lambda r: r.pop("model")), r"missing required field '\$\.model'"),
        (_mutated(lambda r: r["model"].pop("kind")), "missing required field 'model.kind'"),
        (_mutated(lambda r: r["model"].update(kind="bogus")), "model.kind must be one of"),
        (
            _mutated(lambda r: r["model"].update(n_qubits=True)),
            "field 'model.n_qubits' must be an integer",
        ),
        (
            _mutated(lambda r: r["model"].update(gamma_1="x")),
            "field 'model.gamma_1' must be a number",
        ),
        (
            _mutated(lambda r: r["model"].update(gamma_2=-0.5)),
            "field 'model.gamma_2' must be >= 0",
        ),
        (_mutated(lambda r: r.pop("search")), r"missing required field '\$\.search'"),
        (
            _mutated(lambda r: r["search"].update(candidate_dims=[[2, 2, 2]])),
            r"candidate_dims must be a non-empty list of \[n1, n2\] pairs",
        ),
        (
            _mutated(lambda r: r["search"].update(candidate_dims=[])),
            "candidate_dims must be a non-empty list",
        ),
        (
            _mutated(lambda r: r["search"].update(candidate_dims=[[2, 0]])),
            r"field 'search.candidate_dims\[0\]\[1\]' must be >= 1",
        ),
        (_mutated(lambda r: r["search"].update(dt=-0.1)), "search.dt must be positive"),
        # a misspelt key, and one that no longer exists, must not run on defaults
        (
            _mutated(lambda r: r["search"].update(num_restart=3)),
            r"unknown field\(s\) in 'search': 'num_restart'",
        ),
        (
            _mutated(lambda r: r["search"].update(dfs_threshold=1e-6)),
            r"unknown field\(s\) in 'search': 'dfs_threshold'",
        ),
        # a field that another model kind reads, and a misspelt sweep field
        (
            _mutated(lambda r: r["model"].update(gamma_x=0.1)),
            r"unknown field\(s\) in 'model' \(kind 'perturbed_collective_global'\): 'gamma_x'",
        ),
        (
            _mutated(lambda r: r["sweep"].update(t_ff=5.0)),
            r"unknown field\(s\) in 'sweep': 't_ff'",
        ),
        (
            _mutated(lambda r: r["search"].update(num_restarts=0)),
            "field 'search.num_restarts' must be >= 1",
        ),
        (_mutated(lambda r: r["sweep"].update(mode="time")), "sweep.mode must be"),
        (
            _mutated(lambda r: r["sweep"].update(mode=["tf"])),
            r"sweep.mode must be 'delta' or 'tf', got \['tf'\]",
        ),
        (
            _mutated(lambda r: r["search"].update(seed=-1)),
            "field 'search.seed' must be >= 0, got -1",
        ),
        (
            _mutated(lambda r: r["model"].update(perturbation_seed=-3)),
            "field 'model.perturbation_seed' must be >= 0, got -3",
        ),
        (
            _mutated(lambda r: r["sweep"].update(grid=[])),
            r"sweep.grid must be a list of values or \{start, stop, num\}",
        ),
        (
            _mutated(lambda r: r["sweep"].update(grid={"start": 0.0, "stop": 0.1})),
            "missing required field 'sweep.grid.num'",
        ),
        # a grid key the reader does not know is refused, not dropped
        (
            _mutated(
                lambda r: r["sweep"].update(
                    grid={"start": 0.0, "stop": 0.1, "num": 3, "endpoint": False}
                )
            ),
            r"unknown field\(s\) in 'sweep.grid': 'endpoint'; it reads 'num', 'start', 'stop'$",
        ),
        (_mutated(lambda r: r["sweep"].update(t_f=-1.0)), "field 'sweep.t_f' must be >= 0"),
        # grid values are amplitudes (delta mode) or times (tf mode)
        (
            _mutated(lambda r: r["sweep"].update(grid=[-0.05, 0.0])),
            r"field 'sweep.grid\[0\]' must be >= 0.0, got -0.05",
        ),
        (
            _mutated(
                lambda r: r.update(
                    sweep={"mode": "tf", "grid": {"start": -0.1, "stop": 0.1, "num": 3}}
                )
            ),
            "field 'sweep.grid.start' must be >= 0.0, got -0.1",
        ),
        # a sweep key the mode does not read, and a tf-mode amplitude written twice
        (
            _mutated(lambda r: r["sweep"].update(delta=0.07)),
            r"unknown field\(s\) in 'sweep': 'delta'",
        ),
        (
            _mutated(lambda r: r["sweep"].update(mode="tf", delta=0.07)),
            r"unknown field\(s\) in 'sweep': 't_f'",
        ),
        (
            _mutated(lambda r: r.update(sweep={"mode": "tf", "grid": [0.0], "delta": 0.05})),
            r"model.delta is 0.07 but sweep.delta is 0.05",
        ),
    ],
)
def test_parse_config_rejects_bad_fields(text, message):
    with pytest.raises(ConfigError, match=message):
        parse_config(text)


def test_parse_config_local_rates_validation():
    raw = {
        "model": {
            "kind": "collective_z_local_dephasing",
            "n_qubits": 3,
            "gamma_z": 1.0,
            "local_rates": [0.1, 0.2],
        },
        "search": {"candidate_dims": [[2, 1]]},
    }
    with pytest.raises(ConfigError, match="local_rates must be a list of 3 rates"):
        parse_config(json.dumps(raw))
    raw["model"]["local_rates"] = [0.1, 0.2, -0.3]
    with pytest.raises(ConfigError, match=r"field 'model.local_rates\[2\]' must be >= 0"):
        parse_config(json.dumps(raw))


def test_grid_object_form_expands_to_linspace():
    raw = json.loads(FULL_CONFIG_TEXT)
    raw["sweep"]["grid"] = {"start": 0.0, "stop": 0.1, "num": 11}
    config = parse_config(json.dumps(raw))
    assert config.sweep.grid == tuple(np.linspace(0.0, 0.1, 11).tolist())
    raw["sweep"]["grid"] = list(config.sweep.grid)
    assert parse_config(json.dumps(raw)).sweep.grid == config.sweep.grid


def test_config_hash_ignores_key_order_but_not_values():
    config = parse_config(FULL_CONFIG_TEXT)
    scrambled = json.dumps(json.loads(FULL_CONFIG_TEXT), sort_keys=True)
    assert config_hash(parse_config(scrambled)) == config_hash(config)
    other = dataclasses.replace(
        config, search=dataclasses.replace(config.search, seed=12)
    )
    assert config_hash(other) != config_hash(config)
    assert re.fullmatch(r"[0-9a-f]{64}", config_hash(config))


def test_tf_sweep_accepts_matching_or_absent_model_delta():
    raw = json.loads(FULL_CONFIG_TEXT)
    raw["sweep"] = {"mode": "tf", "grid": [0.0, 1.0], "delta": 0.07}
    assert parse_config(json.dumps(raw)).sweep.delta == 0.07
    del raw["model"]["delta"]
    assert parse_config(json.dumps(raw)).sweep.delta == 0.07


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(tmp_path / "nope.json")


@pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_bundled_config_round_trips_through_dict_form(path):
    config = load_config(path)
    assert parse_config(json.dumps(config_to_dict(config))) == config


def test_benchmark_inputs_parse(tmp_path, monkeypatch):
    """Every config the benchmark workloads write is one the parser accepts,
    so a stricter parser cannot break the benchmark unseen."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    from workloads import WORKLOADS

    for name, workload_class in WORKLOADS.items():
        out = tmp_path / name
        out.mkdir()
        workload = workload_class(ROOT, 1, out)
        workload.prepare()
        assert workload.configs, name
        for path in workload.configs.values():
            load_config(path)


def test_bundled_configs_parse():
    paths = sorted(CONFIG_DIR.glob("*.json"))
    assert len(paths) == 6
    kinds = {}
    for path in paths:
        config = load_config(path)
        kinds[path.stem] = config.model.kind
        assert config_hash(config)
        if config.sweep is not None:
            assert config.model.kind.startswith("perturbed_collective")
            assert config.search.candidate_dims == ((2, 2),)
    assert kinds["collective_xz_n3"] == "collective_xz"
    assert kinds["sz_local_dephasing_n3"] == "collective_z_local_dephasing"
    assert kinds["perturbed_global_delta_sweep"] == "perturbed_collective_global"
    assert kinds["perturbed_local_delta_sweep"] == "perturbed_collective_local"


# ---------------------------------------------------------------------------
# model/channel building and serialization helpers


def test_build_model_matches_direct_constructors():
    config = parse_config(FULL_CONFIG_TEXT)
    model = build_model(config.model)
    v = random_perturbation_unitary(8, 0.07, "global", 4)
    direct = perturbed_collective(3, 0.8, 1.2, v)
    assert len(model.terms) == len(direct.terms)
    for (r1, o1), (r2, o2) in zip(model.terms, direct.terms):
        assert r1 == r2
        np.testing.assert_allclose(o1, o2, atol=1e-14)

    spec = dataclasses.replace(config.model, kind="collective_xz", gamma_x=0.3, gamma_z=0.9)
    model = build_model(spec)
    direct = collective_xz(3, 0.3, 0.9)
    for (r1, o1), (r2, o2) in zip(model.terms, direct.terms):
        assert r1 == r2
        np.testing.assert_allclose(o1, o2, atol=1e-14)

    spec = dataclasses.replace(
        config.model,
        kind="collective_z_local_dephasing",
        gamma_z=1.0,
        delta=0.1,
        local_rates=(0.33, 0.47, 0.85),
    )
    model = build_model(spec)
    direct = collective_z_with_local_dephasing(3, 1.0, 0.1, (0.33, 0.47, 0.85))
    for (r1, o1), (r2, o2) in zip(model.terms, direct.terms):
        assert r1 == r2
        np.testing.assert_allclose(o1, o2, atol=1e-14)


def test_build_model_delta_override():
    config = parse_config(FULL_CONFIG_TEXT)
    v = random_perturbation_unitary(8, 0.02, "global", 4)
    direct = perturbed_collective(3, 0.8, 1.2, v)
    model = build_model(dataclasses.replace(config.model, delta=0.02))
    np.testing.assert_allclose(model.terms[0][1], direct.terms[0][1], atol=1e-14)


def test_build_channel_dt_handling():
    config = parse_config(FULL_CONFIG_TEXT)
    assert build_channel(config).dt == 0.0005
    no_dt = dataclasses.replace(config, search=dataclasses.replace(config.search, dt=None))
    model = build_model(config.model)
    assert build_channel(no_dt).dt == default_dt(model)


def test_format_float_frozen_form():
    assert format_float(1.0) == "1.00000000000000e+00"
    assert format_float(-0.05) == "-5.00000000000000e-02"
    assert format_float(0.9999203393062515) == "9.99920339306251e-01"
    # ≥ 12 significant digits as required of result files
    assert re.fullmatch(r"-?\d\.\d{14}e[+-]\d{2,3}", format_float(np.pi))


def test_load_encoding_round_trip(tmp_path):
    params = random_params(8, 2.5, 1.5, seed=3)
    payload = {
        "dim": 8,
        "n1": 2,
        "n2": 2,
        "phases": [float(v) for v in params.phases],
        "angles": [float(v) for v in params.angles],
    }
    path = tmp_path / "enc.json"
    path.write_text(json.dumps(payload))
    loaded, dims = load_encoding(path)
    assert dims == (2, 2)
    assert loaded.dim == 8
    np.testing.assert_array_equal(loaded.phases, params.phases)
    np.testing.assert_array_equal(loaded.angles, params.angles)

    with pytest.raises(ConfigError, match="encoding file not found"):
        load_encoding(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_encoding(bad)
    del payload["phases"]
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match="missing field 'phases'"):
        load_encoding(path)


def _encoding_file(tmp_path, **fields) -> Path:
    params = random_params(8, 2.5, 1.5, seed=3)
    phases, angles = list(params.phases), list(params.angles)
    payload = {"dim": 8, "n1": 2, "n2": 2, "phases": phases, "angles": angles, **fields}
    path = tmp_path / "enc.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n1": 0}, "field 'encoding.n1' must be >= 1, got 0"),
        ({"n2": -1}, "field 'encoding.n2' must be >= 1, got -1"),
        ({"dim": 8.7}, "field 'encoding.dim' must be an integer, got 8.7"),
        ({"dim": "x"}, "field 'encoding.dim' must be an integer, got 'x'"),
        ({"phases": "x"}, "field 'encoding.phases' must be a list of numbers, got 'x'"),
        ({"angles": {"0": 1.0}}, "field 'encoding.angles' must be a list of numbers"),
        ({"phases": [0.5, "x"]}, "field 'encoding.phases[1]' must be a number, got 'x'"),
        ({"angles": [True]}, "field 'encoding.angles[0]' must be a number, got True"),
        ({"angles": [0.5, float("nan")]}, "field 'encoding.angles[1]' must be a finite number"),
        ({"phases": [float("inf")]}, "field 'encoding.phases[0]' must be a finite number"),
    ],
)
def test_load_encoding_rejects_bad_dimensions(tmp_path, fields, message):
    with pytest.raises(ConfigError, match=re.escape(message)):
        load_encoding(_encoding_file(tmp_path, **fields))


def test_cli_verify_dfs_bad_encoding_exits_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(SMALL_COLLECTIVE_TEXT)
    for fields in ({"n1": 0}, {"dim": "x"}, {"phases": "x"}, {"angles": [float("nan")]}):
        enc = _encoding_file(tmp_path, **fields)
        assert main(["verify-dfs", "--config", str(cfg), "--encoding", str(enc)]) == 1
        assert "field 'encoding." in capsys.readouterr().err


@pytest.mark.parametrize("root", ["null", "5", "[]"])
def test_cli_verify_dfs_refuses_an_encoding_root_that_is_not_an_object(tmp_path, capsys, root):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(SMALL_COLLECTIVE_TEXT)
    enc = tmp_path / "enc.json"
    enc.write_text(root)
    assert main(["verify-dfs", "--config", str(cfg), "--encoding", str(enc)]) == 1
    assert "encoding file root must be a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize("threshold", ["inf", "nan", "-1"])
def test_cli_verify_dfs_refuses_a_threshold_that_is_not_finite_and_non_negative(
    tmp_path, capsys, threshold
):
    # under inf a random encoding would PASS, under nan or -1 every one FAIL
    cfg = tmp_path / "cfg.json"
    cfg.write_text(SMALL_COLLECTIVE_TEXT)
    argv = ["verify-dfs", "--config", str(cfg), "--encoding", str(_encoding_file(tmp_path))]
    assert main([*argv, "--threshold", threshold]) == 1
    captured = capsys.readouterr()
    assert "--threshold" in captured.err and captured.out == ""
    assert main([*argv, "--threshold", "0"]) == 0
    assert "FAIL" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# find-mns runner


@pytest.fixture(scope="module")
def find_mns_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("find_mns")
    config = parse_config(SMALL_COLLECTIVE_TEXT)
    payload = cmd_find_mns(config, out)
    return config, out, payload


def test_cmd_find_mns_writes_result_and_encoding(find_mns_run):
    config, out, payload = find_mns_run
    result_path = out / "result.json"
    assert result_path.is_file()
    assert (out / "encoding_2x2.json").is_file()
    on_disk = json.loads(result_path.read_text())
    assert on_disk["command"] == "find-mns"
    assert on_disk["config_hash"] == config_hash(config)
    assert on_disk["config"] == config_to_dict(config)
    (entry,) = on_disk["results"]
    assert (entry["n1"], entry["n2"], entry["n3"]) == (2, 2, 4)
    assert entry["is_dfs"] is True
    assert entry["j_opt"] >= 1.0 - 1e-6
    assert len(entry["restarts"]) == 2
    for rec in entry["restarts"]:
        assert set(rec) == {
            "index",
            "seed",
            "final_j",
            "iterations",
            "evaluations",
            "converged",
            "degraded",
            "stop_reason",
            "gradient_norm",
        }
        assert rec["stop_reason"] in ("gradient", "stall", "max_iterations", "line_search")
        assert rec["converged"] == (rec["stop_reason"] in ("gradient", "stall"))
        assert rec["evaluations"] > rec["iterations"]


def test_cmd_find_mns_encoding_is_replayable(find_mns_run):
    config, out, payload = find_mns_run
    params, dims = load_encoding(out / "encoding_2x2.json")
    channel = build_channel(config)
    replayed = objective_of_unitary(channel, realize(params)[: dims[0] * dims[1]], *dims)
    assert abs(replayed - payload["results"][0]["j_opt"]) <= 1e-12


def test_cmd_find_mns_noiseless_model_scores_one(tmp_path, capsys):
    payload = cmd_find_mns(parse_config(NOISELESS_TEXT), tmp_path)
    assert [ (e["n1"], e["n2"]) for e in payload["results"] ] == [(2, 1), (2, 2), (3, 1)]
    for entry in payload["results"]:
        assert abs(entry["j_opt"] - 1.0) <= 1e-12
    lines = capsys.readouterr().out.splitlines()
    assert sum("J_opt=" in line for line in lines) == 3


# ---------------------------------------------------------------------------
# verify-dfs runner


def test_cmd_verify_dfs_passes_on_found_encoding(find_mns_run, capsys):
    config, out, _ = find_mns_run
    report = cmd_verify_dfs(config, out / "encoding_2x2.json")
    assert set(report) == {"per_operator", "max_defect", "threshold", "passed"}
    assert report["passed"] is True
    assert report["max_defect"] <= 1e-8
    assert len(report["per_operator"]) == 3  # identity part + one per noise term
    assert "PASS" in capsys.readouterr().out


def test_cmd_verify_dfs_fails_on_random_encoding(find_mns_run, tmp_path, capsys):
    config, _, _ = find_mns_run
    params = random_params(8, 2.5, 1.5, seed=7)
    enc = tmp_path / "random.json"
    enc.write_text(
        json.dumps(
            {
                "dim": 8,
                "n1": 2,
                "n2": 2,
                "phases": list(params.phases),
                "angles": list(params.angles),
            }
        )
    )
    report = cmd_verify_dfs(config, enc)
    assert report["passed"] is False
    assert report["max_defect"] > 1e-4
    assert "FAIL" in capsys.readouterr().out


def test_cmd_verify_dfs_identity_channel_defect_zero(tmp_path):
    config = parse_config(NOISELESS_TEXT)
    params = random_params(8, 2.5, 1.5, seed=2)
    enc = tmp_path / "enc.json"
    enc.write_text(
        json.dumps(
            {
                "dim": 8,
                "n1": 2,
                "n2": 2,
                "phases": list(params.phases),
                "angles": list(params.angles),
            }
        )
    )
    report = cmd_verify_dfs(config, enc)
    assert report["passed"] is True
    assert report["max_defect"] == 0.0
    assert report["per_operator"] == [0.0]


def test_cmd_verify_dfs_dim_mismatch(find_mns_run, tmp_path):
    config, _, _ = find_mns_run
    params = random_params(4, 2.0, 1.0, seed=1)
    enc = tmp_path / "enc4.json"
    enc.write_text(
        json.dumps(
            {
                "dim": 4,
                "n1": 2,
                "n2": 1,
                "phases": list(params.phases),
                "angles": list(params.angles),
            }
        )
    )
    with pytest.raises(ConfigError, match="does not match model dim"):
        cmd_verify_dfs(config, enc)


# ---------------------------------------------------------------------------
# fidelity-sweep runner

SMALL_SWEEP_TEXT = json.dumps(
    {
        "model": {
            "kind": "perturbed_collective_global",
            "n_qubits": 3,
            "gamma_1": 1.0,
            "gamma_2": 1.0,
            "delta": 0.05,
            "perturbation_seed": 9,
        },
        "search": {"candidate_dims": [[2, 2]], "num_restarts": 2, "seed": 1, "dt": None},
        "sweep": {"mode": "delta", "grid": [0.0, 0.05], "t_f": 1.0},
    }
)

CSV_FLOAT = r"-?\d\.\d{14}e[+-]\d{2}"
CSV_ROW = re.compile(rf"^{CSV_FLOAT},{CSV_FLOAT},{CSV_FLOAT},{CSV_FLOAT},(true|false)$")


def test_cmd_fidelity_sweep_csv_contract_and_determinism(tmp_path):
    config = parse_config(SMALL_SWEEP_TEXT)
    payload_a = cmd_fidelity_sweep(config, tmp_path / "a")
    payload_b = cmd_fidelity_sweep(config, tmp_path / "b")
    csv_a = (tmp_path / "a" / "sweep.csv").read_bytes()
    csv_b = (tmp_path / "b" / "sweep.csv").read_bytes()
    assert csv_a == csv_b
    text = csv_a.decode("utf-8")
    assert "\r" not in text
    lines = text.splitlines()
    assert lines[0] == "param,fi_mns,fi_dfs,J_opt,converged"
    assert len(lines) == 1 + 2
    for row in lines[1:]:
        assert CSV_ROW.match(row), row
    # unperturbed endpoint: both encodings are exact
    first = payload_a["points"][0]
    assert abs(first["fi_mns"] - 1.0) <= 1e-6
    assert abs(first["fi_dfs"] - 1.0) <= 1e-6
    second = payload_a["points"][1]
    assert second["fi_mns"] >= second["fi_dfs"] - 1e-9
    assert payload_a["points"] == payload_b["points"]
    assert json.loads((tmp_path / "a" / "result.json").read_text())["csv"] == "sweep.csv"


def test_cmd_fidelity_sweep_writes_null_for_a_failed_point(tmp_path, monkeypatch, capsys):
    build = build_model

    def failing_build(spec):
        if spec.delta == 0.05:
            raise ValueError("no model for 0.05")
        return build(spec)

    monkeypatch.setattr("mns.experiments.build_model", failing_build)
    cmd_fidelity_sweep(parse_config(SMALL_SWEEP_TEXT), tmp_path)

    def refuse(token):
        raise ValueError(f"non-strict JSON token {token}")

    path = tmp_path / "result.json"
    failed = json.loads(path.read_text(), parse_constant=refuse)["points"][1]
    assert failed["error"] == "ValueError: no model for 0.05"
    assert failed["fi_mns"] is None and failed["fi_dfs"] is None and failed["j_opt"] is None
    assert not failed["converged"] and failed["mns_params"] is None
    capsys.readouterr()
    cmd_show_result(path)
    shown = capsys.readouterr().out.splitlines()
    assert f"    param={format_float(0.05)} fi_mns=null fi_dfs=null error=ValueError: no model for 0.05" in shown


def test_cmd_fidelity_sweep_validation_errors(tmp_path):
    no_sweep = parse_config(SMALL_COLLECTIVE_TEXT)
    with pytest.raises(ConfigError, match="no 'sweep' section"):
        cmd_fidelity_sweep(no_sweep, tmp_path)

    raw = json.loads(SMALL_SWEEP_TEXT)
    raw["model"] = {"kind": "collective_xz", "n_qubits": 3}
    with pytest.raises(ConfigError, match="perturbed_collective"):
        cmd_fidelity_sweep(parse_config(json.dumps(raw)), tmp_path)

    raw = json.loads(SMALL_SWEEP_TEXT)
    raw["model"]["n_qubits"] = 2
    with pytest.raises(ConfigError, match="3-qubit benchmark"):
        cmd_fidelity_sweep(parse_config(json.dumps(raw)), tmp_path)

    raw = json.loads(SMALL_SWEEP_TEXT)
    raw["search"]["candidate_dims"] = [[2, 1]]
    with pytest.raises(ConfigError, match=r"use dims \[2, 2\]"):
        cmd_fidelity_sweep(parse_config(json.dumps(raw)), tmp_path)

    raw = json.loads(SMALL_SWEEP_TEXT)
    raw["search"]["candidate_dims"] = [[2, 2], [2, 1]]
    with pytest.raises(ConfigError, match="exactly one candidate dimension pair"):
        cmd_fidelity_sweep(parse_config(json.dumps(raw)), tmp_path)


def _single_point(config: ExperimentConfig, value: float) -> ExperimentConfig:
    return dataclasses.replace(
        config, sweep=dataclasses.replace(config.sweep, grid=(value,))
    )


def test_local_tensor_gap_smaller_than_global_gap(tmp_path):
    """At matched perturbation amplitude the searched-vs-reference fidelity
    gap of the bundled local-tensor experiment stays below the global one."""
    global_config = _single_point(
        load_config(CONFIG_DIR / "perturbed_global_delta_sweep.json"), 0.05
    )
    local_config = _single_point(
        load_config(CONFIG_DIR / "perturbed_local_delta_sweep.json"), 0.05
    )
    (global_pt,) = cmd_fidelity_sweep(global_config, tmp_path / "g")["points"]
    (local_pt,) = cmd_fidelity_sweep(local_config, tmp_path / "l")["points"]
    gap_global = global_pt["fi_mns"] - global_pt["fi_dfs"]
    gap_local = local_pt["fi_mns"] - local_pt["fi_dfs"]
    assert gap_global > 1e-4
    assert gap_local < gap_global
    # the bundled local draw is a collective rotation: the reference encoding
    # stays exact and the gap collapses entirely
    assert abs(local_pt["fi_dfs"] - 1.0) <= 1e-9
    assert abs(gap_local) <= 1e-9


# ---------------------------------------------------------------------------
# show-result and the CLI surface


def test_cmd_show_result_summarizes_payload(find_mns_run, capsys, tmp_path):
    _, out, payload = find_mns_run
    shown = cmd_show_result(out / "result.json")
    assert shown["config_hash"] == payload["config_hash"]
    text = capsys.readouterr().out
    assert "command:      find-mns" in text
    assert "dims (2,2)" in text
    for rec in payload["results"][0]["restarts"]:
        assert f"restart {rec['index']}:" in text
        assert f"evaluations={rec['evaluations']} stop={rec['stop_reason']} " in text
        assert f"stop={rec['stop_reason']} |grad|={rec['gradient_norm']:.3e}\n" in text

    # a result.json written before restarts lost line_search_fallbacks
    # prints the same lines
    older = json.loads((out / "result.json").read_text())
    for rec in older["results"][0]["restarts"]:
        rec["line_search_fallbacks"] = 0
    (tmp_path / "result.json").write_text(json.dumps(older))
    cmd_show_result(tmp_path / "result.json")
    assert capsys.readouterr().out == text

    with pytest.raises(ConfigError, match="result file not found"):
        cmd_show_result(out / "missing.json")


def test_cmd_show_result_rejects_corrupt_file(tmp_path):
    bad = tmp_path / "result.json"
    bad.write_text("{broken")
    with pytest.raises(ConfigError, match="not valid JSON"):
        cmd_show_result(bad)


@pytest.mark.parametrize(
    "payload, message",
    [
        ([1, 2], "result file root must be a JSON object"),
        ({"results": [{"n1": 2, "j_opt": 1.0, "is_dfs": True}]}, "field 'results[0].n2'"),
        ({"results": [3]}, "'results[0]' in the result file must be an object"),
        (
            {"results": [{"n1": 2, "n2": 2, "j_opt": 1.0, "is_dfs": True, "restarts": [{}]}]},
            "field 'results[0].restarts[0].index'",
        ),
        ({"points": [{"param": 0.0, "fi_mns": None}]}, "field 'points[0].fi_dfs'"),
        ({"results": 5}, "'results' in the result file must be a list, got 5"),
        (
            {"results": [{"n1": 2, "n2": 2, "j_opt": "x", "is_dfs": True}]},
            "field 'results[0].j_opt' must be a number, got 'x'",
        ),
        (
            {"points": [{"param": "z", "fi_mns": 1.0, "fi_dfs": 1.0}]},
            "field 'points[0].param' must be a number, got 'z'",
        ),
    ],
    ids=[
        "root-list",
        "entry-without-n2",
        "entry-not-object",
        "restart-without-index",
        "point-without-fi_dfs",
        "results-not-list",
        "j_opt-not-number",
        "param-not-number",
    ],
)
def test_cmd_show_result_refuses_json_that_is_not_a_result(tmp_path, capsys, payload, message):
    # valid JSON of another shape is a validation error (exit 1), not a crash
    path = tmp_path / "result.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ConfigError, match=re.escape(message)):
        cmd_show_result(path)
    assert main(["show-result", str(path)]) == 1
    assert message in capsys.readouterr().err


def test_cli_config_errors_exit_1(tmp_path, capsys):
    assert main(["find-mns", "--config", str(tmp_path / "nope.json")]) == 1
    assert "config file not found" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["find-mns", "--config", str(bad)]) == 1
    assert "not valid JSON" in capsys.readouterr().err

    cfg = tmp_path / "cfg.json"
    cfg.write_text(SMALL_COLLECTIVE_TEXT)
    assert main(["verify-dfs", "--config", str(cfg), "--encoding", str(tmp_path / "e.json")]) == 1
    assert "encoding file not found" in capsys.readouterr().err

    assert main(["fidelity-sweep", "--config", str(cfg), "--out-dir", str(tmp_path / "o")]) == 1
    assert "no 'sweep' section" in capsys.readouterr().err


def test_cli_refuses_negative_seeds(tmp_path, capsys):
    # each negative seed is refused as the config is read, before anything
    # runs: left to the search, SeedSequence would raise (exit 2), and a
    # sweep would write a row of NaN per point (exit 0)
    cfg = tmp_path / "cfg.json"
    out = tmp_path / "out"
    cases = (
        (["find-mns"], SMALL_COLLECTIVE_TEXT.replace('"seed": 1', '"seed": -1'), "'search.seed'"),
        (["find-mns", "--seed", "-2"], SMALL_COLLECTIVE_TEXT, "seed must be >= 0, got -2"),
        (
            ["fidelity-sweep"],
            FULL_CONFIG_TEXT.replace('"perturbation_seed": 4', '"perturbation_seed": -3'),
            "'model.perturbation_seed'",
        ),
    )
    for argv, text, message in cases:
        cfg.write_text(text)
        assert main([*argv, "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()


def test_cli_find_mns_and_show_result_exit_0(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(NOISELESS_TEXT)
    out = tmp_path / "out"
    assert main(["find-mns", "--config", str(cfg), "--out-dir", str(out)]) == 0
    assert (out / "result.json").is_file()
    assert (out / "encoding_2x1.json").is_file()
    capsys.readouterr()
    assert main(["show-result", str(out / "result.json")]) == 0
    assert "find-mns" in capsys.readouterr().out


def test_cli_seed_override_is_recorded(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(NOISELESS_TEXT)
    out = tmp_path / "out"
    assert main(["find-mns", "--config", str(cfg), "--seed", "7", "--out-dir", str(out)]) == 0
    recorded = json.loads((out / "result.json").read_text())
    assert recorded["config"]["search"]["seed"] == 7


def test_cli_seed_flag_belongs_to_the_searching_commands(tmp_path, monkeypatch, capsys):
    # verify-dfs runs no search, so its parser refuses --seed; find-mns and
    # fidelity-sweep still override search.seed with it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(NOISELESS_TEXT)
    with pytest.raises(SystemExit) as refused:
        main(["verify-dfs", "--seed", "3", "--config", str(cfg), "--encoding", "e.json"])
    assert refused.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err
    seeds = {}
    for command in ("find-mns", "fidelity-sweep"):
        runner = lambda config, out_dir, command=command: seeds.update({command: config.search.seed})
        monkeypatch.setattr(f"mns.cli.cmd_{command.replace('-', '_')}", runner)
        assert main([command, "--config", str(cfg), "--seed", "3", "--out-dir", str(tmp_path)]) == 0
    assert seeds == {"find-mns": 3, "fidelity-sweep": 3}


def test_cli_runtime_failures_exit_2(tmp_path, capsys, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(NOISELESS_TEXT)

    def generic_failure(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr("mns.cli.cmd_find_mns", generic_failure)
    assert main(["find-mns", "--config", str(cfg)]) == 2
    assert "unexpected failure" in capsys.readouterr().err


def test_cli_commands_load_no_scipy(tmp_path):
    # mns does not depend on SciPy, only its tests and benchmark do; the
    # import costs a search-sized process most of its start-up, so a stray
    # import on any command's path is a regression
    def one_restart(name):
        raw = json.loads((CONFIG_DIR / f"{name}.json").read_text())
        raw["search"]["num_restarts"] = 1
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(raw))
        return str(path)

    cfg, sweep_cfg = one_restart("collective_xz_n3"), one_restart("perturbed_global_tf_sweep")
    out = tmp_path / "out"
    script = f"""
import sys
import mns.fidelity
assert not [m for m in sys.modules if m.startswith("scipy.optimize")]
from mns.cli import main
assert main(["find-mns", "--config", {cfg!r}, "--out-dir", {str(out)!r}]) == 0
enc = {str(out / "encoding_2x2.json")!r}
assert main(["verify-dfs", "--config", {cfg!r}, "--encoding", enc]) == 0
assert main(["fidelity-sweep", "--config", {sweep_cfg!r}, "--out-dir", {str(out)!r}]) == 0
print(sorted(m for m in sys.modules if m.startswith("scipy")))
"""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    run = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True
    )
    assert run.stdout.splitlines()[-1] == "[]"
