"""Command-line entry point.

Subcommands::

    mns find-mns       --config cfg.json [--seed N] [--out-dir DIR]
    mns verify-dfs     --config cfg.json --encoding enc.json [--threshold X]
    mns fidelity-sweep --config cfg.json [--seed N] [--out-dir DIR]
    mns show-result    RESULT_JSON

Exit codes: 0 success, 1 configuration/validation error, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import __version__
from .errors import ConfigError, ValidationError
from .experiments import (
    cmd_fidelity_sweep,
    cmd_find_mns,
    cmd_show_result,
    cmd_verify_dfs,
    load_config,
)
from .noise import DFS_THRESHOLD

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _add_search(parser: argparse.ArgumentParser) -> None:
    """The arguments of the commands that run a search."""
    parser.add_argument("--config", required=True, help="path to a JSON experiment config")
    parser.add_argument("--seed", type=int, default=None, help="override search.seed")
    parser.add_argument("--out-dir", default="results", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mns",
        description="Search for minimal-noise encodings of noisy qubit registers.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("find-mns", help="optimize an encoding for a noise model")
    _add_search(p)

    p = sub.add_parser("verify-dfs", help="check the decoherence-free condition")
    p.add_argument("--config", required=True, help="path to a JSON experiment config")
    p.add_argument("--encoding", required=True, help="encoding JSON written by find-mns")
    p.add_argument("--threshold", type=float, default=DFS_THRESHOLD,
                   help="largest residual ||r_k|| + ||r~_k|| of E_k and E_k^dag that passes")

    p = sub.add_parser("fidelity-sweep", help="sweep worst-case fidelity over a grid")
    _add_search(p)

    p = sub.add_parser("show-result", help="summarize a result.json file")
    p.add_argument("result", help="path to result.json")
    return parser


def _with_seed(config, seed):
    if seed is None:
        return config
    search = dataclasses.replace(config.search, seed=seed)
    return dataclasses.replace(config, search=search)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "show-result":
            cmd_show_result(args.result)
        elif args.command == "verify-dfs":
            cmd_verify_dfs(load_config(args.config), args.encoding, threshold=args.threshold)
        else:
            config = _with_seed(load_config(args.config), args.seed)
            if args.command == "find-mns":
                cmd_find_mns(config, args.out_dir)
            else:
                cmd_fidelity_sweep(config, args.out_dir)
        return EXIT_OK
    except (ConfigError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:  # pragma: no cover - defensive
        print(f"unexpected failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
