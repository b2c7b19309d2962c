"""Batch command-line front end.

    nhdyn run --config scenario.json [--out-dir DIR] [--seed INT]
    nhdyn validate --config scenario.json

Exit status: 0 on success, 2 on validation errors, 3 on numerical failures
(degenerate spectra, truncation caps, unstable integrations, out of memory).
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .errors import ConfigError, NumericalError
from .scenario import _json_text, load_config, run


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nhdyn",
        description=(
            "Heisenberg-picture dynamics for non-self-adjoint Hamiltonians: "
            "run declarative scenarios, emit CSV time series and JSON reports."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario config")
    p_run.add_argument("--config", required=True, help="path to a JSON scenario")
    p_run.add_argument(
        "--out-dir", default=".", help="directory for report.json and its CSV and npy files"
    )
    p_run.add_argument(
        "--seed", type=int, default=None, help="override the config seed"
    )

    p_val = sub.add_parser("validate", help="validate a scenario config")
    p_val.add_argument("--config", required=True, help="path to a JSON scenario")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # inf/nan: exit 3
            cfg = load_config(args.config)
            if args.command == "validate":
                print(_json_text(cfg.echo), end="")
                return 0
            report = run(cfg, args.out_dir, seed=args.seed)
    except ConfigError as exc:
        print(f"nhdyn: config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"nhdyn: numerical failure: {exc}", file=sys.stderr)
        return 3
    except MemoryError:  # last resort: a task outgrew memory before any check caught it
        print("nhdyn: numerical failure: out of memory", file=sys.stderr)
        return 3

    for name in report.artifacts:
        print(f"wrote {name}")
    print("wrote report.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
