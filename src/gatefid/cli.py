"""Command-line front end.

Subcommands: moments | dist | sample | verify | optimize. All randomized
commands take --seed and are reproducible for a fixed seed. Exit codes: 0
success; 1 when an input is refused before any result (a ``ConfigError``,
raised where the input is refused, or an ``OSError``); 2 when a result
breaks an invariant, overflows or has no density (any other ``ValueError``,
or an ``EvaluatorError``); 3 when ``verify`` finds a failing check.
:func:`main` alone maps errors to exit codes.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import shlex
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import ConfigError, QubitSpectrum, eig2_normal
from .moments import GateSpec, InvariantError, MomentReport, gate_moments, kraus_avg_fidelity
from .optimize import EvaluatorError, optimize
from .qubit_dist import normal_pdf, quadrature_moments
from .sampling import mc_sample
from .serialize import load_kraus, load_matrix, load_problem
from .serialize import write_density_csv, write_histogram_csv, write_trace_csv
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_VERIFY = 3

_VERSIONS = "gatefid {}, numpy {}, python {}.{}.{}".format(
    __version__, np.__version__, *sys.version_info[:3]
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


@dataclass
class RunManifest:
    command: str
    inputs: list[str]
    seed: int
    versions: str
    outputs: list[str]


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"expected 're,im', got {text!r}")
    try:
        z = complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise ConfigError(f"bad complex literal {text!r}: {exc}") from exc
    if not cmath.isfinite(z):
        raise ConfigError(f"complex literal {text!r} is not finite")
    return z


def _parse_subspace(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"bad subspace list {text!r}: {exc}") from exc


def _dumps(obj) -> str:
    """JSON text of ``obj``; a NaN or infinity raises ValueError (exit 2)."""
    return json.dumps(obj, indent=2, allow_nan=False)


def _emit(obj) -> None:
    print(_dumps(obj))


def _cmd_moments(args) -> int:
    target = load_matrix(args.target)
    subspace = _parse_subspace(args.subspace) if args.subspace else None
    if args.kraus:
        if subspace is not None:
            raise ConfigError("--subspace is not supported with a Kraus map")
        kmap = load_kraus(args.kraus)
        report = MomentReport(n_eff=kmap.dim, mean=kraus_avg_fidelity(kmap, target)).as_dict()
        _emit({**report, "trace_preserving": kmap.trace_preserving})
        return EXIT_OK
    spec = GateSpec(target=target, actual=load_matrix(args.actual), subspace=subspace)
    _emit(gate_moments(spec).as_dict())
    return EXIT_OK


def _cmd_dist(args) -> int:
    if args.matrix:
        if args.lambda1 is not None:
            raise ConfigError("--lambda1 goes with --lambda0, not with --matrix")
        m = load_matrix(args.matrix)
        spectrum = eig2_normal(m)
    else:
        if not args.lambda1:
            raise ConfigError("--lambda1 is required together with --lambda0")
        spectrum = QubitSpectrum.ordered(
            _parse_complex(args.lambda0), _parse_complex(args.lambda1)
        )
    dist = normal_pdf(spectrum)
    meta = dist.as_dict()
    try:
        meta["moments"] = quadrature_moments(dist).as_dict()
    except InvariantError:  # E f^2 overflows, the law does not: report the law alone
        pass
    write_density_csv(dist, args.grid, args.out)
    meta["csv"] = args.out
    _emit(meta)
    return EXIT_OK


def _cmd_sample(args) -> int:
    m = load_matrix(args.matrix)
    hist, est = mc_sample(m, args.bins, args.samples, args.seed)
    csv_path = f"{args.out}.csv"
    json_path = f"{args.out}.json"
    manifest_path = f"{args.out}.manifest.json"
    est_text = _dumps(asdict(est))
    manifest = RunManifest(
        command=shlex.join(["gatefid", *args.argv]),
        inputs=[args.matrix],
        seed=args.seed,
        versions=_VERSIONS,
        outputs=[csv_path, json_path, manifest_path],
    )
    write_histogram_csv(hist, csv_path)
    Path(json_path).write_text(est_text, encoding="utf-8")
    Path(manifest_path).write_text(_dumps(asdict(manifest)), encoding="utf-8")
    print(est_text)
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = run_checks(level=args.level, seed=args.seed)
    if args.out:
        Path(args.out).write_text(_dumps(report), encoding="utf-8")
    _emit(report)
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def _cmd_optimize(args) -> int:
    family, objective, config = load_problem(args.problem)
    result = optimize(family, objective, config)
    if args.trace_out:
        write_trace_csv(result.trace, args.trace_out)
    _emit(
        {
            "best_params": [float(x) for x in result.best_params],
            "best_value": result.best_value,
            "evaluations": result.evaluations,
            "converged": result.converged,
        }
    )
    return EXIT_OK


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built at the first :func:`main` call and then reused;
    ``parse_args`` fills a fresh namespace every time, so no state carries
    over between calls."""
    parser = _Parser(prog="gatefid", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="closed-form fidelity moments")
    p.add_argument("--target", required=True, help="target unitary (matrix JSON)")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--actual", help="applied map (matrix JSON)")
    group.add_argument("--kraus", help="applied channel (Kraus JSON)")
    p.add_argument("--subspace", help="comma-separated basis indices")
    p.set_defaults(func=_cmd_moments)

    p = sub.add_parser("dist", help="closed-form qubit fidelity distribution")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--matrix", help="2x2 normal comparison matrix (JSON)")
    group.add_argument("--lambda0", help="first eigenvalue as re,im")
    p.add_argument("--lambda1", help="second eigenvalue as re,im")
    p.add_argument("--grid", type=int, default=512, help="CSV grid size")
    p.add_argument("--out", default="dist_pdf.csv", help="density CSV path")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("sample", help="Monte-Carlo fidelity histogram")
    p.add_argument("--matrix", required=True, help="comparison matrix (JSON)")
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="cross-module consistency checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=int, default=20260810)
    p.add_argument("--out", help="write the JSON report here as well")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("optimize", help="tune a gate family from a problem file")
    p.add_argument("problem", help="problem JSON path")
    p.add_argument("--trace-out", help="write the evaluation trace CSV here")
    p.set_defaults(func=_cmd_optimize)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(argv)
        args.argv = argv
        return args.func(args)
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, EvaluatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
