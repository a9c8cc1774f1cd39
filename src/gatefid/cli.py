"""Command-line front end.

Subcommands: moments | dist | sample | verify | optimize. Exit codes:
0 success, 1 usage/parse error, 2 invariant violation, 3 verification
failure. All randomized commands take --seed and are reproducible for a
fixed seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import shlex
import sys
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .linalg import ConfigError, QubitSpectrum, eig2_normal
from .moments import GateSpec, InvariantError, gate_moments, kraus_avg_fidelity
from .optimize import (
    EvaluatorError,
    Objective,
    OptimizeConfig,
    build_family,
    optimize,
)
from .qubit_dist import normal_pdf, quadrature_moments
from .sampling import mc_sample
from .serialize import (
    load_kraus,
    load_matrix,
    matrix_from_obj,
    write_density_csv,
    write_histogram_csv,
    write_trace_csv,
)
from .verify import run_checks

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVARIANT = 2
EXIT_VERIFY = 3

_VERSIONS = "gatefid {}, numpy {}, python {}.{}.{}".format(
    __version__, np.__version__, *sys.version_info[:3]
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunManifest:
    command: str
    inputs: list[str]
    seed: int
    versions: str
    outputs: list[str]


def _load(path: str, loader):
    try:
        return loader(path)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _seed(text: str) -> int:
    """An argparse ``type``: a non-negative int. The library leaves a negative
    seed to ``SeedSequence``, so this check is the CLI's own; a bad value
    reaches ``_Parser.error``, a usage error."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _parse_complex(text: str) -> complex:
    parts = text.split(",")
    if len(parts) != 2:
        raise UsageError(f"expected 're,im', got {text!r}")
    try:
        return complex(float(parts[0]), float(parts[1]))
    except ValueError as exc:
        raise UsageError(f"bad complex literal {text!r}: {exc}") from exc


def _parse_subspace(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad subspace list {text!r}: {exc}") from exc


def _dumps(obj) -> str:
    """JSON text of ``obj``; a NaN or infinity raises ValueError (exit 2)."""
    return json.dumps(obj, indent=2, allow_nan=False)


def _emit(obj) -> None:
    print(_dumps(obj))


def _cmd_moments(args) -> int:
    target = _load(args.target, load_matrix)
    subspace = _parse_subspace(args.subspace) if args.subspace else None
    if args.kraus:
        if subspace is not None:
            raise UsageError("--subspace is not supported with a Kraus map")
        kmap = _load(args.kraus, load_kraus)
        try:
            mean = kraus_avg_fidelity(kmap, target)
        except ValueError as exc:
            raise InvariantError(f"{args.target} / {args.kraus}: {exc}") from exc
        _emit(
            {
                "n_eff": kmap.dim,
                "mean": mean,
                "method": "closed_form",
                "trace_preserving": kmap.trace_preserving,
            }
        )
        return EXIT_OK
    actual = _load(args.actual, load_matrix)
    try:
        spec = GateSpec(target=target, actual=actual, subspace=subspace)
    except ConfigError:
        raise  # a bad --subspace is a usage error
    except ValueError as exc:
        raise InvariantError(f"target {args.target}: {exc}") from exc
    _emit(gate_moments(spec).as_dict())
    return EXIT_OK


def _cmd_dist(args) -> int:
    if args.matrix:
        if args.lambda1 is not None:
            raise UsageError("--lambda1 goes with --lambda0, not with --matrix")
        m = _load(args.matrix, load_matrix)
        spectrum = eig2_normal(m)
    else:
        if not args.lambda1:
            raise UsageError("--lambda1 is required together with --lambda0")
        spectrum = QubitSpectrum.ordered(
            _parse_complex(args.lambda0), _parse_complex(args.lambda1)
        )
    dist = normal_pdf(spectrum)
    meta = dist.as_dict()
    meta["moments"] = quadrature_moments(dist).as_dict()
    write_density_csv(dist, args.grid, args.out)
    meta["csv"] = args.out
    _emit(meta)
    return EXIT_OK


def _cmd_sample(args) -> int:
    m = _load(args.matrix, load_matrix)
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


def _number(value, name: str) -> float:
    """A JSON number as a float; a bool, string or container is malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{name} must be a number, not {value!r}")
    return float(value)


def _integer(value, name: str) -> int:
    """A JSON integer (or an integral float) as an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    return value


def _items(value, name: str, length: int | None = None) -> list:
    """A JSON list, of ``length`` items if given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "a list" if length is None else f"a list of {length}"
        raise TypeError(f"{name} must be {size}, not {value!r}")
    return value


def _cmd_optimize(args) -> int:
    with open(args.problem, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise UsageError(f"cannot parse {args.problem}: {exc}") from exc
    try:
        if not isinstance(obj, dict):
            raise TypeError(f"expected a JSON object, not {type(obj).__name__}")
        family_name = obj["family"]
        if not isinstance(family_name, str):
            raise TypeError(f"family must be a name, not {family_name!r}")
        target = _matrix_from_problem(obj["target"], args.problem)
        spec = obj["objective"]
        if not isinstance(spec, dict) or not isinstance(spec["kind"], str):
            raise TypeError(f"objective must be {{'kind': name, 'k': number}}, not {spec!r}")
        objective = Objective(kind=spec["kind"], k=_number(spec.get("k", 0.0), "k"))
        box = []
        for pair in _items(obj["box"], "box"):
            lo, hi = _items(pair, "a box entry", 2)
            box.append((_number(lo, "box"), _number(hi, "box")))
        max_evals = obj.get("max_evals")
        config = OptimizeConfig(
            start=tuple(_number(x, "start") for x in _items(obj["start"], "start")),
            box=tuple(box),
            max_evals=None if max_evals is None else _integer(max_evals, "max_evals"),
            x_tol=_number(obj.get("x_tol", 1e-8), "x_tol"),
            f_tol=_number(obj.get("f_tol", 1e-10), "f_tol"),
            record_trace=bool(args.trace_out),
        )
        subspace = obj.get("subspace")
        if subspace is not None:
            subspace = [_integer(i, "subspace") for i in _items(subspace, "subspace")]
    except KeyError as exc:
        raise UsageError(f"malformed problem file {args.problem}: no field {exc}") from exc
    # A ValueError here is Objective's: an unknown kind or a bad k.
    except (TypeError, ValueError, OverflowError) as exc:
        raise UsageError(f"malformed problem file {args.problem}: {exc}") from exc
    try:
        family = build_family(family_name, target, subspace=subspace)
    except KeyError as exc:
        raise UsageError(str(exc.args[0])) from exc
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


def _matrix_from_problem(obj, path: str) -> np.ndarray:
    try:
        return matrix_from_obj(obj)
    except ValueError as exc:
        raise UsageError(f"bad target matrix in {path}: {exc}") from exc


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
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", required=True, help="output prefix")
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("verify", help="cross-module consistency checks")
    p.add_argument("--level", choices=("quick", "full"), default="quick")
    p.add_argument("--seed", type=_seed, default=20260810)
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
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    args.argv = argv
    try:
        return args.func(args)
    # A ConfigError is a setting out of range, such as --bins 1, or a problem
    # file whose fields do not fit together.
    except (UsageError, ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, EvaluatorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
