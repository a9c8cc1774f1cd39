"""File formats: matrix, Kraus and problem JSON; histogram, density and trace CSV.

A matrix is ``{"dim": n, "entries": [[re, im], ...]}`` with ``n*n`` entries
in row-major order; complex numbers are always two-element ``[re, im]``
arrays. A Kraus map is ``{"operators": [<matrix>, ...]}``. An optimizer
problem is ``{"family": name, "target": <matrix>, "objective": {"kind":
name, "k": number}, "start": [x, ...], "box": [[lo, hi], ...]}``, where
``k`` and the fields ``subspace`` (basis indices), ``max_evals``, ``x_tol``
and ``f_tol`` are optional; other fields are ignored.

One rule set reads all three: a bool or a string is not a number, and an
integral float is an integer. A file that is not UTF-8 JSON of its format
raises one :class:`ConfigError` naming the file and the field, such as
``operators[1].entries[0][1]``.
"""

from __future__ import annotations

import json
from math import ulp
from pathlib import Path
from reprlib import repr as _short
from typing import Callable, Iterable

import numpy as np

from .linalg import ConfigError, as_matrix
from .moments import InvariantError, KrausMap
from .optimize import FAMILIES, OBJECTIVE_KINDS, GateFamily, Objective, OptimizeConfig, build_family
from .qubit_dist import DegenerateSpectrumError, FidelityDistribution
from .sampling import Histogram


def _object(value, name: str, *fields: str) -> dict:
    """A JSON object that has each of ``fields``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be an object, not {_short(value)}")
    for key in fields:
        if key not in value:
            raise ValueError(f"{name} has no field {key!r}")
    return value


def _choice(value, name: str, known) -> str:
    """One of the names ``known``."""
    if not isinstance(value, str) or value not in known:
        raise ValueError(f"{name} must be one of {sorted(known)}, not {_short(value)}")
    return value


def _number(value, name: str) -> float:
    """A JSON number as a float; a bool, string or container is malformed."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, not {_short(value)}")
    try:
        return float(value)
    except OverflowError:  # an int past the float range
        raise ValueError(f"{name} = {_short(value)} is too large for a float") from None


def _integer(value, name: str) -> int:
    """A JSON integer (or an integral float) as an int."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, not {_short(value)}")
    return value


def _items(value, name: str, item=None, pair: str = "") -> tuple:
    """A JSON list, each item read by ``item(x, its field path)`` if given;
    one that names a ``pair``, such as ``"[re, im]"``, has two items."""
    if not isinstance(value, list) or (pair and len(value) != 2):
        raise ValueError(f"{name} must be {f'a {pair} pair' if pair else 'a list'}, not {_short(value)}")
    return tuple(value if item is None else (item(x, f"{name}[{i}]") for i, x in enumerate(value)))


def _read(path: str | Path, build: Callable, what: str):
    """``build`` of the JSON in ``path``; content that is not UTF-8 JSON of
    the format raises one ConfigError naming the file."""
    try:
        return build(json.loads(Path(path).read_text(encoding="utf-8")))
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ConfigError(f"malformed {what} file {path}: {exc}") from exc


def matrix_to_obj(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {
        "dim": m.shape[0],
        "entries": [[float(v.real), float(v.imag)] for v in m.ravel()],
    }


def _complex(value, name: str) -> complex:
    return complex(*_items(value, name, _number, "[re, im]"))


def matrix_from_obj(obj, name: str = "matrix") -> np.ndarray:
    """The matrix of a matrix object; ``name`` is its field path in errors."""
    obj = _object(obj, name, "dim", "entries")
    dim = _integer(obj["dim"], f"{name}.dim")
    values = _items(obj["entries"], f"{name}.entries", _complex)
    if dim < 1 or len(values) != dim * dim:
        raise ValueError(f"{name} needs dim >= 1 and dim^2 entries, not dim {_short(dim)} with {len(values)}")
    return as_matrix(np.array(values, dtype=np.complex128).reshape(dim, dim))


def load_matrix(path: str | Path) -> np.ndarray:
    return _read(path, matrix_from_obj, "matrix")


def save_matrix(m: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(m)), encoding="utf-8")


def kraus_to_obj(k: KrausMap) -> dict:
    return {"operators": [matrix_to_obj(g) for g in k.operators]}


def kraus_from_obj(obj) -> KrausMap:
    obj = _object(obj, "Kraus map", "operators")
    return KrausMap(_items(obj["operators"], "operators", matrix_from_obj))


def load_kraus(path: str | Path) -> KrausMap:
    return _read(path, kraus_from_obj, "Kraus")


def problem_from_obj(obj) -> tuple[GateFamily, Objective, OptimizeConfig]:
    """The family, objective and configuration of an optimizer problem."""
    obj = _object(obj, "problem", "family", "target", "objective", "start", "box")
    spec = _object(obj["objective"], "objective", "kind")
    kind = _choice(spec["kind"], "objective.kind", OBJECTIVE_KINDS)
    objective = Objective(kind, _number(spec.get("k", 0.0), "objective.k"))
    options = {key: _number(obj[key], key) for key in ("x_tol", "f_tol") if key in obj}
    if obj.get("max_evals") is not None:
        options["max_evals"] = _integer(obj["max_evals"], "max_evals")
    box = _items(obj["box"], "box", lambda b, name: _items(b, name, _number, "[lo, hi]"))
    config = OptimizeConfig(_items(obj["start"], "start", _number), box, **options)
    subspace = obj.get("subspace")
    if subspace is not None:
        subspace = _items(subspace, "subspace", _integer)
    target = matrix_from_obj(obj["target"], "target")
    family = build_family(_choice(obj["family"], "family", FAMILIES), target, subspace=subspace)
    return family, objective, config


def load_problem(path: str | Path) -> tuple[GateFamily, Objective, OptimizeConfig]:
    return _read(path, problem_from_obj, "problem")


def histogram_csv_lines(h: Histogram) -> list[str]:
    """CSV rows ``bin_lo,bin_hi,count,density``."""
    lines = ["bin_lo,bin_hi,count,density"]
    densities = h.densities
    for i in range(len(h.counts)):
        lines.append(
            f"{float(h.edges[i])!r},{float(h.edges[i + 1])!r},"
            f"{int(h.counts[i])},{float(densities[i])!r}"
        )
    return lines


def write_histogram_csv(h: Histogram, path: str | Path) -> None:
    Path(path).write_text("\n".join(histogram_csv_lines(h)) + "\n", encoding="utf-8")


def density_csv_lines(d: FidelityDistribution, grid: int) -> list[str]:
    """CSV rows ``f,density`` on a grid nudged off the singular endpoint."""
    if grid < 2:
        raise ConfigError("grid must be at least 2")
    lo, hi = d.support()
    # Each end carries a few ulps of rounding, so a support this narrow has a
    # true width below float resolution: the law is a point mass there.
    if hi - lo <= 4 * np.spacing(hi):
        raise DegenerateSpectrumError(
            f"support [{lo!r}, {hi!r}] is narrower than float resolution: "
            f"point mass at f = {hi!r}",
            point_mass=hi,
        )
    # 1e-9 off the anchor (relative, once f passes 1), or a thousandth of the
    # width on narrower supports; at least one ulp, so no row is at f0.
    points = np.linspace(lo + max(min(1e-9 * max(1.0, hi), 1e-3 * (hi - lo)), ulp(lo)), hi, grid)
    dens = d.pdf(points)
    if not np.isfinite(dens).all():  # a support near the least normal float
        raise InvariantError(f"density on [{lo!r}, {hi!r}] passes the float range")
    return ["f,density"] + [
        f"{float(f)!r},{float(p)!r}" for f, p in zip(points, dens)
    ]


def write_density_csv(d: FidelityDistribution, grid: int, path: str | Path) -> None:
    Path(path).write_text(
        "\n".join(density_csv_lines(d, grid)) + "\n", encoding="utf-8"
    )


def write_trace_csv(
    trace: Iterable[tuple[np.ndarray, float]], path: str | Path
) -> None:
    """Optimizer evaluation trace as ``eval,p0,...,value`` rows."""
    rows = []
    for i, (params, value) in enumerate(trace):
        rows.append(",".join([str(i), *(repr(float(p)) for p in params), repr(value)]))
    if not rows:
        raise ValueError("trace is empty")
    width = len(rows[0].split(",")) - 2
    header = "eval," + ",".join(f"p{j}" for j in range(width)) + ",value"
    Path(path).write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
