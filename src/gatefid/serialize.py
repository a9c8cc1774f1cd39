"""File formats: matrix/Kraus JSON, histogram and density CSV.

A matrix is ``{"dim": n, "entries": [[re, im], ...]}`` with ``n*n`` entries
in row-major order; complex numbers are always two-element ``[re, im]``
arrays. A Kraus map is ``{"operators": [<matrix>, ...]}``.
"""

from __future__ import annotations

import json
from math import ulp
from pathlib import Path
from typing import Iterable

import numpy as np

from .linalg import ConfigError, as_matrix
from .moments import KrausMap
from .qubit_dist import DegenerateSpectrumError, FidelityDistribution
from .sampling import Histogram


def matrix_to_obj(m: np.ndarray) -> dict:
    m = as_matrix(m)
    return {
        "dim": m.shape[0],
        "entries": [[float(v.real), float(v.imag)] for v in m.ravel()],
    }


def matrix_from_obj(obj) -> np.ndarray:
    if not isinstance(obj, dict) or "dim" not in obj or "entries" not in obj:
        raise ValueError("matrix object needs 'dim' and 'entries' fields")
    dim = obj["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ValueError("'dim' must be a positive integer")
    entries = obj["entries"]
    if len(entries) != dim * dim:
        raise ValueError(f"expected {dim * dim} entries, got {len(entries)}")
    values = []
    for e in entries:
        if not isinstance(e, (list, tuple)) or len(e) != 2:
            raise ValueError("each entry must be a [re, im] pair")
        values.append(complex(float(e[0]), float(e[1])))
    return as_matrix(np.array(values, dtype=np.complex128).reshape(dim, dim))


def load_matrix(path: str | Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        return matrix_from_obj(json.load(fh))


def save_matrix(m: np.ndarray, path: str | Path) -> None:
    Path(path).write_text(json.dumps(matrix_to_obj(m)), encoding="utf-8")


def kraus_to_obj(k: KrausMap) -> dict:
    return {"operators": [matrix_to_obj(g) for g in k.operators]}


def kraus_from_obj(obj) -> KrausMap:
    if not isinstance(obj, dict) or "operators" not in obj:
        raise ValueError("Kraus object needs an 'operators' field")
    return KrausMap(tuple(matrix_from_obj(g) for g in obj["operators"]))


def load_kraus(path: str | Path) -> KrausMap:
    with open(path, encoding="utf-8") as fh:
        return kraus_from_obj(json.load(fh))


def save_kraus(k: KrausMap, path: str | Path) -> None:
    Path(path).write_text(json.dumps(kraus_to_obj(k)), encoding="utf-8")


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
