#!/usr/bin/env python3
"""Regenerate the reference two-piece distribution next to its MC histogram.

Writes two plot-ready CSV files (closed-form density and sampled histogram)
plus a JSON summary with the closed-form moments and the goodness-of-fit of
the histogram. Plotting the two CSVs on one axis reproduces the shipped
worked example.
"""

import argparse
import json
from pathlib import Path

from gatefid import compare_histogram, mc_sample, normal_pdf, quadrature_moments
from gatefid.serialize import write_density_csv, write_histogram_csv
from gatefid.verify import reference_matrix, reference_spectrum


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--samples", type=int, default=1_000_000)
    parser.add_argument("--bins", type=int, default=50)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--grid", type=int, default=800)
    parser.add_argument("--outdir", type=Path, default=Path("out"))
    args = parser.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    dist = normal_pdf(reference_spectrum())
    hist, _ = mc_sample(reference_matrix(), args.bins, args.samples, args.seed)
    write_density_csv(dist, args.grid, args.outdir / "density.csv")
    write_histogram_csv(hist, args.outdir / "histogram.csv")

    fit = compare_histogram(dist, hist)
    moments = quadrature_moments(dist)
    summary = {
        "case": dist.case,
        "f0": dist.f0,
        "support": list(dist.support()),
        "mean": moments.mean,
        "second_moment": moments.second_moment,
        "variance": moments.variance,
        "chi_square_per_dof": fit.chi_square / fit.dof,
        "sup_norm_density_gap": fit.sup_norm_density_gap,
        "samples": args.samples,
        "seed": args.seed,
    }
    (args.outdir / "summary.json").write_text(json.dumps(summary, indent=2))
    print(json.dumps(summary, indent=2))


if __name__ == "__main__":
    main()
