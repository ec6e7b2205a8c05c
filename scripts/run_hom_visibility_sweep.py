#!/usr/bin/env python3
"""Sweep reflectivity, simulate noisy dip scans, and compare fitted to ideal
visibility.

Writes a CSV with one row per reflectivity value: the analytic visibility,
the fitted value from a Poisson-noise scan, and the count-based error bar.
"""
import argparse
import pathlib

import numpy as np

from rwasim.csvio import write_csv
from rwasim.photon_stats import (
    dip_extrema,
    fit_hom_dip,
    ideal_visibility,
    simulate_hom_scan,
)


def eta_grid(text: str) -> np.ndarray:
    """start:stop:step as evenly spaced reflectivities from start to exactly
    stop, all within [0, 1]; step must divide stop - start."""
    lo, hi, step = (float(x) for x in text.split(":"))
    if not (0.0 <= lo <= hi <= 1.0 and step > 0.0):
        raise ValueError(f"--etas needs 0 <= start <= stop <= 1 and step > 0, "
                         f"got {text!r}")
    intervals = (hi - lo) / step
    if abs(intervals - round(intervals)) > 1e-9 * max(1.0, intervals):
        raise ValueError(f"--etas step must divide stop - start, got {text!r}")
    return np.linspace(lo, hi, int(round(intervals)) + 1)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--etas", default="0.5:1.0:0.025",
                        help="start:stop:step reflectivity sweep")
    parser.add_argument("--baseline", type=float, default=1e4,
                        help="coincidence rate far from the dip (counts/s)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default="out/visibility_sweep.csv")
    args = parser.parse_args()

    try:
        etas = eta_grid(args.etas)
    except ValueError as exc:
        parser.error(str(exc))
    delays = np.linspace(-0.6, 0.6, 121)

    rows = []
    for i, eta in enumerate(etas):
        scan = simulate_hom_scan(eta, delays, baseline_rate=args.baseline,
                                 noise_seed=args.seed + i)
        fit = fit_hom_dip(scan)
        n_max, n_min = dip_extrema(fit, scan)
        rows.append((eta, ideal_visibility(eta), fit.visibility,
                     fit.visibility_error, n_max, n_min))
        print(f"eta={eta:.3f}  ideal={rows[-1][1]:.4f}  "
              f"fit={fit.visibility:.4f} +/- {fit.visibility_error:.4f}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    write_csv(out, ["eta", "ideal_visibility", "fitted_visibility",
                    "visibility_error", "n_max", "n_min"],
              [[x for row in rows for x in row]])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
