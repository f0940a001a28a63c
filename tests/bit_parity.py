"""Bit-level fingerprint of every test's outputs, for comparing two trees.

Not collected by pytest.  Run it once per source tree and compare the files:

    PYTHONPATH=<tree>/src python tests/bit_parity.py OUT.json

Each record holds ``float.hex`` of the statistic, the p-value and every
reference value, and the ``describe()`` params with their floats in hex.
The cases cover the six tests at d = 2..5 on a Gaussian and a skewed
sample: hp with Monte Carlo and bootstrap calibration over its three sector
schemes, pg and so with and without a location, and so's three radial
families; ks and mpq past one 2,048-point evaluation chunk; ks and hp on a
sample with repeated rows, whose radii tie; hp with one shell; and hp's
Monte Carlo law on one ``ellipsym rolling`` window (120 x 2, c = 3).  A
last record holds ``chi2_sf`` over an (x, df) grid.
"""

import json
import sys

import numpy as np

from ellipsym import (
    chi2_sf,
    huffer_park_test,
    ks_test,
    mpq_test,
    pseudo_gaussian_test,
    sample_mvn,
    sample_skewed,
    schott_test,
    skew_optimal_test,
)


def _hex(v):
    if isinstance(v, float):
        return float.hex(v)
    if isinstance(v, dict):
        return {k: _hex(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_hex(x) for x in v]
    return v


def _record(name, result):
    reference = result.null_law.reference or ()
    return {
        "case": name,
        "statistic": float.hex(result.statistic),
        "p_value": float.hex(result.p_value),
        "reference": [float.hex(v) for v in reference],
        "describe": _hex(result.describe()),
    }


def _cases():
    for d in (2, 3, 4, 5):
        samples = {
            "normal": sample_mvn(np.zeros(d), np.eye(d), 80, seed=100 + d),
            "skewed": sample_skewed(d, 80, 3.0, seed=200 + d),
        }
        for label, X in samples.items():
            tag = f"d{d}-{label}"
            location = np.full(d, 0.1)
            yield f"ks {tag}", lambda X=X: ks_test(X, R=20, seed=3, workers=1)
            yield f"mpq {tag}", lambda X=X: mpq_test(X)
            yield f"mpq eps0 {tag}", lambda X=X: mpq_test(X, epsilon=0.0)
            yield f"schott {tag}", lambda X=X: schott_test(X)
            yield f"hp mc {tag}", lambda X=X: huffer_park_test(X, 2, seed=4, workers=1)
            yield f"hp boot {tag}", lambda X=X: huffer_park_test(X, 2, R=30, seed=5)
            if d <= 4:
                yield f"hp perm {tag}", lambda X=X: huffer_park_test(
                    X, 2, sector="permutations", R=30, seed=6
                )
            if d == 2:
                yield f"hp angles {tag}", lambda X=X: huffer_park_test(
                    X, 3, sector="bivariateangles", g=6, R=30, seed=7
                )
            yield f"pg {tag}", lambda X=X: pseudo_gaussian_test(X)
            yield f"pg loc {tag}", lambda X=X, m=location: pseudo_gaussian_test(X, m)
            yield f"so loc {tag}", lambda X=X, m=location: skew_optimal_test(X, m)
            for f, param in (("t", None), ("t", 6.5), ("logistic", None),
                             ("powerExp", None), ("powerExp", 2.0)):
                yield f"so {f} {param} {tag}", lambda X=X, f=f, p=param: (
                    skew_optimal_test(X, f=f, param=p)
                )
    X = sample_mvn(np.zeros(3), np.eye(3), 2500, seed=300)
    yield "ks multi-chunk d3", lambda: ks_test(X, R=3, seed=8, workers=1)
    yield "mpq multi-chunk d3", lambda: mpq_test(X)
    T = sample_skewed(3, 120, 3.0, seed=301)
    T[60:] = T[:60]
    yield "ks ties d3", lambda: ks_test(T, R=20, seed=9, workers=1)
    yield "hp ties d3", lambda: huffer_park_test(T, 3, R=30, seed=10)
    W = sample_mvn(np.zeros(2), np.eye(2), 120, seed=302)
    yield "hp mc window 120x2 c3", lambda: huffer_park_test(W, 3, seed=0, workers=1)
    yield "hp c1 d3", lambda: huffer_park_test(T, 1, R=30, seed=11)


def main(path):
    records = [_record(name, run()) for name, run in _cases()]
    grid = [
        float.hex(chi2_sf(float(x), df))
        for df in (1, 2, 3, 5, 9, 24, 120, 870, 1e4)
        for x in np.concatenate([[0.0], np.geomspace(1e-3, 40 * df + 100, 60)])
    ]
    records.append({"case": "chi2_sf grid", "values": grid})
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=1)
    print(f"{len(records) - 1} test cases and {len(grid)} chi2_sf values -> {path}")


if __name__ == "__main__":
    main(sys.argv[1])
