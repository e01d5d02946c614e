#!/usr/bin/env python3
"""Gradient-free Bregman approximation error as the chord tightens.

For each built-in generator, prints max |chord(1-eps, 1) - bregman| over
random pairs for a decade ladder of eps, along with the decade-to-decade
error ratio (close to 10 indicates first-order decay in eps).

    python scripts/approx_error_demo.py --pairs 50 --seed 0
"""

import argparse

import numpy as np

from chorddiv import (
    BUILTIN_GENERATORS,
    bregman,
    bregman_chord_approx,
    make_builtin,
)

EPSILONS = (1e-1, 1e-2, 1e-3, 1e-4)
DIM = 3


def sample_pair(rng, domain_kind, dim):
    if domain_kind == "positive":
        lo, hi = 0.2, 1.5
    else:
        lo, hi = -1.5, 1.5
    while True:
        t1 = rng.uniform(lo, hi, dim)
        t2 = rng.uniform(lo, hi, dim)
        if np.max(np.abs(t1 - t2)) >= 0.05:
            return t1, t2


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--pairs", type=int, default=50)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    header = "generator".ljust(20) + "".join(
        f"eps={e:<9.0e}" for e in EPSILONS) + "ratios"
    print(header)
    for name in BUILTIN_GENERATORS:
        rng = np.random.default_rng(args.seed)
        F = make_builtin(name, DIM)
        pairs = [sample_pair(rng, F.domain.kind, DIM)
                 for _ in range(args.pairs)]
        errors = []
        for eps in EPSILONS:
            worst = max(
                abs(bregman_chord_approx(F, t1, t2, eps)
                    - bregman(F, t1, t2))
                for t1, t2 in pairs)
            errors.append(worst)
        ratios = [errors[i] / errors[i + 1] for i in range(len(errors) - 1)]
        cells = "".join(f"{e:<13.3e}" for e in errors)
        print(name.ljust(20) + cells
              + " ".join(f"{r:.1f}" for r in ratios))


if __name__ == "__main__":
    main()
