#!/usr/bin/env python3
"""Bit-identity probe for k-means: one SHA-256 over a fixed grid of runs.

Runs chorddiv.kmeans on every combination of

* two point sets, CI's 40 cluster points and a 12-point set with 4 repeated
  rows, each at d = 1 (its first column) and d = 2;
* the four builtin generators and a custom expsum, sum_j exp(t_j), with a
  gradient and no rows;
* k = 2 and 3, seed 1;
* 23 ids that between them take every center path: the member mean, the
  left-sided centroid, the coordinatewise median, the concave-convex
  update (the chord ids with an anchor at 1 and the skewed Jensen ids
  under a generator with a left-sided centroid rule), the lockstep search
  (jensen_chord under shannon and Burg) and coordinate descent, and kl,
  which kmeans refuses.

Each run is recorded as the repr of its result (centers as bytes, labels,
objective trace, iterations, center_solves), or of its exception's class
and message. The script prints the run count, one SHA-256 over all records
and one over the labels alone (a refused run's exception standing in for
its labels). Two source trees that print the same first digest on the same
machine give the same k-means results bit for bit; the same second digest,
the same labels, which shows a change that moves centers within the search
tolerance but leaves every label as it was. The digests are not portable:
numpy's log and exp may differ by an ulp from one build to another, so
compare two trees on one machine only.

    PYTHONPATH=src PYTHONWARNINGS=error python scripts/kmeans_digest.py
"""

import hashlib

import numpy as np

from chorddiv import (
    BUILTIN_GENERATORS,
    ChorddivError,
    ClusterConfig,
    Domain,
    Generator,
    kmeans,
    make_builtin,
)

SKEWS = {"gamma": 0.1, "delta": 0.9}
CHORD = {"alpha": 0.9, "beta": 1.0}

#: (id, params), in the order the records are hashed.
IDS = [
    ("bregman", {}),
    ("bregman_dual", {}),
    ("bregman_tangent", {"alpha": 0.5}),
    ("bregman_tangent", {"alpha": 1.0}),
    ("bregman_chord", CHORD),
    ("bregman_chord_approx", {"epsilon": 1e-3}),
    ("jensen", {}),
    ("jensen_skewed", {"alpha": 0.3}),
    ("jensen_chord", {"alpha": 0.2, "beta": 0.8, "gamma": 0.5}),
    ("ekl", {}),
    ("kl", {}),
    ("fdiv:chi2", {}),
    ("fdiv:tv", {}),
    ("fdiv_dual:kl", {}),
    ("fdiv_jssym:chi2", {}),
    ("fdiv_jssym:kl", {}),
    ("fdiv_jsym:tv", {}),
    *((f"biskew:{inner}", {**CHORD, **SKEWS})
      for inner in ("bregman_chord", "bregman", "bregman_tangent", "jensen",
                    "fdiv:chi2", "ekl")),
]


def point_sets() -> list:
    """CI's 40 cluster points and 12 points of which 4 repeat earlier rows,
    each 2-D."""
    rng = np.random.default_rng(0)
    ci = np.vstack([rng.uniform(0.2, 1.0, (20, 2)),
                    rng.uniform(2.0, 3.0, (20, 2))])
    base = np.random.default_rng(5).uniform(0.3, 2.5, (8, 2))
    return [ci, np.vstack([base, base[[0, 3, 3, 6]]])]


def expsum(dim: int) -> Generator:
    return Generator(name="expsum", dim=dim, domain=Domain("reals"),
                     fn=lambda t: float(np.sum(np.exp(t))), grad_fn=np.exp)


def record(points, F, cfg) -> tuple:
    """The run's full record and its labels' record."""
    try:
        res = kmeans(points, F, cfg)
    except ChorddivError as exc:
        refused = repr((type(exc).__name__, str(exc)))
        return refused, refused
    return (repr((res.centers.tobytes(), res.assignments.tolist(),
                  res.objective_trace, res.iterations, res.center_solves)),
            repr(res.assignments.tolist()))


def main() -> None:
    digest, labels = hashlib.sha256(), hashlib.sha256()
    runs = 0
    for pts in point_sets():
        for dim in (1, 2):
            points = pts[:, :dim]
            generators = [make_builtin(name, dim)
                          for name in BUILTIN_GENERATORS] + [expsum(dim)]
            for F in generators:
                for k in (2, 3):
                    for div, params in IDS:
                        cfg = ClusterConfig(k=k, divergence=div,
                                            params=params, seed=1)
                        full, assigned = record(points, F, cfg)
                        digest.update(full.encode() + b"\n")
                        labels.update(assigned.encode() + b"\n")
                        runs += 1
    print(runs, digest.hexdigest(), labels.hexdigest())


if __name__ == "__main__":
    main()
