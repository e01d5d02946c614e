#!/usr/bin/env python3
"""k-means at scale: time, peak memory and a result digest per probe.

Two probes, shannon_negentropy bregman_chord at alpha 0.9, beta 1, on
uniform blobs:

* n = 20,000 points, d = 8, k = 8, at most 5 Lloyd iterations;
* n = 50,000 points, d = 16, k = 16, one iteration.

The data are k centers drawn uniformly on (0.5, 5)^d; each point is one of
them, picked uniformly, times uniform(0.8, 1.25) per coordinate, all from
numpy's default_rng(1).

Two probes under log_sum_exp, jensen and bregman_chord at alpha 0.9,
beta 1, the concave-convex centers of a generator without a conjugate:
n = 1,000 points, d = 2, k = 2, on normal blobs, half from normal(0, 0.3)
and half from normal(3, 0.3) per coordinate, from default_rng(1).

Each probe runs in a child process of its own, so its peak resident
memory (ru_maxrss) is its own, and prints one line: the probe, its kmeans
seconds, its peak RSS in MB, how many of its center updates were capped
and one SHA-256 over the centers' bytes and the labels. Two source trees
that print the same digest on one machine give the same centers and
labels bit for bit (numpy's log may differ by an ulp across builds, so
the digest is not portable).

    PYTHONPATH=src python scripts/kmeans_scale.py
    PYTHONPATH=src python scripts/kmeans_scale.py --n 400   # a smoke run
"""

import argparse
import hashlib
import resource
import subprocess
import sys
import time

import numpy as np

from chorddiv import ClusterConfig, kmeans, make_builtin

CHORD = {"alpha": 0.9, "beta": 1.0}


def uniform_blobs(n: int, d: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(1)
    centers = rng.uniform(0.5, 5.0, (k, d))
    picks = rng.integers(0, k, n)
    return centers[picks] * rng.uniform(0.8, 1.25, (n, d))


def normal_blobs(n: int, d: int, k: int) -> np.ndarray:
    """Two blobs whatever k is."""
    rng = np.random.default_rng(1)
    half = n // 2
    return np.vstack([rng.normal(0.0, 0.3, (half, d)),
                      rng.normal(3.0, 0.3, (n - half, d))])


#: probe -> (generator, divergence, params, data, n, d, k, max_iters)
PROBES = {
    "20000x8x8": ("shannon_negentropy", "bregman_chord", CHORD,
                  uniform_blobs, 20_000, 8, 8, 5),
    "50000x16x16": ("shannon_negentropy", "bregman_chord", CHORD,
                    uniform_blobs, 50_000, 16, 16, 1),
    "log_sum_exp-jensen": ("log_sum_exp", "jensen", {}, normal_blobs,
                           1_000, 2, 2, 100),
    "log_sum_exp-bregman_chord": ("log_sum_exp", "bregman_chord", CHORD,
                                  normal_blobs, 1_000, 2, 2, 100),
}


def run(probe: str, n: int) -> str:
    gen, div, params, data, _, d, k, iters = PROBES[probe]
    pts = data(n, d, k)
    cfg = ClusterConfig(k=k, divergence=div, params=params, max_iters=iters)
    start = time.perf_counter()
    res = kmeans(pts, make_builtin(gen, d), cfg)
    seconds = time.perf_counter() - start
    # ru_maxrss is in kB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    capped = sum(capped for *_, capped, _ in res.center_solves)
    digest = hashlib.sha256(res.centers.tobytes()
                            + res.assignments.astype(np.int64).tobytes())
    return (f"{probe} n={n} iterations={res.iterations} "
            f"seconds={seconds:.3f} peak_rss_mb={peak_mb:.0f} "
            f"capped={capped} digest={digest.hexdigest()}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--probe", choices=PROBES,
                    help="run this probe in this process (default: each "
                         "probe in a child process of its own)")
    ap.add_argument("--n", type=int,
                    help="points per probe (default: the probe's own n)")
    args = ap.parse_args()
    if args.probe:
        print(run(args.probe, args.n or PROBES[args.probe][4]), flush=True)
        return
    for probe in PROBES:
        argv = [sys.executable, __file__, "--probe", probe]
        if args.n:
            argv += ["--n", str(args.n)]
        subprocess.run(argv, check=True)


if __name__ == "__main__":
    main()
