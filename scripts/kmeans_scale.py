#!/usr/bin/env python3
"""k-means at scale: time, peak memory and a result digest per probe.

Two probes, shannon_negentropy bregman_chord at alpha 0.9, beta 1:

* n = 20,000 points, d = 8, k = 8, at most 5 Lloyd iterations;
* n = 50,000 points, d = 16, k = 16, one iteration.

The data are k centers drawn uniformly on (0.5, 5)^d; each point is one of
them, picked uniformly, times uniform(0.8, 1.25) per coordinate, all from
numpy's default_rng(1). Each probe runs in a child process of its own, so
its peak resident memory (ru_maxrss) is its own, and prints one line: the
probe, its kmeans seconds, its peak RSS in MB and one SHA-256 over the
centers' bytes and the labels. Two source trees that print the same digest
on one machine give the same centers and labels bit for bit (numpy's log
may differ by an ulp across builds, so the digest is not portable).

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

#: (n, d, k, max_iters) of each probe.
PROBES = {"20000x8x8": (20_000, 8, 8, 5), "50000x16x16": (50_000, 16, 16, 1)}


def blobs(n: int, d: int, k: int) -> np.ndarray:
    rng = np.random.default_rng(1)
    centers = rng.uniform(0.5, 5.0, (k, d))
    picks = rng.integers(0, k, n)
    return centers[picks] * rng.uniform(0.8, 1.25, (n, d))


def run(probe: str, n: int) -> str:
    _, d, k, iters = PROBES[probe]
    pts = blobs(n, d, k)
    cfg = ClusterConfig(k=k, divergence="bregman_chord",
                        params={"alpha": 0.9, "beta": 1.0}, max_iters=iters)
    start = time.perf_counter()
    res = kmeans(pts, make_builtin("shannon_negentropy", d), cfg)
    seconds = time.perf_counter() - start
    # ru_maxrss is in kB on Linux
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    digest = hashlib.sha256(res.centers.tobytes()
                            + res.assignments.astype(np.int64).tobytes())
    return (f"{probe} n={n} iterations={res.iterations} "
            f"seconds={seconds:.3f} peak_rss_mb={peak_mb:.0f} "
            f"digest={digest.hexdigest()}")


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
        print(run(args.probe, args.n or PROBES[args.probe][0]), flush=True)
        return
    for probe in PROBES:
        argv = [sys.executable, __file__, "--probe", probe]
        if args.n:
            argv += ["--n", str(args.n)]
        subprocess.run(argv, check=True)


if __name__ == "__main__":
    main()
