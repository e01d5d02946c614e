"""The three benchmark workloads: seeded inputs, operations and output checks.

Sizes, ranges and parameters live in the ``design`` section of spec.json
and nowhere else. Every pass over a workload's operation list draws fresh
inputs from ``(seed, pass)``, before that pass's operations are timed, so no
call can reuse work from an earlier call on the same inputs; cluster is the
exception (see spec.json). The library never sees the seed.

``build`` runs in the fresh worker interpreter after ``chorddiv`` is
imported: it makes the generators and resolves the divergences once, and
returns a ``Workload`` whose ``pass_ops(k)`` lists, for pass k, each
operation's case, its zero-argument call, the check of its output and the
files it writes. Every operation of a pass writes its own files, so the
checks can run after the pass and the timed calls follow each other.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

import reference as ref

DESIGN = json.loads((Path(__file__).resolve().parent / "spec.json")
                    .read_text(encoding="utf-8"))["design"]
PAIRS = DESIGN["pairs"]
SWEEP = DESIGN["sweep"]
CLUSTER = DESIGN["cluster"]

BUILTINS = tuple(PAIRS["builtin_generators"])
#: Gradient-free custom generator: F(t) = sum exp(t_i), only ``fn`` set.
CUSTOM = PAIRS["custom_generator"]
GRAD_IDS = tuple(PAIRS["gradient_ids"])
GRAD_FREE_IDS = tuple(PAIRS["gradient_free_ids"])
FDIV_IDS = tuple(PAIRS["fdiv_ids"])
PAIRS_IDS = GRAD_IDS + GRAD_FREE_IDS + FDIV_IDS
PARAMS = PAIRS["params"]
#: Rows a sweep writes: grid alphas x (grid + 1) betas minus the diagonal.
SWEEP_ROWS = SWEEP["grid"] * (SWEEP["grid"] + 1) - SWEEP["grid"]

WORKLOADS = ("pairs", "sweep", "cluster")
TAIL_PERCENTILE = {name: DESIGN[name]["tail_percentile"]
                   for name in WORKLOADS}
TRACE_PASSES = {name: DESIGN[name]["trace_passes"] for name in WORKLOADS}


def measure_seconds(workload: str, seconds: float) -> float:
    """Measuring time of an untraced run: ``seconds``, or the workload's
    ``min_seconds`` if that is longer."""
    return max(seconds, DESIGN[workload].get("min_seconds", 0))


def min_ops(workload: str) -> int:
    """Fewest executions that leave ten above the tail percentile."""
    p = TAIL_PERCENTILE[workload] / 100.0
    return int(np.ceil(10.0 / (1.0 - p) - 1e-9))


# -- inputs ---------------------------------------------------------------------

def _log_uniform(rng, lo, hi, size=None):
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size))


def draw_pair(rng, d: int) -> tuple:
    """A positive point and a second point at a spread relative gap: each
    coordinate's gap lies between half the drawn gap and the full gap."""
    mag = _log_uniform(rng, *PAIRS["coordinate_magnitude"])
    x = mag * rng.uniform(0.5, 1.5, d)
    gap = _log_uniform(rng, *PAIRS["relative_gap"])
    sign = rng.choice((-1.0, 1.0), d)
    y = x * (1.0 + gap * sign * rng.uniform(0.5, 1.0, d))
    return x.tolist(), y.tolist()


def cases(workload: str) -> list:
    """The workload's cases; every pass runs each case the same number of
    times, and the per-operation statistics are kept per case."""
    if workload == "pairs":
        out = []
        for d in PAIRS["dims"]:
            for gen in BUILTINS:
                out += [(gen, div, d) for div in GRAD_IDS + GRAD_FREE_IDS]
            out += [(CUSTOM, div, d) for div in GRAD_FREE_IDS]
            out += [("", div, d) for div in FDIV_IDS]
        return out
    if workload == "sweep":
        return [(gen, d) for d in SWEEP["dims"]
                for gen in SWEEP["generators"]]
    return [(c["generator"], c["divergence"], c["params"])
            for c in CLUSTER["configs"]]


def pass_inputs(workload: str, seed: int, k: int) -> list:
    """Inputs of pass ``k``: ``(case index, x, y)`` in a seeded order
    (``x = y = None`` for cluster, whose dataset is fixed)."""
    rng = np.random.default_rng([seed, k])
    all_cases = cases(workload)
    if workload == "pairs":
        ops = [(c, *draw_pair(rng, case[2]))
               for c, case in enumerate(all_cases)
               for _ in range(PAIRS["inputs_per_case"])]
    elif workload == "sweep":
        ops = [(c, *draw_pair(rng, case[1]))
               for c, case in enumerate(all_cases)
               for _ in range(SWEEP["inputs_per_case"])]
    else:
        ops = [(c, None, None) for c in range(len(all_cases))]
    return [ops[i] for i in rng.permutation(len(ops))]


def cluster_points() -> np.ndarray:
    """The fixed 2-D dataset: two blobs, |p| + 0.05 keeps it positive."""
    rng = np.random.default_rng(CLUSTER["design_seed"])
    centers = rng.uniform(*CLUSTER["blob_centers"], (2, 2))
    half = CLUSTER["points"] // 2
    sd = CLUSTER["blob_sd"]
    pts = np.vstack([
        centers[0] + sd * rng.standard_normal((half, 2)),
        centers[1] + sd * rng.standard_normal((CLUSTER["points"] - half, 2)),
    ])
    return np.abs(pts) + 0.05


def prepare(workload: str, workdir: str) -> None:
    """Files a workload reads (the cluster CSV), written before set-up."""
    if workload == "cluster":
        with open(os.path.join(workdir, "points.csv"), "w",
                  encoding="utf-8") as fh:
            fh.writelines(f"{float(a)!r},{float(b)!r}\n"
                          for a, b in cluster_points())


# -- worker side ------------------------------------------------------------------

def _exp_sum(t):
    return float(np.sum(np.exp(t)))


class Op(NamedTuple):
    """One execution: its case, the call to time, the check of the call's
    result (run after the whole pass, untimed) and the files it writes."""
    case: int
    call: Callable
    check: Callable
    outputs: tuple = ()


class Workload:
    """Cases, set-up state and per-pass operations of one workload;
    ``pass_ops(k)`` lists pass k's ``Op``s."""

    def __init__(self, cases_, pass_ops, warm_up):
        self.cases = cases_
        self.pass_ops = pass_ops
        self.warm_up = warm_up


def build(workload: str, seed: int, chorddiv, workdir: str,
          wrap_generator=None) -> Workload:
    """Generators, resolved divergences and per-pass operations.

    ``wrap_generator`` (traced runs) rebuilds each generator the benchmark
    creates; divergences are resolved through the registry module attribute
    so that a traced run sees traced callables.
    """
    wrap = wrap_generator or (lambda G: G)
    gens = {}

    def generator(gen: str, d: int):
        if (gen, d) not in gens:
            if gen == CUSTOM:
                G = chorddiv.Generator(CUSTOM, d, chorddiv.Domain("reals"),
                                       _exp_sum)
            else:
                G = chorddiv.make_builtin(gen, d)
            gens[(gen, d)] = wrap(G)
        return gens[(gen, d)]

    make = {"pairs": _build_pairs, "sweep": _build_sweep,
            "cluster": _build_cluster}[workload]
    return make(seed, chorddiv, generator, workdir)


def _build_pairs(seed, chorddiv, generator, workdir):
    all_cases = cases("pairs")
    resolved = [chorddiv.registry.resolve_divergence(
        div, generator(gen, d) if gen else None, PARAMS.get(div, {}))
        for gen, div, d in all_cases]

    def check(c, x, y):
        gen, div, _ = all_cases[c]

        def ok(result) -> bool:
            want, scale = ref.divergence(div, gen, x, y, PARAMS.get(div, {}))
            return result is not None and \
                abs(float(result) - float(want)) <= ref.tolerance(scale)
        return ok

    def pass_ops(k):
        ops = []
        for c, x, y in pass_inputs("pairs", seed, k):
            xa, ya = np.array(x), np.array(y)
            ops.append(Op(c, lambda D=resolved[c], xa=xa, ya=ya: D(xa, ya),
                          check(c, x, y)))
        return ops

    d0 = all_cases[0][2]
    return Workload(all_cases, pass_ops,
                    lambda: resolved[0](np.full(d0, 0.5), np.full(d0, 0.75)))


def _cli_call(chorddiv, argv):
    def call():
        with contextlib.redirect_stdout(io.StringIO()):
            return chorddiv.cli.main(argv)
    return call


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def cli_check(call, outputs, check_one, first=None, key=None, rerun=False):
    """Check of one CLI execution: exit code 0 and output files that pass
    ``check_one``. With ``first`` the bytes must equal those of the first
    execution with the same ``key``; with ``rerun`` the command runs once
    more, untimed, and must write the same bytes again."""
    def ok(rc) -> bool:
        if rc != 0:
            return False
        parts = tuple(_read(p) for p in outputs)
        if not check_one(parts):
            return False
        if first is not None and first.setdefault(key, parts) != parts:
            return False
        return not rerun or (call() == 0 and
                             tuple(_read(p) for p in outputs) == parts)
    return ok


def _build_sweep(seed, chorddiv, generator, workdir):
    all_cases = cases("sweep")
    resolved = [chorddiv.registry.resolve_divergence(
        "bregman_chord", generator(gen, d), {"alpha": 0.5, "beta": 1.0})
        for gen, d in all_cases]

    def pass_ops(k):
        ops = []
        for i, (c, x, y) in enumerate(pass_inputs("sweep", seed, k)):
            gen = all_cases[c][0]
            csv = os.path.join(workdir, f"sweep-{i}.csv")
            svg = os.path.join(workdir, f"sweep-{i}.svg")
            argv = ["sweep", "--generator", gen, "--div", "bregman_chord",
                    "--x", ",".join(map(repr, x)),
                    "--y", ",".join(map(repr, y)),
                    "--grid", str(SWEEP["grid"]), "--out", csv, "--svg", svg]
            call = _cli_call(chorddiv, argv)
            ops.append(Op(c, call, cli_check(
                call, (csv,),
                lambda parts, gen=gen, x=x, y=y:
                    check_sweep_csv(gen, x, y, parts[0].decode()),
                rerun=k == 0), (csv, svg)))
        return ops

    d0 = all_cases[0][1]
    return Workload(all_cases, pass_ops,
                    lambda: resolved[0](np.full(d0, 0.5), np.full(d0, 0.75)))


def check_sweep_csv(gen: str, x, y, text: str) -> bool:
    """Row count and 0 <= cell <= bregman bound, within rounding."""
    lines = text.splitlines()
    if not lines or lines[0] != "alpha,beta,value":
        return False
    if not lines[-1].startswith("# bregman="):
        return False
    bound = float(lines[-1].split("=", 1)[1])
    rows = [tuple(map(float, ln.split(","))) for ln in lines[1:-1]]
    if len(rows) != SWEEP_ROWS:
        return False
    x = np.asarray(x, dtype=ref.LD)
    y = np.asarray(y, dtype=ref.LD)
    _, b_scale = ref.divergence("bregman", gen, x, y, {})
    scales = {}
    for lam in {r[0] for r in rows} | {r[1] for r in rows} | {0.0}:
        scales[lam] = ref.generator_scale(gen, (1 - ref.LD(lam)) * x
                                          + ref.LD(lam) * y)
    rounding = DESIGN["checks"]["csv_rounding"]
    for a, b, v in rows:
        w = a / abs(b - a)
        scale = scales[0.0] + scales[a] * (1 + w) + scales[b] * w
        tol = (ref.tolerance(scale + float(b_scale))
               + rounding * (abs(v) + abs(bound)))
        if not (-tol <= v <= bound + tol):
            return False
    return True


def _build_cluster(seed, chorddiv, generator, workdir):
    points = os.path.join(workdir, "points.csv")
    all_cases = cases("cluster")
    resolved = [chorddiv.registry.resolve_divergence(
        div, generator(gen, 2), params) for gen, div, params in all_cases]
    pts = np.loadtxt(points, delimiter=",", ndmin=2)
    ops = []
    first = {}
    for c, (gen, div, params) in enumerate(all_cases):
        outputs = (os.path.join(workdir, f"assignments-{c}.csv"),
                   os.path.join(workdir, f"summary-{c}.json"))
        argv = ["cluster", "--input", points, "--k", str(CLUSTER["k"]),
                "--generator", gen, "--div", div,
                "--out-assignments", outputs[0], "--out-summary", outputs[1]]
        for key, value in params.items():
            argv += [f"--{key}", repr(value)]
        call = _cli_call(chorddiv, argv)
        ops.append(Op(c, call, cli_check(
            call, outputs,
            lambda parts, c=c: check_cluster(
                all_cases[c], pts, *(p.decode() for p in parts)),
            first, c), outputs))

    def pass_ops(k):
        return [ops[c] for c, _, _ in pass_inputs("cluster", seed, k)]

    return Workload(all_cases, pass_ops, lambda: resolved[0](pts[0], pts[1]))


def check_cluster(case, pts, assignments: str, summary: str) -> bool:
    """Objective recomputed from the written assignments and centers, and
    every point of a non-singleton cluster at a divergence-nearest center."""
    gen, div, params = case
    rows = [ln.split(",") for ln in assignments.splitlines()]
    summary = json.loads(summary)
    labels = [int(r[1]) for r in rows]
    centers = summary["centers"]
    k = CLUSTER["k"]
    if len(labels) != len(pts) or len(centers) != k:
        return False
    table = [[ref.divergence(div, gen, p, c, params) for c in centers]
             for p in pts]
    total = sum(float(table[i][j][0]) for i, j in enumerate(labels))
    scale = sum(float(table[i][j][1]) + abs(float(table[i][j][0]))
                * len(pts) for i, j in enumerate(labels))
    if not abs(summary["objective"] - total) <= ref.tolerance(scale):
        return False
    sizes = np.bincount(labels, minlength=k)
    for i, j in enumerate(labels):
        if sizes[j] < 2:
            continue
        own, own_scale = table[i][j]
        for other, other_scale in table[i]:
            tol = ref.tolerance(own_scale + other_scale)
            if float(own) > float(other) + tol:
                return False
    return True
