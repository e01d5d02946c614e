"""Command line interface.

Subcommands:
    eval     evaluate one divergence at a pair of points
    sweep    evaluate a chord divergence over an (alpha, beta) grid to CSV,
             optionally rendering an SVG heatmap; the output text is made
             once per distinct anchor and joined per cell
    cluster  k-means over a points CSV under any divergence; prints a
             warning to stderr for each numeric center search that hit its
             sweep cap or ended on the edge of its box
    verify   run the randomized property suites

Exit codes: 0 success, 2 usage error (including unknown generator,
divergence, or suite names), 3 domain or math error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Callable, List, Optional

import numpy as np

from .bregman import bregman
from .clustering import NO_RIGHT_CENTROID, ClusterConfig, kmeans
from .errors import (
    ChorddivError,
    DomainError,
    ParseError,
    UnknownDivergenceError,
    UnsupportedGeneratorError,
)
from .generators import BUILTIN_GENERATORS, make_builtin
from .registry import (known_divergences, resolve_divergence, sweep,
                       sweep_divergences)
from .verify import SUITES, run_all, run_suite

PARAM_FLAGS = ("alpha", "beta", "gamma", "delta", "epsilon")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from exc
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"value must be finite: {text!r}")
    return value


def _vector(text: str) -> List[float]:
    parts = [p.strip() for p in text.split(",")]
    if not parts or any(p == "" for p in parts):
        raise argparse.ArgumentTypeError(
            f"expected comma-separated numbers, got {text!r}"
        )
    return [_finite_float(p) for p in parts]


def _int_at_least(low: int) -> Callable[[str], int]:
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(
                f"not an integer: {text!r}") from exc
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}: {text!r}")
        return value
    return parse


def _add_param_flags(parser: argparse.ArgumentParser) -> None:
    for name in PARAM_FLAGS:
        parser.add_argument(f"--{name}", type=_finite_float, default=None,
                            help=f"divergence parameter {name}")


def _params_from(args: argparse.Namespace) -> dict:
    return {name: getattr(args, name) for name in PARAM_FLAGS
            if getattr(args, name, None) is not None}


@functools.lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: its help texts come from static
    tables, so main builds it on the first call only."""
    parser = argparse.ArgumentParser(
        prog="chorddiv",
        description="Chord Bregman divergences, Jensen and f-divergence "
                    "families, divergence k-means, and anchor sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    one_of = "divergence identifier, one of: "
    div_help = one_of + ", ".join(known_divergences())

    p_eval = sub.add_parser(
        "eval", help="evaluate a divergence at one pair of points")
    p_eval.add_argument("--generator", default="quadratic",
                        help="built-in generator name: "
                             + ", ".join(BUILTIN_GENERATORS)
                             + " (ignored by the f-divergence family)")
    p_eval.add_argument("--div", required=True, help=div_help)
    p_eval.add_argument("--x", type=_vector, required=True,
                        help="first point, comma-separated coordinates")
    p_eval.add_argument("--y", type=_vector, required=True,
                        help="second point, comma-separated coordinates")
    _add_param_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sweep = sub.add_parser(
        "sweep", help="evaluate a divergence over an (alpha, beta) grid")
    p_sweep.add_argument("--generator", default="quadratic",
                         help="built-in generator name")
    p_sweep.add_argument("--div", default="bregman_chord",
                         help=one_of + ", ".join(sweep_divergences())
                         + " (default %(default)s)")
    p_sweep.add_argument("--x", type=_vector, required=True)
    p_sweep.add_argument("--y", type=_vector, required=True)
    p_sweep.add_argument("--grid", type=_int_at_least(1), required=True,
                         help="N interior anchors per axis: alpha from "
                              "{i/(N+1)}, beta additionally includes 1.0")
    p_sweep.add_argument("--out", required=True, help="output CSV path")
    p_sweep.add_argument("--svg", default=None,
                         help="optional SVG heatmap path")
    _add_param_flags(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_cluster = sub.add_parser(
        "cluster", help="k-means over a headerless points CSV")
    p_cluster.add_argument("--input", required=True,
                           help="points CSV, one comma-separated point per "
                                "line, no header")
    p_cluster.add_argument("--k", type=_int_at_least(1), required=True)
    p_cluster.add_argument("--generator", default="quadratic")
    p_cluster.add_argument("--div", default="bregman",
                           help=div_help + "; k-means refuses "
                           + " and ".join(NO_RIGHT_CENTROID)
                           + ", which have no right centroid "
                           "(default %(default)s)")
    p_cluster.add_argument("--seed", type=_int_at_least(0), default=0,
                           help="random seed, >= 0 (default %(default)s)")
    p_cluster.add_argument("--max-iters", type=_int_at_least(1), default=100)
    p_cluster.add_argument("--out-assignments", default="assignments.csv",
                           help="output CSV of index,cluster rows")
    p_cluster.add_argument("--out-summary", default="summary.json",
                           help="output JSON summary path")
    _add_param_flags(p_cluster)
    p_cluster.set_defaults(func=cmd_cluster)

    p_verify = sub.add_parser(
        "verify", help="run the randomized property suites")
    p_verify.add_argument("--suite", default=None,
                          help="run one suite: " + ", ".join(SUITES))
    p_verify.add_argument("--trials", type=_int_at_least(1), default=200)
    p_verify.add_argument("--seed", type=_int_at_least(0), default=0,
                          help="random seed, >= 0 (default %(default)s)")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def cmd_eval(args: argparse.Namespace) -> int:
    if len(args.x) != len(args.y):
        print(f"error: point dimensions differ: {len(args.x)} vs "
              f"{len(args.y)}", file=sys.stderr)
        return 2
    F = make_builtin(args.generator, len(args.x))
    D = resolve_divergence(args.div, F, _params_from(args))
    value = float(D(np.array(args.x), np.array(args.y)))
    if not np.isfinite(value):
        raise DomainError(
            f"divergence {args.div!r} produced a non-finite value {value}"
        )
    print(f"{value:.12g}")
    return 0


def _sweep_grid(n: int) -> tuple:
    alphas = [i / (n + 1) for i in range(1, n + 1)]
    return alphas, alphas + [1.0]


def _write_sweep_csv(path: str, rows, bound: Optional[float]) -> None:
    # each distinct anchor is repr-ed once, then joined into its cells
    names = {x: repr(x) for x in
             {a for a, _, _ in rows} | {b for _, b, _ in rows}}
    lines = ["alpha,beta,value"]
    lines += [f"{names[a]},{names[b]},{v:.12g}" for a, b, v in rows]
    if bound is not None:
        lines.append(f"# bregman={bound:.12g}")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


_HEX = [f"{i:02x}" for i in range(256)]
# light-to-dark blue ramp
_RAMP_LO = np.array([247.0, 251.0, 255.0])
_RAMP_HI = np.array([8.0, 48.0, 107.0])


def _heat_colors(t: np.ndarray) -> List[str]:
    """'#rrggbb' of the ramp at each t in [0, 1]; np.rint rounds half to
    even, as Python's round does."""
    rgb = np.rint(_RAMP_LO + t[:, None] * (_RAMP_HI - _RAMP_LO))
    return ["#" + _HEX[r] + _HEX[g] + _HEX[b]
            for r, g, b in rgb.astype(int).tolist()]


def render_heatmap_svg(rows, alphas, betas, title: str) -> str:
    """Self-contained SVG heatmap: alpha on the horizontal axis, beta on the
    vertical axis (increasing upward), linear color scale annotated with the
    min and max cell values."""
    left, top, cell, gap = 90.0, 40.0, 30.0, 1.0
    plot_w = len(alphas) * cell
    plot_h = len(betas) * cell
    width = left + plot_w + 160.0
    height = top + plot_h + 70.0
    values = [v for _, _, v in rows]
    vmin, vmax = min(values), max(values)
    span = vmax - vmin
    t = (np.full(len(values), 0.5) if span == 0.0
         else (np.array(values) - vmin) / span)
    # the rect text is made once per alpha column and once per beta row
    x_text = {a: f'<rect x="{left + i * cell:.1f}" '
              for i, a in enumerate(alphas)}
    y_text = {b: f'y="{top + (len(betas) - 1 - i) * cell:.1f}" '
                 f'width="{cell - gap:.1f}" height="{cell - gap:.1f}" fill="'
              for i, b in enumerate(betas)}

    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    out += [x_text[a] + y_text[b] + color + '"/>'
            for (a, b, _), color in zip(rows, _heat_colors(t))]
    # axis tick labels (thinned when the grid is dense)
    step = max(1, len(alphas) // 10)
    for i, a in enumerate(alphas):
        if i % step and i != len(alphas) - 1:
            continue
        x = left + i * cell + cell / 2
        out.append(
            f'<text x="{x:.1f}" y="{top + plot_h + 16:.1f}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="9">'
            f'{a:.3g}</text>'
        )
    step = max(1, len(betas) // 10)
    for i, b in enumerate(betas):
        if i % step and i != len(betas) - 1:
            continue
        y = top + (len(betas) - 1 - i) * cell + cell / 2 + 3
        out.append(
            f'<text x="{left - 8:.1f}" y="{y:.1f}" text-anchor="end" '
            f'font-family="sans-serif" font-size="9">{b:.3g}</text>'
        )
    out.append(
        f'<text x="{left + plot_w / 2:.1f}" y="{top + plot_h + 40:.1f}" '
        f'text-anchor="middle" font-family="sans-serif" font-size="12">'
        f'alpha</text>'
    )
    out.append(
        f'<text x="20" y="{top + plot_h / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="12" '
        f'transform="rotate(-90 20 {top + plot_h / 2:.1f})">beta</text>'
    )
    # color legend
    lx = left + plot_w + 30.0
    low, high = _heat_colors(np.array([0.0, 1.0]))
    out.append(
        '<defs><linearGradient id="scale" x1="0" y1="1" x2="0" y2="0">'
        f'<stop offset="0" stop-color="{low}"/>'
        f'<stop offset="1" stop-color="{high}"/>'
        '</linearGradient></defs>'
    )
    out.append(
        f'<rect x="{lx:.1f}" y="{top:.1f}" width="16" '
        f'height="{plot_h:.1f}" fill="url(#scale)" stroke="black" '
        f'stroke-width="0.5"/>'
    )
    out.append(
        f'<text x="{lx + 22:.1f}" y="{top + 10:.1f}" '
        f'font-family="sans-serif" font-size="10">max={vmax:.6g}</text>'
    )
    out.append(
        f'<text x="{lx + 22:.1f}" y="{top + plot_h:.1f}" '
        f'font-family="sans-serif" font-size="10">min={vmin:.6g}</text>'
    )
    out.append("</svg>")
    return "\n".join(out) + "\n"


def cmd_sweep(args: argparse.Namespace) -> int:
    if len(args.x) != len(args.y):
        print(f"error: point dimensions differ: {len(args.x)} vs "
              f"{len(args.y)}", file=sys.stderr)
        return 2
    F = make_builtin(args.generator, len(args.x))
    alphas, betas = _sweep_grid(args.grid)
    x = np.array(args.x)
    y = np.array(args.y)
    rows = sweep(F, x, y, alphas, betas, args.div, _params_from(args))
    bound = bregman(F, x, y) if F.has_grad else None
    _write_sweep_csv(args.out, rows, bound)
    if args.svg is not None:
        title = (f"{args.div} / {args.generator}  x={args.x}  y={args.y}")
        svg = render_heatmap_svg(rows, alphas, betas, title)
        with open(args.svg, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(svg)
    print(f"wrote {len(rows)} cells to {args.out}")
    return 0


def _read_points(path: str) -> np.ndarray:
    rows = []
    width = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                coords = [float(p) for p in text.split(",")]
            except ValueError as exc:
                raise ParseError(
                    f"{path}: line {lineno}: not a numeric row: {text!r}"
                ) from exc
            if not all(np.isfinite(c) for c in coords):
                raise ParseError(
                    f"{path}: line {lineno}: non-finite coordinate"
                )
            if width is None:
                width = len(coords)
            elif len(coords) != width:
                raise ParseError(
                    f"{path}: line {lineno}: expected {width} coordinates, "
                    f"got {len(coords)}"
                )
            rows.append(coords)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return np.array(rows)


def cmd_cluster(args: argparse.Namespace) -> int:
    points = _read_points(args.input)
    F = make_builtin(args.generator, points.shape[1])
    cfg = ClusterConfig(
        k=args.k,
        divergence=args.div,
        params=_params_from(args),
        max_iters=args.max_iters,
        seed=args.seed,
    )
    result = kmeans(points, F, cfg)
    for iteration, j, sweeps, capped, on_edge in result.center_solves:
        ended = [text for text, flag in (
            (f"hit its cap of {sweeps} sweeps", capped),
            ("ended on the edge of its box", on_edge),
        ) if flag]
        if ended:
            print(f"warning: center {j} at iteration {iteration}: the "
                  f"numeric search {' and '.join(ended)}", file=sys.stderr)
    with open(args.out_assignments, "w", encoding="utf-8",
              newline="\n") as fh:
        for i, label in enumerate(result.assignments):
            fh.write(f"{i},{int(label)}\n")
    summary = {
        "objective": result.objective_trace[-1],
        "iterations": result.iterations,
        "centers": [list(map(float, c)) for c in result.centers],
        "seed": args.seed,
    }
    with open(args.out_summary, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(summary, fh, indent=2)
        fh.write("\n")
    print(f"objective {result.objective_trace[-1]:.12g} after "
          f"{result.iterations} iterations")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.suite is not None and args.suite not in SUITES:
        print(f"error: unknown suite {args.suite!r}; known suites: "
              f"{', '.join(SUITES)}", file=sys.stderr)
        return 2
    if args.suite is None:
        results = run_all(args.trials, args.seed)
    else:
        results = [run_suite(args.suite, args.trials, args.seed)]
    all_passed = True
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{res.name}: {status} (worst margin {res.worst:.3e}; "
              f"{res.detail})")
        all_passed = all_passed and res.passed
    return 0 if all_passed else 3


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (UnknownDivergenceError, UnsupportedGeneratorError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ChorddivError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ZeroDivisionError, FloatingPointError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
