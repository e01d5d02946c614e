#!/usr/bin/env python3
"""Sweep the chord divergence over an (alpha, beta) anchor grid.

Runs `chorddiv sweep`, which writes a CSV of all cells plus an SVG heatmap,
then reads the CSV back and prints where the chord divergence sits relative
to its ordinary Bregman upper bound.

    python scripts/sweep_demo.py --grid 12 --out-dir out
"""

import argparse
import sys
from pathlib import Path

from chorddiv.cli import main as chorddiv_main


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--generator", default="shannon_negentropy")
    ap.add_argument("--x", default="0.2", help="comma-separated point")
    ap.add_argument("--y", default="0.8", help="comma-separated point")
    ap.add_argument("--grid", type=int, default=12,
                    help="interior anchors per axis")
    ap.add_argument("--out-dir", default="out")
    args = ap.parse_args()

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path = out_dir / "chord_sweep.csv"
    svg_path = out_dir / "chord_sweep.svg"
    code = chorddiv_main([
        "sweep", "--generator", args.generator, "--div", "bregman_chord",
        "--x", args.x, "--y", args.y, "--grid", str(args.grid),
        "--out", str(csv_path), "--svg", str(svg_path),
    ])
    if code:
        sys.exit(code)

    values = []
    bound = None
    for line in csv_path.read_text().splitlines()[1:]:
        if line.startswith("# bregman="):
            bound = float(line.split("=", 1)[1])
        else:
            values.append(float(line.rsplit(",", 1)[1]))
    print(f"generator        {args.generator}")
    print(f"cells            {len(values)}")
    print(f"min cell         {min(values):.6g}")
    print(f"max cell         {max(values):.6g}")
    if bound is not None:
        print(f"bregman bound    {bound:.6g}")
        print(f"sandwich holds   {0.0 <= min(values) and max(values) <= bound + 1e-12}")
    print(f"wrote {csv_path} and {svg_path}")


if __name__ == "__main__":
    main()
