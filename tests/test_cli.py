"""End-to-end CLI behavior through main(argv): outputs, files, exit codes."""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import chorddiv
import chorddiv.verify
from chorddiv import (
    ClusterConfig,
    ShapeError,
    SuiteResult,
    adjusted_rand_index,
    kmeans,
    known_divergences,
    make_builtin,
)
from chorddiv.cli import (_heat_colors, _read_points, _sweep_grid,
                          _write_sweep_csv, build_parser, main,
                          render_heatmap_svg)
from chorddiv.registry import sweep


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_chord_frozen_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--div", "bregman_chord",
            "--x", "0", "--y", "1", "--alpha", "0.25", "--beta", "0.75")
        assert code == 0
        assert out.strip() == "0.1875"

    def test_default_generator_is_quadratic(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--div", "bregman", "--x", "0,0", "--y", "1,1")
        assert code == 0
        assert out.strip() == "2"

    def test_fdiv_kl_twelve_digits(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--div", "fdiv:kl",
            "--x", "0.5,0.5", "--y", "0.25,0.75")
        assert code == 0
        assert out.strip() == "0.143841036226"

    def test_identical_points_print_zero(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--div", "bregman_chord",
            "--x", "0.5", "--y", "0.5", "--alpha", "0.25", "--beta", "0.75")
        assert code == 0
        assert out.strip() == "0"

    def test_biskew_value(self, capsys):
        code, out, _ = run(
            capsys, "eval", "--div", "biskew:bregman",
            "--x", "0", "--y", "1", "--gamma", "0.25", "--delta", "0.75")
        assert code == 0
        assert out.strip() == "0.25"

    def test_equal_anchors_rejected(self, capsys):
        code, _, err = run(
            capsys, "eval", "--div", "bregman_chord",
            "--x", "0", "--y", "1", "--alpha", "0.5", "--beta", "0.5")
        assert code == 3
        assert "error" in err

    def test_epsilon_below_float_resolution(self, capsys):
        code, _, err = run(
            capsys, "eval", "--div", "bregman_chord_approx",
            "--x", "0", "--y", "1", "--epsilon", "1e-17")
        assert code == 3
        assert "epsilon" in err

    def test_missing_required_parameter(self, capsys):
        code, _, err = run(
            capsys, "eval", "--div", "bregman_tangent",
            "--x", "0", "--y", "1")
        assert code == 3
        assert "alpha" in err

    def test_unknown_generator(self, capsys):
        code, _, err = run(
            capsys, "eval", "--generator", "cubic", "--div", "bregman",
            "--x", "0", "--y", "1")
        assert code == 2
        assert "cubic" in err

    def test_unknown_divergence(self, capsys):
        code, _, err = run(
            capsys, "eval", "--div", "wasserstein", "--x", "0", "--y", "1")
        assert code == 2
        assert "wasserstein" in err

    @pytest.mark.parametrize("command", [
        ["eval", "--div", "bregman"],
        ["sweep", "--grid", "2", "--out", "{tmp}/sweep.csv"],
    ], ids=["eval", "sweep"])
    def test_dimension_mismatch(self, capsys, tmp_path, command):
        code, out, err = run(capsys, *(a.format(tmp=tmp_path)
                                       for a in command),
                             "--x", "0,0", "--y", "1")
        assert code == 2
        assert out == ""
        assert err == "error: point dimensions differ: 2 vs 1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (("eval", "--div", "bregman", "--x", "1,a", "--y", "0,0"),
         "not a number: 'a'"),
        (("eval", "--div", "bregman", "--x", "1,,2", "--y", "0,0,0"),
         "expected comma-separated numbers, got '1,,2'"),
        (("eval", "--div", "bregman", "--x", "nan", "--y", "0"),
         "value must be finite: 'nan'"),
        (("sweep", "--x", "0", "--y", "1", "--grid", "1.5"),
         "not an integer: '1.5'"),
    ], ids=["letter", "empty-entry", "nan", "fractional-grid"])
    def test_malformed_argument(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert message in err

    def test_domain_violation(self, capsys):
        code, _, err = run(
            capsys, "eval", "--generator", "shannon_negentropy",
            "--div", "bregman", "--x", "-1", "--y", "1")
        assert code == 3
        assert "error" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2

    @pytest.mark.parametrize("argv", [
        ("--div", "bregman_chord", "--x", "1e200", "--y", "2e200",
         "--alpha", "0.5", "--beta", "1"),
        ("--div", "bregman", "--x", "1e200", "--y", "2e200"),
        ("--div", "jensen", "--x", "1e300", "--y", "1.5e300"),
    ])
    def test_non_finite_value_is_a_domain_error(self, capsys, argv):
        # F(x) = x.x overflows to inf, and the divergence to nan
        with np.errstate(over="ignore"):
            code, out, err = run(capsys, "eval", *argv)
        assert code == 3
        assert out == ""
        assert "non-finite value nan" in err


class TestOverflowUnderWarningsAsErrors:
    """A fresh interpreter with PYTHONWARNINGS=error: an overflowing builtin
    still ends in the finiteness checks' exit 3, and no numpy warning
    reaches stderr."""

    BIG = "1e200,1e200\n1.1e200,1e200\n3e200,1e200\n3.1e200,1e200\n"

    @pytest.mark.parametrize("argv", [
        ["eval", "--div", "bregman", "--x", "1e200", "--y", "2e200"],
        ["eval", "--div", "bregman_chord", "--generator",
         "shannon_negentropy", "--x", "1e307", "--y", "1.5e307",
         "--alpha", "0.5", "--beta", "1"],
        ["eval", "--div", "jensen", "--x", "1e300", "--y", "1.5e300"],
        ["sweep", "--x", "1e200,1", "--y", "2e200,1", "--grid", "2",
         "--out", "{tmp}/sweep.csv"],
        ["cluster", "--input", "{tmp}/points.csv", "--k", "2",
         "--out-assignments", "{tmp}/a.csv", "--out-summary", "{tmp}/s.json"],
        ["cluster", "--input", "{tmp}/points.csv", "--k", "2", "--div",
         "bregman_chord", "--alpha", "0.9", "--beta", "1",
         "--out-assignments", "{tmp}/a.csv", "--out-summary", "{tmp}/s.json"],
        ["cluster", "--input", "{tmp}/points.csv", "--k", "2", "--div",
         "jensen", "--out-assignments", "{tmp}/a.csv",
         "--out-summary", "{tmp}/s.json"],
    ])
    def test_exits_3_without_a_warning(self, tmp_path, argv):
        (tmp_path / "points.csv").write_text(self.BIG)
        src = str(pathlib.Path(chorddiv.__file__).parents[1])
        env = {**os.environ, "PYTHONWARNINGS": "error",
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "chorddiv.cli",
             *(a.format(tmp=tmp_path) for a in argv)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr
        assert proc.stderr.startswith("error: ")
        assert "Warning" not in proc.stderr
        assert "non-finite" in proc.stderr or "not finite" in proc.stderr


class TestSweep:
    def expected_grid2_cells(self):
        third, two_thirds = 1.0 / 3.0, 2.0 / 3.0
        return [
            (third, two_thirds, third * two_thirds),
            (third, 1.0, third),
            (two_thirds, third, third * two_thirds),
            (two_thirds, 1.0, two_thirds),
        ]

    def test_grid_two_csv(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out, _ = run(
            capsys, "sweep", "--x", "0", "--y", "1", "--grid", "2",
            "--out", str(out_csv))
        assert code == 0
        assert "4 cells" in out
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "alpha,beta,value"
        assert lines[-1] == "# bregman=1"
        expected = [f"{a!r},{b!r},{v:.12g}"
                    for a, b, v in self.expected_grid2_cells()]
        assert lines[1:-1] == expected

    def test_constant_divergence_rows_equal_bound(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--div", "bregman", "--x", "0.2,0.4",
            "--y", "1.1,0.3", "--grid", "2", "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[-1].startswith("# bregman=")
        bound = lines[-1].split("=", 1)[1]
        values = [line.rsplit(",", 1)[1] for line in lines[1:-1]]
        assert values == [bound] * 4

    @pytest.mark.parametrize("div", ["jensen_chord", "bregman_tangent",
                                     "jensen_skewed", "jensen_bregman"])
    def test_rejects_ids_a_grid_does_not_fit(self, capsys, tmp_path, div):
        out_csv = tmp_path / "sweep.csv"
        code, _, err = run(
            capsys, "sweep", "--div", div, "--alpha", "0.5", "--gamma", "0.5",
            "--x", "0", "--y", "1", "--grid", "3", "--out", str(out_csv))
        assert code == 3
        assert f"sweep cannot take divergence {div!r}" in err
        assert "sweep accepts bregman, bregman_dual, bregman_chord, " in err
        assert not out_csv.exists()

    def test_help_lists_only_accepted_ids(self, capsys):
        def help_ids(command):
            code, out, _ = run(capsys, command, "--help")
            assert code == 0
            return set(out.replace(",", " ").split())

        swept = help_ids("sweep")
        for refused in ("bregman_tangent", "jensen_skewed", "jensen_chord",
                        "jensen_bregman"):
            assert refused not in swept
        assert "bregman_chord" in swept
        assert set(known_divergences()) <= help_ids("eval")

    def test_reruns_byte_identical(self, capsys, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        for path in (first, second):
            code, _, _ = run(
                capsys, "sweep", "--x", "0.2,0.4", "--y", "1.1,0.3",
                "--grid", "3", "--out", str(path))
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_cells_within_bregman_bound(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, _, _ = run(
            capsys, "sweep", "--generator", "shannon_negentropy",
            "--x", "0.2", "--y", "0.8", "--grid", "4",
            "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().splitlines()
        bound = float(lines[-1].split("=", 1)[1])
        cells = [line.split(",") for line in lines[1:-1]]
        assert len(cells) == 4 * 5 - 4
        for _, _, v in cells:
            value = float(v)
            assert -1e-12 <= value <= bound + 1e-9

    def test_svg_written(self, capsys, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        out_svg = tmp_path / "sweep.svg"
        code, _, _ = run(
            capsys, "sweep", "--x", "0", "--y", "1", "--grid", "3",
            "--out", str(out_csv), "--svg", str(out_svg))
        assert code == 0
        svg = out_svg.read_text()
        assert svg.startswith("<svg ")
        assert svg.rstrip().endswith("</svg>")
        assert "alpha" in svg and "beta" in svg
        assert "min=" in svg and "max=" in svg

    def test_csv_without_bound_omits_comment(self, tmp_path):
        # the trailing bound comment is skipped for gradient-free generators
        path = tmp_path / "plain.csv"
        _write_sweep_csv(str(path), [0.25], [1.0], [0.5], None)
        assert path.read_text().splitlines() == [
            "alpha,beta,value", "0.25,1.0,0.5"]

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--x", "0", "--y", "1", "--grid", "2",
            "--out", str(tmp_path / "missing_dir" / "x.csv"))
        assert code == 4


# The sweep outputs as they were formatted one cell at a time: one
# heat_color call, one rect and one CSV line, each formatted in full, per
# cell. The reference for the per-anchor formatting in chorddiv.cli.
def reference_heat_color(t):
    lo = (247, 251, 255)
    hi = (8, 48, 107)
    rgb = tuple(round(l + t * (h - l)) for l, h in zip(lo, hi))
    return f"#{rgb[0]:02x}{rgb[1]:02x}{rgb[2]:02x}"


def reference_svg(rows, alphas, betas, title):
    left, top, cell, gap = 90.0, 40.0, 30.0, 1.0
    plot_w = len(alphas) * cell
    plot_h = len(betas) * cell
    width = left + plot_w + 160.0
    height = top + plot_h + 70.0
    values = [v for _, _, v in rows]
    vmin, vmax = min(values), max(values)
    span = vmax - vmin
    a_pos = {a: i for i, a in enumerate(alphas)}
    b_pos = {b: i for i, b in enumerate(betas)}
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<text x="{left + plot_w / 2:.1f}" y="20" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{title}</text>',
    ]
    for a, b, v in rows:
        t = 0.5 if span == 0.0 else (v - vmin) / span
        x = left + a_pos[a] * cell
        y = top + (len(betas) - 1 - b_pos[b]) * cell
        out.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{cell - gap:.1f}" '
            f'height="{cell - gap:.1f}" fill="{reference_heat_color(t)}"/>'
        )
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
    lx = left + plot_w + 30.0
    out.append(
        '<defs><linearGradient id="scale" x1="0" y1="1" x2="0" y2="0">'
        f'<stop offset="0" stop-color="{reference_heat_color(0.0)}"/>'
        f'<stop offset="1" stop-color="{reference_heat_color(1.0)}"/>'
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


def reference_csv(rows, bound):
    lines = ["alpha,beta,value"]
    lines += [f"{a!r},{b!r},{v:.12g}" for a, b, v in rows]
    if bound is not None:
        lines.append(f"# bregman={bound:.12g}")
    return "\n".join(lines) + "\n"


def ramp_ties():
    """(t, channel value) pairs at which the ramp lands one channel exactly
    on k + 0.5, found among the few floats nearest the exact solution."""
    ties = []
    for lo, hi in zip((247, 251, 255), (8, 48, 107)):
        for k in range(min(lo, hi), max(lo, hi)):
            t = (k + 0.5 - lo) / (hi - lo)
            ties += [(u, k + 0.5) for u in t + np.arange(-3, 4) * np.spacing(t)
                     if lo + u * (hi - lo) == k + 0.5]
    return ties


class TestSweepOutputBytes:
    """The per-anchor formatting writes the bytes the per-cell reference
    writes."""

    def check(self, tmp_path, rows, alphas, betas, bound):
        title = "bregman_chord / quadratic  x=[0.3]  y=[0.9]"
        values = [v for _, _, v in rows]
        assert render_heatmap_svg(alphas, betas, values, title) == \
            reference_svg(rows, alphas, betas, title)
        path = tmp_path / "sweep.csv"
        _write_sweep_csv(str(path), alphas, betas, values, bound)
        assert path.read_bytes() == reference_csv(rows, bound).encode()

    @pytest.mark.parametrize("gen", ["quadratic", "shannon_negentropy",
                                     "burg_negentropy", "log_sum_exp"])
    @pytest.mark.parametrize("grid", [1, 2, 3, 50])
    def test_real_sweeps(self, tmp_path, gen, grid):
        F = make_builtin(gen, 3)
        x, y = np.array([0.3, 0.5, 1.2]), np.array([0.9, 0.2, 0.7])
        alphas, betas = _sweep_grid(grid)
        rows = sweep(F, x, y, alphas, betas, "bregman_chord")
        self.check(tmp_path, rows, alphas, betas, 0.123456789012345)

    def test_coincident_points_give_one_midpoint_colour(self, tmp_path):
        F = make_builtin("shannon_negentropy", 2)
        x = np.array([0.4, 0.6])
        alphas, betas = _sweep_grid(3)
        rows = sweep(F, x, x.copy(), alphas, betas, "bregman_chord")
        assert {v for _, _, v in rows} == {0.0}
        self.check(tmp_path, rows, alphas, betas, 0.0)
        svg = render_heatmap_svg(alphas, betas, [v for _, _, v in rows], "")
        cells = [line for line in svg.splitlines()
                 if line.startswith('<rect x="') and "url(" not in line]
        assert len(cells) == len(rows)
        assert all(f'fill="{reference_heat_color(0.5)}"' in line
                   for line in cells)

    @pytest.mark.parametrize("scale, shift", [
        (-1.0, 0.0),        # negative
        (1e-300, 0.0),      # tiny
        (1.0, -0.37),       # mixed sign
        (-2.5e7, 1.0e7),    # large, mixed sign
    ])
    def test_synthetic_values(self, tmp_path, scale, shift):
        alphas, betas = _sweep_grid(7)
        rng = np.random.default_rng(3)
        cells = [(a, b) for a in alphas for b in betas if a != b]
        values = shift + scale * rng.random(len(cells))
        rows = [(a, b, float(v)) for (a, b), v in zip(cells, values)]
        self.check(tmp_path, rows, alphas, betas, None)

    def test_alpha_row_without_cells(self, tmp_path):
        # beta 0.5 alone: the alpha 0.5 row is all diagonal and writes nothing
        self.check(tmp_path, [(0.25, 0.5, 1.5), (0.75, 0.5, -2.0)],
                   [0.25, 0.5, 0.75], [0.5], 1.0)

    @pytest.mark.parametrize("alphas, betas, cells", [
        ([0.25, 0.5], [0.5, 1.0], 3),   # alpha 0.5 skips its diagonal
        ([0.25], [0.5, 1.0], 2),
        ([0.5], [0.5], 0),
    ])
    def test_writers_refuse_values_that_do_not_fit_the_grid(
            self, tmp_path, alphas, betas, cells):
        path = tmp_path / "sweep.csv"
        for n in {0, cells - 1, cells + 1} - {-1, cells}:
            values = [0.5] * n
            message = f"{n} values for a sweep grid of {cells} cells"
            with pytest.raises(ShapeError, match=message):
                _write_sweep_csv(str(path), alphas, betas, values, None)
            with pytest.raises(ShapeError, match=message):
                render_heatmap_svg(alphas, betas, values, "")
        assert not path.exists()

    def test_ramp_on_dense_grid_and_ties(self):
        ties = ramp_ties()
        # at k + 0.5 with k even, half-to-even rounds down where adding 0.5
        # and truncating rounds up
        assert any(int(v) % 2 == 0 for _, v in ties)
        t = np.concatenate([np.linspace(0.0, 1.0, 100001),
                            [u for u, _ in ties]])
        assert _heat_colors(t) == [reference_heat_color(v) for v in t.tolist()]


class TestSweepGoldenDigests:
    """SHA-256 of the CSV and SVG two fixed sweep commands write, recorded
    from the per-cell writers: any change to the sweep's bytes shows
    here."""

    @pytest.mark.parametrize("argv, csv_digest, svg_digest", [
        (["--generator", "shannon_negentropy", "--x", "0.3,0.5,1.2",
          "--y", "0.9,0.2,0.7", "--grid", "50"],
         "5427052b53709dae50b1368308e0ec6b12e30b9578b304c68dde2b51e6b29271",
         "aab964fe313ab74c7862f86f13c264d577f64317ea40c1e207122ba5523f40df"),
        (["--generator", "quadratic", "--x", "0.2", "--y", "0.8",
          "--grid", "7"],
         "54539a083fb5ef35d0bffe8dad599c7d6929c75d0aa9f3d04a0c83625b56f53e",
         "8142d551514abb4b6d0465d25860e476092ef60ff54cdd126f9d838a51622835"),
    ], ids=["readme_shannon_grid50", "quadratic_grid7"])
    def test_digests(self, capsys, tmp_path, argv, csv_digest, svg_digest):
        csv, svg = tmp_path / "sweep.csv", tmp_path / "sweep.svg"
        code, _, _ = run(capsys, "sweep", *argv, "--out", str(csv),
                         "--svg", str(svg))
        assert code == 0
        assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(svg.read_bytes()).hexdigest() == svg_digest


def write_points(path, points):
    path.write_text(
        "\n".join(",".join(repr(float(c)) for c in row) for row in points)
        + "\n")


class TestCluster:
    def make_input(self, tmp_path, seed=6):
        rng = np.random.default_rng(seed)
        g1 = 0.1 * rng.random(8)
        g2 = 1.0 + 0.1 * rng.random(8)
        pts = [[v] for v in g1] + [[v] for v in g2]
        path = tmp_path / "points.csv"
        write_points(path, pts)
        return path

    def test_happy_path(self, capsys, tmp_path):
        inp = self.make_input(tmp_path)
        out_a = tmp_path / "assignments.csv"
        out_s = tmp_path / "summary.json"
        code, out, _ = run(
            capsys, "cluster", "--input", str(inp), "--k", "2",
            "--out-assignments", str(out_a), "--out-summary", str(out_s))
        assert code == 0
        assert "objective" in out

        lines = out_a.read_text().splitlines()
        assert len(lines) == 16
        labels = []
        for i, line in enumerate(lines):
            idx, label = line.split(",")
            assert int(idx) == i
            labels.append(int(label))
        truth = [0] * 8 + [1] * 8
        assert adjusted_rand_index(labels, truth) == 1.0

        summary = json.loads(out_s.read_text())
        assert set(summary) == {"objective", "iterations", "centers",
                                "seed"}
        assert summary["seed"] == 0
        assert summary["iterations"] >= 1
        assert len(summary["centers"]) == 2
        centers = sorted(c[0] for c in summary["centers"])
        assert abs(centers[0] - 0.05) < 0.1
        assert abs(centers[1] - 1.05) < 0.1

    def test_weights_outside_the_orthant_are_named(self, capsys, tmp_path):
        # CI's 40 cluster points; skews outside [0, 1] put the gamma
        # interpolant 1.5 x - 0.5 c of the first point and center out of
        # the orthant, and the message names that row and its entry
        rng = np.random.default_rng(0)
        inp = tmp_path / "points.csv"
        write_points(inp, np.vstack([rng.uniform(0.2, 1.0, (20, 2)),
                                     rng.uniform(2.0, 3.0, (20, 2))]))
        code, out, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "2",
            "--generator", "quadratic", "--div", "biskew:fdiv:tv",
            "--gamma", "-0.5", "--delta", "1.5",
            "--out-assignments", str(tmp_path / "assignments.csv"),
            "--out-summary", str(tmp_path / "summary.json"))
        assert code == 3 and out == ""
        assert err == (
            "error: p must have finite, strictly positive entries: row 0 "
            "[-0.08499404162371604, -0.7122533824615352] has "
            "-0.08499404162371604 at entry 0\n")

    def test_chord_divergence_cluster(self, capsys, tmp_path):
        inp = self.make_input(tmp_path, seed=9)
        out_a = tmp_path / "assignments.csv"
        out_s = tmp_path / "summary.json"
        code, _, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "2",
            "--div", "bregman_chord", "--alpha", "0.9", "--beta", "1.0",
            "--out-assignments", str(out_a), "--out-summary", str(out_s))
        assert code == 0
        assert err == ""
        labels = [int(line.split(",")[1])
                  for line in out_a.read_text().splitlines()]
        truth = [0] * 8 + [1] * 8
        assert adjusted_rand_index(labels, truth) == 1.0

    def test_readme_chord_example_takes_member_means(self, capsys,
                                                     tmp_path):
        # under quadratic the chord centroid is the member mean: no search
        rng = np.random.default_rng(4)
        pts = np.vstack([rng.normal(0.0, 0.3, (10, 2)),
                         rng.normal(3.0, 0.3, (10, 2))])
        inp = tmp_path / "points.csv"
        write_points(inp, pts)
        out_a = tmp_path / "assignments.csv"
        out_s = tmp_path / "summary.json"
        code, _, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "2",
            "--div", "bregman_chord", "--alpha", "0.9", "--beta", "1.0",
            "--out-assignments", str(out_a), "--out-summary", str(out_s))
        assert code == 0
        assert err == ""
        labels = np.array([int(line.split(",")[1])
                           for line in out_a.read_text().splitlines()])
        centers = json.loads(out_s.read_text())["centers"]
        assert sorted(np.bincount(labels).tolist()) == [10, 10]
        for j, center in enumerate(centers):
            assert center == pts[labels == j].mean(axis=0).tolist()

    def test_fdiv_centers_stay_positive(self, capsys, tmp_path):
        # quadratic's domain is all of R^2, but fdiv:chi2 needs positive
        # centers; its right centroid is the coordinate-wise harmonic mean
        pts = [[0.06, 0.5], [0.1, 0.6], [2.9, 3.0], [3.1, 2.8]]
        inp = tmp_path / "points.csv"
        write_points(inp, pts)
        out_s = tmp_path / "summary.json"
        code, _, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "1",
            "--div", "fdiv:chi2", "--out-summary", str(out_s),
            "--out-assignments", str(tmp_path / "assignments.csv"))
        assert code == 0, err
        center = np.array(json.loads(out_s.read_text())["centers"][0])
        harmonic = len(pts) / np.sum(1.0 / np.array(pts), axis=0)
        assert np.max(np.abs(center - harmonic)) <= 1e-6

    def test_fdiv_non_positive_row_names_the_row(self, capsys, tmp_path):
        # quadratic accepts any real point, but fdiv:kl reads weights
        inp = tmp_path / "points.csv"
        write_points(inp, [[-0.5, 0.5], [0.1, 0.6], [2.9, 3.0]])
        code, _, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "1",
            "--div", "fdiv:kl",
            "--out-summary", str(tmp_path / "summary.json"),
            "--out-assignments", str(tmp_path / "assignments.csv"))
        assert code == 3
        assert "row 0" in err
        assert "strictly positive" in err
        assert not (tmp_path / "summary.json").exists()

    def test_kl_has_no_right_centroid(self, capsys, tmp_path):
        inp = tmp_path / "points.csv"
        write_points(inp, [[0.2, 0.8], [0.3, 0.7], [0.6, 0.4]])
        code, _, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "1",
            "--div", "kl",
            "--out-summary", str(tmp_path / "summary.json"),
            "--out-assignments", str(tmp_path / "assignments.csv"))
        assert code == 3
        assert "'kl' has no right centroid" in err
        assert "'ekl'" in err
        assert not (tmp_path / "summary.json").exists()

    def test_non_finite_distance_is_a_domain_error(self, capsys, tmp_path):
        inp = tmp_path / "points.csv"
        write_points(inp, [[1e200], [1.1e200], [3e200], [3.1e200]])
        with np.errstate(over="ignore"):
            code, out, err = run(
                capsys, "cluster", "--input", str(inp), "--k", "2",
                "--out-summary", str(tmp_path / "summary.json"),
                "--out-assignments", str(tmp_path / "assignments.csv"))
        assert code == 3
        assert out == ""
        assert "row 0" in err and "not finite" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["points.csv"]

    def test_help_names_refused_ids(self, capsys):
        code, out, _ = run(capsys, "cluster", "--help")
        assert code == 0
        text = " ".join(out.split())
        assert "k-means refuses kl and fdiv:kl, which have no right " \
               "centroid" in text

    def test_edge_pinned_center_warns(self, capsys, tmp_path):
        pts = [[0.2, 0.8], [0.3, 0.7], [0.6, 0.4]]
        inp = tmp_path / "points.csv"
        write_points(inp, pts)
        out_a = tmp_path / "assignments.csv"
        out_s = tmp_path / "summary.json"
        code, out, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "1",
            "--div", "biskew:kl", "--gamma", "0.2", "--delta", "0.7",
            "--out-assignments", str(out_a), "--out-summary", str(out_s))
        assert code == 0
        lines = err.splitlines()
        assert lines
        for line in lines:
            assert line.startswith("warning: center 0 at iteration ")
            assert "ended on the edge of its box" in line
        # the warnings leave stdout and both files as kmeans alone gives
        res = kmeans(np.array(pts), make_builtin("quadratic", 2),
                     ClusterConfig(k=1, divergence="biskew:kl",
                                   params={"gamma": 0.2, "delta": 0.7}))
        assert len(lines) == len(res.center_solves)
        assert out == (f"objective {res.objective_trace[-1]:.12g} after "
                       f"{res.iterations} iterations\n")
        assert out_a.read_text() == "0,0\n1,0\n2,0\n"
        assert json.loads(out_s.read_text()) == {
            "objective": res.objective_trace[-1],
            "iterations": res.iterations,
            "centers": res.centers.tolist(),
            "seed": 0,
        }

    def test_converged_center_does_not_warn(self, capsys, tmp_path):
        # the quadratic chord centroid is the member mean, where the search
        # starts: it must end there uncapped, with no warning
        pts = np.random.default_rng(0).uniform(0.2, 3.0, (4, 2))
        inp = tmp_path / "points.csv"
        write_points(inp, pts)
        code, out, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "1",
            "--div", "bregman_chord", "--alpha", "0.9", "--beta", "1.0",
            "--out-assignments", str(tmp_path / "assignments.csv"),
            "--out-summary", str(tmp_path / "summary.json"))
        assert code == 0
        assert out.startswith("objective ")
        assert err == ""

    def test_missing_input_file(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "cluster", "--input", str(tmp_path / "absent.csv"),
            "--k", "2")
        assert code == 4

    def test_malformed_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5\noops\n1.5\n")
        code, _, err = run(
            capsys, "cluster", "--input", str(path), "--k", "1")
        assert code == 3
        assert "line 2" in err

    @pytest.mark.parametrize("text", ["", "\n  \n\t\n"])
    def test_file_without_rows(self, capsys, tmp_path, text):
        path = tmp_path / "empty.csv"
        path.write_text(text)
        code, _, err = run(
            capsys, "cluster", "--input", str(path), "--k", "1")
        assert code == 3
        assert err == f"error: {path}: no data rows\n"

    def test_ragged_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1.0\n0.25\n")
        code, _, err = run(
            capsys, "cluster", "--input", str(path), "--k", "1")
        assert code == 3
        assert "line 2" in err

    @pytest.mark.parametrize("row", ["nan,0.5", "0.5,inf", "-Infinity,1",
                                     "0.5,1e999", "NaN,-nan"])
    def test_non_finite_coordinate(self, capsys, tmp_path, row):
        path = tmp_path / "bad.csv"
        path.write_text(f"0.5,1.0\n{row}\n")
        code, _, err = run(
            capsys, "cluster", "--input", str(path), "--k", "1")
        assert code == 3
        assert err.strip() == f"error: {path}: line 2: non-finite coordinate"

    def test_tiny_and_signed_zero_coordinates_are_read(self, tmp_path):
        path = tmp_path / "points.csv"
        path.write_text("5e-324,-0.0\n1e-310, 2\n")
        pts = _read_points(str(path))
        assert pts.tobytes() == np.array([[5e-324, -0.0],
                                          [1e-310, 2.0]]).tobytes()

    def test_k_exceeds_distinct(self, capsys, tmp_path):
        path = tmp_path / "few.csv"
        path.write_text("0.5\n0.5\n1.5\n")
        code, _, err = run(
            capsys, "cluster", "--input", str(path), "--k", "3")
        assert code == 3
        assert "distinct" in err

    def test_negative_seed_is_a_usage_error(self, capsys, tmp_path):
        inp = self.make_input(tmp_path)
        code, _, err = run(
            capsys, "cluster", "--input", str(inp), "--k", "1",
            "--seed", "-1",
            "--out-assignments", str(tmp_path / "assignments.csv"),
            "--out-summary", str(tmp_path / "summary.json"))
        assert code == 2
        assert "--seed: must be >= 0" in err
        assert not (tmp_path / "summary.json").exists()

    def test_unwritable_assignments(self, capsys, tmp_path):
        inp = self.make_input(tmp_path)
        code, _, _ = run(
            capsys, "cluster", "--input", str(inp), "--k", "2",
            "--out-assignments", str(tmp_path / "nodir" / "a.csv"),
            "--out-summary", str(tmp_path / "s.json"))
        assert code == 4


class TestVerify:
    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "verify", "--suite", "nope")
        assert code == 2
        assert "nope" in err

    def test_negative_seed_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--suite", "fdiv", "--seed", "-3")
        assert code == 2
        assert out == ""
        assert "--seed: must be >= 0" in err

    def test_single_suite_passes(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "dual_identity", "--trials", "20")
        assert code == 0
        assert "dual_identity: PASS" in out
        assert "worst margin" in out

    def test_swap_symmetry_suite(self, capsys):
        code, out, _ = run(
            capsys, "verify", "--suite", "swap_symmetry", "--trials", "10")
        assert code == 0
        assert "swap_symmetry: PASS" in out

    def test_failing_suite_prints_fail_and_exits_3(self, capsys,
                                                   monkeypatch):
        monkeypatch.setitem(
            chorddiv.verify.SUITES, "dual_identity",
            lambda trials, seed: SuiteResult("dual_identity", 0.5, "patched"))
        code, out, _ = run(capsys, "verify", "--suite", "dual_identity")
        assert code == 3
        assert out == ("dual_identity: FAIL (worst margin 5.000e-01; "
                       "patched)\n")

    def test_nan_divergence_fails_and_exits_3(self, capsys, monkeypatch):
        monkeypatch.setattr(chorddiv.verify, "chord_row",
                            lambda F, t1, t2, A, B: np.full(len(A), np.nan))
        code, out, _ = run(capsys, "verify", "--suite", "sandwich",
                           "--trials", "5")
        assert code == 3
        assert out.startswith("sandwich: FAIL (worst margin nan;")


class TestOneParserPerProcess:
    def test_reused_parser_matches_a_fresh_one(self, capsys, monkeypatch,
                                               tmp_path):
        monkeypatch.setitem(
            chorddiv.verify.SUITES, "patched",
            lambda trials, seed: SuiteResult("patched", -1.0,
                                             f"{trials} trials, seed {seed}"))
        points = tmp_path / "points.csv"
        write_points(points, [[0.1], [0.2], [1.0], [1.1]])
        files = [tmp_path / name for name in
                 ("sweep.csv", "sweep.svg", "assignments.csv",
                  "summary.json")]
        commands = [
            ("eval", "--div", "bregman", "--x", "0,0", "--y", "1,1"),
            ("eval", "--div", "bregman", "--x", "0", "--y", "1",
             "--alpha", "x"),
            ("sweep", "--x", "0.2,0.4", "--y", "1.1,0.3", "--grid", "3",
             "--out", str(files[0]), "--svg", str(files[1])),
            ("cluster", "--input", str(points), "--k", "2",
             "--out-assignments", str(files[2]),
             "--out-summary", str(files[3])),
            ("verify", "--suite", "patched", "--trials", "3"),
        ]

        def call(argv):
            code, out, err = run(capsys, *argv)
            written = tuple(f.read_bytes() if f.exists() else None
                            for f in files)
            for f in files:
                f.unlink(missing_ok=True)
            return code, out, err, written

        fresh = []
        for argv in commands:
            build_parser.cache_clear()
            fresh.append(call(argv))
        build_parser.cache_clear()
        shared = [call(argv) for argv in commands]
        assert build_parser.cache_info().misses == 1
        assert shared == fresh
        assert [code for code, *_ in shared] == [0, 2, 0, 0, 0]
        assert shared[0][1] == "2\n"
        assert "--alpha: not a number: 'x'" in shared[1][2]
        assert shared[4][1] == ("patched: PASS (worst margin -1.000e+00; "
                                "3 trials, seed 0)\n")
