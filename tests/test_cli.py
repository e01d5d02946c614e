"""End-to-end CLI behavior through main(argv): outputs, files, exit codes."""

import json

import numpy as np
import pytest

import chorddiv.verify
from chorddiv import (
    ClusterConfig,
    SuiteResult,
    adjusted_rand_index,
    kmeans,
    known_divergences,
    make_builtin,
)
from chorddiv.cli import main


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

    def test_dimension_mismatch(self, capsys):
        code, _, err = run(
            capsys, "eval", "--div", "bregman", "--x", "0,0", "--y", "1")
        assert code == 2
        assert "dimensions differ" in err

    def test_malformed_vector(self, capsys):
        code, _, err = run(
            capsys, "eval", "--div", "bregman", "--x", "1,a", "--y", "0,0")
        assert code == 2

    def test_domain_violation(self, capsys):
        code, _, err = run(
            capsys, "eval", "--generator", "shannon_negentropy",
            "--div", "bregman", "--x", "-1", "--y", "1")
        assert code == 3
        assert "error" in err

    def test_missing_subcommand(self, capsys):
        code, _, _ = run(capsys)
        assert code == 2


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
        from chorddiv.cli import _write_sweep_csv
        path = tmp_path / "plain.csv"
        _write_sweep_csv(str(path), [(0.25, 1.0, 0.5)], None)
        assert path.read_text().splitlines() == [
            "alpha,beta,value", "0.25,1.0,0.5"]

    def test_unwritable_output(self, capsys, tmp_path):
        code, _, err = run(
            capsys, "sweep", "--x", "0", "--y", "1", "--grid", "2",
            "--out", str(tmp_path / "missing_dir" / "x.csv"))
        assert code == 4


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

    def test_ragged_row(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("0.5,1.0\n0.25\n")
        code, _, err = run(
            capsys, "cluster", "--input", str(path), "--k", "1")
        assert code == 3
        assert "line 2" in err

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
        monkeypatch.setattr(chorddiv.verify, "bregman_chord",
                            lambda *args: float("nan"))
        code, out, _ = run(capsys, "verify", "--suite", "sandwich",
                           "--trials", "5")
        assert code == 3
        assert out.startswith("sandwich: FAIL (worst margin nan;")
