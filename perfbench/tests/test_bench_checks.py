"""The reference implementation, the per-operation output checks and the
seeded inputs."""

import contextlib
import io

import numpy as np
import pytest

import chorddiv
import chorddiv.cli
import reference as ref
import workloads


def test_reference_agrees_with_library_at_seed():
    all_cases = workloads.cases("pairs")
    for c, x, y in workloads.pass_inputs("pairs", 0, 0):
        gen, div, d = all_cases[c]
        if gen == workloads.CUSTOM:
            G = chorddiv.Generator(gen, d, chorddiv.Domain("reals"),
                                   workloads._exp_sum)
        elif gen:
            G = chorddiv.make_builtin(gen, d)
        else:
            G = None
        params = workloads.PARAMS.get(div, {})
        got = chorddiv.resolve_divergence(div, G, params)(
            np.array(x), np.array(y))
        want, scale = ref.divergence(div, gen, x, y, params)
        assert abs(got - float(want)) <= ref.tolerance(scale), (gen, div, x)


def test_pairs_check_rejects_wrong_values(tmp_path):
    wl = workloads.build("pairs", 0, chorddiv, str(tmp_path))
    ops = wl.pass_ops(0)[:4]
    assert all(op.check(op.call()) for op in ops)
    value = ops[0].call()
    assert not ops[0].check(value + 1.0 + abs(value))
    assert not ops[0].check(None)


def test_cli_check_wants_the_same_bytes_every_time(tmp_path):
    out = tmp_path / "out.csv"
    first = {}

    def check(key, rerun=False, call=lambda: 0):
        return workloads.cli_check(call, (str(out),),
                                   lambda parts: b"bad" not in parts[0],
                                   first, key, rerun)

    out.write_bytes(b"one")
    assert check("a")(0) and check("a")(0)
    assert not check("a")(3)
    out.write_bytes(b"two")
    assert not check("a")(0)
    assert check("b")(0)
    out.write_bytes(b"bad")
    assert not check("c")(0)

    def rewrite():
        out.write_bytes(b"other")
        return 0
    out.write_bytes(b"one")
    assert not check("d", rerun=True, call=rewrite)(0)


def _run(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return chorddiv.cli.main(argv)


def test_sweep_check_accepts_library_output_and_rejects_a_broken_bound(
        tmp_path):
    c, x, y = workloads.pass_inputs("sweep", 0, 0)[0]
    gen = workloads.cases("sweep")[c][0]
    out = tmp_path / "s.csv"
    assert _run(["sweep", "--generator", gen,
                 "--x", ",".join(map(repr, x)), "--y", ",".join(map(repr, y)),
                 "--grid", str(workloads.SWEEP["grid"]),
                 "--out", str(out)]) == 0
    text = out.read_text()
    assert workloads.check_sweep_csv(gen, x, y, text)
    lines = text.splitlines()
    assert not workloads.check_sweep_csv(gen, x, y,
                                         "\n".join(lines[:-2] + lines[-1:]))
    assert not workloads.check_sweep_csv(
        gen, x, y, "\n".join(lines[:-1] + ["# bregman=0"]))


def test_cluster_check_accepts_library_output_and_rejects_bad_labels(
        tmp_path):
    workloads.prepare("cluster", str(tmp_path))
    points = tmp_path / "points.csv"
    case = next(c for c in workloads.cases("cluster")
                if c[:2] == ("quadratic", "bregman"))
    assign, summary = tmp_path / "a.csv", tmp_path / "s.json"
    assert _run(["cluster", "--input", str(points), "--k", "2",
                 "--generator", case[0], "--div", case[1],
                 "--out-assignments", str(assign),
                 "--out-summary", str(summary)]) == 0
    pts = np.loadtxt(points, delimiter=",", ndmin=2)
    a, s = assign.read_text(), summary.read_text()
    assert workloads.check_cluster(case, pts, a, s)
    rows = [r.split(",") for r in a.splitlines()]
    flipped = "".join(f"{i},{1 - int(lab)}\n" for i, lab in rows)
    assert not workloads.check_cluster(case, pts, flipped, s)


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_inputs_repeat_for_a_seed_and_pass(name):
    a = workloads.pass_inputs(name, 7, 3)
    assert a == workloads.pass_inputs(name, 7, 3)
    counts = np.bincount([c for c, _, _ in a])
    assert len(counts) == len(workloads.cases(name))
    assert len(set(counts)) == 1


@pytest.mark.parametrize("name", ("pairs", "sweep"))
def test_every_pass_draws_fresh_inputs(name):
    first = {tuple(x) for _, x, _ in workloads.pass_inputs(name, 7, 0)}
    second = {tuple(x) for _, x, _ in workloads.pass_inputs(name, 7, 1)}
    assert not first & second


def test_worker_refuses_a_chorddiv_imported_elsewhere():
    import worker

    with pytest.raises(SystemExit):
        worker.import_chorddiv()


def test_weighted_percentile_counts_each_execution():
    import worker

    est, counts = [3.0, 1.0, 2.0], [1, 2, 7]
    assert worker.weighted_percentile(est, counts, 10.0) == 1.0
    assert worker.weighted_percentile(est, counts, 50.0) == 2.0
    assert worker.weighted_percentile(est, counts, 95.0) == 3.0


def test_scaled_divides_each_execution_by_the_kernel_around_it(monkeypatch):
    import calibrate

    blocks = iter([[1.0, 1.0], [3.0, 3.0], [2.0, 6.0]])
    monkeypatch.setattr(calibrate, "calibration_block",
                        lambda seconds: next(blocks))
    unit = calibrate.NOMINAL_KERNEL_S
    scaled = calibrate.Scaled(2)
    assert scaled.block(calibrate.SETUP_BLOCK_S) == 1.0
    scaled.add(0, 0.002)   # below SEGMENT_S: no block yet
    scaled.add(1, 0.03)    # segment ends, the block with mean 3 runs
    scaled.add(0, 0.04)    # next segment, the block with mean 4 runs
    assert list(scaled.per_case[0]) == \
        pytest.approx([unit * 0.002 / 2, unit * 0.04 / 3.5])
    assert list(scaled.per_case[1]) == pytest.approx([unit * 0.03 / 2])
