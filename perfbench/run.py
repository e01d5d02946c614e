"""chorddiv benchmark.

    python3 perfbench/run.py --workload {pairs,sweep,cluster,all} --seed N
        --seconds S --trace 0|1

Run from the root of a checkout; the benchmark measures the chorddiv under
that checkout's src/ and refuses to run against any other copy. It starts
fresh interpreters for the set-up probes and the measured run (BLAS and
OpenMP pinned to one thread), which draw their inputs from --seed and write
their files under .perfbench/ in the checkout, prints every metric by name
with its unit, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones; set-up time is the
median of SETUP_RUNS fresh interpreters, run while the measured worker
pauses, so that they sample the same stretch of time as the operations.
Set-up and operation times are scaled to a fixed machine speed by a
calibration kernel (calibrate.py). With --trace 1 they are the per-layer
ones from a traced run, and the per-operation spans are kept in
.perfbench/trace-<workload>-<seed>.jsonl.
The workload design is in spec.json, the workloads in workloads.py. The
benchmark's own tests:

    python3 -m pytest perfbench/tests
"""

import os

# before numpy loads anywhere: BLAS and OpenMP read these once, at start-up
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
#: Set-up probes per run: the measured worker's own set-up and one probe at
#: each of its pauses.
SETUP_RUNS = 15
#: Each worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 170
PROBE_TIMEOUT_S = 30

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def worker_argv(args: list) -> list:
    return [sys.executable, str(HERE / "worker.py")] + args


def last_json(text: str) -> dict:
    return json.loads(text.strip().splitlines()[-1])


def probe_setup(common: list) -> float:
    """Set-up time of one fresh interpreter."""
    try:
        proc = subprocess.run(worker_argv(common + ["--setup-only"]),
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"set-up probe exceeded {PROBE_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        fail(f"set-up probe exited with code {proc.returncode}")
    return last_json(proc.stdout)["setup_s"]


def measured_run(common: list, seconds: float) -> dict:
    """The measured worker, with set-up probes run while it is paused.

    The worker pauses every seconds / (SETUP_RUNS - 1) of its ``seconds``
    of measuring; each pause runs one probe, so the probes sample the same
    stretch of time as the measured operations. Returns the worker's result
    with every set-up time in ``setups``.
    """
    proc = subprocess.Popen(
        worker_argv(common + ["--pause-every",
                              repr(seconds / (SETUP_RUNS - 1))]),
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    setups, lines = [], []
    try:
        for line in proc.stdout:
            if line == "pause\n":
                setups.append(probe_setup(common))
                proc.stdin.write("go\n")
                proc.stdin.flush()
            else:
                lines.append(line)
        proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    out = last_json("".join(lines))
    out["setups"] = setups + [out["setup_s"]]
    return out


def traced_run(common: list, trace_out: Path) -> dict:
    try:
        proc = subprocess.run(
            worker_argv(common + ["--trace-out", str(trace_out)]),
            cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}")
    return last_json(proc.stdout)


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    work = OUT / f"work-{os.getpid()}-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workloads.prepare(name, str(work))
        common = ["--workload", name, "--seed", str(seed),
                  "--workdir", str(work), "--seconds", str(seconds),
                  "--trace", str(trace)]
        if trace:
            out = traced_run(common, OUT / f"trace-{name}-{seed}.jsonl")
            return {"correct": out["failed"] == 0,
                    "attempted": out["attempted"], "failed": out["failed"],
                    "metrics": {k: {"value": v, "unit": tracing.unit(k)}
                                for k, v in out["layers"].items()},
                    "absent": out["absent"]}
        out = measured_run(common, workloads.measure_seconds(name, seconds))
        out["setup_s"] = statistics.median(out["setups"])
        return {"correct": out["failed"] == 0,
                "attempted": out["attempted"], "failed": out["failed"],
                "elapsed_s": out["elapsed_s"],
                "metrics": {k: {"value": out[k], "unit": u}
                            for k, u in END_TO_END_UNITS.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def report(name: str, result: dict) -> None:
    attempted, failed = result["attempted"], result["failed"]
    print(f"[{name}] attempted {attempted}, failed {failed}, "
          f"fail_ratio {failed / attempted:.6g} ratio")
    if "elapsed_s" in result:
        print(f"[{name}] wall clock: {attempted} operations in "
              f"{result['elapsed_s']:.3f} s")
    for metric, entry in result["metrics"].items():
        value = entry["value"]
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"[{name}] {metric} {text} {entry['unit']}")
    for target in result.get("absent", ()):
        print(f"[{name}] absent trace target: {target}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "chorddiv" / "__init__.py").is_file():
        fail(f"no chorddiv sources under {ROOT / 'src'}")

    names = workloads.WORKLOADS if args.workload == "all" \
        else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace)
        report(name, results[name])
    if len(names) == 1:
        final = {k: results[names[0]][k]
                 for k in ("correct", "attempted", "failed", "metrics")}
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
