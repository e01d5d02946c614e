"""One workload in a fresh interpreter; prints its measurements as JSON.

Started by run.py:

    python3 perfbench/worker.py --workload NAME --seed N --workdir DIR
        --seconds S --trace 0|1 [--setup-only] [--pause-every S]
        [--trace-out FILE]

Set-up time runs from before ``import chorddiv`` to the end of one warm-up
call, so it includes numpy's import, building the generators and resolving
the divergences. The untraced run then executes whole passes over the
operation list in a closed loop (one client, next operation after the
previous one returns) until ``--seconds`` of measuring have passed and
enough operations ran for the tail percentile. Each pass draws fresh inputs
first; only the calls are timed, and each output is checked after its call.
Between executions the calibration kernel of calibrate.py runs, and each
execution's time is scaled to a fixed machine speed by it, as is set-up.
With ``--pause-every`` the worker prints ``pause`` at that interval, between
two operations, and waits for a line on stdin; the paused time does not
count. The traced run installs the tracing wrappers, rebuilds the workload,
executes a fixed number of passes traced (so its counts depend only on the
seed), replays the first of them, removes the wrappers and executes as many
passes untraced, for the tracing overhead.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
def import_chorddiv():
    """Import chorddiv from this checkout's src/, or stop."""
    if "chorddiv" in sys.modules:
        raise SystemExit("chorddiv was imported before the benchmark set "
                         "its path")
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import chorddiv
    import chorddiv.cli  # noqa: F401  (bound as chorddiv.cli for the CLI ops)
    expected = (src / "chorddiv" / "__init__.py").resolve()
    if Path(chorddiv.__file__).resolve() != expected:
        raise SystemExit(f"chorddiv resolves to {chorddiv.__file__}, not to "
                         f"{expected}; refusing to measure other code")
    return chorddiv


def weighted_percentile(estimates, counts, p: float) -> float:
    """Nearest-rank percentile of all executions, each counted at its
    case's estimate."""
    rank = max(1, math.ceil(sum(counts) * p / 100.0))
    seen = 0
    for est, n in sorted(zip(estimates, counts)):
        seen += n
        if seen >= rank:
            return est
    return max(estimates)


class Raised:
    """The exception an operation raised, in place of its result."""

    def __init__(self, exc: Exception):
        self.exc = exc


class Loop:
    """Closed loop over whole passes.

    A pass draws its inputs, times each call with the calls back to back,
    then checks every result. ``busy_s`` sums the timed calls; ``failed``
    counts executions that raised or failed their check; with
    ``count_bytes`` set, ``bytes_written`` sums the sizes of the files each
    execution wrote.
    """

    def __init__(self, wl, scaled=None, tracer=None, count_bytes=False,
                 pause_every=None):
        self.wl = wl
        self.scaled = scaled
        self.tracer = tracer
        self.count_bytes = count_bytes
        self.pause_every = pause_every
        self.count = 0
        self.failed = 0
        self.busy_s = 0.0
        self.paused_s = 0.0
        self.bytes_written = 0
        self._reported = False
        self._last_pause = time.perf_counter()

    def run_pass(self, k: int) -> None:
        clock = time.perf_counter
        ops = self.wl.pass_ops(k)
        results = []
        for op in ops:
            if self.tracer is not None:
                self.tracer.begin_op()
            start = clock()
            try:
                result = op.call()
            except Exception as exc:  # counted as a failed operation
                result = Raised(exc)
            took = clock() - start
            if self.tracer is not None:
                self.tracer.end_op()
            results.append(result)
            self.busy_s += took
            if self.scaled is not None:
                self.scaled.add(op.case, took)
            if self.pause_every is not None:
                self._maybe_pause()
        for op, result in zip(ops, results):
            if isinstance(result, Raised):
                if not self._reported:
                    traceback.print_exception(result.exc)
                    self._reported = True
                self.failed += 1
            elif not op.check(result):
                self.failed += 1
            if self.count_bytes:
                self.bytes_written += sum(os.path.getsize(p)
                                          for p in op.outputs
                                          if os.path.exists(p))
        self.count += len(ops)

    def _maybe_pause(self) -> None:
        now = time.perf_counter()
        if now - self._last_pause < self.pause_every:
            return
        print("pause", flush=True)
        sys.stdin.readline()
        self._last_pause = time.perf_counter()
        self.paused_s += self._last_pause - now

    def run_for(self, seconds: float, min_ops: int) -> None:
        """Passes until ``seconds`` of unpaused time and ``min_ops``
        executions."""
        t0 = self._last_pause = time.perf_counter()
        k = 0
        while True:
            self.run_pass(k)
            k += 1
            if (time.perf_counter() - t0 - self.paused_s >= seconds
                    and self.count >= min_ops):
                return


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--pause-every", type=float, default=None)
    args = parser.parse_args()
    name, seed = args.workload, args.seed

    t0 = time.perf_counter()
    chorddiv = import_chorddiv()
    import workloads
    wl = workloads.build(name, seed, chorddiv, args.workdir)
    wl.warm_up()
    setup_s = time.perf_counter() - t0
    import calibrate
    calibrate.calibration_unit()  # first call, untimed
    scaled = calibrate.Scaled(len(wl.cases))
    # set-up scaled, like the executions, by the kernel block right after it
    setup_s *= calibrate.NOMINAL_KERNEL_S / scaled.block(
        calibrate.SETUP_BLOCK_S)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if not args.trace:
        loop = Loop(wl, scaled=scaled, pause_every=args.pause_every)
        start = time.perf_counter()
        loop.run_for(workloads.measure_seconds(name, args.seconds),
                     workloads.min_ops(name))
        scaled.finish()
        elapsed = time.perf_counter() - start - loop.paused_s
        counts = [len(v) for v in scaled.per_case]
        est = [statistics.median(v) for v in scaled.per_case]
        out = {
            "setup_s": setup_s,
            "attempted": loop.count,
            "failed": loop.failed,
            "ops_per_s": sum(counts) / math.fsum(
                math.fsum(v) for v in scaled.per_case),
            "op_p50_ms": 1e3 * weighted_percentile(est, counts, 50.0),
            "op_tail_ms": 1e3 * weighted_percentile(
                est, counts, workloads.TAIL_PERCENTILE[name]),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "elapsed_s": elapsed,
        }
        print(json.dumps(out))
        return 0

    import tracing
    passes = workloads.TRACE_PASSES[name]
    tracer = tracing.Tracer()
    kmeans = {"iterations": 0, "updates": 0}

    def on_kmeans(result):
        iters = int(getattr(result, "iterations", 0))
        k, d = getattr(getattr(result, "centers", None), "shape", (0, 0))
        kmeans["iterations"] += iters
        kmeans["updates"] += iters * k * d

    uninstall = tracing.install(tracer, on_kmeans=on_kmeans)
    traced = workloads.build(
        name, seed, chorddiv, args.workdir,
        wrap_generator=lambda G: tracing.traced_generator(tracer, G))
    loop = Loop(traced, tracer=tracer, count_bytes=True)
    for k in range(passes, 2 * passes):
        loop.run_pass(k)
    layers = tracing.layer_metrics(tracer, loop.count, workloads.PAIRS_IDS, {
        **kmeans, "bytes_written": loop.bytes_written})
    # Replaying the first traced pass, the first execution of its inputs in
    # this process, shows work carried over from earlier calls on the same
    # inputs: the ratio is 1 when the replay makes as many F evaluations.
    traced_ops = len(tracer.per_op)
    replay = Loop(traced, tracer=tracer)
    replay.run_pass(passes)
    first = tracer.fn_calls(slice(0, traced_ops // passes))
    layers["trace.replay_fn_ratio"] = \
        tracer.fn_calls(slice(traced_ops, None)) / first if first else 1.0
    uninstall()
    plain = Loop(wl)
    for k in range(passes):
        plain.run_pass(k)
    layers["trace.overhead_ratio"] = \
        (loop.count / loop.busy_s) / (plain.count / plain.busy_s)
    if args.trace_out:
        tracer.write(args.trace_out)
    print(json.dumps({"attempted": loop.count + replay.count + plain.count,
                      "failed": loop.failed + replay.failed + plain.failed,
                      "layers": layers, "absent": tracer.absent}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
