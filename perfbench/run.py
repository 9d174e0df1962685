"""End-to-end benchmark of the kendalltrans command line, seeded and checked.

Run from the repository root:

    python3 perfbench/run.py --workload score --seed 1 --seconds 25 --trace 0

The benchmark imports the package from ``src/`` and calls
``kendalltrans.cli.main(argv)`` in this one process, on input files it
generates from the seed.  Every command runs once untimed as a warm-up,
then rounds of the workload's ops run until their summed time reaches
``--seconds``.  Every op's output is checked (see workloads.py); an op
fails on a nonzero exit, an exception or a failed check.

``--trace 0`` reports the end-to-end metrics: setup_s, the median time to
import kendalltrans in a fresh interpreter (sampled between rounds);
round_p50_s; and peak_rss_mb of this process.  ``--trace 1`` reports the
per-layer metrics instead: the same rounds run untraced, then traced with
wrappers installed from outside the package (their outputs must be
byte-identical), then once more under tracemalloc for the memory peaks.

Times are reported at a reference machine speed.  A shared host can run
this single-threaded work up to twice as fast in one half-minute as in the
next, which moves a plain median by more than any useful regression bound.
So every timed op is bracketed by a fixed reference loop (see
reference.py) that does not use kendalltrans, and its time is scaled by
REFERENCE_S over the loop's mean time around it: the time the op would
take on a machine that runs the loop in REFERENCE_S.  setup_s is scaled by
the loop's median time over the run instead: an import sample is mostly
file and loader work, which follows the host's speed over minutes but not
from one second to the next.  The unscaled medians are printed too, as
``setup_wall_s`` and ``*_wall_p50_s`` metric lines.

Human-readable ``metric`` and ``env`` lines come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed and
metrics.
"""

from __future__ import annotations

import os

# Pinned before numpy loads so that BLAS and OpenMP stay single-threaded.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

from reference import ReferenceLoop  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: fresh interpreters timed for setup_s; the median is reported
SETUP_SAMPLES = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import kendalltrans; "
    "print(repr(time.perf_counter() - t))"
)

#: Seconds the reference loop takes on the machine the times are scaled to.
#: On a 2-CPU x86-64 VM under Python 3.11 the loop takes about this long when
#: timed alone, but about 0.02 s between ops, so scaled times there read
#: about 1.5 times the wall times.
REFERENCE_S = 0.03

#: The gated metrics, reported by every workload.  round_p50_s sums, over the
#: ops of one round, the median scaled time of each op's command; the
#: per-command medians are printed too, but only for the workloads that run
#: the command.
END_TO_END = {
    "setup_s": "s",
    "round_p50_s": "s",
    "peak_rss_mb": "MB",
}


class Runner:
    """Runs ops through ``kendalltrans.cli.main`` and keeps the tallies."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reference = ReferenceLoop()

    def scale(self, before: float, after: float) -> float:
        """Factor that takes a time measured between two reference loops to REFERENCE_S."""
        return REFERENCE_S / ((before + after) / 2)

    def run(self, op) -> tuple[float, float, bytes]:
        """Run and check one op; returns its time, its scale and a digest of its outputs."""
        cli = sys.modules["kendalltrans.cli"]
        out, err = io.StringIO(), io.StringIO()
        if op.output is not None:
            op.output.unlink(missing_ok=True)  # never check a previous round's file
        gc.collect()
        self.attempted += 1
        problem = None
        before = self.reference.time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = perf_counter()
            try:
                code = cli.main(op.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed op, not a failed benchmark
                code = None
                problem = traceback.format_exc()
            elapsed = perf_counter() - start
        scale = self.scale(before, self.reference.time())
        data = op.output.read_bytes() if op.output is not None and op.output.exists() else None
        if problem is None and code != 0:
            problem = f"exit code {code}: {err.getvalue().strip()}"
        if problem is None:
            problem = op.check(out.getvalue(), data)
        if problem is not None:
            self.failed += 1
            print(f"perfbench: {op.kind} {op.argv} failed: {problem}", file=sys.stderr)
        digest = hashlib.sha256(out.getvalue().encode() + b"\0" + (data or b"")).digest()
        return elapsed, scale, digest

    def rounds(self, workload, seconds=None, count=None, after_round=lambda: None):
        """Run whole rounds until their op time reaches `seconds`, or `count` rounds.

        Returns per-round lists of (kind, seconds, scale, digest).
        """
        done, busy = [], 0.0
        while (count is None and busy < seconds) or (count is not None and len(done) < count):
            record = []
            for op in workload.round(len(done)):
                elapsed, scale, digest = self.run(op)
                busy += elapsed
                record.append((op.kind, elapsed, scale, digest))
            done.append(record)
            after_round()
        return done


def busy(done, scaled=False) -> float:
    """Summed op time of the rounds returned by :meth:`Runner.rounds`."""
    return sum(t * (scale if scaled else 1.0) for record in done for _, t, scale, _ in record)


def import_time() -> float:
    """Seconds to import kendalltrans in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CODE],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout)


def end_to_end(runner: Runner, workload, seconds: float) -> dict[str, tuple[float, str]]:
    # Set-up samples are spread between the timed rounds, so that the median
    # does not hang on one stretch of a shared machine's speed.
    setup: list[float] = []

    def sample_setup():
        if len(setup) < SETUP_SAMPLES:
            setup.append(import_time())

    runner.rounds(workload, count=1)  # warm-up: one of each command
    done = runner.rounds(workload, seconds=seconds, after_round=sample_setup)
    while len(setup) < SETUP_SAMPLES:
        sample_setup()
    scaled: dict[str, list[float]] = {kind: [] for kind in workload.kinds}
    wall: dict[str, list[float]] = {kind: [] for kind in workload.kinds}
    for record in done:
        for kind, elapsed, scale, _ in record:
            scaled[kind].append(elapsed * scale)
            wall[kind].append(elapsed)
    p50 = {kind: statistics.median(samples) for kind, samples in scaled.items()}
    wall_p50 = {kind: statistics.median(samples) for kind, samples in wall.items()}
    kinds = [op.kind for op in workload.round(0)]
    run_scale = statistics.median(scale for record in done for *_, scale, _ in record)
    return {
        "setup_s": (statistics.median(setup) * run_scale, "s"),
        "round_p50_s": (sum(p50[kind] for kind in kinds), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6, "MB"),
        # reported alongside, ungated: not every workload runs every command,
        # and unscaled times follow the host's speed
        **{f"{kind}_p50_s": (value, "s") for kind, value in p50.items()},
        "setup_wall_s": (statistics.median(setup), "s"),
        "round_wall_p50_s": (sum(wall_p50[kind] for kind in kinds), "s"),
        **{f"{kind}_wall_p50_s": (value, "s") for kind, value in wall_p50.items()},
        "reference_p50_s": (REFERENCE_S / run_scale, "s"),
        "wall_s": (busy(done), "s"),
        "error_rate": (runner.failed / runner.attempted, "ratio"),
        "rounds": (len(done), "count"),
    }


def per_layer(runner: Runner, workload, seconds: float) -> dict[str, tuple[float, str]]:
    import spans

    runner.rounds(workload, count=1)  # warm-up
    plain = runner.rounds(workload, seconds=seconds)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced = runner.rounds(workload, count=len(plain))
    finally:
        tracer.uninstall()
    for before, after in zip(plain, traced):
        for (kind, *_, want), (*_, got) in zip(before, after):
            if got != want:
                runner.failed += 1
                print(f"perfbench: traced {kind} output differs from untraced", file=sys.stderr)
    memory = spans.Tracer(memory=True)
    tracemalloc.start()
    memory.install()
    try:
        runner.rounds(workload, count=1)
    finally:
        memory.uninstall()
        tracemalloc.stop()
    metrics = spans.layer_metrics(tracer, memory, len(traced))
    metrics["trace.overhead_ratio"] = (busy(traced, scaled=True) / busy(plain, scaled=True), "ratio")
    return metrics


def environment(seed: int) -> dict:
    import numpy
    import scipy

    commit = "unknown"  # an exported checkout carries no git metadata
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30,
            ).stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "commit": commit,
        "seed": seed,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "kendalltrans" / "__init__.py").is_file():
        print(f"perfbench: no kendalltrans package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import kendalltrans.cli  # noqa: F401
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workdir = WORK / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        runner = Runner()
        measure = per_layer if args.trace else end_to_end
        metrics = measure(runner, workload, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value!r} {unit}")
    print("env " + json.dumps(environment(args.seed), sort_keys=True))
    if not args.trace:
        metrics = {name: metrics[name] for name in END_TO_END}
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
