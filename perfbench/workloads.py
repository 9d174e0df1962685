"""Workloads of the kendalltrans command-line benchmark.

A workload turns a seed into input files and an endless sequence of rounds.
A round is a fixed list of CLI invocations ("ops"), each with a check of its
output against a reference that does not use the code under test:

- ``score``: every score equals the closed form
  0.5*((1+t)log(1+t) + (1-t)log(1-t)) with t from ``scipy.stats.kendalltau``
  on the generated columns, within 1e-12, and the list is sorted.
- ``files``: encoded and merged files equal, byte for byte, the files rebuilt
  here from the generated values under the documented row-major pair order;
  ranks equal the within-batch wins-minus-losses ranking of the values.
- ``simulate``: the tidy values equal, within 1e-12, a reference recorded
  from the commit that introduced this benchmark (see record_reference.py).

Inputs are numeric and tie-free, so no op is expected to fail.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.stats import kendalltau, rankdata

SIM_REFERENCE = Path(__file__).resolve().parent / "simulate_reference.json"
TOLERANCE = 1e-12


@dataclass(frozen=True)
class Op:
    """One CLI invocation: metric stem, argv, the file it writes, its check.

    ``check(stdout, output_bytes)`` returns None when the output is right and
    a one-line reason otherwise.
    """

    kind: str
    argv: list[str]
    output: Path | None
    check: Callable[[str, bytes | None], str | None]


def _tie_free(columns: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    for name, x in columns.items():
        if np.unique(x).size != x.size:
            raise RuntimeError(f"generated column {name!r} has ties")
    return columns


def _write_csv(path: Path, columns: dict[str, np.ndarray]) -> None:
    names = list(columns)
    rows = zip(*(columns[name] for name in names))
    text = ",".join(names) + "\n" + "".join(
        ",".join(repr(float(v)) for v in row) + "\n" for row in rows
    )
    path.write_text(text, encoding="utf-8")


def read_csv(data: bytes) -> list[list[str]]:
    return list(csv.reader(io.StringIO(data.decode("utf-8"))))


# ---------------------------------------------------------------------------
# score: MI feature ranking, several fresh tables per round
# ---------------------------------------------------------------------------

def mi_from_tau(t: float) -> float:
    """MI in nats of the pair encodings of two tie-free vectors with tau t."""
    t = float(t)
    return 0.5 * ((1 + t) * math.log1p(t) + (1 - t) * math.log1p(-t))


def _score_table(rng: np.random.Generator, n: int, features: int) -> dict[str, np.ndarray]:
    latent = rng.standard_normal(n)
    cols = {}
    for j, alpha in enumerate(np.linspace(0.1, 0.9, features)):
        spread = rng.uniform(0.3, 2.0)
        noise = rng.standard_normal(n)
        cols[f"f{j}"] = np.exp(spread * (alpha * latent + (1 - alpha) * noise))
    cols["y"] = latent + 0.5 * rng.standard_normal(n)
    return _tie_free(cols)


def _check_score(expected: dict[str, float], stdout: str, _output) -> str | None:
    lines = stdout.splitlines()
    if not lines or lines[0] != "feature,score":
        return "score: missing 'feature,score' header"
    fields = [line.split(",") for line in lines[1:]]
    if sorted(f[0] for f in fields) != sorted(expected):
        return "score: feature set differs from the table"
    values = [float(f[1]) for f in fields]
    for (name, _), value in zip(fields, values):
        if abs(value - expected[name]) > TOLERANCE:
            return f"score: {name} = {value!r}, closed form gives {expected[name]!r}"
    if any(a < b for a, b in zip(values, values[1:])):
        return "score: features not sorted by score"
    return None


class ScoreWorkload:
    """``score --decision y`` on fresh n=800 tables of 8 log-normal features.

    Pair encoding and the materialised MI do nearly all the work; the CSV
    read is small.  The time to relabel a code array with ``np.unique``
    depends on the array (a few in a hundred take ten times longer), so a
    round scores several tables and every round draws new ones; the median
    round then reflects the typical mix rather than one lucky draw.
    """

    name = "score"
    kinds = ("score",)
    n, features, tables = 800, 8, 3

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._rounds: dict[int, list[Op]] = {}

    def round(self, i: int) -> list[Op]:
        if i not in self._rounds:
            self._rounds[i] = [self._op(i, k) for k in range(self.tables)]
        return self._rounds[i]

    def _op(self, i: int, k: int) -> Op:
        cols = _score_table(np.random.default_rng([self.seed, 1, i, k]), self.n, self.features)
        path = self.workdir / f"score_{i}_{k}.csv"
        _write_csv(path, cols)
        expected = {
            name: mi_from_tau(kendalltau(x, cols["y"]).statistic)
            for name, x in cols.items()
            if name != "y"
        }
        return Op("score", ["score", str(path), "--decision", "y"], None,
                  partial(_check_score, expected))


# ---------------------------------------------------------------------------
# files: transform two batches, merge the encodings, invert the merge
# ---------------------------------------------------------------------------

def _pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Row-major ordered pairs with the diagonal skipped (scheme rowmajor-v1)."""
    a = np.repeat(np.arange(n), n - 1)
    b = np.tile(np.arange(n - 1), n)
    return a, b + (b >= a)


def encoded_bytes(columns: dict[str, np.ndarray], batch: np.ndarray) -> bytes:
    """An encoded file rebuilt from values: A/D/T within a batch, NA across."""
    n = batch.size
    a, b = _pairs(n)
    same = batch[a] == batch[b]
    letters = []
    for x in columns.values():
        gap = x[b] - x[a]
        col = np.full(a.size, "NA", dtype=object)
        col[same & (gap > 0)] = "A"
        col[same & (gap < 0)] = "D"
        col[same & (gap == 0)] = "T"
        letters.append(col)
    body = "".join(",".join(row) + "\r\n" for row in zip(*letters))
    head = f"#kendall n={n} scheme=rowmajor-v1\n" + ",".join(columns) + "\r\n"
    return (head + body).encode("utf-8")


def copeland_ranks(x: np.ndarray, batch: np.ndarray) -> np.ndarray:
    """Rank 1 for the most within-batch wins minus losses; a win is a larger partner."""
    same = batch[:, None] == batch[None, :]
    wins = (same & (x[None, :] > x[:, None])).sum(axis=1)
    losses = (same & (x[None, :] < x[:, None])).sum(axis=1)
    return rankdata(-(wins - losses), method="average")


def _check_bytes(expected: bytes, what: str, _stdout, output: bytes | None) -> str | None:
    if output != expected:
        return f"{what}: file differs from the reference rebuilt from the values"
    return None


def _check_ranks(expected: dict[str, np.ndarray], _stdout, output: bytes | None) -> str | None:
    if output is None:
        return "inverse: no rank file"
    rows = read_csv(output)
    if rows[0] != list(expected):
        return f"inverse: header {rows[0]} != {list(expected)}"
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    for j, (name, ranks) in enumerate(expected.items()):
        if got.shape[0] != ranks.size or not np.array_equal(got[:, j], ranks):
            return f"inverse: ranks of {name} differ from the Copeland reference"
    return None


class FilesWorkload:
    """Rounds of transform x2 (n=300, 4 features), merge, inverse.

    Per-cell text reads and writes dominate; no estimator runs.
    """

    name = "files"
    kinds = ("transform", "merge", "inverse")
    n, features, pool = 300, 4, 2

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng([seed, 2])
        self.rounds = []
        names = [f"g{j}" for j in range(self.features)]
        for k in range(self.pool):
            # two batches of one feature set on incompatible scales
            first = {g: rng.lognormal(0.0, 1.0, self.n) for g in names}
            second = {g: 1e3 * np.exp(2.0 * rng.standard_normal(self.n)) for g in names}
            batches = [_tie_free(first), _tie_free(second)]
            raw = [workdir / f"batch_{k}_{i}.csv" for i in range(2)]
            enc = [workdir / f"enc_{k}_{i}.csv" for i in range(2)]
            merged = workdir / f"merged_{k}.csv"
            ranks = workdir / f"ranks_{k}.csv"
            for path, cols in zip(raw, batches):
                _write_csv(path, cols)
            single = np.zeros(self.n, dtype=int)
            batch_of = np.repeat([0, 1], self.n)
            joined = {g: np.concatenate([first[g], second[g]]) for g in names}
            ops = [
                Op("transform", ["transform", str(src), str(dst)], dst,
                   partial(_check_bytes, encoded_bytes(cols, single), "transform"))
                for src, dst, cols in zip(raw, enc, batches)
            ]
            ops.append(Op("merge", ["merge", str(enc[0]), str(enc[1]), str(merged)], merged,
                          partial(_check_bytes, encoded_bytes(joined, batch_of), "merge")))
            expected_ranks = {g: copeland_ranks(joined[g], batch_of) for g in names}
            ops.append(Op("inverse", ["inverse", str(merged), str(ranks)], ranks,
                          partial(_check_ranks, expected_ranks)))
            self.rounds.append(ops)

    def round(self, i: int) -> list[Op]:
        return self.rounds[i % self.pool]


# ---------------------------------------------------------------------------
# simulate: seeded simulation harnesses, checked against recorded values
# ---------------------------------------------------------------------------

SIM_CASES = 24
SIM_ARGS = {
    "sim_multivariate": ["--lambdas", "0,0.25,0.5,0.75,1", "--n", "200", "--reps", "1"],
    "sim_integration": ["--scale", "3", "--reps", "20"],
}


def sim_argv(kind: str, case: int, output: Path) -> list[str]:
    """CLI argv of one recorded simulation case; cases alternate the mixture."""
    argv = ["simulate", kind.removeprefix("sim_"), str(output), *SIM_ARGS[kind]]
    if kind == "sim_multivariate":
        argv += ["--mixture", ("linear", "max")[case % 2]]
    return argv + ["--seed", str(case)]


def _check_tidy(expected: list[list[str]], _stdout, output: bytes | None) -> str | None:
    if output is None:
        return "simulate: no tidy table"
    rows = read_csv(output)
    if len(rows) != len(expected) or rows[0] != expected[0]:
        return "simulate: tidy table shape or header differs from the reference"
    for got, want in zip(rows[1:], expected[1:]):
        if got[:-1] != want[:-1] or abs(float(got[-1]) - float(want[-1])) > TOLERANCE:
            return f"simulate: row {got} differs from the reference {want}"
    return None


class SimulateWorkload:
    """Alternating ``simulate multivariate`` (n=200) and ``simulate integration``.

    The seed picks the order in which the recorded cases run.
    """

    name = "simulate"
    kinds = ("sim_multivariate", "sim_integration")

    def __init__(self, seed: int, workdir: Path):
        self.reference = json.loads(SIM_REFERENCE.read_text(encoding="utf-8"))
        self.order = np.random.default_rng([seed, 3]).permutation(SIM_CASES)
        self.workdir = workdir

    def round(self, i: int) -> list[Op]:
        case = int(self.order[i % SIM_CASES])
        ops = []
        for kind in self.kinds:
            out = self.workdir / f"{kind}.csv"
            expected = self.reference[kind][str(case)]
            ops.append(Op(kind, sim_argv(kind, case, out), out, partial(_check_tidy, expected)))
        return ops


WORKLOADS = {w.name: w for w in (ScoreWorkload, FilesWorkload, SimulateWorkload)}
