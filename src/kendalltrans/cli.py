"""Command-line front end: transform, inverse, score, merge and simulate.

All commands are deterministic given input bytes and flags (``--seed`` for
``simulate``); each command accepts only the options it reads.  File formats
are documented in :mod:`kendalltrans.tableio`.
"""

from __future__ import annotations

import argparse
import functools
import math
import sys

import numpy as np

from . import analysis, tableio
from .errors import DomainError
from .transform import (
    copeland_inverse,
    expand_categorical,
    jitter_ties,
    kendall_transform,
    weighted_copeland,
)
from .integrate import merge_transformed


def _parse_jitter(text: str) -> tuple[int, float]:
    try:
        seed_str, scale_str = text.split(":", 1)
        seed, scale = int(seed_str), float(scale_str)
    except ValueError:
        raise DomainError(
            f"--jitter expects SEED:SCALE (e.g. 7:1e-6), got {text!r}"
        ) from None
    if seed < 0:
        raise DomainError(f"--jitter seed must be non-negative, got {seed}")
    if not 0 < scale < math.inf:  # checked here too: a table may have no numeric column
        raise DomainError(f"jitter scale must be positive and finite, got {scale}")
    return seed, scale


def _seed(text: str) -> int:
    try:
        seed = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if seed < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {seed}")
    return seed


def _log_base(args) -> float:
    return 2.0 if args.log_base == "2" else math.e


def _cmd_transform(args) -> int:
    table = tableio.read_table(args.input)
    jitter = None if args.jitter is None else _parse_jitter(args.jitter)
    columns: dict[str, np.ndarray] = {}
    for name, values in table.items():
        if values.dtype.kind == "f":
            if jitter is not None:
                # stream [seed, i], i the column's place in the encoded file
                seed, scale = jitter
                try:
                    values = jitter_ties(values, [seed, len(columns)], scale)
                except DomainError as exc:
                    raise DomainError(f"{args.input}: column {name!r}: {exc}") from None
            columns[name] = values
        elif args.expand_categorical:
            for cat, indicator in expand_categorical(values).items():
                indicator_name = f"{name}={cat}"
                if indicator_name in table or indicator_name in columns:
                    raise DomainError(
                        f"indicator column {indicator_name!r} clashes with "
                        "another column of that name"
                    )
                columns[indicator_name] = indicator
        else:
            raise DomainError(
                f"column {name!r} is not numeric; rerun with --expand-categorical"
            )
    encoded = {name: kendall_transform(v) for name, v in columns.items()}
    tableio.write_transformed(args.output, encoded)
    return 0


def _cmd_inverse(args) -> int:
    if args.weighted:
        weights, n = tableio.read_weights(args.input)
        rankings = {name: weighted_copeland(w, n) for name, w in weights.items()}
    else:
        encoded = tableio.read_transformed(args.input)
        rankings = {name: copeland_inverse(seq) for name, seq in encoded.items()}
    tableio.write_table(
        args.output, {name: r.ranks for name, r in rankings.items()}
    )
    return 0


def _cmd_score(args) -> int:
    table = tableio.read_table(args.input)
    ranking = analysis.rank_features(table, args.decision, method=args.method)
    divisor = math.log(_log_base(args))
    print("feature,score")
    for name, score in ranking.entries:
        print(f"{name},{repr(score / divisor)}")
    return 0


def _cmd_merge(args) -> int:
    systems = [tableio.read_transformed(path) for path in args.inputs]
    if len(systems) < 2:
        raise DomainError("merging needs at least two encoded files")
    names = list(systems[0])
    for path, system in zip(args.inputs[1:], systems[1:]):
        if set(system) != set(names):
            raise DomainError(
                f"{path}: feature set differs from {args.inputs[0]}"
            )
    merged = {
        name: merge_transformed([system[name] for system in systems])
        for name in names
    }
    tableio.write_transformed(args.output, merged)
    return 0


def _write_tidy(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(v) for v in row) + "\n")


def _report(args, result, header: list[str], levels, divisor: float = 1.0) -> int:
    """Write a result's replicates as a tidy table and print its bands at `levels`."""
    rows = [
        [rep, name, float(values[rep] / divisor)]
        for rep in range(args.reps)
        for name, values in result.estimates.items()
    ]
    _write_tidy(args.output, ["replicate", *header], rows)
    print(",".join([header[0], *(f"p{q}" for q in levels)]))
    for name, bands in result.percentiles.items():
        print(name + "," + ",".join(str(bands[q] / divisor) for q in levels))
    return 0


def _cmd_simulate_bivariate(args) -> int:
    result = analysis.simulate_bivariate(args.r, args.n, args.reps, args.seed)
    divisor = math.log(_log_base(args))
    return _report(args, result, ["estimator", "value"], (5, 25, 50, 75, 95), divisor)


def _cmd_simulate_multivariate(args) -> int:
    divisor = math.log(_log_base(args))
    lambdas = []
    for t in filter(None, args.lambdas.split(",")):
        try:
            lambdas.append(float(t))
        except ValueError:
            raise DomainError(f"--lambdas: {t!r} is not a number") from None
    if not lambdas:
        raise DomainError("--lambdas needs at least one value")
    rows = []
    for li, lam in enumerate(lambdas):
        scores = analysis._replicates(
            functools.partial(analysis.simulate_multivariate, lam, args.mixture, args.n),
            args.reps, [args.seed, li],
        )
        for rep in range(args.reps):
            for name, values in scores.items():
                rows.append([rep, lam, name, float(values[rep] / divisor)])
    _write_tidy(args.output, ["replicate", "lambda", "score", "value"], rows)
    return 0


def _cmd_simulate_integration(args) -> int:
    if args.input is not None:
        table = tableio.read_table(args.input)
    else:
        table = analysis.make_correlated_table(seed=args.seed, decision=args.decision)
    result = analysis.simulate_integration(table, args.decision, args.scale, args.reps, args.seed)
    return _report(args, result, ["method", "agreement"], (25, 50, 75))


def build_parser() -> argparse.ArgumentParser:
    units = argparse.ArgumentParser(add_help=False)
    units.add_argument(
        "--log-base", choices=("e", "2"), default="e",
        help="unit of reported information: e for nats (default), 2 for bits",
    )
    replicated = argparse.ArgumentParser(add_help=False)
    replicated.add_argument("output", help="tidy replicate table to write")
    replicated.add_argument("--reps", type=int, default=100, help="number of replicates")
    replicated.add_argument("--seed", type=_seed, default=0, help="seed of the replicate streams")
    sampled = argparse.ArgumentParser(add_help=False, parents=[replicated, units])
    sampled.add_argument("--n", type=int, default=100, help="sample size per replicate")

    parser = argparse.ArgumentParser(
        prog="kendalltrans",
        description="Pair-relation encoding of ordinal tables and its toolkit",
    )
    # no abbreviations, so that e.g. --r cannot stand for --reps
    strict = functools.partial(argparse.ArgumentParser, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=strict)

    p = sub.add_parser("transform", help="encode a data table into per-pair relation states")
    p.add_argument("input", help="delimited table, header plus one row per object")
    p.add_argument("output", help="encoded table to write")
    p.add_argument(
        "--jitter", metavar="SEED:SCALE", default=None,
        help="break ties in numeric columns with seeded uniform noise",
    )
    p.add_argument(
        "--expand-categorical", action="store_true",
        help="break non-numeric columns into category indicators",
    )
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("inverse", help="recover per-object ranks from an encoded table")
    p.add_argument("input", help="encoded table (or weight table with --weighted)")
    p.add_argument("output", help="rank table to write")
    p.add_argument(
        "--weighted", action="store_true",
        help="input holds per-pair state weights (<feature>:asc/:desc/:tie columns)",
    )
    p.set_defaults(func=_cmd_inverse)

    p = sub.add_parser(
        "score", parents=[units],
        help="rank features by mutual information with a decision column",
    )
    p.add_argument("input", help="delimited data table")
    p.add_argument("--decision", required=True, help="name of the decision column")
    p.add_argument(
        "--method", default="kendall",
        help="kendall (default), width:<k> or freq:<k>",
    )
    p.add_argument(
        "--base", dest="log_base", choices=("e", "2"), default=argparse.SUPPRESS,
        help="alias for --log-base",
    )
    p.set_defaults(func=_cmd_score)

    p = sub.add_parser("merge", help="fuse encoded batches; cross-batch pairs become NA")
    p.add_argument("inputs", nargs="+", help="encoded tables with one feature set")
    p.add_argument("output", help="merged encoded table to write")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("simulate", help="run a seeded simulation and write a tidy replicate table")
    kinds = p.add_subparsers(dest="kind", required=True, parser_class=strict)

    p = kinds.add_parser("bivariate", parents=[sampled], help="MI of correlated normal pairs")
    p.add_argument("--r", type=float, default=0.9, help="correlation")
    p.set_defaults(func=_cmd_simulate_bivariate)

    p = kinds.add_parser("multivariate", parents=[sampled], help="scores of a mixed decision")
    p.add_argument("--lambdas", default="0,0.25,0.5,0.75,1", help="comma-separated mixing weights")
    p.add_argument(
        "--mixture", choices=("linear", "max"), default="linear", help="decision construction"
    )
    p.set_defaults(func=_cmd_simulate_multivariate)

    p = kinds.add_parser("integration", parents=[replicated], help="agreement after rescaling")
    p.add_argument("--input", default=None, help="data table (default: synthetic)")
    p.add_argument("--decision", default="y", help="decision column name")
    p.add_argument("--scale", type=float, default=3.0, help="rescale factor")
    p.set_defaults(func=_cmd_simulate_integration)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
