"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def fingerprint(name: str, seed: int, workdir: Path) -> str:
    """Digest of a workload's generated files and of its first rounds' argv."""
    workdir.mkdir()
    workload = workloads.WORKLOADS[name](seed, workdir)
    digest = hashlib.sha256()
    for i in range(4):
        for op in workload.round(i):
            digest.update(" ".join(op.argv).replace(str(workdir), "").encode())
    for path in sorted(workdir.iterdir()):
        digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_depend_only_on_the_seed(name, tmp_path):
    first = fingerprint(name, 11, tmp_path / "a")
    assert fingerprint(name, 11, tmp_path / "b") == first
    assert fingerprint(name, 12, tmp_path / "c") != first


def test_self_time_subtracts_the_union_of_children():
    tree = [
        ("root", -1, 0.0, 10.0),
        ("a", 0, 1.0, 4.0),
        ("a.x", 1, 1.5, 2.0),
        ("b", 0, 3.0, 6.0),   # overlaps a by 1: children cover [1, 6]
        ("c", 0, 9.0, 12.0),  # runs past the root's end: covers [9, 10]
        ("d", 0, 7.0, 7.0),   # empty
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 6, 3 - 0.5, 0.5, 3, 3, 0])


def test_layer_metrics_sum_self_time_per_span_and_round():
    tracer, memory = spans.Tracer(), spans.Tracer()
    tracer.spans = [
        ("cli.main", -1, 0.0, 4.0),
        ("transform.kendall_transform", 0, 0.0, 1.0),
        ("cli.main", -1, 5.0, 7.0),
        ("transform.kendall_transform", 2, 5.0, 6.5),
    ]
    tracer.counts["transform.pairs_encoded"] = 12
    memory.peaks["infotheory.mutual_information"] = [(10, 400), (1000, 9000)]
    metrics = spans.layer_metrics(tracer, memory, rounds=2)
    assert metrics["cli.main.calls"] == (1.0, "count/round")
    assert metrics["cli.main.self_s"][0] == pytest.approx((3.0 + 0.5) / 2)
    assert metrics["transform.kendall_transform.self_s"][0] == pytest.approx(1.25)
    assert metrics["transform.pairs_encoded"] == (6.0, "count/round")
    assert metrics["infotheory.mutual_information.peak_bytes_per_pair"] == (9.0, "B/pair")


def test_wrappers_reach_every_lookup_name_and_come_off():
    import kendalltrans
    import kendalltrans.cli
    from kendalltrans import analysis, cli, transform

    original = transform.kendall_transform
    tracer = spans.Tracer()
    tracer.install()
    try:
        for module in (kendalltrans, transform, analysis, cli):
            assert module.kendall_transform is not original
        table = {"x": np.array([1.0, 3.0, 2.0, 4.0]), "y": np.array([1.0, 2.0, 3.0, 4.0])}
        assert kendalltrans.rank_features(table, "y").names == ("x",)
    finally:
        tracer.uninstall()
    for module in (kendalltrans, transform, analysis, cli):
        assert module.kendall_transform is original
    assert isinstance(vars(transform.KendallSequence)["codes"], property)
    names = [name for name, *_ in tracer.spans]
    assert names.count("analysis.rank_features") == 1
    assert names.count("transform.kendall_transform") == 2
    assert "transform.KendallSequence.codes" in names


def test_closed_form_reference():
    assert workloads.mi_from_tau(0.0) == 0.0
    assert workloads.mi_from_tau(0.5) == pytest.approx(
        0.5 * (1.5 * np.log(1.5) + 0.5 * np.log(0.5)), abs=1e-15
    )


def test_metric_names_units_and_declared_sets():
    per_layer = {f"{s}.{k}" for s in spans.SPAN_NAMES for k in ("calls", "self_s")}
    per_layer |= set(spans.COUNTERS)
    per_layer |= {f"{s}.peak_bytes_per_pair" for s in spans.PEAK_SPANS}
    per_layer.add("trace.overhead_ratio")
    assert {m["name"] for m in BENCHMARK["per_layer"]} == per_layer
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == set(run.END_TO_END)
    kinds = {kind for w in workloads.WORKLOADS.values() for kind in w.kinds}
    reported = {f"{kind}{suffix}" for kind in kinds for suffix in ("_p50_s", "_wall_p50_s")}
    reported |= {"setup_wall_s", "round_wall_p50_s", "reference_p50_s", "wall_s", "error_rate",
                 "rounds"}
    for name in per_layer | set(run.END_TO_END) | reported:
        assert NAME.fullmatch(name), name
    for metric in BENCHMARK["end_to_end"]:
        assert run.END_TO_END[metric["name"]] == metric["unit"]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_scale_takes_times_to_the_reference_speed():
    runner = run.Runner()
    # a machine running the loop in twice REFERENCE_S halves every time
    assert runner.scale(run.REFERENCE_S, 3 * run.REFERENCE_S) == pytest.approx(0.5)
    assert runner.reference.time() > 0
