"""Tests of the benchmark itself: run with ``python3 -m pytest benchmarks``."""

from __future__ import annotations

import dataclasses
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
COUNTS = re.compile(r"\.(calls|terms|integrand_evals|steps|limit_calls|failed|contexts)$")


def _spec():
    with open(os.path.join(run.HERE, "spec.json")) as fh:
        return json.load(fh)


def _bench():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    w = WORKLOADS[name]
    first = run.ops_from(w, 7, "timed", 120)
    assert first == run.ops_from(w, 7, "timed", 120)
    assert first != run.ops_from(w, 8, "timed", 120)
    warm_radii = {op.r for op in run.ops_from(w, 7, "warmup", 60)}
    assert warm_radii.isdisjoint(op.r for op in first)
    if w.kind == "points":
        assert len({op.r for op in first}) == len(first)


def test_points_generator_follows_its_distribution():
    w = WORKLOADS["points-40"]
    ops = run.ops_from(w, 3, "timed", 4 * w.block)
    near = [op for op in ops if float(op.theta) > (3.141592653589793 - w.near_phi) / 2]
    assert len(near) >= w.near_share * len(ops)
    assert all(w.r_min <= float(op.r) <= w.r_max for op in ops)
    assert all(op.variant == "eq42" for op in ops
               if float(op.theta) / 3.141592653589793 > w.eq42_only_above)
    assert {op.k_terms for op in ops} == set(range(1, w.k_terms_max + 1))


def _run_cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_counts_repeat_exactly(name):
    seconds = "0.1" if WORKLOADS[name].kind == "points" else "1"
    args = ("--workload", name, "--seed", "5", "--seconds", seconds, "--trace", "1")
    first, second = (json.loads(_run_cli(run.ROOT, *args).stdout.splitlines()[-1])
                     for _ in range(2))
    assert first["correct"] and second["correct"]
    assert first["attempted"] == second["attempted"] and first["failed"] == second["failed"]
    assert set(first["metrics"]) == {m["name"] for m in _spec()["per_layer"]}
    counts = [n for n in first["metrics"] if COUNTS.search(n) or n.startswith("warnings.")]
    assert sum(first["metrics"][n]["value"] for n in counts if n.endswith(".calls")) > 0
    for n in counts:
        assert first["metrics"][n] == second["metrics"][n], n


def test_untraced_run_reports_every_catalog_metric():
    w = WORKLOADS["points-40"]
    correct, attempted, failed, metrics, _ = run.untraced_run(w, 5, 0.01)
    assert correct and attempted == w.check_count(0.01) >= 100
    # the checked ops are a fixed number, so the counts repeat exactly
    assert run.untraced_run(w, 5, 0.01)[1:3] == (attempted, failed)
    assert metrics["failed_share"] == failed / attempted
    catalog = _spec()["end_to_end"] + _spec()["per_layer"]
    expected = {m["name"] for m in _spec()["end_to_end"] if "points-40" in m["workloads"]}
    assert expected <= set(metrics) <= {m["name"] for m in catalog}
    assert all(metrics[m["name"]] > 0 for m in _bench()["end_to_end"])


def test_planted_wrong_answer_and_refusal_are_counted():
    w = WORKLOADS["points-40"]
    runner = run.Runner(run.load_library(), w)
    lib = runner.lib
    ops = [op._replace(variant="eq42", k_terms=3) for op in run.ops_from(w, 9, "timed", 4)]
    real_op = runner.op

    def planted(op):
        if op is ops[1]:
            ev = real_op(op)
            return dataclasses.replace(ev, K=2 * ev.K)
        if op is ops[2]:
            raise lib.DomainError("planted refusal")
        if op is ops[3]:
            raise ZeroDivisionError("planted crash")
        return real_op(op)

    runner.op = planted
    outcomes = runner.loop(ops)
    verdicts = run.classify(runner, outcomes)
    n_failed, n_refused, hard, reasons, _ = run.tally(outcomes, verdicts)
    assert reasons == {"missed_reference": 1, "crashed": 1}
    assert (n_failed, n_refused, hard) == (2, 1, 1)
    metrics = run.end_to_end(outcomes, verdicts, len(outcomes))
    assert metrics["failed_share"] == 2 / 4
    assert metrics["refused_share"] == 1 / 4


def test_metric_catalogs_agree():
    spec, bench = _spec(), _bench()
    catalog = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    assert len(catalog) == len(spec["end_to_end"]) + len(spec["per_layer"])
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert {k: catalog[m["name"]][k] for k in m} == m
    for name in catalog:
        assert NAME.fullmatch(name), name
    assert [m["name"] for m in bench["end_to_end"]] == [
        m["name"] for m in spec["end_to_end"] if m["gated"]]
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    assert spec["workloads"] == {n: dataclasses.asdict(w) for n, w in WORKLOADS.items()}


def test_exits_nonzero_without_library_source(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run_cli(tmp_path, "--workload", "points-40", "--seed", "1", "--seconds", "1",
                    "--trace", "0")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
