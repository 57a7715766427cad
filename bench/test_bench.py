"""Tests of the benchmark itself: its contract file, the tracer, the oracles,
and the self-consistency of traced runs on reduced workloads.

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys

import pytest

import run
from layers import BOUNDARIES, END_TO_END, PER_LAYER, WORKLOADS
from tracing import Boundary, Tracer, install
from workloads import WORKLOAD_TYPES, Closure, Generators, Sample, Sweep, campaign_outcome, swap_conjugate

from synideal import dfa, harness, injection, semigroup, witness
from synideal.semigroup import TransformationSemigroup
from synideal.witness import IdealClass

_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
_UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_benchmark_json_matches_the_tables():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert doc["command"] == ["python3", "bench/run.py"]
    assert doc["paths"] == ["bench"]
    assert [(w["name"], w["why"]) for w in doc["workloads"]] == list(WORKLOADS)
    assert set(run.WORKLOAD_NAMES) == set(WORKLOAD_TYPES)
    assert [tuple(m.values()) for m in doc["end_to_end"]] == list(END_TO_END)
    assert [tuple(m.values()) for m in doc["per_layer"]] == [row[:3] for row in PER_LAYER]
    names = [m["name"] for m in doc["workloads"] + doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    assert all(_NAME.match(n) for n in names)
    assert all(_UNIT.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


def test_case_metrics_cover_every_case_label():
    named = {name for name, *_ in PER_LAYER if name.startswith("injection.case.")}
    expected = {
        f"injection.case.{klass.value}.{label}"
        for klass, labels in injection.CASE_LABELS.items()
        for label in labels
    }
    assert named == expected


def test_install_wraps_every_binding_and_restores_it():
    originals = (dfa._partition, harness._partition, semigroup._close_images, harness._close_images)
    restore, absent = install(Tracer(), BOUNDARIES)
    try:
        assert absent == []
        assert dfa._partition is harness._partition is not originals[0]
        assert semigroup._close_images is harness._close_images is not originals[2]
    finally:
        restore()
    assert (dfa._partition, harness._partition, semigroup._close_images, harness._close_images) == originals


def test_missing_name_is_reported_absent():
    restore, absent = install(Tracer(), [Boundary("gone", "synideal.dfa", "_no_such_function")])
    restore()
    assert absent == ["gone"]


def test_self_time_subtracts_direct_children():
    tr = Tracer()
    tr.name_id("outer")
    tr.name_id("inner")
    for name, parent, start, end in [(0, -1, 0.0, 10.0), (1, 0, 1.0, 4.0), (1, 0, 5.0, 6.0), (0, 2, 5.2, 5.7)]:
        tr.name_of.append(name)
        tr.parent.append(parent)
        tr.start.append(start)
        tr.end.append(end)
    assert tr.self_times() == pytest.approx([6.0, 3.0, 0.5, 0.5])
    assert sum(tr.self_times()) == pytest.approx(10.0)


def test_probed_pass_scales_each_step_and_drops_the_probe_time():
    probe = run.SpeedProbe()
    workload = Generators(seed=0, necessity_sizes=(5,), counts=())
    wall, reference, outcome = run.run_pass(workload, probe)
    assert outcome.problems == [] and probe.samples == []
    assert 0 < wall and 0 < reference
    plain_wall, plain_reference, _ = run.run_pass(workload)
    assert plain_wall == plain_reference


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail([1.0] * 10) is None
    assert run.tail([float(i) for i in range(1, 101)]) == (90, 90.0)
    assert run.tail([float(i) for i in range(1, 12)]) == (9, 1.0)


@pytest.mark.parametrize("klass", list(IdealClass))
def test_seeded_conjugate_forces_the_relabeling_search_to_work(klass):
    n = 5
    workload = Closure(seed=3, sizes=(n,))
    ((_, _, _, (i, j)),) = [item for item in workload.items if item[0] is klass]
    s = dfa.transition_semigroup(witness.build(klass, n))
    moved = swap_conjugate(s.images, i, j)
    assert moved != s.images
    target = TransformationSemigroup(n=n, images=moved, generators=s.generators)
    fixed = [q for q in range(n) if q not in (i, j)]
    perm = semigroup.equal_up_to_relabeling(s, target, fixed)
    assert perm[i] == j and perm[j] == i


def test_oracles_flag_wrong_answers():
    data = {
        "violations": [{"check": "bounds", "dfa": "x"}, {"check": "injection", "dfa": "y"}],
        "per_class": {"right": {"count": 1, "max_sigma": 10, "bound": 9}},
        "examined": 2, "minimal": 2, "injection_contexts": 1,
    }
    o = campaign_outcome(data, 3, 2)
    assert o.failed == 2
    assert len(o.problems) == 2  # the injection violation and max_sigma above 3^2

    wrong = Generators(seed=0, necessity_sizes=(), counts=((IdealClass.LEFT, 3, 4, 3),))
    _, _, outcome = run.run_pass(wrong)
    assert (outcome.attempted, outcome.failed, len(outcome.problems)) == (1, 1, 1)


def test_counts_are_those_of_one_pass_and_passes_must_agree():
    workload = Generators(seed=0, necessity_sizes=(4,), counts=())
    outcomes = [run.run_pass(workload)[2] for _ in range(3)]
    assert run.summarise(outcomes) == (outcomes[0].attempted, 0, [])
    outcomes[2].failed = 1
    assert run.summarise(outcomes)[2] == ["pass 2 gave another verdict than pass 0"]


def test_sample_inputs_depend_on_the_seed_alone():
    assert Sample(seed=5).specs == Sample(seed=5).specs != Sample(seed=6).specs


def test_raised_errors_fail_the_step():
    wrong = Generators(seed=0, necessity_sizes=(), counts=((IdealClass.LEFT, 5, 2, None),))
    _, _, outcome = run.run_pass(wrong)  # SearchInfeasible: over the search budget
    assert (outcome.attempted, outcome.failed) == (1, 1)
    assert "SearchInfeasible" in outcome.problems[0]


REDUCED = {
    "sweep": lambda: Sweep(seed=1, n=3, alphabet_size=2),
    "sample": lambda: Sample(
        seed=1, count=3,
        settings=((IdealClass.LEFT, 4, 2), (IdealClass.TWO_SIDED, 4, 3), (IdealClass.RIGHT, 4, 2)),
    ),
    "closure": lambda: Closure(seed=1, sizes=(5, 6)),
    "generators": lambda: Generators(
        seed=1, necessity_sizes=(3, 4), counts=((IdealClass.LEFT, 3, 4, 4),)
    ),
}


@pytest.mark.parametrize("name", sorted(REDUCED))
def test_traced_run_is_self_consistent(name):
    workload = REDUCED[name]()
    result = run.measure_traced(workload, seconds=0)
    assert result["absent"] == []
    assert all(result["consistency"].values()), result["consistency"]
    (outcome,) = result["outcomes"]
    assert outcome.problems == []
    assert set(result["metrics"]) == {row[0] for row in PER_LAYER}
    if name == "sweep":
        assert result["metrics"]["harness.candidates"] > result["metrics"]["harness.minimal"] > 0
    if name in ("closure", "generators"):
        assert result["metrics"]["semigroup.closure.elements"] == outcome.outputs["elements"] > 0


def test_sweep_operations_are_minimal_candidates():
    _, _, outcome = run.run_pass(Sweep(seed=1, n=3, alphabet_size=2))
    assert outcome.problems == []
    assert outcome.attempted == outcome.outputs["minimal"] > 0


def test_refuses_to_run_without_the_package_source():
    bare = run.OUT / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.ROOT / "bench", bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "sample", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=120,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
