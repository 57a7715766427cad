"""The benchmark's metric tables, the package boundaries it traces, and the
per-layer metrics computed from a traced pass.

``BENCHMARK.json`` at the repository root repeats WORKLOADS, END_TO_END and
PER_LAYER (without the ``moves`` column, which its format has no room for);
``test_bench.py`` keeps the two in step.  ``moves`` records, before any
optimisation, which end-to-end metric a layer metric should move and on
which workload.
"""

from __future__ import annotations

import math

from tracing import Boundary, Tracer

WORKLOADS = (
    ("sweep", "the n=4, 2-letter exhaustive enumerate command: per-candidate minimality, classification and checks dominate"),
    ("sample", "seeded sampled campaigns at n=3..6: rejection sampling, minimisation and the injection suite dominate"),
    ("closure", "six witness semigroups at n=7,8 up to 2.1M elements checked against closed forms: set growth and memory dominate"),
    ("generators", "generator necessity and exact minimal generator counts: ~850k tiny subset closures, per-call overhead dominates"),
)

# (name, unit, better, bound)
END_TO_END = (
    ("verdict_s", "s", "lower", 0.24),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("setup_s", "s", "lower", 0.25),
)

_SWEEP = "verdict_s on sweep"
_SAMPLE = "verdict_s on sample"
_CLOSURE = "verdict_s on closure"
_GENERATORS = "verdict_s on generators"
_CASE = "nothing (deterministic case coverage)"

# (name, unit, better, moves)
PER_LAYER = (
    ("cli.self_s", "s", "lower", "nothing: argument parsing and report serialisation, a guard on sweep"),
    ("harness.candidates", "count", "lower", _SWEEP),
    ("harness.minimal", "count", "lower", _SWEEP),
    ("harness.minimal_ratio", "ratio", "higher", _SWEEP),
    ("harness.violations", "count", "lower", "failed share on sweep"),
    ("harness.self_s", "s", "lower", _SWEEP),
    ("harness.sampler.calls", "count", "lower", _SAMPLE),
    ("harness.sampler.attempts", "count", "lower", _SAMPLE),
    ("harness.sampler.accept_ratio", "ratio", "higher", _SAMPLE),
    ("harness.sampler.self_s", "s", "lower", _SAMPLE),
    ("dfa.partition.calls", "count", "lower", _SWEEP),
    ("dfa.partition.self_s", "s", "lower", _SWEEP),
    ("dfa.partition.us_p50", "us", "lower", _SWEEP),
    ("dfa.partition.us_p99", "us", "lower", _SWEEP),
    ("dfa.preorder.calls", "count", "lower", _SWEEP),
    ("dfa.preorder.self_s", "s", "lower", _SWEEP),
    ("dfa.preorder.us_p50", "us", "lower", _SWEEP),
    ("dfa.preorder.us_p99", "us", "lower", _SWEEP),
    ("dfa.reachable.calls", "count", "lower", _SWEEP),
    ("dfa.reachable.self_s", "s", "lower", _SWEEP),
    ("dfa.minimize.calls", "count", "lower", _SAMPLE),
    ("dfa.minimize.self_s", "s", "lower", _SAMPLE),
    ("dfa.transition_semigroup.calls_per_item", "calls/item", "lower", _SAMPLE),
    ("ideals.classify_minimal.calls", "count", "lower", _SWEEP),
    ("ideals.classify_minimal.self_s", "s", "lower", _SWEEP),
    ("ideals.classify_minimal.us_p50", "us", "lower", _SWEEP),
    ("ideals.classify_minimal.us_p99", "us", "lower", _SWEEP),
    ("ideals.classify.calls", "count", "lower", _SAMPLE),
    ("ideals.classify.self_s", "s", "lower", _SAMPLE),
    ("semigroup.closure.calls", "count", "lower", _CLOSURE),
    ("semigroup.closure.elements", "count", "lower", "verdict_s and peak_rss_mb on closure"),
    ("semigroup.closure.self_s", "s", "lower", "verdict_s on closure, about 4% of sweep"),
    ("semigroup.closure.elements_per_s", "1/s", "higher", _CLOSURE),
    ("semigroup.subset_closure.calls", "count", "lower", _GENERATORS),
    ("semigroup.subset_closure.self_s", "s", "lower", _GENERATORS),
    ("semigroup.subset_closure.us_p50", "us", "lower", _GENERATORS),
    ("semigroup.subset_closure.us_p99", "us", "lower", _GENERATORS),
    ("semigroup.generator_search.self_s", "s", "lower", _GENERATORS),
    ("semigroup.generator_search.generating_ratio", "ratio", "higher", _GENERATORS),
    ("semigroup.necessity.self_s", "s", "lower", _GENERATORS),
    ("semigroup.relabel.calls", "count", "lower", _CLOSURE),
    ("semigroup.relabel.self_s", "s", "lower", _CLOSURE),
    ("semigroup.relabel.perms_tried", "count", "lower", _CLOSURE),
    ("witness.expected_semigroup.calls", "count", "lower", "verdict_s on closure and on sample"),
    ("witness.expected_semigroup.self_s", "s", "lower", "verdict_s on closure and on sample"),
    ("witness.expected_semigroup.calls_per_key", "calls/key", "lower", _SAMPLE),
    ("injection.make_context.calls", "count", "lower", _SAMPLE),
    ("injection.make_context.self_s", "s", "lower", _SAMPLE),
    ("injection.verify.calls", "count", "lower", _SAMPLE),
    ("injection.verify.self_s", "s", "lower", _SAMPLE),
    ("injection.verify.elements", "count", "lower", _SAMPLE),
    ("injection.verify.us_per_element", "us", "lower", _SAMPLE),
    *(
        (f"injection.case.{klass}.{label}", "count", "higher", _CASE)
        for klass, labels in (
            ("left", ("1", "2", "3a", "3b", "3c")),
            ("two-sided", ("1", "2a", "2b", "2c", "3a", "3b", "3c", "3d")),
        )
        for label in labels
    ),
    ("trace.overhead_s", "s", "lower", "nothing: traced minus untraced verdict_s"),
)


# ---------------------------------------------------------------------------
# boundaries and what is counted at each


def _harness(tr: Tracer, parent, args, kwargs, report) -> None:
    tr.counts["harness.violations"] += len(report.violations)


def _sampler(tr: Tracer, parent, args, kwargs, result) -> None:
    tr.counts["harness.candidates"] += 1
    tr.counts["harness.sampler.accepted"] += result is not None


def _reachable(tr: Tracer, parent, args, kwargs, result) -> None:
    # An exhaustive probe that does not reach every state is examined once
    # per non-empty final set and skipped without a partition call.
    n = args[0].n
    if parent == "harness" and len(result) != n:
        tr.counts["harness.candidates"] += 2**n - 1


def _partition(tr: Tracer, parent, args, kwargs, result) -> None:
    if parent == "harness":
        tr.counts["harness.candidates"] += 1


def _minimize(tr: Tracer, parent, args, kwargs, result) -> None:
    if parent == "harness.sampler":
        tr.counts["harness.sampler.attempts"] += 1


def _classify_minimal(tr: Tracer, parent, args, kwargs, result) -> None:
    if parent == "harness":
        tr.counts["harness.minimal"] += 1


def _closure(tr: Tracer, parent, args, kwargs, result) -> None:
    tr.counts["semigroup.closure.elements"] += len(getattr(result, "images", ()))


def _subset_closure(tr: Tracer, parent, args, kwargs, result) -> None:
    if parent == "semigroup.generator_search":
        stop_at = kwargs.get("stop_at")
        tr.counts["semigroup.generator_search.subsets"] += 1
        tr.counts["semigroup.generator_search.generating"] += (
            result is not None and stop_at is not None and len(result) >= stop_at
        )


def _conjugate(tr: Tracer, parent, args, kwargs, result) -> None:
    if parent == "semigroup.relabel":
        tr.counts["semigroup.relabel.perms_tried"] += 1


def _expected(tr: Tracer, parent, args, kwargs, result) -> None:
    tr.keys.setdefault("witness.expected_semigroup", set()).add(args + tuple(kwargs.values()))


def _verify(tr: Tracer, parent, args, kwargs, report) -> None:
    tr.counts["injection.verify.elements"] += report.size_T
    for label, count in report.case_counts.items():
        tr.counts[f"injection.case.{report.klass.value}.{label}"] += count


BOUNDARIES = (
    Boundary("cli", "synideal.cli", "main"),
    Boundary("harness", "synideal.harness", "run", _harness),
    Boundary("harness.sampler", "synideal.harness", "sample_ideal_dfa", _sampler),
    Boundary("dfa.partition", "synideal.dfa", "_partition", _partition),
    Boundary("dfa.preorder", "synideal.dfa", "preorder"),
    Boundary("dfa.reachable", "synideal.dfa", "reachable_states", _reachable),
    Boundary("dfa.minimize", "synideal.dfa", "minimize", _minimize),
    Boundary("dfa.transition_semigroup", "synideal.dfa", "transition_semigroup"),
    Boundary("ideals.classify_minimal", "synideal.ideals", "classify_minimal", _classify_minimal),
    Boundary("ideals.classify", "synideal.ideals", "classify"),
    Boundary("semigroup.closure", "synideal.semigroup", "closure", _closure),
    # The packed kernel inside closure() is closure's own work; elsewhere
    # (harness, necessity, generator search) each call is a subset closure.
    Boundary(
        "semigroup.subset_closure", "synideal.semigroup", "_close_images", _subset_closure,
        fold_under=frozenset({"semigroup.closure"}),
    ),
    Boundary("semigroup.generator_search", "synideal.semigroup", "minimal_generator_count"),
    Boundary("semigroup.necessity", "synideal.semigroup", "generator_necessity"),
    Boundary("semigroup.relabel", "synideal.semigroup", "equal_up_to_relabeling"),
    Boundary("semigroup.conjugate", "synideal.semigroup", "_conjugated_images", _conjugate, span=False),
    Boundary("witness.expected_semigroup", "synideal.witness", "expected_semigroup", _expected),
    Boundary("injection.make_context", "synideal.injection", "make_context"),
    Boundary("injection.verify", "synideal.injection", "verify_injection", _verify),
)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced pass


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _nearest_rank(values: list[float], q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def layer_metrics(tr: Tracer, items: int, overhead_s: float) -> dict[str, float]:
    """Every PER_LAYER metric for one traced pass over ``items`` operations."""
    spans = tr.by_name()
    empty: tuple[list[float], list[float]] = ([], [])
    c = tr.counts

    def calls(layer: str) -> int:
        return len(spans.get(layer, empty)[0])

    def busy(layer: str) -> float:
        return sum(spans.get(layer, empty)[0])

    derived = {
        "harness.minimal_ratio": lambda: _ratio(c["harness.minimal"], c["harness.candidates"]),
        "harness.sampler.accept_ratio": lambda: _ratio(
            c["harness.sampler.accepted"], c["harness.sampler.attempts"]
        ),
        "dfa.transition_semigroup.calls_per_item": lambda: _ratio(
            calls("dfa.transition_semigroup"), items
        ),
        "semigroup.closure.elements_per_s": lambda: _ratio(
            c["semigroup.closure.elements"], busy("semigroup.closure")
        ),
        "semigroup.generator_search.generating_ratio": lambda: _ratio(
            c["semigroup.generator_search.generating"], c["semigroup.generator_search.subsets"]
        ),
        "witness.expected_semigroup.calls_per_key": lambda: _ratio(
            calls("witness.expected_semigroup"), len(tr.keys.get("witness.expected_semigroup", ()))
        ),
        "injection.verify.us_per_element": lambda: 1e6 * _ratio(
            busy("injection.verify"), c["injection.verify.elements"]
        ),
        "trace.overhead_s": lambda: overhead_s,
    }
    out: dict[str, float] = {}
    for name, _unit, _better, _moves in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if name in derived:
            out[name] = derived[name]()
        elif stat == "calls":
            out[name] = calls(layer)
        elif stat == "self_s":
            out[name] = sum(spans.get(layer, empty)[1])
        elif stat in ("us_p50", "us_p99"):
            q = 0.50 if stat == "us_p50" else 0.99
            out[name] = 1e6 * _nearest_rank(spans.get(layer, empty)[0], q)
        else:
            out[name] = c[name]
    return out
