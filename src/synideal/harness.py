"""Exhaustive and randomized verification campaigns over small DFAs.

Exhaustive mode enumerates every DFA with n states up to two reductions that
leave minimality, classification, and syntactic complexity untouched: letters
inducing equal transformations are collapsed (the candidate alphabet is a set
of distinct transformations) and alphabet order is ignored.  Every minimal
candidate is classified; per requested check the campaign compares maxima
against the class bounds, relabels bound-meeting semigroups onto the maximal
one, runs the injection suite, and tests conformance with the special-quotient
bounds.

Sample mode draws seeded random ideals of an exact state count and runs the
same checks on each.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import combinations, product, repeat
from math import comb
from typing import AbstractSet, Callable

from .dfa import (
    Dfa,
    Transitions,
    from_maps,
    quotient_maps,
    reachable_states,
    sink_to_top,
    to_text,
    transition_semigroup,
    _partition,
)
from .ideals import (
    ClassificationReport,
    classify_minimal,
    letter_ur_cells,
    special_quotient_bound,
)
from .injection import MIN_CONTEXT_N, minimal_context, verify_injection
from .semigroup import (
    CapExceeded,
    ClosureOverflow,
    TransformationSemigroup,
    _close_images,
    equal_up_to_relabeling,
)
from .witness import MIN_N, IdealClass, bound, expected_semigroup

EXHAUSTIVE_BUDGET = 10**8
#: Random DFAs ``sample_ideal_dfa`` draws before it gives up on one sample.
SAMPLE_ATTEMPTS = 4000
_LETTERS = "abcdefghijklmnopqrstuvwxyz"

ALL_CHECKS = frozenset({"tightness", "uniqueness", "injection", "bounds"})


class BudgetExceeded(RuntimeError):
    """An exhaustive campaign outside the documented candidate budget."""


def exhaustive_candidates(n: int, alphabet_size: int) -> int:
    """The candidate DFAs an exhaustive campaign examines: every set of 1 to
    ``alphabet_size`` distinct maps of the n states, with every non-empty
    final set."""
    return sum(comb(n**n, size) for size in range(1, alphabet_size + 1)) * (2**n - 1)


@dataclass(frozen=True)
class SampleMode:
    count: int
    seed: int


@dataclass(frozen=True)
class CampaignSpec:
    n: int
    alphabet_size: int
    class_filter: IdealClass | None = None
    mode: "str | SampleMode" = "exhaustive"
    checks: frozenset[str] = ALL_CHECKS

    def __post_init__(self) -> None:
        unknown = set(self.checks) - ALL_CHECKS
        if unknown:
            raise ValueError(f"unknown checks: {sorted(unknown)}")
        if self.n < 1:
            raise ValueError(f"n must be at least 1, got {self.n}")
        if not 1 <= self.alphabet_size <= len(_LETTERS):
            raise ValueError(
                f"alphabet size must be in 1..{len(_LETTERS)}, got {self.alphabet_size}"
            )
        if isinstance(self.mode, SampleMode) and self.mode.count < 1:
            raise ValueError(f"sample count must be at least 1, got {self.mode.count}")
        if self.mode == "exhaustive":
            cost = exhaustive_candidates(self.n, self.alphabet_size)
            if cost > EXHAUSTIVE_BUDGET:
                raise BudgetExceeded(
                    f"{cost} candidate DFAs exceed the budget {EXHAUSTIVE_BUDGET}"
                )
        elif not isinstance(self.mode, SampleMode):
            raise ValueError(f"mode must be 'exhaustive' or SampleMode, got {self.mode!r}")

    def to_json_dict(self) -> dict:
        mode = (
            "exhaustive"
            if self.mode == "exhaustive"
            else {"sample": {"count": self.mode.count, "seed": self.mode.seed}}
        )
        return {
            "n": self.n,
            "alphabet_size": self.alphabet_size,
            "class_filter": self.class_filter.value if self.class_filter else None,
            "mode": mode,
            "checks": sorted(self.checks),
        }


@dataclass
class ClassStats:
    count: int = 0
    max_sigma: int = 0
    bound: int = 0
    maximizers: int = 0
    maximizers_relabeled: int = 0

    @property
    def bound_met(self) -> bool:
        return self.max_sigma == self.bound

    def to_json_dict(self) -> dict:
        return {
            "count": self.count,
            "max_sigma": self.max_sigma,
            "bound": self.bound,
            "bound_met": self.bound_met,
            "maximizers": self.maximizers,
            "maximizers_relabeled": self.maximizers_relabeled,
        }


@dataclass
class CampaignReport:
    spec: CampaignSpec
    examined: int = 0
    minimal: int = 0
    per_class: dict[str, ClassStats] = field(default_factory=dict)
    injection_contexts: int = 0
    samples_obtained: int = 0
    violations: list[dict] = field(default_factory=list)
    table_exceedances: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "examined": self.examined,
            "minimal": self.minimal,
            "per_class": {
                name: stats.to_json_dict()
                for name, stats in sorted(self.per_class.items())
            },
            "injection_contexts": self.injection_contexts,
            "samples_obtained": self.samples_obtained,
            "ok": self.ok,
            "violations": self.violations,
            "table_exceedances": self.table_exceedances,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        data = self.to_json_dict()
        lines = [f"campaign {json.dumps(data['spec'])}"]
        lines.append(f"examined {data['examined']} minimal {data['minimal']}")
        for name, stats in data["per_class"].items():
            lines.append(
                f"class {name}: count {stats['count']} max_sigma {stats['max_sigma']} "
                f"bound {stats['bound']} met {stats['bound_met']} "
                f"maximizers {stats['maximizers']} relabeled {stats['maximizers_relabeled']}"
            )
        if self.spec.mode != "exhaustive":
            lines.append(f"samples obtained {data['samples_obtained']}")
        lines.append(f"injection contexts {data['injection_contexts']}")
        lines.append(f"table exceedances {len(self.table_exceedances)}")
        lines.append("ok" if self.ok else f"VIOLATIONS {len(self.violations)}")
        for v in self.violations:
            lines.append("violation " + json.dumps(v, sort_keys=True))
        return "\n".join(lines) + "\n"


_CLASS_FLAG = {
    IdealClass.RIGHT: "is_right_ideal",
    IdealClass.LEFT: "is_left_ideal",
    IdealClass.TWO_SIDED: "is_two_sided_ideal",
}


def run(spec: CampaignSpec, progress: bool = False) -> CampaignReport:
    report = CampaignReport(spec=spec)
    checks = _Checks(spec, report)
    if spec.mode == "exhaustive":
        _run_exhaustive(spec, report, checks, progress)
    else:
        _run_sample(spec, report, checks)
    return report


def _run_exhaustive(
    spec: CampaignSpec, report: CampaignReport, checks: "_Checks", progress: bool
) -> None:
    n = spec.n
    all_images = [bytes(img) for img in product(range(n), repeat=n)]
    for size in range(1, spec.alphabet_size + 1):
        letters = tuple(_LETTERS[:size])
        if progress:
            print(f"alphabet size {size}...", file=sys.stderr, flush=True)
        for gen_images in combinations(all_images, size):
            report.examined += 2**n - 1
            # Everything that depends on the letters alone (sigma, reach and
            # pair masks, the ur depth) is computed once and shared by every
            # final set.
            t = Transitions(gen_images)
            if len(reachable_states(t)) != n:
                continue
            closed = _close_images(gen_images)
            sigma = len(closed)
            for finals in range(1, 2**n):
                if len(set(_partition(gen_images, finals))) != n:
                    continue
                report.minimal += 1
                rep = classify_minimal(t, finals, sigma, memo=checks.memo)
                checks(rep, partial(from_maps, letters, gen_images, finals), closed)


class _Checks:
    """The requested checks of one campaign, applied to each classified
    minimal candidate, with the campaign's per-class statistics, and what
    they share across candidates: the maximal semigroup per class, the
    report memo passed to ``classify_minimal``, the bound limit and
    letter-ur cells per (n, flags, ur depth), and one decision per distinct
    report.

    With the memo, equal reports are one object, so a report is judged once,
    on first sight: can a candidate carrying it need its DFA (a ``bounds`` or
    ``basic_bounds`` violation, an exceedance cell, a tightness violation, a
    maximiser or an injection context)?  If not, which holds for almost
    every candidate, the candidate only counts in its classes.  If so, it
    goes through every check, so violations keep their order and each
    carries its own DFA.  Only that decision is cached, never a result.
    """

    def __init__(self, spec: CampaignSpec, report: CampaignReport) -> None:
        self.spec = spec
        self.report = report
        self.tracked = []
        for klass in IdealClass:
            if spec.class_filter in (None, klass) and spec.n >= MIN_N[klass]:
                stats = report.per_class[klass.value] = ClassStats(bound=bound(klass, spec.n))
                self.tracked.append((klass, _CLASS_FLAG[klass], stats))
        self.expected_cache: dict[IdealClass, TransformationSemigroup] = {}
        self.memo: dict = {}
        self.limits: dict = {}
        # id(report) -> (report, the stats to count it in when no check can
        # need its DFA, else None); the report is kept so its id stays taken.
        self.decided: dict[int, tuple[ClassificationReport, tuple[ClassStats, ...] | None]] = {}

    def __call__(
        self,
        rep: ClassificationReport,
        candidate: Callable[[], Dfa],
        closed: AbstractSet[bytes] | None = None,
    ) -> None:
        """``candidate`` builds the DFA; it is called only when a check needs
        it (a violation, an exceedance, a maximiser or an injection context).
        ``closed``, when the caller has it, is the packed transition semigroup
        of the candidate's letters, handed to its injection context."""
        entry = self.decided.get(id(rep))
        if entry is None or entry[0] is not rep:
            entry = self.decided[id(rep)] = (rep, self._quiet_classes(rep))
        quiet = entry[1]
        if quiet is None:
            self._check(rep, candidate, closed)
            return
        sigma = rep.sigma
        for stats in quiet:
            stats.count += 1
            if sigma > stats.max_sigma:
                stats.max_sigma = sigma

    def _limits(self, rep: ClassificationReport) -> tuple[int, tuple[tuple[str, int], ...]]:
        key = (
            rep.n, rep.has_empty, rep.has_sigma_star, rep.has_eps, rep.has_sigma_plus,
            rep.ur_depth,
        )
        if key not in self.limits:
            self.limits[key] = (special_quotient_bound(rep), letter_ur_cells(rep))
        return self.limits[key]

    def _quiet_classes(self, rep: ClassificationReport) -> tuple[ClassStats, ...] | None:
        """The stats of the classes ``rep`` belongs to, or None when some
        check can need the DFA of a candidate carrying ``rep``."""
        spec, n, sigma = self.spec, self.spec.n, rep.sigma
        if "bounds" in spec.checks:
            limit, cells = self._limits(rep)
            if sigma > limit or any(sigma > value for _, value in cells):
                return None
            if n > 1 and not (n - 1 <= sigma <= n**n):
                return None
        quiet = []
        for klass, flag, stats in self.tracked:
            if not getattr(rep, flag):
                continue
            if sigma >= stats.bound:
                return None
            injects = klass in MIN_CONTEXT_N and n >= MIN_CONTEXT_N[klass]
            if "injection" in spec.checks and injects:
                return None
            quiet.append(stats)
        return tuple(quiet)

    def _check(
        self,
        rep: ClassificationReport,
        candidate: Callable[[], Dfa],
        closed: AbstractSet[bytes] | None,
    ) -> None:
        spec, report, n = self.spec, self.report, self.spec.n
        built: list[Dfa] = []

        def dfa() -> Dfa:
            if not built:
                built.append(candidate())
            return built[0]

        if "bounds" in spec.checks:
            limit, cells = self._limits(rep)
            if rep.sigma > limit:
                report.violations.append(
                    {"check": "bounds", "dfa": to_text(dfa()), "sigma": rep.sigma, "bound": limit}
                )
            if n > 1 and not (n - 1 <= rep.sigma <= n**n):
                report.violations.append(
                    {"check": "basic_bounds", "dfa": to_text(dfa()), "sigma": rep.sigma}
                )
            for name, value in cells:
                if rep.sigma > value:
                    report.table_exceedances.append(
                        {"cell": name, "value": value, "sigma": rep.sigma, "dfa": to_text(dfa())}
                    )

        for klass, flag, stats in self.tracked:
            if not getattr(rep, flag):
                continue
            stats.count += 1
            if rep.sigma > stats.max_sigma:
                stats.max_sigma = rep.sigma
            if "tightness" in spec.checks and rep.sigma > stats.bound:
                report.violations.append(
                    {
                        "check": "tightness",
                        "class": klass.value,
                        "dfa": to_text(dfa()),
                        "sigma": rep.sigma,
                        "bound": stats.bound,
                    }
                )
            if rep.sigma == stats.bound:
                stats.maximizers += 1
                if "uniqueness" in spec.checks:
                    if _relabels_to_expected(dfa(), klass, self.expected_cache):
                        stats.maximizers_relabeled += 1
                    else:
                        report.violations.append(
                            {"check": "uniqueness", "class": klass.value, "dfa": to_text(dfa())}
                        )
            injects = klass in MIN_CONTEXT_N and n >= MIN_CONTEXT_N[klass]
            if "injection" in spec.checks and injects:
                # ``rep`` puts the candidate in the class, ``injects`` checked n,
                # and every campaign candidate is minimal.
                T = None
                if closed is not None:
                    T = TransformationSemigroup(n=n, images=closed, generators=dfa().delta)
                ctx = minimal_context(
                    dfa(), klass, _expected_cached(self.expected_cache, klass, n), T
                )
                inj = verify_injection(ctx)
                report.injection_contexts += 1
                if not inj.ok:
                    report.violations.append(
                        {
                            "check": "injection",
                            "class": klass.value,
                            "dfa": to_text(dfa()),
                            "report": inj.to_json_dict(),
                        }
                    )


def _expected_cached(cache: dict, klass: IdealClass, n: int) -> TransformationSemigroup:
    if klass not in cache:
        cache[klass] = expected_semigroup(klass, n)
    return cache[klass]


def _relabels_to_expected(d: Dfa, klass: IdealClass, expected_cache: dict) -> bool:
    """Bound-meeting semigroups must relabel onto the maximal one, fixing the
    initial state and (for classes with a final sink) the sink, which is
    relabeled n-1 first."""
    fixed = {0}
    if klass in (IdealClass.RIGHT, IdealClass.TWO_SIDED):
        d = sink_to_top(d)
        fixed.add(d.n - 1)
    result = transition_semigroup(d)
    assert isinstance(result, TransformationSemigroup)
    target = _expected_cached(expected_cache, klass, d.n)
    return equal_up_to_relabeling(result, target, fixed) is not None


# ---------------------------------------------------------------------------
# seeded sampling of ideal DFAs


def _right_closure(maps: tuple[bytes, ...], finals: int) -> tuple[tuple[bytes, ...], int]:
    """L.Sigma*: the final states become absorbing."""
    absorbing = [q for q in range(len(maps[0])) if finals >> q & 1]
    out = []
    for m in maps:
        row = bytearray(m)
        for q in absorbing:
            row[q] = q
        out.append(bytes(row))
    return tuple(out), finals


def _left_closure(maps: tuple[bytes, ...], finals: int) -> tuple[tuple[bytes, ...], int]:
    """Sigma*.L by subset construction over suffix-run sets, from initial
    state 0: a subset is a mask, and every successor subset holds state 0.
    Raises ``ValueError`` above 256 subsets, like the packed form."""
    n = len(maps[0])
    bits = [[1 << r for r in m] for m in maps]
    number = {1: 0}
    order = [1]
    rows: list[list[int]] = [[] for _ in maps]
    appends = [row.append for row in rows]
    for subset in order:
        states = [q for q in range(n) if subset >> q & 1]
        for append, bit in zip(appends, bits):
            nxt = 1
            for q in states:
                nxt |= bit[q]
            i = number.get(nxt)
            if i is None:
                i = number[nxt] = len(order)
                order.append(nxt)
            append(i)
    if len(order) > 256:
        raise ValueError("the packed form holds at most 256 states")
    return (
        tuple(map(bytes, rows)),
        sum(1 << i for i, subset in enumerate(order) if subset & finals),
    )


def _two_sided_closure(maps: tuple[bytes, ...], finals: int) -> tuple[tuple[bytes, ...], int]:
    """Sigma*.L.Sigma*."""
    return _left_closure(*_right_closure(maps, finals))


_CLOSURES = {
    IdealClass.RIGHT: _right_closure,
    IdealClass.LEFT: _left_closure,
    IdealClass.TWO_SIDED: _two_sided_closure,
}


def _draws(klass: IdealClass, n: int, alphabet_size: int, seed: int):
    """The sampler's draws, closed into the class: ``SAMPLE_ATTEMPTS`` packed
    ``(maps, finals)`` pairs from ``random.Random(seed)``.  Each draw is a
    random complete DFA with initial state 0 and n - 1, n or n + 1 states in
    turn (n when n <= 2); the random calls and their order fix every sample,
    so they must not change."""
    rng = random.Random(seed)
    randrange = rng.randrange
    close = _CLOSURES[klass]
    for attempt in range(SAMPLE_ATTEMPTS):
        m = n + (attempt % 3) - 1 if n > 2 else n
        if m < 1:
            m = n
        if m > 256:
            raise ValueError("the packed form holds at most 256 states")
        maps = tuple(bytes(map(randrange, repeat(m, m))) for _ in range(alphabet_size))
        final_count = 1 if m == 1 else 1 + randrange(2)
        finals = 0
        for q in rng.sample(range(m), final_count):
            finals |= 1 << q
        yield close(maps, finals)


def sample_ideal_dfa(klass: IdealClass, n: int, alphabet_size: int, seed: int) -> Dfa | None:
    """A random minimal DFA with exactly n states of a non-empty language
    closed into the class, or None.

    Rejection sampling: take the next draw of ``_draws`` (a random DFA whose
    language is closed into the class), minimize it, and accept when exactly
    n states remain and some state is final.  A draw whose closure has fewer
    than n states, or fewer than n language classes under ``_partition``, is
    rejected before any renumbering, since its minimal DFA keeps only the
    reachable classes; most draws end there.  The rest are numbered with
    ``quotient_maps`` on the same partition, which is ``minimal_maps``.
    Each draw stays packed (``bytes`` letter maps and a finals mask) to the
    accept test; only the accepted sample becomes a ``Dfa``.

    L.Sigma*, Sigma*.L and Sigma*.L.Sigma* are ideals of their class whenever
    they are non-empty, so nothing here classifies the sample; the campaign
    classifies it once and reports a sample outside the class as a
    ``sampler`` violation.  Deterministic in the seed; None after
    ``SAMPLE_ATTEMPTS`` draws.  Raises ``ValueError`` when a draw or its
    closure would exceed the packed form's 256 states.
    """
    for maps, finals in _draws(klass, n, alphabet_size, seed):
        if len(maps[0]) < n:
            continue
        block = _partition(maps, finals)
        if len(set(block)) < n:
            continue
        maps, finals = quotient_maps(maps, finals, block)
        if len(maps[0]) == n and finals:
            return from_maps(_LETTERS[:alphabet_size], maps, finals)
    return None


def _run_sample(spec: CampaignSpec, report: CampaignReport, checks: _Checks) -> None:
    if spec.class_filter is None:
        raise ValueError("sample mode needs a class filter")
    klass = spec.class_filter
    mode = spec.mode
    assert isinstance(mode, SampleMode)
    for i in range(mode.count):
        d = sample_ideal_dfa(
            klass, spec.n, spec.alphabet_size, seed=mode.seed * 1_000_003 + i
        )
        report.examined += 1
        if d is None:
            report.violations.append(
                {"check": "sampler", "index": i, "detail": "attempt budget exhausted"}
            )
            continue
        report.samples_obtained += 1
        report.minimal += 1
        result = transition_semigroup(d)
        if isinstance(result, ClosureOverflow):
            raise CapExceeded(f"transition semigroup exceeded cap {result.cap}")
        rep = classify_minimal(d.transitions, d.finals_mask, result.size, memo=checks.memo)
        if not getattr(rep, _CLASS_FLAG[klass]):
            report.violations.append(
                {"check": "sampler", "index": i, "detail": "not in the class", "dfa": to_text(d)}
            )
            continue
        checks(rep, lambda: d, result.images)
