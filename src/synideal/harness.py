"""Exhaustive and randomized verification campaigns over small DFAs.

Exhaustive mode enumerates every DFA with n states up to two reductions that
leave minimality, classification, and syntactic complexity untouched: letters
inducing equal transformations are collapsed (the candidate alphabet is a set
of distinct transformations) and alphabet order is ignored.  With two or
more letters, the letter sets are taken one orbit at a time under Sym(n),
acting by simultaneous conjugation (m becomes p m p^-1), which renames the
states: the member p L p^-1 of the orbit of its least set L, with final
states F, is the DFA (L, initial state p^-1(0), final states p^-1(F)).
L is closed once per orbit, for sigma; the semigroup of the member
p L p^-1, which only an injection context takes, is that closure conjugated
by p, once per member.  The letter facts of ``Transitions`` and
reachability are taken once per initial state of L.
Each labelled candidate is partitioned and classified as its image on L
and checked on its own DFA; the records come out in labelled order.  The
partition is memoised and the classification facts are kept per final mask
on the ``Transitions`` of L, so each distinct image is partitioned and
classified once per orbit.  The sweep still makes one partition call per
labelled candidate and one classification call per minimal one, because
the benchmark counts candidates from those calls (``bench/layers.py``).
Per requested check the campaign compares maxima against the class bounds,
certifies from the containment order that each bound-meeting semigroup is
the maximal one relabeled, runs the injection suite, and tests conformance
with the special-quotient bounds.

Sample mode draws seeded random ideals of an exact state count and runs the
same checks on each.  A sample whose transition semigroup has more than
``DEFAULT_CAP`` elements is reported as a ``cap`` violation; its sigma is
unknown, so it counts in no class, and the campaign goes on.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass, field
from functools import partial
from itertools import islice, permutations, product, repeat
from math import comb
from operator import itemgetter
from typing import AbstractSet, Callable, Iterator, Sequence

from .dfa import (
    Dfa,
    Transitions,
    from_maps,
    quotient_maps,
    reachable_states,
    to_text,
    transition_semigroup,
    _partition,
)
from .ideals import ClassificationReport, classify_minimal
from .injection import MIN_CONTEXT_N, minimal_context, verify_injection
from .semigroup import DEFAULT_CAP, MAX_STATES, CapExceeded, TransformationSemigroup, conjugated
from .semigroup import _close_images
from .transform import Transformation
from .witness import MIN_N, IdealClass, bound, expected_semigroup, has_maximal_order

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
        if isinstance(self.mode, SampleMode):
            if self.mode.count < 1:
                raise ValueError(f"sample count must be at least 1, got {self.mode.count}")
            # Exhaustive campaigns that large are refused on their budget.
            if self.n > MAX_STATES:
                raise ValueError(
                    f"n must be at most {MAX_STATES} in sample mode (the closure's limit),"
                    f" got {self.n}"
                )
        elif self.mode == "exhaustive":
            # The count is given exactly up to the budget's square.  From
            # n = 54 on the 2**n - 1 final sets alone pass it, and the exact
            # count (over 10,000 digits at n=200 with 26 letters) is not built.
            shown = EXHAUSTIVE_BUDGET**2
            if self.n >= shown.bit_length():
                raise BudgetExceeded(
                    f"more than {shown} candidate DFAs exceed the budget {EXHAUSTIVE_BUDGET}"
                )
            count = exhaustive_candidates(self.n, self.alphabet_size)
            if count > EXHAUSTIVE_BUDGET:
                about = count if count <= shown else f"more than {shown}"
                raise BudgetExceeded(
                    f"{about} candidate DFAs exceed the budget {EXHAUSTIVE_BUDGET}"
                )
        else:
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
        lines.append("ok" if self.ok else f"VIOLATIONS {len(self.violations)}")
        for v in self.violations:
            lines.append("violation " + json.dumps(v, sort_keys=True))
        return "\n".join(lines) + "\n"


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
    # With two or more letters the group is Sym(n) (n <= 4 within the budget,
    # where its tables take 13 ms).  A one-letter sweep takes the trivial
    # group: the tables would take longer (0.54 s at n=5) than the whole n=5
    # one-letter sweep (0.17 s).
    perms = list(permutations(range(n))) if spec.alphabet_size > 1 else [tuple(range(n))]
    conjugates = _conjugates(all_images, perms)
    # The member p L p^-1 of an orbit with finals F, p the i-th permutation,
    # is the DFA (L, p^-1(0), p^-1(F)) with its states renamed:
    # start[i] = p^-1(0) and back[i][F] = p^-1(F).
    start = [p.index(0) for p in perms]
    back = [
        [sum(1 << q for q in range(n) if f >> p[q] & 1) for f in range(2**n)] for p in perms
    ]
    # ids of the reports that count in no class and run no step; the memo
    # keeps each report, so its id stays taken.
    inert: set[int] = set()
    memo = checks.memo
    violations = report.violations
    # keys[j]: the place in labelled order of the candidate of violations[j].
    keys: list[tuple] = []
    all_finals = range(1, 2**n)
    # _partition gives a minimal candidate's states the identity blocks.
    identity = bytes(range(n))
    for size in range(1, spec.alphabet_size + 1):
        letters = tuple(_LETTERS[:size])
        if progress:
            print(f"alphabet size {size}...", file=sys.stderr, flush=True)
        for least, members in _orbits(len(all_images), size, conjugates):
            report.examined += len(members) * (2**n - 1)
            # What depends on the letters and the initial state alone is the
            # same for every member that starts at the same state of L, so
            # it is taken once per initial state j, on L: Transitions(L, j)
            # and whether j reaches every state.  L is closed once, when the
            # first member reaches: sigma is the same on the whole orbit, and
            # the semigroup of the member p L p^-1 is L's conjugated by p.
            base = tuple(all_images[c] for c in least)
            closed = None
            starts: dict[int, tuple[Transitions, bool]] = {}
            for codes, i in members.items():
                entry = starts.get(start[i])
                if entry is None:
                    t = Transitions(base, start[i])
                    entry = starts[start[i]] = t, len(reachable_states(t)) == n
                elif not entry[1]:
                    # The benchmark counts the examined candidates from these
                    # probes and the partition calls (bench/layers.py), so
                    # every unreachable set is probed once.
                    reachable_states(entry[0])
                t, reaches = entry
                if not reaches:
                    continue
                if closed is None:
                    closed = _close_images(base)
                    sigma = len(closed)
                # Every labelled candidate is partitioned and classified as
                # its image on L, where the memoised partition and the
                # per-final-mask facts of t answer each distinct image once,
                # and checked on its own DFA; its semigroup is conjugated
                # from L's only for an injection context, once per member.
                maps = tuple(all_images[c] for c in codes)
                own = _Conjugated(base, closed, perms[i])
                image = back[i]
                minimal = [f for f in all_finals if _partition(base, image[f]) == identity]
                report.minimal += len(minimal)
                for finals in minimal:
                    rep = classify_minimal(t, image[finals], sigma, memo)
                    if id(rep) in inert:
                        continue
                    if checks(rep, partial(from_maps, letters, maps, finals), own):
                        inert.add(id(rep))
                    keys += [(size, codes, finals)] * (len(violations) - len(keys))
    # The sort is stable, so each candidate's records keep their order.
    violations[:] = [v for _, v in sorted(zip(keys, violations), key=itemgetter(0))]


def _conjugates(images: Sequence[bytes], perms: Sequence[Sequence[int]]) -> list[list[int]]:
    """``conjugates[c][i]``: the code of map c conjugated by ``perms[i]`` (a
    map m becomes p m p^-1), a map's code being its index in ``images``.
    Conjugating every letter by one permutation renames the states, which
    leaves the transition semigroup the same up to isomorphism.  The table
    holds n**n * len(perms) codes, 6,144 at n=4 under Sym(4)."""
    code = {m: i for i, m in enumerate(images)}
    pairs = [(p, sorted(range(len(p)), key=p.__getitem__)) for p in perms]
    return [[code[bytes(p[m[q]] for q in inverse)] for p, inverse in pairs] for m in images]


def _orbits(
    count: int, size: int, conjugates: Sequence[Sequence[int]], prefix: tuple = ()
) -> Iterator[tuple[tuple[int, ...], dict[tuple[int, ...], int]]]:
    """The orbits of the sets of ``size`` codes below ``count`` that extend
    ``prefix``, each once, in the lexicographic order of its least set: the
    least set and a dict from each set of the orbit to the index i of the
    first group element that gives it.  The group has one column per
    element: ``conjugates[c][i]`` is code c conjugated by the i-th element,
    0 the identity.  Sets are increasing tuples.

    A set is least when no conjugate of it sorts below it.  A prefix of a
    least set is least too (the j-th least code of a conjugate of a set is
    at most that of the conjugate of its prefix), so the least sets grow
    from least prefixes one code at a time and none is held."""
    for c in range(prefix[-1] + 1 if prefix else 0, count - size + len(prefix) + 1):
        s = prefix + (c,)
        columns = islice(zip(*[conjugates[x] for x in s]), 1, None)
        conjugated = [tuple(sorted(t)) for t in columns]
        if any(t < s for t in conjugated):
            continue
        if len(s) < size:
            yield from _orbits(count, size, conjugates, s)
        else:
            members = {s: 0}
            for i, t in enumerate(conjugated, 1):
                members.setdefault(t, i)
            yield s, members


#: What ``_Checks`` is handed with a candidate: it returns the candidate's
#: transition semigroup.
_Semigroup = Callable[[], TransformationSemigroup]


class _Conjugated:
    """The semigroup of ``letters``, whose packed closure is ``images``,
    conjugated by ``perm``: computed on the first call and kept for the next.
    Most members build no context, so the generators are made only here."""

    __slots__ = ("letters", "images", "perm", "semigroup")

    def __init__(
        self, letters: tuple[bytes, ...], images: AbstractSet[bytes], perm: Sequence[int]
    ) -> None:
        self.letters = letters
        self.images = images
        self.perm = perm
        self.semigroup: TransformationSemigroup | None = None

    def __call__(self) -> TransformationSemigroup:
        if self.semigroup is None:
            gens = tuple(Transformation(tuple(m)) for m in self.letters)
            closed = TransformationSemigroup(len(self.perm), self.images, gens)
            self.semigroup = conjugated(closed, self.perm)
        return self.semigroup


class _Checks:
    """The requested checks of one campaign, applied to each classified
    minimal candidate, with the campaign's per-class statistics, and what
    they share across candidates: the maximal semigroup per class (for the
    injection contexts), the report memo passed to ``classify_minimal``, and
    one plan per distinct report.

    With the memo, equal reports are one object, so every check condition is
    judged once per report, on first sight, by ``_plan``: the classes a
    candidate carrying it counts in, and the steps that need its DFA, in the
    order their records are emitted (a ``bounds`` violation naming the
    binding row of the report's bound table, a ``basic_bounds`` violation,
    then per class a ``tightness`` violation, a maximiser's ``uniqueness``
    step, certified from the containment order, and an injection context).
    Almost every plan has no step, and its candidates only count in their
    classes, as maximisers too when sigma meets the class bound.  Otherwise
    the candidate's DFA is built once and the steps run on it, so each record
    carries its own DFA.  Only the plan is cached, never a result.
    """

    def __init__(self, spec: CampaignSpec, report: CampaignReport) -> None:
        self.spec = spec
        self.report = report
        self.tracked = []
        for klass in IdealClass:
            if spec.class_filter in (None, klass) and spec.n >= MIN_N[klass]:
                stats = report.per_class[klass.value] = ClassStats(bound=bound(klass, spec.n))
                self.tracked.append((klass, stats))
        self.expected_cache: dict[IdealClass, TransformationSemigroup] = {}
        self.memo: dict = {}
        # id(report) -> (report, its classes, its steps); the report is kept
        # so that its id stays taken.
        self.plans: dict[
            int, tuple[ClassificationReport, tuple[ClassStats, ...], tuple[Callable, ...]]
        ] = {}

    def __call__(
        self, rep: ClassificationReport, candidate: Callable[[], Dfa], semigroup: _Semigroup
    ) -> bool:
        """``candidate`` builds the DFA; it is called only when the plan of
        ``rep`` has steps.  ``semigroup`` returns the transition semigroup of
        the candidate's DFA; it is called only by an injection context, which
        takes it as it is.

        True when the plan of ``rep`` counts in no class and has no step: a
        later candidate carrying the same report may then skip the call."""
        entry = self.plans.get(id(rep))
        if entry is None:
            entry = self.plans[id(rep)] = (rep, *self._plan(rep))
        _, classes, steps = entry
        sigma = rep.sigma
        for stats in classes:
            stats.count += 1
            if sigma > stats.max_sigma:
                stats.max_sigma = sigma
            if sigma == stats.bound:
                stats.maximizers += 1
        if steps:
            d = candidate()
            for step in steps:
                step(self, d, semigroup)
        return not classes and not steps

    def _plan(
        self, rep: ClassificationReport
    ) -> tuple[tuple[ClassStats, ...], tuple[Callable, ...]]:
        """The stats of the classes ``rep`` belongs to, and the steps that a
        candidate carrying it runs."""
        spec, n, sigma = self.spec, self.spec.n, rep.sigma
        steps: list[Callable] = []

        def record(template: dict) -> None:
            steps.append(partial(_record, template))

        if "bounds" in spec.checks:
            # min keeps the first row that attains the minimum
            name, limit = min(rep.applicable_bounds, key=lambda row: row[1])
            if sigma > limit:
                record(
                    {"check": "bounds", "dfa": None, "sigma": sigma, "name": name, "bound": limit}
                )
            if n > 1 and not (n - 1 <= sigma <= n**n):
                record({"check": "basic_bounds", "dfa": None, "sigma": sigma})
        classes = []
        for klass, stats in self.tracked:
            if not rep.in_class(klass):
                continue
            classes.append(stats)
            if "tightness" in spec.checks and sigma > stats.bound:
                record(
                    {"check": "tightness", "class": klass.value, "dfa": None, "sigma": sigma,
                     "bound": stats.bound},
                )
            if "uniqueness" in spec.checks and sigma == stats.bound:
                steps.append(partial(_uniqueness, klass, stats))
            injects = klass in MIN_CONTEXT_N and n >= MIN_CONTEXT_N[klass]
            if "injection" in spec.checks and injects:
                steps.append(partial(_inject, klass))
        return tuple(classes), tuple(steps)


# The steps of a plan.  Each is called as step(checks, dfa, semigroup); none
# holds the ``_Checks`` it runs for, so a plan makes no reference cycle and a
# campaign's tables are freed when it returns.


def _record(template: dict, checks: _Checks, d: Dfa, semigroup: _Semigroup) -> None:
    """Append ``template`` to the violations with the text of ``d`` in its
    ``dfa`` slot, which keeps the template's key order."""
    checks.report.violations.append({**template, "dfa": to_text(d)})


def _uniqueness(
    klass: IdealClass, stats: ClassStats, checks: _Checks, d: Dfa, semigroup: _Semigroup
) -> None:
    """A maximiser is certified from its containment order (``has_maximal_order``);
    ``maximizers_relabeled`` keeps its name, so the output stays byte-identical."""
    if has_maximal_order(d, klass):
        stats.maximizers_relabeled += 1
    else:
        checks.report.violations.append(
            {"check": "uniqueness", "class": klass.value, "dfa": to_text(d)}
        )


def _inject(klass: IdealClass, checks: _Checks, d: Dfa, semigroup: _Semigroup) -> None:
    # The plan put the candidate in the class and checked n, and every
    # campaign candidate is minimal.
    n, report = checks.spec.n, checks.report
    ctx = minimal_context(d, klass, _expected_cached(checks.expected_cache, klass, n), semigroup())
    inj = verify_injection(ctx)
    report.injection_contexts += 1
    if not inj.ok:
        report.violations.append(
            {
                "check": "injection",
                "class": klass.value,
                "dfa": to_text(d),
                "report": inj.to_json_dict(),
            }
        )


def _expected_cached(cache: dict, klass: IdealClass, n: int) -> TransformationSemigroup:
    if klass not in cache:
        cache[klass] = expected_semigroup(klass, n)
    return cache[klass]


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


def _left_closure(maps: tuple[bytes, ...], finals: int) -> tuple[tuple[bytes, ...], int] | None:
    """Sigma*.L by subset construction over suffix-run sets, from initial
    state 0: a subset is a mask, and every successor subset holds state 0.

    When no letter leads out of the final states (after ``_right_closure``
    they are absorbing), every subset that meets them is numbered as the
    first one found: one accept state, looping on every letter.  That is
    exact.  The successor of such a subset holds the image of a final state,
    a final state too, so every subset that meets them accepts Sigma*.  The
    subsets that miss them are reached only from subsets that miss them too,
    so the language and the minimal DFA stay the same.  Otherwise the
    construction is plain.  None as the 257th subset is numbered, counted
    after the collapse: the packed form holds at most 256 states."""
    n = len(maps[0])
    bits = [[1 << r for r in m] for m in maps]
    final_states = [q for q in range(n) if finals >> q & 1]
    collapse = 0 if any(not finals >> m[q] & 1 for m in maps for q in final_states) else finals
    accept = 1 if collapse & 1 else None
    number = {1: 0}
    get = number.get
    order = [1]
    rows: list[list[int]] = [[] for _ in maps]
    letters = list(zip([row.append for row in rows], bits))
    for subset in order:
        states = [q for q in range(n) if subset >> q & 1]
        for append, bit in letters:
            nxt = 1
            for q in states:
                nxt |= bit[q]
            if nxt & collapse:
                if accept is None:
                    accept = nxt
                nxt = accept
            i = get(nxt)
            if i is None:
                i = number[nxt] = len(order)
                if i == 256:
                    return None
                order.append(nxt)
            append(i)
    return (
        tuple(map(bytes, rows)),
        sum(1 << i for i, subset in enumerate(order) if subset & finals),
    )


def _two_sided_closure(
    maps: tuple[bytes, ...], finals: int
) -> tuple[tuple[bytes, ...], int] | None:
    """Sigma*.L.Sigma*."""
    return _left_closure(*_right_closure(maps, finals))


_CLOSURES = {
    IdealClass.RIGHT: _right_closure,
    IdealClass.LEFT: _left_closure,
    IdealClass.TWO_SIDED: _two_sided_closure,
}


def _reach_avoiding(maps: tuple[bytes, ...], avoid: int) -> int:
    """The number of states that state 0 reaches along paths that enter no
    state of the mask ``avoid``, state 0 included (it must not be in it)."""
    order = [0]
    seen = avoid | 1
    for q in order:
        for m in maps:
            r = m[q]
            if not seen >> r & 1:
                seen |= 1 << r
                order.append(r)
    return len(order)


def _right_bound(maps: tuple[bytes, ...], finals: int) -> int:
    return len(maps[0])


def _left_bound(maps: tuple[bytes, ...], finals: int) -> int:
    return 1 << (_reach_avoiding(maps, 0) - 1)


def _two_sided_bound(maps: tuple[bytes, ...], finals: int) -> int:
    if finals & 1:
        return 1
    return (1 << (_reach_avoiding(maps, finals) - 1)) + 1


#: An upper bound on the number of states of ``_CLOSURES[klass]``'s output,
#: read from the draw before it is closed; ``sample_ideal_dfa`` proves each.
_CLOSURE_BOUNDS = {
    IdealClass.RIGHT: _right_bound,
    IdealClass.LEFT: _left_bound,
    IdealClass.TWO_SIDED: _two_sided_bound,
}

#: ``random.sample`` picks up to five items from a list copy of a population
#: of at most this many; from a larger one it redraws each pick a set of the
#: earlier picks already holds.
_SAMPLE_POOL_MAX = 21


def _draws(n: int, alphabet_size: int, seed: int):
    """The sampler's draws, not yet closed into a class: ``SAMPLE_ATTEMPTS``
    packed ``(maps, finals)`` pairs from ``random.Random(seed)``.  Each draw
    is a random complete DFA with initial state 0, m = n - 1, n or n + 1
    states in turn (n when n <= 2), and one or two final states.

    Every random call is a ``getrandbits``.  A value below b is drawn as
    ``getrandbits(b.bit_length())``, repeated while the result is b or more:
    the rejection loop of ``randrange(b)``, so the values and the
    generator's state after them are those of one ``randrange(b)`` call per
    value.  The values of a draw, in order, fix every sample:

    1. ``m * alphabet_size`` values below m, letter by letter, each state's
       image in turn, drawn as one stream of ``getrandbits(m.bit_length())``
       that drops every value >= m;
    2. when m > 1, a value below 2, 0 for one final state and 1 for two
       (``1 + randrange(2)``);
    3. q, the next value of the stream of step 1: the first final state;
    4. for a second final state, the pick of ``sample(range(m), 2)``: when
       m <= 21, a value p below m - 1, standing for state m - 1 when p = q
       (the pool branch, which moves state m - 1 into q's place); otherwise
       the next value of the stream of step 1 that is not q (the set branch).

    ``test_draws_are_the_reference_randrange_draws`` (tests/test_kernels.py)
    compares them with the ``randrange`` and ``sample`` calls, state
    included, on both branches of ``sample``."""
    rng = random.Random(seed)
    getrandbits = rng.getrandbits
    for attempt in range(SAMPLE_ATTEMPTS):
        m = n + (attempt % 3) - 1 if n > 2 else n
        if m > 256:
            raise ValueError("the packed form holds at most 256 states")
        below_m = filter(m.__gt__, map(getrandbits, repeat(m.bit_length())))
        values = bytes(islice(below_m, m * alphabet_size))
        maps = tuple(values[i : i + m] for i in range(0, m * alphabet_size, m))
        two = 0
        if m > 1:
            two = getrandbits(2)
            while two > 1:
                two = getrandbits(2)
        q = next(below_m)
        finals = 1 << q
        if two:
            if m > _SAMPLE_POOL_MAX:
                p = next(filter(q.__ne__, below_m))
            else:
                k = m - 1
                p = getrandbits(k.bit_length())
                while p >= k:
                    p = getrandbits(k.bit_length())
                if p == q:
                    p = k
            finals |= 1 << p
        yield maps, finals


def sample_ideal_dfa(klass: IdealClass, n: int, alphabet_size: int, seed: int) -> Dfa | None:
    """A random minimal DFA with exactly n states of a non-empty language
    closed into the class, or None.

    Rejection sampling: take the next draw of ``_draws`` (a random DFA),
    close its language into the class, minimize it, and accept when exactly
    n states remain and some state is final.  The minimal DFA keeps at most
    the closure's states, so a draw is rejected, cheapest test first:

    1. bound: when ``_CLOSURE_BOUNDS[klass]`` of the draw, an upper bound
       on the closure's states, is below n; the draw is never closed.  The
       bound is m for L.Sigma*, which keeps the m states.  Every subset the
       Sigma*.L construction reaches holds state 0 and only states that 0
       reaches: at most 2^(r-1) subsets, with r counting those states.  For
       Sigma*.L.Sigma* the final states become absorbing, so every subset
       that meets them becomes the one accept state, and a subset that
       misses them is reached only from subsets that miss them too: it
       holds state 0 and only non-final states that 0 reaches without
       passing a final state.  At most 2^(r-1) + 1 states, with r counting
       those states, and one when state 0 is final;
    2. close: when the closure has fewer than n states, or more than the
       packed form's 256, where ``_left_closure`` stops numbering subsets
       (at n <= 8 no draw's bound exceeds 256);
    3. partition: when the closure has fewer than n language classes under
       ``_partition``, before any renumbering, since the minimal DFA keeps
       only the reachable classes.

    The rest are numbered with ``quotient_maps`` on the same partition: the
    minimal DFA as ``minimize`` numbers it.  Each draw stays packed
    (``bytes`` letter maps and a finals mask) to the accept test; only the
    accepted sample becomes a ``Dfa``.  The random stream does not depend on
    which test rejects a draw, so a closure skipped changes no sample.

    L.Sigma*, Sigma*.L and Sigma*.L.Sigma* are ideals of their class whenever
    they are non-empty, so nothing here classifies the sample; the campaign
    classifies it once and reports a sample outside the class as a
    ``sampler`` violation.  Deterministic in the seed; None after
    ``SAMPLE_ATTEMPTS`` draws.  Raises ``ValueError`` when a draw would
    exceed the packed form's 256 states.
    """
    close, most = _CLOSURES[klass], _CLOSURE_BOUNDS[klass]
    for maps, finals in _draws(n, alphabet_size, seed):
        if most(maps, finals) < n:
            continue
        closed = close(maps, finals)
        if closed is None or len(closed[0][0]) < n:
            continue
        maps, finals = closed
        block = _partition(maps, finals)
        if len(set(block)) < n:
            continue
        maps, finals, _ = quotient_maps(maps, finals, block)
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
        try:
            result = transition_semigroup(d)
        except CapExceeded:
            # sigma is unknown, so the sample counts in no class.
            report.violations.append(
                {"check": "cap", "index": i, "cap": DEFAULT_CAP, "dfa": to_text(d)}
            )
            continue
        rep = classify_minimal(d.transitions, d.finals_mask, result.size, memo=checks.memo)
        if not rep.in_class(klass):
            report.violations.append(
                {"check": "sampler", "index": i, "detail": "not in the class", "dfa": to_text(d)}
            )
            continue
        checks(rep, lambda: d, lambda: result)
