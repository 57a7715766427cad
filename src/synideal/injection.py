"""Injective maps from the transition semigroup of an arbitrary left or
two-sided ideal into the maximal semigroup of the matching witness.

Given a minimal DFA of a left (n >= 3) or two-sided (n >= 4) ideal with
transition semigroup T, and the maximal semigroup S of the same class and
size, each transformation t in T is classified into exactly one of the cases
below (tested in order, first match wins) and mapped to an element f(t) of S:

left:       1, 2, 3a, 3b, 3c
two-sided:  1, 2a, 2b, 2c, 3a, 3b, 3c, 3d

Writing p = 0t, the case predicates are:

* 1:   t already lies in S; f(t) = t.
* 2:   t not in S and pt != p.  The orbit p, pt, ..., pt^k climbs strictly
       in the containment preorder to a fixed point pt^k.  For the two-sided
       class this splits on the orbit's end: 2a (pt^k != n-1), 2b (pt^k = n-1
       with k >= 2), 2c (pt = n-1).
* 3:   t not in S and pt = p, split by orbit structure: 3a (t has a cycle),
       3b (a fixed point besides p, and besides n-1 in the two-sided class),
       3c (a state strictly above p mapped to p), 3d (two-sided only: a state
       strictly between p and n-1 mapped to n-1).

Wherever the construction needs "some state r with ...", the smallest state
index satisfying the conditions is chosen, making f a function.  The
constructions only promise injectivity and image containment for semigroups
of genuine ideals; ``verify_injection`` checks both and reports any
counterexample loudly instead of patching over it.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

from .dfa import Dfa, StatePreorder, minimize, preorder, sink_to_top, transition_semigroup
from .ideals import classify_minimal
from .semigroup import CapExceeded, ClosureOverflow, TransformationSemigroup
from .transform import Transformation, classify_shape
from .witness import IdealClass, expected_semigroup

#: Smallest state count with an injection construction, per class.
MIN_CONTEXT_N = {IdealClass.LEFT: 3, IdealClass.TWO_SIDED: 4}

CASE_LABELS = {
    IdealClass.LEFT: ("1", "2", "3a", "3b", "3c"),
    IdealClass.TWO_SIDED: ("1", "2a", "2b", "2c", "3a", "3b", "3c", "3d"),
}


@dataclass(frozen=True)
class CaseTag:
    klass: IdealClass
    label: str

    def __post_init__(self) -> None:
        if self.label not in CASE_LABELS[self.klass]:
            raise ValueError(f"no case {self.label!r} for class {self.klass.value}")


class InjectionViolation(RuntimeError):
    """A structural promise of the case analysis failed on concrete data.

    Any of: no case matches (coverage), a constructed image falls outside the
    maximal semigroup, or an orbit fails its guaranteed shape.  These cannot
    occur for genuine ideals; surfacing them is the point of the exercise.
    """

    def __init__(self, kind: str, t: Transformation, detail: str = "") -> None:
        super().__init__(f"{kind} at t={t}{': ' + detail if detail else ''}")
        self.kind = kind
        self.t = t
        self.detail = detail


@dataclass(frozen=True)
class InjectionContext:
    """Everything the case analysis needs about one ideal DFA.

    ``dfa`` is minimal and classified as ``klass``; for the two-sided class
    its final sink has been relabeled to n-1 (the constructions single that
    state out).  ``T`` is its transition semigroup and ``S`` the maximal
    semigroup of the class at the same n.
    """

    klass: IdealClass
    dfa: Dfa
    po: StatePreorder
    T: TransformationSemigroup
    S: TransformationSemigroup

    @property
    def n(self) -> int:
        return self.dfa.n

    def less(self, p: int, q: int) -> bool:
        return self.po.strictly_less(p, q)


def make_context(
    d: Dfa, klass: IdealClass, S: TransformationSemigroup | None = None
) -> InjectionContext:
    """Build an injection context, validating class membership and size.

    ``S`` is the maximal semigroup of the class at the minimal DFA's size;
    a caller building many contexts passes the one it keeps, and otherwise
    it is built here.  The DFA is minimised once and closed once.
    """
    if klass not in MIN_CONTEXT_N:
        raise ValueError(f"no injection is defined for class {klass.value}")
    m = minimize(d)
    n = m.n
    if n < MIN_CONTEXT_N[klass]:
        raise ValueError(
            f"{klass.value} injection needs n >= {MIN_CONTEXT_N[klass]}; "
            f"smaller sizes are covered by exhaustive checks"
        )
    if klass is IdealClass.TWO_SIDED and len(m.finals) == 1:
        # Relabeling changes neither the classification nor sigma.
        m = sink_to_top(m)
    result = transition_semigroup(m)
    if isinstance(result, ClosureOverflow):
        raise CapExceeded(f"transition semigroup exceeded cap {result.cap}")
    report = classify_minimal(m.transitions, m.finals_mask, sigma=result.size)
    if klass is IdealClass.LEFT and not report.is_left_ideal:
        raise ValueError("DFA does not accept a left ideal")
    if klass is IdealClass.TWO_SIDED and not report.is_two_sided_ideal:
        raise ValueError("DFA does not accept a two-sided ideal")
    return InjectionContext(
        klass=klass,
        dfa=m,
        po=preorder(m),
        T=result,
        S=expected_semigroup(klass, n) if S is None else S,
    )


def _orbit_chain(ctx: InjectionContext, t: Transformation, p: int) -> list[int]:
    """The orbit p, pt, ..., pt^k ending at a fixed point, asserting the
    promised strict climb in the preorder at every step."""
    chain = [p]
    q = p
    for _ in range(ctx.n + 1):
        r = t.image[q]
        if r == q:
            return chain
        if not ctx.less(q, r):
            raise InjectionViolation(
                "chain_not_ascending", t, f"{q} -> {r} does not climb"
            )
        chain.append(r)
        q = r
    raise InjectionViolation("chain_not_terminating", t, "orbit found no fixed point")


def classify_case(ctx: InjectionContext, t: Transformation) -> CaseTag:
    """The first matching case for t (a member of ctx.T)."""
    if t.packed() not in ctx.T.images:
        raise ValueError(f"{t} is not in the transition semigroup")
    if t.packed() in ctx.S.images:
        return CaseTag(ctx.klass, "1")
    n = ctx.n
    p = t.image[0]
    if p == 0:
        # Maps fixing 0 always lie in the maximal semigroup.
        raise InjectionViolation("fixes_initial_outside_witness", t)
    if t.image[p] != p:
        if ctx.klass is IdealClass.LEFT:
            return CaseTag(ctx.klass, "2")
        chain = _orbit_chain(ctx, t, p)
        top, k = chain[-1], len(chain) - 1
        if top != n - 1:
            return CaseTag(ctx.klass, "2a")
        if k >= 2:
            return CaseTag(ctx.klass, "2b")
        return CaseTag(ctx.klass, "2c")
    shape = classify_shape(t)
    if shape.has_cycle:
        return CaseTag(ctx.klass, "3a")
    excluded = {p} if ctx.klass is IdealClass.LEFT else {p, n - 1}
    if any(q not in excluded for q in shape.fixed_points):
        return CaseTag(ctx.klass, "3b")
    if any(ctx.less(p, q) and t.image[q] == p for q in range(n)):
        return CaseTag(ctx.klass, "3c")
    if ctx.klass is IdealClass.TWO_SIDED and any(
        ctx.less(p, q) and ctx.less(q, n - 1) and t.image[q] == n - 1
        for q in range(n)
    ):
        return CaseTag(ctx.klass, "3d")
    raise InjectionViolation("coverage", t, "no case matches")


def apply_f(ctx: InjectionContext, t: Transformation) -> tuple[Transformation, CaseTag]:
    """The image f(t), built per the matched case, checked against S."""
    tag = classify_case(ctx, t)
    n = ctx.n
    img = list(t.image)
    p = t.image[0]

    if tag.label == "1":
        s = t
    elif tag.label in ("2", "2a"):
        chain = _orbit_chain(ctx, t, p)
        img[0] = 0
        img[chain[-1]] = p
        s = Transformation(tuple(img))
        _check_case2_cycle(ctx, t, s, chain)
    elif tag.label == "2b":
        chain = _orbit_chain(ctx, t, p)
        img[0] = 0
        for i in range(1, len(chain) - 1):
            img[chain[i]] = chain[i - 1]
        img[p] = n - 1
        s = Transformation(tuple(img))
    elif tag.label == "2c":
        r = _pick_case2c_state(ctx, t, p)
        rt = t.image[r]
        img[0] = 0
        img[p] = rt
        img[rt] = p
        img[r] = 0
        s = Transformation(tuple(img))
    elif tag.label == "3a":
        shape = classify_shape(t)
        r = min(min(c) for c in shape.cycles)
        img[0] = 0
        img[p] = r
        s = Transformation(tuple(img))
    elif tag.label == "3b":
        excluded = {p} if ctx.klass is IdealClass.LEFT else {p, n - 1}
        img[0] = 0
        for q in classify_shape(t).fixed_points:
            if q not in excluded:
                img[q] = 0
        s = Transformation(tuple(img))
    elif tag.label == "3c":
        r = min(q for q in range(n) if ctx.less(p, q) and t.image[q] == p)
        img[0] = 0
        img[p] = r
        for q in range(n):
            if ctx.less(p, q) and t.image[q] == p:
                img[q] = 0
        s = Transformation(tuple(img))
    else:  # 3d
        img[0] = 0
        for q in range(n):
            if t.image[q] == n - 1:
                img[q] = q
        img[p] = n - 1
        s = Transformation(tuple(img))

    if s.packed() not in ctx.S.images:
        raise InjectionViolation("image_outside_witness", t, f"f(t)={s}")
    return s, tag


def _pick_case2c_state(ctx: InjectionContext, t: Transformation, p: int) -> int:
    """Case 2c needs the smallest r outside {0, p, n-1} that is not above p
    and whose image lies strictly between p and n-1."""
    n = ctx.n
    for r in range(n):
        if r in (0, p, n - 1) or ctx.po.leq[p][r]:
            continue
        rt = t.image[r]
        if ctx.less(p, rt) and rt != n - 1:
            return r
    raise InjectionViolation("no_case2c_state", t)


def _check_case2_cycle(
    ctx: InjectionContext, t: Transformation, s: Transformation, chain: list[int]
) -> None:
    """The case-2 image must contain the chain as a cycle, strictly ordered
    by containment with p as its least element (the distinctness arguments
    lean on exactly this shape)."""
    p = chain[0]
    orbit = [p]
    q = s.image[p]
    while q != p:
        orbit.append(q)
        if len(orbit) > ctx.n:
            raise InjectionViolation("case2_shape", t, "image has no cycle through p")
        q = s.image[q]
    if orbit != chain:
        raise InjectionViolation("case2_shape", t, f"cycle {orbit} != chain {chain}")
    for a, b in zip(chain, chain[1:]):
        if not ctx.less(a, b):
            raise InjectionViolation("case2_shape", t, "cycle not strictly ordered")


@dataclass
class InjectionReport:
    klass: IdealClass
    n: int
    size_T: int
    size_S: int
    case_counts: Counter = field(default_factory=Counter)
    violations: list[dict] = field(default_factory=list)
    collisions: list[tuple[str, str, str]] = field(default_factory=list)

    @property
    def total(self) -> bool:
        return not any(v["kind"] == "coverage" for v in self.violations)

    @property
    def contained(self) -> bool:
        return not any(v["kind"] == "image_outside_witness" for v in self.violations)

    @property
    def injective(self) -> bool:
        return not self.collisions

    @property
    def ok(self) -> bool:
        return (
            not self.violations
            and not self.collisions
            and self.size_T <= self.size_S
        )

    def to_json_dict(self) -> dict:
        return {
            "class": self.klass.value,
            "n": self.n,
            "size_T": self.size_T,
            "size_S": self.size_S,
            "case_counts": dict(sorted(self.case_counts.items())),
            "total": self.total,
            "contained": self.contained,
            "injective": self.injective,
            "ok": self.ok,
            "violations": self.violations,
            "collisions": [list(c) for c in self.collisions],
        }

    def to_text(self) -> str:
        data = self.to_json_dict()
        lines = [
            f"injection {data['class']} n={data['n']} |T|={data['size_T']} |S|={data['size_S']}",
            "cases " + " ".join(f"{k}:{v}" for k, v in data["case_counts"].items()),
            f"total {data['total']} contained {data['contained']} injective {data['injective']}",
        ]
        for v in self.violations:
            lines.append(f"violation {v['kind']} t={v['t']} {v.get('detail', '')}".rstrip())
        for s_img, t1, t2 in self.collisions:
            lines.append(f"collision f({t1}) = f({t2}) = {s_img}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2) + "\n"


def verify_injection(ctx: InjectionContext) -> InjectionReport:
    """Run f over all of T: totality, image containment, injectivity."""
    report = InjectionReport(
        klass=ctx.klass, n=ctx.n, size_T=ctx.T.size, size_S=ctx.S.size
    )
    seen: dict[bytes, Transformation] = {}
    for t in ctx.T.elements:
        try:
            s, tag = apply_f(ctx, t)
        except InjectionViolation as exc:
            report.violations.append(
                {"kind": exc.kind, "t": str(exc.t), "detail": exc.detail}
            )
            continue
        report.case_counts[tag.label] += 1
        if tag.label == "1" and s != t:
            report.violations.append(
                {"kind": "not_fixed_on_witness", "t": str(t), "detail": str(s)}
            )
        key = s.packed()
        if key in seen:
            report.collisions.append((str(s), str(seen[key]), str(t)))
        else:
            seen[key] = t
    return report
