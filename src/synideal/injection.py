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

The cases run on packed maps (``bytes``), with the preorder held as per-state
int masks on the context; one pass per element finds its case and builds
f(t).  ``Transformation`` objects appear only at the API edge (``apply_f``,
``classify_case``) and in the text of violations and collisions.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property

from .dfa import Dfa, StatePreorder, minimize, preorder, quotient_maps, transition_semigroup
from .ideals import classify_minimal
from .semigroup import TransformationSemigroup, conjugated
from .transform import Transformation, conjugate
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

    @cached_property
    def above(self) -> tuple[int, ...]:
        """Bit q of ``above[p]`` is set iff p is strictly below q."""
        states = range(self.n)
        less = self.po.strictly_less
        return tuple(sum(1 << q for q in states if less(p, q)) for p in states)

    @cached_property
    def up(self) -> tuple[int, ...]:
        """Bit q of ``up[p]`` is set iff p <= q.  Case 2c skips these states;
        unlike ``above`` this also covers states equivalent to p, which a
        preorder that is not antisymmetric can have."""
        return tuple(sum(1 << q for q, le in enumerate(row) if le) for row in self.po.leq)


def make_context(d: Dfa, klass: IdealClass | None = None) -> InjectionContext:
    """Build an injection context from any DFA, validating class membership
    and size: minimise, close and classify once, check the class and n, and
    build with ``minimal_context`` from that closure and the maximal
    semigroup of the class.  With ``klass`` None the class is the first of
    two-sided and left that the language is in and whose construction fits
    its n (the first it is in when none fits, which then fails the n check).
    A campaign, which already holds a minimal DFA and its classification,
    calls ``minimal_context`` directly.
    """
    if klass is not None and klass not in MIN_CONTEXT_N:
        raise ValueError(f"no injection is defined for class {klass.value}")
    m = minimize(d)
    T = transition_semigroup(m)
    report = classify_minimal(m.transitions, m.finals_mask, sigma=T.size)
    if klass is None:
        member = [k for k in (IdealClass.TWO_SIDED, IdealClass.LEFT) if report.in_class(k)]
        if not member:
            raise ValueError("not a left or two-sided ideal")
        klass = next((k for k in member if m.n >= MIN_CONTEXT_N[k]), member[0])
    if m.n < MIN_CONTEXT_N[klass]:
        raise ValueError(
            f"{klass.value} injection needs n >= {MIN_CONTEXT_N[klass]}; "
            f"smaller sizes are covered by exhaustive checks"
        )
    if not report.in_class(klass):
        raise ValueError(f"DFA does not accept a {klass.value} ideal")
    return minimal_context(m, klass, expected_semigroup(klass, m.n), T)


def minimal_context(
    m: Dfa, klass: IdealClass, S: TransformationSemigroup, T: TransformationSemigroup
) -> InjectionContext:
    """The injection context of ``m``, a minimal DFA whose language the
    caller knows to be in ``klass``, with enough states for it, of ``S``,
    the maximal semigroup of the class at that size, and of ``T``, the
    transition semigroup of ``m``; nothing here minimises, closes,
    classifies or checks n.

    One permutation relabels the states: breadth-first, as ``minimize``
    numbers them, and for the two-sided class with the final sink then
    swapped with n-1.  ``T`` is conjugated by the same permutation.  So a
    minimal ``m`` yields the context ``make_context(m, klass)`` builds.
    When the permutation is the identity, as for every sampled left ideal,
    ``m`` and ``T`` are used as they are.
    """
    n = m.n
    # perm[q]: the label state q of m ends up with.
    _, _, perm = quotient_maps(m.transitions.maps, m.finals_mask, bytes(range(n)), m.initial)
    if klass is IdealClass.TWO_SIDED:
        # A two-sided ideal's minimal DFA has one final state, its sink.
        # Relabeling changes neither the classification nor sigma.
        (sink,) = (perm[f] for f in m.finals)
        perm = [n - 1 if r == sink else sink if r == n - 1 else r for r in perm]
    if perm != list(range(n)):
        delta = tuple(conjugate(g, perm) for g in m.delta)
        m = Dfa(m.alphabet, delta, 0, frozenset(perm[f] for f in m.finals))
        T = conjugated(T, perm)
    return InjectionContext(klass=klass, dfa=m, po=preorder(m), T=T, S=S)


def _unpacked(e: bytes) -> Transformation:
    return Transformation(tuple(e))


def _text(e: bytes) -> str:
    return str(_unpacked(e))


def _violation(kind: str, e: bytes, detail: str = "") -> InjectionViolation:
    return InjectionViolation(kind, _unpacked(e), detail)


def _orbit_chain(ctx: InjectionContext, e: bytes, p: int) -> list[int]:
    """The orbit p, pe, ..., pe^k ending at a fixed point, asserting the
    promised strict climb in the preorder at every step."""
    above = ctx.above
    chain = [p]
    q = p
    for _ in range(ctx.n + 1):
        r = e[q]
        if r == q:
            return chain
        if not above[q] >> r & 1:
            raise _violation("chain_not_ascending", e, f"{q} -> {r} does not climb")
        chain.append(r)
        q = r
    raise _violation("chain_not_terminating", e, "orbit found no fixed point")


def _case_image(ctx: InjectionContext, e: bytes) -> tuple[str, bytes]:
    """The first matching case of e (a packed member of ctx.T) and the packed
    image f(e), classified and built in one pass and checked against S.

    The case-2 image (plain left and 2a) is e with 0 sent to 0 and the
    chain's end sent back to p; the distinctness argument needs the chain to
    be a cycle of it, strictly ascending from p.  That shape is not
    re-checked, because it cannot fail.  The climb is what ``_orbit_chain``
    asserts at every step, under the same relation.  The cycle could only
    break at 0, the one other state the image moves, and a chain through 0
    needs a step that climbs strictly to 0, which no left or two-sided
    preorder allows: 0 is below every state.  (Were 0 reached, its image p
    would restart the orbit, and ``_orbit_chain`` would find no fixed point.)
    """
    if e in ctx.S.images:
        return "1", e
    n = ctx.n
    top = n - 1
    two_sided = ctx.klass is IdealClass.TWO_SIDED
    p = e[0]
    if p == 0:
        # Maps fixing 0 always lie in the maximal semigroup.
        raise _violation("fixes_initial_outside_witness", e)
    img = bytearray(e)
    img[0] = 0
    if e[p] != p:
        chain = _orbit_chain(ctx, e, p)
        if not two_sided or chain[-1] != top:
            label = "2a" if two_sided else "2"
            img[chain[-1]] = p
        elif len(chain) >= 3:
            label = "2b"
            for i in range(1, len(chain) - 1):
                img[chain[i]] = chain[i - 1]
            img[p] = top
        else:
            label = "2c"
            r = _pick_case2c_state(ctx, e, p)
            rt = e[r]
            img[p] = rt
            img[rt] = p
            img[r] = 0
    else:
        fixed = [q for q in range(n) if e[q] == q]
        # e^m with m >= n - 1 sends every state onto its cycle.
        power, m, pad = e, 1, bytes(256 - n)
        while m < n:
            power, m = power.translate(power + pad), 2 * m
        cyclic = set(power).difference(fixed)
        excluded = (p, top) if two_sided else (p,)
        others = [q for q in fixed if q not in excluded]
        above = ctx.above
        returning = [q for q in range(n) if above[p] >> q & 1 and e[q] == p]
        if cyclic:
            label = "3a"
            img[p] = min(cyclic)
        elif others:
            label = "3b"
            for q in others:
                img[q] = 0
        elif returning:
            label = "3c"
            img[p] = returning[0]
            for q in returning:
                img[q] = 0
        elif two_sided and any(
            above[p] >> q & 1 and above[q] >> top & 1 and e[q] == top for q in range(n)
        ):
            label = "3d"
            for q in range(n):
                if e[q] == top:
                    img[q] = q
            img[p] = top
        else:
            raise _violation("coverage", e, "no case matches")
    s = bytes(img)
    if s not in ctx.S.images:
        raise _violation("image_outside_witness", e, f"f(t)={_unpacked(s)}")
    return label, s


def classify_case(ctx: InjectionContext, t: Transformation) -> CaseTag:
    """The first matching case for t (a member of ctx.T).

    The case is read off ``apply_f``, so besides the classification failures
    this also raises the construction failures ``no_case2c_state`` and
    ``image_outside_witness``; neither occurs for a genuine ideal.
    """
    return apply_f(ctx, t)[1]


def apply_f(ctx: InjectionContext, t: Transformation) -> tuple[Transformation, CaseTag]:
    """The image f(t), built per the matched case, checked against S."""
    e = t.packed()
    if e not in ctx.T.images:
        raise ValueError(f"{t} is not in the transition semigroup")
    label, s = _case_image(ctx, e)
    return _unpacked(s), CaseTag(ctx.klass, label)


def _pick_case2c_state(ctx: InjectionContext, e: bytes, p: int) -> int:
    """Case 2c needs the smallest r outside {0, p, n-1} that is not above p
    and whose image lies strictly between p and n-1."""
    top = ctx.n - 1
    skip = ctx.up[p] | 1 | 1 << p | 1 << top
    above_p = ctx.above[p]
    for r in range(ctx.n):
        if skip >> r & 1:
            continue
        rt = e[r]
        if above_p >> rt & 1 and rt != top:
            return r
    raise _violation("no_case2c_state", e)


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
    seen: dict[bytes, bytes] = {}
    for e in sorted(ctx.T.images):
        try:
            label, s = _case_image(ctx, e)
        except InjectionViolation as exc:
            report.violations.append(
                {"kind": exc.kind, "t": str(exc.t), "detail": exc.detail}
            )
            continue
        report.case_counts[label] += 1
        if label == "1" and s != e:
            report.violations.append(
                {"kind": "not_fixed_on_witness", "t": _text(e), "detail": _text(s)}
            )
        if s in seen:
            report.collisions.append((_text(s), _text(seen[s]), _text(e)))
        else:
            seen[s] = e
    return report
