"""Classification of regular languages into ideal / closed subclasses, and
upper bounds on syntactic complexity driven by special quotients.

A non-empty language is a right / left / two-sided ideal when it equals
L.Sigma* / Sigma*.L / Sigma*.L.Sigma*; all-sided when it absorbs shuffled
letters.  On the minimal DFA these become finite checks:

* right:     exactly one final state, and it is an all-accepting sink;
* left:      the initial state's language is contained in each letter
             successor's language;
* all-sided: every state's language is contained in each of its letter
             successors' languages.

Complements of ideals are the prefix- / suffix- / factor-closed languages,
so the same automaton answers both questions.

The special quotients (empty, Sigma*, {eps}, Sigma+) and the depth of the
uniquely reachable chain bound the syntactic complexity.  Every row of the
bound table, ``applicable_bounds``, has a counting argument behind it, and
campaigns enforce its minimum, ``special_quotient_bound``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, asdict
from functools import lru_cache

from .dfa import (
    Dfa,
    Transitions,
    crossing_pairs,
    minimize,
    transition_semigroup,
)
from .witness import IdealClass


@dataclass(frozen=True)
class ClassificationReport:
    n: int
    is_right_ideal: bool
    is_left_ideal: bool
    is_two_sided_ideal: bool
    is_all_sided_ideal: bool
    complement_prefix_closed: bool
    complement_suffix_closed: bool
    complement_factor_closed: bool
    has_empty: bool
    has_sigma_star: bool
    has_eps: bool
    has_sigma_plus: bool
    ur_depth: int | None
    sigma: int
    applicable_bounds: tuple[tuple[str, int], ...]

    def in_class(self, klass: IdealClass) -> bool:
        """Whether the language is an ideal of class ``klass``."""
        return {
            IdealClass.RIGHT: self.is_right_ideal,
            IdealClass.LEFT: self.is_left_ideal,
            IdealClass.TWO_SIDED: self.is_two_sided_ideal,
        }[klass]

    def to_json_dict(self) -> dict:
        data = asdict(self)
        data["applicable_bounds"] = [list(pair) for pair in self.applicable_bounds]
        return data

    def to_text(self) -> str:
        lines = []
        for key, value in self.to_json_dict().items():
            if key == "applicable_bounds":
                value = "; ".join(f"{name}={bound}" for name, bound in value)
            lines.append(f"{key} {value}")
        return "\n".join(lines) + "\n"


def classify(d: Dfa) -> ClassificationReport:
    """Classify the language of ``d`` (minimizing first)."""
    m = minimize(d)
    return classify_minimal(m.transitions, m.finals_mask, sigma=transition_semigroup(m).size)


def classify_minimal(
    t: Transitions, finals: int, sigma: int, memo: dict | None = None
) -> ClassificationReport:
    """Classification of the minimal DFA with letters and initial state ``t``
    and final states ``finals`` (a mask), whose syntactic complexity is
    ``sigma``.

    A report is a pure function of n, the right / left / all-sided / prefix
    / suffix flags, the four special-quotient flags, the ur depth and sigma.
    All but sigma are ``_classification_facts`` of (``t``, ``finals``),
    computed once per final mask and kept in ``t.classified``: a sweep asks
    about each minimal candidate's image on the least set of its orbit, so
    the candidates with the same image share them.  A caller classifying
    many candidates passes the same ``memo`` dict: it maps those facts and
    sigma to their report, so equal reports are the same frozen object and
    each distinct one, bound table included, is built once.
    """
    facts = t.classified.get(finals)
    if facts is None:
        facts = t.classified[finals] = _classification_facts(t, finals)
    key = (*facts, sigma)
    if memo is not None:
        report = memo.get(key)
        if report is not None:
            return report
    (n, has_empty, has_sigma_star, has_eps, has_sigma_plus, ur_depth,
     right, left, all_sided, prefix_closed, suffix_closed) = facts
    flags = dict(zip(("empty", "sigma_star", "eps", "sigma_plus"), facts[1:5]))
    report = ClassificationReport(
        n=n,
        is_right_ideal=right,
        is_left_ideal=left,
        is_two_sided_ideal=right and left,
        is_all_sided_ideal=all_sided,
        complement_prefix_closed=prefix_closed,
        complement_suffix_closed=suffix_closed,
        complement_factor_closed=prefix_closed and suffix_closed,
        has_empty=has_empty,
        has_sigma_star=has_sigma_star,
        has_eps=has_eps,
        has_sigma_plus=has_sigma_plus,
        ur_depth=ur_depth,
        sigma=sigma,
        applicable_bounds=applicable_bounds(n, flags, ur_depth),
    )
    if memo is not None:
        memo[key] = report
    return report


def _classification_facts(t: Transitions, finals: int) -> tuple:
    """The report key of ``classify_minimal`` without sigma: n, the four
    special-quotient flags, the ur depth, and the right, left, all-sided,
    prefix-closed and suffix-closed flags.

    Every fact that depends on the letters and the initial state alone
    comes from ``t``, computed in a sweep once per orbit of letter sets and
    initial state of the orbit's least set: forward reach masks, the three
    unions of pair masks that decide the left-ideal, all-sided and
    suffix-closed containments, and the unique-reachability depth; what
    depends on the final states alone, from ``_final_facts``, once per (n,
    finals).  The rest is a few integer ANDs: a containment family holds iff
    its pair union misses ``crossing_pairs(n, finals)``; q is dead iff
    ``reach[q] & finals`` is empty and all-accepting iff ``reach[q]`` misses
    the non-final states.
    """
    n = t.n
    nonfinal, cross, f, single = _final_facts(n, finals)
    non_empty = finals != 0
    successors = t.successors

    # One final state f, fixed by every letter: f is its only successor.
    right = single and successors[f] == finals
    left = non_empty and not t.initial_step_pairs & cross
    all_sided = non_empty and not t.step_pairs & cross

    dead = universal = 0
    for q, r in enumerate(t.reach):
        if not r & finals:
            dead |= 1 << q
        if not r & nonfinal:
            universal |= 1 << q
    has_eps = has_sigma_plus = False
    for q, s in enumerate(successors):
        if finals >> q & 1:
            has_eps = has_eps or not s & ~dead
        else:
            has_sigma_plus = has_sigma_plus or not s & ~universal
    # The complement is prefix-closed iff no final state reaches a non-final
    # one, and suffix-closed iff the initial language lies in every state's.
    prefix_closed = not finals & ~universal
    suffix_closed = not t.initial_pairs & cross
    return (
        n, dead != 0, universal != 0, has_eps, has_sigma_plus, t.ur_depth,
        right, left, all_sided, prefix_closed, suffix_closed,
    )


@lru_cache(maxsize=256)
def _final_facts(n: int, finals: int) -> tuple[int, int, int, bool]:
    """The non-final mask, ``crossing_pairs``, the highest final state f and
    whether f is the only final state; memoised like ``dfa._start_blocks``."""
    f = finals.bit_length() - 1
    single = finals != 0 and finals == 1 << f
    return ((1 << n) - 1) & ~finals, crossing_pairs(n, finals), f, single


# ---------------------------------------------------------------------------
# the special-quotient bound table

#: Rows of the bound table: which special quotients must be present, and how
#: many states have forced images under every transformation (the empty and
#: all-accepting quotients are fixed; the {eps} and Sigma+ quotients map onto
#: them).
SPECIAL_ROWS: tuple[tuple[tuple[str, ...], int], ...] = (
    (("empty",), 1),
    (("sigma_star",), 1),
    (("empty", "eps"), 2),
    (("sigma_star", "sigma_plus"), 2),
    (("empty", "sigma_star"), 2),
    (("empty", "sigma_star", "sigma_plus"), 3),
    (("empty", "sigma_star", "eps"), 3),
    (("empty", "sigma_star", "eps", "sigma_plus"), 4),
)


def applicable_bounds(
    n: int, flags: dict[str, bool], ur_depth: int | None
) -> tuple[tuple[str, int], ...]:
    """Named upper bounds on sigma whose conditions hold for these flags:
    ``generic`` = n^n, each special row whose quotients are present with its
    k forced states, n^(n-k), and, when the language is uniquely reachable
    with depth d, ``ur_chain[d]`` (k = 0) and ``<row>,ur_chain[d]`` per row,
    each the minimum over e <= d of e(e+1)/2 + (n-1-e)^(n-k).

    The ur-chain rows count the maps the quotients allow.  Let
    q_0 -a_0-> q_1 -> ... -> q_d be a chain of uniquely reachable states:
    nothing maps into q_0, and q_{i+1}'s only incoming transition is
    (q_i, a_i).  Fix e <= d.  If the word w takes some p to q_i with
    1 <= i <= e, walking back along the unique incoming transitions gives
    w = a_j ... a_{i-1} and p = q_j for some j < i.  So w is one of the
    e(e+1)/2 factors of a_0 ... a_{e-1}, and at most that many elements have
    an image meeting q_1 ... q_e.  Every other element maps each of the
    n - k unforced states to one of the n-1-e states off q_0 ... q_e (the
    empty and Sigma* quotients are fixed, and the {eps} and Sigma+ quotients
    map onto them), so there are at most (n-1-e)^(n-k) of those.  At e = 0
    only q_0 is avoided, which gives (n-1)^(n-k).
    """

    def ur_chain(k: int) -> int:
        return min(e * (e + 1) // 2 + (n - 1 - e) ** (n - k) for e in range(ur_depth + 1))

    ur = f"ur_chain[{ur_depth}]"
    bounds: list[tuple[str, int]] = [("generic", n**n)]
    if ur_depth is not None:
        bounds.append((ur, ur_chain(0)))
    for conditions, k in SPECIAL_ROWS:
        if all(flags[c] for c in conditions):
            name = "+".join(conditions)
            bounds.append((name, n ** (n - k)))
            if ur_depth is not None:
                bounds.append((f"{name},{ur}", ur_chain(k)))
    return tuple(bounds)


def special_quotient_bound(report: ClassificationReport) -> int:
    """The tightest applicable upper bound on sigma (falls back to n^n)."""
    return min(value for _, value in report.applicable_bounds)


def report_to_json(report: ClassificationReport) -> str:
    return json.dumps(report.to_json_dict(), indent=2, sort_keys=True) + "\n"
