"""Independent oracles and random generators for the test suite.

Everything here deliberately avoids the code paths it is used to check:
containment is re-decided by running explicit words, semigroup membership by
recomputing orbits, and so on.
"""

from __future__ import annotations

import random
from itertools import combinations, product

from synideal.dfa import Dfa
from synideal.semigroup import TransformationSemigroup, _close_images
from synideal.transform import Transformation


def random_transformation(rng: random.Random, n: int) -> Transformation:
    return Transformation(tuple(rng.randrange(n) for _ in range(n)))


def random_dfa(
    rng: random.Random, n: int, alphabet_size: int, letters: str = "abcdefgh"
) -> Dfa:
    delta = tuple(random_transformation(rng, n) for _ in range(alphabet_size))
    finals = frozenset(q for q in range(n) if rng.randrange(2))
    return Dfa(tuple(letters[:alphabet_size]), delta, rng.randrange(n), finals)


def containment_by_words(d: Dfa, p: int, q: int, max_len: int | None = None) -> bool:
    """K_p subset of K_q, decided by running every word up to the length
    bound (default n^2) from both states.  Exponential; keep (n, alphabet)
    small enough that the full tree is enumerable."""
    limit = d.n * d.n if max_len is None else max_len
    finals = d.finals
    images = [g.image for g in d.delta]
    stack = [(p, q, 0)]
    while stack:
        x, y, depth = stack.pop()
        if x in finals and y not in finals:
            return False
        if depth < limit:
            for img in images:
                stack.append((img[x], img[y], depth + 1))
    return True


def containment_by_word_search(d: Dfa, p: int, q: int) -> bool:
    """Word search in breadth-first order over the run-state pair, skipping
    words whose pair was already visited (their continuations repeat an
    earlier word's behaviour).  Covers all words up to length n^2."""
    finals = d.finals
    seen = {(p, q)}
    queue = [(p, q)]
    for x, y in queue:
        if x in finals and y not in finals:
            return False
        for g in d.delta:
            nxt = (g.image[x], g.image[y])
            if nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return True


def orbit_reaches_fixed_point(t: Transformation, q0: int) -> bool:
    """Brute-force initial aperiodicity: iterate and watch for a plateau."""
    q = q0
    trail = [q]
    for _ in range(t.n + 1):
        q = t.image[q]
        trail.append(q)
    # after n steps the orbit is inside its cycle; period 1 iff it sticks
    return trail[-1] == trail[-2]


def naive_closure(gens: list[Transformation]) -> set[tuple[int, ...]]:
    """Reference closure: repeated pairwise composition until stable."""
    elems = {g.image for g in gens}
    while True:
        new = set()
        for a in elems:
            for b in elems:
                c = tuple(b[q] for q in a)
                if c not in elems:
                    new.add(c)
        if not new:
            return elems
        elems |= new


def minimal_generator_count_by_subsets(s: TransformationSemigroup, k_max: int) -> int | None:
    """Least k <= k_max such that some k-subset of the elements generates s,
    found by closing every subset of each size in turn.  Exponential: keep
    it to semigroups whose subsets up to the answer are enumerable."""
    size = s.size
    element_images = sorted(s.images)
    for k in range(1, min(k_max, size) + 1):
        for subset in combinations(element_images, k):
            closed = _close_images(subset, stop_at=size)
            if closed is not None and len(closed) == size:
                return k
    return None


def sigma_star_prefix_dfa(d: Dfa) -> Dfa:
    """DFA for Sigma*.L(d), built by the suffix-run subset construction.
    Used to check the letter-based left-ideal test against the definition."""
    start = frozenset({d.initial})
    number = {start: 0}
    order = [start]
    rows: list[list[int]] = [[] for _ in d.alphabet]
    for subset in order:
        for ai, g in enumerate(d.delta):
            nxt = frozenset(g.image[q] for q in subset) | {d.initial}
            if nxt not in number:
                number[nxt] = len(number)
                order.append(nxt)
            rows[ai].append(number[nxt])
    return Dfa(
        d.alphabet,
        tuple(Transformation(tuple(row)) for row in rows),
        0,
        frozenset(i for i, subset in enumerate(order) if subset & d.finals),
    )


def enumerate_words(alphabet: tuple[str, ...], max_len: int):
    for length in range(max_len + 1):
        yield from product(alphabet, repeat=length)


# ---------------------------------------------------------------------------
# shared example automata


def sigma_ladder_dfas() -> dict[int, Dfa]:
    """Three minimal 3-state DFAs over {a,b,c} with syntactic complexities
    3, 9, and 27: a permutation group, a mixed monoid, and the full monoid."""
    return {
        3: Dfa(
            ("a", "b", "c"),
            (Transformation((0, 1, 2)), Transformation((1, 2, 0)), Transformation((2, 0, 1))),
            0,
            frozenset({2}),
        ),
        9: Dfa(
            ("a", "b", "c"),
            (Transformation((1, 0, 2)), Transformation((0, 0, 2)), Transformation((0, 2, 2))),
            0,
            frozenset({2}),
        ),
        27: Dfa(
            ("a", "b", "c"),
            (Transformation((1, 2, 0)), Transformation((1, 0, 2)), Transformation((0, 1, 0))),
            0,
            frozenset({2}),
        ),
    }


def trailing_runs_dfa(n: int) -> Dfa:
    """Minimal DFA of Sigma* a^{n-1} over {a,b}: states count trailing a's."""
    up = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
    reset = Transformation((0,) * n)
    return Dfa(("a", "b"), (up, reset), 0, frozenset({n - 1}))


def contains_run_dfa(n: int) -> Dfa:
    """Minimal DFA of Sigma* a^{n-1} Sigma* over {a,b}: a two-sided ideal."""
    up = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
    reset = Transformation(tuple(0 if q < n - 1 else n - 1 for q in range(n)))
    return Dfa(("a", "b"), (up, reset), 0, frozenset({n - 1}))


def unary_threshold_dfa(n: int) -> Dfa:
    """Minimal DFA of a^{n-1} a* over {a}: sigma is n - 1."""
    up = Transformation(tuple(min(q + 1, n - 1) for q in range(n)))
    return Dfa(("a",), (up,), 0, frozenset({n - 1}))


def not_left_ideal_dfa(final: int = 1) -> Dfa:
    """Quotient DFA of b + Sigma*a for final=1 (not a left ideal); with
    final=2 it accepts Sigma Sigma* b, which is one.  Same semigroup."""
    return Dfa(
        ("a", "b"),
        (Transformation((1, 1, 1)), Transformation((1, 2, 2))),
        0,
        frozenset({final}),
    )
