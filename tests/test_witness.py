import random
from itertools import combinations, product

import pytest

from synideal import witness
from synideal.dfa import Dfa, max_chain_length, preorder, transition_semigroup
from synideal.ideals import classify
from synideal.semigroup import generator_necessity
from synideal.transform import Transformation, identity
from synideal.witness import (
    MIN_N,
    IdealClass,
    bound,
    build,
    expected_semigroup,
    has_maximal_order,
)

from oracles import invariant_by_renumbering, is_minimal, reference_expected_semigroup


def T(*image):
    return Transformation(tuple(image))


RIGHT_SIZES = {1: 1, 2: 2, 3: 9, 4: 64, 5: 625}
LEFT_SIZES = {1: 1, 2: 3, 3: 11, 4: 67, 5: 629}
TWO_SIDED_SIZES = {2: 2, 3: 6, 4: 25, 5: 150, 6: 1361}


class TestBuild:
    def test_right_n4_letters(self):
        w = build(IdealClass.RIGHT, 4)
        assert w.alphabet == ("a", "b", "c", "d")
        assert w.delta == (T(1, 2, 0, 3), T(1, 0, 2, 3), T(0, 1, 0, 3), T(0, 1, 3, 3))
        assert w.finals == {3} and w.initial == 0

    def test_right_n3_drops_b(self):
        assert build(IdealClass.RIGHT, 3).alphabet == ("a", "c", "d")

    def test_left_n3_alphabet(self):
        assert build(IdealClass.LEFT, 3).alphabet == ("a", "c", "d", "e")

    def test_left_n4_letters(self):
        w = build(IdealClass.LEFT, 4)
        assert w.alphabet == ("a", "b", "c", "d", "e")
        assert w.delta[0] == T(0, 2, 3, 1)  # cycle on 1..n-1
        assert w.delta[4] == T(1, 1, 1, 1)  # constant

    def test_two_sided_n3_table(self):
        w = build(IdealClass.TWO_SIDED, 3)
        assert w.alphabet == ("a", "b", "c")
        assert w.delta == (T(1, 2, 2), T(0, 0, 2), identity(3))
        assert w.finals == {2}

    def test_two_sided_n4_drops_b(self):
        assert build(IdealClass.TWO_SIDED, 4).alphabet == ("a", "c", "d", "e", "f")

    def test_two_sided_n5_full_alphabet(self):
        assert build(IdealClass.TWO_SIDED, 5).alphabet == ("a", "b", "c", "d", "e", "f")

    def test_below_range(self):
        with pytest.raises(ValueError):
            build(IdealClass.TWO_SIDED, 1)
        with pytest.raises(ValueError):
            build(IdealClass.RIGHT, 0)


class TestBound:
    @pytest.mark.parametrize("n,value", [(1, 1), (2, 2), (3, 9), (4, 64), (7, 117649)])
    def test_right(self, n, value):
        assert bound(IdealClass.RIGHT, n) == value

    @pytest.mark.parametrize("n,value", [(1, 1), (2, 3), (3, 11), (4, 67), (6, 7781)])
    def test_left(self, n, value):
        assert bound(IdealClass.LEFT, n) == value

    @pytest.mark.parametrize(
        "n,value", [(2, 2), (3, 6), (4, 25), (5, 150), (7, 16968)]
    )
    def test_two_sided(self, n, value):
        assert bound(IdealClass.TWO_SIDED, n) == value


class TestExpectedSemigroup:
    def test_right_n3_is_all_sink_fixers(self):
        s = expected_semigroup(IdealClass.RIGHT, 3)
        assert s.size == 9
        assert all(img[-1] == 2 for img in (t.image for t in s.elements))

    def test_left_n3_contents(self):
        s = expected_semigroup(IdealClass.LEFT, 3)
        assert s.size == 11
        images = {t.image for t in s.elements}
        assert {(1, 1, 1), (2, 2, 2)} <= images
        assert all(img[0] == 0 or len(set(img)) == 1 for img in images)

    def test_two_sided_n4_size(self):
        assert expected_semigroup(IdealClass.TWO_SIDED, 4).size == 25

    def test_two_sided_n3_explicit_list(self):
        s = expected_semigroup(IdealClass.TWO_SIDED, 3)
        assert {t.image for t in s.elements} == {
            (0, 1, 2), (1, 2, 2), (2, 2, 2), (0, 0, 2), (1, 1, 2), (0, 2, 2),
        }

    @pytest.mark.parametrize("klass,sizes", [
        (IdealClass.RIGHT, RIGHT_SIZES),
        (IdealClass.LEFT, LEFT_SIZES),
        (IdealClass.TWO_SIDED, TWO_SIDED_SIZES),
    ])
    def test_matches_closure_exactly(self, klass, sizes):
        for n, size in sizes.items():
            got = transition_semigroup(build(klass, n))
            exp = expected_semigroup(klass, n)
            assert got.size == exp.size == size == bound(klass, n)
            assert got.images == exp.images

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_matches_reference_enumeration(self, klass):
        for n in range(MIN_N[klass], 8):
            exp = expected_semigroup(klass, n)
            ref = reference_expected_semigroup(klass, n)
            assert len(exp.images) == len(frozenset(exp.images)) == bound(klass, n)
            assert exp.images == ref.images and ref.images == exp.images
            assert not exp.images != ref.images and not ref.images != exp.images
            assert exp.generators == ref.generators

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_is_every_map_preserving_the_maximal_order(self, klass):
        # The premise of has_maximal_order: the maximal semigroup is M(P*),
        # every map preserving P* (an antichain, with 0 below it for left and
        # two-sided ideals and n-1 above it for right and two-sided) that
        # fixes n-1 for right and two-sided.  Found here by brute force.
        for n in range(MIN_N[klass], 7):
            low = None if klass is IdealClass.RIGHT else 0
            top = None if klass is IdealClass.LEFT else n - 1
            pairs = [
                (p, q) for p in range(n) for q in range(n) if p in (q, low) or q == top
            ]
            preserving = {
                bytes(m)
                for m in product(range(n), repeat=n)
                if (top is None or m[top] == top)
                and all(m[p] == m[q] or m[p] == low or m[q] == top for p, q in pairs)
            }
            assert frozenset(expected_semigroup(klass, n).images) == preserving
            assert len(preserving) == bound(klass, n)


class TestClosedForm:
    """``expected_semigroup`` images are a closed form that is never stored:
    membership, enumeration and equality must agree with the reference."""

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_membership_is_exact_on_every_map(self, klass):
        for n in range(MIN_N[klass], 7):
            closed = expected_semigroup(klass, n).images
            members = {e for e in map(bytes, product(range(n), repeat=n)) if e in closed}
            assert members == reference_expected_semigroup(klass, n).images == set(closed)

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_rejects_what_is_not_a_packed_map(self, klass):
        n = 5
        closed = expected_semigroup(klass, n).images
        member = next(iter(closed))
        for e in (tuple(member), member[:-1], member + b"\0", bytearray(member), n, None):
            assert e not in closed
        assert closed & {member, member[:-1]} == {member}
        with pytest.raises(TypeError):
            hash(closed)

    def test_families_must_differ_on_state_0(self):
        with pytest.raises(ValueError):
            witness.ClosedForm(3, [(range(3), range(3), [2]), ([0], [0], [0])])
        for n in (0, 256):
            with pytest.raises(ValueError):
                witness.ClosedForm(n, [([0], [0], [0])])

    @staticmethod
    def _near_misses(closed, ref):
        """(description, ordered set) pairs: the closed form's own maps with
        one of them, first or last, replaced, or dropped."""
        n = closed.n
        outsider = next(e for e in map(bytes, product(range(n + 1), repeat=n)) if e not in ref)
        maps = list(closed)
        for pos in (0, len(maps) - 1):
            e = maps[pos]
            for what, other in (
                ("non-member", outsider),
                ("shortened", e[:-1]),
                ("tuple", tuple(e)),
                ("byte 255", e[:-1] + b"\xff"),
            ):
                near = maps.copy()
                near[pos] = other
                yield f"{what} at {pos}", dict.fromkeys(near).keys()
            yield f"missing at {pos}", dict.fromkeys(maps[:pos] + maps[pos + 1 :]).keys()

    @pytest.mark.parametrize("klass, n", [
        (IdealClass.RIGHT, 7),
        (IdealClass.LEFT, 4),
        (IdealClass.TWO_SIDED, 5),
        (IdealClass.TWO_SIDED, 2),
        (IdealClass.LEFT, 1),
    ])
    def test_near_miss_sets_compare_unequal(self, klass, n):
        closed = expected_semigroup(klass, n).images
        ref = reference_expected_semigroup(klass, n).images
        assert closed == dict.fromkeys(closed).keys()
        for what, near in self._near_misses(closed, ref):
            assert closed != near, what
            assert near != closed, what
            assert frozenset(near) != closed and closed != frozenset(near), what


def _state_sets(n: int):
    """Every non-empty set of the states 0..n-1, as increasing bytes."""
    for k in range(1, n + 1):
        yield from map(bytes, combinations(range(n), k))


def _random_closed_form(rng: random.Random, n: int) -> witness.ClosedForm:
    """A closed form of one to three families with random allowed images,
    some of them empty, and pairwise disjoint first images."""
    states = list(range(n))
    rng.shuffle(states)
    cuts = sorted(rng.sample(range(1, n + 1), min(n, rng.randint(1, 3))))
    families = []
    for lo, hi in zip([0, *cuts], cuts):
        first = states[lo:hi]
        middle = rng.sample(range(n), rng.randint(0, n))
        last = rng.sample(range(n), rng.randint(0, n))
        families.append((first, middle, last))
    return witness.ClosedForm(n, families)


class TestInvariance:
    """``ClosedForm.invariant_under(M)``: every map of the form, its values
    renumbered by any permutation of M, stays in it.  Decided from the
    families; checked here against renumbering every map."""

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_the_closed_forms_agree_with_renumbering_every_map(self, klass):
        outcomes = set()
        for n in range(MIN_N[klass], 6):
            closed = expected_semigroup(klass, n).images
            for moved in _state_sets(n):
                expected = invariant_by_renumbering(closed, moved)
                assert closed.invariant_under(moved) is expected, (n, moved)
                outcomes.add(expected)
        assert outcomes == {True, False}

    def test_random_forms_agree_with_renumbering_every_map(self):
        rng = random.Random(31)
        outcomes = set()
        for n in range(1, 5):
            for _ in range(40):
                closed = _random_closed_form(rng, n)
                for moved in _state_sets(n):
                    expected = invariant_by_renumbering(closed, moved)
                    assert closed.invariant_under(moved) is expected, (n, moved)
                    outcomes.add((n, expected))
        assert outcomes == {(n, b) for n in range(1, 5) for b in (True, False)} - {(1, False)}

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_the_witness_units_leave_the_closed_forms_invariant(self, klass):
        # The states the permutation letters move: 0..n-2 (right), 1..n-1
        # (left), 1..n-2 (two-sided).
        for n in range(MIN_N[klass] + 2, 12):
            units = [m for m in build(klass, n).delta if len(set(m.image)) == n]
            moved = bytes(q for q in range(n) if any(u.image[q] != q for u in units))
            assert expected_semigroup(klass, n).images.invariant_under(moved), (n, moved)


class TestWitnessShape:
    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_minimal_and_classified(self, klass):
        lo = 2 if klass is IdealClass.TWO_SIDED else 1
        for n in range(lo, 7):
            w = build(klass, n)
            assert is_minimal(w), (klass, n)
            assert classify(w).in_class(klass), (klass, n)

    def test_right_witness_is_not_left(self):
        rep = classify(build(IdealClass.RIGHT, 5))
        assert rep.is_right_ideal and not rep.is_left_ideal

    def test_left_witness_is_not_right(self):
        rep = classify(build(IdealClass.LEFT, 5))
        assert rep.is_left_ideal and not rep.is_right_ideal

    @pytest.mark.parametrize("n", [4, 5])
    def test_generator_necessity(self, n):
        for klass in IdealClass:
            s = transition_semigroup(build(klass, n))
            assert all(generator_necessity(s)), (klass, n)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_left_chain_length(self, n):
        assert max_chain_length(preorder(build(IdealClass.LEFT, n))) == 2

    @pytest.mark.parametrize("n", range(3, 7))
    def test_two_sided_chain_length(self, n):
        assert max_chain_length(preorder(build(IdealClass.TWO_SIDED, n))) == 3


class TestHasMaximalOrder:
    """The uniqueness certificate's three conditions, each one needed."""

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_witnesses(self, klass):
        for n in range(MIN_N[klass], 11):
            assert has_maximal_order(build(klass, n), klass), n

    def test_order_other_than_p_star(self):
        # aaSigma*: every letter fixes the sink and so preserves the right
        # P*, but the dead state 3 lies below every state and 0 below 1.
        d = Dfa(("a", "b"), (T(1, 2, 2, 3), T(3, 3, 2, 3)), 0, frozenset({2}))
        assert is_minimal(d) and classify(d).is_right_ideal
        assert not has_maximal_order(d, IdealClass.RIGHT)

    def test_letter_moving_the_top(self):
        # Both letters are constant, so they preserve 0 < 1, the order of
        # this DFA; the constant to 0 moves the final state, which right and
        # two-sided maximisers fix.
        d = Dfa(("a", "c"), (T(1, 1), T(0, 0)), 0, frozenset({1}))
        assert preorder(d).leq == ((True, True), (False, True))
        assert not has_maximal_order(d, IdealClass.RIGHT)
        assert not has_maximal_order(d, IdealClass.TWO_SIDED)
        assert has_maximal_order(d, IdealClass.LEFT)
