import random

from hypothesis import given, settings, strategies as st

from synideal.dfa import Dfa, minimize, preorder, transition_semigroup
from synideal.harness import sample_ideal_dfa
from synideal.semigroup import closure
from synideal.transform import (
    Transformation,
    compose,
    format_notation,
    identity,
    parse_notation,
)
from synideal.witness import IdealClass, build

from oracles import (
    classify_shape,
    containment_by_word_search,
    containment_by_words,
    is_initially_aperiodic,
    orbit_reaches_fixed_point,
    random_dfa,
)


@st.composite
def transformations(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    image = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return Transformation(tuple(image))


@st.composite
def transformation_triples(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    def one():
        return Transformation(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        )
    return one(), one(), one()


@st.composite
def dfas(draw, max_n=5, max_letters=3):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_letters))
    delta = tuple(
        Transformation(
            tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))
        )
        for _ in range(k)
    )
    finals = frozenset(q for q in range(n) if draw(st.booleans()))
    return Dfa(tuple("abcdef"[:k]), delta, draw(st.integers(0, n - 1)), finals)


class TestTransformationAlgebra:
    @given(transformation_triples())
    def test_compose_associative(self, triple):
        r, s, t = triple
        assert compose(compose(r, s), t) == compose(r, compose(s, t))

    @given(transformations())
    def test_identity_neutral(self, t):
        e = identity(t.n)
        assert compose(e, t) == t == compose(t, e)

    @given(transformations())
    def test_one_line_round_trip(self, t):
        assert parse_notation(format_notation(t), t.n) == t

    @given(transformations(), st.data())
    def test_aperiodicity_matches_orbit_walk(self, t, data):
        q0 = data.draw(st.integers(0, t.n - 1))
        assert is_initially_aperiodic(t, q0) == orbit_reaches_fixed_point(t, q0)

    @given(transformations())
    def test_shape_partitions_states(self, t):
        shape = classify_shape(t)
        on_cycles = {q for c in shape.cycles for q in c}
        assert not on_cycles & set(shape.fixed_points)
        for c in shape.cycles:
            assert len(c) >= 2
            for i, q in enumerate(c):
                assert t.image[q] == c[(i + 1) % len(c)]
        for q in shape.fixed_points:
            assert t.image[q] == q
        assert shape.has_cycle == bool(shape.cycles)

    @given(transformations(max_n=4))
    def test_singleton_closure_is_orbit_of_powers(self, t):
        s = closure([t])
        powers = set()
        p = t
        for _ in range(s.size + 1):
            powers.add(p.image)
            p = compose(p, t)
        assert {e.image for e in s.elements} == powers


class TestClosureProperties:
    @given(st.lists(transformations(max_n=4), min_size=1, max_size=3), st.data())
    def test_closed_under_composition(self, gens, data):
        n = gens[0].n
        gens = [g for g in gens if g.n == n] or gens[:1]
        s = closure(gens)
        elems = s.elements
        i = data.draw(st.integers(0, len(elems) - 1))
        j = data.draw(st.integers(0, len(elems) - 1))
        assert compose(elems[i], elems[j]) in s


class TestContainmentProperties:
    @settings(max_examples=60, deadline=None)
    @given(dfas(max_n=4, max_letters=2), st.data())
    def test_agrees_with_word_enumeration(self, d, data):
        p = data.draw(st.integers(0, d.n - 1))
        q = data.draw(st.integers(0, d.n - 1))
        assert preorder(d).leq[p][q] == containment_by_words(d, p, q)

    @settings(max_examples=60, deadline=None)
    @given(dfas())
    def test_preorder_matches_containment(self, d):
        po = preorder(d)
        for p in range(d.n):
            for q in range(d.n):
                assert po.leq[p][q] == containment_by_word_search(d, p, q)


class TestIdealSemigroupProperties:
    def test_preorder_monotone_under_actions(self):
        # p <= q implies pt <= qt, for every semigroup element of a minimal
        # DFA; witnesses exercise it exhaustively, random DFAs for breadth
        rng = random.Random(103)
        dfas_under_test = [build(IdealClass.LEFT, n) for n in (3, 4)]
        dfas_under_test += [build(IdealClass.TWO_SIDED, n) for n in (4, 5)]
        dfas_under_test += [
            minimize(random_dfa(rng, rng.randrange(2, 5), 2)) for _ in range(20)
        ]
        for d in dfas_under_test:
            po = preorder(d)
            for t in transition_semigroup(d).elements:
                for p in range(d.n):
                    for q in range(d.n):
                        if po.leq[p][q]:
                            assert po.leq[t.image[p]][t.image[q]]

    def test_left_ideal_actions_aperiodic_and_no_dead_state(self):
        for seed in range(25):
            d = sample_ideal_dfa(IdealClass.LEFT, 4, 2, seed=600 + seed)
            assert d is not None
            semi = transition_semigroup(d)
            for t in semi.elements:
                assert is_initially_aperiodic(t, d.initial)
            # no state accepts the empty language: every state reaches a final
            for q in range(d.n):
                frontier, seen = [q], {q}
                while frontier:
                    x = frontier.pop()
                    for g in d.delta:
                        y = g.image[x]
                        if y not in seen:
                            seen.add(y)
                            frontier.append(y)
                assert seen & d.finals, f"state {q} accepts nothing"

    def test_initial_image_below_composites(self):
        # 0t <= 0st for all s, t drawn from the semigroup plus identity
        for seed in range(12):
            d = sample_ideal_dfa(IdealClass.LEFT, 3, 2, seed=700 + seed)
            assert d is not None
            po = preorder(d)
            elems = list(transition_semigroup(d).elements) + [identity(d.n)]
            for t in elems:
                for s in elems:
                    st_map = compose(s, t)
                    assert po.leq[t.image[0]][st_map.image[0]]
