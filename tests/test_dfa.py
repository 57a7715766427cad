import random

import pytest

from synideal.dfa import (
    CapExceeded,
    Dfa,
    DfaParseError,
    from_json_dict,
    is_minimal,
    labelled_quotient_maps,
    language_containment,
    max_chain_length,
    minimize,
    parse_dfa,
    parse_dfa_json,
    preorder,
    same_language,
    sink_to_top,
    syntactic_complexity,
    to_dot,
    to_json_dict,
    to_text,
    transition_semigroup,
)
from synideal.semigroup import ClosureOverflow
from synideal.transform import Transformation, identity
from synideal.witness import IdealClass, build

from oracles import (
    containment_by_words,
    random_dfa,
    sigma_ladder_dfas,
    trailing_runs_dfa,
    unary_threshold_dfa,
)


def T(*image):
    return Transformation(tuple(image))


SAMPLE = """\
# three states over a,b,c
states 3
alphabet a b c
initial 0
final 2
trans a 1 0 2
trans b 0 0 2
trans c 0 2 2
"""


class TestTextFormat:
    def test_parse_sample(self):
        d = parse_dfa(SAMPLE)
        assert d.n == 3 and d.alphabet == ("a", "b", "c")
        assert d.finals == {2} and d.initial == 0
        assert d.delta[0] == T(1, 0, 2)

    def test_round_trip(self):
        d = parse_dfa(SAMPLE)
        assert parse_dfa(to_text(d)) == d

    def test_empty_final_list(self):
        d = parse_dfa(SAMPLE.replace("final 2", "final"))
        assert d.finals == frozenset()

    def test_missing_transition_row(self):
        broken = "\n".join(l for l in SAMPLE.splitlines() if not l.startswith("trans c"))
        with pytest.raises(DfaParseError, match="missing transition"):
            parse_dfa(broken)

    def test_duplicate_letter(self):
        with pytest.raises(DfaParseError, match="duplicate letter"):
            parse_dfa(SAMPLE.replace("alphabet a b c", "alphabet a a c"))

    def test_index_out_of_range(self):
        with pytest.raises(DfaParseError, match="out of range"):
            parse_dfa(SAMPLE.replace("trans a 1 0 2", "trans a 1 0 3"))

    def test_error_carries_line_number(self):
        with pytest.raises(DfaParseError, match="line 6"):
            parse_dfa(SAMPLE.replace("trans a 1 0 2", "trans a 1 x 2"))

    def test_json_round_trip(self):
        d = parse_dfa(SAMPLE)
        assert from_json_dict(to_json_dict(d)) == d

    def test_json_text(self):
        d = parse_dfa_json(
            '{"states": 2, "alphabet": ["a"], "initial": 0, "final": [1],'
            ' "trans": {"a": [1, 1]}}'
        )
        assert d.n == 2 and d.accepts("a")

    def test_dot_output(self):
        dot = to_dot(parse_dfa(SAMPLE))
        assert "doublecircle" in dot and '0 -> 1 [label="a"]' in dot


class TestMinimize:
    def test_witness_is_already_canonical(self):
        w = build(IdealClass.RIGHT, 4)
        assert minimize(w) == w
        assert is_minimal(w)

    def test_merges_equivalent_sinks(self):
        # two equivalent final sinks
        d = Dfa(
            ("a",),
            (T(1, 2, 2, 3),),
            0,
            frozenset({2, 3}),
        )
        m = minimize(d)
        assert m.n == 3 and same_language(d, m) is True

    def test_drops_unreachable(self):
        d = Dfa(("a",), (T(0, 2, 2),), 0, frozenset({0}))
        assert minimize(d).n == 1

    def test_idempotent_and_language_preserving(self):
        rng = random.Random(7)
        for _ in range(200):
            d = random_dfa(rng, rng.randrange(1, 6), rng.randrange(1, 4))
            m = minimize(d)
            assert is_minimal(m)
            assert minimize(m) == m
            assert same_language(d, m)

    def test_empty_language(self):
        d = Dfa(("a",), (T(1, 0),), 0, frozenset())
        assert minimize(d).n == 1 and not minimize(d).finals

    def test_canonical_form_ignores_state_names(self):
        # permuting states leaves the language alone, so both copies must
        # minimize to the identical automaton, not merely an isomorphic one;
        # the sampler's pinned digests rely on this canonical form
        from synideal.transform import conjugate

        rng = random.Random(37)
        for _ in range(300):
            d = random_dfa(rng, rng.randrange(2, 8), rng.randrange(1, 4))
            perm = list(range(d.n))
            rng.shuffle(perm)
            relabeled = Dfa(
                d.alphabet,
                tuple(conjugate(g, perm) for g in d.delta),
                perm[d.initial],
                frozenset(perm[f] for f in d.finals),
            )
            assert minimize(d) == minimize(relabeled)

    def test_labels_are_the_renumbering(self):
        # With every state in a block of its own, the labels conjugate a
        # minimal DFA into the form minimize gives it.
        from synideal.transform import conjugate

        rng = random.Random(43)
        for _ in range(200):
            m = minimize(random_dfa(rng, rng.randrange(1, 7), rng.randrange(1, 4)))
            perm = list(range(m.n))
            rng.shuffle(perm)
            d = Dfa(
                m.alphabet,
                tuple(conjugate(g, perm) for g in m.delta),
                perm[m.initial],
                frozenset(perm[f] for f in m.finals),
            )
            t = d.transitions
            maps, finals, label = labelled_quotient_maps(
                t.maps, d.finals_mask, bytes(range(d.n)), d.initial
            )
            assert maps == m.transitions.maps and finals == m.finals_mask
            assert [conjugate(g, label) for g in d.delta] == list(m.delta)
            assert label[d.initial] == 0 and sorted(label) == list(range(d.n))


class TestSinkToTop:
    def test_final_state_becomes_top(self):
        rng = random.Random(41)
        moved = 0
        for _ in range(100):
            d = random_dfa(rng, rng.randrange(2, 6), 2)
            d = Dfa(d.alphabet, d.delta, 0, frozenset({rng.randrange(1, d.n)}))
            top = sink_to_top(d)
            assert top.finals == {d.n - 1} and top.initial == 0
            assert same_language(d, top)
            moved += top != d
        assert moved

    def test_final_state_already_on_top_is_unchanged(self):
        w = build(IdealClass.TWO_SIDED, 4)
        assert w.finals == {3}
        assert sink_to_top(w) is w


class TestContainment:
    def test_reflexive(self):
        d = trailing_runs_dfa(3)
        assert language_containment(d, 1, 1)

    def test_trailing_runs_chain(self):
        d = trailing_runs_dfa(3)
        assert language_containment(d, 0, 1)
        assert language_containment(d, 1, 2)
        assert not language_containment(d, 1, 0)

    def test_left_witness_row_zero(self):
        w = build(IdealClass.LEFT, 4)
        for q in range(4):
            assert language_containment(w, 0, q)

    def test_against_word_oracle(self):
        rng = random.Random(11)
        for _ in range(150):
            n = rng.randrange(2, 5)
            d = random_dfa(rng, n, 2)
            p, q = rng.randrange(n), rng.randrange(n)
            assert language_containment(d, p, q) == containment_by_words(d, p, q)

    def test_state_out_of_range(self):
        with pytest.raises(ValueError):
            language_containment(trailing_runs_dfa(3), 0, 5)


class TestPreorder:
    def test_diagonal(self):
        po = preorder(trailing_runs_dfa(4))
        assert all(po.leq[q][q] for q in range(4))

    def test_matches_containment_pointwise(self):
        rng = random.Random(13)
        for _ in range(100):
            d = random_dfa(rng, rng.randrange(1, 6), rng.randrange(1, 4))
            po = preorder(d)
            for p in range(d.n):
                for q in range(d.n):
                    assert po.leq[p][q] == language_containment(d, p, q)

    def test_transitive_and_reflexive(self):
        rng = random.Random(17)
        for _ in range(50):
            d = random_dfa(rng, rng.randrange(1, 5), 2)
            po = preorder(d)
            n = d.n
            for p in range(n):
                assert po.leq[p][p]
                for q in range(n):
                    for r in range(n):
                        if po.leq[p][q] and po.leq[q][r]:
                            assert po.leq[p][r]

    def test_antisymmetric_on_minimal(self):
        rng = random.Random(19)
        for _ in range(60):
            d = minimize(random_dfa(rng, rng.randrange(1, 6), 2))
            po = preorder(d)
            for p in range(d.n):
                for q in range(d.n):
                    if p != q and po.leq[p][q]:
                        assert not po.leq[q][p]


class TestChains:
    @pytest.mark.parametrize("n", range(2, 7))
    def test_trailing_runs_has_full_chain(self, n):
        assert max_chain_length(preorder(trailing_runs_dfa(n))) == n

    @pytest.mark.parametrize("n", range(3, 7))
    def test_left_witness_chain_two(self, n):
        assert max_chain_length(preorder(build(IdealClass.LEFT, n))) == 2

    @pytest.mark.parametrize("n", range(3, 7))
    def test_two_sided_witness_chain_three(self, n):
        assert max_chain_length(preorder(build(IdealClass.TWO_SIDED, n))) == 3


class TestSemigroups:
    def test_sigma_ladder(self):
        for sigma, d in sigma_ladder_dfas().items():
            result = transition_semigroup(d)
            assert result.size == sigma

    def test_one_letter_identity(self):
        d = Dfa(("a",), (identity(3),), 0, frozenset({0}))
        assert transition_semigroup(d).size == 1

    def test_two_sided_witness_exact_elements(self):
        w = build(IdealClass.TWO_SIDED, 3)
        got = {t.image for t in transition_semigroup(w).elements}
        assert got == {
            (0, 1, 2), (1, 2, 2), (2, 2, 2), (0, 0, 2), (1, 1, 2), (0, 2, 2),
        }

    def test_unary_threshold_sigma(self):
        assert syntactic_complexity(unary_threshold_dfa(5)) == 4

    def test_sigma_minimizes_first(self):
        # state 3 duplicates state 0, so sigma is unchanged
        dup = Dfa(
            ("a", "b", "c"),
            (T(1, 0, 2, 1), T(0, 0, 2, 0), T(0, 2, 2, 0)),
            0,
            frozenset({2}),
        )
        assert syntactic_complexity(dup) == 9

    def test_overflow_propagates(self):
        d = sigma_ladder_dfas()[27]
        result = transition_semigroup(d, cap=5)
        assert isinstance(result, ClosureOverflow)
        with pytest.raises(CapExceeded):
            syntactic_complexity(d, cap=5)
