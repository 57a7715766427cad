import dataclasses
import random
from collections import Counter
from itertools import product

import pytest

from synideal.dfa import Dfa, StatePreorder, transition_semigroup
from synideal.harness import sample_ideal_dfa
from synideal.injection import (
    CASE_LABELS,
    CaseTag,
    apply_f,
    classify_case,
    make_context,
    minimal_context,
    verify_injection,
)
from synideal.semigroup import TransformationSemigroup
from synideal.transform import Transformation, conjugate
from synideal.witness import IdealClass, build, expected_semigroup

from oracles import reference_verify_injection, same_language


def T(*image):
    return Transformation(tuple(image))


@pytest.fixture(scope="module")
def left_ctx():
    # minimal DFA of Sigma*aa over {a,b}
    d = Dfa(("a", "b"), (T(1, 2, 2), T(0, 0, 0)), 0, frozenset({2}))
    return make_context(d, IdealClass.LEFT)


@pytest.fixture(scope="module")
def two_sided_ctx():
    # minimal DFA of Sigma*aaaSigma* over {a,b}
    d = Dfa(("a", "b"), (T(1, 2, 3, 3), T(0, 0, 0, 3)), 0, frozenset({3}))
    return make_context(d, IdealClass.TWO_SIDED)


class TestContext:
    def test_left_context_shape(self, left_ctx):
        assert left_ctx.n == 3
        assert left_ctx.T.size == 4
        assert {t.image for t in left_ctx.T.elements} == {
            (1, 2, 2), (2, 2, 2), (0, 0, 0), (1, 1, 1),
        }
        assert left_ctx.S.size == 11

    @pytest.mark.parametrize(
        "given, klass, n, message",
        [
            (None, IdealClass.RIGHT, 4, "not a left or two-sided ideal"),
            (IdealClass.LEFT, IdealClass.RIGHT, 4, "DFA does not accept a left ideal"),
            (IdealClass.TWO_SIDED, IdealClass.LEFT, 5, "DFA does not accept a two-sided ideal"),
        ],
    )
    def test_rejects_wrong_class(self, given, klass, n, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            make_context(build(klass, n), given)

    def test_rejects_small_n(self):
        with pytest.raises(ValueError, match="n >= 4"):
            make_context(build(IdealClass.TWO_SIDED, 3), IdealClass.TWO_SIDED)

    def test_rejects_right_class(self):
        with pytest.raises(ValueError, match="no injection"):
            make_context(build(IdealClass.RIGHT, 4), IdealClass.RIGHT)

    def test_two_sided_sink_relabeled(self, two_sided_ctx):
        n = two_sided_ctx.n
        assert two_sided_ctx.dfa.finals == {n - 1}
        assert all(t.image[n - 1] == n - 1 for t in two_sided_ctx.T.elements)

    def test_two_sided_samples_move_their_sink_to_n_minus_1(self):
        # The sampler numbers states breadth-first, so its sink is n-1 only
        # by chance; a shuffled copy also moves the initial state off 0.
        # Both must come out as the same context DFA.
        rng = random.Random(41)
        moved = 0
        for n in (4, 5, 6):
            S = expected_semigroup(IdealClass.TWO_SIDED, n)
            for seed in range(8):
                m = sample_ideal_dfa(IdealClass.TWO_SIDED, n, 2, seed=seed)
                perm = list(range(n))
                rng.shuffle(perm)
                shuffled = Dfa(
                    m.alphabet,
                    tuple(conjugate(g, perm) for g in m.delta),
                    perm[m.initial],
                    frozenset(perm[f] for f in m.finals),
                )
                ctx = minimal_context(m, IdealClass.TWO_SIDED, S, transition_semigroup(m))
                assert ctx.dfa.finals == {n - 1} and ctx.dfa.initial == 0
                assert same_language(ctx.dfa, m)
                assert ctx.T.images == transition_semigroup(ctx.dfa).images
                other = minimal_context(
                    shuffled, IdealClass.TWO_SIDED, S, transition_semigroup(shuffled)
                )
                assert other.dfa == ctx.dfa and other.T.images == ctx.T.images
                moved += m.finals != {n - 1}
        assert moved

    def test_identity_relabeling_uses_the_inputs_as_they_are(self):
        # A sampled left ideal is numbered breadth-first already, and so is
        # the two-sided n=4 witness, whose sink is 3: each permutation is the
        # identity, so nothing is rebuilt or conjugated.
        left = IdealClass.LEFT
        cases = [(left, sample_ideal_dfa(left, n, 2, seed=n)) for n in (3, 4, 5)]
        cases.append((IdealClass.TWO_SIDED, build(IdealClass.TWO_SIDED, 4)))
        for klass, m in cases:
            T = transition_semigroup(m)
            ctx = minimal_context(m, klass, expected_semigroup(klass, m.n), T)
            assert ctx.dfa is m and ctx.T is T


class TestClassifyCase:
    def test_constants_are_case_1(self, left_ctx):
        assert classify_case(left_ctx, T(1, 1, 1)).label == "1"
        assert classify_case(left_ctx, T(0, 0, 0)).label == "1"

    def test_left_case_2(self, left_ctx):
        tag = classify_case(left_ctx, T(1, 2, 2))
        assert tag == CaseTag(IdealClass.LEFT, "2")

    def test_two_sided_case_2b(self, two_sided_ctx):
        tag = classify_case(two_sided_ctx, T(1, 2, 3, 3))
        assert tag.label == "2b"

    def test_requires_membership(self, left_ctx):
        with pytest.raises(ValueError, match="not in the transition semigroup"):
            classify_case(left_ctx, T(2, 1, 0))

    def test_label_catalogue(self):
        assert CASE_LABELS[IdealClass.LEFT] == ("1", "2", "3a", "3b", "3c")
        assert CASE_LABELS[IdealClass.TWO_SIDED] == (
            "1", "2a", "2b", "2c", "3a", "3b", "3c", "3d",
        )
        with pytest.raises(ValueError):
            CaseTag(IdealClass.LEFT, "2b")


class TestApplyF:
    def test_case_1_is_identity_map(self, left_ctx):
        s, tag = apply_f(left_ctx, T(2, 2, 2))
        assert tag.label == "1" and s == T(2, 2, 2)

    def test_left_case_2_worked_example(self, left_ctx):
        s, tag = apply_f(left_ctx, T(1, 2, 2))
        assert tag.label == "2"
        assert s == T(0, 2, 1)

    def test_two_sided_case_2b_worked_example(self, two_sided_ctx):
        s, tag = apply_f(two_sided_ctx, T(1, 2, 3, 3))
        assert tag.label == "2b"
        assert s == T(0, 3, 1, 3)

    def test_images_in_witness_semigroup(self, left_ctx):
        for t in left_ctx.T.elements:
            s, _ = apply_f(left_ctx, t)
            assert s.packed() in left_ctx.S.images


class TestVerify:
    def test_left_example(self, left_ctx):
        rep = verify_injection(left_ctx)
        assert rep.ok and rep.total and rep.contained and rep.injective
        assert rep.case_counts == {"1": 3, "2": 1}
        assert rep.size_T <= rep.size_S

    def test_two_sided_example(self, two_sided_ctx):
        rep = verify_injection(two_sided_ctx)
        assert rep.ok
        assert rep.case_counts["2b"] == 1

    @pytest.mark.parametrize("klass,n", [
        (IdealClass.LEFT, 4),
        (IdealClass.LEFT, 5),
        (IdealClass.TWO_SIDED, 4),
        (IdealClass.TWO_SIDED, 5),
    ])
    def test_witness_context_is_all_case_1(self, klass, n):
        ctx = make_context(build(klass, n), klass)
        rep = verify_injection(ctx)
        assert rep.ok
        assert rep.case_counts == {"1": rep.size_T}
        assert rep.size_T == rep.size_S

    # seeds picked so that between them every case label of each class fires
    LEFT_SEEDS = [(3, 34337), (3, 34338), (4, 35341), (4, 35404)]
    TWO_SIDED_SEEDS = [
        (4, 35337), (4, 35338), (5, 36337), (5, 36341), (5, 36350), (5, 36448),
    ]

    def test_sampled_contexts_cover_every_left_case(self):
        counts = {}
        for n, seed in self.LEFT_SEEDS:
            d = sample_ideal_dfa(IdealClass.LEFT, n, 2, seed=seed)
            assert d is not None
            rep = verify_injection(make_context(d, IdealClass.LEFT))
            assert rep.ok, rep.to_text()
            for label, k in rep.case_counts.items():
                counts[label] = counts.get(label, 0) + k
        assert set(counts) == set(CASE_LABELS[IdealClass.LEFT])

    def test_sampled_contexts_cover_every_two_sided_case(self):
        counts = {}
        for n, seed in self.TWO_SIDED_SEEDS:
            d = sample_ideal_dfa(IdealClass.TWO_SIDED, n, 2, seed=seed)
            assert d is not None
            rep = verify_injection(make_context(d, IdealClass.TWO_SIDED))
            assert rep.ok, rep.to_text()
            for label, k in rep.case_counts.items():
                counts[label] = counts.get(label, 0) + k
        assert set(counts) == set(CASE_LABELS[IdealClass.TWO_SIDED])

    def test_report_serialization(self, left_ctx):
        rep = verify_injection(left_ctx)
        data = rep.to_json_dict()
        assert data["ok"] is True and data["case_counts"]["2"] == 1
        assert "injection left n=3" in rep.to_text()


class TestAgainstReference:
    """The one-pass packed case analysis against the two-pass reference on
    ``Transformation`` objects, on sampled ideals and on contexts broken on
    purpose so that every violation path is taken."""

    SEEDS = range(8)
    CONTEXTS = [
        (klass, n, a)
        for klass, ns in ((IdealClass.LEFT, (3, 4, 5, 6)), (IdealClass.TWO_SIDED, (4, 5, 6)))
        for n in ns
        for a in (2, 3)
    ]

    @staticmethod
    def _without_a_fifth_of_S(ctx, rng):
        images = sorted(ctx.S.images)
        dropped = set(rng.sample(images, len(images) // 5))
        S = dataclasses.replace(ctx.S, images=frozenset(images) - dropped)
        return dataclasses.replace(ctx, S=S)

    @staticmethod
    def _with_perturbed_preorder(ctx, rng):
        n = ctx.n
        leq = [list(row) for row in ctx.po.leq]
        for _ in range(2 * n):
            p, q = rng.randrange(n), rng.randrange(n)
            if p != q:  # stays reflexive
                leq[p][q] = not leq[p][q]
        po = StatePreorder(n=n, leq=tuple(map(tuple, leq)))
        return dataclasses.replace(ctx, po=po)

    def test_reports_match_the_reference(self):
        kinds = Counter()
        for klass, n, a in self.CONTEXTS:
            for seed in self.SEEDS:
                d = sample_ideal_dfa(klass, n, a, seed=seed)
                assert d is not None
                ctx = make_context(d, klass)
                for variant in (
                    ctx,
                    self._without_a_fifth_of_S(ctx, random.Random(seed)),
                    self._with_perturbed_preorder(ctx, random.Random(seed)),
                ):
                    rep = verify_injection(variant)
                    assert rep.to_json() == reference_verify_injection(variant).to_json()
                    kinds.update(v["kind"] for v in rep.violations)
        for kind in (
            "image_outside_witness",
            "coverage",
            "fixes_initial_outside_witness",
            "no_case2c_state",
            "chain_not_ascending",
        ):
            assert kinds[kind] > 0, kind

    @pytest.mark.parametrize("klass,n", [
        (IdealClass.LEFT, 3),
        (IdealClass.LEFT, 4),
        (IdealClass.LEFT, 5),
        (IdealClass.TWO_SIDED, 4),
        (IdealClass.TWO_SIDED, 5),
    ])
    def test_every_map_matches_the_reference(self, klass, n):
        # T replaced by all n^n maps: orbit shapes (long tails, several
        # cycles) that the transition semigroups of ideals rarely hold, and
        # collisions of f.
        ctx = make_context(sample_ideal_dfa(klass, n, 2, seed=0), klass)
        every = frozenset(bytes(img) for img in product(range(n), repeat=n))
        T_all = TransformationSemigroup(n=n, images=every, generators=ctx.T.generators)
        ctx = dataclasses.replace(ctx, T=T_all)
        rep = verify_injection(ctx)
        assert rep.to_json() == reference_verify_injection(ctx).to_json()
        assert rep.collisions
