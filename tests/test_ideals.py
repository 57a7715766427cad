import random
from itertools import combinations, product

import pytest

from synideal.dfa import (
    Dfa,
    from_maps,
    minimize,
    transition_semigroup,
)
from synideal import harness
from synideal.harness import CampaignReport, CampaignSpec, sample_ideal_dfa
from synideal.ideals import classify, classify_minimal, special_quotient_bound
from synideal.transform import Transformation
from synideal.witness import IdealClass, build

from oracles import (
    contains_run_dfa,
    is_minimal,
    naive_closure,
    not_left_ideal_dfa,
    random_dfa,
    reference_ur_chain,
    same_language,
    sigma_star_prefix_dfa,
    trailing_runs_dfa,
    unary_threshold_dfa,
)


def T(*image):
    return Transformation(tuple(image))


class TestClassify:
    def test_right_witness(self):
        rep = classify(build(IdealClass.RIGHT, 4))
        assert rep.is_right_ideal and not rep.is_left_ideal
        assert not rep.is_two_sided_ideal

    def test_left_witness(self):
        rep = classify(build(IdealClass.LEFT, 4))
        assert rep.is_left_ideal and not rep.is_right_ideal

    def test_two_sided_witness(self):
        rep = classify(build(IdealClass.TWO_SIDED, 4))
        assert rep.is_right_ideal and rep.is_left_ideal and rep.is_two_sided_ideal

    def test_aperiodicity_is_not_sufficient_for_left(self):
        rep = classify(not_left_ideal_dfa(final=1))
        assert not rep.is_left_ideal
        rep2 = classify(not_left_ideal_dfa(final=2))
        assert rep2.is_left_ideal
        assert rep.sigma == rep2.sigma  # same semigroup, different language

    def test_two_sided_flag_is_conjunction(self):
        rep = classify(contains_run_dfa(4))
        assert rep.is_two_sided_ideal == (rep.is_right_ideal and rep.is_left_ideal)
        assert rep.is_two_sided_ideal

    def test_all_sided_example(self):
        # Sigma* a Sigma* shuffles any word in: all-sided
        d = Dfa(("a", "b"), (T(1, 1), T(0, 1)), 0, frozenset({1}))
        rep = classify(d)
        assert rep.is_all_sided_ideal and rep.is_two_sided_ideal

    def test_two_sided_but_not_all_sided(self):
        # Sigma* aa Sigma* is two-sided, but shuffling b into aa escapes it
        rep = classify(contains_run_dfa(3))
        assert rep.is_two_sided_ideal and not rep.is_all_sided_ideal

    def test_empty_language_is_no_ideal(self):
        d = Dfa(("a",), (T(1, 1),), 0, frozenset())
        rep = classify(d)
        assert not (
            rep.is_right_ideal
            or rep.is_left_ideal
            or rep.is_two_sided_ideal
            or rep.is_all_sided_ideal
        )

    def test_sigma_star_is_every_ideal(self):
        d = Dfa(("a",), (T(0,),), 0, frozenset({0}))
        rep = classify(d)
        assert rep.is_all_sided_ideal and rep.is_two_sided_ideal

    def test_minimizes_first(self):
        # duplicate of the left witness with an unreachable extra state
        w = build(IdealClass.LEFT, 3)
        padded = Dfa(
            w.alphabet,
            tuple(T(*(g.image + (3,))) for g in w.delta),
            0,
            w.finals,
        )
        rep = classify(padded)
        assert rep.n == 3 and rep.is_left_ideal


class TestSpecialFlags:
    def test_sink_witnesses_have_sigma_star(self):
        # right and two-sided witnesses end in an all-accepting sink; the
        # left witness's final state cycles back, so no quotient is Sigma*
        for klass in (IdealClass.RIGHT, IdealClass.TWO_SIDED):
            rep = classify(build(klass, 4))
            assert rep.has_sigma_star
            assert not rep.has_empty
        assert not classify(build(IdealClass.LEFT, 4)).has_sigma_star

    def test_eps_and_empty(self):
        # L = {eps, a}: quotients L, {eps}, empty
        d = Dfa(("a", "b"), (T(1, 2, 2), T(2, 2, 2)), 0, frozenset({0, 1}))
        rep = classify(d)
        assert rep.has_empty and rep.has_eps
        assert not rep.has_sigma_star and not rep.has_sigma_plus

    def test_sigma_plus(self):
        # L = Sigma+: non-final initial state, all letters to the full sink
        d = Dfa(("a",), (T(1, 1),), 0, frozenset({1}))
        rep = classify(d)
        assert rep.has_sigma_plus and rep.has_sigma_star

    def test_ur_depth_non_returning(self):
        d = Dfa(("a", "b"), (T(1, 2, 2), T(2, 2, 2)), 0, frozenset({0, 1}))
        rep = classify(d)
        assert rep.ur_depth == 1  # L by eps, {eps} by the word a

    def test_ur_depth_absent_when_initial_reentered(self):
        rep = classify(trailing_runs_dfa(3))
        assert rep.ur_depth is None

    def test_unary_threshold_ur_chain(self):
        # quotients of a^3 a*: the word a^k uniquely reaches depth k for
        # k <= 2; the final sink is reached by every longer word
        rep = classify(unary_threshold_dfa(4))
        assert rep.ur_depth == 2


class TestBounds:
    def test_sigma_star_row(self):
        rep = classify(build(IdealClass.RIGHT, 5))
        assert rep.has_sigma_star and not rep.has_empty
        assert ("sigma_star", 5**4) in rep.applicable_bounds
        assert special_quotient_bound(rep) == 625

    def test_empty_and_eps_row(self):
        d = Dfa(("a", "b"), (T(1, 2, 2), T(2, 2, 2)), 0, frozenset({0, 1}))
        rep = classify(d)
        pairs = dict(rep.applicable_bounds)
        assert pairs["empty+eps"] == 3  # n^{n-2} at n=3
        assert rep.sigma <= special_quotient_bound(rep)

    def test_empty_and_eps_row_n5(self):
        # L = {eps, a, aa, aaa}: a five-quotient language with both the empty
        # and the {eps} quotient, so the bound drops to n^{n-2} = 125
        d = Dfa(
            ("a", "b"),
            (T(1, 2, 3, 4, 4), T(4, 4, 4, 4, 4)),
            0,
            frozenset({0, 1, 2, 3}),
        )
        rep = classify(d)
        assert rep.n == 5 and rep.has_empty and rep.has_eps
        assert dict(rep.applicable_bounds)["empty+eps"] == 125

    def test_fallback_generic(self):
        d = trailing_runs_dfa(3)
        rep = classify(d)
        assert dict(rep.applicable_bounds)["generic"] == 27
        assert special_quotient_bound(rep) <= 27

    def test_no_special_quotients_fallback_n5(self):
        rep = classify(trailing_runs_dfa(5))
        assert not (rep.has_empty or rep.has_sigma_star or rep.has_eps or rep.has_sigma_plus)
        assert rep.ur_depth is None
        assert special_quotient_bound(rep) == 5**5

    def test_ur_chain_rows(self):
        # L = {a}: the chain 0 -a-> 1 has depth 1, state 1 is the {eps}
        # quotient and state 2 the empty one.  Each ur-chain row is the
        # minimum over e <= 1 of e(e+1)/2 + (2-e)^(3-k); sigma = 2 (a and aa)
        # meets every one of them.
        d = Dfa(("a",), (T(1, 2, 2),), 0, frozenset({1}))
        rep = classify(d)
        assert rep.applicable_bounds == (
            ("generic", 27),
            ("ur_chain[1]", 2),
            ("empty", 9),
            ("empty,ur_chain[1]", 2),
            ("empty+eps", 3),
            ("empty+eps,ur_chain[1]", 2),
        )
        assert rep.sigma == special_quotient_bound(rep) == 2

    def test_basic_bounds_on_random_minimal(self):
        rng = random.Random(23)
        for _ in range(200):
            d = minimize(random_dfa(rng, rng.randrange(2, 5), rng.randrange(1, 4)))
            n = d.n
            if n < 2:
                continue
            rep = classify(d)
            assert n - 1 <= rep.sigma <= n**n
            assert rep.sigma <= special_quotient_bound(rep)


class TestComplementDuality:
    def test_witnesses(self):
        for klass, attr in [
            (IdealClass.RIGHT, "complement_prefix_closed"),
            (IdealClass.LEFT, "complement_suffix_closed"),
            (IdealClass.TWO_SIDED, "complement_factor_closed"),
        ]:
            rep = classify(build(klass, 4))
            assert getattr(rep, attr)

    def test_random_non_empty(self):
        rng = random.Random(29)
        checked = 0
        for _ in range(300):
            d = minimize(random_dfa(rng, rng.randrange(1, 5), rng.randrange(1, 3)))
            if not d.finals:
                continue
            rep = classify(d)
            assert rep.is_right_ideal == rep.complement_prefix_closed
            assert rep.is_left_ideal == rep.complement_suffix_closed
            assert rep.is_two_sided_ideal == rep.complement_factor_closed
            checked += 1
        assert checked > 100


class TestLeftTestAgainstDefinition:
    def test_letter_test_equals_prefixing_construction(self):
        # left ideal iff L equals Sigma*.L
        rng = random.Random(31)
        for _ in range(250):
            d = minimize(random_dfa(rng, rng.randrange(1, 5), 2))
            if not d.finals:
                continue
            rep = classify(d)
            definitional = same_language(d, minimize(sigma_star_prefix_dfa(d)))
            assert rep.is_left_ideal == definitional

    def test_report_round_trip(self):
        rep = classify(build(IdealClass.LEFT, 3))
        data = rep.to_json_dict()
        assert data["is_left_ideal"] is True
        assert "sigma" in data and "applicable_bounds" in data
        assert "is_left_ideal True" in rep.to_text()


def _sweep_candidates(n: int, alphabet_size: int):
    """Every minimal candidate of the exhaustive n-state sweep with up to
    ``alphabet_size`` distinct letters, with its syntactic complexity."""
    images = [bytes(img) for img in product(range(n), repeat=n)]
    for size in range(1, alphabet_size + 1):
        for maps in combinations(images, size):
            sigma = None
            for finals in range(1, 2**n):
                d = from_maps("abc"[:size], maps, finals)
                if is_minimal(d):
                    sigma = sigma or transition_semigroup(d).size
                    yield d, sigma


def _sampled_ideals():
    """240 seeded sampled ideals with 5 and 6 states, with their syntactic
    complexities."""
    for i in range(240):
        klass = list(IdealClass)[i % 3]
        d = sample_ideal_dfa(klass, 5 + i % 2, 2 + i % 2, seed=i)
        assert d is not None
        yield d, transition_semigroup(d).size


class TestInterning:
    @pytest.mark.parametrize(
        "candidates",
        [lambda: _sweep_candidates(3, 3), lambda: _sweep_candidates(4, 1), _sampled_ideals],
        ids=["sweep-n3-a3", "sweep-n4-a1", "sampled-n5-n6"],
    )
    def test_memo_returns_the_unmemoised_report_once_per_value(self, candidates):
        memo: dict = {}
        first: dict = {}
        count = 0
        for d, sigma in candidates():
            rep = classify_minimal(d.transitions, d.finals_mask, sigma, memo=memo)
            assert rep == classify_minimal(d.transitions, d.finals_mask, sigma), d
            assert first.setdefault(rep, rep) is rep, d
            count += 1
        assert len(first) < count

    def test_in_class_reads_the_class_flags(self):
        memo: dict = {}
        for d, sigma in _sweep_candidates(3, 3):
            classify_minimal(d.transitions, d.finals_mask, sigma, memo=memo)
        seen = set()
        for rep in memo.values():
            flags = (rep.is_right_ideal, rep.is_left_ideal, rep.is_two_sided_ideal)
            assert tuple(map(rep.in_class, IdealClass)) == flags, rep
            seen.add(flags)
        # every combination a classification allows occurs
        assert seen == {
            (False, False, False), (True, False, False), (False, True, False), (True, True, True)
        }


def _old_ur_chain(n: int, d: int) -> int:
    """The ur_chain value before it was proved: it assumed that every word
    reaching the chain starts at q_0, so e words for e chain states."""
    return min(e + (n - 1 - e) ** n for e in range(d + 1))


def _chain_elements(elements, chain: list[int], e: int) -> int:
    """How many of the maps ``elements`` have an image meeting q_1 ... q_e."""
    touched = set(chain[1 : e + 1])
    return sum(not touched.isdisjoint(image) for image in elements)


class TestUrChain:
    """The ur-chain rows of the bound table against the chain that
    ``reference_ur_chain`` finds on its own and the closure ``naive_closure``
    computes on its own."""

    def test_chain_elements_and_rows_on_small_sweeps(self):
        closures: dict = {}
        checked = met = 0
        for n in (1, 2, 3):
            for d, sigma in _sweep_candidates(n, 3):
                rep = classify_minimal(d.transitions, d.finals_mask, sigma)
                chain = reference_ur_chain(d)
                assert rep.ur_depth == (None if chain is None else len(chain) - 1), d
                if chain is None:
                    continue
                key = tuple(g.image for g in d.delta)
                if key not in closures:
                    closures[key] = naive_closure(list(d.delta))
                elements = closures[key]
                assert len(elements) == sigma
                for e in range(len(chain)):
                    assert _chain_elements(elements, chain, e) <= e * (e + 1) // 2, (d, e)
                rows = [value for name, value in rep.applicable_bounds if "ur_chain[" in name]
                assert len(rows) >= 1 and sigma <= min(rows), d
                checked += 1
                met += sigma == min(rows)
        # 306 uniquely reachable candidates, 54 of them meeting a row
        assert (checked, met) == (306, 54)

    def test_old_counterexamples_meet_ur_chain_2(self):
        # The n=4 a=2 sweep has exactly 48 minimal candidates above the old
        # value, 3 at depth 2.  Each has three elements on its chain (one per
        # factor of the two-letter chain word) and one off it: sigma = 4 =
        # ur_chain[2], the binding row.
        found = []

        class Collect:
            def __init__(self):
                self.memo = {}

            def __call__(self, rep, candidate, semigroup):
                if rep.ur_depth is not None and rep.sigma > _old_ur_chain(4, rep.ur_depth):
                    found.append((rep, candidate()))

        spec = CampaignSpec(n=4, alphabet_size=2)
        harness._run_exhaustive(spec, CampaignReport(spec=spec), Collect(), progress=False)
        assert len(found) == 48
        for rep, d in found:
            assert (rep.sigma, rep.ur_depth, _old_ur_chain(4, 2)) == (4, 2, 3)
            assert min(rep.applicable_bounds, key=lambda row: row[1]) == ("ur_chain[2]", 4)
            chain = reference_ur_chain(d)
            assert len(chain) == 3
            assert _chain_elements(naive_closure(list(d.delta)), chain, 2) == 3
