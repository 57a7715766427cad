import hashlib
from itertools import combinations

import pytest

from synideal import harness, injection
from synideal.dfa import (
    Dfa,
    from_maps,
    is_minimal,
    minimize,
    parse_dfa,
    same_language,
    to_text,
    transition_semigroup,
)
from synideal.harness import (
    BudgetExceeded,
    CampaignReport,
    CampaignSpec,
    SampleMode,
    exhaustive_candidates,
    _left_closure,
    _right_closure,
    run,
    sample_ideal_dfa,
)
from synideal.ideals import classify, classify_minimal
from synideal.injection import make_context, minimal_context
from synideal.transform import Transformation, conjugate
from synideal.witness import IdealClass, build

from oracles import is_initially_aperiodic, random_dfa, sigma_star_prefix_dfa
import random


def T(*image):
    return Transformation(tuple(image))


class TestSpec:
    def test_budget_guard(self):
        # 151,415,625 candidates, above EXHAUSTIVE_BUDGET
        with pytest.raises(BudgetExceeded):
            CampaignSpec(n=5, alphabet_size=2)

    def test_four_states_three_letters_within_budget(self):
        assert exhaustive_candidates(4, 3) == 41_946_240 <= harness.EXHAUSTIVE_BUDGET
        CampaignSpec(n=4, alphabet_size=3)
        with pytest.raises(BudgetExceeded):
            CampaignSpec(n=4, alphabet_size=4)

    @pytest.mark.parametrize("n, a", [(2, 2), (3, 2), (3, 3)])
    def test_budget_estimate_is_the_examined_count(self, n, a):
        spec = CampaignSpec(
            n=n, alphabet_size=a, class_filter=IdealClass.RIGHT, checks=frozenset({"tightness"})
        )
        assert run(spec).examined == exhaustive_candidates(n, a)

    def test_unknown_check(self):
        with pytest.raises(ValueError, match="unknown checks"):
            CampaignSpec(n=2, alphabet_size=1, checks=frozenset({"nope"}))

    def test_bad_mode(self):
        with pytest.raises(ValueError, match="mode"):
            CampaignSpec(n=2, alphabet_size=1, mode="noisy")

    def test_largest_alphabet_accepted(self):
        spec = CampaignSpec(
            n=2,
            alphabet_size=26,
            class_filter=IdealClass.RIGHT,
            mode=SampleMode(count=1, seed=1),
        )
        assert run(spec).samples_obtained == 1


class TestExhaustive:
    def test_n2_all_classes(self):
        rep = run(CampaignSpec(n=2, alphabet_size=2))
        assert rep.ok
        right = rep.per_class["right"]
        assert right.max_sigma == 2 and right.bound_met
        # the left bound 3 needs three distinct letters
        assert rep.per_class["left"].max_sigma == 2

    def test_n2_left_with_three_letters(self):
        rep = run(CampaignSpec(n=2, alphabet_size=3, class_filter=IdealClass.LEFT))
        assert rep.ok
        stats = rep.per_class["left"]
        assert stats.max_sigma == 3 and stats.bound_met
        assert stats.maximizers == stats.maximizers_relabeled > 0

    def test_deterministic_reports(self):
        spec = CampaignSpec(n=2, alphabet_size=2)
        assert run(spec).to_json() == run(spec).to_json()

    def test_two_sided_n3_exhaustive(self):
        rep = run(
            CampaignSpec(n=3, alphabet_size=3, class_filter=IdealClass.TWO_SIDED)
        )
        assert rep.ok
        stats = rep.per_class["two-sided"]
        assert stats.max_sigma == 6 and stats.bound_met
        assert stats.maximizers == stats.maximizers_relabeled

    def test_letter_ur_cells_scanned_not_enforced(self):
        # small languages genuinely exceed the stated letter-ur cells; the
        # sweep records them as data and still reports ok
        rep = run(
            CampaignSpec(
                n=3,
                alphabet_size=2,
                class_filter=IdealClass.RIGHT,
                checks=frozenset({"bounds"}),
            )
        )
        assert rep.ok
        assert rep.table_exceedances
        sample = rep.table_exceedances[0]
        assert sample["sigma"] > sample["value"]


class TestTwoSidedSmallUpperBound:
    def test_no_three_state_two_sided_exceeds_six_any_alphabet(self):
        # All transformations available to a 3-state two-sided ideal fix the
        # final sink and are initially aperiodic from the initial state.
        # With the sink pinned to state 2 there are eight such maps; checking
        # every subset of them as a generator set covers every alphabet size,
        # far beyond the campaign's budget of 3 letters.
        allowed = [
            T(*img)
            for img in [(a, b, 2) for a in range(3) for b in range(3)]
            if is_initially_aperiodic(T(*img), 0)
        ]
        assert len(allowed) == 8
        best = 0
        letters = "abcdefgh"
        for k in range(1, len(allowed) + 1):
            for gens in combinations(allowed, k):
                d = Dfa(tuple(letters[:k]), gens, 0, frozenset({2}))
                if not is_minimal(d):
                    continue
                rep = classify(d)
                if rep.is_two_sided_ideal:
                    best = max(best, rep.sigma)
        assert best == 6


class TestMaximizerRelabeling:
    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_relabeled_witnesses_map_back(self, klass):
        # emulate bound-meeting DFAs found in a sweep: scramble the witness's
        # state names (keeping the initial state) and letter order, take the
        # canonical minimal form, and require the uniqueness check to match
        # it to the maximal semigroup
        from itertools import permutations
        from synideal.harness import _relabels_to_expected

        w = build(klass, 4)
        for tail in permutations(range(1, 4)):
            perm = (0,) + tail
            scrambled = Dfa(
                alphabet=w.alphabet,
                delta=tuple(conjugate(g, perm) for g in reversed(w.delta)),
                initial=0,
                finals=frozenset(perm[f] for f in w.finals),
            )
            m = minimize(scrambled)
            assert m.n == 4
            assert _relabels_to_expected(m, klass, {})

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_augmented_witness_still_unique(self, klass):
        # a maximizer need not use the witness's letters: adding a redundant
        # composite letter keeps the semigroup maximal and must still match
        from synideal.harness import _relabels_to_expected
        from synideal.transform import compose

        w = build(klass, 4)
        extra = compose(w.delta[0], w.delta[-1])
        aug = Dfa(w.alphabet + ("z",), w.delta + (extra,), 0, w.finals)
        m = minimize(aug)
        assert m.n == 4
        assert _relabels_to_expected(m, klass, {})


def _relabeled(d: Dfa) -> Dfa:
    """``d`` with states 1 and n-1 swapped: another DFA with the same
    classification and syntactic complexity."""
    perm = list(range(d.n))
    perm[1], perm[-1] = perm[-1], perm[1]
    return Dfa(
        d.alphabet, tuple(conjugate(g, perm) for g in d.delta), d.initial,
        frozenset(perm[q] for q in d.finals),
    )


class TestCachedDecisions:
    """One ``_Checks`` fed two different n=4 candidates that share one
    interned report: the decision made for the report is reused, but each
    candidate is checked, counted and reported with its own DFA."""

    def _feed(self, text: str, buildable: bool = True):
        spec = CampaignSpec(n=4, alphabet_size=2)
        report = CampaignReport(spec=spec)
        checks = harness._Checks(spec, report)
        first = parse_dfa(text)
        pair = (first, _relabeled(first))
        reps = [
            classify_minimal(
                d.transitions, d.finals_mask, transition_semigroup(d).size, memo=checks.memo
            )
            for d in pair
        ]
        assert reps[0] is reps[1]
        texts = {to_text(d) for d in pair}
        assert len(texts) == 2
        for d, rep in zip(pair, reps):
            checks(rep, (lambda d=d: d) if buildable else _never_built)
        return report, reps[0], texts

    def test_bound_violation(self):
        # one of the 48 ur_chain[2] violations at n=4 a=2
        report, rep, texts = self._feed(
            "states 4\nalphabet a b\ninitial 0\nfinal 1\ntrans a 1 1 1 2\ntrans b 3 1 1 1\n"
        )
        bounds = [v for v in report.violations if v["check"] == "bounds"]
        assert {v["dfa"] for v in bounds} == texts and len(bounds) == 2

    def test_letter_ur_exceedance(self):
        report, rep, texts = self._feed(
            "states 4\nalphabet a\ninitial 0\nfinal 2\ntrans a 1 2 3 3\n"
        )
        exceeded = {e["cell"] for e in report.table_exceedances}
        assert exceeded
        for cell in exceeded:
            assert {e["dfa"] for e in report.table_exceedances if e["cell"] == cell} == texts

    def test_bound_meeting_report(self):
        report, rep, texts = self._feed(to_text(build(IdealClass.RIGHT, 4)))
        stats = report.per_class["right"]
        assert rep.sigma == stats.bound == stats.max_sigma
        assert stats.count == stats.maximizers == stats.maximizers_relabeled == 2

    def test_injection_context(self):
        report, rep, texts = self._feed(
            "states 4\nalphabet a b\ninitial 0\nfinal 3\ntrans a 0 0 0 0\ntrans b 1 2 3 3\n"
        )
        assert rep.is_left_ideal and not rep.is_right_ideal
        assert report.per_class["left"].count == report.injection_contexts == 2
        assert report.ok

    def test_quiet_report_only_counts(self):
        # a right ideal below its bound with no exceedance: neither DFA is built
        report, rep, texts = self._feed(
            "states 4\nalphabet a b\ninitial 0\nfinal 3\ntrans a 0 0 1 3\ntrans b 2 0 3 3\n",
            buildable=False,
        )
        stats = report.per_class["right"]
        assert (stats.count, stats.max_sigma, stats.maximizers) == (2, rep.sigma, 0)
        assert report.ok and not report.table_exceedances


class TestCampaignContexts:
    """A campaign builds each injection context from its own minimal DFA,
    report and closure (conjugated by any renumbering and sink relabeling),
    never closing the candidate again; every context must equal the one
    ``make_context`` builds from the same DFA by minimising, closing and
    classifying it afresh."""

    def _compare(self, monkeypatch, spec: CampaignSpec) -> list[Dfa]:
        built = []

        def spy(m, klass, S=None, T=None):
            ctx = minimal_context(m, klass, S, T)
            built.append((m, klass, S, ctx))
            return ctx

        def closed_again(d, cap=None):
            raise AssertionError("a context closed its candidate again")

        monkeypatch.setattr(harness, "minimal_context", spy)
        with monkeypatch.context() as during_run:
            during_run.setattr(injection, "transition_semigroup", closed_again)
            report = run(spec)
        assert len(built) == report.injection_contexts > 0
        for m, klass, S, ctx in built:
            ref = make_context(m, klass, S)
            assert ctx.klass is ref.klass is klass
            assert ctx.dfa == ref.dfa, to_text(m)
            assert ctx.po.leq == ref.po.leq, to_text(m)
            assert ctx.T.images == ref.T.images, to_text(m)
            assert ctx.S.images == ref.S.images, to_text(m)
        return [m for m, *_ in built]

    def test_four_state_two_letter_sweep(self, monkeypatch):
        candidates = self._compare(monkeypatch, CampaignSpec(n=4, alphabet_size=2))
        assert len(candidates) == 1356
        # most sweep candidates are not numbered as minimize numbers them
        assert sum(minimize(m) != m for m in candidates) > 1000

    @pytest.mark.parametrize(
        "klass, n, a", [(IdealClass.LEFT, 4, 2), (IdealClass.TWO_SIDED, 5, 3)]
    )
    def test_sample_campaigns(self, monkeypatch, klass, n, a):
        spec = CampaignSpec(
            n=n, alphabet_size=a, class_filter=klass, mode=SampleMode(count=30, seed=2)
        )
        assert len(self._compare(monkeypatch, spec)) == 30

    @pytest.mark.parametrize(
        "klass, n, a", [(IdealClass.LEFT, 4, 2), (IdealClass.TWO_SIDED, 5, 3)]
    )
    def test_sample_campaigns_close_each_sample_once(self, monkeypatch, klass, n, a):
        # A sampled DFA is numbered as minimize numbers it, so its context
        # takes the sample's closure (conjugated by the sink relabeling).
        def closed_again(d, cap=None):
            raise AssertionError("a context closed its sample again")

        monkeypatch.setattr(injection, "transition_semigroup", closed_again)
        spec = CampaignSpec(
            n=n, alphabet_size=a, class_filter=klass, mode=SampleMode(count=30, seed=2)
        )
        assert run(spec).injection_contexts == 30


def _never_built() -> Dfa:
    raise AssertionError("a check built the DFA of a candidate that needs none")


def _packed(d: Dfa) -> tuple[tuple[bytes, ...], int]:
    """``d`` packed, with its initial state relabeled 0 (the closures start
    from state 0); the language is unchanged."""
    perm = list(range(d.n))
    perm[0], perm[d.initial] = d.initial, 0
    maps = tuple(bytes(conjugate(g, perm).image) for g in d.delta)
    return maps, sum(1 << perm[q] for q in d.finals)


class TestClosures:
    def test_right_closure_absorbs(self):
        rng = random.Random(5)
        for _ in range(50):
            d = random_dfa(rng, 4, 2)
            closed = from_maps(d.alphabet, *_right_closure(*_packed(d)))
            rep = classify(closed)
            # empty languages (unreachable finals) are correctly not ideals
            assert rep.is_right_ideal == bool(minimize(d).finals)

    def test_left_closure_matches_reference(self):
        rng = random.Random(6)
        for _ in range(50):
            d = random_dfa(rng, 4, 2)
            closed = from_maps(d.alphabet, *_left_closure(*_packed(d)))
            assert same_language(closed, sigma_star_prefix_dfa(d))

    def test_left_closure_is_left_ideal(self):
        rng = random.Random(7)
        for _ in range(50):
            d = random_dfa(rng, 4, 2)
            expected = bool(minimize(d).finals)
            closed = from_maps(d.alphabet, *_left_closure(*_packed(d)))
            assert classify(closed).is_left_ideal == expected


class TestSampler:
    def test_left_samples_verified(self):
        for i in range(10):
            d = sample_ideal_dfa(IdealClass.LEFT, 4, 2, seed=i)
            assert d is not None
            assert d.n == 4 and is_minimal(d)
            assert classify(d).is_left_ideal

    def test_right_two_state_unary(self):
        d = sample_ideal_dfa(IdealClass.RIGHT, 2, 1, seed=3)
        assert d is not None
        # only one 2-state unary right ideal up to isomorphism: a a*
        assert d.delta[0] == T(1, 1) and d.finals == {1} and d.initial == 0

    def test_two_sided_unary(self):
        d = sample_ideal_dfa(IdealClass.TWO_SIDED, 3, 1, seed=11)
        if d is not None:
            rep = classify(d)
            assert rep.is_two_sided_ideal and d.n == 3

    def test_deterministic(self):
        a = sample_ideal_dfa(IdealClass.LEFT, 4, 2, seed=123)
        b = sample_ideal_dfa(IdealClass.LEFT, 4, 2, seed=123)
        assert a == b


class TestSampleCampaign:
    def test_left_campaign(self):
        spec = CampaignSpec(
            n=4,
            alphabet_size=2,
            class_filter=IdealClass.LEFT,
            mode=SampleMode(count=25, seed=77),
        )
        rep = run(spec)
        assert rep.ok and rep.samples_obtained == 25
        assert rep.injection_contexts == 25

    def test_needs_class_filter(self):
        spec = CampaignSpec(n=3, alphabet_size=2, mode=SampleMode(count=5, seed=1))
        with pytest.raises(ValueError, match="class filter"):
            run(spec)

    def test_deterministic(self):
        spec = CampaignSpec(
            n=4,
            alphabet_size=2,
            class_filter=IdealClass.TWO_SIDED,
            mode=SampleMode(count=10, seed=5),
        )
        assert run(spec).to_json() == run(spec).to_json()

    def test_sample_outside_the_class_is_a_sampler_violation(self, monkeypatch):
        # Without the left closure the sampler returns whatever minimal DFA it
        # draws; the campaign's one classification must catch the samples
        # that are not left ideals and report each with its DFA.
        monkeypatch.setitem(harness._CLOSURES, IdealClass.LEFT, lambda maps, finals: (maps, finals))
        spec = CampaignSpec(
            n=4,
            alphabet_size=2,
            class_filter=IdealClass.LEFT,
            mode=SampleMode(count=20, seed=5),
        )
        rep = run(spec)
        missed = [v for v in rep.violations if v["check"] == "sampler"]
        assert missed and not rep.ok
        assert rep.samples_obtained == 20
        assert rep.per_class["left"].count + len(missed) == 20
        for v in missed:
            assert not classify(parse_dfa(v["dfa"])).is_left_ideal

    # sha256 of harness.run(spec).to_json() for three seeded campaigns,
    # recorded before the sampler stopped classifying its samples: the accept
    # decisions, and with them the random stream, must stay the same
    SAMPLE_DIGESTS = {
        (IdealClass.LEFT, 4, 2): "cff4d6c8af7d219315bbab8c269831e7ff907a33c092f520c8458a4340778326",
        (IdealClass.TWO_SIDED, 5, 3): "dd2e41f7857fc32f4eaebc6fa9954c5348e203a438860a5d42de39c5840ec4fb",
        (IdealClass.RIGHT, 4, 2): "e5964e3226c54496162a2f52781fb8f207ae844ceb142c67b9a7839078b0830a",
    }

    @pytest.mark.parametrize("klass, n, a", sorted(SAMPLE_DIGESTS, key=str))
    def test_sample_campaign_output_is_unchanged(self, klass, n, a):
        spec = CampaignSpec(
            n=n, alphabet_size=a, class_filter=klass, mode=SampleMode(count=30, seed=2)
        )
        digest = hashlib.sha256(run(spec).to_json().encode()).hexdigest()
        assert digest == self.SAMPLE_DIGESTS[(klass, n, a)]
