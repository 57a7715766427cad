"""Acceptance suite: every headline claim at its stated tolerance.

Each criterion prints one pass/fail line (visible with ``pytest -s`` or in
the captured output).  Exact equalities throughout; the only tolerances are
wall-clock budgets, asserted per criterion.
"""

import hashlib
import random
import time
from contextlib import contextmanager

import pytest

from synideal import dfa, semigroup
from synideal.dfa import (
    max_chain_length,
    minimize,
    preorder,
    syntactic_complexity,
    transition_semigroup,
)
from synideal.harness import CampaignSpec, SampleMode, run, sample_ideal_dfa
from synideal.ideals import classify, special_quotient_bound
from synideal.semigroup import closure, generator_necessity, minimal_generator_count
from synideal.transform import compose, format_notation, identity, parse_notation
from synideal.witness import MIN_N, IdealClass, bound, build, expected_semigroup

from oracles import (
    containment_by_word_search,
    containment_by_words,
    full_monoid_generators,
    is_initially_aperiodic,
    random_dfa,
    random_transformation,
    sigma_ladder_dfas,
    trailing_runs_dfa,
    unary_threshold_dfa,
)


@contextmanager
def criterion(num: int, desc: str, budget_s: float):
    t0 = time.time()
    try:
        yield
    except Exception:
        print(f"criterion {num} FAIL: {desc}")
        raise
    elapsed = time.time() - t0
    assert elapsed < budget_s, f"criterion {num} blew its {budget_s}s budget ({elapsed:.1f}s)"
    print(f"criterion {num} PASS: {desc} [{elapsed:.1f}s < {budget_s:.0f}s]")


# ---------------------------------------------------------------------------
# shared exhaustive campaigns (criteria 4 and 8 read from these)

_campaign_cache: dict[str, object] = {}


def _campaign(name: str):
    if name not in _campaign_cache:
        specs = {
            "right": CampaignSpec(n=3, alphabet_size=3, class_filter=IdealClass.RIGHT),
            "left": CampaignSpec(n=3, alphabet_size=4, class_filter=IdealClass.LEFT),
            "two-sided": CampaignSpec(
                n=3, alphabet_size=3, class_filter=IdealClass.TWO_SIDED
            ),
        }
        _campaign_cache[name] = run(specs[name])
    return _campaign_cache[name]


def test_criterion_1_three_state_reproduction():
    with criterion(1, "3-state examples have sigma 3, 9, 27", 1.0):
        for sigma, d in sigma_ladder_dfas().items():
            assert syntactic_complexity(d) == sigma


def test_criterion_2_witness_sizes():
    expected = {
        IdealClass.RIGHT: {1: 1, 2: 2, 3: 9, 4: 64, 5: 625, 6: 7776, 7: 117649},
        IdealClass.LEFT: {1: 1, 2: 3, 3: 11, 4: 67, 5: 629, 6: 7781},
        IdealClass.TWO_SIDED: {2: 2, 3: 6, 4: 25, 5: 150, 6: 1361, 7: 16968},
    }
    with criterion(2, "witness semigroup sizes and exact element sets", 60.0):
        for klass, sizes in expected.items():
            for n, size in sizes.items():
                got = transition_semigroup(build(klass, n))
                exp = expected_semigroup(klass, n)
                assert got.size == size == bound(klass, n), (klass, n)
                assert got.images == exp.images, (klass, n)


def test_criterion_3_full_monoid_generators():
    with criterion(3, "cycle+transposition+collapse generate all n^n maps", 5.0):
        for n in range(2, 6):
            s = closure(full_monoid_generators(n))
            assert s.size == n**n, n


def test_criterion_4_exhaustive_tightness_and_uniqueness():
    with criterion(4, "n=3 exhaustive maxima 9/11/6 with unique maximal semigroups", 600.0):
        for klass, expected_max in [("right", 9), ("left", 11), ("two-sided", 6)]:
            report = _campaign(klass)
            assert report.ok, report.violations[:3]
            stats = report.per_class[klass]
            assert stats.max_sigma == expected_max, klass
            assert stats.bound_met
            assert stats.maximizers > 0
            assert stats.maximizers_relabeled == stats.maximizers, klass


# sha256 of the n=4, 2-letter report, recorded when the ur_chain rows were
# proved and the letter-ur exceedance channel deleted (the report before,
# less its 48 `bounds` violations and its `table_exceedances`); any refactor
# must keep it byte-identical
N4_A2_DIGESTS = {
    "json": "196798c69bab037bb4df43a94b72bce60382361f6e4f96813fd328e14a41f40f",
    "text": "b0fa861a3ee26db2b909b602281129a7558a7842f39bbf327c71626664f06b31",
}


def test_four_state_two_letter_sweep():
    # The n=4, 2-letter exhaustive sweep's enumeration facts and its verdict:
    # every check passes, the proved ur_chain rows included (the 48
    # candidates above the old ur_chain[2] value are pinned in test_ideals).
    with criterion(4, "n=4 a=2 exhaustive sweep: counts, maxima and injection contexts", 120.0):
        report = run(CampaignSpec(n=4, alphabet_size=2))
        assert report.examined == 493_440
        assert report.minimal == 168_132
        per_class = {
            name: (stats.count, stats.max_sigma) for name, stats in report.per_class.items()
        }
        assert per_class == {"right": (1458, 31), "left": (1128, 17), "two-sided": (228, 14)}
        assert report.injection_contexts == 1356
        assert report.ok, report.violations[:3]
        assert hashlib.sha256(report.to_json().encode()).hexdigest() == N4_A2_DIGESTS["json"]
        assert hashlib.sha256(report.to_text().encode()).hexdigest() == N4_A2_DIGESTS["text"]


def test_criterion_5_injection_campaigns():
    with criterion(5, "sampled injection suites: 210 left + 110 two-sided contexts", 300.0):
        left_total = 0
        for n, count in [(3, 70), (4, 70), (5, 70)]:
            rep = run(
                CampaignSpec(
                    n=n,
                    alphabet_size=2,
                    class_filter=IdealClass.LEFT,
                    mode=SampleMode(count=count, seed=5000 + n),
                )
            )
            assert rep.ok, rep.violations[:3]
            assert rep.samples_obtained == count
            left_total += rep.injection_contexts
        assert left_total >= 200

        two_sided_total = 0
        for n, count in [(4, 55), (5, 55)]:
            rep = run(
                CampaignSpec(
                    n=n,
                    alphabet_size=2,
                    class_filter=IdealClass.TWO_SIDED,
                    mode=SampleMode(count=count, seed=6000 + n),
                )
            )
            assert rep.ok, rep.violations[:3]
            assert rep.samples_obtained == count
            two_sided_total += rep.injection_contexts
        assert two_sided_total >= 100


def test_criterion_6_generator_facts():
    with criterion(6, "generator necessity and exact minimal generator counts", 900.0):
        for klass in IdealClass:
            for n in (4, 5, 6):
                s = transition_semigroup(build(klass, n))
                assert all(generator_necessity(s)), (klass, n)

        # Necessity from the letters alone, where no closure could be held
        # (the left n=9 semigroup has 43 million maps): nothing is closed.
        def no_closure(*args, **kwargs):
            raise AssertionError("generator necessity closed a semigroup")

        with pytest.MonkeyPatch.context() as patch:
            for module, name in [
                (semigroup, "closure"), (semigroup, "_close_images"), (dfa, "transition_semigroup"),
            ]:
                patch.setattr(module, name, no_closure)
            for klass in IdealClass:
                for n in range(MIN_N[klass], 65):
                    s = expected_semigroup(klass, n)
                    assert generator_necessity(s) == [True] * len(s.generators), (klass, n)

        left3 = transition_semigroup(build(IdealClass.LEFT, 3))
        assert minimal_generator_count(left3, k_max=4) == 4

        left4 = transition_semigroup(build(IdealClass.LEFT, 4))
        assert left4.size == 67
        assert minimal_generator_count(left4, k_max=4) is None

        two_sided4 = transition_semigroup(build(IdealClass.TWO_SIDED, 4))
        measured = minimal_generator_count(two_sided4, k_max=6)
        print(f"  two-sided n=4 exact minimal generator count: {measured}")
        assert measured == 5

        two_sided5 = transition_semigroup(build(IdealClass.TWO_SIDED, 5))
        assert two_sided5.size == 150
        measured = minimal_generator_count(two_sided5, k_max=6, budget=two_sided5.size)
        print(f"  two-sided n=5 exact minimal generator count: {measured}")
        assert measured == 6


# rank of each witness semigroup (= its alphabet size), by class and n
WITNESS_RANKS = {
    IdealClass.RIGHT: {3: 3, 4: 4, 5: 4},
    IdealClass.LEFT: {3: 4, 4: 5, 5: 5},
    IdealClass.TWO_SIDED: {3: 3, 4: 5, 5: 6},
}


def test_witness_alphabets_are_minimal():
    with criterion(6, "each witness semigroup's rank equals its alphabet size, n=3..5", 60.0):
        for klass, ranks in WITNESS_RANKS.items():
            for n, rank in ranks.items():
                d = build(klass, n)
                s = transition_semigroup(d)
                measured = minimal_generator_count(s, k_max=s.size, budget=s.size)
                print(f"  {klass.value} n={n} |S|={s.size}: rank {measured}")
                assert measured == rank == len(d.delta), (klass, n, measured)


def _cases_preorder_monotone() -> int:
    cases = 0
    rng = random.Random(81)
    pool = [build(IdealClass.LEFT, 3), build(IdealClass.LEFT, 4),
            build(IdealClass.TWO_SIDED, 4)]
    pool += [minimize(random_dfa(rng, rng.randrange(2, 5), 2)) for _ in range(10)]
    for d in pool:
        po = preorder(d)
        for t in transition_semigroup(d).elements:
            for p in range(d.n):
                for q in range(d.n):
                    if po.leq[p][q]:
                        assert po.leq[t.image[p]][t.image[q]]
                        cases += 1
    return cases


def _cases_left_ideal_aperiodic() -> int:
    cases = 0
    for n, seeds in [(3, 60), (4, 60), (5, 40)]:
        for i in range(seeds):
            d = sample_ideal_dfa(IdealClass.LEFT, n, 2, seed=8200 + 100 * n + i)
            assert d is not None
            for t in transition_semigroup(d).elements:
                assert is_initially_aperiodic(t, 0)
                cases += 1
            for q in range(d.n):
                frontier, seen = [q], {q}
                while frontier:
                    x = frontier.pop()
                    for g in d.delta:
                        y = g.image[x]
                        if y not in seen:
                            seen.add(y)
                            frontier.append(y)
                assert seen & d.finals
                cases += 1
    return cases


def _cases_initial_below_composites() -> int:
    cases = 0
    for d in (build(IdealClass.LEFT, 3), build(IdealClass.LEFT, 4)):
        po = preorder(d)
        elems = list(transition_semigroup(d).elements) + [identity(d.n)]
        for t in elems:
            for s in elems:
                assert po.leq[t.image[0]][compose(s, t).image[0]]
                cases += 1
    return cases


def _cases_containment_oracle() -> int:
    cases = 0
    rng = random.Random(82)
    while cases < 1050:
        n = rng.choice((2, 3, 4, 5))
        k = 1 if n == 5 and rng.random() < 0.3 else 2
        d = random_dfa(rng, n, k)
        p, q = rng.randrange(n), rng.randrange(n)
        got = preorder(d).leq[p][q]
        if n <= 4:
            assert got == containment_by_words(d, p, q)
        else:
            assert got == containment_by_word_search(d, p, q)
        cases += 1
    return cases


def _cases_closure_closed() -> int:
    rng = random.Random(83)
    semis = [
        transition_semigroup(build(IdealClass.LEFT, 4)),
        transition_semigroup(build(IdealClass.TWO_SIDED, 4)),
        closure(full_monoid_generators(3)),
    ]
    cases = 0
    while cases < 1050:
        s = rng.choice(semis)
        a = rng.choice(s.elements)
        b = rng.choice(s.elements)
        assert compose(a, b) in s
        cases += 1
    return cases


def _cases_associativity() -> int:
    rng = random.Random(84)
    cases = 0
    while cases < 1050:
        n = rng.randrange(1, 7)
        r, s, t = (random_transformation(rng, n) for _ in range(3))
        assert compose(compose(r, s), t) == compose(r, compose(s, t))
        cases += 1
    return cases


def _cases_round_trip() -> int:
    rng = random.Random(85)
    cases = 0
    while cases < 1050:
        n = rng.randrange(1, 7)
        t = random_transformation(rng, n)
        assert parse_notation(format_notation(t), n) == t
        cases += 1
        # exercise the other grammars too
        q = rng.randrange(n)
        assert parse_notation(f"(Q->{q})", n).image == (q,) * n
        p = rng.randrange(n)
        pt = parse_notation(f"({p}->{q})", n)
        assert pt.image[p] == q and all(pt.image[x] == x for x in range(n) if x != p)
        cases += 2
        if n >= 2:
            i, j = rng.sample(range(n), 2)
            c = parse_notation(f"({i},{j})", n)
            assert c.image[i] == j and c.image[j] == i
            cases += 1
    return cases


def test_criterion_7_property_suites():
    with criterion(7, "seven property suites, >= 1000 cases each, zero failures", 300.0):
        counts = {}
        counts["preorder_monotonicity"] = _cases_preorder_monotone()
        counts["left_ideal_aperiodic_no_dead"] = _cases_left_ideal_aperiodic()
        counts["initial_below_composites"] = _cases_initial_below_composites()
        counts["containment_oracle"] = _cases_containment_oracle()
        counts["closure_closed"] = _cases_closure_closed()
        counts["associativity"] = _cases_associativity()
        counts["round_trip"] = _cases_round_trip()
        for name, count in counts.items():
            assert count >= 1000, (name, count)
        print("  cases:", ", ".join(f"{k}={v}" for k, v in counts.items()))


def test_criterion_8_special_quotient_conformance():
    with criterion(8, "sigma within special-quotient and basic bounds; unary family", 600.0):
        # the left campaign sweeps every candidate at n=3 with up to four
        # distinct letter actions; its bounds check covers all classes
        campaign_left = _campaign("left")
        bad = [v for v in campaign_left.violations if v["check"] in ("bounds", "basic_bounds")]
        assert not bad, bad[:3]
        assert campaign_left.minimal > 100000
        for n in range(2, 7):
            d = unary_threshold_dfa(n)
            rep = classify(d)
            assert rep.sigma == n - 1, n
            assert rep.sigma <= special_quotient_bound(rep)


def test_criterion_9_chain_lengths():
    with criterion(9, "chain lengths: 2 on left, 3 on two-sided, n on trailing runs", 60.0):
        for n in range(2, 7):
            assert max_chain_length(preorder(build(IdealClass.LEFT, n))) == 2, n
        for n in range(3, 8):
            assert max_chain_length(preorder(build(IdealClass.TWO_SIDED, n))) == 3, n
        for n in range(2, 7):
            assert max_chain_length(preorder(trailing_runs_dfa(n))) == n, n
