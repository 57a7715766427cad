"""The packed candidate kernels against the reference implementations they
replaced and against containment decided by word search.

``dfa._partition``, ``dfa.quotient_maps``, ``dfa.preorder``,
``ideals.classify_minimal`` and the ideal sampler with its closures work on
``bytes`` maps and ``int`` masks; ``oracles.reference_*`` are the dict- and
``Dfa``-based versions.  Classification is compared on every DFA, minimal or
not: each field is a statement about the given automaton's states, so the
two must agree everywhere.
"""

from __future__ import annotations

import random
import tracemalloc
from itertools import product

import pytest

from synideal.dfa import (
    Dfa,
    Transitions,
    _partition,
    from_maps,
    minimize,
    preorder,
    quotient_maps,
    reachable_states,
)
from synideal.harness import (
    _CLOSURE_BOUNDS,
    _CLOSURES,
    _draws,
    _left_closure,
    _right_closure,
    sample_ideal_dfa,
)
from synideal.ideals import classify_minimal
from synideal.transform import Transformation
from synideal.witness import IdealClass

from oracles import (
    REFERENCE_CLOSURES,
    containment_by_word_search,
    is_minimal,
    random_dfa,
    reference_classify_minimal,
    reference_draws,
    reference_left_closure,
    reference_packed_left_closure,
    reference_partition,
    reference_preorder,
    reference_sample_ideal_dfa,
    same_language,
)


def _reachable(d: Dfa) -> list[int]:
    seen = [d.initial]
    for q in seen:
        for g in d.delta:
            if g.image[q] not in seen:
                seen.append(g.image[q])
    return seen


def _check_minimal(d: Dfa) -> None:
    m = minimize(d)
    maps, finals = d.transitions.maps, d.finals_mask
    assert quotient_maps(maps, finals, _partition(maps, finals), d.initial)[:2] == (
        m.transitions.maps,
        m.finals_mask,
    ), d
    # The reachable states of d, walked together with m: each lands on one
    # state of m, and two land on the same one iff the reference merges them.
    image = {d.initial: 0}
    for q in _reachable(d):
        for g, h in zip(d.delta, m.delta):
            assert image.setdefault(g.image[q], h.image[image[q]]) == h.image[image[q]], d
    ref = reference_partition(d, list(image))
    for p in image:
        for q in image:
            assert (image[p] == image[q]) == (ref[p] == ref[q]), (d, p, q)
    assert sorted(set(image.values())) == list(range(m.n)), d
    assert m.initial == 0 and same_language(d, m), d
    # canonical numbering: breadth-first from 0, letters in alphabet order
    assert _reachable(m) == list(range(m.n)), d


def _check_agreement(d: Dfa, memo: dict) -> None:
    n = d.n
    states = range(n)

    blocks = _partition(d.transitions.maps, d.finals_mask)
    ref_blocks = reference_partition(d, states)
    for p in states:
        for q in states:
            assert (blocks[p] == blocks[q]) == (ref_blocks[p] == ref_blocks[q]), (d, p, q)
    reach = _reachable(d)
    ref_minimal = len(reach) == n and len(set(reference_partition(d, reach).values())) == n
    assert is_minimal(d) == ref_minimal, d

    leq = preorder(d).leq
    assert leq == reference_preorder(d).leq, d
    for p in states:
        for q in states:
            assert leq[p][q] == containment_by_word_search(d, p, q), (d, p, q)

    sigma = 7
    expected = reference_classify_minimal(d, sigma)
    assert classify_minimal(d.transitions, d.finals_mask, sigma) == expected, d
    assert classify_minimal(d.transitions, d.finals_mask, sigma, memo=memo) == expected, d

    _check_minimal(d)


def _all_dfas(n: int, alphabet_size: int):
    maps = [Transformation(img) for img in product(range(n), repeat=n)]
    letters = tuple("ab"[:alphabet_size])
    for delta in product(maps, repeat=alphabet_size):
        for initial in range(n):
            for mask in range(2**n):
                finals = frozenset(q for q in range(n) if mask >> q & 1)
                yield Dfa(letters, delta, initial, finals)


@pytest.mark.parametrize("n,alphabet_size", [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (3, 2)])
def test_every_small_dfa_agrees_with_the_references(n, alphabet_size):
    # every 1- and 2-letter DFA with n <= 3: every letter tuple, initial
    # state and final set; minimisation included
    memo: dict = {}
    count = 0
    for d in _all_dfas(n, alphabet_size):
        _check_agreement(d, memo)
        count += 1
    assert count == (n**n) ** alphabet_size * n * 2**n


def test_random_dfas_agree_with_the_references():
    rng = random.Random(20261018)
    memo: dict = {}
    shapes = {"empty": 0, "full": 0, "moved_initial": 0}
    for i in range(500):
        n = rng.randint(4, 6)
        d = random_dfa(rng, n, rng.randint(1, 3))
        if i % 10 == 0:
            d = Dfa(d.alphabet, d.delta, d.initial, frozenset())
        elif i % 10 == 1:
            d = Dfa(d.alphabet, d.delta, d.initial, frozenset(range(n)))
        shapes["empty"] += not d.finals
        shapes["full"] += len(d.finals) == n
        shapes["moved_initial"] += d.initial != 0
        _check_agreement(d, memo)
    assert min(shapes.values()) >= 50, shapes


def test_partition_ids_number_blocks_in_order_of_first_appearance():
    # a 3-state chain a: 0 -> 1 -> 2 -> 2, final {2}: all states distinct
    assert _partition((bytes([1, 2, 2]),), 0b100) == bytes([0, 1, 2])
    # two final states that no word tells apart share a block
    blocks = _partition((bytes([1, 2, 1]),), 0b110)
    assert blocks[1] == blocks[2] != blocks[0]


def test_partition_of_distinct_states_is_the_identity():
    # the start blocks already tell every state apart
    assert _partition((b"\x00",), 0) == _partition((b"\x00",), 1) == b"\x00"
    assert _partition((bytes([0, 1]),), 0b10) == bytes([0, 1])
    assert _partition((bytes([1, 0]),), 0b01) == bytes([0, 1])
    # one refining round, then every state alone
    assert _partition((bytes([1, 2, 3, 3]),), 0b1000) == bytes(range(4))


def test_partition_agrees_with_the_reference_on_one_and_two_letters():
    # every one-letter 4-state DFA with every final set, then random
    # two-letter DFAs with 4 to 6 states; compared as partitions, and the
    # identity whenever the reference tells every state apart
    one_letter = [(Transformation(img),) for img in product(range(4), repeat=4)]
    rng = random.Random(7919)
    two_letters = [random_dfa(rng, rng.randint(4, 6), 2).delta for _ in range(300)]
    split = 0
    for delta in one_letter + two_letters:
        n = delta[0].n
        for mask in range(2**n):
            finals = frozenset(q for q in range(n) if mask >> q & 1)
            d = Dfa(tuple("ab"[: len(delta)]), delta, 0, finals)
            blocks = _partition(d.transitions.maps, mask)
            ref = reference_partition(d, range(n))
            assert all((blocks[p] == blocks[q]) == (ref[p] == ref[q]) for p in ref for q in ref), d
            if len(set(ref.values())) == n:
                assert blocks == bytes(range(n)), d
                split += 1
    assert split > 1000


def test_partition_of_a_uniform_final_set_takes_one_round():
    # With no state final, or every state, nothing splits the one start
    # block, and the first round's count says so: one translate per letter.
    class Counted(bytes):
        translations = 0

        def translate(self, table):
            Counted.translations += 1
            return bytes.translate(self, table)

    for img in product(range(3), repeat=3):
        for maps in [(Counted(img),), (Counted(img), Counted(bytes([1, 2, 0])))]:
            for finals in (0, 0b111):
                Counted.translations = 0
                assert len(set(_partition(maps, finals))) == 1
                assert Counted.translations == len(maps), (img, finals)


def test_packing_refuses_more_than_256_states():
    n = 257
    d = Dfa(("a",), (Transformation(tuple(range(n))),), 0, frozenset())
    with pytest.raises(ValueError, match="256"):
        d.transitions


# ---------------------------------------------------------------------------
# the ideal sampler


def test_packed_closures_agree_with_the_references():
    # the sampler draws DFAs with initial state 0; m = 1 and DFAs with
    # unreachable states are among them
    rng = random.Random(918)
    shapes = {"one_state": 0, "unreachable": 0}
    for i in range(240):
        m = 1 if i % 8 == 0 else rng.randint(2, 6)
        d = random_dfa(rng, m, rng.randint(1, 3))
        d = Dfa(d.alphabet, d.delta, 0, d.finals)
        shapes["one_state"] += m == 1
        shapes["unreachable"] += len(_reachable(d)) < m
        maps, finals = d.transitions.maps, d.finals_mask
        for klass, close in _CLOSURES.items():
            closed = from_maps(d.alphabet, *close(maps, finals))
            assert same_language(closed, REFERENCE_CLOSURES[klass](d)), (klass, d)
    assert min(shapes.values()) >= 30, shapes


def test_left_closure_collapses_only_final_states_no_letter_leaves():
    # Random packed DFAs with initial state 0: where no letter leads out of
    # the final states (after _right_closure always) the collapsed closure
    # recognises Sigma*.L and minimises like the reference; elsewhere it is
    # the plain subset construction, byte for byte.
    rng = random.Random(20261019)
    shapes = {"collapsed": 0, "initial_final": 0, "right_closed": 0, "plain": 0}
    for i in range(600):
        m = rng.randint(1, 7)
        maps = [bytearray(rng.randrange(m) for _ in range(m)) for _ in range(rng.randint(1, 3))]
        final_states = rng.sample(range(m), rng.randint(1, m))
        finals = sum(1 << q for q in final_states)
        if i % 3 == 0:
            # keep every final state's images among the final states
            for row in maps:
                for q in final_states:
                    if not finals >> row[q] & 1:
                        row[q] = rng.choice(final_states)
        maps = tuple(map(bytes, maps))
        if i % 3 == 1:
            maps, finals = _right_closure(maps, finals)
            shapes["right_closed"] += 1
        got = _left_closure(maps, finals)
        if any(not finals >> row[q] & 1 for row in maps for q in final_states):
            shapes["plain"] += 1
            assert got == reference_packed_left_closure(maps, finals), (maps, finals)
            continue
        shapes["collapsed"] += 1
        shapes["initial_final"] += finals & 1
        letters = "abc"[: len(maps)]
        expected = reference_left_closure(from_maps(letters, maps, finals))
        closed = from_maps(letters, *got)
        assert same_language(closed, expected), (maps, finals)
        assert minimize(closed) == minimize(expected), (maps, finals)
        # at most one accept state (none when no final state is reachable),
        # with a loop on every letter
        accepting = [q for q in range(closed.n) if q in closed.finals]
        assert len(accepting) <= 1, (maps, finals)
        assert all(g.image[q] == q for g in closed.delta for q in accepting), (maps, finals)
    assert min(shapes.values()) >= 50, shapes


def test_left_closure_refuses_more_than_256_subsets():
    # L = a.Sigma^8 (states 0..9 count, 10 is the sink): Sigma*.L remembers
    # the last nine letters, 512 subsets
    a = bytes([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10])
    b = bytes([10, 2, 3, 4, 5, 6, 7, 8, 9, 10, 10])
    assert _left_closure((a, b), 1 << 9) is None


def test_left_closure_refuses_as_the_257th_subset_is_numbered():
    # L = a.Sigma^14 (states 0..15 count, 16 is the sink): Sigma*.L has
    # 2^15 subsets, and numbering every one of them before refusing traced
    # a peak of ~4 MB.  Refused (None) as subset 257 is numbered, the tables
    # hold 256 subsets.
    k = 14
    a = bytes([1, *range(2, k + 2), k + 2, k + 2])
    b = bytes([k + 2, *range(2, k + 2), k + 2, k + 2])
    tracemalloc.start()
    try:
        assert _left_closure((a, b), 1 << (k + 1)) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000, peak
    # 0 reads b to itself and the others count on to state 8; every letter
    # leaves the final state 1, so nothing collapses, and the subsets are 0
    # with any set of 1..8: exactly 256, still closed.
    a = bytes([1, 2, 3, 4, 5, 6, 7, 8, 8])
    b = bytes([0, 2, 3, 4, 5, 6, 7, 8, 8])
    assert len(_left_closure((a, b), 1 << 1)[0][0]) == 256


@pytest.mark.parametrize("klass", list(IdealClass))
def test_sampler_draws_what_the_reference_draws(klass):
    for n in range(1, 6):
        for alphabet_size in range(1, 4):
            for seed in range(10):
                got = sample_ideal_dfa(klass, n, alphabet_size, seed)
                assert got == reference_sample_ideal_dfa(klass, n, alphabet_size, seed), (
                    n, alphabet_size, seed,
                )


def test_closure_bounds_hold_on_every_finals_mask():
    # The bound of each class on random packed DFAs with initial state 0
    # (m = 1..8, one to three letters) and every finals mask, none and all
    # included: at least the states of the closure, and the count the proof
    # gives, read off the DFA another way.  Left: 2^(r-1), r the states
    # reachable from 0.  Two-sided: 2^(r-1) + 1, r the non-final states the
    # right closure reaches from a non-final state 0 (its final states are
    # absorbing, so it reaches a non-final state only along paths that avoid
    # the final states); 1 when state 0 is final.
    rng = random.Random(20261020)
    attained = dict.fromkeys(IdealClass, 0)
    for m in range(1, 9):
        for letters in range(1, 4):
            for _ in range(24 >> max(0, m - 5)):
                maps = tuple(bytes(rng.randrange(m) for _ in range(m)) for _ in range(letters))
                left = 1 << (len(reachable_states(Transitions(maps))) - 1)
                for finals in range(1 << m):
                    two_sided = 1
                    if not finals & 1:
                        right_maps = _right_closure(maps, finals)[0]
                        reach = reachable_states(Transitions(right_maps))
                        two_sided = (1 << (sum(not finals >> q & 1 for q in reach) - 1)) + 1
                    expected = {
                        IdealClass.RIGHT: m,
                        IdealClass.LEFT: left,
                        IdealClass.TWO_SIDED: two_sided,
                    }
                    for klass, close in _CLOSURES.items():
                        bound = _CLOSURE_BOUNDS[klass](maps, finals)
                        assert bound == expected[klass], (klass, maps, finals)
                        states = len(close(maps, finals)[0][0])
                        assert states <= bound, (klass, maps, finals)
                        attained[klass] += states == bound
    assert min(attained.values()) > 100, attained


def test_sampler_rejects_early_only_what_minimisation_rejects():
    # Over the sampler's own draws up to its accepted one: a draw whose
    # closure bound is below n, a closure with fewer than n states, or one
    # with fewer than n language classes, must minimise to something the
    # sampler rejects anyway, and the first draw that minimises to n states
    # with a final state is the sample.  Every closure keeps to its bound.
    early = {"bound": 0, "states": 0, "classes": 0}
    for klass in IdealClass:
        close, most = _CLOSURES[klass], _CLOSURE_BOUNDS[klass]
        for n in range(1, 7):
            for alphabet_size in range(1, 4):
                for seed in range(40):
                    accepted = None
                    for maps, finals in _draws(n, alphabet_size, seed):
                        bound = most(maps, finals)
                        maps, finals = close(maps, finals)
                        assert len(maps[0]) <= bound, (klass, n, maps, finals)
                        few_bound = bound < n
                        few_states = len(maps[0]) < n
                        few_classes = not few_states and len(set(_partition(maps, finals))) < n
                        early["bound"] += few_bound
                        early["states"] += few_states
                        early["classes"] += few_classes
                        minimal, minimal_finals, _ = quotient_maps(
                            maps, finals, _partition(maps, finals)
                        )
                        if len(minimal[0]) == n and minimal_finals:
                            assert not (few_bound or few_states or few_classes), (
                                klass, n, maps, finals,
                            )
                            accepted = from_maps("abc"[:alphabet_size], minimal, minimal_finals)
                            break
                    assert sample_ideal_dfa(klass, n, alphabet_size, seed) == accepted, (
                        klass, n, alphabet_size, seed,
                    )
    assert min(early.values()) > 1000, early


@pytest.mark.parametrize("klass", [IdealClass.LEFT, IdealClass.TWO_SIDED])
def test_sampler_rejects_a_closure_past_256_states(klass):
    # The first three samples of a 14-state, 2-letter campaign at seed 1
    # (the CLI's seeds 1_000_003 + i) pass a draw whose Sigma*.L
    # construction numbers a 257th subset: it is rejected like any other
    # draw, and each sample is still the first draw that minimises to n
    # states with a final state.
    n, close, most = 14, _CLOSURES[klass], _CLOSURE_BOUNDS[klass]
    refused = 0
    for seed in range(1_000_003, 1_000_006):
        for maps, finals in _draws(n, 2, seed):
            if most(maps, finals) < n:
                continue
            closed = close(maps, finals)
            if closed is None:
                refused += 1
                continue
            minimal, minimal_finals, _ = quotient_maps(*closed, _partition(*closed))
            if len(minimal[0]) == n and minimal_finals:
                break
        assert sample_ideal_dfa(klass, n, 2, seed) == from_maps("ab", minimal, minimal_finals)
    assert refused, klass


def test_sampler_refuses_more_than_256_states():
    # the third draw has n + 1 = 257 states
    with pytest.raises(ValueError, match="at most 256 states"):
        sample_ideal_dfa(IdealClass.RIGHT, 256, 1, seed=0)


def test_draws_are_the_reference_randrange_draws(monkeypatch):
    # The getrandbits stream of _draws against one randrange call per value
    # and random.sample for the final states: equal draws, and after each of
    # the first 150 an equal generator state.  n = 1..8 (m = 1..9, with the
    # powers of two, where each value takes one bit more than m - 1 needs)
    # and n = 21, 22, 30 (m = 20..23 and 29..31: random.sample picks the
    # second final state from a pool up to m = 21 and from a set above it);
    # alphabet sizes up to 26; the seed turns over 0..2 with n and the
    # alphabet size.  The draws are compared before they are closed: each
    # closure is a function of its draw, so equal draws close alike in every
    # class.
    rngs: list[random.Random] = []

    class Recording(random.Random):
        def __init__(self, seed):
            super().__init__(seed)
            rngs.append(self)

    monkeypatch.setattr(random, "Random", Recording)
    for n in [*range(1, 9), 21, 22, 30]:
        for alphabet_size in (1, 2, 3, 7, 26):
            seed = (n + alphabet_size) % 3
            rngs.clear()
            got = _draws(n, alphabet_size, seed)
            expected = reference_draws(n, alphabet_size, seed)
            for draw in range(150):
                assert next(got) == next(expected), (n, alphabet_size, seed, draw)
                assert rngs[0].getstate() == rngs[1].getstate(), (
                    n, alphabet_size, seed, draw,
                )
