import os
import random
import subprocess
import sys
import tracemalloc
from itertools import permutations, product
from math import factorial
from pathlib import Path

import pytest

from synideal import semigroup
from synideal.semigroup import (
    DEFAULT_CAP,
    SPLIT_FRONTIER,
    CapExceeded,
    SearchInfeasible,
    TransformationSemigroup,
    _close_images,
    _conjugated_images,
    _injection_tables,
    _orbit,
    closure,
    conjugated,
    equal_up_to_relabeling,
    generator_necessity,
    minimal_generator_count,
)
from synideal.transform import (
    Transformation,
    compose,
    conjugate,
    constant,
    identity,
)
from synideal.witness import MIN_N, IdealClass, bound, build, expected_semigroup
from synideal.dfa import transition_semigroup

from oracles import (
    full_monoid_generators,
    minimal_generator_count_by_subsets,
    naive_closure,
    orbit_by_injections,
    random_transformation,
    reference_conjugated_images,
    reference_generator_necessity,
)


def T(*image):
    return Transformation(tuple(image))


class TestClosure:
    def test_default_cap_holds_every_witness_up_to_n8(self):
        for klass, lo in MIN_N.items():
            for n in range(lo, 9):
                assert DEFAULT_CAP >= bound(klass, n), (klass, n)

    def test_full_monoid_n3(self):
        s = closure(full_monoid_generators(3))
        assert s.size == 27

    def test_identity_only(self):
        s = closure([identity(4)])
        assert s.size == 1 and s.elements == (identity(4),)

    def test_single_climbing_generator(self):
        s = closure([T(1, 2, 2)])
        assert s.size == 2
        assert {t.image for t in s.elements} == {(1, 2, 2), (2, 2, 2)}

    # Beyond a plain generating set: a repeated generator (a second pass
    # that only repeats the first), the identity, two constants and a
    # permutation (every product by a constant is that constant), and two
    # constants with a map merging them, so that one generator's pass makes
    # the same new element twice.
    NAIVE_CASES = [
        [T(1, 2, 0, 1), T(0, 0, 2, 3), T(3, 1, 1, 0)],
        [T(1, 2, 0, 1), T(1, 2, 0, 1), T(0, 0, 2, 3)],
        [identity(4), T(1, 2, 0, 1), T(0, 0, 2, 3)],
        [constant(4, 0), constant(4, 1), T(1, 2, 3, 0)],
        [constant(4, 0), constant(4, 1), T(2, 2, 3, 1)],
    ]

    def test_against_naive_closure(self):
        for gens in self.NAIVE_CASES:
            expected = naive_closure(gens)
            s = closure(gens)
            assert {t.image for t in s.elements} == expected, gens
            assert closure(gens, cap=len(expected)).images == s.images
            with pytest.raises(CapExceeded):
                closure(gens, cap=len(expected) - 1)

    def test_idempotent(self):
        s = closure(full_monoid_generators(3))
        again = closure(list(s.elements))
        assert again.images == s.images

    def test_generator_order_irrelevant(self):
        gens = full_monoid_generators(3)
        assert closure(gens).images == closure(gens[::-1]).images

    def test_closedness(self):
        s = closure(full_monoid_generators(3))
        elems = s.elements
        for a in elems[:6]:
            for b in elems[:6]:
                assert compose(a, b) in s

    def test_empty_generators(self):
        with pytest.raises(ValueError):
            closure([])

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            closure([identity(2), identity(3)])

    def test_cap_overflow_raises(self):
        with pytest.raises(CapExceeded, match="^semigroup exceeds cap 100$"):
            closure(full_monoid_generators(4), cap=100)

    def test_cap_just_enough(self):
        result = closure(full_monoid_generators(4), cap=256)
        assert isinstance(result, TransformationSemigroup)
        assert result.size == 256

    def test_cap_is_exact_on_the_right_witness(self):
        # The cap is checked once per generator pass; the answer must still
        # turn on the exact size.
        gens = build(IdealClass.RIGHT, 5).delta
        with pytest.raises(CapExceeded):
            closure(gens, cap=624)
        s = closure(gens, cap=625)
        assert isinstance(s, TransformationSemigroup) and s.size == 625

    def test_result_holds_one_right_sized_table(self):
        # A frozenset copied from a set is sized for twice its length: 256
        # slots here instead of the 128 that 64 elements added one by one need.
        gens = build(IdealClass.RIGHT, 4).delta
        images = closure(gens).images
        assert len(images) == 64
        assert sys.getsizeof(images) <= sys.getsizeof(frozenset(iter(closure(gens).images)))

    @pytest.mark.parametrize("n", [6, 7])
    def test_closure_holds_one_table_at_its_peak(self, n):
        # The membership set is the result: besides the set and its elements
        # only the frontier lists are alive.  A discovery-order list frozen
        # into a second table peaks at 1.24x (n=6) and 1.35x (n=7) of the
        # result; the one table at 1.05x and 1.09x.  Allocation sizes, so
        # the figures repeat exactly.  ``malloc_trim`` is resolved first, so
        # that importing ctypes on a closure's first switch past
        # SPLIT_FRONTIER is not traced in a process that has not closed one.
        gens = build(IdealClass.RIGHT, n).delta
        semigroup._malloc_trim()
        tracemalloc.start()
        try:
            images = closure(gens).images
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(images) == n ** (n - 1)
        held = sys.getsizeof(images) + sum(map(sys.getsizeof, images))
        assert peak <= 1.15 * held, peak / held

    def test_cap_below_the_generator_count(self):
        # Three distinct generators that are already closed: nothing new is
        # ever produced, yet the closure has more than two elements.
        gens = [identity(3), constant(3, 0), constant(3, 1)]
        with pytest.raises(CapExceeded):
            closure(gens, cap=2)
        assert closure(gens, cap=3).size == 3

    @pytest.mark.parametrize("cap", [0, -3])
    def test_non_positive_cap_is_a_value_error(self, cap):
        with pytest.raises(ValueError):
            closure([identity(2)], cap=cap)


def _relation_rich(rng: random.Random, n: int, k: int) -> list[Transformation]:
    """k maps of n states drawn so that short relations among them are
    common: the identity, constants, idempotents (retractions onto a random
    image), involutions, repeats of an earlier map and products of two
    earlier maps, besides plain random maps."""
    gens: list[Transformation] = []
    while len(gens) < k:
        kind = rng.randrange(7)
        if kind == 0:
            g = identity(n)
        elif kind == 1:
            g = constant(n, rng.randrange(n))
        elif kind == 2:
            image = rng.sample(range(n), rng.randint(1, n))
            g = Transformation(tuple(q if q in image else rng.choice(image) for q in range(n)))
        elif kind == 3:
            img = list(range(n))
            order = rng.sample(range(n), n)
            for x, y in zip(order[::2], order[1::2]):
                img[x], img[y] = y, x
            g = Transformation(tuple(img))
        elif kind == 4 and gens:
            g = rng.choice(gens)
        elif kind == 5 and len(gens) >= 2:
            g = compose(*rng.sample(gens, 2))
        else:
            g = random_transformation(rng, n)
        gens.append(g)
    return gens


def _relation_cases(packed: list[bytes]) -> set[str]:
    """The relations g*h in {generators, 1} that a generator list exhibits,
    by kind."""
    n = len(packed[0])
    one = bytes(range(n))
    cases = set()
    if len(set(packed)) < len(packed):
        cases.add("duplicate")
    for g in packed:
        if g == one:
            cases.add("identity generator")
        elif len(set(g)) == 1:
            cases.add("constant")
        for h in packed:
            if g == one or h == one:
                continue
            gh = g.translate(h + bytes(256 - n))
            if gh == one:
                cases.add("identity product")
            elif g == h and gh == g:
                cases.add("idempotent")
            elif gh in packed and gh not in (g, h):
                cases.add("third generator")
    return cases


class TestRelationSkipping:
    """Above ``SPLIT_FRONTIER`` the closure skips every product that a
    generator relation proves repeated.  The result and the cap must not
    notice: checked against ``naive_closure`` with the switch moved
    down to every small size, and against the closed forms at the default."""

    SWITCHES = (0, 1, 3, 10, SPLIT_FRONTIER)

    def test_relation_rich_closures_agree_with_naive_closure(self, monkeypatch):
        rng = random.Random(12)
        cases: set[str] = set()
        for n in range(1, 7):
            for k in range(1, 7):
                for _ in range(2):
                    # Small enough for the quadratic reference.
                    while True:
                        gens = _relation_rich(rng, n, k)
                        packed = [g.packed() for g in gens]
                        if _close_images(packed, cap=120) is not None:
                            break
                    expected = {bytes(e) for e in naive_closure(gens)}
                    cases |= _relation_cases(packed)
                    size = len(expected)
                    for switch in self.SWITCHES:
                        monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", switch)
                        assert _close_images(packed) == expected, (gens, switch)
                        assert _close_images(packed, cap=size) == expected, (gens, switch)
                        assert _close_images(packed, cap=size - 1) is None, (gens, switch)
        assert cases == {
            "duplicate", "identity generator", "constant", "identity product",
            "idempotent", "third generator",
        }

    def test_witness_closures_equal_their_closed_forms(self, monkeypatch):
        for switch in (0, SPLIT_FRONTIER):
            monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", switch)
            for klass, lo in MIN_N.items():
                for n in range(lo, 8 if switch else 7):
                    images = closure(build(klass, n).delta).images
                    assert images == expected_semigroup(klass, n).images, (klass, n, switch)

    def test_cap_is_exact_across_the_switch(self):
        packed = [g.packed() for g in build(IdealClass.RIGHT, 6).delta]
        full = _close_images(packed)
        assert len(full) == 7776 > SPLIT_FRONTIER
        assert _close_images(packed, cap=7775) is None
        assert _close_images(packed, cap=7776) == full

    def test_products_formed_on_the_n7_witnesses(self, monkeypatch):
        # Without the relations each element is multiplied by every letter:
        # 4, 5 and 6 products per element for right, left and two-sided.
        # With them, and the passes whose lists are skipped most run first:
        formed = {
            IdealClass.RIGHT: (117_649 * 4, 373_365),
            IdealClass.LEFT: (117_655 * 5, 377_413),
            IdealClass.TWO_SIDED: (16_968 * 6, 77_480),
        }
        products = [0]

        def counting_map(f, elements, table):
            products[0] += len(elements)
            return map(f, elements, table)

        monkeypatch.setattr(semigroup, "map", counting_map, raising=False)
        for klass, counts in formed.items():
            packed = [g.packed() for g in build(klass, 7).delta]
            for switch, count in zip((10**9, SPLIT_FRONTIER), counts):
                monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", switch)
                products[0] = 0
                assert len(_close_images(packed)) == bound(klass, 7)
                assert products[0] == count, (klass, switch)


def _no_call(name):
    def fail(*args, **kwargs):
        raise AssertionError(f"the closure took {name}")

    return fail


def _calls(monkeypatch, name: str) -> list:
    """Record each call of ``semigroup.<name>``, which still runs."""
    real = getattr(semigroup, name)
    calls = []

    def logged(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(semigroup, name, logged)
    return calls


def _all_maps(n: int) -> set[bytes]:
    return set(map(bytes, product(range(n), repeat=n)))


class TestUnitOrbits:
    """When the permutation letters generate the whole symmetric group on
    the states they move, and it has more than ``SPLIT_FRONTIER`` elements,
    a closure past the switch adds whole orbits of that group
    (``_close_by_orbits``).  Every other closure takes
    ``_close_by_relations``."""

    # Unit groups that are not the whole symmetric group on the states they
    # move: a lone 4-cycle (4 of 24), <(0 1 2)(3 4)> (6 of 120), and an
    # identity letter (no state moved).
    OTHER_UNITS = [
        [T(1, 2, 3, 0)],
        [T(1, 2, 3, 0), T(0, 0, 2, 3)],
        [T(1, 2, 0, 4, 3), T(0, 0, 2, 3, 4)],
        [T(1, 2, 0, 4, 3), T(0, 0, 2, 3, 4), T(3, 3, 4, 0, 1)],
        [identity(4), T(1, 2, 0, 1), T(0, 0, 2, 3)],
    ]

    def test_other_unit_groups_fall_back_to_the_relations(self, monkeypatch):
        # With the switch at 0, |M|! > SPLIT_FRONTIER for every M: the group
        # alone decides.
        monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", 0)
        monkeypatch.setattr(semigroup, "_close_by_orbits", _no_call("_close_by_orbits"))
        calls = _calls(monkeypatch, "_close_by_relations")
        for gens in self.OTHER_UNITS:
            expected = {bytes(e) for e in naive_closure(gens)}
            del calls[:]
            assert _close_images([g.packed() for g in gens]) == expected, gens
            assert calls, gens

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_units_moving_every_state_fall_back_up_to_the_switch(self, monkeypatch, n):
        # The whole monoid of maps: its units are Sym(n), which must outgrow
        # SPLIT_FRONTIER.  At the default switch that holds from n=7 on.
        relations = _calls(monkeypatch, "_close_by_relations")
        orbits = _calls(monkeypatch, "_close_by_orbits")
        for switch, path in ((factorial(n), relations), (factorial(n) - 1, orbits)):
            monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", switch)
            del relations[:], orbits[:]
            assert closure(full_monoid_generators(n)).images == _all_maps(n), (n, switch)
            assert len(path) == 1 and len(relations) + len(orbits) == 1, (n, switch)

    def test_orbit_closures_equal_the_closed_forms(self, monkeypatch):
        monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", 0)
        monkeypatch.setattr(semigroup, "_close_by_relations", _no_call("_close_by_relations"))
        for n in range(2, 7):
            assert closure(full_monoid_generators(n)).images == _all_maps(n), n
        for klass, lo in MIN_N.items():
            # The two smallest witnesses of each class have an identity letter.
            for n in range(lo + 2, 8):
                images = closure(build(klass, n).delta).images
                assert images == expected_semigroup(klass, n).images, (klass, n)

    def test_the_relations_still_close_the_witnesses(self, monkeypatch):
        # With the switch at 0 most witnesses now add orbits; the relations
        # path must still close them, as it does every other closure.
        monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", 0)
        monkeypatch.setattr(semigroup, "_symmetric_units", lambda gen_images, cap: None)
        monkeypatch.setattr(semigroup, "_close_by_orbits", _no_call("_close_by_orbits"))
        for klass, lo in MIN_N.items():
            for n in range(lo, 7):
                images = closure(build(klass, n).delta).images
                assert images == expected_semigroup(klass, n).images, (klass, n)

    def test_random_symmetric_units_agree_with_naive_closure(self, monkeypatch):
        # The moved states anywhere among the fixed ones, with random maps
        # beside a cycle and a transposition of them.
        monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", 0)
        calls = _calls(monkeypatch, "_close_by_orbits")
        rng = random.Random(23)
        for n in range(2, 6):
            for _ in range(10):
                moved = rng.sample(range(n), rng.randint(2, n))
                cycle = dict(zip(moved, moved[1:] + moved[:1]))
                swap = {moved[0]: moved[1], moved[1]: moved[0]}
                gens = [T(*(cycle.get(q, q) for q in range(n))), T(*(swap.get(q, q) for q in range(n)))]
                gens += [random_transformation(rng, n) for _ in range(rng.randint(1, 2))]
                rng.shuffle(gens)
                packed = [g.packed() for g in gens]
                if _close_images(packed, cap=300) is None:
                    continue  # too large for the quadratic reference
                del calls[:]
                assert _close_images(packed) == {bytes(e) for e in naive_closure(gens)}, gens
                assert calls, gens

    @pytest.mark.parametrize(
        "switch, klass, n",
        [
            (0, IdealClass.RIGHT, 4),
            (0, IdealClass.LEFT, 5),
            (100, IdealClass.RIGHT, 6),
            (100, IdealClass.LEFT, 6),
        ],
    )
    def test_cap_is_exact_in_the_orbit_path(self, monkeypatch, switch, klass, n):
        monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", switch)
        monkeypatch.setattr(semigroup, "_close_by_relations", _no_call("_close_by_relations"))
        packed = [g.packed() for g in build(klass, n).delta]
        size = bound(klass, n)
        assert _close_images(packed, cap=size - 1) is None
        assert _close_images(packed, cap=size) == expected_semigroup(klass, n).images

    @staticmethod
    def _maps_with_moved_values(rng, moved, fixed, j, count):
        """``count`` random maps of the states ``moved`` + ``fixed`` whose
        values in ``moved`` are exactly j, in a random order of appearance."""
        n = len(moved) + len(fixed)
        for _ in range(count):
            values = rng.sample(moved, j)
            image = values + [rng.choice(values + list(fixed)) for _ in range(n - j)]
            rng.shuffle(image)
            yield bytes(image)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_shared_tables_list_each_orbit_once(self, k):
        # |M| = k moved states among two fixed ones; for every j the tables
        # of tables[j] are one per injection of moved[:j] into M.
        rng = random.Random(k)
        n = k + 2
        moved = bytes(sorted(rng.sample(range(n), k)))
        fixed = bytes(q for q in range(n) if q not in moved)
        tables = _injection_tables(moved)
        sizes = [factorial(k) // factorial(k - j) for j in range(k + 1)]
        assert [len(t) for t in tables] == sizes
        assert len({id(t) for ts in tables for t in ts}) == factorial(k)
        for j in range(k + 1):
            for t in self._maps_with_moved_values(rng, list(moved), fixed, j, 6):
                orbit = list(_orbit(t, fixed, moved, tables))
                assert len(set(orbit)) == len(orbit) == sizes[j], (k, j, t)
                assert set(orbit) == set(orbit_by_injections(t, moved)), (k, j, t)
                assert t in orbit, (k, j, t)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_element_of_an_orbit_lists_it_in_one_order(self, k):
        # The representative is renumbered by first appearance of its values
        # in M, which every element of its orbit shares; renumbering by value
        # would list t*g from a different element than t.
        rng = random.Random(100 + k)
        n = k + 2
        moved = bytes(sorted(rng.sample(range(n), k)))
        fixed = bytes(q for q in range(n) if q not in moved)
        tables = _injection_tables(moved)
        for j in range(k + 1):
            for t in self._maps_with_moved_values(rng, list(moved), fixed, j, 3):
                listed = list(_orbit(t, fixed, moved, tables))
                for p in permutations(moved):
                    tg = t.translate(bytes.maketrans(moved, bytes(p)))
                    assert list(_orbit(tg, fixed, moved, tables)) == listed, (k, t, p)

    def test_orbit_closure_holds_one_table_at_its_peak(self, monkeypatch):
        # As test_closure_holds_one_table_at_its_peak, with the switch below
        # 6! = 720 so that the right n=7 witness adds whole orbits: they go
        # straight into the one set, and only the representatives are listed.
        # The peak is 1.06x of the result.
        monkeypatch.setattr(semigroup, "SPLIT_FRONTIER", 512)
        monkeypatch.setattr(semigroup, "_close_by_relations", _no_call("_close_by_relations"))
        gens = build(IdealClass.RIGHT, 7).delta
        semigroup._malloc_trim()
        tracemalloc.start()
        try:
            images = closure(gens).images
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(images) == 7**6
        held = sys.getsizeof(images) + sum(map(sys.getsizeof, images))
        assert peak <= 1.15 * held, peak / held


class TestOutgrownTables:
    """Past ``SPLIT_FRONTIER`` a closure returns the set tables it outgrows to
    the OS (glibc's ``malloc_trim``), once per round or, adding whole orbits,
    each time its set's table grows, so a process peaks at one closure's
    memory however many closures it has already run."""

    CLOSE_TWICE = """
import resource
from synideal.semigroup import closure
from synideal.witness import IdealClass, build
gens = build(IdealClass.TWO_SIDED, 8).delta
for _ in range(2):
    assert closure(gens).size == 262_529
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

    # The right n=8 witness adds whole orbits of Sym(7), never taking the
    # relations.
    CLOSE_RIGHT_TWICE = """
import resource
from synideal import semigroup
from synideal.semigroup import closure
from synideal.witness import IdealClass, build
def no_relations(*args):
    raise AssertionError("the closure took _close_by_relations")
semigroup._close_by_relations = no_relations
gens = build(IdealClass.RIGHT, 8).delta
for _ in range(2):
    assert closure(gens).size == 2_097_152
    print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
"""

    @staticmethod
    def _peaks_kb(script: str) -> tuple[int, int]:
        """ru_maxrss after each of the two closures ``script`` runs, in a
        fresh process: this one's heap already holds other tests' tables.
        ru_maxrss is in KiB on Linux, the only platform with a trim."""
        if semigroup._malloc_trim() is None:
            pytest.skip("no malloc_trim in this C library")
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": str(src)},
            capture_output=True, text=True, timeout=120, check=True,
        )
        first_kb, second_kb = map(int, proc.stdout.split())
        return first_kb, second_kb

    def test_a_second_n8_closure_peaks_where_the_first_did(self):
        # Without the trim the second closure's tables, up to the raised mmap
        # threshold, come from the heap and stay resident: 37.1 -> 43.3 MB,
        # against 36.4 -> 37.6 MB with it (CPython 3.11.7).
        first_kb, second_kb = self._peaks_kb(self.CLOSE_TWICE)
        assert second_kb - first_kb < 3 * 1024, (first_kb, second_kb)

    def test_a_second_orbit_closure_peaks_where_the_first_did(self):
        # The orbit path trims each time its set's table grows: 180.3 ->
        # 180.3 MB.  Without the trim, 181.3 -> 212.0 MB (CPython 3.11.7).
        first_kb, second_kb = self._peaks_kb(self.CLOSE_RIGHT_TWICE)
        assert second_kb - first_kb < 3 * 1024, (first_kb, second_kb)

    def test_closures_are_the_same_without_malloc_trim(self, monkeypatch):
        resolved = []

        def no_trim():
            resolved.append(True)
            return None

        monkeypatch.setattr(semigroup, "_malloc_trim", no_trim)
        images = closure(build(IdealClass.RIGHT, 6).delta).images
        assert resolved, "the closure never reached the per-round trim"
        assert images == expected_semigroup(IdealClass.RIGHT, 6).images


class TestContains:
    def test_right_witness_membership(self):
        # The semigroup is exactly the maps fixing the sink: the identity is
        # induced (letter a cycles the first n-1 states, so a^{n-1} is the
        # identity) and the total collapse onto the sink is present, while
        # any map moving the sink is not.
        s = transition_semigroup(build(IdealClass.RIGHT, 4))
        assert identity(4) in s
        assert T(3, 3, 3, 3) in s
        assert T(0, 1, 2, 0) not in s

    def test_generators_are_members(self):
        s = transition_semigroup(build(IdealClass.LEFT, 4))
        for g in s.generators:
            assert g in s

    def test_size_mismatch(self):
        s = closure([identity(2)])
        with pytest.raises(ValueError):
            identity(3) in s


class TestGeneratorNecessity:
    def test_left_witness_n4_all_necessary(self):
        s = transition_semigroup(build(IdealClass.LEFT, 4))
        assert generator_necessity(s) == [True] * 5

    def test_right_witness_n4_all_necessary(self):
        s = transition_semigroup(build(IdealClass.RIGHT, 4))
        assert generator_necessity(s) == [True] * 4

    def test_duplicate_generators(self):
        s = closure([identity(2), identity(2)])
        assert generator_necessity(s) == [False, False]

    # ``generator_necessity`` reads the generators only: rank-bounded
    # letters, one- and two-state projections, then a rank-bounded search.
    # ``reference_generator_necessity`` closes the other letters instead.
    def test_agrees_with_the_closures_on_random_generating_sets(self, monkeypatch):
        # Every search that decides a letter logs how: a projection that
        # fails, or the search of step 3.
        paths = []
        reaches = semigroup._reaches

        def logged(start, goal, tables, floor=None):
            found = reaches(start, goal, tables, floor)
            if floor is not None:
                paths.append("search finds" if found else "search exhausts")
            elif not found:
                paths.append("state projection" if len(start) == 1 else "pair projection")
            return found

        monkeypatch.setattr(semigroup, "_reaches", logged)
        rng = random.Random(19)
        for i in range(2000):
            gens = _relation_rich(rng, 1 + i % 6, rng.randint(1, 7))
            s = closure(gens)
            assert generator_necessity(s) == reference_generator_necessity(s), gens
            ranks = [len(set(g.image)) for g in gens]
            paths.extend(
                "no kept letter"
                for j, r in enumerate(ranks)
                if all(other < r for other in ranks[:j] + ranks[j + 1 :])
            )
        assert set(paths) == {
            "no kept letter", "state projection", "pair projection",
            "search finds", "search exhausts",
        }

    def test_agrees_with_the_closures_on_the_witnesses(self):
        for klass, lo in MIN_N.items():
            for n in range(lo, 8):
                s = transition_semigroup(build(klass, n))
                flags = generator_necessity(s)
                assert flags == reference_generator_necessity(s) == [True] * len(flags), (klass, n)

    def test_left_n9_witness_letters_are_necessary(self):
        # Its closure would hold 43 million maps.
        s = expected_semigroup(IdealClass.LEFT, 9)
        assert generator_necessity(s) == [True] * len(s.generators)

    def test_a_search_past_the_cap_raises(self, monkeypatch):
        # Every projection of b passes: a and a^3 move any state anywhere,
        # and b merges no pair.  So b is decided by the search of step 3,
        # which keeps the six powers of a, past a cap of two.
        a = Transformation((1, 2, 3, 4, 5, 0))
        gens = [a, Transformation((1, 0, 2, 3, 4, 5)), compose(compose(a, a), a)]
        s = closure(gens)
        assert generator_necessity(s) == reference_generator_necessity(s) == [True, True, False]
        monkeypatch.setattr(semigroup, "DEFAULT_CAP", 2)
        with pytest.raises(CapExceeded, match="^necessity search exceeds cap 2$"):
            generator_necessity(s)


class TestMinimalGeneratorCount:
    def test_trivial(self):
        assert minimal_generator_count(closure([identity(2)]), k_max=2) == 1

    def test_left_witness_n3_needs_four(self):
        s = transition_semigroup(build(IdealClass.LEFT, 3))
        assert s.size == 11
        assert minimal_generator_count(s, k_max=4) == 4

    def test_full_monoid_n3_needs_three(self):
        assert minimal_generator_count(closure(full_monoid_generators(3)), k_max=3) == 3

    def test_right_zero_class_needs_every_element(self):
        # constants compose to the right factor: one J-class, nothing generated
        s = closure([constant(3, q) for q in range(3)])
        assert minimal_generator_count(s, k_max=3) == 3
        assert minimal_generator_count(s, k_max=2) is None

    def test_agrees_with_subset_search_on_random_closures(self):
        rng = random.Random(5)
        checked = 0
        while checked < 300:
            n = rng.randrange(2, 5)
            gens = [random_transformation(rng, n) for _ in range(rng.randrange(1, 6))]
            try:
                s = closure(gens, cap=40)
            except CapExceeded:
                continue
            want = minimal_generator_count_by_subsets(s, k_max=s.size)
            assert minimal_generator_count(s, k_max=s.size) == want, gens
            assert minimal_generator_count(s, k_max=want - 1) is None, gens
            checked += 1

    @pytest.mark.parametrize("n", [3, 4])
    @pytest.mark.parametrize("klass", list(IdealClass), ids=lambda k: k.value)
    def test_agrees_with_subset_search_on_witnesses(self, klass, n):
        s = transition_semigroup(build(klass, n))
        # Left n=4 needs five: the subset search rules out every subset of
        # up to four of its 67 elements (~8 * 10^5 closures), and its five
        # letters generate it.  Searching on through the 9.6 * 10^6
        # five-subsets would take minutes.
        k_max = 4 if (klass, n) == (IdealClass.LEFT, 4) else s.size
        want = minimal_generator_count_by_subsets(s, k_max=k_max)
        assert minimal_generator_count(s, k_max=k_max) == want
        if want is None:
            assert minimal_generator_count(s, k_max=s.size) == len(s.generators) == k_max + 1

    def test_budget(self):
        s = transition_semigroup(build(IdealClass.RIGHT, 4))
        with pytest.raises(SearchInfeasible):
            minimal_generator_count(s, k_max=2, budget=10)


class TestRelabeling:
    def test_identity_permutation(self):
        s = transition_semigroup(build(IdealClass.LEFT, 3))
        assert equal_up_to_relabeling(s, s, fixed_states={0}) == (0, 1, 2)

    def test_witness_semigroup_invariant_under_relabeling(self):
        # The maximal left semigroup (maps fixing 0 plus constants) is stable
        # under any permutation fixing 0, so the identity already matches.
        s = transition_semigroup(build(IdealClass.LEFT, 3))
        perm = (0, 2, 1)
        swapped = TransformationSemigroup(
            n=3,
            images=frozenset(conjugate(t, perm).packed() for t in s.elements),
            generators=tuple(conjugate(t, perm) for t in s.generators),
        )
        assert swapped.images == s.images
        assert equal_up_to_relabeling(s, swapped, fixed_states={0}) == (0, 1, 2)

    def test_swapped_copy(self):
        # closure of {[1,2,2], [0,0,0]} is not invariant under state swaps
        s = closure([T(1, 2, 2), T(0, 0, 0)])
        perm = (0, 2, 1)
        swapped = TransformationSemigroup(
            n=3,
            images=frozenset(conjugate(t, perm).packed() for t in s.elements),
            generators=tuple(conjugate(t, perm) for t in s.generators),
        )
        assert swapped.images != s.images
        assert equal_up_to_relabeling(s, swapped, fixed_states={0}) == perm

    def test_different_sizes(self):
        left = transition_semigroup(build(IdealClass.LEFT, 3))
        right = transition_semigroup(build(IdealClass.RIGHT, 3))
        assert left.size == 11 and right.size == 9
        assert equal_up_to_relabeling(left, right) is None

    def test_fixed_states_constrain(self):
        s = closure([T(1, 2, 2), T(0, 0, 0)])
        perm = (0, 2, 1)
        swapped = TransformationSemigroup(
            n=3, images=frozenset(conjugate(t, perm).packed() for t in s.elements),
            generators=s.generators,
        )
        assert equal_up_to_relabeling(s, swapped, fixed_states={0, 1}) is None

    def test_too_large(self):
        s = closure([identity(8)])
        with pytest.raises(SearchInfeasible):
            equal_up_to_relabeling(s, s)

    def test_generators_in_target_is_not_a_proof(self):
        # t holds the conjugates of s's generators under perm, but one other
        # element of the conjugate is swapped for a map outside it, so no
        # permutation conjugates s onto t.
        s = closure([T(1, 2, 3, 3), T(0, 0, 2, 1)])
        perm = (2, 0, 3, 1)
        conjugate_images = _conjugated_images(s.images, perm)
        moved_gens = {conjugate(g, perm).packed() for g in s.generators}
        dropped = min(conjugate_images - moved_gens)
        added = min(e for e in map(bytes, product(range(4), repeat=4)) if e not in conjugate_images)
        t = TransformationSemigroup(
            n=4, images=(conjugate_images - {dropped}) | {added}, generators=s.generators
        )
        assert t.size == s.size and moved_gens <= t.images
        assert all(reference_conjugated_images(s.images, p) != t.images for p in permutations(range(4)))
        assert equal_up_to_relabeling(s, t) is None

    def test_found_permutation_conjugates_onto_the_target(self):
        rng = random.Random(11)
        for i in range(60):
            n = 1 + i % 5
            s = closure([random_transformation(rng, n) for _ in range(2)])
            perm = rng.sample(range(n), n)
            target = TransformationSemigroup(
                n=n, images=reference_conjugated_images(s.images, perm), generators=s.generators
            )
            found = equal_up_to_relabeling(s, target)
            assert found is not None
            assert reference_conjugated_images(s.images, found) == target.images


class TestConjugatedImages:
    def test_matches_state_by_state_conjugation(self):
        rng = random.Random(5)
        for i in range(240):
            n = 1 + i % 6
            s = closure([random_transformation(rng, n) for _ in range(rng.randint(1, 2))])
            perm = list(range(n)) if i % 12 < 6 else rng.sample(range(n), n)
            assert _conjugated_images(s.images, perm) == reference_conjugated_images(s.images, perm)

    def test_conjugated_semigroup_is_the_closure_of_conjugated_generators(self):
        rng = random.Random(6)
        for i in range(60):
            n = 1 + i % 5
            s = closure([random_transformation(rng, n) for _ in range(rng.randint(1, 3))])
            perm = rng.sample(range(n), n)
            moved = conjugated(s, perm)
            assert moved.generators == tuple(conjugate(g, perm) for g in s.generators)
            assert moved.images == closure(moved.generators).images


class TestSerialization:
    def test_header_and_sorted_elements(self):
        s = closure([T(1, 2, 2)])
        text = s.to_text()
        lines = text.splitlines()
        assert lines[0] == "semigroup n=3 size=2"
        assert lines[1:] == ["[1,2,2]", "[2,2,2]"]
