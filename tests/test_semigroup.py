import hashlib
import random
import sys
import tracemalloc
from itertools import permutations, product
from math import factorial

import pytest

from synideal import semigroup
from synideal.semigroup import (
    DEFAULT_CAP,
    CapExceeded,
    OrbitUnion,
    SearchInfeasible,
    TransformationSemigroup,
    _canonical,
    _close_images,
    _conjugated_images,
    _injection_tables,
    _j_classes,
    _orbit_sizes,
    _primitive,
    _symmetric_units,
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
from synideal.witness import MIN_N, ClosedForm, IdealClass, bound, build, expected_semigroup
from synideal.dfa import transition_semigroup

from oracles import (
    full_monoid_generators,
    j_classes_by_ideals,
    minimal_generator_count_by_subsets,
    naive_closure,
    orbit_by_injections,
    random_transformation,
    reference_conjugated_images,
    reference_generator_necessity,
    symmetric_units_by_listing,
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
    def test_closure_holds_one_table_at_its_peak(self, monkeypatch, n):
        # The membership set is the result: besides the set and its elements
        # only the frontier lists are alive.  A discovery-order list frozen
        # into a second table peaks at 1.24x (n=6) and 1.35x (n=7) of the
        # result; the one table at 1.05x and 1.09x.  Allocation sizes, so
        # the figures repeat exactly.  The unit group is hidden, so that the
        # plain passes build the flat set.
        monkeypatch.setattr(semigroup, "_symmetric_units", lambda gen_images, cap: None)
        gens = build(IdealClass.RIGHT, n).delta
        tracemalloc.start()
        try:
            images = closure(gens).images
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert type(images) is set and len(images) == n ** (n - 1)
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


@pytest.fixture(params=["orbits", "passes"])
def path(request, monkeypatch) -> str:
    """Run a test on each path of ``_close_images``: with the orbit path
    open to unit groups on any number of states (``ORBIT_MIN_STATES`` = 1),
    and with it refused (``_symmetric_units`` answers None), so that the
    plain passes close everything."""
    if request.param == "orbits":
        _orbits_for_small_groups(monkeypatch)
    else:
        monkeypatch.setattr(semigroup, "_symmetric_units", lambda gen_images, cap: None)
    return request.param


class TestOnEitherPath:
    """A closure asks once, from its letters and before any product, whether
    its unit group is a whole symmetric group, and then takes the orbit path
    or the plain passes to the end.  The result and the cap must not depend
    on the path: each oracle (``naive_closure`` on relation-rich letters,
    the closed forms at n <= 7, an exact cap) runs with the orbit path
    allowed and with it refused."""

    def test_relation_rich_closures_agree_with_naive_closure(self, monkeypatch, path):
        orbits = _calls(monkeypatch, "_close_by_orbits")
        taken = 0
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
                    before = len(orbits)
                    assert _close_images(packed) == expected, gens
                    assert _close_images(packed, cap=size) == expected, gens
                    assert _close_images(packed, cap=size - 1) is None, gens
                    taken += len(orbits) > before
        # Enough of the draws take the orbit path when it is allowed.
        assert taken >= 10 if path == "orbits" else taken == 0, taken
        assert cases == {
            "duplicate", "identity generator", "constant", "identity product",
            "idempotent", "third generator",
        }

    def test_witness_closures_equal_their_closed_forms(self, path):
        for n in range(2, 7):
            images = closure(full_monoid_generators(n)).images
            assert isinstance(images, OrbitUnion if path == "orbits" else set), (n, path)
            assert images == _all_maps(n), (n, path)
        for klass, lo in MIN_N.items():
            for n in range(lo, 8):
                images = closure(build(klass, n).delta).images
                # The two smallest witnesses of each class have an identity
                # letter, and no transposition.
                if path == "passes":
                    assert type(images) is set, (klass, n)
                elif n >= lo + 2:
                    assert isinstance(images, OrbitUnion), (klass, n)
                assert images == expected_semigroup(klass, n).images, (klass, n, path)

    def test_cap_is_exact(self, path):
        packed = [g.packed() for g in build(IdealClass.RIGHT, 6).delta]
        full = _close_images(packed)
        assert isinstance(full, OrbitUnion if path == "orbits" else set), path
        assert len(full) == 7776 and full == expected_semigroup(IdealClass.RIGHT, 6).images
        assert _close_images(packed, cap=7775) is None
        assert _close_images(packed, cap=7776) == full

    @pytest.mark.parametrize(
        "klass, letters",
        [(IdealClass.RIGHT, 4), (IdealClass.LEFT, 5), (IdealClass.TWO_SIDED, 6)],
    )
    def test_products_formed_on_the_n7_witnesses(self, monkeypatch, klass, letters):
        # One loop: each element is multiplied by every letter exactly
        # once.  Their unit groups are hidden, so that they keep the passes,
        # not the orbits of those groups.
        products = _count_products(monkeypatch)
        monkeypatch.setattr(semigroup, "_symmetric_units", lambda gen_images, cap: None)
        packed = [g.packed() for g in build(klass, 7).delta]
        assert len(packed) == letters
        assert len(_close_images(packed)) == bound(klass, 7)
        assert products[0] == bound(klass, 7) * letters

    def test_the_path_is_decided_before_the_first_product(self, monkeypatch):
        # The n=6 witness of each class forms no product before it enters
        # the orbit path, and the n=5 right and left ones take it too.
        products = _count_products(monkeypatch)
        entered = []
        real = semigroup._close_by_orbits

        def logged(gen_images, moved, cap):
            entered.append(products[0])
            return real(gen_images, moved, cap)

        monkeypatch.setattr(semigroup, "_close_by_orbits", logged)
        for klass, n in [
            (IdealClass.RIGHT, 5), (IdealClass.LEFT, 5),
            *((klass, 6) for klass in IdealClass),
        ]:
            products[0] = 0
            del entered[:]
            images = closure(build(klass, n).delta).images
            assert entered == [0], (klass, n, entered)
            assert isinstance(images, OrbitUnion), (klass, n)
            assert images == expected_semigroup(klass, n).images, (klass, n)

    def test_every_closure_asks_for_its_units_once(self, monkeypatch):
        # Small closures included, whichever path they take: the identity,
        # the full monoids of 1 to 4 states (units Sym(4) take the orbit
        # path), every witness up to n=6, and relation-rich letters.
        asked = _calls(monkeypatch, "_symmetric_units")
        letter_lists = [[identity(1)], [identity(4)]]
        letter_lists += [full_monoid_generators(n) for n in range(1, 5)]
        letter_lists += [build(klass, n).delta for klass, lo in MIN_N.items() for n in range(lo, 7)]
        rng = random.Random(7)
        letter_lists += [_relation_rich(rng, 1 + i % 5, 1 + i % 4) for i in range(40)]
        for gens in letter_lists:
            del asked[:]
            closure(gens)
            assert len(asked) == 1, gens


def _count_products(monkeypatch) -> list[int]:
    """Count the products the plain passes form: ``products[0]`` grows by
    the frontier's length at each ``map`` of ``bytes.translate`` over it."""
    products = [0]

    def counting_map(f, elements, *tables):
        if f is bytes.translate:
            products[0] += len(elements)
        return map(f, elements, *tables)

    monkeypatch.setattr(semigroup, "map", counting_map, raising=False)
    return products


def _orbits_for_small_groups(monkeypatch) -> None:
    """Let unit groups on any number of states take the orbit path.
    ``ORBIT_MIN_STATES`` keeps the small ones off it for speed alone, and
    the orbit path must be exact on the small closures that the quadratic
    reference and the closed forms at n <= 7 check."""
    monkeypatch.setattr(semigroup, "ORBIT_MIN_STATES", 1)


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


def _symmetric_unit_cases(rng: random.Random, n: int, count: int):
    """``count`` generator lists of n states whose permutation letters
    generate Sym(M): a cycle and a transposition of the moved states M,
    placed anywhere among the fixed ones, beside one or two random maps."""
    for _ in range(count):
        moved = rng.sample(range(n), rng.randint(2, n))
        cycle = dict(zip(moved, moved[1:] + moved[:1]))
        swap = {moved[0]: moved[1], moved[1]: moved[0]}
        gens = [T(*(cycle.get(q, q) for q in range(n))), T(*(swap.get(q, q) for q in range(n)))]
        gens += [random_transformation(rng, n) for _ in range(rng.randint(1, 2))]
        rng.shuffle(gens)
        yield gens


def _orbit(t: bytes, moved: bytes) -> list[bytes]:
    """The orbit of t under Sym(``moved``) as an ``OrbitUnion`` of that one
    orbit lists it."""
    fixed = bytes(q for q in range(len(t)) if q not in moved)
    r, j = _canonical(t, fixed, moved)
    return list(OrbitUnion(len(t), moved, {r: j}, _orbit_sizes(len(moved))[j]))


class TestUnitOrbits:
    """When the permutation letters generate the whole symmetric group on
    the states they move, a closure adds whole orbits of that group
    (``_close_by_orbits``).  Every other closure runs the plain passes."""

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

    def test_other_unit_groups_keep_the_plain_passes(self, monkeypatch):
        # The group alone decides, asked once, before the first product.
        asked = _calls(monkeypatch, "_symmetric_units")
        orbits = _calls(monkeypatch, "_close_by_orbits")
        for gens in self.OTHER_UNITS:
            expected = {bytes(e) for e in naive_closure(gens)}
            del asked[:]
            assert _close_images([g.packed() for g in gens]) == expected, gens
            assert (len(asked), len(orbits)) == (1, 0), gens

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_units_moving_every_state_take_orbits(self, monkeypatch, n):
        # The whole monoid of maps: its units are Sym(n), n! <= 720 maps,
        # and however small the closure, it adds their orbits.
        orbits = _calls(monkeypatch, "_close_by_orbits")
        images = closure(full_monoid_generators(n)).images
        assert isinstance(images, OrbitUnion) and images == _all_maps(n), n
        assert len(orbits) == 1, n

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_small_unit_groups_keep_the_plain_passes(self, monkeypatch, k):
        # The maps of k of 6 states, the other two fixed: units Sym(k).  An
        # orbit holds at most k! maps and each product is canonicalised in
        # Python, so below ORBIT_MIN_STATES moved states a closure keeps the
        # plain passes, which form their products in C.
        orbits = _calls(monkeypatch, "_close_by_orbits")
        gens = [T(*g.image, *range(k, 6)) for g in full_monoid_generators(k)]
        assert len(closure(gens).images) == k**k
        assert len(orbits) == int(k >= semigroup.ORBIT_MIN_STATES), k

    def test_random_symmetric_units_agree_with_naive_closure(self, monkeypatch):
        # The moved states anywhere among the fixed ones, with random maps
        # beside a cycle and a transposition of them.
        _orbits_for_small_groups(monkeypatch)
        calls = _calls(monkeypatch, "_close_by_orbits")
        rng = random.Random(23)
        for n in range(2, 6):
            for gens in _symmetric_unit_cases(rng, n, 10):
                packed = [g.packed() for g in gens]
                if _close_images(packed, cap=300) is None:
                    continue  # too large for the quadratic reference
                del calls[:]
                assert _close_images(packed) == {bytes(e) for e in naive_closure(gens)}, gens
                assert calls, gens

    @pytest.mark.parametrize(
        "klass, n",
        [(IdealClass.RIGHT, 4), (IdealClass.LEFT, 5), (IdealClass.RIGHT, 6), (IdealClass.LEFT, 6)],
    )
    def test_cap_is_exact_in_the_orbit_path(self, monkeypatch, klass, n):
        _orbits_for_small_groups(monkeypatch)
        packed = [g.packed() for g in build(klass, n).delta]
        size = bound(klass, n)
        assert _close_images(packed, cap=size - 1) is None
        images = _close_images(packed, cap=size)
        assert isinstance(images, OrbitUnion) and images == expected_semigroup(klass, n).images

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
        assert [len(t) for t in tables] == sizes == _orbit_sizes(k)
        assert len({id(t) for ts in tables for t in ts}) == factorial(k)
        for j in range(k + 1):
            for t in self._maps_with_moved_values(rng, list(moved), fixed, j, 6):
                orbit = _orbit(t, moved)
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
        for j in range(k + 1):
            for t in self._maps_with_moved_values(rng, list(moved), fixed, j, 3):
                listed = _orbit(t, moved)
                for p in permutations(moved):
                    tg = t.translate(bytes.maketrans(moved, bytes(p)))
                    assert _orbit(tg, moved) == listed, (k, t, p)

    def test_representatives_are_the_canonical_forms_of_the_elements(self, monkeypatch):
        # The orbits are seeded from the letters: a word a1...ak lies in the
        # orbit of a1*r, r the representative of the orbit of a2...ak.  Each
        # witness from the third size on takes the orbit path from its
        # letters; its representatives must be those of every element of the
        # closure by the plain passes, its unit group hidden.
        _orbits_for_small_groups(monkeypatch)
        for klass, lo in MIN_N.items():
            for n in range(lo + 2, 8):
                gens = build(klass, n).delta
                images = closure(gens).images
                assert isinstance(images, OrbitUnion), (klass, n)
                with monkeypatch.context() as hidden:
                    hidden.setattr(semigroup, "_symmetric_units", lambda gen_images, cap: None)
                    flat = closure(gens).images
                moved = images.moved
                fixed = bytes(q for q in range(n) if q not in moved)
                canonical = {_canonical(e, fixed, moved)[0] for e in flat}
                assert set(images.representatives) == canonical, (klass, n)
                assert len(images) == len(flat) == bound(klass, n), (klass, n)

    def test_orbit_closure_peaks_far_below_its_flat_maps(self):
        # The right n=7 witness adds whole orbits from its letters on.  It
        # keeps one representative per orbit, 877 of them, and lists none of
        # the 7^6 maps: its traced peak (the set of the distinct products,
        # the representatives and the products of one round) is 3.0% of the
        # maps held flat in one set, as the plain passes hold them.
        gens = build(IdealClass.RIGHT, 7).delta
        tracemalloc.start()
        try:
            images = closure(gens).images
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert isinstance(images, OrbitUnion) and len(images) == 7**6
        flat = set(images)
        held = sys.getsizeof(flat) + sum(map(sys.getsizeof, flat))
        assert peak <= 0.05 * held, peak / held

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_each_distinct_product_is_canonicalised_once(self, monkeypatch, klass):
        # Each representative is multiplied by every letter once, and most
        # products repeat: with its letters the right n=7 witness forms
        # 3,512 maps, 1,425 of them distinct (left 4,395 and 1,426,
        # two-sided 4,248 and 1,161).  A repeat is dropped before its
        # canonical form is taken.
        canonical = _calls(monkeypatch, "_canonical")
        packed = [g.packed() for g in build(klass, 7).delta]
        images = _close_images(packed)
        assert isinstance(images, OrbitUnion), klass
        pad = bytes(256 - 7)
        reps = list(images.representatives)
        distinct = set(packed) | {g.translate(r + pad) for r in reps for g in packed}
        assert len(canonical) == len(distinct) < len(packed) * (len(reps) + 1), klass

    # sha256 of the representatives of each witness closure, joined in the
    # order the orbit path keeps them, and their number, for n = 5..10.
    REPRESENTATIVES = {
        ("right", 5): (52, "28bcceb0153192992c39c2bbf33612d4d50097b27ca32b7ad972a098a7616aa5"),
        ("left", 5): (53, "8aa6682d7594991c287e8e79f2c7fdc3ce7e4d0b9037cd338c51214139e6e4f3"),
        ("two-sided", 5): (46, "76e72d933004ebf3cb281ca2c17fe05a0de1da3046105f562687977ce5cd5132"),
        ("right", 6): (203, "256989ef483fff1ad6e97115b4407a28c4786a6b7cddade6e07016e01dfe7920"),
        ("left", 6): (204, "e9733985e1d08c658764a3dc3eea97f79546a8bfa3b3f6d2f2b485b3580f42c9"),
        ("two-sided", 6): (168, "5bcc7e7b87fe6a94dcfad4e1d297327227874269c1e6e9dec0fcc46c6129d58d"),
        ("right", 7): (877, "44d9acee89a66eaf5bfe5bf169fe0e29d86be9b5b9caa0c017072f7017323bb2"),
        ("left", 7): (878, "92a12946fc0b3d522507388b3d128dbec07e003a9a34924889d3905c05139a44"),
        ("two-sided", 7): (707, "9e6fb235e12502d193e86b9813b2fd29c5734e102d29708975ab3051272b48cb"),
        ("right", 8): (4140, "122ef2912ac9a59f65b8f34d8b8f69e0e4dd589f25ac22103c7a577fa402ab83"),
        ("left", 8): (4141, "a2cb5617539944d22671b9e6220781dee808150cb46d234754679bc58db705f0"),
        ("two-sided", 8): (3328, "fb06c5f05aa1ac32f06292172370b879fe732fb7d88dd89bcf5e7441b7df943b"),
        ("right", 9): (21147, "8c02b465306ae9f6f9612497cc721bf1e7fb365e38e79464104e3c3c4d20602a"),
        ("left", 9): (21148, "bd76d01e280195091de3272b170e261b6c8a5e414676aef8392da4a241163217"),
        ("two-sided", 9): (17136, "2300d25588f5aee09e34e5968146885c16fa2df200320e07090ef3fb1a2584b7"),
        ("right", 10): (115975, "11cdb43530d4161c0f329a3cd53e17b880afc385ffa41c5e8f2b8d1188265390"),
        ("left", 10): (115976, "57436429dc4e8187f416f2ff248d00da9bd11d0f3fd5e95a0cf48df55babd657"),
        ("two-sided", 10): (95085, "19c310b4cba91496f35d696b2a1405b219abb983e55c92c5628b5c38a08284cb"),
    }

    def test_representatives_are_kept_in_one_order(self, monkeypatch):
        # Dropping a repeated product drops only a map whose representative
        # is already kept, so the representatives, and the order in which
        # they are kept and listed, are those of the loop that canonicalises
        # every product.  With the orbit path open to every group size, every
        # witness from n=5 on takes it from its letters.
        _orbits_for_small_groups(monkeypatch)
        for (name, n), (count, digest) in self.REPRESENTATIVES.items():
            klass = IdealClass(name)
            packed = [g.packed() for g in build(klass, n).delta]
            images = _close_images(packed, cap=bound(klass, n))
            assert isinstance(images, OrbitUnion) and len(images) == bound(klass, n), (klass, n)
            reps = list(images.representatives)
            assert len(reps) == count, (klass, n)
            assert hashlib.sha256(b"".join(reps)).hexdigest() == digest, (klass, n)


def _perm(n: int, *cycles: tuple[int, ...]) -> Transformation:
    """The permutation of n states with the given cycles."""
    image = list(range(n))
    for c in cycles:
        for a, b in zip(c, c[1:] + c[:1]):
            image[a] = b
    return Transformation(tuple(image))


def _has_transposition(gens) -> bool:
    """Whether some letter is a permutation that moves exactly two states."""
    return any(
        len(set(g.image)) == g.n and sum(a != q for q, a in enumerate(g.image)) == 2
        for g in gens
    )


class TestSymmetricUnits:
    """Whether a letter is a transposition and the permutation letters
    generate the whole symmetric group on the states they move, decided by
    Jordan's theorem (whether the group is primitive).  Without a
    transposition letter the answer is None, and the closure keeps the
    plain passes.  The listing of ``symmetric_units_by_listing`` is the
    oracle."""

    @staticmethod
    def _decide(gens):
        return _symmetric_units([g.packed() for g in gens], DEFAULT_CAP)

    def test_agrees_with_the_listing_up_to_degree_7(self, monkeypatch):
        # Every draw of _symmetric_unit_cases has a transposition letter;
        # a random map that is a permutation can make the group smaller
        # than Sym of the states it moves.  Beside them, a transposition
        # with random cycles (often intransitive), with random permutations
        # that keep a partition of the states into blocks (imprimitive once
        # transitive), and random cycles of 3 or more states with no
        # transposition, which often generate Sym all the same.
        _orbits_for_small_groups(monkeypatch)
        rng = random.Random(31)
        answers = {True: 0, False: 0}
        unswapped_symmetric = 0
        for n in range(2, 8):
            draws = list(_symmetric_unit_cases(rng, n, 30))
            for _ in range(30):
                a, b = rng.sample(range(n), 2)
                letters = [_perm(n, (a, b))]
                for _ in range(rng.randint(0, 2)):
                    letters.append(_perm(n, tuple(rng.sample(range(n), rng.randint(2, n)))))
                draws.append(letters)
            for size in (d for d in (2, 3) if 2 * d <= n):
                for _ in range(15):
                    states = rng.sample(range(n), size * rng.randint(2, n // size))
                    blocks = [states[i : i + size] for i in range(0, len(states), size)]
                    letters = [_perm(n, tuple(blocks[0][:2]))]
                    for _ in range(rng.randint(1, 2)):
                        image = list(range(n))
                        targets = rng.sample(blocks, len(blocks))
                        for block, target in zip(blocks, targets):
                            for q, r in zip(block, rng.sample(target, size)):
                                image[q] = r
                        letters.append(Transformation(tuple(image)))
                    draws.append(letters)
            for _ in range(15 if n >= 3 else 0):
                draws.append(
                    [
                        _perm(n, tuple(rng.sample(range(n), rng.randint(3, n))))
                        for _ in range(rng.randint(1, 3))
                    ]
                )
            for gens in draws:
                rng.shuffle(gens)
                listed = symmetric_units_by_listing(gens)
                want = listed if _has_transposition(gens) else None
                assert self._decide(gens) == want, gens
                answers[want is not None] += 1
                unswapped_symmetric += listed is not None and want is None
        assert min(answers.values()) >= 30 and unswapped_symmetric >= 10, (
            answers, unswapped_symmetric
        )

    def test_symmetric_units_without_a_transposition_keep_the_plain_passes(
        self, monkeypatch
    ):
        # A 5-cycle and a 4-cycle generate Sym(5), which the listing finds,
        # but no letter is a transposition: the closure keeps the plain
        # passes and returns a set.
        orbits = _calls(monkeypatch, "_close_by_orbits")
        gens = [_perm(5, (0, 1, 2, 3, 4)), _perm(5, (0, 1, 2, 3))]
        assert symmetric_units_by_listing(gens) == bytes(range(5))
        assert self._decide(gens) is None
        images = closure(gens).images
        assert type(images) is set and images == {bytes(e) for e in naive_closure(gens)}
        assert len(images) == 120 and orbits == []

    def test_imprimitive_and_alternating_groups_are_rejected(self, monkeypatch):
        # Sym(2) wr Sym(3) on the blocks {0,1}, {2,3}, {4,5}: transitive,
        # with the transposition (0 1), but 48 of 720 permutations.
        _orbits_for_small_groups(monkeypatch)
        wreath = [_perm(6, (0, 1)), _perm(6, (0, 2, 4), (1, 3, 5)), _perm(6, (0, 2), (1, 3))]
        assert symmetric_units_by_listing(wreath) is None
        assert not _primitive([g.packed() + bytes(250) for g in wreath], bytes(range(6)))
        assert self._decide(wreath) is None
        # A_m is primitive, so only a transposition letter lets primitivity
        # decide: with none the answer is None.
        for m in (5, 6, 7):
            alternating = [_perm(m, (0, 1, 2)), _perm(m, tuple(range(m % 2 == 0, m)))]
            padded = [g.packed() + bytes(256 - m) for g in alternating]
            assert _primitive(padded, bytes(range(m))), m
            assert symmetric_units_by_listing(alternating) is None, m
            assert self._decide(alternating) is None, m
            with_swap = [*alternating, _perm(m, (0, 1))]
            assert self._decide(with_swap) == bytes(range(m)), m

    @pytest.mark.parametrize(
        "klass, moved",
        [
            (IdealClass.RIGHT, range(9)),
            (IdealClass.LEFT, range(1, 10)),
            (IdealClass.TWO_SIDED, range(1, 9)),
        ],
    )
    def test_witness_units_are_decided_without_the_group(self, klass, moved):
        # Sym(9) (right and left at n=10) has 362,880 elements, about 30 MB
        # listed; the primitivity test allocates a few union-find lists.
        packed = [g.packed() for g in build(klass, 10).delta]
        tracemalloc.start()
        try:
            decided = _symmetric_units(packed, bound(klass, 10))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert decided == bytes(moved)
        assert peak < 100_000, peak

    def test_the_existing_limits_still_hold(self):
        # A transposition does not lift the limits: fewer than
        # ORBIT_MIN_STATES moved states, or |M|! over the cap.
        k = semigroup.ORBIT_MIN_STATES
        small = [_perm(k - 1, (0, 1)), _perm(k - 1, tuple(range(k - 1)))]
        assert _symmetric_units([g.packed() for g in small], DEFAULT_CAP) is None
        gens = [_perm(6, (0, 1)), _perm(6, tuple(range(6)))]
        packed = [g.packed() for g in gens]
        assert _symmetric_units(packed, 719) is None
        assert _symmetric_units(packed, 720) == bytes(range(6))


class TestOrbitUnion:
    """The result of an orbit-path closure: one representative per orbit of
    the unit group, with the elements listed on demand.  Whatever it is
    compared with, it must answer as the flat set of its elements would."""

    def test_membership_agrees_with_naive_closure_on_every_map(self, monkeypatch):
        _orbits_for_small_groups(monkeypatch)
        rng = random.Random(29)
        unions = 0
        for n in range(2, 6):
            everything = _all_maps(n)
            for gens in _symmetric_unit_cases(rng, n, 6):
                packed = [g.packed() for g in gens]
                if _close_images(packed, cap=300) is None:
                    continue  # too large for the quadratic reference
                images = _close_images(packed)
                assert isinstance(images, OrbitUnion), gens
                unions += 1
                expected = {bytes(e) for e in naive_closure(gens)}
                assert {e for e in everything if e in images} == expected, gens
                assert len(images) == len(expected), gens
                member = bytes(next(iter(expected)))
                assert bytes(member) + b"\0" not in images
                assert member[:-1] not in images
                assert list(member) not in images and bytearray(member) not in images
                assert None not in images and b"" not in images
                # Each byte >= n once, in place of a member's value.
                for q in range(n):
                    for v in (n, n + 1, 255):
                        e = bytearray(member)
                        e[q] = v
                        assert bytes(e) not in images, (gens, q, v)
        assert unions >= 10, unions

    def test_a_byte_past_the_states_is_no_member(self):
        # Canonical form alone would renumber 200 onto state 0 and read the
        # identity: the guard, not the lookup, rejects it.
        images = closure(build(IdealClass.RIGHT, 8).delta).images
        assert isinstance(images, OrbitUnion)
        assert bytes(range(8)) in images
        assert bytes([200, 1, 2, 3, 4, 5, 6, 7]) not in images
        assert bytes([0, 1, 2, 3, 4, 5, 6, 8]) not in images

    def test_iteration_lists_len_distinct_maps(self):
        for klass, n in ((IdealClass.RIGHT, 5), (IdealClass.LEFT, 5), (IdealClass.TWO_SIDED, 6)):
            images = closure(build(klass, n).delta).images
            assert isinstance(images, OrbitUnion), (klass, n)
            listed = list(images)
            assert len(listed) == len(set(listed)) == len(images) == bound(klass, n), (klass, n)
            assert all(e in images for e in listed), (klass, n)

    @pytest.mark.parametrize("klass", list(IdealClass))
    def test_comparisons_in_both_directions(self, klass):
        gens = build(klass, 6).delta
        images = closure(gens).images
        again = closure(gens[::-1]).images
        assert isinstance(images, OrbitUnion) and isinstance(again, OrbitUnion)
        flat = set(images)
        closed_form = expected_semigroup(klass, 6).images
        for other in (flat, frozenset(flat), closed_form, again):
            assert images == other and other == images, type(other)
            assert not images != other and not other != images, type(other)
        smaller = set(flat)
        smaller.pop()
        outside = next(e for e in map(bytes, product(range(6), repeat=6)) if e not in flat)
        larger = flat | {outside}
        for other in (smaller, frozenset(smaller), larger, frozenset(larger)):
            assert images != other and other != images
            assert not images == other and not other == images
        assert images != list(flat) and images != None  # noqa: E711

    def test_set_operators_build_frozensets(self):
        images = closure(build(IdealClass.RIGHT, 5).delta).images
        flat = set(images)
        outside = {bytes(5), bytes([4, 3, 2, 1, 0])}
        some = set(list(flat)[:7])
        for result, expected in (
            (images & (some | outside), some),
            ((some | outside) & images, some),
            (images | outside, flat | outside),
            (outside | images, flat | outside),
            (images - some, flat - some),
            ((some | outside) - images, outside),
        ):
            assert type(result) is frozenset and result == expected
        # equal_up_to_relabeling intersects the generators with the images.
        s = closure(build(IdealClass.RIGHT, 5).delta)
        assert semigroup.equal_up_to_relabeling(s, s) == tuple(range(5))

    def test_equality_with_a_closed_form_tests_representatives_or_each_element(
        self, monkeypatch
    ):
        # collections.abc.Set.__eq__ would test each element of one side in
        # the other: on the right n=8 witness, 2.1M calls of
        # ClosedForm.__contains__.  A closed form invariant under the
        # union's group tests only the representatives: 877 (right) and 878
        # (left) at n=7.  A set, or a form that is not invariant, is tested
        # one element at a time, at most one call per element, and stops at
        # the first element outside the form.
        calls = [0]
        real = ClosedForm.__contains__

        def counted(self, e):
            calls[0] += 1
            return real(self, e)

        monkeypatch.setattr(ClosedForm, "__contains__", counted)

        def compare(a, b, equal, most):
            for same in (a == b, b == a, not a != b, not b != a):
                assert same is equal, (type(a), type(b))
            # Four comparisons, each at most ``most`` calls.
            assert calls[0] <= 4 * most, calls[0]
            calls[0] = 0

        for klass in (IdealClass.RIGHT, IdealClass.LEFT):
            images = closure(build(klass, 7).delta).images
            assert isinstance(images, OrbitUnion), klass
            closed_form = expected_semigroup(klass, 7).images
            assert closed_form.invariant_under(images.moved)
            flat = set(images)
            calls[0] = 0
            compare(images, closed_form, True, len(images.representatives))
            compare(flat, closed_form, True, len(flat))
            flat.pop()
            # Outside both forms: it moves state 0 and state 6 and is no
            # constant.
            flat.add(bytes([1, 0, 2, 3, 4, 5, 5]))
            compare(flat, closed_form, False, len(flat))
        # The maps fixing state 0 number 7^6, as the right witness's
        # semigroup does, but its units Sym(0..5) move state 0.
        images = closure(build(IdealClass.RIGHT, 7).delta).images
        fixing_0 = ClosedForm(7, [([0], range(7), range(7))])
        assert len(fixing_0) == len(images) and not fixing_0.invariant_under(images.moved)
        compare(images, fixing_0, False, len(images))

    def test_moved_states_and_representatives_are_read_only(self):
        images = closure(build(IdealClass.LEFT, 7).delta).images
        assert isinstance(images, OrbitUnion)
        assert images.moved == bytes(range(1, 7)) and len(images.representatives) == 878
        for name in ("moved", "representatives"):
            with pytest.raises(AttributeError):
                setattr(images, name, b"")
        assert not hasattr(images.representatives, "add")

    @pytest.mark.parametrize("n", [6, 7, 8])
    def test_equality_from_representatives_agrees_with_every_element(self, n):
        # The closed form decides equality with a union from its
        # representatives; element by element it must agree, on
        # the closures and on unions with one orbit dropped or one
        # representative swapped for a non-member's of the same orbit size.
        for klass in IdealClass:
            images = closure(build(klass, n).delta).images
            closed_form = expected_semigroup(klass, n).images
            assert isinstance(images, OrbitUnion) and images == closed_form, (klass, n)
            moved = images.moved
            fixed = bytes(q for q in range(n) if q not in moved)
            reps = dict(images._reps)
            rep, j = reps.popitem()
            dropped = OrbitUnion(n, moved, reps, len(images) - _orbit_sizes(len(moved))[j])
            # The first map with one state's value changed whose orbit has
            # rep's size and lies outside the form.
            changed = (rep[:q] + bytes([v]) + rep[q + 1 :] for q in range(n) for v in range(n))
            foreign = next(
                r
                for r, k in (_canonical(e, fixed, moved) for e in changed)
                if k == j and r not in closed_form
            )
            swapped = OrbitUnion(n, moved, {**reps, foreign: j}, len(images))
            for union, equal in ((images, True), (dropped, False), (swapped, False)):
                by_elements = len(union) == closed_form.size and all(
                    e in closed_form for e in union
                )
                assert (closed_form == union) is (union == closed_form) is by_elements is equal

    def test_a_missing_or_foreign_orbit_is_noticed(self):
        # A union with one representative dropped (its size taken off), or
        # swapped for a non-member's of an orbit of the same size, must
        # differ from the closure on every comparison.
        images = closure(build(IdealClass.RIGHT, 5).delta).images
        assert isinstance(images, OrbitUnion)
        moved, fixed = bytes(range(4)), bytes([4])
        sizes = _orbit_sizes(4)
        flat = set(images)
        closed_form = expected_semigroup(IdealClass.RIGHT, 5).images
        reps = dict(images._reps)
        rep, j = next(iter(reps.items()))
        del reps[rep]
        dropped = OrbitUnion(5, moved, reps, len(images) - sizes[j])
        # The right witness fixes state 4; a map moving it is outside.
        foreign, k = _canonical(bytes([0, 1, 2, 3, 0]), fixed, moved)
        assert foreign not in images._reps
        swapped = dict(images._reps)
        del swapped[next(r for r, i in swapped.items() if i == k)]
        swapped[foreign] = k
        swapped = OrbitUnion(5, moved, swapped, len(images))
        for mutant in (dropped, swapped):
            for other in (images, flat, frozenset(flat), closed_form):
                assert mutant != other and other != mutant
                assert not mutant == other and not other == mutant
        assert rep not in dropped and foreign in swapped and foreign not in images


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


class TestJClasses:
    """``_j_classes`` reads the classes and up-sets from principal-ideal
    masks; ``j_classes_by_ideals`` lists each ideal S¹eS¹ product by
    product.  The classes and up-sets must be equal, and the order a linear
    extension of the J-order read top-down: no class comes after a class
    below it."""

    @staticmethod
    def _semigroups():
        for klass, lo in MIN_N.items():
            for n in range(lo, 5):
                yield transition_semigroup(build(klass, n))
        # Random semigroups of 10 to 100 elements, 100 being the generator
        # search's budget.
        rng = random.Random(41)
        drawn = 0
        while drawn < 200:
            n = rng.randrange(3, 6)
            gens = [random_transformation(rng, n) for _ in range(rng.randrange(2, 4))]
            try:
                s = closure(gens, cap=100)
            except CapExceeded:
                continue
            if s.size >= 10:
                drawn += 1
                yield s

    def test_agrees_with_listed_ideals_in_a_top_down_order(self):
        sizes = []
        for s in self._semigroups():
            got = _j_classes(s)
            want = j_classes_by_ideals(s)
            assert len(got) == len(want) and dict(got) == dict(want), s.generators
            for i, (members, up_set) in enumerate(got):
                # A later class is never above an earlier one.
                for later, _ in got[i + 1 :]:
                    assert later.isdisjoint(up_set), s.generators
            sizes.append(s.size)
        assert len(sizes) == 211 and max(sizes) == 100, sizes


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

    def test_a_union_relabels_as_its_frozenset_does(self, monkeypatch):
        # An OrbitUnion is conjugated from its representatives: the search
        # must answer on it as on its maps held flat, on a target conjugated
        # by a transposition that moves the union's states M off themselves,
        # and answer None once one map of that target (not a generator's
        # conjugate) is swapped for a non-member.  At n=5 every permutation
        # is tried, beyond it those fixing all but the transposed states.
        _orbits_for_small_groups(monkeypatch)
        rng = random.Random(41)
        for klass in IdealClass:
            for n in (5, 6, 7):
                s = closure(build(klass, n).delta)
                assert isinstance(s.images, OrbitUnion), (klass, n)
                flat = TransformationSemigroup(n, frozenset(s.images), s.generators)
                moved = s.images.moved
                i = rng.choice([q for q in range(n) if q not in moved])
                j = rng.choice(moved)
                perm = list(range(n))
                perm[i], perm[j] = j, i
                fixed = [] if n == 5 else [q for q in range(n) if q not in (i, j)]
                conjugate_images = reference_conjugated_images(flat.images, perm)
                target = TransformationSemigroup(n, conjugate_images, s.generators)
                found = equal_up_to_relabeling(s, target, fixed)
                assert found is not None, (klass, n)
                assert found == equal_up_to_relabeling(flat, target, fixed), (klass, n)
                moved_gens = {conjugate(g, perm).packed() for g in s.generators}
                dropped = min(conjugate_images - moved_gens)
                maps = map(bytes, product(range(n), repeat=n))
                added = next(e for e in maps if e not in conjugate_images)
                swapped = TransformationSemigroup(
                    n, (conjugate_images - {dropped}) | {added}, s.generators
                )
                assert equal_up_to_relabeling(s, swapped, fixed) is None, (klass, n)
                assert equal_up_to_relabeling(flat, swapped, fixed) is None, (klass, n)


class TestConjugatedImages:
    def test_matches_state_by_state_conjugation(self):
        rng = random.Random(5)
        for i in range(240):
            n = 1 + i % 6
            s = closure([random_transformation(rng, n) for _ in range(rng.randint(1, 2))])
            perm = list(range(n)) if i % 12 < 6 else rng.sample(range(n), n)
            assert _conjugated_images(s.images, perm) == reference_conjugated_images(s.images, perm)

    def test_a_union_conjugates_to_the_union_of_the_conjugates(self, monkeypatch):
        # With the orbit path open to every group size, every witness from
        # n=5 on closes to an OrbitUnion.  Each is conjugated by random permutations and by the
        # transposition of each fixed state with a moved one, which moves
        # the union's states M off themselves.
        _orbits_for_small_groups(monkeypatch)
        rng = random.Random(37)
        for klass in IdealClass:
            for n in (5, 6, 7):
                union = closure(build(klass, n).delta).images
                assert isinstance(union, OrbitUnion), (klass, n)
                flat = frozenset(union)
                moved = union.moved
                perms = [rng.sample(range(n), n) for _ in range(3)]
                for q in range(n):
                    if q not in moved:
                        perm = list(range(n))
                        m = rng.choice(moved)
                        perm[q], perm[m] = m, q
                        perms.append(perm)
                for perm in perms:
                    image = _conjugated_images(union, perm)
                    assert isinstance(image, OrbitUnion), (klass, n, perm)
                    assert image.moved == bytes(sorted(perm[q] for q in moved)), (klass, n, perm)
                    want = reference_conjugated_images(flat, perm)
                    assert len(image) == len(want) and frozenset(image) == want, (klass, n, perm)
                    assert image == want, (klass, n, perm)

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
