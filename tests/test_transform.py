import pytest

from synideal.transform import (
    NotationError,
    Transformation,
    compose,
    conjugate,
    constant,
    cycle,
    format_notation,
    identity,
    parse_notation,
    point,
)

from oracles import classify_shape, full_monoid_generators, is_initially_aperiodic


def T(*image):
    return Transformation(tuple(image))


class TestCompose:
    def test_basic(self):
        assert compose(T(1, 2, 0), T(0, 0, 2)) == T(0, 2, 0)

    def test_identity_then_constant(self):
        assert compose(identity(3), T(2, 2, 2)) == T(2, 2, 2)

    def test_iterated(self):
        t = T(1, 2, 2)
        assert compose(compose(t, t), t) == T(2, 2, 2)

    def test_order_is_left_first(self):
        s, t = T(1, 0), T(0, 0)
        # 0 s = 1, then 1 t = 0
        assert compose(s, t).image[0] == 0
        assert (s * t) == compose(s, t)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            compose(T(0, 1), T(0, 1, 2))


class TestValidation:
    def test_entry_out_of_range(self):
        with pytest.raises(ValueError):
            T(0, 3, 1)

    def test_empty(self):
        with pytest.raises(ValueError):
            Transformation(())

    def test_equality_requires_same_n(self):
        assert T(0, 1) != T(0, 1, 2)


class TestParse:
    def test_transposition(self):
        assert parse_notation("(0,1)", 3) == T(1, 0, 2)

    def test_constant(self):
        assert parse_notation("(Q->1)", 4) == T(1, 1, 1, 1)

    def test_point(self):
        assert parse_notation("(2->0)", 4) == T(0, 1, 0, 3)

    def test_one_line(self):
        assert parse_notation("[1, 2, 0]", 3) == T(1, 2, 0)

    def test_identity(self):
        assert parse_notation("1", 3) == identity(3)

    def test_cycle_acts_as_identity_outside(self):
        assert parse_notation("(1,3)", 5) == T(0, 3, 2, 1, 4)

    def test_whitespace_insensitive(self):
        assert parse_notation(" ( Q -> 2 ) ", 3) == T(2, 2, 2)

    @pytest.mark.parametrize(
        "bad", ["", "()", "(0)", "[0,1", "(0,1,1)", "(5->0)", "[0,1,2,3]", "(Q->9)", "x"]
    )
    def test_malformed(self, bad):
        with pytest.raises((NotationError, ValueError)):
            parse_notation(bad, 3)

    @pytest.mark.parametrize(
        "text", ["(0 -> \u00b2)", "(\u00b2 -> 0)", "(Q -> \u00b2)", "(0, \u00b2)", "[0, \u00b2, 1]"]
    )
    def test_superscript_digit_is_a_notation_error(self, text):
        # '\u00b2'.isdigit() holds but int('\u00b2') raises ValueError.
        with pytest.raises(NotationError, match="bad state index"):
            parse_notation(text, 3)

    def test_decimal_digits_of_other_scripts_are_indices(self):
        assert parse_notation("(0 -> \u0662)", 3) == T(2, 1, 2)
        assert parse_notation("[\u0661, \u0662, 0]", 3) == T(1, 2, 0)

    def test_round_trip_all_grammars(self):
        for text in ["1", "[2,0,1]", "(0,2)", "(Q->0)", "(1->2)"]:
            t = parse_notation(text, 3)
            assert parse_notation(format_notation(t), 3) == t


class TestInitiallyAperiodic:
    def test_transposition_is_not(self):
        assert not is_initially_aperiodic(cycle(2, (0, 1)), 0)

    def test_identity_is(self):
        assert is_initially_aperiodic(identity(4), 2)

    def test_climbing_orbit(self):
        assert is_initially_aperiodic(T(1, 2, 2), 0)

    def test_enters_cycle_late(self):
        # orbit from 0: 0, 1, 2, 1, 2, ... period 2
        assert not is_initially_aperiodic(T(1, 2, 1), 0)
        # but from 2 it is still periodic
        assert not is_initially_aperiodic(T(1, 2, 1), 2)


class TestShape:
    def test_constant(self):
        s = classify_shape(T(1, 1, 1))
        assert s.is_constant and not s.has_cycle
        assert s.fixed_points == (1,)

    def test_transposition(self):
        s = classify_shape(T(1, 0, 2))
        assert s.has_cycle and s.cycles == ((0, 1),)
        assert s.fixed_points == (2,)

    def test_three_cycle(self):
        s = classify_shape(T(1, 2, 0, 3))
        assert s.cycles == ((0, 1, 2),)
        assert s.fixed_points == (3,)

    def test_identity(self):
        s = classify_shape(identity(3))
        assert s.is_identity and not s.has_cycle and s.fixed_points == (0, 1, 2)

    def test_two_cycles(self):
        s = classify_shape(T(1, 0, 3, 2))
        assert s.cycles == ((0, 1), (2, 3))


class TestHelpers:
    def test_constant_builder(self):
        assert constant(4, 1) == T(1, 1, 1, 1)

    def test_point_builder(self):
        assert point(4, 2, 3) == T(0, 1, 3, 3)

    def test_cycle_builder(self):
        assert cycle(4, (1, 2, 3)) == T(0, 2, 3, 1)

    def test_cycle_rejects_repeats(self):
        with pytest.raises(ValueError):
            cycle(4, (1, 1))

    def test_conjugate(self):
        # swap states 1 and 2 in [1,2,0]
        assert conjugate(T(1, 2, 0), (0, 2, 1)) == T(2, 0, 1)

    def test_conjugate_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            conjugate(T(0, 1), (0, 0))

    def test_full_monoid_generators_small(self):
        assert full_monoid_generators(1) == [identity(1)]
        gens = full_monoid_generators(3)
        assert gens[0] == T(1, 2, 0) and gens[1] == T(1, 0, 2) and gens[2] == T(0, 1, 0)
