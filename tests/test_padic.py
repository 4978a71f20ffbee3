import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padicprob.errors import PrecisionError, PrimeMismatchError
from padicprob.padic import (
    CharacterSum,
    PAdicNumber,
    Phase,
    _check_prime,
    format_padic,
    from_rational,
    parse_number,
    parse_padic,
    rational_char_phase,
)

PRIMES = (2, 3, 5)


def test_check_prime_rejects_with_the_value_named():
    # is_prime is memoised; True and 1 share a cache key, 2.0 and 2 too
    for good in (2, 3, 5, 7919):
        _check_prime(good)
    for bad in (1, True, False, 0, -3, 4, 7917, 2.0, Fraction(3), "3", None):
        with pytest.raises(ValueError, match="^" + re.escape(f"not a prime: {bad!r}") + "$"):
            _check_prime(bad)


def test_from_rational_12_base2():
    x = from_rational(12, p=2)
    assert x.valuation == 2
    assert x.digits[:2] == (1, 1)
    assert x.abs_value() == Fraction(1, 4)


def test_from_rational_third_base3():
    x = from_rational(1, 3, p=3)
    assert x.valuation == -1
    assert x.digits[0] == 1
    assert set(x.digits[1:]) == {0}


def test_minus_one_all_top_digits():
    x = from_rational(-1, p=5, precision=30)
    assert x.valuation == 0
    assert set(x.digits) == {4}
    # oracle: adding one must cancel through the whole window
    s = x + PAdicNumber.one(5, precision=30)
    assert s.is_zero
    assert s.precision >= 30


def test_add_carry_base3():
    s = from_rational(1, p=3) + from_rational(2, p=3)
    assert s.valuation == 1
    assert s.digits[0] == 1


def test_add_inverse_gives_zero():
    x = from_rational(17, 3, p=5)
    assert (x + (-x)).is_zero


def test_halves_sum_to_one():
    s = from_rational(1, 2, p=2) + from_rational(1, 2, p=2)
    assert s.valuation == 0
    assert s.digits[0] == 1
    assert all(d == 0 for d in s.digits[1:])


def test_mul_valuations_add():
    x = from_rational(3, p=3)  # |x| = 1/3
    y = from_rational(9, p=3)  # |y| = 1/9
    assert (x * y).abs_value() == Fraction(1, 27)


def test_invert_third_base2():
    inv = from_rational(3, p=2).invert()
    assert inv.digits[:6] == (1, 1, 0, 1, 0, 1)
    back = inv * from_rational(3, p=2)
    diff = back + from_rational(-1, p=2)
    assert diff.is_zero


def test_mul_identity():
    x = from_rational(7, 5, p=3)
    assert x * PAdicNumber.one(3) == x


def test_abs_values():
    assert PAdicNumber.zero(7).abs_value() == 0
    assert from_rational(12, p=2).abs_value() == Fraction(1, 4)
    assert from_rational(1, 3, p=3).abs_value() == 3


def test_frac_part_examples():
    assert from_rational(7, p=5).frac_part() == 0
    assert from_rational(1, 3, p=3).frac_part() == Fraction(1, 3)
    # 5/9 = 3**-2 (2 + 1*3 + ...): fractional part keeps both low digits
    assert from_rational(5, 9, p=3).frac_part() == Fraction(5, 9)


def test_frac_part_insufficient_precision():
    x = PAdicNumber.from_digits(2, -5, (1, 1))
    with pytest.raises(PrecisionError):
        x.frac_part()


def test_character_examples():
    assert from_rational(1, 3, p=3).character_phase().as_fraction() == Fraction(1, 3)
    assert from_rational(5, p=3).character_phase().is_zero
    h = from_rational(1, 2, p=2)
    assert (h + h).character_phase().is_zero


def test_prime_mismatch():
    with pytest.raises(PrimeMismatchError):
        from_rational(1, p=2) + from_rational(1, p=3)


def test_parse_format_roundtrip():
    x = from_rational(-7, 6, p=3, precision=12)
    assert parse_padic(format_padic(x)) == x
    y = parse_number("5/9 @ p=3")
    assert y.frac_part() == Fraction(5, 9)
    assert parse_number(format_padic(PAdicNumber.zero(5))).is_zero


def test_invert_zero_raises():
    with pytest.raises(ZeroDivisionError):
        PAdicNumber.zero(3).invert()


def test_from_rational_rejects_bad_inputs():
    with pytest.raises(ValueError):
        from_rational(1, p=4)
    with pytest.raises(ValueError):
        from_rational(1, p=2, precision=0)
    with pytest.raises(ZeroDivisionError):
        from_rational(1, 0, p=2)


rationals = st.tuples(
    st.integers(min_value=-500, max_value=500).filter(bool),
    st.integers(min_value=1, max_value=500),
)


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), a=rationals, b=rationals)
def test_ultrametric_inequality(p, a, b):
    x = from_rational(a[0], a[1], p=p)
    y = from_rational(b[0], b[1], p=p)
    s = x + y
    assert s.abs_value() <= max(x.abs_value(), y.abs_value())
    if x.abs_value() != y.abs_value():
        assert s.abs_value() == max(x.abs_value(), y.abs_value())


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), a=rationals, b=rationals)
def test_multiplicativity(p, a, b):
    x = from_rational(a[0], a[1], p=p)
    y = from_rational(b[0], b[1], p=p)
    assert (x * y).abs_value() == x.abs_value() * y.abs_value()


@settings(max_examples=150, deadline=None)
@given(p=st.sampled_from(PRIMES), a=rationals, b=rationals)
def test_character_homomorphism(p, a, b):
    x = from_rational(a[0], a[1], p=p)
    y = from_rational(b[0], b[1], p=p)
    lhs = (x + y).character_phase().as_fraction()
    rhs = (
        x.character_phase().as_fraction() + y.character_phase().as_fraction()
    ) % 1
    assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), a=rationals, c=rationals)
def test_character_local_constancy(p, a, c):
    x = from_rational(a[0], a[1], p=p)
    shift = from_rational(c[0], c[1], p=p)
    if shift.abs_value() <= 1:
        assert (x + shift).character_phase() == x.character_phase()


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), a=rationals)
def test_rational_round_trip(p, a):
    num, den = a
    x = from_rational(num, den, p=p, precision=40)
    resid = x.mul_rational(den) + from_rational(-num, p=p, precision=48)
    assert resid.abs_value() <= Fraction(p) ** (-(40 - 10))


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from(PRIMES), a=rationals)
def test_rational_char_phase_agrees(p, a):
    r = Fraction(a[0], a[1])
    assert rational_char_phase(r, p) == from_rational(
        a[0], a[1], p=p
    ).character_phase()


def test_character_sum_symmetric_pairing_is_real():
    cs = CharacterSum.single(Phase(3, 1, 1), Fraction(2, 7)) + CharacterSum.single(
        Phase(3, 2, 1), Fraction(2, 7)
    )
    assert cs.to_complex().imag == 0.0


def test_character_sum_algebra():
    p = 2
    one = CharacterSum.constant(p, Fraction(1))
    shifted = one.rotate(Phase(p, 1, 1))
    assert shifted.to_complex() == complex(-1.0, 0.0)
    cancel = shifted + shifted.scale(-1)
    assert not cancel
    assert (one + one.scale(-1)).to_complex() == 0j
