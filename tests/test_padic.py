import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evaluators import empirical_cf
from padicprob.charfn import HaarUniform, PointMass
from padicprob.errors import PrecisionError, PrimeMismatchError
from padicprob.levy import levy_exponent_exact, make_measure
from padicprob.padic import (
    DEFAULT_PRECISION,
    CharacterSum,
    PAdicNumber,
    _check_prime,
    character_value,
    chi,
    format_padic,
    from_rational,
    grid_points,
    parse_number,
    parse_padic,
    rational_char_phase,
)
from padicprob.residues import PhaseTable, character_values
from padicprob.sets import Ball, TailSet, integrate_char_exact, split_sphere

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
    s = x + from_rational(1, p=5, precision=30)
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
    assert x * from_rational(1, p=3) == x


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


# Every exact phase path meets the one window check at its edge: each
# case needs `need` digits below the unit scale and is run on a digit
# window w wide (the window of t, or of the sample for empirical_cf).
def _q(num, den, w=DEFAULT_PRECISION):
    return from_rational(num, den, p=3, precision=w)


_BALL = Ball(3, Fraction(1, 9), -3)
_MEASURE = make_measure(
    3, Fraction(1, 2), 3, (((split_sphere(0, 4, 3)[7], Fraction(1, 7)),),)
)
_WINDOW_PATHS = {
    "character_phase": (3, lambda w: _q(-5, 27, w).character_phase()),
    "frac_part": (3, lambda w: _q(-5, 27, w).frac_part()),
    "integrate_char_exact": (3, lambda w: integrate_char_exact(_BALL, _q(-5, 3, w))),
    "HaarUniform": (3, lambda w: HaarUniform(_BALL)(_q(-5, 3, w))),
    "PointMass": (3, lambda w: PointMass(_q(1, 9))(_q(-5, 3, w))),
    "levy_exponent_exact": (4, lambda w: levy_exponent_exact(_MEASURE, _q(-5, 9, w))),
    "empirical_cf": (3, lambda w: empirical_cf([_q(-5, 9, w)], _q(1, 3))),
}


@pytest.mark.parametrize("path", sorted(_WINDOW_PATHS))
def test_phase_window_edge(path):
    need, value = _WINDOW_PATHS[path]
    text = f"^need {need} digits below the unit scale, have {need - 1}$"
    with pytest.raises(PrecisionError, match=text):
        value(need - 1)
    # at the exact width the answer is the one every wider window gives
    assert value(need) == value(DEFAULT_PRECISION)


def test_character_examples():
    assert from_rational(1, 3, p=3).character_phase() == (1, 1)
    assert from_rational(5, p=3).character_phase() == (0, 0)
    h = from_rational(1, 2, p=2)
    assert (h + h).character_phase() == (0, 0)


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


# Every way the constructor rejects integer fields (and a prime of any
# type), with its exception and exact text, in the order the checks run:
# the prime first, then the zero element's unit, then a nonzero value's
# precision, unit range and leading digit.
CONSTRUCTOR_REJECTS = [
    ((4, 0, 1, 48), "not a prime: 4"),
    ((1, 0, 1, 48), "not a prime: 1"),
    ((0, None, 0, None), "not a prime: 0"),
    ((-3, 0, 1, 48), "not a prime: -3"),
    ((True, 0, 1, 48), "not a prime: True"),
    ((2.0, 0, 1, 48), "not a prime: 2.0"),
    ((Fraction(3), 0, 1, 48), "not a prime: Fraction(3, 1)"),
    (("3", 0, 1, 48), "not a prime: '3'"),
    ((None, 0, 1, 48), "not a prime: None"),
    ((4, None, 5, None), "not a prime: 4"),
    ((3, None, 1, None), "zero element must have unit 0"),
    ((3, None, -2, 5), "zero element must have unit 0"),
    ((3, 0, 1, None), "nonzero value needs precision >= 1"),
    ((3, 0, 1, 0), "nonzero value needs precision >= 1"),
    ((3, -2, 5, -1), "nonzero value needs precision >= 1"),
    ((3, 0, 0, 0), "nonzero value needs precision >= 1"),
    ((3, 0, 0, 5), "unit out of range for stated precision"),
    ((3, 0, -1, 5), "unit out of range for stated precision"),
    ((3, 0, 27, 3), "unit out of range for stated precision"),
    ((3, 0, 3, 1), "unit out of range for stated precision"),
    ((3, 0, 3, 2), "leading digit must be nonzero"),
    ((2, 4, 2, 2), "leading digit must be nonzero"),
    ((5, -7, 25, 48), "leading digit must be nonzero"),
]


@pytest.mark.parametrize("fields, text", CONSTRUCTOR_REJECTS)
def test_constructor_rejects_with_the_same_text(fields, text):
    with pytest.raises(ValueError, match="^" + re.escape(text) + "$") as info:
        PAdicNumber(*fields)
    assert type(info.value) is ValueError
    keywords = dict(zip(("prime", "valuation", "unit", "precision"), fields))
    with pytest.raises(ValueError, match="^" + re.escape(text) + "$"):
        PAdicNumber(**keywords)


@pytest.mark.parametrize("fields, name", [
    ((3, 0.5, 1, 48), "valuation"),
    ((3, True, 1, 48), "valuation"),
    ((3, np.int64(2), 1, 48), "valuation"),
    ((3, 0, 1.0, 48), "unit"),
    ((3, 0, np.int64(1), 48), "unit"),
    ((3, None, False, None), "unit"),
    ((3, None, 0.0, 4), "unit"),
    ((3, 0, 1, 2.5), "precision"),
    ((3, 0, 1, True), "precision"),
    ((3, None, 0, 2.0), "precision"),
])
def test_constructor_rejects_fields_that_are_not_ints(fields, name):
    # PAdicNumber(3, 0.5, 1, 48) used to build, with known_mod_exp 48.5
    with pytest.raises(TypeError, match=f"^{name} must be an int"):
        PAdicNumber(*fields)


def test_constructor_allows_the_certified_zero_nones():
    assert PAdicNumber(3, None, 0, None) == PAdicNumber.zero(3)
    assert PAdicNumber(3, None, 0, -2).known_mod_exp == -2
    assert PAdicNumber(3, -2, 2, 1).known_mod_exp == -1


def test_constructor_keeps_the_dataclass_behaviour():
    import copy
    import dataclasses
    import pickle

    x = PAdicNumber(3, 5, 7, 48)
    z = PAdicNumber(3, None, 0, 4)
    assert x == PAdicNumber(prime=3, valuation=5, unit=7, precision=48)
    assert x != PAdicNumber(3, 5, 7, 47) and z != PAdicNumber.zero(3)
    assert hash(x) == hash((3, 5, 7, 48))
    assert hash(z) == hash((3, None, 0, 4))
    assert [f.name for f in dataclasses.fields(x)] == [
        "prime", "valuation", "unit", "precision"
    ]
    for y in (x, z, PAdicNumber.zero(2), from_rational(-1, 3, p=5)):
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            back = pickle.loads(pickle.dumps(y, protocol))
            assert back == y and hash(back) == hash(y)
        assert copy.copy(y) == y and copy.deepcopy(y) == y
    assert dataclasses.replace(x, precision=2) == PAdicNumber(3, 5, 7, 2)
    with pytest.raises(ValueError, match="^leading digit must be nonzero$"):
        dataclasses.replace(x, unit=6)
    with pytest.raises(ValueError, match="^unit out of range for stated precision$"):
        dataclasses.replace(x, precision=1)
    for name in ("prime", "valuation", "unit", "precision"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
    assert x == PAdicNumber(3, 5, 7, 48)


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
    lhs = (x + y).frac_part()
    rhs = (x.frac_part() + y.frac_part()) % 1
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
    cs = CharacterSum(3, {(1, 1): Fraction(2, 7)}) + CharacterSum(
        3, {(1, 2): Fraction(2, 7)}
    )
    assert cs.to_complex().imag == 0.0


def test_character_sum_algebra():
    p = 2
    one = CharacterSum.constant(p, Fraction(1))
    shifted = CharacterSum(p, {(1, 1): Fraction(1)})
    assert shifted.to_complex() == complex(-1.0, 0.0)
    cancel = shifted + shifted.scale(-1)
    assert not cancel
    assert (one + one.scale(-1)).to_complex() == 0j
    # a float product that underflows to 0.0 drops its term
    tiny = CharacterSum(p, {(1, 1): 1e-300, (0, 0): Fraction(1, 2)}).scale(1e-300)
    assert tiny.terms() == {(0, 0): 5e-301}
    assert not CharacterSum(p, {(1, 1): 1e-300}).scale(1e-300)



# ---------------------------------------------------------------------
def test_character_sum_reduces_its_keys():
    # (2, 3), (1, 1) and (1, 7) all stand for chi(1/3) at p = 3
    one_third = CharacterSum(3, {(1, 1): 1})
    assert CharacterSum(3, {(2, 3): 1}) == one_third
    assert CharacterSum(3, {(1, 7): 1}) == one_third
    assert repr(CharacterSum(3, {(1, 7): 1})) == "CharacterSum(3; 1*chi(1/3))"
    # keys of one phase add their coefficients, and a zero sum is dropped
    half = Fraction(1, 2)
    assert CharacterSum(3, {(2, 3): half, (1, 1): half}).terms() == {(1, 1): 1}
    assert not CharacterSum(3, {(2, 3): 1, (1, 1): -1})
    # integer phases are chi(0)
    assert CharacterSum(3, {(1, 3): 2, (0, 5): 1}).terms() == {(0, 0): 3}


# CharacterSum.to_complex against the phase-by-phase conjugate loop
# ---------------------------------------------------------------------


def oracle_to_complex(cs: CharacterSum) -> complex:
    """to_complex as it was: each phase looks up its own conjugate."""
    p, terms = cs.prime, cs.terms()
    total = complex(0.0, 0.0)
    done = set()
    for ph in sorted(terms):
        if ph in done:
            continue
        c = terms[ph]
        s, k = ph
        conj = (s, p**s - k)
        if conj == ph:
            total += float(c) * chi(p, s, k)
            done.add(ph)
            continue
        if conj in terms:
            c2 = terms[conj]
            theta = 2.0 * math.pi * (k / p**s)
            if 2 * k > p**s:
                theta = -2.0 * math.pi * (conj[1] / p**s)
                c, c2 = c2, c
            total += complex(
                float(c + c2) * math.cos(theta),
                float(c - c2) * math.sin(theta),
            )
            done.update((ph, conj))
        else:
            total += float(c) * chi(p, s, k)
            done.add(ph)
    return total


@st.composite
def character_sums(draw):
    """Sums with a zero phase, p = 2 phases of scale 1 and 2, and phases
    drawn with and without their conjugate partners."""
    p = draw(st.sampled_from(PRIMES))
    coeff = st.one_of(
        st.builds(Fraction, st.integers(-500, 500), st.integers(1, 60)),
        st.floats(-50, 50, allow_nan=False),
    )
    terms = {}
    if draw(st.booleans()):
        terms[0, 0] = draw(coeff)
    if p == 2:
        for scale, num in ((1, 1), (2, 1), (2, 3)):
            if draw(st.booleans()):
                terms[scale, num] = draw(coeff)
    for _ in range(draw(st.integers(0, 8))):
        scale = draw(st.integers(1, 5))
        num = draw(st.integers(1, p**scale - 1).filter(lambda k: k % p))
        terms[scale, num] = draw(coeff)
        if draw(st.booleans()):
            terms[scale, p**scale - num] = draw(coeff)
    return CharacterSum(p, terms)


@settings(max_examples=200, deadline=None)
@given(character_sums())
def test_to_complex_matches_phase_loop(cs):
    got, want = cs.to_complex(), oracle_to_complex(cs)
    assert got == want and repr(got) == repr(want)


# character_value on counts, and the batched character_values
# ---------------------------------------------------------------------


def test_character_value_pairs_conjugates_and_divides_once():
    p = 3
    # chi(1/3) and chi(2/3) with equal counts pair into an exactly real sum
    got = character_value(p, {(1, 1): 5, (1, 2): 5, (0, 0): 2}, 12)
    assert got.imag == 0.0
    assert got == complex(2 / 12 + 10 / 12 * math.cos(2 * math.pi * (1 / 3)), 0.0)
    # an unpaired phase is float(c) / denominator times chi
    assert character_value(p, {(2, 4): 3}, 7) == 3 / 7 * chi(p, 2, 4)
    # p = 2: 1/2 is its own conjugate; 1/4 alone is the exact axis point i
    assert character_value(2, {(1, 1): 4, (2, 1): 2}, 8) == complex(-0.5, 0.25)
    # 1/4 with 3/4 pairs through cos and sin, not the axis points
    paired = character_value(2, {(2, 1): 1, (2, 3): 3}, 4)
    assert paired == complex(math.cos(math.pi / 2), -0.5 * math.sin(math.pi / 2))
    assert character_value(5, {}, 3) == 0j


def _split_table(rows, seed: int, object_numerators: bool) -> PhaseTable:
    """rows as a PhaseTable joined from two tables, so that a key may
    appear twice: each count split in two at random, each part in one of
    them, the terms shuffled."""
    rng = np.random.default_rng(seed)
    parts = ([], [])
    for i, terms in enumerate(rows):
        for (s, k), c in terms.items():
            a = int(rng.integers(0, c + 1))
            for part, share in zip(parts, (a, c - a)):
                if share:
                    part.append((i, s, k, share))
    tables = []
    for part in parts:
        part = [part[j] for j in rng.permutation(len(part))]
        row, scale, numerator, count = zip(*part) if part else ((), (), (), ())
        tables.append(PhaseTable(
            np.array(row, dtype=np.int64), np.array(scale, dtype=np.int64),
            np.array(numerator, dtype=object if object_numerators else np.uint64),
            np.array(count, dtype=np.int64),
        ))
    return PhaseTable(*(np.concatenate(column) for column in zip(*tables)))


@st.composite
def phase_tables(draw):
    """(p, rows, table, denominator): rows of reduced phases with counts,
    among them the zero phase, the p = 2 axis phases 1/2, 1/4 and 3/4,
    conjugate pairs with and without their second half, and scales with
    p**s past 2**53 and 2**63; the table holds the same counts split
    between two joined tables."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    # p**s passes 2**53 and 2**63 within each deep range
    scales = st.one_of(
        st.integers(1, 6), st.integers(*{2: (40, 70), 3: (28, 45), 5: (20, 30), 7: (16, 25)}[p])
    )
    counts = st.integers(1, 10**6)
    rows = []
    for _ in range(draw(st.integers(1, 5))):
        terms = {}
        if draw(st.booleans()):
            terms[0, 0] = draw(counts)
        if p == 2:
            for key in ((1, 1), (2, 1), (2, 3)):
                if draw(st.booleans()):
                    terms[key] = draw(counts)
        for _ in range(draw(st.integers(0, 8))):
            s = draw(scales)
            k = draw(st.integers(1, p**s - 1).filter(lambda k: k % p))
            terms[s, k] = draw(counts)
            if draw(st.booleans()):
                terms[s, p**s - k] = draw(counts)
        rows.append(terms)
    big = any(k >= 2**64 for terms in rows for _, k in terms)
    table = _split_table(rows, draw(st.integers(0, 2**32)), big or draw(st.booleans()))
    return p, rows, table, draw(st.integers(1, 10**6))


@settings(max_examples=200, deadline=None)
@given(phase_tables())
def test_character_values_match_character_value_bit_for_bit(case):
    p, rows, table, denominator = case
    got = character_values(p, table, len(rows) + 1, denominator)
    want = [character_value(p, terms, denominator) for terms in [*rows, {}]]
    assert [(repr(z.real), repr(z.imag)) for z in got] == [
        (repr(z.real), repr(z.imag)) for z in want
    ]


@pytest.mark.parametrize("p, scales", [(2, (1, 2, 54, 60, 62)), (3, (1, 3, 34, 40, 45))])
def test_character_values_on_many_rows_and_deep_scales(p, scales):
    # 70 rows and phases past p**s = 2**53 pack (row, scale, rank) into a
    # large int64 key (and, at p = 3, go through Python-int numerators)
    rng = random.Random(p)
    rows = []
    for i in range(70):
        terms = {(0, 0): rng.randrange(1, 50)} if i % 3 else {}
        for s in scales:
            for _ in range(2):
                k = rng.randrange(1, p**s)
                k += k % p == 0
                terms[s, k] = rng.randrange(1, 10**6)
                if rng.randrange(2):
                    terms[s, p**s - k] = rng.randrange(1, 10**6)
        rows.append(terms)
    table = _split_table(rows, 7, any(k >= 2**64 for terms in rows for _, k in terms))
    got = character_values(p, table, len(rows), 10**6 + 3)
    want = [character_value(p, terms, 10**6 + 3) for terms in rows]
    assert [(repr(z.real), repr(z.imag)) for z in got] == [
        (repr(z.real), repr(z.imag)) for z in want
    ]


def test_character_values_refuses_a_row_past_n_rows():
    # numpy's IndexError named neither the table's row nor n_rows
    table = PhaseTable.from_counts([{(2, 1): 3}, {}, {(3, 5): 2}])
    with pytest.raises(ValueError, match=r"rows 0\.\.2 not all in \[0, n_rows = 2\)"):
        character_values(2, table, 2, 5)


@pytest.mark.parametrize(
    "make",
    [
        lambda: PAdicNumber(3, 5, 7, 48),
        lambda: Ball(3, Fraction(1, 3), -2),
        lambda: TailSet(3, 1),
    ],
    ids=["PAdicNumber", "Ball", "TailSet"],
)
def test_frozen_values_refuse_every_attribute(make):
    import copy
    import dataclasses
    import pickle

    x = make()
    names = [f.name for f in dataclasses.fields(x)] + ["extra", "__dict__"]
    for name in names:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(x, name, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(x, name)
    assert x == make() and hash(x) == hash(make())
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(x, protocol))
        assert back == x and hash(back) == hash(x)
    assert copy.copy(x) == x and copy.deepcopy(x) == x
    name = [f.name for f in dataclasses.fields(x) if f.init][-1]
    assert dataclasses.replace(x, **{name: getattr(x, name)}) == x


def _character_value_in_fractions(p, terms):
    """character_value as it summed before its integer shortcut: float()
    of each coefficient and of each Fraction sum and difference."""
    total = complex(0.0, 0.0)
    done = set()
    for key in sorted(terms):
        if key in done:
            continue
        s, k = key
        c = terms[key]
        conj = (s, p**s - k)
        if conj != key and conj in terms:
            c2 = terms[conj]
            theta = 2.0 * math.pi * (k / p**s)
            total += complex(
                float(c + c2) * math.cos(theta), float(c - c2) * math.sin(theta)
            )
            done.add(conj)
        else:
            total += float(c) * chi(p, s, k)
    return total


@settings(max_examples=300, deadline=None)
@given(
    p=st.sampled_from((2, 3, 5)),
    terms=st.dictionaries(
        st.tuples(st.integers(1, 3), st.integers(1, 124)),
        st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**30).filter(bool),
        max_size=8,
    ),
)
def test_character_value_divides_fraction_integers_as_float_does(p, terms):
    terms = {(s, k % p**s): c for (s, k), c in terms.items() if k % p}
    want = _character_value_in_fractions(p, terms)
    got = character_value(p, terms)
    assert (repr(got.real), repr(got.imag)) == (repr(want.real), repr(want.imag))


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_grid_points_repeat_no_point(p):
    # the default units are 1, 1 + p, 1 + p**2 and (p - 1)(1 + p), on each
    # sphere k in order; at p = 2 the last is 1 + p again, and its points
    # were listed twice (52 points, 39 distinct)
    units = [1, 1 + p, 1 + p * p, (p - 1) * (1 + p)]
    listed = [Fraction(u) * Fraction(p) ** -k for k in range(-6, 7) for u in units]
    points = [t.as_rational() for t in grid_points(p, -6, 6)]
    assert len(set(points)) == len(points) == (39 if p == 2 else 52)
    # an odd p keeps every point in its place, so its reports keep their bytes
    assert points == (listed if p > 2 else list(dict.fromkeys(listed)))
