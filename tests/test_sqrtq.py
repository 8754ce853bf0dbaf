from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from perihall import sqrtq
from perihall.sqrtq import HallValue, q_power_exponent, sqrt_of_q_power


def hv(q=2):
    rats = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    return st.tuples(rats, rats).map(lambda ab: HallValue(ab[0], ab[1], q))


def test_basic_identities():
    r2 = HallValue(0, 1, 2)
    assert r2 * r2 == HallValue(2, 0, 2)
    assert (r2 + 1) * (r2 - 1) == HallValue(1, 0, 2)
    assert HallValue.sqrt_q_power(-1, 2) == HallValue(0, Fraction(1, 2), 2)
    assert HallValue.sqrt_q_power(3, 3) == HallValue(0, 3, 3)
    assert HallValue.sqrt_q_power(-4, 5) == HallValue(Fraction(1, 25), 0, 5)


def test_perfect_square_normalization():
    v = HallValue(1, 1, 4)  # sqrt(4) = 2 folds into the rational part
    assert v.a == 3 and v.b == 0
    assert HallValue.sqrt_q_power(1, 9) == HallValue(3, 0, 9)


def test_perfect_square_fold_on_the_first_construction():
    # whether q is a square is decided once per q; the fold must hold
    # on the construction that decides it
    sqrtq._root_of.cache_clear()
    v = HallValue(1, 1, 4)
    assert (v.a, v.b) == (3, 0)
    sqrtq._root_of.cache_clear()
    r = HallValue.sqrt_q_power(1, 9)
    assert (r.a, r.b) == (3, 0)
    assert HallValue(0, 1, 9) * HallValue(0, 2, 9) == HallValue(18, 0, 9)
    assert HallValue(1, 0, 4).b == 0 and HallValue(2, 5, 4).a == 12
    with pytest.raises(ValueError):
        HallValue(1, 0, 1)


def _general_product(x, y):
    return HallValue(x.a * y.a + x.b * y.b * x.q, x.a * y.b + x.b * y.a, x.q)


def shaped(q):
    rats = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 12))
    return st.one_of(
        st.just(HallValue.zero(q)),
        rats.map(lambda a: HallValue(a, 0, q)),
        rats.map(lambda b: HallValue(0, b, q)),
        st.tuples(rats, rats).map(lambda ab: HallValue(ab[0], ab[1], q)),
    )


@given(st.sampled_from([2, 3, 5]).flatmap(lambda q: st.tuples(shaped(q), shaped(q))))
def test_mul_fast_paths_match_the_general_formula(xy):
    # rational x rational, sqrt x sqrt, mixed and zero operands
    x, y = xy
    got = x * y
    assert got == _general_product(x, y)
    assert type(got.a) is Fraction and type(got.b) is Fraction


@given(hv(), hv())
def test_mul_commutes(x, y):
    assert x * y == y * x


@given(hv(), hv(), hv())
def test_mul_distributes(x, y, z):
    assert x * (y + z) == x * y + x * z


@given(hv())
def test_division_round_trip(x):
    if x.is_zero():
        with pytest.raises(ZeroDivisionError):
            HallValue.one(2) / x
    else:
        assert (HallValue.one(2) / x) * x == HallValue.one(2)
        assert (x * x) / x == x


def test_mixed_base_rejected():
    with pytest.raises(ValueError):
        HallValue(1, 0, 2) + HallValue(1, 0, 3)


def test_q_power_exponent():
    assert q_power_exponent(Fraction(8), 2) == 3
    assert q_power_exponent(Fraction(1, 9), 3) == -2
    assert q_power_exponent(Fraction(1), 7) == 0
    assert q_power_exponent(Fraction(6), 2) is None
    assert q_power_exponent(Fraction(2, 3), 2) is None
    assert q_power_exponent(Fraction(-4), 2) is None


def test_sqrt_of_q_power():
    assert sqrt_of_q_power(Fraction(4), 2) == HallValue(2, 0, 2)
    assert sqrt_of_q_power(Fraction(1, 2), 2) == HallValue(0, Fraction(1, 2), 2)
    v = sqrt_of_q_power(Fraction(8), 2)
    assert v * v == HallValue(8, 0, 2)
    with pytest.raises(ArithmeticError):
        sqrt_of_q_power(Fraction(12), 2)


def test_monomial_exponent():
    assert HallValue(0, Fraction(3, 2), 2).monomial_exponent() == (Fraction(3, 2), 1)
    assert HallValue(5, 0, 2).monomial_exponent() == (Fraction(5), 0)
    assert HallValue(1, 1, 2).monomial_exponent() is None


def test_str_forms():
    assert str(HallValue(0, 1, 2)) == "sqrt(2)"
    assert str(HallValue(1, -1, 2)) == "1 - sqrt(2)"
    assert str(HallValue(Fraction(3, 2), 0, 2)) == "3/2"
