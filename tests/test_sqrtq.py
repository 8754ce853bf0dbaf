import math
import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from perihall import sqrtq
from perihall.sqrtq import HallValue


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


# reference arithmetic on (a, b) Fraction pairs, meaning a + b*sqrt(q)
def _pair_add(x, y, q):
    return (x[0] + y[0], x[1] + y[1])


def _pair_sub(x, y, q):
    return (x[0] - y[0], x[1] - y[1])


def _pair_mul(x, y, q):
    return (x[0] * y[0] + x[1] * y[1] * q, x[0] * y[1] + x[1] * y[0])


def _pair_div(x, y, q):
    norm = y[0] * y[0] - y[1] * y[1] * q
    num = _pair_mul(x, (y[0], -y[1]), q)
    return (num[0] / norm, num[1] / norm)


def _general_product(x, y):
    return HallValue(*_pair_mul(x.as_pair(), y.as_pair(), x.q), x.q)


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


@pytest.mark.parametrize(
    "q, diff, quotient",
    [
        (2, HallValue(Fraction(2, 3), -1, 2), HallValue(Fraction(-6, 17), Fraction(18, 17), 2)),
        (4, HallValue(Fraction(-4, 3), 0, 4), HallValue(Fraction(6, 7), 0, 4)),
    ],
)
def test_reflected_operators_truth_and_foreign_operands(q, diff, quotient):
    # an int on the left is coerced and meets the forward operator; at
    # the square q = 4, v = 1/3 + sqrt(4) is the rational 7/3
    v = HallValue(Fraction(1, 3), 1, q)
    assert 1 - v == diff
    assert 2 / v == quotient
    assert quotient * v == 2
    assert not HallValue.zero(q) and v
    with pytest.raises(TypeError, match="cannot combine HallValue with str"):
        v + "x"


def test_str_forms():
    assert str(HallValue(0, 1, 2)) == "sqrt(2)"
    assert str(HallValue(1, -1, 2)) == "1 - sqrt(2)"
    assert str(HallValue(Fraction(3, 2), 0, 2)) == "3/2"


def _normal(v):
    return v.d > 0 and math.gcd(v.n, v.m, v.d) == 1


@given(
    st.sampled_from([2, 3, 4, 5]).flatmap(lambda q: st.tuples(st.just(q), shaped(q), shaped(q))),
    st.sampled_from([
        (operator.add, _pair_add),
        (operator.sub, _pair_sub),
        (operator.mul, _pair_mul),
        (operator.truediv, _pair_div),
    ]),
)
def test_int_arithmetic_matches_the_fraction_formulas(qxy, ops):
    q, x, y = qxy
    op, ref = ops
    if op is operator.truediv and y.is_zero():
        with pytest.raises(ZeroDivisionError):
            op(x, y)
        return
    got = op(x, y)
    want = ref(x.as_pair(), y.as_pair(), q)
    assert got.as_pair() == want
    assert _normal(got)
    # the normal form is unique: the same value built from its parts
    # has the same ints
    again = HallValue(*want, q)
    assert got == again
    assert (got.n, got.m, got.d) == (again.n, again.m, again.d)
    assert hash(got) == hash(again)


@given(st.sampled_from([2, 3, 4, 5]).flatmap(shaped))
def test_constructed_values_are_normal(v):
    assert _normal(v)
    assert _normal(-v)
    assert HallValue(*v.as_pair(), v.q) == v


def test_monomial_folds_and_matches_powers():
    assert HallValue.monomial(3, 4, 3, 2) == HallValue(0, Fraction(3, 2), 2)
    assert HallValue.monomial(3, 4, -3, 2) == HallValue(0, Fraction(3, 16), 2)
    assert HallValue.monomial(-6, 4, 2, 5) == HallValue(Fraction(-15, 2), 0, 5)
    assert HallValue.monomial(2, -6, 0, 3) == HallValue(Fraction(-1, 3), 0, 3)
    assert HallValue.monomial(5, 3, -1, 4) == HallValue(Fraction(5, 6), 0, 4)
    assert HallValue.monomial(1, 1, 3, 9) == HallValue(27, 0, 9)
    with pytest.raises(ZeroDivisionError):
        HallValue.monomial(1, 0, 1, 2)
    with pytest.raises(ValueError):
        HallValue.monomial(1, 1, 1, 1)


@given(
    st.integers(-10**6, 10**6),
    st.integers(-10**6, 10**6).filter(bool),
    st.integers(-12, 12),
    st.sampled_from([2, 3, 4, 5, 7, 9]),
)
def test_monomial_is_a_monomial(num, den, k, q):
    # a rational part or a sqrt(q) part, never both, on every path of
    # monomial, q = 4 and 9 folding sqrt(q) into the rational part; the
    # engine reads every structure constant off it unchecked
    v = HallValue.monomial(num, den, k, q)
    assert not (v.n and v.m)
    assert v * v == HallValue.of(Fraction(num, den) ** 2, q) * HallValue.sqrt_q_power(2 * k, q)


def test_equal_values_hash_equal():
    assert len({1, HallValue.one(2)}) == 1
    assert len({Fraction(1, 2), HallValue.of(Fraction(1, 2), 3)}) == 1
    assert hash(HallValue(1, 0, 2)) == hash(1)
    assert hash(HallValue(Fraction(-3, 4), 0, 5)) == hash(Fraction(-3, 4))
    r = HallValue(0, 1, 2)
    assert hash(r * r) == hash(HallValue(2, 0, 2)) == hash(2)
    assert hash(HallValue(1, 1, 4)) == hash(3)
