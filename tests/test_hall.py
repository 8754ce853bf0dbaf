import itertools
from collections import Counter
from fractions import Fraction

import pytest

from perihall.category import PeriodicContext
from perihall.checks import (
    FaultyEngine,
    build_quiver_engine,
    build_unguarded_engine,
    check_associativity,
    check_symmetry,
    classical_hall_g,
    enumerate_reps,
    hall_number_via,
    module_key,
    multiply_by_scalars,
)
from perihall.gfp import FieldSpec, gl_order
from perihall.hall import HallEngine, HallVector, PBWExpression
from perihall.periodic import projective
from perihall.quiver import line_quiver
from perihall.reps import RepContext
from perihall.semisimple import SemisimplePeriodic, rank_count
from perihall.sqrtq import HallValue


def a1_engine(p=2):
    return HallEngine(PeriodicContext(RepContext(line_quiver(1), FieldSpec(p))))


def a2_engine(p=2):
    return HallEngine(PeriodicContext(RepContext(line_quiver(2), FieldSpec(p))))


def val(engine, a, b=0):
    return HallValue(Fraction(a), Fraction(b), engine.q)


def test_point_quiver_square():
    eng = a1_engine()
    pctx = eng.oracle
    s = module_key(pctx, pctx.ctx.simple("1"))
    prod = eng.multiply(s, s)
    ss = pctx.direct_sum_key(s, s)
    assert prod.support == (ss,)
    assert prod.coeff(ss) == val(eng, 0, Fraction(3, 2))


def test_point_quiver_square_odd_prime():
    eng = a1_engine(3)
    pctx = eng.oracle
    s = module_key(pctx, pctx.ctx.simple("1"))
    prod = eng.multiply(s, s)
    assert prod.coeff(pctx.direct_sum_key(s, s)) == val(eng, 0, Fraction(4, 3))


def test_point_quiver_mixed_shift_products():
    eng = a1_engine()
    pctx = eng.oracle
    s = module_key(pctx, pctx.ctx.simple("1"))
    s1 = pctx.shift_key(s, 1)
    s2 = pctx.shift_key(s, 2)
    m01 = pctx.direct_sum_key(s, s1)
    m02 = pctx.direct_sum_key(s, s2)
    zero = pctx.zero_key

    prod = eng.multiply(s, s1)
    assert prod.coeff(m01) == val(eng, 0, Fraction(1, 2))  # q^(-1/2)
    assert prod.coeff(zero) == val(eng, 0, 1)  # sqrt(q)/(q-1)

    prod = eng.multiply(s1, s)
    assert prod.items() == [(m01, val(eng, 0, 1))]  # sqrt(q)

    prod = eng.multiply(s2, s)
    assert prod.coeff(m02) == val(eng, 0, Fraction(1, 2))
    assert prod.coeff(zero) == val(eng, 0, 1)

    prod = eng.multiply(s, s2)
    assert prod.items() == [(m02, val(eng, 0, 1))]


def test_unit_is_two_sided():
    eng = a1_engine()
    pctx = eng.oracle
    for key in pctx.enumerate_objects((1,)):
        assert eng.multiply(pctx.zero_key, key) == eng.vector(key)
        assert eng.multiply(key, pctx.zero_key) == eng.vector(key)
        assert eng.hall_number(key, pctx.zero_key, key) == HallValue.one(eng.q)
        assert eng.hall_number(pctx.zero_key, key, key) == HallValue.one(eng.q)


def assert_engine_matches_dual_recipes(eng, keys):
    """Every coefficient of every product over keys, read off the
    Hom(y[-1], x) fibers, equals both counts over Hom(x, l) and Hom(l, y)."""
    for x in keys:
        for y in keys:
            prod = eng.multiply(x, y)
            for l in prod.support:
                for side in ("from_x", "to_y"):
                    assert prod.coeff(l) == hall_number_via(eng, x, y, l, side), (x, y, l, side)


def test_dual_counting_recipes_agree_on_the_point_quiver():
    for p in (2, 3):
        eng = a1_engine(p)
        assert_engine_matches_dual_recipes(eng, eng.oracle.enumerate_objects((1,)))


@pytest.mark.parametrize("n", [2, 3])
def test_engine_matches_dual_recipes_on_line_quivers(n):
    eng = HallEngine(PeriodicContext(RepContext(line_quiver(n), FieldSpec(2))))
    assert_engine_matches_dual_recipes(eng, eng.oracle.enumerate_objects((1,) * n)[:12])


@pytest.mark.parametrize("t", [3, 5, 7])
def test_engine_matches_dual_recipes_on_semisimple(t):
    cat = SemisimplePeriodic(t, 2)
    assert_engine_matches_dual_recipes(HallEngine(cat), cat.enumerate_objects(2)[:16])


def test_associativity_spot_checks():
    eng = a1_engine()
    pctx = eng.oracle
    s = module_key(pctx, pctx.ctx.simple("1"))
    triples = [
        (s, s, s),
        (s, pctx.shift_key(s, 1), s),
        (pctx.shift_key(s, 1), s, pctx.shift_key(s, 2)),
        (pctx.shift_key(s, 2), pctx.shift_key(s, 2), s),
    ]
    for x, y, z in triples:
        left = eng.multiply_vectors(eng.multiply(x, y), eng.vector(z))
        right = eng.multiply_vectors(eng.vector(x), eng.multiply(y, z))
        assert left == right, (x, y, z)


def test_simple_products_on_the_arrow_quiver():
    eng = a2_engine()
    pctx = eng.oracle
    s1 = module_key(pctx, pctx.ctx.simple("1"))
    s2 = module_key(pctx, pctx.ctx.simple("2"))
    p1 = module_key(pctx, projective(pctx.ctx, "1"))
    both = pctx.direct_sum_key(s1, s2)
    # no extensions of S2 by S1, one twisting factor sqrt(q)
    assert eng.multiply(s1, s2).items() == [(both, val(eng, 0, 1))]
    # the other order sees the extension, with trivial coefficients
    assert sorted(eng.multiply(s2, s1).items()) == sorted([(p1, val(eng, 1)), (both, val(eng, 1))])


def test_module_triples_match_classical_counts():
    eng = a2_engine()
    pctx = eng.oracle
    ctx = pctx.ctx
    reps = {module_key(pctx, r): r for r in enumerate_reps(ctx, (1, 1))}
    for xk, xr in reps.items():
        for yk, yr in reps.items():
            for lk, lr in reps.items():
                f = eng.hall_number(xk, yk, lk)
                g = classical_hall_g(ctx, xr, yr, lr)
                twist = HallValue.sqrt_q_power(-ctx.quiver.euler_form(xr.dims, yr.dims), eng.q)
                assert f == twist * HallValue.of(g, eng.q), (xk, yk, lk)


def test_hall_numbers_are_monomials():
    eng = a2_engine()
    pctx = eng.oracle
    keys = pctx.enumerate_objects((1, 1))[:20]
    for x in keys:
        for y in keys[:8]:
            for l, v in eng.multiply(x, y).items():
                assert not (v.n and v.m)


def test_pbw_single_term_on_the_point_quiver():
    eng = a1_engine()
    pctx = eng.oracle
    s = module_key(pctx, pctx.ctx.simple("1"))
    m = pctx.direct_sum_key(s, pctx.shift_key(s, 1))
    expr = eng.pbw_expand(m)
    assert expr.items() == [(((), s, s), val(eng, 0, Fraction(1, 2)))]
    assert expr.evaluate(eng) == eng.vector(m)


def test_pbw_round_trip_all_point_quiver_objects():
    eng = a1_engine()
    for key in eng.oracle.enumerate_objects((1,)):
        assert eng.pbw_expand(key).evaluate(eng) == eng.vector(key)


def test_pbw_needs_corrections_sometimes():
    eng = a2_engine()
    pctx = eng.oracle
    s2 = module_key(pctx, pctx.ctx.simple("2"))
    m = pctx.direct_sum_key(s2, pctx.shift_key(s2, 2))
    expr = eng.pbw_expand(m)
    assert len(expr.terms) == 2
    assert expr.evaluate(eng) == eng.vector(m)


def test_pbw_round_trip_mixed_arrow_objects():
    eng = a2_engine()
    pctx = eng.oracle
    s1 = module_key(pctx, pctx.ctx.simple("1"))
    s2 = module_key(pctx, pctx.ctx.simple("2"))
    p1 = module_key(pctx, projective(pctx.ctx, "1"))
    keys = [
        pctx.direct_sum_key(s1, pctx.shift_key(s2, 1)),
        pctx.direct_sum_key(p1, pctx.shift_key(s1, 2)),
        pctx.direct_sum_key(s2, pctx.shift_key(s2, 2)),
        pctx.direct_sum_key(pctx.shift_key(p1, 1), pctx.shift_key(s2, 2), s1),
    ]
    for key in keys:
        assert eng.pbw_expand(key).evaluate(eng) == eng.vector(key)


def test_semisimple_helpers():
    assert gl_order(0, 2) == 1
    assert gl_order(1, 2) == 1
    assert gl_order(2, 2) == 6
    assert gl_order(2, 3) == 48
    assert rank_count(1, 2, 1, 2) == 3
    assert rank_count(2, 2, 2, 2) == 6
    assert sum(rank_count(2, 3, r, 2) for r in range(3)) == 2**6


@pytest.mark.parametrize("t, bound", [(3, 0), (3, 1), (3, 3), (5, 2), (7, 1), (7, 2)])
def test_semisimple_objects_match_the_sorted_product(t, bound):
    # the lazy graded listing against sorting every multiplicity tuple
    # by total, then tuple
    cat = SemisimplePeriodic(t, 2)
    product = sorted(itertools.product(range(bound + 1), repeat=t), key=lambda k: (sum(k), k))
    assert cat.enumerate_objects(bound) == list(cat.objects(bound)) == product


def test_semisimple_objects_are_lazy():
    # the first objects of a scope of 11^9 come without the rest
    cat = SemisimplePeriodic(9, 2)
    head = list(itertools.islice(cat.objects(10), 11))
    assert head == [(0,) * 9] + [tuple(int(s == i) for s in range(9)) for i in reversed(range(9))] + [(0,) * 8 + (2,)]


def test_five_periodic_square():
    for q in (2, 3):
        cat = SemisimplePeriodic(5, q)
        eng = HallEngine(cat)
        s = cat.object((1, 0, 0, 0, 0))
        assert eng.oracle.brace_exponent(s, s) == -1
        prod = eng.multiply(s, s)
        ss = cat.object((2, 0, 0, 0, 0))
        assert prod.support == (ss,)
        expected = HallValue.sqrt_q_power(-1, q) * HallValue.of(q + 1, q)
        assert prod.coeff(ss) == expected


def test_five_periodic_associativity_and_pbw():
    cat = SemisimplePeriodic(5, 2)
    eng = HallEngine(cat)
    keys = [cat.object(k) for k in [(1, 0, 0, 0, 0), (0, 1, 0, 0, 0), (0, 0, 0, 0, 1), (1, 0, 0, 0, 1)]]
    for x in keys:
        for y in keys:
            for z in keys:
                left = eng.multiply_vectors(eng.multiply(x, y), eng.vector(z))
                right = eng.multiply_vectors(eng.vector(x), eng.multiply(y, z))
                assert left == right
    for key in keys:
        assert eng.pbw_expand(key).evaluate(eng) == eng.vector(key)
    assert eng.multiply(cat.zero_key, keys[-1]) == eng.vector(keys[-1])


@pytest.mark.parametrize("t, p", [(t, p) for t in (3, 5, 7) for p in (2, 3)])
def test_point_quiver_agrees_with_the_semisimple_oracle(t, p):
    pctx, quiver_eng = build_quiver_engine(line_quiver(1), p, t=t)
    plain_eng = HallEngine(SemisimplePeriodic(t, p))

    def translate(key):
        counts = [0] * t
        for _, s in key:
            counts[s] += 1
        return tuple(counts)

    # every object at t = 3, those of at most three parts beyond
    keys = [k for k in pctx.enumerate_objects((1,)) if len(k) <= 3]
    for x in keys:
        for y in keys:
            got = quiver_eng.multiply(x, y)
            want = plain_eng.multiply(translate(x), translate(y))
            assert {translate(k): v for k, v in got.items()} == dict(want.items())


def test_engine_rejects_even_period():
    class Stub:
        t = 2
        q = 2

    with pytest.raises(ValueError, match="got t = 2"):
        HallEngine(Stub())
    with pytest.raises(ValueError, match="got t = 4"):
        SemisimplePeriodic(4, 2)


def _engine_over_period(t):
    pctx = PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)))
    pctx.t = t
    return HallEngine(pctx)


@pytest.mark.parametrize(
    "build",
    [
        lambda t: PeriodicContext(RepContext(line_quiver(2), FieldSpec(2)), t),
        _engine_over_period,
        lambda t: SemisimplePeriodic(t, 2),
    ],
    ids=["context", "engine", "semisimple"],
)
def test_the_period_guards_refuse_a_period_that_is_not_an_int(build):
    # an odd float passes the parity test, and enumeration then fails
    # far from the cause; every guard refuses it with its usual message
    for t in (5.0, 3.0):
        with pytest.raises(ValueError, match=f"odd number at least 3, got t = {t}"):
            build(t)
    assert build(5).t == 5


@pytest.mark.parametrize("q", [0, 1, 6, 12])
def test_semisimple_refuses_a_field_size_that_is_not_a_prime_power(q):
    # there is no field with 6 or 12 elements
    with pytest.raises(ValueError, match="prime power"):
        SemisimplePeriodic(3, q)


@pytest.mark.parametrize("q", [2, 3, 4, 9])
def test_semisimple_accepts_prime_powers(q):
    assert SemisimplePeriodic(3, q).q == q


@pytest.mark.parametrize("q", [2, 3])
def test_associativity_needs_an_odd_period(q):
    # the same product formula at an even period, guards bypassed, is
    # not associative: on the semisimple oracle at t = 2 and 4 and on
    # the point quiver at t = 2; at t = 3 and 5 it is
    for t, passes in ((2, False), (3, True), (4, False), (5, True)):
        cat = SemisimplePeriodic(3, q)
        engine = build_unguarded_engine(cat, t)
        keys = [k for k in cat.enumerate_objects(2) if sum(k) <= 2][:12]
        report = check_associativity(engine, keys)
        assert report.passed is passes, (t, report.summary())

    pctx = PeriodicContext(RepContext(line_quiver(1), FieldSpec(q)))
    engine = build_unguarded_engine(pctx, 2)
    keys = [k for k in pctx.enumerate_objects((2,)) if len(k) <= 2]
    report = check_associativity(engine, keys)
    assert not report.passed, report.summary()


def test_fault_injection_changes_one_constant():
    pctx, faulty = build_quiver_engine(line_quiver(1), 2, fault_inject=True)
    assert isinstance(faulty, FaultyEngine)
    honest = HallEngine(pctx)
    s = module_key(pctx, pctx.ctx.simple("1"))
    s1 = pctx.shift_key(s, 1)
    ss = pctx.direct_sum_key(s, s)
    good = honest.multiply(s, s)
    bad = faulty.multiply(s, s)
    assert faulty.target == (s, s, ss)
    assert bad.coeff(ss) == good.coeff(ss) + HallValue.one(2)
    assert faulty.hall_number(s, s, ss) == bad.coeff(ss)
    # no other product moves
    keys = pctx.enumerate_objects((1,))
    for x in keys:
        for y in keys:
            if (x, y) != (s, s):
                assert faulty.multiply(x, y) == honest.multiply(x, y)
    # the symmetry harness flags the poisoned triple against both recipes
    report = check_symmetry(faulty, [s], [(0, 0, 0)])
    assert not report.passed
    assert len(report.failures) == 2
    where = f"{pctx.format_key(s)}, {pctx.format_key(s)} -> {pctx.format_key(ss)}"
    assert all(f.endswith(where) for f in report.failures)
    assert check_symmetry(honest, [s], [(0, 0, 0)]).passed
    # and associativity breaks downstream, on a triple where the
    # poisoned constant enters one side only
    assert not check_associativity(faulty, [s, s1], [(0, 0, 1)]).passed
    assert check_associativity(honest, [s, s1], [(0, 0, 1)]).passed


def test_hall_vector_algebra():
    u = HallVector(2, {("a",): HallValue.of(1, 2)})
    v = HallVector(2, {("a",): HallValue.of(-1, 2), ("b",): HallValue(0, 1, 2)})
    w = u.add(v)
    assert w.support == (("b",),)
    assert w.coeff(("a",)).is_zero()
    assert u.add(u.scale(HallValue.of(-1, 2))).is_zero()
    assert v.scale(HallValue.zero(2)).is_zero()
    assert repr(HallVector(2)) == "0"


def test_multiply_vectors_matches_the_pairwise_recipe():
    eng = a2_engine()
    keys = eng.oracle.enumerate_objects((1, 1))[1:9]
    rational, root = HallValue.of(Fraction(-2, 3), 2), HallValue(0, Fraction(1, 2), 2)
    mixed = HallValue(Fraction(5, 4), -3, 2)
    a = HallVector(2, {keys[0]: rational, keys[1]: root, keys[2]: mixed})
    b = HallVector(2, {keys[3]: HallValue.one(2), keys[4]: mixed, keys[5]: root})
    expected = HallVector(2)
    for kx, vx in a.items():
        for ky, vy in b.items():
            expected = expected.add(eng.multiply(kx, ky).scale(vx * vy))
    assert eng.multiply_vectors(a, b) == expected
    assert eng.multiply_vectors(eng.unit(), b) == b

    # u_x (u_y - c u_z), where u_x u_y and u_x u_z share the term l
    # and c makes it cancel
    x, y, z = keys[7], keys[6], keys[7]
    shared = [l for l in eng.multiply(x, y).coeffs if l in eng.multiply(x, z).coeffs]
    assert len(shared) == 1
    l = shared[0]
    c = eng.multiply(x, y).coeff(l) / eng.multiply(x, z).coeff(l)
    diff = HallVector(2, {y: HallValue.one(2), z: -c})
    got = eng.multiply_vectors(eng.vector(x), diff)
    assert l not in got.coeffs
    assert got == eng.multiply(x, y).add(eng.multiply(x, z).scale(-c))


def unit_fold(eng, fs):
    """The ordered product of a PBW term's shifted layers, folded
    pairwise from the unit, every layer multiplied in."""
    acc = eng.unit()
    for s, layer in zip(range(eng.t - 1, -1, -1), fs):
        acc = eng.multiply_vectors(acc, eng.vector(eng.oracle.shift_key(layer, s)))
    return acc


def test_evaluate_matches_the_pairwise_recipe():
    eng = a2_engine()
    pctx = eng.oracle
    zero = pctx.zero_key

    def factors(key):
        comps = pctx.components(key)
        return tuple(comps[s] for s in range(eng.t - 1, -1, -1))

    def product(fs):
        return unit_fold(eng, fs)

    objs = pctx.enumerate_objects((1, 1))[1:]
    rational, root = HallValue.of(Fraction(-2, 3), 2), HallValue(0, Fraction(1, 2), 2)
    mixed = HallValue(Fraction(5, 4), -3, 2)
    # the layers of x multiply to a combination with a zero-object term;
    # the empty product (the unit) gets the coefficient that cancels it
    x = next(k for k in objs if zero in product(factors(k)).coeffs)
    others = [k for k in objs if zero not in product(factors(k)).coeffs][:6]
    terms = {factors(x): mixed, factors(zero): -mixed * product(factors(x)).coeff(zero)}
    for k, c in zip(others, [rational, root, mixed] * 2):
        terms[factors(k)] = c
    expr = PBWExpression(2, terms)
    expected = HallVector(2)
    for fs, coeff in expr.items():
        expected = expected.add(product(fs).scale(coeff))
    assert zero not in expected.coeffs
    assert len(expected.coeffs) >= 7
    assert expr.evaluate(eng) == expected


def test_evaluate_reuses_the_expansions_layer_products(monkeypatch):
    # pbw_expand caches the layer product of every term it writes, so
    # evaluating the expansions multiplies nothing, and each cached
    # product is the unit fold of its layers
    eng = a2_engine()
    keys = eng.oracle.enumerate_objects((2, 2))[:40]
    exprs = [eng.pbw_expand(x) for x in keys]
    calls = []
    for name in ("multiply", "multiply_vectors"):
        honest = getattr(eng, name)
        monkeypatch.setattr(eng, name, lambda *args, _name=name, _f=honest: calls.append(_name) or _f(*args))
    for x, expr in zip(keys, exprs):
        assert expr.evaluate(eng) == eng.vector(x)
    assert calls == []
    monkeypatch.undo()
    cached = eng._layer_cache
    assert {fs for expr in exprs for fs in expr.terms} <= set(cached)
    assert any(len(prod.coeffs) > 1 for prod in cached.values())
    for fs, prod in cached.items():
        assert prod == unit_fold(eng, fs), fs


@pytest.mark.parametrize("t, q", [(3, 4), (5, 9)])
def test_products_over_a_square_q_are_rational(t, q):
    # sqrt(q) is an integer, so every odd power of it folds into the
    # rational part of the constant
    cat = SemisimplePeriodic(t, q)
    eng = HallEngine(cat)
    keys = cat.enumerate_objects(2)[:15]
    for x in keys:
        for y in keys:
            for l, c in eng.multiply(x, y).coeffs.items():
                assert c.b == 0, (x, y, l, c)
    assert check_associativity(eng, keys[:6]).passed


def _assert_products_match_the_scalar_recipe(engine, reference, keys):
    """Every product of the keys equals checks.multiply_by_scalars on a
    second engine over an equal oracle, item for item, key order
    included; returns how many had more than one term."""
    several = 0
    for x in keys:
        for y in keys:
            got = list(engine.multiply(x, y).coeffs.items())
            assert got == list(multiply_by_scalars(reference, x, y).coeffs.items()), (x, y)
            several += len(got) > 1
    return several


@pytest.mark.parametrize(
    "n, p, t, bound, count",
    [
        (2, 2, 3, (2, 2), 40),
        (2, 3, 3, (1, 1), 20),
        (2, 2, 5, (1, 1), 24),
        (2, 3, 5, (1, 1), 24),
        (3, 2, 3, (1, 1, 1), 25),
    ],
)
def test_multiply_matches_the_scalar_recipe_on_quivers(n, p, t, bound, count):
    # the engine reads one product_terms call per product; the reference
    # composes hom_dim, brace_exponent, aut_order and fiber_counts on a
    # fresh context of its own. Both list the same keys
    pctx, engine = build_quiver_engine(line_quiver(n), p, t=t)
    ref_pctx, reference = build_quiver_engine(line_quiver(n), p, t=t)
    keys = list(itertools.islice(pctx.objects(bound), count))
    assert keys == list(itertools.islice(ref_pctx.objects(bound), count))
    assert _assert_products_match_the_scalar_recipe(engine, reference, keys) > count
    # the scope has operands that share a part, whose zero cone's |Aut|
    # is counted, and operands that share none, where it is a product
    shared = [set(x).isdisjoint(y) for x in keys for y in keys if x and y]
    assert any(shared) and not all(shared)


@pytest.mark.parametrize("t, q", [(3, 4), (3, 9), (5, 4), (5, 9)])
def test_multiply_matches_the_scalar_recipe_on_semisimple(t, q):
    cat = SemisimplePeriodic(t, q)
    keys = cat.enumerate_objects(2)[:20]
    assert _assert_products_match_the_scalar_recipe(HallEngine(cat), HallEngine(cat), keys) > len(keys)


def _assert_key_order(oracle, engine, keys):
    """Every fiber of ``oracle`` between two of ``keys``, the cones of
    each ``product_terms`` and each product's coefficients are listed
    sorted by key, and the three agree on every product."""
    for x in keys:
        for y in keys:
            fiber = list(oracle.fiber_counts(x, y))
            assert fiber == sorted(fiber), (x, y)
            cones = list(oracle.fiber_counts(oracle.shift_key(y, -1), x))
            assert cones == sorted(cones), (x, y)
            *_, terms = oracle.product_terms(x, y)
            assert [l for l, *_ in terms] == cones, (x, y)
            assert list(engine.multiply(x, y).coeffs) == cones, (x, y)


@pytest.mark.parametrize("n, p, t, count", [(2, 3, 3, 20), (3, 2, 3, 25), (2, 3, 5, 24)])
def test_fibers_and_products_come_out_in_key_order_on_quivers(n, p, t, count):
    # u_x * u_y is a function on iso classes and has no order of its
    # own; the oracle sets one, key order, whatever order its walk meets
    # the cones in
    pctx, engine = build_quiver_engine(line_quiver(n), p, t=t)
    _assert_key_order(pctx, engine, list(itertools.islice(pctx.objects((1,) * n), count)))


@pytest.mark.parametrize("t, q", [(3, 4), (5, 9)])
def test_fibers_and_products_come_out_in_key_order_on_semisimple(t, q):
    cat = SemisimplePeriodic(t, q)
    _assert_key_order(cat, HallEngine(cat), cat.enumerate_objects(2)[:20])


def test_a_cold_product_asks_the_oracle_once(monkeypatch):
    # a product on a fresh context reads every scalar from one
    # product_terms call, and none of the one-at-a-time methods; a warm
    # product asks the oracle nothing
    calls = Counter()
    for name in ("product_terms", "fiber_counts", "hom_dim", "brace_exponent", "aut_order"):

        def counted(self, *args, _name=name, _honest=getattr(PeriodicContext, name)):
            calls[_name] += 1
            return _honest(self, *args)

        monkeypatch.setattr(PeriodicContext, name, counted)
    pctx, engine = build_quiver_engine(line_quiver(2), 2)
    keys = list(itertools.islice(pctx.objects((2, 2)), 30))
    for x in keys:
        for y in keys:
            engine.multiply(x, y)
    assert calls == {"product_terms": len(keys) ** 2}
    engine.multiply(keys[3], keys[7])
    assert calls == {"product_terms": len(keys) ** 2}
