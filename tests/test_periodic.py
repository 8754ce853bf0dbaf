import itertools

import pytest
from hypothesis import given, strategies as st

from perihall.periodic import (
    ChainMap,
    ChainModel,
    CycleComplex,
    chain_hom_space,
    direct_sum_complexes,
    find_homotopy_iso,
    mapping_cone,
    normal_pieces,
    projective,
    summand_maps,
    wrap_module,
)
from perihall.category import PeriodicContext
from perihall.checks import cone_key_literal, enumerate_reps, is_indecomposable, module_key, summand_ids
from perihall.gfp import FieldSpec, MatrixFp, Subspace
from perihall.quiver import line_quiver
from perihall.reps import BudgetExceeded, RepContext, RepMap

PERIODS = (3, 5, 7)

def a2_ctx(p=2):
    return RepContext(line_quiver(2), FieldSpec(p))


def a2_modules(ctx):
    s1 = ctx.simple("1")
    s2 = ctx.simple("2")
    p1 = projective(ctx, "1")
    return s1, s2, p1


def piece_classes(ctx, pieces):
    return tuple(summand_ids(ctx, p) for p in pieces)


def test_stalk_slots_carry_expected_shifts():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    zero_id = summand_ids(ctx, ctx.zero_rep())
    sid = summand_ids(ctx, s1)
    # slot 0 holds shift 0, slot 2 holds shift 1, slot 1 holds shift 2
    assert piece_classes(ctx, normal_pieces(ctx, CycleComplex.stalk(ctx, s1, 0, t=3))) == (sid, zero_id, zero_id)
    assert piece_classes(ctx, normal_pieces(ctx, CycleComplex.stalk(ctx, s1, 2, t=3))) == (zero_id, sid, zero_id)
    assert piece_classes(ctx, normal_pieces(ctx, CycleComplex.stalk(ctx, s1, 1, t=3))) == (zero_id, zero_id, sid)
    # at any period slot k holds shift -k mod t
    for t in PERIODS[1:]:
        for k in range(t):
            expected = [zero_id] * t
            expected[-k % t] = sid
            assert piece_classes(ctx, normal_pieces(ctx, CycleComplex.stalk(ctx, s1, k, t=t))) == tuple(expected)


def test_complexes_refuse_mixed_periods():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    c3, c5 = wrap_module(ctx, s1, t=3), wrap_module(ctx, s1, t=5)
    assert (c3.t, c5.t) == (3, 5)
    with pytest.raises(ValueError, match="one period"):
        ChainMap.zero(c3, c5)
    with pytest.raises(ValueError, match="period 3 to period 5"):
        chain_hom_space(ctx, c3, c5)
    with pytest.raises(ValueError, match="5-periodic"):
        direct_sum_complexes(ctx, [c3, c5], t=5)
    with pytest.raises(ValueError, match="5-periodic"):
        summand_maps(c5, [c3])
    with pytest.raises(ValueError, match="one differential per slot"):
        CycleComplex(ctx, c3.slots, c3.diffs[:2])
    # the empty sum is the zero complex of the given period
    zero = direct_sum_complexes(ctx, [], t=5)
    assert zero.t == 5 and all(s.is_zero() for s in zero.slots) and summand_maps(zero, []) == ([], [])


def test_shift_moves_stalks_forward():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    c = CycleComplex.stalk(ctx, s1, 0, t=3)
    assert c.shift(1).slots[2].total_dim == 1
    assert c.shift(2).slots[1].total_dim == 1
    assert c.shift(1).shift(2).key() == c.shift(0).key() or ctx.field.p != 2


def test_wrap_of_nonprojective_uses_resolution():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    for t in PERIODS:
        w = wrap_module(ctx, s1, t=t)
        assert [s.dims for s in w.slots] == [(1, 1)] + [(0, 0)] * (t - 2) + [(0, 1)]
        assert not w.diffs[t - 1].is_zero()


def test_wrap_of_projective_is_stalk():
    ctx = a2_ctx()
    _, s2, p1 = a2_modules(ctx)
    for rep in (s2, p1):
        w = wrap_module(ctx, rep, t=3)
        assert w.slots[1].is_zero and w.slots[1].total_dim == 0
        assert w.slots[2].total_dim == 0
        assert summand_ids(ctx, w.slots[0]) == summand_ids(ctx, rep)


def test_normalize_wrap_round_trip_all_small_classes():
    ctx = a2_ctx()
    zero_id = summand_ids(ctx, ctx.zero_rep())
    for t in PERIODS:
        for rep in enumerate_reps(ctx, (1, 1)):
            for s in range(t):
                pieces = normal_pieces(ctx, wrap_module(ctx, rep, s, t=t))
                got = piece_classes(ctx, pieces)
                expected = [zero_id] * t
                if rep.total_dim:
                    expected[s] = summand_ids(ctx, rep)
                assert got == tuple(expected), (t, rep, s)


def shift_one_at_a_time(c, n):
    for _ in range(n):
        c = c.shift(1)
    return c


def test_triple_shift_is_identity_on_normal_forms():
    # t single shifts are the identity at period t
    ctx3, ctx2 = a2_ctx(p=3), a2_ctx(p=2)
    s1, _, _ = a2_modules(ctx3)
    for t in PERIODS:
        c = wrap_module(ctx3, s1, t=t)
        ct = shift_one_at_a_time(c, t)
        # over F_3 an odd number of shifts leaves a global sign on the
        # differentials, so the complexes differ on the nose but agree
        # in the homotopy category
        assert ct.key() != c.key()
        assert piece_classes(ctx3, normal_pieces(ctx3, ct)) == piece_classes(ctx3, normal_pieces(ctx3, c))
        assert find_homotopy_iso(ctx3, c, ct) is not None
        # over F_2 there is no sign and the round trip is literal
        w = wrap_module(ctx2, ctx2.simple("1"), t=t)
        assert shift_one_at_a_time(w, t).key() == w.key()


def single_shift(c):
    """One literal rotation: slot i + 1 moves to slot i and every
    differential is negated."""
    return CycleComplex(c.ctx, c.slots[1:] + c.slots[:1], [d.scale(-1) for d in c.diffs[1:] + c.diffs[:1]])


def single_shift_map(f):
    return ChainMap(single_shift(f.source), single_shift(f.target), f.comps[1:] + f.comps[:1])


def test_shift_by_n_is_n_single_shifts():
    # over F_3 a negated differential differs from the original; shift(n)
    # reads n mod t, since t literal rotations negate every differential
    ctx = a2_ctx(p=3)
    s1, s2, _ = a2_modules(ctx)
    for t in PERIODS:
        f = chain_hom_space(ctx, wrap_module(ctx, s1, t=t), wrap_module(ctx, s2, 1, t=t)).rep_map((1,))
        cone = mapping_cone(ctx, f)
        a3 = PeriodicContext(RepContext(line_quiver(3), FieldSpec(3)), t)
        # every non-projective class of A3 at its own shift: a complex
        # with several nonzero differentials
        nonprojective = [r for r in enumerate_reps(a3.ctx, (1, 1, 1)) if is_indecomposable(a3.ctx, r) and not r.dims[-1]]
        key = a3.direct_sum_key(*(module_key(a3, r, s) for s, r in enumerate(nonprojective)))
        realized = ChainModel(a3).realize(key)
        assert sum(not d.is_zero() for d in realized.diffs) > 1
        for c in (wrap_module(ctx, s1, t=t), realized, cone):
            expected = c
            for n in range(2 * t):
                assert c.shift(n) == expected, (t, n)
                expected = c if n % t == t - 1 else single_shift(expected)
        expected = f
        for n in range(2 * t):
            got = f.shift(n)
            assert (got.source, got.target, got.key()) == (expected.source, expected.target, expected.key()), (t, n)
            expected = f if n % t == t - 1 else single_shift_map(expected)


def test_rotation_equivariance_of_normal_form():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    total = direct_sum_complexes(ctx, [wrap_module(ctx, s1, 0, t=3), wrap_module(ctx, s2, 2, t=3)], t=3)
    n0, n1, n2 = piece_classes(ctx, normal_pieces(ctx, total))
    assert piece_classes(ctx, normal_pieces(ctx, total.shift(1))) == (n2, n0, n1)
    assert piece_classes(ctx, normal_pieces(ctx, total.shift(2))) == (n1, n2, n0)
    # shifting by n moves the piece at shift s to shift s + n
    for t in PERIODS[1:]:
        total = direct_sum_complexes(ctx, [wrap_module(ctx, s1, 0, t=t), wrap_module(ctx, s2, 2, t=t)], t=t)
        base = piece_classes(ctx, normal_pieces(ctx, total))
        for n in range(t):
            assert piece_classes(ctx, normal_pieces(ctx, total.shift(n))) == base[-n:] + base[:-n]


def test_hom_dims_follow_residue_pattern():
    # at the longer periods the source sits at shift 0, which meets every
    # residue j - i
    ctx = a2_ctx()
    s1, s2, p1 = a2_modules(ctx)
    mods = [s1, s2, p1]
    for t in PERIODS:
        for x in mods:
            for y in mods:
                he = ctx.hom_ext(x, y)
                hom, ext = len(he.hom), he.ext_dim
                for i in range(t) if t == 3 else (0,):
                    for j in range(t):
                        d = chain_hom_space(ctx, wrap_module(ctx, x, i, t=t), wrap_module(ctx, y, j, t=t)).dim
                        r = (j - i) % t
                        expected = hom if r == 0 else (ext if r == 1 else 0)
                        assert d == expected, (t, x.dims, i, y.dims, j, d, expected)


def test_minimal_wraps_have_no_homotopies():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    h = chain_hom_space(ctx, wrap_module(ctx, s1, t=3), wrap_module(ctx, s1, t=3))
    assert h.chain_dim == h.dim == 1


def test_contractible_cone_vanishes_in_normal_form():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    w = wrap_module(ctx, s1, t=3)
    cone = mapping_cone(ctx, ChainMap.identity(w))
    injs, projs = summand_maps(cone, [w.shift(1), w])
    incl, proj = injs[1], projs[0]
    zero_id = summand_ids(ctx, ctx.zero_rep())
    assert piece_classes(ctx, normal_pieces(ctx, cone)) == (zero_id, zero_id, zero_id)
    # maps into a contractible complex are null-homotopic but the chain
    # space itself is bigger
    h = chain_hom_space(ctx, w, cone)
    assert h.dim == 0
    assert h.chain_dim > 0
    assert incl.then(proj).is_zero()


def test_cone_triangle_compositions():
    # the zero map S2 -> S1, and every nonzero class between wrapped S1,
    # S2 and P1 of A2 at shifts 0-2: incl and proj are chain maps, and
    # consecutive maps of X -u-> Y -incl-> cone -proj-> X[1] -u[1]-> Y[1]
    # compose to zero up to homotopy
    nonzero = 0
    for p in (2, 3):
        ctx = a2_ctx(p)
        s1, s2, p1 = a2_modules(ctx)
        wrapped = [wrap_module(ctx, m, s, t=3) for m in (s1, s2, p1) for s in range(3)]
        maps = [ChainMap.zero(wrap_module(ctx, s2, t=3), wrap_module(ctx, s1, t=3))]
        for x in wrapped:
            for y in wrapped:
                maps += [u for coords, u in chain_hom_space(ctx, x, y).morphisms() if any(coords)]
        for u in maps:
            cone = mapping_cone(ctx, u)
            injs, projs = summand_maps(cone, [u.source.shift(1), u.target])
            incl, proj = injs[1], projs[0]
            # validate the chain conditions explicitly
            ChainMap(u.target, cone, incl.comps)
            ChainMap(cone, u.source.shift(1), proj.comps)
            assert incl.then(proj).is_zero()
            assert chain_hom_space(ctx, u.source, cone).is_null_homotopic(u.then(incl))
            assert chain_hom_space(ctx, cone, u.target.shift(1)).is_null_homotopic(proj.then(u.shift(1)))
        nonzero += len(maps) - 1
    assert nonzero == 54


def test_cone_of_zero_map_is_direct_sum():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    # triangle direction X -> cone -> Y: cone(0: A -> B) == B + A[1]
    a = wrap_module(ctx, s2, t=3)
    b = wrap_module(ctx, s1, t=3)
    cone = mapping_cone(ctx, ChainMap.zero(a, b))
    got = piece_classes(ctx, normal_pieces(ctx, cone))
    assert got == (summand_ids(ctx, s1), summand_ids(ctx, s2), summand_ids(ctx, ctx.zero_rep()))


def test_cone_of_extension_morphism():
    # the one nonzero class in Hom(S1, S2[1]) over the A2 quiver has
    # cone the projective cover of S1, shifted once
    for p in (2, 3):
        ctx = a2_ctx(p)
        s1, s2, p1 = a2_modules(ctx)
        x = wrap_module(ctx, s1, t=3)
        y = wrap_module(ctx, s2, 1, t=3)
        h = chain_hom_space(ctx, x, y)
        assert h.dim == 1
        f = h.rep_map((1,))
        assert not h.is_null_homotopic(f)
        cone = mapping_cone(ctx, f)
        zero_id = summand_ids(ctx, ctx.zero_rep())
        assert piece_classes(ctx, normal_pieces(ctx, cone)) == (zero_id, summand_ids(ctx, p1), zero_id)


def test_class_coords_refuse_what_is_not_a_chain_map():
    ctx = a2_ctx(p=3)
    s1, _, p1 = a2_modules(ctx)
    for t in PERIODS[:2]:
        # S1 sits as P2 -> P1 in the last slot and slot 0: the identity at
        # slot 0 alone is slotwise a module map, but no chain map
        x = wrap_module(ctx, s1, t=t)
        comps = [RepMap.zero_map(a, a) for a in x.slots]
        comps[0] = RepMap.identity(x.slots[0])
        with pytest.raises(ValueError, match="does not commute"):
            ChainMap(x, x, comps)
        with pytest.raises(ValueError, match="chain condition"):
            chain_hom_space(ctx, x, x).class_coords(ChainMap(x, x, comps, check=False))
        # P1 is a stalk: its differentials vanish, so any slotwise maps
        # commute with them, but 1 at vertex 1 and 0 at vertex 2 is no
        # module map
        y = wrap_module(ctx, p1, t=t)
        comps = [RepMap.zero_map(a, a) for a in y.slots]
        top = y.slots[0]
        assert top.dims == (1, 1)
        comps[0] = RepMap(top, top, [MatrixFp.identity(ctx.field, 1), MatrixFp.zeros(ctx.field, 1, 1)], check=False)
        with pytest.raises(ValueError, match="not a morphism"):
            RepMap(top, top, comps[0].comps)
        with pytest.raises(ValueError, match="slot hom space"):
            chain_hom_space(ctx, y, y).class_coords(ChainMap(y, y, comps, check=False))


@given(st.integers(1, 4), st.lists(st.lists(st.integers(0, 2), min_size=4, max_size=4), max_size=3))
def test_rref_rows_taken_as_they_are_give_the_eliminated_subspace(ncols, rows):
    # the slotwise and chain-map bases skip a second elimination: on rref
    # rows with their pivots that gives the basis, pivots and free columns
    # elimination gives
    f3 = FieldSpec(3)
    rows = [row[:ncols] for row in rows]
    red, pivots = MatrixFp(f3, rows, ncols=ncols).rref()
    s, t = Subspace(f3, ncols, rows), Subspace._reduced(f3, ncols, red.rows[: len(pivots)], pivots)
    assert (t.basis.rows, t.pivots, t.free_columns) == (s.basis.rows, s.pivots, s.free_columns)


@pytest.mark.parametrize(
    "rows",
    [[[2, 0, 1]], [[0, 1, 0], [1, 0, 0]], [[1, 0, 0], [0, 0, 0]], [[1, 2, 0], [0, 1, 0]], [[1, 0]]],
    ids=["lead-not-one", "pivots-decrease", "zero-row", "pivot-column-not-clear", "short-row"],
)
def test_rref_rows_off_the_pivot_shape_are_refused(rows):
    # Subspace._reduced takes its rows on trust, so they must be rows
    # that elimination leaves as they are: Subspace refuses a short row
    # and changes every row set off the rref shape
    f3 = FieldSpec(3)
    if len(rows[0]) != 3:
        with pytest.raises(ValueError, match="ncols mismatch"):
            Subspace(f3, 3, rows)
    else:
        assert Subspace(f3, 3, rows).basis.rows != rows
    assert Subspace._reduced(f3, 3, [], ()).codim == 3 == Subspace(f3, 3, []).codim


def test_cone_class_ignores_homotopy_representative():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    contractible = mapping_cone(ctx, ChainMap.identity(wrap_module(ctx, s1, t=3)))
    target = direct_sum_complexes(ctx, [wrap_module(ctx, s2, t=3), contractible], t=3)
    src = wrap_module(ctx, s2, t=3)
    h = chain_hom_space(ctx, src, target)
    assert h.dim == 1
    assert h.chain_dim > 1
    for _, f in h.morphisms():
        base = piece_classes(ctx, normal_pieces(ctx, mapping_cone(ctx, f)))
        for seed in ((1,), (1, 0, 1), (1, 1, 1, 0, 1)):
            g = f.add(h.random_boundary(seed))
            assert h.class_coords(g) == h.class_coords(f)
            assert piece_classes(ctx, normal_pieces(ctx, mapping_cone(ctx, g))) == base


def test_shifted_cone_matches_cone_of_shift():
    ctx = a2_ctx(3)
    s1, s2, _ = a2_modules(ctx)
    x = wrap_module(ctx, s1, t=3)
    y = wrap_module(ctx, s2, 1, t=3)
    f = chain_hom_space(ctx, x, y).rep_map((1,))
    left = normal_pieces(ctx, mapping_cone(ctx, f.shift(1)))
    right = normal_pieces(ctx, mapping_cone(ctx, f).shift(1))
    assert piece_classes(ctx, left) == piece_classes(ctx, right)


def test_direct_sum_complex_maps_are_chain_maps():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    parts = [wrap_module(ctx, s1, t=3), wrap_module(ctx, s2, 1, t=3)]
    total = direct_sum_complexes(ctx, parts, t=3)
    injs, projs = summand_maps(total, parts)
    for k, part in enumerate(parts):
        ChainMap(part, total, injs[k].comps)
        ChainMap(total, part, projs[k].comps)
        assert injs[k].then(projs[k]).key() == ChainMap.identity(part).key()
    got = piece_classes(ctx, normal_pieces(ctx, total))
    assert got == (summand_ids(ctx, s1), summand_ids(ctx, s2), summand_ids(ctx, ctx.zero_rep()))


def three_part_key(pctx):
    s1, s2, p1 = a2_modules(pctx.ctx)
    return pctx.direct_sum_key(module_key(pctx, s1, 0), module_key(pctx, s2, 1), module_key(pctx, p1, 2))


def test_summand_maps_refuse_parts_that_do_not_add_up():
    # the wrapped parts of a key against the realization of its shift,
    # whose slots are rotated
    pctx = PeriodicContext(a2_ctx())
    chains = ChainModel(pctx)
    key = three_part_key(pctx)
    parts = [chains.wrap_part(part) for part in key]
    realized = chains.realize(key)
    assert len(summand_maps(realized, parts)[0]) == 3
    shifted = chains.realize(pctx.shift_key(key, 1))
    assert shifted.dims != realized.dims
    with pytest.raises(ValueError, match="add up to") as err:
        summand_maps(shifted, parts)
    assert f"add up to {realized.dims}, not to the total's {shifted.dims}" in str(err.value)


def test_cones_and_realized_keys_build_no_chain_maps(monkeypatch):
    # a direct sum is its block sum: neither a literal cone class nor a
    # cold realization of a three-part key builds a summand map
    pctx = PeriodicContext(a2_ctx())
    key = three_part_key(pctx)
    space = ChainModel(pctx).hom_space(key, key)
    assert space.dim == 4
    f = space.rep_map((1,) * space.dim)
    built = []
    init = ChainMap.__init__

    def counting_init(self, *args, **kw):
        built.append(args)
        init(self, *args, **kw)

    monkeypatch.setattr(ChainMap, "__init__", counting_init)
    cone_key_literal(pctx, f)
    assert len(built) == 0
    ChainModel(pctx).realize(key)
    assert len(built) == 0


def two_step_homology(ctx, c, i):
    """ker d_i / im d_{i-1} built in two steps: the kernel module, then
    the cokernel of d_{i-1} corestricted to it, its rows read in the
    kernel's rref coordinates."""
    ker, incl = ctx.kernel(c.diffs[i])
    comps = []
    for d, k in zip(c.diffs[i - 1].comps, incl.comps):
        span = Subspace(ctx.field, k.ncols, k.rows)
        assert span.basis == k
        coords = [span.coords(row) for row in d.rows]
        assert None not in coords
        comps.append(MatrixFp(ctx.field, coords, ncols=k.nrows))
    return ctx.cokernel(RepMap(c.slots[i - 1], ker, comps))[0]


@pytest.mark.parametrize("t", [3, 5])
@pytest.mark.parametrize("n, p, count", [(2, 3, 12), (3, 2, 12)])
def test_homology_pieces_match_the_two_step_recipe(n, p, count, t):
    # every cone of a morphism between the first objects of bound (1,...):
    # each piece of its normal form is, entry for entry, the cokernel of
    # the previous differential corestricted to the kernel module
    pctx = PeriodicContext(RepContext(line_quiver(n), FieldSpec(p)), t=t)
    ctx, chains = pctx.ctx, ChainModel(pctx)
    keys = list(itertools.islice(pctx.objects((1,) * n), count))
    cones = 0
    for x in keys:
        for y in keys:
            for _, f in chains.hom_space(x, y).morphisms():
                cone = mapping_cone(ctx, f)
                pieces = normal_pieces(ctx, cone)
                assert [piece.key() for piece in pieces] == [two_step_homology(ctx, cone, -s % t).key() for s in range(t)]
                cones += 1
    assert cones > count * count


def test_identity_iso_found():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    w = wrap_module(ctx, s1, t=3)
    assert find_homotopy_iso(ctx, w, w) is not None
    assert find_homotopy_iso(ctx, w, wrap_module(ctx, s1, 1, t=3)) is None


def test_the_iso_search_walks_class_pairs_within_the_cap():
    # the search walks p^(dim Hom(a, b) + dim Hom(b, a)) pairs of classes,
    # and the context's enum_cap bounds that number, not each side alone;
    # b is a with its parts swapped and a contractible summand added
    ctx = a2_ctx(p=3)
    s1, s2, _ = a2_modules(ctx)
    parts = [wrap_module(ctx, s1, t=3), wrap_module(ctx, s2, t=3)]
    a = direct_sum_complexes(ctx, parts, t=3)
    contractible = mapping_cone(ctx, ChainMap.identity(parts[1]))
    b = direct_sum_complexes(ctx, parts[::-1] + [contractible], t=3)
    fwd, bwd = chain_hom_space(ctx, a, b), chain_hom_space(ctx, b, a)
    assert (fwd.dim, bwd.dim) == (2, 2)
    ctx.enum_cap = 3**2
    assert len(list(fwd.morphisms())) == len(list(bwd.morphisms())) == 9
    with pytest.raises(BudgetExceeded) as err:
        find_homotopy_iso(ctx, a, b)
    slots = [[s.dims for s in c.slots] for c in (a, b)]
    assert slots[0] != slots[1]
    assert f"81 pairs of morphism classes exceed cap 9: slot dimension vectors {slots[0]} and {slots[1]}" in str(err.value)
    ctx.enum_cap = 81
    assert find_homotopy_iso(ctx, a, b) is not None
