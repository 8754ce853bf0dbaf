from perihall.periodic import (
    ChainMap,
    ChainModel,
    CycleComplex,
    chain_hom_space,
    direct_sum_complexes,
    find_homotopy_iso,
    lift_quotient_coords,
    mapping_cone,
    normal_pieces,
    projective,
    wrap_module,
)
from perihall.category import PeriodicContext
from perihall.gfp import FieldSpec, Subspace
from perihall.quiver import line_quiver
from perihall.reps import RepContext


def a2_ctx(p=2):
    return RepContext(line_quiver(2), FieldSpec(p))


def a2_modules(ctx):
    s1 = ctx.simple("1")
    s2 = ctx.simple("2")
    p1 = projective(ctx, "1")
    return s1, s2, p1


def piece_classes(ctx, pieces):
    return tuple(ctx.summand_ids(p) for p in pieces)


def test_stalk_slots_carry_expected_shifts():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    zero_id = ctx.summand_ids(ctx.zero_rep())
    sid = ctx.summand_ids(s1)
    # slot 0 holds shift 0, slot 2 holds shift 1, slot 1 holds shift 2
    assert piece_classes(ctx, normal_pieces(ctx, CycleComplex.stalk(ctx, s1, 0))) == (sid, zero_id, zero_id)
    assert piece_classes(ctx, normal_pieces(ctx, CycleComplex.stalk(ctx, s1, 2))) == (zero_id, sid, zero_id)
    assert piece_classes(ctx, normal_pieces(ctx, CycleComplex.stalk(ctx, s1, 1))) == (zero_id, zero_id, sid)


def test_shift_moves_stalks_forward():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    c = CycleComplex.stalk(ctx, s1, 0)
    assert c.shift(1).slots[2].total_dim == 1
    assert c.shift(2).slots[1].total_dim == 1
    assert c.shift(1).shift(2).key() == c.shift(0).key() or ctx.field.p != 2


def test_wrap_of_nonprojective_uses_resolution():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    w = wrap_module(ctx, s1)
    assert [s.dims for s in w.slots] == [(1, 1), (0, 0), (0, 1)]
    assert not w.diffs[2].is_zero()


def test_wrap_of_projective_is_stalk():
    ctx = a2_ctx()
    _, s2, p1 = a2_modules(ctx)
    for rep in (s2, p1):
        w = wrap_module(ctx, rep)
        assert w.slots[1].is_zero and w.slots[1].total_dim == 0
        assert w.slots[2].total_dim == 0
        assert ctx.summand_ids(w.slots[0]) == ctx.summand_ids(rep)


def test_normalize_wrap_round_trip_all_small_classes():
    ctx = a2_ctx()
    zero_id = ctx.summand_ids(ctx.zero_rep())
    for rep in ctx.enumerate_reps((1, 1)):
        for s in range(3):
            pieces = normal_pieces(ctx, wrap_module(ctx, rep, s))
            got = piece_classes(ctx, pieces)
            expected = [zero_id, zero_id, zero_id]
            if rep.total_dim:
                expected[s] = ctx.summand_ids(rep)
            assert got == tuple(expected)


def test_triple_shift_is_identity_on_normal_forms():
    ctx3 = a2_ctx(p=3)
    s1, _, _ = a2_modules(ctx3)
    c = wrap_module(ctx3, s1)
    c3 = c.shift(1).shift(1).shift(1)
    # over F_3 the differentials pick up a global sign, so the complexes
    # differ on the nose but agree in the homotopy category
    assert c3.key() != c.key()
    assert piece_classes(ctx3, normal_pieces(ctx3, c3)) == piece_classes(ctx3, normal_pieces(ctx3, c))
    assert find_homotopy_iso(ctx3, c, c3) is not None
    # over F_2 there is no sign and the round trip is literal
    ctx2 = a2_ctx(p=2)
    w = wrap_module(ctx2, ctx2.simple("1"))
    assert w.shift(1).shift(1).shift(1).key() == w.key()


def single_shift(c):
    """One literal rotation: slot i + 1 moves to slot i and every
    differential is negated."""
    return CycleComplex(c.ctx, c.slots[1:] + c.slots[:1], [d.scale(-1) for d in c.diffs[1:] + c.diffs[:1]])


def single_shift_map(f):
    return ChainMap(single_shift(f.source), single_shift(f.target), f.comps[1:] + f.comps[:1])


def test_shift_by_n_is_n_single_shifts():
    # over F_3 a negated differential differs from the original; shift(n)
    # reads n mod 3, since three literal rotations negate every differential
    ctx = a2_ctx(p=3)
    s1, s2, _ = a2_modules(ctx)
    f = chain_hom_space(ctx, wrap_module(ctx, s1), wrap_module(ctx, s2, 1)).rep_map((1,))
    cone = mapping_cone(ctx, f)[0]
    a3 = PeriodicContext(RepContext(line_quiver(3), FieldSpec(3)))
    chains = ChainModel(a3)
    realized = next(
        c for c in (chains.realize(k).total for k in reversed(a3.enumerate_objects((1, 1, 1))))
        if sum(not d.is_zero() for d in c.diffs) > 1
    )
    for c in (wrap_module(ctx, s1), realized, cone):
        expected = c
        for n in range(6):
            assert c.shift(n) == expected, n
            expected = c if n % 3 == 2 else single_shift(expected)
    expected = f
    for n in range(6):
        got = f.shift(n)
        assert (got.source, got.target, got.key()) == (expected.source, expected.target, expected.key()), n
        expected = f if n % 3 == 2 else single_shift_map(expected)


def test_rotation_equivariance_of_normal_form():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    total, _, _ = direct_sum_complexes(ctx, [wrap_module(ctx, s1, 0), wrap_module(ctx, s2, 2)])
    n0, n1, n2 = piece_classes(ctx, normal_pieces(ctx, total))
    assert piece_classes(ctx, normal_pieces(ctx, total.shift(1))) == (n2, n0, n1)
    assert piece_classes(ctx, normal_pieces(ctx, total.shift(2))) == (n1, n2, n0)


def test_hom_dims_follow_residue_pattern():
    ctx = a2_ctx()
    s1, s2, p1 = a2_modules(ctx)
    mods = [s1, s2, p1]
    for x in mods:
        for y in mods:
            hom = ctx.hom_dim(x, y)
            ext = ctx.ext1_dim(x, y)
            for i in range(3):
                for j in range(3):
                    d = chain_hom_space(ctx, wrap_module(ctx, x, i), wrap_module(ctx, y, j)).dim
                    r = (j - i) % 3
                    expected = hom if r == 0 else (ext if r == 1 else 0)
                    assert d == expected, (x.dims, i, y.dims, j, d, expected)


def test_minimal_wraps_have_no_homotopies():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    h = chain_hom_space(ctx, wrap_module(ctx, s1), wrap_module(ctx, s1))
    assert h.chain_dim == h.dim == 1


def test_contractible_cone_vanishes_in_normal_form():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    w = wrap_module(ctx, s1)
    cone, incl, proj = mapping_cone(ctx, ChainMap.identity(w))
    zero_id = ctx.summand_ids(ctx.zero_rep())
    assert piece_classes(ctx, normal_pieces(ctx, cone)) == (zero_id, zero_id, zero_id)
    # maps into a contractible complex are null-homotopic but the chain
    # space itself is bigger
    h = chain_hom_space(ctx, w, cone)
    assert h.dim == 0
    assert h.chain_dim > 0
    assert incl.then(proj).is_zero()


def test_cone_triangle_compositions():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    x = wrap_module(ctx, s2)
    y = wrap_module(ctx, s1)
    for u in (ChainMap.zero(x, y), ):
        cone, incl, proj = mapping_cone(ctx, u)
        # validate the chain conditions explicitly
        ChainMap(u.target, cone, incl.comps)
        ChainMap(cone, u.source.shift(1), proj.comps)
        assert incl.then(proj).is_zero()
        comp = u.then(incl)
        assert chain_hom_space(ctx, u.source, cone).is_null_homotopic(comp)


def test_cone_of_zero_map_is_direct_sum():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    # triangle direction X -> cone -> Y: cone(0: A -> B) == B + A[1]
    a = wrap_module(ctx, s2)
    b = wrap_module(ctx, s1)
    cone, _, _ = mapping_cone(ctx, ChainMap.zero(a, b))
    got = piece_classes(ctx, normal_pieces(ctx, cone))
    assert got == (ctx.summand_ids(s1), ctx.summand_ids(s2), ctx.summand_ids(ctx.zero_rep()))


def test_cone_of_extension_morphism():
    # the one nonzero class in Hom(S1, S2[1]) over the A2 quiver has
    # cone the projective cover of S1, shifted once
    for p in (2, 3):
        ctx = a2_ctx(p)
        s1, s2, p1 = a2_modules(ctx)
        x = wrap_module(ctx, s1)
        y = wrap_module(ctx, s2, 1)
        h = chain_hom_space(ctx, x, y)
        assert h.dim == 1
        f = h.rep_map((1,))
        assert not h.is_null_homotopic(f)
        cone, _, _ = mapping_cone(ctx, f)
        zero_id = ctx.summand_ids(ctx.zero_rep())
        assert piece_classes(ctx, normal_pieces(ctx, cone)) == (zero_id, ctx.summand_ids(p1), zero_id)


def test_cone_class_ignores_homotopy_representative():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    contractible, _, _ = mapping_cone(ctx, ChainMap.identity(wrap_module(ctx, s1)))
    target, _, _ = direct_sum_complexes(ctx, [wrap_module(ctx, s2), contractible])
    src = wrap_module(ctx, s2)
    h = chain_hom_space(ctx, src, target)
    assert h.dim == 1
    assert h.chain_dim > 1
    for coords in h.enumerate_classes():
        f = h.rep_map(coords)
        base = piece_classes(ctx, normal_pieces(ctx, mapping_cone(ctx, f)[0]))
        for seed in ((1,), (1, 0, 1), (1, 1, 1, 0, 1)):
            g = f.add(h.random_boundary(seed))
            assert h.class_coords(g) == h.class_coords(f)
            assert piece_classes(ctx, normal_pieces(ctx, mapping_cone(ctx, g)[0])) == base


def test_shifted_cone_matches_cone_of_shift():
    ctx = a2_ctx(3)
    s1, s2, _ = a2_modules(ctx)
    x = wrap_module(ctx, s1)
    y = wrap_module(ctx, s2, 1)
    f = chain_hom_space(ctx, x, y).rep_map((1,))
    left = normal_pieces(ctx, mapping_cone(ctx, f.shift(1))[0])
    right = normal_pieces(ctx, mapping_cone(ctx, f)[0].shift(1))
    assert piece_classes(ctx, left) == piece_classes(ctx, right)


def test_direct_sum_complex_maps_are_chain_maps():
    ctx = a2_ctx()
    s1, s2, _ = a2_modules(ctx)
    parts = [wrap_module(ctx, s1), wrap_module(ctx, s2, 1)]
    total, injs, projs = direct_sum_complexes(ctx, parts)
    for k, part in enumerate(parts):
        ChainMap(part, total, injs[k].comps)
        ChainMap(total, part, projs[k].comps)
        assert injs[k].then(projs[k]).key() == ChainMap.identity(part).key()
    got = piece_classes(ctx, normal_pieces(ctx, total))
    assert got == (ctx.summand_ids(s1), ctx.summand_ids(s2), ctx.summand_ids(ctx.zero_rep()))


def test_identity_iso_found():
    ctx = a2_ctx()
    s1, _, _ = a2_modules(ctx)
    w = wrap_module(ctx, s1)
    assert find_homotopy_iso(ctx, w, w) is not None
    assert find_homotopy_iso(ctx, w, wrap_module(ctx, s1, 1)) is None


def test_lift_quotient_coords_round_trips():
    # the lift carries the coordinates at the free columns, 1 and 2 here
    s = Subspace(FieldSpec(3), 3, [[1, 0, 1]])
    for coords in ((1, 1), (2, 0), (0, 0)):
        lifted = lift_quotient_coords(s, coords)
        assert lifted[0] == 0
        assert s.quotient_coords(lifted) == coords
