import itertools

import pytest
from hypothesis import given, strategies as st

from perihall.checks import matrix_inverse
from perihall.gfp import FieldSpec, MatrixFp, Subspace, gl_order, unit_group_order

F2 = FieldSpec(2)
F3 = FieldSpec(3)
F5 = FieldSpec(5)


def mats(p, max_rows=4, max_cols=4):
    def build(draw_data):
        nrows, ncols, flat = draw_data
        return MatrixFp.from_flat(FieldSpec(p), flat[: nrows * ncols], nrows, ncols)

    return st.tuples(
        st.integers(1, max_rows),
        st.integers(1, max_cols),
        st.lists(st.integers(0, p - 1), min_size=max_rows * max_cols, max_size=max_rows * max_cols),
    ).map(build)


def solve_row(m, b):
    """One v with v @ m == b, or None: the coordinates of b over the rref
    basis of the row space (``Subspace.coords``), carried back to the rows
    of m by the transform of the row reduction."""
    _, pivots, t = m.rref_with_transform()
    coords = Subspace(m.field, m.ncols, m.rows).coords(b)
    if coords is None:
        return None
    return MatrixFp(m.field, [coords], ncols=len(pivots)).mul(MatrixFp(m.field, t.rows[: len(pivots)], ncols=m.nrows)).rows[0]


def test_field_validation():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    f = FieldSpec(7)
    for a in range(1, 7):
        assert (a * f.inv(a)) % 7 == 1


def test_mul_identity_and_assoc():
    a = MatrixFp(F3, [[1, 2], [0, 1], [2, 2]])
    i3 = MatrixFp.identity(F3, 3)
    i2 = MatrixFp.identity(F3, 2)
    assert i3.mul(a) == a
    assert a.mul(i2) == a
    b = MatrixFp(F3, [[2, 1, 0], [1, 1, 1]])
    c = MatrixFp(F3, [[0, 1], [1, 2], [2, 0]])
    assert a.mul(b).mul(c) == a.mul(b.mul(c))


@given(mats(3))
def test_rref_idempotent(m):
    red, pivots = m.rref()
    again, pivots2 = red.rref()
    assert again == red
    assert pivots2 == pivots
    assert len(pivots) == m.rank()


@given(mats(2))
def test_rank_nullity_rows(m):
    # left kernel: rank + dim ker == number of rows
    kernel, image = m.kernel_and_image()
    ker = kernel.basis
    assert m.rank() + ker.nrows == m.nrows
    if ker.nrows:
        assert ker.mul(m).is_zero()
    # both spans of the one elimination are what eliminating their own
    # rows gives: the image is the row space, and the kernel is rref
    for span, ambient, rows in ((image, m.ncols, m.rows), (kernel, m.nrows, ker.rows)):
        again = Subspace(m.field, ambient, rows)
        assert (span.ambient, span.basis.rows, span.pivots, span.free_columns) == (ambient, again.basis.rows, again.pivots, again.free_columns)


@given(mats(5, max_rows=3, max_cols=3))
def test_transform_reproduces_rref(m):
    red, pivots, t = m.rref_with_transform()
    assert t.is_invertible()
    assert t.mul(m) == red


def test_solve_against_brute_force():
    # every row vector space with at most 5^3 = 125 points, checked exactly
    field = F5
    m = MatrixFp(field, [[1, 2, 0], [0, 1, 1], [1, 3, 1]])
    for b in itertools.product(range(5), repeat=3):
        got = solve_row(m, b)
        brute = None
        for v in itertools.product(range(5), repeat=3):
            vm = MatrixFp(field, [list(v)]).mul(m).rows[0]
            if vm == list(b):
                brute = v
                break
        if brute is None:
            assert got is None
        else:
            assert got is not None
            assert MatrixFp(field, [got]).mul(m).rows[0] == list(b)


@given(mats(2, max_rows=4, max_cols=3))
def test_solve_consistency(m):
    # anything in the row space must be solvable, anything solved must check out
    for row in m.rows:
        got = solve_row(m, row)
        assert got is not None
        assert MatrixFp(m.field, [got]).mul(m).rows[0] == [x % 2 for x in row]


def test_inverse_round_trip():
    m = MatrixFp(F3, [[1, 2, 0], [0, 1, 0], [1, 0, 1]])
    inv = matrix_inverse(m)
    assert m.mul(inv) == MatrixFp.identity(F3, 3)
    assert inv.mul(m) == MatrixFp.identity(F3, 3)


def test_singular_detection():
    m = MatrixFp(F3, [[1, 2], [2, 1]])  # det = 1 - 4 = 0 mod 3
    assert not m.is_invertible()
    with pytest.raises(ValueError):
        matrix_inverse(m)


def test_empty_shapes():
    e = MatrixFp.zeros(F2, 0, 3)
    m = MatrixFp(F2, [[1, 0, 1]])
    prod = m.mul(MatrixFp.zeros(F2, 3, 0))
    assert prod.nrows == 1 and prod.ncols == 0
    assert e.rank() == 0
    kernel, image = e.kernel_and_image()
    assert kernel.basis.nrows == 0 and image.codim == 3


def test_subspace_quotient_coords():
    s = Subspace(F2, 3, [[1, 0, 1]])
    assert s.dim == 1 and s.codim == 2
    # quotient coordinates are at the free columns, here 1 and 2
    assert s.free_columns == (1, 2)
    assert s.quotient_coords([1, 0, 1]) == (0, 0)
    assert s.quotient_coords([1, 1, 0]) == (1, 1)
    assert s.quotient_coords([1, 1, 1]) == (1, 0)


def test_subspace_coords_are_the_entries_at_the_pivots():
    s = Subspace(F3, 4, [[1, 2, 0, 1], [0, 0, 1, 2]])
    assert s.pivots == (0, 2)
    # 2 * row 0 + row 1, read back at columns 0 and 2, reduced mod 3
    assert s.coords([2, 1, 1, 1]) == [2, 1]
    assert s.coords([5, 4, -2, 4]) == [2, 1]
    assert s.coords([0, 1, 0, 0]) is None
    assert Subspace(F3, 2, []).coords([0, 0]) == []


def test_subspace_refuses_a_vector_of_the_wrong_length():
    # a longer vector was cut short and a shorter one raised IndexError;
    # both now name the two lengths
    s = Subspace(F3, 3, [[1, 0, 1]])
    for v in ([0, 1, 2, 5], [1, 0]):
        for read in (s.reduce, s.quotient_coords, s.coords):
            with pytest.raises(ValueError, match=f"length {len(v)} for a subspace of ambient dimension 3"):
                read(v)
    assert s.quotient_coords([0, 1, 2]) == (1, 2)


@given(mats(3, max_rows=3, max_cols=4))
def test_row_space_membership(m):
    s = Subspace(m.field, m.ncols, m.rows)
    for row in m.rows:
        assert not any(s.reduce(row))
    assert s.dim == m.rank()


def test_results_never_share_rows_with_operands():
    a = MatrixFp(F3, [[2, 1, 0], [1, 2, 2]])
    b = MatrixFp(F3, [[1, 1, 2], [0, 2, 1]])
    c = MatrixFp(F3, [[1, 0], [2, 1], [1, 1]])
    before = [m.copy_rows() for m in (a, b, c)]
    results = [a.vstack(b), a.rref()[0], a.mul(c), a.add(b), a.scale(2)]
    for r in results:
        for row in r.rows:
            for j in range(len(row)):
                row[j] = (row[j] + 1) % 3
    assert [m.rows for m in (a, b, c)] == before


@st.composite
def operands(draw):
    # a and b share a shape, c composes with a; entries start unreduced
    p = draw(st.sampled_from([2, 3, 5]))
    n, m, k = (draw(st.integers(1, 3)) for _ in range(3))

    def mat(r, s):
        flat = draw(st.lists(st.integers(-3 * p, 3 * p), min_size=r * s, max_size=r * s))
        return MatrixFp.from_flat(FieldSpec(p), flat, r, s)

    return mat(n, m), mat(n, m), mat(m, k), draw(st.integers(-2 * p, 2 * p))


@given(operands())
def test_arithmetic_results_stay_reduced(ops):
    a, b, c, s = ops
    p = a.field.p
    # every row of a scaled copy of a lies in the row space of a, and its
    # coordinates there are reduced, also when it is read unreduced
    span = Subspace(a.field, a.ncols, a.rows)
    coords = [span.coords(row) for row in a.scale(s).rows] + [span.coords([x - 3 * p for x in row]) for row in a.rows]
    assert None not in coords
    assert all(len(c) == span.dim and all(x in range(p) for x in c) for c in coords)
    results = [
        a.add(b),
        a.scale(s),
        a.scale(-1),
        a.mul(c),
        a.vstack(b),
        a.rref()[0],
        *a.rref_with_transform()[::2],
        *(span.basis for span in a.kernel_and_image()),
        MatrixFp.zeros(a.field, 2, 3),
        MatrixFp.identity(a.field, 3),
    ]
    for r in results:
        assert r.nrows == len(r.rows)
        assert all(len(row) == r.ncols for row in r.rows)
        assert all(x in range(p) for row in r.rows for x in row)


def test_public_constructor_reduces_and_checks():
    assert MatrixFp(F3, [[4, -1]]).rows == [[1, 2]]
    with pytest.raises(ValueError):
        MatrixFp(F3, [[1, 2], [1]])
    with pytest.raises(ValueError):
        MatrixFp(F3, [[1, 2]], ncols=3)


@pytest.mark.parametrize(
    "build, error, message",
    [
        # 9 and 32771 both reach the trial division; 32771 is a prime
        (lambda: FieldSpec(9), ValueError, "field order must be prime, got 9"),
        (lambda: FieldSpec(32771), ValueError, "field order 32771 too large"),
        (lambda: F5.inv(10), ZeroDivisionError, "inverse of 0"),
        (lambda: MatrixFp(F3, []), ValueError, "empty matrix needs explicit ncols"),
        (lambda: MatrixFp.from_flat(F3, [1, 2, 3], 2, 2), ValueError, "flat length mismatch"),
        (lambda: MatrixFp(F3, [[1, 2]]).mul(MatrixFp(F3, [[1, 2]])), ValueError, r"shape mismatch 1x2 \* 1x2"),
        (lambda: MatrixFp(F3, [[1, 2]]).vstack(MatrixFp(F3, [[1]])), ValueError, "vstack col mismatch"),
        (lambda: MatrixFp(F3, [[1, 2]]).add(MatrixFp(F3, [[1], [2]])), ValueError, "shape mismatch"),
    ],
    ids=["not-prime", "too-large", "inverse-of-0", "empty-no-ncols", "flat-length", "mul-shape", "vstack-shape", "add-shape"],
)
def test_field_and_matrix_inputs_are_refused(build, error, message):
    with pytest.raises(error, match=message):
        build()


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_unit_group_order_counts_units(q):
    assert unit_group_order(q, 4, [(2, 1)]) == gl_order(2, q)  # M_2(F_q)
    assert unit_group_order(q, 2, [(1, 2)]) == q * q - 1  # F_{q^2}
    assert unit_group_order(q, 2, [(1, 1)]) == q * (q - 1)  # F_q[x]/x^2
    assert unit_group_order(q, 0, []) == 1


@pytest.mark.parametrize("field", [F2, F3])
def test_unit_group_order_matches_invertible_matrices(field):
    p = field.p
    units = sum(MatrixFp.from_flat(field, flat, 2, 2).is_invertible() for flat in itertools.product(range(p), repeat=4))
    assert unit_group_order(p, 4, [(2, 1)]) == units


def test_unit_group_order_refuses_a_negative_radical():
    with pytest.raises(AssertionError, match="radical dimension negative"):
        unit_group_order(2, 3, [(2, 1)])
