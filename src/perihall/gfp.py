"""Exact linear algebra over prime fields.

Matrices here are small (tens of rows) but sit in the innermost loops of
everything above, so the representation is deliberately plain: a list of
row lists of Python ints reduced mod p. No floats anywhere.

Convention used by the whole package: vectors are rows and maps act on
the right. A linear map F_p^m -> F_p^n is an m x n matrix M, it sends v
to v @ M, and "f then g" composes as mat(f) @ mat(g). Consequently
``kernel_and_image`` returns the *left* kernel {v : v M = 0}, with the
row space, both as rref spans, and :meth:`Subspace.coords` reads a
vector's coordinates over a span off its pivot columns.

The public ``MatrixFp(...)`` constructor reduces every entry mod p and
checks the shape. Results of the package's own arithmetic (zeros,
identities, sums, products, stacks, row reductions) are freshly built
lists that are already reduced, so they go through the
internal ``MatrixFp._trusted`` instead, which stores the rows as given;
rref rows and pivots an elimination made go through its twin
``Subspace._reduced``. No result shares a row list with an operand.

The module holds only what the engine and its module layer call. The
reference code keeps its own helpers: the inverse of a matrix is
:func:`perihall.checks.matrix_inverse`. Every reader of coordinates over
an rref span, the Hom bases of :class:`perihall.reps.HomExt`, the
chain-level :class:`perihall.periodic.HomSpace` and the subquotients of
:meth:`perihall.reps.RepContext.subquotient`, calls :meth:`Subspace.coords`.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "FieldSpec",
    "MatrixFp",
    "Subspace",
    "gl_order",
    "rank_rows",
    "unit_group_order",
]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class FieldSpec:
    """A prime field F_p with a cached inverse table.

    p is capped at 2**15; everything in this package lives over small
    primes and the cap keeps the inverse table cheap.
    """

    __slots__ = ("p", "_inv")

    def __init__(self, p: int):
        if not isinstance(p, int) or not _is_prime(p):
            raise ValueError(f"field order must be prime, got {p!r}")
        if p >= 1 << 15:
            raise ValueError(f"field order {p} too large")
        self.p = p
        inv = [0] * p
        for a in range(1, p):
            inv[a] = pow(a, p - 2, p)
        self._inv = inv

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return self._inv[a]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FieldSpec) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("FieldSpec", self.p))

    def __repr__(self) -> str:
        return f"FieldSpec({self.p})"


def gl_order(m: int, q: int) -> int:
    """|GL_m(F_q)|."""
    out = 1
    for i in range(m):
        out *= q**m - q**i
    return out


def unit_group_order(q: int, dim: int, blocks: Iterable[Tuple[int, int]]) -> int:
    """The number of units of a finite F_q-algebra of dimension ``dim``
    whose semisimple quotient is the product of the matrix rings
    M_m(F_{q^d}) over (m, d) in ``blocks``: the radical is a nilpotent
    ideal of dimension dim - sum m^2 d, so every unit is a unit of the
    quotient times 1 plus a radical element."""
    rad_dim = dim
    order = 1
    for m, d in blocks:
        rad_dim -= m * m * d
        order *= gl_order(m, q**d)
    if rad_dim < 0:
        raise AssertionError(f"radical dimension negative ({rad_dim}); the blocks exceed the algebra")
    return q**rad_dim * order


class MatrixFp:
    """A dense matrix over F_p. Treated as immutable by convention."""

    __slots__ = ("field", "nrows", "ncols", "rows", "_key")

    def __init__(self, field: FieldSpec, rows: Sequence[Sequence[int]], ncols: Optional[int] = None):
        p = field.p
        self.field = field
        self.rows = [[int(x) % p for x in row] for row in rows]
        self.nrows = len(self.rows)
        if self.nrows:
            self.ncols = len(self.rows[0])
            if any(len(r) != self.ncols for r in self.rows):
                raise ValueError("ragged rows")
            if ncols is not None and ncols != self.ncols:
                raise ValueError("ncols mismatch")
        else:
            if ncols is None:
                raise ValueError("empty matrix needs explicit ncols")
            self.ncols = ncols
        self._key = None

    @classmethod
    def _trusted(cls, field: FieldSpec, rows: List[List[int]], ncols: int) -> "MatrixFp":
        """Wrap freshly built rows, already reduced mod p and of length
        ncols, without copying or checking them."""
        m = object.__new__(cls)
        m.field = field
        m.rows = rows
        m.nrows = len(rows)
        m.ncols = ncols
        m._key = None
        return m

    # -- constructors -------------------------------------------------

    @classmethod
    def zeros(cls, field: FieldSpec, nrows: int, ncols: int) -> "MatrixFp":
        return cls._trusted(field, [[0] * ncols for _ in range(nrows)], ncols)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "MatrixFp":
        return cls._trusted(field, [[1 if i == j else 0 for j in range(n)] for i in range(n)], n)

    @classmethod
    def block_diagonal(cls, field: FieldSpec, blocks: Sequence["MatrixFp"]) -> "MatrixFp":
        """The block-diagonal matrix with the given blocks, in order."""
        ncols = sum(b.ncols for b in blocks)
        rows: List[List[int]] = []
        pre = 0
        for b in blocks:
            rows.extend([0] * pre + row + [0] * (ncols - pre - b.ncols) for row in b.rows)
            pre += b.ncols
        return cls._trusted(field, rows, ncols)

    @classmethod
    def from_flat(cls, field: FieldSpec, flat: Sequence[int], nrows: int, ncols: int) -> "MatrixFp":
        if len(flat) != nrows * ncols:
            raise ValueError("flat length mismatch")
        return cls(field, [list(flat[i * ncols : (i + 1) * ncols]) for i in range(nrows)], ncols=ncols)

    # -- basics -------------------------------------------------------

    def key(self) -> Tuple:
        """Hashable content key (shape plus entries)."""
        if self._key is None:
            self._key = (self.nrows, self.ncols, tuple(tuple(r) for r in self.rows))
        return self._key

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MatrixFp)
            and other.field == self.field
            and other.key() == self.key()
        )

    def __hash__(self) -> int:
        return hash((self.field.p, self.key()))

    def __repr__(self) -> str:
        return f"MatrixFp({self.nrows}x{self.ncols} over F_{self.field.p})"

    def is_zero(self) -> bool:
        return all(x == 0 for row in self.rows for x in row)

    def flat(self) -> List[int]:
        return [x for row in self.rows for x in row]

    def copy_rows(self) -> List[List[int]]:
        return [row[:] for row in self.rows]

    # -- arithmetic ---------------------------------------------------

    def add(self, other: "MatrixFp") -> "MatrixFp":
        self._check_shape(other)
        p = self.field.p
        return MatrixFp._trusted(
            self.field,
            [[(a + b) % p for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
            self.ncols,
        )

    def scale(self, c: int) -> "MatrixFp":
        p = self.field.p
        c %= p
        return MatrixFp._trusted(self.field, [[(c * a) % p for a in row] for row in self.rows], self.ncols)

    def mul(self, other: "MatrixFp") -> "MatrixFp":
        """Matrix product; under the row convention this composes
        self-then-other when both are maps."""
        if self.ncols != other.nrows:
            raise ValueError(f"shape mismatch {self.nrows}x{self.ncols} * {other.nrows}x{other.ncols}")
        p = self.field.p
        bt = list(zip(*other.rows)) if other.rows else []
        out = []
        for row in self.rows:
            if bt:
                out.append([sum(a * b for a, b in zip(row, col)) % p for col in bt])
            else:
                out.append([0] * other.ncols)
        return MatrixFp._trusted(self.field, out, other.ncols)

    __matmul__ = mul

    def vstack(self, other: "MatrixFp") -> "MatrixFp":
        if self.ncols != other.ncols:
            raise ValueError("vstack col mismatch")
        return MatrixFp._trusted(self.field, [r[:] for r in self.rows] + [r[:] for r in other.rows], self.ncols)

    def _check_shape(self, other: "MatrixFp") -> None:
        if self.nrows != other.nrows or self.ncols != other.ncols:
            raise ValueError("shape mismatch")

    # -- elimination --------------------------------------------------

    def rref(self) -> Tuple["MatrixFp", Tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns."""
        rows = self.copy_rows()
        pivots = _rref_in_place(rows, self.ncols, self.field)
        return MatrixFp._trusted(self.field, rows, self.ncols), pivots

    def rref_with_transform(self) -> Tuple["MatrixFp", Tuple[int, ...], "MatrixFp"]:
        """As rref(), plus an invertible T with T @ self == rref."""
        n = self.nrows
        aug = [row[:] + [1 if i == j else 0 for j in range(n)] for i, row in enumerate(self.rows)]
        if not aug:
            return self, (), MatrixFp._trusted(self.field, [], 0)
        pivots = _rref_in_place(aug, self.ncols, self.field)
        red = [row[: self.ncols] for row in aug]
        t = [row[self.ncols :] for row in aug]
        return (
            MatrixFp._trusted(self.field, red, self.ncols),
            pivots,
            MatrixFp._trusted(self.field, t, n),
        )

    def rank(self) -> int:
        return rank_rows(self.copy_rows(), self.ncols, self.field.p)

    def kernel_and_image(self) -> Tuple["Subspace", "Subspace"]:
        """The left kernel {v : v @ self == 0} and the row space (the
        image of v |-> v @ self), as rref spans from one elimination."""
        red, pivots, t = self.rref_with_transform()
        rows = t.rows[len(pivots) :]  # independent, so their rref has no zero row
        kernel = Subspace._reduced(self.field, self.nrows, rows, _rref_in_place(rows, self.nrows, self.field) if rows else ())
        return kernel, Subspace._reduced(self.field, self.ncols, red.rows[: len(pivots)], pivots)

    def is_invertible(self) -> bool:
        return self.nrows == self.ncols and self.rank() == self.nrows

def rank_rows(rows: List[List[int]], ncols: int, p: int) -> int:
    """Rank over F_p of the matrix with these rows, entries in [0, p),
    by forward elimination. Consumes the list and its rows."""
    if len(rows) <= 1 or ncols == 1:
        return 1 if any(map(any, rows)) else 0
    rank = 0
    while rows:
        row = rows.pop()
        c = next((c for c, v in enumerate(row) if v), None)
        if c is None:
            continue
        rank += 1
        inv = pow(row[c], p - 2, p)
        for other in rows:
            if other[c]:
                f = other[c] * inv % p
                for j in range(c, ncols):
                    other[j] = (other[j] - f * row[j]) % p
    return rank


def _rref_in_place(rows: List[List[int]], ncols: int, field: FieldSpec) -> Tuple[int, ...]:
    """Reduce rows to rref in place; returns pivot columns."""
    p = field.p
    pivots: List[int] = []
    r = 0
    nrows = len(rows)
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if rows[i][c] % p:
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = field.inv(rows[r][c])
        if inv != 1:
            row = rows[r]
            for j in range(len(row)):
                if row[j]:
                    row[j] = (row[j] * inv) % p
        prow = rows[r]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                row = rows[i]
                for j in range(len(row)):
                    if prow[j]:
                        row[j] = (row[j] - f * prow[j]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return tuple(pivots)


class Subspace:
    """A subspace of F_p^n stored as canonical rref rows.

    Supports reduction mod the subspace, coordinates of its vectors
    (entries at the pivot columns) and canonical coordinates on the
    quotient (entries at the non-pivot columns).
    """

    __slots__ = ("field", "ambient", "basis", "pivots", "_free")

    def __init__(self, field: FieldSpec, ambient: int, rows: Iterable[Sequence[int]]):
        red, pivots = MatrixFp(field, [list(r) for r in rows], ncols=ambient).rref()
        self._fill(field, ambient, red.rows[: len(pivots)], pivots)

    @classmethod
    def _reduced(cls, field: FieldSpec, ambient: int, rows: List[List[int]], pivots: Tuple[int, ...]) -> "Subspace":
        """Wrap rows already in rref, with their pivot columns, without
        eliminating again; the twin of :meth:`MatrixFp._trusted`."""
        sub = object.__new__(cls)
        sub._fill(field, ambient, rows, pivots)
        return sub

    def _fill(self, field: FieldSpec, ambient: int, rows: List[List[int]], pivots: Tuple[int, ...]) -> None:
        self.field = field
        self.ambient = ambient
        self.basis = MatrixFp._trusted(field, rows, ambient)
        self.pivots = pivots
        pivot_set = set(pivots)
        self._free = tuple(c for c in range(ambient) if c not in pivot_set)

    @property
    def dim(self) -> int:
        return len(self.pivots)

    @property
    def codim(self) -> int:
        return self.ambient - self.dim

    @property
    def free_columns(self) -> Tuple[int, ...]:
        return self._free

    def reduce(self, v: Sequence[int]) -> List[int]:
        """The canonical representative of v modulo the subspace."""
        if len(v) != self.ambient:
            raise ValueError(f"vector of length {len(v)} for a subspace of ambient dimension {self.ambient}")
        p = self.field.p
        out = [int(x) % p for x in v]
        for i, c in enumerate(self.pivots):
            if out[c]:
                f = out[c]
                brow = self.basis.rows[i]
                for j in range(self.ambient):
                    if brow[j]:
                        out[j] = (out[j] - f * brow[j]) % p
        return out

    def coords(self, v: Sequence[int]) -> Optional[List[int]]:
        """The coordinates of v over the rref basis, its entries mod p at
        the pivot columns, or None when v is not in the subspace."""
        if any(self.reduce(v)):
            return None
        p = self.field.p
        return [int(v[c]) % p for c in self.pivots]

    def quotient_coords(self, v: Sequence[int]) -> Tuple[int, ...]:
        red = self.reduce(v)
        return tuple(red[c] for c in self._free)
