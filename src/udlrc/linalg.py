"""Dense exact linear algebra over a tagged field context.

Matrix works over a PrimeField or an ExtField context.  Products and
eliminations run on packed rows, the kernel fields owns (see its module
docstring for the layout and the slot bound).

One step, _Packing.reduce, clears the pivot columns of an echelon basis
from one row.  It scales the row by the basis entry's pivot instead of
multiplying the entry by the pivot's inverse, so elimination takes no
inverse; the zero pattern, and hence every pivot and rank, is the same.
Rows join the basis in the order they arrive, each pivoting on its first
nonzero column, read off the lowest set bit of the packed row, so the
length of the basis is the rank (Matrix.rank, RankTracker).  A backward
pass of the same step brings the basis to reduced form, pivots unscaled
(_Packing.reduced, whose columns the distance oracle walks when the
generator is not a Moore matrix), and one pivot
inverse per row scales it to RREF (solve, inverse, row_space_basis).
Rows are packed on entry to an elimination and unpacked on exit, so
elements keep their public form.  A fixed pivot rule keeps every run
identical; exact arithmetic has no stability concerns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import PrimeField, _Packing, _packing


class SingularMatrix(ValueError):
    """Square system whose rank is below its dimension."""


@dataclass
class Matrix:
    """A rectangular grid of elements of one field context."""

    field: object
    rows: list[list]

    def __post_init__(self) -> None:
        if self.rows:
            w = len(self.rows[0])
            if any(len(r) != w for r in self.rows):
                raise ValueError("rows must all have the same length")

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @classmethod
    def identity(cls, field, n: int) -> "Matrix":
        zero, one = field.zero, field.one
        return cls(field, [[one if i == j else zero for j in range(n)] for i in range(n)])

    def take_columns(self, cols: Iterable[int]) -> "Matrix":
        sel = list(cols)
        for c in sel:
            if not 0 <= c < self.ncols:
                raise IndexError(f"column {c} out of range for {self.ncols} columns")
        return Matrix(self.field, [[row[c] for c in sel] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.rows)] if self.rows else [])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        pk = _packing(other.field, other.ncols)
        packed = [pk.pack(row) for row in other.rows]
        return Matrix(self.field, [pk.unpack(_combine(pk, row, packed)) for row in self.rows])

    def left_multiply(self, vector: Sequence) -> list:
        """Row vector times matrix."""
        if len(vector) != self.nrows:
            raise ValueError(f"vector length {len(vector)} does not match {self.nrows} rows")
        pk = _packing(self.field, self.ncols)
        return pk.unpack(_combine(pk, vector, map(pk.pack, self.rows)))

    def rank(self) -> int:
        pk = _packing(self.field, self.ncols)
        return len(pk.echelon(map(pk.pack, self.rows), self.ncols))

    def _solve_block(self, right: Sequence[list]) -> list[list]:
        """X with self @ X = right, for a square invertible self."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError(f"need a square matrix, got {n}x{self.ncols}")
        if len(right) != n:
            raise ValueError(f"right-hand side length {len(right)} does not match {n}")
        aug = [list(r) + list(b) for r, b in zip(self.rows, right)]
        pk = _packing(self.field, len(aug[0]) if aug else 0)
        basis = pk.reduced_echelon(map(pk.pack, aug), n)
        if len(basis) < n:
            raise SingularMatrix(f"matrix rank {len(basis)} < {n}")
        return [pk.unpack(row, n) for row in basis]

    def solve(self, rhs: Sequence) -> list:
        """Solution of self @ x = rhs for a square invertible matrix."""
        return [x for (x,) in self._solve_block([[v] for v in rhs])]

    def inverse(self) -> "Matrix":
        return Matrix(self.field, self._solve_block(Matrix.identity(self.field, self.nrows).rows))

    def row_space_basis(self) -> "Matrix":
        """Reduced row echelon basis of the row space, zero rows dropped."""
        pk = _packing(self.field, self.ncols)
        return Matrix(self.field, [pk.unpack(row) for row in pk.reduced_echelon(map(pk.pack, self.rows), self.ncols)])


def _combine(pk: _Packing, vector: Sequence, packed_rows: Iterable[int]) -> int:
    """The packed sum of the packed rows weighted by the vector's elements."""
    acc = 0
    for v, row in zip(vector, packed_rows):
        acc = pk.canon(acc + pk.pack_elem(v) * row)
    return acc


class RankTracker:
    """Incremental echelon form of coordinate vectors over F_q."""

    def __init__(self, q: int) -> None:
        self.q = q
        self._field = PrimeField(q)
        self._basis: list[tuple] = []
        self._pk: _Packing | None = None

    @property
    def rank(self) -> int:
        return len(self._basis)

    def add(self, coords: Sequence[int]) -> bool:
        """Reduce coords against the basis; keep and report True if independent."""
        pk = self._pk
        if pk is None or pk.length != len(coords):
            pk = self._pk = _packing(self._field, len(coords))
        return pk.extend(self._basis, pk.pack(coords), pk.length)


def base_rank(field, points: Iterable) -> int:
    """Rank over F_q of the coordinate vectors of extension elements."""
    tracker = RankTracker(field.q)
    for p in points:
        tracker.add(p)
    return tracker.rank
