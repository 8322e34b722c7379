"""Dense exact linear algebra over a tagged field context.

Matrix works with any context exposing zero/one/add/sub/mul/inv, so the
same code serves both the prime field and its extensions.  Every
elimination is one step, `_reduce`: it clears the pivot columns of an
echelon basis from one row.  Rows join the basis in the order they arrive,
each pivoting on its first nonzero column, so the length of the basis is
the rank (Matrix.rank, RankTracker).  A backward pass of the same step
brings the basis to reduced form (solve, inverse, row_space_basis).  A fixed
pivot rule keeps every run identical; exact arithmetic has no stability
concerns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import PrimeField


class SingularMatrix(ValueError):
    """Square system whose rank is below its dimension."""


def _reduce(field, row: list, basis: Sequence[tuple]) -> list:
    """Clear from row the pivot column of each basis entry, in basis order.

    An entry is (pivot column, inverse of the pivot, row).  Returns a new
    list when anything changes and never writes to its inputs.
    """
    zero, mul, sub = field.zero, field.mul, field.sub
    for col, pinv, prow in basis:
        v = row[col]
        if v != zero:
            fac = mul(v, pinv)
            row = [sub(a, mul(fac, p)) for a, p in zip(row, prow)]
    return row


def _extend(field, basis: list[tuple], row: list, width: int) -> bool:
    """Reduce row against the basis and append it if a pivot is left in its
    first width columns; report whether it was appended."""
    row = _reduce(field, row, basis)
    zero = field.zero
    for col in range(width):
        if row[col] != zero:
            basis.append((col, field.inv(row[col]), row))
            return True
    return False


def _echelon(field, rows: Iterable[list], width: int) -> list[tuple]:
    """Echelon basis of the rows, pivots taken in the first width columns."""
    basis: list[tuple] = []
    for row in rows:
        _extend(field, basis, row, width)
    return basis


def _reduced_echelon(field, rows: Iterable[list], width: int) -> list[tuple]:
    """The echelon basis with every pivot column cleared from the other
    rows, sorted by pivot column.  Rows keep their pivots unscaled."""
    basis = _echelon(field, rows, width)
    # The entries after i are already clear of every pivot but their own,
    # so reducing entry i against them leaves its own pivot as it was.
    for i in range(len(basis) - 1, -1, -1):
        col, pinv, row = basis[i]
        basis[i] = (col, pinv, _reduce(field, row, basis[i + 1 :]))
    return sorted(basis, key=lambda entry: entry[0])


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
        return Matrix(self.field, [other.left_multiply(row) for row in self.rows])

    def left_multiply(self, vector: Sequence) -> list:
        """Row vector times matrix."""
        if len(vector) != self.nrows:
            raise ValueError(f"vector length {len(vector)} does not match {self.nrows} rows")
        f = self.field
        add, mul, zero = f.add, f.mul, f.zero
        out = []
        for j in range(self.ncols):
            acc = zero
            for l, v in enumerate(vector):
                if v != zero:
                    acc = add(acc, mul(v, self.rows[l][j]))
            out.append(acc)
        return out

    def rank(self) -> int:
        return len(_echelon(self.field, self.rows, self.ncols))

    def _solve_block(self, right: Sequence[list]) -> list[list]:
        """X with self @ X = right, for a square invertible self."""
        n = self.nrows
        if n != self.ncols:
            raise ValueError(f"need a square matrix, got {n}x{self.ncols}")
        if len(right) != n:
            raise ValueError(f"right-hand side length {len(right)} does not match {n}")
        aug = [list(r) + list(b) for r, b in zip(self.rows, right)]
        basis = _reduced_echelon(self.field, aug, n)
        if len(basis) < n:
            raise SingularMatrix(f"matrix rank {len(basis)} < {n}")
        mul = self.field.mul
        return [[mul(pinv, v) for v in row[n:]] for _, pinv, row in basis]

    def solve(self, rhs: Sequence) -> list:
        """Solution of self @ x = rhs for a square invertible matrix."""
        return [x for (x,) in self._solve_block([[v] for v in rhs])]

    def inverse(self) -> "Matrix":
        return Matrix(self.field, self._solve_block(Matrix.identity(self.field, self.nrows).rows))

    def row_space_basis(self) -> "Matrix":
        """Reduced row echelon basis of the row space, zero rows dropped."""
        mul = self.field.mul
        basis = _reduced_echelon(self.field, self.rows, self.ncols)
        return Matrix(self.field, [[mul(pinv, v) for v in row] for _, pinv, row in basis])


class RankTracker:
    """Incremental echelon form of coordinate vectors over F_q."""

    def __init__(self, q: int) -> None:
        self.q = q
        self._field = PrimeField(q)
        self._basis: list[tuple] = []

    @property
    def rank(self) -> int:
        return len(self._basis)

    def add(self, coords: Sequence[int]) -> bool:
        """Reduce coords against the basis; keep and report True if independent."""
        return _extend(self._field, self._basis, [c % self.q for c in coords], len(coords))


def base_rank(field, points: Iterable) -> int:
    """Rank over F_q of the coordinate vectors of extension elements."""
    tracker = RankTracker(field.q)
    for p in points:
        tracker.add(p)
    return tracker.rank
