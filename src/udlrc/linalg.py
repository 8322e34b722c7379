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
length of the basis is the rank (Matrix.rank, base_rank).  A backward
pass of the same step brings the basis to reduced form, pivots unscaled
(_Packing.reduced, whose columns the distance oracle walks for a
generator Matrix), and one batched inversion per solve scales it to
RREF: the pivots' product is inverted once, as one packed power
a^(q^t - 2), and each row's inverse is peeled off it (solve, inverse, and
the decoder's message solve on the columns of the packed generator).
Rows are packed on entry to an elimination and unpacked on exit, so
elements keep their public form.  A fixed pivot rule keeps every run
identical; exact arithmetic has no stability concerns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fields import _Packing, _packing


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
        t = getattr(self.field, "t", None)
        if t is not None:  # an extension field: every element a t-tuple
            for i, row in enumerate(self.rows):
                for j, v in enumerate(row):
                    if len(v) != t:
                        raise ValueError(f"row {i}, column {j} has {len(v)} coordinates, not t = {t}")

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
        """The given columns in the given order; one out of range raises IndexError."""
        sel = list(cols)
        _check_indices(self.ncols, sel, "column")
        return Matrix(self.field, [[row[c] for c in sel] for row in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix(self.field, [list(col) for col in zip(*self.rows)] if self.rows else [])

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.ncols != other.nrows:
            raise ValueError(f"cannot multiply {self.nrows}x{self.ncols} by {other.nrows}x{other.ncols}")
        pk = _packing(other.field, other.ncols)
        packed = [pk.pack(row) for row in other.rows]
        return Matrix(self.field, [pk.unpack(pk.combine(map(pk.pack_elem, row), packed)) for row in self.rows])

    def left_multiply(self, vector: Sequence) -> list:
        """Row vector times matrix."""
        if len(vector) != self.nrows:
            raise ValueError(f"vector length {len(vector)} does not match {self.nrows} rows")
        pk = _packing(self.field, self.ncols)
        return pk.unpack(pk.combine(map(pk.pack_elem, vector), map(pk.pack, self.rows)))

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
        return [pk.unpack(row)[n:] for row in _solve_packed(pk, map(pk.pack, aug), n)]

    def solve(self, rhs: Sequence) -> list:
        """Solution of self @ x = rhs for a square invertible matrix."""
        return [x for (x,) in self._solve_block([[v] for v in rhs])]

    def inverse(self) -> "Matrix":
        return Matrix(self.field, self._solve_block(Matrix.identity(self.field, self.nrows).rows))


def _solve_packed(pk: _Packing, rows: Iterable[int], n: int) -> list[int]:
    """The reduced echelon form of n packed augmented rows [A | B] for a
    square invertible A: row i is [e_i | row i of A^-1 B]."""
    basis = pk.reduced_echelon(rows, n)
    if len(basis) < n:
        raise SingularMatrix(f"matrix rank {len(basis)} < {n}")
    return basis


def base_rank(field, points: Iterable) -> int:
    """Rank over F_q of coordinate vectors of one length, else ValueError:
    extension elements of field, or rows of ints mod q when field is F_q itself."""
    return Matrix(getattr(field, "base", field), list(points)).rank()


def _check_indices(n: int, indices: Iterable[int], name: str) -> list[int]:
    """The distinct indices, ascending; the first outside range(n) raises IndexError naming it."""
    idx = sorted(set(indices))
    if idx and (idx[0] < 0 or idx[-1] >= n):
        bad = idx[0] if idx[0] < 0 else next(i for i in idx if i >= n)
        raise IndexError(f"{name} index {bad} out of range for n={n}")
    return idx
