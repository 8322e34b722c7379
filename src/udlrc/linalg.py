"""Dense exact linear algebra over a tagged field context.

Matrix works over a PrimeField or an ExtField context.  Products go
through the context's zero/add/mul; every elimination runs on packed rows.

A packed row of L elements of F_(q^t) is one Python int: element j owns a
block of 2t - 1 slots of W bits starting at bit j(2t - 1)W, and its t
coordinates sit in the block's low slots, constant term first, with the
high slots zero.  A prime-field element is the t = 1 case, one slot per
block and nothing to fold.  One big-int product of a packed element and a
packed row multiplies every element of the row by it as polynomials, each
product (degree <= 2t - 2) filling its own block.  Folding the high slots
back through x^t mod the modulus and one slotwise Barrett step mod q make
the row canonical again.

The slot bound: with canonical operands (coordinates <= q - 1), no slot
of any intermediate reaches 2^W, so no slot ever carries into the next.
W is derived from (q, t) alone; _Packing states the largest value of each
step and asserts the bound when it builds a layout.  Layouts are cached
per field and row length.

One step, _Packing.reduce, clears the pivot columns of an echelon basis
from one row.  It scales the row by the basis entry's pivot instead of
multiplying the entry by the pivot's inverse, so elimination takes no
inverse; the zero pattern, and hence every pivot and rank, is the same.
Rows join the basis in the order they arrive, each pivoting on its first
nonzero column, read off the lowest set bit of the packed row, so the
length of the basis is the rank (Matrix.rank, RankTracker).  A backward
pass of the same step brings the basis to reduced form, pivots unscaled
(_Packing.reduced, whose columns the distance oracle walks), and one pivot
inverse per row scales it to RREF (solve, inverse, row_space_basis).
Rows are packed on entry to an elimination and unpacked on exit, so
elements keep their public form.  A fixed pivot rule keeps every run
identical; exact arithmetic has no stability concerns.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Sequence

from .fields import PrimeField


class SingularMatrix(ValueError):
    """Square system whose rank is below its dimension."""


class _Packing:
    """The packed layout of rows of one length over one field, and the
    elimination kernel over it.

    A basis entry is (pivot offset, packed row): the offset is the bit where
    the pivot's block starts, so entries sort by pivot column.  The kernel
    never writes to its inputs.
    """

    def __init__(self, field, length: int) -> None:
        q = field.q
        t = getattr(field, "t", 1)
        self.field, self.q, self.t, self.length = field, q, t, length
        self.tuples = isinstance(field.zero, tuple)
        c = q - 1
        # Largest slot value at each step, every operand canonical (<= c):
        # - A step forms p * row + (q - v) * prow, p the pivot of prow and v
        #   the row's entry under it; a product slot sums at most t terms,
        #   so every slot is at most v1 = t*c*c + t*q*c.
        # - Folding (t > 1) takes the high part h (slots t..2t-2, each
        #   <= v1), the quotient of h * x^t by the modulus as the slots
        #   t-2.. of h * mu (each <= (t-1)*v1*c), and adds that quotient
        #   times x^t mod the modulus to the low slots, each then at most
        #   v2 = v1 + (t-1)^2 * v1 * c^2.  The high slots are masked off.
        # - Barrett takes a slot x <= v2 < 2^b to x - q*((x*m) >> s), which
        #   is x mod q exactly because 2^s >= q * 2^b.  Its product x*m is
        #   the largest slot of the kernel, below 2^W.
        v1 = t * c * c + t * q * c
        v2 = v1 + (t - 1) ** 2 * v1 * c * c
        b = v2.bit_length()
        s = b + q.bit_length()
        m = (1 << s) // q + 1
        w = (v2 * m).bit_length()
        assert q << b <= 1 << s and max(v1, (t - 1) * v1 * c, v2, v2 * m) < 1 << w
        self.s, self.m = s, m
        self.bw = bw = (2 * t - 1) * w
        blocks = sum(1 << (j * bw) for j in range(length))
        self.w, self.slot = w, (1 << w) - 1
        self.shifts = tuple(range(0, t * w, w))
        self.elem = (1 << (t * w)) - 1
        self.low = self.elem * blocks
        self.quot = sum(((1 << (w - s)) - 1) << i for i in self.shifts) * blocks
        self.negq = sum(q << i for i in self.shifts)
        if t > 1:
            # Polynomial Barrett: with mu = x^(2t-2) div the modulus and
            # deg h <= t-2, (h * mu) div x^(t-2) is exactly the quotient of
            # h * x^t by the modulus, and the remainder is minus that
            # quotient times the modulus's low part, i.e. times x^t mod it.
            # Slots are not reduced in between: over the integers each one
            # stays congruent mod q to its value over F_q.
            self.hi_shift, self.quo_shift = t * w, (t - 2) * w
            self.high = ((1 << ((t - 1) * w)) - 1) * blocks
            self.mu = self.pack_elem(_x_power_quotient(field.modulus, 2 * t - 2, q))
            self.red = self.pack_elem(field._red[0])

    def canon(self, x: int) -> int:
        """x with every block folded and every slot reduced mod q."""
        if self.t > 1:
            h = (x >> self.hi_shift) & self.high
            h = ((h * self.mu) >> self.quo_shift) & self.high
            x = (x & self.low) + (h * self.red & self.low)
        return x - ((x * self.m >> self.s) & self.quot) * self.q

    def pack_elem(self, e) -> int:
        if not self.tuples:
            return e % self.q
        q, w, x = self.q, self.w, 0
        for v in reversed(e):
            x = (x << w) | (v % q)
        return x

    def unpack_elem(self, x: int):
        """The element in the lowest block of x."""
        slot = self.slot
        if not self.tuples:
            return x & slot
        return tuple((x >> i) & slot for i in self.shifts)

    def pack(self, row: Sequence) -> int:
        bw, x = self.bw, 0
        if self.tuples:
            pack_elem = self.pack_elem
            for e in reversed(row):
                x = (x << bw) | pack_elem(e)
        else:
            q = self.q
            for e in reversed(row):
                x = (x << bw) | (e % q)
        return x

    def unpack(self, x: int, start: int = 0) -> list:
        """Elements start.. of the row."""
        bw, unpack_elem = self.bw, self.unpack_elem
        return [unpack_elem(x >> (j * bw)) for j in range(start, self.length)]

    def reduce(self, row: int, basis: Sequence[tuple]) -> int:
        """Clear from row the pivot column of each basis entry, in basis order.

        The row is scaled by the entry's pivot rather than the entry by its
        inverse, so the step needs no inverse; the result is a nonzero
        multiple of the classical one, with the same zero entries.
        """
        elem, negq, canon = self.elem, self.negq, self.canon
        for off, prow in basis:
            v = (row >> off) & elem
            if v:
                row = canon(((prow >> off) & elem) * row + (negq - v) * prow)
        return row

    def extend(self, basis: list[tuple], row: int, width: int) -> bool:
        """Reduce row against the basis and append it if a pivot is left in
        its first width columns; report whether it was appended."""
        row = self.reduce(row, basis)
        low = (row & -row).bit_length() - 1
        if row and low < width * self.bw:
            basis.append((low - low % self.bw, row))
            return True
        return False

    def echelon(self, rows: Iterable[int], width: int) -> list[tuple]:
        """Echelon basis of the packed rows, pivots in the first width columns."""
        basis: list[tuple] = []
        for row in rows:
            self.extend(basis, row, width)
        return basis

    def reduced(self, rows: Iterable[int], width: int) -> list[tuple]:
        """Echelon basis of the packed rows, each pivot column cleared in
        every other entry, sorted by pivot column; pivots are not scaled."""
        basis = self.echelon(rows, width)
        # The entries after i are already clear of every pivot but their own,
        # so reducing entry i against them keeps its own pivot nonzero.
        for i in range(len(basis) - 1, -1, -1):
            off, row = basis[i]
            basis[i] = (off, self.reduce(row, basis[i + 1 :]))
        return sorted(basis, key=lambda entry: entry[0])

    def reduced_echelon(self, rows: Iterable[int], width: int) -> list[int]:
        """The reduced row echelon form of the packed rows, pivots in the
        first width columns, sorted by pivot column, zero rows dropped."""
        field, canon = self.field, self.canon
        basis = self.reduced(rows, width)
        return [canon(self.pack_elem(field.inv(self.unpack_elem(row >> off))) * row) for off, row in basis]


def _x_power_quotient(modulus: Sequence[int], e: int, q: int) -> list[int]:
    """Coefficients of x^e div the monic modulus over F_q, low first."""
    t = len(modulus) - 1
    rem = [0] * e + [1]
    quo = [0] * (e - t + 1)
    for d in range(e, t - 1, -1):
        coef = rem[d] % q
        if coef:
            quo[d - t] = coef
            for i, mi in enumerate(modulus):
                rem[d - t + i] -= coef * mi
    return quo


@lru_cache(maxsize=256)
def _packing(field, length: int) -> _Packing:
    return _Packing(field, length)


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
