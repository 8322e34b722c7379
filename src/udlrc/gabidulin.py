"""q-power polynomials over F_{q^t}: their evaluation and Moore matrices.

A message (a_1, ..., a_k) over F_{q^t} defines f(x) = sum_i a_i x^(q^(i-1)).
The q-power map is additive, so f is F_q-linear in x: evaluating it at n
points whose coordinate vectors have full rank over F_q gives a codeword
whose every k symbols at rank-k points pin f down exactly.  lin_eval
evaluates f at one point, and moore_matrix builds M[i][j] = y_i^(q^j), the
matrix whose transpose is a code's generator (CodeInstance.gen) and which
is invertible precisely when the points y_i are independent over F_q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import ExtElem, ExtField
from .linalg import Matrix


@dataclass(frozen=True)
class LinearizedPoly:
    """f(x) = sum_i coeffs[i] * x^(q^i), coefficients over F_{q^t}; one not t long raises ValueError."""

    field: ExtField
    coeffs: tuple[ExtElem, ...]

    def __post_init__(self) -> None:
        if len(self.coeffs) < 1:
            raise ValueError("a data polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", tuple(map(self.field.element, self.coeffs)))


def lin_eval(f: LinearizedPoly, x: ExtElem) -> ExtElem:
    """Evaluate f at x: sum of coeffs[i] * x^(q^i), one Frobenius image per coefficient after the first."""
    field = f.field
    acc = field.mul(f.coeffs[0], x)
    for a in f.coeffs[1:]:
        x = field.frobenius(x)
        acc = field.add(acc, field.mul(a, x))
    return acc


def moore_matrix(field: ExtField, points: Sequence[ExtElem], ncols: int) -> Matrix:
    """Rows indexed by points, columns by q-powers: M[i][j] = points[i]^(q^j); one not t long or a
    negative ncols raises ValueError."""
    if ncols < 0:
        raise ValueError(f"a Moore matrix needs ncols >= 0, got {ncols}")
    rows = []
    for y in map(field.element, points):
        row = [y] if ncols else []
        while len(row) < ncols:
            row.append(field.frobenius(row[-1]))
        rows.append(row)
    return Matrix(field, rows)
