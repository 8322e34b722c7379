"""Encoding with q-power polynomials evaluated at independent points.

A message (a_1, ..., a_k) over F_{q^t} defines f(x) = sum_i a_i x^(q^(i-1)).
The q-power map is additive, so f is F_q-linear in x: evaluating it at n
points whose coordinate vectors have full rank over F_q gives a codeword
whose every k symbols at rank-k points pin f down exactly.  Recovery (the
decoder in construction) solves the Moore system M a = v with
M[i][j] = y_i^(q^j), which is invertible precisely when the points y_i are
independent over F_q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .fields import ExtElem, ExtField
from .linalg import Matrix, base_rank


class RankDeficientPoints(ValueError):
    """Evaluation points that are linearly dependent over the base field."""


class MessageTooLong(ValueError):
    """More message symbols than evaluation points."""


class TooManyPoints(ValueError):
    """More points requested than the extension degree allows."""


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
    """Evaluate f at x: sum of coeffs[i] * x^(q^i)."""
    field = f.field
    acc = field.zero
    power = x
    for a in f.coeffs:
        acc = field.add(acc, field.mul(a, power))
        power = field.frobenius(power)
    return acc


class EvaluationPoints:
    """A tuple of extension elements of full rank over the base field; one not t long raises ValueError."""

    def __init__(self, field: ExtField, points: Sequence[ExtElem]) -> None:
        points = tuple(map(field.element, points))
        if len(points) > field.t:
            raise TooManyPoints(f"at most t = {field.t} independent points exist, asked for {len(points)}")
        if base_rank(field, points) != len(points):
            raise RankDeficientPoints("evaluation points must be independent over the base field")
        self.field = field
        self.points = points

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def __getitem__(self, i: int) -> ExtElem:
        return self.points[i]

    def __repr__(self) -> str:
        return f"EvaluationPoints({self.field!r}, n={len(self.points)})"


def default_points(field: ExtField, n: int) -> EvaluationPoints:
    """The basis prefix (1, alpha, ..., alpha^(n-1)): independent by
    construction.  In the polynomial basis alpha^i, i < t, is the unit
    vector e_i."""
    if n > field.t:
        raise TooManyPoints(f"at most t = {field.t} independent points exist, asked for {n}")
    zero = field.zero
    return EvaluationPoints(field, [zero[:i] + (1,) + zero[i + 1 :] for i in range(n)])


def moore_matrix(field: ExtField, points: Sequence[ExtElem], ncols: int) -> Matrix:
    """Rows indexed by points, columns by q-powers: M[i][j] = points[i]^(q^j); one not t long raises ValueError."""
    rows = []
    for y in map(field.element, points):
        row = [y] if ncols else []
        while len(row) < ncols:
            row.append(field.frobenius(row[-1]))
        rows.append(row)
    return Matrix(field, rows)


def gabidulin_encode(message: Sequence[ExtElem], pts: EvaluationPoints) -> list[ExtElem]:
    """Codeword (f(x_1), ..., f(x_n)) for the polynomial built from message."""
    if len(message) > len(pts):
        raise MessageTooLong(f"message of length {len(message)} exceeds {len(pts)} points")
    f = LinearizedPoly(pts.field, tuple(message))
    return [lin_eval(f, x) for x in pts]

