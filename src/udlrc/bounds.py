"""Closed-form dimension and distance ceilings for multi-class local codes.

All bounds are exact integer formulas built from the per-class quantities
of LocalityClass.  Ceilings use integer arithmetic only: for a >= 0,
ceil(a / b) = (a + b - 1) // b.  Every distance ceiling here sits at or
below the Singleton value n - k + 1.

The dist-cap formula is one closed form, _cap_values: with pivot p behind
head classes H of ranks summing to lo and slack n_j - rank_j to slack, it is
n + 1 - slack - k - floor((k - lo - 1) / r_p) * (delta_p - 1) for k in (lo,
lo + rank_p].  _cap_core adds the pivot search; see bounds_table for cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .construction import LocalityClass, LocalitySpec


class DimensionInfeasible(ValueError):
    """k exceeds the sum of the per-class dimension caps."""


class RankInfeasible(ValueError):
    """Measured per-class ranks cannot reach the code dimension."""


class PreconditionViolated(ValueError):
    """Bound applied outside its stated parameter regime."""


# Most classes permuted_tightest_bound will search (8 * 2^7 = 1,024 pairs).
PERMUTED_CLASS_LIMIT = 8


class TooManyClasses(ValueError):
    """Permuted-bound search limited to PERMUTED_CLASS_LIMIT classes."""


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


@dataclass(frozen=True)
class BoundReport:
    """One evaluated bound: its value, the pivot class used, and the
    per-class subtrahends that produced it (for auditing)."""

    name: str
    value: int
    pivot: int | None
    per_class_terms: tuple[int, ...]
    permutation: tuple[int, ...] | None = None


def _cap_values(n: int, lo: int, slack: int, r: int, delta: int, ks) -> list[int]:
    """The closed form of the module docstring at each k of ks."""
    return [n + 1 - slack - k - (k - lo - 1) // r * (delta - 1) for k in ks]


def _cap_core(n: int, k: int, ns, ranks, rs, deltas) -> tuple[int, int, tuple[int, ...]]:
    """The dist-cap pivot rule (see distance_bound_udlrc) with rank_j in
    place of k_cap_j, classes in the order given, then _cap_values.
    Returns (value, 1-based pivot, head terms followed by the tail term).
    """
    head_rank = 0
    terms: list[int] = []
    for n_j, g, r, delta in zip(ns, ranks, rs, deltas):
        if head_rank + g >= k:
            (value,) = _cap_values(n, head_rank, sum(terms), r, delta, (k,))
            return value, len(terms) + 1, (*terms, n + 1 - k - sum(terms) - value)
        head_rank += g
        terms.append(n_j - g)
    raise RankInfeasible(f"total measured rank {head_rank} < k={k}")


def _over_dimension_cap(k: int, caps: Sequence[int]) -> DimensionInfeasible:
    return DimensionInfeasible(f"k={k} exceeds the dimension cap {sum(caps)} of the locality classes")


def _head_sums(ns: Sequence[int], caps: Sequence[int]) -> list[tuple[int, int]]:
    """(lo, slack) = (sum_H cap_j, sum_H (n_j - cap_j)) for every head set H,
    indexed by its bit mask: an ordering that starts with H and then a
    pivot p outside H pivots at p exactly when lo < k <= lo + cap_p."""
    s = len(caps)
    if s > PERMUTED_CLASS_LIMIT:
        raise TooManyClasses(f"permutation search capped at {PERMUTED_CLASS_LIMIT} classes, got {s}")
    sums = [(0, 0)]  # every mask below 2^i, each from the mask less its bit i
    for i in range(s):
        sums += [(lo + caps[i], slack + ns[i] - caps[i]) for lo, slack in sums]
    return sums


def dimension_bound(spec: LocalitySpec) -> int:
    """Largest dimension the locality classes allow: sum of the class caps."""
    return sum(spec.k_caps)


def pivot_class(spec: LocalitySpec) -> int:
    """1-based index of the first class whose cumulative caps reach k."""
    return distance_bound_udlrc(spec).pivot


def distance_bound_udlrc(spec: LocalitySpec) -> BoundReport:
    """Distance ceiling for unequal disjoint localities: distance_bound_measured
    with every class at its dimension cap,

    d <= n - k + 1 - sum_{j < pivot} (n_j - k_cap_j)
                  - (ceil((k - sum_{j < pivot} k_cap_j) / r_pivot) - 1) * (delta_pivot - 1)

    No ordering of the classes is assumed, so permuting them yields a family
    of valid ceilings (see permuted_tightest_bound).
    """
    try:
        report = distance_bound_measured(spec, spec.k_caps)
    except RankInfeasible:
        raise _over_dimension_cap(spec.k, spec.k_caps) from None
    return BoundReport("dist-cap", report.value, report.pivot, report.per_class_terms)


def distance_bound_measured(spec: LocalitySpec, granks: tuple[int, ...] | list[int]) -> BoundReport:
    """Distance ceiling phrased in per-class generator ranks: the formula of
    distance_bound_udlrc with rank_j in place of k_cap_j, where the pivot is
    the first class whose cumulative ranks reach k."""
    if len(granks) != spec.s:
        raise ValueError(f"need one rank per class: got {len(granks)} for s={spec.s}")
    cs = spec.classes
    value, pivot, terms = _cap_core(spec.n, spec.k, [c.n for c in cs], granks, [c.r for c in cs], [c.delta for c in cs])
    return BoundReport(name="dist-cap-measured", value=value, pivot=pivot, per_class_terms=terms)


def distance_bound_rdelta(n: int, k: int, r: int, delta: int) -> int:
    """Classical single-class ceiling: n - k + 1 - (ceil(k/r) - 1)(delta - 1)."""
    if k < 1 or r < 1 or delta < 2:
        raise PreconditionViolated("need k >= 1, r >= 1, delta >= 2")
    return n - k + 1 - (ceil_div(k, r) - 1) * (delta - 1)


def _unequal_r_counts(classes: Sequence[LocalityClass]) -> list[int]:
    """Group-count ceilings g_j = ceil(n_j / (r_j + 1)), once the classes
    meet the preconditions of distance_bound_unequal_r."""
    if any(c.delta != 2 for c in classes):
        raise PreconditionViolated("this ceiling requires delta = 2 in every class")
    if any(a.r > b.r for a, b in zip(classes, classes[1:])):
        raise PreconditionViolated("classes must be sorted by nondecreasing r")
    return [ceil_div(c.n, c.r + 1) for c in classes]


def _unequal_r_core(n: int, k: int, counts: Sequence[int], rs: Sequence[int]) -> tuple[int, int]:
    """(value, pivot) of distance_bound_unequal_r on plain ints."""
    sp, cum = 1, 0
    for j in range(len(counts) - 1):  # j + 1 leading classes are summed
        cum += counts[j] * rs[j]
        if cum < k - 1:
            sp = j + 2
    head_rank = sum(g * r for g, r in zip(counts[: sp - 1], rs))
    return n - k + 2 - sum(counts[: sp - 1]) - ceil_div(k - head_rank, rs[sp - 1]), sp


def distance_bound_unequal_r(spec: LocalitySpec) -> BoundReport:
    """Earlier ceiling for plain unequal locality (every delta = 2).

    With group-count ceilings g_j = ceil(n_j / (r_j + 1)):

      d <= n - k + 2 - sum_{j < pivot} g_j
                     - ceil((k - sum_{j < pivot} g_j r_j) / r_pivot)

    where the pivot is max{0 <= j <= s-1 : sum_{j' <= j} g_j' r_j' < k - 1} + 1,
    taking the max of an empty set as 0.  The strict "< k - 1" pivot rule is
    applied exactly as published, even where a "< k" variant would differ.
    """
    counts = _unequal_r_counts(spec.classes)
    value, pivot = _unequal_r_core(spec.n, spec.k, counts, [c.r for c in spec.classes])
    return BoundReport(name="dist-cap-unequal-r", value=value, pivot=pivot, per_class_terms=tuple(counts))


def permuted_tightest_bound(spec: LocalitySpec) -> BoundReport:
    """Minimum of distance_bound_udlrc over all class orderings.

    An ordering's value depends only on the set H of classes ahead of its
    pivot and on the pivot p, where sum_H cap < k <= sum_H cap + cap_p, so
    the core runs once per such pair: at most s * 2^(s-1) times (1,024 at
    s = 8), against s! orderings (40,320).  The identity ordering is
    included, so the result never exceeds the unpermuted bound.  Ties go to
    the lexicographically first permutation: sorted(H) + (p,) + sorted(rest)
    for one pair, then the least of those.
    """
    cs = spec.classes
    caps = spec.k_caps
    seqs = ([c.n for c in cs], caps, [c.r for c in cs], [c.delta for c in cs])
    best = None
    for mask, (lo, _) in enumerate(_head_sums(seqs[0], caps)):
        for p in range(spec.s):
            if lo < spec.k <= lo + caps[p] and not mask >> p & 1:
                perm = tuple(sorted(range(spec.s), key=lambda i: (not mask >> i & 1, i != p, i)))  # sorted(H), p, rest
                value, pivot, terms = _cap_core(spec.n, spec.k, *([seq[i] for i in perm] for seq in seqs))
                if best is None or (value, perm) < best[:2]:
                    best = (value, perm, pivot, terms)
    if best is None:
        raise _over_dimension_cap(spec.k, caps)
    value, perm, pivot, terms = best
    return BoundReport("dist-cap-permuted", value, pivot, terms, tuple(i + 1 for i in perm))


def bounds_table(classes: Sequence[LocalityClass], last_k: int) -> list[tuple[int, ...]]:
    """Rows (k, dim-cap, dist-cap, its pivot, permuted, unequal-r or None)
    for one class tuple at every k from 1 to last_k, equal to what
    dimension_bound, distance_bound_udlrc, permuted_tightest_bound and
    distance_bound_unequal_r give.  Each pair (H, p) fills its k in
    (lo, lo + cap_p] by _cap_values: 2^(s-1) * sum_p cap_p integer steps.
    """
    ns, caps = [c.n for c in classes], [c.k_cap for c in classes]
    rs, deltas = [c.r for c in classes], [c.delta for c in classes]
    n = sum(ns)
    dim = sum(caps)
    if last_k > dim:
        raise _over_dimension_cap(last_k, caps)
    column = [None] * last_k
    permuted = [n] * last_k  # above every value, each at most n - k + 1
    for mask, (lo, slack) in enumerate(_head_sums(ns, caps)):
        for p in range(len(caps)):
            if not mask >> p & 1:
                values = _cap_values(n, lo, slack, rs[p], deltas[p], range(lo + 1, min(lo + caps[p], last_k) + 1))
                for k, value in enumerate(values, lo):
                    if value < permuted[k]:
                        permuted[k] = value
                if mask == (1 << p) - 1:  # every class before p: the order given
                    column[lo : lo + len(values)] = zip(values, [p + 1] * len(values))
    try:
        counts = _unequal_r_counts(classes)
    except PreconditionViolated:
        counts = None
    return [
        (k, dim, value, pivot, best, None if counts is None else _unequal_r_core(n, k, counts, rs)[0])
        for k, (value, pivot), best in zip(range(1, last_k + 1), column, permuted)
    ]
