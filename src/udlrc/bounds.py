"""Closed-form dimension and distance ceilings for multi-class local codes.

All bounds are exact integer formulas built from the per-class quantities
of LocalityClass.  Ceilings use integer arithmetic only: for a >= 0,
ceil(a / b) = (a + b - 1) // b.  Every distance ceiling here sits at or
below the Singleton value n - k + 1.

The dist-cap formula is one closed form: with pivot p behind head classes H
of ranks summing to lo and slack n_j - rank_j to slack, it is
n + 1 - slack - k - floor((k - lo - 1) / r_p) * (delta_p - 1) for k in (lo,
lo + rank_p].  _cap_core evaluates it at one k after the pivot search.
bounds_table reads every k of every (H, p) off a BoundsFold, which adds one
class at a time and keeps, per head cap sum, the longest head; see
BoundsFold for cost.
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


def _cap_core(n: int, k: int, ns, ranks, rs, deltas) -> tuple[int, int, tuple[int, ...]]:
    """The dist-cap pivot rule (see distance_bound_udlrc) with rank_j in
    place of k_cap_j, classes in the order given, then the closed form.
    Returns (value, 1-based pivot, head terms followed by the tail term).
    """
    head_rank = 0
    terms: list[int] = []
    for n_j, g, r, delta in zip(ns, ranks, rs, deltas):
        if head_rank + g >= k:
            value = n + 1 - sum(terms) - k - (k - head_rank - 1) // r * (delta - 1)
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


def _unequal_r_counts(ns: Sequence[int], rs: Sequence[int]) -> list[int]:
    """Group-count ceilings g_j = ceil(n_j / (r_j + 1))."""
    return [ceil_div(n_j, r + 1) for n_j, r in zip(ns, rs)]


def _unequal_r_core(n: int, counts: Sequence[int], rs: Sequence[int], ks: Sequence[int]) -> list[tuple[int, int]]:
    """(value, pivot) of distance_bound_unequal_r at each k of the ascending
    ks, on plain ints.  The pivot only moves right as k grows: the running
    sums g_j r_j of the leading classes increase with j."""
    values = []
    ahead = head_count = head_rank = 0  # classes ahead of the pivot, their g_j and g_j r_j sums
    for k in ks:
        while ahead < len(counts) - 1 and head_rank + counts[ahead] * rs[ahead] < k - 1:
            head_count += counts[ahead]
            head_rank += counts[ahead] * rs[ahead]
            ahead += 1
        values.append((n - k + 2 - head_count - ceil_div(k - head_rank, rs[ahead]), ahead + 1))
    return values


def distance_bound_unequal_r(spec: LocalitySpec) -> BoundReport:
    """Earlier ceiling for plain unequal locality (every delta = 2).

    With group-count ceilings g_j = ceil(n_j / (r_j + 1)):

      d <= n - k + 2 - sum_{j < pivot} g_j
                     - ceil((k - sum_{j < pivot} g_j r_j) / r_pivot)

    where the pivot is max{0 <= j <= s-1 : sum_{j' <= j} g_j' r_j' < k - 1} + 1,
    taking the max of an empty set as 0.  The strict "< k - 1" pivot rule is
    applied exactly as published, even where a "< k" variant would differ.
    """
    cs = spec.classes
    if any(c.delta != 2 for c in cs):
        raise PreconditionViolated("this ceiling requires delta = 2 in every class")
    if any(a.r > b.r for a, b in zip(cs, cs[1:])):
        raise PreconditionViolated("classes must be sorted by nondecreasing r")
    rs = [c.r for c in cs]
    counts = _unequal_r_counts([c.n for c in cs], rs)
    ((value, pivot),) = _unequal_r_core(spec.n, counts, rs, (spec.k,))
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


class BoundsFold:
    """The dist-cap and permuted columns of a class prefix, built one class
    at a time; bounds_table folds its classes in order, and sweep shares
    each prefix's fold among the tuples that start with it.

    Write k0 = k - 1.  The pair (H, p) of head set H and pivot p gives
    n - N_H - G_p(k0 - lo_H) at each k0 in [lo_H, lo_H + cap_p), where N_H
    and lo_H are the head's length and cap sum and
    G_p(j) = j + floor(j / r_p) * (delta_p - 1) depends on the pivot alone.
    A fold keeps the reaches n minus each value, which do not depend on n:
    given[k0] of the order given and pivots[k0] its 1-based pivot; best[k0],
    the largest over every pair within the prefix (permuted = n - best);
    heads[L], the largest N_H over the head sets with lo_H = L.  Adding c
    makes best max(best[k0], best[k0 - cap_c] + n_c,
    max_L heads[L] + G_c(k0 - L)): c behind the head of a pair, or c the
    pivot.  A step costs one pass over cap_c entries per head cap sum, of
    which a prefix of s classes has at most 2^s; folding a tuple's classes
    one per step costs at most sum_j 2^(j-1) * cap_j integer steps, where
    one closed form per (H, p) took 2^(s-1) * sum_p cap_p.
    """

    __slots__ = ("s", "n", "dim", "given", "pivots", "best", "heads")

    def __init__(self) -> None:
        self.s = self.n = self.dim = 0
        self.given: list[int] = []
        self.pivots: list[int] = []
        self.best: list[int] = []
        self.heads = {0: 0}

    def add(self, c: LocalityClass, limit: int) -> BoundsFold:
        """The fold of this prefix followed by c, its columns cut at limit
        entries; limit is at most the one this prefix was folded at."""
        if self.s == PERMUTED_CLASS_LIMIT:
            raise TooManyClasses(f"permutation search capped at {PERMUTED_CLASS_LIMIT} classes, got {self.s + 1}")
        n_c, cap, r, step = c.n, c.k_cap, c.r, c.delta - 1
        fold = BoundsFold.__new__(BoundsFold)
        fold.s, fold.n, fold.dim = self.s + 1, self.n + n_c, self.dim + cap
        size = fold.dim if fold.dim < limit else max(0, limit)
        tail = size - self.dim if size > self.dim else 0  # the entries c pivots in the order given
        gains = [j + j // r * step for j in range(cap if cap < size else size)]  # G_c
        fold.given = self.given[:size] + [self.n + g for g in gains[:tail]]
        fold.pivots = self.pivots[:size] + [fold.s] * tail
        before = self.best[:size]
        best = fold.best = before + [-1] * tail  # -1: below every reach
        if size > cap:  # c behind the head of a pair
            for k0, reach in enumerate(before[: size - cap], cap):
                if reach + n_c > best[k0]:
                    best[k0] = reach + n_c
        heads = fold.heads = self.heads.copy()
        for lo, head in self.heads.items():
            if lo < size:  # c the pivot
                for k0, g in enumerate(gains[: size - lo], lo):
                    if head + g > best[k0]:
                        best[k0] = head + g
            if lo + cap < limit and head + n_c > heads.get(lo + cap, -1):
                heads[lo + cap] = head + n_c
        return fold


def unequal_r_column(classes: Sequence[LocalityClass], last_k: int) -> list[int] | None:
    """distance_bound_unequal_r at each k from 1 to last_k, or None where
    its preconditions fail."""
    rs = [c.r for c in classes]
    if any(c.delta != 2 for c in classes) or rs != sorted(rs):
        return None
    ns = [c.n for c in classes]
    return [value for value, _ in _unequal_r_core(sum(ns), _unequal_r_counts(ns, rs), rs, range(1, last_k + 1))]


def bounds_table(classes: Sequence[LocalityClass], last_k: int) -> list[tuple[int, ...]]:
    """Rows (k, dim-cap, dist-cap, its pivot, permuted, unequal-r or None)
    for one class tuple at every k from 1 to last_k, equal to what
    dimension_bound, distance_bound_udlrc, permuted_tightest_bound and
    distance_bound_unequal_r give: the BoundsFold of its classes, each step
    cut at last_k.
    """
    n, dim = sum(c.n for c in classes), sum(c.k_cap for c in classes)
    if last_k > dim:
        raise _over_dimension_cap(last_k, [c.k_cap for c in classes])
    fold = BoundsFold()
    for c in classes:
        fold = fold.add(c, last_k)
    older = unequal_r_column(classes, last_k) or [None] * last_k
    return [
        (k, dim, n - given, pivot, n - best, old)
        for k, given, pivot, best, old in zip(range(1, last_k + 1), fold.given, fold.pivots, fold.best, older)
    ]
