"""Brute-force certificates and counting arguments for built code instances.

Everything here is an independent check on the construction: exact minimum
distance by subset enumeration over the generator, decodability of symbol
sets, locality witnesses straight from the definition, the greedy cover
chains behind the dimension and distance ceilings, and the worst-case
erasure patterns that certify tightness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Iterator, Sequence

from .bounds import ceil_div, distance_bound_measured, distance_bound_udlrc
from .construction import (
    CodeInstance,
    ErasurePattern,
    LocalGroupLayout,
    erank,
)
from .fields import ExtField, _packing
from .linalg import Matrix

DEFAULT_ORACLE_BUDGET = 20


class TooLarge(ValueError):
    """Instance beyond the enumeration budget."""


class RankDeficientGenerator(ValueError):
    """Generator matrix whose rank is below the claimed dimension."""


class OrderedConditionRequired(ValueError):
    """Operation defined only under nondecreasing r and nonincreasing delta."""


class CountOutOfRange(ValueError):
    """Erasure count outside [0, n]."""


def grank(gen: Matrix, symbols: Iterable[int]) -> int:
    """Rank of the generator restricted to the given symbol columns."""
    return gen.take_columns(sorted(set(symbols))).rank()


def decodable(gen: Matrix, symbols: Iterable[int]) -> bool:
    """Whether erasure correction is possible from exactly these symbols."""
    return grank(gen, symbols) == gen.nrows


@dataclass(frozen=True)
class DistanceCertificate:
    """Exact minimum distance with the largest rank-deficient set as witness."""

    d: int
    witness: tuple[int, ...]
    witness_rank: int


def min_distance_oracle(gen: Matrix, budget: int = DEFAULT_ORACLE_BUDGET) -> DistanceCertificate:
    """Exact minimum distance: n minus the largest symbol set of rank < k.

    When gen is a Moore matrix over F_(q^t) (row j is the Frobenius image
    of row j - 1, as every built generator and each of its k-row prefixes
    is), a column subset S has rank min(k, F_q-rank of S's points in row 0)
    by the Moore determinant (Lidl and Niederreiter, Finite Fields, Lemma
    3.51), so the walk runs over row 0's points as length-t rows over F_q.
    Any other generator (a reduced basis, a row-mixed or foreign matrix)
    falls back to the columns of its reduced basis over its own field (row
    operations keep every column subset's rank; unit pivot columns skip
    most elimination steps).  Either walk is depth first in combinations
    order, so a hit is the lexicographically first deficient subset of its
    size, and both see the same ranks below k, so they return the same
    certificate.  The sizes with a deficient subset form an initial segment
    that holds k - 1 (Singleton), so the scan runs upward from k - 1 to the
    first size without a hit, and the last hit, at size n - d, is exact for
    any generator.
    """
    return next(_oracles(gen, budget, [gen.nrows]))


def prefix_oracles(gen: Matrix, budget: int = DEFAULT_ORACLE_BUDGET) -> list[DistanceCertificate]:
    """min_distance_oracle of the first k rows of gen for k = 1 .. gen.nrows."""
    return list(_oracles(gen, budget, range(1, gen.nrows + 1)))


def _oracles(gen: Matrix, budget: int, ks) -> Iterator[DistanceCertificate]:
    """min_distance_oracle of the first k rows of gen at each k of ks.  Every
    prefix of a Moore matrix is Moore, so a Moore gen is checked, and its row
    0's points packed and ranked, once for all k."""
    n = gen.ncols
    if n > budget:
        raise TooLarge(f"n={n} exceeds the enumeration budget {budget}")
    field = gen.field
    moore = _is_moore(gen)
    if moore:
        pk = _packing(field.base, field.t)
        columns = [pk.pack(y) for y in gen.rows[0]]
        rank = len(pk.echelon(columns, field.t))
    for k in ks:
        if not moore:
            pn = _packing(field, n)
            basis = pn.reduced(map(pn.pack, gen.rows[:k]), n)
            rank = len(basis)
            pk = _packing(field, k)
            columns = [pk.pack(col) for col in zip(*(pn.unpack(row) for _, row in basis))]
        if rank < k:
            raise RankDeficientGenerator(f"generator rank below k={k}")
        cert = None
        for size in range(max(k - 1, 0), n):
            hit = _first_deficient(pk, columns, k, size, 0, [], [])
            if hit is None:
                break
            cert = DistanceCertificate(d=n - size, witness=hit[0], witness_rank=hit[1])
        if cert is None:
            raise AssertionError("unreachable: any k - 1 columns are rank deficient")
        yield cert


def _is_moore(gen: Matrix) -> bool:
    """Whether gen has a row 0 and every entry below it, over an extension
    field, is the Frobenius image of the entry above it; stops at the first
    mismatch."""
    field, rows = gen.field, gen.rows
    return isinstance(field, ExtField) and bool(rows) and all(
        field.frobenius(above) == entry for prev, row in zip(rows, rows[1:]) for above, entry in zip(prev, row)
    )


def _first_deficient(pk, columns, k, size, start, path, basis):
    """First subset of the given size, extending path with columns from
    start on, whose columns have rank < k; returned with its rank.

    columns are rows of pk.length elements packed by pk, and basis is the
    echelon basis of the path's columns.  Each column joins it by one
    elimination step on the way down and leaves on the way back; a path
    that reaches rank k is pruned, since every superset keeps rank k.
    """
    if len(path) == size:
        return tuple(path), len(basis)
    for i in range(start, len(columns) - size + len(path) + 1):
        grew = pk.extend(basis, columns[i], pk.length)
        if len(basis) < k:
            path.append(i)
            hit = _first_deficient(pk, columns, k, size, i + 1, path, basis)
            if hit is not None:
                return hit
            path.pop()
        if grew:
            basis.pop()
    return None


def punctured_code_profile(gen: Matrix, support: Sequence[int], budget: int = DEFAULT_ORACLE_BUDGET):
    """(dimension, distance) of the code restricted to the support columns.

    Distance is None for a zero-dimensional restriction.
    """
    basis = gen.take_columns(sorted(set(support))).row_space_basis()
    if basis.nrows == 0:
        return 0, None
    return basis.nrows, min_distance_oracle(basis, budget).d


def locality_witness_search(
    gen: Matrix,
    i: int,
    support: Sequence[int],
    r: int,
    delta: int,
    max_support: int = 16,
) -> tuple[int, ...] | None:
    """Smallest set S within the support with i in S, |S| <= r + delta - 1,
    and punctured distance >= delta; None when no such set exists.

    Sets are scanned by size then lexicographically, so the result is
    deterministic.  Zero columns simply force the search to larger sets.
    """
    support = sorted(set(support))
    if i not in support:
        raise ValueError(f"symbol {i} is not in the candidate support")
    if len(support) > max_support:
        raise TooLarge(f"support of size {len(support)} exceeds the search budget {max_support}")
    others = [j for j in support if j != i]
    limit = min(r + delta - 1, len(support))
    for size in range(1, limit + 1):
        for extra in combinations(others, size - 1):
            candidate = tuple(sorted((i,) + extra))
            dim, dist = punctured_code_profile(gen, candidate)
            if dim > 0 and dist is not None and dist >= delta:
                return candidate
    return None


@dataclass(frozen=True)
class CoverTrace:
    """The greedy chain of group-covered sets produced for one class.

    sets[0] is empty; each later set adds the whole local group of a picked
    symbol whose column strictly grows the restricted generator rank, until
    the class's full rank is reached.
    """

    class_index: int  # 1-based
    sets: tuple[frozenset[int], ...]
    picks: tuple[int, ...]
    sizes: tuple[int, ...]
    granks: tuple[int, ...]

    @property
    def steps(self) -> int:
        return len(self.sets) - 1


def class_symbols(inst: CodeInstance, j: int) -> tuple[int, ...]:
    """Sorted symbol indices of the 1-based class j."""
    if not 1 <= j <= inst.spec.s:
        raise IndexError(f"class index {j} out of range")
    out: list[int] = []
    for l, group in enumerate(inst.layout.groups):
        if inst.layout.class_of[l] == j - 1:
            out.extend(group)
    return tuple(sorted(out))


def class_cover_trace(inst: CodeInstance, j: int) -> CoverTrace:
    """Run the greedy cover chain on class j of a built instance.

    The local set of a symbol is its containing group.  Ties in the pick are
    broken by smallest index, so traces are reproducible.
    """
    symbols = class_symbols(inst, j)
    gen = inst.gen
    target = grank(gen, symbols)
    current: frozenset[int] = frozenset()
    sets = [current]
    picks: list[int] = []
    sizes = [0]
    granks_ = [0]
    while granks_[-1] < target:
        pick = None
        for i in symbols:
            if i in current:
                continue
            if grank(gen, current | {i}) > granks_[-1]:
                pick = i
                break
        assert pick is not None, "a rank-growing symbol always exists below the class rank"
        group = inst.layout.groups[inst.layout.group_of(pick)]
        current = current | frozenset(group)
        sets.append(current)
        picks.append(pick)
        sizes.append(len(current))
        granks_.append(grank(gen, current))
    return CoverTrace(
        class_index=j,
        sets=tuple(sets),
        picks=tuple(picks),
        sizes=tuple(sizes),
        granks=tuple(granks_),
    )


def check_cover_trace(trace: CoverTrace, r: int, delta: int) -> list[str]:
    """Violations of the three growth claims a valid trace must satisfy.

    Per step: the rank gain is at most r, and the size gain is at least the
    rank gain plus delta - 1.  Overall: the step count is at least the
    class rank divided by r, rounded up.  Empty list means all claims hold.
    """
    violations: list[str] = []
    for l in range(1, len(trace.sets)):
        rank_gain = trace.granks[l] - trace.granks[l - 1]
        size_gain = trace.sizes[l] - trace.sizes[l - 1]
        if rank_gain > r:
            violations.append(f"step {l}: rank gain {rank_gain} exceeds r={r}")
        if size_gain < rank_gain + delta - 1:
            violations.append(
                f"step {l}: size gain {size_gain} below rank gain {rank_gain} + delta-1 = {rank_gain + delta - 1}"
            )
    final_rank = trace.granks[-1]
    if final_rank and trace.steps < ceil_div(final_rank, r):
        violations.append(
            f"step count {trace.steps} below ceil({final_rank}/{r}) = {ceil_div(final_rank, r)}"
        )
    return violations


@dataclass(frozen=True)
class ClassRankCap:
    """Measured class rank against its dimension cap."""

    class_index: int  # 1-based
    grank: int
    cap: int

    @property
    def within_cap(self) -> bool:
        return self.grank <= self.cap


def class_rank_caps(inst: CodeInstance) -> list[ClassRankCap]:
    """Measure the generator rank of every class against its cap.

    On a built instance the cap can never be exceeded; at full precode
    dimension (k = n_gab) every class meets its cap with equality.
    """
    return [
        ClassRankCap(class_index=j, grank=grank(inst.gen, class_symbols(inst, j)), cap=c.k_cap)
        for j, c in enumerate(inst.spec.classes, 1)
    ]


def rank_deficiency_witness(inst: CodeInstance) -> tuple[int, ...]:
    """A large symbol set whose restricted rank stays below k.

    Takes all classes before the measured pivot, plus the cover-chain prefix
    of the pivot class that stops just short of contributing the missing
    rank.  The result always has rank at most k - 1 and at least
    sum_{j < pivot} (n_j - rank_j) + l * (delta_pivot - 1) redundant symbols,
    so it lower-bounds how far the distance sits below Singleton.
    """
    granks_ = [grank(inst.gen, class_symbols(inst, j)) for j in range(1, inst.spec.s + 1)]
    assert sum(granks_) >= inst.k, "a full-rank generator reaches k over all classes"
    bound = distance_bound_measured(inst.spec, granks_)
    sigma = bound.pivot
    piv = inst.spec.classes[sigma - 1]
    l = ceil_div(inst.k - sum(granks_[: sigma - 1]), piv.r) - 1
    trace = class_cover_trace(inst, sigma)
    assert 0 <= l < trace.steps, "the chain always runs one step past the stop index"
    witness: set[int] = set()
    for j in range(1, sigma):
        witness.update(class_symbols(inst, j))
    witness.update(trace.sets[l])
    out = tuple(sorted(witness))
    got = grank(inst.gen, out)
    assert got <= inst.k - 1, "witness construction must stay rank deficient"
    # The bound's terms are the head slack and the pivot's l * (delta - 1).
    assert len(out) - got >= sum(bound.per_class_terms), "witness redundancy below its floor"
    return out


def worst_case_pattern(layout: LocalGroupLayout, e: int) -> ErasurePattern:
    """The erasure pattern whose remaining symbols fill groups greedily.

    Remaining indices are taken from the first group onward, lowest indices
    first inside the last partial group.  With groups ordered by
    nondecreasing r and nonincreasing delta, this pattern minimizes the
    remaining point rank among all patterns of the same size.
    """
    n = layout.n
    if not 0 <= e <= n:
        raise CountOutOfRange(f"erasure count {e} outside [0, {n}]")
    order = [i for group in layout.groups for i in group]
    return ErasurePattern.from_remaining(n, order[: n - e])


def transform_pattern(layout: LocalGroupLayout, remaining: Iterable[int]) -> list[ErasurePattern]:
    """Shift a remaining set group by group into the greedy pattern.

    While an earlier group has holes and a later group still holds symbols,
    move as many symbols as possible from the later group into the earlier
    one (lowest indices on both sides), recording the pattern after each
    move.  A final in-group shuffle aligns the partial group to its lowest
    indices; every move keeps the cardinality and never increases the
    remaining point rank.  Returns the recorded sequence; empty when the
    input is already greedy.
    """
    n = layout.n
    current = set(remaining)
    for i in current:
        if not 0 <= i < n:
            raise IndexError(f"remaining index {i} out of range for n={n}")
    steps: list[ErasurePattern] = []
    groups = [set(g) for g in layout.groups]
    while True:
        move = None
        for l1 in range(len(groups)):
            if len(current & groups[l1]) == len(groups[l1]):
                continue
            for l2 in range(l1 + 1, len(groups)):
                if current & groups[l2]:
                    move = (l1, l2)
                    break
            if move:
                break
        if move is None:
            break
        l1, l2 = move
        holes = sorted(groups[l1] - current)
        donors = sorted(current & groups[l2])
        delta = min(len(holes), len(donors))
        current |= set(holes[:delta])
        current -= set(donors[:delta])
        steps.append(ErasurePattern.from_remaining(n, current))
    greedy = worst_case_pattern(layout, n - len(current))
    if current != set(greedy.remaining):
        steps.append(greedy)
    return steps


def tightness_budget_size(inst: CodeInstance) -> int:
    """Set size whose full decodability certifies the distance ceiling:
    every tau symbols decode exactly when d >= n - tau + 1."""
    spec = inst.spec
    return spec.n + 1 - distance_bound_udlrc(spec).value


def certify_distance_optimal(inst: CodeInstance, budget: int = DEFAULT_ORACLE_BUDGET) -> bool:
    """Certify that the built code meets its distance ceiling with equality.

    Checks that every symbol set of the critical size tau = n + 1 - ceiling
    has points of F_q-rank at least k: by the greedy worst-case pattern
    (which minimizes remaining rank), and for n within the oracle budget by
    the oracle's walk over all tau-sets of points as length-t rows over
    F_q.  Requires the ordered parameter condition, under which the greedy
    pattern argument is valid.
    """
    spec = inst.spec
    if not spec.ordered_condition:
        raise OrderedConditionRequired(
            "distance certification needs nondecreasing r and nonincreasing delta"
        )
    tau = tightness_budget_size(inst)
    greedy = worst_case_pattern(inst.layout, spec.n - tau)
    ok = erank(inst, greedy.remaining) >= spec.k
    if ok and spec.n <= budget:
        pk = _packing(inst.base, spec.t)
        points = [pk.pack(y) for y in inst.points]
        ok = _first_deficient(pk, points, spec.k, tau, 0, [], []) is None
    return ok
