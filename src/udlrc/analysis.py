"""Brute-force certificates and counting arguments for built code instances.

Everything here is an independent check on the construction: exact minimum
distance by a pruned walk over the rank-deficient symbol sets, the greedy
cover chains behind the dimension and distance ceilings, and the worst-case
erasure patterns that certify tightness.  No locality is checked here: the
local groups' (r, delta) locality is taken from the construction.  A built
code is read through its points, since a symbol set has rank min(k, F_q-rank
of its points) in it; a bare generator Matrix (any other code) is read
through its columns.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .bounds import ceil_div, distance_bound_measured, distance_bound_udlrc
from .construction import (
    CodeInstance,
    ErasurePattern,
    LocalGroupLayout,
    erank,
)
from .fields import _packing
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


@dataclass(frozen=True, slots=True)
class DistanceCertificate:
    """Exact minimum distance with the largest rank-deficient set as witness."""

    d: int
    witness: tuple[int, ...]
    witness_rank: int


def min_distance_oracle(code: CodeInstance | Matrix, budget: int = DEFAULT_ORACLE_BUDGET) -> DistanceCertificate:
    """Exact minimum distance: n minus the largest symbol set of rank < k.

    A built code's generator is the Moore matrix on its points, so a symbol
    set has rank min(k, F_q-rank of its points) by the Moore determinant
    (Lidl and Niederreiter, Finite Fields, Lemma 3.51), and a CodeInstance
    is walked over its points as length-t rows over F_q.  A Matrix is
    walked over the columns of its reduced basis over its own field (row
    operations keep every column subset's rank; unit pivot columns skip
    most elimination steps).  Either is one _walk at first = k: a knapsack
    over the tables of the columns' distinct blocks, the direct summands
    that _Packing.block_starts finds (a built code's points place each
    local group in its own precode coordinates; points without an
    interior block start are one block).  The witness is the first set of
    the largest size n - d in combinations order, the one a size-by-size
    scan gives, and every rank is found by elimination, so the oracle is
    exact on any points.
    """
    if isinstance(code, CodeInstance):
        return _walk(code._point_packing, code._points_packed, code.k, code.k, budget)[0]
    n, k = code.ncols, code.nrows
    pn = _packing(code.field, n)
    rows = [row for _, row in pn.reduced(map(pn.pack, code.rows), n)]
    return _walk(_packing(code.field, k), pn.columns(rows, range(n)), k, k, budget, rank=len(rows))[0]


def prefix_oracles(inst: CodeInstance, budget: int = DEFAULT_ORACLE_BUDGET) -> list[DistanceCertificate]:
    """min_distance_oracle of the code on inst's points at each k = 1 .. inst.k.

    A block's table serves every k, so one knapsack pass serves them all.
    sweep calls it on one-group codes, whose certificates give the group
    tables it folds.
    """
    return _walk(inst._point_packing, inst._points_packed, 1, inst.k, budget)


def _walk(pk, columns, first, k, budget, rank=None):
    """The certificates at each of first .. k of the columns, packed by pk,
    in a list.

    The columns split at _Packing.block_starts into blocks, each keyed by
    its columns shifted down (_Packing.lowered): one call has one field.
    A block's rank R_b is its echelon's, or rank, when the caller has it,
    for a lone block; R is their sum.  The other blocks take at most
    R - R_b, so a block is asked only budgets max(0, first - 1 - (R - R_b))
    .. min(k - 1, R_b), and each distinct block is walked once over them
    (_block_table).

    The blocks are direct summands, so a set's rank is the sum of its
    parts' ranks, and the largest set of rank at most g comes from a
    knapsack, from the last block to the first: best[g] is the largest
    |e| + tail[g - rank(e)] over the block's entries e.  The first such
    set in combinations order has the first block part in the walk's
    order, so the entries are tried in that order and only a larger sum
    replaces the best.  Each budget links to its entry, its indices moved
    to the block's start once per call, and to the tail's budget, and a
    witness is built once per returned k.
    """
    n = len(columns)
    if n > budget:
        raise TooLarge(f"n={n} exceeds the enumeration budget {budget}")
    starts = pk.block_starts(columns)
    # Each distinct block's rank, and its table once it is walked.
    ranks, tables = {}, {}
    blocks = []
    for j, e in zip(starts, starts[1:]):
        block = pk.lowered(columns[j:e])
        if block not in ranks:
            ranks[block] = rank if rank is not None and e - j == n else len(pk.echelon(block, pk.length))
        blocks.append((j, block))
    total = sum(ranks[block] for _, block in blocks)
    if total < k:
        raise RankDeficientGenerator(f"generator rank below k={max(first, total + 1)}")
    if not k:
        raise ValueError("k = 0: a code of dimension 0 has no rank-deficient symbol set")
    levels = []
    # Per budget: size and rank, then the block part and the tail's budget.
    tail = [(0, 0)] * k
    after = 0
    for j, block in reversed(blocks):
        own, entries = ranks[block], tables.get(block)
        if entries is None:
            tables[block] = entries = _block_table(pk, block, own, max(0, first - 1 - total + own), min(k - 1, own))
        after += own
        if j:
            entries = [(size, r, tuple([j + i for i in part])) for size, r, part in entries]
        best = [None] * k
        for g in range(max(0, first - 1 - total + after), k):
            top = -1
            for size, r, part in entries:
                if r <= g and size + (rest := tail[g - r])[0] > top:
                    top = size + rest[0]
                    best[g] = (top, r + rest[1], part, g - r)
        levels.append(best)
        tail = best
    certs = []
    for g in range(first - 1, k):
        size, gain = tail[g][:2]
        witness: list[int] = []
        link = g
        for best in reversed(levels):
            _, _, part, link = best[link]
            witness += part
        certs.append(DistanceCertificate(n - size, tuple(witness), gain))
    return certs


def _block_table(pk, block, rank, least, most):
    """The table of a block of rank rank: at each budget g = least .. most,
    the first largest set of its columns of rank at most g, as distinct
    entries (size, rank, indices) in the walk's order, where a set that
    extends another comes first.  At budget rank it is the whole block.

    Below rank, one depth-first walk over the subsets, each column taken
    before it is skipped, keeps every column's residual against the span
    of the path: one pivot-scaled elimination step (clear, bound once per
    walk by _Packing.clearing) per column when the path's rank grows, so
    a column is in the span exactly when its residual is zero.  A largest
    set of rank at most g is closed, as a column in its span would join it
    at the same rank, so two rules cut only branches without one: (a) a
    column in the path's span is taken, never skipped; (b) a path whose
    span holds a column it skipped is dropped.  Each budget keeps the first
    largest set: only a larger one replaces it.  Best sizes grow with g, so
    a branch is cut when it cannot outgrow the best at its rank or least,
    whichever is more.
    """
    m, cap, clear = len(block), min(most, rank - 1), pk.clearing()
    path: list[int] = []
    best = [(-1,)] * (cap + 1)

    def visit(i, r, residuals):
        taken = len(path)
        while True:
            size, floor = len(path), max(r, least)
            if size > best[floor][0]:
                found, g = (size, r, tuple(path)), floor
                while g <= cap and size > best[g][0]:
                    best[g] = found
                    g += 1
            # At i == m this always breaks: best[floor] holds size by now.
            if size + m - i <= best[floor][0]:
                break
            row = residuals[i]
            if not row:  # (a)
                path.append(i)
            elif r < cap:
                grown = clear(residuals, row)
                if grown[:i].count(0) == len(path):  # (b)
                    path.append(i)
                    visit(i + 1, r + 1, grown)
                    path.pop()
            i += 1
        del path[taken:]

    if least <= cap:
        visit(0, 0, block)
    entries = list(dict.fromkeys(best[least:]))
    if most == rank:
        entries.append((m, rank, tuple(range(m))))
    return sorted(entries, key=lambda entry: (*entry[2], m))


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
    broken by smallest index, so traces are reproducible.  A set's rank is
    min(k, F_q-rank of its points), so one pass over the class on one
    growing basis of the covered points finds every pick: a symbol whose
    point is in the span once stays in it.
    """
    pk, points = inst._point_packing, inst._points_packed
    basis: list[tuple] = []
    current: frozenset[int] = frozenset()
    sets = [current]
    picks: list[int] = []
    granks_ = [0]
    for i in class_symbols(inst, j):
        if granks_[-1] == inst.k:
            break
        if i in current or not pk.extend(basis, points[i], pk.length):
            continue
        group = inst.layout.groups[inst.layout.group_of(i)]
        for g in group:
            pk.extend(basis, points[g], pk.length)
        current = current | frozenset(group)
        sets.append(current)
        picks.append(i)
        granks_.append(min(inst.k, len(basis)))
    return CoverTrace(
        class_index=j,
        sets=tuple(sets),
        picks=tuple(picks),
        sizes=tuple(map(len, sets)),
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


def rank_deficiency_witness(inst: CodeInstance, traces: Sequence[CoverTrace] | None = None) -> tuple[int, ...]:
    """A large symbol set whose restricted rank stays below k.

    Takes all classes before the measured pivot, plus the cover-chain prefix
    of the pivot class that stops just short of contributing the missing
    rank.  The result has rank at most k - 1 and at least
    sum_{j < pivot} (n_j - rank_j) + l * (delta_pivot - 1) redundant symbols,
    so it lower-bounds how far the distance sits below Singleton.  traces
    are the classes' cover traces in class order, computed when not given.
    Both claims hold when the pivot's cover chain keeps its growth claims
    (check_cover_trace), as on the construction's points; each is checked,
    and a failed one raises ValueError naming the pivot class.
    """
    if traces is None:
        traces = [class_cover_trace(inst, j) for j in range(1, inst.spec.s + 1)]
    granks_ = [trace.granks[-1] for trace in traces]
    bound = distance_bound_measured(inst.spec, granks_)
    sigma = bound.pivot
    piv = inst.spec.classes[sigma - 1]
    # l >= 0, since the classes before the pivot have ranks summing below k.
    l = ceil_div(inst.k - sum(granks_[: sigma - 1]), piv.r) - 1
    trace = traces[sigma - 1]
    if l < trace.steps:
        witness = set(trace.sets[l])
        for j in range(1, sigma):
            witness.update(class_symbols(inst, j))
        out = tuple(sorted(witness))
        got = min(inst.k, erank(inst, out))
        # The bound's terms are the head slack and the pivot's l * (delta - 1).
        if got < inst.k and len(out) - got >= sum(bound.per_class_terms):
            return out
    violations = "; ".join(check_cover_trace(trace, piv.r, piv.delta))
    raise ValueError(f"class {sigma}'s cover chain breaks its growth claims: {violations}")


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


def tightness_budget_size(inst: CodeInstance) -> int:
    """Set size whose full decodability certifies the distance ceiling:
    every tau symbols decode exactly when d >= n - tau + 1."""
    spec = inst.spec
    return spec.n + 1 - distance_bound_udlrc(spec).value


def certify_distance_optimal(inst: CodeInstance, budget: int = DEFAULT_ORACLE_BUDGET) -> bool:
    """Certify that the built code meets its distance ceiling with equality.

    Checks that every symbol set of the critical size tau = n + 1 - ceiling
    has points of F_q-rank at least k, which holds exactly when
    d >= n + 1 - tau.  The greedy worst-case pattern (which minimizes
    remaining rank) fails a code without a walk; otherwise d comes only from
    the code's own oracle walk, which raises TooLarge for n over budget.
    Requires the ordered parameter condition, under which the greedy
    pattern argument is valid.
    """
    spec = inst.spec
    if not spec.ordered_condition:
        raise OrderedConditionRequired(
            "distance certification needs nondecreasing r and nonincreasing delta"
        )
    tau = tightness_budget_size(inst)
    greedy = worst_case_pattern(inst.layout, spec.n - tau)
    if erank(inst, greedy.remaining) < spec.k:
        return False
    return min_distance_oracle(inst, budget).d >= spec.n + 1 - tau
