"""Codes whose symbols carry unequal, disjoint local repair guarantees.

A code is described by classes j = 1..s, each class contributing m_j local
groups of r_j payload symbols protected by an [r_j + d_j - 1, r_j, d_j]
MDS code over the base field.  Building such a code takes three steps:

  1. precode the k message symbols with a q-power polynomial evaluated at
     n_gab = sum m_j r_j independent points of F_{q^t},
  2. split those evaluations into the local groups,
  3. expand each group with its class's systematic MDS generator.

Because MDS coefficients live in the base field and the evaluation map is
F_q-linear, every produced symbol is itself an evaluation of the same
polynomial at a tracked point y_i, and within a group any s symbols carry
points of rank min(s, r_j).  The precode points are the unit vectors
e_0, ..., e_{n_gab - 1}, so build_code places the points directly: a
group's symbol x gets its local generator's column x written into the
group's r precode coordinates.  Erasure decoding therefore reduces to rank
accounting on the per-symbol points: a pattern is recoverable exactly when
the remaining points still span k dimensions over F_q.  erank takes that
rank once over the pooled points; since the group spans intersect
trivially it equals the sum of the per-group ranks, a fact the tests check
rather than every call.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .fields import PRIME_CHECK_LIMIT, ExtElem, ExtField, PrimeField, _Packing, _packing
from .gabidulin import LinearizedPoly, lin_eval, moore_matrix
from .linalg import Matrix, _check_indices, _solve_packed


# The packed size, in bytes, of the rows one instance keeps per information
# set for decode_erasures, [A^-1 | A^-1 G] for its Moore block A: k (k + n)
# packed elements, about 3.7 KB on a [12,6] code over GF(5^8) (4,569 sets)
# and about 2.1 MB on an n = 84 code over GF(11^60) (7 sets).
_INVERSES_BYTES = 16 << 20

# The erasure patterns whose decode plan one instance keeps: every pattern
# of a code with n <= 12.  A kept plan, its erased set included, takes about
# 0.9 KB on a [12,6] code and 1.6 KB on an n = 84 code with a few erasures,
# so the map holds at most about 4 and 7 MB.
_PLANS = 1 << 12


class SpecInvalid(ValueError):
    """A code description violating one of its structural constraints."""


class FieldTooSmall(SpecInvalid):
    """Base field too small for the requested local MDS code."""


class LengthMismatch(ValueError):
    """Vector length inconsistent with the code dimensions."""


class NotOnCode(ValueError):
    """Received symbols that no codeword of the code agrees with."""


class Undecodable(Exception):
    """Erasure pattern whose remaining symbols no longer span the message."""

    def __init__(self, remaining_rank: int, needed: int) -> None:
        super().__init__(f"remaining rank {remaining_rank} < {needed}")
        self.remaining_rank = remaining_rank
        self.needed = needed


@dataclass(frozen=True)
class LocalityClass:
    """One class of symbols sharing the locality pair (r, delta).

    n is the class length.  The derived quantities follow the division
    n = p * (r + delta - 1) + rem with 0 <= rem <= r + delta - 2, and k_cap
    is the largest dimension the class can contribute:
        rem <= delta - 2:  floor(n / width) * r
        otherwise:         n - ceil(n / width) * (delta - 1)
    """

    r: int
    delta: int
    n: int

    def __post_init__(self) -> None:
        if self.r < 1:
            raise SpecInvalid(f"locality r must be >= 1, got {self.r}")
        if self.delta < 2:
            raise SpecInvalid(f"local distance delta must be >= 2, got {self.delta}")
        if self.n < 1:
            raise SpecInvalid(f"class length must be >= 1, got {self.n}")

    @classmethod
    def from_groups(cls, r: int, delta: int, m: int) -> "LocalityClass":
        if m < 1:
            raise SpecInvalid(f"group count must be >= 1, got {m}")
        return cls(r=r, delta=delta, n=m * (r + delta - 1))

    # The derived quantities are computed once per class: cached_property
    # writes to the instance dict, outside the frozen fields, so equality,
    # hashing and repr see only (r, delta, n).
    @cached_property
    def width(self) -> int:
        """Length of one local group."""
        return self.r + self.delta - 1

    @cached_property
    def p(self) -> int:
        return self.n // self.width

    @cached_property
    def rem(self) -> int:
        return self.n % self.width

    @cached_property
    def m_ceil(self) -> int:
        return self.p + (1 if self.rem else 0)

    @property
    def has_whole_groups(self) -> bool:
        return self.rem == 0

    @property
    def groups(self) -> int:
        """Number of local groups; defined only when n splits evenly."""
        if not self.has_whole_groups:
            raise SpecInvalid(
                f"class length {self.n} is not a whole number of groups of width {self.width}"
            )
        return self.p

    @cached_property
    def k_cap(self) -> int:
        """Largest dimension this class can carry."""
        if self.rem <= self.delta - 2:
            return self.p * self.r
        return self.n - self.m_ceil * (self.delta - 1)


@dataclass(frozen=True)
class LocalitySpec:
    """A full code description: classes plus dimension and field parameters."""

    classes: tuple[LocalityClass, ...]
    k: int
    q: int
    t: int

    def __post_init__(self) -> None:
        if not self.classes:
            raise SpecInvalid("at least one locality class is required")
        if self.k < 1:
            raise SpecInvalid(f"dimension k must be >= 1, got {self.k}")

    @property
    def s(self) -> int:
        return len(self.classes)

    # Read on every decode; cached as LocalityClass caches its derived
    # fields, outside the frozen fields that equality and hashing see.
    @cached_property
    def n(self) -> int:
        return sum(c.n for c in self.classes)

    @cached_property
    def base(self) -> PrimeField:
        """F_q, whose primality test validate_spec runs once per spec."""
        return PrimeField(self.q)

    @property
    def n_gab(self) -> int:
        """Precode length sum m_j * r_j; requires whole groups in every class."""
        return sum(c.groups * c.r for c in self.classes)

    @property
    def k_caps(self) -> tuple[int, ...]:
        return tuple(c.k_cap for c in self.classes)

    @property
    def ordered_condition(self) -> bool:
        """r nondecreasing and delta nonincreasing across classes."""
        rs = [c.r for c in self.classes]
        ds = [c.delta for c in self.classes]
        return all(a <= b for a, b in zip(rs, rs[1:])) and all(
            a >= b for a, b in zip(ds, ds[1:])
        )


def validate_spec(spec: LocalitySpec) -> LocalitySpec:
    """Check every constraint a buildable description must satisfy.

    Raises SpecInvalid naming the violated constraint; returns the spec so
    calls can be chained.  The ordered condition is recorded, not required.
    """
    if spec.q >= PRIME_CHECK_LIMIT:
        raise SpecInvalid(f"base field size q={spec.q} is not below {PRIME_CHECK_LIMIT}, the primality test's limit")
    try:
        spec.base
    except ValueError:
        raise SpecInvalid(f"base field size must be prime, got q={spec.q}") from None
    for j, c in enumerate(spec.classes, 1):
        if not c.has_whole_groups:
            raise SpecInvalid(
                f"class {j}: length {c.n} is not a multiple of the group width {c.width}"
            )
        if spec.q < c.width:
            raise FieldTooSmall(
                f"class {j}: local code of length {c.width} needs q >= {c.width}, got q={spec.q}"
            )
    n_gab = spec.n_gab
    if n_gab > spec.t:
        raise SpecInvalid(f"extension degree too small: need t >= {n_gab}, got t={spec.t}")
    if spec.k > n_gab:
        raise SpecInvalid(f"dimension overflow: k={spec.k} exceeds the precode length {n_gab}")
    return spec


@dataclass(frozen=True)
class LocalGroupLayout:
    """Disjoint local groups partitioning the symbol indices.

    groups[l] is a tuple of symbol indices; class_of[l] is the 0-based index
    of the class the group belongs to.  Groups are laid out consecutively,
    classes in spec order.
    """

    groups: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]

    @property
    def n(self) -> int:
        return sum(len(g) for g in self.groups)

    @cached_property
    def _owner(self) -> dict[int, int]:
        owner = {}
        for l, g in enumerate(self.groups):
            for i in g:
                owner[i] = l
        return owner

    def group_of(self, i: int) -> int:
        """Index of the group containing symbol i; one out of range raises IndexError."""
        _check_indices(self.n, (i,), "symbol")
        return self._owner[i]


def build_layout(spec: LocalitySpec) -> LocalGroupLayout:
    groups: list[tuple[int, ...]] = []
    class_of: list[int] = []
    start = 0
    for j, c in enumerate(spec.classes):
        for _ in range(c.groups):
            groups.append(tuple(range(start, start + c.width)))
            class_of.append(j)
            start += c.width
    return LocalGroupLayout(tuple(groups), tuple(class_of))


def _lagrange_weights(present: Sequence[int], pos: int, q: int) -> list[int]:
    """L_p(pos) over F_q for each locator p in present: a polynomial of
    degree < len(present) takes at pos the sum of L_p(pos) times its values
    at the present locators."""
    weights = []
    for p in present:
        num = den = 1
        for o in present:
            if o != p:
                num = num * (pos - o) % q
                den = den * (p - o) % q
        weights.append(num * pow(den, -1, q) % q)
    return weights


def _local_columns(r: int, delta: int, q: int) -> list[tuple[int, ...]]:
    """The systematic [r + delta - 1, r, delta] generator's columns over F_q: unit
    vectors on the first r locators, then the Lagrange weights of 0..r-1 at each later one."""
    units = [(0,) * x + (1,) + (0,) * (r - 1 - x) for x in range(r)]
    return units + [tuple(_lagrange_weights(range(r), x, q)) for x in range(r, r + delta - 1)]


def mds_local_generator(r: int, delta: int, base: PrimeField) -> Matrix:
    """Systematic [r + delta - 1, r, delta] generator over the base field.

    Evaluation code of polynomials of degree < r at the locators
    0, 1, ..., r + delta - 2, in the basis that is systematic on the first
    r locators: column x holds the Lagrange weights of the locators
    0..r-1 at x (_local_columns).  Needs r >= 1, delta >= 2 and
    q >= r + delta - 1 distinct locators.
    """
    w = LocalityClass.from_groups(r, delta, 1).width
    if base.q < w:
        raise FieldTooSmall(f"a length-{w} local code needs q >= {w}, got q={base.q}")
    return Matrix(base, [list(row) for row in zip(*_local_columns(r, delta, base.q))])


@dataclass(frozen=True)
class CodeInstance:
    """A built code: group layout and per-symbol evaluation points.

    Symbol i is f(points[i]) for the message's q-power polynomial f, so
    the points are the code: gen is derived from them, and
    dataclasses.replace(inst, points=...) is the code on other points.
    Three functions read the construction's structure too: decode_erasures
    counts as repaired locally only the symbols of groups whose points keep
    their local code (checked per group), encode_via_pipeline refuses a
    group that lost it, and analysis.rank_deficiency_witness raises
    ValueError where the points break its cover chain.
    """

    spec: LocalitySpec
    layout: LocalGroupLayout
    points: tuple[ExtElem, ...]

    @cached_property
    def field(self) -> ExtField:
        """GF(q^t) of the spec, built on first use.

        The points are coordinate tuples over F_q and every point rank is
        taken over F_q, so the layout, the points and every check that
        reads only ranks (erank, the cover chains, the oracle, certify)
        need no modulus; the generator, the codec and build's modulus row
        build the field, through the same modulus search.
        """
        return ExtField(self.spec.base, self.spec.t)

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def k(self) -> int:
        return self.spec.k

    @cached_property
    def gen(self) -> Matrix:
        """The k x n generator, the Moore matrix on the points: row j is their q^j-th powers."""
        return moore_matrix(self.field, self.points, self.k).transpose()

    # The packed forms the codec and the rank checks read, each built on
    # first use and kept: a call then packs only its own symbols.
    @cached_property
    def _gen_packed(self) -> list[int]:
        """The generator rows, packed n wide; a decode reads its Moore rows
        out of them as columns."""
        pk = _packing(self.field, self.n)
        return [pk.pack(row) for row in self.gen.rows]

    @cached_property
    def _plans(self) -> OrderedDict:
        """decode_erasures' plans by erased set, least recently used first."""
        return OrderedDict()

    @cached_property
    def _inverses(self) -> OrderedDict:
        """decode_erasures' information sets, least recently used first:
        None for a set decoded once, then the packed rows of
        [A^-1 | A^-1 G], A its Moore block and G the generator."""
        return OrderedDict()

    @cached_property
    def _point_packing(self) -> _Packing:
        """The layout of a point's coordinate vector: t wide over F_q."""
        return _packing(self.spec.base, self.spec.t)

    @cached_property
    def _points_packed(self) -> list[int]:
        """The points packed by _point_packing (build_code places a built code's); ranks are taken on them."""
        pk = self._point_packing
        return [pk.pack(y) for y in self.points]

    @cached_property
    def _local_groups(self) -> frozenset[int]:
        """The groups whose points are their local generator's columns
        applied to their first r points, as build_code places them, so that
        every symbol is the group's local polynomial at its locator: read by
        decode_erasures' local phase and by encode_via_pipeline."""
        pk, points, classes = self._point_packing, self._points_packed, self.spec.classes
        columns = [_local_columns(c.r, c.delta, self.spec.q) for c in classes]
        out = set()
        for l, group in enumerate(self.layout.groups):
            j = self.layout.class_of[l]
            head = [points[i] for i in group[: classes[j].r]]
            # The weights are ints mod q, their own packed form on this prime layout.
            if all(pk.combine(column, head) == points[i] for column, i in zip(columns[j], group)):
                out.add(l)
        return frozenset(out)


def build_code(spec: LocalitySpec) -> CodeInstance:
    """Run the three construction steps on the points.

    The precode points are the unit vectors e_0, ..., e_{n_gab - 1}, so a
    group's points, its r precode points times its class's local
    generator, are that generator's columns (_local_columns) placed in the
    group's precode coordinates: symbol x of a group at precode offset o
    gets column x in coordinates o..o+r-1 and zeros elsewhere, and its
    packed point is the class's packed column x shifted up by o.  The
    generator's entries lie in F_q, which the q-power map fixes, so every
    symbol is f(y_i) for the same F_q-linear f, and the generator
    (CodeInstance.gen) is the q-power tower of the points.  No extension
    field is built here: the points are tuples over F_q.
    """
    validate_spec(spec)
    layout, pk = build_layout(spec), _packing(spec.base, spec.t)
    zero, points, packed, offset = (0,) * spec.t, [], [], 0
    for c in spec.classes:
        columns = _local_columns(c.r, c.delta, spec.q)
        rows = [pk.pack(column) for column in columns]
        for _ in range(c.groups):
            points += [zero[:offset] + column + zero[offset + c.r :] for column in columns]
            packed += pk.shifted(rows, offset)
            offset += c.r
    inst = CodeInstance(spec=spec, layout=layout, points=tuple(points))
    # A cached property reads the instance dict first.
    vars(inst).update(_point_packing=pk, _points_packed=packed)
    return inst


def _check_message(inst: CodeInstance, message: Sequence[ExtElem]) -> None:
    if len(message) != inst.k:
        raise LengthMismatch(f"message length {len(message)} != k = {inst.k}")
    t = inst.spec.t
    for j, v in enumerate(message):
        if len(v) != t:
            raise LengthMismatch(f"message symbol {j} has {len(v)} coordinates, not t = {t}")


def encode(inst: CodeInstance, message: Sequence[ExtElem]) -> list[ExtElem]:
    """message times the generator matrix: the instance's packed generator
    rows, weighted by the message symbols and summed, one fold per pair of
    symbols (_Packing.combine).  A malformed message raises LengthMismatch."""
    _check_message(inst, message)
    pk = _packing(inst.field, inst.n)
    return pk.unpack(pk.combine(map(pk.pack_elem, message), inst._gen_packed))


def encode_via_pipeline(inst: CodeInstance, message: Sequence[ExtElem]) -> list[ExtElem]:
    """The two-stage route on the instance's points: precode, then expand each group with its MDS code.

    The precode values are the message's q-power polynomial f at each
    group's first r points (on a built code, its unit vectors), and the
    group's symbols are its class's local generator columns applied to them
    over F_q.  That is f at every point of the group only where the group
    keeps its local code (CodeInstance._local_groups), so a group that lost
    it raises ValueError.  Wherever this answers it agrees with encode(),
    and it refuses the messages encode() refuses; both are kept so the
    agreement stays testable.
    """
    _check_message(inst, message)
    field = inst.field
    f = LinearizedPoly(field, tuple(message))
    columns = [_local_columns(c.r, c.delta, field.q) for c in inst.spec.classes]
    out: list[ExtElem] = []
    for l, group in enumerate(inst.layout.groups):
        if l not in inst._local_groups:
            raise ValueError(f"group {l} does not keep its local code: the two-stage route cannot encode it")
        j = inst.layout.class_of[l]
        heads = [lin_eval(f, inst.points[i]) for i in group[: inst.spec.classes[j].r]]
        for column in columns[j]:
            acc = field.zero
            for w, v in zip(column, heads):
                acc = field.add(acc, field.scale(w, v))
            out.append(acc)
    return out


def erank(inst: CodeInstance, symbols: Iterable[int]) -> int:
    """Rank over F_q of the points of the given symbols; one out of range raises IndexError."""
    idx = _check_indices(inst.n, symbols, "symbol")
    pk, points = inst._point_packing, inst._points_packed
    return len(pk.echelon([points[i] for i in idx], pk.length))


@dataclass(frozen=True)
class ErasurePattern:
    """Erased symbol indices and their complement; an index outside range(n) raises IndexError."""

    n: int
    erased: frozenset[int]

    def __post_init__(self) -> None:
        _check_indices(self.n, self.erased, "erased")

    @classmethod
    def from_erased(cls, n: int, erased: Iterable[int]) -> "ErasurePattern":
        return cls(n, frozenset(erased))

    @classmethod
    def from_remaining(cls, n: int, remaining: Iterable[int]) -> "ErasurePattern":
        return cls(n, frozenset(range(n)).difference(_check_indices(n, remaining, "remaining")))

    @property
    def remaining(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.erased)

    @property
    def erased_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.erased))


def _check_pattern(inst: CodeInstance, pattern: ErasurePattern) -> None:
    if pattern.n != inst.n:
        raise LengthMismatch(f"pattern length {pattern.n} != n = {inst.n}")


def erasure_decodable(inst: CodeInstance, pattern: ErasurePattern) -> bool:
    """Whether the remaining symbols span the message space; a pattern of another length raises LengthMismatch."""
    _check_pattern(inst, pattern)
    return erank(inst, pattern.remaining) >= inst.k


@dataclass(frozen=True)
class DecodeResult:
    """A decode's message and codeword.  repaired_locally names the erased
    symbols that their group's local code determines from the group's
    received symbols; the phase is "local" when they are all the erased ones."""

    message: tuple[ExtElem, ...]
    codeword: tuple[ExtElem, ...]
    phase: str  # "none", "local", or "global"
    repaired_locally: tuple[int, ...]


def _with_codeword(inst: CodeInstance, message: int) -> int:
    """[message | its codeword], packed k + n wide: the message packed k
    wide and, in the n blocks above it, the encode combine of its blocks
    with the generator rows.  Every layout of one field has the same block
    width, so the shift places the codeword."""
    k, pk = inst.k, _packing(inst.field, inst.n)
    return message | pk.combine(pk.columns([message], range(k)), inst._gen_packed) << k * pk.bw


def _solve_word(inst: CodeInstance, chosen: tuple[int, ...], values: list[int]) -> int:
    """[message | codeword], packed k + n wide, for the codeword that takes
    the packed values on the chosen symbols, through the instance's kept
    rows for their Moore block A (see decode_erasures for when a set's rows
    are built and kept)."""
    field, k, n, inverses = inst.field, inst.k, inst.n, inst._inverses
    if chosen in inverses:
        inverses.move_to_end(chosen)
        kept = inverses[chosen]
        if kept is None:
            # Row j of the reduced [A | I] is [e_j | row j of A^-1]; column
            # i of A^-1, packed k wide, weights value i in every message
            # symbol, so [u_i | u_i G] weights it in the message and, by
            # linearity, in the codeword.
            pk = _packing(field, 2 * k)
            rows = pk.columns(inst._gen_packed, chosen)
            solved = _solve_packed(pk, [row | 1 << (k + i) * pk.bw for i, row in enumerate(rows)], k)
            kept = inverses[chosen] = [_with_codeword(inst, u) for u in pk.columns(solved, range(k, 2 * k))]
        return _packing(field, k + n).combine(values, kept)
    # Symbol s's row of A is column s of the generator, packed k wide.
    pk = _packing(field, k + 1)
    solved = _solve_packed(pk, [row | v << k * pk.bw for row, v in zip(pk.columns(inst._gen_packed, chosen), values)], k)
    # Each set in the map is charged its kept rows' packed size from its first decode on.
    capacity = _INVERSES_BYTES * 8 // (k * (k + n) * pk.bw)
    if capacity:
        while len(inverses) >= capacity:
            inverses.popitem(last=False)
        inverses[chosen] = None
    # Row j is [e_j | message symbol j]: the message is the last column.
    return _with_codeword(inst, pk.columns(solved, [k])[0])


def _plan(inst: CodeInstance, pattern: ErasurePattern) -> tuple:
    """decode_erasures' decisions on one pattern, which read only which
    symbols were erased: (remaining, chosen, phase, repaired).

    A group with at most delta - 1 missing symbols whose points keep its
    local code (CodeInstance._local_groups) determines them from its
    received ones: those are repaired locally.  chosen, the information
    set, is the received symbols in order whose points extend an
    independent set over F_q, stopped at k.  A repaired symbol's point
    lies in the F_q-span of its group's received points, so the received
    symbols alone have the rank of all the known ones: a chosen shorter
    than k is the remaining rank."""
    erased, layout = pattern.erased, inst.layout
    repaired = []
    for l, group in enumerate(layout.groups):
        missing = [i for i in group if i in erased]
        delta = inst.spec.classes[layout.class_of[l]].delta
        if missing and len(missing) < delta and l in inst._local_groups:
            repaired += missing
    if not erased:
        phase = "none"
    elif len(repaired) == len(erased):
        phase = "local"
    else:
        phase = "global"
    remaining = pattern.remaining
    pk, points, t = inst._point_packing, inst._points_packed, inst.spec.t
    basis: list[tuple] = []
    chosen: list[int] = []
    for i in remaining:
        if pk.extend(basis, points[i], t):
            chosen.append(i)
            if len(chosen) == inst.k:
                break
    return remaining, tuple(chosen), phase, tuple(sorted(repaired))


def decode_erasures(
    inst: CodeInstance, received: Mapping[int, ExtElem], pattern: ErasurePattern
) -> DecodeResult:
    """Recover the message (and the full codeword) from a partial codeword.

    A decode is a plan and an apply step.  The plan (_plan) depends only
    on the pattern: the symbols their groups repair locally, the phase,
    and the information set, k received symbols whose points are
    F_q-independent.  The instance keeps the plans of the last _PLANS
    patterns, the least recently used dropped first.
    The apply step checks the received symbols, packs only the chosen
    ones, and solves the chosen symbols' rows A of the Moore system for
    the message m and the codeword m G, one packed row [m | m G] that is
    unpacked once.  The first decode of a set eliminates [A | b] with one
    field inversion and re-encodes m (one packed combine with the
    generator rows).  The second eliminates [A | I] instead and keeps the
    rows [A^-1 | A^-1 G] on the instance, so every later decode of the set
    is b [A^-1 | A^-1 G], one packed combine with no elimination, no
    inversion and no re-encode.  The kept sets are bounded by
    _INVERSES_BYTES of packed rows, the least recently used dropped first.
    A repaired symbol is its codeword entry, which is what its group's
    local code gives.
    Raises LengthMismatch when the pattern or the received symbols are
    malformed, and then Undecodable with the remaining rank when the
    pattern is unrecoverable.  The codeword is compared with every received
    symbol, in every mode, and NotOnCode is raised when one differs: the
    chosen symbols decode to the only codeword that agrees with them, so
    then no codeword agrees with all the received symbols.
    """
    field, k = inst.field, inst.k
    _check_pattern(inst, pattern)
    # A pattern made directly on a mutable set keys by its value.
    plans, erased = inst._plans, frozenset(pattern.erased)
    plan = plans.get(erased)
    if plan is None:
        plan = _plan(inst, pattern)
        if len(plans) >= _PLANS:
            plans.popitem(last=False)
        plans[erased] = plan
    else:
        plans.move_to_end(erased)
    remaining, chosen, phase, repaired = plan
    if set(received) != set(remaining):
        raise LengthMismatch("received symbols must cover exactly the remaining positions")
    t = field.t
    for i in remaining:
        if len(v := received[i]) != t:
            raise LengthMismatch(f"received symbol {i} has {len(v)} coordinates, not t = {t}")
    if len(chosen) < k:
        raise Undecodable(len(chosen), k)

    pk = _packing(field, k + inst.n)
    word = pk.unpack(_solve_word(inst, chosen, [pk.pack_elem(received[i]) for i in chosen]))
    message, codeword = word[:k], word[k:]
    q = field.q
    for i in remaining:
        # A received coordinate need not be reduced mod q.
        if codeword[i] != (v := received[i]) and codeword[i] != tuple(x % q for x in v):
            raise NotOnCode(f"received symbol {i} disagrees with the codeword the chosen symbols decode to")
    return DecodeResult(message=tuple(message), codeword=tuple(codeword), phase=phase, repaired_locally=repaired)
