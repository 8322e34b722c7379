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
points of rank min(s, r_j).  Erasure decoding therefore reduces to rank
accounting on the per-symbol points: a pattern is recoverable exactly when
the remaining points still span k dimensions over F_q.  erank takes that
rank once over the pooled points; since the group spans intersect
trivially it equals the sum of the per-group ranks, a fact the tests check
rather than every call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Mapping, Sequence

from .fields import PRIME_CHECK_LIMIT, ExtElem, ExtField, PrimeField, is_prime
from .gabidulin import EvaluationPoints, default_points, gabidulin_encode
from .linalg import Matrix, RankTracker, base_rank


class SpecInvalid(ValueError):
    """A code description violating one of its structural constraints."""


class FieldTooSmall(SpecInvalid):
    """Base field too small for the requested local MDS code."""


class LengthMismatch(ValueError):
    """Vector length inconsistent with the code dimensions."""


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

    @property
    def width(self) -> int:
        """Length of one local group."""
        return self.r + self.delta - 1

    @property
    def p(self) -> int:
        return self.n // self.width

    @property
    def rem(self) -> int:
        return self.n % self.width

    @property
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

    @property
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

    @property
    def n(self) -> int:
        return sum(c.n for c in self.classes)

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
    if not is_prime(spec.q):
        raise SpecInvalid(f"base field size must be prime, got q={spec.q}")
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
        """Index of the group containing symbol i."""
        try:
            return self._owner[i]
        except KeyError:
            raise IndexError(f"symbol index {i} out of range") from None


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


def mds_local_generator(r: int, delta: int, base: PrimeField) -> Matrix:
    """Systematic [r + delta - 1, r, delta] generator over the base field.

    Evaluation code of polynomials of degree < r at the locators
    0, 1, ..., r + delta - 2, row reduced to the form [I | P].  Needs
    q >= r + delta - 1 distinct locators.
    """
    w = r + delta - 1
    if base.q < w:
        raise FieldTooSmall(f"a length-{w} local code needs q >= {w}, got q={base.q}")
    vand = Matrix(base, [[pow(x, i, base.q) for x in range(w)] for i in range(r)])
    left = vand.take_columns(range(r))
    return left.inverse() @ vand


def lift_to_ext(field: ExtField, base_matrix: Matrix) -> Matrix:
    """Reinterpret a base-field matrix over the extension field."""
    return Matrix(field, [[field.embed(v) for v in row] for row in base_matrix.rows])


@dataclass(frozen=True)
class CodeInstance:
    """A built code: generator, group layout, and per-symbol evaluation points."""

    spec: LocalitySpec
    base: PrimeField
    field: ExtField
    layout: LocalGroupLayout
    gen: Matrix
    points: tuple[ExtElem, ...]
    gab_points: EvaluationPoints
    local_gens: tuple[Matrix, ...]

    @property
    def n(self) -> int:
        return self.spec.n

    @property
    def k(self) -> int:
        return self.spec.k

    def group_point_basis(self, l: int) -> tuple[ExtElem, ...]:
        """The precode points backing group l, a basis of its point span."""
        if not 0 <= l < len(self.layout.groups):
            raise IndexError(f"group index {l} out of range")
        offset = sum(self.spec.classes[self.layout.class_of[m]].r for m in range(l))
        c = self.spec.classes[self.layout.class_of[l]]
        return tuple(self.gab_points[offset + i] for i in range(c.r))


def build_code(spec: LocalitySpec) -> CodeInstance:
    """Run the three construction steps.

    Every symbol is f(y_i) for the same F_q-linear f, so column i of the
    generator is the q-power tower of y_i.  A group's points are its r
    precode points times its class's local generator, whose entries the
    q-power map fixes, so row j of the generator is the q-power of row j - 1.
    """
    validate_spec(spec)
    base = PrimeField(spec.q)
    field = ExtField(base, spec.t)
    gab_points = default_points(field, spec.n_gab)
    layout = build_layout(spec)
    local_gens = tuple(mds_local_generator(c.r, c.delta, base) for c in spec.classes)
    lifted = [lift_to_ext(field, g) for g in local_gens]

    points: list[ExtElem] = []
    cursor = 0
    for j in layout.class_of:
        r = spec.classes[j].r
        points.extend(lifted[j].left_multiply(gab_points.points[cursor : cursor + r]))
        cursor += r
    gen_rows = [points]
    for _ in range(spec.k - 1):
        gen_rows.append([field.frobenius(y) for y in gen_rows[-1]])

    return CodeInstance(
        spec=spec,
        base=base,
        field=field,
        layout=layout,
        gen=Matrix(field, gen_rows),
        points=tuple(points),
        gab_points=gab_points,
        local_gens=local_gens,
    )


def encode(inst: CodeInstance, message: Sequence[ExtElem]) -> list[ExtElem]:
    """message times the generator matrix."""
    if len(message) != inst.k:
        raise LengthMismatch(f"message length {len(message)} != k = {inst.k}")
    return inst.gen.left_multiply(list(message))


def encode_via_pipeline(inst: CodeInstance, message: Sequence[ExtElem]) -> list[ExtElem]:
    """The two-stage route: precode, then expand each group with its MDS code.

    Agrees with encode() on every message; both are kept so the agreement
    stays testable.
    """
    if len(message) != inst.k:
        raise LengthMismatch(f"message length {len(message)} != k = {inst.k}")
    precoded = gabidulin_encode(list(message), inst.gab_points)
    out: list[ExtElem] = []
    cursor = 0
    for l in range(len(inst.layout.groups)):
        c = inst.spec.classes[inst.layout.class_of[l]]
        chunk = precoded[cursor : cursor + c.r]
        local = lift_to_ext(inst.field, inst.local_gens[inst.layout.class_of[l]])
        out.extend(local.left_multiply(chunk))
        cursor += c.r
    return out


def _check_symbols(n: int, symbols: Iterable[int]) -> list[int]:
    idx = sorted(set(symbols))
    if idx and (idx[0] < 0 or idx[-1] >= n):
        bad = idx[0] if idx[0] < 0 else idx[-1]
        raise IndexError(f"symbol index {bad} out of range for n={n}")
    return idx


def erank(inst: CodeInstance, symbols: Iterable[int]) -> int:
    """Rank over F_q of the evaluation points carried by the given symbols."""
    idx = _check_symbols(inst.n, symbols)
    return base_rank(inst.field, [inst.points[i] for i in idx])


@dataclass(frozen=True)
class ErasurePattern:
    """A set of erased symbol indices together with its complement."""

    n: int
    erased: frozenset[int]

    def __post_init__(self) -> None:
        for i in self.erased:
            if not 0 <= i < self.n:
                raise IndexError(f"erased index {i} out of range for n={self.n}")

    @classmethod
    def from_erased(cls, n: int, erased: Iterable[int]) -> "ErasurePattern":
        return cls(n, frozenset(erased))

    @classmethod
    def from_remaining(cls, n: int, remaining: Iterable[int]) -> "ErasurePattern":
        keep = frozenset(remaining)
        for i in keep:
            if not 0 <= i < n:
                raise IndexError(f"remaining index {i} out of range for n={n}")
        return cls(n, frozenset(range(n)) - keep)

    @property
    def remaining(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.n) if i not in self.erased)

    @property
    def erased_sorted(self) -> tuple[int, ...]:
        return tuple(sorted(self.erased))


def erasure_decodable(inst: CodeInstance, pattern: ErasurePattern) -> bool:
    """Whether the remaining symbols still span the full message space."""
    return erank(inst, pattern.remaining) >= inst.k


@dataclass(frozen=True)
class DecodeResult:
    message: tuple[ExtElem, ...]
    codeword: tuple[ExtElem, ...]
    phase: str  # "none", "local", or "global"
    repaired_locally: tuple[int, ...]


def decode_erasures(
    inst: CodeInstance, received: Mapping[int, ExtElem], pattern: ErasurePattern
) -> DecodeResult:
    """Recover the message (and the full codeword) from a partial codeword.

    First pass repairs every group with at most delta - 1 missing symbols:
    r present columns of its local MDS generator invert over the base field,
    which writes each missing symbol as an F_q-combination of present ones.
    Second pass greedily collects symbols whose points extend an independent
    set until rank k, then solves the generator's chosen columns for the
    message.  Raises Undecodable with the remaining rank when the pattern is
    unrecoverable.
    """
    field = inst.field
    remaining = pattern.remaining
    if set(received) != set(remaining):
        raise LengthMismatch("received symbols must cover exactly the remaining positions")
    known: dict[int, ExtElem] = {i: field.element(received[i]) for i in remaining}

    repaired: list[int] = []
    for l, group in enumerate(inst.layout.groups):
        missing = [i for i in group if i not in known]
        if not missing:
            continue
        c = inst.spec.classes[inst.layout.class_of[l]]
        if len(missing) > c.delta - 1:
            continue
        local = inst.local_gens[inst.layout.class_of[l]]
        present = [pos for pos, i in enumerate(group) if i in known][: c.r]
        # Any r columns of an MDS generator are independent, so column pos of
        # coeffs expresses symbol pos in terms of the present symbols.
        coeffs = local.take_columns(present).inverse() @ local
        values = lift_to_ext(field, coeffs).left_multiply([known[group[p]] for p in present])
        for pos, i in enumerate(group):
            if i not in known:
                known[i] = values[pos]
                repaired.append(i)

    if not pattern.erased:
        phase = "none"
    elif len(repaired) == len(pattern.erased):
        phase = "local"
    else:
        phase = "global"

    tracker = RankTracker(field.q)
    chosen: list[int] = []
    for i in sorted(known):
        if tracker.add(inst.points[i]):
            chosen.append(i)
            if len(chosen) == inst.k:
                break
    if len(chosen) < inst.k:
        # The tracker saw every known point; the repaired ones lie in the
        # span of their groups' received points.
        raise Undecodable(tracker.rank, inst.k)

    system = inst.gen.take_columns(chosen).transpose()
    message = tuple(system.solve([known[i] for i in chosen]))
    codeword = tuple(encode(inst, message))
    if __debug__:
        assert all(codeword[i] == v for i, v in known.items()), "re-encode disagrees with a known symbol"
    return DecodeResult(
        message=message,
        codeword=codeword,
        phase=phase,
        repaired_locally=tuple(sorted(repaired)),
    )
