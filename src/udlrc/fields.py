"""Exact arithmetic in prime fields and their polynomial-basis extensions.

Field contexts own the arithmetic; elements are plain data.  An element of
F_q is an int in [0, q), an element of F_{q^t} is a length-t tuple of ints
holding the coordinates in the polynomial basis (1, alpha, ..., alpha^(t-1)),
constant term first.  Tuples are hashable and double as the coordinate
vectors used for rank computations over the base field.  Everything is
exact: no floats, no tolerances, and comparisons are plain equality.

This module owns the one multiplication of F_(q^t): ExtField.mul and
ExtField.pow, every matrix product and every elimination step, the field's
set-up (x^q, the Frobenius step) and the modulus search's Rabin test run on
the packed kernel below.  Only the test's gcds stay on coefficient lists,
since the kernel cannot divide.
A packed row of L elements of F_(q^t) is one Python int: element j owns a
block of 2t - 1 slots of W bits starting at bit j(2t - 1)W, and its t
coordinates sit in the block's low slots, constant term first, with the
high slots zero.  A prime-field element is the t = 1 case, one slot per
block and nothing to fold.  One big-int product of a packed element and a
packed row multiplies every element of the row by it as polynomials, each
product (degree <= 2t - 2) filling its own block.  Folding the high slots
back through x^t mod the modulus and one slotwise Barrett step mod q make
the row canonical again; ExtField.mul is the one-element row.  The q-power
map is F_q-linear and fixes F_q, so ExtField.frobenius is t small ints times
the packed images alpha^(jq), built once per field, and one canon (repeated
squaring took about log2(q) + popcount(q) products).

The slot bound: with canonical operands (coordinates <= q - 1), no slot
of any intermediate reaches 2^W, so no slot ever carries into the next.
W is derived from (q, t) alone; _Packing states the largest value of each
step and asserts the bound when it builds a layout.  Layouts are cached
per field and row length; the Rabin test builds one per candidate modulus
and caches none.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

ExtElem = tuple[int, ...]

# Work find_irreducible may spend, in coefficient products.  A Rabin test
# of a degree-t candidate runs up to t // 2 powers x^(q^d), each about
# bitlen(q) polynomial products, charged (t + 8)^2 each (t^2 plus a fixed
# cost that dominates at small t) before the test runs.  A refused search
# gives up within about 0.15 s on an x86 core (the slowest refusal found,
# GF(10007^3), takes 0.09-0.13 s); every q <= 23 with t <= 16 fits
# (GF(23^12) costs 2,556,000 units, GF(5^10) 165,240).
MODULUS_SEARCH_BUDGET = 4_000_000


class ModulusSearchTooLarge(ValueError):
    """No irreducible modulus among the candidates the search budget pays for."""

    def __init__(self, q: int, t: int) -> None:
        super().__init__(
            f"no irreducible of degree {t} over GF({q}) within the modulus "
            f"search budget of {MODULUS_SEARCH_BUDGET} coefficient products"
        )
        self.q, self.t = q, t


# Miller-Rabin to the first 13 prime bases decides every n below
# PRIME_CHECK_LIMIT exactly (Sorenson and Webster, 2015).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_CHECK_LIMIT = 3_317_044_064_679_887_385_961_981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin; raises ValueError from PRIME_CHECK_LIMIT up."""
    if n >= PRIME_CHECK_LIMIT:
        raise ValueError(f"cannot decide whether {n} is prime: it is not below {PRIME_CHECK_LIMIT}")
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1
    d = (n - 1) >> s
    return all(pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(s)) for a in _PRIME_BASES)


class PrimeField:
    """The field of integers modulo a prime q."""

    def __init__(self, q: int) -> None:
        if not is_prime(q):
            raise ValueError(f"field size must be prime, got {q}")
        self.q = q
        self.zero = 0
        self.one = 1

    def element(self, value: int) -> int:
        return value % self.q

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.q

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.q

    def neg(self, a: int) -> int:
        return -a % self.q

    def mul(self, a: int, b: int) -> int:
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a % self.q == 0:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return pow(a, -1, self.q)

    def div(self, a: int, b: int) -> int:
        return self.mul(a, self.inv(b))

    def elements(self) -> Iterator[int]:
        return iter(range(self.q))

    def random_element(self, rng) -> int:
        return rng.randrange(self.q)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.q == self.q

    def __hash__(self) -> int:
        return hash(("PrimeField", self.q))

    def __repr__(self) -> str:
        return f"PrimeField({self.q})"


# ---------------------------------------------------------------------------
# Polynomial helpers over F_q.  Coefficient lists, index = degree.

def _poly_trim(c: list[int]) -> list[int]:
    while len(c) > 1 and c[-1] == 0:
        c.pop()
    return c


def _poly_divmod(a: Sequence[int], m: Sequence[int], q: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic polynomial m."""
    a = [v % q for v in a]
    dm = len(m) - 1
    quo = [0] * max(1, len(a) - dm)
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            quo[i - dm] = c
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % q
    del a[dm:]
    return quo, _poly_trim(a or [0])


def _poly_gcd(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    a = _poly_trim([v % q for v in a])
    b = _poly_trim([v % q for v in b])
    while b != [0]:
        inv = pow(b[-1], -1, q)
        monic_b = [(v * inv) % q for v in b]
        a, b = b, _poly_divmod(a, monic_b, q)[1]
    return a


def _is_irreducible(coeffs: Sequence[int], q: int) -> bool:
    """Monic-polynomial irreducibility over F_q (Rabin's test).

    A reducible polynomial of degree t has an irreducible factor of degree
    d <= t/2, and x^(q^d) - x is the product of all irreducibles of degree
    dividing d, so it suffices to check gcds against x^(q^d) - x for d up
    to t/2; d = 1 catches every root.
    """
    t = len(coeffs) - 1
    if t < 1 or coeffs[-1] % q != 1:
        return False
    f = [v % q for v in coeffs]
    # The kernel's fold needs only a monic modulus, not an irreducible one,
    # so the powers x^(q^d) mod f run on a packed layout over F_q[x]/(f).
    pk = _Packing(q, f, 1)
    h = 1 << pk.w  # x
    for _ in range(t // 2):
        h = pk.pow(h, q)
        diff = list(pk.unpack_elem(h))
        diff[1] = (diff[1] - 1) % q
        if len(_poly_gcd(f, diff, q)) > 1:
            return False
    return True


@lru_cache(maxsize=None)
def find_irreducible(q: int, t: int) -> tuple[int, ...]:
    """First monic irreducible of degree t over F_q, low coefficients first.

    Candidates are scanned in increasing order of sum(c_i * q^i), so every
    (q, t) deterministically names one modulus and one field representation.
    Returned as a coefficient tuple of length t + 1 with leading 1.  Raises
    ModulusSearchTooLarge when the candidates MODULUS_SEARCH_BUDGET pays
    for are all reducible.
    """
    if not is_prime(q):
        raise ValueError(f"base field size must be prime, got {q}")
    if t < 1:
        raise ValueError(f"degree must be >= 1, got {t}")
    cost = max(1, t // 2) * (t + 8) ** 2 * q.bit_length()
    for code in range(MODULUS_SEARCH_BUDGET // cost):
        coeffs = []
        c = code
        for _ in range(t):
            coeffs.append(c % q)
            c //= q
        coeffs.append(1)
        if _is_irreducible(coeffs, q):
            return tuple(coeffs)
    # Every degree has an irreducible among the first q^t candidates.
    raise ModulusSearchTooLarge(q, t)


class ExtField:
    """F_{q^t} as polynomials over a prime field modulo a monic irreducible.

    Elements are length-t coordinate tuples.  The default modulus is the
    deterministic one from find_irreducible, so coordinates are reproducible
    across runs and machines.
    """

    def __init__(self, base: PrimeField, t: int, modulus: Sequence[int] | None = None) -> None:
        if t < 1:
            raise ValueError(f"extension degree must be >= 1, got {t}")
        self.base = base
        self.q = base.q
        self.t = t
        if modulus is None:
            modulus = find_irreducible(self.q, t)
        else:
            modulus = tuple(v % self.q for v in modulus)
            if len(modulus) != t + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree t")
            if not _is_irreducible(modulus, self.q):
                raise ValueError("modulus is reducible over the base field")
        self.modulus = modulus
        self.zero: ExtElem = (0,) * t
        self.one: ExtElem = ((1,) + (0,) * (t - 1))
        self.alpha: ExtElem = (-modulus[0] % self.q,) if t == 1 else ((0, 1) + (0,) * (t - 2))
        self._pk = pk = _Packing(self.q, modulus, 1, self)
        step = pk.pow(pk.pack_elem(self.alpha), self.q)
        self._frob = [pk.pack_elem(self.one)]  # alpha^(iq) for i < t, packed
        for _ in range(t - 1):
            self._frob.append(pk.canon(self._frob[-1] * step))

    def element(self, coords: Sequence[int]) -> ExtElem:
        if len(coords) != self.t:
            raise ValueError(f"element needs {self.t} coordinates, got {len(coords)}")
        return tuple(v % self.q for v in coords)

    def embed(self, c: int) -> ExtElem:
        """The base-field scalar c as an extension element."""
        return ((c % self.q,) + (0,) * (self.t - 1))

    def add(self, a: ExtElem, b: ExtElem) -> ExtElem:
        q = self.q
        return tuple((x + y) % q for x, y in zip(a, b))

    def sub(self, a: ExtElem, b: ExtElem) -> ExtElem:
        q = self.q
        return tuple((x - y) % q for x, y in zip(a, b))

    def neg(self, a: ExtElem) -> ExtElem:
        q = self.q
        return tuple(-x % q for x in a)

    def scale(self, c: int, a: ExtElem) -> ExtElem:
        """Multiply by a base-field scalar, coordinate by coordinate."""
        q = self.q
        c %= q
        return tuple((c * x) % q for x in a)

    def mul(self, a: ExtElem, b: ExtElem) -> ExtElem:
        pk = self._pk
        return pk.unpack_elem(pk.canon(pk.pack_elem(a) * pk.pack_elem(b)))

    def pow(self, a: ExtElem, e: int) -> ExtElem:
        if e < 0:
            raise ValueError("negative exponents not supported; use inv")
        pk = self._pk
        return pk.unpack_elem(pk.pow(pk.pack_elem(a), e))

    def inv(self, a: ExtElem) -> ExtElem:
        """Inverse by the extended Euclidean algorithm over F_q[x].

        Two remainders r0 = s0 * a and r1 = s1 * a (mod the modulus) start
        as (modulus, 0) and (a, 1).  Each step cancels the leading term of
        r0 with a monomial multiple of r1, swapping the pair when r0 drops
        below r1 in degree.  The modulus is irreducible, so r1 ends as a
        nonzero constant c and a^-1 = s1 / c.  Every s stays below degree t.
        """
        if a == self.zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        q, t = self.q, self.t
        r0, s0, d0 = list(self.modulus), [0] * t, t
        r1, s1, d1 = list(a), [1] + [0] * (t - 1), t - 1
        while r1[d1] == 0:
            d1 -= 1
        lead = pow(r1[d1], -1, q)
        while d1:
            shift = d0 - d1
            c = r0[d0] * lead % q
            # The leading term cancels; entries above a degree are never read.
            for i in range(d1):
                r0[i + shift] = (r0[i + shift] - c * r1[i]) % q
            for i in range(t - shift):
                s0[i + shift] = (s0[i + shift] - c * s1[i]) % q
            d0 -= 1
            while r0[d0] == 0:
                d0 -= 1
            if d0 < d1:
                r0, s0, d0, r1, s1, d1 = r1, s1, d1, r0, s0, d0
                lead = pow(r1[d1], -1, q)
        lead = pow(r1[0], -1, q)
        return tuple(v * lead % q for v in s1)

    def div(self, a: ExtElem, b: ExtElem) -> ExtElem:
        return self.mul(a, self.inv(b))

    def frobenius(self, a: ExtElem, i: int = 1) -> ExtElem:
        """a^(q^i): the q-power map a -> sum_j a_j alpha^(jq), t small-int
        products with the packed images and one canon, applied i mod t times
        (its t-th power is the identity)."""
        if i < 0:
            raise ValueError("frobenius exponent must be >= 0")
        pk, images = self._pk, self._frob
        for _ in range(i % self.t):
            a = pk.unpack_elem(pk.canon(sum(map(operator.mul, a, images))))
        return a

    def elements(self) -> Iterator[ExtElem]:
        """All q^t elements, deterministic order. Only for tiny fields."""
        from itertools import product

        for coords in product(range(self.q), repeat=self.t):
            yield coords

    def random_element(self, rng) -> ExtElem:
        return tuple(rng.randrange(self.q) for _ in range(self.t))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ExtField)
            and other.q == self.q
            and other.t == self.t
            and other.modulus == self.modulus
        )

    def __hash__(self) -> int:
        return hash(("ExtField", self.q, self.t, self.modulus))

    def __repr__(self) -> str:
        return f"ExtField(q={self.q}, t={self.t})"


# ---------------------------------------------------------------------------
# The packed kernel: every product in F_q and F_{q^t}.

class _Packing:
    """The packed layout of rows of one length over F_q (modulus None, int
    elements) or over F_q[x]/(modulus) for a monic modulus of degree t
    (coordinate tuples), and the product and elimination kernel over it.

    field is the field context whose inverse reduced_echelon takes; the
    products need none.  A basis entry is (pivot offset, packed row): the
    offset is the bit where the pivot's block starts, so entries sort by
    pivot column.  The kernel never writes to its inputs.
    """

    def __init__(self, q: int, modulus: Sequence[int] | None, length: int, field=None) -> None:
        t = 1 if modulus is None else len(modulus) - 1
        self.field, self.q, self.t, self.length = field, q, t, length
        self.tuples = modulus is not None
        c = q - 1
        # Largest slot value at each step, every operand canonical (<= c):
        # - A step forms p * row + (q - v) * prow, p the pivot of prow and v
        #   the row's entry under it; a product slot sums at most t terms,
        #   so every slot is at most v1 = t*c*c + t*q*c.  A product step
        #   (ExtField.mul, Matrix.left_multiply) adds one product (slots <=
        #   t*c*c) to a canonical accumulator (slots <= c), within v1 too, and
        #   ExtField.frobenius sums t coordinates times images (<= t*c*c).
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
            self.mu = self.pack_elem(_poly_divmod([0] * (2 * t - 2) + [1], modulus, q)[0])
            self.red = self.pack_elem([-v for v in modulus[:t]])

    def canon(self, x: int) -> int:
        """x with every block folded and every slot reduced mod q."""
        if self.t > 1:
            h = (x >> self.hi_shift) & self.high
            h = ((h * self.mu) >> self.quo_shift) & self.high
            x = (x & self.low) + (h * self.red & self.low)
        return x - ((x * self.m >> self.s) & self.quot) * self.q

    def pow(self, x: int, e: int) -> int:
        """x^e for one packed element x and e >= 0, by square-and-multiply."""
        result = 1
        while e:
            if e & 1:
                result = self.canon(result * x)
            x = self.canon(x * x)
            e >>= 1
        return result

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
        return tuple([(x >> i) & slot for i in self.shifts])

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


@lru_cache(maxsize=256)
def _packing(field, length: int) -> _Packing:
    return _Packing(field.q, getattr(field, "modulus", None), length, field)
