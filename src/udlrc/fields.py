"""Exact arithmetic in prime fields and their polynomial-basis extensions.

Field contexts own the arithmetic; elements are plain data.  An element of
F_q is an int in [0, q), an element of F_{q^t} is a length-t tuple of ints
holding the coordinates in the polynomial basis (1, alpha, ..., alpha^(t-1)),
constant term first.  Tuples are hashable and double as the coordinate
vectors used for rank computations over the base field.  Everything is
exact: no floats, no tolerances, and comparisons are plain equality.

This module owns the one multiplication of F_(q^t): ExtField.mul and
ExtField.pow, every matrix product and every elimination step (the distance
oracle's clearing step, block split and block keys included), the field's
set-up (x^q, the Frobenius step), the modulus search's Rabin test and the
inverses of ExtField.inv and of every solve, a^-1 = a^(q^t - 2) in a group
of order q^t - 1, run on the packed kernel below, the one reader of its
layout.
Only what divides polynomials stays on coefficient lists: the Rabin test's
gcds and each layout's Barrett constant mu.
A packed row of L elements of F_(q^t) is one Python int: element j owns a
block of bw bits starting at bit j*bw, 2t - 1 slots of W bits padded to
whole bytes (a long row packs by joining those bytes and unpacks by slot
position, see _Packing), and its t coordinates sit in the block's low
slots, constant term first, with the high slots zero.  A prime-field
element is the t = 1 case, one slot per block and nothing to fold.  One
big-int product of a packed element and a packed row multiplies every
element of the row by it as polynomials, each product (degree <= 2t - 2)
filling its own block.  A slotwise Barrett step reduces every slot mod q,
the high slots fold back through x^t mod the modulus (their quotient by the
modulus reduced mod q in turn), and a last Barrett step makes the row
canonical again; ExtField.mul is the one-element row.  The q-power map is
F_q-linear and fixes F_q, so ExtField.frobenius is t small ints times the
packed images alpha^(jq), built once per field, and one canon.

The slot bound: with canonical operands (coordinates <= q - 1), no slot
of any intermediate reaches 2^W, so no slot ever carries into the next.
Since the fold multiplies only slots reduced mod q, the largest slot is one
product's slot times the Barrett constant, which sets W: folding unreduced
slots would need about twice as many bits.  W is derived from (q, t) alone; _Packing
states the largest value of each step and asserts the bound when it builds
a layout.  Layouts are cached per field and row length; the Rabin test
builds one per candidate modulus and caches none.
"""

from __future__ import annotations

import operator
from functools import lru_cache
from itertools import count
from typing import Iterable, Iterator, Sequence

ExtElem = tuple[int, ...]

# Work find_irreducible may spend.  One packed product of polynomials of
# degree < t over F_q is charged (t + 8)^2 (bitlen(q) + 8): the fixed cost
# dominates at small t, and the slots widen with q.  A candidate is charged
# one product for its layout and bitlen(q) products for each Rabin round (a
# power x^(q^d) and a gcd), each charge made before the round runs; most
# candidates stop at the first round.  Measured on an x86 core: GF(11^60)
# costs 106M (0.18 s); GF(7^50), GF(5^40), GF(3^90) and every q <= 23 with
# t <= 16 fit; the slowest refusal found, over q up to 2^81 and t up to
# 1000, is GF(3^180) at about 0.6 s, and GF(13^94) and GF(1000000007^5)
# give up within 0.15 s.
MODULUS_SEARCH_BUDGET = 150_000_000


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
    return t >= 1 and coeffs[-1] % q == 1 and not any(_rabin_rounds(coeffs, q))


def _rabin_rounds(coeffs: Sequence[int], q: int) -> Iterator[bool]:
    """Rabin's test on a monic polynomial f of degree t >= 1, one round at a
    time: round d yields whether gcd(f, x^(q^d) - x) is nontrivial."""
    t = len(coeffs) - 1
    f = [v % q for v in coeffs]
    # The kernel's fold needs only a monic modulus, not an irreducible one,
    # so the powers x^(q^d) mod f run on a packed layout over F_q[x]/(f).
    pk = _Packing(q, f, 1)
    h = 1 << pk.w  # x
    for _ in range(t // 2):
        h = pk.pow(h, q)
        diff = list(pk.unpack_elem(h))
        diff[1] = (diff[1] - 1) % q
        yield len(_poly_gcd(f, diff, q)) > 1


@lru_cache(maxsize=None)
def find_irreducible(q: int, t: int) -> tuple[int, ...]:
    """First monic irreducible of degree t over F_q, low coefficients first.

    Candidates are scanned in increasing order of sum(c_i * q^i), so every
    (q, t) deterministically names one modulus and one field representation.
    Returned as a coefficient tuple of length t + 1 with leading 1.  Each
    candidate and each Rabin round is charged as it runs; raises
    ModulusSearchTooLarge when the charges pass MODULUS_SEARCH_BUDGET
    before an irreducible is found.
    """
    if not is_prime(q):
        raise ValueError(f"base field size must be prime, got {q}")
    if t < 1:
        raise ValueError(f"degree must be >= 1, got {t}")
    product = (t + 8) ** 2 * (q.bit_length() + 8)
    if product * (q.bit_length() + 1) > MODULUS_SEARCH_BUDGET:
        # Not even the first candidate's layout and first round fit.
        raise ModulusSearchTooLarge(q, t)
    spent = 0
    # Every degree has an irreducible among the first q^t candidates.
    for code in count():
        coeffs = []
        c = code
        for _ in range(t):
            coeffs.append(c % q)
            c //= q
        coeffs.append(1)
        spent += product
        rounds = _rabin_rounds(coeffs, q)
        for _ in range(t // 2):
            spent += product * q.bit_length()
            if spent > MODULUS_SEARCH_BUDGET:
                raise ModulusSearchTooLarge(q, t)
            if next(rounds):
                break
        else:
            return tuple(coeffs)


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
        # _packing's cache hashes the field on every lookup.
        self._hash = hash(("ExtField", self.q, t, modulus))
        self.zero: ExtElem = (0,) * t
        self.one: ExtElem = ((1,) + (0,) * (t - 1))
        self.alpha: ExtElem = (-modulus[0] % self.q,) if t == 1 else ((0, 1) + (0,) * (t - 2))
        self._pk = pk = _packing(self, 1)
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
        """a^(q^t - 2), one packed power: the group F_(q^t)* has order q^t - 1."""
        if a == self.zero:
            raise ZeroDivisionError("zero has no multiplicative inverse")
        return self.pow(a, self.q**self.t - 2)

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
        return self._hash

    def __repr__(self) -> str:
        return f"ExtField(q={self.q}, t={self.t})"


# ---------------------------------------------------------------------------
# The packed kernel: every product in F_q and F_{q^t}.

class _Packing:
    """The packed layout of rows of one length over F_q (modulus None, int
    elements) or over F_q[x]/(modulus) for a monic modulus of degree t
    (coordinate tuples), and the product and elimination kernel over it.

    Every block, 2t - 1 slots of W bits, is padded to a whole number of
    bytes (at most 7 bits, W unchanged), step bytes in all.  So a long row
    packs as its elements' blocks joined as bytes, columns moves blocks
    between rows as byte slices, and unpack reads a slot position of a row
    as cb stepped byte slices, cb the bytes a coordinate below q needs: a
    slot is at least cb bytes wide for t >= 2, and the one slot of a t = 1
    block has only padding above it.

    Products need only a monic modulus; reduced_echelon's inverse, a power,
    needs an irreducible one, so every layout that eliminates comes from
    _packing(field, length), and _rabin_rounds' layouts never eliminate.  A
    basis entry is (pivot offset, packed row): the offset is the bit where
    the pivot's block starts, so entries sort by pivot column.  The kernel
    never writes to its inputs.
    """

    def __init__(self, q: int, modulus: Sequence[int] | None, length: int) -> None:
        t = 1 if modulus is None else len(modulus) - 1
        self.q, self.t, self.length = q, t, length
        self.tuples = modulus is not None
        # With q, this names the field, and every layout of one field packs
        # an element alike, so (q, modulus) keys packed rows of any length.
        self.modulus = None if modulus is None else tuple(modulus)
        c = q - 1
        # Largest slot value at each step, every operand canonical (<= c):
        # - A step forms p * row + (q - v) * prow, p the pivot of prow and v
        #   the row's entry under it; a product slot sums at most t terms,
        #   so every slot is at most v1 = t*c*c + t*q*c.  A combine step
        #   adds two products (slots <= t*c*c each) to a canonical
        #   accumulator (slots <= c): at most 2*t*c*c + c, the pair bound,
        #   within v1 since t >= 1.  ExtField.mul forms one product, and
        #   ExtField.frobenius sums t coordinates times images (<= t*c*c).
        # - Folding (t > 1) first reduces every slot mod q.  The quotient of
        #   h * x^t by the modulus, h the high part (slots t..2t-2), is then
        #   the slots t-2.. of h * mu, each <= (t-1)*c*c, and is reduced mod
        #   q too; the quotient times x^t mod the modulus adds at most
        #   (t-1)*c*c to each low slot, at most (t-1)*c*c + c <= v1 in all.
        #   The high slots are masked off.
        # - So no slot reaching a Barrett step exceeds v1 < 2^b.  Barrett
        #   takes it to x - q*((x*m) >> s), which is x mod q exactly because
        #   2^s >= q * 2^b.  Its product x*m is the largest slot of the
        #   kernel, below 2^W.
        # - For t >= 2, W is at least 8*cb: unpack reads cb whole bytes from
        #   each slot's start, which must hold nothing of the next slot.
        # - A block's padding sits above its 2t - 1 slots, where no step
        #   writes, so the bounds do not depend on it.
        # - block_starts adds 2^h - 1 to a sum of t coordinates, below 2^h
        #   for h the bit length of t*c: bit h is set in the slot if h < W.
        v1 = t * c * c + t * q * c
        b = v1.bit_length()
        s = b + q.bit_length()
        m = (1 << s) // q + 1
        self.cb = cb = -(-c.bit_length() // 8)
        w = max((v1 * m).bit_length(), 8 * cb if t > 1 else 0)
        assert 2 * t * c * c + c <= v1 and (t - 1) * c * c + c <= v1
        assert q << b <= 1 << s and v1 * m < 1 << w and (t == 1 or w >= 8 * cb) and (t * c).bit_length() < w
        self.s, self.m = s, m
        self.step = -(-(2 * t - 1) * w // 8)
        self.bw = bw = 8 * self.step
        # A 1 at the low bit of every block: the geometric sum of 2^(j * bw).
        self.units = units = ((1 << (length * bw)) - 1) // ((1 << bw) - 1)
        self.w, self.slot = w, (1 << w) - 1
        self.shifts = tuple(range(0, t * w, w))
        self.elem = (1 << (t * w)) - 1
        self.low = self.elem * units
        # The Barrett quotient's bits in every one of the 2t - 1 slots.
        self.quot = sum(((1 << (w - s)) - 1) << i for i in range(0, (2 * t - 1) * w, w)) * units
        self.negq = sum(q << i for i in self.shifts)
        if t > 1:
            # Polynomial Barrett: with mu = x^(2t-2) div the modulus and
            # deg h <= t-2, (h * mu) div x^(t-2) is exactly the quotient of
            # h * x^t by the modulus, and the remainder is minus that
            # quotient times the modulus's low part, i.e. times x^t mod it.
            # Each slot stays congruent mod q to its value over F_q, so
            # reducing slots mod q in between changes nothing mod q.
            self.hi_shift, self.quo_shift = t * w, (t - 2) * w
            self.high = ((1 << ((t - 1) * w)) - 1) * units
            self.mu = self.pack_elem(_poly_divmod([0] * (2 * t - 2) + [1], modulus, q)[0])
            self.red = self.pack_elem([-v for v in modulus[:t]])

    def canon(self, x: int) -> int:
        """x with every block folded and every slot reduced mod q."""
        if self.t > 1:
            m, s, quot, q = self.m, self.s, self.quot, self.q
            x -= ((x * m >> s) & quot) * q
            h = ((((x >> self.hi_shift) & self.high) * self.mu) >> self.quo_shift) & self.high
            h -= ((h * m >> s) & quot) * q
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

    def combine(self, weights: Iterable[int], packed_rows: Iterable[int]) -> int:
        """The packed sum of the packed rows weighted by the packed elements.

        The products are added two at a time to the canonical accumulator,
        one canon per pair and one for an odd last term: the slot bound
        holds a canonical accumulator plus two products (see __init__)."""
        canon, acc = self.canon, 0
        products = map(operator.mul, weights, packed_rows)
        for product in products:
            acc = canon(acc + product + next(products, 0))
        return acc

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
        """Element j of the row in block j.  Each shift copies the int built
        so far, so a row of more than 64 elements is packed as the step
        bytes of each element's block, joined and read as one int."""
        bw, x, q = self.bw, 0, self.q
        if len(row) > 64:
            step = self.step
            elems = map(self.pack_elem, row) if self.tuples else [e % q for e in row]
            return int.from_bytes(b"".join([e.to_bytes(step, "little") for e in elems]), "little")
        if self.tuples:
            pack_elem = self.pack_elem
            for e in reversed(row):
                x = (x << bw) | pack_elem(e)
        else:
            for e in reversed(row):
                x = (x << bw) | (e % q)
        return x

    def columns(self, rows: Sequence[int], picks: Iterable[int]) -> list[int]:
        """Column c of the stacked canonical rows for each c in picks, as a
        packed row: its block j is block c of rows[j].  Every layout of one
        field has this block width, so the rows may be of any length."""
        step, picks = self.step, list(picks)
        size = (max(picks, default=-1) + 1) * step
        data = [row.to_bytes(max(size, -(-row.bit_length() // 8)), "little") for row in rows]
        return [int.from_bytes(b"".join([d[c * step : c * step + step] for d in data]), "little") for c in picks]

    def unpack(self, x: int) -> list:
        """The elements of the canonical row x.

        Slot position i of every element is read at once: x >> i*W in
        little-endian bytes holds coordinate i of element j in the cb bytes
        from byte j*bw/8, so one to_bytes and cb stepped slices per position
        give t columns, zipped into the elements."""
        columns, size, step = [], self.length * self.step, self.step
        for i in self.shifts:
            data = (x >> i).to_bytes(size, "little")
            column = data[::step]
            for b in range(1, self.cb):
                column = [v | u << 8 * b for v, u in zip(column, data[b::step])]
            columns.append(column)
        return list(zip(*columns)) if self.tuples else list(columns[0])

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

    def clearing(self):
        """clear(rows, prow): the rows with the column of prow's first nonzero
        block cleared by reduce's step, each row already zero there kept as
        it is.  The layout is read once here, not at every step."""
        elem, negq, canon, bw = self.elem, self.negq, self.canon, self.bw

        def clear(rows: Sequence[int], prow: int) -> list[int]:
            low = (prow & -prow).bit_length() - 1
            off = low - low % bw
            p = (prow >> off) & elem
            return [canon(p * x + (negq - v) * prow) if (v := (x >> off) & elem) else x for x in rows]

        return clear

    def block_starts(self, rows: Sequence[int]) -> list[int]:
        """The indices j, 0 and len(rows) included, at which no row before j
        is nonzero in a column where a row from j on is.

        A canonical element is nonzero exactly when the sum of its t slots is;
        one product spreads that sum into the element's slot t - 1, and adding
        2^h - 1 to it (every sum is below 2^h, and h < W) sets its bit h exactly
        when it is nonzero, so a row's support is one such bit per element.
        """
        t, w, n = self.t, self.w, len(rows)
        h = (t * (self.q - 1)).bit_length()
        units, spread = self.units, sum(1 << (j * w) for j in range(t))
        slots, ones, top = self.slot * units, ((1 << h) - 1) * units, units << h
        supports = [((((x * spread) >> ((t - 1) * w)) & slots) + ones) & top for x in rows]
        after = [0] * (n + 1)
        for j in range(n - 1, -1, -1):
            after[j] = after[j + 1] | supports[j]
        starts, before = [], 0
        for j in range(n + 1):
            if not before & after[j]:
                starts.append(j)
            if j < n:
                before |= supports[j]
        return starts

    def shifted(self, rows: Iterable[int], offset: int) -> list[int]:
        """The rows moved up by offset columns, as if packed after offset zeros."""
        return [x << offset * self.bw for x in rows]

    def lowered(self, rows: Sequence[int]) -> tuple[int, ...]:
        """The rows shifted down by the columns below their lowest nonzero
        one, so rows that differ only in the offset of their columns give
        the same tuple."""
        support = 0
        for x in rows:
            support |= x
        low = (support & -support).bit_length() - 1
        off = max(0, low - low % self.bw)
        return tuple([x >> off for x in rows])

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
        first width columns, sorted by pivot column, zero rows dropped.

        The pivots are inverted together with one packed power (Montgomery's
        trick): prefix products of the pivots, their product's inverse as its
        (q^t - 2)-th power, and a walk back peeling one pivot off it per row.
        """
        canon, elem = self.canon, self.elem
        basis = self.reduced(rows, width)
        pivots = [(row >> off) & elem for off, row in basis]
        prefix = [1]  # the packed one: prefix[i] is the product of pivots[:i]
        for pivot in pivots:
            prefix.append(canon(prefix[-1] * pivot))
        inv = self.pow(prefix.pop(), self.q**self.t - 2)
        out = [0] * len(basis)
        for i in range(len(basis) - 1, -1, -1):
            # inv is the inverse of pivots[0] * ... * pivots[i].
            out[i] = canon(canon(inv * prefix[i]) * basis[i][1])
            inv = canon(inv * pivots[i])
        return out


@lru_cache(maxsize=256)
def _packing(field, length: int) -> _Packing:
    return _Packing(field.q, getattr(field, "modulus", None), length)
