"""Exact arithmetic in prime fields and their polynomial-basis extensions.

Field contexts own the arithmetic; elements are plain data.  An element of
F_q is an int in [0, q), an element of F_{q^t} is a length-t tuple of ints
holding the coordinates in the polynomial basis (1, alpha, ..., alpha^(t-1)),
constant term first.  Tuples are hashable and double as the coordinate
vectors used for rank computations over the base field.  Everything is
exact: no floats, no tolerances, and comparisons are plain equality.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

ExtElem = tuple[int, ...]

# Work find_irreducible may spend, in coefficient products.  A Rabin test
# of a degree-t candidate runs up to t // 2 powers x^(q^d), each about
# bitlen(q) polynomial products, charged (t + 8)^2 each (t^2 plus a fixed
# cost that dominates at small t) before the test runs.  A refused search
# gives up within about 0.3 s on an x86 core; every q <= 23 with t <= 16
# fits (GF(23^12) costs 2,556,000 units, GF(5^10) 165,240).
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


def _poly_mod(a: Sequence[int], m: Sequence[int], q: int) -> list[int]:
    """Remainder of a modulo the monic polynomial m."""
    a = [v % q for v in a]
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i]
        if c:
            for j in range(dm + 1):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % q
    del a[dm:]
    return _poly_trim(a or [0])


def _poly_mulmod(a: Sequence[int], b: Sequence[int], m: Sequence[int], q: int) -> list[int]:
    res = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
    return _poly_mod(res, m, q)


def _poly_powmod(base: Sequence[int], e: int, m: Sequence[int], q: int) -> list[int]:
    result = [1]
    acc = _poly_mod(list(base), m, q)
    while e:
        if e & 1:
            result = _poly_mulmod(result, acc, m, q)
        acc = _poly_mulmod(acc, acc, m, q)
        e >>= 1
    return result


def _poly_gcd(a: Sequence[int], b: Sequence[int], q: int) -> list[int]:
    a = _poly_trim([v % q for v in a])
    b = _poly_trim([v % q for v in b])
    while b != [0]:
        inv = pow(b[-1], -1, q)
        monic_b = [(v * inv) % q for v in b]
        a, b = b, _poly_mod(a, monic_b, q)
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
    h: Sequence[int] = [0, 1]
    for _ in range(t // 2):
        h = _poly_powmod(h, q, f, q)
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % q
        if len(_poly_trim(_poly_gcd(f, diff, q))) > 1:
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
        modulus = tuple(v % self.q for v in modulus)
        if len(modulus) != t + 1 or modulus[-1] != 1:
            raise ValueError("modulus must be monic of degree t")
        if not _is_irreducible(modulus, self.q):
            raise ValueError("modulus is reducible over the base field")
        self.modulus = modulus
        self.zero: ExtElem = (0,) * t
        self.one: ExtElem = ((1,) + (0,) * (t - 1))
        # x^(t+j) mod modulus for j = 0..t-2: the reduction rows used by mul.
        x_to_t = tuple(-modulus[i] % self.q for i in range(t))
        red = [x_to_t]
        for _ in range(t - 2):
            prev = red[-1]
            carry = prev[-1]
            shifted = [0] + list(prev[:-1])
            if carry:
                shifted = [(s + carry * f) % self.q for s, f in zip(shifted, x_to_t)]
            red.append(tuple(v % self.q for v in shifted))
        self._red = red
        self.alpha: ExtElem = x_to_t if t == 1 else ((0, 1) + (0,) * (t - 2))

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
        t = self.t
        q = self.q
        if t == 1:
            return ((a[0] * b[0]) % q,)
        conv = [0] * (2 * t - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    conv[i + j] += ai * bj
        for idx in range(2 * t - 2, t - 1, -1):
            c = conv[idx] % q
            if c:
                red = self._red[idx - t]
                for i in range(t):
                    conv[i] += c * red[i]
        return tuple(v % q for v in conv[:t])

    def pow(self, a: ExtElem, e: int) -> ExtElem:
        if e < 0:
            raise ValueError("negative exponents not supported; use inv")
        result = self.one
        acc = a
        while e:
            if e & 1:
                result = self.mul(result, acc)
            acc = self.mul(acc, acc)
            e >>= 1
        return result

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
        """a^(q^i), by i applications of the q-power map."""
        if i < 0:
            raise ValueError("frobenius exponent must be >= 0")
        for _ in range(i):
            a = self.pow(a, self.q)
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
