from itertools import combinations, product

import pytest

from udlrc import ExtField, LinearizedPoly, PrimeField, base_rank, lin_eval, moore_matrix
from conftest import RankDeficientPoints, counting_method, ref_frobenius, ref_interpolate, ref_mul

F8 = ExtField(PrimeField(2), 3)
F55 = ExtField(PrimeField(5), 5)

# The unit vectors e_0, ..., e_4 of GF(5^5): a built code's precode points.
UNITS = [tuple(int(i == j) for j in range(5)) for i in range(5)]


def precode(message, n):
    """The message's q-power polynomial at the first n unit vectors."""
    f = LinearizedPoly(F55, tuple(message))
    return [lin_eval(f, y) for y in UNITS[:n]]


def test_lin_eval_at_zero_and_identity(rng):
    f = LinearizedPoly(F55, tuple(F55.random_element(rng) for _ in range(3)))
    assert lin_eval(f, F55.zero) == F55.zero
    ident = LinearizedPoly(F55, (F55.one,))
    x = F55.random_element(rng)
    assert lin_eval(ident, x) == x


def test_lin_eval_known_values_gf8():
    # f(x) = alpha*x + x^2 over GF(8): f(1) = alpha + 1, f(alpha) = 2*alpha^2 = 0
    a = F8.alpha
    f = LinearizedPoly(F8, (a, F8.one))
    assert lin_eval(f, F8.one) == (1, 1, 0)
    assert lin_eval(f, a) == F8.zero


def test_evaluation_map_is_base_linear(rng):
    f = LinearizedPoly(F55, tuple(F55.random_element(rng) for _ in range(4)))
    for _ in range(100):
        a = rng.randrange(5)
        b = rng.randrange(5)
        x = F55.random_element(rng)
        y = F55.random_element(rng)
        lhs = lin_eval(f, F55.add(F55.scale(a, x), F55.scale(b, y)))
        rhs = F55.add(F55.scale(a, lin_eval(f, x)), F55.scale(b, lin_eval(f, y)))
        assert lhs == rhs


def test_lin_eval_takes_one_frobenius_per_coefficient_after_the_first(monkeypatch, rng):
    calls = counting_method(monkeypatch, ExtField, "frobenius")
    for k in range(1, 6):
        f = LinearizedPoly(F55, tuple(F55.random_element(rng) for _ in range(k)))
        x = F55.random_element(rng)
        calls.clear()
        value = lin_eval(f, x)
        assert len(calls) == k - 1
        terms = [ref_mul(F55, a, ref_frobenius(F55, x, i)) for i, a in enumerate(f.coeffs)]
        assert value == tuple(sum(column) % 5 for column in zip(*terms))


def test_unit_vectors_are_the_powers_of_alpha():
    # In the polynomial basis alpha^i, i < t, is the unit vector e_i, so a
    # built code's precode points equal the powers of alpha taken by products.
    fields = [F55, ExtField(PrimeField(7), 9), ExtField(PrimeField(7), 1), ExtField(PrimeField(3), 3, (1, 0, 2, 1))]
    for f in fields:
        powers = [f.one]
        for _ in range(f.t - 1):
            powers.append(ref_mul(f, powers[-1], f.alpha))
        assert powers == [tuple(int(i == j) for j in range(f.t)) for i in range(f.t)]


def test_encode_zero_message_and_single_symbol(rng):
    assert precode([F55.zero] * 3, 4) == [F55.zero] * 4
    m = F55.random_element(rng)
    assert precode([m], 1) == [m]


def test_interpolate_known_gf8_system():
    # evaluate coeffs (alpha, 1) at {1, alpha}, then solve back
    a = F8.alpha
    f = LinearizedPoly(F8, (a, F8.one))
    pairs = [(F8.one, lin_eval(f, F8.one)), (a, lin_eval(f, a))]
    assert ref_interpolate(F8, pairs).coeffs == (a, F8.one)


def test_interpolate_rejects_dependent_points():
    a = F8.alpha
    with pytest.raises(RankDeficientPoints):
        ref_interpolate(F8, [(a, F8.one), (a, F8.zero)])
    f25 = ExtField(PrimeField(5), 2)
    x = (1, 2)
    with pytest.raises(RankDeficientPoints):
        ref_interpolate(f25, [(x, f25.one), (f25.scale(2, x), f25.zero)])


def test_round_trip_any_k_coordinates(rng):
    for _ in range(10):
        message = [F55.random_element(rng) for _ in range(3)]
        codeword = precode(message, 5)
        for subset in combinations(range(5), 3):
            pairs = [(UNITS[i], codeword[i]) for i in subset]
            assert ref_interpolate(F55, pairs).coeffs == tuple(message)


def test_moore_invertibility_iff_point_independence():
    # Exhaustive: over small binary extensions, the interpolation system is
    # solvable exactly when the points are independent over the base field.
    for t, k in [(2, 2), (3, 2), (3, 3), (4, 3)]:
        field = ExtField(PrimeField(2), t)
        count_checked = 0
        for points in product(field.elements(), repeat=k):
            rank = base_rank(field, points)
            moore_rank = moore_matrix(field, points, k).rank()
            assert (moore_rank == k) == (rank == k), (t, k, points)
            count_checked += 1
        assert count_checked == (2**t) ** k


def test_encode_is_linear_in_the_message(rng):
    for _ in range(20):
        m1 = [F55.random_element(rng) for _ in range(4)]
        m2 = [F55.random_element(rng) for _ in range(4)]
        c = F55.random_element(rng)
        mixed = [F55.add(a, F55.mul(c, b)) for a, b in zip(m1, m2)]
        lhs = precode(mixed, 4)
        c1 = precode(m1, 4)
        c2 = precode(m2, 4)
        rhs = [F55.add(a, F55.mul(c, b)) for a, b in zip(c1, c2)]
        assert lhs == rhs


def test_erasure_property_random_messages(rng):
    # any k symbols of the codeword suffice: interpolation returns the message
    k = 4
    for _ in range(5):
        message = [F55.random_element(rng) for _ in range(k)]
        codeword = precode(message, 5)
        for subset in combinations(range(5), k):
            pairs = [(UNITS[i], codeword[i]) for i in subset]
            assert ref_interpolate(F55, pairs).coeffs == tuple(message)
