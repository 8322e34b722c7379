from itertools import combinations, product

import pytest

from udlrc import (
    EvaluationPoints,
    ExtField,
    LinearizedPoly,
    MessageTooLong,
    PrimeField,
    RankDeficientPoints,
    TooManyPoints,
    base_rank,
    default_points,
    gabidulin_encode,
    interpolate,
    lin_eval,
    moore_matrix,
)
from conftest import ref_mul

F8 = ExtField(PrimeField(2), 3)
F55 = ExtField(PrimeField(5), 5)


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


def test_default_points():
    assert list(default_points(F55, 1)) == [F55.one]
    full = default_points(F55, 5)
    assert base_rank(F55, list(full)) == 5
    for n in range(1, 6):
        assert base_rank(F55, list(default_points(F55, n))) == n
    with pytest.raises(TooManyPoints):
        default_points(F55, 6)
    # In the polynomial basis alpha^i, i < t, is the unit vector e_i, so the
    # points equal the powers of alpha taken by products.
    fields = [F55, ExtField(PrimeField(7), 9), ExtField(PrimeField(7), 1), ExtField(PrimeField(3), 3, (1, 0, 2, 1))]
    for f in fields:
        powers = [f.one]
        for _ in range(f.t - 1):
            powers.append(ref_mul(f, powers[-1], f.alpha))
        assert list(default_points(f, f.t)) == powers


def test_evaluation_points_reject_dependence():
    a = F8.alpha
    with pytest.raises(RankDeficientPoints):
        EvaluationPoints(F8, (a, a))


def test_encode_zero_message_and_single_symbol(rng):
    pts = default_points(F55, 4)
    assert gabidulin_encode([F55.zero] * 3, pts) == [F55.zero] * 4
    m = F55.random_element(rng)
    one_point = EvaluationPoints(F55, (F55.one,))
    assert gabidulin_encode([m], one_point) == [m]
    with pytest.raises(MessageTooLong):
        gabidulin_encode([F55.zero] * 5, pts)


def test_interpolate_known_gf8_system():
    # evaluate coeffs (alpha, 1) at {1, alpha}, then solve back
    a = F8.alpha
    f = LinearizedPoly(F8, (a, F8.one))
    pairs = [(F8.one, lin_eval(f, F8.one)), (a, lin_eval(f, a))]
    assert interpolate(F8, pairs).coeffs == (a, F8.one)


def test_interpolate_rejects_dependent_points():
    a = F8.alpha
    with pytest.raises(RankDeficientPoints):
        interpolate(F8, [(a, F8.one), (a, F8.zero)])
    f25 = ExtField(PrimeField(5), 2)
    x = (1, 2)
    with pytest.raises(RankDeficientPoints):
        interpolate(f25, [(x, f25.one), (f25.scale(2, x), f25.zero)])


def test_round_trip_any_k_coordinates(rng):
    pts = default_points(F55, 5)
    for _ in range(10):
        message = [F55.random_element(rng) for _ in range(3)]
        codeword = gabidulin_encode(message, pts)
        for subset in combinations(range(5), 3):
            pairs = [(pts[i], codeword[i]) for i in subset]
            assert interpolate(F55, pairs).coeffs == tuple(message)


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
    pts = default_points(F55, 4)
    for _ in range(20):
        m1 = [F55.random_element(rng) for _ in range(4)]
        m2 = [F55.random_element(rng) for _ in range(4)]
        c = F55.random_element(rng)
        mixed = [F55.add(a, F55.mul(c, b)) for a, b in zip(m1, m2)]
        lhs = gabidulin_encode(mixed, pts)
        c1 = gabidulin_encode(m1, pts)
        c2 = gabidulin_encode(m2, pts)
        rhs = [F55.add(a, F55.mul(c, b)) for a, b in zip(c1, c2)]
        assert lhs == rhs


def test_erasure_property_random_messages(rng):
    # any k symbols of the codeword suffice: interpolation returns the message
    pts = default_points(F55, 5)
    k = 4
    for _ in range(5):
        message = [F55.random_element(rng) for _ in range(k)]
        codeword = gabidulin_encode(message, pts)
        for subset in combinations(range(5), k):
            pairs = [(pts[i], codeword[i]) for i in subset]
            assert interpolate(F55, pairs).coeffs == tuple(message)
