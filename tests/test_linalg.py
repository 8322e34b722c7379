import pytest

from udlrc import ExtField, Matrix, PrimeField, RankTracker, SingularMatrix, base_rank, mds_local_generator

F5 = PrimeField(5)
F8 = ExtField(PrimeField(2), 3)


def random_matrix(field, rows, cols, rng):
    return Matrix(field, [[field.random_element(rng) for _ in range(cols)] for _ in range(rows)])


def test_rank_identity_and_zero():
    assert Matrix.identity(F5, 4).rank() == 4
    assert Matrix(F5, [[0, 0], [0, 0]]).rank() == 0
    assert Matrix.identity(F8, 3).rank() == 3


def test_rank_dependent_rows():
    m = Matrix(F5, [[1, 2, 3], [2, 4, 6]])
    assert m.rank() == 1


def test_rank_empty_column_selection():
    m = Matrix(F5, [[1, 2], [3, 4]])
    assert m.take_columns([]).rank() == 0


def test_rank_invariant_under_row_permutation_and_scaling(rng):
    for field in (F5, F8):
        for _ in range(20):
            m = random_matrix(field, 3, 5, rng)
            r = m.rank()
            rows = [list(row) for row in m.rows]
            rng.shuffle(rows)
            assert Matrix(field, rows).rank() == r
            scalar = field.one
            while scalar == field.one:
                scalar = field.random_element(rng)
                if scalar == field.zero:
                    scalar = field.one
            scaled = [
                [field.mul(scalar, v) for v in rows[0]],
                *[list(row) for row in rows[1:]],
            ]
            assert Matrix(field, scaled).rank() == r


def test_solve_identity_and_diagonal():
    ident = Matrix.identity(F5, 3)
    assert ident.solve([1, 2, 3]) == [1, 2, 3]
    diag = Matrix(F5, [[2, 0], [0, 3]])
    assert diag.solve([4, 4]) == [2, 3]  # 2*2=4, 3*3=9=4 mod 5


def test_solve_singular_raises():
    m = Matrix(F5, [[1, 2], [2, 4]])
    with pytest.raises(SingularMatrix):
        m.solve([1, 1])


def test_solve_round_trip_random_invertible(rng):
    for field in (F5, F8):
        done = 0
        while done < 15:
            m = random_matrix(field, 3, 3, rng)
            if m.rank() < 3:
                continue
            rhs = [field.random_element(rng) for _ in range(3)]
            x = m.solve(rhs)
            back = [
                # row i of m dotted with x
                _dot(field, m.rows[i], x)
                for i in range(3)
            ]
            assert back == rhs
            done += 1


def _dot(field, row, vec):
    acc = field.zero
    for a, b in zip(row, vec):
        acc = field.add(acc, field.mul(a, b))
    return acc


def test_inverse(rng):
    for field in (F5, F8):
        done = 0
        while done < 8:
            m = random_matrix(field, 3, 3, rng)
            if m.rank() < 3:
                continue
            assert m @ m.inverse() == Matrix.identity(field, 3)
            done += 1


def test_matmul_shapes_and_values():
    a = Matrix(F5, [[1, 2], [3, 4]])
    b = Matrix(F5, [[1, 0, 1], [0, 1, 1]])
    assert (a @ b).rows == [[1, 2, 3], [3, 4, 2]]
    with pytest.raises(ValueError):
        b @ a @ a  # 2x3 times 2x2


def test_left_multiply():
    m = Matrix(F5, [[1, 0, 2], [0, 1, 3]])
    assert m.left_multiply([2, 3]) == [2, 3, 2 * 2 + 3 * 3 - 10]


def test_take_columns_and_transpose():
    m = Matrix(F5, [[1, 2, 3], [4, 0, 1]])
    assert m.take_columns([2, 0]).rows == [[3, 1], [1, 4]]
    assert m.transpose().rows == [[1, 4], [2, 0], [3, 1]]
    with pytest.raises(IndexError):
        m.take_columns([3])


def test_row_space_basis_preserves_rank(rng):
    for _ in range(10):
        m = random_matrix(F8, 4, 6, rng)
        basis = m.row_space_basis()
        assert basis.nrows == m.rank()
        if basis.nrows:
            assert basis.rank() == m.rank()


def test_base_rank_examples():
    assert base_rank(F8, []) == 0
    a = F8.alpha
    # scalar multiples collapse to rank 1 (over GF(2) the only scalar is 1)
    assert base_rank(F8, [a, a]) == 1
    assert base_rank(F8, [F8.one, a, F8.add(F8.one, a)]) == 2
    f25 = ExtField(PrimeField(5), 2)
    x = (1, 2)
    assert base_rank(f25, [x, f25.scale(3, x)]) == 1


def test_base_rank_invariant_under_permutation_and_scaling(rng):
    f = ExtField(PrimeField(5), 3)
    for _ in range(20):
        pts = [f.random_element(rng) for _ in range(5)]
        r = base_rank(f, pts)
        shuffled = list(pts)
        rng.shuffle(shuffled)
        assert base_rank(f, shuffled) == r
        c = rng.randrange(1, 5)
        scaled = [f.scale(c, pts[0])] + pts[1:]
        assert base_rank(f, scaled) == r


def test_rank_tracker_matches_base_rank(rng):
    f = ExtField(PrimeField(5), 4)
    for _ in range(30):
        pts = [f.random_element(rng) for _ in range(6)]
        tracker = RankTracker(f.q)
        grew = [tracker.add(p) for p in pts]
        assert tracker.rank == base_rank(f, pts)
        assert sum(grew) == tracker.rank


def _assert_rref(basis):
    """Pivots (first nonzero entries) strictly increase down the rows, and
    each pivot column is the unit vector of its row."""
    f = basis.field
    pivots = [next(c for c, v in enumerate(row) if v != f.zero) for row in basis.rows]
    assert pivots == sorted(set(pivots))
    for i, c in enumerate(pivots):
        assert [row[c] for row in basis.rows] == [f.one if j == i else f.zero for j in range(len(pivots))]


def test_elimination_order_is_column_order(rng):
    """Rows join the echelon basis in row order, so pivots arrive out of
    column order; every reduced result must still come out in column order."""
    for field in (F5, F8, ExtField(PrimeField(5), 5)):
        for rows, cols in ((3, 6), (6, 3), (4, 5)):
            for _ in range(5):
                m = random_matrix(field, rows, cols, rng)
                for i, row in enumerate(m.rows):  # earlier rows pivot further right
                    row[: rows - 1 - i] = [field.zero] * min(cols, rows - 1 - i)
                if rows == 4:  # rank-deficient: a repeated row and a zero column
                    m.rows[3] = list(m.rows[0])
                    for row in m.rows:
                        row[1] = field.zero
                basis = m.row_space_basis()
                _assert_rref(basis)
                assert basis.nrows == m.rank()
                assert Matrix(field, m.rows + basis.rows).rank() == m.rank()
        # An anti-diagonal system: row i pivots on column n - 1 - i.
        n = 4
        anti = Matrix(field, [[field.one if i + j == n - 1 else field.zero for j in range(n)] for i in range(n)])
        x = [field.random_element(rng) for _ in range(n)]
        assert anti.solve(x[::-1]) == x
        assert anti @ anti.inverse() == Matrix.identity(field, n)
    for q in (5, 7):
        base = PrimeField(q)
        for r in range(1, q):
            for delta in range(2, q - r + 2):
                gen = mds_local_generator(r, delta, base)
                assert gen.take_columns(range(r)) == Matrix.identity(base, r), (q, r, delta)
    for q, t in ((5, 3), (2, 3), (5, 5)):
        base = PrimeField(q)
        for size in (2, 5, 8):
            vectors = [[rng.randrange(q) for _ in range(t)] for _ in range(size)]
            vectors.append([base.add(a, b) for a, b in zip(vectors[0], vectors[-1])])
            tracker = RankTracker(q)
            for v in vectors:
                tracker.add(v)
            assert tracker.rank == Matrix(base, vectors).rank()
