import pytest

from udlrc import ExtField, Matrix, PrimeField, RankTracker, SingularMatrix, base_rank, mds_local_generator
from conftest import ref_left_multiply, ref_mul

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


# ---------------------------------------------------------------------------
# Reference: the list-based elimination the packed kernel replaced.  A basis
# entry is (pivot column, inverse of the pivot, row); every step is L
# element-wise multiply-subtracts through the field context.


def _reduce(field, row, basis):
    zero, mul, sub = field.zero, field.mul, field.sub
    for col, pinv, prow in basis:
        v = row[col]
        if v != zero:
            fac = mul(v, pinv)
            row = [sub(a, mul(fac, p)) for a, p in zip(row, prow)]
    return row


def _extend(field, basis, row, width):
    row = _reduce(field, row, basis)
    for col in range(width):
        if row[col] != field.zero:
            basis.append((col, field.inv(row[col]), row))
            return True
    return False


def _echelon(field, rows, width):
    basis = []
    for row in rows:
        _extend(field, basis, list(row), width)
    return basis


def _reduced_echelon(field, rows, width):
    basis = _echelon(field, rows, width)
    for i in range(len(basis) - 1, -1, -1):
        col, pinv, row = basis[i]
        basis[i] = (col, pinv, _reduce(field, row, basis[i + 1 :]))
    return sorted(basis, key=lambda entry: entry[0])


def _ref_rank(m):
    return len(_echelon(m.field, m.rows, m.ncols))


def _ref_row_space_basis(m):
    mul = m.field.mul
    return [[mul(pinv, v) for v in row] for _, pinv, row in _reduced_echelon(m.field, m.rows, m.ncols)]


def _ref_solve_block(m, right):
    """X with m @ X = right, or None when m is singular."""
    n, mul = m.nrows, m.field.mul
    basis = _reduced_echelon(m.field, [list(r) + list(b) for r, b in zip(m.rows, right)], n)
    if len(basis) < n:
        return None
    return [[mul(pinv, v) for v in row[n:]] for _, pinv, row in basis]


def _ref_tracker_rank(q, vectors):
    base = PrimeField(q)
    return len(_echelon(base, [[c % q for c in v] for v in vectors], len(vectors[0])))


def _coords(field, e):
    return list(e) if isinstance(e, tuple) else [e]


def _check_against_reference(m, rhs):
    """rank, row_space_basis, solve, inverse and RankTracker.rank of m
    equal the list-based reference."""
    field = m.field
    assert m.rank() == _ref_rank(m)
    assert m.row_space_basis().rows == _ref_row_space_basis(m)
    if m.nrows == m.ncols and m.nrows:
        n = m.nrows
        expected = _ref_solve_block(m, [[v] for v in rhs])
        inverse = _ref_solve_block(m, Matrix.identity(field, n).rows)
        if expected is None:
            with pytest.raises(SingularMatrix):
                m.solve(rhs)
            with pytest.raises(SingularMatrix):
                m.inverse()
        else:
            assert m.solve(rhs) == [x for (x,) in expected]
            assert m.inverse().rows == inverse
    # Each row's coordinate vector over F_q, as RankTracker sees points.
    vectors = [[c for e in row for c in _coords(field, e)] for row in m.rows]
    if vectors and vectors[0]:
        tracker = RankTracker(field.q)
        grew = [tracker.add(v) for v in vectors]
        assert tracker.rank == sum(grew) == _ref_tracker_rank(field.q, vectors)


def _extreme_elements(field):
    """Zero, one and elements with every coordinate at q - 1 or a lone
    nonzero, the operands that drive the packed slots to their bounds."""
    q, t = field.q, getattr(field, "t", 1)
    if not isinstance(field.zero, tuple):
        return [0, 1, q - 1]
    return [field.zero, field.one, (q - 1,) * t, (0,) * (t - 1) + (q - 1,), (1,) + (q - 1,) * (t - 1)]


def _seeded_matrices(field, rng):
    """Random matrices with zero rows, repeated and scaled rows, zero
    columns and extreme entries, in wide, tall and square shapes."""
    extremes = _extreme_elements(field)
    for rows, cols in ((3, 5), (5, 3), (4, 4), (6, 6), (2, 7)):
        for variant in range(4):
            m = random_matrix(field, rows, cols, rng)
            if variant == 1:
                m.rows[rows - 1] = [field.zero] * cols
                m.rows[0] = list(m.rows[rows // 2])
            elif variant == 2:
                scalar = field.random_element(rng)
                m.rows[1] = [field.mul(scalar, v) for v in m.rows[0]]
                for row in m.rows:
                    row[cols // 2] = field.zero
            elif variant == 3:
                m = Matrix(field, [[rng.choice(extremes) for _ in range(cols)] for _ in range(rows)])
            yield m


def test_packed_kernel_exhaustive_2x2():
    """Every 2x2 matrix over GF(3) and GF(2^2), with every right-hand side."""
    from itertools import product

    for field in (PrimeField(3), ExtField(PrimeField(2), 2)):
        elems = list(field.elements())
        for entries in product(elems, repeat=4):
            m = Matrix(field, [list(entries[:2]), list(entries[2:])])
            for rhs in product(elems, repeat=2):
                _check_against_reference(m, list(rhs))


@pytest.mark.parametrize(
    "q,t",
    [(2, 1), (5, 1), (5, 5), (5, 8), (7, 9), (5, 10)],
    ids=["gf2", "gf5", "gf5_5", "gf5_8", "gf7_9", "gf5_10"],
)
def test_packed_kernel_matches_reference_seeded(q, t, rng):
    field = PrimeField(q) if t == 1 else ExtField(PrimeField(q), t)
    for m in _seeded_matrices(field, rng):
        _check_against_reference(m, [field.random_element(rng) for _ in range(m.nrows)])


@pytest.mark.parametrize(
    "field",
    [
        PrimeField(2),
        ExtField(PrimeField(2), 1),
        ExtField(PrimeField(2), 3),
        PrimeField(1000000007),
        ExtField(PrimeField(1000000007), 1),
        ExtField(PrimeField(1000000007), 2),
    ],
    ids=["gf2", "gf2^1", "gf2_3", "p", "p^1", "p_2"],
)
def test_packed_kernel_at_slot_width_extremes(field, rng):
    """The narrowest slots (q = 2) and the widest (q = 1000000007)."""
    for m in _seeded_matrices(field, rng):
        _check_against_reference(m, [field.random_element(rng) for _ in range(m.nrows)])


def test_packed_step_at_its_slot_bound():
    """One elimination step and one product step with every operand at its
    largest: the packed results equal p * row - v * prow and row + p * prow
    computed element by element with the schoolbook product."""
    from udlrc.fields import _packing

    for field in (PrimeField(2), PrimeField(1000000007), ExtField(PrimeField(2), 3),
                  ExtField(PrimeField(7), 9), ExtField(PrimeField(1000000007), 2)):
        extremes = [e for e in _extreme_elements(field) if e != field.zero]
        pk = _packing(field, 4)
        for a in extremes:
            for b in extremes:
                row, prow = [a] * 4, [b] * 4
                packed = pk.pack(row) * pk.pack_elem(b) + (pk.negq - pk.pack_elem(a)) * pk.pack(prow)
                expected = [field.sub(ref_mul(field, b, x), ref_mul(field, a, y)) for x, y in zip(row, prow)]
                assert pk.unpack(pk.canon(packed)) == expected
                product = pk.pack(row) + pk.pack_elem(b) * pk.pack(prow)
                expected = [field.add(x, ref_mul(field, b, y)) for x, y in zip(row, prow)]
                assert pk.unpack(pk.canon(product)) == expected


PRODUCT_FIELDS = [
    PrimeField(2),
    PrimeField(1000000007),
    ExtField(PrimeField(2), 3),
    ExtField(PrimeField(5), 2),
    ExtField(PrimeField(3), 3, (1, 0, 2, 1)),
    ExtField(PrimeField(5), 8),
    ExtField(PrimeField(7), 9),
    ExtField(PrimeField(5), 10),
    ExtField(PrimeField(1000000007), 2),
]


def _product_shapes(field, rng):
    """The seeded matrices, all-(q - 1) matrices, and a 0-row and a
    0-column matrix, with the all-(q - 1) element."""
    full = _extreme_elements(field)[2]  # every coordinate q - 1
    shapes = list(_seeded_matrices(field, rng))
    shapes += [Matrix(field, [[full] * cols for _ in range(rows)]) for rows, cols in ((1, 1), (4, 6))]
    shapes += [Matrix(field, []), Matrix(field, [[] for _ in range(3)])]  # 0 rows, 0 columns
    return shapes, full


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=lambda f: f"{f!r}{getattr(f, 'modulus', '')}")
def test_left_multiply_matches_elementwise(field, rng):
    shapes, full = _product_shapes(field, rng)
    for m in shapes:
        for vector in ([field.zero] * m.nrows, [full] * m.nrows, [field.random_element(rng) for _ in range(m.nrows)]):
            assert m.left_multiply(vector) == ref_left_multiply(m, vector)


@pytest.mark.parametrize("field", PRODUCT_FIELDS, ids=lambda f: f"{f!r}{getattr(f, 'modulus', '')}")
def test_matmul_matches_elementwise_row_by_row(field, rng):
    # @ packs the right factor once and runs every left row over it.
    shapes, full = _product_shapes(field, rng)
    for m in shapes:
        lefts = [Matrix(field, [[field.zero] * m.nrows, [full] * m.nrows] + [
            [field.random_element(rng) for _ in range(m.nrows)] for _ in range(3)
        ])]
        if m.nrows == 0:
            lefts.append(Matrix(field, []))  # 0 rows times 0 rows
        for left in lefts:
            product = left @ m
            assert product.field == field
            assert product.rows == [ref_left_multiply(m, row) for row in left.rows]


def test_packed_kernel_property():
    """Random small matrices over small fields agree with the reference."""
    hypothesis = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    fields = [PrimeField(2), PrimeField(3), PrimeField(5), ExtField(PrimeField(2), 2),
              ExtField(PrimeField(2), 3), ExtField(PrimeField(3), 2)]

    @st.composite
    def matrices(draw):
        field = draw(st.sampled_from(fields))
        rows = draw(st.integers(1, 4))
        cols = draw(st.integers(1, 5))
        elem = st.sampled_from(list(field.elements()))
        entries = draw(st.lists(st.lists(elem, min_size=cols, max_size=cols), min_size=rows, max_size=rows))
        rhs = draw(st.lists(elem, min_size=rows, max_size=rows))
        return Matrix(field, entries), rhs

    @hypothesis.settings(max_examples=300, deadline=None, derandomize=True)
    @hypothesis.given(matrices())
    def check(case):
        _check_against_reference(*case)

    check()
