import importlib.util
import os
import random
from itertools import permutations, product
from pathlib import Path

import pytest

from udlrc import (
    BoundReport,
    DimensionInfeasible,
    ExtField,
    LocalityClass,
    LocalitySpec,
    PreconditionViolated,
    PrimeField,
    TooManyClasses,
    build_code,
    ceil_div,
    distance_bound_udlrc,
    distance_bound_unequal_r,
    validate_spec,
)
from udlrc.bounds import PERMUTED_CLASS_LIMIT
from udlrc.construction import build_layout, lift_to_ext, mds_local_generator
from udlrc.fields import _poly_divmod, _poly_gcd, _poly_trim
from udlrc.gabidulin import moore_matrix

SRC = Path(__file__).resolve().parent.parent / "src"
WORKLOADS = SRC.parent / "perfbench" / "workloads.py"


def cli_env(extra=None) -> dict:
    """Environment for a `python -m udlrc` child process: this checkout's
    src directory heads PYTHONPATH, so the child imports the package under
    test from any working directory."""
    env = dict(os.environ)
    env.update(extra or {})
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def load_workloads():
    """The benchmark's workloads module (command lines, spec files and
    recorded report digests), loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ref_mul(field, a, b):
    """Schoolbook product, the path the packed ExtField.mul replaced:
    convolve the coordinates, then fold each coefficient of degree t + j
    back through x^(t+j) mod the modulus, highest first.  Prime-field
    elements multiply as ints."""
    q = field.q
    if not isinstance(a, tuple):
        return a * b % q
    t = field.t
    x_to_t = [-v % q for v in field.modulus[:t]]
    red = [x_to_t]  # red[j] = x^(t+j) mod the modulus
    for _ in range(t - 2):
        prev = red[-1]
        red.append([((prev[i - 1] if i else 0) + prev[-1] * x_to_t[i]) % q for i in range(t)])
    conv = [0] * (2 * t - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    for idx in range(2 * t - 2, t - 1, -1):
        c = conv[idx] % q
        for i in range(t):
            conv[i] += c * red[idx - t][i]
    return tuple(v % q for v in conv[:t])


def ref_pow(field, a, e):
    """a^e by square-and-multiply through ref_mul: the loop the packed
    ExtField.pow replaced."""
    result = field.one
    while e:
        if e & 1:
            result = ref_mul(field, result, a)
        a = ref_mul(field, a, a)
        e >>= 1
    return result


def ref_frobenius(field, a, i):
    """a^(q^i) by i rounds of ref_pow: the repeated squaring the
    linear-map ExtField.frobenius replaced."""
    for _ in range(i):
        a = ref_pow(field, a, field.q)
    return a


def _ref_poly_powmod(base, e, m, q):
    """base^e mod the monic m over F_q, schoolbook products."""

    def mulmod(a, b):
        res = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                res[i + j] += ai * bj
        return _poly_divmod(res, m, q)[1]

    result, acc = [1], _poly_divmod(base, m, q)[1]
    while e:
        if e & 1:
            result = mulmod(result, acc)
        acc = mulmod(acc, acc)
        e >>= 1
    return result


def ref_is_irreducible(coeffs, q):
    """Rabin's test with schoolbook powers x^(q^d) mod f: the path the
    packed _is_irreducible replaced."""
    t = len(coeffs) - 1
    if t < 1 or coeffs[-1] % q != 1:
        return False
    f = [v % q for v in coeffs]
    h = [0, 1]
    for _ in range(t // 2):
        h = _ref_poly_powmod(h, q, f, q)
        diff = list(h) + [0] * max(0, 2 - len(h))
        diff[1] = (diff[1] - 1) % q
        if len(_poly_trim(_poly_gcd(f, diff, q))) > 1:
            return False
    return True


def monic_candidates(q, t, count=None):
    """The monic degree-t polynomials over F_q in find_irreducible's scan
    order, low coefficients first; the first count of them, or all q^t."""
    for code in range(q**t if count is None else count):
        coeffs = []
        for _ in range(t):
            coeffs.append(code % q)
            code //= q
        yield coeffs + [1]


def ref_build_rows(spec):
    """Generator rows of build_code as built before it started from the
    points: the precode Moore matrix on the powers of alpha (through
    ref_mul), times each group's lifted local generator, block by block."""
    base = PrimeField(spec.q)
    field = ExtField(base, spec.t)
    gab_points = [field.one]
    for _ in range(spec.n_gab - 1):
        gab_points.append(ref_mul(field, gab_points[-1], field.alpha))
    precode_gen = moore_matrix(field, gab_points, spec.k).transpose()
    rows = [[] for _ in range(spec.k)]
    cursor = 0
    for j in build_layout(spec).class_of:
        c = spec.classes[j]
        local = lift_to_ext(field, mds_local_generator(c.r, c.delta, base))
        block = precode_gen.take_columns(range(cursor, cursor + c.r)) @ local
        for row, brow in zip(rows, block.rows):
            row.extend(brow)
        cursor += c.r
    return rows


def ref_left_multiply(m, vector):
    """Row vector times matrix, element by element through ref_mul: the
    path the packed Matrix.left_multiply replaced."""
    f = m.field
    out = []
    for j in range(m.ncols):
        acc = f.zero
        for v, row in zip(vector, m.rows):
            acc = f.add(acc, ref_mul(f, v, row[j]))
        out.append(acc)
    return out


def ref_permuted_tightest_bound(spec):
    """distance_bound_udlrc on each of the s! class orderings in
    lexicographic order, keeping the first that attains the minimum: the
    search the (head set, pivot) enumeration of permuted_tightest_bound
    replaced."""
    best = None
    for perm in permutations(range(spec.s)):
        permuted = LocalitySpec(classes=tuple(spec.classes[i] for i in perm), k=spec.k, q=spec.q, t=spec.t)
        report = distance_bound_udlrc(permuted)
        if best is None or report.value < best.value:
            best = BoundReport(
                "dist-cap-permuted", report.value, report.pivot, report.per_class_terms, tuple(i + 1 for i in perm)
            )
    return best


def _ref_cap_core(n, k, ns, ranks, rs, deltas):
    """The dist-cap pivot rule and formula on plain ints, classes in the
    order given, as written before the closed form: (value, 1-based pivot)."""
    head_rank = slack = 0
    for pivot, (n_j, g, r, delta) in enumerate(zip(ns, ranks, rs, deltas), 1):
        if head_rank + g >= k:
            return n - k + 1 - slack - (ceil_div(k - head_rank, r) - 1) * (delta - 1), pivot
        head_rank += g
        slack += n_j - g
    raise AssertionError("k beyond the total rank")


def ref_bounds_table(classes, last_k):
    """bounds_table before its closed form: the core once per row for the
    dist-cap column, and once per (head set, pivot) pair and row for the
    permuted column, on the ordering sorted(H) + (p,)."""
    ns = [c.n for c in classes]
    caps = [c.k_cap for c in classes]
    rs = [c.r for c in classes]
    deltas = [c.delta for c in classes]
    n, dim, s = sum(ns), sum(caps), len(classes)
    if last_k > dim:
        raise DimensionInfeasible(f"k={last_k} exceeds the dimension cap {dim}")
    cap_column = [_ref_cap_core(n, k, ns, caps, rs, deltas) for k in range(1, last_k + 1)]
    permuted = [value for value, _ in cap_column]
    if s > PERMUTED_CLASS_LIMIT:
        raise TooManyClasses(f"{s} classes")
    for mask in range(1 << s):
        head = tuple(i for i in range(s) if mask >> i & 1)
        lo = sum(caps[i] for i in head)
        for p in range(s):
            if mask >> p & 1:
                continue
            seqs = [[seq[i] for i in (*head, p)] for seq in (ns, caps, rs, deltas)]
            for k in range(lo + 1, min(lo + caps[p], last_k) + 1):
                permuted[k - 1] = min(permuted[k - 1], _ref_cap_core(n, k, *seqs)[0])
    rows = []
    for k, (value, pivot) in enumerate(cap_column, 1):
        spec = LocalitySpec(classes=tuple(classes), k=k, q=7, t=1)
        try:
            older = distance_bound_unequal_r(spec).value
        except PreconditionViolated:
            older = None
        rows.append((k, dim, value, pivot, permuted[k - 1], older))
    return rows


# The [8, 4] two-class workhorse over GF(5^5): one (r=2, delta=3) group and
# one (r=3, delta=2) group, precode length 5.
REF_SPEC = LocalitySpec(
    classes=(LocalityClass.from_groups(2, 3, 1), LocalityClass.from_groups(3, 2, 1)),
    k=4,
    q=5,
    t=5,
)

# Same layout at full precode dimension k = n_gab = 5.
REF_FULL_SPEC = LocalitySpec(classes=REF_SPEC.classes, k=5, q=5, t=5)

# One class, two groups: exercises multi-step cover chains.
SINGLE_SPEC = LocalitySpec(
    classes=(LocalityClass.from_groups(2, 2, 2),), k=3, q=5, t=4
)

# Three classes over GF(7^6), ordered condition satisfied.
THREE_SPEC = LocalitySpec(
    classes=(
        LocalityClass.from_groups(1, 3, 1),
        LocalityClass.from_groups(2, 2, 1),
        LocalityClass.from_groups(3, 2, 1),
    ),
    k=5,
    q=7,
    t=6,
)

# REF with its classes swapped: builds fine, ordered condition fails.
REVERSED_SPEC = LocalitySpec(
    classes=(LocalityClass.from_groups(3, 2, 1), LocalityClass.from_groups(2, 3, 1)),
    k=4,
    q=5,
    t=5,
)


def usual_grid():
    """Every buildable spec with q in {5, 7}, s <= 3, r <= 3, delta <= 3,
    m <= 2 and n <= 10, ordered or not, at t = n_gab and every k: 2,298
    specs."""
    for q, s in product((5, 7), (1, 2, 3)):
        for combo in product(product(range(1, 4), range(2, 4), range(1, 3)), repeat=s):
            classes = tuple(LocalityClass.from_groups(r, d, m) for r, d, m in combo)
            shape = LocalitySpec(classes=classes, k=1, q=q, t=1)
            if shape.n <= 10:
                for k in range(1, shape.n_gab + 1):
                    yield LocalitySpec(classes=classes, k=k, q=q, t=shape.n_gab)


@pytest.fixture(scope="session")
def ref_instance():
    return build_code(validate_spec(REF_SPEC))


@pytest.fixture(scope="session")
def ref_full_instance():
    return build_code(validate_spec(REF_FULL_SPEC))


@pytest.fixture(scope="session")
def single_instance():
    return build_code(validate_spec(SINGLE_SPEC))


@pytest.fixture(scope="session")
def three_instance():
    return build_code(validate_spec(THREE_SPEC))


@pytest.fixture(scope="session")
def reversed_instance():
    return build_code(validate_spec(REVERSED_SPEC))


@pytest.fixture(scope="session")
def all_instances(ref_instance, ref_full_instance, single_instance, three_instance):
    return [ref_instance, ref_full_instance, single_instance, three_instance]


@pytest.fixture
def rng():
    return random.Random(20260810)
