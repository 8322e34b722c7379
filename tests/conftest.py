import dataclasses
import importlib.util
import json
import os
import random
import subprocess
import sys
from collections import Counter
from functools import cached_property
from itertools import combinations, permutations, product
from math import prod
from pathlib import Path

import pytest

from udlrc import (
    BoundReport,
    DecodeResult,
    DimensionInfeasible,
    DistanceCertificate,
    ErasurePattern,
    ExtField,
    LengthMismatch,
    LinearizedPoly,
    LocalityClass,
    LocalitySpec,
    Matrix,
    PrimeField,
    RankDeficientGenerator,
    SingularMatrix,
    TooLarge,
    TooManyClasses,
    Undecodable,
    build_code,
    base_rank,
    ceil_div,
    distance_bound_udlrc,
    min_distance_oracle,
    validate_spec,
    worst_case_pattern,
)
from udlrc import analysis, cli
from udlrc.analysis import DEFAULT_ORACLE_BUDGET
from udlrc.bounds import PERMUTED_CLASS_LIMIT
from udlrc.construction import build_layout
from udlrc.fields import _packing, _poly_divmod, _poly_gcd, _poly_trim
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


def without_asserts(module: str, function: str):
    """The JSON value module.function() returns in a python -O child started
    in the tests directory, so that no assert runs while it is computed."""
    code = f"import json, {module}; print(json.dumps({module}.{function}()))"
    done = subprocess.run(
        [sys.executable, "-O", "-c", code], cwd=Path(__file__).parent, env=cli_env(), capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def one_point_moves(inst, count, rng):
    """count codes on inst's points with one point replaced, made with
    dataclasses.replace: each draws the symbol from rng, then its new point,
    an element of inst's field."""
    field = inst.field
    for _ in range(count):
        points = list(inst.points)
        i = rng.randrange(inst.n)
        points[i] = field.random_element(rng)
        yield dataclasses.replace(inst, points=tuple(points))


def load_workloads():
    """The benchmark's workloads module (command lines, spec files and
    recorded report digests), loaded read-only from its file."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def counting(monkeypatch, name, record=lambda *args, **kwargs: True):
    """Wrap the function `name` with one counter wherever udlrc.analysis or
    udlrc.cli binds it, so calls through either module (and recursive calls
    through analysis) are counted.  Returns the list that gets
    record(*args, **kwargs) on each call."""
    modules = [module for module in (analysis, cli) if hasattr(module, name)]
    original = getattr(modules[0], name)
    assert all(getattr(module, name) is original for module in modules)
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def counting_method(monkeypatch, owner, name, record=lambda *args, **kwargs: 1):
    """Wrap the attribute `name` of the class `owner` with a counter;
    returns the list that gets record(*args, **kwargs) on each call."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(record(*args, **kwargs))
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def counting_cached(monkeypatch, owner, names):
    """Replace each cached_property `name` of the class `owner` with one
    that counts the computations of its value; returns the Counter."""
    counts = Counter()
    for name in names:
        func = owner.__dict__[name].func

        def counted(self, func=func, name=name):
            counts[name] += 1
            return func(self)

        prop = cached_property(counted)
        prop.__set_name__(owner, name)
        monkeypatch.setattr(owner, name, prop)
    return counts


def ref_mulmod(a, b, modulus, q):
    """a * b mod the monic modulus of degree t over F_q, as t coordinates,
    for coefficient sequences a and b (low first): the schoolbook product,
    then long division by the modulus from the top coefficient down.  The
    modulus need not be irreducible."""
    t = len(modulus) - 1
    conv = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            conv[i : i + len(b)] = [u + x * y for u, y in zip(conv[i : i + len(b)], b)]
    for top in range(len(conv) - 1, t - 1, -1):
        if c := conv[top] % q:
            conv[top - t : top] = [u - c * m for u, m in zip(conv[top - t : top], modulus)]
    return tuple(v % q for v in conv[:t]) + (0,) * (t - len(conv))


def ref_mul(field, a, b):
    """Schoolbook product, the path the packed ExtField.mul replaced:
    ref_mulmod by the field's modulus.  Prime-field elements multiply as
    ints."""
    if not isinstance(a, tuple):
        return a * b % field.q
    return ref_mulmod(a, b, field.modulus, field.q)


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


def ref_pack(pk, row):
    """_Packing.pack as one loop over the whole row, the path its joined
    blocks replace past 64 elements: each shift copies the int built so far."""
    x = 0
    for e in reversed(row):
        x = (x << pk.bw) | pk.pack_elem(e)
    return x


def ref_unpack(pk, x):
    """_Packing.unpack as one shift of the whole row per element."""
    return [pk.unpack_elem(x >> (j * pk.bw)) for j in range(pk.length)]


def ref_combine(pk, vector, packed_rows):
    """_Packing.combine with one canon per term, the loop its pairing of
    products replaced."""
    acc = 0
    for v, row in zip(vector, packed_rows):
        acc = pk.canon(acc + pk.pack_elem(v) * row)
    return acc


def _ref_poly_powmod(base, e, m, q):
    """base^e mod the monic m over F_q, schoolbook products."""
    result, acc = [1], _poly_divmod(base, m, q)[1]
    while e:
        if e & 1:
            result = ref_mulmod(result, acc, m, q)
        acc = ref_mulmod(acc, acc, m, q)
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


def lift(field, base_matrix):
    """A base-field matrix read over the extension field."""
    return Matrix(field, [[field.embed(v) for v in row] for row in base_matrix.rows])


def ref_local_generator(r, delta, base):
    """The systematic [r + delta - 1, r, delta] generator over the base
    field as mds_local_generator built it before the Lagrange basis: the
    Vandermonde matrix on the locators 0..r+delta-2 times the inverse of
    its first r columns."""
    w = r + delta - 1
    vand = Matrix(base, [[pow(x, i, base.q) for x in range(w)] for i in range(r)])
    return vand.take_columns(range(r)).inverse() @ vand


def ref_local_columns(r, delta, q):
    """The local generator's columns as build_code took them before it wrote
    the unit vectors itself: the Lagrange weights of the locators 0..r-1 at
    every locator x < r + delta - 1, each column a tuple."""
    columns = []
    for x in range(r + delta - 1):
        column = []
        for p in range(r):
            num = den = 1
            for o in range(r):
                if o != p:
                    num, den = num * (x - o) % q, den * (p - o) % q
            column.append(num * pow(den, -1, q) % q)
        columns.append(tuple(column))
    return columns


def ref_local_groups(inst):
    """The groups each of whose points is its class's ref_local_columns
    column applied, coordinate by coordinate mod q, to the group's first r
    points: CodeInstance._local_groups on the tuple points."""
    q, out = inst.spec.q, set()
    for l, group in enumerate(inst.layout.groups):
        c = inst.spec.classes[inst.layout.class_of[l]]
        heads = [inst.points[i] for i in group[: c.r]]
        applied = [tuple(sum(w * y[a] for w, y in zip(column, heads)) % q for a in range(inst.spec.t))
                   for column in ref_local_columns(c.r, c.delta, q)]
        if applied == [tuple(v % q for v in inst.points[i]) for i in group]:
            out.add(l)
    return frozenset(out)


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
        local = lift(field, ref_local_generator(c.r, c.delta, base))
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


def ref_reduced_echelon(field, pk, rows, width):
    """_Packing.reduced_echelon as it was before the batched inversion:
    the reduced basis, each row scaled by the field's inverse of its own
    pivot."""
    canon = pk.canon
    return [canon(pk.pack_elem(field.inv(pk.unpack_elem(row >> off))) * row) for off, row in pk.reduced(rows, width)]


def ref_solve(m, rhs):
    """Matrix.solve through ref_reduced_echelon: x with m @ x = rhs."""
    n = m.nrows
    pk = _packing(m.field, n + 1)
    basis = ref_reduced_echelon(m.field, pk, [pk.pack(list(row) + [b]) for row, b in zip(m.rows, rhs)], n)
    if len(basis) < n:
        raise SingularMatrix(f"matrix rank {len(basis)} < {n}")
    return [pk.unpack_elem(row >> (n * pk.bw)) for row in basis]


def ref_decode_erasures(inst, received, pattern):
    """decode_erasures as it was before the codec packed a built code once:
    each repaired group inverts r present columns of ref_local_generator
    over F_q and lifts the product, the symbols are picked by base_rank on
    the points, the chosen generator columns are solved through ref_solve,
    and the message is re-encoded through the unpacked generator."""
    field = inst.field
    remaining = pattern.remaining
    if set(received) != set(remaining):
        raise LengthMismatch("received symbols must cover exactly the remaining positions")
    known = {i: field.element(received[i]) for i in remaining}

    repaired = []
    for l, group in enumerate(inst.layout.groups):
        missing = [i for i in group if i not in known]
        if not missing:
            continue
        c = inst.spec.classes[inst.layout.class_of[l]]
        if len(missing) > c.delta - 1:
            continue
        local = ref_local_generator(c.r, c.delta, field.base)
        present = [pos for pos, i in enumerate(group) if i in known][: c.r]
        coeffs = local.take_columns(present).inverse() @ local
        values = lift(field, coeffs).left_multiply([known[group[p]] for p in present])
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

    chosen = []
    for i in sorted(known):
        if base_rank(field, [inst.points[j] for j in chosen + [i]]) > len(chosen):
            chosen.append(i)
            if len(chosen) == inst.k:
                break
    if len(chosen) < inst.k:
        raise Undecodable(len(chosen), inst.k)

    message = tuple(ref_solve(inst.gen.take_columns(chosen).transpose(), [known[i] for i in chosen]))
    codeword = tuple(inst.gen.left_multiply(list(message)))
    assert all(codeword[i] == v for i, v in known.items()), "re-encode disagrees with a known symbol"
    return DecodeResult(message=message, codeword=codeword, phase=phase, repaired_locally=tuple(sorted(repaired)))


class RankDeficientPoints(ValueError):
    """ref_interpolate's points are dependent over the base field."""


def ref_interpolate(field, pairs):
    """Recover the degree-(k-1) q-power polynomial from k (point, value) pairs.

    The points must be independent over the base field; the Moore system is
    singular exactly when they are not.  gabidulin.interpolate as it was
    before the decoder solved its own rows of the Moore system.
    """
    points = [p for p, _ in pairs]
    values = [v for _, v in pairs]
    k = len(pairs)
    if base_rank(field, points) != k:
        raise RankDeficientPoints("interpolation points must be independent over the base field")
    system = moore_matrix(field, points, k)
    coeffs = system.solve(values)
    return LinearizedPoly(field, tuple(coeffs))


def ref_first_deficient(pk, columns, k, size, start, path, basis):
    """First subset of the given size, extending path with columns from
    start on, whose columns have rank < k; returned with its rank.

    columns are rows of pk.length elements packed by pk, and basis is the
    echelon basis of the path's columns.  Each column joins it by one
    elimination step on the way down and leaves on the way back; a path
    that reaches rank k is pruned, since every superset keeps rank k.
    """
    if len(path) == size:
        return tuple(path), len(basis)
    for i in range(start, len(columns) - size + len(path) + 1):
        grew = pk.extend(basis, columns[i], pk.length)
        if len(basis) < k:
            path.append(i)
            hit = ref_first_deficient(pk, columns, k, size, i + 1, path, basis)
            if hit is not None:
                return hit
            path.pop()
        if grew:
            basis.pop()
    return None


def ref_walk(pk, columns, rank, k, budget):
    """analysis._walk as it was before the residual walk: one walk per
    size, upward from k - 1 to the first size without a deficient subset
    (the sizes with one form an initial segment), each candidate reduced
    against the path's whole basis; the last hit is the certificate."""
    n = len(columns)
    if n > budget:
        raise TooLarge(f"n={n} exceeds the enumeration budget {budget}")
    if rank < k:
        raise RankDeficientGenerator(f"generator rank below k={k}")
    cert = None
    for size in range(max(k - 1, 0), n):
        hit = ref_first_deficient(pk, columns, k, size, 0, [], [])
        if hit is None:
            break
        cert = DistanceCertificate(d=n - size, witness=hit[0], witness_rank=hit[1])
    if cert is None:
        raise AssertionError("unreachable: any k - 1 columns are rank deficient")
    return cert


def ref_residual_walk(pk, columns, rank, k, budget):
    """analysis._walk as it was before it memoized at block starts: one
    residual walk over all the columns at k, every column's residual
    updated at each pivot and rule (b) counted over every earlier column."""
    n = len(columns)
    if n > budget:
        raise TooLarge(f"n={n} exceeds the enumeration budget {budget}")
    if rank < k:
        raise RankDeficientGenerator(f"generator rank below k={k}")
    elem, negq, canon, bw = pk.elem, pk.negq, pk.canon, pk.bw
    path = []
    best = [-1, (), 0]  # size, set and rank of the first largest set so far

    def visit(i, r, residuals):
        taken = len(path)
        while True:
            if len(path) > best[0]:
                best[:] = len(path), tuple(path), r
            if len(path) + n - i <= best[0]:
                break
            row = residuals[i]
            if not row:  # (a)
                path.append(i)
            elif r + 1 < k:
                low = (row & -row).bit_length() - 1
                off = low - low % bw
                p = (row >> off) & elem
                grown = [canon(p * x + (negq - v) * row) if (v := (x >> off) & elem) else x for x in residuals]
                if grown[:i].count(0) == len(path):  # (b)
                    path.append(i)
                    visit(i + 1, r + 1, grown)
                    path.pop()
            i += 1
        del path[taken:]

    if k:
        visit(0, 0, columns)
    if best[0] < 0:
        raise AssertionError("unreachable: any k - 1 columns are rank deficient")
    return DistanceCertificate(d=n - best[0], witness=best[1], witness_rank=best[2])


def ref_block_walk(pk, columns, rank, k, budget, memo=None):
    """analysis._walk as it was before one pass walked each block once for
    every rank budget: the certificate at k of the columns, packed by pk,
    of rank rank.

    One depth-first walk over the subsets of rank < k, each column taken
    before it is skipped, keeps every column's residual against the span
    of the path: one pivot-scaled elimination step (as in _Packing.reduce)
    per column when the path's rank grows, so a column is in the span
    exactly when its residual is zero.

    At a block start j (_Packing.block_starts) every pivot so far is zero on the
    columns from j on, so their residuals are the columns themselves, no
    later pivot brings a skipped earlier column into the span, and rule
    (b) needs only the current block's zeros.  The walk from j is then
    the walk over the columns from j on at rank budget g, whatever the
    path before j: best_from(j, g) walks it once, keeps the first largest
    extension in memo (shared by every k of one point set) and the walk
    before j appends it.  A block is walked on its own residuals, and
    the memo of every hundredth block start from the end is filled first,
    so the calls nest through at most a hundred blocks.
    """
    n = len(columns)
    if n > budget:
        raise TooLarge(f"n={n} exceeds the enumeration budget {budget}")
    if rank < k:
        raise RankDeficientGenerator(f"generator rank below k={k}")
    if not k:
        raise AssertionError("unreachable: any k - 1 columns are rank deficient")
    memo = {} if memo is None else memo
    starts = pk.block_starts(columns)
    end_of = dict(zip(starts, starts[1:]))
    elem, negq, canon, bw = pk.elem, pk.negq, pk.canon, pk.bw

    def best_from(j, g):
        """Size, set and rank of the first largest set of the columns from
        the block start j on whose rank is at most g."""
        if (j, g) in memo:
            return memo[j, g]
        e = end_of[j]
        path: list[int] = []
        best = [-1, (), 0]

        def visit(i, r, residuals):
            taken = len(path)
            while True:
                if len(path) > best[0]:
                    best[:] = len(path), tuple(path), r
                if len(path) + n - i <= best[0]:
                    break
                if i == e:
                    size, rest, gain = best_from(e, g - r)
                    if len(path) + size > best[0]:
                        best[:] = len(path) + size, (*path, *rest), r + gain
                    break
                row = residuals[i - j]
                if not row:  # (a)
                    path.append(i)
                elif r < g:
                    low = (row & -row).bit_length() - 1
                    off = low - low % bw
                    p = (row >> off) & elem
                    grown = [canon(p * x + (negq - v) * row) if (v := (x >> off) & elem) else x for x in residuals]
                    if grown[: i - j].count(0) == len(path):  # (b)
                        path.append(i)
                        visit(i + 1, r + 1, grown)
                        path.pop()
                i += 1
            del path[taken:]

        visit(j, 0, columns[j:e])
        memo[j, g] = found = tuple(best)
        return found

    for j in starts[-101:0:-100]:
        for g in range(k):
            best_from(j, g)
    size, witness, witness_rank = best_from(0, k - 1)
    return DistanceCertificate(d=n - size, witness=witness, witness_rank=witness_rank)


def ref_one_pass_walk(pk, columns, rank, first, k, budget):
    """analysis._walk as it was before it walked each distinct block once:
    the certificates at each of first .. k of the columns, packed by pk, of
    rank rank, in a list.

    One pass from the last block (_Packing.block_starts) to the first walks
    each block once, up to its largest budget (k - 1, or the count of
    columns from the block on), and keeps the first largest set at each
    budget.  A path of rank r that reaches the block's end appends the
    next block's first largest set at g - r, so each later block is walked
    again inside every earlier one's walk, at every budget it could be
    asked for.
    """
    n = len(columns)
    if n > budget:
        raise TooLarge(f"n={n} exceeds the enumeration budget {budget}")
    if rank < k:
        raise RankDeficientGenerator(f"generator rank below k={max(first, rank + 1)}")
    if not k:
        raise ValueError("k = 0: a code of dimension 0 has no rank-deficient symbol set")
    starts = pk.block_starts(columns)
    clear = pk.clearing()
    path: list[int] = []
    tail = [(0, 0, ())]  # per budget: size, rank and set
    for j, e in reversed(list(zip(starts, starts[1:]))):
        least, cap, last = max(0, first - 1 - j), min(k - 1, n - j), len(tail) - 1
        best = [(-1,)] * (cap + 1)

        def visit(i, r, residuals):
            taken = len(path)
            while True:
                size, floor = len(path), max(r, least)
                if size > best[floor][0]:
                    found, g = (size, r, tuple(path)), floor
                    while g <= cap and size > best[g][0]:
                        best[g] = found
                        g += 1
                if size + n - i <= best[floor][0]:
                    break
                if i == e:
                    for g in range(floor, cap + 1):
                        rest = tail[min(g - r, last)]
                        if size + rest[0] > best[g][0]:
                            best[g] = (size + rest[0], r + rest[1], tuple(path) + rest[2])
                    break
                row = residuals[i - j]
                if not row:  # (a)
                    path.append(i)
                elif r < cap:
                    grown = clear(residuals, row)
                    if grown[: i - j].count(0) == len(path):  # (b)
                        path.append(i)
                        visit(i + 1, r + 1, grown)
                        path.pop()
                i += 1
            del path[taken:]

        visit(j, 0, columns[j:e])
        tail = best
    return [DistanceCertificate(n - size, witness, gain) for size, gain, witness in tail[first - 1 :]]


def ref_point_oracles(inst, budget, ks):
    """ref_walk at each k of ks on the instance's packed points."""
    pk, columns = inst._point_packing, inst._points_packed
    rank = len(pk.echelon(columns, pk.length))
    return [ref_walk(pk, columns, rank, k, budget) for k in ks]


def reduced_basis(m):
    """The reduced row echelon basis of m's row space, zero rows dropped,
    from the packed kernel that solve and inverse run on."""
    pk = _packing(m.field, m.ncols)
    return Matrix(m.field, [pk.unpack(row) for row in pk.reduced_echelon(map(pk.pack, m.rows), m.ncols)])


def ref_punctured_code_profile(gen, support, budget=DEFAULT_ORACLE_BUDGET):
    """(dimension, distance) of the code restricted to the support columns.

    Distance is None for a zero-dimensional restriction.
    """
    basis = reduced_basis(gen.take_columns(sorted(set(support))))
    if basis.nrows == 0:
        return 0, None
    return basis.nrows, min_distance_oracle(basis, budget).d


def ref_locality_witness_search(gen, i, support, r, delta, max_support=16):
    """Smallest set S within the support with i in S, |S| <= r + delta - 1,
    and punctured distance >= delta; None when no such set exists.

    Sets are scanned by size then lexicographically, so the result is
    deterministic.  Zero columns simply force the search to larger sets.
    The exhaustive locality check from the definition, over a generator.
    """
    support = sorted(set(support))
    if i not in support:
        raise ValueError(f"symbol {i} is not in the candidate support")
    if len(support) > max_support:
        raise TooLarge(f"support of size {len(support)} exceeds the search budget {max_support}")
    others = [j for j in support if j != i]
    limit = min(r + delta - 1, len(support))
    for size in range(1, limit + 1):
        for extra in combinations(others, size - 1):
            candidate = tuple(sorted((i,) + extra))
            dim, dist = ref_punctured_code_profile(gen, candidate)
            if dim > 0 and dist is not None and dist >= delta:
                return candidate
    return None


def ref_transform_pattern(layout, remaining):
    """Shift a remaining set group by group into the greedy pattern.

    While an earlier group has holes and a later group still holds symbols,
    move as many symbols as possible from the later group into the earlier
    one (lowest indices on both sides), recording the pattern after each
    move.  A final in-group shuffle aligns the partial group to its lowest
    indices; every move keeps the cardinality and never increases the
    remaining point rank.  Returns the recorded sequence; empty when the
    input is already greedy.  The exchange argument behind
    worst_case_pattern, run step by step.
    """
    n = layout.n
    current = set(remaining)
    for i in current:
        if not 0 <= i < n:
            raise IndexError(f"remaining index {i} out of range for n={n}")
    steps = []
    groups = [set(g) for g in layout.groups]
    while True:
        move = None
        for l1 in range(len(groups)):
            if len(current & groups[l1]) == len(groups[l1]):
                continue
            for l2 in range(l1 + 1, len(groups)):
                if current & groups[l2]:
                    move = (l1, l2)
                    break
            if move:
                break
        if move is None:
            break
        l1, l2 = move
        holes = sorted(groups[l1] - current)
        donors = sorted(current & groups[l2])
        delta = min(len(holes), len(donors))
        current |= set(holes[:delta])
        current -= set(donors[:delta])
        steps.append(ErasurePattern.from_remaining(n, current))
    greedy = worst_case_pattern(layout, n - len(current))
    if current != set(greedy.remaining):
        steps.append(greedy)
    return steps


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


def _ref_unequal_r(n, k, ns, rs, deltas):
    """distance_bound_unequal_r's value on plain ints as published, the
    pivot scanned afresh for each k, or None outside its preconditions."""
    if any(d != 2 for d in deltas) or any(a > b for a, b in zip(rs, rs[1:])):
        return None
    counts = [ceil_div(n_j, r + 1) for n_j, r in zip(ns, rs)]
    sp, cum = 1, 0
    for j in range(len(counts) - 1):  # j + 1 leading classes are summed
        cum += counts[j] * rs[j]
        if cum < k - 1:
            sp = j + 2
    head_rank = sum(g * r for g, r in zip(counts[: sp - 1], rs))
    return n - k + 2 - sum(counts[: sp - 1]) - ceil_div(k - head_rank, rs[sp - 1])


def ref_bounds_table(classes, last_k):
    """bounds_table before its closed form: the core once per row for the
    dist-cap column, and once per (head set, pivot) pair and row for the
    permuted column, on the ordering sorted(H) + (p,); the unequal-r
    column once per row by _ref_unequal_r."""
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
    return [
        (k, dim, value, pivot, permuted[k - 1], _ref_unequal_r(n, k, ns, rs, deltas))
        for k, (value, pivot) in enumerate(cap_column, 1)
    ]


def ref_cmd_sweep(args, report):
    """cmd_sweep as it was before it walked only the kept tuples: every
    combination of product(choices, repeat=s) in turn, filtered by any()
    and counted against the work cap, and the range values checked only
    where a kept tuple builds its classes."""
    if args.q >= cli.PRIME_CHECK_LIMIT:
        raise cli.SpecFileError(f"--q {args.q} is not below {cli.PRIME_CHECK_LIMIT}, the primality test's limit")
    if not cli.is_prime(args.q):
        raise cli.SpecFileError(f"--q must be a prime, got {args.q}")
    if args.classes < 1:
        raise cli.SpecFileError(f"--classes must be a positive integer, got {args.classes}")
    if args.classes > PERMUTED_CLASS_LIMIT:
        raise TooManyClasses(
            f"--classes {args.classes} exceeds the {PERMUTED_CLASS_LIMIT}-class cap of the permuted bound"
        )
    rs = cli._parse_range(args.r, "r")
    deltas = cli._parse_range(args.delta, "delta")
    ms = cli._parse_range(args.m, "m")
    s = args.classes
    budget = cli._nonnegative(args.budget, "--budget") if args.budget is not None else 0
    report.add("meta", "q", args.q)
    report.add("meta", "classes", s)
    header = ("row", "classes", "k", "n", "dim-cap", "dist-cap", "pivot", "permuted", "unequal-r", "relation", "oracle-d")
    report.add(*header)
    if prod(max(0, v.stop - v.start) for v in (rs, deltas, ms)) > cli.SWEEP_ROW_LIMIT:
        return "budget-exceeded"
    rows = work = 0
    for combo in product(product(rs, deltas, ms), repeat=s):
        work += 1
        if work > cli.SWEEP_ROW_LIMIT:
            return "budget-exceeded"
        rlist = [c[0] for c in combo]
        dlist = [c[1] for c in combo]
        if any(a > b for a, b in zip(rlist, rlist[1:])):
            continue
        if any(a < b for a, b in zip(dlist, dlist[1:])):
            continue
        if any(args.q < r + d - 1 for r, d, _ in combo):
            continue
        classes = tuple(LocalityClass.from_groups(r, d, m) for r, d, m in combo)
        n = sum(m * (r + d - 1) for r, d, m in combo)
        n_gab = sum(m * r for r, _, m in combo)
        label = ";".join(f"({r},{d},{m})" for r, d, m in combo)
        table = ref_bounds_table(classes, min(n_gab, cli.SWEEP_ROW_LIMIT - work))
        rows += len(table)
        work += len(table)
        inst = build_code(LocalitySpec(classes, len(table), args.q, n_gab)) if table and n <= budget else None
        oracle = ["-"] * len(table) if inst is None else [str(cert.d) for cert in analysis.prefix_oracles(inst, budget)]
        for (k, dim, cap, pivot, permuted, older), oracle_text in zip(table, oracle):
            relation = "-" if older is None else ("tighter" if cap < older else ("equal" if cap == older else "looser"))
            older_text = "-" if older is None else older
            report.add("row", label, k, n, dim, cap, pivot, permuted, older_text, relation, oracle_text)
        if len(table) < n_gab:
            return "budget-exceeded"
    report.add("meta", "rows", rows)
    return "ok"


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
