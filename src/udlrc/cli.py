"""Command-line front end: bounds tables, build/encode/decode, certification.

Exit codes are stable.  A command that runs to its end prints its report,
whose last row is its status, and exits with that status's code: ok 0,
undecodable 3 (an erasure pattern past repair), mismatch or fail 4 (a
round trip or a certification check that failed), budget-exceeded 5
(certify's oracle size, sweep's work cap).  A command stopped by an error
prints one error line and no report, and exits 2 for a bad description or
input (an unreadable input file and an unwritable --output included) or 5
for a search over its budget (the 8-class permutation search, the
field-modulus search; build, encode and decode run it, cached for
inst.field, before any flag check and before the code places its n
length-t points).  certify checks n against the oracle budget and the
ordered condition before the checks that need them: n over the budget ends
its report with budget-exceeded, and without the ordered condition the
distance-optimal check is a SKIP row.  Reports are deterministic: same
inputs, byte-identical output.
The oracle budget (largest n the distance oracle will enumerate) is
--budget alone: default 20 for certify, off (0) for sweep.  certify reads d
from the code's own oracle walk only: its distance-optimal row passes
exactly when that d reaches the ceiling.  sweep's oracle-d on a tuple with
n at most the budget is a max-plus fold of its groups' tables, one oracle
walk per (r, delta) on the one-group code (_add_groups); it builds no
tuple's code.
certify and sweep read a built code's points and never build its
generator: a symbol set's rank is min(k, F_q-rank of its points).  No
point has a nonzero coordinate past n_gab, so both build at t = n_gab.
"""

from __future__ import annotations

import argparse
import random
import sys
from functools import cache
from itertools import product, repeat
from math import inf, prod

from .analysis import (
    DEFAULT_ORACLE_BUDGET,
    OrderedConditionRequired,
    TooLarge,
    check_cover_trace,
    class_cover_trace,
    min_distance_oracle,
    prefix_oracles,
    rank_deficiency_witness,
)
from .bounds import (
    PERMUTED_CLASS_LIMIT,
    BoundsFold,
    DimensionInfeasible,
    PreconditionViolated,
    TooManyClasses,
    dimension_bound,
    distance_bound_rdelta,
    distance_bound_udlrc,
    distance_bound_unequal_r,
    permuted_tightest_bound,
    unequal_r_column,
)
from .construction import (
    ErasurePattern,
    LocalityClass,
    LocalitySpec,
    SpecInvalid,
    Undecodable,
    build_code,
    decode_erasures,
    encode,
    erank,
    validate_spec,
)
from .fields import PRIME_CHECK_LIMIT, ModulusSearchTooLarge, find_irreducible, is_prime
from .specfile import (
    SpecFileError,
    dump_symbols,
    load_spec_file,
    load_symbols,
    spec_digest,
    spec_summary,
)

EXIT_OK = 0
EXIT_SPEC_ERROR = 2
EXIT_UNDECODABLE = 3
EXIT_CERTIFY_FAIL = 4
EXIT_BUDGET = 5

# One row per exit code, the first match wins (OSError, UnicodeDecodeError: an
# unreadable input file or an unwritable --output).  Anything else is a bug.
# No command reaches OrderedConditionRequired or TooLarge; their rows give
# the library functions that raise them their exit codes.
EXIT_CODES = (
    ((SpecFileError, SpecInvalid, DimensionInfeasible, OSError, UnicodeDecodeError), EXIT_SPEC_ERROR),
    ((OrderedConditionRequired,), EXIT_CERTIFY_FAIL),
    ((TooLarge, TooManyClasses, ModulusSearchTooLarge), EXIT_BUDGET),
)

# The exit code of each status a command can end its report with.
STATUS_CODES = {
    "ok": EXIT_OK,
    "undecodable": EXIT_UNDECODABLE,
    "mismatch": EXIT_CERTIFY_FAIL,
    "fail": EXIT_CERTIFY_FAIL,
    "budget-exceeded": EXIT_BUDGET,
}

# Work cap of one sweep: every parameter combination, filtered ones included,
# and every row emitted counts once against it.  The sweep walks only the
# class tuples it keeps and counts the filtered combinations between them by
# their position in product order.
SWEEP_ROW_LIMIT = 10_000


class Report:
    """Ordered rows rendered as aligned text or tab-separated records."""

    def __init__(self, command: str, fmt: str) -> None:
        self.fmt = fmt
        self.rows: list[tuple[str, ...]] = []
        self.add("meta", "command", command)

    def add(self, *cells) -> None:
        self.rows.append(tuple(map(str, cells)))

    def render(self) -> str:
        if self.fmt == "machine":
            return "\n".join("\t".join(row) for row in self.rows) + "\n"
        lines = []
        for row in self.rows:
            tag, rest = row[0], row[1:]
            if tag == "meta":
                lines.append(f"{rest[0]}: {' '.join(rest[1:])}")
            elif tag == "bound":
                name, value, pivot, terms = rest
                lines.append(f"  {name:<20} {value:>4}  pivot={pivot}  terms={terms}")
            elif tag == "check":
                name, status, detail = rest
                lines.append(f"  {name:<22} {status:<5} {detail}")
            elif tag == "note":
                lines.append(f"note: {' '.join(rest)}")
            elif tag == "status":
                lines.append(f"status: {rest[0]}")
            else:
                lines.append("  " + "  ".join(rest))
        return "\n".join(lines) + "\n"

    def emit(self) -> None:
        sys.stdout.write(self.render())


def _nonnegative(value: int, name: str) -> int:
    if value < 0:
        raise SpecFileError(f"{name} must be a non-negative integer, got {value}")
    return value


def _message_for(args, spec, inst, file_seed):
    """Message symbols from --message or a seeded generator for --random."""
    field = inst.field
    if args.message and args.random:
        raise SpecFileError("--message and --random are mutually exclusive")
    if not args.message and not args.random:
        raise SpecFileError("one of --message or --random is required")
    if args.message:
        return load_symbols(args.message, field, spec.k), None
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    rng = random.Random(seed)
    return [field.random_element(rng) for _ in range(spec.k)], seed


def _parse_erasures(text: str | None, n: int) -> ErasurePattern:
    if not text:
        return ErasurePattern.from_erased(n, ())
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise SpecFileError(f"--erase expects comma-separated integers, got {text!r}") from None
    try:
        return ErasurePattern.from_erased(n, indices)
    except IndexError as exc:
        raise SpecFileError(str(exc)) from None


def cmd_bounds(args, report, spec, file_seed) -> str:
    report.add("bound", "dim-cap", dimension_bound(spec), "-", ";".join(map(str, spec.k_caps)))
    cap = distance_bound_udlrc(spec)
    report.add("bound", cap.name, cap.value, cap.pivot, ";".join(map(str, cap.per_class_terms)))
    perm = permuted_tightest_bound(spec)
    report.add("bound", perm.name, perm.value, perm.pivot, "perm=" + ",".join(map(str, perm.permutation)))
    # A class-j symbol's MDS local code, punctured at delta_j - delta_min
    # other positions, keeps distance >= delta_min, so every symbol has
    # (r_max, delta_min) locality and only that classical cap holds for the
    # whole spec (Prakash et al., ISIT 2012).  A class's own cap is not one.
    r_max, delta_min = max(c.r for c in spec.classes), min(c.delta for c in spec.classes)
    value = distance_bound_rdelta(spec.n, spec.k, r_max, delta_min)
    report.add("bound", "classical", value, "-", f"r={r_max};d={delta_min}")
    if spec.s > 1:
        for j, c in enumerate(spec.classes, 1):
            value = distance_bound_rdelta(spec.n, spec.k, c.r, c.delta)
            report.add("note", f"classical-{j}", f"comparison, not a ceiling: {value} at r={c.r};d={c.delta}")
    try:
        older = distance_bound_unequal_r(spec)
        report.add("bound", older.name, older.value, older.pivot, ";".join(map(str, older.per_class_terms)))
    except PreconditionViolated as exc:
        report.add("note", "unequal-r", f"skipped: {exc}")
    return "ok"


def cmd_build(args, report, spec, file_seed) -> str:
    find_irreducible(spec.q, spec.t)
    inst = build_code(spec)
    report.add("meta", "n", spec.n)
    report.add("meta", "k", spec.k)
    report.add("meta", "n-gab", spec.n_gab)
    report.add("meta", "field", f"GF({spec.q}^{spec.t})")
    report.add("meta", "modulus", ",".join(map(str, inst.field.modulus)))
    for l, group in enumerate(inst.layout.groups):
        c = spec.classes[inst.layout.class_of[l]]
        report.add(
            "group",
            str(l + 1),
            f"class={inst.layout.class_of[l] + 1}",
            f"r={c.r}",
            f"delta={c.delta}",
            "symbols=" + ",".join(map(str, group)),
        )
    report.add("meta", "grank-full", min(spec.k, erank(inst, range(spec.n))))
    return "ok"


def cmd_encode(args, report, spec, file_seed) -> str:
    find_irreducible(spec.q, spec.t)
    inst = build_code(spec)
    message, seed = _message_for(args, spec, inst, file_seed)
    codeword = encode(inst, message)
    if seed is not None:
        report.add("meta", "seed", seed)
    report.add("meta", "message", dump_symbols(message))
    report.add("meta", "codeword", dump_symbols(codeword))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dump_symbols(codeword) + "\n")
        report.add("meta", "written", args.output)
    return "ok"


def cmd_decode(args, report, spec, file_seed) -> str:
    find_irreducible(spec.q, spec.t)
    inst = build_code(spec)
    message, seed = _message_for(args, spec, inst, file_seed)
    pattern = _parse_erasures(args.erase, spec.n)
    codeword = encode(inst, message)
    received = {i: codeword[i] for i in pattern.remaining}
    if seed is not None:
        report.add("meta", "seed", seed)
    report.add("meta", "erased", ",".join(map(str, pattern.erased_sorted)) or "-")
    try:
        result = decode_erasures(inst, received, pattern)
    except Undecodable as exc:
        report.add("meta", "result", "undecodable")
        report.add("meta", "remaining-rank", exc.remaining_rank)
        report.add("meta", "needed", exc.needed)
        return "undecodable"
    match = "yes" if list(result.message) == list(message) else "no"
    report.add("meta", "result", "decoded")
    report.add("meta", "phase", result.phase)
    report.add("meta", "repaired-locally", ",".join(map(str, result.repaired_locally)) or "-")
    report.add("meta", "match", match)
    return "ok" if match == "yes" else "mismatch"


def cmd_certify(args, report, spec, file_seed) -> str:
    budget = _nonnegative(args.budget, "--budget")
    if spec.n > budget:
        report.add("note", "budget", f"n={spec.n} exceeds the oracle budget {budget}")
        return "budget-exceeded"

    inst = build_code(LocalitySpec(spec.classes, spec.k, spec.q, spec.n_gab))
    failed = False

    def check(name: str, ok: bool, detail: str) -> None:
        nonlocal failed
        failed |= not ok
        report.add("check", name, "PASS" if ok else "FAIL", detail)

    # A finished cover chain ends at its class's rank.
    traces = [class_cover_trace(inst, j) for j in range(1, spec.s + 1)]
    granks = [trace.granks[-1] for trace in traces]
    full = spec.k == spec.n_gab
    caps_ok = all(g == cap if full else g <= cap for g, cap in zip(granks, spec.k_caps))
    check("class-rank-caps", caps_ok, f"granks={','.join(map(str, granks))} caps={','.join(map(str, spec.k_caps))}")
    for j, (c, trace) in enumerate(zip(spec.classes, traces), 1):
        violations = check_cover_trace(trace, c.r, c.delta)
        detail = f"steps={trace.steps}" + ("" if not violations else " " + "; ".join(violations))
        check(f"cover-chain-{j}", not violations, detail)

    cert = min_distance_oracle(inst, budget=budget)
    detail = f"d={cert.d} witness-size={len(cert.witness)} witness-rank={cert.witness_rank}"
    report.add("check", "distance-oracle", "PASS", detail)

    witness = rank_deficiency_witness(inst, traces)
    wrank = min(spec.k, erank(inst, witness))
    slack = len(witness) - wrank
    witness_ok = wrank <= spec.k - 1 and spec.n - len(witness) >= cert.d and cert.d <= spec.n - spec.k + 1 - slack
    check("deficiency-witness", witness_ok, f"size={len(witness)} grank={wrank}")

    cap = distance_bound_udlrc(spec).value
    if spec.ordered_condition:
        # Every set of tau = n + 1 - cap symbols has rank k exactly when d >= cap.
        check("distance-optimal", cert.d >= cap, f"tau={spec.n + 1 - cap}")
        equal = cert.d == cap
        failed |= not equal
        report.add("meta", "verdict", f"d-oracle={cert.d} d-cap={cap} equal={'yes' if equal else 'no'}")
    else:
        report.add("check", "distance-optimal", "SKIP", "ordered condition fails")
        report.add("meta", "verdict", f"d-oracle={cert.d} d-cap={cap} (cap not certified tight)")

    return "fail" if failed else "ok"


def _parse_range(text: str, name: str) -> range:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return range(int(lo), int(hi) + 1)
        v = int(text)
        return range(v, v + 1)
    except ValueError:
        raise SpecFileError(f"--{name} expects INT or LO:HI, got {text!r}") from None


def _kept_tuples(choices, s: int, q: int):
    """(position in product(choices, repeat=s), choice indices) of each
    class tuple sweep tabulates, in product order: r nondecreasing, delta
    nonincreasing and q >= r + delta - 1 in every class.  The walk is depth
    first and drops a prefix at the first class that breaks a rule.  A kept
    prefix stays kept when its last choice repeats, so every prefix the walk
    extends leads to a kept tuple, and it checks at most s * len(choices)
    choices between two kept tuples."""
    size = len(choices)
    fits = [i for i, (r, d, _) in enumerate(choices) if q >= r + d - 1]

    def walk(position, picks, least_r, most_d):
        if len(picks) == s:
            yield position, picks
            return
        for i in fits:
            r, d, _ = choices[i]
            if r >= least_r and d <= most_d:
                yield from walk(position * size + i, (*picks, i), r, d)

    return walk(0, (), -inf, inf)


def _add_groups(reach: list[int], sizes: list[int], m: int, limit: int) -> list[int]:
    """reach after m more groups whose table is sizes, cut at limit entries.

    reach[g] is the largest set of a class prefix's symbols with point rank
    at most g, up to the prefix's dim D, where it is the whole prefix, so a
    list cut short of D + 1 entries was cut at a limit at least this one.
    sizes[j] is the same for one group of rank r = len(sizes) - 1.  The
    groups sit in their own precode coordinates, so a set's rank is the sum
    of its groups' ranks and each group is a max-plus step:
    reach'[g] = max over j <= min(g, r) of reach[g - j] + sizes[j], where a
    j below g - D gains nothing over j = g - D.
    """
    r = len(sizes) - 1
    for _ in range(m):
        last = len(reach) - 1
        reach = [
            max(reach[g - j] + sizes[j] for j in range(max(0, g - last), min(g, r) + 1))
            for g in range(min(last + 1 + r, limit))
        ]
    return reach


class _Text(dict):
    """str of each int, made at its first lookup: one per sweep call."""

    def __missing__(self, value: int) -> str:
        return self.setdefault(value, str(value))


def cmd_sweep(args, report) -> str:
    if args.q >= PRIME_CHECK_LIMIT:
        raise SpecFileError(f"--q {args.q} is not below {PRIME_CHECK_LIMIT}, the primality test's limit")
    if not is_prime(args.q):
        raise SpecFileError(f"--q must be a prime, got {args.q}")
    if args.classes < 1:
        raise SpecFileError(f"--classes must be a positive integer, got {args.classes}")
    if args.classes > PERMUTED_CLASS_LIMIT:
        # Every row reports the permuted bound.
        raise TooManyClasses(
            f"--classes {args.classes} exceeds the {PERMUTED_CLASS_LIMIT}-class cap of the permuted bound"
        )
    rs = _parse_range(args.r, "r")
    deltas = _parse_range(args.delta, "delta")
    ms = _parse_range(args.m, "m")

    @cache
    def facts(r: int, d: int, m: int) -> tuple[LocalityClass, str]:
        """One choice's class and label, built on first use."""
        return LocalityClass.from_groups(r, d, m), f"({r},{d},{m})"

    @cache
    def group_sizes(r: int, d: int) -> list[int]:
        """The table of one (r, d) group: at each g = 0 .. r, the largest
        set of its symbols with point rank at most g, from the oracle on
        the one-group code at k = g + 1 and the whole group at g = r."""
        inst = build_code(LocalitySpec((LocalityClass.from_groups(r, d, 1),), r, args.q, r))
        return [inst.n - cert.d for cert in prefix_oracles(inst, budget)] + [inst.n]

    s = args.classes
    budget = _nonnegative(args.budget, "--budget")
    # The q rule drops choices unchecked, so each range's least value is
    # checked first, the other two at their least valid values.
    facts(rs[0] if rs else 1, deltas[0] if deltas else 2, ms[0] if ms else 1)
    report.add("meta", "q", args.q)
    report.add("meta", "classes", s)
    header = ("row", "classes", "k", "n", "dim-cap", "dist-cap", "pivot", "permuted", "unequal-r", "relation", "oracle-d")
    report.add(*header)
    # More choices for one class than the cap would exceed it anyway: the
    # combinations that vary the last class alone number that many.
    if prod(max(0, v.stop - v.start) for v in (rs, deltas, ms)) > SWEEP_ROW_LIMIT:
        return "budget-exceeded"
    choices = list(product(rs, deltas, ms))
    rows = 0
    text = _Text()
    # folds[d] is the bounds fold of the first d classes of the tuple before,
    # so a tuple folds only the classes after the prefix it shares with it;
    # reaches[d] is its oracle fold, made for tuples with n <= budget only.
    folds, reaches, before = [BoundsFold()], [[0]], (-1,) * s
    for position, picks in _kept_tuples(choices, s, args.q):
        # The combinations up to this one, filtered or kept, and the rows so
        # far count against the cap; once they reach it the table is empty.
        # No later tuple has more room, so the folds made here serve them.
        room = SWEEP_ROW_LIMIT - position - 1 - rows
        if room <= 0:
            return "budget-exceeded"
        shared = 0
        while picks[shared] == before[shared]:  # kept tuples differ
            shared += 1
        del folds[shared + 1 :], reaches[shared + 1 :]
        classes, labels = zip(*(facts(*choices[i]) for i in picks))
        for c in classes[shared:]:
            folds.append(folds[-1].add(c, room))
        before, fold = picks, folds[-1]
        # Each class's cap is m * r, so the fold's dim is n_gab.
        n, n_gab, label = fold.n, fold.dim, ";".join(labels)
        last_k = min(n_gab, room)
        rows += last_k
        # The tuple's code is the direct sum of its groups, so its oracle d
        # at k is n minus its reach at k - 1; every prefix of a tuple with
        # n <= budget has n <= budget, and each is folded once.
        oracle = repeat("-")
        if n <= budget:
            for r, d, m in (choices[i] for i in picks[len(reaches) - 1 :]):
                reaches.append(_add_groups(reaches[-1], group_sizes(r, d), m, room))
            oracle = [text[n - size] for size in reaches[-1][:last_k]]
        older = unequal_r_column(classes, last_k) or repeat(None)
        n_text, dim_text, add = text[n], text[n_gab], report.rows.append
        for k, given, pivot, best, old, oracle_text in zip(
            range(1, last_k + 1), fold.given, fold.pivots, fold.best, older, oracle
        ):
            cap = n - given
            if old is None:
                older_text = relation = "-"
            else:
                older_text, relation = text[old], "tighter" if cap < old else ("equal" if cap == old else "looser")
            add(("row", label, text[k], n_text, dim_text, text[cap], text[pivot], text[n - best], older_text, relation, oracle_text))
        if last_k < n_gab:
            return "budget-exceeded"
    # The combinations after the last kept tuple, all filtered out.
    if len(choices) ** s + rows > SWEEP_ROW_LIMIT:
        return "budget-exceeded"
    report.add("meta", "rows", rows)
    return "ok"


@cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udlrc",
        description="Erasure codes with unequal disjoint local repair groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # A command with --spec gets its loaded, checked spec from main.
    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--spec", required=True, help="code description file (text or JSON)")
        p.add_argument("--format", choices=("text", "machine"), default="text")
        p.set_defaults(func=func)
        return p

    command("bounds", cmd_bounds, "evaluate every applicable bound")
    command("build", cmd_build, "build the code and print its layout")
    p_encode = command("encode", cmd_encode, "encode a message file or a seeded random message")
    p_decode = command("decode", cmd_decode, "encode, erase, decode, and verify the round trip")
    for p in (p_encode, p_decode):
        p.add_argument("--message", help="JSON message file (k digit lists)")
        p.add_argument("--random", action="store_true", help="use a seeded random message")
        p.add_argument("--seed", type=int, help="seed for --random (default: spec seed or 0)")
    p_encode.add_argument("--output", help="also write the codeword JSON to this path")
    p_decode.add_argument("--erase", help="comma-separated erased symbol indices")

    p_certify = command("certify", cmd_certify, "run every certification check")
    p_certify.add_argument(
        "--budget", type=int, default=DEFAULT_ORACLE_BUDGET, help="largest n the oracle enumerates (default %(default)s)"
    )

    p_sweep = sub.add_parser("sweep", help="tabulate bounds over parameter ranges")
    p_sweep.add_argument("--q", type=int, required=True, help="base field size (prime)")
    p_sweep.add_argument("--classes", type=int, required=True, help="number of locality classes")
    p_sweep.add_argument("--r", required=True, help="locality range, INT or LO:HI")
    p_sweep.add_argument("--delta", required=True, help="local distance range, INT or LO:HI")
    p_sweep.add_argument("--m", required=True, help="group count range, INT or LO:HI")
    p_sweep.add_argument("--budget", type=int, default=0, help="largest n whose rows get the oracle (default 0: off)")
    p_sweep.add_argument("--format", choices=("text", "machine"), default="text")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one command: its handler adds the report's rows and returns its
    status; the report is printed only if the command gets that far."""
    args = build_parser().parse_args(argv)
    report = Report(args.command, args.format)
    try:
        if "spec" in args:
            spec, file_seed = load_spec_file(args.spec)
            validate_spec(spec)
            report.add("meta", "spec", spec_summary(spec))
            report.add("meta", "digest", spec_digest(spec))
            report.add("meta", "ordered", "yes" if spec.ordered_condition else "no")
            status = args.func(args, report, spec, file_seed)
        else:
            status = args.func(args, report)
        report.add("status", status)
        report.emit()
    except tuple(cls for classes, _ in EXIT_CODES for cls in classes) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for classes, code in EXIT_CODES if isinstance(exc, classes))
    return STATUS_CODES[status]


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
