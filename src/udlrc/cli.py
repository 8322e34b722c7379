"""Command-line front end: bounds tables, build/encode/decode, certification.

Exit codes are stable: 0 success, 2 bad description or input, 3 undecodable
pattern, 4 certification failure, 5 enumeration budget exceeded (oracle
size, sweep work, the 8-class permutation search, the field-modulus
search).  Reports are deterministic: same inputs, byte-identical output.
The oracle budget (largest n the distance oracle will enumerate) defaults
to 20 and can be set per run with --budget or globally with the
UDLRC_BUDGET variable; certify's exhaustive distance-optimality check
walks the symbol points under the same budget.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from dataclasses import replace
from itertools import product
from math import prod

from .analysis import (
    DEFAULT_ORACLE_BUDGET,
    OrderedConditionRequired,
    TooLarge,
    certify_distance_optimal,
    check_cover_trace,
    class_cover_trace,
    class_rank_caps,
    grank,
    min_distance_oracle,
    prefix_oracles,
    rank_deficiency_witness,
    tightness_budget_size,
)
from .bounds import (
    PERMUTED_CLASS_LIMIT,
    DimensionInfeasible,
    PreconditionViolated,
    TooManyClasses,
    bounds_table,
    dimension_bound,
    distance_bound_rdelta,
    distance_bound_udlrc,
    distance_bound_unequal_r,
    permuted_tightest_bound,
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
    validate_spec,
)
from .fields import PRIME_CHECK_LIMIT, ModulusSearchTooLarge, is_prime
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

# Work cap of one sweep: every parameter combination visited, filtered ones
# included, and every row emitted counts once against it.
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


def _load_spec(path: str):
    spec, seed = load_spec_file(path)
    validate_spec(spec)
    return spec, seed


def _spec_header(report: Report, spec) -> None:
    report.add("meta", "spec", spec_summary(spec))
    report.add("meta", "digest", spec_digest(spec))
    report.add("meta", "ordered", "yes" if spec.ordered_condition else "no")


def _nonnegative(value: int, name: str) -> int:
    if value < 0:
        raise SpecFileError(f"{name} must be a non-negative integer, got {value}")
    return value


def _resolve_budget(args) -> int:
    if getattr(args, "budget", None) is not None:
        return _nonnegative(args.budget, "--budget")
    env = os.environ.get("UDLRC_BUDGET")
    if env is None:
        return DEFAULT_ORACLE_BUDGET
    try:
        budget = int(env)
    except ValueError:
        raise SpecFileError(f"UDLRC_BUDGET must be an integer, got {env!r}") from None
    return _nonnegative(budget, "UDLRC_BUDGET")


def _message_for(args, spec, inst, file_seed):
    """Message symbols from --message or a seeded generator for --random."""
    if args.message and args.random:
        raise SpecFileError("--message and --random are mutually exclusive")
    if not args.message and not args.random:
        raise SpecFileError("one of --message or --random is required")
    if args.message:
        return load_symbols(args.message, inst.field, spec.k), None
    seed = args.seed if args.seed is not None else (file_seed if file_seed is not None else 0)
    rng = random.Random(seed)
    return [inst.field.random_element(rng) for _ in range(spec.k)], seed


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


def cmd_bounds(args) -> int:
    spec, _ = _load_spec(args.spec)
    report = Report("bounds", args.format)
    _spec_header(report, spec)
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
    report.add("status", "ok")
    report.emit()
    return EXIT_OK


def cmd_build(args) -> int:
    spec, _ = _load_spec(args.spec)
    inst = build_code(spec)
    report = Report("build", args.format)
    _spec_header(report, spec)
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
    report.add("meta", "grank-full", grank(inst.gen, range(spec.n)))
    report.add("status", "ok")
    report.emit()
    return EXIT_OK


def cmd_encode(args) -> int:
    spec, file_seed = _load_spec(args.spec)
    inst = build_code(spec)
    message, seed = _message_for(args, spec, inst, file_seed)
    codeword = encode(inst, message)
    report = Report("encode", args.format)
    _spec_header(report, spec)
    if seed is not None:
        report.add("meta", "seed", seed)
    report.add("meta", "message", dump_symbols(message))
    report.add("meta", "codeword", dump_symbols(codeword))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(dump_symbols(codeword) + "\n")
        report.add("meta", "written", args.output)
    report.add("status", "ok")
    report.emit()
    return EXIT_OK


def cmd_decode(args) -> int:
    spec, file_seed = _load_spec(args.spec)
    inst = build_code(spec)
    message, seed = _message_for(args, spec, inst, file_seed)
    pattern = _parse_erasures(args.erase, spec.n)
    codeword = encode(inst, message)
    received = {i: codeword[i] for i in pattern.remaining}
    report = Report("decode", args.format)
    _spec_header(report, spec)
    if seed is not None:
        report.add("meta", "seed", seed)
    report.add("meta", "erased", ",".join(map(str, pattern.erased_sorted)) or "-")
    try:
        result = decode_erasures(inst, received, pattern)
    except Undecodable as exc:
        report.add("meta", "result", "undecodable")
        report.add("meta", "remaining-rank", exc.remaining_rank)
        report.add("meta", "needed", exc.needed)
        report.add("status", "undecodable")
        report.emit()
        return EXIT_UNDECODABLE
    match = "yes" if list(result.message) == list(message) else "no"
    report.add("meta", "result", "decoded")
    report.add("meta", "phase", result.phase)
    report.add("meta", "repaired-locally", ",".join(map(str, result.repaired_locally)) or "-")
    report.add("meta", "match", match)
    report.add("status", "ok" if match == "yes" else "mismatch")
    report.emit()
    return EXIT_OK if match == "yes" else EXIT_CERTIFY_FAIL


def cmd_certify(args) -> int:
    spec, _ = _load_spec(args.spec)
    budget = _resolve_budget(args)
    report = Report("certify", args.format)
    _spec_header(report, spec)
    if spec.n > budget:
        report.add("note", "budget", f"n={spec.n} exceeds the oracle budget {budget}")
        report.add("status", "budget-exceeded")
        report.emit()
        return EXIT_BUDGET

    inst = build_code(spec)
    failed = False

    caps = class_rank_caps(inst)
    caps_ok = all(row.within_cap for row in caps)
    if spec.k == spec.n_gab:
        caps_ok = caps_ok and all(row.grank == row.cap for row in caps)
    failed |= not caps_ok
    report.add(
        "check",
        "class-rank-caps",
        "PASS" if caps_ok else "FAIL",
        "granks=" + ",".join(str(r.grank) for r in caps) + " caps=" + ",".join(str(r.cap) for r in caps),
    )

    for j, c in enumerate(spec.classes, 1):
        trace = class_cover_trace(inst, j)
        violations = check_cover_trace(trace, c.r, c.delta)
        failed |= bool(violations)
        report.add(
            "check",
            f"cover-chain-{j}",
            "PASS" if not violations else "FAIL",
            f"steps={trace.steps}" + ("" if not violations else " " + "; ".join(violations)),
        )

    cert = min_distance_oracle(inst.gen, budget=budget)
    report.add(
        "check",
        "distance-oracle",
        "PASS",
        f"d={cert.d} witness-size={len(cert.witness)} witness-rank={cert.witness_rank}",
    )

    witness = rank_deficiency_witness(inst)
    wrank = grank(inst.gen, witness)
    slack = len(witness) - wrank
    witness_ok = (
        wrank <= spec.k - 1
        and spec.n - len(witness) >= cert.d
        and cert.d <= spec.n - spec.k + 1 - slack
    )
    failed |= not witness_ok
    report.add(
        "check",
        "deficiency-witness",
        "PASS" if witness_ok else "FAIL",
        f"size={len(witness)} grank={wrank}",
    )

    bound = distance_bound_udlrc(spec)
    if spec.ordered_condition:
        optimal = certify_distance_optimal(inst, budget=budget)
        failed |= not optimal
        report.add(
            "check",
            "distance-optimal",
            "PASS" if optimal else "FAIL",
            f"tau={tightness_budget_size(inst)}",
        )
        equal = cert.d == bound.value
        failed |= not equal
        report.add("meta", "verdict", f"d-oracle={cert.d} d-cap={bound.value} equal={'yes' if equal else 'no'}")
    else:
        report.add("check", "distance-optimal", "SKIP", "ordered condition fails")
        report.add("meta", "verdict", f"d-oracle={cert.d} d-cap={bound.value} (cap not certified tight)")

    report.add("status", "fail" if failed else "ok")
    report.emit()
    return EXIT_CERTIFY_FAIL if failed else EXIT_OK


def _parse_range(text: str, name: str) -> range:
    try:
        if ":" in text:
            lo, hi = text.split(":", 1)
            return range(int(lo), int(hi) + 1)
        v = int(text)
        return range(v, v + 1)
    except ValueError:
        raise SpecFileError(f"--{name} expects INT or LO:HI, got {text!r}") from None


def cmd_sweep(args) -> int:
    if args.q >= PRIME_CHECK_LIMIT:
        raise SpecFileError(f"--q {args.q} is not below {PRIME_CHECK_LIMIT}, the primality test's limit")
    if not is_prime(args.q):
        raise SpecFileError(f"--q must be a prime, got {args.q}")
    if args.classes < 1:
        raise SpecFileError(f"--classes must be a positive integer, got {args.classes}")
    if args.classes > PERMUTED_CLASS_LIMIT:
        # Every row reports the permuted bound, and product() holds one
        # copy of the choices per class.
        raise TooManyClasses(
            f"--classes {args.classes} exceeds the {PERMUTED_CLASS_LIMIT}-class cap of the permuted bound"
        )
    rs = _parse_range(args.r, "r")
    deltas = _parse_range(args.delta, "delta")
    ms = _parse_range(args.m, "m")
    s = args.classes
    budget = _nonnegative(args.budget, "--budget") if args.budget is not None else 0
    report = Report("sweep", args.format)
    report.add("meta", "q", args.q)
    report.add("meta", "classes", s)

    def budget_exceeded() -> int:
        report.add("status", "budget-exceeded")
        report.emit()
        return EXIT_BUDGET

    header = ("row", "classes", "k", "n", "dim-cap", "dist-cap", "pivot", "permuted", "unequal-r", "relation", "oracle-d")
    report.add(*header)
    # product() keeps the per-class choices in memory and walks their
    # combinations lazily.  It visits every choice for the last class first,
    # so more choices than the cap would exceed it anyway.
    if prod(max(0, v.stop - v.start) for v in (rs, deltas, ms)) > SWEEP_ROW_LIMIT:
        return budget_exceeded()
    rows = work = 0
    for combo in product(product(rs, deltas, ms), repeat=s):
        work += 1
        if work > SWEEP_ROW_LIMIT:
            return budget_exceeded()
        rlist = [c[0] for c in combo]
        dlist = [c[1] for c in combo]
        if any(a > b for a, b in zip(rlist, rlist[1:])):
            continue
        if any(a < b for a, b in zip(dlist, dlist[1:])):
            continue
        if any(args.q < r + d - 1 for r, d, _ in combo):
            continue
        classes = tuple(LocalityClass.from_groups(r, d, m) for r, d, m in combo)
        spec = LocalitySpec(classes=classes, k=1, q=args.q, t=0)  # built rows set k and t
        n, n_gab = spec.n, spec.n_gab
        label = ";".join(f"({c.r},{c.delta},{c.groups})" for c in classes)
        table = bounds_table(classes, min(n_gab, SWEEP_ROW_LIMIT - work))
        rows += len(table)
        work += len(table)
        # Row j of a generator is the q^j-th powers of its points, so the code at k is its first k rows.
        gen = build_code(replace(spec, k=len(table), t=n_gab)).gen if table and n <= budget else None
        oracle = ["-"] * len(table) if gen is None else [str(cert.d) for cert in prefix_oracles(gen, budget)]
        for (k, dim, cap, pivot, permuted, older), oracle_text in zip(table, oracle):
            relation = "-" if older is None else ("tighter" if cap < older else ("equal" if cap == older else "looser"))
            older_text = "-" if older is None else older
            report.add("row", label, k, n, dim, cap, pivot, permuted, older_text, relation, oracle_text)
        if len(table) < n_gab:
            return budget_exceeded()
    report.add("meta", "rows", rows)
    report.add("status", "ok")
    report.emit()
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="udlrc",
        description="Erasure codes with unequal disjoint local repair groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, spec_required=True):
        if spec_required:
            p.add_argument("--spec", required=True, help="code description file (text or JSON)")
        p.add_argument("--format", choices=("text", "machine"), default="text")

    p_bounds = sub.add_parser("bounds", help="evaluate every applicable bound")
    common(p_bounds)
    p_bounds.set_defaults(func=cmd_bounds)

    p_build = sub.add_parser("build", help="build the code and print its layout")
    common(p_build)
    p_build.set_defaults(func=cmd_build)

    p_encode = sub.add_parser("encode", help="encode a message file or a seeded random message")
    common(p_encode)
    p_encode.add_argument("--message", help="JSON message file (k digit lists)")
    p_encode.add_argument("--random", action="store_true", help="use a seeded random message")
    p_encode.add_argument("--seed", type=int, help="seed for --random (default: spec seed or 0)")
    p_encode.add_argument("--output", help="also write the codeword JSON to this path")
    p_encode.set_defaults(func=cmd_encode)

    p_decode = sub.add_parser("decode", help="encode, erase, decode, and verify the round trip")
    common(p_decode)
    p_decode.add_argument("--message", help="JSON message file (k digit lists)")
    p_decode.add_argument("--random", action="store_true", help="use a seeded random message")
    p_decode.add_argument("--seed", type=int, help="seed for --random (default: spec seed or 0)")
    p_decode.add_argument("--erase", help="comma-separated erased symbol indices")
    p_decode.set_defaults(func=cmd_decode)

    p_certify = sub.add_parser("certify", help="run every certification check")
    common(p_certify)
    p_certify.add_argument("--budget", type=int, help="largest n the oracle enumerates (default 20)")
    p_certify.set_defaults(func=cmd_certify)

    p_sweep = sub.add_parser("sweep", help="tabulate bounds over parameter ranges")
    p_sweep.add_argument("--q", type=int, required=True, help="base field size (prime)")
    p_sweep.add_argument("--classes", type=int, required=True, help="number of locality classes")
    p_sweep.add_argument("--r", required=True, help="locality range, INT or LO:HI")
    p_sweep.add_argument("--delta", required=True, help="local distance range, INT or LO:HI")
    p_sweep.add_argument("--m", required=True, help="group count range, INT or LO:HI")
    p_sweep.add_argument("--budget", type=int, help="oracle build budget per row (default 0: off)")
    p_sweep.add_argument("--format", choices=("text", "machine"), default="text")
    p_sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SpecFileError, SpecInvalid, DimensionInfeasible) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SPEC_ERROR
    except OrderedConditionRequired as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CERTIFY_FAIL
    except (TooLarge, TooManyClasses, ModulusSearchTooLarge) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
