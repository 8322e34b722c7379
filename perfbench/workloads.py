"""The three benchmark workloads: repair, certify and sweep.

Each is a closed loop with one caller: the next request is sent only after
the previous one returned.  A workload is built from a freshly imported
`udlrc` package and a seed, and always calls the library through module
attributes, so a tracer installed afterwards sees every call.

Every workload times two operations, `op` (its main request) and `aux`
(its second request), and checks every output.  An operation may have
parts, timed call by call:

    repair   op = decode_erasures of one seeded erasure pattern
             aux = encode of one fresh seeded message
    certify  op = `udlrc certify` on the [14,6] code over GF(7^9)
             aux = `udlrc certify` on each of the four reference codes
    sweep    op = `udlrc sweep ... --budget 10` (oracle on 80 of 144 rows)
             aux = the bounds-only `udlrc sweep` table (about 2.9k rows)
"""

from __future__ import annotations

import bisect
import contextlib
import functools
import hashlib
import io
import json
import random
import statistics
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC_DIR = HERE / "specs"
# sha256 of each command's stdout, recorded at the commit that added the benchmark.
GOLDEN = json.loads((HERE / "golden.json").read_text())


def reference_work() -> tuple[int, ...]:
    """About 1 ms of fixed pure-Python integer and list work: the yardstick
    for the host's speed.  It calls nothing in udlrc, so no change to the
    library moves it."""
    acc = [0] * 16
    for i in range(512):
        x = (i * 7 + 3) % 31
        for j in range(16):
            acc[j] = (acc[j] + x * (j + 1)) % 7
    return tuple(acc)


class Host:
    """The host's speed through a run, read with `reference_work`.

    Other tenants slow this host by up to 2x for minutes at a time, in bursts
    finer than a millisecond, so a raw latency mostly tells which phase the
    run fell in.  A call is therefore also measured in reference units: its
    latency over the mean reference time within NEAR seconds of it, that is,
    how many runs of `reference_work` it lasted.  When the host slows, both
    slow together and the ratio stays put.
    """

    EVERY = 0.25  # seconds between readings
    NEAR = 0.5
    READS = 5  # reference runs per reading

    def __init__(self) -> None:
        self.at: list[float] = []
        self.ref: list[float] = []
        self._next = 0.0

    def read(self) -> None:
        """Take a reading, unless one was taken in the last EVERY seconds."""
        if time.perf_counter() >= self._next:
            self.burst(self.READS)

    def burst(self, reads: int) -> None:
        """Run `reference_work` `reads` times now.  A long burst pins down
        the run's least reference time when timed calls are few."""
        for _ in range(reads):
            t0 = time.perf_counter()
            reference_work()
            self.at.append(t0)
            self.ref.append(time.perf_counter() - t0)
        self._next = time.perf_counter() + self.EVERY

    def refs(self, start: float, seconds: float) -> float:
        """A call's latency in reference units."""
        lo = bisect.bisect_left(self.at, start - self.NEAR)
        hi = bisect.bisect_right(self.at, start + seconds + self.NEAR)
        if hi - lo < self.READS:  # fall back to the nearest readings
            i = bisect.bisect_left(self.at, start)
            lo, hi = max(0, i - self.READS), i + self.READS
        return seconds / statistics.fmean(self.ref[lo:hi])

    def at_fastest(self, start: float, seconds: float) -> float:
        """A call's latency at the run's fastest host speed, in seconds."""
        return self.refs(start, seconds) * min(self.ref)

    def slowdown(self) -> float:
        """Mean reference time over the least: how slow the run's host was."""
        return statistics.fmean(self.ref) / min(self.ref)


class Samples:
    """Timed operations and check outcomes of one workload run."""

    def __init__(self) -> None:
        self.host = Host()
        # Part name -> (start, seconds) of each timed call, for `op` and `aux`.
        self.op: dict[str, list[tuple[float, float]]] = {}
        self.aux: dict[str, list[tuple[float, float]]] = {}
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < 5:
                self.notes.append(what)

    def timed(self, parts: dict, name: str, call, *args):
        """call(*args), timed as one call of part `name`, between host readings.
        A call longer than a second gets a burst of readings after it."""
        self.host.read()
        t0 = time.perf_counter()
        try:
            return call(*args)
        finally:
            dt = time.perf_counter() - t0
            parts.setdefault(name, []).append((t0, dt))
            if dt > 1.0:
                self.host.burst(5 * self.host.READS)
            else:
                self.host.read()

    def p50_refs(self, parts: dict) -> float:
        """Sum over the parts of their median latency in reference units."""
        return sum(median([self.host.refs(t0, dt) for t0, dt in v]) for v in parts.values())


def run_cli(cli, argv: list[str], out: Samples, parts: dict, name: str) -> tuple[int, str]:
    """In-process `udlrc` call, timed into `parts`: exit code and stdout."""
    buf = io.StringIO()

    def call():
        with contextlib.redirect_stdout(buf):
            return cli.main(argv)

    return out.timed(parts, name, call), buf.getvalue()


MIN_STEPS = 3  # so a run holds at least three of each long call


def run_for(out: Samples, seconds: float, step) -> None:
    """Closed loop: call step(out) until `seconds` have passed, and at least
    MIN_STEPS times.  An unexpected exception counts as a failed check and
    the loop goes on."""
    deadline = time.perf_counter() + seconds
    steps = 0
    while steps < MIN_STEPS or time.perf_counter() < deadline:
        steps += 1
        try:
            step(out)
        except Exception as exc:
            out.check(False, f"{type(exc).__name__}: {exc}")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class Repair:
    """Writes and read-repairs on the [12,6] code over GF(5^8), d = 4.

    Erasure mix: 50% local (every group loses at most delta - 1 symbols),
    35% global (at most d - 1 erasures, some group beyond delta - 1) and 15%
    beyond d - 1 (4 to 6 erasures, some undecodable).
    """

    name = "repair"
    CLASSES = ((2, 3, 1), (3, 2, 2))  # (r, delta, m)
    K, Q, T, D = 6, 5, 8, 4
    TRACED_REQUESTS = 200

    def __init__(self, udlrc, seed: int) -> None:
        self.u = udlrc
        spec = udlrc.LocalitySpec(
            classes=tuple(udlrc.LocalityClass.from_groups(*c) for c in self.CLASSES),
            k=self.K,
            q=self.Q,
            t=self.T,
        )
        self.inst = udlrc.build_code(spec)
        self.rng = random.Random(seed)
        self.deltas = [spec.classes[j].delta for j in self.inst.layout.class_of]
        self.outcomes = dict.fromkeys(("none", "local", "global", "undecodable"), 0)

    def _pattern(self) -> set[int]:
        rng, groups, deltas, n = self.rng, self.inst.layout.groups, self.deltas, self.inst.n
        u = rng.random()
        if u < 0.50:
            counts = [rng.randint(0, d - 1) for d in deltas]
            if not any(counts):
                g = rng.randrange(len(groups))
                counts[g] = rng.randint(1, deltas[g] - 1)
            return {i for g, c in zip(groups, counts) for i in rng.sample(g, c)}
        if u < 0.85:
            g = rng.randrange(len(groups))
            erased = set(rng.sample(groups[g], rng.randint(deltas[g], self.D - 1)))
            others = [i for i in range(n) if i not in groups[g]]
            erased.update(rng.sample(others, rng.randint(0, self.D - 1 - len(erased))))
            return erased
        return set(rng.sample(range(n), rng.randint(self.D, self.D + 2)))

    def step(self, out: Samples, deferred: list | None = None) -> None:
        """One write and one read-repair.  The output checks run at once, or
        are appended to `deferred` to run after a traced pass."""
        u, inst = self.u, self.inst
        message = [inst.field.random_element(self.rng) for _ in range(inst.k)]
        erased = self._pattern()
        codeword = out.timed(out.aux, "encode", u.encode, inst, message)
        pattern = u.ErasurePattern.from_erased(inst.n, erased)
        received = {i: codeword[i] for i in pattern.remaining}
        try:
            result = out.timed(out.op, "decode", u.decode_erasures, inst, received, pattern)
        except u.Undecodable:
            result = None
        check = functools.partial(self._check, out, message, erased, codeword, pattern, result)
        if deferred is None:
            check()
        else:
            deferred.append(check)

    def _check(self, out: Samples, message, erased, codeword, pattern, result) -> None:
        # Decodability goes through the generator rank, a path independent
        # of the point-rank decoder.
        u, inst = self.u, self.inst
        decodable = u.grank(inst.gen, pattern.remaining) >= inst.k
        if result is None:
            self.outcomes["undecodable"] += 1
            out.check(not decodable, f"Undecodable raised on a decodable pattern {sorted(erased)}")
            return
        self.outcomes[result.phase] += 1
        lost = [sum(i in erased for i in g) for g in inst.layout.groups]
        if not erased:
            phase = "none"
        elif all(c <= d - 1 for c, d in zip(lost, self.deltas)):
            phase = "local"
        else:
            phase = "global"
        out.check(
            decodable
            and list(result.message) == message
            and list(result.codeword) == list(codeword)
            and result.phase == phase,
            f"wrong decode of pattern {sorted(erased)}",
        )

    def fixed(self, out: Samples) -> list:
        deferred: list = []
        for _ in range(self.TRACED_REQUESTS):
            self.step(out, deferred)
        return deferred

    def report(self, out: Samples) -> list[tuple[str, float, str, str]]:
        encode, decode = seconds(out.aux["encode"]), seconds(out.op["decode"])
        trips = len(decode)
        return [
            *latency_lines("encode", encode),
            *latency_lines("decode", decode),
            ("repairs_per_s", trips / (sum(encode) + sum(decode)), "1/s", f"n={trips}, timed encode+decode only"),
            ("undecodable_share", self.outcomes["undecodable"] / trips, "ratio",
             " ".join(f"{k}={v}" for k, v in self.outcomes.items())),
        ]


class Certify:
    """`udlrc certify --format machine` in-process on a fixed list of codes."""

    name = "certify"
    LARGE = "gf7_9"
    SMALL = ("ref", "ref_full", "three", "reversed")
    SMALL_REPEATS = 5  # calls of each reference code per pass

    def __init__(self, udlrc, seed: int) -> None:
        self.cli = udlrc.cli
        self.rng = random.Random(seed)

    def step(self, out: Samples) -> None:
        order = [self.LARGE, *self.SMALL * self.SMALL_REPEATS]
        self.rng.shuffle(order)
        for name in order:
            argv = ["certify", "--spec", str(SPEC_DIR / f"{name}.json"), "--format", "machine"]
            rc, text = run_cli(self.cli, argv, out, out.op if name == self.LARGE else out.aux, name)
            ok = rc == 0 and digest(text) == GOLDEN["certify"][name]
            if "meta\tordered\tyes\n" in text:
                verdict = text.split("meta\tverdict\t", 1)[-1].split("\n", 1)[0]
                fields = dict(kv.split("=", 1) for kv in verdict.split())
                ok = ok and fields.get("d-oracle") == fields.get("d-cap") and fields.get("equal") == "yes"
            out.check(ok, f"certify {name}: exit {rc} or output differs from the recorded digest")

    def fixed(self, out: Samples) -> list:
        self.step(out)
        return []

    def report(self, out: Samples) -> list[tuple[str, float, str, str]]:
        calls = {**out.op, **out.aux}
        one_pass = sum(median(seconds(v)) for v in calls.values())
        return [("certify_s", one_pass, "s", "one call per spec, each at its median; "
                 + " ".join(f"{k}={len(v)}" for k, v in calls.items()))]


class Sweep:
    """Two `udlrc sweep --format machine` calls: with and without the oracle."""

    name = "sweep"
    ORACLE = ["sweep", "--q", "5", "--classes", "2", "--r", "1:3", "--delta", "2:2", "--m", "1:2",
              "--budget", "10", "--format", "machine"]
    TABLE = ["sweep", "--q", "7", "--classes", "3", "--r", "1:3", "--delta", "2:3", "--m", "1:2",
             "--format", "machine"]
    TABLES_PER_PASS = 4

    def __init__(self, udlrc, seed: int) -> None:
        self.cli = udlrc.cli
        self.rng = random.Random(seed)
        self.table_rows: list[float] = []

    def step(self, out: Samples) -> None:
        calls = ["oracle"] + ["table"] * self.TABLES_PER_PASS
        self.rng.shuffle(calls)
        for which in calls:
            argv = self.ORACLE if which == "oracle" else self.TABLE
            rc, text = run_cli(self.cli, argv, out, out.op if which == "oracle" else out.aux, which)
            ok = rc == 0 and digest(text) == GOLDEN["sweep"][which]
            rows = [line.split("\t") for line in text.splitlines() if line.startswith("row\t(")]
            if which == "oracle":
                # Columns: row, classes, k, n, dim-cap, dist-cap, ..., oracle-d.
                ok = ok and all(r[-1] == "-" or int(r[-1]) <= int(r[5]) for r in rows)
            else:
                self.table_rows.append(len(rows) / out.aux["table"][-1][1])
            out.check(ok, f"sweep {which}: exit {rc}, output differs from the recorded digest or oracle-d > dist-cap")

    def fixed(self, out: Samples) -> list:
        self.step(out)
        return []

    def report(self, out: Samples) -> list[tuple[str, float, str, str]]:
        return [
            ("sweep_s", median(seconds(out.op["oracle"])), "s", f"median of {len(out.op['oracle'])} oracle sweeps"),
            ("table_rows_per_s", median(self.table_rows), "1/s", f"median of {len(self.table_rows)} tables"),
        ]


WORKLOADS = {w.name: w for w in (Repair, Certify, Sweep)}


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def seconds(samples: list[tuple[float, float]]) -> list[float]:
    return [dt for _, dt in samples]


def tail_percentile(count: int) -> int | None:
    """Highest of p99/p95/p90 with at least ten samples beyond it."""
    for p in (99, 95, 90):
        if count * (100 - p) / 100 >= 10:
            return p
    return None


def latency_lines(op: str, values: list[float]) -> list[tuple[str, float, str, str]]:
    n = len(values)
    lines = [(f"{op}_p50_ms", median(values) * 1e3, "ms", f"n={n}")]
    p = tail_percentile(n)
    if p is not None:
        tail = statistics.quantiles(values, n=100, method="inclusive")[p - 1]
        lines.append((f"{op}_p{p}_ms", tail * 1e3, "ms", f"n={n}"))
    return lines


PROBE_FIELDS = (("gf5_5", 5, 5), ("gf5_8", 5, 8), ("gf7_9", 7, 9))
PROBE_REPEATS = 5


def field_probe(udlrc, seed: int, out: Samples) -> dict[str, float]:
    """Nanoseconds per mul, inv and frobenius on the workload fields.

    Each figure is the median of PROBE_REPEATS timed loops over seeded
    nonzero elements; the results are checked against each other.
    """
    rng = random.Random(seed)
    metrics = {}
    for label, q, t in PROBE_FIELDS:
        f = udlrc.ExtField(udlrc.PrimeField(q), t)
        xs = []
        while len(xs) < 64:
            x = f.random_element(rng)
            if x != f.zero:
                xs.append(x)
        pairs = list(zip(xs, reversed(xs))) * 16
        for op, call, inputs in (
            ("mul", lambda a: f.mul(*a), pairs),
            ("inv", f.inv, xs[:16]),
            ("frobenius", f.frobenius, xs),
        ):
            per_op = []
            for _ in range(PROBE_REPEATS):
                t0 = time.perf_counter()
                for a in inputs:
                    call(a)
                per_op.append((time.perf_counter() - t0) / len(inputs) * 1e9)
            metrics[f"fields.{op}_ns.{label}"] = median(per_op)
        ok = all(f.mul(x, f.inv(x)) == f.one and f.frobenius(x) == f.pow(x, q) for x in xs[:8])
        out.check(ok, f"field probe: inconsistent arithmetic in GF({q}^{t})")
    return metrics
