"""Benchmark harness for udlrc: one workload per run, stdlib only.

    python3 perfbench/run.py --workload repair --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the library is imported from `src/`.  The
untraced run (`--trace 0`) measures for `--seconds` seconds and reports the
end-to-end metrics.  The traced run (`--trace 1`) does a fixed, seeded amount
of work twice, untraced and then under the span tracer, and reports the
per-layer metrics, the tracing overhead and the field-kernel probe; it writes
its spans and per-span table under `perfbench/out/`.  Either way the last
line of stdout is one JSON object: correct, attempted, failed, metrics.
`--workload all` runs the three workloads one after another.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
SETUP_BURST = 100  # reference runs read next to each batch of set-ups

sys.path.insert(0, str(HERE))
from tracer import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Samples, field_probe, median, run_for  # noqa: E402


def fresh_import():
    """Import udlrc from this checkout as a new process would."""
    for name in [m for m in sys.modules if m == "udlrc" or m.startswith("udlrc.")]:
        del sys.modules[name]
    udlrc = importlib.import_module("udlrc")
    importlib.import_module("udlrc.cli")
    if not Path(udlrc.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"udlrc imported from {udlrc.__file__}, not from {SRC}")
    return udlrc


def set_up(workload, seed: int, out: Samples, setups: dict):
    """Import the library and build the workload's inputs SETUP_REPEATS
    times, timed into `setups`; returns the last workload."""
    for _ in range(SETUP_REPEATS):
        wl = out.timed(setups, "setup", lambda: workload(fresh_import(), seed))
    return wl


@functools.cache
def environment() -> dict[str, object]:
    commit = "unknown"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
        commit = done.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "commit": commit,
    }


def untraced(workload, args) -> tuple[Samples, dict, list]:
    # Set up before and after the timed loop, so the median spans two
    # moments of the run rather than one.
    out = Samples()
    setups: dict = {}
    out.host.burst(SETUP_BURST)
    wl = set_up(workload, args.seed, out, setups)
    run_for(out, args.seconds, wl.step)
    out.host.burst(SETUP_BURST)
    set_up(workload, args.seed, out, setups)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "setup_s": (median([out.host.at_fastest(t0, dt) for t0, dt in setups["setup"]]), "s"),
        "op_p50_ref": (out.p50_refs(out.op), "ref"),
        "aux_p50_ref": (out.p50_refs(out.aux), "ref"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    lines = [("setup_s", metrics["setup_s"][0], "s", f"median of {SETUP_REPEATS * 2} set-ups at the run's fastest host speed")]
    for name in ("op_p50_ref", "aux_p50_ref"):
        lines.append((name, metrics[name][0], "ref", "per part, median latency in reference units, summed"))
    ref_ms = median(out.host.ref) * 1e3
    lines.append(("reference_ms", ref_ms, "ms", f"median of {len(out.host.ref)} reference runs"))
    lines.append(("host_slowdown", out.host.slowdown(), "ratio", "mean reference time over the least"))
    lines += wl.report(out)
    lines.append(("peak_rss_mb", rss_mb, "MB", "ru_maxrss"))
    return out, metrics, lines


def traced(workload, args) -> tuple[Samples, dict, list]:
    udlrc = fresh_import()
    out = Samples()

    t0 = time.perf_counter()
    checks = workload(udlrc, args.seed).fixed(out)
    untraced_s = time.perf_counter() - t0
    for check in checks:
        check()

    tracer = Tracer()
    tracer.install(udlrc)
    try:
        t0 = time.perf_counter()
        checks = workload(udlrc, args.seed).fixed(out)
        traced_s = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    for check in checks:
        check()

    layers, table = layer_metrics(tracer)
    metrics = {}
    for name, value in layers.items():
        unit = "s" if name.endswith("_s") else "ratio" if name.endswith("_ratio") else "count"
        metrics[name] = (value, unit)
    for name, value in field_probe(udlrc, args.seed, out).items():
        metrics[name] = (value, "ns")
    metrics["trace.untraced_s"] = (untraced_s, "s")
    metrics["trace.traced_s"] = (traced_s, "s")
    metrics["trace.overhead_ratio"] = (traced_s / untraced_s, "ratio")
    metrics["trace.spans"] = (len(tracer), "count")

    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{args.workload}-seed{args.seed}"
    tracer.write(stem.with_suffix(".trace.gz"))
    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "environment": environment(),
        "metrics": {k: v for k, (v, _) in metrics.items()},
        "spans_by_name": {k: {"calls": c, "self_s": s} for k, (c, s) in sorted(table.items())},
    }
    stem.with_suffix(".layers.json").write_text(json.dumps(summary, indent=1) + "\n")
    lines = [(name, value, unit, "") for name, (value, unit) in metrics.items()]
    return out, metrics, lines


def run_all(args) -> int:
    status = 0
    for name in WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status |= subprocess.run(argv).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args)
    if not (SRC / "udlrc" / "__init__.py").is_file():
        print(f"error: no udlrc package under {SRC}; run from the root of a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("UDLRC_BUDGET", None)  # certify must use the library's default budget

    workload = WORKLOADS[args.workload]
    out, metrics, lines = (traced if args.trace else untraced)(workload, args)

    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
          + " ".join(f"{k}={v}" for k, v in env.items()))
    for name, value, unit, detail in lines:
        print(f"{args.workload}\t{name}\t{value:.6g}\t{unit}\t{detail}")
    print(f"{args.workload}\tfail_ratio\t{out.failed / max(out.attempted, 1):.6g}\tratio\t{out.failed}/{out.attempted}")
    for note in out.notes:
        print(f"{args.workload}\tFAILED\t{note}", file=sys.stderr)
    print(json.dumps({
        "correct": out.failed == 0 and out.attempted > 0,
        "attempted": out.attempted,
        "failed": out.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
