#!/usr/bin/env python3
"""Benchmark for eccipher: three closed-loop workloads and a traced per-layer run.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is taken from `src/` next to this directory,
never from an installed copy.  Each workload prints its metrics by name,
with unit and sample count, and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's `end_to_end` list,
measured untraced: set-up repeated and summarised by its median, then
operations for --seconds seconds.  Their times are scaled to reference
speed by probes of a fixed routine taken through the run (speed.py), so
that the shared host's changing load cancels out.  With --trace 1 they are its
`per_layer` list, from a fixed, seeded list of operations run once
untraced and once traced; the difference is the tracing overhead, and
the spans go to .perfbench-out/<workload>-seed<N>/.  `--workload all`
(the default) runs each workload in its own process.

Every output is checked; failures count in `failed` and are never retried.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from itertools import islice
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
TRACE_OUT = ROOT / ".perfbench-out"

# Per-layer counters that must not be zero on a workload, because the
# workload exists to exercise them.  A zero means a wrapper no longer sits
# on the path it used to, and the traced run fails rather than report an
# empty layer.
REQUIRED = {
    "demo-traffic": (
        "field.elements", "curve.add.calls", "curve.double.calls",
        "curve.scalar_mul.calls", "curve.curve_eq.calls", "keys.base_order.calls",
        "cipher.encrypt_point.calls", "cipher.decrypt_point.calls",
        "cipher.nonce_draws_per_symbol",
    ),
    "wide-session": (
        "field.elements", "field.sqrt.calls", "curve.enumerate.calls",
        "curve.order_of.calls", "codec.table_build.calls", "codec.lookup.calls",
        "keys.base_order.calls", "keyfile.parse.calls", "keyfile.render.calls",
        "keyfile.bytes_parsed", "cli.startup_ms", "cli.import_ms", "cli.main.self_s",
    ),
    "key-break": (
        "field.elements", "field.sqrt.calls", "curve.point_hash.calls",
        "curve.enumerate.calls", "curve.order_of.calls", "reference.bsgs.calls",
    ),
}

# Bare interpreter starts (and imports) per start-up probe; the median is kept.
STARTUP_PROBES = 7

# An operation's time is scaled by the speed probes within this many seconds of it.
SCALE_WINDOW_S = 0.5


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024   # ru_maxrss is in KiB on Linux


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (q in 10, 20, ..., 90), interpolated."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


# --------------------------------------------------------------- untraced

def measure(cls, args, workdir):
    import workloads
    from speed import REFERENCE_S, SpeedLog

    workload = cls(args.seed, workdir)
    tally = workloads.Tally()
    speed = SpeedLog()
    setups = []   # (start, end) of each set-up

    def timed_setup():
        speed.probe()
        t0 = perf_counter()
        state = workload.setup(tally)
        setups.append((t0, perf_counter()))
        speed.probe()
        return state

    state = timed_setup()
    start = perf_counter()
    deadline = start + args.seconds
    for op in workload.ops():
        speed.probe_if_due()
        workload.run_op(state, op, tally)
        if perf_counter() >= deadline:
            break
    speed.probe()
    workload.finish(state, tally)
    state = None
    # The other set-ups follow the traffic: a fresh process on a shared host
    # often runs slow for its first few hundred milliseconds, and set-up
    # should be timed in the same warmed-up process as the traffic.
    for _ in range(workload.setup_repeats - 1):
        timed_setup()
    if len(tally.op_s) < 2:
        raise SystemExit(f"{cls.name}: {len(tally.op_s)} operations succeeded; percentiles need 2")

    # A timing is scaled by the probes taken from SCALE_WINDOW_S before it
    # started to SCALE_WINDOW_S after it ended; an operation starts when
    # the one before it ends.
    def scale(a, b):
        return speed.scale(a - SCALE_WINDOW_S, b + SCALE_WINDOW_S)

    raw_setup_s = [b - a for a, b in setups]
    setup_s = [(b - a) * scale(a, b) for a, b in setups]
    n = len(tally.op_s)
    scales = [scale(a, b) for a, b in zip([start, *tally.op_end[:-1]], tally.op_end)]
    scaled_op_s = [t * k for t, k in zip(tally.op_s, scales)]
    scaled_busy_s = sum(t * k for t, k in zip(tally.op_busy_s, scales))

    rss_detail = "children's peak" if workload.rss_of_children else "this process"
    lines = [
        ("setup_s", statistics.median(setup_s), "s", f"median of {len(setups)} set-ups"),
        ("op_ms_p50", quantile(scaled_op_s, 50) * 1000, "ms", f"n={n} {workload.op_label}"),
        ("ops_per_s", n / scaled_busy_s, "1/s", f"n={n} in {tally.busy_s:.2f} timed s"),
        ("peak_rss_mb", peak_rss_mb(workload.rss_of_children), "MB", rss_detail),
        ("op_ms_p90", quantile(scaled_op_s, 90) * 1000, "ms", f"n={n}"),
        ("fail_ratio", tally.failed / tally.attempted, "",
         f"{tally.failed} of {tally.attempted} operations"),
        ("probe_ms", speed.median_s() * 1000, "ms",
         f"median of {len(speed.took)} probes; {REFERENCE_S * 1000:g} ms is reference speed"),
        ("unscaled.setup_s", statistics.median(raw_setup_s), "s", "wall clock"),
        ("unscaled.op_ms_p50", quantile(tally.op_s, 50) * 1000, "ms", "wall clock"),
        ("unscaled.ops_per_s", n / sum(tally.op_busy_s), "1/s", "wall clock"),
    ]
    return tally, lines + workload.report(tally)


# ----------------------------------------------------------------- traced

def run_pass(workload, ops, tally) -> float:
    t0 = perf_counter()
    state = workload.setup(tally)
    for op in ops:
        workload.run_op(state, op, tally)
    with workload.untimed():
        workload.finish(state, tally)
    return perf_counter() - t0


def startup_ms(argv: list[str]) -> float:
    import workloads

    times = []
    for _ in range(STARTUP_PROBES):
        t0 = perf_counter()
        subprocess.run(argv, env=workloads.child_env(), check=True, capture_output=True, timeout=60)
        times.append(perf_counter() - t0)
    return statistics.median(times) * 1000


def trace(cls, args, workdir):
    import tracer as tracing
    import workloads

    out_dir = TRACE_OUT / f"{cls.name}-seed{args.seed}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    plain = cls(args.seed, workdir)
    ops = list(islice(plain.ops(), cls.trace_ops))
    tally = workloads.Tally()
    untraced_s = run_pass(plain, ops, tally)

    tracer = tracing.Tracer()
    traced = cls(args.seed, workdir, tracer=tracer, trace_dir=out_dir)
    with tracing.installed(tracer):
        traced_s = run_pass(traced, ops, tally)
    tracer.write_spans(out_dir / "spans.tsv.gz")

    summary = tracer.summary()
    for part in sorted(out_dir.glob("cmd-*.json")):
        tracing.merge(summary, json.loads(part.read_text(encoding="utf-8")))

    bare = startup_ms([sys.executable, "-c", "pass"])
    imported = startup_ms([sys.executable, "-c", "import eccipher"])
    values = layer_metrics(summary, bare, imported - bare)
    values["trace.untraced_s"] = untraced_s
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_pct"] = 100 * (traced_s - untraced_s) / untraced_s
    values["trace.spans"] = summary["spans"]
    (out_dir / "summary.json").write_text(json.dumps({"metrics": values, **summary}, indent=1),
                                          encoding="utf-8")

    empty = [name for name in REQUIRED[cls.name] if not values[name]]
    if empty:
        raise SystemExit(f"{cls.name}: traced counters stayed at zero: {', '.join(empty)}")
    return tally, values, out_dir


def layer_metrics(summary: dict, bare_ms: float, import_ms: float) -> dict:
    calls, self_s, counts = summary["calls"], summary["self_s"], summary["counts"]
    rng_symbols = counts.get("cipher.rng_symbols", 0)
    return {
        "field.elements": counts.get("field.elements", 0),
        "field.sqrt.calls": calls["field.sqrt"],
        "field.sqrt.self_s": self_s["field.sqrt"],
        "curve.add.calls": calls["curve.add"],
        "curve.add.self_s": self_s["curve.add"],
        "curve.double.calls": calls["curve.double"],
        "curve.double.self_s": self_s["curve.double"],
        "curve.scalar_mul.calls": calls["curve.scalar_mul"],
        "curve.scalar_mul.self_s": self_s["curve.scalar_mul"],
        "curve.curve_eq.calls": counts.get("curve.curve_eq", 0),
        "curve.point_hash.calls": counts.get("curve.point_hash", 0),
        "curve.point_eq.calls": counts.get("curve.point_eq", 0),
        "curve.enumerate.calls": calls["curve.enumerate"],
        "curve.enumerate.self_s": self_s["curve.enumerate"],
        "curve.order_of.calls": calls["curve.order_of"],
        "curve.order_of.self_s": self_s["curve.order_of"],
        "codec.table_build.calls": calls["codec.table_build"],
        "codec.table_build.self_s": self_s["codec.table_build"],
        "codec.lookup.calls": calls["codec.lookup"],
        "codec.lookup.self_s": self_s["codec.lookup"],
        "keys.keygen.calls": calls["keys.keygen"],
        "keys.keypair.calls": calls["keys.keypair"],
        "keys.derive.calls": calls["keys.derive"],
        "keys.base_order.calls": calls["keys.base_order"],
        "keys.self_s": sum(v for k, v in self_s.items() if k.startswith("keys.")),
        "cipher.encrypt_point.calls": calls["cipher.encrypt_point"],
        "cipher.decrypt_point.calls": calls["cipher.decrypt_point"],
        "cipher.encrypt.self_s": self_s["cipher.encrypt"] + self_s["cipher.encrypt_point"],
        "cipher.decrypt.self_s": self_s["cipher.decrypt"] + self_s["cipher.decrypt_point"],
        "cipher.nonce_draws_per_symbol":
            counts.get("cipher.nonce_draws", 0) / rng_symbols if rng_symbols else 0.0,
        "cipher.rng_symbols": rng_symbols,
        "keyfile.parse.calls": calls["keyfile.parse"],
        "keyfile.parse.self_s": self_s["keyfile.parse"],
        "keyfile.render.calls": calls["keyfile.render"],
        "keyfile.render.self_s": self_s["keyfile.render"],
        "keyfile.bytes_parsed": counts.get("keyfile.bytes_parsed", 0),
        "cli.startup_ms": bare_ms,
        "cli.import_ms": import_ms,
        "cli.main.self_s": self_s["cli.main"],
        "reference.bsgs.calls": calls["reference.bsgs"],
        "reference.bsgs.self_s": self_s["reference.bsgs"],
    }


# ------------------------------------------------------------ entry point

def run_one(args, spec) -> int:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix=f"{cls.name}-", dir=WORK) as workdir:
        if args.trace:
            tally, values, out_dir = trace(cls, args, Path(workdir))
            listed = spec["per_layer"]
            print(f"{cls.name}  seed={args.seed}  traced: {cls.trace_ops} operations, "
                  f"spans in {out_dir.relative_to(ROOT)}")
            for metric in listed:
                print(f"  {metric['name']:<32} {values[metric['name']]:>16.6g} {metric['unit']}")
        else:
            tally, lines = measure(cls, args, Path(workdir))
            listed = spec["end_to_end"]
            values = {name: value for name, value, _, _ in lines}
            print(f"{cls.name}  seed={args.seed}  untraced: {args.seconds:g} s, closed loop, one caller")
            for name, value, unit, detail in lines:
                if name in cls.aliases:
                    detail = f"= {cls.aliases[name]}; {detail}"
                print(f"  {name:<24} {value:>14.6g} {unit:<6} {detail}")
    try:
        WORK.rmdir()
    except OSError:
        pass   # another run still uses it
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed}
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    import workloads

    results, status = {}, 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, encoding="utf-8")
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode or not lines:
            status = proc.returncode or 1
            continue
        results[name] = json.loads(lines[-1])
    print(json.dumps({"workloads": results}))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=["all", "demo-traffic", "wide-session", "key-break"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eccipher" / "__init__.py").is_file():
        print(f"perfbench: no eccipher package at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import eccipher
    if Path(eccipher.__file__).resolve().parent != SRC / "eccipher":
        print(f"perfbench: imported eccipher from {eccipher.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload == "all":
        return run_all(args)
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
