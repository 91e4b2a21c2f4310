"""Benchmark for the tcbundles criteria and planners.

Run from the repository root:

    python3 bench/run.py --workload criteria-tower --seed 0 --seconds 38 --trace 0

Workloads (see workloads.py): ``criteria-tower``, ``criteria-truncated`` and
``planner-verify``.  Load is a closed loop in one process and one thread:
one caller, no think time, the next operation starts when the previous one
returns.

``--trace 0`` runs whole passes of the workload, as many as end closest to
``--seconds`` seconds of wall time (at least one), and reports the
end-to-end metrics named in BENCHMARK.json.  ``--trace 1`` runs one pass untraced and the same
pass again with the package's layer entry points rebound to traced wrappers
(tracing.py), checks that both passes give byte-identical outputs, and
reports the per-layer metrics.  Spans and per-operation records are written
under ``.bench_out/``.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP pools to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import bisect
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict, dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Set-ups measured per run: this process plus fresh interpreters.
SETUP_SAMPLES = 7
# On a host whose cores are shared, speed can drift by 2x over minutes and
# move every wall time of a run together.  Times are therefore reported
# scaled to a reference host speed: each operation's wall time is
# multiplied by CAL_REFERENCE_S over the calibration time measured around
# it.  The calibration kernel lives here and shares no code with the
# package, so no change to the package can move it.
CAL_REFERENCE_S = 0.010
CAL_EVERY_S = 1.0
_CAL_TERMS = [(i, j, (7 * i + j) % 5) for i in range(14) for j in range(14)]


@dataclass
class Record:
    case: str
    key: str
    seconds: float
    status: str
    output: str
    notes: list[str] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    started: float = 0.0
    scaled_s: float = 0.0


def calibration_s() -> float:
    """Median wall time of three runs of a fixed dict-of-tuples convolution,
    the kind of work polynomial multiplication does."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        out: dict[tuple, int] = {}
        for a in _CAL_TERMS:
            for b in _CAL_TERMS:
                key = (a[0] + b[0], a[1] + b[1], a[2] + b[2])
                out[key] = out.get(key, 0) + 1
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def set_up(name: str, seed: int):
    """Import the package from this checkout and build the workload's inputs."""
    from workloads import WORKLOADS

    import tcbundles

    if not Path(tcbundles.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"tcbundles imported from {tcbundles.__file__}, not {SRC}")
    return WORKLOADS[name](seed, ROOT)


def execute(workload, op, check: bool) -> Record:
    workload.before_op()
    start = time.perf_counter()
    try:
        result = op.run()
    except Exception as exc:  # a raising operation is a failed one; the run goes on
        return Record(op.case, op.key, time.perf_counter() - start, "raised", "",
                      [f"{type(exc).__name__}: {exc}"], started=start)
    seconds = time.perf_counter() - start
    output = op.render(result)
    status, notes = op.check(result, output) if check else ("ok", [])
    return Record(op.case, op.key, seconds, status, output, notes, started=start)


def timed_loop(workload, seconds: float) -> tuple[list[Record], list[tuple[float, float]]]:
    """Whole passes, as many as end closest to ``seconds`` (at least one),
    with a calibration sample at least every CAL_EVERY_S.

    Returns the records, each with its scaled time, and the calibration
    samples as (time taken, seconds)."""
    records: list[Record] = []
    cals = [(time.perf_counter(), calibration_s())]
    begin = time.perf_counter()
    for done, ops in enumerate(workload.passes()):
        elapsed = time.perf_counter() - begin
        if done and elapsed + elapsed / done / 2 > seconds:
            break
        for op in ops:
            if time.perf_counter() - cals[-1][0] >= CAL_EVERY_S:
                cals.append((time.perf_counter(), calibration_s()))
            records.append(execute(workload, op, check=True))
    cals.append((time.perf_counter(), calibration_s()))
    stamps = [t for t, _ in cals]
    for r in records:
        i = bisect.bisect(stamps, r.started)
        around = (cals[i - 1][1] + cals[i][1]) / 2
        r.scaled_s = r.seconds * CAL_REFERENCE_S / around
    return records, cals


def setup_probes(args) -> list[float]:
    """Scaled set-up times of fresh interpreters, so imports are measured too."""
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", "0", "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True)
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


def inconsistent(records: list[Record]) -> list[str]:
    """Operations with the same key whose outputs differ."""
    seen: dict[str, str] = {}
    return sorted({r.key for r in records
                   if r.status != "raised" and seen.setdefault(r.key, r.output) != r.output})


def end_to_end(workload, records, cals, setup_times) -> tuple[dict, list[str]]:
    times = defaultdict(list)
    wall = defaultdict(list)
    for r in records:
        times[r.case].append(r.scaled_s)
        wall[r.case].append(r.seconds)
    medians = {c: statistics.median(times[c]) for c in workload.cases}
    top = workload.top_case
    attempted = len(records)
    failed = sum(r.status != "ok" for r in records)
    values = {
        "total_s": sum(medians.values()),
        "top_case_s": medians[top],
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    cal = [c for _, c in cals]
    passes = min(len(times[c]) for c in workload.cases)
    lines = [
        f"total_s = {values['total_s']:.4f} s (sum of per-case medians over "
        f"{len(workload.cases)} cases; {passes}+ samples each, {attempted} ops; "
        f"unscaled {sum(statistics.median(wall[c]) for c in workload.cases):.4f} s)",
        f"top_case_s = {values['top_case_s']:.4f} s ({top}, median of {len(times[top])}; "
        f"unscaled {statistics.median(wall[top]):.4f} s)",
        f"setup_s = {values['setup_s']:.4f} s (median of {len(setup_times)} set-ups)",
        f"peak_rss_mb = {values['peak_rss_mb']:.1f} MB (peak resident set of this process)",
        f"failed_ratio = {failed / attempted:.4f} ({failed} of {attempted} ops failed)",
        f"calibration = {statistics.median(cal) * 1e3:.3f} ms median of {len(cal)} samples "
        f"(min {min(cal) * 1e3:.3f}, max {max(cal) * 1e3:.3f}; reference "
        f"{CAL_REFERENCE_S * 1e3:.3f} ms)",
    ]
    for c in workload.cases:
        ts = times[c]
        lines.append(f"  case {c}: median {medians[c]:.4f} s, min {min(ts):.4f}, "
                     f"max {max(ts):.4f}, n {len(ts)}, unscaled median "
                     f"{statistics.median(wall[c]):.4f}")
    return values, lines


def traced_pass(workload, ops, tracer) -> list[Record]:
    from tracing import instrument

    instrument(tracer)
    records = []
    try:
        for op in ops:
            before = dict(tracer.counts)
            record = execute(workload, op, check=False)
            record.counts = {k: v - before.get(k, 0) for k, v in tracer.counts.items()
                             if v != before.get(k, 0)}
            records.append(record)
    finally:
        tracer.restore()
    return records


def layer_value(name: str, tracer, overhead: float) -> float:
    counts = tracer.counts
    if name == "trace.overhead_ratio":
        return overhead
    if name == "cli.search.useful_mul_ratio":
        muls = counts["cli.search.element_mul"]
        return counts["cli.search.k_reached"] / muls if muls else 0.0
    prefix, _, kind = name.rpartition(".")
    if kind == "self_s":
        return tracer.self_ns[prefix] / 1e9
    if kind == "s":
        return tracer.total_ns[prefix] / 1e9
    return counts[name]


# Per-operation counters worth a line of their own in the traced report.
_OP_COUNTERS = ("cli.search.element_mul", "cli.search.k_reached",
                "bundles.grassmann_ring.calls", "ringquot.complete.calls",
                "geomplan.accepts.calls", "geomplan.path.calls")


def traced_run(workload, args, spec, env):
    """One checked pass untraced, then the same operations traced."""
    from tracing import Tracer

    ops = next(workload.passes())
    records = [execute(workload, op, check=True) for op in ops]
    tracer = Tracer()
    traced = traced_pass(workload, ops, tracer)
    overhead = sum(r.seconds for r in traced) / sum(r.seconds for r in records)
    metrics = {m["name"]: {"value": layer_value(m["name"], tracer, overhead),
                           "unit": m["unit"]} for m in spec["per_layer"]}
    lines = [f"{name} = {m['value']} {m['unit']}" for name, m in metrics.items()]
    lines.append(f"cli.search.useful_mul_ratio bases: k_reached "
                 f"{tracer.counts['cli.search.k_reached']}, element_mul "
                 f"{tracer.counts['cli.search.element_mul']}")
    for r in traced:
        shown = " ".join(f"{k}={r.counts[k]}" for k in _OP_COUNTERS if k in r.counts)
        lines.append(f"  op {r.key}: {shown}")
    lines += [f"  rebound {name}: {', '.join(sites)}"
              for name, sites in tracer.rebind_sites.items()]
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json.gz",
                 {"workload": args.workload, "seed": args.seed, "env": env})
    return records, traced, metrics, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tcbundles" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    workload = set_up(args.workload, args.seed)
    setup_here = time.perf_counter() - start
    setup_scaled = setup_here * CAL_REFERENCE_S / calibration_s()
    if args.setup_probe:
        print(repr(setup_scaled))
        return 0

    import numpy

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "python": platform.python_version(), "numpy": numpy.__version__,
           "blas_threads": os.environ["OPENBLAS_NUM_THREADS"], "processes": 1}
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))

    traced: list[Record] = []
    if args.trace:
        records, traced, metrics, lines = traced_run(workload, args, spec, env)
    else:
        records, cals = timed_loop(workload, args.seconds)
        values, lines = end_to_end(workload, records, cals,
                                   [setup_scaled] + setup_probes(args))
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    errors = [f"traced output differs: {plain.key}" for plain, with_trace in zip(records, traced)
              if (plain.status == "raised", plain.output)
              != (with_trace.status == "raised", with_trace.output)]
    errors += [f"outputs differ between runs of {key}" for key in inconsistent(records)]
    errors += [f"wrong output: {r.key} {'; '.join(r.notes)}"
               for r in records if r.status == "wrong"]
    failed = [r for r in records if r.status != "ok"]
    for line in lines:
        print(line)
    for r in failed:
        print(f"failed {r.key}: {r.status} {'; '.join(r.notes)}")
    for e in errors:
        print(f"error: {e}")

    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"args": vars(args), "env": env, "metrics": metrics, "errors": errors,
                    "records": [asdict(r) for r in records],
                    "traced_records": [asdict(r) for r in traced]}, indent=1),
        encoding="utf-8")
    print(json.dumps({"correct": not errors, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
