"""irfkit benchmark: one workload, one process, one closed-loop client.

    python3 perfbench/run.py --workload sessions --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; irfkit is imported from its ``src``
directory.  The run sets the workload up several times (the median is
``setup_s``), then runs whole units of operations until ``--seconds`` have
passed, checks every output and prints, as its last line, one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``.  Every unit holds the
same mix of operations.  Every time in the metrics is taken at one reference
host speed (see hostspeed.py), so the load other tenants put on a shared host
moves it little.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs every unit
twice, untraced and with every layer wrapped (see layers.py), and reports
the per-layer metrics, including the tracing overhead: traced minus
untraced time of the same operations.

Everything the run writes goes under ``.perfbench/`` in the checkout: a full
report (environment, sizes, every figure with its sample count, the quality
table) and, with tracing, the spans as JSON lines.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
DEFAULT_SEED = 0
SETUPS = 5
END_TO_END_UNITS = {"setup_s": "s", "peak_rss_mb": "MB", "op_ms_p50": "ms",
                    "op_ms_p90": "ms", "items_per_s": "1/s"}


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read from .git without running git; "unknown"
    outside a git work tree."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed: int) -> dict:
    import numpy

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
    }


def typical_seconds(records) -> dict[str, tuple[float, int, bool]]:
    """Per operation of the mix: its typical time at the reference host
    speed (the median over its repetitions), its items and whether its time
    counts toward items_per_s."""
    samples: dict[str, list] = {}
    for r in records:
        samples.setdefault(r.key, []).append(r)
    return {key: (statistics.median(r.ref_seconds for r in group), group[0].items,
                  group[0].item_time)
            for key, group in samples.items()}


def end_to_end(records, setup_times: list[float], peak_rss_mb: float) -> dict[str, float]:
    """op_ms_p50/p90 are percentiles over the distinct operations of the
    run, each at its typical time; items_per_s is their items over the
    typical time of the operations that produce them.  Every unit holds the
    same mix, so these move only with the operations' times."""
    from workloads import percentile

    typical = typical_seconds(records)
    latencies = [seconds * 1000 for seconds, _, _ in typical.values()]
    return {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mb,
        "op_ms_p50": statistics.median(latencies),
        "op_ms_p90": percentile(latencies, 90),
        "items_per_s": sum(items for _, items, _ in typical.values())
        / sum(seconds for seconds, _, counted in typical.values() if counted),
    }


def detail(records) -> dict:
    """Latency of every kind of operation at the reference host speed:
    median, the highest percentile with ten samples beyond it, and the sample
    count."""
    from workloads import percentile, tail_percentile

    kinds: dict[str, list[float]] = {}
    for r in records:
        kinds.setdefault(r.kind, []).append(r.ref_seconds * 1000)
        if r.kind != "session" and r.key != r.kind:  # tune: each command too
            kinds.setdefault(r.key, []).append(r.ref_seconds * 1000)
    out = {}
    for kind, values in sorted(kinds.items()):
        tail = tail_percentile(len(values))
        out[kind] = {"samples": len(values), "ms_p50": statistics.median(values),
                     "tail_pct": tail, "ms_tail": percentile(values, tail) if tail else None}
    extra_keys = sorted({key for r in records for key in r.extra if key.endswith("_s")})
    for key in extra_keys:
        values = [r.extra[key] for r in records if key in r.extra]
        out[key] = {"samples": len(values), "median": statistics.median(values)}
    return out


@contextlib.contextmanager
def tracing(workload, tracer):
    """Every layer wrapped and every operation a span; nothing if no tracer."""
    import layers

    if tracer is None:
        yield
        return
    workload.tracer = tracer
    layers.install(tracer)
    try:
        yield
    finally:
        tracer.restore()
        workload.tracer = None


def run_units(workload, seconds: float, tracer=None) -> tuple[list, list, list, int]:
    """Whole units until ``seconds`` have passed and at least the
    workload's ``min_units`` have run.

    Every unit starts from a collected heap, untimed, so each repetition
    of an operation meets the collector in the same state and does the same
    collection work, as a fresh process would.  With a tracer every unit
    runs twice, untraced and traced, in alternating order, so both runs of
    it meet the same machine and the difference is the tracing overhead.
    Returns the untraced records, the traced ones, all of them in execution
    order, and the number of units.
    """
    untraced, traced, executed = [], [], []
    unit = 0
    deadline = perf_counter() + seconds
    while True:
        passes = ((False, True) if unit % 2 == 0 else (True, False)) if tracer else (False,)
        for with_trace in passes:
            gc.collect()
            with tracing(workload, tracer if with_trace else None):
                records = workload.run_unit(unit)
            (traced if with_trace else untraced).extend(records)
            executed.extend(records)
        unit += 1
        if unit >= workload.min_units and perf_counter() >= deadline:
            return untraced, traced, executed, unit


def run(args, out: Path = OUT, size=None) -> dict:
    """One benchmark run; ``size`` replaces the workload's defined sizes
    (the smoke test runs a tiny one)."""
    import hostspeed
    import layers
    import workloads
    from spans import Tracer

    out.mkdir(exist_ok=True)
    workdir = out / f"work-{args.workload}-{os.getpid()}"
    workloads.clean(workdir)
    workdir.mkdir(parents=True)
    tracer = Tracer() if args.trace else None
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed, size)
    try:
        workload.prepare()
        setup_times = []
        with tracing(workload, tracer):
            for rep in range(SETUPS):
                with workload.op("setup", f"setup/{rep}"):
                    start = perf_counter()
                    workload.setup()
                    elapsed = perf_counter() - start
                setup_times.append(workload.host.at_reference(elapsed))
        records, traced, executed, units = run_units(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        probes = workload.host.samples

        digests = None
        if args.seed == DEFAULT_SEED and workload.size == workload.Size():
            digests = json.loads((HERE / "digests.json").read_text("utf-8"))
        workload.verify(executed, digests)
        failures = [r for r in executed if r.error]
        for r in failures[:20]:
            print(f"FAILED {r.kind} {r.key}: {r.error}", file=sys.stderr)

        report = {
            "workload": args.workload,
            "environment": environment(args.seed),
            "sizes": workload.sizes(),
            "units": units,
            "end_to_end": end_to_end(records, setup_times, peak_rss_mb),
            "typical_ms": {key: seconds * 1000 for key, (seconds, _, _)
                           in sorted(typical_seconds(records).items())},
            # every operation in run order: measured and reference time
            "ops_ms": [[r.key, r.seconds * 1000, r.ref_seconds * 1000]
                       for r in records],
            "host_probe_ms": {"samples": len(probes), "min": min(probes) * 1000,
                              "median": statistics.median(probes) * 1000,
                              "reference": hostspeed.REFERENCE_S * 1000},
            "setup_s_samples": setup_times,
            "detail": detail(records),
            "op_error_rate": sum(1 for r in records if r.error) / len(records),
            **workload.summary(records),
        }
        result_metrics = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
                          for name, value in report["end_to_end"].items()}
        if tracer:
            # median over units, so one unit that met a slow spell or paid
            # a first-call cost does not decide the figure
            per_unit: dict[int, list[float]] = {}
            for i, group in enumerate((records, traced)):
                for r in group:
                    per_unit.setdefault(r.unit, [0.0, 0.0])[i] += r.ref_seconds
            overhead = statistics.median(t / u - 1 for u, t in per_unit.values()) * 100
            terms_per_token = statistics.mean(
                [r.extra["terms_per_token"] for r in traced if "terms_per_token" in r.extra]
                or [0.0]
            )
            per_layer = layers.per_layer_metrics(tracer.spans, terms_per_token, overhead)
            report["per_layer"] = per_layer
            report["rss_mb_by_stage"] = layers.rss_by_stage(tracer.spans)
            trace_path = out / f"trace-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(trace_path)
            report["trace_file"] = trace_path.name
            result_metrics = {name: {"value": per_layer[name], "unit": unit}
                              for name, unit in layers.PER_LAYER}
        report_path = out / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json"
        report_path.write_text(json.dumps(report, indent=2, sort_keys=True, default=str) + "\n")
        print(f"report: {report_path}")
        print(json.dumps({"environment": report["environment"], "sizes": report["sizes"],
                          "units": units, "detail": report["detail"]}, sort_keys=True))
        return {
            "correct": not failures,
            "attempted": len(executed),
            "failed": len(failures),
            "metrics": result_metrics,
        }
    finally:
        workloads.clean(workdir)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("sessions", "ingest", "tune"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "irfkit" / "__init__.py").is_file():
        print(f"error: no irfkit sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # one client, no helper threads: keep numpy's BLAS single-threaded
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))
    import irfkit

    if Path(irfkit.__file__).resolve().parent != (SRC / "irfkit").resolve():
        print(f"error: imported irfkit from {irfkit.__file__}, not {SRC}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except Exception:  # the harness itself broke: no result line
        traceback.print_exc()
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
