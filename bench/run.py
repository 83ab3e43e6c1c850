"""Benchmark of ranktwo: one seeded workload per run, every output checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload basis-large --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Workloads are ``basis-large``, ``braid-eq`` and ``small-sweep`` (see
``workloads.py``; ``all`` runs each in its own process).  The package is
imported from ``src/`` of the checkout; nothing is installed.

A run is one single-threaded process with one closed-loop caller: the
next task starts when the previous one has finished and its output has
been checked.  With ``--trace 0`` it times tasks for ``--seconds``
seconds (and at least 1000 tasks) and reports the end-to-end metrics;
with ``--trace 1`` it runs a fixed number of tasks twice, untraced and
then traced, so that every count repeats exactly for a seed, and reports
the per-layer metrics derived from the spans.  End-to-end times are
corrected for a shared core's contention as ``pace.py`` describes; the
uncorrected values and the slowdown are kept in the result file.

Human-readable lines come first; the last line of standard output is
one JSON object.  Results and spans are also written under
``.bench_out/``.  The exit code is 0 only when every output check
passed.
"""

from __future__ import annotations

import argparse
import array
import gc
import hashlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter, perf_counter_ns
from typing import Any

from pace import Pace
from tracing import LAYERS, PER_LAYER, Direct, Tracer, layer_metrics, write_spans
from workloads import WORKLOADS, Library

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

MIN_TASKS = 1000  # so that at least ten latencies lie beyond the 99th percentile
SETUP_PROBES = (8, 7)  # fresh processes before and after the timed phase
SETUP_PACE_PROBES = 300  # kernel runs after each set-up, about 20 ms
IMPORT_PROBES = 9
PROBE_TIMEOUT_S = 60

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p99_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def _parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description="ranktwo benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help="internal: time import plus warm-up in this fresh process")
    return parser.parse_args(argv)


def _max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _check_manifest() -> None:
    """Fail when BENCHMARK.json and this program disagree on names."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return
    spec = json.loads(path.read_text())
    pairs = [
        ("workloads", [w["name"] for w in spec["workloads"]], list(WORKLOADS)),
        ("end_to_end", [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(END_TO_END)),
        ("per_layer", [(m["name"], m["unit"]) for m in spec["per_layer"]], list(PER_LAYER)),
    ]
    for key, listed, produced in pairs:
        if listed != produced:
            raise SystemExit("BENCHMARK.json %s do not match bench/run.py" % key)


def _probe_setup(name: str) -> None:
    """Print the seconds from `import ranktwo` to the end of the warm-up, and the slowdown."""
    wl = WORKLOADS[name]
    warm = wl.warmup_inputs()
    start = perf_counter()
    lib = Library(wl.uses_cli)
    for task in warm:
        wl.run(lib, Direct(), task)
    seconds = perf_counter() - start
    pace = Pace()
    for _ in range(SETUP_PACE_PROBES):
        pace.probe()
    print(seconds, pace.slowdown())


def _run_child(cmd: list[str], env: dict[str, str] | None = None) -> subprocess.CompletedProcess:
    return subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S, check=True)


def _setup_seconds(name: str, probes: int) -> list[tuple[float, float]]:
    """(seconds, slowdown) of `probes` set-ups, each in a fresh process."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--probe-setup"]
    samples = []
    for _ in range(probes):
        seconds, slowdown = _run_child(cmd).stdout.split()[-2:]
        samples.append((float(seconds), float(slowdown)))
    return samples


def _import_seconds() -> dict[str, float]:
    """Median self time of each layer module under `python -X importtime`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    cmd = [sys.executable, "-X", "importtime", "-c", "import ranktwo, ranktwo.cli"]
    samples: dict[str, list[float]] = {layer: [] for layer in LAYERS}
    for _ in range(IMPORT_PROBES):
        for line in _run_child(cmd, env).stderr.splitlines():
            fields = [f.strip() for f in line.partition(":")[2].split("|")]
            if len(fields) == 3 and fields[2].startswith("ranktwo."):
                layer = fields[2][len("ranktwo."):]
                if layer in samples:
                    samples[layer].append(int(fields[0]) / 1e6)
    return {layer: statistics.median(s) for layer, s in samples.items()}


def _time_task(wl: Any, lib: Any, calls: Any, task: Any, i: int,
               failures: list[tuple[int, str, str]]) -> int:
    """Run and check one task; returns its latency in nanoseconds.

    Only the library calls are timed; the output checks run after the
    clock stops.  Failures are appended as (task, call, message).
    """
    calls.begin(i)
    start = perf_counter_ns()
    try:
        out = wl.run(lib, calls, task)
    except Exception as exc:  # a failed task is counted, and the loop goes on
        latency = perf_counter_ns() - start
        calls.end()
        failures.append((i, "task", "%s: %s" % (type(exc).__name__, str(exc)[:200])))
        return latency
    latency = perf_counter_ns() - start
    calls.end()
    for name, message in wl.check(task, out):
        calls.check_failed(name)
        failures.append((i, name, message))
    return latency


def _timed_loop(wl: Any, lib: Any, tasks: list, seconds: float
                ) -> tuple[array.array, list[tuple[int, str, str]], Pace]:
    """Closed loop cycling over `tasks` for `seconds`, and at least MIN_TASKS tasks.

    The reference kernel runs between tasks, outside their latencies.
    """
    calls = Direct()
    pace = Pace()
    latencies = array.array("q")  # 8 bytes a task, so memory barely grows with the task count
    failures: list[tuple[int, str, str]] = []
    deadline = perf_counter() + seconds
    i = 0
    while i < MIN_TASKS or perf_counter() < deadline:
        latencies.append(_time_task(wl, lib, calls, tasks[i % len(tasks)], i, failures))
        pace.poll()
        i += 1
    return latencies, failures, pace


def _traced_pass(wl: Any, lib: Any, tasks: list
                 ) -> tuple[list[int], list[int], Any, list, list]:
    """One pass over `tasks`, each task run untraced and traced.

    The two runs of a task alternate in order from task to task, so
    that neither side always runs warm; the difference of their summed
    latencies is the tracing overhead.
    """
    direct, tracer = Direct(), Tracer()
    latencies: dict[Any, list[int]] = {direct: [], tracer: []}
    failures: dict[Any, list[tuple[int, str, str]]] = {direct: [], tracer: []}
    for i, task in enumerate(tasks):
        for calls in ((direct, tracer) if i % 2 == 0 else (tracer, direct)):
            latencies[calls].append(_time_task(wl, lib, calls, task, i, failures[calls]))
    return latencies[direct], latencies[tracer], tracer, failures[direct], failures[tracer]


def _self_test(wl: Any, lib: Any) -> list[str]:
    """Tamper with correct results and confirm that the checks catch each change."""
    problems: list[str] = []
    caught: set[str] = set()
    for task in wl.warmup_inputs():
        out = wl.run(lib, Direct(), task)
        if wl.check(task, out):
            problems.append("check rejects a correct result for %r" % (task,))
        for label, bad in wl.tampered(out):
            if wl.check(task, bad):
                caught.add(label)
            else:
                problems.append("check misses a %s for %r" % (label, task))
    missing = set(wl.tampers) - caught
    if missing:
        problems.append("no warm-up result to try a %s on" % ", ".join(sorted(missing)))
    return problems


def _percentile_rank(n: int, q: float) -> int:
    """1-based nearest rank of the q-quantile of n samples."""
    return max(1, math.ceil(q * n))


def main(argv: list[str] | None = None) -> int:
    args = _parse_args(argv)
    if not (SRC / "ranktwo" / "__init__.py").is_file():
        print("error: no ranktwo package under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return _run_all(args)
    if args.workload not in WORKLOADS:
        print("error: unknown workload %r; expected one of %s or all"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    if args.probe_setup:
        _probe_setup(args.workload)
        return 0
    _check_manifest()
    return _run_workload(WORKLOADS[args.workload], args)


def _run_workload(wl: Any, args: argparse.Namespace) -> int:
    setup: list[tuple[float, float]] = []
    if not args.trace:
        _setup_seconds(wl.name, 1)  # compiles the package's bytecode once, untimed
        setup = _setup_seconds(wl.name, SETUP_PROBES[0])
    import_s = _import_seconds() if args.trace else {}

    tasks = wl.inputs(args.seed)
    digest = hashlib.sha256(repr(tasks).encode()).hexdigest()
    rss_inputs_mb = _max_rss_mb()

    lib = Library(wl.uses_cli)
    for task in wl.warmup_inputs():
        wl.run(lib, Direct(), task)
    problems = _self_test(wl, lib)
    if problems:
        for p in problems:
            print("self-test: " + p, file=sys.stderr)
        return 1
    gc.collect()
    gc.freeze()  # the generated inputs live for the whole run

    report: dict[str, Any] = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "input_digest": digest, "input_tasks": len(tasks), "rss_after_inputs_mb": rss_inputs_mb,
    }
    if args.trace:
        plain_lat, traced_lat, tracer, plain_fail, traced_fail = _traced_pass(wl, lib, tasks)
        artin = sum(wl.hardness(lib, task) for task in tasks) if hasattr(wl, "hardness") else 0
        overhead = (sum(traced_lat) - sum(plain_lat)) / 1e9
        units = dict(PER_LAYER)
        values = layer_metrics(tracer, import_s, artin, overhead)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
        attempted = 2 * len(tasks)
        failures = plain_fail + traced_fail
        failed = len({i for i, _, _ in plain_fail}) + len({i for i, _, _ in traced_fail})
        spans_path = OUT / ("spans-%s-seed%d.jsonl.gz" % (wl.name, args.seed))
        write_spans(tracer, spans_path)
        report.update(untraced_busy_s=sum(plain_lat) / 1e9, traced_busy_s=sum(traced_lat) / 1e9,
                      spans=len(tracer.spans), spans_file=str(spans_path.relative_to(ROOT)))
    else:
        start = perf_counter()
        latencies, failures, pace = _timed_loop(wl, lib, tasks, args.seconds)
        wall = perf_counter() - start
        peak_rss_mb = _max_rss_mb()
        setup += _setup_seconds(wl.name, SETUP_PROBES[1])
        lat = sorted(latencies)
        attempted = len(lat)
        failed = len({i for i, _, _ in failures})
        rank99 = _percentile_rank(attempted, 0.99)
        raw = {
            "ops_per_s": attempted / (sum(lat) / 1e9),
            "latency_p50_ms": statistics.median(lat) / 1e6,
            "latency_p99_ms": lat[rank99 - 1] / 1e6,
        }
        slowdown = pace.slowdown()
        values = {
            "ops_per_s": raw["ops_per_s"] * slowdown,
            "latency_p50_ms": raw["latency_p50_ms"] / slowdown,
            "latency_p99_ms": raw["latency_p99_ms"] / slowdown,
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(seconds / sd for seconds, sd in setup),
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END}
        report.update(wall_s=wall, p99_samples=attempted, p99_beyond=attempted - rank99,
                      passes=attempted / len(tasks), slowdown=slowdown, pace_probes=len(pace.samples),
                      uncorrected=raw, setup_samples=setup)
    report.update(attempted=attempted, failed=failed, error_rate=failed / attempted,
                  failures=failures[:20], metrics=metrics)
    OUT.mkdir(exist_ok=True)
    result_path = OUT / ("result-%s-seed%d-trace%d.json" % (wl.name, args.seed, args.trace))
    result_path.write_text(json.dumps(report, indent=1) + "\n")

    for i, name, message in failures[:20]:
        print("FAILED task %d %s: %s" % (i, name, message))
    for key in ("workload", "seed", "input_digest", "input_tasks", "rss_after_inputs_mb"):
        print("%-28s %s" % (key, report[key]))
    for key, m in metrics.items():
        print("%-40s %.6g %s" % (key, m["value"], m["unit"]))
    if not args.trace:
        print("%-40s %d of %d tasks beyond it" % ("latency_p99_ms samples", report["p99_beyond"], attempted))
        print("%-40s %.4g (%d kernel runs); uncorrected %s" % (
            "slowdown", report["slowdown"], report["pace_probes"],
            ", ".join("%s %.6g" % kv for kv in raw.items())))
    print("%-40s %.6g (%d of %d tasks failed)" % ("error_rate", failed / attempted, failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def _run_all(args: argparse.Namespace) -> int:
    """Run every workload in its own process and print one table."""
    rows = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        rows.append((name, proc.returncode, result))
    ok = all(code == 0 for _, code, _ in rows)
    for name, code, result in rows:
        if result is None:
            print("%-12s exit %d, no result" % (name, code))
            continue
        print("%-12s correct=%s attempted=%d failed=%d error_rate=%.6g" % (
            name, result["correct"], result["attempted"], result["failed"],
            result["failed"] / result["attempted"]))
        for key, m in result["metrics"].items():
            print("  %-40s %.6g %s" % (key, m["value"], m["unit"]))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
