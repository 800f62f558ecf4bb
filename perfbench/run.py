"""The repository benchmark: four reference workloads against the public API of ``repro``.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload fleet-urban --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1     # every workload in turn

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
is a separate run that alternates untraced and traced passes and reports
the per-layer metrics plus the tracing overhead.  The report lines name
every metric with its unit and sample count; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is imported from the checkout's ``src/``; without
it the benchmark exits non-zero before printing a result.
"""

from __future__ import annotations

import time

# Set-up time starts here, before the program is imported.
_STARTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers  # noqa: E402
from perfbench.calibration import host_factor, kernel_seconds  # noqa: E402
from perfbench.stats import describe, nearest_rank  # noqa: E402
from perfbench.tracing import Patches, Tracer  # noqa: E402

WORK_ROOT = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("fleet-urban", "fleet-thermal", "study-grid", "serve-mix")

#: Fresh-interpreter set-ups measured per run, besides the run's own.
SETUP_PROBES = 6
#: Fewest timed passes a run makes (per kind, in a traced run).
MIN_PASSES = 3
MIN_TRACED_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "peak_rss_mb": "MB",
}


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0, help="input size factor (tests use small ones)"
    )
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _import_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source under {SOURCE}")
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {SOURCE}")


def _probe_setup(args) -> tuple[float, float]:
    """``(set-up seconds, host factor)`` of the workload in a fresh interpreter."""
    command = [
        sys.executable,
        str(Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--scale", repr(args.scale),
        "--setup-probe",
    ]  # fmt: skip
    completed = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=120, check=False
    )
    if completed.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {completed.stderr.strip()}")
    probe = json.loads(completed.stdout.strip().splitlines()[-1])
    return probe["setup_s"], probe["factor"]


def _measure(workload, seconds: float, traced: bool):
    """Timed passes until ``seconds`` are used; traced runs alternate plain and traced.

    The reference kernel runs between passes; each pass gets the host factor
    of the kernel times before and after it.  Returns ``(plain_passes,
    traced_passes, tracer, stats_delta)``.
    """
    tracer = Tracer() if traced else None
    stats_delta: dict[str, dict[str, float]] = {}
    plain, traced_passes = [], []
    kernel_before = kernel_seconds()
    started = time.perf_counter()
    index = 0
    while True:
        done = plain + traced_passes
        if traced:
            enough = min(len(plain), len(traced_passes)) >= MIN_TRACED_PASSES
        else:
            enough = len(plain) >= MIN_PASSES
        if enough:
            typical = sorted(p.seconds for p in done)[len(done) // 2]
            if time.perf_counter() - started + typical / 2 > seconds:
                break
        if traced and index % 2 == 1:
            before = workload.stats()
            patches = Patches(tracer)
            layers.install(patches)
            workload.tracer = tracer
            try:
                current = workload.run_pass(index)
            finally:
                workload.tracer = None
                patches.remove()
            traced_passes.append(current)
            for key, after in workload.stats().items():
                delta = stats_delta.setdefault(key, {})
                for name in ("hits", "misses", "evictions"):
                    delta[name] = delta.get(name, 0) + after[name] - before[key][name]
        else:
            current = workload.run_pass(index)
            plain.append(current)
        kernel_after = kernel_seconds()
        current.factor = host_factor(kernel_before, kernel_after)
        kernel_before = kernel_after
        index += 1
    return plain, traced_passes, tracer, stats_delta


def _end_to_end(workload, passes, setup, report) -> dict[str, float]:
    """End-to-end metrics at the reference host speed; the raw figures are printed too.

    ``setup`` holds ``(seconds, host factor)`` per set-up.
    """
    factors = [p.factor for p in passes]
    setup_s = [seconds * factor for seconds, factor in setup]
    throughput = [p.units / (p.seconds * p.factor) for p in passes if p.units]
    latencies = [
        ms * p.factor for p in passes for values in p.latencies_ms.values() for ms in values
    ]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    report(f"host_factor: {describe(factors, 'x')} (1 = reference host speed)")
    report(f"setup_s: {describe(setup_s, 's')} at reference speed")
    report(f"setup_s as measured: {describe([seconds for seconds, _ in setup], 's')}")
    report(f"throughput_per_s: {describe(throughput, '1/s')} at reference speed, over passes")
    raw_throughput = [p.units / p.seconds for p in passes if p.units]
    report(f"{workload.throughput_metric}: {describe(raw_throughput, '1/s')} as measured")
    report(f"latency_p50_ms: {describe(latencies, 'ms')} at reference speed")
    by_class: dict[str, list[float]] = {}
    for p in passes:
        for name, values in p.latencies_ms.items():
            by_class.setdefault(name, []).extend(values)
    for name, values in sorted(by_class.items()):
        if values:
            label = "pass_ms" if name == "pass" else f"{name}_request_ms"
            report(f"{label}: {describe(values, 'ms')} as measured")
    for name in ("cold", "warm"):
        values = by_class.get(name)
        if values:
            for percentile in (50, 90):
                value, beyond = nearest_rank(values, percentile)
                report(
                    f"{name}_request_p{percentile}_ms: {value:.6g} ms as measured "
                    f"(n={len(values)}, {beyond} beyond)"
                )
    report(f"peak_rss_mb: {peak_rss_mb:.6g} MB (n=1)")
    return {
        "setup_s": statistics.median(setup_s),
        "throughput_per_s": statistics.median(throughput),
        "latency_p50_ms": statistics.median(latencies),
        "peak_rss_mb": peak_rss_mb,
    }


def _per_layer(plain, traced, tracer, stats_delta, report) -> dict[str, float]:
    wall_s = sum(p.seconds for p in traced) / len(traced)
    seconds = layers.layer_seconds(tracer.spans, len(traced))
    metrics = layers.per_layer_metrics(
        seconds,
        wall_s,
        tracer.counters,
        len(traced),
        stats_delta.get("store", {}),
        stats_delta.get("cache", {}),
    )
    untraced_s = statistics.median(p.seconds * p.factor for p in plain)
    traced_s = statistics.median(p.seconds * p.factor for p in traced)
    metrics["trace.spans"] = len(tracer.spans) / len(traced)
    metrics["trace.untraced_pass_s"] = untraced_s
    metrics["trace.traced_pass_s"] = traced_s
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    report(
        f"tracing overhead: {traced_s - untraced_s:+.4f} s per pass "
        f"({(traced_s - untraced_s) / untraced_s:+.1%} of {untraced_s:.4f} s; "
        f"n={len(plain)} plain, {len(traced)} traced passes; reference speed)"
    )
    for name, value in sorted(seconds.items(), key=lambda item: -item[1]):
        if value > 0.0:
            share = metrics[name[: -len("_s")] + "_pct"]
            report(f"{name}: {value:.6g} s per pass ({share:.3g}% of traced wall time)")
    for name, unit in layers.PER_LAYER_UNITS.items():
        if unit != "%":
            report(f"{name}: {metrics[name]:.6g} {unit}")
    return metrics


def _run_all(args) -> int:
    """Every workload in turn, each in its own interpreter."""
    status = 0
    for name in WORKLOAD_NAMES:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", name,
            "--seed", str(args.seed),
            "--seconds", repr(args.seconds),
            "--trace", str(args.trace),
            "--scale", repr(args.scale),
        ]  # fmt: skip
        status = subprocess.run(command, cwd=ROOT, check=False).returncode or status
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.workload == "all":
        return _run_all(args)
    _import_program()
    from perfbench.workloads import WORKLOADS

    work_dir = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(work_dir)
    workload = WORKLOADS[args.workload](args.seed, work_dir, args.scale)
    lines: list[str] = []
    try:
        workload.setup()
        setup = [(time.perf_counter() - _STARTED, host_factor(kernel_seconds()))]
        if args.setup_probe:
            print(json.dumps({"setup_s": setup[0][0], "factor": setup[0][1]}))
            return 0
        if not args.trace:
            setup += [_probe_setup(args) for _ in range(SETUP_PROBES)]
        plain, traced, tracer, stats_delta = _measure(workload, args.seconds, bool(args.trace))
        workload.verify()
    finally:
        workload.close()
        with contextlib.suppress(OSError):
            WORK_ROOT.rmdir()  # only once no other run is using it

    lines.append(
        f"perfbench {workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} inputs={json.dumps(workload.inputs())}"
    )
    if args.trace:
        metrics = _per_layer(plain, traced, tracer, stats_delta, lines.append)
        units = layers.PER_LAYER_UNITS
    else:
        metrics = _end_to_end(workload, plain, setup, lines.append)
        units = END_TO_END_UNITS
    error_rate = workload.failed / workload.attempted if workload.attempted else 1.0
    lines.append(
        f"error_rate: {error_rate:.6g} ratio "
        f"({workload.failed} failed of {workload.attempted} attempted)"
    )
    for reason in workload.failures:
        lines.append(f"failure: {reason}")
    for line in lines:
        print(line)
    print(
        json.dumps(
            {
                "correct": workload.failed == 0 and workload.attempted > 0,
                "attempted": max(1, workload.attempted),
                "failed": workload.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
