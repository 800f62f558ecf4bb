"""Collate ``benchmarks/results/*.timing.json`` into one trajectory table.

Every benchmark that calls :func:`benchmarks.conftest.emit_timing` leaves a
``<name>.timing.json`` behind — wall times, speedup factors, and the
environment stamp that makes the numbers comparable across commits.  This
script merges them into a single table (one row per measured speedup, with
the slowest/fastest wall time of its benchmark alongside) and a combined
``summary.json`` so a perf trajectory across PRs is one artifact diff, not
a directory crawl.

Usage::

    PYTHONPATH=src python benchmarks/summarize.py
    PYTHONPATH=src python benchmarks/summarize.py --results-dir benchmarks/results

Exit status is non-zero when no timing artifacts are found (an empty
summary usually means the benchmarks did not run).

``--perfbench BENCH_<n>.json`` records the repository benchmark instead:
given the saved output of ``python3 perfbench/run.py --workload all`` for a
parent and a change checkout (``--parent-log``/``--change-log``, with their
commit ids), it writes each workload's result line for both into
``BENCH_<n>.json`` and prints the change against the parent.  Without the
logs it reads an existing file.  Either way it then prints the change
against the previous ``BENCH_*.json`` beside it (or says there is none)::

    PYTHONPATH=src python benchmarks/summarize.py --perfbench BENCH_16.json \
        --parent-log parent.log --parent-commit <sha> \
        --change-log change.log --change-commit <sha>
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.reporting.export import rows_to_csv
from repro.reporting.tables import render_table


def load_timings(results_dir: Path) -> list[dict]:
    """All ``*.timing.json`` documents under ``results_dir``, sorted by bench."""
    documents = []
    for path in sorted(results_dir.glob("*.timing.json")):
        with path.open(encoding="utf-8") as handle:
            document = json.load(handle)
        document.setdefault("bench", path.name.removesuffix(".timing.json"))
        documents.append(document)
    return documents


def trajectory_rows(documents: list[dict]) -> list[dict]:
    """One row per measured speedup (benches without speedups still get one)."""
    rows = []
    for document in documents:
        wall_times = document.get("wall_times_s") or {}
        speedups = document.get("speedups") or {}
        environment = document.get("environment") or {}
        base = {
            "bench": document["bench"],
            "slowest_s": max(wall_times.values(), default=None),
            "fastest_s": min(wall_times.values(), default=None),
            "python": environment.get("python"),
            "numpy": environment.get("numpy"),
            "cpu_count": environment.get("cpu_count"),
        }
        if not speedups:
            rows.append({**base, "metric": "-", "speedup_x": None})
            continue
        for metric, value in sorted(speedups.items()):
            rows.append({**base, "metric": metric, "speedup_x": value})
    return rows


def summarize(results_dir: Path, output: Path | None) -> int:
    documents = load_timings(results_dir)
    if not documents:
        print(f"no *.timing.json artifacts under {results_dir}", file=sys.stderr)
        return 1
    rows = trajectory_rows(documents)
    print(
        render_table(
            rows,
            columns=[
                "bench",
                "metric",
                "speedup_x",
                "fastest_s",
                "slowest_s",
                "python",
                "numpy",
                "cpu_count",
            ],
            title=f"Benchmark trajectory ({len(documents)} bench(es))",
        )
    )
    if output is not None:
        payload = {"benches": documents, "rows": rows}
        output.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
        rows_to_csv(rows, output.with_suffix(".csv"))
        print(f"\nwrote {output} and {output.with_suffix('.csv')}")
    return 0


def perfbench_results(log: Path) -> dict[str, dict]:
    """Workload name -> the result line of each run in a perfbench log,
    with the run's header line (seed, seconds, inputs) under ``"run"``."""
    results, header = {}, None
    for line in log.read_text(encoding="utf-8").splitlines():
        if line.startswith("perfbench "):
            header = line
        elif line.startswith("{") and header is not None:
            results[header.split()[1]] = {"run": header, **json.loads(line)}
            header = None
    if not results:
        raise SystemExit(f"no perfbench result lines in {log}")
    return results


def _bench_number(path: Path) -> int:
    return int(path.stem.removeprefix("BENCH_"))


def delta_rows(before: dict, after: dict) -> list[dict]:
    """One row per (workload, metric) present in both: values and ratio."""
    rows = []
    for workload, result in after.items():
        if workload not in before:
            continue
        for metric, entry in result["metrics"].items():
            old = before[workload]["metrics"].get(metric)
            if old is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "metric": metric,
                    "before": old["value"],
                    "after": entry["value"],
                    "after_over_before": entry["value"] / old["value"] if old["value"] else None,
                    "failed": f"{before[workload]['failed']} -> {result['failed']}",
                }
            )
    return rows


def record_perfbench(path: Path, args) -> int:
    """Write (when logs are given) and report one ``BENCH_<n>.json``."""
    if args.parent_log is not None or args.change_log is not None:
        if None in (args.parent_log, args.change_log, args.parent_commit, args.change_commit):
            raise SystemExit("--perfbench needs both logs and both commit ids to record")
        document = {
            "command": "python3 perfbench/run.py --workload all",
            "parent": {"commit": args.parent_commit, "results": perfbench_results(args.parent_log)},
            "change": {"commit": args.change_commit, "results": perfbench_results(args.change_log)},
        }
        path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
        print(f"wrote {path}")
    document = json.loads(path.read_text(encoding="utf-8"))
    columns = ["workload", "metric", "before", "after", "after_over_before", "failed"]
    print(
        render_table(
            delta_rows(document["parent"]["results"], document["change"]["results"]),
            columns=columns,
            title=f"{path.name}: change {document['change']['commit'][:12]} "
            f"against parent {document['parent']['commit'][:12]}",
        )
    )
    earlier = [
        other
        for other in path.parent.glob("BENCH_*.json")
        if other.stem.removeprefix("BENCH_").isdigit()
        and _bench_number(other) < _bench_number(path)
    ]
    if not earlier:
        print(f"\nno earlier BENCH_*.json beside {path.name}: no delta to report")
        return 0
    previous_path = max(earlier, key=_bench_number)
    previous = json.loads(previous_path.read_text(encoding="utf-8"))
    print()
    print(
        render_table(
            delta_rows(previous["change"]["results"], document["change"]["results"]),
            columns=columns,
            title=f"{path.name} against {previous_path.name} (change over change)",
        )
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--results-dir",
        type=Path,
        default=Path(__file__).parent / "results",
        help="directory holding *.timing.json artifacts (default: benchmarks/results)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        help="write the merged summary JSON (and CSV twin) here; "
        "default: <results-dir>/summary.json",
    )
    parser.add_argument(
        "--perfbench",
        type=Path,
        default=None,
        metavar="BENCH_N.json",
        help="record/report the repository benchmark in this file instead",
    )
    parser.add_argument("--parent-log", type=Path, default=None)
    parser.add_argument("--change-log", type=Path, default=None)
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--change-commit", default=None)
    args = parser.parse_args(argv)
    if args.perfbench is not None:
        return record_perfbench(args.perfbench, args)
    output = args.output if args.output is not None else args.results_dir / "summary.json"
    return summarize(args.results_dir, output)


if __name__ == "__main__":
    raise SystemExit(main())
