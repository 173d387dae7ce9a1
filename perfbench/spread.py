"""Run one workload over several seeds and report how far its metrics spread.

    python3 perfbench/spread.py --workload read-mix --seeds 1-20 --sets 2

Each seed is one ``perfbench/run.py`` process with the run length declared
in ``BENCHMARK.json``, run in the order given.  With ``--sets N`` run *i*
belongs to set ``i mod N``, so the sets alternate and a drift in the host's
speed reaches each of them alike.  For each set and end-to-end metric the
report gives the median of its runs, the first and third quartiles (as
``statistics.quantiles(values, n=4)``), the spread ``(Q3 - Q1) / median``
and the metric's bound; for each later set, how far its median lies from
the first set's, as a share of the first.  The exit code is 1 when a run
fails or reports an incorrect answer.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import harness  # noqa: E402


def parse_seeds(text: str) -> list[int]:
    """``"1-3,7"`` -> ``[1, 2, 3, 7]``."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv: list[str] | None = None) -> int:
    declared = json.loads(harness.BENCHMARK.read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True)
    parser.add_argument("--seconds", type=float, default=declared["run_seconds"])
    parser.add_argument("--sets", type=int, default=1)
    args = parser.parse_args(argv)

    runs: list[dict[str, float] | None] = []
    walls, bad = [], 0
    for index, seed in enumerate(args.seeds):
        started = time.monotonic()
        process = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=harness.ROOT, capture_output=True, text=True,
        )
        walls.append(time.monotonic() - started)
        if process.returncode != 0:
            bad += 1
            runs.append(None)
            print(f"seed={seed} exited {process.returncode}: {process.stderr[-1000:]}")
            continue
        result = json.loads(process.stdout.strip().splitlines()[-1])
        bad += 0 if result["correct"] else 1
        runs.append({name: metric["value"] for name, metric in result["metrics"].items()})
        line = " ".join(f"{name}={value:.4g}" for name, value in runs[-1].items())
        print(
            f"set={index % args.sets} seed={seed} wall={walls[-1]:.1f}s failed={result['failed']} {line}",
            flush=True,
        )

    print(f"wall: median {statistics.median(walls):.1f}s, max {max(walls):.1f}s")
    first: dict[str, float] = {}
    for number in range(args.sets):
        members = [run for run in runs[number :: args.sets] if run is not None]
        for metric in declared["end_to_end"]:
            name = metric["name"]
            series = [run[name] for run in members]
            if len(series) < 2:
                continue
            q1, _, q3 = statistics.quantiles(series, n=4)
            middle = statistics.median(series)
            first.setdefault(name, middle)
            print(
                f"set={number} {name:<12} median={middle:<10.5g} q1={q1:<10.5g} q3={q3:<10.5g} "
                f"spread={harness.quartile_spread(series):.3f} "
                f"vs_set0={middle / first[name] - 1.0:+.3f} bound={metric['bound']}"
            )
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
