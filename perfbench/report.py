"""Run every workload untraced and traced, and print all metrics.

    python3 perfbench/report.py [--seed N] [--seconds S]

Run from the repository root.  Each workload runs twice in a fresh
process through run.py: once with tracing off for the end-to-end metrics
and once traced for the per-layer metrics.  The report adds, per
workload, the tracing overhead (traced wall_s minus untraced wall_s) and
the share of the traced wall time that each layer's self time covers.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, trace: int, seed: int, seconds: float) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return lines[:-1], json.loads(lines[-1])


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    args = p.parse_args()
    for wl in (w["name"] for w in spec["workloads"]):
        print(f"== {wl}")
        untraced = None
        for trace in (0, 1):
            lines, result = run(wl, trace, args.seed, args.seconds)
            print("\n".join(lines))
            print(f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']}")
            m = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 0:
                untraced = m["wall_s"]
                continue
            wall = m["trace.wall_s"]
            print(f"tracing overhead = {wall - untraced:.4f} s "
                  f"({(wall - untraced) / untraced:+.2%} of untraced wall_s)")
            for layer in ("cli",) + LAYERS:
                print(f"self-time share {layer} = {m[f'{layer}.self_s'] / wall:.2%}")


if __name__ == "__main__":
    main()
