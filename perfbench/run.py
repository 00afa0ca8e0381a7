"""gossiplab benchmark: one workload through the gossiplab CLI.

    python3 perfbench/run.py --workload sweep16 --seed 1 --trace 0

Run from the root of a gossiplab checkout.  The benchmark pins BLAS to one
thread before numpy is imported and imports the package from `src/`.  Its
set-up, timed several times, is importing numpy and the CLI in a fresh
process and building the workload's fixture graphs.  It then runs the
workload's call sequence, `gossiplab.cli.main(argv)` for each call, in a
fresh process, and repeats that while one more repetition still fits in
`--seconds`.  Every artifact a call writes is checked against the
reference digests in `references.json`.

With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of a separate traced run (see tracer.py).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
Human-readable lines before it print every metric with its unit and the
environment of the run.

The workloads use the graph seeds of the test fixtures so that every
artifact can be checked byte for byte; `--seed` is recorded with the
environment and gives the same inputs for every value.
"""
from __future__ import annotations

import argparse
import contextlib
import fnmatch
import hashlib
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

from tracer import CLI_SPAN, Tracer, layer_metrics

HERE = Path(__file__).resolve().parent

REFERENCES = HERE / "references.json"
BENCHMARK = HERE.parent / "BENCHMARK.json"
WORK_DIR = ".perfbench_out"

# One BLAS thread: on a shared 2-core box OpenBLAS threads spin-wait and
# the benchmark would measure that instead of gossiplab.
THREAD_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "GOSSIPLAB_THREADS": "1",
}

SETUP_REPEATS = 7
IMPORT_PROBE = ("import time; t0 = time.perf_counter(); "
                "import numpy, gossiplab.cli; "
                "print(time.perf_counter() - t0)")
REPETITION_TIMEOUT = 160   # seconds; a run must end within 180

# Files the CLI writes whose bodies are reproducible byte for byte.
ARTIFACTS = ("sweep.csv", "sweep.svg", "trajectory_*.csv", "trial_*.csv",
             "trajectories.svg", "analysis.csv", "spectral_report.json",
             "epsilon_report.json")


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple
    expect: tuple = ()      # substrings the call's stdout must contain


@dataclass(frozen=True)
class Workload:
    fixtures: tuple         # (name, n, rng seed) of geometric graphs
    calls: tuple


def _sweep(scheme):
    return Call(scheme, ("sweep", "--graph", "{graph16}", "--scheme", scheme,
                         "--trials", "4", "--max-iters", "200000",
                         "--seed", "42", "--svg", "--workers", "1"))


def _analyze(label, n, scheme, epsilon, p_asym=None, check=False):
    argv = ("analyze", "--n", str(n), "--seed", "5", "--scheme", scheme,
            "--epsilon", epsilon, "--workers", "1")
    if p_asym is not None:
        argv += ("--p-asym", p_asym)
    expect = ("is_simple_one=true",)
    if check:
        argv += ("--check", "second-moment")
        expect += ("rho<1: PASS",)
    return Call(label, argv, expect)


# Why each workload was chosen is recorded in README.md.
WORKLOADS = {
    "sweep16": Workload(
        fixtures=(("graph16", 16, 7),),
        calls=(_sweep("bbga"), _sweep("ubga1")),
    ),
    "campaign50": Workload(
        fixtures=(("graph50", 50, 21),),
        calls=(Call("campaign", (
            "simulate", "--graph", "{graph50}",
            "--schemes", "bbga,ubga1,classic", "--epsilon", "0.5",
            "--trials", "20", "--per-trial", "--svg", "--seed", "21",
            "--workers", "1"), ("failures=",)),),
    ),
    "spectral400": Workload(
        fixtures=(),
        calls=(
            _analyze("n400_bbga", 400, "bbga", "auto-optimal", p_asym="0.3"),
            _analyze("n400_ubga1", 400, "ubga1", "0.5"),
            _analyze("n200_ubga2", 200, "ubga2", "auto-eta-fraction:0.5",
                     p_asym="0.3"),
            _analyze("n20_bbga", 20, "bbga", "0.2", p_asym="0.3", check=True),
            _analyze("n16_ubga1", 16, "ubga1", "0.2", check=True),
        ),
    ),
    # tiny sizes for smoke.py: every layer, a few trials
    "smoke": Workload(
        fixtures=(("graph16", 16, 7),),
        calls=(
            Call("sweep", ("sweep", "--graph", "{graph16}", "--scheme",
                           "ubga1", "--grid", "0.2,0.5", "--trials", "2",
                           "--seed", "42", "--svg", "--workers", "1")),
            Call("simulate", ("simulate", "--graph", "{graph16}",
                              "--schemes", "ubga1,classic", "--epsilon", "0.5",
                              "--trials", "2", "--per-trial", "--svg",
                              "--seed", "21", "--workers", "1"),
                 ("failures=",)),
            _analyze("analyze", 16, "ubga1", "0.2", check=True),
        ),
    ),
}


# ---- artifacts ----

def body_digest(path: Path) -> str:
    """sha256 of an artifact without its header, which echoes paths:
    leading `#` / XML-comment lines, or the `header` key of a JSON report."""
    text = path.read_text()
    body = text
    if path.suffix == ".json":
        try:
            data = json.loads(text)
            data.pop("header", None)
            body = json.dumps(data, sort_keys=True)
        except (ValueError, AttributeError):
            pass        # not a JSON object: digest it as it is
    else:
        lines = text.splitlines(keepends=True)
        skip = 0
        while skip < len(lines) and lines[skip].startswith(("#", "<!--")):
            skip += 1
        body = "".join(lines[skip:])
    return hashlib.sha256(body.encode()).hexdigest()


def artifact_digests(out: Path) -> dict:
    if not out.is_dir():
        return {}
    return {p.name: body_digest(p) for p in sorted(out.iterdir())
            if any(fnmatch.fnmatch(p.name, pat) for pat in ARTIFACTS)}


# ---- one repetition of the call sequence, in its own process ----

def invoke(cli, argv, tracer):
    """cli.main(argv) with its output captured; never raises."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        span = tracer.open(CLI_SPAN) if tracer else None
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:
            code = exc.code
        except Exception:
            traceback.print_exc()
            code = "exception"
        finally:
            if span is not None:
                tracer.close(span)
    return code, out.getvalue(), err.getvalue()


def repetition(wl, work: Path, rep: int, traced: bool) -> dict:
    """Run the call sequence once; the record the parent process reads."""
    from gossiplab import cli

    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    paths = fixture_paths(wl, work / "fixtures")
    out_root = work / "out"
    shutil.rmtree(out_root, ignore_errors=True)
    calls = []
    for call in wl.calls:
        out = out_root / call.label
        argv = [a.format_map(paths) for a in call.argv] + ["--out", str(out)]
        if tracer:
            tracer.run = f"rep{rep}/{call.label}"
        t0 = time.perf_counter()
        code, stdout, stderr = invoke(cli, argv, tracer)
        seconds = time.perf_counter() - t0
        calls.append({"label": call.label, "seconds": seconds,
                      "code": code if isinstance(code, int) else str(code),
                      "stdout": stdout, "stderr": stderr,
                      "digests": artifact_digests(out)})
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record = {"calls": calls, "peak_rss_mb": rss_kib / 1024.0}
    if tracer:
        tracer.write(work / f"spans_rep{rep}.jsonl")
        record["layers"] = layer_metrics(tracer.spans)
        record["missing"] = tracer.missing
        record["breakdown"] = call_breakdown(tracer, calls)
    return record


def call_breakdown(tracer, calls) -> list:
    """Inclusive time per traced function for each call; the source of
    the per-size figures in README.md."""
    lines = []
    for res in calls:
        totals = {}
        for s in tracer.spans:
            if s.run.endswith("/" + res["label"]) and s.name != CLI_SPAN:
                n, t = totals.get(s.name, (0, 0.0))
                totals[s.name] = (n + 1, t + s.duration)
        lines.append(f"call {res['label']}: {res['seconds']:.4f} s")
        lines += [f"  {name}: {n} call(s) {t:.4f} s"
                  for name, (n, t) in sorted(totals.items(), key=lambda kv: -kv[1][1])
                  if t >= 0.001]
    return lines


def spawn_repetition(args, rep: int, traced: bool) -> dict:
    """One repetition in a fresh process, so that every repetition starts
    from the allocator state a user's CLI process starts from."""
    wl = WORKLOADS[args.workload]
    cmd = [sys.executable, str(Path(__file__).resolve()),
           "--workload", args.workload, "--trace", str(int(traced)),
           "--repetition", str(rep)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=REPETITION_TIMEOUT)
    except subprocess.TimeoutExpired:
        return failed_repetition(wl, f"timed out after {REPETITION_TIMEOUT} s", "")
    try:
        return json.loads(proc.stdout.splitlines()[-1])
    except (ValueError, IndexError):
        return failed_repetition(
            wl, f"repetition process exited {proc.returncode}", proc.stderr)


def failed_repetition(wl, reason: str, stderr: str) -> dict:
    return {"calls": [{"label": c.label, "seconds": 0.0, "code": reason,
                       "stdout": "", "stderr": stderr, "digests": {}}
                      for c in wl.calls],
            "peak_rss_mb": 0.0,
            "layers": None, "missing": [], "breakdown": []}


def call_problems(call: Call, res: dict, ref) -> list:
    """Reasons a call counts as failed; empty when it passed."""
    problems = []
    if res["code"] != 0:
        problems.append(f"exit code {res['code']}")
    problems += [f"stdout lacks {s!r}" for s in call.expect
                 if s not in res["stdout"]]
    if ref is None:
        problems.append("no reference digests")
        return problems
    digests = res["digests"]
    for name in sorted(set(ref) | set(digests)):
        if name not in digests:
            problems.append(f"{name} missing")
        elif name not in ref:
            problems.append(f"{name} not in the references")
        elif digests[name] != ref[name]:
            problems.append(f"{name} differs from its reference")
    return problems


def trial_failures(rec: dict) -> int:
    """Failed trials of a repetition, as simulate reports them; each is a
    failed trial operation, not a failed call."""
    return sum(int(n) for c in rec["calls"]
               for n in re.findall(r"failures=(\d+)", c["stdout"]))


# ---- environment ----

def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def blas_version(np) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, AttributeError):
        return "unknown"


def git_commit(root: Path) -> str:
    """Commit of a git checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibrate(np) -> float:
    """Median time of a fixed pure-numpy loop of small-array updates, the
    kind of work the trial engine does.  Shows host speed drift between
    runs; never used to rescale a metric."""
    x = np.random.default_rng(0).random(16)
    idx = np.array([1, 4, 9])
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(5000):
            x[idx] = 0.5 * x[idx] + 0.25 * x[0]
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment(np, root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_version(np),
        "threads": {k: os.environ.get(k) for k in THREAD_ENV},
        "commit": git_commit(root),
        "seed": seed,
        "calibration_s": calibrate(np),
    }


# ---- main ----

def fixture_paths(wl, fixture_dir: Path) -> dict:
    return {name: str(fixture_dir / f"{name}.txt") for name, _, _ in wl.fixtures}


def build_fixtures(graph, np, wl, fixture_dir: Path) -> None:
    fixture_dir.mkdir(parents=True, exist_ok=True)
    paths = fixture_paths(wl, fixture_dir)
    for name, n, seed in wl.fixtures:
        g = graph.random_geometric_graph(n, graph.connectivity_radius(n),
                                         np.random.default_rng(seed))
        graph.save_graph(g, paths[name])


def import_seconds(src: Path) -> float:
    """Time a fresh Python process takes to import numpy and the CLI."""
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(src)), timeout=60, check=True)
    return float(proc.stdout)


def load_references(path: Path, workload: str):
    try:
        return json.loads(path.read_text())["workloads"].get(workload)
    except (OSError, ValueError, KeyError) as exc:
        print(f"cannot read references {path}: {exc}", file=sys.stderr)
        return None


def record_references(path: Path, workload: str, rec: dict, commit: str) -> None:
    data = json.loads(path.read_text()) if path.is_file() else {"workloads": {}}
    data["workloads"][workload] = {
        "commit": commit,
        "trials": rec["layers"]["sim.trials"],
        "broadcasts": rec["layers"]["sim.broadcasts"],
        "calls": {c["label"]: c["digests"] for c in rec["calls"]},
    }
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def print_metric(name, value, unit):
    print(f"metric {name} = {value:.6g} {unit}")


def benchmark_spec() -> dict:
    return json.loads(BENCHMARK.read_text())


def declared_metrics(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in benchmark_spec()[kind]}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=benchmark_spec()["run_seconds"],
                   help="measure for about this long (at least one repetition; "
                        "default: run_seconds of BENCHMARK.json)")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-references", action="store_true",
                   help="run once traced and store the artifact digests "
                        "and counts as the workload's references")
    p.add_argument("--repetition", type=int, help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "gossiplab" / "cli.py").is_file():
        print(f"no gossiplab sources under {src}; run from the repository root",
              file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)      # before numpy is imported
    sys.path.insert(0, str(src))
    wl = WORKLOADS[args.workload]
    work = root / WORK_DIR / args.workload
    traced = bool(args.trace) or args.record_references

    if args.repetition is not None:
        print(json.dumps(repetition(wl, work, args.repetition, traced)))
        return 0

    import numpy as np
    from gossiplab import graph
    shutil.rmtree(work, ignore_errors=True)
    import_s, prepare = [], []
    for _ in range(SETUP_REPEATS):
        import_s.append(import_seconds(src))
        t0 = time.perf_counter()
        build_fixtures(graph, np, wl, work / "fixtures")
        ref = None if args.record_references else load_references(
            REFERENCES, args.workload)
        prepare.append(time.perf_counter() - t0)
    setup_s = statistics.median(import_s) + statistics.median(prepare)

    env = environment(np, root, args.seed)
    print("env " + json.dumps(env, sort_keys=True))

    reps = []
    t_measure = time.perf_counter()
    while True:
        reps.append(spawn_repetition(args, len(reps), traced))
        spent = time.perf_counter() - t_measure
        if args.record_references or spent + spent / len(reps) > args.seconds:
            break

    if args.record_references:
        if reps[0]["layers"] is None:
            print("recording failed: the repetition did not finish", file=sys.stderr)
            return 1
        record_references(REFERENCES, args.workload, reps[0], env["commit"])
        print(f"recorded references for {args.workload} in {REFERENCES}")
        ref = load_references(REFERENCES, args.workload)

    calls = {c.label: c for c in wl.calls}
    failed_calls = 0
    for rep, rec in enumerate(reps):
        for res in rec["calls"]:
            problems = call_problems(
                calls[res["label"]], res,
                None if ref is None else ref["calls"].get(res["label"]))
            if problems:
                failed_calls += 1
                print(f"FAILED rep {rep} call {res['label']}: " + "; ".join(problems))
                sys.stderr.write(res["stderr"])
    trials = 0 if ref is None else ref["trials"]
    broadcasts = 0 if ref is None else ref["broadcasts"]
    attempted = len(reps) * (len(wl.calls) + trials)
    failed = failed_calls + sum(trial_failures(rec) for rec in reps)

    wall = [sum(c["seconds"] for c in rec["calls"]) for rec in reps]
    wall_s = statistics.median(wall)
    print(f"workload {args.workload}: {len(reps)} repetition(s), "
          f"trace={int(traced)}, wall per repetition "
          + " ".join(f"{w:.4f}" for w in wall) + " s")
    end_to_end = {"setup_s": setup_s, "wall_s": wall_s,
                  "peak_rss_mb": max(rec["peak_rss_mb"] for rec in reps)}
    extra = {
        "trials_per_s": (trials / wall_s, "1/s"),
        "broadcasts_per_s": (broadcasts / wall_s, "1/s"),
        "ops_failed_frac": (failed / attempted, "ratio"),
    }
    e2e_units = declared_metrics("end_to_end")
    for name, value in end_to_end.items():
        print_metric(name, value, e2e_units[name])
    for name, (value, unit) in extra.items():
        print_metric(name, value, unit)
    metrics = {k: {"value": v, "unit": e2e_units[k]} for k, v in end_to_end.items()}

    if traced:
        metrics = per_layer_metrics(reps, wall_s)
    print(json.dumps({"correct": ref is not None and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def per_layer_metrics(reps, wall_s: float) -> dict:
    """Medians over the traced repetitions; prints them with the first
    repetition's per-call breakdown."""
    done = [rec for rec in reps if rec["layers"] is not None]
    layer_units = declared_metrics("per_layer")
    layers = {k: 0.0 for k in layer_units}
    if done:
        for k in done[0]["layers"]:
            vals = [rec["layers"][k] for rec in done]
            # counts stay whole numbers
            ints = all(isinstance(v, int) for v in vals)
            layers[k] = (statistics.median_low if ints else statistics.median)(vals)
        for name in done[0]["missing"]:
            print(f"missing span: {name} (its metrics read 0)")
        layers["trace.missing_spans"] = len(done[0]["missing"])
    layers["trace.wall_s"] = wall_s
    for name, unit in layer_units.items():
        print_metric(name, layers[name], unit)
    print("\n".join(reps[0]["breakdown"]))
    return {k: {"value": layers[k], "unit": u} for k, u in layer_units.items()}


if __name__ == "__main__":
    sys.exit(main())
