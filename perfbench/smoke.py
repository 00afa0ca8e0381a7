"""Smoke test of the benchmark at tiny sizes.

    python3 perfbench/smoke.py          (or: python3 -m pytest perfbench/smoke.py)

Run from the repository root.  Checks that both modes emit every metric
BENCHMARK.json names, that a corrupted reference digest counts as a
failed operation, and that the tracer reports a vanished public function
as a missing span instead of crashing.
"""
from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*extra) -> tuple:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1]), proc.stdout


def check_metrics(result, kind):
    declared = {m["name"]: m["unit"] for m in SPEC[kind]}
    got = result["metrics"]
    assert set(got) == set(declared), set(got) ^ set(declared)
    for name, unit in declared.items():
        assert got[name]["unit"] == unit, name
        assert isinstance(got[name]["value"], (int, float)), name


def test_untraced_emits_end_to_end_metrics():
    result, _ = run_bench("--trace", "0")
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] == 3 + 8      # three calls, eight trials
    check_metrics(result, "end_to_end")


def test_traced_emits_per_layer_metrics():
    result, _ = run_bench("--trace", "1")
    assert result["correct"] and result["failed"] == 0
    check_metrics(result, "per_layer")
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.missing_spans"] == 0
    assert m["sim.trials"] == 8 and m["analysis.classify_calls"] == 4
    assert m["analysis.lift_bytes"] == 8 * (4 * 16 * 16) ** 2


def test_corrupted_reference_is_a_failed_operation():
    # in-process, with run.REFERENCES pointing at a corrupted copy; the
    # repetition processes never read the references
    sys.path.insert(0, str(HERE))
    import run

    refs = json.loads(run.REFERENCES.read_text())
    digests = refs["workloads"]["smoke"]["calls"]["sweep"]
    digests["sweep.csv"] = "0" * 64
    bad = ROOT / ".perfbench_out" / "corrupted_references.json"
    bad.parent.mkdir(exist_ok=True)
    bad.write_text(json.dumps(refs))
    saved, run.REFERENCES = run.REFERENCES, bad
    out = io.StringIO()
    try:
        with contextlib.chdir(ROOT), contextlib.redirect_stdout(out):
            code = run.main(["--workload", "smoke", "--seed", "3",
                             "--seconds", "0", "--trace", "0"])
    finally:
        run.REFERENCES = saved
    stdout = out.getvalue()
    result = json.loads(stdout.splitlines()[-1])
    assert code == 0
    assert not result["correct"]
    assert result["failed"] == 1
    assert "sweep.csv differs from its reference" in stdout


def test_tracer_reports_missing_public_name():
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from gossiplab import sim
    from tracer import Tracer, layer_metrics

    saved = sim.run_trial
    del sim.run_trial
    try:
        tracer = Tracer()
        tracer.install()
        assert "sim.run_trial" in tracer.missing
    finally:
        sim.run_trial = saved
    names = {m["name"] for m in SPEC["per_layer"]}
    assert names - {"trace.wall_s", "trace.missing_spans"} == set(layer_metrics([]))


if __name__ == "__main__":
    for name, fn in list(globals().items()):
        if name.startswith("test_"):
            fn()
            print(f"ok {name}")
