"""Mutation smoke: each fast path's oracle still catches a one-line fault.

Copies src/ to a temporary directory, applies one mutant at a time to the
copy and runs the named tier-1 subset against it.  A mutant is killed
when its subset fails.  Every mutant must be killed, except the
equivalence controls, which change no result and must survive.  Pytest
does not collect this file; run it from the repository root:

    python tests/mutants.py

It prints one markdown table row per mutant with its kill time, and also
appends the table to $GITHUB_STEP_SUMMARY when that is set.  Exit code 0
when every mutant ended as expected, 1 otherwise.
"""
from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str           # under src/gossiplab
    before: str         # a line fragment found exactly once in the file
    after: str
    tests: tuple        # pytest node ids, relative to the repository root
    control: bool = False


MUTANTS = (
    Mutant("expected map: 0.0 - a -> -a", "analysis.py",
           "w[n + j, k] = 0.0 - a", "w[n + j, k] = -a",
           ("tests/test_expected_map.py",)),
    Mutant("emission: _TIE_SLACK = 0.0", "sim.py",
           "_TIE_SLACK = 1e-9", "_TIE_SLACK = 0.0",
           ("tests/test_emission.py",)),
    Mutant("emission: _decimal truncates", "sim.py",
           "d = f + (frac > 0.5)", "d = f + 0",
           ("tests/test_emission.py",)),
    # an uncertified line is written over its row's old words, which
    # then show after it
    Mutant("emission: the row of an uncertified line is not cleared",
           "sim.py", "w[bad] = 0", "pass", ("tests/test_emission.py",)),
    # a row ends at its last stop or mass failure in the block, not its
    # first
    Mutant("lockstep: a row's first end is the block's last set step",
           "sim.py", "firsts = ends.argmax(0).tolist()",
           "firsts = (k - 1 - ends[::-1].argmax(0)).tolist()",
           ("tests/test_lockstep.py",)),
    Mutant("lockstep: a stop wins a same-step tie with a mass failure",
           "sim.py", "ends |= bad", "bad &= ~ends; ends |= bad",
           ("tests/test_lockstep.py::test_mass_failure_wins_over_a_stop_at_the_same_step",)),
    # the broadcasters' companions after their own step, not before it
    Mutant("lockstep: block snapshot slots read one step late", "sim.py",
           "np.arange(0, (steps - 1) * live * n, live * n)",
           "np.arange(live * n, steps * live * n, live * n)",
           ("tests/test_lockstep.py",)),
    Mutant("lockstep: mass check at twice the tolerance", "sim.py",
           "bad = ~(drift <= mass_tol)", "bad = ~(drift <= 2 * mass_tol)",
           ("tests/test_lockstep.py",)),
    # a state that is no longer finite runs on to max_iters
    Mutant("lockstep: a nan drift passes", "sim.py",
           "bad = ~(drift <= mass_tol)", "bad = drift > mass_tol",
           ("tests/test_sim.py",)),
    # BBGA gets the zero weights of classic: only a state that is no
    # longer finite fails it
    Mutant("lockstep: BBGA rows unchecked", "sim.py",
           "if s.kind is not SchemeKind.BBGA:", "if True:",
           ("tests/test_sim.py",)),
    # the solve on M, not M^T, gives the right null vector: ones for
    # BBGA's row-stochastic B, not its stationary vector (the residual
    # check refuses it, so every BBGA call fails)
    Mutant("mass weights: bordered solve on M, not M^T", "spectra.py",
           "system = m.T.copy()", "system = m.copy()",
           ("tests/test_sim.py::test_bbga_conserves_its_stationary_weighted_total",)),
    # broadcaster k's segment starts at column k+1's first edge: its
    # hearers and weights are read from the wrong column
    Mutant("edge columns: broadcaster k reads column k+1's edges", "sim.py",
           "return np.cumsum(counts) - counts,", "return np.cumsum(counts),",
           ("tests/test_lockstep.py",)),
    # a caller's writeable float array becomes the scheme's own: a later
    # write to it reaches the scheme
    Mutant("scheme weights: writeable inputs kept without a copy",
           "protocol.py", "and not m.flags.writeable and m.flags.owndata",
           "and m.flags.owndata",
           ("tests/test_protocol.py::test_a_scheme_keeps_no_handle_of_its_callers_arrays",)),
    # weights of another length than the graph's edge count are kept:
    # the engine's tables would pair hearers with other edges' weights
    Mutant("scheme weights: no check of one weight per edge", "protocol.py",
           "if m.shape != self.graph.columns[1].shape:", "if False:",
           ("tests/test_protocol.py::test_a_scheme_refuses_weights_not_one_per_edge",)),
    # the edge keys order hearer first: every graph's columns hold its
    # reverse's edges
    Mutant("edge columns: keys built hearer-major", "graph.py",
           "key = e[:, 1] * n + e[:, 0]", "key = e[:, 0] * n + e[:, 1]",
           ("tests/test_graph.py::test_neighbor_and_degree_conventions",
            "tests/test_graph.py::test_edges_round_trip_the_input_pairs")),
    # the reader lays out n + 1 offsets for a header naming nodes that no
    # edge line names: a 16-byte file could ask for gigabytes
    Mutant("graph reader: no refusal of nodes without an edge line",
           "graph.py", "if n > max(1, len(pairs)):", "if False:",
           ("tests/test_graph.py::test_reader_refuses_a_header_naming_nodes_no_edge_line_names",)),
    # two workers' chunks overlap by one seed
    Mutant("campaigns: seed chunks overlap", "sim.py",
           "(c + 1) * trials // nwork", "(c + 1) * trials // nwork + 1",
           ("tests/test_lockstep.py",)),
    # a pool of one process per trial, whatever the CPU count
    Mutant("campaigns: no CPU cap on the workers", "sim.py",
           "os.cpu_count() or 1, ", "", ("tests/test_sim.py",)),
    Mutant("lockstep: row end one step early", "sim.py",
           "te = t0 + last + 1", "te = t0 + last",
           ("tests/test_lockstep.py",)),
    # the grid loses a point that falls on max_iters
    Mutant("series: the record grid stops one point short", "sim.py",
           "while t <= max_iters:", "while t < max_iters:",
           ("tests/test_sim.py", "tests/test_lockstep.py")),
    # a statistic equal to the threshold stops the trial
    Mutant("lockstep: the statistic stops only below the threshold",
           "sim.py", "stat <= threshold", "stat < threshold",
           ("tests/test_lockstep.py",)),
    # the broadcaster's companion, which its broadcast zeroes, is part
    # of the state change
    Mutant("lockstep: the statistic drops the broadcaster's companion",
           "sim.py", "sums += yk * yk", "pass", ("tests/test_lockstep.py",)),
    # kron(W_k, W_k)'s column index swaps its two factors' columns
    Mutant("second-moment lift: column index of the kron product",
           "analysis.py", "np.add.outer(c * m, c)", "np.add.outer(c, c * m)",
           ("tests/test_analysis.py::test_second_moment_matrix_equals_the_dense_kron_sum",)),
    # the paper's first-moment closed forms
    Mutant("closed forms: eta_bound drops the factor 2 on xi_n",
           "analysis.py", "(2.0 * n) - 2.0 * xi_n", "(2.0 * n) - xi_n",
           ("tests/test_first_moment.py",)),
    Mutant("closed forms: optimal_epsilon returns xi_2", "analysis.py",
           "return xi2 / 2.0, 1.0", "return xi2, 1.0",
           ("tests/test_first_moment.py",)),
    Mutant("closed forms: bbga_closed_eigs loses the eps/(2n) shift",
           "analysis.py", "base = 1.0 - xi / n - epsilon / (2.0 * n)",
           "base = 1.0 - xi / n - epsilon / n",
           ("tests/test_first_moment.py",)),
    # smaller layouts only split the same steps into more check blocks;
    # each row's segment sums stay the same
    Mutant("control: ENTRY_CHUNK = 4_096", "sim.py",
           "ENTRY_CHUNK = 16_384", "ENTRY_CHUNK = 4_096",
           ("tests/test_lockstep.py", "tests/test_sim.py"), control=True),
)


def run_mutant(m: Mutant, src: Path, pristine: Path) -> tuple:
    """pytest's exit code on one mutant, applied to the copy at src (1:
    a test failed, so the mutant is killed), and the seconds it took."""
    target = src / "gossiplab" / m.path
    text = (pristine / "gossiplab" / m.path).read_text()
    if text.count(m.before) != 1:
        raise SystemExit(f"{m.name}: {m.before!r} is not found exactly "
                         f"once in {m.path}")
    target.write_text(text.replace(m.before, m.after))
    env = dict(os.environ, PYTHONPATH=str(src), HYPOTHESIS_PROFILE="mutants")
    start = time.perf_counter()
    try:
        # plain asserts: a failing comparison of two long CSV texts
        # would otherwise spend minutes on its diff
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "--assert=plain",
             "-p", "no:cacheprovider", *m.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    finally:
        target.write_text(text)
    return done.returncode, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        # the subsets must import the copy, not an installed package
        where = subprocess.run(
            [sys.executable, "-c",
             "import gossiplab; print(gossiplab.__file__)"],
            env=dict(os.environ, PYTHONPATH=str(src)), capture_output=True,
            text=True, check=True).stdout.strip()
        if not Path(where).is_relative_to(src):
            raise SystemExit(f"the copy is not imported: gossiplab is {where}")
        rows = ["| mutant | subset | outcome | seconds |",
                "|---|---|---|---|"]
        bad = 0
        for m in MUTANTS:
            code, seconds = run_mutant(m, src, ROOT / "src")
            # any other code (collection error, no tests) is no verdict
            ok = code == (0 if m.control else 1)
            bad += not ok
            outcome = {0: "survived", 1: "killed"}.get(
                code, f"pytest exit code {code}")
            if m.control:
                outcome += " (control)"
            if not ok:
                outcome = f"**{outcome}: unexpected**"
            rows.append(f"| {m.name} | {' '.join(m.tests)} | {outcome} "
                        f"| {seconds:.1f} |")
            print(rows[-1], flush=True)
    table = "\n".join(rows) + "\n"
    summary = os.environ.get("GITHUB_STEP_SUMMARY")
    if summary:
        with open(summary, "a") as fh:
            fh.write("### Mutation smoke\n\n" + table)
    print(f"{len(MUTANTS) - bad} of {len(MUTANTS)} mutants ended as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
