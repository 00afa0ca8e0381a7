"""Command line front end: files, headers, exit codes, reproducibility."""
import concurrent.futures
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import gossiplab
from gossiplab import analysis, cli, graph, sim, spectra
from gossiplab.cli import (
    DEFAULT_GRID, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_RETRY,
    ConfigError, analysis_csv, epsilon_reports, load_config_file, main,
    parse_grid, resolve_epsilon,
)
from gossiplab.errors import MissingCoords
from gossiplab.protocol import SchemeKind, build_scheme


@pytest.fixture(scope="module")
def graph_file(tmp_path_factory):
    """An 8-node graph generated once through the CLI itself."""
    out = tmp_path_factory.mktemp("gen")
    code = main(["generate", "--n", "8", "--seed", "3", "--out", str(out)])
    assert code == EXIT_OK
    return out / "graph.txt"


def run(argv):
    return main(argv)


def test_generate_outputs(graph_file, capsys):
    text = graph_file.read_text()
    assert text.startswith("# gossiplab 0.1.0\n# command: generate\n")
    assert "# config: " in text and "# seed: 3\n" in text
    g = graph.load_graph(graph_file)
    assert g.n == 8
    regen = graph.random_geometric_graph(
        8, graph.connectivity_radius(8), np.random.default_rng(3))
    assert g.edges == regen.edges


def test_generate_reruns_are_byte_identical(tmp_path):
    out = tmp_path / "o"
    assert run(["generate", "--n", "8", "--seed", "3", "--out", str(out)]) == EXIT_OK
    first = (out / "graph.txt").read_bytes()
    assert run(["generate", "--n", "8", "--seed", "3", "--out", str(out)]) == EXIT_OK
    assert (out / "graph.txt").read_bytes() == first


def test_generate_requires_size():
    assert run(["generate"]) == EXIT_CONFIG


def test_generate_retry_exhaustion(tmp_path):
    code = run(["generate", "--n", "30", "--radius", "0.01",
                "--out", str(tmp_path)])
    assert code == EXIT_RETRY


def test_analyze_writes_reports(graph_file, tmp_path, capsys):
    code = run(["analyze", "--graph", str(graph_file), "--scheme", "bbga",
                "--epsilon", "0.5", "--out", str(tmp_path)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "is_simple_one=true" in printed

    sdict = json.loads((tmp_path / "spectral_report.json").read_text())
    assert sdict["is_simple_one"] is True
    assert len(sdict["spectrum"]) == 16
    assert sdict["header"][0] == "gossiplab 0.1.0"

    edict = json.loads((tmp_path / "epsilon_report.json").read_text())
    g = graph.load_graph(graph_file)
    er = analysis.epsilon_report(g)
    assert edict["epsilon_star"] == pytest.approx(er.epsilon_star)
    assert edict["eta_formula"] == pytest.approx(er.eta_formula)

    csv = (tmp_path / "analysis.csv").read_text()
    data_lines = [ln for ln in csv.splitlines() if not ln.startswith("#")]
    assert data_lines[0] == \
        "epsilon,second_largest_modulus,is_simple_one,eta,epsilon_star"
    assert csv.startswith("# gossiplab 0.1.0\n")


def test_analyze_second_moment_check(graph_file, tmp_path, capsys):
    code = run(["analyze", "--graph", str(graph_file), "--scheme", "ubga2",
                "--epsilon", "0.3", "--check", "second-moment",
                "--out", str(tmp_path)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "rho<1: PASS (rho=" in printed
    sdict = json.loads((tmp_path / "spectral_report.json").read_text())
    assert 0.0 < sdict["second_moment_rho"] < 1.0


def test_analyze_classic_scope(graph_file, tmp_path, capsys):
    code = run(["analyze", "--graph", str(graph_file), "--scheme", "classic",
                "--out", str(tmp_path)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "no stability window" in printed
    assert not (tmp_path / "epsilon_report.json").exists()
    # the second-moment certificate needs a companion matrix
    assert run(["analyze", "--graph", str(graph_file), "--scheme", "classic",
                "--check", "second-moment", "--out", str(tmp_path)]) \
        == EXIT_CONFIG


def test_analyze_auto_epsilon(graph_file, tmp_path, capsys):
    code = run(["analyze", "--graph", str(graph_file), "--scheme", "bbga",
                "--epsilon", "auto-optimal", "--out", str(tmp_path)])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    g = graph.load_graph(graph_file)
    star = analysis.epsilon_report(g).epsilon_star
    assert f"epsilon={star:.17g}" in printed


def test_epsilon_report_is_computed_once_per_command(graph_file, tmp_path,
                                                     monkeypatch):
    real = analysis.epsilon_report
    calls = []

    def counting(g):
        calls.append(g.n)
        return real(g)

    monkeypatch.setattr(analysis, "epsilon_report", counting)
    g = graph.load_graph(graph_file)
    expected = analysis.report_dict(real(g))
    for spec in ("auto-optimal", "auto-eta-fraction:0.5", "0.3"):
        calls.clear()
        out = tmp_path / spec.replace(":", "_")
        assert run(["analyze", "--graph", str(graph_file), "--scheme", "ubga1",
                    "--epsilon", spec, "--out", str(out)]) == EXIT_OK
        assert calls == [8]
        written = json.loads((out / "epsilon_report.json").read_text())
        del written["header"]
        assert json.dumps(written, sort_keys=True) == \
            json.dumps(expected, sort_keys=True)
    calls.clear()
    assert run(["simulate", "--graph", str(graph_file),
                "--schemes", "bbga,ubga1,classic", "--epsilon", "auto-optimal",
                "--trials", "1", "--threshold", "1e-3",
                "--out", str(tmp_path / "sim")]) == EXIT_OK
    assert calls == [8]
    calls.clear()
    assert run(["simulate", "--graph", str(graph_file), "--schemes", "bbga",
                "--epsilon", "0.4", "--trials", "1", "--threshold", "1e-3",
                "--out", str(tmp_path / "literal")]) == EXIT_OK
    assert calls == []


def test_analyze_rejects_bad_config(graph_file, tmp_path):
    base = ["analyze", "--graph", str(graph_file), "--out", str(tmp_path)]
    assert run(base + ["--scheme", "nosuch"]) == EXIT_CONFIG
    assert run(base + ["--epsilon", "fast"]) == EXIT_CONFIG
    assert run(base + ["--epsilon", "auto-eta-fraction:2"]) == EXIT_CONFIG
    assert run(["analyze", "--graph", str(tmp_path / "missing.txt")]) \
        == EXIT_CONFIG


def test_resolve_epsilon_variants(graph_file):
    g = graph.load_graph(graph_file)
    er = analysis.epsilon_report(g)
    report = epsilon_reports(g)
    assert resolve_epsilon("0.4", SchemeKind.BBGA, report) == (0.4, "")
    eps, note = resolve_epsilon("auto-optimal", SchemeKind.BBGA, report)
    assert eps == pytest.approx(er.epsilon_star) and note == ""
    eps, _ = resolve_epsilon("auto-eta-fraction:0.5", SchemeKind.UBGA1, report)
    assert eps == pytest.approx(0.5 * er.eta_formula)
    assert resolve_epsilon("0.9", SchemeKind.CLASSIC, report) == (0.0, "")
    with pytest.raises(ConfigError):
        resolve_epsilon("auto-eta-fraction:x", SchemeKind.BBGA, report)


def test_analysis_csv_format(graph16):
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    rep = analysis.classify_expectation(s)
    body = analysis_csv(0.5, rep, 29.5, 0.25)
    lines = body.splitlines()
    assert lines[0] == b"epsilon,second_largest_modulus,is_simple_one,eta,epsilon_star"
    cells = lines[1].split(b",")
    assert cells[0] == b"0.5" and cells[2] == b"true"
    assert float(cells[1]) == rep.second_largest_modulus
    assert cells[3] == b"29.5" and cells[4] == b"0.25"
    assert body.endswith(b"\n") and len(lines) == 2


def test_sweep(graph_file, tmp_path, capsys, monkeypatch):
    # the analytic column reuses the sweep's schemes and reads only the
    # spectrum: no scheme is built twice, no eigenvector is solved, and
    # the one bordered solve is the stationary vector of the B that every
    # grid point shares, which weighs the engine's mass check
    def refuse(*args, **kwargs):
        raise AssertionError("not needed by sweep")

    solved = []
    unit_left_vector = spectra.unit_left_vector

    def counting(m, *args, **kwargs):
        solved.append(m.shape)
        return unit_left_vector(m, *args, **kwargs)

    monkeypatch.setattr(cli, "build_scheme", refuse)
    monkeypatch.setattr(spectra, "left_eigenvector", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(spectra, "unit_left_vector", counting)
    code = run(["sweep", "--graph", str(graph_file), "--scheme", "bbga",
                "--grid", "0.3,0.5", "--trials", "2", "--threshold", "1e-3",
                "--out", str(tmp_path), "--svg"])
    assert code == EXIT_OK
    assert solved == [(8, 8)]
    monkeypatch.undo()
    printed = capsys.readouterr().out
    assert "best_epsilon=" in printed
    assert "failures=0 censored=0" in printed
    text = (tmp_path / "sweep.csv").read_text()
    data = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert data[0].endswith(",analytic_lambda2")
    assert len(data) == 3
    g = graph.load_graph(graph_file)
    for line, eps in zip(data[1:], (0.3, 0.5)):
        rep = analysis.classify_expectation(
            build_scheme(SchemeKind.BBGA, g, eps))
        assert line.split(",")[-1] == f"{rep.second_largest_modulus:.17g}"
    svg = (tmp_path / "sweep.svg").read_text()
    assert svg.startswith("<!-- gossiplab 0.1.0 -->\n")
    assert "<svg " in svg


def test_sweep_reports_failed_and_censored_trials(graph_file, tmp_path,
                                                 capsys, monkeypatch):
    argv = ["sweep", "--graph", str(graph_file), "--scheme", "ubga1",
            "--grid", "0.3,0.5", "--trials", "2", "--threshold", "1e-3",
            "--out", str(tmp_path)]
    # a negative tolerance makes the mass monitor reject every trial
    monkeypatch.setattr(sim, "MASS_RTOL", -1.0)
    assert run(argv + ["--svg"]) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "failures=4 censored=0" in captured.out
    assert "best_epsilon=" not in captured.out
    assert captured.err.count("MassConservationError") == 4
    assert "epsilon=0.29999999999999999 trial 0 failed" in captured.err
    data = [ln for ln in (tmp_path / "sweep.csv").read_text().splitlines()
            if not ln.startswith("#")]
    assert data[1].startswith("0.29999999999999999,nan,nan,")
    monkeypatch.undo()

    # far beyond the stability window one point fails; the best point is
    # chosen among the others
    mixed = ["sweep", "--graph", str(graph_file), "--scheme", "ubga1",
             "--grid", "50,0.5", "--trials", "2", "--threshold", "1e-3",
             "--out", str(tmp_path / "mixed"), "--svg"]
    assert run(mixed) == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "failures=2 censored=0" in captured.out
    assert "best_epsilon=0.5 " in captured.out
    assert (tmp_path / "mixed" / "sweep.svg").exists()

    assert run(argv + ["--max-iters", "3"]) == EXIT_OK
    captured = capsys.readouterr()
    assert "failures=0 censored=4" in captured.out
    assert "warning: 4 of 4 trials hit max_iters=3" in captured.err


def test_sweep_rejects_classic(graph_file, tmp_path):
    assert run(["sweep", "--graph", str(graph_file), "--scheme", "classic",
                "--out", str(tmp_path)]) == EXIT_CONFIG


def test_parse_grid_default_and_errors():
    assert parse_grid(None) == DEFAULT_GRID
    assert len(DEFAULT_GRID) == 50
    assert DEFAULT_GRID[0] == pytest.approx(0.02)
    assert DEFAULT_GRID[-1] == pytest.approx(1.0)
    assert parse_grid("0.1, 0.2") == [0.1, 0.2]
    with pytest.raises(ConfigError):
        parse_grid("a,b")
    with pytest.raises(ConfigError):
        parse_grid(",")


def test_simulate_outputs(graph_file, tmp_path, capsys):
    out = tmp_path / "sim"
    argv = ["simulate", "--graph", str(graph_file), "--schemes",
            "bbga,classic", "--epsilon", "0.5", "--trials", "2",
            "--threshold", "1e-3", "--out", str(out), "--per-trial", "--svg"]
    assert run(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert "scheme=bbga" in printed and "scheme=classic" in printed
    assert printed.count("failures=0 censored=0") == 2
    for kind in ("bbga", "classic"):
        traj = (out / f"trajectory_{kind}.csv").read_text()
        data = [ln for ln in traj.splitlines() if not ln.startswith("#")]
        assert data[0] == "t,mean_r,mean_q"
        for i in range(2):
            assert (out / f"trial_{kind}_{i}.csv").exists()
    assert (out / "trajectories.svg").exists()

    # same command, same directory: files must not change byte for byte
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    assert run(argv) == EXIT_OK
    after = {p.name: p.read_bytes() for p in out.iterdir()}
    assert before == after


# sha256 of every file of the run below, headers included, as written
# before simulate ran its schemes as one lockstep call; re-recorded when
# the headers of a run on a graph file stopped echoing p_asym=0, the only
# bytes that changed
SIMULATE_DIGESTS = {
    "trajectories.svg": "eb895844a143e499d44e4ae42f719171e9b36305e17bec3d8c7619706dc4cf4d",
    "trajectory_bbga.csv": "64e9a475055a39028fc644fa72890104643bc9207298b34003ffe60253bd548a",
    "trajectory_classic.csv": "ca57bb476b5cc6ce7bdd3e5c267bf680777984d5b6e4cf406457ce045642981d",
    "trajectory_ubga1.csv": "314d9a5de35b99c05b1d58480e45ae82896fd21cdd7faac7862d67780596a6c9",
    "trial_bbga_0.csv": "b1ebe59501bbd1dc129989f18c0c2d402507fd7d9fe919023257927635432fa9",
    "trial_bbga_1.csv": "ccd9da32ce620243fa605e959fc7a959f1403c2ad5f47449ee622fdc8d23cba1",
    "trial_bbga_2.csv": "b9e7aa05437bc5fd285339cb4a62844410dedae21792396f9cba57bd8a5154b2",
    "trial_classic_0.csv": "6cbcd56c360ed0fb162b44266f60580775b7fba0e62abcd272634db2e6a17c3e",
    "trial_classic_1.csv": "e069fb2d50bee174e4ae6196679cee1b3889943dcd0e42a9eb90371b072a8859",
    "trial_classic_2.csv": "49aadc4f60007fc226b81749f416da50a40ab4e98e2d64a256288b6956019eed",
    "trial_ubga1_0.csv": "e6e801e6a3f276c35880bdba2e1df47f01a21383b775d9ba83830892578b2ace",
    "trial_ubga1_1.csv": "37defa7da7dc0c9d89411ad95c934edbf213b28f0f7bdb1502796d3260baaaec",
    "trial_ubga1_2.csv": "0232aac1b307904ca0f8bf59f7e430d8829d241b8ac9e4f3602c0bdc7841a9b3",
}


def test_simulate_files_and_lines_are_pinned(tmp_path, monkeypatch, capsys):
    # relative paths keep the headers free of the temporary directory
    monkeypatch.chdir(tmp_path)
    assert run(["generate", "--n", "8", "--seed", "3", "--out", "."]) == EXIT_OK
    capsys.readouterr()
    assert run(["simulate", "--graph", "graph.txt", "--schemes",
                "bbga,ubga1,classic", "--epsilon", "0.5", "--trials", "3",
                "--threshold", "1e-3", "--out", "out", "--per-trial",
                "--svg"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.splitlines() == [
        "scheme=bbga epsilon=0.5 mean_broadcasts=68.666666666666671 "
        "mean_r_final=0.00031198283879826542 "
        "mean_q_final=1.2051328277861477e-05 failures=0 censored=0",
        "scheme=ubga1 epsilon=0.5 mean_broadcasts=38.666666666666664 "
        "mean_r_final=0.00086288560011340382 "
        "mean_q_final=0.00018411847052293955 failures=0 censored=0",
        "scheme=classic epsilon=0 mean_broadcasts=17 "
        "mean_r_final=0.047779038750446513 "
        "mean_q_final=6.211713876359959e-08 failures=0 censored=0",
        "wrote 3 trajectory file(s) in out",
    ]
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert written == SIMULATE_DIGESTS
    # the k-th scheme's files echo the couplings resolved up to it
    ubga1 = (tmp_path / "out" / "trial_ubga1_0.csv").read_text()
    assert "epsilon_bbga=0.5 epsilon_ubga1=0.5 gamma" in ubga1


def test_simulate_solves_no_eigenproblem(tmp_path, monkeypatch, capsys):
    # no simulate output depends on the expected map, and BBGA's mass
    # check is weighed by a bordered solve, not an eigenvector: the pinned
    # run (and its generate step, which needs none of them) gives the
    # same lines and bytes without them
    def refuse(*args, **kwargs):
        raise AssertionError("simulate solved an eigenproblem")

    monkeypatch.setattr(analysis, "classify_expectation", refuse)
    monkeypatch.setattr(analysis, "expected_matrix", refuse)
    monkeypatch.setattr(spectra, "left_eigenvector", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    test_simulate_files_and_lines_are_pinned(tmp_path, monkeypatch, capsys)


def test_simulate_validates_every_scheme_before_running(graph_file, tmp_path,
                                                        capsys):
    # classic builds at epsilon 0, bbga then rejects it: the run stops
    # with exit 2 before any trial runs or any file is written
    out = tmp_path / "never"
    code = run(["simulate", "--graph", str(graph_file), "--schemes",
                "classic,bbga", "--epsilon", "0", "--trials", "2",
                "--out", str(out)])
    assert code == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: companion coupling needs epsilon > 0" in captured.err
    assert not out.exists()


def test_simulate_reports_numerical_failures(graph_file, tmp_path, capsys):
    # far beyond the stability window the mass monitor trips every trial
    code = run(["simulate", "--graph", str(graph_file), "--schemes", "ubga1",
                "--epsilon", "50", "--trials", "2", "--max-iters", "1000",
                "--out", str(tmp_path)])
    assert code == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "MassConservationError" in err


def test_simulate_warns_about_censored_trials(graph_file, tmp_path, capsys):
    code = run(["simulate", "--graph", str(graph_file), "--schemes", "bbga",
                "--trials", "2", "--max-iters", "4", "--out", str(tmp_path)])
    assert code == EXIT_OK
    captured = capsys.readouterr()
    assert "failures=0 censored=2" in captured.out
    assert "warning: scheme=bbga: 2 of 2 trials hit max_iters=4" in captured.err


def test_spike_runs_stop_on_the_spread(graph16, tmp_path, capsys):
    # a broadcast in a spike's all-zero region changes nothing, which
    # would stop the state-change rule at once: every spike trial must
    # run on until q(t) <= threshold
    path = tmp_path / "graph16.txt"
    graph.save_graph(graph16, path)
    common = ["--graph", str(path), "--init", "spike", "--trials", "20",
              "--seed", "3"]
    assert run(["simulate", "--schemes", "ubga1,bbga,classic", *common,
                "--per-trial", "--out", str(tmp_path / "sim")]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()[:3]
    for line in lines:
        fields = dict(f.split("=") for f in line.split())
        assert float(fields["mean_q_final"]) <= 1e-5
        assert fields["failures"] == "0" and fields["censored"] == "0"
    trials = list((tmp_path / "sim").glob("trial_*.csv"))
    assert len(trials) == 60
    for p in trials:
        t, _, q = p.read_text().splitlines()[-1].split(",")
        assert int(t) > 1 and float(q) <= 1e-5

    assert run(["sweep", "--scheme", "bbga", "--grid", "0.2,0.5", *common,
                "--out", str(tmp_path / "sweep")]) == EXIT_OK
    assert "failures=0 censored=0" in capsys.readouterr().out
    text = (tmp_path / "sweep" / "sweep.csv").read_text()
    data = [ln.split(",") for ln in text.splitlines() if not ln.startswith("#")]
    col = data[0].index("mean_q_final")
    assert len(data) == 3
    assert all(float(row[col]) <= 1e-5 for row in data[1:])


def test_simulate_prints_the_approximate_epsilon_note(tmp_path, capsys):
    # one-way links give this graph a complex Laplacian spectrum, so
    # auto-optimal is approximate: simulate says so on the line of each
    # scheme it applies to, as analyze does
    note = " note=approximate (complex Laplacian spectrum)"
    common = ["--n", "16", "--p-asym", "0.3", "--seed", "7",
              "--epsilon", "auto-optimal"]
    assert run(["analyze", "--scheme", "bbga", *common,
                "--out", str(tmp_path / "a")]) == EXIT_OK
    analyzed = capsys.readouterr().out.splitlines()[0]
    assert analyzed.endswith(note)
    assert run(["simulate", "--schemes", "bbga,classic", *common,
                "--trials", "2", "--out", str(tmp_path / "s")]) == EXIT_OK
    bbga, classic = capsys.readouterr().out.splitlines()[:2]
    assert bbga.startswith(analyzed[:-len(note)] + " ")
    assert bbga.endswith(note)
    assert "note=" not in classic


def test_diverging_trials_fail_with_exit_3(graph16, tmp_path, capsys):
    # bbga far beyond its stability window: every trial drifts off its
    # weighted total long before its state overflows, and fails.  The
    # runs exit 3 with one failure line per trial on stderr, nothing is
    # counted as censored and no numpy warning escapes
    path = tmp_path / "graph16.txt"
    graph.save_graph(graph16, path)
    calls = [
        (["simulate", "--scheme", "bbga", "--epsilon", "60"], "  trial "),
        (["sweep", "--scheme", "bbga", "--grid", "60"], "  epsilon=60 trial "),
    ]
    for argv, where in calls:
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            code = run(argv + ["--graph", str(path), "--trials", "2",
                               "--max-iters", "3000",
                               "--out", str(tmp_path / argv[0])])
        assert code == EXIT_NUMERIC
        captured = capsys.readouterr()
        assert "failures=2 censored=0" in captured.out
        lines = captured.err.splitlines()
        assert [ln[:len(where) + 1] for ln in lines] == [
            f"{where}0", f"{where}1"]
        assert all(" failed: MassConservationError: mass drifted by " in ln
                   for ln in lines)
        assert not [w for w in seen if issubclass(w.category, RuntimeWarning)]


def test_a_diverging_campaign_fails_every_trial_early(graph16, tmp_path,
                                                      capsys):
    # half of BBGA's first-moment window: the expected update converges,
    # but the second moment grows, and each trial leaves its weighted
    # total within a few hundred broadcasts.  No trajectory is written
    path = tmp_path / "graph16.txt"
    graph.save_graph(graph16, path)
    code = run(["simulate", "--graph", str(path), "--schemes", "bbga",
                "--epsilon", "auto-eta-fraction:0.5", "--trials", "4",
                "--max-iters", "100000", "--out", str(tmp_path / "out")])
    assert code == EXIT_NUMERIC
    captured = capsys.readouterr()
    assert "failures=4 censored=0" in captured.out
    failed = [int(ln.rsplit(" ", 1)[1]) for ln in captured.err.splitlines()]
    assert len(failed) == 4 and max(failed) < 500
    assert list((tmp_path / "out").iterdir()) == []


def test_config_file_resolution(graph_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# comment line\n"
        f"graph = {graph_file}\n"
        "scheme = bbga\n"
        "trials = 2\n"
        "threshold = 1e-3\n"
    )
    out = tmp_path / "out"
    code = run(["simulate", "--config", str(cfg), "--trials", "3",
                "--out", str(out)])
    assert code == EXIT_OK
    traj = (out / "trajectory_bbga.csv").read_text()
    config_line = next(ln for ln in traj.splitlines()
                       if ln.startswith("# config: "))
    # the command line overrides the file; the file fills the rest
    assert "trials=3" in config_line
    assert "threshold=0.001" in config_line


def test_config_file_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("wibble = 3\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    bad.write_text("trials = soon\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    bad.write_text("just words\n")
    with pytest.raises(ConfigError):
        load_config_file(bad)
    with pytest.raises(ConfigError):
        load_config_file(tmp_path / "missing.cfg")
    assert run(["simulate", "--config", str(tmp_path / "missing.cfg")]) \
        == EXIT_CONFIG


# the keys of each command's `# config:` line when a config file gives
# all 16 settings: the settings the command reads, plus its extras
# the file's graph is loaded, so n, radius and p_asym are read only by
# generate, which generates its graph
ECHOED = {
    "generate": {"n", "radius", "p_asym", "seed", "out", "radius_resolved"},
    "analyze": {"graph", "seed", "out", "workers", "scheme", "epsilon",
                "gamma", "epsilon_resolved"},
    "sweep": {"graph", "seed", "out", "workers", "scheme", "grid",
              "trials", "init", "threshold", "max_iters"},
    "simulate": {"graph", "seed", "out", "workers", "scheme", "schemes",
                 "epsilon", "gamma", "trials", "init", "threshold",
                 "max_iters", "epsilon_bbga"},
}
ARTIFACT = {"generate": "graph.txt", "analyze": "analysis.csv",
            "sweep": "sweep.csv", "simulate": "trajectory_bbga.csv"}


def config_line(path) -> dict:
    line = next(ln for ln in path.read_text().splitlines()
                if ln.startswith("# config: "))
    return dict(pair.split("=", 1) for pair in line[10:].split())


def test_headers_echo_only_the_settings_their_command_reads(graph_file,
                                                            tmp_path):
    cfg = tmp_path / "all.cfg"
    cfg.write_text(
        f"graph = {graph_file}\nn = 8\nradius = 0.9\np_asym = 0\n"
        "seed = 3\nworkers = 1\nscheme = bbga\nschemes = bbga\n"
        "epsilon = 7\ngamma = 0.5\ngrid = 0.5\ntrials = 2\n"
        "init = gaussian\nthreshold = 1e-3\nmax_iters = 5000\n")
    for command in cli.ALL:
        out = tmp_path / command
        argv = [command, "--config", str(cfg), "--out", str(out)]
        if command == "simulate":
            argv += ["--epsilon", "0.5"]
        assert run(argv) == EXIT_OK
        echoed = config_line(out / ARTIFACT[command])
        assert set(echoed) == ECHOED[command], command
    # the flag beats the file; the sweep ran at its grid, not at epsilon
    assert config_line(tmp_path / "simulate" / "trajectory_bbga.csv")[
        "epsilon"] == "0.5"
    assert config_line(tmp_path / "analyze" / "analysis.csv")[
        "epsilon"] == "7"
    sweep = (tmp_path / "sweep" / "sweep.csv").read_text().splitlines()
    assert [ln.split(",")[0] for ln in sweep
            if not ln.startswith("#")] == ["epsilon", "0.5"]
    # generate ignores the file's graph: it generated one from the file's
    # n, radius and seed
    made = graph.load_graph(tmp_path / "generate" / "graph.txt")
    assert made.edges == graph.random_geometric_graph(
        8, 0.9, np.random.default_rng(3)).edges


@pytest.mark.parametrize("argv", [
    ["sweep", "--scheme", "bbga", "--grid", "0.5", "--epsilon", "7",
     "--trials", "2"],
    ["generate", "--n", "8", "--graph", "g.txt"],
    # only the classic scheme reads gamma, and sweep refuses it
    ["sweep", "--gamma", "0.3", "--grid", "0.5", "--trials", "1"],
    # generate runs no trials
    ["generate", "--n", "8", "--workers", "2"],
])
def test_flags_a_command_does_not_read_are_rejected(graph_file, tmp_path,
                                                    argv):
    if argv[0] == "sweep":
        argv = argv + ["--graph", str(graph_file)]
    code, err = run_captured(argv + ["--out", str(tmp_path / "out")])
    assert code == EXIT_CONFIG
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert errors == [err.splitlines()[-1]]
    assert "unrecognized arguments" in errors[0]
    assert not (tmp_path / "out").exists()


def test_config_keys_a_command_does_not_read_are_checked_not_applied(
        graph_file, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    base = ["analyze", "--graph", str(graph_file), "--config", str(cfg)]
    # type-checked: a bad value is an error even where it is not read
    cfg.write_text("trials = soon\n")
    assert run(base + ["--out", str(tmp_path / "a")]) == EXIT_CONFIG
    assert capsys.readouterr().err == \
        f"error: {cfg}:1: bad value for trials: 'soon'\n"
    assert not (tmp_path / "a").exists()
    # not applied: a threshold sweep and simulate refuse is no error here
    cfg.write_text("threshold = inf\ngrid = 0.5\n")
    assert run(base + ["--out", str(tmp_path / "b")]) == EXIT_OK
    echoed = config_line(tmp_path / "b" / "analysis.csv")
    assert "threshold" not in echoed and "grid" not in echoed
    # nor is a worker count generate would refuse as a flag
    cfg.write_text("workers = 0\n")
    assert run(["generate", "--n", "8", "--config", str(cfg),
                "--out", str(tmp_path / "c")]) == EXIT_OK
    assert "workers" not in config_line(tmp_path / "c" / "graph.txt")


def test_generator_settings_are_not_read_with_a_graph_file(graph_file,
                                                           tmp_path):
    # a loaded graph is not generated: n, radius or p_asym next to it is
    # an error as a flag and ignored, not echoed, from a config file
    cfg = tmp_path / "graph.cfg"
    cfg.write_text(f"graph = {graph_file}\n")
    for command in cli.SCHEMED:
        for key, value in (("n", "50"), ("radius", "0.3"), ("p_asym", "0.2")):
            flag = "--" + key.replace("_", "-")
            # the graph from a flag, then from the config file
            for given in (["--graph", str(graph_file)], ["--config", str(cfg)]):
                out = tmp_path / "never"
                code, err = run_captured([command, *given, flag, value,
                                          "--out", str(out)])
                assert code == EXIT_CONFIG
                assert err == \
                    f"error: {flag} cannot be combined with a graph file\n"
                assert not out.exists()
    cfg.write_text("n = 50\nradius = 0.3\np_asym = 0.2\n")
    out = tmp_path / "ok"
    assert run(["analyze", "--graph", str(graph_file), "--config", str(cfg),
                "--out", str(out)]) == EXIT_OK
    assert not config_line(out / "analysis.csv").keys() & set(cli.GENERATOR)


def test_an_unknown_init_lists_the_choices(graph_file, tmp_path):
    # parsed as schemes are: the error names the choices, from a flag and
    # from a config file alike
    cfg = tmp_path / "init.cfg"
    cfg.write_text("init = nosuch\n")
    for command in cli.RUNS:
        for given in (["--init", "nosuch"], ["--config", str(cfg)]):
            out = tmp_path / "never"
            code, err = run_captured([command, "--graph", str(graph_file),
                                      *given, "--trials", "1",
                                      "--out", str(out)])
            assert code == EXIT_CONFIG
            assert err == ("error: unknown init 'nosuch' (choose from "
                           "uniform, gaussian, spike, slope)\n")
            assert not out.exists()


def test_sweep_and_simulate_each_run_one_campaigns_call(graph_file, tmp_path,
                                                        monkeypatch):
    # campaigns is the one runner: a sweep's grid points, like simulate's
    # schemes, are the schemes of a single call
    calls = []
    real = sim.campaigns

    def spy(schemes, *args, **kwargs):
        calls.append(len(schemes))
        return real(schemes, *args, **kwargs)

    monkeypatch.setattr(sim, "campaigns", spy)
    base = ["--graph", str(graph_file), "--trials", "2", "--threshold",
            "1e-3", "--max-iters", "20000"]
    assert run(["sweep", *base, "--grid", "0.3,0.5",
                "--out", str(tmp_path / "s")]) == EXIT_OK
    assert calls == [2]
    assert run(["simulate", *base, "--schemes", "bbga,ubga1,classic",
                "--out", str(tmp_path / "m")]) == EXIT_OK
    assert calls == [2, 3]


@pytest.fixture(scope="module")
def bare_graph_file(graph_file, tmp_path_factory):
    """graph_file without its coord lines."""
    path = tmp_path_factory.mktemp("bare") / "graph.txt"
    path.write_text("".join(
        ln for ln in graph_file.read_text().splitlines(keepends=True)
        if not ln.startswith("coord ")))
    return path


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command", ["sweep", "simulate"])
def test_slope_init_without_coordinates_exits_2_before_any_trial(
        bare_graph_file, tmp_path, command, workers, two_cpus):
    # each trial used to fail on its own: exit 3, a "trial i failed" line
    # per trial and, from sweep, a sweep.csv of nan
    out = tmp_path / "out"
    argv = [command, "--graph", str(bare_graph_file), "--init", "slope",
            "--trials", "3", "--threshold", "1e-3", "--workers", str(workers),
            "--out", str(out)]
    if command == "sweep":
        argv += ["--grid", "0.5"]
    assert run_captured(argv) == (
        EXIT_CONFIG, "error: slope initialization needs node coordinates\n")
    assert not out.exists()


def test_monte_carlo_raises_on_a_slope_init_without_coordinates(
        bare_graph_file):
    g = graph.load_graph(bare_graph_file)
    assert g.coords is None
    scheme = build_scheme(SchemeKind.BBGA, g, 0.5)
    with pytest.raises(MissingCoords):
        sim.monte_carlo(scheme, g, sim.InitKind.SLOPE, 3, 1e-3, 5000, 0)


def test_a_slope_init_without_coordinates_starts_no_process_pool(
        bare_graph_file, monkeypatch, two_cpus):
    # the init fails in the parent, before any worker is forked
    def spy(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    g = graph.load_graph(bare_graph_file)
    scheme = build_scheme(SchemeKind.BBGA, g, 0.5)
    with pytest.raises(MissingCoords):
        sim.monte_carlo(scheme, g, sim.InitKind.SLOPE, 4, 1e-3, 5000, 0,
                        workers=2)


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "gossiplab 0.1.0" in capsys.readouterr().out


def test_workers_cpu_cap(graph_file, tmp_path, monkeypatch):
    out1 = tmp_path / "a"
    assert run(["simulate", "--graph", str(graph_file), "--scheme", "bbga",
                "--trials", "2", "--threshold", "1e-3",
                "--out", str(out1)]) == EXIT_OK

    # one CPU: six workers asked for, none started
    def spy(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", spy)
    out2 = tmp_path / "b"
    assert run(["simulate", "--graph", str(graph_file), "--scheme", "bbga",
                "--trials", "2", "--threshold", "1e-3", "--workers", "6",
                "--out", str(out2)]) == EXIT_OK
    t1 = (out1 / "trajectory_bbga.csv").read_text()
    t2 = (out2 / "trajectory_bbga.csv").read_text()
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("#")]
    assert strip(t1) == strip(t2)


def fresh_python(script: str) -> list:
    """The lines a new interpreter prints running script, with this
    package importable."""
    src = str(Path(gossiplab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def test_sweep_and_simulate_leave_numpy_ma_unimported(graph_file, tmp_path):
    # numpy imports numpy.ma on the first np.unique or np.median call,
    # 10-15 ms of every CLI process; sweep and simulate need neither
    script = f"""
import sys
from gossiplab import cli
g, out = {str(graph_file)!r}, {str(tmp_path)!r}
assert cli.main(["sweep", "--graph", g, "--scheme", "ubga1", "--trials",
                 "3", "--grid", "0.3,0.6", "--svg", "--out", out + "/s"]) == 0
assert cli.main(["simulate", "--graph", g, "--schemes", "bbga,ubga1,classic",
                 "--epsilon", "0.5", "--trials", "3", "--per-trial",
                 "--svg", "--out", out + "/m"]) == 0
print("numpy.ma imported:", "numpy.ma" in sys.modules)
"""
    assert fresh_python(script)[-1] == "numpy.ma imported: False"


def test_importing_the_cli_loads_no_process_pool_and_no_formatter_tables():
    # the pool is imported by the run that uses one (multiprocessing brings
    # subprocess, socket and logging along), and the series formatter
    # builds its tables on first use
    script = """
import sys
import gossiplab.cli
from gossiplab import sim
print(sorted(m for m in sys.modules
             if m.split(".")[0] in ("multiprocessing", "concurrent")))
print(sim._emit_tables.cache_info().currsize)
"""
    assert fresh_python(script) == ["[]", "0"]


@pytest.mark.parametrize("layer", ["graph", "protocol", "spectra",
                                   "analysis"])
def test_importing_a_layer_loads_no_layer_above_it(layer):
    # the package root imports nothing, so a layer brings in only the
    # modules it imports itself; analysis needs no part of the engine
    assert fresh_python(f"""
import sys
import gossiplab.{layer}
print([m for m in ("gossiplab.sim", "gossiplab.analysis", "gossiplab.cli")
       if m in sys.modules and m != "gossiplab.{layer}"])
""") == ["[]"]


def test_infinite_threshold_exits_2_before_any_trial(graph_file, tmp_path,
                                                     capsys, monkeypatch):
    # every trial used to "converge" at its first broadcast: sweep printed
    # mean_broadcasts=1 and exited 0
    def refuse(*args, **kwargs):
        raise AssertionError("the trial engine ran")

    monkeypatch.setattr(sim, "_lockstep", refuse)
    for argv in (["sweep", "--grid", "0.5", "--trials", "2"],
                 ["simulate", "--epsilon", "0.5", "--trials", "2"]):
        out = tmp_path / argv[0]
        code = run(argv + ["--threshold", "inf", "--graph", str(graph_file),
                           "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == \
            "error: threshold must be finite, got inf\n"
        assert not out.exists()


@pytest.mark.parametrize("brk", ["\n", "\r", "\x0b", "\x1c", " "])
def test_a_setting_with_a_line_break_exits_2_writing_nothing(
        graph_file, tmp_path, capsys, brk):
    # every setting is echoed on a "# config:" header line: a line break
    # in one split the headers, so the graph written could not be loaded
    # and every CSV header was corrupt
    cases = [(["generate", "--n", "8", "--seed", "1",
               "--out", str(tmp_path / f"a{brk}b")], "out"),
             (["simulate", "--epsilon", f"0.5{brk}", "--trials", "2",
               "--graph", str(graph_file), "--out", str(tmp_path / "s")],
              "epsilon")]
    for argv, key in cases:
        assert run(argv) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key} must hold no line break")
        assert err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []


def test_non_finite_coupling_exits_2_before_any_trial(graph_file, tmp_path,
                                                      capsys, monkeypatch):
    # an infinite coupling used to run every trial on a nan state up to
    # max_iters before the analytic column failed
    def refuse(*args, **kwargs):
        raise AssertionError("the trial engine ran")

    monkeypatch.setattr(sim, "_lockstep", refuse)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for argv in (["sweep", "--grid", "inf", "--trials", "2"],
                     ["sweep", "--grid", "0.5,inf"],
                     ["analyze", "--epsilon", "inf"],
                     ["simulate", "--epsilon", "inf", "--trials", "2"]):
            out = tmp_path / argv[0]
            code = run(argv + ["--graph", str(graph_file), "--out", str(out)])
            assert code == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.err == \
                "error: companion coupling needs a finite epsilon, got inf\n"
            assert not out.exists()
    assert caught == []


class Bad(NamedTuple):
    """One bad setting, the exit code it must give and the commands whose
    run reads it (None: every command that can)."""

    key: str
    value: str
    code: int
    commands: tuple | None = None
    flags: tuple = ()


# the keys that describe a generated graph, and the commands that read
# each key (an unknown key is rejected by every command)
GRAPH_KEYS = ("n", "radius", "p_asym")
READS = {key: setting.commands for key, setting in cli.SETTINGS.items()}
READS["wibble"] = cli.ALL

BAD_INPUTS = [
    Bad("wibble", "3", EXIT_CONFIG),
    Bad("n", "x", EXIT_CONFIG), Bad("n", "1", EXIT_CONFIG),
    Bad("n", "-4", EXIT_CONFIG),
    # the second-moment lift of 23 nodes is over its entry cap, a size
    # the settings ask for
    Bad("n", "23", EXIT_CONFIG, ("analyze",), ("--check", "second-moment")),
    Bad("radius", "0", EXIT_CONFIG), Bad("radius", "nan", EXIT_CONFIG),
    Bad("radius", "0.01", EXIT_RETRY),
    Bad("p_asym", "-0.5", EXIT_CONFIG), Bad("p_asym", "1", EXIT_CONFIG),
    Bad("p_asym", "nan", EXIT_CONFIG),
    Bad("gamma", "0", EXIT_CONFIG), Bad("gamma", "1.5", EXIT_CONFIG),
    Bad("gamma", "nan", EXIT_CONFIG), Bad("gamma", "half", EXIT_CONFIG),
    Bad("epsilon", "0", EXIT_CONFIG), Bad("epsilon", "-1", EXIT_CONFIG),
    Bad("epsilon", "inf", EXIT_CONFIG), Bad("epsilon", "nan", EXIT_CONFIG),
    Bad("epsilon", "fast", EXIT_CONFIG),
    Bad("epsilon", "auto-eta-fraction:2", EXIT_CONFIG),
    Bad("grid", "inf", EXIT_CONFIG), Bad("grid", "0.5,-0.5", EXIT_CONFIG),
    Bad("grid", "nan", EXIT_CONFIG), Bad("grid", "a,b", EXIT_CONFIG),
    Bad("grid", ",", EXIT_CONFIG),
    Bad("trials", "0", EXIT_CONFIG), Bad("trials", "-2", EXIT_CONFIG),
    Bad("trials", "soon", EXIT_CONFIG),
    Bad("threshold", "0", EXIT_CONFIG), Bad("threshold", "-1e-3", EXIT_CONFIG),
    Bad("threshold", "nan", EXIT_CONFIG), Bad("threshold", "inf", EXIT_CONFIG),
    Bad("max_iters", "0", EXIT_CONFIG), Bad("max_iters", "1.5", EXIT_CONFIG),
    # records hold iterations as int64: 10**20 overflowed simulate's
    # record grid, and 2**63 is the first value past int64
    Bad("max_iters", str(10**20), EXIT_CONFIG, ("simulate",)),
    Bad("max_iters", str(2**63), EXIT_CONFIG, ("sweep",)),
    Bad("workers", "0", EXIT_CONFIG), Bad("workers", "-3", EXIT_CONFIG),
    Bad("workers", "two", EXIT_CONFIG),
    Bad("scheme", "nosuch", EXIT_CONFIG),
    Bad("scheme", "classic", EXIT_CONFIG, ("sweep",)),
    # the classic scheme has no companion matrix to certify
    Bad("scheme", "classic", EXIT_CONFIG, ("analyze",),
        ("--check", "second-moment")),
    Bad("schemes", "bbga,nosuch", EXIT_CONFIG),
    Bad("schemes", ",", EXIT_CONFIG),
    # a scheme's files are named after it: a second run of it would
    # overwrite the first one's
    Bad("schemes", "bbga,bbga", EXIT_CONFIG),
    Bad("schemes", "bbga,ubga1,BBGA", EXIT_CONFIG),
    Bad("init", "nosuch", EXIT_CONFIG),
]


def run_captured(argv) -> tuple:
    """main's exit code (argparse's too) and what it wrote to stderr."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@pytest.mark.parametrize("bad", BAD_INPUTS,
                         ids=[f"{b.key}={b.value}" for b in BAD_INPUTS])
@settings(max_examples=3, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_bad_input_exits_with_one_error_line(graph_file, bad, data):
    # the bad setting comes in a config file or as a flag, next to valid
    # settings that are drawn the same way; whichever way, the command
    # exits with the code of EXIT_CODES and says why on one line
    command = data.draw(st.sampled_from(bad.commands or READS[bad.key]))
    values = {}
    if bad.key in GRAPH_KEYS or command == "generate":
        values["n"] = data.draw(st.integers(3, 30))
    else:
        values["graph"] = str(graph_file)
    if command in ("sweep", "simulate"):
        values["trials"] = data.draw(st.integers(1, 3))
        values["max_iters"] = data.draw(st.integers(1, 2000))
        values["threshold"] = data.draw(st.sampled_from(["1e-3", "0.01"]))
    if command == "sweep":
        values["grid"] = data.draw(st.sampled_from(["0.5", "0.3,0.6"]))
    values[bad.key] = bad.value
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "out"
        argv = [command, "--out", str(out), *bad.flags]
        lines = []
        for key, value in values.items():
            if data.draw(st.booleans(), label=f"{key} in the config file"):
                lines.append(f"{key} = {value}\n")
            else:
                argv.append(f"--{key.replace('_', '-')}={value}")
        if lines:
            cfg = Path(tmp) / "run.cfg"
            cfg.write_text("".join(lines))
            argv += ["--config", str(cfg)]
        code, err = run_captured(argv)
        # a rejected configuration writes nothing
        assert code != EXIT_CONFIG or not out.exists()
    assert code == bad.code, err
    assert "Traceback" not in err
    errors = [ln for ln in err.splitlines() if "error:" in ln]
    assert len(errors) == 1, err
    if errors[0].startswith("error: "):
        # main's own report: the error line is all there is
        assert err == errors[0] + "\n"
    else:
        # argparse's: usage lines, then "gossiplab <command>: error: ..."
        assert err.splitlines()[-1] == errors[0]


@pytest.mark.parametrize("command", cli.ALL)
def test_an_out_that_is_a_file_exits_2_with_one_error_line(graph_file,
                                                          tmp_path, command):
    # the output directory cannot be made: main reports the OSError
    # (after any results already printed) and leaves the file alone
    blocker = tmp_path / "afile"
    blocker.write_text("keep\n")
    argv = [command, "--out", str(blocker)]
    argv += (["--n", "8"] if command == "generate"
             else ["--graph", str(graph_file)])
    if command in cli.RUNS:
        argv += ["--trials", "1", "--max-iters", "200"]
    if command == "sweep":
        argv += ["--grid", "0.5"]
    code, err = run_captured(argv)
    assert code == EXIT_CONFIG
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert blocker.read_text() == "keep\n"


def test_a_graph_file_with_a_nan_coordinate_exits_2(graph_file, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("".join(
        "coord 1 nan 0.5\n" if ln.startswith("coord 1 ") else ln
        for ln in graph_file.read_text().splitlines(keepends=True)))
    out = tmp_path / "out"
    code, err = run_captured(
        ["simulate", "--graph", str(bad), "--schemes", "ubga1", "--init",
         "slope", "--trials", "2", "--max-iters", "2000", "--out", str(out)])
    assert (code, err) == (
        EXIT_CONFIG, f"error: cannot load graph {bad}: coords must be finite\n")
    assert not out.exists()


def test_a_graph_file_giving_a_node_two_coordinates_exits_2(graph_file,
                                                           tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(graph_file.read_text() + "coord 3 5 5\n")
    out = tmp_path / "out"
    code, err = run_captured(
        ["simulate", "--graph", str(bad), "--schemes", "ubga1", "--init",
         "slope", "--trials", "2", "--max-iters", "2000", "--out", str(out)])
    assert (code, err) == (
        EXIT_CONFIG,
        f"error: cannot load graph {bad}: coord line for node 3 given twice\n")
    assert not out.exists()


def test_a_graph_file_giving_an_edge_twice_exits_2(graph_file, tmp_path):
    # the header counts distinct edges: a repeated line adds none
    text = graph_file.read_text()
    head = next(ln for ln in text.splitlines() if not ln.startswith("#"))
    n, m = map(int, head.split())
    edge = text.split(head + "\n", 1)[1].splitlines()[0]
    bad = tmp_path / "bad.txt"
    bad.write_text(text.replace(head, f"{n} {m + 1}\n{edge}", 1))
    out = tmp_path / "out"
    code, err = run_captured(["analyze", "--graph", str(bad), "--out",
                              str(out)])
    assert (code, err) == (
        EXIT_CONFIG, f"error: cannot load graph {bad}: header says "
        f"{m + 1} edges, found {m}\n")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--epsilon", "0.5"],
    ["analyze", "--epsilon", "auto-optimal"],
    ["sweep", "--grid", "0.5", "--trials", "1"],
    ["simulate", "--trials", "1"],
], ids=["analyze", "analyze-auto", "sweep", "simulate"])
def test_a_graph_file_naming_more_nodes_than_its_edges_connect_exits_2(
        tmp_path, argv):
    # 10**8 nodes and no edge: the graph is refused as not strongly
    # connected before any n x n array (8.88 PiB as booleans) is asked for
    bad = tmp_path / "huge.txt"
    bad.write_text("100000000 0\n")
    out = tmp_path / "out"
    code, err = run_captured(argv + ["--graph", str(bad), "--out", str(out)])
    assert (code, err) == (
        EXIT_CONFIG, "error: scheme needs a strongly connected digraph\n")
    assert not out.exists()


@pytest.mark.parametrize("text", ["100000000 1\n1 2\n",
                                  "1000000000000 1\n1 2\n"],
                         ids=["1e8-nodes", "1e12-nodes"])
def test_a_graph_file_naming_nodes_no_edge_line_names_exits_2(tmp_path,
                                                              text):
    # the reader refuses the file before laying out n + 1 column offsets:
    # 800 MB for 10**8 nodes, a MemoryError for 10**12
    bad = tmp_path / "huge.txt"
    bad.write_text(text)
    out = tmp_path / "out"
    code, err = run_captured(["simulate", "--trials", "1", "--graph",
                              str(bad), "--out", str(out)])
    assert (code, err) == (
        EXIT_CONFIG, "error: scheme needs a strongly connected digraph\n")
    assert not out.exists()
