"""Command line front end: files, headers, exit codes, reproducibility."""
import json

import numpy as np
import pytest

from gossiplab import analysis, graph, sim
from gossiplab.cli import (
    DEFAULT_GRID, EXIT_CONFIG, EXIT_NUMERIC, EXIT_OK, EXIT_RETRY,
    ConfigError, load_config_file, main, parse_grid, resolve_epsilon,
)


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
    expected = analysis.epsilon_report_dict(real(g))
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
    from gossiplab.protocol import SchemeKind
    assert resolve_epsilon("0.4", g, SchemeKind.BBGA) == (0.4, "")
    eps, note = resolve_epsilon("auto-optimal", g, SchemeKind.BBGA)
    assert eps == pytest.approx(er.epsilon_star) and note == ""
    eps, _ = resolve_epsilon("auto-eta-fraction:0.5", g, SchemeKind.UBGA1)
    assert eps == pytest.approx(0.5 * er.eta_formula)
    assert resolve_epsilon("0.9", g, SchemeKind.CLASSIC) == (0.0, "")
    with pytest.raises(ConfigError):
        resolve_epsilon("auto-eta-fraction:x", g, SchemeKind.BBGA)


def test_sweep(graph_file, tmp_path, capsys):
    code = run(["sweep", "--graph", str(graph_file), "--scheme", "bbga",
                "--grid", "0.3,0.5", "--trials", "2", "--threshold", "1e-3",
                "--out", str(tmp_path), "--svg"])
    assert code == EXIT_OK
    printed = capsys.readouterr().out
    assert "best_epsilon=" in printed
    assert "failures=0 censored=0" in printed
    text = (tmp_path / "sweep.csv").read_text()
    data = [ln for ln in text.splitlines() if not ln.startswith("#")]
    assert data[0].endswith(",analytic_lambda2")
    assert len(data) == 3
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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert "gossiplab 0.1.0" in capsys.readouterr().out


def test_workers_env_cap(graph_file, tmp_path, monkeypatch):
    out1 = tmp_path / "a"
    assert run(["simulate", "--graph", str(graph_file), "--scheme", "bbga",
                "--trials", "2", "--threshold", "1e-3",
                "--out", str(out1)]) == EXIT_OK
    monkeypatch.setenv("GOSSIPLAB_THREADS", "1")
    out2 = tmp_path / "b"
    assert run(["simulate", "--graph", str(graph_file), "--scheme", "bbga",
                "--trials", "2", "--threshold", "1e-3", "--workers", "6",
                "--out", str(out2)]) == EXIT_OK
    t1 = (out1 / "trajectory_bbga.csv").read_text()
    t2 = (out2 / "trajectory_bbga.csv").read_text()
    strip = lambda s: [ln for ln in s.splitlines() if not ln.startswith("#")]
    assert strip(t1) == strip(t2)
