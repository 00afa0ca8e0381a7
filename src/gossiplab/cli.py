"""Command line front end: graph generation, spectral analysis,
coupling-strength sweeps, and Monte Carlo campaigns.

Every output file starts with comment headers carrying the tool version,
the fully resolved configuration, and the seed; reruns with the same
configuration reproduce files byte for byte (no timestamps anywhere).
Exit codes: 0 success, 2 invalid configuration, 3 numerical failure,
4 retry budget exhausted.
"""
from __future__ import annotations

import argparse
import dataclasses
import functools
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, analysis, graph, sim, spectra, svgplot
from .errors import (
    BadStationaryVector, BadXi, GossipLabError, InvalidEpsilon,
    MassConservationError, MissingCoords, NoConvergence, NotSimple,
    NotStronglyConnected, RetryExhausted, SizeOverflow, XiOutOfRange,
)
from .protocol import SchemeKind, build_scheme

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RETRY = 4

DEFAULT_GRID = [i / 50.0 for i in range(1, 51)]   # 0.02 .. 1.0 in 0.02 steps


class ConfigError(GossipLabError):
    """Invalid or inconsistent configuration."""


@dataclass
class ExperimentConfig:
    """Resolved experiment settings; config files use these field names
    in key=value lines, command line flags override them."""

    graph: str | None = None
    n: int | None = None
    radius: float | None = None
    p_asym: float = 0.0
    scheme: str = "bbga"
    schemes: str | None = None
    epsilon: str = "0.5"
    gamma: float = 0.5
    init: str = "uniform"
    trials: int = 100
    threshold: float = 1e-5
    max_iters: int = 10_000_000
    seed: int = 0
    out: str = "."
    grid: str | None = None
    workers: int | None = None


_PARSERS = {
    "graph": str, "n": int, "radius": float, "p_asym": float,
    "scheme": str, "schemes": str, "epsilon": str, "gamma": float,
    "init": str, "trials": int, "threshold": float, "max_iters": int,
    "seed": int, "out": str, "grid": str, "workers": int,
}


def load_config_file(path) -> dict:
    values = {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        val = val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}")
    return values


def resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    cfg = ExperimentConfig()
    if getattr(args, "config", None):
        for key, val in load_config_file(args.config).items():
            setattr(cfg, key, val)
    for key in _PARSERS:
        val = getattr(args, key, None)
        if val is not None:
            setattr(cfg, key, val)
    return cfg


def config_echo(cfg: ExperimentConfig, extras: dict) -> str:
    pairs = {}
    for f in dataclasses.fields(cfg):
        val = getattr(cfg, f.name)
        if val is None:
            continue
        pairs[f.name] = format(val, ".17g") if isinstance(val, float) else str(val)
    pairs.update({k: str(v) for k, v in extras.items()})
    return " ".join(f"{k}={pairs[k]}" for k in sorted(pairs))


def make_header(command: str, cfg: ExperimentConfig, extras: dict) -> list:
    return [
        f"gossiplab {__version__}",
        f"command: {command}",
        f"config: {config_echo(cfg, extras)}",
        f"seed: {cfg.seed}",
    ]


def obtain_graph(cfg: ExperimentConfig) -> tuple:
    """Load a graph file or generate one from (n, radius, p_asym, seed).
    Returns the graph and the extras to echo into headers."""
    if cfg.graph is not None:
        try:
            g = graph.load_graph(cfg.graph)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load graph {cfg.graph}: {exc}")
        return g, {}
    if cfg.n is None:
        raise ConfigError("need either a graph file (--graph) or a size (--n)")
    rng = np.random.default_rng(cfg.seed)
    radius = cfg.radius if cfg.radius is not None else graph.connectivity_radius(cfg.n)
    g = graph.random_geometric_graph(cfg.n, radius, rng)
    if cfg.p_asym > 0.0:
        g = graph.directify(g, cfg.p_asym, rng)
    return g, {"radius_resolved": format(radius, ".17g")}


def parse_scheme(token: str) -> SchemeKind:
    try:
        return SchemeKind(token.strip().lower())
    except ValueError:
        names = ", ".join(k.value for k in SchemeKind)
        raise ConfigError(f"unknown scheme {token!r} (choose from {names})")


def epsilon_reports(g):
    """A getter of g's epsilon report that computes it on first use only,
    so one command builds it at most once."""
    return functools.cache(lambda: analysis.epsilon_report(g))


def resolve_epsilon(spec: str, g, kind: SchemeKind, report=None) -> tuple:
    """Turn an epsilon spec (literal, auto-optimal, auto-eta-fraction:f)
    into a number, with a note when the value is only approximate.  The
    auto specs read g's epsilon report from `report`, a getter made by
    epsilon_reports (a fresh one by default)."""
    spec = spec.strip()
    if kind is SchemeKind.CLASSIC:
        return 0.0, ""
    if report is None:
        report = epsilon_reports(g)
    note = ""
    if spec == "auto-optimal":
        er = report()
        eps = er.epsilon_star
        if not er.spectrum_real:
            note = "approximate (complex Laplacian spectrum)"
    elif spec.startswith("auto-eta-fraction:"):
        try:
            frac = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad fraction in {spec!r}")
        if not 0.0 < frac < 1.0:
            raise ConfigError("eta fraction must lie strictly between 0 and 1")
        er = report()
        eps = frac * er.eta_formula
        if not er.spectrum_real:
            note = "approximate (complex Laplacian spectrum)"
    else:
        try:
            eps = float(spec)
        except ValueError:
            raise ConfigError(f"bad epsilon {spec!r}")
    return eps, note


def parse_grid(spec: str | None) -> list:
    if spec is None:
        return list(DEFAULT_GRID)
    try:
        grid = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError(f"bad grid {spec!r}")
    if not grid:
        raise ConfigError("empty grid")
    return grid


def _outdir(cfg: ExperimentConfig) -> Path:
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def warn_censored(censored: int, trials: int, max_iters: int,
                  where: str = "") -> None:
    """Say on stderr when trials hit max_iters: the broadcast averages
    count each of them as max_iters."""
    if censored:
        print(f"warning: {where}{censored} of {trials} trials hit "
              f"max_iters={max_iters} without converging; the broadcast "
              f"averages count them as {max_iters}", file=sys.stderr)


# ---- subcommands ----

def cmd_generate(cfg: ExperimentConfig) -> int:
    if cfg.n is None:
        raise ConfigError("generate needs --n")
    cfg.graph = None
    g, extras = obtain_graph(cfg)
    out = _outdir(cfg)
    path = out / "graph.txt"
    graph.save_graph(g, path, header_lines=make_header("generate", cfg, extras))
    xi = spectra.eigenvalues(analysis.indegree_laplacian(g))
    sc = "yes" if graph.is_strongly_connected(g) else "no"
    radius = float(extras["radius_resolved"])
    print(f"n={g.n} edges={len(g.edges)} strongly_connected={sc} "
          f"radius={radius:.17g} p_asym={cfg.p_asym:g}")
    print(f"xi2={xi[1].real:.6g}{'' if abs(xi[1].imag) < 1e-12 else '+...j'} "
          f"xi_n={xi[-1].real:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_analyze(cfg: ExperimentConfig, check: str | None) -> int:
    g, extras = obtain_graph(cfg)
    kind = parse_scheme(cfg.scheme)
    eps_report = epsilon_reports(g)
    eps, note = resolve_epsilon(cfg.epsilon, g, kind, eps_report)
    extras["epsilon_resolved"] = format(eps, ".17g")
    scheme = build_scheme(kind, g, eps, cfg.gamma)
    out = _outdir(cfg)
    header = make_header("analyze", cfg, extras)

    report = analysis.classify_expectation(scheme)
    sdict = analysis.spectral_report_dict(report)
    print(f"scheme={kind.value} epsilon={eps:.17g}"
          + (f" note={note}" if note else ""))
    print(f"is_simple_one={str(report.is_simple_one).lower()} "
          f"second_largest_modulus={report.second_largest_modulus:.17g}")

    if check == "second-moment":
        v = analysis.stationary_vector(scheme)
        rho = spectra.spectral_radius(analysis.second_moment_matrix(scheme, v))
        verdict = "PASS" if rho < 1.0 else "FAIL"
        print(f"rho<1: {verdict} (rho={rho:.17g})")
        sdict["second_moment_rho"] = rho

    sdict["header"] = header
    analysis.save_report_json(sdict, out / "spectral_report.json")

    if kind is SchemeKind.CLASSIC:
        # stability window and optimal coupling are defined through the
        # companion matrix; the memoryless scheme has none
        print("classic scheme: consensus prediction via w1 only, "
              "no stability window or optimal coupling")
        eta = eps_star = float("nan")
    else:
        er = eps_report()
        edict = analysis.epsilon_report_dict(er)
        edict["header"] = header
        analysis.save_report_json(edict, out / "epsilon_report.json")
        eta, eps_star = er.eta_formula, er.epsilon_star
        marker = "" if er.spectrum_real else " (approximate, complex spectrum)"
        print(f"eta={eta:.17g} eta_practical={er.eta_practical:.17g}")
        print(f"epsilon_star={eps_star:.17g}{marker} "
              f"lambda2_at_star={er.lambda2_at_star:.17g}")

    csv = analysis.analysis_csv_rows([(eps, report, eta, eps_star)])
    sim.write_text(out / "analysis.csv", csv, header_lines=header)
    print(f"wrote {out / 'spectral_report.json'}")
    return EXIT_OK


def cmd_sweep(cfg: ExperimentConfig, svg: bool) -> int:
    g, extras = obtain_graph(cfg)
    kind = parse_scheme(cfg.scheme)
    if kind is SchemeKind.CLASSIC:
        raise ConfigError("sweep varies the companion coupling; "
                          "the classic scheme has none")
    grid = parse_grid(cfg.grid)
    points = sim.epsilon_sweep(kind, g, grid, cfg.trials, cfg.threshold,
                               cfg.max_iters, cfg.seed, gamma=cfg.gamma,
                               init=cfg.init, workers=cfg.workers)
    analytic = [
        analysis.classify_expectation(build_scheme(kind, g, eps, cfg.gamma))
        .second_largest_modulus
        for eps in grid
    ]
    out = _outdir(cfg)
    header = make_header("sweep", cfg, extras)
    sim.write_text(out / "sweep.csv", sim.sweep_csv(points, analytic=analytic),
                   header_lines=header)
    failures = sum(len(p.result.failures) for p in points)
    censored = sum(p.result.censored for p in points)
    print(f"points={len(points)} trials_per_point={cfg.trials} "
          f"failures={failures} censored={censored}")
    for p in points:
        for idx, msg in p.result.failures:
            print(f"  epsilon={p.epsilon:.17g} trial {idx} failed: {msg}",
                  file=sys.stderr)
    warn_censored(censored, len(points) * cfg.trials, cfg.max_iters)
    # a point whose every trial failed has a nan mean and takes no part
    finite = [p for p in points if np.isfinite(p.result.mean_broadcasts)]
    if finite:
        best = min(finite, key=lambda p: p.result.mean_broadcasts)
        print(f"best_epsilon={best.epsilon:.17g} "
              f"mean_broadcasts={best.result.mean_broadcasts:.17g}")
    if svg and finite:
        svgplot.save_chart(
            out / "sweep.svg",
            [(kind.value, [p.epsilon for p in points],
              [p.result.mean_broadcasts for p in points])],
            header_lines=header,
            title="mean broadcasts to converge", xlabel="epsilon",
            ylabel="broadcasts", log_y=True)
    print(f"wrote {out / 'sweep.csv'}")
    return EXIT_NUMERIC if failures else EXIT_OK


def cmd_simulate(cfg: ExperimentConfig, per_trial: bool, svg: bool) -> int:
    g, extras = obtain_graph(cfg)
    tokens = (cfg.schemes or cfg.scheme).split(",")
    kinds = [parse_scheme(tok) for tok in tokens if tok.strip()]
    if not kinds:
        raise ConfigError("no schemes given")
    out = _outdir(cfg)
    any_failures = False
    curves = []
    eps_report = epsilon_reports(g)
    for kind in kinds:
        eps, note = resolve_epsilon(cfg.epsilon, g, kind, eps_report)
        scheme = build_scheme(kind, g, eps, cfg.gamma)
        extras[f"epsilon_{kind.value}"] = format(eps, ".17g")
        w1 = None
        if kind is not SchemeKind.CLASSIC:
            rep = analysis.classify_expectation(scheme)
            if rep.is_simple_one:
                w1 = rep.w1
        res = sim.monte_carlo(scheme, g, cfg.init, cfg.trials, cfg.threshold,
                              cfg.max_iters, cfg.seed, workers=cfg.workers,
                              keep_series=True, w1=w1)
        header = make_header("simulate", cfg, extras)
        if res.records:
            sim.write_text(out / f"trajectory_{kind.value}.csv",
                           sim.aggregate_csv(res.records), header_lines=header)
            if per_trial:
                for rec in res.records:
                    sim.write_text(
                        out / f"trial_{kind.value}_{rec.seed - cfg.seed}.csv",
                        sim.trial_csv(rec), header_lines=header)
            grid_t, mean_r, _ = sim.aggregate_series(res.records)
            curves.append((kind.value, grid_t, mean_r))
        print(f"scheme={kind.value} epsilon={eps:.17g} "
              f"mean_broadcasts={res.mean_broadcasts:.17g} "
              f"mean_r_final={res.mean_r_final:.17g} "
              f"mean_q_final={res.mean_q_final:.17g} failures={len(res.failures)} "
              f"censored={res.censored}")
        if res.failures:
            any_failures = True
            for idx, msg in res.failures:
                print(f"  trial {idx} failed: {msg}", file=sys.stderr)
        warn_censored(res.censored, res.trials, cfg.max_iters,
                      f"scheme={kind.value}: ")
    if svg and curves:
        safe = [(lbl, [t for t, r in zip(ts, rs) if r > 0],
                 [r for r in rs if r > 0]) for lbl, ts, rs in curves]
        svgplot.save_chart(out / "trajectories.svg", safe,
                           header_lines=make_header("simulate", cfg, extras),
                           title="mean squared error to the initial average",
                           xlabel="iteration", ylabel="r(t)", log_y=True)
    print(f"wrote {len(curves)} trajectory file(s) in {out}")
    return EXIT_NUMERIC if any_failures else EXIT_OK


# ---- argument parsing ----

def _add_common(p: argparse.ArgumentParser, with_scheme: bool = True):
    p.add_argument("--config", help="key=value config file")
    p.add_argument("--graph", help="edge-list file to load")
    p.add_argument("--n", type=int, help="generate a graph of this size")
    p.add_argument("--radius", type=float,
                   help="connection radius (default: sqrt(2 ln n / n))")
    p.add_argument("--p-asym", dest="p_asym", type=float,
                   help="probability a link becomes one-directional")
    p.add_argument("--seed", type=int, help="master seed (default 0)")
    p.add_argument("--out", help="output directory (default .)")
    p.add_argument("--workers", type=int, help="parallel workers "
                   "(capped by GOSSIPLAB_THREADS)")
    if with_scheme:
        p.add_argument("--scheme", help="ubga1|ubga2|ubga3|bbga|classic")
        p.add_argument("--epsilon", help="number | auto-optimal | "
                       "auto-eta-fraction:f")
        p.add_argument("--gamma", type=float, help="classic mixing weight")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gossiplab",
        description="broadcast gossip averaging: graphs, spectra, simulation")
    p.add_argument("--version", action="version",
                   version=f"gossiplab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    pg = sub.add_parser("generate", help="write a random geometric graph")
    _add_common(pg, with_scheme=False)

    pa = sub.add_parser("analyze", help="spectral reports for a scheme")
    _add_common(pa)
    pa.add_argument("--check", choices=["second-moment"],
                    help="extra numerical certificate")

    ps = sub.add_parser("sweep", help="Monte Carlo sweep over epsilon")
    _add_common(ps)
    ps.add_argument("--grid", help="comma-separated epsilon values "
                    "(default 0.02..1 step 0.02)")
    ps.add_argument("--trials", type=int, help="trials per grid point")
    ps.add_argument("--init", help="uniform|gaussian|spike|slope")
    ps.add_argument("--threshold", type=float, help="stopping threshold")
    ps.add_argument("--max-iters", dest="max_iters", type=int)
    ps.add_argument("--svg", action="store_true", help="also write sweep.svg")

    pm = sub.add_parser("simulate", help="Monte Carlo campaign per scheme")
    _add_common(pm)
    pm.add_argument("--schemes", help="comma-separated scheme list")
    pm.add_argument("--trials", type=int)
    pm.add_argument("--init", help="uniform|gaussian|spike|slope")
    pm.add_argument("--threshold", type=float)
    pm.add_argument("--max-iters", dest="max_iters", type=int)
    pm.add_argument("--per-trial", action="store_true",
                    help="also write one t,r,q file per trial")
    pm.add_argument("--svg", action="store_true",
                    help="also write trajectories.svg")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.check)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.svg)
        return cmd_simulate(cfg, args.per_trial, args.svg)
    except (ConfigError, InvalidEpsilon, NotStronglyConnected, MissingCoords,
            ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RetryExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RETRY
    except (NoConvergence, NotSimple, SizeOverflow, BadStationaryVector,
            XiOutOfRange, BadXi, MassConservationError, GossipLabError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
