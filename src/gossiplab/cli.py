"""Command line front end: graph generation, spectral analysis,
coupling-strength sweeps, and Monte Carlo campaigns.

Every output file starts with comment headers carrying the tool version,
the resolved settings its command read, and the seed; reruns with the same
configuration reproduce files byte for byte (no timestamps anywhere).
Exit codes: 0 success, 2 invalid configuration or an output that cannot
be written, 3 numerical failure, 4 retry budget exhausted.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__, analysis, graph, sim, spectra, svgplot
from .errors import (
    GossipLabError, InvalidEpsilon, MissingCoords, NotStronglyConnected,
    RetryExhausted, SizeOverflow,
)
from .protocol import SchemeKind, build_scheme

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_RETRY = 4

DEFAULT_GRID = [i / 50.0 for i in range(1, 51)]   # 0.02 .. 1.0 in 0.02 steps


class ConfigError(GossipLabError):
    """Invalid or inconsistent configuration."""


# the exit code of an error is that of the first entry it is an instance of
EXIT_CODES = (
    (RetryExhausted, EXIT_RETRY),
    ((ConfigError, InvalidEpsilon, NotStronglyConnected, MissingCoords,
      SizeOverflow, ValueError, OSError), EXIT_CONFIG),
    (GossipLabError, EXIT_NUMERIC),
)


class Setting(NamedTuple):
    """A setting's value when no config file or flag gives one, the type
    its values are parsed with, the commands that read it, and its help."""

    default: object
    type: type
    commands: tuple
    help: str


ALL = ("generate", "analyze", "sweep", "simulate")
SCHEMED = ALL[1:]
RUNS = ("sweep", "simulate")

# every setting, in flag order; config files use these names in key=value
# lines, and a command's flags, header echo and resolved configuration
# hold exactly the settings it reads
SETTINGS = {
    "graph": Setting(None, str, SCHEMED, "edge-list file to load"),
    "n": Setting(None, int, ALL, "generate a graph of this size"),
    "radius": Setting(None, float, ALL,
                      "connection radius (default: sqrt(2 ln n / n))"),
    "p_asym": Setting(0.0, float, ALL,
                      "probability a link becomes one-directional"),
    "seed": Setting(0, int, ALL, "master seed (default 0)"),
    "out": Setting(".", str, ALL, "output directory (default .)"),
    "workers": Setting(None, int, SCHEMED, "parallel worker processes, at "
                       "least 1 (capped by the CPU count)"),
    "scheme": Setting("bbga", str, SCHEMED, "ubga1|ubga2|ubga3|bbga|classic"),
    "schemes": Setting(None, str, ("simulate",), "comma-separated schemes"),
    "epsilon": Setting("0.5", str, ("analyze", "simulate"),
                       "number | auto-optimal | auto-eta-fraction:f (f times "
                       "eta, BBGA's first-moment window; other schemes' "
                       "windows differ, and the second moment can grow "
                       "well inside it)"),
    "gamma": Setting(0.5, float, ("analyze", "simulate"),
                     "classic mixing weight"),
    "grid": Setting(None, str, ("sweep",), "comma-separated epsilon values "
                    "(default 0.02..1 step 0.02)"),
    "trials": Setting(100, int, RUNS, "trials per grid point or scheme"),
    "init": Setting("uniform", str, RUNS, "uniform|gaussian|spike|slope"),
    "threshold": Setting(1e-5, float, RUNS, "stopping threshold"),
    "max_iters": Setting(10_000_000, int, RUNS, "iteration cap per trial"),
}
# the settings that generate a graph, read only when no graph is loaded
GENERATOR = ("n", "radius", "p_asym")

# each command's help, and its flags that are no setting: they are
# neither read from config files nor echoed
SVG = {"--svg": dict(action="store_true", help="also write an SVG chart")}
COMMANDS = {
    "generate": ("write a random geometric graph", {}),
    "analyze": ("spectral reports for a scheme", {"--check": dict(
        choices=["second-moment"], help="extra numerical certificate")}),
    "sweep": ("Monte Carlo sweep over epsilon", SVG),
    "simulate": ("Monte Carlo campaign per scheme", {**SVG, "--per-trial":
        dict(action="store_true", help="also write a t,r,q file per trial")}),
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
        if key not in SETTINGS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = SETTINGS[key].type(val)
        except ValueError:
            raise ConfigError(f"{path}:{lineno}: bad value for {key}: {val!r}")
    return values


def resolve_config(args: argparse.Namespace) -> argparse.Namespace:
    """The settings args.command reads: table defaults, then config-file
    values, then flags.  A config-file key the command does not read is
    type-checked but not applied."""
    keys = [k for k, s in SETTINGS.items() if args.command in s.commands]
    values = {k: SETTINGS[k].default for k in keys}
    if args.config:
        given = load_config_file(args.config)
        values.update((k, given[k]) for k in keys if k in given)
    flags = [k for k in keys if getattr(args, k) is not None]
    values.update((k, getattr(args, k)) for k in flags)
    if values.get("graph") is not None:
        # a loaded graph is not generated: no generator setting is read,
        # and a flag giving one is an error
        for k in GENERATOR:
            if k in flags:
                raise ConfigError(f"--{k.replace('_', '-')} cannot be "
                                  "combined with a graph file")
            del values[k]
    for k, v in values.items():     # each is echoed on one "# " line
        if isinstance(v, str) and "".join(v.splitlines()) != v:
            raise ConfigError(f"{k} must hold no line break, got {v!r}")
    cfg = argparse.Namespace(**values)
    if values.get("workers") is not None and cfg.workers < 1:
        raise ConfigError(f"workers must be at least 1, got {cfg.workers}")
    # every trial would "converge" at its first step
    if "threshold" in values and not np.isfinite(cfg.threshold):
        raise ConfigError(f"threshold must be finite, got {cfg.threshold}")
    return cfg


def config_echo(cfg: argparse.Namespace, extras: dict) -> str:
    pairs = {k: f"{v:.17g}" if isinstance(v, float) else str(v)
             for k, v in vars(cfg).items() if v is not None}
    pairs.update({k: str(v) for k, v in extras.items()})
    return " ".join(f"{k}={pairs[k]}" for k in sorted(pairs))


def make_header(command: str, cfg: argparse.Namespace, extras: dict) -> list:
    return [
        f"gossiplab {__version__}",
        f"command: {command}",
        f"config: {config_echo(cfg, extras)}",
        f"seed: {cfg.seed}",
    ]


def obtain_graph(cfg: argparse.Namespace) -> tuple:
    """Load a graph file or generate one from (n, radius, p_asym, seed).
    Returns the graph and the extras to echo into headers."""
    if getattr(cfg, "graph", None) is not None:
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
    if cfg.p_asym != 0.0:
        g = graph.directify(g, cfg.p_asym, rng)
    return g, {"radius_resolved": f"{radius:.17g}"}


def parse_choice(kind: type, token: str, what: str):
    """The member of the enum `kind` that `token` names (case and outer
    blanks ignored); an unknown name is a ConfigError listing them all."""
    try:
        return kind(token.strip().lower())
    except ValueError:
        names = ", ".join(k.value for k in kind)
        raise ConfigError(f"unknown {what} {token!r} (choose from {names})")


def epsilon_reports(g):
    """A getter of g's epsilon report that computes it on first use only,
    so one command builds it at most once."""
    return functools.cache(lambda: analysis.epsilon_report(g))


def resolve_epsilon(spec: str, kind: SchemeKind, report) -> tuple:
    """Turn an epsilon spec (literal, auto-optimal, auto-eta-fraction:f)
    into a number, with a note when the value is only approximate.  The
    auto specs read the graph's epsilon report from `report`, a getter
    made by epsilon_reports."""
    spec = spec.strip()
    if kind is SchemeKind.CLASSIC:
        return 0.0, ""
    if spec == "auto-optimal":
        er = report()
        eps = er.epsilon_star
    elif spec.startswith("auto-eta-fraction:"):
        try:
            frac = float(spec.split(":", 1)[1])
        except ValueError:
            raise ConfigError(f"bad fraction in {spec!r}")
        if not 0.0 < frac < 1.0:
            raise ConfigError("eta fraction must lie strictly between 0 and 1")
        er = report()
        eps = frac * er.eta_formula
    else:
        try:
            return float(spec), ""
        except ValueError:
            raise ConfigError(f"bad epsilon {spec!r}")
    return eps, ("" if er.spectrum_real
                 else "approximate (complex Laplacian spectrum)")


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


def _outdir(cfg: argparse.Namespace) -> Path:
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


def analysis_csv(eps: float, report, eta: float, eps_star: float) -> bytes:
    """analyze's one-row CSV summary of a SpectralReport at coupling eps."""
    return ("epsilon,second_largest_modulus,is_simple_one,eta,epsilon_star\n"
            + f"{eps:.17g},{report.second_largest_modulus:.17g},"
            f"{str(report.is_simple_one).lower()},{eta:.17g},"
            f"{eps_star:.17g}\n").encode()


def report_json(data: dict) -> bytes:
    """A report dict as indented JSON with sorted keys, byte-stable."""
    return (json.dumps(data, indent=2, sort_keys=True) + "\n").encode()


# ---- subcommands ----

def cmd_generate(cfg: argparse.Namespace) -> int:
    if cfg.n is None:
        raise ConfigError("generate needs --n")
    g, extras = obtain_graph(cfg)
    out = _outdir(cfg)
    path = out / "graph.txt"
    graph.save_graph(g, path, header_lines=make_header("generate", cfg, extras))
    # epsilon_report refuses a graph that is not strongly connected
    xi = analysis.epsilon_report(g).xi
    radius = float(extras["radius_resolved"])
    print(f"n={g.n} edges={len(g.columns[1])} strongly_connected=yes "
          f"radius={radius:.17g} p_asym={cfg.p_asym:g}")
    print(f"xi2={xi[1].real:.6g}{'' if abs(xi[1].imag) < 1e-12 else '+...j'} "
          f"xi_n={xi[-1].real:.6g}")
    print(f"wrote {path}")
    return EXIT_OK


def cmd_analyze(cfg: argparse.Namespace, check: str | None) -> int:
    g, extras = obtain_graph(cfg)
    kind = parse_choice(SchemeKind, cfg.scheme, "scheme")
    eps_report = epsilon_reports(g)
    eps, note = resolve_epsilon(cfg.epsilon, kind, eps_report)
    extras["epsilon_resolved"] = f"{eps:.17g}"
    scheme = build_scheme(kind, g, eps, cfg.gamma)
    header = make_header("analyze", cfg, extras)

    report = analysis.classify_expectation(scheme)
    sdict = analysis.report_dict(report)
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

    out = _outdir(cfg)
    sdict["header"] = header
    sim.write_text(out / "spectral_report.json", report_json(sdict))

    if kind is SchemeKind.CLASSIC:
        # stability window and optimal coupling are defined through the
        # companion matrix; the memoryless scheme has none
        print("classic scheme: consensus prediction via w1 only, "
              "no stability window or optimal coupling")
        eta = eps_star = float("nan")
    else:
        er = eps_report()
        edict = analysis.report_dict(er)
        edict["header"] = header
        sim.write_text(out / "epsilon_report.json", report_json(edict))
        eta, eps_star = er.eta_formula, er.epsilon_star
        marker = "" if er.spectrum_real else " (approximate, complex spectrum)"
        print(f"eta={eta:.17g} eta_practical={er.eta_practical:.17g}")
        print(f"epsilon_star={eps_star:.17g}{marker} "
              f"lambda2_at_star={er.lambda2_at_star:.17g}")

    sim.write_text(out / "analysis.csv",
                   analysis_csv(eps, report, eta, eps_star),
                   header_lines=header)
    print(f"wrote {out / 'spectral_report.json'}")
    return EXIT_OK


def cmd_sweep(cfg: argparse.Namespace, svg: bool) -> int:
    g, extras = obtain_graph(cfg)
    kind = parse_choice(SchemeKind, cfg.scheme, "scheme")
    if kind is SchemeKind.CLASSIC:
        raise ConfigError("sweep varies the companion coupling; "
                          "the classic scheme has none")
    init = parse_choice(sim.InitKind, cfg.init, "init")
    grid = parse_grid(cfg.grid)
    points = sim.epsilon_sweep(kind, g, grid, cfg.trials, cfg.threshold,
                               cfg.max_iters, cfg.seed, init=init,
                               workers=cfg.workers)
    analytic = analysis.second_largest_moduli([p.scheme for p in points])
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


def cmd_simulate(cfg: argparse.Namespace, per_trial: bool, svg: bool) -> int:
    g, extras = obtain_graph(cfg)
    tokens = (cfg.schemes or cfg.scheme).split(",")
    kinds = [parse_choice(SchemeKind, tok, "scheme")
             for tok in tokens if tok.strip()]
    if not kinds:
        raise ConfigError("no schemes given")
    init = parse_choice(sim.InitKind, cfg.init, "init")
    # each scheme names its own files
    for i, kind in enumerate(kinds):
        if kind in kinds[:i]:
            raise ConfigError(f"scheme {kind.value!r} given twice")
    # resolve and build every scheme before any trial runs or any file is
    # written; the k-th scheme's files echo the couplings resolved up to it
    epsilons, notes, schemes, headers = [], [], [], []
    eps_report = epsilon_reports(g)
    for kind in kinds:
        eps, note = resolve_epsilon(cfg.epsilon, kind, eps_report)
        schemes.append(build_scheme(kind, g, eps, cfg.gamma))
        extras[f"epsilon_{kind.value}"] = f"{eps:.17g}"
        epsilons.append(eps)
        notes.append(note)
        headers.append(make_header("simulate", cfg, extras))
    results = sim.campaigns(schemes, g, init, cfg.trials, cfg.threshold,
                            cfg.max_iters, cfg.seed, workers=cfg.workers,
                            keep_series=True)
    out = _outdir(cfg)
    any_failures = False
    curves = []
    for kind, eps, note, header in zip(kinds, epsilons, notes, headers):
        res = results.pop(0)
        if res.records:
            series = sim.aggregate_series(res.records)
            sim.write_text(out / f"trajectory_{kind.value}.csv",
                           sim.aggregate_csv(series),
                           header_lines=header)
            if per_trial:
                for rec in res.records:
                    sim.write_text(
                        out / f"trial_{kind.value}_{rec.seed - cfg.seed}.csv",
                        sim.trial_csv(rec), header_lines=header)
            curves.append((kind.value, series[0], series[1]))
        print(f"scheme={kind.value} epsilon={eps:.17g} "
              f"mean_broadcasts={res.mean_broadcasts:.17g} "
              f"mean_r_final={res.mean_r_final:.17g} "
              f"mean_q_final={res.mean_q_final:.17g} failures={len(res.failures)} "
              f"censored={res.censored}" + (f" note={note}" if note else ""))
        if res.failures:
            any_failures = True
            for idx, msg in res.failures:
                print(f"  trial {idx} failed: {msg}", file=sys.stderr)
        warn_censored(res.censored, res.trials, cfg.max_iters,
                      f"scheme={kind.value}: ")
        del res     # its records are written; the chart needs only curves
    if svg and curves:
        svgplot.save_chart(out / "trajectories.svg", curves,
                           header_lines=make_header("simulate", cfg, extras),
                           title="mean squared error to the initial average",
                           xlabel="iteration", ylabel="r(t)", log_y=True)
    print(f"wrote {len(curves)} trajectory file(s) in {out}")
    return EXIT_NUMERIC if any_failures else EXIT_OK


# ---- argument parsing ----

def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="gossiplab",
        description="broadcast gossip averaging: graphs, spectra, simulation")
    p.add_argument("--version", action="version",
                   version=f"gossiplab {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    for command, (text, switches) in COMMANDS.items():
        pc = sub.add_parser(command, help=text)
        pc.add_argument("--config", help="key=value config file")
        for key, setting in SETTINGS.items():
            if command in setting.commands:
                pc.add_argument("--" + key.replace("_", "-"),
                                type=setting.type, help=setting.help)
        for flag, kwargs in switches.items():
            pc.add_argument(flag, **kwargs)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.command == "generate":
            return cmd_generate(cfg)
        if args.command == "analyze":
            return cmd_analyze(cfg, args.check)
        if args.command == "sweep":
            return cmd_sweep(cfg, args.svg)
        return cmd_simulate(cfg, args.per_trial, args.svg)
    except (GossipLabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for cls, code in EXIT_CODES if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
