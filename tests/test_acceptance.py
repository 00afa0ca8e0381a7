"""Acceptance gate: ten numbered end-to-end checks with frozen seeds.

Every test prints exactly one verdict line of the form

    ACCEPTANCE nn slug: PASS (details)

before asserting, so the suite's captured output doubles as a checklist.
Tolerances are part of the contract and are not to be loosened.
"""
import numpy as np
import pytest

from gossiplab.graph import (
    DiGraph, connectivity_radius, laplacian, random_geometric_graph,
)
from gossiplab.protocol import (
    GossipState, SchemeKind, assemble_Wk, build_scheme, local_update, step,
)
from gossiplab.analysis import (
    bbga_closed_eigs, classify_expectation, eta_bound, expected_matrix,
    optimal_epsilon, second_moment_matrix, stationary_vector,
)
from gossiplab.spectra import (
    eigenvalues, multiset_distance, spectral_radius,
)
from gossiplab.sim import (
    InitKind, aggregate_csv, aggregate_series, epsilon_sweep, monte_carlo,
    run_trial,
)

GRID = [i / 50.0 for i in range(1, 51)]


def check(num, slug, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:02d} {slug}: {verdict} ({detail})")
    assert ok, f"criterion {num} {slug}: {detail}"


def rgg(n, seed):
    return random_geometric_graph(n, connectivity_radius(n),
                                  np.random.default_rng(seed))


def sorted_xi(scheme):
    return np.sort(eigenvalues(laplacian(scheme.dense(scheme.a))).real)


@pytest.fixture(scope="module")
def sweep_curves(graph16):
    """Paired Monte Carlo sweeps reused by the sweep-shape criterion."""
    bbga = epsilon_sweep(SchemeKind.BBGA, graph16, GRID, 50, 1e-5,
                         200_000, 42)
    ubga = epsilon_sweep(SchemeKind.UBGA1, graph16, GRID, 50, 1e-5,
                         200_000, 42)
    return bbga, ubga


def test_criterion_01_closed_form_spectrum():
    worst = 0.0
    for i in range(20):
        n = (4, 8, 16)[i % 3]
        g = rgg(n, 200 + i)
        s = build_scheme(SchemeKind.BBGA, g, 1.0)
        xi = eigenvalues(laplacian(s.dense(s.a)))
        for eps in (0.1, 0.5, 1.0):
            s = build_scheme(SchemeKind.BBGA, g, eps)
            numeric = eigenvalues(expected_matrix(s))
            worst = max(worst,
                        multiset_distance(bbga_closed_eigs(xi, eps, n),
                                          numeric))
    check(1, "closed-form-spectrum", worst <= 1e-7,
          f"worst multiset distance {worst:.3e}, tol 1e-07, "
          "20 graphs x 3 couplings")


def test_criterion_02_stability_bound():
    eta_ref = eta_bound(1.3796, 16)
    ok = abs(eta_ref - 29.30) <= 0.01
    worst_inside = 0.0
    worst_outside = -np.inf
    for i in range(10):
        g = rgg(16, 101 + i)
        s = build_scheme(SchemeKind.BBGA, g, 1.0)
        xi_n = float(np.clip(sorted_xi(s)[-1], 0.0, 2.0))
        eta = eta_bound(xi_n, 16)
        low = eigenvalues(expected_matrix(
            build_scheme(SchemeKind.BBGA, g, 0.99 * eta)))
        high = eigenvalues(expected_matrix(
            build_scheme(SchemeKind.BBGA, g, 1.01 * eta)))
        nonunit = low[np.abs(low - 1.0) > 1e-8]
        worst_inside = max(worst_inside, float(np.max(np.abs(nonunit))))
        worst_outside = max(worst_outside, float(np.min(high.real)))
        ok = ok and np.max(np.abs(nonunit)) < 1.0 \
            and np.min(high.real) <= -1.0 + 1e-6
    check(2, "stability-bound", ok,
          f"eta(1.3796,16)={eta_ref:.4f} (want 29.30+-0.01); "
          f"10 graphs: max modulus at 0.99 eta {worst_inside:.6f} < 1, "
          f"min real at 1.01 eta {worst_outside:.6f} <= -1+1e-6")


def test_criterion_03_optimal_epsilon():
    eps_ref = optimal_epsilon(0.5335, 16)[0]
    eps2, lam2 = optimal_epsilon(2.0, 2)
    ok = abs(eps_ref - 0.2668) <= 5e-5
    ok = ok and abs(eps2 - (2.0 - np.sqrt(2.0))) <= 1e-12
    ok = ok and abs(lam2 - np.sqrt(2.0) / 2.0) <= 1e-12
    worst_arg = 0.0
    worst_lam = 0.0
    for i in range(10):
        g = rgg(16, 300 + i)
        s = build_scheme(SchemeKind.BBGA, g, 1.0)
        xi2 = float(sorted_xi(s)[1])
        star, lam_pred = optimal_epsilon(xi2, 16)
        moduli = [classify_expectation(
            build_scheme(SchemeKind.BBGA, g, e)).second_largest_modulus
            for e in GRID]
        argmin = GRID[int(np.argmin(moduli))]
        lam_star = classify_expectation(
            build_scheme(SchemeKind.BBGA, g, star)).second_largest_modulus
        worst_arg = max(worst_arg, abs(argmin - star))
        worst_lam = max(worst_lam, abs(lam_star - lam_pred))
    ok = ok and worst_arg <= 0.02 + 1e-9 and worst_lam <= 1e-6
    check(3, "optimal-epsilon", ok,
          f"eps*(0.5335,16)={eps_ref:.5f} vs 0.2668; n=2 exact; 10 graphs: "
          f"max |grid argmin - xi2/2| {worst_arg:.4f} <= one 0.02 step, "
          f"max |lam2 - (1 - xi2/2n)| {worst_lam:.2e} <= 1e-6")


def test_criterion_04_small_epsilon_lambda2():
    eps = 0.01
    worst = 0.0
    for i in range(10):
        g = rgg(16, 400 + i)
        rep = classify_expectation(build_scheme(SchemeKind.BBGA, g, eps))
        worst = max(worst, abs(rep.second_largest_modulus - (1 - eps / 16)))
    check(4, "small-epsilon-lambda2", worst <= 1e-8,
          f"max |lam2 - (1 - eps/n)| = {worst:.3e}, tol 1e-08, "
          "10 graphs at eps=0.01")


def test_criterion_05_unbiased_consensus(graph16):
    s = build_scheme(SchemeKind.UBGA2, graph16, 1.0)
    res = monte_carlo(s, graph16, InitKind.UNIFORM, 100, 1e-5, 1_000_000,
                      base_seed=1000, keep_series=False)
    worst = 0.0
    for r in res.records:
        x0 = np.random.default_rng(r.seed).random(16)
        worst = max(worst, abs(r.consensus_value - float(np.mean(x0))))
    ok = len(res.records) == 100 and res.failures == () and worst <= 1e-4

    # replay one full trial and audit the invariant at every iteration
    rng = np.random.default_rng(1000)
    state = GossipState.initial(rng.random(16))
    total0 = float(state.x.sum())
    tol = 1e-9 * max(1.0, abs(total0))
    drift = 0.0
    for _ in range(res.records[0].converged_at):
        state, _k = step(state, s, rng)
        drift = max(drift, abs(float(state.x.sum() + state.y.sum()) - total0))
    ok = ok and drift <= tol
    check(5, "unbiased-consensus", ok,
          f"100 trials, max |consensus - mean(x0)| = {worst:.3e} <= 1e-4; "
          f"mass drift (replayed trial) {drift:.3e} <= {tol:.1e}, "
          f"engine failures: {len(res.failures)}")


def test_criterion_06_biased_consensus(digraph16):
    s = build_scheme(SchemeKind.BBGA, digraph16, 0.5)
    v = stationary_vector(s)
    rep = classify_expectation(s)
    wdist = float(np.max(np.abs(rep.w1 - v)))
    res = monte_carlo(s, digraph16, InitKind.UNIFORM, 100, 1e-5, 1_000_000,
                      base_seed=2000, keep_series=False)
    worst = 0.0
    for r in res.records:
        x0 = np.random.default_rng(r.seed).random(16)
        worst = max(worst, abs(r.consensus_value - float(v @ x0)))
    ok = rep.is_simple_one and wdist <= 1e-8 and worst <= 1e-4 \
        and len(res.records) == 100
    check(6, "biased-consensus", ok,
          f"100 trials, max |consensus - v.x0| = {worst:.3e} <= 1e-4; "
          f"|w1 - v|_max = {wdist:.1e} <= 1e-8; simple unit eigenvalue: "
          f"{rep.is_simple_one}")


def test_criterion_07_second_moment():
    kinds = (SchemeKind.UBGA1, SchemeKind.UBGA2, SchemeKind.UBGA3,
             SchemeKind.BBGA)
    worst_rho = 0.0
    worst_res = 0.0
    for n in (4, 6, 8, 10):
        g = rgg(n, 500 + n)
        for kind in kinds:
            s = build_scheme(kind, g, 0.2)
            v = np.full(n, 1.0 / n) if kind.is_unbiased \
                else stationary_vector(s)
            m = second_moment_matrix(s, v)
            worst_rho = max(worst_rho, spectral_radius(m))
            u = np.concatenate([np.ones(n), np.zeros(n)])
            pi = np.concatenate([v, v])
            raw = m + np.outer(np.kron(u, u), np.kron(pi, pi))
            res_r = max(float(np.max(np.abs(assemble_Wk(s, k) @ u - u)))
                        for k in range(1, n + 1))
            res_l = float(np.max(np.abs(pi @ expected_matrix(s) - pi)))
            res_k = float(np.max(np.abs(raw @ np.kron(u, u) - np.kron(u, u))))
            worst_res = max(worst_res, res_r, res_l, res_k)
    ok = worst_rho < 1.0 and worst_res <= 1e-8
    check(7, "second-moment", ok,
          f"max rho = {worst_rho:.6f} < 1 over n in (4,6,8,10) x 4 kinds "
          f"at eps=0.2; max identity residual {worst_res:.2e} <= 1e-8")


def test_criterion_08_sweep_shape(graph16, sweep_curves):
    bbga, ubga = sweep_curves
    s = build_scheme(SchemeKind.BBGA, graph16, 1.0)
    star = optimal_epsilon(float(sorted_xi(s)[1]), 16)[0]
    best_bbga = min(bbga, key=lambda p: p.mean_broadcasts)
    best_ubga = min(ubga, key=lambda p: p.mean_broadcasts)
    ok = abs(best_bbga.epsilon - star) <= 2 * 0.02 + 1e-9
    ok = ok and best_ubga.mean_broadcasts <= best_bbga.mean_broadcasts
    check(8, "sweep-shape", ok,
          f"50 trials/point on the 0.02 grid: in-degree scheme argmin "
          f"{best_bbga.epsilon:.2f} vs xi2/2 = {star:.4f} (within 2 steps); "
          f"constant-weight best {best_ubga.mean_broadcasts:.0f} <= "
          f"in-degree best {best_bbga.mean_broadcasts:.0f} mean broadcasts")


def test_criterion_09_baseline_contrast(graph50):
    classic = build_scheme(SchemeKind.CLASSIC, graph50, 0.0, gamma=0.5)
    bbga = build_scheme(SchemeKind.BBGA, graph50, 0.5)
    ubga = build_scheme(SchemeKind.UBGA1, graph50, 0.5)
    results = {}
    for name, s in (("classic", classic), ("bbga", bbga), ("ubga1", ubga)):
        results[name] = monte_carlo(
            s, graph50, InitKind.SPIKE, 100, 1e-5, 300_000, base_seed=3000,
            keep_series=False)
    ok = all(res.failures == () and len(res.records) == 100
             for res in results.values())
    c, b, u = results["classic"], results["bbga"], results["ubga1"]
    ok = ok and c.mean_broadcasts < b.mean_broadcasts
    ok = ok and u.mean_r_final <= c.mean_r_final / 10.0
    check(9, "baseline-contrast", ok,
          f"spike init, 100 trials, spread threshold 1e-5: memoryless mean "
          f"{c.mean_broadcasts:.0f} < companion {b.mean_broadcasts:.0f} "
          f"broadcasts; final r {u.mean_r_final:.2e} (corrected) vs "
          f"{c.mean_r_final:.2e} (memoryless), ratio "
          f"{c.mean_r_final / u.mean_r_final:.0f}x >= 10x")


def test_criterion_10_engine_identities(graph16, digraph16):
    # (a) the in-place update rule equals the per-broadcast matrix action
    rng = np.random.default_rng(77)
    state = GossipState(x=rng.standard_normal(16), y=rng.standard_normal(16))
    worst_map = 0.0
    for kind in SchemeKind:
        eps = 0.0 if kind is SchemeKind.CLASSIC else 0.8
        s = build_scheme(kind, digraph16, eps)
        for k in range(1, 17):
            direct = local_update(state, k, s).stacked()
            matrix = assemble_Wk(s, k) @ state.stacked()
            worst_map = max(worst_map, float(np.max(np.abs(direct - matrix))))

    # (b) the incremental stopping statistic equals the norm of the
    # successive difference of the error vector m(t) = z(t) - J z(0)
    s = build_scheme(SchemeKind.BBGA, graph16, 0.5)
    x0 = np.random.default_rng(9).random(16)
    rec = run_trial(s, x0, 1e-300, 400, np.random.default_rng(55),
                    full_series=True)
    rep = classify_expectation(s)
    jz0 = np.concatenate([np.full(16, float(rep.w1 @ x0)), np.zeros(16)])
    replay = GossipState.initial(x0)
    rng2 = np.random.default_rng(55)
    worst_stat = 0.0
    prev_m = replay.stacked() - jz0
    for t in range(400):
        replay, _k = step(replay, s, rng2)
        m = replay.stacked() - jz0
        explicit = float(np.linalg.norm(m - prev_m))
        worst_stat = max(worst_stat, abs(explicit - rec.stat_series[t]))
        prev_m = m

    # (c) fixed seeds reproduce results exactly
    again = run_trial(s, x0, 1e-300, 400, np.random.default_rng(55),
                      full_series=True)
    identical = (np.array_equal(rec.stat_series, again.stat_series)
                 and np.array_equal(rec.r_series, again.r_series))
    res1 = monte_carlo(s, graph16, InitKind.UNIFORM, 3, 1e-3, 100_000,
                       base_seed=5)
    res2 = monte_carlo(s, graph16, InitKind.UNIFORM, 3, 1e-3, 100_000,
                       base_seed=5)
    identical = identical and \
        aggregate_csv(aggregate_series(res1.records)) == \
        aggregate_csv(aggregate_series(res2.records))

    ok = worst_map <= 1e-12 and worst_stat <= 1e-12 and identical
    check(10, "engine-identities", ok,
          f"update vs matrix {worst_map:.1e} <= 1e-12; statistic vs "
          f"explicit m-difference {worst_stat:.1e} <= 1e-12; "
          f"byte-identical reruns: {identical}")
