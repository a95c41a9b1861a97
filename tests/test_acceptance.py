"""Acceptance suite: nine end-to-end checks covering discrete identities,
weight asymptotics, solver convergence, martingale structure, estimator
equivalence against brute-force oracles, and the empirical Carleman and
Lipschitz bounds.  One [criterion N] PASS/FAIL line is printed per check;
run with -s (or read failure output) to see them."""

import math
import time

import numpy as np

import oracles
from stochwave import (
    BrownianPath,
    GridFunction,
    ProblemData,
    SchemeCoefficients,
    WeightParams,
    build_grid,
    carleman_terms,
    estimate_order,
    identity_residuals,
    martingale_check,
    random_field,
    random_slice,
    run_ensemble,
    scheme_residual,
    sine_field,
    sine_slice,
    solve,
    stability_terms,
    zero_field,
)


def report(num: int, ok: bool, detail: str, elapsed: float, budget: float):
    within = elapsed < budget
    verdict = "PASS" if (ok and within) else "FAIL"
    line = (
        f"[criterion {num}] {verdict}: {detail} "
        f"(runtime {elapsed:.1f}s, budget {budget:.0f}s)"
    )
    print(line)
    assert ok and within, line


def zero_path(grid) -> BrownianPath:
    return BrownianPath(np.zeros(grid.N + 1), 0)


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    sizes = (4, 8, 16, 32)
    worst = 0.0
    seed = 0
    for M in sizes:
        for N in sizes:
            grid = build_grid(M, N, 1.0)
            for _ in range(100):
                u = random_field(
                    grid, seed, 1.0, space_tag="closure", time_tag="closure"
                )
                v = random_field(
                    grid, seed + 1, 1.0, space_tag="closure", time_tag="closure"
                )
                seed += 2
                worst = max(worst, identity_residuals(u, v).max_residual())
    elapsed = time.perf_counter() - t0
    report(
        1,
        worst <= 1e-12,
        f"max identity residual {worst:.3e} over 16 grids x 100 pairs",
        elapsed,
        10.0,
    )


def test_criterion_2_weight_asymptotics():
    t0 = time.perf_counter()
    params = WeightParams(
        s=1.0, lam=1.0, beta=0.10, xstar=1.05, mconst=0.3, T=0.5
    )
    levels = [build_grid(M, (M + 1) // 2, 0.5) for M in (15, 31, 63, 127)]
    orders = {
        expr: estimate_order(expr, params, levels).order
        for expr in ("r_dx_rho", "dx_r_dx_rho", "dt_r_dx_rho", "dx_r_dt_rho")
    }
    space_ok = orders["r_dx_rho"] >= 1.8 and orders["dx_r_dx_rho"] >= 1.8
    mixed_ok = orders["dt_r_dx_rho"] >= 0.8 and orders["dx_r_dt_rho"] >= 0.8
    elapsed = time.perf_counter() - t0
    detail = ", ".join(f"{k} {v:.3f}" for k, v in orders.items())
    report(2, space_ok and mixed_ok, f"orders {detail}", elapsed, 5.0)


def _wave_error_at_unit_time(M: int, N: int) -> float:
    grid = build_grid(M, N, 1.0)
    data = ProblemData(
        y0=sine_slice(grid, 1, 1.0),
        y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )
    traj = solve(data, SchemeCoefficients.constant(grid), zero_path(grid), grid)
    exact = math.cos(math.pi) * np.sin(np.pi * grid.space_closure)
    return float(np.max(np.abs(traj.y.values[:, grid.N] - exact)))


def test_criterion_3_wave_convergence():
    t0 = time.perf_counter()
    ms = (31, 63, 127)
    errs = [_wave_error_at_unit_time(M, M + 1) for M in ms]   # dt = dx
    if max(errs) < 1e-12:
        # the unit-ratio scheme reproduces the traveling-wave solution at
        # integer times to rounding, which certifies at least the required
        # order; the halved time step below exhibits the measurable rate
        order = math.inf
    else:
        order = min(
            math.log2(errs[i] / errs[i + 1]) for i in range(len(errs) - 1)
        )
    half_errs = [_wave_error_at_unit_time(M, 2 * (M + 1)) for M in ms]
    half_order = min(
        math.log2(half_errs[i] / half_errs[i + 1])
        for i in range(len(half_errs) - 1)
    )
    elapsed = time.perf_counter() - t0
    report(
        3,
        order >= 1.8 and half_order >= 1.8,
        f"unit-ratio errors {[f'{e:.2e}' for e in errs]} (order {order}), "
        f"halved-step order {half_order:.3f}",
        elapsed,
        10.0,
    )


def test_criterion_4_martingale_orthogonality():
    t0 = time.perf_counter()
    grid = build_grid(15, 225, 1.0)
    data = ProblemData(
        y0=sine_slice(grid, 1, 1.0),
        y1=zero_field(grid),
        g=sine_field(grid, 1, 1.0),
    )
    coeffs = SchemeCoefficients.constant(grid, d=0.5)
    ens = run_ensemble(data, coeffs, grid, 10_000, 42)
    st = martingale_check(ens, grid)
    elapsed = time.perf_counter() - t0
    report(
        4,
        abs(st.mean) <= 4.0 * st.stderr,
        f"Ito-sum mean {st.mean:+.3e}, 4*stderr {4.0 * st.stderr:.3e}, "
        f"{st.paths} paths",
        elapsed,
        60.0,
    )


def test_criterion_5_mean_consistency():
    t0 = time.perf_counter()
    grid = build_grid(15, 225, 1.0)
    data = ProblemData(
        y0=sine_slice(grid, 1, 1.0),
        y1=zero_field(grid),
        g=sine_field(grid, 1, 1.0),
    )
    coeffs = SchemeCoefficients.constant(grid)      # d = 0: additive noise
    det = solve(data, coeffs, zero_path(grid), grid).y.values
    K = 10_000
    ens = run_ensemble(data, coeffs, grid, K, 1234)
    s1 = np.zeros_like(det)
    s2 = np.zeros_like(det)
    for traj in ens.trajectories:
        diff = traj.y.values - det
        s1 += diff
        s2 += diff * diff
    mean = s1 / K
    var = np.maximum(s2 - K * mean * mean, 0.0) / (K - 1)
    stderr = np.sqrt(var / K)
    # noise-free nodes have bias and stderr both exactly zero
    bad = int(np.count_nonzero(np.abs(mean) > 4.0 * stderr))
    zmax = float(
        np.max(np.divide(np.abs(mean), stderr, where=stderr > 0,
                         out=np.zeros_like(mean)))
    )
    elapsed = time.perf_counter() - t0
    report(
        5,
        bad == 0,
        f"{bad} node(s) outside 4 stderr, worst z {zmax:.2f}, "
        f"{K} paths on {det.shape} nodes",
        elapsed,
        60.0,
    )


def test_criterion_6_brute_force_equivalence():
    t0 = time.perf_counter()
    grid = build_grid(4, 4, 1.0)
    coeffs = SchemeCoefficients.constant(grid, a=-0.3, b=0.1, c=0.2, d=0.5)
    data = ProblemData(
        y0=random_slice(grid, 1, 1.0),
        y1=random_slice(grid, 2, 1.0),
        g=random_field(grid, 3, 1.0),
        f=random_field(grid, 4, 1.0),
    )
    ens = run_ensemble(data, coeffs, grid, 1, 7)
    w = WeightParams(
        s=0.7, lam=0.9, beta=0.3, xstar=1.3, mconst=0.25, T=grid.T
    )
    rep = carleman_terms(ens, w, data, grid, kappa=0.4)
    ref = oracles.brute_carleman_terms(
        ens.trajectories[0].y.values,
        data.y0.values, data.y1.values, data.g.values, data.f.values,
        grid.M, grid.N, grid.T,
        w.s, w.lam, w.beta, w.xstar, w.mconst, 0.4,
    )
    got = {k: v.mean for k, v in rep.lhs.items()}
    got.update({k: v.mean for k, v in rep.rhs.items()})
    worst_c = max(
        abs(got[k] - ref[k]) / max(abs(ref[k]), 1e-300)
        for k in ("L1", "L2", "L3", "L4", "L5", "L6", "L7",
                  "R1", "R2", "R3", "R4")
    )

    dataB = ProblemData(
        y0=random_slice(grid, 11, 1.0),
        y1=random_slice(grid, 12, 1.0),
        g=random_field(grid, 13, 1.0),
    )
    dataA = ProblemData(y0=data.y0, y1=data.y1, g=data.g)
    ensA = run_ensemble(dataA, coeffs, grid, 1, 33)
    ensB = run_ensemble(dataB, coeffs, grid, 1, 33)
    diff = dataA.difference(dataB)
    rep2 = stability_terms(run_ensemble(diff, coeffs, grid, 1, 33), diff, grid)
    ref2 = oracles.brute_stability_terms(
        ensA.trajectories[0].y.values, ensB.trajectories[0].y.values,
        dataA.y0.values, dataB.y0.values,
        dataA.y1.values, dataB.y1.values,
        dataA.g.values, dataB.g.values,
        grid.M, grid.N, grid.T,
    )
    got2 = {k: v.mean for k, v in rep2.lhs.items()}
    got2.update({k: v.mean for k, v in rep2.rhs.items()})
    worst_s = max(
        abs(got2[k] - ref2[k]) / max(abs(ref2[k]), 1e-300)
        for k in ("G", "Y0", "Y1", "FLUX", "XT", "DTDX")
    )
    elapsed = time.perf_counter() - t0
    report(
        6,
        worst_c <= 1e-12 and worst_s <= 1e-12,
        f"worst relative error: 11 weighted terms {worst_c:.3e}, "
        f"6 stability terms {worst_s:.3e}",
        elapsed,
        1.0,
    )


def test_criterion_7_carleman_ratio_sweep():
    t0 = time.perf_counter()
    grid = build_grid(15, 1792, 3.5)    # dt = 0.5 * dx^2
    data = ProblemData(
        y0=sine_slice(grid, 1, 1.0),
        y1=sine_slice(grid, 2, 0.3),
        g=random_field(grid, 21, 0.5),
        f=random_field(grid, 22, 2.0),
    )
    coeffs = SchemeCoefficients.constant(grid, a=-0.5, d=0.5)
    ens = run_ensemble(data, coeffs, grid, 200, 321)
    ratios = []
    for s in (2.0, 4.0, 8.0):
        w = WeightParams(
            s=s, lam=0.05, beta=0.5, xstar=1.5, mconst=10.0,
            T=grid.T, epsilon=0.5,
        )
        rep = carleman_terms(ens, w, data, grid)    # kappa = 0
        assert rep.admissible, f"s={s} configuration must be admissible"
        assert rep.ratio_defined
        ratios.append(rep.ratio)
    finite = all(math.isfinite(r) for r in ratios)
    spread = max(ratios) / min(ratios)
    elapsed = time.perf_counter() - t0
    report(
        7,
        finite and spread < 10.0,
        f"ratios {[f'{r:.4f}' for r in ratios]} over s in (2, 4, 8), "
        f"spread {spread:.3f}",
        elapsed,
        300.0,
    )


def _pair_data(grid, k: int):
    dataA = ProblemData(
        y0=random_slice(grid, 1000 + k, 1.0),
        y1=random_slice(grid, 2000 + k, 1.0),
        g=random_field(grid, 3000 + k, 1.0),
    )
    dataB = ProblemData(
        y0=random_slice(grid, 6000 + k, 1.0),
        y1=random_slice(grid, 7000 + k, 1.0),
        g=random_field(grid, 8000 + k, 1.0),
    )
    return dataA, dataB


def _level_max_ratio(M: int, N: int, pairs: int, paths: int) -> float:
    grid = build_grid(M, N, 1.0)
    coeffs = SchemeCoefficients.constant(grid, a=-0.5, b=0.3, c=0.2, d=0.5)
    worst = 0.0
    for k in range(pairs):
        dataA, dataB = _pair_data(grid, k)
        diff = dataA.difference(dataB)
        ens = run_ensemble(diff, coeffs, grid, paths, 5000 + k)
        rep = stability_terms(ens, diff, grid)
        assert rep.ratio_unsquared_defined
        worst = max(worst, rep.ratio_unsquared)
    return worst


def test_criterion_8_lipschitz_ratio_two_levels():
    t0 = time.perf_counter()
    coarse = _level_max_ratio(15, 512, 50, 8)     # dt = dx^2 / 2
    fine = _level_max_ratio(31, 2048, 50, 8)
    change = max(coarse, fine) / min(coarse, fine)
    elapsed = time.perf_counter() - t0
    report(
        8,
        math.isfinite(coarse) and math.isfinite(fine) and change < 3.0,
        f"max ratio {coarse:.4f} (M=15) vs {fine:.4f} (M=31), "
        f"level change {change:.3f}",
        elapsed,
        600.0,
    )


def test_criterion_9_difference_system_residual():
    t0 = time.perf_counter()
    grid = build_grid(15, 512, 1.0)
    coeffs = SchemeCoefficients.constant(grid, a=-0.5, b=0.3, c=0.2, d=0.5)
    worst = 0.0
    for k in range(5):
        dataA, dataB = _pair_data(grid, k)
        ensA = run_ensemble(dataA, coeffs, grid, 2, 5000 + k)
        ensB = run_ensemble(dataB, coeffs, grid, 2, 5000 + k)
        gdiff = GridFunction(
            grid,
            dataA.g.values - dataB.g.values,
            grid.space_axis("primal"),
            grid.time_axis("primal"),
        )
        for tA, tB in zip(ensA.trajectories, ensB.trajectories):
            ydiff = GridFunction(
                grid,
                tA.y.values - tB.y.values,
                grid.space_axis("closure"),
                grid.time_axis("closure"),
            )
            res = scheme_residual(ydiff, coeffs, gdiff, None, tA.path, grid)
            worst = max(worst, res)
    elapsed = time.perf_counter() - t0
    report(
        9,
        worst <= 1e-12,
        f"max homogeneous-system defect {worst:.3e} over 5 coupled pairs "
        f"x 2 paths",
        elapsed,
        5.0,
    )
