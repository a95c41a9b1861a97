"""Estimator reports against the brute-force quadrature oracle, plus
statistical plumbing, and scale covariance."""

import copy
import math
from dataclasses import replace

import numpy as np
import pytest

import oracles
from stochwave import estimators
from stochwave import (
    MeshMismatchError,
    ProblemData,
    SchemeCoefficients,
    WeightParams,
    Window,
    build_grid,
    carleman_terms,
    martingale_check,
    random_field,
    random_slice,
    run_ensemble,
    sine_field,
    sine_slice,
    stability_terms,
    zero_field,
)

W = dict(s=0.7, lam=0.9, beta=0.3, xstar=1.3, mconst=0.25)


def manufactured_ensemble(grid, seed, scale=1.0):
    """One path: smooth closure field with pinned boundary, zero noise."""
    rng = np.random.default_rng(seed)
    vals = np.zeros((grid.M + 2, grid.N + 2))
    x = grid.space_closure
    for m in range(1, 4):
        amp = scale * rng.uniform(-1.0, 1.0, size=grid.N + 2)
        vals += np.sin(np.pi * m * x)[:, None] * amp[None, :]
    vals[0] = 0.0
    vals[-1] = 0.0
    return Window(grid, vals.T[None], np.zeros((1, grid.N + 1)), 0)


def small_problem(grid, seed=0, with_f=True):
    return ProblemData(
        y0=random_slice(grid, seed + 1, 1.0),
        y1=random_slice(grid, seed + 2, 1.0),
        g=random_field(grid, seed + 3, 1.0),
        f=random_field(grid, seed + 4, 1.0) if with_f else None,
    )


def to_report_dict(rep):
    out = {k: v.mean for k, v in rep.lhs.items()}
    out.update({k: v.mean for k, v in rep.rhs.items()})
    out["XT"] = rep.xt_norm.mean
    return out


def test_carleman_matches_brute_force_single_path():
    grid = build_grid(4, 4, 0.8)
    data = small_problem(grid)
    coeffs = SchemeCoefficients.constant(grid, a=-0.3, b=0.1, c=0.2, d=0.5)
    ens = run_ensemble(data, coeffs, grid, paths=1, master_seed=7)
    w = WeightParams(**W, T=grid.T)
    rep = carleman_terms(ens, w, data, grid, kappa=0.4)
    ref = oracles.brute_carleman_terms(
        ens.Y[0].T,
        data.y0.values, data.y1.values, data.g.values, data.f.values,
        grid.M, grid.N, grid.T,
        w.s, w.lam, w.beta, w.xstar, w.mconst, 0.4,
    )
    got = to_report_dict(rep)
    for key, expected in ref.items():
        assert got[key] == pytest.approx(expected, rel=1e-12), key


def test_carleman_weight_list_equals_single_calls():
    # one ensemble, several weight sets: the same reports as one call each
    grid = build_grid(5, 12, 1.0)
    data = small_problem(grid)
    coeffs = SchemeCoefficients.constant(grid, a=-0.2, d=0.6)
    ens = run_ensemble(data, coeffs, grid, paths=4, master_seed=8)
    ws = [WeightParams(**dict(W, s=s), T=grid.T) for s in (0.3, 0.7, 1.4)]
    kappas = [0.0, 0.4, 1.1]
    reps = carleman_terms(ens, ws, data, grid, kappa=kappas)
    assert [r.kappa for r in reps] == kappas
    for w, kappa, rep in zip(ws, kappas, reps):
        assert rep == carleman_terms(ens, w, data, grid, kappa=kappa)
    shared = carleman_terms(ens, ws, data, grid, kappa=0.4)
    assert shared[1] == reps[1]
    with pytest.raises(ValueError):
        carleman_terms(ens, ws, data, grid, kappa=[0.0, 0.4])


def test_carleman_zero_everything():
    grid = build_grid(4, 4, 1.0)
    data = ProblemData(
        y0=zero_field(grid),
        y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )
    ens = run_ensemble(data, SchemeCoefficients.constant(grid), grid, 2, 0)
    rep = carleman_terms(ens, WeightParams(**W, T=grid.T), data, grid)
    for stat in list(rep.lhs.values()) + list(rep.rhs.values()):
        assert stat.mean == 0.0 and stat.stderr == 0.0
    assert not rep.ratio_defined and rep.ratio is None


def test_carleman_term_locality():
    # zero data, nonzero interior state: initial-time terms vanish
    grid = build_grid(4, 4, 1.0)
    data = ProblemData(
        y0=zero_field(grid),
        y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )
    ens = manufactured_ensemble(grid, 3)
    rep = carleman_terms(ens, WeightParams(**W, T=grid.T), data, grid)
    assert rep.lhs["L1"].mean > 0.0
    for key in ("L4", "L5", "L6", "L7"):
        assert rep.lhs[key].mean == 0.0
    assert rep.rhs["R1"].mean == 0.0


def test_carleman_stderr_zero_for_data_terms():
    grid = build_grid(5, 6, 1.0)
    data = small_problem(grid)
    coeffs = SchemeCoefficients.constant(grid, d=0.8)
    ens = run_ensemble(data, coeffs, grid, paths=6, master_seed=5)
    rep = carleman_terms(ens, WeightParams(**W, T=grid.T), data, grid)
    for key in ("L4", "L5", "L6", "L7"):
        assert rep.lhs[key].stderr == 0.0
    assert rep.rhs["R1"].stderr == 0.0
    assert rep.lhs["L1"].stderr > 0.0
    assert rep.rhs["R4"].stderr > 0.0
    assert all(st.paths == 6 for st in rep.lhs.values())


def test_carleman_flags_inadmissible_but_computes():
    grid = build_grid(4, 4, 1.0)     # T = 1 far below 1.3 / 0.3
    data = small_problem(grid)
    ens = run_ensemble(data, SchemeCoefficients.constant(grid), grid, 1, 0)
    rep = carleman_terms(ens, WeightParams(**W, T=grid.T), data, grid)
    assert not rep.admissible
    assert rep.ratio_defined


def test_carleman_s_cubed_overflow_is_a_numeric_failure():
    # s^3 leaves float64 while s * varphi stays in range (varphi = 0)
    grid = build_grid(4, 4, 1.0)
    data = small_problem(grid)
    ens = run_ensemble(data, SchemeCoefficients.constant(grid), grid, 1, 0)
    w = WeightParams(**dict(W, s=1e200, mconst=-1e6), T=grid.T)
    with pytest.raises(FloatingPointError, match=r"s\^3"):
        carleman_terms(ens, w, data, grid)


def test_stability_matches_brute_force():
    grid = build_grid(4, 8, 0.5)
    coeffs = SchemeCoefficients.constant(grid, a=0.2, b=0.1, c=0.3, d=0.5)
    dataA = small_problem(grid, seed=10, with_f=False)
    dataB = small_problem(grid, seed=20, with_f=False)
    ensA = run_ensemble(dataA, coeffs, grid, 1, 33)
    ensB = run_ensemble(dataB, coeffs, grid, 1, 33)
    diff = dataA.difference(dataB)
    rep = stability_terms(run_ensemble(diff, coeffs, grid, 1, 33), diff, grid)
    ref = oracles.brute_stability_terms(
        ensA.Y[0].T, ensB.Y[0].T,
        dataA.y0.values, dataB.y0.values,
        dataA.y1.values, dataB.y1.values,
        dataA.g.values, dataB.g.values,
        grid.M, grid.N, grid.T,
    )
    for key in ("G", "Y0", "Y1"):
        assert rep.lhs[key].mean == pytest.approx(ref[key], rel=1e-12), key
    for key in ("FLUX", "XT", "DTDX"):
        assert rep.rhs[key].mean == pytest.approx(ref[key], rel=1e-12), key
    assert rep.xt_squared.mean == pytest.approx(ref["XT"] ** 2, rel=1e-12)


def leg_difference_reference(ensA, ensB, dataA, dataB, grid):
    """The two-leg reduction written out: per-path norms of
    ensA.Y[p] - ensB.Y[p] and data norms of the leg differences."""
    N, dx, dt = grid.N, grid.dx, grid.dt
    per = {key: [] for key in ("FLUX", "XT", "DTDX")}
    for p in range(ensA.paths):
        ydiff = ensA.Y[p] - ensB.Y[p]
        dxy = (ydiff[:, 1:] - ydiff[:, :-1]) / dx
        fl = dxy[1 : N + 1, 0]
        per["FLUX"].append(float(np.sqrt(float(np.sum(fl * fl) * dt))))
        per["XT"].append(estimators.xt_norm_values(
            ydiff[N], (ydiff[N + 1] - ydiff[N]) / dt, dx
        ))
        dtdx = (dxy[1 : N + 1] - dxy[:N]) / dt
        per["DTDX"].append(dx * float(
            np.sqrt(float(np.sum(dtdx * dtdx) * (dx * dt)))
        ))
    data = {
        "G": estimators.norm(dataA.g - dataB.g, "L2"),
        "Y0": estimators.norm(dataA.y0 - dataB.y0, "H1"),
        "Y1": estimators.norm(
            dataA.y1.restrict(space="primal")
            - dataB.y1.restrict(space="primal"),
            "L2",
        ),
    }
    return {key: np.array(v) for key, v in per.items()}, data


def coupled_pair(grid, paths, seed=33):
    coeffs = SchemeCoefficients.constant(grid, a=0.2, b=0.1, c=0.3, d=0.5)
    dataA = small_problem(grid, seed=10)
    dataB = small_problem(grid, seed=20)
    ensA = run_ensemble(dataA, coeffs, grid, paths, seed)
    ensB = run_ensemble(dataB, coeffs, grid, paths, seed)
    return coeffs, dataA, dataB, ensA, ensB


def test_stability_one_ensemble_form_agrees_per_path():
    # the difference system stepped once against the two legs, path by
    # path: equal to rounding (the scheme is linear in its data)
    grid = build_grid(5, 12, 1.0)
    P, seed = 6, 33
    coeffs, dataA, dataB, ensA, ensB = coupled_pair(grid, P, seed)
    diff = dataA.difference(dataB)
    ens = run_ensemble(diff, coeffs, grid, P, seed)
    per, data = leg_difference_reference(ensA, ensB, dataA, dataB, grid)
    for k in range(P):
        one = stability_terms(
            run_ensemble(diff, coeffs, grid, 1, seed, first=k), diff, grid
        )
        for key in ("FLUX", "XT", "DTDX"):
            assert per[key][k] > 0.0
            assert one.rhs[key].mean == pytest.approx(
                per[key][k], rel=1e-12, abs=0.0
            ), (k, key)
    whole = stability_terms(ens, diff, grid)
    for key in ("G", "Y0", "Y1"):   # data terms bit for bit
        assert whole.lhs[key].mean == data[key]
    den = sum(float(np.mean(per[key])) for key in ("FLUX", "XT", "DTDX"))
    assert whole.ratio_unsquared == pytest.approx(
        sum(data.values()) / den, rel=1e-12
    )


def test_problem_difference_forcing():
    grid = build_grid(4, 6, 1.0)
    a = small_problem(grid, seed=1)
    b = small_problem(grid, seed=2)
    bare_a, bare_b = replace(a, f=None), replace(b, f=None)

    def one_value_zero(u):
        return (u.values.strides == (0, 0)
                and u.values.tobytes() == bytes(u.values.nbytes))

    assert one_value_zero(bare_a.f)
    assert one_value_zero(bare_a.difference(bare_b).f)
    d = a.difference(b)
    assert np.array_equal(d.f.values, a.f.values - b.f.values)
    assert np.array_equal(d.y0.values, a.y0.values - b.y0.values)
    assert np.array_equal(d.y1.values, a.y1.values - b.y1.values)
    assert np.array_equal(d.g.values, a.g.values - b.g.values)
    assert np.array_equal(bare_a.difference(b).f.values, -b.f.values)
    assert np.array_equal(a.difference(bare_b).f.values, a.f.values)
    # forcing shared by both sides cancels exactly: the same object
    # leaves the one-value zero field, an equal copy a full zero array
    assert one_value_zero(a.difference(replace(bare_b, f=a.f)).f)
    assert not np.any(a.difference(replace(bare_b, f=copy.copy(a.f))).f.values)


def test_stability_terms_argument_forms():
    grid = build_grid(4, 6, 1.0)
    _, dataA, _, ensA, _ = coupled_pair(grid, 2)
    other = build_grid(4, 8, 1.0)
    with pytest.raises(MeshMismatchError):
        stability_terms(ensA, small_problem(other), grid)
    with pytest.raises(ValueError, match="g_mode"):
        stability_terms(ensA, dataA, grid, g_mode="bogus")


def test_stability_identical_pair_flagged_undefined():
    grid = build_grid(5, 6, 1.0)
    data = small_problem(grid, seed=1, with_f=False)
    coeffs = SchemeCoefficients.constant(grid, d=0.5)
    diff = data.difference(data)
    rep = stability_terms(run_ensemble(diff, coeffs, grid, 3, 9), diff, grid)
    for stat in list(rep.lhs.values()) + list(rep.rhs.values()):
        assert stat.mean == 0.0
    assert not rep.ratio_unsquared_defined and rep.ratio_unsquared is None
    assert not rep.ratio_printed_defined and rep.ratio_printed is None


def test_stability_single_mode_difference_positive():
    grid = build_grid(6, 12, 1.0)
    coeffs = SchemeCoefficients.constant(grid)
    base = ProblemData(
        y0=zero_field(grid), y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )
    bumped = ProblemData(
        y0=sine_slice(grid, 1, 1.0), y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )
    diff = bumped.difference(base)
    rep = stability_terms(run_ensemble(diff, coeffs, grid, 2, 4), diff, grid)
    assert rep.lhs["Y0"].mean > 0.0
    assert rep.lhs["G"].mean == 0.0
    assert sum(v.mean for v in rep.rhs.values()) > 0.0


def test_stability_scale_covariance():
    # scaling both datasets by alpha scales every unsquared term by alpha
    grid = build_grid(5, 10, 1.0)
    coeffs = SchemeCoefficients.constant(grid, a=0.3, d=0.4)
    alpha = 3.5

    def scaled(seed_base, factor):
        return ProblemData(
            y0=random_slice(grid, seed_base + 1, factor),
            y1=random_slice(grid, seed_base + 2, factor),
            g=random_field(grid, seed_base + 3, factor),
        )

    dA1, dB1 = scaled(100, 1.0), scaled(200, 1.0)
    dA2, dB2 = scaled(100, alpha), scaled(200, alpha)
    d1, d2 = dA1.difference(dB1), dA2.difference(dB2)
    e = lambda d: run_ensemble(d, coeffs, grid, 3, 77)
    rep1 = stability_terms(e(d1), d1, grid)
    rep2 = stability_terms(e(d2), d2, grid)
    for key in ("G", "Y0", "Y1"):
        assert rep2.lhs[key].mean == pytest.approx(alpha * rep1.lhs[key].mean, rel=1e-12)
    for key in ("FLUX", "XT", "DTDX"):
        assert rep2.rhs[key].mean == pytest.approx(alpha * rep1.rhs[key].mean, rel=1e-12)
    assert rep2.ratio_unsquared == pytest.approx(rep1.ratio_unsquared, rel=1e-12)


def test_stability_g_mode_space_only():
    grid = build_grid(5, 8, 1.0)
    coeffs = SchemeCoefficients.constant(grid, d=0.5)
    dataA = ProblemData(
        y0=zero_field(grid), y1=zero_field(grid), g=sine_field(grid, 1, 1.0)
    )
    dataB = ProblemData(
        y0=zero_field(grid), y1=zero_field(grid),
        g=zero_field(grid, "primal", "primal"),
    )
    diff = dataA.difference(dataB)
    ens = run_ensemble(diff, coeffs, grid, 2, 3)
    rep = stability_terms(ens, diff, grid, g_mode="space_only")
    assert rep.g_mode == "space_only"
    # L2(M) of the g slice, no dt factor
    expected = math.sqrt(np.sum(dataA.g.values[:, 0] ** 2) * grid.dx)
    assert rep.lhs["G"].mean == pytest.approx(expected, rel=1e-13)
    # a time-varying difference is rejected in this mode
    dataC = ProblemData(
        y0=zero_field(grid), y1=zero_field(grid), g=random_field(grid, 9, 1.0)
    )
    diffC = dataC.difference(dataB)
    ensC = run_ensemble(diffC, coeffs, grid, 2, 3)
    with pytest.raises(ValueError):
        stability_terms(ensC, diffC, grid, g_mode="space_only")


def test_martingale_zero_ensemble_exact():
    grid = build_grid(3, 4, 1.0)
    ens = Window(
        grid, np.zeros((100, grid.N + 2, grid.M + 2)),
        np.zeros((100, grid.N + 1)), 0,
    )
    st = martingale_check(ens, grid)
    assert st.mean == 0.0 and st.stderr == 0.0 and st.paths == 100


def test_estimators_take_only_windows():
    grid = build_grid(3, 4, 1.0)
    ens = Window(
        grid, np.zeros((100, grid.N + 2, grid.M + 2)),
        np.zeros((100, grid.N + 1)), 0,
    )
    with pytest.raises(TypeError, match="Window"):
        martingale_check([ens.Y], grid)
    with pytest.raises(MeshMismatchError):
        martingale_check([ens], build_grid(3, 5, 1.0))


def test_martingale_path_minimum():
    grid = build_grid(4, 6, 1.0)
    data = small_problem(grid, 0, with_f=False)
    ens = run_ensemble(data, SchemeCoefficients.constant(grid, d=0.5), grid, 99, 1)
    with pytest.raises(ValueError):
        martingale_check(ens, grid)


def test_martingale_statistic_definition():
    # hand-computed statistic on a tiny ensemble
    grid = build_grid(3, 4, 1.0)
    data = ProblemData(
        y0=sine_slice(grid, 1, 1.0), y1=zero_field(grid),
        g=sine_field(grid, 1, 1.0),
    )
    ens = run_ensemble(
        data, SchemeCoefficients.constant(grid, d=0.6), grid, 120, 11
    )
    st = martingale_check(ens, grid)
    vals = []
    for Yk, inc in zip(ens.Y, ens.dB):
        s = 0.0
        for j in range(1, grid.M + 1):
            for n in range(1, grid.N + 1):
                s += Yk[n, j] * inc[n]
        vals.append(s * grid.dx * grid.dt)
    assert st.mean == pytest.approx(np.mean(vals), rel=1e-13)
    assert st.stderr == pytest.approx(
        np.std(vals, ddof=1) / math.sqrt(len(vals)), rel=1e-13
    )


@pytest.mark.parametrize("block_paths", [1, 3, 7, 200])
def test_martingale_blocks_equal_per_path_sums(block_paths):
    # 101 paths: no block size but 1 divides the path count; the family
    # is handed over as consecutive whole Window blocks
    grid = build_grid(5, 9, 1.0)
    data = small_problem(grid, 3)
    ens = run_ensemble(
        data, SchemeCoefficients.constant(grid, a=-0.2, d=0.6), grid, 101, 5
    )
    # each path's sum as a block of its own: exact across block sizes
    y = ens.Y[:, 1 : grid.N + 1, 1 : grid.M + 1]
    inc = ens.dB[:, 1 : grid.N + 1]
    vals = np.array(
        [np.einsum("pnj,pn->p", y[p : p + 1], inc[p : p + 1])[0]
         for p in range(ens.paths)]
    ) * (grid.dx * grid.dt)
    # and the plain product sum to rounding
    prod = y * inc[:, :, None]
    tol = prod[0].size * np.finfo(np.float64).eps * np.abs(prod).max()
    np.testing.assert_allclose(
        vals, prod.sum(axis=(1, 2)) * (grid.dx * grid.dt), rtol=0,
        atol=tol * grid.dx * grid.dt,
    )
    blocks = [
        Window(grid, ens.Y[k : k + block_paths],
               ens.dB[k : k + block_paths], 0)
        for k in range(0, ens.paths, block_paths)
    ]
    st = martingale_check(blocks, grid)
    assert st.paths == 101
    assert st.mean == float(np.mean(vals))
    assert st.stderr == float(np.std(vals, ddof=1) / np.sqrt(101))
