"""Summation-by-parts identity suite: exactness, gating, error contract.

The identities are algebraic rearrangements, so residuals must sit at
rounding level for arbitrary closure data.  A sympy check re-derives two
of them symbolically to confirm the statements themselves, independent
of floating point.
"""

import numpy as np
import pytest
import sympy as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from stochwave import (
    GridFunction,
    IDENTITY_IDS,
    build_grid,
    identity_residuals,
)


def random_pair(grid, seed):
    rng = np.random.default_rng(seed)
    sax, tax = grid.space_axis("closure"), grid.time_axis("closure")
    u = GridFunction(grid, rng.standard_normal((sax.count, tax.count)), sax, tax)
    v = GridFunction(grid, rng.standard_normal((sax.count, tax.count)), sax, tax)
    return u, v


def test_id_list_is_frozen():
    assert IDENTITY_IDS == (
        "2.3", "2.4", "2.5-op", "2.6", "2.7", "2.8", "2.9a", "2.9b",
        "2.10a", "2.10b", "2.11a", "2.11b", "2.12", "2.13", "2.14",
    )


@pytest.mark.parametrize("M,N", [(2, 2), (3, 7), (8, 4), (16, 16)])
def test_exact_on_random_closure_data(M, N):
    grid = build_grid(M, N, 1.7)
    u, v = random_pair(grid, seed=M * 100 + N)
    table = identity_residuals(u, v)
    assert not table.skipped
    assert table.max_residual() <= 1e-12
    assert set(dict(table.rows())) == set(IDENTITY_IDS)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    M=st.integers(2, 48),
    N=st.integers(2, 48),
    T=st.floats(0.25, 8.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_exact_on_random_grids(M, N, T, seed):
    grid = build_grid(M, N, T)
    u, v = random_pair(grid, seed)
    table = identity_residuals(u, v)
    assert not table.skipped
    assert table.max_residual() <= 1e-12
    assert table.residuals["2.11a"] == 0.0


def test_rows_report_every_identity():
    grid = build_grid(4, 4, 1.0)
    u, v = random_pair(grid, 5)
    rows = identity_residuals(u, v).rows()
    assert [r[0] for r in rows] == list(IDENTITY_IDS)
    assert all(r[1] is not None for r in rows)


def test_space_only_inputs_skip_time_group():
    grid = build_grid(6, 6, 1.0)
    u, v = random_pair(grid, 9)
    up = u.restrict(time="primal")
    vp = v.restrict(time="primal")
    table = identity_residuals(up, vp)
    # time summation identities need the full closure
    assert any(i in table.skipped for i in ("2.12", "2.13", "2.14"))
    for ident, res in table.residuals.items():
        assert res <= 1e-12, ident


def test_grid_mismatch_rejected():
    u, _ = random_pair(build_grid(4, 4, 1.0), 1)
    _, v = random_pair(build_grid(5, 4, 1.0), 1)
    with pytest.raises(ValueError):
        identity_residuals(u, v)


def test_tiny_grid_rejected():
    for M, N in ((1, 4), (4, 1)):
        grid = build_grid(M, N, 1.0)
        u, v = random_pair(grid, 3)
        with pytest.raises(ValueError):
            identity_residuals(u, v)


def test_product_rule_symbolically():
    # D(uv) = Du Av + Au Dv re-derived with sympy on a 1-D stencil
    h, uL, uR, vL, vR = sp.symbols("h uL uR vL vR")
    D_uv = (uR * vR - uL * vL) / h
    rhs = ((uR - uL) / h) * ((vL + vR) / 2) + ((uL + uR) / 2) * ((vR - vL) / h)
    assert sp.simplify(D_uv - rhs) == 0


def test_abel_summation_symbolically():
    # sum f (g_{k+1} - g_k) = boundary - sum (f_{k+1} - f_k) g_{k+1}
    n = 5
    f = sp.symbols(f"f0:{n + 1}")
    g = sp.symbols(f"g0:{n + 1}")
    lhs = sum(f[k] * (g[k + 1] - g[k]) for k in range(n))
    rhs = f[n] * g[n] - f[0] * g[0] - sum(
        (f[k + 1] - f[k]) * g[k + 1] for k in range(n)
    )
    assert sp.expand(lhs - rhs) == 0


def test_reindexing_identity_is_exactly_zero():
    grid = build_grid(5, 5, 1.0)
    u, v = random_pair(grid, 11)
    table = identity_residuals(u, v)
    assert table.residuals["2.11a"] == 0.0
