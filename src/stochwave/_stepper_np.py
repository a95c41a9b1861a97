"""Pure-NumPy time-stepping kernel, vectorized across paths.

This is the reference implementation of the kernel contract; a
compiled kernel must reproduce it bit for bit by evaluating the same
weights and the same update in the same grouping, with FP contraction
off.  Element-wise NumPy arithmetic performs no reassociation, so the
grouping written below, not the loop order or the memory layout, is
what fixes every bit of the result.

Contract:

  step_paths(Y, A, B, C, D, G, F, dB, dt, dx) -> (blown, n, p, j)

  Y  (P, N+2, M+2)  slices 0 and 1 prefilled, boundary columns zero;
                    slices 2..N+1 are written in place.
  A..D (N+1, M+2)   coefficient tables indexed [n, j], n = 0..N.
  G, F (N+1, M+2)   sources padded onto the same index frame (rows/cols
                    outside j in [1..M], n in [1..N] are ignored).
  dB (P, N+1)       Brownian increments, dB[p, n] spans [t^n, t^{n+1}].

N is the call's own step count and n counts the call's own levels.
The one caller, solver._step_blocks, passes one time window of global
levels n0 .. n0+N+1, N <= 16, with rows n0 .. n0+N of the tables and
increments, and adds n0 to a reported n.

The scheme's update for n = 1..N, j = 1..M is

  y[n+1, j] = ( 2 y[n,j] - y[n-1,j]
                + dt^2 ((y[n,j+1] - 2 y[n,j] + y[n,j-1]) / dx^2
                        + a y[n,j] + b (y[n,j+1] - y[n,j-1]) / (2 dx))
                - c dt y[n,j]
                + dt ((d y[n,j] + g) dB[n] + f dt) ) / (1 - c dt)

with boundary values pinned to zero.  The kernel evaluates it in weight
form: once per call it folds the constants into per-node weights, with
the Python floats dt^2 = dt*dt, lam = dt^2 / (dx*dx) and h = dt^2 /
(2*dx), cdt = C dt, and each line rounded one operation after another,
left to right as the parentheses say:

  kap = 1 / (1 - cdt)
  alp = (((2 - cdt) + dt^2 A) - 2 lam) kap
  bp  = (lam + h B) kap,   bm = (lam - h B) kap
  dl  = (dt D) kap,  gh = (dt G) kap,  fh = (dt^2 F) kap

and each level is

  y[n+1, j] = ((((alp y[n,j] + bp y[n,j+1]) + bm y[n,j-1])
               - kap y[n-1,j]) + (dl y[n,j] + gh) dB[n]) + fh

with every weight taken at [n, j].  This differs from the update above
in rounding only.  Each new slice is scanned for non-finite entries;
the first offence is reported as (n, p, j) with n the produced time
level, and stepping stops.

Layout: the kernel steps three rolling time levels held path-minor,
lev[j, p] of shape (M+2, P), so every stencil operand is one contiguous
(M, P) slab and each weight row broadcasts across paths; dB is
transposed once per call so the increments of a level are one
contiguous row.  The six tables may have any strides.  A table of
j-stride 0 holds one value per level and is narrowed to (N+1, 1, 1)
before the weights are formed.  The stride alone decides: each field
that holds one value per level is a zero-stride view where it is built
(constant_coefficient, the presets zero, one and ramp_t, and
solver._table_rows' block for zero data).  A weight formed
only from narrowed tables is then one value per level, the same value
at every node and so the same bits, and enters a level as a 0-d
operand that broadcasts over the whole slab as one flat loop; any other
weight enters as its (M, 1) row.  A level is 12 element-wise
operations with out= into the new level and one scratch slab allocated
once per call, and each finished level is written back into Y.  Extra
memory is the levels and scratch, O(P M), plus the seven weight tables
and the transposed dB, the size of the inputs; a narrowed table is a
view of its first column.
"""

from __future__ import annotations

import numpy as np


def step_paths(Y, A, B, C, D, G, F, dB, dt, dx):
    with np.errstate(over="ignore", invalid="ignore"):
        return _step_paths(Y, A, B, C, D, G, F, dB, dt, dx)


def _weights(A, B, C, D, G, F, dt, dx):
    """The per-node weights (alp, bp, bm, kap, dl, gh, fh) of the
    module docstring on the interior columns 1..M, each (N+1, M, 1) so
    that a row broadcasts across the paths of a level, or (N+1, 1, 1)
    where every table it is formed from is narrowed to one value per
    level (_per_level)."""
    inner = slice(1, A.shape[1] - 1)
    A, B, C, D, G, F = (_per_level(t[:, inner, None])
                        for t in (A, B, C, D, G, F))
    dt2 = dt * dt
    lam = dt2 / (dx * dx)
    h = dt2 / (2.0 * dx)
    cdt = C * dt
    kap = 1.0 / (1.0 - cdt)
    alp = (((2.0 - cdt) + dt2 * A) - 2.0 * lam) * kap
    hb = h * B
    bp = (lam + hb) * kap
    bm = (lam - hb) * kap
    dl = (dt * D) * kap
    gh = (dt * G) * kap
    fh = (dt2 * F) * kap
    return alp, bp, bm, kap, dl, gh, fh


def _per_level(t):
    """t[:, :1] where t's j-stride is 0, one value per level; else t."""
    return t[:, :1] if t.strides[1] == 0 else t


def _step_paths(Y, A, B, C, D, G, F, dB, dt, dx):
    P, Nt, Mf = Y.shape
    N = Nt - 2
    M = Mf - 2
    # a narrow weight enters a level as a 0-d operand, a per-node one
    # as its (M, 1) row
    alp, bp, bm, kap, dl, gh, fh = (
        w[:, 0, 0] if w.shape[1] == 1 else w
        for w in _weights(A, B, C, D, G, F, dt, dx)
    )
    dbt = np.ascontiguousarray(dB.T)

    # levels n-1, n, n+1; boundary rows stay zero (the contract's pinning)
    prev, cur, nxt = np.zeros((3, M + 2, P))
    prev[:] = Y[:, 0, :].T
    cur[:] = Y[:, 1, :].T
    tmp = np.empty((M, P))
    mul, add, sub = np.multiply, np.add, np.subtract

    for n in range(1, N + 1):
        yc = cur[1 : M + 1]
        out = nxt[1 : M + 1]
        mul(alp[n, ...], yc, out=out)
        mul(bp[n, ...], cur[2 : M + 2], out=tmp)
        add(out, tmp, out=out)
        mul(bm[n, ...], cur[0:M], out=tmp)
        add(out, tmp, out=out)
        mul(kap[n, ...], prev[1 : M + 1], out=tmp)
        sub(out, tmp, out=out)
        mul(dl[n, ...], yc, out=tmp)
        add(tmp, gh[n, ...], out=tmp)
        mul(tmp, dbt[n], out=tmp)
        add(out, tmp, out=out)
        add(out, fh[n, ...], out=out)
        Y[:, n + 1, 1 : M + 1] = out.T

        # one pass: a non-finite entry makes the sum non-finite; a finite
        # slice whose sum overflows is cleared by the exact scan
        if not np.isfinite(np.add.reduce(out, axis=None)):
            p_idx, j_idx = np.nonzero(~np.isfinite(out.T))
            if p_idx.size:
                return True, n + 1, int(p_idx[0]), int(j_idx[0]) + 1
        prev, cur, nxt = cur, nxt, prev
    return False, -1, -1, -1
