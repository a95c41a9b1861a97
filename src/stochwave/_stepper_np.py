"""Pure-NumPy time-stepping kernel, vectorized across paths.

This is the fallback for (and the reference of) the compiled kernel in
_stepper.pyx.  The two must stay expression-for-expression identical:
elementwise NumPy arithmetic performs no reassociation and the compiled
side is built with FP contraction off, so matching groupings give
bitwise-equal trajectories.  Any change here must be mirrored there.

Contract shared by both backends:

  step_paths(Y, A, B, C, D, G, F, dB, dt, dx) -> (blown, n, p, j)

  Y  (P, N+2, M+2)  slices 0 and 1 prefilled, boundary columns zero;
                    slices 2..N+1 are written in place.
  A..D (N+1, M+2)   coefficient tables indexed [n, j], n = 0..N.
  G, F (N+1, M+2)   sources padded onto the same index frame (rows/cols
                    outside j in [1..M], n in [1..N] are ignored).
  dB (P, N+1)       Brownian increments, dB[p, n] spans [t^n, t^{n+1}].

N is the call's own step count and n counts the call's own levels: the
tables and dB hold the rows of exactly those levels.  A caller stepping
a time window of global levels n0 .. n0+N+1 passes that window as Y and
rows n0 .. n0+N of the tables and increments (solver.stream_windows
builds the table rows per window), and adds n0 to a reported n.

The update for n = 1..N, j = 1..M is

  y[n+1, j] = ( 2 y[n,j] - y[n-1,j]
                + dt^2 ((y[n,j+1] - 2 y[n,j] + y[n,j-1]) / dx^2
                        + a y[n,j] + b (y[n,j+1] - y[n,j-1]) / (2 dx))
                - c dt y[n,j]
                + dt ((d y[n,j] + g) dB[n] + f dt) ) / (1 - c dt)

with boundary values pinned to zero.  Each new slice is scanned for
non-finite entries; the first offence is reported as (n, p, j) with n
the produced time level, and stepping stops.

Layout: the NumPy side steps three rolling time levels held path-minor,
lev[j, p] of shape (M+2, P), so every stencil operand is one contiguous
(M, P) slab and the per-node coefficient rows broadcast across paths.
The formula is evaluated one element-wise operation at a time, with
out= into the new level and two scratch slabs allocated once per call,
in exactly the grouping above; that grouping, not the layout, is what
keeps the two backends bitwise equal.  Each finished level is written
back into Y.  Extra memory is O(P M): no scratch grows with N.
"""

from __future__ import annotations

import numpy as np


def step_paths(Y, A, B, C, D, G, F, dB, dt, dx):
    with np.errstate(over="ignore", invalid="ignore"):
        return _step_paths(Y, A, B, C, D, G, F, dB, dt, dx)


def _step_paths(Y, A, B, C, D, G, F, dB, dt, dx):
    P, Nt, Mf = Y.shape
    N = Nt - 2
    M = Mf - 2
    inv_dx2 = 1.0 / (dx * dx)
    inv_2dx = 1.0 / (2.0 * dx)
    dt2 = dt * dt

    # levels n-1, n, n+1; boundary rows stay zero (the contract's pinning)
    prev, cur, nxt = np.zeros((3, M + 2, P))
    prev[:] = Y[:, 0, :].T
    cur[:] = Y[:, 1, :].T
    acc, tmp = np.empty((2, M, P))
    dbn = np.empty(P)
    mul, add, sub = np.multiply, np.add, np.subtract

    for n in range(1, N + 1):
        yc = cur[1 : M + 1]
        ypl = cur[2 : M + 2]
        ymn = cur[0:M]
        an = A[n, 1 : M + 1, None]
        bn = B[n, 1 : M + 1, None]
        cdt = C[n, 1 : M + 1, None] * dt
        dn = D[n, 1 : M + 1, None]
        gn = G[n, 1 : M + 1, None]
        fdt = F[n, 1 : M + 1, None] * dt
        dbn[:] = dB[:, n]
        out = nxt[1 : M + 1]  # accumulates the numerator, starting at 2 yc

        mul(yc, 2.0, out=out)
        # acc = dt2 * (lap + a yc + b cen), lap = ((ypl - 2 yc) + ymn) / dx^2
        sub(ypl, out, out=acc)
        add(acc, ymn, out=acc)
        mul(acc, inv_dx2, out=acc)
        mul(an, yc, out=tmp)
        add(acc, tmp, out=acc)
        sub(ypl, ymn, out=tmp)
        mul(tmp, inv_2dx, out=tmp)
        mul(bn, tmp, out=tmp)
        add(acc, tmp, out=acc)
        mul(dt2, acc, out=acc)
        sub(out, prev[1 : M + 1], out=out)
        add(out, acc, out=out)
        # tmp = dt ((d yc + g) dB + f dt)
        mul(dn, yc, out=tmp)
        add(tmp, gn, out=tmp)
        mul(tmp, dbn, out=tmp)
        add(tmp, fdt, out=tmp)
        mul(dt, tmp, out=tmp)
        # ((((2 yc - ym) + acc) - (c dt) yc) + tmp) / (1 - c dt)
        mul(cdt, yc, out=acc)
        sub(out, acc, out=out)
        add(out, tmp, out=out)
        np.divide(out, 1.0 - cdt, out=out)
        Y[:, n + 1, 1 : M + 1] = out.T

        # one pass: a non-finite entry makes the sum non-finite; a finite
        # slice whose sum overflows is cleared by the exact scan
        if not np.isfinite(np.add.reduce(out, axis=None)):
            p_idx, j_idx = np.nonzero(~np.isfinite(out.T))
            if p_idx.size:
                return True, n + 1, int(p_idx[0]), int(j_idx[0]) + 1
        prev, cur, nxt = cur, nxt, prev
    return False, -1, -1, -1
