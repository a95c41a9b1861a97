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

The update for n = 1..N, j = 1..M is

  y[n+1, j] = ( 2 y[n,j] - y[n-1,j]
                + dt^2 ((y[n,j+1] - 2 y[n,j] + y[n,j-1]) / dx^2
                        + a y[n,j] + b (y[n,j+1] - y[n,j-1]) / (2 dx))
                - c dt y[n,j]
                + dt ((d y[n,j] + g) dB[n] + f dt) ) / (1 - c dt)

with boundary values pinned to zero.  Each new slice is scanned for
non-finite entries; the first offence is reported as (n, p, j) with n
the produced time level, and stepping stops.
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

    for n in range(1, N + 1):
        yc = Y[:, n, 1 : M + 1]
        ym = Y[:, n - 1, 1 : M + 1]
        ypl = Y[:, n, 2 : M + 2]
        ymn = Y[:, n, 0:M]
        an = A[n, 1 : M + 1]
        bn = B[n, 1 : M + 1]
        cn = C[n, 1 : M + 1]
        dn = D[n, 1 : M + 1]
        gn = G[n, 1 : M + 1]
        fn = F[n, 1 : M + 1]
        dbn = dB[:, n][:, None]

        lap = (ypl - 2.0 * yc + ymn) * inv_dx2
        cen = (ypl - ymn) * inv_2dx
        num = (
            2.0 * yc
            - ym
            + dt2 * (lap + an * yc + bn * cen)
            - (cn * dt) * yc
            + dt * ((dn * yc + gn) * dbn + fn * dt)
        )
        out = num / (1.0 - cn * dt)
        Y[:, n + 1, 1 : M + 1] = out

        finite = np.isfinite(out)
        if not finite.all():
            p_idx, j_idx = np.nonzero(~finite)
            return True, n + 1, int(p_idx[0]), int(j_idx[0]) + 1
    return False, -1, -1, -1
