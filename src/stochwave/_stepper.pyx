# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled time-stepping kernel.

Mirror of _stepper_np.step_paths; see that module for the shared
contract.  The arithmetic here must remain expression-for-expression
identical to the NumPy version (and the extension is compiled with FP
contraction disabled) so both backends produce bitwise-equal
trajectories.  Per path, each computed value is checked for finiteness
and the path stops at its first offence; the reported offence is the
lexicographic minimum over (n, p, j), which matches the row-scan order
of the NumPy kernel.

The NumPy side steps rolling time levels held path-minor, (M+2, P), with
reused scratch; this loop runs path by path over Y directly.  Parity
rests on the element-wise grouping of the update alone, which is the
same on both sides, not on the loop order or the memory layout.
"""

from libc.math cimport isfinite


def step_paths(double[:, :, ::1] Y, double[:, ::1] A, double[:, ::1] B,
               double[:, ::1] C, double[:, ::1] D, double[:, ::1] G,
               double[:, ::1] F, double[:, ::1] dB, double dt, double dx):
    cdef Py_ssize_t P = Y.shape[0]
    cdef Py_ssize_t N = Y.shape[1] - 2
    cdef Py_ssize_t M = Y.shape[2] - 2
    cdef double inv_dx2 = 1.0 / (dx * dx)
    cdef double inv_2dx = 1.0 / (2.0 * dx)
    cdef double dt2 = dt * dt
    cdef Py_ssize_t p, n, j
    cdef double yc, ym, ypl, ymn, lap, cen, num, val, db
    cdef bint blown = False
    cdef Py_ssize_t best_n = -1, best_p = -1, best_j = -1
    cdef bint path_blown

    for p in range(P):
        path_blown = False
        for n in range(1, N + 1):
            db = dB[p, n]
            for j in range(1, M + 1):
                yc = Y[p, n, j]
                ym = Y[p, n - 1, j]
                ypl = Y[p, n, j + 1]
                ymn = Y[p, n, j - 1]
                lap = (ypl - 2.0 * yc + ymn) * inv_dx2
                cen = (ypl - ymn) * inv_2dx
                num = (2.0 * yc
                       - ym
                       + dt2 * (lap + A[n, j] * yc + B[n, j] * cen)
                       - (C[n, j] * dt) * yc
                       + dt * ((D[n, j] * yc + G[n, j]) * db + F[n, j] * dt))
                val = num / (1.0 - C[n, j] * dt)
                Y[p, n + 1, j] = val
                if not isfinite(val):
                    if not blown or n + 1 < best_n:
                        blown = True
                        best_n = n + 1
                        best_p = p
                        best_j = j
                    path_blown = True
                    break
            if path_blown:
                break

    return blown, best_n, best_p, best_j
