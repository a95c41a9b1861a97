"""Independent reference implementations used as test oracles.

Everything here is deliberately written with scalar loops and math.exp,
sharing no code with the package under test: plain arrays and plain
numbers in, plain numbers out.  Expected values frozen below were
computed from these functions (or by hand) before the package code was
written, and the tests compare the package against them.
"""

import math

import numpy as np

# frozen scalars ------------------------------------------------------------

# H1 norm of u(x) = x sampled on the closure of the M = 3 grid:
# sqrt(sum of 4 unit gradient cells * dx + sum of interior x_j^2 * dx)
H1_OF_X_M3 = 1.103970108290981

# L2(M) norm of the constant 1 on the M = 3 grid: sqrt(3 * 0.25)
L2_OF_ONE_M3 = 0.8660254037844386

# int_M x^2 dx on the M = 3 grid: (1/16 + 1/4 + 9/16) * 0.25
INT_X2_M3 = 0.21875

# splitmix64 sequence for seed 0: the k-th per-path seed of master 0
# must equal the k-th output of the reference generator.
SPLITMIX64_SEED0 = (
    16294208416658607535,
    7960286522194355700,
    487617019471545679,
    17909611376780542444,
    1961750202426094747,
)

# two-sided 99.8% chi-square band for the variance of 10^4 standard
# normal increments scaled by dt = 0.01: Var = dt, so the sample
# variance must land in dt * [chi2_low, chi2_high] / (n - 1)
BROWNIAN_VAR_BAND_10K = (0.0095, 0.0105)


def splitmix64_stream(seed, count):
    """Reference splitmix64: gamma-increment then finalize."""
    mask = (1 << 64) - 1
    gamma = 0x9E3779B97F4A7C15
    state = seed & mask
    out = []
    for _ in range(count):
        state = (state + gamma) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


# exact continuum solutions --------------------------------------------------


def dalembert(x, t):
    """Standing-wave solution of y_tt = y_xx, y(x,0) = sin(pi x),
    y_t(x,0) = 0, zero Dirichlet boundary."""
    return math.cos(math.pi * t) * math.sin(math.pi * x)


# independent leapfrog stepper ----------------------------------------------


def reference_leapfrog(M, N, T, y0, y1, a, b, c, d, g, f, dB):
    """Scalar-loop integration of the explicit scheme.

    y0, y1: closure slices (M+2,); a..d: (M+2, N+1) indexed [j][n];
    g, f: (M, N) interior, index [j-1][n-1]; dB: (N+1,) with dB[n] the
    increment used at level n.  Returns Y (M+2, N+2).
    """
    dx = 1.0 / (M + 1)
    dt = T / N
    Y = [[0.0] * (N + 2) for _ in range(M + 2)]
    for j in range(M + 2):
        Y[j][0] = y0[j]
    for j in range(1, M + 1):
        Y[j][1] = y0[j] + dt * y1[j]
    for n in range(1, N + 1):
        for j in range(1, M + 1):
            lap = (Y[j + 1][n] - 2.0 * Y[j][n] + Y[j - 1][n]) / (dx * dx)
            cen = (Y[j + 1][n] - Y[j - 1][n]) / (2.0 * dx)
            gn = g[j - 1][n - 1]
            fn = f[j - 1][n - 1] if f is not None else 0.0
            num = (
                2.0 * Y[j][n]
                - Y[j][n - 1]
                + dt * dt * (lap + a[j][n] * Y[j][n] + b[j][n] * cen)
                - c[j][n] * dt * Y[j][n]
                + dt * ((d[j][n] * Y[j][n] + gn) * dB[n] + fn * dt)
            )
            Y[j][n + 1] = num / (1.0 - c[j][n] * dt)
    return np.array(Y)


# brute-force term quadratures ----------------------------------------------


def _xt_norm(yT, vT, M, dx):
    h1 = math.sqrt(
        sum(((yT[i + 1] - yT[i]) / dx) ** 2 for i in range(M + 1)) * dx
        + sum(yT[j] ** 2 for j in range(1, M + 1)) * dx
    )
    l2 = math.sqrt(sum(vT[j] ** 2 for j in range(1, M + 1)) * dx)
    return h1 + l2


def brute_carleman_terms(Y, y0, y1, g, f, M, N, T, s, lam, beta, xstar, mconst, kappa):
    """All 11 weighted-energy terms of one trajectory by direct summation.

    Y: (M+2, N+2) closure values; y0, y1: closure slices;
    g: (M, N) interior; f: (M, N) interior or None.
    Returns a dict keyed L1..L7, R1..R4 plus the raw XT norm.
    """
    dx = 1.0 / (M + 1)
    dt = T / N

    def phi(x, t):
        return (x - xstar) ** 2 - beta * (t - (T + 1.0)) ** 2 + mconst

    def vphi(x, t):
        return math.exp(lam * phi(x, t))

    def w1(x, t):
        return s * lam * vphi(x, t)

    def r2(x, t):
        return math.exp(2.0 * s * vphi(x, t))

    xs = [j * dx for j in range(M + 2)]
    ts = [n * dt for n in range(N + 2)]

    L1 = L2 = L3 = L4 = R1 = 0.0
    for j in range(1, M + 1):
        for n in range(1, N + 1):
            xj, tn = xs[j], ts[n]
            L1 += w1(xj, tn) ** 3 * r2(xj, tn) * Y[j][n] ** 2
            L2 += w1(xj, tn) * r2(xj, tn) * ((Y[j][n + 1] - Y[j][n]) / dt) ** 2
            L4 += w1(xj, tn) * r2(xj, tn) * g[j - 1][n - 1] ** 2
            if f is not None:
                R1 += r2(xj, tn) * f[j - 1][n - 1] ** 2
    L1 *= dx * dt
    L2 *= dx * dt
    L4 *= dx * dt
    R1 *= dx * dt

    for j in range(0, M + 1):
        xh = (j + 0.5) * dx
        for n in range(1, N + 1):
            L3 += w1(xh, ts[n]) * r2(xh, ts[n]) * ((Y[j + 1][n] - Y[j][n]) / dx) ** 2
    L3 *= dx * dt

    L5 = sum(
        w1(xs[j], 0.0) ** 3 * r2(xs[j], 0.0) * y0[j] ** 2 for j in range(1, M + 1)
    ) * dx
    L6 = sum(
        w1((j + 0.5) * dx, 0.0)
        * r2((j + 0.5) * dx, 0.0)
        * ((y0[j + 1] - y0[j]) / dx) ** 2
        for j in range(0, M + 1)
    ) * dx
    L7 = sum(
        w1(xs[j], 0.0) * r2(xs[j], 0.0) * y1[j] ** 2 for j in range(1, M + 1)
    ) * dx

    R2 = sum(
        w1(0.5 * dx, ts[n]) * ((Y[1][n] - Y[0][n]) / dx) ** 2
        for n in range(1, N + 1)
    ) * dt

    R3 = 0.0
    for j in range(0, M + 1):
        xh = (j + 0.5) * dx
        for k in range(0, N):
            th = (k + 0.5) * dt
            mixed = ((Y[j + 1][k + 1] - Y[j][k + 1]) - (Y[j + 1][k] - Y[j][k])) / (
                dx * dt
            )
            R3 += s * lam * lam * vphi(xh, th) * mixed ** 2
    R3 *= dx ** 2 * dx * dt

    yT = [Y[j][N] for j in range(M + 2)]
    vT = [(Y[j][N + 1] - Y[j][N]) / dt for j in range(M + 2)]
    xt = _xt_norm(yT, vT, M, dx)
    R4 = s ** 3 * math.exp(kappa * s) * xt * xt

    return {
        "L1": L1, "L2": L2, "L3": L3, "L4": L4, "L5": L5, "L6": L6, "L7": L7,
        "R1": R1, "R2": R2, "R3": R3, "R4": R4, "XT": xt,
    }


def brute_observation(Y, M, N, T):
    """The inverse problem's observation of one trajectory Y
    (M+2, N+2): the left flux (Y[1][n] - Y[0][n]) / dx at n = 1..N and
    the terminal pair Y[j][N], (Y[j][N+1] - Y[j][N]) / dt at
    j = 0..M+1, as three lists."""
    dx = 1.0 / (M + 1)
    dt = T / N
    flux = [(Y[1][n] - Y[0][n]) / dx for n in range(1, N + 1)]
    yT = [Y[j][N] for j in range(M + 2)]
    vT = [(Y[j][N + 1] - Y[j][N]) / dt for j in range(M + 2)]
    return flux, yT, vT


def brute_stability_terms(YA, YB, y0A, y0B, y1A, y1B, gA, gB, M, N, T):
    """All 6 stability terms of one coupled trajectory pair by direct
    summation.  Same array conventions as brute_carleman_terms; the g
    difference is treated as a space-time field."""
    dx = 1.0 / (M + 1)
    dt = T / N

    dg2 = sum(
        (gA[j][n] - gB[j][n]) ** 2 for j in range(M) for n in range(N)
    )
    G = math.sqrt(dg2 * dx * dt)

    d0 = [y0A[j] - y0B[j] for j in range(M + 2)]
    Y0 = math.sqrt(
        sum(((d0[i + 1] - d0[i]) / dx) ** 2 for i in range(M + 1)) * dx
        + sum(d0[j] ** 2 for j in range(1, M + 1)) * dx
    )
    Y1 = math.sqrt(
        sum((y1A[j] - y1B[j]) ** 2 for j in range(1, M + 1)) * dx
    )

    D = [[YA[j][n] - YB[j][n] for n in range(N + 2)] for j in range(M + 2)]
    FLUX = math.sqrt(
        sum(((D[1][n] - D[0][n]) / dx) ** 2 for n in range(1, N + 1)) * dt
    )
    yT = [D[j][N] for j in range(M + 2)]
    vT = [(D[j][N + 1] - D[j][N]) / dt for j in range(M + 2)]
    XT = _xt_norm(yT, vT, M, dx)
    mixed2 = 0.0
    for j in range(0, M + 1):
        for k in range(0, N):
            mixed = ((D[j + 1][k + 1] - D[j][k + 1]) - (D[j + 1][k] - D[j][k])) / (
                dx * dt
            )
            mixed2 += mixed ** 2
    DTDX = dx * math.sqrt(mixed2 * dx * dt)

    return {"G": G, "Y0": Y0, "Y1": Y1, "FLUX": FLUX, "XT": XT, "DTDX": DTDX}
