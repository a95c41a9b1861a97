/* Squared discrete fields of one window of paths, element by element.
 *
 * Y is a window (P, L+2, M+2) of float64 holding levels n0 .. n0+L+1 of
 * P paths, with element strides sp, sn and sj, so that stream windows
 * and views of a whole window both work.  out is a C-contiguous
 * (P, L, M) buffer for y^2 and (Dt y)^2, and (P, L, M+1) for (Dx y)^2
 * and (Dt Dx y)^2, at the levels n = 1 .. L of the window.
 *
 * Each loop performs the IEEE operations of the NumPy reference in
 * _native.py in the same order: subtract, divide by dx or dt, then
 * square.  Built with -ffp-contract=off (no fused multiply-add) and
 * without -ffast-math, so every element gets the bits NumPy gives it.
 * No loop sums: every reduction stays in NumPy. */

#include <stddef.h>

typedef ptrdiff_t idx;

#define ROW(p, n) (Y + (p) * sp + (n) * sn)

/* y^2 at the interior nodes j = 1 .. M */
void sw_y2(const double *restrict Y, idx P, idx L, idx M, idx sp, idx sn,
           idx sj, double dx, double dt, double *restrict out)
{
    (void)dx;
    (void)dt;
    for (idx p = 0; p < P; p++)
        for (idx n = 1; n <= L; n++) {
            const double *y = ROW(p, n);
            for (idx j = 1; j <= M; j++) {
                double v = y[j * sj];
                *out++ = v * v;
            }
        }
}

/* (Dt y)^2, the forward difference (y^{n+1} - y^n) / dt, squared */
void sw_dty2(const double *restrict Y, idx P, idx L, idx M, idx sp, idx sn,
             idx sj, double dx, double dt, double *restrict out)
{
    (void)dx;
    for (idx p = 0; p < P; p++)
        for (idx n = 1; n <= L; n++) {
            const double *y = ROW(p, n), *u = ROW(p, n + 1);
            for (idx j = 1; j <= M; j++) {
                double d = (u[j * sj] - y[j * sj]) / dt;
                *out++ = d * d;
            }
        }
}

/* (Dx y)^2 at the dual points j = 0 .. M, (y_{j+1} - y_j) / dx, squared */
void sw_dxy2(const double *restrict Y, idx P, idx L, idx M, idx sp, idx sn,
             idx sj, double dx, double dt, double *restrict out)
{
    (void)dt;
    for (idx p = 0; p < P; p++)
        for (idx n = 1; n <= L; n++) {
            const double *y = ROW(p, n);
            for (idx j = 0; j <= M; j++) {
                double d = (y[(j + 1) * sj] - y[j * sj]) / dx;
                *out++ = d * d;
            }
        }
}

/* (Dt Dx y)^2 at the dual times n - 1/2: (Dx y^n - Dx y^{n-1}) / dt,
 * squared.  Each path's rows first receive Dx y^n, n = 1 .. L, rounded
 * as NumPy stores them; a backward sweep then replaces row n by the
 * squared difference with row n-1, which it has not yet overwritten,
 * so Dx y is divided by dx once per node, as in NumPy. */
void sw_dtdx2(const double *restrict Y, idx P, idx L, idx M, idx sp, idx sn,
              idx sj, double dx, double dt, double *restrict out)
{
    const idx W = M + 1;
    for (idx p = 0; p < P; p++, out += L * W) {
        for (idx n = 1; n <= L; n++) {
            const double *y = ROW(p, n);
            double *o = out + (n - 1) * W;
            for (idx j = 0; j < W; j++)
                o[j] = (y[(j + 1) * sj] - y[j * sj]) / dx;
        }
        for (idx n = L; n >= 2; n--) {
            double *o = out + (n - 1) * W;
            const double *q = o - W;
            for (idx j = 0; j < W; j++) {
                double d = (o[j] - q[j]) / dt;
                o[j] = d * d;
            }
        }
        if (L >= 1) {
            const double *y = ROW(p, 0);
            for (idx j = 0; j < W; j++) {
                double b = (y[(j + 1) * sj] - y[j * sj]) / dx;
                double d = (out[j] - b) / dt;
                out[j] = d * d;
            }
        }
    }
}
