/* Three kinds of loop, loaded together by _native.py and checked there,
 * once per process, against the NumPy reference, against the rows
 * that Python's repr and str assemble and against NumPy's Generator.
 *
 * Squared discrete fields of one window of paths, element by element.
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
 * No loop sums: every reduction stays in NumPy.
 *
 * The CSV artifacts' rows, with doubles in the shortest round-trip text,
 * byte for byte what Python's repr writes: see sw_rows.  Its
 * per-cell work is fixed-width stores into slack that the caller
 * sizes, with no library call, and each column's cell position is
 * stepped with the rows, not recomputed per cell.
 *
 * Brownian increments, drawn from 88-byte per-path Philox records
 * through NumPy's own normal sampler: see sw_normals at the end. */

#include <stddef.h>
#include <stdint.h>
#include <string.h>

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

/* ------------------------------------------------------------------------
 * Shortest round-trip decimal of a double: Ryu's d2d (Adams, "Ryu: fast
 * float-to-string conversion", PLDI 2018).  Its digits are the fewest
 * that read back as the same double, and of those the nearest to it,
 * which are the digits of Python's repr.
 *
 * pow5 holds, for i = 0 .. 325, the 125 leading bits of 5^i, and inv5,
 * for q = 0 .. 290, floor(2^(bitlength(5^q) - 1 + 125) / 5^q) + 1: each
 * a 128-bit value as (low, high) 64-bit words.  Those are the indices
 * finite doubles reach.  Both tables are made by _native._pow5_tables
 * with exact integers and owned by the caller.  Needs a compiler with
 * unsigned __int128 and __builtin_ctzll (GCC, Clang). */

#define POW5_BITS 125

typedef unsigned __int128 u128;

/* floor(log10(2^e)), 0 <= e <= 1650 */
static inline uint32_t log10_pow2(int32_t e)
{
    return ((uint32_t)e * 78913) >> 18;
}

/* floor(log10(5^e)), 0 <= e <= 2620 */
static inline uint32_t log10_pow5(int32_t e)
{
    return ((uint32_t)e * 732923) >> 20;
}

/* bitlength(5^e): ceil(log2(5^e)) for 1 <= e <= 3528, and 1 for e = 0 */
static inline int32_t pow5_bits(int32_t e)
{
    return (int32_t)((((uint32_t)e * 1217359) >> 19) + 1);
}

/* whether 5^p divides v, for v > 0 */
static inline int divisible_pow5(uint64_t v, uint32_t p)
{
    uint32_t count = 0;
    while (v % 5 == 0) {
        v /= 5;
        count++;
    }
    return count >= p;
}

/* floor(m * mul / 2^j) for a 128-bit mul and j >= 64 */
static inline uint64_t mul_shift(uint64_t m, const uint64_t *mul, int32_t j)
{
    u128 lo = (u128)m * mul[0], hi = (u128)m * mul[1];
    return (uint64_t)(((lo >> 64) + hi) >> (j - 64));
}

/* The shortest decimal digits of the finite positive double with
 * mantissa bits mant and biased exponent ex, as an integer *digits times
 * 10^(return value). */
static int32_t shortest(uint64_t mant, uint32_t ex, const uint64_t *pow5,
                        const uint64_t *inv5, uint64_t *digits)
{
    /* the value is m2 * 2^e2 / 4: two more bits for the interval bounds */
    int32_t e2;
    uint64_t m2;
    if (ex == 0) {
        e2 = 1 - 1023 - 52 - 2;
        m2 = mant;
    } else {
        e2 = (int32_t)ex - 1023 - 52 - 2;
        m2 = (1ull << 52) | mant;
    }
    const int even = (m2 & 1) == 0;
    /* the interval of doubles that round to this one is (mm, mp) times
     * 2^e2, closed when m2 is even; mm is closer below a power of two */
    const uint64_t mv = 4 * m2;
    const uint32_t mm_shift = mant != 0 || ex <= 1;

    uint64_t vr, vp, vm;
    int32_t e10;
    int vm_zeros = 0, vr_zeros = 0;  /* the dropped digits are all zero */
    if (e2 >= 0) {
        const uint32_t q = log10_pow2(e2) - (e2 > 3);
        const int32_t j = -e2 + (int32_t)q + POW5_BITS + pow5_bits(q) - 1;
        const uint64_t *mul = inv5 + 2 * q;
        e10 = (int32_t)q;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 21) {
            /* at most one of mv, mp and mm is a multiple of 5 */
            if (mv % 5 == 0)
                vr_zeros = divisible_pow5(mv, q);
            else if (even)
                vm_zeros = divisible_pow5(mv - 1 - mm_shift, q);
            else
                vp -= divisible_pow5(mv + 2, q);
        }
    } else {
        const uint32_t q = log10_pow5(-e2) - (-e2 > 1);
        const int32_t i = -e2 - (int32_t)q;
        const int32_t j = (int32_t)q - (pow5_bits(i) - POW5_BITS);
        const uint64_t *mul = pow5 + 2 * i;
        e10 = (int32_t)q + e2;
        vr = mul_shift(mv, mul, j);
        vp = mul_shift(mv + 2, mul, j);
        vm = mul_shift(mv - 1 - mm_shift, mul, j);
        if (q <= 1) {
            /* mv has at least two trailing zero bits */
            vr_zeros = 1;
            if (even)
                vm_zeros = mm_shift == 1;
            else
                vp--;
        } else if (q < 63) {
            vr_zeros = (mv & ((1ull << q) - 1)) == 0;
        }
    }

    /* drop digits while the interval still holds a shorter number */
    int32_t removed = 0;
    uint32_t last = 0;  /* the last digit dropped from vr */
    uint64_t out;
    if (vm_zeros || vr_zeros) {
        while (vp / 10 > vm / 10) {
            vm_zeros &= vm % 10 == 0;
            vr_zeros &= last == 0;
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        if (vm_zeros)
            while (vm % 10 == 0) {
                vr_zeros &= last == 0;
                last = (uint32_t)(vr % 10);
                vr /= 10;
                vp /= 10;
                vm /= 10;
                removed++;
            }
        if (vr_zeros && last == 5 && vr % 2 == 0)
            last = 4;  /* an exact tie: round to even */
        out = vr + ((vr == vm && (!even || !vm_zeros)) || last >= 5);
    } else {
        while (vp / 10 > vm / 10) {
            last = (uint32_t)(vr % 10);
            vr /= 10;
            vp /= 10;
            vm /= 10;
            removed++;
        }
        out = vr + (vr == vm || last >= 5);
    }
    *digits = out;
    return e10 + removed;
}

/* the 8 decimal digits of c < 10^8, with leading zeros, as one word
 * whose lowest byte is the first digit: 4 + 4 digits, then 2 + 2 in
 * each half, then 1 + 1 in each quarter, each split by a multiply */
static inline uint64_t digits8(uint32_t c)
{
    uint64_t x = c / 10000 | (uint64_t)(c % 10000) << 32;
    uint64_t h = (x * 10486) >> 20 & 0x0000007F0000007Full;
    x = h | (x - 100 * h) << 16;
    h = (x * 103) >> 10 & 0x000F000F000F000Full;
    return h | (x - 10 * h) << 8;
}

/* Write x as repr does and return the end of the text: nan, inf, -inf,
 * then the shortest digits d1 .. dk with the decimal point after
 * decpt of them, in fixed notation when -4 < decpt <= 16 (".0" after a
 * whole number) and otherwise as d1.d2..dk e+XX, with two exponent
 * digits at least.  The digits are copied by fixed 16- and 24-byte
 * stores, which write past the end of the text, but at most 10 bytes
 * past the 24 that sw_rows reserves for the cell. */
static char *repr_one(double x, char *o, const uint64_t *pow5,
                      const uint64_t *inv5)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    const uint64_t mant = bits & ((1ull << 52) - 1);
    const uint32_t ex = (uint32_t)(bits >> 52) & 0x7ff;
    if (ex == 0x7ff && mant != 0) {
        memcpy(o, "nan", 3);
        return o + 3;
    }
    if (bits >> 63)
        *o++ = '-';
    if (ex == 0x7ff) {
        memcpy(o, "inf", 3);
        return o + 3;
    }
    if (ex == 0 && mant == 0) {
        memcpy(o, "0.0", 3);
        return o + 3;
    }

    uint64_t v;
    const int32_t e10 = shortest(mant, ex, pow5, inv5, &v);
    /* v < 10^17: its 24 digits with leading zeros, lead of them zeros,
     * then 24 '0's, so that a 24-byte load from any digit stays in buf
     * and a whole number's zeros after its digits come with them */
    const uint64_t w[3] = {digits8((uint32_t)(v / 10000000000000000)),
                           digits8((uint32_t)(v / 100000000 % 100000000)),
                           digits8((uint32_t)(v % 100000000))};
    char buf[48];
    int32_t lead = 0;
    for (int i = 0; i < 3; i++) {
        const uint64_t a = w[i] | 0x3030303030303030ull;
        memcpy(buf + 8 * i, &a, 8);
        if (lead == 8 * i)
            lead += w[i] ? __builtin_ctzll(w[i]) / 8 : 8;
    }
    memcpy(buf + 24, "000000000000000000000000", 24);
    const char *d = buf + lead;
    const int32_t k = 24 - lead;
    const int32_t decpt = k + e10;

    /* o is at most 1 byte (the sign) into the cell, 1 <= k <= 17 and
     * each store's end is noted past the cell's start */
    if (decpt > -4 && decpt <= 16) {
        if (decpt <= 0) {
            /* "0." and -decpt <= 3 zeros, then all k digits: 30 */
            memcpy(o, "0.000000", 8);
            o += 2 - decpt;
            memcpy(o, d, 24);
            return o + k;
        }
        /* the first min(k, decpt) <= 16 digits, and '0's to decpt: 17 */
        memcpy(o, d, 16);
        if (decpt < k) {
            /* the point, then the k - decpt <= 16 digits after it: 34 */
            o[decpt] = '.';
            memcpy(o + decpt + 1, d + decpt, 16);
            return o + k + 1;
        }
        memcpy(o + decpt, ".0", 2);
        return o + decpt + 2;
    }
    /* d1, the point and the k - 1 <= 16 digits after it: 19 */
    o[0] = d[0];
    o[1] = '.';
    memcpy(o + 2, d + 1, 16);
    o += k > 1 ? k + 1 : 1;
    *o++ = 'e';
    int32_t e = decpt - 1;
    *o++ = e < 0 ? '-' : '+';
    if (e < 0)
        e = -e;
    if (e >= 100)
        *o++ = (char)('0' + e / 100);
    *o++ = (char)('0' + e / 10 % 10);
    *o++ = (char)('0' + e % 10);
    return o;
}

/* Copy the n bytes at s to o by 16-byte words and return o + n: the
 * words read and write up to 16 bytes past the cell's end, and at
 * least 16 bytes even for an empty cell.  The empty asm hides i from
 * GCC's loop-pattern pass, which would make the loop a memmove call. */
static inline char *text_one(char *o, const char *s, idx n)
{
    idx i = 0;
    do {
        memcpy(o + i, s + i, 16);
        i += 16;
        __asm__("" : "+r"(i));
    } while (i < n);
    return o + n;
}

/* ------------------------------------------------------------------------
 * CSV rows.  A table's rows run in C order over shape[0 .. ndim-1], and
 * sw_rows writes its rows start .. start+count-1 into out, each as its
 * ncols cells joined by ',' and ended by '\n', and returns the bytes
 * written.  Nothing is allocated.
 *
 * The row at multi-index i reads, in column c, the cell at position
 * base[c] + sum_k i[k] * stride[c * ndim + k]; a broadcast axis has
 * stride 0.  sw_rows computes each column's position once per block,
 * into pos[c] (ncols entries of the caller's), and then steps it with
 * the row's multi-index: the axis that advances adds its stride, and
 * each axis that wraps to 0 takes back its (shape[k] - 1) strides.  A
 * float column (ntext[c] < 0) writes the repr text of
 * ((const double *)cells[c])[p].  A text column writes the bytes
 * text[c][off[p] .. off[p+1]), off = (const int64_t *)cells[c], of its
 * ntext[c] cells rendered once; a position outside 0 .. ntext[c]-1
 * stops the block and returns -1.
 *
 * The slack contract.  Every row has a reserved width: one byte per
 * column for its ',' or '\n', 24 bytes per float column (the longest
 * repr of a double: "-", 17 digits, ".", "e-" and 3 digits) and the
 * longest cell of each text column.  Cells are written by whole-word
 * stores, which overwrite bytes past a cell's end that the next cell,
 * separator or row writes again: at most 10 bytes past a float cell's
 * 24, and up to 16 past a text cell's end, so at most 16 past its
 * column's longest cell.  So out holds count times the reserved width
 * plus 16 bytes of slack (_native._SLACK).  Text cells are read by
 * 16-byte words too, so every text[c] blob carries 16 readable bytes
 * after its last cell (_native._PAD).  ndim is at most SW_MAXDIMS,
 * NumPy's limit. */

#define SW_MAXDIMS 64

idx sw_rows(idx start, idx count, idx ndim, const idx *shape, idx ncols,
            const void *const *cells, const char *const *text,
            const idx *ntext, const idx *base, const idx *stride,
            idx *restrict pos, const uint64_t *pow5, const uint64_t *inv5,
            char *restrict out)
{
    idx at[SW_MAXDIMS];
    if (count <= 0)
        return 0;
    if (ndim > SW_MAXDIMS)
        return -1;
    for (idx k = ndim - 1, r = start; k >= 0; k--) {
        at[k] = r % shape[k];
        r /= shape[k];
    }
    for (idx c = 0; c < ncols; c++) {
        idx p = base[c];
        for (idx k = 0; k < ndim; k++)
            p += at[k] * stride[c * ndim + k];
        pos[c] = p;
    }
    char *o = out;
    for (idx row = 0; row < count; row++) {
        for (idx c = 0; c < ncols; c++) {
            const idx p = pos[c];
            if (c)
                *o++ = ',';
            if (ntext[c] < 0) {
                o = repr_one(((const double *)cells[c])[p], o, pow5, inv5);
            } else {
                const int64_t *off = cells[c];
                if (p < 0 || p >= ntext[c])
                    return -1;
                o = text_one(o, text[c] + off[p], off[p + 1] - off[p]);
            }
        }
        *o++ = '\n';
        /* the next multi-index, in C order, and each column's position */
        for (idx k = ndim - 1; k >= 0; k--) {
            const idx *s = stride + k;
            if (++at[k] < shape[k]) {
                for (idx c = 0; c < ncols; c++)
                    pos[c] += s[c * ndim];
                break;
            }
            at[k] = 0;
            for (idx c = 0; c < ncols; c++)
                pos[c] -= (shape[k] - 1) * s[c * ndim];
        }
    }
    return o - out;
}

/* ------------------------------------------------------------------------
 * Brownian increments: standard normals from per-path Philox4x64-10
 * streams (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
 * SC'11), each scaled in the same pass.
 *
 * A stream's whole state is one 88-byte record: the counter, the key
 * [seed, 0], the last block of four words and the position of the next
 * one in it (4 when the block is used up).  A fresh record (counter 0,
 * position 4) is NumPy's Philox(key=seed): the counter is incremented
 * before each block is made, as NumPy's philox_next does, and a uniform
 * double is the top 53 bits of a word times 2^-53.
 *
 * The normals themselves come from fill, NumPy's exported
 * random_standard_normal_fill, the function Generator.standard_normal
 * runs, called on a bit generator that reads the record: every ziggurat,
 * tail and wedge branch draws the words NumPy's would, so a row gets the
 * bits of Generator(Philox(key=seed)).standard_normal, however the
 * stream is cut into calls.  _native.py checks that once per process. */

typedef struct {
    uint64_t ctr[4], key[2], buf[4];
    int64_t pos;
} sw_philox;

/* NumPy's bitgen_t (numpy/random/bitgen.h) */
typedef struct {
    void *state;
    uint64_t (*next_uint64)(void *);
    uint32_t (*next_uint32)(void *);
    double (*next_double)(void *);
    uint64_t (*next_raw)(void *);
} sw_bitgen;

typedef void sw_fill(sw_bitgen *, idx, double *);

static uint64_t philox_next(void *state)
{
    sw_philox *s = state;
    if (s->pos < 4)
        return s->buf[s->pos++];
    if (++s->ctr[0] == 0 && ++s->ctr[1] == 0 && ++s->ctr[2] == 0)
        ++s->ctr[3];
    uint64_t c0 = s->ctr[0], c1 = s->ctr[1], c2 = s->ctr[2], c3 = s->ctr[3];
    uint64_t k0 = s->key[0], k1 = s->key[1];
    for (int r = 0; r < 10; r++) {
        if (r) {
            k0 += 0x9E3779B97F4A7C15ull;
            k1 += 0xBB67AE8584CAA73Bull;
        }
        const u128 p0 = (u128)0xD2E7470EE14C6C93ull * c0;
        const u128 p1 = (u128)0xCA5A826395121157ull * c2;
        c0 = (uint64_t)(p1 >> 64) ^ c1 ^ k0;
        c1 = (uint64_t)p1;
        c2 = (uint64_t)(p0 >> 64) ^ c3 ^ k1;
        c3 = (uint64_t)p0;
    }
    s->buf[0] = c0;
    s->buf[1] = c1;
    s->buf[2] = c2;
    s->buf[3] = c3;
    s->pos = 1;
    return c0;
}

/* the low half of a whole word, not NumPy's pairs of halves: the
 * normal fill reads no 32-bit draws, and the load check would see it */
static uint32_t philox_next32(void *state)
{
    return (uint32_t)philox_next(state);
}

static double philox_double(void *state)
{
    return (double)(philox_next(state) >> 11) * (1.0 / 9007199254740992.0);
}

/* Row p of out (stride doubles apart, at least n) receives the next n
 * normals of the stream of states[p], times scale, for p = 0 .. P-1. */
void sw_normals(sw_fill *fill, sw_philox *restrict states, idx P, idx n,
                double scale, double *out, idx stride)
{
    sw_bitgen g = {NULL, philox_next, philox_next32, philox_double,
                   philox_next};
    for (idx p = 0; p < P; p++, out += stride) {
        g.state = states + p;
        fill(&g, n, out);
        for (idx i = 0; i < n; i++)
            out[i] *= scale;
    }
}
