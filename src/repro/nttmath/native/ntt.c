/*
 * Negacyclic NTT kernels over C-contiguous (rows, n) int64 residue
 * stacks, the native counterpart of repro.nttmath.batched.BatchedNTT.
 *
 * Row r uses limb r % limbs of the per-limb tables, so a (k*L, n) stack
 * of k same-chain polynomials transforms in one call.  Rows are taken
 * limb by limb: the limb's twiddles are narrowed to uint32 once, then
 * each of its rows is copied into a uint32 work buffer (16 KB at
 * n = 4096) and runs every butterfly stage there before the next row
 * starts, so the whole transform of a row stays in L1.
 *
 * The arithmetic is the numpy kernels' Harvey lazy butterfly: Shoup
 * multiplication by bit-reversed twiddles w with companions
 * w' = floor(w * 2^32 / q), values kept in [0, 4q) (forward) or
 * [0, 2q) (inverse) and folded to [0, q) once at the end.  4q < 2^32
 * requires q < 2^30, which the caller guarantees; every intermediate
 * then fits a uint32 and every Shoup product a uint64.  Outputs are
 * canonical residues of the same transform, hence bitwise identical
 * to the numpy kernels.
 *
 * Plain C99: no intrinsics, no target-specific flags.
 */

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>

/* x * w mod q, landed in [0, 2q); exact for any x < 2^32, w < q. */
static inline uint32_t shoup_lazy(uint32_t x, uint32_t w, uint32_t w_sh,
                                  uint32_t q)
{
    uint32_t hi = (uint32_t)(((uint64_t)x * w_sh) >> 32);
    return x * w - hi * q;
}

static inline uint32_t csub(uint32_t x, uint32_t bound)
{
    return x >= bound ? x - bound : x;
}

/* Load one row into the work buffer, reducing mod q when asked. */
static void load_row(uint32_t *restrict a, const int64_t *restrict src,
                     size_t n, uint64_t q, int reduce)
{
    size_t j;
    if (reduce) {
        int64_t qs = (int64_t)q;
        for (j = 0; j < n; j++) {
            int64_t r = src[j] % qs;
            a[j] = (uint32_t)(r < 0 ? r + qs : r);
        }
    } else {
        for (j = 0; j < n; j++)
            a[j] = (uint32_t)src[j];
    }
}

/* Fold [0, 4q) to [0, q) and store the row. */
static void store_row(int64_t *restrict dst, const uint32_t *restrict a,
                      size_t n, uint32_t q)
{
    uint32_t q2 = 2 * q;
    size_t j;
    for (j = 0; j < n; j++)
        dst[j] = (int64_t)csub(csub(a[j], q2), q);
}

/* Narrow one limb's twiddle row and its companions to uint32. */
static void load_twiddles(uint32_t *restrict w, uint32_t *restrict w_sh,
                          const uint64_t *restrict src,
                          const uint64_t *restrict src_sh, size_t n)
{
    size_t j;
    for (j = 0; j < n; j++) {
        w[j] = (uint32_t)src[j];
        w_sh[j] = (uint32_t)src_sh[j];
    }
}

/* Cooley-Tukey butterflies x, y -> x + w*y, x - w*y over one block;
 * inputs and outputs in [0, 4q). */
static void fwd_block(uint32_t *restrict x, uint32_t *restrict y, size_t t,
                      uint32_t w, uint32_t w_sh, uint32_t q)
{
    uint32_t q2 = 2 * q;
    size_t j;
    for (j = 0; j < t; j++) {
        uint32_t u = csub(x[j], q2);
        uint32_t v = shoup_lazy(y[j], w, w_sh, q);
        x[j] = u + v;
        y[j] = u - v + q2;
    }
}

/* Gentleman-Sande butterflies x, y -> x + y, (x - y)*w over one block;
 * inputs and outputs in [0, 2q). */
static void inv_block(uint32_t *restrict x, uint32_t *restrict y, size_t t,
                      uint32_t w, uint32_t w_sh, uint32_t q)
{
    uint32_t q2 = 2 * q;
    size_t j;
    for (j = 0; j < t; j++) {
        uint32_t u = x[j], v = y[j];
        x[j] = csub(u + v, q2);
        y[j] = shoup_lazy(u - v + q2, w, w_sh, q);
    }
}

/* The stages with blocks of t = 1 and t = 2 butterflies walk the whole
 * row in one loop (per-block calls would be all overhead there). */
static void forward_row(uint32_t *restrict a, size_t n, uint32_t q,
                        const uint32_t *restrict psi,
                        const uint32_t *restrict psi_sh)
{
    uint32_t q2 = 2 * q;
    size_t m, t = n, i;
    for (m = 1; m < n; m <<= 1) {
        t >>= 1;
        if (t >= 4) {
            for (i = 0; i < m; i++)
                fwd_block(a + 2 * i * t, a + 2 * i * t + t, t, psi[m + i],
                          psi_sh[m + i], q);
        } else if (t == 2) {
            for (i = 0; i < m; i++) {
                uint32_t w = psi[m + i], w_sh = psi_sh[m + i];
                uint32_t *x = a + 4 * i;
                uint32_t u0 = csub(x[0], q2), u1 = csub(x[1], q2);
                uint32_t v0 = shoup_lazy(x[2], w, w_sh, q);
                uint32_t v1 = shoup_lazy(x[3], w, w_sh, q);
                x[0] = u0 + v0;
                x[1] = u1 + v1;
                x[2] = u0 - v0 + q2;
                x[3] = u1 - v1 + q2;
            }
        } else {
            for (i = 0; i < m; i++) {
                uint32_t u = csub(a[2 * i], q2);
                uint32_t v = shoup_lazy(a[2 * i + 1], psi[m + i],
                                        psi_sh[m + i], q);
                a[2 * i] = u + v;
                a[2 * i + 1] = u - v + q2;
            }
        }
    }
}

/* With scale set, the last stage also applies the 1/n scaling: the sum
 * branch takes an explicit n^-1 multiply (s) and the difference branch
 * the merged twiddle psi_inv^br[1] * n^-1 (f). */
static void inverse_row(uint32_t *restrict a, size_t n, uint32_t q,
                        const uint32_t *restrict psi,
                        const uint32_t *restrict psi_sh, int scale,
                        uint32_t s, uint32_t s_sh, uint32_t f, uint32_t f_sh)
{
    uint32_t q2 = 2 * q;
    size_t m, h, t = 1, i;
    for (m = n; m > (scale ? 2u : 1u); m >>= 1, t <<= 1) {
        h = m >> 1;
        if (t >= 4) {
            for (i = 0; i < h; i++)
                inv_block(a + 2 * i * t, a + 2 * i * t + t, t, psi[h + i],
                          psi_sh[h + i], q);
        } else if (t == 2) {
            for (i = 0; i < h; i++) {
                uint32_t w = psi[h + i], w_sh = psi_sh[h + i];
                uint32_t *x = a + 4 * i;
                uint32_t u0 = x[0], u1 = x[1], v0 = x[2], v1 = x[3];
                x[0] = csub(u0 + v0, q2);
                x[1] = csub(u1 + v1, q2);
                x[2] = shoup_lazy(u0 - v0 + q2, w, w_sh, q);
                x[3] = shoup_lazy(u1 - v1 + q2, w, w_sh, q);
            }
        } else {
            for (i = 0; i < h; i++) {
                uint32_t u = a[2 * i], v = a[2 * i + 1];
                a[2 * i] = csub(u + v, q2);
                a[2 * i + 1] = shoup_lazy(u - v + q2, psi[h + i],
                                          psi_sh[h + i], q);
            }
        }
    }
    if (scale) {
        uint32_t *restrict x = a;
        uint32_t *restrict y = a + t;
        for (i = 0; i < t; i++) {
            uint32_t u = x[i], v = y[i];
            x[i] = shoup_lazy(csub(u + v, q2), s, s_sh, q);
            y[i] = shoup_lazy(u - v + q2, f, f_sh, q);
        }
    }
}

/*
 * Forward transform: natural-order rows in, bit-reversed NTT rows out.
 * q: (limbs,) moduli; psi, psi_sh: (limbs, n) bit-reversed twiddles and
 * their Shoup companions.  reduce != 0 first reduces every input mod q
 * (any int64); otherwise inputs must already lie in [0, q).
 * Returns 0, or -1 if the work buffers could not be allocated.
 */
int ntt_forward(int64_t *out, const int64_t *in, size_t rows,
                size_t limbs, size_t n, const uint64_t *q,
                const uint64_t *psi, const uint64_t *psi_sh, int reduce)
{
    uint32_t *a = malloc(3 * n * sizeof *a);
    size_t l, r;
    if (!a)
        return -1;
    for (l = 0; l < limbs; l++) {
        uint32_t ql = (uint32_t)q[l];
        load_twiddles(a + n, a + 2 * n, psi + l * n, psi_sh + l * n, n);
        for (r = l; r < rows; r += limbs) {
            load_row(a, in + r * n, n, q[l], reduce);
            forward_row(a, n, ql, a + n, a + 2 * n);
            store_row(out + r * n, a, n, ql);
        }
    }
    free(a);
    return 0;
}

/*
 * Inverse transform: bit-reversed NTT rows in, natural-order rows out.
 * psi_inv, psi_inv_sh: (limbs, n) inverse twiddles and companions.
 * n_inv, fold1 and their companions are (limbs,) columns of n^-1 and
 * psi_inv^br[1] * n^-1, used when scale != 0 to apply the 1/n scaling.
 * reduce and the return value as for ntt_forward.
 */
int ntt_inverse(int64_t *out, const int64_t *in, size_t rows,
                size_t limbs, size_t n, const uint64_t *q,
                const uint64_t *psi_inv, const uint64_t *psi_inv_sh,
                const uint64_t *n_inv, const uint64_t *n_inv_sh,
                const uint64_t *fold1, const uint64_t *fold1_sh, int scale,
                int reduce)
{
    uint32_t *a = malloc(3 * n * sizeof *a);
    size_t l, r;
    if (!a)
        return -1;
    for (l = 0; l < limbs; l++) {
        uint32_t ql = (uint32_t)q[l];
        load_twiddles(a + n, a + 2 * n, psi_inv + l * n,
                      psi_inv_sh + l * n, n);
        for (r = l; r < rows; r += limbs) {
            load_row(a, in + r * n, n, q[l], reduce);
            inverse_row(a, n, ql, a + n, a + 2 * n, scale,
                        (uint32_t)n_inv[l], (uint32_t)n_inv_sh[l],
                        (uint32_t)fold1[l], (uint32_t)fold1_sh[l]);
            store_row(out + r * n, a, n, ql);
        }
    }
    free(a);
    return 0;
}
