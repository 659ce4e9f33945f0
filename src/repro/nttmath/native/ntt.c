/*
 * The native kernels of the repro package, one library:
 *
 * - ntt_forward / ntt_inverse: negacyclic NTTs over C-contiguous
 *   (rows, n) int64 residue stacks, the native counterpart of
 *   repro.nttmath.batched.BatchedNTT;
 * - replay_steps: a run of a compiled plan's steps (elementwise, NTT /
 *   iNTT / automorphism, copy, DRAM load, fill) over the slot arena of
 *   repro.compiler.exec_plan, in place, from per-plan flat tables;
 * - ks_mac / bconv / mod_down_tail: the key MAC (reading a rotation
 *   through its permutation), fast base conversion and ModDown tail of
 *   repro.schemes.rns_core's batch key switch;
 * - bconv_exact / bfv_scale_round: the exact (centred) base conversion
 *   under BFV's tensor lift and BGV's t-corrected ModDown, and BFV's
 *   fused round(t * d / Q) tail (the last part of this file; see there
 *   for the float correction's summation order and rounding).
 *
 * Plain C99 plus the GCC/Clang unsigned __int128 extension, which every
 * 64-bit target provides (riscv64 included): no intrinsics, no
 * target-specific flags.
 */

/*
 * NTT kernels.
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

/* Load one row into the work buffer, reducing mod q when asked.  The
 * reduction keeps canonical values as they are ((uint64_t)v < q holds
 * exactly for v in [0, q)) and takes C's truncating % plus a sign fix
 * for every other int64, so it costs one compare on rows that are
 * already reduced. */
static void load_row(uint32_t *restrict a, const int64_t *restrict src,
                     size_t n, uint64_t q, int reduce)
{
    size_t j;
    if (reduce) {
        int64_t qs = (int64_t)q;
        for (j = 0; j < n; j++) {
            int64_t v = src[j], r;
            if ((uint64_t)v < q) {
                a[j] = (uint32_t)v;
                continue;
            }
            r = v % qs;
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


/*
 * Whole-plan replay: replay_steps runs a compiled plan of
 * repro.compiler.exec_plan step by step over its (rows, n) int64 slot
 * arena, in place, reusing the NTT row kernels above.  The caller
 * builds the tables once per plan and arena (never serialized):
 *
 *   steps  (nsteps, ST_WIDTH) int64, one row per step:
 *            kind | arg | k | off | aux
 *          kind: ST_EW, ST_FFT, ST_COPY, ST_DRAM or ST_FILL, or any
 *            other value for a step the caller runs itself (numpy);
 *          arg: the EW source arity (1, 2, 3) or the FFT op;
 *          k, off: the step's lane count and the offset of its first
 *            lane in lanes (int64 elements);
 *          aux: an AUTO step's index into perms.
 *   lanes  flat int64, the k lanes of each step, one row per lane:
 *            EW   out | a | b | c | q | imm   (see ew_step)
 *            FFT  in | out | prime             (index into q and tw)
 *            COPY in | out
 *            DRAM out | q | source             (index into src)
 *            FILL out | value
 *   q      (nprimes,) uint64: the distinct moduli of the plan's FFT
 *          steps, each in [2, 2^30);
 *   tw     (nprimes, TW_ROWS, n) uint32 per modulus: the bit-reversed
 *          forward twiddles, their Shoup companions, the inverse
 *          twiddles and theirs (the NTT engine's tables, narrowed once
 *          per plan rather than once per lane);
 *   perms  (nperms, n) int64: the distinct automorphism permutations;
 *   src    (nsrc,) addresses of bound DRAM rows (n contiguous int64
 *          outside the arena), 0 for a binding C must not read.
 *
 * Each result must equal numpy's int64 expression for every input, not
 * only for canonical residues: products and sums wrap modulo 2^64 (done
 * in uint64 here, since signed overflow is undefined in C) and the
 * reduction is numpy's floor modulo, whose result takes the sign of the
 * divisor.  Every step is checked before it writes anything; a step
 * that fails its check is left to the caller (replay_steps returns its
 * index), which keeps the numpy expression as fallback and oracle.
 */

__extension__ typedef unsigned __int128 u128;

/* v mod q in [0, q) for any int64 v.  Non-negative v takes a
 * division-free Barrett reduction with m = floor((2^64 - 1) / q): the
 * quotient estimate (v * m) >> 64 is exact or one short, so one
 * conditional subtraction finishes.  Negative v takes C's truncating %
 * plus a sign fix. */
static inline int64_t floor_mod(int64_t v, uint64_t q, uint64_t m)
{
    if (v >= 0) {
        uint64_t u = (uint64_t)v;
        uint64_t r = u - (uint64_t)(((u128)u * m) >> 64) * q;
        return (int64_t)(r >= q ? r - q : r);
    } else {
        int64_t r = v % (int64_t)q;
        return r < 0 ? r + (int64_t)q : r;
    }
}

/* Wrapping int64 arithmetic, as numpy computes it. */
static inline int64_t wrap_mul(int64_t x, int64_t y)
{
    return (int64_t)((uint64_t)x * (uint64_t)y);
}

static inline int64_t wrap_add(int64_t x, int64_t y)
{
    return (int64_t)((uint64_t)x + (uint64_t)y);
}

/* The kinds of replay_steps' steps: the K_* step codes of
 * repro.compiler.exec_plan.  Any other kind marks a step the caller
 * runs itself. */
enum { ST_EW, ST_FFT, ST_COPY, ST_DRAM, ST_FILL };

/* Columns of one step row, and of one lane of each step kind. */
enum { ST_KIND, ST_ARG, ST_K, ST_OFF, ST_AUX, ST_WIDTH };
enum { EW_OUT, EW_A, EW_B, EW_C, EW_Q, EW_IMM, EW_WIDTH };
enum { FT_IN, FT_OUT, FT_PRIME, FT_WIDTH };
enum { CP_IN, CP_OUT, CP_WIDTH };
enum { DR_OUT, DR_Q, DR_SRC, DR_WIDTH };
enum { FL_OUT, FL_VAL, FL_WIDTH };

/* The transforms of an FFT step (its ST_ARG), and the uint32 rows of
 * one prime's twiddle table. */
enum { FFT_NTT, FFT_INTT, FFT_AUTO };
enum { TW_PSI, TW_PSI_SH, TW_INV, TW_INV_SH, TW_ROWS };

static int row_ok(int64_t row, size_t rows)
{
    return row >= 0 && (uint64_t)row < rows;
}

/* Lane-by-lane in-place execution equals numpy's gather-then-scatter
 * when no out row repeats and no out row is also a row the step reads.
 * 1 unless that holds and every row lies in [0, rows): the step's k
 * lanes of the given width read columns in[0 .. nin) and write column
 * out.  mark is a zeroed rows-byte buffer, left zeroed. */
static int rows_bad(const int64_t *lanes, size_t k, size_t width,
                    const int *in, size_t nin, int out, size_t rows,
                    unsigned char *mark)
{
    size_t i, c;
    int bad = 0;
    for (i = 0; i < k && !bad; i++) {
        const int64_t *ln = lanes + i * width;
        for (c = 0; c < nin; c++)
            bad |= !row_ok(ln[in[c]], rows);
        bad |= !row_ok(ln[out], rows);
    }
    if (bad)
        return 1;
    for (i = 0; i < k; i++)
        for (c = 0; c < nin; c++)
            mark[lanes[i * width + in[c]]] = 1;
    for (i = 0; i < k && !bad; i++) {
        int64_t o = lanes[i * width + out];
        bad = mark[o] != 0;
        mark[o] = 2;
    }
    for (i = 0; i < k; i++) {
        for (c = 0; c < nin; c++)
            mark[lanes[i * width + in[c]]] = 0;
        mark[lanes[i * width + out]] = 0;
    }
    return bad;
}

/*
 * One elementwise step; lane i writes arena row out from rows a, b, c:
 *   nsrc == 3: out = (a * b + c) mod q
 *   nsrc == 2: out = (a * b) mod q if c != 0 else (a + b) mod q
 *   nsrc == 1: out = (a * imm) mod q if c != 0 else (a + imm) mod q
 * so column c is the addend row for nsrc 3 and the multiply flag
 * otherwise.  1 without writing unless nsrc is 1, 2 or 3, every q is
 * at least 1 and the rows pass rows_bad.
 */
static int ew_step(int64_t *arena, size_t rows, size_t n,
                   const int64_t *lanes, size_t k, int64_t nsrc,
                   unsigned char *mark)
{
    static const int in[3] = {EW_A, EW_B, EW_C};
    size_t i, j;
    if (nsrc < 1 || nsrc > 3)
        return 1;
    for (i = 0; i < k; i++)
        if (lanes[i * EW_WIDTH + EW_Q] < 1)
            return 1;
    if (rows_bad(lanes, k, EW_WIDTH, in, (size_t)nsrc, EW_OUT, rows, mark))
        return 1;
    for (i = 0; i < k; i++) {
        const int64_t *ln = lanes + i * EW_WIDTH;
        int64_t *restrict o = arena + (size_t)ln[EW_OUT] * n;
        const int64_t *x = arena + (size_t)ln[EW_A] * n;
        const int64_t *y = arena + (size_t)(nsrc >= 2 ? ln[EW_B] : 0) * n;
        uint64_t q = (uint64_t)ln[EW_Q];
        uint64_t m = UINT64_MAX / q;
        if (nsrc == 3) {
            const int64_t *z = arena + (size_t)ln[EW_C] * n;
            for (j = 0; j < n; j++)
                o[j] = floor_mod(wrap_add(wrap_mul(x[j], y[j]), z[j]), q,
                                 m);
        } else if (nsrc == 2 && ln[EW_C]) {
            for (j = 0; j < n; j++)
                o[j] = floor_mod(wrap_mul(x[j], y[j]), q, m);
        } else if (nsrc == 2) {
            for (j = 0; j < n; j++)
                o[j] = floor_mod(wrap_add(x[j], y[j]), q, m);
        } else if (ln[EW_C]) {
            int64_t imm = ln[EW_IMM];
            for (j = 0; j < n; j++)
                o[j] = floor_mod(wrap_mul(x[j], imm), q, m);
        } else {
            int64_t imm = ln[EW_IMM];
            for (j = 0; j < n; j++)
                o[j] = floor_mod(wrap_add(x[j], imm), q, m);
        }
    }
    return 0;
}

/* The tables of one replay_steps call the FFT steps read. */
struct fft_tabs {
    const uint64_t *q;          /* (nprimes,) moduli */
    const uint32_t *tw;         /* (nprimes, TW_ROWS, n) twiddles */
    size_t nprimes;
    const int64_t *perms;       /* (nperms, n) permutations */
    size_t nperms;
    unsigned char *perm_ok;     /* nperms bytes: 1 once checked */
    uint32_t *a;                /* n-word work row */
};

/*
 * One FFT step, lane i reading arena row in and writing row out:
 *   op == FFT_NTT:  the forward NTT of row in mod q[prime];
 *   op == FFT_INTT: the inverse NTT without the 1/n scaling (the IR's
 *                   iNTT is raw: its 1/n is an explicit multiply);
 *   op == FFT_AUTO: out[j] = in[perm[j]] with perm = perms[aux], the
 *                   NTT-domain automorphism (any int64 values, as
 *                   numpy's take copies them; the prime is unused).
 * A transform reads prime's twiddle rows in place, loads the row
 * reduced mod q (any int64, see load_row) and stores canonical values,
 * bitwise equal to ntt_forward / ntt_inverse(scale = 0) with reduce
 * set.  1 without writing unless op is known, every prime index lies
 * in [0, nprimes) with its q in [2, 2^30) (transforms), aux lies in
 * [0, nperms) with every entry of its perm in [0, n) (AUTO), and the
 * rows pass rows_bad.
 */
static int fft_step(int64_t *arena, size_t rows, size_t n,
                    const int64_t *lanes, size_t k, int64_t op, int64_t aux,
                    const struct fft_tabs *t, unsigned char *mark)
{
    static const int in[1] = {FT_IN};
    const int64_t *perm = NULL;
    size_t i, j;
    if (op == FFT_AUTO) {
        if (aux < 0 || (uint64_t)aux >= t->nperms)
            return 1;
        perm = t->perms + (size_t)aux * n;
        if (!t->perm_ok[aux]) {
            for (j = 0; j < n; j++)
                if (perm[j] < 0 || (uint64_t)perm[j] >= n)
                    return 1;
            t->perm_ok[aux] = 1;
        }
    } else if (op == FFT_NTT || op == FFT_INTT) {
        for (i = 0; i < k; i++) {
            int64_t p = lanes[i * FT_WIDTH + FT_PRIME];
            if (p < 0 || (uint64_t)p >= t->nprimes || t->q[p] < 2
                || t->q[p] >= (1u << 30))
                return 1;
        }
    } else {
        return 1;
    }
    if (rows_bad(lanes, k, FT_WIDTH, in, 1, FT_OUT, rows, mark))
        return 1;
    for (i = 0; i < k; i++) {
        const int64_t *ln = lanes + i * FT_WIDTH;
        const int64_t *x = arena + (size_t)ln[FT_IN] * n;
        int64_t *restrict o = arena + (size_t)ln[FT_OUT] * n;
        const uint32_t *tw;
        uint32_t q;
        if (perm) {
            for (j = 0; j < n; j++)
                o[j] = x[perm[j]];
            continue;
        }
        q = (uint32_t)t->q[ln[FT_PRIME]];
        tw = t->tw + (size_t)ln[FT_PRIME] * TW_ROWS * n;
        load_row(t->a, x, n, q, 1);
        if (op == FFT_NTT)
            forward_row(t->a, n, q, tw + TW_PSI * n, tw + TW_PSI_SH * n);
        else
            inverse_row(t->a, n, q, tw + TW_INV * n, tw + TW_INV_SH * n, 0,
                        0, 0, 0, 0);
        store_row(o, t->a, n, q);
    }
    return 0;
}

/* One copy step: arena row out = row in per lane.  1 without writing
 * unless the rows pass rows_bad. */
static int copy_step(int64_t *arena, size_t rows, size_t n,
                     const int64_t *lanes, size_t k, unsigned char *mark)
{
    static const int in[1] = {CP_IN};
    size_t i, j;
    if (rows_bad(lanes, k, CP_WIDTH, in, 1, CP_OUT, rows, mark))
        return 1;
    for (i = 0; i < k; i++) {
        const int64_t *x = arena + (size_t)lanes[i * CP_WIDTH + CP_IN] * n;
        int64_t *restrict o = arena + (size_t)lanes[i * CP_WIDTH + CP_OUT] * n;
        for (j = 0; j < n; j++)
            o[j] = x[j];
    }
    return 0;
}

/* One DRAM-load step: arena row out = src[source] mod q per lane, in
 * lane order.  src[source] points at n contiguous int64 values outside
 * the arena.  1 without writing unless every row lies in [0, rows),
 * every q is at least 1 and every source index lies in [0, nsrc) with
 * a non-zero address. */
static int dram_step(int64_t *arena, size_t rows, size_t n,
                     const int64_t *lanes, size_t k, const uintptr_t *src,
                     size_t nsrc)
{
    size_t i, j;
    for (i = 0; i < k; i++) {
        const int64_t *ln = lanes + i * DR_WIDTH;
        if (!row_ok(ln[DR_OUT], rows) || ln[DR_Q] < 1 || ln[DR_SRC] < 0
            || (uint64_t)ln[DR_SRC] >= nsrc || !src[ln[DR_SRC]])
            return 1;
    }
    for (i = 0; i < k; i++) {
        const int64_t *ln = lanes + i * DR_WIDTH;
        const int64_t *s = (const int64_t *)src[ln[DR_SRC]];
        int64_t *restrict o = arena + (size_t)ln[DR_OUT] * n;
        uint64_t q = (uint64_t)ln[DR_Q], m = UINT64_MAX / q;
        for (j = 0; j < n; j++)
            o[j] = floor_mod(s[j], q, m);
    }
    return 0;
}

/* One fill step: every column of arena row out = value, in lane order.
 * 1 without writing unless every row lies in [0, rows). */
static int fill_step(int64_t *arena, size_t rows, size_t n,
                     const int64_t *lanes, size_t k)
{
    size_t i, j;
    for (i = 0; i < k; i++)
        if (!row_ok(lanes[i * FL_WIDTH + FL_OUT], rows))
            return 1;
    for (i = 0; i < k; i++) {
        int64_t *o = arena + (size_t)lanes[i * FL_WIDTH + FL_OUT] * n;
        int64_t v = lanes[i * FL_WIDTH + FL_VAL];
        for (j = 0; j < n; j++)
            o[j] = v;
    }
    return 0;
}

/* Lane width of each step kind, 0 for a kind replay_steps does not
 * run. */
static size_t lane_width(int64_t kind)
{
    switch (kind) {
    case ST_EW: return EW_WIDTH;
    case ST_FFT: return FT_WIDTH;
    case ST_COPY: return CP_WIDTH;
    case ST_DRAM: return DR_WIDTH;
    case ST_FILL: return FL_WIDTH;
    default: return 0;
    }
}

/*
 * Runs steps [start, stop) of a compiled plan in order over the
 * (rows, n) int64 slot arena, from the flat tables the caller builds
 * once per plan (see the section comment above for the layout).
 * Returns the index of the first step it did not run: stop when it ran
 * them all, else the index of a step it refused without writing any of
 * it, every earlier step having run.  A step is refused when its kind
 * is none of the five, its lane range lies outside lanes, or a check
 * of its kind above fails.  stop is clamped to nsteps.  Returns -1 if
 * the work buffers could not be allocated.
 */
int replay_steps(int64_t *arena, size_t rows, size_t n,
                 const int64_t *steps, size_t nsteps, const int64_t *lanes,
                 size_t nlanes, const uint64_t *q, const uint32_t *tw,
                 size_t nprimes, const int64_t *perms, size_t nperms,
                 const uintptr_t *src, size_t nsrc, size_t start,
                 size_t stop)
{
    struct fft_tabs t;
    unsigned char *mark;
    size_t s;
    if (stop > nsteps)
        stop = nsteps;
    mark = calloc(rows + nperms + 1, 1);
    t.a = malloc((n ? n : 1) * sizeof *t.a);
    if (!mark || !t.a) {
        free(mark);
        free(t.a);
        return -1;
    }
    t.q = q;
    t.tw = tw;
    t.nprimes = nprimes;
    t.perms = perms;
    t.nperms = nperms;
    t.perm_ok = mark + rows;
    for (s = start; s < stop; s++) {
        const int64_t *st = steps + s * ST_WIDTH;
        size_t width = lane_width(st[ST_KIND]);
        const int64_t *ln;
        size_t k;
        int bad;
        if (!width || st[ST_K] < 0 || st[ST_OFF] < 0
            || (uint64_t)st[ST_OFF] > nlanes
            || (uint64_t)st[ST_K] > (nlanes - (size_t)st[ST_OFF]) / width)
            break;
        ln = lanes + st[ST_OFF];
        k = (size_t)st[ST_K];
        switch (st[ST_KIND]) {
        case ST_EW:
            bad = ew_step(arena, rows, n, ln, k, st[ST_ARG], mark);
            break;
        case ST_FFT:
            bad = fft_step(arena, rows, n, ln, k, st[ST_ARG], st[ST_AUX], &t,
                           mark);
            break;
        case ST_COPY:
            bad = copy_step(arena, rows, n, ln, k, mark);
            break;
        case ST_DRAM:
            bad = dram_step(arena, rows, n, ln, k, src, nsrc);
            break;
        default:
            bad = fill_step(arena, rows, n, ln, k);
            break;
        }
        if (bad)
            break;
    }
    free(mark);
    free(t.a);
    return s < stop ? (int)s : (int)stop;
}


/*
 * Key-switch kernels: the key MAC, fast BConv and ModDown tail of
 * repro.schemes.rns_core's batch key switch, each the native
 * counterpart of a numpy expression that stays its oracle.
 *
 * Every modulus lies in [2, 2^31), which the caller checks
 * (_shoup_tail_ok).  shoup_lazy then lands x * w mod q in [0, 2q)
 * exactly for any x < 2^32, as numpy's shoup_mul_lazy does, and the
 * outputs are the canonical residues the numpy code computes, hence
 * bitwise identical to it.
 */

/* Columns per key-MAC block: one block's key rows (4 tables, beta
 * digits) stay cache-resident while all k ciphertexts accumulate
 * against them. */
enum { KS_BLOCK = 1024 };

/* shoup_lazy with 64-bit widening products: the same value in
 * [0, 2q), which the key MAC and BConv sums accumulate in uint64. */
static inline uint64_t shoup_lazy64(uint32_t x, uint32_t w, uint32_t w_sh,
                                    uint32_t q)
{
    uint32_t hi = (uint32_t)(((uint64_t)x * w_sh) >> 32);
    return (uint64_t)x * w - (uint64_t)hi * q;
}

/* Both key halves' lazy products of one digit block, stored
 * (first != 0) or added into the block sums sb, sa. */
static void mac_block(uint64_t *restrict sb, uint64_t *restrict sa,
                      const uint32_t *restrict x,
                      const uint64_t *restrict b,
                      const uint64_t *restrict b_sh,
                      const uint64_t *restrict a,
                      const uint64_t *restrict a_sh, size_t w, uint32_t q,
                      int first)
{
    size_t j;
    if (first) {
        for (j = 0; j < w; j++) {
            sb[j] = shoup_lazy64(x[j], (uint32_t)b[j], (uint32_t)b_sh[j], q);
            sa[j] = shoup_lazy64(x[j], (uint32_t)a[j], (uint32_t)a_sh[j], q);
        }
    } else {
        for (j = 0; j < w; j++) {
            sb[j] += shoup_lazy64(x[j], (uint32_t)b[j], (uint32_t)b_sh[j], q);
            sa[j] += shoup_lazy64(x[j], (uint32_t)a[j], (uint32_t)a_sh[j], q);
        }
    }
}

/* Fold sums below 2 * top * q to [0, q) in place: conditional
 * subtracts of top * q, top/2 * q, ..., q (top a power of two).  Every
 * value stays below 2^63, so s - m wraps past 2^63 exactly when s < m
 * and the sign bit selects the lane branch-free. */
static void fold_sums(uint64_t *restrict s, size_t w, uint64_t q,
                      uint64_t top)
{
    size_t j;
    for (; top; top >>= 1) {
        uint64_t m = top * q;
        for (j = 0; j < w; j++) {
            uint64_t d = s[j] - m;
            s[j] = d + (m & (0 - (d >> 63)));
        }
    }
}

/* The smallest power of two >= count (count >= 1). */
static uint64_t pow2_at_least(size_t count)
{
    uint64_t top = 1;
    while (top < count)
        top <<= 1;
    return top;
}

/*
 * Key MAC of k lifted digit stacks against one switching key.  x is
 * the (k, beta, ext, n) digit stack (canonical residues, or any values
 * below 2^32); b, a are the (beta, ext, n) key tables with Shoup
 * companions b_sh, a_sh; q holds the ext moduli.  For ciphertext c and
 * limb e,
 *   out[c][0][e][j] = sum_d x[c][d][e][perm[j]] * b[d][e][j] mod q[e]
 *   out[c][1][e][j] = sum_d x[c][d][e][perm[j]] * a[d][e][j] mod q[e]
 * into the (k, 2, ext, n) out stack, with perm[j] = j when perm is
 * NULL: a non-NULL perm is the NTT-domain automorphism, read in place
 * of a gathered copy of x.  The digit sum of lazy products stays
 * below 2 * beta * q, exact in uint64, and folds to [0, q) through the
 * numpy twin's halving conditional-subtract chain.  Columns go in
 * blocks of KS_BLOCK, each block's key rows serving all k ciphertexts.
 * Returns 0, or 1 without writing anything if beta is 0 or a perm
 * entry lies outside [0, n).
 */
int ks_mac(uint64_t *out, const int64_t *x, size_t k, size_t beta,
           size_t ext, size_t n, const uint64_t *q, const uint64_t *b,
           const uint64_t *b_sh, const uint64_t *a, const uint64_t *a_sh,
           const int64_t *perm)
{
    uint32_t row[KS_BLOCK];
    uint64_t top;
    size_t c, d, e, j, j0;
    if (!beta)
        return 1;
    if (perm)
        for (j = 0; j < n; j++)
            if (perm[j] < 0 || (uint64_t)perm[j] >= n)
                return 1;
    top = pow2_at_least(beta);
    for (e = 0; e < ext; e++) {
        uint32_t qe = (uint32_t)q[e];
        for (j0 = 0; j0 < n; j0 += KS_BLOCK) {
            size_t w = n - j0 < KS_BLOCK ? n - j0 : KS_BLOCK;
            for (c = 0; c < k; c++) {
                uint64_t *ob = out + (2 * c * ext + e) * n + j0;
                uint64_t *oa = ob + ext * n;
                for (d = 0; d < beta; d++) {
                    const int64_t *xr = x + ((c * beta + d) * ext + e) * n;
                    size_t t = (d * ext + e) * n + j0;
                    if (perm)
                        for (j = 0; j < w; j++)
                            row[j] = (uint32_t)xr[perm[j0 + j]];
                    else
                        for (j = 0; j < w; j++)
                            row[j] = (uint32_t)xr[j0 + j];
                    mac_block(ob, oa, row, b + t, b_sh + t, a + t,
                              a_sh + t, w, qe, d == 0);
                }
                fold_sums(ob, w, q[e], top);
                fold_sums(oa, w, q[e], top);
            }
        }
    }
    return 0;
}

/*
 * Fast base conversion of k polynomials: in is a ct-major
 * (k * l_from, n) stack over the moduli q (values below 2^32), out the
 * (k * l_to, n) stack over the moduli p:
 *   v_j = x_j * s_j mod q_j          (s = q_hat^-1, canonical)
 *   out_i = sum_j v_j * w[i][j] mod p_i
 * with w the (l_to, l_from) matrix of q_hat_j mod p_i and w_sh its
 * Shoup companions mod p_i.  Each term is a lazy Shoup product in
 * [0, 2 p_i), so the row sum stays below 2 * l_from * p_i, exact in
 * uint64, and folds to the canonical residue numpy's exact float64
 * accumulation gives.  out's own rows hold the sums.
 * Returns 0, 1 without writing anything if l_from is 0, or -1 if the
 * work buffer could not be allocated.
 */
int bconv(int64_t *out, const int64_t *in, size_t k, size_t l_from,
          size_t l_to, size_t n, const uint64_t *q, const uint64_t *s,
          const uint64_t *s_sh, const uint64_t *p, const uint64_t *w,
          const uint64_t *w_sh)
{
    uint32_t *v;
    uint64_t top;
    size_t c, i, j, col;
    if (!l_from)
        return 1;
    v = malloc(l_from * n * sizeof *v);
    if (!v)
        return -1;
    top = pow2_at_least(l_from);
    for (c = 0; c < k; c++) {
        for (j = 0; j < l_from; j++) {
            const int64_t *x = in + (c * l_from + j) * n;
            uint32_t *vj = v + j * n;
            uint32_t qj = (uint32_t)q[j], sj = (uint32_t)s[j];
            uint32_t sj_sh = (uint32_t)s_sh[j];
            for (col = 0; col < n; col++)
                vj[col] = csub(shoup_lazy((uint32_t)x[col], sj, sj_sh, qj),
                               qj);
        }
        for (i = 0; i < l_to; i++) {
            uint64_t *acc = (uint64_t *)(out + (c * l_to + i) * n);
            uint32_t pi = (uint32_t)p[i];
            for (j = 0; j < l_from; j++) {
                const uint32_t *restrict vj = v + j * n;
                uint32_t wij = (uint32_t)w[i * l_from + j];
                uint32_t wij_sh = (uint32_t)w_sh[i * l_from + j];
                if (j == 0)
                    for (col = 0; col < n; col++)
                        acc[col] = shoup_lazy64(vj[col], wij, wij_sh, pi);
                else
                    for (col = 0; col < n; col++)
                        acc[col] += shoup_lazy64(vj[col], wij, wij_sh, pi);
            }
            fold_sums(acc, n, p[i], top);
        }
    }
    free(v);
    return 0;
}

/*
 * ModDown tail: for pair half c < k2 and Q limb i < l1,
 *   corr[c][i][j] = (acc[c][i][j] - corr[c][i][j]) * inv[i] mod q[i]
 * in place, where acc is a (k2, ext, n) accumulator stack whose first
 * l1 rows per half are the Q rows, corr the (k2, l1, n) correction
 * stack and inv, inv_sh the Shoup pair of P^-1 mod q_i.  Canonical
 * residues in: acc - corr + q lies in (0, 2q), one lazy Shoup product
 * and one conditional subtract land the canonical residue (ext >= l1,
 * which the caller checks).  Returns 0.
 */
int mod_down_tail(int64_t *corr, const int64_t *acc, size_t k2, size_t l1,
                  size_t ext, size_t n, const uint64_t *q,
                  const uint64_t *inv, const uint64_t *inv_sh)
{
    size_t c, i, j;
    for (c = 0; c < k2; c++) {
        for (i = 0; i < l1; i++) {
            int64_t *restrict o = corr + (c * l1 + i) * n;
            const int64_t *restrict x = acc + (c * ext + i) * n;
            uint32_t qi = (uint32_t)q[i], f = (uint32_t)inv[i];
            uint32_t f_sh = (uint32_t)inv_sh[i];
            for (j = 0; j < n; j++) {
                uint32_t d = (uint32_t)x[j] - (uint32_t)o[j] + qi;
                o[j] = (int64_t)csub(shoup_lazy(d, f, f_sh, qi), qi);
            }
        }
    }
    return 0;
}


/*
 * Exact (centred) base conversion, the HPS construction, and BFV's
 * round(t * d / Q) tail built on it: the native counterparts of
 * repro.rns.bconv.base_convert_centered_stack and
 * repro.schemes.bfv.BfvEvaluator._scale_round_stack.
 *
 * An exact conversion from the l_from moduli q (product Q) to the l_to
 * moduli p takes canonical residues x_j of a value a in [0, Q) and
 * gives the residues of the centred representative cmod(a, Q), in
 * (-Q/2, Q/2), reduced into each p_i (within the float sum's error of
 * Q/2 either representative may come out; both implementations pick
 * the same one).  Per column:
 *   v_j   = x_j * q_hat_j^-1 mod q_j                   (canonical)
 *   e     = rint(sum_j (double)v_j / (double)q_j)
 *   out_i = (sum_j v_j * (q_hat_j mod p_i) - e * (Q mod p_i)) mod p_i
 * The float sum runs in row order j = 0 .. l_from - 1, one correctly
 * rounded division and one addition per term, which is the order the
 * numpy twin sums in, so e is the same double rounded the same way and
 * the result is bitwise equal to it.  rint is round-half-to-even,
 * computed as (f + 2^52) - 2^52 (exact for 0 <= f < 2^52 in the
 * default rounding mode; the build sets no -ffast-math, and -std=c99
 * keeps contraction off).  Each v_j / q_j lies in [0, 1), so
 * 0 <= e <= l_from.  The weighted sum and the e * (Q mod p_i)
 * correction land in one exact uint64 sum per output, reduced once
 * (see exact_block).  Every modulus lies in [2, 2^31) (the caller
 * checks _shoup_tail_ok for both bases), and any input value is read
 * as its low 32 bits, so every intermediate stays in range whatever
 * the input holds: a non-canonical input gives wrong residues, never
 * an out-of-bounds access.
 *
 * The constants of one conversion come packed in one uint64 table,
 * laid out as
 *   q[l_from] | s[l_from] | s_sh[l_from] | p[l_to]
 *     | w[l_to * l_from] | w_sh[l_to * l_from] | qmp[l_to]
 * with s = q_hat^-1 mod q_j, w[i][j] = q_hat_j mod p_i (row-major),
 * their Shoup companions s_sh, w_sh, and qmp[i] = Q mod p_i.
 * w_sh is unused here (the table shares bconv's layout).  Columns go
 * in blocks of EX_BLOCK, so a block's scaled residues and float sums
 * stay in L1 between the steps.
 */

/* Columns per block, and columns summed side by side in exact_block
 * (independent multiply chains that overlap in the pipeline). */
enum { EX_BLOCK = 256, EX_LANES = 8 };

/* One exact conversion's constants, unpacked from its table. */
struct exact_tab {
    size_t l_from, l_to;
    const uint64_t *q, *s, *s_sh, *p, *w, *qmp;
    uint64_t qmax;      /* the largest source modulus */
};

static struct exact_tab exact_tab(const uint64_t *tab, size_t l_from,
                                  size_t l_to)
{
    struct exact_tab t;
    size_t j;
    t.l_from = l_from;
    t.l_to = l_to;
    t.q = tab;
    t.s = tab + l_from;
    t.s_sh = tab + 2 * l_from;
    t.p = tab + 3 * l_from;
    t.w = t.p + l_to;
    t.qmp = t.w + 2 * l_to * l_from;    /* past w and the unused w_sh */
    t.qmax = 0;
    for (j = 0; j < l_from; j++)
        t.qmax = t.q[j] > t.qmax ? t.q[j] : t.qmax;
    return t;
}

/* Work buffers of one exact conversion block, one allocation. */
struct exact_work {
    double *frac;       /* EX_BLOCK float sums */
    int64_t *extra;     /* the caller's extra_rows rows of EX_BLOCK */
    uint32_t *v;        /* (l_from, EX_BLOCK) scaled residues */
    uint32_t *e;        /* EX_BLOCK rounded corrections */
};

/* Allocate the work buffers for sources of up to l_from rows, zeroed
 * (the last column group of a block may sum lanes past its width,
 * which then read defined values); freed with free(wk->frac).
 * Returns 0, or -1 on failure. */
static int exact_work_alloc(struct exact_work *wk, size_t l_from,
                            size_t extra_rows)
{
    double *buf = calloc(1, (1 + extra_rows) * EX_BLOCK * sizeof *buf
                         + (l_from + 1) * EX_BLOCK * sizeof(uint32_t));
    if (!buf)
        return -1;
    wk->frac = buf;
    wk->extra = (int64_t *)(buf + EX_BLOCK);
    wk->v = (uint32_t *)(buf + (1 + extra_rows) * EX_BLOCK);
    wk->e = wk->v + l_from * EX_BLOCK;
    return 0;
}

/*
 * Exact conversion of one block of w <= EX_BLOCK columns: source row j
 * at x + j * xs, target row i written at out + i * os.
 *
 * The weighted sum takes one multiply per term: each product
 * v_j * w_ij < qmax * p_i < 2^62 is added whole to a uint64 sum.  The
 * sum starts at l_from * p_i - e * qmp_i (>= 0, below 2^36), which
 * folds the correction in, and is kept below 2^63 at every span terms,
 * span = floor(2^62 / (qmax * p_i)) >= 1: a span adds less than 2^62,
 * and a sum that reached 2^63 drops by g_i = floor(2^63 / p_i) * p_i
 * (a multiple of p_i, so the residue is unchanged) to below
 * 2^62 + p_i.  One Barrett reduction (floor_mod) then lands the
 * canonical (sum_j v_j w_ij - e qmp_i) mod p_i.  With 28- and 29-bit
 * moduli a span covers 32 terms, so the guard runs once per output
 * (every 4 terms at 30 bits, every term at 31).  EX_LANES
 * columns are summed side by side; the last group of a block may run
 * past w, inside the zeroed EX_BLOCK-wide rows, and stores only its w
 * columns.  On 64-bit targets this scalar form beats the
 * three-multiply lazy Shoup sum, vectorized (SSE2) or not.
 */
static void exact_block(int64_t *out, size_t os, const int64_t *x,
                        size_t xs, size_t w, const struct exact_tab *t,
                        const struct exact_work *wk)
{
    const double two52 = 4503599627370496.0;
    size_t i, j, col;
    for (j = 0; j < t->l_from; j++) {
        const int64_t *restrict xr = x + j * xs;
        uint32_t *restrict vj = wk->v + j * EX_BLOCK;
        uint32_t qj = (uint32_t)t->q[j], sj = (uint32_t)t->s[j];
        uint32_t sj_sh = (uint32_t)t->s_sh[j];
        double qd = (double)qj;
        for (col = 0; col < w; col++)
            vj[col] = csub(shoup_lazy((uint32_t)xr[col], sj, sj_sh, qj), qj);
        /* v < q < 2^31, so the int32 conversion is exact. */
        if (j == 0)
            for (col = 0; col < w; col++)
                wk->frac[col] = (double)(int32_t)vj[col] / qd;
        else
            for (col = 0; col < w; col++)
                wk->frac[col] += (double)(int32_t)vj[col] / qd;
    }
    for (col = 0; col < w; col++)
        wk->e[col] = (uint32_t)(int32_t)((wk->frac[col] + two52) - two52);
    for (i = 0; i < t->l_to; i++) {
        const uint64_t *restrict wi = t->w + i * t->l_from;
        int64_t *restrict o = out + i * os;
        uint64_t pi = t->p[i], m = UINT64_MAX / pi;
        uint64_t g = ((uint64_t)1 << 63) / pi * pi;
        uint64_t base = t->l_from * pi, c = t->qmp[i];
        size_t span = ((uint64_t)1 << 62) / (t->qmax * pi);
        for (col = 0; col < w; col += EX_LANES) {
            const uint32_t *vc = wk->v + col;
            uint64_t a[EX_LANES];
            size_t j1, l, lanes = w - col < EX_LANES ? w - col : EX_LANES;
            for (l = 0; l < EX_LANES; l++)
                a[l] = base - (uint64_t)wk->e[col + (l < lanes ? l : 0)] * c;
            for (j = 0; j < t->l_from; j = j1) {
                j1 = t->l_from - j < span ? t->l_from : j + span;
                for (; j < j1; j++) {
                    uint64_t wj = wi[j];
                    const uint32_t *vj = vc + j * EX_BLOCK;
                    for (l = 0; l < EX_LANES; l++)
                        a[l] += (uint64_t)vj[l] * wj;
                }
                for (l = 0; l < EX_LANES; l++)
                    a[l] -= g & (0 - (a[l] >> 63));
            }
            for (l = 0; l < lanes; l++)
                o[col + l] = floor_mod((int64_t)a[l], pi, m);
        }
    }
}

/*
 * Exact centred conversion of k polynomials: in is a ct-major
 * (k * l_from, n) stack, out the (k * l_to, n) stack, tab the packed
 * table above.  Returns 0, 1 without writing anything if l_from or
 * l_to is 0, or -1 if the work buffers could not be allocated.
 */
int bconv_exact(int64_t *out, const int64_t *in, size_t k, size_t l_from,
                size_t l_to, size_t n, const uint64_t *tab)
{
    struct exact_tab t;
    struct exact_work wk;
    size_t c, j0;
    if (!l_from || !l_to)
        return 1;
    if (exact_work_alloc(&wk, l_from, 0))
        return -1;
    t = exact_tab(tab, l_from, l_to);
    for (c = 0; c < k; c++)
        for (j0 = 0; j0 < n; j0 += EX_BLOCK)
            exact_block(out + c * l_to * n + j0, n,
                        in + c * l_from * n + j0, n,
                        n - j0 < EX_BLOCK ? n - j0 : EX_BLOCK, &t, &wk);
    free(wk.frac);
    return 0;
}

/*
 * BFV's scale-and-round of k tensor components: in is a ct-major
 * (k * (lq + lr), n) stack of canonical residues over the extended
 * basis Q + R (Q rows first), out the (k * lq, n) stack of
 * round(t * d / Q) mod Q.  tab_qr and tab_rq are the packed tables of
 * the exact conversions Q -> R and R -> Q; aux holds, for the lq + lr
 * extended moduli, t mod e_i and its Shoup companions, then for the lr
 * R moduli Q^-1 mod r_i and its companions.  Per column block:
 *   u    = d * t mod e                      (every extended limb)
 *   c    = exact Q -> R of u's Q rows       (cmod(t * d, Q) mod r)
 *   res  = (u_R - c + r) * Q^-1 mod r       ((t*d - cmod) / Q mod r)
 *   out  = exact R -> Q of res
 * Each step lands canonical residues, bitwise equal to the numpy twin,
 * and the block's (lq + lr) and lr rows of intermediates never leave
 * the work buffer.  Returns 0, 1 without writing anything if lq or lr
 * is 0, or -1 if the work buffers could not be allocated.
 */
int bfv_scale_round(int64_t *out, const int64_t *in, size_t k, size_t lq,
                    size_t lr, size_t n, const uint64_t *tab_qr,
                    const uint64_t *tab_rq, const uint64_t *aux)
{
    struct exact_tab qr, rq;
    struct exact_work wk;
    size_t le = lq + lr, lmax = lq > lr ? lq : lr;
    const uint64_t *tm = aux, *tm_sh = aux + le;
    const uint64_t *qinv = aux + 2 * le, *qinv_sh = qinv + lr;
    int64_t *u, *cm;
    size_t c, i, j0, col;
    if (!lq || !lr)
        return 1;
    if (exact_work_alloc(&wk, lmax, le + lr))
        return -1;
    u = wk.extra;
    cm = u + le * EX_BLOCK;
    qr = exact_tab(tab_qr, lq, lr);
    rq = exact_tab(tab_rq, lr, lq);
    for (c = 0; c < k; c++) {
        for (j0 = 0; j0 < n; j0 += EX_BLOCK) {
            size_t w = n - j0 < EX_BLOCK ? n - j0 : EX_BLOCK;
            const int64_t *d = in + c * le * n + j0;
            for (i = 0; i < le; i++) {
                const int64_t *restrict di = d + i * n;
                int64_t *restrict ui = u + i * EX_BLOCK;
                /* extended limb i: tab_qr's source, then target moduli */
                uint32_t ei = (uint32_t)(i < lq ? qr.q[i] : qr.p[i - lq]);
                uint32_t f = (uint32_t)tm[i], f_sh = (uint32_t)tm_sh[i];
                for (col = 0; col < w; col++)
                    ui[col] = (int64_t)csub(shoup_lazy((uint32_t)di[col], f,
                                                       f_sh, ei), ei);
            }
            exact_block(cm, EX_BLOCK, u, EX_BLOCK, w, &qr, &wk);
            for (i = 0; i < lr; i++) {
                const int64_t *restrict ui = u + (lq + i) * EX_BLOCK;
                int64_t *restrict ci = cm + i * EX_BLOCK;
                uint32_t ri = (uint32_t)qr.p[i];
                uint32_t f = (uint32_t)qinv[i], f_sh = (uint32_t)qinv_sh[i];
                for (col = 0; col < w; col++) {
                    uint32_t x = (uint32_t)ui[col] - (uint32_t)ci[col] + ri;
                    ci[col] = (int64_t)csub(shoup_lazy(x, f, f_sh, ri), ri);
                }
            }
            exact_block(out + c * lq * n + j0, n, cm, EX_BLOCK, w, &rq, &wk);
        }
    }
    free(wk.frac);
    return 0;
}
