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
 *   through its permutation), fast base conversion and ModDown tail
 *   (adding a permuted addend into half 0 of each pair, the hoisted
 *   rotation's sigma(c0), or into both halves, a relinearization's d0
 *   and d1) of repro.schemes.rns_core's batch key
 *   switch, and batch_add_sub, the batch ops' modular add, subtract
 *   and negate;
 * - bconv_exact / bfv_scale_round: the exact (centred) base conversion
 *   under BFV's tensor lift and BGV's t-corrected ModDown, and BFV's
 *   fused round(t * d / Q) tail (the last part of this file; see there
 *   for the float correction's summation order and rounding).
 *
 * The weighted sums of the key MAC and of the exact conversion are
 * one-multiply sums (see msum_of): each whole product of two canonical
 * residues below 2^31 goes into a uint64 sum, guarded below 2^63 every
 * floor(2^62 / (qmax * p)) terms and reduced once per output.  The fast
 * conversion sums lazy Shoup products in 32-bit lanes when every target
 * modulus lies below 2^30 and the CPU has AVX2 (see exact_block), and
 * one-multiply sums otherwise.  Those kernels take canonical residues;
 * any other value is read as its low 32 bits and gives a wrong
 * residue, never an out-of-bounds access.
 *
 * Plain C99 plus the GCC/Clang unsigned __int128 extension, which every
 * 64-bit target provides (riscv64 included): no intrinsics and no -march
 * or -m flag, so the built library runs on any machine of its
 * architecture.  On x86-64 with glibc the hot integer loops are marked
 * VECTOR_CLONES (defined below): the compiler builds each of them from
 * the same source for baseline x86-64 (SSE2), for AVX2 and, where that
 * measured faster still, for AVX-512 (F, or the x86-64-v4 level), and
 * the dynamic loader picks one clone per CPU when the library loads (an
 * ifunc).  Every clone computes the same integer expressions, so their
 * results are bitwise equal; the wider ones run the 32-bit Shoup
 * products with native vector multiplies (SSE2 emulates them) and
 * narrow int64 to uint32 in one instruction (AVX-512).  The one
 * clone-dependent choices, CANON_MUL() and SHOUP_LANES(), pick between
 * two loops with the same results.
 */

/*
 * NTT kernels.
 *
 * Row r uses limb r % limbs of the per-limb tables, so a (k*L, n) stack
 * of k same-chain polynomials transforms in one call.  The twiddle
 * tables arrive as uint32, narrowed once per engine (BatchedNTT builds
 * them with its tables; plan replay narrows its primes' once per plan).
 * Each row is copied into a uint32 work buffer (16 KB at n = 4096) and
 * runs every butterfly stage there before the next row starts, so the
 * whole transform of a row stays in L1.
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

/* clock_gettime, for replay_steps' step end times, under -std=c99. */
#define _POSIX_C_SOURCE 199309L

#include <stddef.h>
#include <stdint.h>
#include <stdlib.h>
#include <time.h>

/*
 * VECTOR_CLONES("avx2") is target_clones("avx2", "default") where the
 * toolchain can build and dispatch it (x86-64, glibc's ifunc, a compiler
 * that knows the attribute), and nothing elsewhere.  A function lists a
 * clone only where an interleaved C timing (n = 4096, 30-bit moduli;
 * tools/ntt_timing.py) had it faster than the next narrower one: AVX2
 * for every marked loop but the canonical-range DRAM load; AVX-512 (by
 * 1.3-2.6x) for the int64 <-> uint32 row moves, the conversions'
 * weighted sums and the ModDown tail, (by 1.1-1.4x) for the
 * canonical-range elementwise and DRAM loops and (by 1.2x) for the NTT
 * rows once their small stages got fixed trip counts, but not for the
 * batch add / subtract.  The NTT rows, the conversions' weighted sums
 * and the key MAC list WIDE_CLONE instead: arch=x86-64-v4
 * (AVX-512 with DQ, whose vpmullq replaces the three-vpmuludq emulation
 * of each 64-bit product GCC 12 emits for AVX-512F; rows 1.15-1.28x,
 * sums 1.10-1.14x over AVX-512F) where the compiler is known to build
 * and dispatch that level as a clone (GCC 12 on), avx512f elsewhere
 * (GCC 10 has no such level, GCC 11 had known problems with it as a
 * clone, Clang was not checked).  Every AVX-512F CPU but Xeon Phi has the
 * whole x86-64-v4 set, so no avx512f clone sits beside it.  The key
 * MAC's register-group loop with its vector reduction runs 1.4x faster
 * in the x86-64-v4 clone than in AVX2 (its earlier per-digit block loop
 * gained only 1.07-1.08x and kept AVX2 alone).  The
 * canonical-range elementwise loop must not get it: built for AVX-512F
 * + DQ it ran plan replay at 0.75x.  A build may predefine the macro
 * (-D) to pin one variant: empty for the plain build other
 * architectures run, or one target attribute for every marked
 * function; the production flags never set it.
 */
#if defined(__GNUC__) && !defined(__clang__) && __GNUC__ >= 12
#define WIDE_CLONE "arch=x86-64-v4"
#else
#define WIDE_CLONE "avx512f"
#endif
#ifndef VECTOR_CLONES
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define VECTOR_CLONES(...) \
    __attribute__((target_clones(__VA_ARGS__, "default")))
#ifndef CANON_MUL
#define CANON_MUL() \
    (__builtin_cpu_init(), __builtin_cpu_supports("avx512f"))
#endif
#ifndef SHOUP_LANES
#define SHOUP_LANES() \
    (__builtin_cpu_init(), __builtin_cpu_supports("avx2"))
#endif
#endif
#endif
#endif
#ifndef VECTOR_CLONES
#define VECTOR_CLONES(...)
#endif

/*
 * CANON_MUL() is non-zero where the multiplying canonical-range loops
 * (see the replay section) and the key MAC's vector reduction
 * (msum_reduce) run: with the vector clones, exactly when the loader
 * picks their AVX-512 clone.  Their AVX2 clone measured no faster than
 * the scalar loop (the key MAC's: slower than its scalar Barrett
 * reduction) and their baseline x86-64 build slower (64-bit vector
 * multiplies are emulated with three 32-bit ones), so every other
 * build keeps the scalar loop for them.  SHOUP_LANES() is non-zero
 * where the fast conversion sums in 32-bit Shoup lanes: when the
 * loader picks an AVX2 or wider clone of exact_block; the baseline
 * x86-64 (SSE2) build, which has no packed 32-bit low multiply,
 * measured slower so.  A build that pins VECTOR_CLONES (-D) gets 0
 * for each unless it predefines it too.
 */
#ifndef CANON_MUL
#define CANON_MUL() 0
#endif
#ifndef SHOUP_LANES
#define SHOUP_LANES() 0
#endif

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

/* Load one row into the work buffer, reducing mod q when asked.  A
 * branch-free scan first looks for a value outside [0, q); a row without
 * one is narrowed as it lies.  Otherwise canonical values stay as they
 * are ((uint64_t)v < q holds exactly for v in [0, q)) and every other
 * int64 takes C's truncating % plus a sign fix.  The scan tests the top
 * bit of v | ~(v - q), set exactly when v < 0 or v >= q (q < 2^63): an
 * add, an or and a not per value, which vectorize even on SSE2, where a
 * 64-bit compare does not. */
static VECTOR_CLONES("avx512f", "avx2")
void load_row(uint32_t *restrict a, const int64_t *restrict src, size_t n,
              uint64_t q, int reduce)
{
    size_t j;
    uint64_t big = 0;
    if (reduce)
        for (j = 0; j < n; j++)
            big |= (uint64_t)src[j] | ~((uint64_t)src[j] - q);
    if (big >> 63) {
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
static VECTOR_CLONES("avx512f", "avx2")
void store_row(int64_t *restrict dst, const uint32_t *restrict a, size_t n,
               uint32_t q)
{
    uint32_t q2 = 2 * q;
    size_t j;
    for (j = 0; j < n; j++)
        dst[j] = (int64_t)csub(csub(a[j], q2), q);
}

/* Cooley-Tukey butterflies x, y -> x + w*y, x - w*y over one whole stage:
 * n / (2t) blocks of t, block i with twiddle w[i]; inputs and outputs in
 * [0, 4q).  The small stages call it with a constant t (8, 4), so the
 * inner loop has a fixed trip count, and the pragma keeps it a loop:
 * GCC then vectorizes it at that width in every clone.  Fully unrolled,
 * the outer loop is vectorized through permutes instead, which made the
 * baseline and AVX2 clones slower than the runtime-t loop. */
static inline void fwd_stage(uint32_t *restrict a, size_t n, size_t t,
                             const uint32_t *restrict w,
                             const uint32_t *restrict w_sh, uint32_t q)
{
    uint32_t q2 = 2 * q;
    size_t i, j;
    for (i = 0; i < n / (2 * t); i++) {
        uint32_t *restrict x = a + 2 * i * t;
#pragma GCC unroll 1
        for (j = 0; j < t; j++) {
            uint32_t u = csub(x[j], q2);
            uint32_t v = shoup_lazy(x[j + t], w[i], w_sh[i], q);
            x[j] = u + v;
            x[j + t] = u - v + q2;
        }
    }
}

/* Gentleman-Sande butterflies x, y -> x + y, (x - y)*w over one whole
 * stage, laid out as in fwd_stage; inputs and outputs in [0, 2q). */
static inline void inv_stage(uint32_t *restrict a, size_t n, size_t t,
                             const uint32_t *restrict w,
                             const uint32_t *restrict w_sh, uint32_t q)
{
    uint32_t q2 = 2 * q;
    size_t i, j;
    for (i = 0; i < n / (2 * t); i++) {
        uint32_t *restrict x = a + 2 * i * t;
#pragma GCC unroll 1
        for (j = 0; j < t; j++) {
            uint32_t u = x[j], v = x[j + t];
            x[j] = csub(u + v, q2);
            x[j + t] = shoup_lazy(u - v + q2, w[i], w_sh[i], q);
        }
    }
}

/*
 * The rows.  Stage t (blocks of t butterflies) reads the n / (2t)
 * twiddles from index n / (2t) on.  Stages with t >= 16 run fwd_stage /
 * inv_stage at runtime t, t = 8 and 4 at a constant t, and t = 2 and
 * t = 1 as the whole-row loops below, unrolled by hand (two butterflies
 * per twiddle, or one).  Rows with n < 16 start at a small stage.
 */
static VECTOR_CLONES(WIDE_CLONE, "avx2")
void forward_row(uint32_t *restrict a, size_t n, uint32_t q,
                 const uint32_t *restrict psi,
                 const uint32_t *restrict psi_sh)
{
    uint32_t q2 = 2 * q;
    const uint32_t *w, *w_sh;
    size_t t, i;
    for (t = n / 2; t >= 16; t >>= 1)
        fwd_stage(a, n, t, psi + n / (2 * t), psi_sh + n / (2 * t), q);
    if (n >= 16)
        fwd_stage(a, n, 8, psi + n / 16, psi_sh + n / 16, q);
    if (n >= 8)
        fwd_stage(a, n, 4, psi + n / 8, psi_sh + n / 8, q);
    if (n >= 4) {
        w = psi + n / 4;
        w_sh = psi_sh + n / 4;
        for (i = 0; i < n / 4; i++) {
            uint32_t *x = a + 4 * i;
            uint32_t u0 = csub(x[0], q2), u1 = csub(x[1], q2);
            uint32_t v0 = shoup_lazy(x[2], w[i], w_sh[i], q);
            uint32_t v1 = shoup_lazy(x[3], w[i], w_sh[i], q);
            x[0] = u0 + v0;
            x[1] = u1 + v1;
            x[2] = u0 - v0 + q2;
            x[3] = u1 - v1 + q2;
        }
    }
    w = psi + n / 2;
    w_sh = psi_sh + n / 2;
    for (i = 0; i < n / 2; i++) {
        uint32_t u = csub(a[2 * i], q2);
        uint32_t v = shoup_lazy(a[2 * i + 1], w[i], w_sh[i], q);
        a[2 * i] = u + v;
        a[2 * i + 1] = u - v + q2;
    }
}

/* Stages run for t = 1, 2, 4, ... below n / 2 (scale set) or n.  With
 * scale set, the last stage (t = n / 2) also applies the 1/n scaling:
 * the sum branch takes an explicit n^-1 multiply (s) and the difference
 * branch the merged twiddle psi_inv^br[1] * n^-1 (f). */
static VECTOR_CLONES(WIDE_CLONE, "avx2")
void inverse_row(uint32_t *restrict a, size_t n, uint32_t q,
                 const uint32_t *restrict psi,
                 const uint32_t *restrict psi_sh, int scale,
                 uint32_t s, uint32_t s_sh, uint32_t f, uint32_t f_sh)
{
    uint32_t q2 = 2 * q;
    const uint32_t *w, *w_sh;
    size_t top = scale ? n / 2 : n, t, i;
    if (top > 1) {
        w = psi + n / 2;
        w_sh = psi_sh + n / 2;
        for (i = 0; i < n / 2; i++) {
            uint32_t u = a[2 * i], v = a[2 * i + 1];
            a[2 * i] = csub(u + v, q2);
            a[2 * i + 1] = shoup_lazy(u - v + q2, w[i], w_sh[i], q);
        }
    }
    if (top > 2) {
        w = psi + n / 4;
        w_sh = psi_sh + n / 4;
        for (i = 0; i < n / 4; i++) {
            uint32_t *x = a + 4 * i;
            uint32_t u0 = x[0], u1 = x[1], v0 = x[2], v1 = x[3];
            x[0] = csub(u0 + v0, q2);
            x[1] = csub(u1 + v1, q2);
            x[2] = shoup_lazy(u0 - v0 + q2, w[i], w_sh[i], q);
            x[3] = shoup_lazy(u1 - v1 + q2, w[i], w_sh[i], q);
        }
    }
    if (top > 4)
        inv_stage(a, n, 4, psi + n / 8, psi_sh + n / 8, q);
    if (top > 8)
        inv_stage(a, n, 8, psi + n / 16, psi_sh + n / 16, q);
    for (t = 16; t < top; t <<= 1)
        inv_stage(a, n, t, psi + n / (2 * t), psi_sh + n / (2 * t), q);
    if (scale) {
        uint32_t *restrict x = a;
        uint32_t *restrict y = a + n / 2;
        for (i = 0; i < n / 2; i++) {
            uint32_t u = x[i], v = y[i];
            x[i] = shoup_lazy(csub(u + v, q2), s, s_sh, q);
            y[i] = shoup_lazy(u - v + q2, f, f_sh, q);
        }
    }
}

/* A work row of n uint32 on a 64-byte boundary, so the rows' vector
 * loads and stores cover whole cache lines (a row ran ~4% faster under
 * AVX-512 than on a 16-byte boundary); free *block, not the row. */
static uint32_t *work_row(size_t n, void **block)
{
    unsigned char *p = malloc(n * sizeof(uint32_t) + 63);
    *block = p;
    return p ? (uint32_t *)(p + (-(uintptr_t)p & 63)) : NULL;
}

/*
 * Forward transform: natural-order rows in, bit-reversed NTT rows out.
 * q: (limbs,) moduli; psi, psi_sh: (limbs, n) bit-reversed twiddles and
 * their Shoup companions, narrowed to uint32 (the engine's copies).
 * reduce != 0 first reduces every input mod q (any int64); otherwise
 * inputs must already lie in [0, q).
 * Returns 0, or -1 if the work row could not be allocated.
 */
int ntt_forward(int64_t *out, const int64_t *in, size_t rows,
                size_t limbs, size_t n, const uint64_t *q,
                const uint32_t *psi, const uint32_t *psi_sh, int reduce)
{
    void *block;
    uint32_t *a = work_row(n, &block);
    size_t l, r;
    if (!a)
        return -1;
    for (l = 0; l < limbs; l++) {
        uint32_t ql = (uint32_t)q[l];
        for (r = l; r < rows; r += limbs) {
            load_row(a, in + r * n, n, q[l], reduce);
            forward_row(a, n, ql, psi + l * n, psi_sh + l * n);
            store_row(out + r * n, a, n, ql);
        }
    }
    free(block);
    return 0;
}

/*
 * Inverse transform: bit-reversed NTT rows in, natural-order rows out.
 * psi_inv, psi_inv_sh: (limbs, n) uint32 inverse twiddles and
 * companions.  n_inv, fold1 and their companions are (limbs,) columns of
 * n^-1 and psi_inv^br[1] * n^-1, used when scale != 0 to apply the 1/n
 * scaling.  reduce and the return value as for ntt_forward.
 */
int ntt_inverse(int64_t *out, const int64_t *in, size_t rows,
                size_t limbs, size_t n, const uint64_t *q,
                const uint32_t *psi_inv, const uint32_t *psi_inv_sh,
                const uint64_t *n_inv, const uint64_t *n_inv_sh,
                const uint64_t *fold1, const uint64_t *fold1_sh, int scale,
                int reduce)
{
    void *block;
    uint32_t *a = work_row(n, &block);
    size_t l, r;
    if (!a)
        return -1;
    for (l = 0; l < limbs; l++) {
        uint32_t ql = (uint32_t)q[l];
        for (r = l; r < rows; r += limbs) {
            load_row(a, in + r * n, n, q[l], reduce);
            inverse_row(a, n, ql, psi_inv + l * n, psi_inv_sh + l * n,
                        scale, (uint32_t)n_inv[l], (uint32_t)n_inv_sh[l],
                        (uint32_t)fold1[l], (uint32_t)fold1_sh[l]);
            store_row(out + r * n, a, n, ql);
        }
    }
    free(block);
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
 * divisor.  Elementwise and DRAM lanes whose inputs lie in a canonical
 * range take vectorized Barrett loops instead and fall back to that
 * exact reduction when a range check in the same pass fails (see
 * "Canonical-range lanes" below).  Every step is checked before it
 * writes anything; a step that fails its check is left to the caller
 * (replay_steps returns its index), which keeps the numpy expression as
 * fallback and oracle.  A traced caller passes a buffer that receives
 * each step's end time, so one call still runs the whole plan.
 */

__extension__ typedef unsigned __int128 u128;

/* u mod q for u <= 2^63: a division-free Barrett reduction with
 * m = floor((2^64 - 1) / q).  The quotient estimate (u * m) >> 64 lies
 * within u / 2^64 <= 1/2 below u / q, so it is exact or one short and
 * one conditional subtraction finishes. */
static inline uint64_t barrett(uint64_t u, uint64_t q, uint64_t m)
{
    uint64_t r = u - (uint64_t)(((u128)u * m) >> 64) * q;
    return r >= q ? r - q : r;
}

/* v mod q in [0, q) for any int64 v: Barrett on v, or on -v (at most
 * 2^63) with the residue negated, numpy's floor modulo either way. */
static inline int64_t floor_mod(int64_t v, uint64_t q, uint64_t m)
{
    if (v >= 0) {
        return (int64_t)barrett((uint64_t)v, q, m);
    } else {
        uint64_t r = barrett(0 - (uint64_t)v, q, m);
        return (int64_t)(r ? q - r : 0);
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

static inline int64_t wrap_sub(int64_t x, int64_t y)
{
    return (int64_t)((uint64_t)x - (uint64_t)y);
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
 * Canonical-range lanes.  The elementwise and DRAM lanes of a compiled
 * plan read residues below 2^31 over moduli below 2^31, for which
 * floor_mod's 128-bit multiply and sign branch do more than is needed
 * and keep the loop scalar.  A lane over q in [2, 2^31), with k the bit
 * length of q (so 2^(k-1) <= q < 2^k), whose every input lies in
 * [0, 2^k) takes a fast loop instead:
 *   - x * y + z, x * y and x * imm are below 2^(2k) and reduce by
 *     Barrett with mu = floor(2^(2k) / q): the quotient estimate
 *     q3 = ((u >> (k - 1)) * mu) >> (k + 1) lies at most 2 below
 *     floor(u / q) (Menezes et al., Handbook of Applied Cryptography,
 *     14.42), so u - q3 * q lies in [0, 3q) and two conditional
 *     subtractions of q land [0, q).  mu <= 2^(k+1), so every factor
 *     stays below 2^32 and every product fits 64 bits; the one
 *     exception, q = 2^30 (k = 31, mu = 2^32), takes the exact loop;
 *   - x + y and x + imm are below 2^(k+1) <= 4q: a conditional
 *     subtraction of 2q, then one of q;
 *   - a DRAM value below 2^k <= 2q: one conditional subtraction of q.
 * Each conditional subtraction tests the top bit of r - q, set exactly
 * when r < q since every r here is below 2^34 (csub_top): a subtract,
 * a shift, a negate, an and and an add, which vectorize even on SSE2,
 * where a 64-bit compare does not.
 *
 * The range check rides in the same pass: the loop ORs every value it
 * reads into one word, and the lane's inputs all lie in [0, 2^k)
 * exactly when that word shifted right by k is 0 (a negative value sets
 * bit 63).  A lane that fails is rerun by the exact loop, which
 * overwrites every value of its out row; that is safe because rows_bad
 * has already ruled out a step that reads a row one of its lanes
 * writes.  An immediate outside [0, 2^k) sends its lane straight to
 * the exact loop.  So each step still equals numpy's expression for
 * every int64 input, with no precondition on the plan.
 *
 * The multiplying lanes take the fast loop only where CANON_MUL() (at
 * the top of this file) says so: GCC 12 emulates each of their 64-bit
 * vector multiplies with three 32-bit ones, which only the AVX-512
 * clone outruns the scalar floor_mod loop with.
 */

/* The Barrett constants of a canonical-range lane. */
struct canon {
    uint64_t q, mu;
    unsigned k;
};

/* 1 and c filled in when a lane over q may take the fast loops: q in
 * [2, 2^31) with mu below 2^32. */
static int canon_of(struct canon *c, int64_t q)
{
    unsigned k = 0;
    if (q < 2 || q >> 31)
        return 0;
    while ((uint64_t)q >> k)
        k++;
    c->q = (uint64_t)q;
    c->k = k;
    c->mu = ((uint64_t)1 << 2 * k) / (uint64_t)q;
    return c->mu >> 32 == 0;
}

/* r - q where r >= q, else r: r < q + 2^63, q < 2^63. */
static inline uint64_t csub_top(uint64_t r, uint64_t q)
{
    uint64_t t = r - q;
    return t + (q & (0 - (t >> 63)));
}

/* u mod q for u < 2^(2k), Barrett as above. */
static inline uint64_t canon_reduce(uint64_t u, const struct canon *c)
{
    uint64_t q3 = ((u >> (c->k - 1)) * c->mu) >> (c->k + 1);
    return csub_top(csub_top(u - q3 * c->q, c->q), c->q);
}

/* The arithmetic of an elementwise lane: the lane's out row from its
 * rows x, y, z and immediate imm (see ew_step). */
enum { EW_MAC, EW_MUL, EW_ADD, EW_MULI, EW_ADDI };

/* One lane over canonical-range inputs, reduced as above; returns the
 * OR of every value it read (its range check). */
static VECTOR_CLONES("avx512f", "avx2")
uint64_t ew_canon(int64_t *restrict o, const int64_t *x, const int64_t *y,
                  const int64_t *z, uint64_t imm, size_t n, int mode,
                  const struct canon *cn)
{
    struct canon c = *cn;
    uint64_t acc = 0, q2 = 2 * c.q;
    size_t j;
    switch (mode) {
    case EW_MAC:
        for (j = 0; j < n; j++) {
            uint64_t a = (uint64_t)x[j], b = (uint64_t)y[j];
            uint64_t d = (uint64_t)z[j];
            acc |= a | b | d;
            o[j] = (int64_t)canon_reduce(a * b + d, &c);
        }
        break;
    case EW_MUL:
        for (j = 0; j < n; j++) {
            uint64_t a = (uint64_t)x[j], b = (uint64_t)y[j];
            acc |= a | b;
            o[j] = (int64_t)canon_reduce(a * b, &c);
        }
        break;
    case EW_ADD:
        for (j = 0; j < n; j++) {
            uint64_t a = (uint64_t)x[j], b = (uint64_t)y[j];
            acc |= a | b;
            o[j] = (int64_t)csub_top(csub_top(a + b, q2), c.q);
        }
        break;
    case EW_MULI:
        for (j = 0; j < n; j++) {
            uint64_t a = (uint64_t)x[j];
            acc |= a;
            o[j] = (int64_t)canon_reduce(a * imm, &c);
        }
        break;
    default:
        for (j = 0; j < n; j++) {
            uint64_t a = (uint64_t)x[j];
            acc |= a;
            o[j] = (int64_t)csub_top(csub_top(a + imm, q2), c.q);
        }
        break;
    }
    return acc;
}

/* One lane exactly: numpy's int64 expression for any input. */
static void ew_exact(int64_t *restrict o, const int64_t *x,
                     const int64_t *y, const int64_t *z, int64_t imm,
                     size_t n, int mode, uint64_t q)
{
    uint64_t m = UINT64_MAX / q;
    size_t j;
    switch (mode) {
    case EW_MAC:
        for (j = 0; j < n; j++)
            o[j] = floor_mod(wrap_add(wrap_mul(x[j], y[j]), z[j]), q, m);
        break;
    case EW_MUL:
        for (j = 0; j < n; j++)
            o[j] = floor_mod(wrap_mul(x[j], y[j]), q, m);
        break;
    case EW_ADD:
        for (j = 0; j < n; j++)
            o[j] = floor_mod(wrap_add(x[j], y[j]), q, m);
        break;
    case EW_MULI:
        for (j = 0; j < n; j++)
            o[j] = floor_mod(wrap_mul(x[j], imm), q, m);
        break;
    default:
        for (j = 0; j < n; j++)
            o[j] = floor_mod(wrap_add(x[j], imm), q, m);
        break;
    }
}

/*
 * One elementwise step; lane i writes arena row out from rows a, b, c:
 *   nsrc == 3: out = (a * b + c) mod q
 *   nsrc == 2: out = (a * b) mod q if c != 0 else (a + b) mod q
 *   nsrc == 1: out = (a * imm) mod q if c != 0 else (a + imm) mod q
 * so column c is the addend row for nsrc 3 and the multiply flag
 * otherwise.  A lane takes the canonical-range loop where it may (the
 * multiplying ones only when mul_fast is set) and the exact loop
 * otherwise or when its range check fails.  1 without writing unless
 * nsrc is 1, 2 or 3, every q is at least 1 and the rows pass rows_bad.
 */
static int ew_step(int64_t *arena, size_t rows, size_t n,
                   const int64_t *lanes, size_t k, int64_t nsrc,
                   int mul_fast, unsigned char *mark)
{
    static const int in[3] = {EW_A, EW_B, EW_C};
    size_t i;
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
        const int64_t *z = arena + (size_t)(nsrc == 3 ? ln[EW_C] : 0) * n;
        int64_t imm = nsrc == 1 ? ln[EW_IMM] : 0;
        int mode = nsrc == 3 ? EW_MAC
                   : nsrc == 2 ? (ln[EW_C] ? EW_MUL : EW_ADD)
                   : (ln[EW_C] ? EW_MULI : EW_ADDI);
        struct canon c;
        if (canon_of(&c, ln[EW_Q]) && (uint64_t)imm >> c.k == 0
            && (mul_fast || mode == EW_ADD || mode == EW_ADDI)
            && ew_canon(o, x, y, z, (uint64_t)imm, n, mode, &c) >> c.k == 0)
            continue;
        ew_exact(o, x, y, z, imm, n, mode, (uint64_t)ln[EW_Q]);
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

/* One DRAM row below 2^k, reduced by one conditional subtraction;
 * returns the OR of the values read (see the canonical-range lanes). */
static VECTOR_CLONES("avx512f")
uint64_t dram_canon(int64_t *restrict o, const int64_t *restrict s, size_t n,
                    uint64_t q)
{
    uint64_t acc = 0;
    size_t j;
    for (j = 0; j < n; j++) {
        acc |= (uint64_t)s[j];
        o[j] = (int64_t)csub_top((uint64_t)s[j], q);
    }
    return acc;
}

/* One DRAM-load step: arena row out = src[source] mod q per lane, in
 * lane order.  src[source] points at n contiguous int64 values outside
 * the arena.  A lane takes dram_canon and, when its range check fails,
 * reruns with floor_mod.  1 without writing unless every row lies in
 * [0, rows), every q is at least 1 and every source index lies in
 * [0, nsrc) with a non-zero address. */
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
        struct canon c;
        if (canon_of(&c, ln[DR_Q]) && dram_canon(o, s, n, q) >> c.k == 0)
            continue;
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
 * of its kind above fails.  stop is clamped to nsteps.  With ends
 * non-NULL (at least stop - start entries), ends[s - start] receives
 * the CLOCK_MONOTONIC time in nanoseconds at which step s finished, for
 * every step run: the clock and unit of Python's perf_counter_ns on
 * Linux, so a traced caller times every step of one call.  Returns -1
 * if the work buffers could not be allocated.
 */
int replay_steps(int64_t *arena, size_t rows, size_t n,
                 const int64_t *steps, size_t nsteps, const int64_t *lanes,
                 size_t nlanes, const uint64_t *q, const uint32_t *tw,
                 size_t nprimes, const int64_t *perms, size_t nperms,
                 const uintptr_t *src, size_t nsrc, int64_t *ends,
                 size_t start, size_t stop)
{
    struct fft_tabs t;
    unsigned char *mark;
    void *block;
    int mul_fast = CANON_MUL();
    size_t s;
    if (stop > nsteps)
        stop = nsteps;
    mark = calloc(rows + nperms + 1, 1);
    t.a = work_row(n ? n : 1, &block);
    if (!mark || !t.a) {
        free(mark);
        free(block);
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
            bad = ew_step(arena, rows, n, ln, k, st[ST_ARG], mul_fast,
                          mark);
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
        if (ends) {
            struct timespec ts;
            clock_gettime(CLOCK_MONOTONIC, &ts);
            ends[s - start] = (int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec;
        }
    }
    free(mark);
    free(block);
    return s < stop ? (int)s : (int)stop;
}


/*
 * Key-switch kernels: the key MAC and ModDown tail of
 * repro.schemes.rns_core's batch key switch (its fast BConv, bconv,
 * shares the exact conversion's code below), and the batch ops'
 * modular add / subtract, each the native counterpart of a numpy
 * expression that stays its oracle.
 *
 * Every modulus of ks_mac and mod_down_tail lies in [2, 2^31), which
 * the caller checks (_shoup_tail_ok), and their outputs are the
 * canonical residues the numpy code computes, hence bitwise identical
 * to it.
 */

/*
 * The constants of a one-multiply sum into the modulus p whose terms
 * are products x * w with x < qmax and w < p, both below 2^31.  Each
 * product (below qmax * p < 2^62) is added whole into a uint64 sum,
 * which the guard (msum_guard) keeps below 2^63 every span terms,
 * span = floor(2^62 / (qmax * p)) >= 1: a span adds less than 2^62
 * to a sum below 2^63, and a sum that reached 2^63 drops by
 * g = floor(2^63 / p) * p (a multiple of p, so the residue is
 * unchanged) to below 2^62 + p.  One reduction per output lands the
 * sum in [0, p): Barrett (barrett with m) on a guarded sum, a
 * non-negative int64, or msum_reduce, which takes any uint64 and runs
 * in vector lanes (the key MAC's, where CANON_MUL() holds).  A span
 * covers 64 terms when qmax and p are 28-bit, 16 at 29 bits, 4 at 30
 * and 1 at 31, so at the benchmark's moduli the guard runs once per
 * output, folded into the reduction.  This takes one multiply per term where
 * the lazy Shoup product takes three; the key MAC and the exact
 * conversion sum this way (the fast conversion too when a target
 * modulus reaches 2^30, see exact_block).
 */
struct msum {
    uint64_t p, m, g;
    size_t span;
    uint32_t r, r_sh, one_sh;   /* msum_reduce's constants */
};

static struct msum msum_of(uint64_t qmax, uint64_t p)
{
    struct msum s;
    s.p = p;
    s.m = UINT64_MAX / p;
    s.g = ((uint64_t)1 << 63) / p * p;
    s.span = ((uint64_t)1 << 62) / (qmax * p);
    s.r = (uint32_t)(((uint64_t)1 << 32) % p);
    s.r_sh = (uint32_t)(((uint64_t)s.r << 32) / p);
    s.one_sh = (uint32_t)(((uint64_t)1 << 32) / p);
    return s;
}

/* a mod p for any uint64 a, in vector lanes: a = hi * 2^32 + lo is
 * congruent to hi * r + lo with r = 2^32 mod p, and hi * r and lo (both
 * factors below 2^32) each take a lazy Shoup product into [0, 2p), by
 * r with companion r_sh and by 1 with companion one_sh; the sum, below
 * 4p, takes two conditional subtractions.  Every multiply is
 * 32 x 32 -> 64 bits, one vpmuludq lane, where barrett's 64 x 64 -> 128
 * multiply stays scalar.  The key MAC reduces its sums so where
 * CANON_MUL() holds (AVX-512: 1.2x faster than Barrett there, 0.9x
 * under AVX2). */
static inline uint64_t msum_reduce(uint64_t a, const struct msum *ms)
{
    uint32_t hi = (uint32_t)(a >> 32), lo = (uint32_t)a, p = (uint32_t)ms->p;
    uint64_t t = (uint64_t)hi * ms->r - ((uint64_t)hi * ms->r_sh >> 32) * p
                 + (uint64_t)lo - ((uint64_t)lo * ms->one_sh >> 32) * p;
    t = t >= 2 * (uint64_t)p ? t - 2 * (uint64_t)p : t;
    return t >= p ? t - p : t;
}

static inline uint64_t msum_guard(uint64_t a, uint64_t g)
{
    return a - (g & (0 - (a >> 63)));
}

/* Columns whose key-MAC digit sums are held side by side, in
 * registers where the target has enough of them. */
enum { MAC_LANES = 16 };

/* The key MAC of one (ciphertext, limb) row of n columns: digit d's
 * row at x + d * xs, read through perm when set (else as it lies), its
 * key rows at b + d * ts and a + d * ts; each column's two one-multiply
 * sums run over all beta digits in registers, guarded every span
 * digits, and land in ob and oa by one reduction each: msum_reduce
 * when lanes is set (CANON_MUL), else Barrett.  A last group narrower
 * than MAC_LANES (n < MAC_LANES, or not a multiple) runs the same sums
 * one column at a time. */
static VECTOR_CLONES(WIDE_CLONE, "avx2")
void mac_row(uint64_t *restrict ob, uint64_t *restrict oa,
             const int64_t *x, size_t xs, const int64_t *perm,
             const uint32_t *b, const uint32_t *a, size_t ts,
             size_t beta, size_t n, const struct msum *ms, int lanes)
{
    size_t d, d1, l, j0 = 0;
    for (; j0 + MAC_LANES <= n; j0 += MAC_LANES) {
        uint64_t sb[MAC_LANES], sa[MAC_LANES];
        for (l = 0; l < MAC_LANES; l++)
            sb[l] = sa[l] = 0;
        for (d = 0; d < beta; d = d1) {
            d1 = beta - d < ms->span ? beta : d + ms->span;
            if (d)
                for (l = 0; l < MAC_LANES; l++) {
                    sb[l] = msum_guard(sb[l], ms->g);
                    sa[l] = msum_guard(sa[l], ms->g);
                }
            for (; d < d1; d++) {
                const int64_t *xr = x + d * xs;
                const uint32_t *bt = b + d * ts + j0;
                const uint32_t *at = a + d * ts + j0;
                if (perm)
                    for (l = 0; l < MAC_LANES; l++) {
                        uint64_t v = (uint32_t)xr[perm[j0 + l]];
                        sb[l] += v * bt[l];
                        sa[l] += v * at[l];
                    }
                else
                    for (l = 0; l < MAC_LANES; l++) {
                        uint64_t v = (uint32_t)xr[j0 + l];
                        sb[l] += v * bt[l];
                        sa[l] += v * at[l];
                    }
            }
        }
        if (lanes)
            for (l = 0; l < MAC_LANES; l++) {
                ob[j0 + l] = msum_reduce(sb[l], ms);
                oa[j0 + l] = msum_reduce(sa[l], ms);
            }
        else
            for (l = 0; l < MAC_LANES; l++) {
                ob[j0 + l] = barrett(msum_guard(sb[l], ms->g), ms->p, ms->m);
                oa[j0 + l] = barrett(msum_guard(sa[l], ms->g), ms->p, ms->m);
            }
    }
    for (; j0 < n; j0++) {
        uint64_t sb = 0, sa = 0;
        for (d = 0; d < beta; d++) {
            uint64_t v = (uint32_t)x[d * xs + (perm ? (size_t)perm[j0]
                                                    : j0)];
            if (d && d % ms->span == 0) {
                sb = msum_guard(sb, ms->g);
                sa = msum_guard(sa, ms->g);
            }
            sb += v * b[d * ts + j0];
            sa += v * a[d * ts + j0];
        }
        ob[j0] = barrett(msum_guard(sb, ms->g), ms->p, ms->m);
        oa[j0] = barrett(msum_guard(sa, ms->g), ms->p, ms->m);
    }
}

/*
 * Key MAC of k lifted digit stacks against one switching key.  x is
 * the (k, beta, ext, n) digit stack of canonical residues over the ext
 * moduli q, and b, a the (beta, ext, n) key tables as uint32 (their
 * canonical residues, narrowed once per table by the caller).  For
 * ciphertext c and limb e,
 *   out[c][0][e][j] = sum_d x[c][d][e][perm[j]] * b[d][e][j] mod q[e]
 *   out[c][1][e][j] = sum_d x[c][d][e][perm[j]] * a[d][e][j] mod q[e]
 * into the (k, 2, ext, n) out stack, with perm[j] = j when perm is
 * NULL: a non-NULL perm is the NTT-domain automorphism, read in place
 * of a gathered copy of x.  The digit sums are one-multiply sums
 * (msum_of(q[e], q[e]): span = floor(2^62 / q[e]^2) digits per guard)
 * kept per column in registers over whole rows (mac_row), so out is
 * written once, one reduction per output.  Every x value is
 * read as its low 32 bits.  Returns 0, or 1 without writing anything
 * if beta is 0 or a perm entry lies outside [0, n).
 */
int ks_mac(uint64_t *out, const int64_t *x, size_t k, size_t beta,
           size_t ext, size_t n, const uint64_t *q, const uint32_t *b,
           const uint32_t *a, const int64_t *perm)
{
    size_t c, e, j, stride = ext * n;
    int lanes = CANON_MUL();
    if (!beta)
        return 1;
    if (perm)
        for (j = 0; j < n; j++)
            if (perm[j] < 0 || (uint64_t)perm[j] >= n)
                return 1;
    for (e = 0; e < ext; e++) {
        struct msum ms = msum_of(q[e], q[e]);
        for (c = 0; c < k; c++) {
            uint64_t *ob = out + (2 * c * ext + e) * n;
            mac_row(ob, ob + stride, x + (c * beta * ext + e) * n, stride,
                    perm, b + e * n, a + e * n, stride, beta, n, &ms,
                    lanes);
        }
    }
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
 * which the caller checks).  With add non-NULL, every every-th half
 * (each c with c % every == 0) also gains add's row group c / every,
 * read through perm (perm[j] = j when NULL):
 *   corr[c][i][j] += add[c / every][i][perm[j]] mod q[i]
 * one more conditional subtract on the canonical sum; add is a
 * ((k2 + every - 1) / every, l1, n) stack of canonical residues.  With
 * every = 2 that is half 0 of each pair: the hoisted rotation's
 * ks0 + sigma(c0), with no gathered copy of c0; with every = 1 both
 * halves: a relinearization's (ks0 + d0, ks1 + d1).  Returns 0, or 1
 * without writing anything if add is set with every = 0 or a perm entry
 * lies outside [0, n).
 */
VECTOR_CLONES("avx512f", "avx2")
int mod_down_tail(int64_t *corr, const int64_t *acc, size_t k2, size_t l1,
                  size_t ext, size_t n, const uint64_t *q,
                  const uint64_t *inv, const uint64_t *inv_sh,
                  const int64_t *add, size_t every, const int64_t *perm)
{
    size_t c, i, j;
    if (add && !every)
        return 1;
    if (perm)
        for (j = 0; j < n; j++)
            if (perm[j] < 0 || (uint64_t)perm[j] >= n)
                return 1;
    for (c = 0; c < k2; c++) {
        for (i = 0; i < l1; i++) {
            int64_t *restrict o = corr + (c * l1 + i) * n;
            const int64_t *restrict x = acc + (c * ext + i) * n;
            const int64_t *restrict y = add && c % every == 0
                ? add + (c / every * l1 + i) * n : NULL;
            uint32_t qi = (uint32_t)q[i], f = (uint32_t)inv[i];
            uint32_t f_sh = (uint32_t)inv_sh[i];
            if (!y)
                for (j = 0; j < n; j++) {
                    uint32_t d = (uint32_t)x[j] - (uint32_t)o[j] + qi;
                    o[j] = (int64_t)csub(shoup_lazy(d, f, f_sh, qi), qi);
                }
            else
                for (j = 0; j < n; j++) {
                    uint32_t d = (uint32_t)x[j] - (uint32_t)o[j] + qi;
                    uint32_t r = csub(shoup_lazy(d, f, f_sh, qi), qi);
                    o[j] = (int64_t)csub(r + (uint32_t)y[perm ? perm[j]
                                                               : (int64_t)j],
                                         qi);
                }
        }
    }
    return 0;
}

/* One row of canonical x +- y, or -y with x NULL: an add lands below
 * 2q and takes one conditional subtraction of q, a difference lies in
 * (-q, q) and takes one conditional addition of q, each by the top-bit
 * test of csub_top (any q < 2^63).  Returns the OR over the row of
 * v | ~(v - q) for every value v read, whose top bit is set exactly
 * when some v lies outside [0, q) (load_row's scan). */
static VECTOR_CLONES("avx2")
uint64_t add_sub_canon(int64_t *restrict o, const int64_t *restrict x,
                       const int64_t *restrict y, size_t n, uint64_t q,
                       int sign)
{
    uint64_t bad = 0;
    size_t j;
    if (!x)
        for (j = 0; j < n; j++) {
            uint64_t b = (uint64_t)y[j], d = 0 - b;
            bad |= b | ~(b - q);
            o[j] = (int64_t)(d + (q & (0 - (d >> 63))));
        }
    else if (sign > 0)
        for (j = 0; j < n; j++) {
            uint64_t a = (uint64_t)x[j], b = (uint64_t)y[j];
            bad |= a | ~(a - q) | b | ~(b - q);
            o[j] = (int64_t)csub_top(a + b, q);
        }
    else
        for (j = 0; j < n; j++) {
            uint64_t a = (uint64_t)x[j], b = (uint64_t)y[j], d = a - b;
            bad |= a | ~(a - q) | b | ~(b - q);
            o[j] = (int64_t)(d + (q & (0 - (d >> 63))));
        }
    return bad;
}

/*
 * Modular add / subtract / negate of the batch ops: for row r of a
 * (rows, n) stack whose row r lies over q[r % limbs],
 *   out[r][j] = (x[r][j] + sign * y[r][j]) mod q[r % limbs]
 * with x NULL read as 0 (negation, sign -1).  This is numpy's int64
 * expression for every input, not only canonical residues: a row runs
 * add_sub_canon and, when its scan finds a value outside [0, q), again
 * with the sum wrapping modulo 2^64 and floor_mod landing [0, q).  out
 * must not overlap x or y.  Returns 0, or 1 without writing anything
 * unless limbs >= 1, sign is 1 or -1 (-1 when x is NULL) and every q
 * lies in [1, 2^63).
 */
int batch_add_sub(int64_t *out, const int64_t *x, const int64_t *y,
                  size_t rows, size_t limbs, size_t n, const uint64_t *q,
                  int sign)
{
    size_t r, j;
    if (!limbs || (sign != 1 && sign != -1) || (!x && sign != -1))
        return 1;
    for (r = 0; r < limbs; r++)
        if (q[r] < 1 || q[r] >> 63)
            return 1;
    for (r = 0; r < rows; r++) {
        int64_t *restrict o = out + r * n;
        const int64_t *restrict xr = x ? x + r * n : NULL;
        const int64_t *restrict yr = y + r * n;
        uint64_t qr = q[r % limbs], m = UINT64_MAX / qr;
        if (!(add_sub_canon(o, xr, yr, n, qr, sign) >> 63))
            continue;
        if (!xr)
            for (j = 0; j < n; j++)
                o[j] = floor_mod(wrap_sub(0, yr[j]), qr, m);
        else if (sign > 0)
            for (j = 0; j < n; j++)
                o[j] = floor_mod(wrap_add(xr[j], yr[j]), qr, m);
        else
            for (j = 0; j < n; j++)
                o[j] = floor_mod(wrap_sub(xr[j], yr[j]), qr, m);
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
 * default rounding mode; the build sets no -ffast-math, and
 * -ffp-contract=off keeps FMA contraction out of every clone).  Each v_j / q_j lies in [0, 1), so
 * 0 <= e <= l_from.  The weighted sum and the e * (Q mod p_i)
 * correction land in one exact uint64 sum per output, reduced once
 * (see exact_block).  Every modulus lies in [2, 2^31) (the caller
 * checks _shoup_tail_ok for both bases), and any input value is read
 * as its low 32 bits, so every intermediate stays in range whatever
 * the input holds: a non-canonical input gives wrong residues, never
 * an out-of-bounds access.
 *
 * The fast conversion (bconv) is the same computation without the
 * float correction (e = 0): out_i = sum_j v_j * (q_hat_j mod p_i)
 * mod p_i, the canonical residue of a + e' * Q for the overshoot
 * 0 <= e' < l_from that numpy's exact float64 accumulation gives too.
 *
 * The constants of one conversion come packed in one uint64 table,
 * laid out as
 *   q[l_from] | s[l_from] | s_sh[l_from] | p[l_to]
 *     | w[l_to * l_from] | qmp[l_to]
 * with s = q_hat^-1 mod q_j and its Shoup companions s_sh,
 * w[i][j] = q_hat_j mod p_i (row-major) and qmp[i] = Q mod p_i (read
 * by the exact conversion only).  Columns go in blocks of EX_BLOCK, so
 * a block's scaled residues and float sums stay in L1 between the
 * steps.
 */

/* Columns per block, and columns summed side by side in exact_block's
 * one-multiply and Shoup-lane sums (independent multiply chains that
 * overlap in the pipeline). */
enum { EX_BLOCK = 256, EX_LANES = 8, SH_LANES = 32 };

/* One conversion's constants, unpacked from its table; qmp is NULL
 * for the fast conversion.  ms holds each target modulus' one-multiply
 * sum constants (three 64-bit divisions each, so computed once per
 * call, not per block).  w_sh holds the Shoup companions
 * floor(w[i][j] * 2^32 / p_i) of the weights when the fast conversion
 * sums in 32-bit Shoup lanes (SHOUP_LANES() and every target modulus
 * below 2^30), else NULL.  exact_tab allocates both in one block,
 * free(t.ms) frees it. */
struct exact_tab {
    size_t l_from, l_to;
    const uint64_t *q, *s, *s_sh, *p, *w, *qmp;
    uint64_t qmax;      /* the largest source modulus */
    struct msum *ms;    /* l_to entries, NULL if allocation failed */
    uint32_t *w_sh;     /* l_to * l_from companions, or NULL */
};

static struct exact_tab exact_tab(const uint64_t *tab, size_t l_from,
                                  size_t l_to, int exact)
{
    struct exact_tab t;
    size_t i, j;
    int shoup = !exact && SHOUP_LANES();
    t.l_from = l_from;
    t.l_to = l_to;
    t.q = tab;
    t.s = tab + l_from;
    t.s_sh = tab + 2 * l_from;
    t.p = tab + 3 * l_from;
    t.w = t.p + l_to;
    t.qmp = exact ? t.w + l_to * l_from : NULL;
    t.qmax = 0;
    for (j = 0; j < l_from; j++)
        t.qmax = t.q[j] > t.qmax ? t.q[j] : t.qmax;
    for (i = 0; i < l_to; i++)
        shoup &= t.p[i] < ((uint64_t)1 << 30);
    t.ms = malloc(l_to * sizeof *t.ms
                  + (shoup ? l_to * l_from * sizeof *t.w_sh : 0));
    t.w_sh = NULL;
    if (!t.ms)
        return t;
    for (i = 0; i < l_to; i++)
        t.ms[i] = msum_of(t.qmax, t.p[i]);
    if (shoup) {
        t.w_sh = (uint32_t *)(t.ms + l_to);
        for (i = 0; i < l_to * l_from; i++)
            t.w_sh[i] = (uint32_t)(((uint64_t)(uint32_t)t.w[i] << 32)
                                   / t.p[i / l_from]);
    }
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
 * Conversion of one block of w <= EX_BLOCK columns: source row j at
 * x + j * xs, target row i written at out + i * os; exact (centred)
 * when t->qmp is set, else fast.
 *
 * The fast conversion over target moduli below 2^30 (t->w_sh set,
 * where SHOUP_LANES() holds) sums in uint32 lanes: each term
 * v_j * w_ij is a lazy Shoup product in [0, 2p_i) (shoup_lazy with
 * w_ij's companion), added to a sum kept in [0, 2p_i) by one
 * conditional subtraction of 2p_i (the sum before it stays below
 * 4p_i < 2^32), and one last conditional subtraction of p_i lands the
 * canonical residue.  SH_LANES columns are summed side by side, all of
 * them vector lanes with no 64-bit multiply or reduction left, which
 * the scalar 128-bit Barrett of the other path is.
 *
 * Otherwise the weighted sum is a one-multiply sum (msum_of(qmax,
 * p_i)).  For the exact conversion it starts at l_from * p_i -
 * e * qmp_i (>= 0, below 2^36), which folds the correction in; for the
 * fast one at 0.  One Barrett reduction then lands the canonical
 * (sum_j v_j w_ij - e qmp_i) mod p_i.  EX_LANES columns are summed
 * side by side.  In both forms the last group of a block may run past
 * w, inside the zeroed EX_BLOCK-wide rows, and stores only its w
 * columns.
 */
static VECTOR_CLONES(WIDE_CLONE, "avx2")
void exact_block(int64_t *out, size_t os, const int64_t *x, size_t xs,
                 size_t w, const struct exact_tab *t,
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
        if (!t->qmp)
            continue;
        /* v < q < 2^31, so the int32 conversion is exact. */
        if (j == 0)
            for (col = 0; col < w; col++)
                wk->frac[col] = (double)(int32_t)vj[col] / qd;
        else
            for (col = 0; col < w; col++)
                wk->frac[col] += (double)(int32_t)vj[col] / qd;
    }
    if (t->qmp)
        for (col = 0; col < w; col++)
            wk->e[col] = (uint32_t)(int32_t)((wk->frac[col] + two52)
                                             - two52);
    if (t->w_sh) {
        for (i = 0; i < t->l_to; i++) {
            const uint64_t *restrict wi = t->w + i * t->l_from;
            const uint32_t *restrict wi_sh = t->w_sh + i * t->l_from;
            int64_t *restrict o = out + i * os;
            uint32_t p = (uint32_t)t->p[i], p2 = 2 * p;
            for (col = 0; col < w; col += SH_LANES) {
                uint32_t a[SH_LANES];
                size_t l, lanes = w - col < SH_LANES ? w - col : SH_LANES;
                for (l = 0; l < SH_LANES; l++)
                    a[l] = 0;
                for (j = 0; j < t->l_from; j++) {
                    uint32_t wj = (uint32_t)wi[j], wj_sh = wi_sh[j];
                    const uint32_t *vj = wk->v + j * EX_BLOCK + col;
                    for (l = 0; l < SH_LANES; l++)
                        a[l] = csub(a[l] + shoup_lazy(vj[l], wj, wj_sh, p),
                                    p2);
                }
                for (l = 0; l < lanes; l++)
                    o[col + l] = (int64_t)csub(a[l], p);
            }
        }
        return;
    }
    for (i = 0; i < t->l_to; i++) {
        const uint64_t *restrict wi = t->w + i * t->l_from;
        int64_t *restrict o = out + i * os;
        struct msum ms = t->ms[i];
        uint64_t base = t->qmp ? t->l_from * ms.p : 0;
        uint64_t c = t->qmp ? t->qmp[i] : 0;
        for (col = 0; col < w; col += EX_LANES) {
            const uint32_t *vc = wk->v + col;
            uint64_t a[EX_LANES];
            size_t j1, l, lanes = w - col < EX_LANES ? w - col : EX_LANES;
            if (t->qmp)
                for (l = 0; l < EX_LANES; l++)
                    a[l] = base - (uint64_t)wk->e[col + (l < lanes ? l : 0)]
                                  * c;
            else
                for (l = 0; l < EX_LANES; l++)
                    a[l] = 0;
            for (j = 0; j < t->l_from; j = j1) {
                j1 = t->l_from - j < ms.span ? t->l_from : j + ms.span;
                for (; j < j1; j++) {
                    uint32_t wj = (uint32_t)wi[j];
                    const uint32_t *vj = vc + j * EX_BLOCK;
                    for (l = 0; l < EX_LANES; l++)
                        a[l] += (uint64_t)vj[l] * wj;
                }
                for (l = 0; l < EX_LANES; l++)
                    a[l] = msum_guard(a[l], ms.g);
            }
            for (l = 0; l < lanes; l++)
                o[col + l] = (int64_t)barrett(a[l], ms.p, ms.m);
        }
    }
}

/* Conversion of k polynomials (exact or fast), see bconv_exact and
 * bconv. */
static int convert(int64_t *out, const int64_t *in, size_t k,
                   size_t l_from, size_t l_to, size_t n,
                   const uint64_t *tab, int exact)
{
    struct exact_tab t;
    struct exact_work wk;
    size_t c, j0;
    if (!l_from || !l_to)
        return 1;
    t = exact_tab(tab, l_from, l_to, exact);
    if (!t.ms || exact_work_alloc(&wk, l_from, 0)) {
        free(t.ms);
        return -1;
    }
    for (c = 0; c < k; c++)
        for (j0 = 0; j0 < n; j0 += EX_BLOCK)
            exact_block(out + c * l_to * n + j0, n,
                        in + c * l_from * n + j0, n,
                        n - j0 < EX_BLOCK ? n - j0 : EX_BLOCK, &t, &wk);
    free(wk.frac);
    free(t.ms);
    return 0;
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
    return convert(out, in, k, l_from, l_to, n, tab, 1);
}

/*
 * Fast base conversion of k polynomials, the key switch's ModUp and
 * ModDown BConv: as bconv_exact, without the float correction (tab's
 * qmp column is not read).
 */
int bconv(int64_t *out, const int64_t *in, size_t k, size_t l_from,
          size_t l_to, size_t n, const uint64_t *tab)
{
    return convert(out, in, k, l_from, l_to, n, tab, 0);
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
    qr = exact_tab(tab_qr, lq, lr, 1);
    rq = exact_tab(tab_rq, lr, lq, 1);
    if (!qr.ms || !rq.ms || exact_work_alloc(&wk, lmax, le + lr)) {
        free(qr.ms);
        free(rq.ms);
        return -1;
    }
    u = wk.extra;
    cm = u + le * EX_BLOCK;
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
    free(qr.ms);
    free(rq.ms);
    return 0;
}
