/*
 * Timing harness for the native kernels' 32x32->64-bit loops: the NTT
 * rows of src/repro/nttmath/native/ntt.c, their loads and stores, the
 * key MAC and the exact base conversion.
 *
 * It includes the kernel source named by NTT_SOURCE, so it times that
 * source's own static functions at the target its build picks: pin one
 * variant with -D'VECTOR_CLONES(...)=' plus -m flags, or leave the
 * macro alone to time the dispatched clones.
 *
 *   ntt_timing N TRIALS
 *
 * prints one "name microseconds" line per measurement: the median over
 * TRIALS of the mean time of one call.  tools/ntt_timing.py builds the
 * variants, alternates their runs and prints the table.
 */

#include NTT_SOURCE

#include <stdio.h>

static uint64_t pow_mod(uint64_t b, uint64_t e, uint64_t q)
{
    uint64_t r = 1;
    for (b %= q; e; e >>= 1, b = b * b % q)
        if (e & 1)
            r = r * b % q;
    return r;
}

static int is_prime(uint64_t x)
{
    uint64_t d;
    for (d = 2; d * d <= x; d++)
        if (x % d == 0)
            return 0;
    return x > 1;
}

static size_t bit_rev(size_t i, size_t n)
{
    size_t r = 0, m;
    for (m = 1; m < n; m <<= 1, i >>= 1)
        r = (r << 1) | (i & 1);
    return r;
}

static double now_us(void)
{
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return ts.tv_sec * 1e6 + ts.tv_nsec * 1e-3;
}

static int cmp_double(const void *x, const void *y)
{
    double a = *(const double *)x, b = *(const double *)y;
    return (a > b) - (a < b);
}

/* Time CALL: the median over trials of the mean of reps calls. */
#define TIME(name, CALL)                                                  \
    do {                                                                  \
        int k_, r_;                                                       \
        for (k_ = 0; k_ < trials; k_++) {                                 \
            double t0_ = now_us();                                        \
            for (r_ = 0; r_ < reps; r_++) {                               \
                CALL;                                                     \
                __asm__ volatile("" : : "r"(a) : "memory");               \
            }                                                             \
            samples[k_] = (now_us() - t0_) / reps;                        \
        }                                                                 \
        qsort(samples, trials, sizeof *samples, cmp_double);              \
        printf("%s %.3f\n", name, samples[trials / 2]);                   \
    } while (0)

int main(int argc, char **argv)
{
    size_t n = argc > 1 ? strtoul(argv[1], NULL, 10) : 4096;
    int trials = argc > 2 ? atoi(argv[2]) : 9, reps, i;
    size_t j, beta = 3, l_from = 8, l_to = 9;
    uint64_t q = 0, psi = 0, g, *qs, *key, *tab, *acc;
    uint32_t *a, *w, *w_sh, *wi, *wi_sh, one_sh;
    int64_t *row, *xs, *conv;
    double *samples, t_end;

    if (n < 64 || (n & (n - 1)) || trials < 1) {
        fprintf(stderr, "usage: ntt_timing N TRIALS (N a power of two "
                "from 64, TRIALS >= 1)\n");
        return 2;
    }
    reps = (int)(4000000 / (n * 12)) + 1;
    /* One row and four twiddle tables, 1 KB apart modulo 4 KB: tables at
     * multiples of 4 KB from the row would make the row's stores alias
     * the table loads (4K aliasing) and time that instead. */
    a = malloc((5 * n + 4 * 256) * sizeof *a);
    row = malloc((1 + beta) * n * sizeof *row);
    key = malloc(2 * beta * n * sizeof *key);
    acc = malloc(2 * n * sizeof *acc);
    conv = malloc((l_from + l_to) * n * sizeof *conv);
    qs = malloc(l_from * sizeof *qs);
    tab = malloc((3 * l_from + 2 * l_to + l_to * l_from) * sizeof *tab);
    samples = malloc(trials * sizeof *samples);
    if (!a || !row || !key || !acc || !conv || !qs || !tab || !samples)
        return 1;
    w = a + n + 256;
    w_sh = w + n + 256;
    wi = w_sh + n + 256;
    wi_sh = wi + n + 256;
    xs = row + n;

    /* The largest NTT prime below 2^30 and a primitive 2n-th root. */
    for (q = ((1u << 30) - 1) / (2 * n) * (2 * n) + 1; !is_prime(q);
         q -= 2 * n)
        ;
    for (g = 2; psi == 0 || pow_mod(psi, n, q) != q - 1; g++)
        psi = pow_mod(g, (q - 1) / (2 * n), q);
    for (j = 0; j < n; j++) {
        uint64_t e = bit_rev(j, n);
        w[j] = (uint32_t)pow_mod(psi, e, q);
        wi[j] = (uint32_t)pow_mod(psi, 2 * n - e, q);
        w_sh[j] = (uint32_t)(((uint64_t)w[j] << 32) / q);
        wi_sh[j] = (uint32_t)(((uint64_t)wi[j] << 32) / q);
    }
    for (j = 0; j < (1 + beta) * n; j++)
        row[j] = (int64_t)((j * 2654435761u) % q);
    for (j = 0; j < 2 * beta * n; j++)
        key[j] = (j * 40503u) % q;
    for (j = 0; j < n; j++)
        a[j] = (uint32_t)row[j];

    /* Warm up (clock ramp, caches, page faults) for ~0.3 s first. */
    for (t_end = now_us() + 3e5; now_us() < t_end;)
        forward_row(a, n, (uint32_t)q, w, w_sh);

    /* Every timed call keeps the work row inside its lazy bound: the
     * forward row maps [0, 4q) to [0, 4q), the inverse [0, 2q) to
     * [0, 2q), and the fold in store_row lands [0, q). */
    TIME("load", load_row(a, row, n, q, 1));
    TIME("store", store_row(xs, a, n, (uint32_t)q));
    TIME("forward", forward_row(a, n, (uint32_t)q, w, w_sh));
    store_row(xs, a, n, (uint32_t)q);
    load_row(a, xs, n, q, 0);
    one_sh = (uint32_t)(((uint64_t)1 << 32) / q);
    TIME("inverse", inverse_row(a, n, (uint32_t)q, wi, wi_sh, 1, 1, one_sh,
                                1, one_sh));
    /* The key MAC: one ciphertext, beta digits, one limb. */
    TIME("ks_mac", ks_mac(acc, xs, 1, beta, 1, n, &q, key, key + beta * n,
                          NULL));

    /* The exact conversion of one l_from-row polynomial to l_to rows:
     * moduli below 2^31 and table entries below them (the timing does
     * not depend on the values). */
    for (i = 0; i < (int)l_from; i++) {
        qs[i] = (1u << 31) - 1 - 2 * (uint64_t)i * n;
        tab[i] = qs[i];
        tab[l_from + i] = qs[i] / 3;
        tab[2 * l_from + i] = (tab[l_from + i] << 32) / qs[i];
    }
    for (j = 0; j < l_to + l_to * l_from + l_to; j++)
        tab[3 * l_from + j] = j < l_to ? (1u << 30) - 1 - j * 2 * n : 12345;
    for (j = 0; j < l_from * n; j++)
        conv[j] = (int64_t)(((uint64_t)j * 2654435761u) % qs[j / n]);
    TIME("bconv_exact", bconv_exact(conv + l_from * n, conv, 1, l_from,
                                    l_to, n, tab));
    return 0;
}
