/*
 * Timing harness for the native kernels' 32x32->64-bit loops: the NTT
 * rows of src/repro/nttmath/native/ntt.c, their loads and stores, the
 * key MAC, the fast and exact base conversions, and plan replay's
 * elementwise, FFT and DRAM-load steps over a slot arena.
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

/* The key MAC's key tables are uint32 in sources whose ks_mac takes
 * them so, uint64 in older ones (a --base build). */
#define KEY32 __builtin_types_compatible_p(                               \
    __typeof__(&ks_mac),                                                  \
    int (*)(uint64_t *, const int64_t *, size_t, size_t, size_t, size_t, \
            const uint64_t *, const uint32_t *, const uint32_t *,         \
            const int64_t *))

/* replay_steps takes a uint32 slot arena in sources that have one, an
 * int64 arena in older ones (a --base build). */
#define ARENA32 __builtin_types_compatible_p(                             \
    __typeof__(&replay_steps),                                            \
    int (*)(uint32_t *, size_t, size_t, const int64_t *, size_t,          \
            const int64_t *, size_t, const uint64_t *, const uint32_t *,  \
            size_t, const int64_t *, size_t, const uintptr_t *, size_t,   \
            int64_t *, size_t, size_t))

/* Time CALL: the median over trials of the mean of reps calls, reps
 * scaled down by the call's work in NTT rows, divided by per. */
#define TIME_PER(name, work, per, CALL)                                   \
    do {                                                                  \
        int k_, r_, reps_ = reps / (work) + 1;                            \
        for (k_ = 0; k_ < trials; k_++) {                                 \
            double t0_ = now_us();                                        \
            for (r_ = 0; r_ < reps_; r_++) {                              \
                CALL;                                                     \
                __asm__ volatile("" : : "r"(a) : "memory");               \
            }                                                             \
            samples[k_] = (now_us() - t0_) / reps_ / (per);               \
        }                                                                 \
        qsort(samples, trials, sizeof *samples, cmp_double);              \
        printf("%s %.3f\n", name, samples[trials / 2]);                   \
    } while (0)
#define TIME(name, work, CALL) TIME_PER(name, work, 1, CALL)

/* The benchmark's key-switch shape: beta = 4 digits over ext = 10
 * limbs, and the fast conversions of a k = 16 stack of 2-limb digits
 * into 8 limbs (two ciphertext halves of eight ciphertexts, the ModUp
 * and ModDown conversions at dnum = 4, L = 8). */
enum { KS_BETA = 4, KS_EXT = 10, KS_K = 8, BC_K = 16, BC_FROM = 2,
       BC_TO = 8 };

/* The replay steps: RP_STEPS steps of RP_K lanes, lane L of each kind
 * on its own arena rows (L * rows per lane on), so one call streams
 * RP_STEPS * RP_K lanes through an arena of RP_ROWS rows (16 MB as
 * uint32 at n = 4096, past the caches as the benchmark plans' arenas
 * are); each row is printed in microseconds per lane. */
enum { RP_STEPS = 8, RP_K = 32, RP_LANES = RP_STEPS * RP_K,
       RP_ROWS = 4 * RP_LANES };

/* One step kind's table: lane L writes row L * per + 0 from the next
 * per - 1 rows (EW, FFT) or from DRAM source L; EW flag is column c
 * (1 multiplies) for nsrc 2. */
static void replay_table(int64_t *steps, int64_t *lanes, int64_t kind,
                         int64_t arg, int64_t flag, size_t per, size_t width,
                         uint64_t q)
{
    size_t s, l, c;
    for (s = 0; s < RP_STEPS; s++) {
        int64_t *st = steps + 5 * s;
        st[0] = kind;
        st[1] = arg;
        st[2] = RP_K;
        st[3] = (int64_t)(s * RP_K * width);
        st[4] = 0;
    }
    for (l = 0; l < RP_LANES; l++) {
        int64_t *ln = lanes + l * width;
        for (c = 0; c < width; c++)
            ln[c] = 0;
        if (kind == ST_EW) {
            for (c = 0; c < per; c++)
                ln[c] = (int64_t)(l * per + c);
            if (per == 3)
                ln[EW_C] = flag;
            ln[EW_Q] = (int64_t)q;
        } else if (kind == ST_FFT) {
            ln[FT_IN] = (int64_t)(l * per + 1);
            ln[FT_OUT] = (int64_t)(l * per);
        } else {
            ln[DR_OUT] = (int64_t)l;
            ln[DR_Q] = (int64_t)q;
            ln[DR_SRC] = (int64_t)l;
        }
    }
}

int main(int argc, char **argv)
{
    size_t n = argc > 1 ? strtoul(argv[1], NULL, 10) : 4096;
    int trials = argc > 2 ? atoi(argv[2]) : 9, reps, i;
    size_t j, l_from = 8, l_to = 9;
    size_t nx = (size_t)KS_K * KS_BETA * KS_EXT * n;
    size_t nkey = (size_t)KS_BETA * KS_EXT * n;
    uint64_t q = 0, psi = 0, g, *qs, *tab, *acc, *ks_q, *bc_tab;
    uint32_t *a, *w, *w_sh, *wi, *wi_sh, one_sh;
    int64_t *row, *xs, *conv, *ks_x, *perm, *bc_in, *bc_out;
    void *key;
    const void *key_a;
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
    row = malloc(2 * n * sizeof *row);
    conv = malloc((l_from + l_to) * n * sizeof *conv);
    qs = malloc(l_from * sizeof *qs);
    tab = malloc((3 * l_from + 2 * l_to + l_to * l_from) * sizeof *tab);
    ks_x = malloc(nx * sizeof *ks_x);
    key = malloc(2 * nkey * sizeof(uint64_t));
    acc = malloc(2 * KS_K * KS_EXT * n * sizeof *acc);
    ks_q = malloc(KS_EXT * sizeof *ks_q);
    perm = malloc(n * sizeof *perm);
    bc_in = malloc(BC_K * BC_FROM * n * sizeof *bc_in);
    bc_out = malloc(BC_K * BC_TO * n * sizeof *bc_out);
    bc_tab = malloc((3 * BC_FROM + 2 * BC_TO + BC_TO * BC_FROM)
                    * sizeof *bc_tab);
    samples = malloc(trials * sizeof *samples);
    if (!a || !row || !conv || !qs || !tab || !ks_x || !key || !acc
        || !ks_q || !perm || !bc_in || !bc_out || !bc_tab || !samples)
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
    for (j = 0; j < 2 * n; j++)
        row[j] = (int64_t)((j * 2654435761u) % q);
    for (j = 0; j < n; j++)
        a[j] = (uint32_t)row[j];

    /* The key MAC's ext moduli (30-bit, below 2^30: span 4, so the guard
     * runs in the final reduction only), digits and keys, and the
     * NTT-domain automorphism permutation of the Galois element 5. */
    for (i = 0, g = q; i < KS_EXT; i++, g -= 2 * n) {
        while (!is_prime(g))
            g -= 2 * n;
        ks_q[i] = g;
    }
    for (j = 0; j < nx; j++)
        ks_x[j] = (int64_t)((j * 2654435761u) % ks_q[j / n % KS_EXT]);
    for (j = 0; j < 2 * nkey; j++) {
        uint64_t v = (j * 40503u) % ks_q[j / n % KS_EXT];
        if (KEY32)
            ((uint32_t *)key)[j] = (uint32_t)v;
        else
            ((uint64_t *)key)[j] = v;
    }
    key_a = (const char *)key + nkey * (KEY32 ? 4 : 8);
    for (j = 0; j < n; j++)
        perm[j] = (int64_t)bit_rev(
            ((2 * bit_rev(j, n) + 1) * 5 % (2 * n) - 1) / 2, n);

    /* The fast conversion 2 -> 8 over the same 30-bit moduli. */
    for (i = 0; i < BC_FROM; i++) {
        bc_tab[i] = ks_q[BC_TO + i];
        bc_tab[BC_FROM + i] = ks_q[BC_TO + i] / 3;
        bc_tab[2 * BC_FROM + i] = (bc_tab[BC_FROM + i] << 32)
                                  / ks_q[BC_TO + i];
    }
    for (i = 0; i < BC_TO; i++) {
        bc_tab[3 * BC_FROM + i] = ks_q[i];
        for (j = 0; j < BC_FROM; j++)
            bc_tab[3 * BC_FROM + BC_TO + i * BC_FROM + j] =
                ks_q[BC_TO + j] % ks_q[i];
        bc_tab[3 * BC_FROM + BC_TO + BC_TO * BC_FROM + i] = 1;
    }
    for (j = 0; j < (size_t)BC_K * BC_FROM * n; j++)
        bc_in[j] = (int64_t)((j * 2654435761u) % bc_tab[j / n % BC_FROM]);

    /* Warm up (clock ramp, caches, page faults) for ~0.3 s first. */
    for (t_end = now_us() + 3e5; now_us() < t_end;)
        forward_row(a, n, (uint32_t)q, w, w_sh);

    /* Every timed call keeps the work row inside its lazy bound: the
     * forward row maps [0, 4q) to [0, 4q), the inverse [0, 2q) to
     * [0, 2q), and the fold in store_row lands [0, q). */
    TIME("load", 1, load_row(a, row, n, q, 1));
    TIME("store", 1, store_row(xs, a, n, (uint32_t)q));
    TIME("forward", 1, forward_row(a, n, (uint32_t)q, w, w_sh));
    store_row(xs, a, n, (uint32_t)q);
    load_row(a, xs, n, q, 0);
    one_sh = (uint32_t)(((uint64_t)1 << 32) / q);
    TIME("inverse", 1, inverse_row(a, n, (uint32_t)q, wi, wi_sh, 1, 1,
                                   one_sh, 1, one_sh));
    /* The key MAC at the benchmark's shape, through the permutation. */
    TIME("ks_mac k=1", KS_BETA * KS_EXT,
         ks_mac(acc, ks_x, 1, KS_BETA, KS_EXT, n, ks_q, key,
                key_a, perm));
    TIME("ks_mac k=8", KS_K * KS_BETA * KS_EXT,
         ks_mac(acc, ks_x, KS_K, KS_BETA, KS_EXT, n, ks_q, key,
                key_a, perm));
    TIME("bconv 2->8 k=16", BC_K * BC_TO,
         bconv(bc_out, bc_in, BC_K, BC_FROM, BC_TO, n, bc_tab));

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
    TIME("bconv_exact", l_to, bconv_exact(conv + l_from * n, conv, 1,
                                          l_from, l_to, n, tab));

    /* Plan replay over an arena of the source's element type, its
     * values canonical mod the 30-bit q, and DRAM rows of canonical
     * int64 values: each call runs the RP_STEPS steps of one kind. */
    {
        size_t esize = ARENA32 ? 4 : 8;
        unsigned char *block = malloc(RP_ROWS * n * esize + 63);
        void *arena = block + (-(uintptr_t)block & 63);
        int64_t *rp_steps = malloc(5 * RP_STEPS * sizeof *rp_steps);
        int64_t *rp_lanes = malloc(RP_LANES * 6 * sizeof *rp_lanes);
        int64_t *dram = malloc(RP_LANES * n * sizeof *dram);
        uintptr_t *srcs = malloc(RP_LANES * sizeof *srcs);
        uint32_t *tw = malloc(4 * n * sizeof *tw);
        uint64_t qtab[1];
        if (!block || !rp_steps || !rp_lanes || !dram || !srcs || !tw)
            return 1;
        for (j = 0; j < RP_ROWS * n; j++) {
            uint64_t v = (j * 2654435761u) % q;
            if (esize == 4)
                ((uint32_t *)arena)[j] = (uint32_t)v;
            else
                ((int64_t *)arena)[j] = (int64_t)v;
        }
        for (j = 0; j < RP_LANES * n; j++)
            dram[j] = (int64_t)((j * 40503u) % q);
        for (j = 0; j < RP_LANES; j++)
            srcs[j] = (uintptr_t)(dram + j * n);
        for (j = 0; j < n; j++) {
            tw[j] = w[j];
            tw[n + j] = w_sh[j];
            tw[2 * n + j] = wi[j];
            tw[3 * n + j] = wi_sh[j];
        }
        qtab[0] = q;
#define REPLAY(name, kind, arg, flag, per, width)                         \
        replay_table(rp_steps, rp_lanes, kind, arg, flag, per, width, q); \
        TIME_PER(name, RP_LANES, RP_LANES,                                \
                 replay_steps(arena, RP_ROWS, n, rp_steps, RP_STEPS,      \
                              rp_lanes, RP_LANES * (width), qtab, tw, 1,  \
                              NULL, 0, srcs, RP_LANES, NULL, 0,           \
                              RP_STEPS))
        REPLAY("replay mac", ST_EW, 3, 0, 4, EW_WIDTH);
        REPLAY("replay mul", ST_EW, 2, 1, 3, EW_WIDTH);
        REPLAY("replay add", ST_EW, 2, 0, 3, EW_WIDTH);
        REPLAY("replay ntt", ST_FFT, FFT_NTT, 0, 2, FT_WIDTH);
        REPLAY("replay dram", ST_DRAM, 0, 0, 1, DR_WIDTH);
#undef REPLAY
    }
    return 0;
}
