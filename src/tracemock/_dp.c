/* Native alignment DP kernels, loaded by native.py through ctypes.
 *
 * Each kernel performs the float64 operations of its numpy reference in
 * alignment.py in the same order, so results are bit-identical.  Build
 * without -ffast-math and with -ffp-contract=off: a fused multiply-add or a
 * reassociated sum would change the last bits.
 *
 * prototype_scores is inter-sequence SIMD (Rognes, BMC Bioinformatics
 * 12:221, 2011): it scores LANES sequences at once, one per vector lane.
 * PrototypeScorer groups the sequences in blocks of LANES, in their order,
 * and stores each table lane-fastest: column j of lane k of a block sits at
 * j * LANES + k.  A block runs to its longest lane, and each lane reads its
 * score at its own length after the last row: column j depends only on
 * columns <= j, so the padding columns cannot reach it.  Each lane performs
 * the scalar recurrence's operations in its order.  The match select is a
 * bitwise blend on a compare mask and each maximum is vmaxpd(b, a), so
 * a >= b ? a : b keeps its tie and signed-zero behaviour.  The AVX-512 body
 * runs when the CPU has AVX-512F; otherwise the same lane loop runs as
 * plain C.
 */
#include <stdint.h>

#define LANES 8

static double maximum(double a, double b) { return a >= b ? a : b; }

/* One block's tables, LANES sequences lane-fastest, and its longest lane. */
struct block {
    const int16_t *padded;
    const double *match, *nomatch, *left_cum, *insert;
    int64_t last;
};

/* Fill one block's DP row h (last + 1 columns of LANES) for the request. */
typedef void fill_fn(const int16_t *request, int64_t n, const struct block *blk,
                     double *h);

static void fill_portable(const int16_t *request, int64_t n,
                          const struct block *blk, double *h)
{
    const int16_t *p = blk->padded;
    const double *mt = blk->match, *nm = blk->nomatch;
    const double *lc = blk->left_cum, *ins = blk->insert;
    for (int64_t c = 0; c < (blk->last + 1) * LANES; c++)
        h[c] = lc[c];
    for (int64_t i = 0; i < n; i++) {
        int16_t sym = request[i];
        double diag[LANES], run[LANES];
        for (int k = 0; k < LANES; k++) {
            diag[k] = h[k];              /* previous row, column j - 1 */
            run[k] = h[k] + ins[k];
            h[k] = run[k] + lc[k];
        }
        for (int64_t j = 1; j <= blk->last; j++) {
            int64_t c = j * LANES, d = c - LANES;
            for (int k = 0; k < LANES; k++) {
                double s = p[d + k] == sym ? mt[d + k] : nm[d + k];
                double t = maximum(diag[k] + s, h[c + k] + ins[c + k]) - lc[c + k];
                run[k] = maximum(run[k], t);
                diag[k] = h[c + k];
                h[c + k] = run[k] + lc[c + k];
            }
        }
    }
}

/* PrototypeScorer._scores_numpy, over blocks of LANES sequences: the
 * weighted wildcard score of one request against each lane.  padded, match
 * and nomatch hold width columns per block, left_cum and insert width + 1,
 * lengths one.  out is (blocks + width + 2) * LANES doubles: the first
 * blocks * LANES receive the scores, the rest holds one DP row from the
 * next 64-byte boundary on. */
static void score_blocks(fill_fn *fill, const int16_t *request, int64_t n,
                         const int16_t *padded, const double *match,
                         const double *nomatch, const double *left_cum,
                         const double *insert, const int64_t *lengths,
                         int64_t blocks, int64_t width, double *out)
{
    double *h = (double *)(((uintptr_t)(out + blocks * LANES) + 63) & ~(uintptr_t)63);
    for (int64_t b = 0; b < blocks; b++) {
        const int64_t *len = lengths + b * LANES;
        struct block blk = {padded + b * width * LANES, match + b * width * LANES,
                            nomatch + b * width * LANES,
                            left_cum + b * (width + 1) * LANES,
                            insert + b * (width + 1) * LANES, 0};
        for (int k = 0; k < LANES; k++)
            if (len[k] > blk.last)
                blk.last = len[k];
        fill(request, n, &blk, h);
        for (int k = 0; k < LANES; k++)
            out[b * LANES + k] = h[len[k] * LANES + k];
    }
}

#if defined(__x86_64__) || defined(__i386__)
#include <immintrin.h>

/* One lane per sequence.  The typedefs lower the alignment to the
 * element's, so loads and stores need no 64-byte alignment. */
typedef double vdouble __attribute__((vector_size(8 * LANES), aligned(8)));
typedef int64_t vmask __attribute__((vector_size(8 * LANES), aligned(8)));
typedef int16_t vsymbol __attribute__((vector_size(2 * LANES), aligned(2)));

#define AVX512 __attribute__((target("avx512f")))
#define HELPER AVX512 __attribute__((always_inline)) static inline

HELPER vdouble load(const double *at) { return *(const vdouble *)at; }

HELPER void store(double *at, vdouble v) { *(vdouble *)at = v; }

/* keep ? a : b, lane by lane, as bits. */
HELPER vdouble blend(vmask keep, vdouble a, vdouble b)
{
    return (vdouble)(((vmask)a & keep) | ((vmask)b & ~keep));
}

/* maximum() lane by lane: vmaxpd(b, a) is b > a ? b : a, which for finite
 * values, signed zeros included, is a >= b ? a : b. */
HELPER vdouble vmaximum(vdouble a, vdouble b)
{
    return (vdouble)_mm512_max_pd((__m512d)b, (__m512d)a);
}

/* fill_portable, one vector per column. */
AVX512 static void fill_avx512(const int16_t *request, int64_t n,
                               const struct block *blk, double *h)
{
    const int16_t *p = blk->padded;
    const double *mt = blk->match, *nm = blk->nomatch;
    const double *lc = blk->left_cum, *ins = blk->insert;
    for (int64_t c = 0; c <= blk->last * LANES; c += LANES)
        store(h + c, load(lc + c));
    for (int64_t i = 0; i < n; i++) {
        vsymbol sym = (vsymbol){0} + request[i];
        vdouble diag = load(h);
        vdouble run = diag + load(ins);
        store(h, run + load(lc));
        for (int64_t j = 1; j <= blk->last; j++) {
            int64_t c = j * LANES, d = c - LANES;
            vmask same = __builtin_convertvector(*(const vsymbol *)(p + d) == sym, vmask);
            vdouble s = blend(same, load(mt + d), load(nm + d));
            vdouble up = load(h + c);
            vdouble t = vmaximum(diag + s, up + load(ins + c)) - load(lc + c);
            run = vmaximum(run, t);
            diag = up;
            store(h + c, run + load(lc + c));
        }
    }
}
#endif

/* score_blocks with the AVX-512 body when the CPU has AVX-512F. */
void prototype_scores(const int16_t *request, int64_t n,
                      const int16_t *padded, const double *match,
                      const double *nomatch, const double *left_cum,
                      const double *insert, const int64_t *lengths,
                      int64_t blocks, int64_t width, double *out)
{
    fill_fn *fill = fill_portable;
#if defined(__x86_64__) || defined(__i386__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("avx512f"))
        fill = fill_avx512;
#endif
    score_blocks(fill, request, n, padded, match, nomatch, left_cum, insert,
                 lengths, blocks, width, out);
}

/* prototype_scores with the portable body on any CPU, for tests. */
void prototype_scores_portable(const int16_t *request, int64_t n,
                               const int16_t *padded, const double *match,
                               const double *nomatch, const double *left_cum,
                               const double *insert, const int64_t *lengths,
                               int64_t blocks, int64_t width, double *out)
{
    score_blocks(fill_portable, request, n, padded, match, nomatch, left_cum,
                 insert, lengths, blocks, width, out);
}

/* _dp_fill_numpy: fill the n x m table row by row.  h is 2 (m + 1)
 * doubles: the first m + 1 receive the final row, the rest is scratch for
 * the gap prefix.  k_rows (n x (m + 1)) and du_rows (n x m) receive the
 * traceback records, or are NULL when no path is wanted. */
void dp_fill(const double *scores, const double *up, const double *left,
             int64_t n, int64_t m, double *h, int32_t *k_rows, uint8_t *du_rows)
{
    double *left_cum = h + m + 1;
    left_cum[0] = 0.0;
    for (int64_t j = 0; j < m; j++)
        left_cum[j + 1] = left_cum[j] + left[j];
    for (int64_t j = 0; j <= m; j++)
        h[j] = left_cum[j];
    for (int64_t i = 0; i < n; i++) {
        const double *s = scores + i * m;
        double diag = h[0];
        double run = h[0] + up[i];
        int32_t origin = 0;
        h[0] = run + left_cum[0];
        if (k_rows)
            k_rows[i * (m + 1)] = 0;
        for (int64_t j = 1; j <= m; j++) {
            double d = diag + s[j - 1];
            double u = h[j] + up[i];
            uint8_t du = d >= u;     /* a tie prefers the diagonal */
            double t = (du ? d : u) - left_cum[j];
            if (t >= run)            /* last column achieving the running max */
                origin = (int32_t)j;
            run = maximum(run, t);
            if (k_rows) {
                k_rows[i * (m + 1) + j] = origin;
                du_rows[i * m + j - 1] = du;
            }
            diag = h[j];
            h[j] = run + left_cum[j];
        }
    }
}

/* _trace_moves: walk dp_fill's records back from cell (n, m) and write the
 * moves of the path in forward order, one byte each: 1 advances a, 2
 * advances b, 3 advances both.  out holds n + m bytes; returns how many
 * were written. */
int64_t dp_trace(const int32_t *k_rows, const uint8_t *du_rows,
                 int64_t n, int64_t m, uint8_t *out)
{
    int64_t count = 0, i = n, j = m;
    while (i > 0 || j > 0) {
        int64_t k = i > 0 ? k_rows[(i - 1) * (m + 1) + j] : 0;
        if (k < j) {                 /* gap-in-a run back to the origin column */
            while (j > k) {
                out[count++] = 2;
                j--;
            }
        } else if (j == 0 || !du_rows[(i - 1) * m + j - 1]) {
            out[count++] = 1;
            i--;
        } else {
            out[count++] = 3;
            i--;
            j--;
        }
    }
    for (int64_t lo = 0, hi = count - 1; lo < hi; lo++, hi--) {
        uint8_t t = out[lo];
        out[lo] = out[hi];
        out[hi] = t;
    }
    return count;
}
