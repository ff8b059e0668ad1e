/* Native alignment DP kernels, loaded by native.py through ctypes.
 *
 * Each kernel performs the float64 operations of its numpy reference in
 * alignment.py in the same order, so results are bit-identical.  Build
 * without -ffast-math and with -ffp-contract=off: a fused multiply-add or a
 * reassociated sum would change the last bits.
 */
#include <stdint.h>

static double maximum(double a, double b) { return a >= b ? a : b; }

/* PrototypeScorer._scores_numpy: weighted wildcard score of one request
 * against every padded prototype row.  Column j of a row depends only on
 * columns <= j, so each row stops at its own length.  out is count +
 * width + 1 doubles: the first count receive the scores, the rest is
 * scratch for one DP row. */
void prototype_scores(const int16_t *request, int64_t n,
                      const int16_t *padded, const double *match,
                      const double *nomatch, const double *left_cum,
                      const double *insert, const int64_t *lengths,
                      int64_t count, int64_t width, double *out)
{
    double *h = out + count;
    for (int64_t k = 0; k < count; k++) {
        const int16_t *p = padded + k * width;
        const double *mt = match + k * width, *nm = nomatch + k * width;
        const double *lc = left_cum + k * (width + 1);
        const double *ins = insert + k * (width + 1);
        int64_t len = lengths[k];
        for (int64_t j = 0; j <= len; j++)
            h[j] = lc[j];
        for (int64_t i = 0; i < n; i++) {
            int16_t sym = request[i];
            double diag = h[0];          /* previous row, column j - 1 */
            double run = h[0] + ins[0];
            h[0] = run + lc[0];
            for (int64_t j = 1; j <= len; j++) {
                double s = p[j - 1] == sym ? mt[j - 1] : nm[j - 1];
                double t = maximum(diag + s, h[j] + ins[j]) - lc[j];
                run = maximum(run, t);
                diag = h[j];
                h[j] = run + lc[j];
            }
        }
        out[k] = h[len];
    }
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
