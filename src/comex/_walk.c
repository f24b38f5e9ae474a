/* Native acquisition walk: the inner loops of comex.acquisition.LocalField.

   flip_walk and swap_walk consume the draws LocalField.walk makes (the moves,
   then the acceptance limits -T log1p(-u)), update the point x, the field h,
   the degree >= 3 contributions c and their per-coordinate sums g in place,
   and return the number of accepted proposals. Every floating-point
   operation is the one the Python walk does, in the same order, so with
   -ffp-contract=off (no fused multiply-add) and without -ffast-math the
   results are bit-identical to it.

   The degree >= 3 terms are given as CSR tables: the terms containing
   coordinate k are high_index[high_ptr[k] .. high_ptr[k + 1]), in ascending
   order, and term t has the coordinates high_coords[t * width ..], padded
   with the index d; g has d + 1 slots, the last one for the padding, never
   read. n_high = 0 means there are none (m <= 2). */

#include <stdint.h>

typedef struct {
    int64_t width;
    double *g, *c;
    const int64_t *ptr, *index, *coords;
} High;

/* h -= sign * 2 A[k], one row of the symmetric coupling matrix. */
static void row_update(double *h, const double *A, int64_t d, int64_t k, double sign)
{
    const double *row = A + k * d;
    if (sign > 0.0)
        for (int64_t l = 0; l < d; l++) h[l] -= 2.0 * row[l];
    else
        for (int64_t l = 0; l < d; l++) h[l] += 2.0 * row[l];
}

/* Sum of c_I over the degree >= 3 terms containing both i and j, in term
   order from 0.0, as LocalField._pair_sum. */
static double pair_sum(const High *hi, int64_t i, int64_t j)
{
    double s = 0.0;
    for (int64_t p = hi->ptr[i]; p < hi->ptr[i + 1]; p++) {
        const int64_t t = hi->index[p];
        for (int64_t w = 0; w < hi->width; w++)
            if (hi->coords[t * hi->width + w] == j) {
                s += hi->c[t];
                break;
            }
    }
    return s;
}

/* Negate c_I for the terms containing k, one term at a time in term order,
   and subtract 2 * (old c_I) from g at each of the term's coordinates, as
   LocalField._negate_high. */
static void negate_high(const High *hi, int64_t k)
{
    for (int64_t p = hi->ptr[k]; p < hi->ptr[k + 1]; p++) {
        const int64_t t = hi->index[p];
        const double old = hi->c[t];
        hi->c[t] = -old;
        for (int64_t w = 0; w < hi->width; w++) hi->g[hi->coords[t * hi->width + w]] -= 2.0 * old;
    }
}

int64_t flip_walk(int64_t d, int64_t n, const int64_t *flips, const double *limits,
                  double *x, double *h, const double *A,
                  int64_t n_high, int64_t width, double *g, double *c,
                  const int64_t *ptr, const int64_t *index, const int64_t *coords)
{
    const High hi = {width, g, c, ptr, index, coords};
    int64_t accepted = 0;
    for (int64_t t = 0; t < n; t++) {
        const int64_t i = flips[t];
        const double xi = x[i];
        double delta = -2.0 * xi * h[i];
        if (n_high) delta -= 2.0 * g[i];
        if (delta <= limits[t]) {
            row_update(h, A, d, i, xi);
            x[i] = -xi;
            if (n_high) negate_high(&hi, i);
            accepted++;
        }
    }
    return accepted;
}

int64_t swap_walk(int64_t d, int64_t n, int64_t *plus, int64_t *minus,
                  const int64_t *take_plus, const int64_t *take_minus, const double *limits,
                  double *x, double *h, const double *A,
                  int64_t n_high, int64_t width, double *g, double *c,
                  const int64_t *ptr, const int64_t *index, const int64_t *coords)
{
    const High hi = {width, g, c, ptr, index, coords};
    int64_t accepted = 0;
    for (int64_t t = 0; t < n; t++) {
        const int64_t a = take_plus[t], b = take_minus[t];
        const int64_t i = plus[a], j = minus[b];   /* x_i = +1, x_j = -1 */
        double delta = 2.0 * (h[j] - h[i]) - 4.0 * A[i * d + j];
        if (n_high) delta += 4.0 * pair_sum(&hi, i, j) - 2.0 * (g[i] + g[j]);
        if (delta <= limits[t]) {
            plus[a] = j;
            minus[b] = i;
            row_update(h, A, d, i, 1.0);
            row_update(h, A, d, j, -1.0);
            x[i] = -1.0;
            x[j] = 1.0;
            if (n_high) {
                negate_high(&hi, i);
                negate_high(&hi, j);
            }
            accepted++;
        }
    }
    return accepted;
}
