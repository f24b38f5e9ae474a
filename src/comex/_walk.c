/* Native comex step on one model's workspace (comex.walk_kernel.Workspace),
   and the stage loop of one contamination instance
   (comex.walk_kernel.Contamination). Four functions are exported:
   surrogate_update, flip_walk, swap_walk and contamination_violation. Each
   takes its bound struct first, and each of them, and field_build,
   pair_sum and negate_high, has a Python twin of the same name with a
   leading underscore in comex.walk_kernel, its reference. The two do the
   same floating-point operations in the same order, every sum one term at
   a time from 0.0 in index order, so with -ffp-contract=off (no fused
   multiply-add) and without -ffast-math (no reassociation) their results
   are bit-identical.

   The walks take the draws comex.acquisition.walk makes (the moves, then
   the acceptance limits -T log1p(-u)). Each builds the field A, h, c, g
   at the point x_aug[:d] first, then walks, updating the point, h, the
   degree >= 3 contributions c and their per-coordinate sums g in place,
   and returns the number of accepted proposals. swap_walk builds the +1
   and -1 coordinate lists its moves index, ascending, from the point. The
   basis tables are those of comex.basis.MonomialBasis; terms are padded
   with the index d, whose x_aug entry is always 1.0 and whose g slot is
   never read. Terms are addressed by range: term 1 + i is coordinate i,
   the pairs follow, and the last n_high terms have degree >= 3. */

#include <math.h>
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t d, p, m, n_high;
    double *w, *psi, *x_aug, *stats, *A, *h, *c, *g;
    const int64_t *padded, *high_ptr, *high_index;
} Workspace;

typedef struct {
    int64_t d, n_paths;
    double u;
    const double *x, *init_z, *rates_a, *rates_b;
    double *z;
} Contamination;

/* Product of x_aug over the m padded coordinates at coords. */
static double monomial(const double *x_aug, const int64_t *coords, int64_t m)
{
    double value = 1.0;
    for (int64_t k = 0; k < m; k++) value *= x_aug[coords[k]];
    return value;
}

/* The padded coordinates of the degree >= 3 term at position t among them. */
static const int64_t *high_term(const Workspace *ws, int64_t t)
{ return ws->padded + (ws->p - ws->n_high + t) * ws->m; }

/* The signed coefficient w_plus - w_minus of term t. */
static double coefficient(const Workspace *ws, int64_t t) { return ws->w[t] - ws->w[ws->p + t]; }

/* z_i = k psi_i for a plus weight, -(k psi_i) for a minus weight. */
static double loss_quantity(const Workspace *ws, int64_t i, double k)
{ return i < ws->p ? k * ws->psi[i] : -(k * ws->psi[i - ws->p]); }

/* One observation step on the weights w at x_aug, with its status, as
   comex.walk_kernel.surrogate_update describes it. */
int64_t surrogate_update(const Workspace *ws, double fx, double eta, double sparsity, double v)
{
    const int64_t p = ws->p, n = 2 * p;
    double *w = ws->w;
    double fhat = 0.0;
    for (int64_t t = 0; t < p; t++) {
        ws->psi[t] = monomial(ws->x_aug, ws->padded + t * ws->m, ws->m);
        fhat += coefficient(ws, t) * ws->psi[t];
    }
    const double loss = fhat - fx, k = -2.0 * sparsity * loss;
    double total = 0.0, z_bar = 0.0, var = 0.0;
    for (int64_t i = 0; i < n; i++) total += w[i];
    for (int64_t i = 0; i < n; i++) z_bar += (w[i] / total) * loss_quantity(ws, i, k);
    for (int64_t i = 0; i < n; i++) {
        const double dz = loss_quantity(ws, i, k) - z_bar;
        var += (w[i] / total) * (dz * dz);
    }
    const double z_range = 4.0 * sparsity * fabs(loss);
    ws->stats[0] = loss, ws->stats[1] = var, ws->stats[2] = z_range;
    if (!(isfinite(z_range) && isfinite(v + var))) return 1;

    const double r = exp(-2.0 * fabs(eta * k));
    total = 0.0;
    for (int64_t i = 0; i < n; i++) total += loss_quantity(ws, i, k) < 0.0 ? w[i] * r : w[i];
    const double scale = sparsity / total;
    if (!isfinite(scale)) return 2;
    for (int64_t i = 0; i < n; i++) w[i] = (loss_quantity(ws, i, k) < 0.0 ? w[i] * r : w[i]) * scale;
    return 0;
}

/* A, h, c and g at the point x_aug[:d] for the coefficients w_plus - w_minus. */
static void field_build(const Workspace *ws)
{
    const int64_t d = ws->d, m = ws->m, high_start = ws->p - ws->n_high;
    memset(ws->A, 0, d * d * sizeof(double));
    for (int64_t t = 1 + d; t < high_start; t++) {
        const int64_t i = ws->padded[t * m], j = ws->padded[t * m + 1];
        ws->A[i * d + j] = ws->A[j * d + i] = coefficient(ws, t);
    }
    for (int64_t i = 0; i < d; i++) {
        double s = 0.0;
        for (int64_t l = 0; l < d; l++) s += ws->A[i * d + l] * ws->x_aug[l];
        ws->h[i] = coefficient(ws, 1 + i) + s;
    }
    memset(ws->g, 0, (d + 1) * sizeof(double));
    for (int64_t t = 0; t < ws->n_high; t++) {
        const int64_t *coords = high_term(ws, t);
        ws->c[t] = coefficient(ws, high_start + t) * monomial(ws->x_aug, coords, m);
        for (int64_t k = 0; k < m; k++) ws->g[coords[k]] += ws->c[t];
    }
}

/* Sum of c_I over the degree >= 3 terms containing both i and j, in term
   order from 0.0. */
static double pair_sum(const Workspace *ws, int64_t i, int64_t j)
{
    double s = 0.0;
    for (int64_t q = ws->high_ptr[i]; q < ws->high_ptr[i + 1]; q++) {
        const int64_t t = ws->high_index[q], *coords = high_term(ws, t);
        for (int64_t k = 0; k < ws->m; k++)
            if (coords[k] == j) {
                s += ws->c[t];
                break;
            }
    }
    return s;
}

/* Negate c_I for the terms containing k, one term at a time in term order,
   and subtract 2 * (old c_I) from g at each of the term's coordinates. */
static void negate_high(const Workspace *ws, int64_t k)
{
    for (int64_t q = ws->high_ptr[k]; q < ws->high_ptr[k + 1]; q++) {
        const int64_t t = ws->high_index[q], *coords = high_term(ws, t);
        const double old = ws->c[t];
        ws->c[t] = -old;
        for (int64_t l = 0; l < ws->m; l++) ws->g[coords[l]] -= 2.0 * old;
    }
}

int64_t flip_walk(const Workspace *ws, int64_t n, const int64_t *flips, const double *limits)
{
    const int64_t d = ws->d;
    double *x = ws->x_aug, *h = ws->h;
    int64_t accepted = 0;
    field_build(ws);
    for (int64_t t = 0; t < n; t++) {
        const int64_t i = flips[t];
        const double xi = x[i];
        double delta = -2.0 * xi * h[i];
        if (ws->n_high) delta -= 2.0 * ws->g[i];
        if (delta <= limits[t]) {
            const double *row = ws->A + i * d;
            for (int64_t l = 0; l < d; l++) h[l] -= 2.0 * xi * row[l];
            x[i] = -xi;
            if (ws->n_high) negate_high(ws, i);
            accepted++;
        }
    }
    return accepted;
}

int64_t swap_walk(const Workspace *ws, int64_t n, const int64_t *take_plus,
                  const int64_t *take_minus, const double *limits)
{
    const int64_t d = ws->d;
    const double *A = ws->A;
    double *x = ws->x_aug, *h = ws->h;
    int64_t plus[d], minus[d], n_plus = 0, n_minus = 0, accepted = 0;
    field_build(ws);
    for (int64_t i = 0; i < d; i++)
        if (x[i] == 1.0) plus[n_plus++] = i;
        else minus[n_minus++] = i;
    for (int64_t t = 0; t < n; t++) {
        const int64_t a = take_plus[t], b = take_minus[t];
        const int64_t i = plus[a], j = minus[b];   /* x_i = +1, x_j = -1 */
        double delta = 2.0 * (h[j] - h[i]) - 4.0 * A[i * d + j];
        if (ws->n_high) delta += 4.0 * pair_sum(ws, i, j) - 2.0 * (ws->g[i] + ws->g[j]);
        if (delta <= limits[t]) {
            plus[a] = j;
            minus[b] = i;
            const double *row_i = A + i * d, *row_j = A + j * d;
            for (int64_t l = 0; l < d; l++) h[l] = (h[l] - 2.0 * row_i[l]) + 2.0 * row_j[l];
            x[i] = -1.0;
            x[j] = 1.0;
            if (ws->n_high) {
                negate_high(ws, i);
                negate_high(ws, j);
            }
            accepted++;
        }
    }
    return accepted;
}

/* The summed fraction of paths over the limit u after each stage, as
   comex.walk_kernel.contamination_violation describes it: stage i maps z
   to (1 - b_i) z when x_i is nonzero (intervene) and to a_i (1 - z) + z
   otherwise, then adds count / n_paths in stage order. z starts as a copy
   of init_z and is updated in place, so each path loop reads only z, a_i
   and b_i; with restrict and the count as a branch the compiler vectorises
   it, and each element still gets the twin's operations in its order. */
double contamination_violation(const Contamination *c)
{
    const int64_t n = c->n_paths;
    const double u = c->u;
    double *restrict z = c->z, violation = 0.0;
    memcpy(z, c->init_z, n * sizeof(double));
    for (int64_t i = 0; i < c->d; i++) {
        const double *restrict a = c->rates_a + i * n, *restrict b = c->rates_b + i * n;
        int64_t count = 0;
        if (c->x[i] != 0.0)
            for (int64_t k = 0; k < n; k++) {
                z[k] = (1.0 - b[k]) * z[k];
                if (z[k] > u) count++;
            }
        else
            for (int64_t k = 0; k < n; k++) {
                z[k] = a[k] * (1.0 - z[k]) + z[k];
                if (z[k] > u) count++;
            }
        violation += (double)count / (double)n;
    }
    return violation;
}
