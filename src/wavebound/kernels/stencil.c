/* Compiled three-level stencil update and snapshot pass, loaded through ctypes.

   Must stay arithmetically identical to the numpy reference backend: the
   same operations in the same order, divisions kept as divisions, and no
   fused multiply-add (setup.py builds it with -ffp-contract=off), so both
   backends give bit-identical results. */
#include <stddef.h>

static void step(double *restrict c, const double *restrict a,
                 const double *restrict b, ptrdiff_t n, double lam)
{
    for (ptrdiff_t j = 1; j < n - 1; j++)
        c[j] = 2.0 * b[j] - a[j] + lam * (b[j + 1] - 2.0 * b[j] + b[j - 1]);
}

/* Advance nsteps steps through the ring (a, b, c) of n-node levels: step s
   reads the previous and current levels and writes the next one, with the
   edge values 0 and right[s] (zero when NULL). After the call the final
   (previous, current) pair is ring[nsteps % 3], ring[(nsteps + 1) % 3]. */
void advance_steps(double *a, double *b, double *c, ptrdiff_t n,
                   const double *lam2, ptrdiff_t nsteps, const double *right)
{
    for (ptrdiff_t s = 0; s < nsteps; s++) {
        step(c, a, b, n, lam2[s]);
        c[0] = 0.0;
        c[n - 1] = right ? right[s] : 0.0;
        double *t = a;
        a = b;
        b = c;
        c = t;
    }
}

enum { NSUMS = 6, LEAF = 128 };

/* The three levels of a snapshot and their antiderivatives. */
struct snapshot {
    const double *up, *uc, *un, *vp, *vc, *vn;
    ptrdiff_t n;
    double two_h, two_dt;
};

/* The squares involving D at a grid edge node, where D is zero. */
static void edge_squares(double sq[NSUMS][LEAF], const double *uc, ptrdiff_t i)
{
    double rec = 0.0 - uc[i];
    sq[1][i] = 0.0;
    sq[2][i] = 0.0;
    sq[3][i] = rec * rec;
}

/* The six summands at nodes [lo, lo + m), 3 <= m <= LEAF: sq[s][i] is the square
   at node lo + i of u_curr, D u_curr, D v_curr, D v_curr - u_curr, u_t and
   v_t, where D is the centered difference (zero at the grid's edge nodes)
   and the time derivatives are centered across the levels. */
static void squares(const struct snapshot *f, ptrdiff_t lo, ptrdiff_t m,
                    double sq[NSUMS][LEAF])
{
    const double *up = f->up + lo, *uc = f->uc + lo, *un = f->un + lo;
    const double *vp = f->vp + lo, *vc = f->vc + lo, *vn = f->vn + lo;
    for (ptrdiff_t i = 0; i < m; i++) {
        double ut = (un[i] - up[i]) / f->two_dt;
        double vt = (vn[i] - vp[i]) / f->two_dt;
        sq[0][i] = uc[i] * uc[i];
        sq[4][i] = ut * ut;
        sq[5][i] = vt * vt;
    }
    ptrdiff_t first = lo == 0, end = lo + m == f->n ? m - 1 : m;
    for (ptrdiff_t i = first; i < end; i++) {
        double du = (uc[i + 1] - uc[i - 1]) / f->two_h;
        double dv = (vc[i + 1] - vc[i - 1]) / f->two_h;
        double rec = dv - uc[i];
        sq[1][i] = du * du;
        sq[2][i] = dv * dv;
        sq[3][i] = rec * rec;
    }
    if (first)
        edge_squares(sq, uc, 0);
    if (end < m)
        edge_squares(sq, uc, m - 1);
}

/* numpy's pairwise-sum leaf for m <= LEAF terms: sequential below 8 terms,
   else 8 accumulators combined as a tree and the remainder added. */
static double leaf_sum(const double *x, ptrdiff_t m)
{
    double res = 0.0;
    if (m < 8) {
        for (ptrdiff_t i = 0; i < m; i++)
            res += x[i];
        return res;
    }
    double r[8];
    for (int k = 0; k < 8; k++)
        r[k] = x[k];
    ptrdiff_t i;
    for (i = 8; i < m - (m % 8); i += 8)
        for (int k = 0; k < 8; k++)
            r[k] += x[i + k];
    res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; i < m; i++)
        res += x[i];
    return res;
}

/* numpy's pairwise summation of nodes [lo, lo + m), for the six sums at
   once: a leaf up to LEAF terms, else split at m/2 rounded down to a
   multiple of 8. np.sum of a contiguous float64 array is 0.0 + this. */
static void pairwise(const struct snapshot *f, ptrdiff_t lo, ptrdiff_t m, double res[NSUMS])
{
    if (m <= LEAF) {
        double sq[NSUMS][LEAF];
        squares(f, lo, m, sq);
        for (int s = 0; s < NSUMS; s++)
            res[s] = leaf_sum(sq[s], m);
        return;
    }
    ptrdiff_t m2 = m / 2;
    m2 -= m2 % 8;
    double right[NSUMS];
    pairwise(f, lo, m2, res);
    pairwise(f, lo + m2, m - m2, right);
    for (int s = 0; s < NSUMS; s++)
        res[s] += right[s];
}

/* One snapshot's diagnostics in one pass over n >= 3 nodes: vn becomes the
   cumulative trapezoid of un (np.cumsum: the first term copied, then
   sequential adds), and norms[s] the composite trapezoid of the s-th square
   listed at squares(), from its numpy sum as grids.trapz_sq computes it. */
void snapshot_norms(const double *up, const double *uc, const double *un,
                    const double *vp, const double *vc, double *vn, ptrdiff_t n,
                    double h, double dt, double *norms)
{
    double half_h = 0.5 * h;
    double acc = half_h * (un[1] + un[0]);
    vn[0] = 0.0;
    vn[1] = acc;
    for (ptrdiff_t j = 2; j < n; j++) {
        acc += half_h * (un[j] + un[j - 1]);
        vn[j] = acc;
    }
    struct snapshot f = {up, uc, un, vp, vc, vn, n, 2.0 * h, 2.0 * dt};
    double res[NSUMS];
    pairwise(&f, 0, n, res);
    /* the fields at the edge nodes 0 and z, where D is zero */
    ptrdiff_t z = n - 1;
    double e0[NSUMS] = {uc[0], 0.0, 0.0, 0.0 - uc[0],
                        (un[0] - up[0]) / f.two_dt, (vn[0] - vp[0]) / f.two_dt};
    double e1[NSUMS] = {uc[z], 0.0, 0.0, 0.0 - uc[z],
                        (un[z] - up[z]) / f.two_dt, (vn[z] - vp[z]) / f.two_dt};
    for (int s = 0; s < NSUMS; s++)
        norms[s] = h * (((0.0 + res[s]) - 0.5 * e0[s] * e0[s]) - 0.5 * e1[s] * e1[s]);
}
