/* Compiled three-level stencil update and snapshot pass, loaded through ctypes.

   Must stay arithmetically identical to the numpy reference backend: the
   same operations in the same order, divisions kept as divisions, and no
   fused multiply-add (setup.py builds it with -ffp-contract=off), so both
   backends give bit-identical results. */
#include <math.h>
#include <stddef.h>
#include <stdint.h>
#include <string.h>

/* Whether x has a nonzero bit pattern: -0.0, subnormals, NaN and inf do. */
static int live(double x)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    return bits != 0;
}

/* On x86-64, step is compiled twice, for AVX-512 and for the baseline, and
   the dynamic loader picks one copy for this CPU when the library is
   loaded. Both copies compile the same expression under -ffp-contract=off,
   so they give the same bits. The wide copy matters where the field holds
   subnormals (the scheme's precursor ahead of the front), which slow every
   instruction that reads one. Elsewhere step is compiled once. */
#if defined(__x86_64__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define CLONED_FOR_AVX512 __attribute__((target_clones("avx512f", "default")))
#endif
#endif
#ifndef CLONED_FOR_AVX512
#define CLONED_FOR_AVX512
#endif

/* The step at the nodes [lo, end) of the interior. */
CLONED_FOR_AVX512
static void step(double *restrict c, const double *restrict a,
                 const double *restrict b, ptrdiff_t lo, ptrdiff_t end, double lam)
{
    for (ptrdiff_t j = lo; j < end; j++)
        c[j] = 2.0 * b[j] - a[j] + lam * (b[j + 1] - 2.0 * b[j] + b[j - 1]);
}

static void zero(double *c, ptrdiff_t lo, ptrdiff_t end)
{
    for (ptrdiff_t j = lo; j < end; j++)
        c[j] = 0.0;
}

/* Advance nsteps steps through the ring (a, b, c) of n-node levels: step s
   reads the previous and current levels and writes the next one, with the
   edge values 0 and right[s] (zero when NULL). After the call the final
   (previous, current) pair is ring[nsteps % 3], ring[(nsteps + 1) % 3].

   Only the live band is stepped. Where both levels hold +0.0 at a node and
   its neighbours, the full sweep writes 2*0 - 0 + lam*0 = +0.0 for every
   finite lam, so if a and b are live only in [lo, hi], step s changes
   nothing outside [lo - (s + 1), hi + (s + 1)]. The band is chosen by bit
   pattern, so a -0.0 or a subnormal inside it is stepped exactly as the full
   sweep steps it. c starts uninitialised: it is zeroed outside the first
   band, and every later level the ring reuses is +0.0 outside the band. */
void advance_steps(double *a, double *b, double *c, ptrdiff_t n,
                   const double *lam2, ptrdiff_t nsteps, const double *right)
{
    ptrdiff_t lo = 0, hi = n - 1;
    while (lo < n && !live(a[lo]) && !live(b[lo]))
        lo++;
    while (hi > lo && !live(a[hi]) && !live(b[hi]))
        hi--;
    if (right) {
        /* the right edge value turns live after the first step */
        hi = n - 1;
        lo = lo < hi ? lo : hi;
    }
    /* with nothing live (lo == n) the band stays empty */
    for (ptrdiff_t s = 0; s < nsteps; s++) {
        if (lo <= hi) {
            lo--;
            hi++;
        }
        ptrdiff_t j0 = lo > 1 ? lo : 1, end = hi < n - 2 ? hi + 1 : n - 1;
        if (s == 0) {
            zero(c, 1, j0);
            zero(c, end > j0 ? end : j0, n - 1);
        }
        step(c, a, b, j0, end, lam2[s]);
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

/* Whether every value of x[0..n) is finite: none has all exponent bits set. */
static int all_finite(const double *x, ptrdiff_t n)
{
    const uint64_t exponent = 0x7ff0000000000000u;
    uint64_t bad = 0;
    for (ptrdiff_t j = 0; j < n; j++) {
        uint64_t bits;
        memcpy(&bits, &x[j], sizeof bits);
        bad |= (bits & exponent) == exponent;
    }
    return !bad;
}

/* v = the cumulative trapezoid of u over n >= 3 nodes, as grids.cumtrapz
   computes it (np.cumsum: the first term copied, then sequential adds). */
static void integrate(const double *u, double *v, ptrdiff_t n, double h)
{
    double half_h = 0.5 * h;
    double acc = half_h * (u[1] + u[0]);
    v[0] = 0.0;
    v[1] = acc;
    for (ptrdiff_t j = 2; j < n; j++) {
        acc += half_h * (u[j] + u[j - 1]);
        v[j] = acc;
    }
}

/* One snapshot level in one pass over n >= 3 nodes. un is written with the
   full-width step from (up, uc) at lam, edge values 0, and vn with its
   antiderivative; vp and vc are those of up and uc. norms[s] becomes the
   composite trapezoid of the s-th square listed at squares(), from its
   numpy sum as grids.trapz_sq computes it. extent[0] and extent[1] are the
   first and last node where uc != 0.0 (NaN counts, -0.0 does not), or n
   and -1 when there is none. Returns 1 when un is finite, else 0. */
static int snapshot_level(const double *up, const double *uc, double *un,
                          const double *vp, const double *vc, double *vn, ptrdiff_t n,
                          double lam, double h, double dt, double *norms,
                          ptrdiff_t *extent)
{
    step(un, up, uc, 1, n - 1, lam);
    un[0] = 0.0;
    un[n - 1] = 0.0;
    ptrdiff_t first = 0, last = n - 1;
    while (first < n && uc[first] == 0.0)
        first++;
    while (last > first && uc[last] == 0.0)
        last--;
    extent[0] = first;
    extent[1] = first < n ? last : -1;

    integrate(un, vn, n, h);
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
    /* a non-finite value in un makes the running sum non-finite from there
       on, so a finite last antiderivative value means un is finite */
    return isfinite(vn[n - 1]) || all_finite(un, n);
}

/* k >= 1 consecutive snapshot levels in one call. Of the levels
   (up, uc, next_0, next_1, ...), level i steps from the i-th and (i+1)-th
   to next_i at lam[i] and takes the snapshot at the (i+1)-th, as
   snapshot_level does. The new levels cycle through a ring of
   r = min(k, 3) levels of n nodes at the start of work, next_i in slot
   i % 3; then come three slots of n nodes for the antiderivatives, which
   are integrated here and cycle likewise, up's in slot 0; then the norms,
   six per level. Level i's extent is extents[2i], [2i + 1]. The inputs are
   never written. The pass stops after the first level whose step is not
   finite and returns the number of levels whose step is: k when every step
   is finite, else the index of the one that is not. */
ptrdiff_t snapshot_run(const double *up, const double *uc, ptrdiff_t n, const double *lam,
                       ptrdiff_t k, double h, double dt, double *work, ptrdiff_t *extents)
{
    ptrdiff_t r = k < 3 ? k : 3;
    double *u_ring = work, *v_ring = work + r * n, *norms = work + (r + 3) * n;
    integrate(up, v_ring, n, h);
    integrate(uc, v_ring + n, n, h);
    for (ptrdiff_t i = 0; i < k; i++) {
        double *un = u_ring + (i % 3) * n;
        const double *vp = v_ring + (i % 3) * n, *vc = v_ring + ((i + 1) % 3) * n;
        double *vn = v_ring + ((i + 2) % 3) * n;
        if (!snapshot_level(up, uc, un, vp, vc, vn, n, lam[i], h, dt, norms + NSUMS * i,
                            extents + 2 * i))
            return i;
        up = uc;
        uc = un;
    }
    return k;
}
