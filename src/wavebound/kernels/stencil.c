/* Compiled three-level stencil update, loaded through ctypes.

   Must stay arithmetically identical to the numpy reference backend: the
   same operations in the same order, and no fused multiply-add (setup.py
   builds it with -ffp-contract=off), so both backends give bit-identical
   fields. */
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
