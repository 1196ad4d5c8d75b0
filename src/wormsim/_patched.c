/* The patched event loop, one block of uniforms per call: the block
 * contract that stochastic._run_patched drives, and whose Python twin is
 * stochastic._block.
 *
 * The two are statement for statement alike: the same float expressions
 * in the same order, log1p from libm (the function math.log1p calls),
 * and two uniforms per event.  This file is built with -O2
 * -fno-fast-math -ffp-contract=off, so that no expression is
 * reassociated or fused and every seeded run is bit-identical to
 * _block's; test_blocks_keep_lockstep compares the two after every
 * call.  Plain C, called through ctypes.
 *
 * st holds s, i, p, t and halt; it is read on entry and written back
 * on return.  par holds n, g, pb, g_n and g_pb.  The grid rows from
 * index gi on are filled as the run passes them.  Returns the next
 * unfilled grid index: n_pts once the run is over, in which case
 * st[4] is t if the run was absorbed and is left as it was otherwise.
 */

#include <math.h>
#include <stdint.h>

int64_t wormsim_patched_block(
    double *st, const double *par, int32_t is_fixed,
    const double *draws, int64_t n_draws,
    const double *grid, int64_t n_pts, int64_t gi,
    double *out_s, double *out_i, double *out_p)
{
    const double n = par[0], g = par[1], pb = par[2];
    const double g_n = par[3], g_pb = par[4];
    double s = st[0], i = st[1], p = st[2], t = st[3];
    double next_grid = grid[gi];
    int64_t k;

    for (k = 0; k + 1 < n_draws; k += 2) {
        const double u_hold = draws[k], u_event = draws[k + 1];
        const double unpatched = s + i;
        const double rate_infect = s * i / n;
        double rate_patch, total, t_next, u;

        if (is_fixed)
            rate_patch = unpatched >= pb ? g_pb : g * unpatched;
        else
            rate_patch = g_n * unpatched * p;
        total = rate_infect + rate_patch;
        if (total <= 0.0) {
            st[4] = t;  /* absorbed; state frozen */
            t_next = INFINITY;
        } else {
            t_next = t + -log1p(-u_hold) / total;
        }
        if (next_grid < t_next) {
            while (gi < n_pts && grid[gi] < t_next) {
                out_s[gi] = s;
                out_i[gi] = i;
                out_p[gi] = p;
                gi++;
            }
            if (gi == n_pts)
                break;
            next_grid = grid[gi];
        }
        t = t_next;
        u = u_event * total;
        if (u < rate_infect) {
            s -= 1.0;
            i += 1.0;
        } else {
            const double v = (u - rate_infect) / rate_patch * unpatched;
            if (v < i)
                i -= 1.0;
            else
                s -= 1.0;
            p += 1.0;
        }
    }
    st[0] = s;
    st[1] = i;
    st[2] = p;
    st[3] = t;
    return gi;
}
