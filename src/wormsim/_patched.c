/* The patched event loop, one whole run per call, driven by
 * stochastic._run_patched; stochastic._block is its Python twin.
 *
 * The two are statement for statement alike: the same float expressions
 * in the same order, log1p from libm (the function math.log1p calls),
 * and two uniforms per event, drawn through numpy's
 * bit_generator.ctypes.next_double and .state, which Generator.random
 * fills through.  This file is built with -O2 -fno-fast-math
 * -ffp-contract=off, so that no expression is reassociated or fused and
 * every seeded run is bit-identical to _block's; test_blocks_keep_lockstep
 * compares the two.  Plain C, called through ctypes.
 *
 * st holds s, i, p, t and halt; it is read on entry and written back on
 * return, st[4] as t if the run was absorbed and left as it was otherwise.
 * n, g and pb are N, gamma and p_bar.  Every grid row is filled.
 */

#include <math.h>
#include <stdint.h>

void wormsim_patched_block(
    double *st, double n, double g, double pb, int32_t is_fixed,
    double (*next_double)(void *), void *state,
    const double *grid, int64_t n_pts,
    double *out_s, double *out_i, double *out_p)
{
    const double g_n = g / n, g_pb = g * pb;
    double s = st[0], i = st[1], p = st[2], t = st[3];
    int64_t gi = 0;

    for (;;) {
        const double u_hold = next_double(state);
        const double u_event = next_double(state);
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
        while (gi < n_pts && grid[gi] < t_next) {
            out_s[gi] = s;
            out_i[gi] = i;
            out_p[gi] = p;
            gi++;
        }
        if (gi == n_pts)
            break;
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
}
