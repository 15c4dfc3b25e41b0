/* Max-log BCJR recursion: the time loop of repro.strider.bcjr.max_log_bcjr.
 *
 * Step t turns the flat row ab[t] = [alpha_t | beta_{T-t}] (2*ns values)
 * into ab[t+1], exactly as the numpy reference loop does:
 *
 *     cand = prev[gather]; cand += step_gamma[t]
 *     row = np.maximum.reduce(cand, axis=2, initial=NEG)
 *     row -= np.maximum.reduce(row, axis=1, keepdims=True)
 *
 * Adds, subtracts and max are exactly rounded, so finite inputs give the
 * same bits as numpy.  Non-finite inputs need numpy's NaN rules:
 *   - an add or subtract returns a NaN operand as it is, the first one when
 *     both are NaN (what the x86 and ARM instructions do);
 *   - np.maximum keeps the first NaN it meets, and returns b on a tie;
 *   - np.maximum.reduce seeds a SIMD accumulator with its first value and
 *     folds whole vectors of `lanes` values before a scalar tail; the
 *     vector part returns numpy's one canonical NaN (`reduce_nan`) when it
 *     holds any NaN.  `lanes` is 0 when numpy reduces without SIMD.
 * The caller measures `lanes` and `reduce_nan` from numpy itself.
 */
#include <math.h>
#include <stdint.h>

#define NEG (-1e30)

static double add(double a, double b)
{
    return isnan(a) ? a : isnan(b) ? b : a + b;
}

static double sub(double a, double b)
{
    return isnan(a) ? a : isnan(b) ? b : a - b;
}

static double max2(double a, double b)
{
    return isnan(a) ? a : a > b ? a : b;
}

static double reduce_max(double acc, const double *x, int64_t n,
                         int64_t lanes, double reduce_nan)
{
    int64_t i = 0;
    if (lanes > 0) {
        int64_t vec = n / lanes * lanes;
        int any_nan = isnan(acc);
        for (; i < vec; i++) {
            any_nan |= isnan(x[i]);
            acc = max2(acc, x[i]);
        }
        if (any_nan)
            acc = reduce_nan;
    }
    for (; i < n; i++)
        acc = max2(acc, x[i]);
    return acc;
}

void bcjr_recursion(int64_t t_len, int64_t ns, const int64_t *gather,
                    const double *step_gamma, double *ab,
                    int64_t lanes, double reduce_nan)
{
    const int64_t width = 2 * ns;
    double cand[2];
    for (int64_t t = 0; t < t_len; t++) {
        const double *prev = ab + t * width;
        const double *metrics = step_gamma + t * 2 * width;
        double *row = ab + (t + 1) * width;
        for (int64_t s = 0; s < width; s++) {
            cand[0] = add(prev[gather[2 * s]], metrics[2 * s]);
            cand[1] = add(prev[gather[2 * s + 1]], metrics[2 * s + 1]);
            row[s] = reduce_max(NEG, cand, 2, lanes, reduce_nan);
        }
        for (double *half = row; half < row + width; half += ns) {
            double top = reduce_max(half[0], half + 1, ns - 1, lanes,
                                    reduce_nan);
            for (int64_t s = 0; s < ns; s++)
                half[s] = sub(half[s], top);
        }
    }
}
