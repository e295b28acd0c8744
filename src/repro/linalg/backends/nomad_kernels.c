/* Compiled SGD inner loops for the "cext" kernel backend.
 *
 * Every function mirrors the reference Python core
 * (src/repro/linalg/backends/list_backend.py::sgd_core) operation for
 * operation: the equation-(11) step schedule s = alpha / (1 + beta * t^1.5)
 * with the per-rating counter incremented in place, an in-order scalar dot
 * product for the prediction, and the simultaneous update
 *
 *     w[d] <- (1 - s*lambda) * w_old[d] - s*g * h[d]
 *     h[d] <- (1 - s*lambda) * h[d]     - s*g * w_old[d]
 *
 * computed from the OLD row values.  The build deliberately disables
 * floating-point contraction (-ffp-contract=off) so results stay
 * per-operation IEEE-identical to the interpreted backends; the
 * cross-backend equivalence suite pins all backends at atol=1e-10.
 *
 * All matrices are dense row-major float64 with row stride k; index
 * arrays are int64.  Functions return the number of updates applied.
 */

#include <math.h>
#include <stdint.h>

/* Loss-id dispatch for the column-with-loss variant (NOMAD section 6).
 * Ids are assigned by the Python wrapper: 0 = square, 1 = absolute,
 * 2 = huber(param = delta).  Unknown losses never reach C — the wrapper
 * falls back to the interpreted kernel for them. */
static double loss_gradient(int64_t loss_id, double param, double rating,
                            double prediction) {
    double residual = prediction - rating;
    switch (loss_id) {
    case 1: /* absolute: subgradient at zero residual is 0 */
        if (residual > 0.0)
            return 1.0;
        if (residual < 0.0)
            return -1.0;
        return 0.0;
    case 2: /* huber: clip the residual at +-delta */
        if (residual > param)
            return param;
        if (residual < -param)
            return -param;
        return residual;
    default: /* square */
        return residual;
    }
}

/* One column (NOMAD token work): all local ratings of one item against a
 * shared h_col vector, scheduled step, arbitrary built-in loss. */
int64_t nomad_process_column(double *w, double *h_col, const int64_t *users,
                             const double *ratings, int64_t *counts,
                             int64_t n, int64_t k, double alpha, double beta,
                             double lambda_, int64_t loss_id,
                             double loss_param) {
    for (int64_t i = 0; i < n; i++) {
        double *w_row = w + users[i] * k;
        int64_t t = counts[i];
        double step = alpha / (1.0 + beta * pow((double)t, 1.5));
        counts[i] = t + 1;
        double decay = 1.0 - step * lambda_;
        double prediction = 0.0;
        for (int64_t d = 0; d < k; d++)
            prediction += w_row[d] * h_col[d];
        double gradient = loss_gradient(loss_id, loss_param, ratings[i],
                                        prediction);
        double scaled_error = step * gradient;
        for (int64_t d = 0; d < k; d++) {
            double w_value = w_row[d];
            w_row[d] = decay * w_value - scaled_error * h_col[d];
            h_col[d] = decay * h_col[d] - scaled_error * w_value;
        }
    }
    return n;
}

/* Fused column batch: several tokens' columns in one native call.  Column
 * c touches h column h_cols[c] and the per-column users/ratings/counts
 * arrays; columns run in order, so the result is identical to n_cols
 * sequential nomad_process_column calls (square loss). */
int64_t nomad_process_column_batch(double *w, double *const *h_cols,
                                   const int64_t *const *users_cols,
                                   const double *const *ratings_cols,
                                   int64_t *const *counts_cols,
                                   const int64_t *lens, int64_t n_cols,
                                   int64_t k, double alpha, double beta,
                                   double lambda_) {
    int64_t applied = 0;
    for (int64_t c = 0; c < n_cols; c++)
        applied += nomad_process_column(w, h_cols[c], users_cols[c],
                                        ratings_cols[c], counts_cols[c],
                                        lens[c], k, alpha, beta, lambda_,
                                        0, 0.0);
    return applied;
}

/* Shard-indexed burst: token t is item items[t], its factor row is
 * h + h_rows[t] * k, and its local ratings are the CSC range
 * ptr[items[t]] .. ptr[items[t] + 1] of the shard's users/ratings and the
 * aligned counts array.  Tokens run in order (items may repeat), so the
 * result is identical to n_items sequential nomad_process_column calls
 * (square loss).  Item ids are validated by the caller. */
int64_t nomad_process_items(double *w, double *h, const int64_t *h_rows,
                            const int64_t *items, const int64_t *ptr,
                            const int64_t *users, const double *ratings,
                            int64_t *counts, int64_t n_items, int64_t k,
                            double alpha, double beta, double lambda_) {
    int64_t applied = 0;
    for (int64_t t = 0; t < n_items; t++) {
        int64_t lo = ptr[items[t]];
        int64_t hi = ptr[items[t] + 1];
        applied += nomad_process_column(w, h + h_rows[t] * k, users + lo,
                                        ratings + lo, counts + lo, hi - lo,
                                        k, alpha, beta, lambda_, 0, 0.0);
    }
    return applied;
}

/* Entries variant: an arbitrary list of observed (i, j) entries visited in
 * a given order.  scheduled != 0 uses the equation-(11) per-rating counter
 * schedule (alpha/beta, counts mutated); scheduled == 0 uses the single
 * constant step (DSGD/DSGD++ epochs) and never touches counts. */
int64_t nomad_process_entries(double *w, double *h, const int64_t *rows,
                              const int64_t *cols, const double *ratings,
                              int64_t *counts, const int64_t *order,
                              int64_t n, int64_t k, double alpha, double beta,
                              double lambda_, double step,
                              int64_t scheduled) {
    double decay = 1.0 - step * lambda_;
    double scaled_step = step;
    for (int64_t i = 0; i < n; i++) {
        int64_t idx = order[i];
        double *w_row = w + rows[idx] * k;
        double *h_row = h + cols[idx] * k;
        if (scheduled) {
            int64_t t = counts[idx];
            scaled_step = alpha / (1.0 + beta * pow((double)t, 1.5));
            counts[idx] = t + 1;
            decay = 1.0 - scaled_step * lambda_;
        }
        double prediction = 0.0;
        for (int64_t d = 0; d < k; d++)
            prediction += w_row[d] * h_row[d];
        double scaled_error = scaled_step * (prediction - ratings[idx]);
        for (int64_t d = 0; d < k; d++) {
            double w_value = w_row[d];
            w_row[d] = decay * w_value - scaled_error * h_row[d];
            h_row[d] = decay * h_row[d] - scaled_error * w_value;
        }
    }
    return n;
}
