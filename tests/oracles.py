"""Independent slow oracles shared by the test modules."""

import numpy as np

from tadlab.core import MAX_SWEEPS, optimal_values


def level_scan_oracle(target, weights, code, grid=200001):
    """Best fit with a prescribed top entry, by scanning the pooled level.

    The fit is min(target, v) with the prescribed entry at v; the scan walks a
    fine grid over v and refines twice around the best coarse point. Entirely
    independent of the pooling path it is used to check.
    """
    flat = np.asarray(target, dtype=float).ravel()
    if weights is None:
        w = np.full(flat.size, 1.0 / flat.size)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        w = w / w.sum()
    lo, hi = flat.min(), flat.max()
    vs = np.linspace(lo, hi, grid)
    for _ in range(3):
        fitted = np.minimum(flat[None, :], vs[:, None])
        fitted[:, code] = vs
        losses = np.sum(w[None, :] * (fitted - flat[None, :]) ** 2, axis=1)
        i = int(np.argmin(losses))
        lo = vs[max(i - 1, 0)]
        hi = vs[min(i + 1, vs.size - 1)]
        best = vs[i]
        vs = np.linspace(lo, hi, grid)
    out = np.minimum(flat, best)
    out[code] = best
    return out.reshape(np.shape(target))


def fit_loss(fitted, target, weights):
    flat = np.asarray(fitted, dtype=float).ravel()
    tf = np.asarray(target, dtype=float).ravel()
    if weights is None:
        w = np.full(flat.size, 1.0 / flat.size)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        w = w / w.sum()
    return 0.5 * float(np.sum(w * (flat - tf) ** 2))


def vi_oracle(model, tol=1e-10, max_iter=MAX_SWEEPS):
    """Optimal action values [S, M] plus per-sweep sup-norm residuals, by
    synchronous value iteration from zero, stopped at a sup-norm change
    below `tol` (the solver `optimal_values` ran before policy iteration).

    Its values are within tol * gamma / (1 - gamma) of the optimum; it is
    the reference the layered transform solver, also value iteration, is
    checked against sweep for sweep. Episodic models go to the exact
    backward induction of `optimal_values`.
    """
    if model.horizon is not None:
        return optimal_values(model, tol, max_iter)
    s = model.n_states
    v = np.zeros(s)
    residuals = []
    for _ in range(max_iter):
        q = model.reward + model.gamma * (model.transition @ v)
        v_new = q.max(axis=1)
        res = float(np.max(np.abs(v_new - v)))
        residuals.append(res)
        v = v_new
        if res < tol:
            return q, residuals
    raise RuntimeError(f"value iteration did not reach tol={tol} in {max_iter} sweeps")
