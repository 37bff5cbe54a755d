"""Executable certificates: gradient checks, stationarity, exact local
minimality on one-step value-decomposition points, suboptimality gaps, and
equilibrium statistics for random games. `local_min_certificate`, a ball
sampler that proves nothing, stays only because the benchmark's tracer
names it."""

from __future__ import annotations

import numpy as np

from .constructions import restricted_minimizer
from .core import brute_force_optimal, evaluate_policy, greedy_codes, row_norms
from .learners import uniform_dist, vd_objective


#: central finite-difference step of `grad_check`
FD_STEP = 1e-6


def grad_check(loss_and_grad, theta):
    """Max per-coordinate relative error of the analytic gradient against
    central finite differences of step `FD_STEP`."""
    theta = np.asarray(theta, dtype=float).ravel()
    _, grad = loss_and_grad(theta)
    grad = np.asarray(grad, dtype=float).ravel()
    fd = np.empty_like(grad)
    for i in range(theta.size):
        bump = np.zeros_like(theta)
        bump[i] = FD_STEP
        up, _ = loss_and_grad(theta + bump)
        dn, _ = loss_and_grad(theta - bump)
        fd[i] = (up - dn) / (2.0 * FD_STEP)
    scale = np.maximum(1.0, np.maximum(np.abs(grad), np.abs(fd)))
    return float(np.max(np.abs(grad - fd) / scale))


def stationarity_certificate(loss_and_grad, theta, tol):
    """(gradient norm below tol?, the norm itself)."""
    _, grad = loss_and_grad(np.asarray(theta, dtype=float).ravel())
    norm = float(np.linalg.norm(np.asarray(grad, dtype=float).ravel()))
    return norm < tol, norm


#: loss drop below which a ball sample does not count as an escape, and the
#: excess below which `duplex_trap_certificate` certifies a local minimum
SLACK = 1e-9
#: Monte-Carlo games drawn per array in `ne_count_expectation`
_NE_BATCH = 20000


def local_min_certificate(loss_and_grad, theta, radius, samples, rng):
    """Probabilistic local-minimality check by uniform ball sampling.

    True when no sampled perturbation within `radius` (in raw parameter
    coordinates, where gradient descent moves) drops the loss by more than
    `SLACK`. A False is a certified escape direction; a True is evidence at
    the stated sample count, not a proof. The `samples` directions and radii
    are drawn in one call each; the points are evaluated one by one. A
    radius that is not positive, NaN included, raises ValueError.
    """
    if not radius > 0:
        raise ValueError(f"radius must be positive, got {radius}")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(rng)
    theta = np.asarray(theta, dtype=float).ravel()
    dirs = rng.standard_normal((samples, theta.size))
    r = radius * rng.random(samples) ** (1.0 / theta.size)
    xs = theta + (r / row_norms(dirs))[:, None] * dirs
    base = loss_and_grad(theta)[0]
    return all(loss_and_grad(x)[0] >= base - SLACK for x in xs)


def duplex_trap_certificate(params, model):
    """Exact local-minimality certificate of value-decomposition `params` on
    a one-step model: (margin, radius, excess).

    The margin m is the smallest gap between an agent's best and
    second-best local value. Every point whose local values lie within
    radius m / 2 of `params`' (sup norm), whatever its mixer parameters,
    keeps each agent's argmax, so its mixed table has the greedy action a*
    among its argmaxes: vdn sums the local values, monotonic weights them
    positively, and each duplex advantage term is <= 0 and 0 at a*. Its
    uniform-dist TD loss is then at least the least-squares floor of
    `restricted_minimizer` at a*. `excess` is the loss at `params` minus
    that floor, so with m > 0 `params` is a local minimum up to `excess` on
    that whole cylinder.
    """
    if model.horizon != 1:
        raise ValueError(f"the certificate needs a one-step model, not horizon {model.horizon}")
    top = np.sort(params.q_local, axis=-1)
    margin = float((top[..., -1] - top[..., -2]).min())
    fit = np.stack([restricted_minimizer(row, None, code)
                    for row, code in zip(model.reward, greedy_codes(params.q_local))])
    floor = 0.5 * np.sum(uniform_dist(model) * (fit - model.reward) ** 2)
    loss = vd_objective(params, model)(params.pack())[0]
    return margin, margin / 2, float(loss - floor)


def suboptimality_gap(model, policy):
    """Optimal return minus the policy's return, via the oracle
    `brute_force_optimal` (policy iteration to its default advantage
    tolerance)."""
    best, _ = brute_force_optimal(model)
    return best - evaluate_policy(model, policy)


def ne_count_expectation(k, trials, rng):
    """Monte-Carlo (mean, stderr) of the pure-equilibrium count in iid
    continuous k x k common-payoff games.

    A cell is an equilibrium exactly when it is the maximum of its row and
    column, so the exact expectation is k**2 / (2k - 1).
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(rng)
    counts = np.empty(trials)
    done = 0
    while done < trials:
        b = min(_NE_BATCH, trials - done)
        x = rng.random((b, k, k))
        row_max = x.max(axis=2, keepdims=True)
        col_max = x.max(axis=1, keepdims=True)
        counts[done : done + b] = ((x >= row_max) & (x >= col_max)).sum(axis=(1, 2))
        done += b
    mean = float(counts.mean())
    stderr = float(counts.std(ddof=1) / np.sqrt(trials)) if trials > 1 else 0.0
    return mean, stderr


def ne_count_exact(k):
    """Closed-form expected pure-equilibrium count for iid continuous games."""
    return k * k / (2.0 * k - 1.0)
