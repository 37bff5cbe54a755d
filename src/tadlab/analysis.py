"""Executable certificates: gradient checks, stationarity, local minimality,
suboptimality gaps, and equilibrium statistics for random games."""

from __future__ import annotations

import numpy as np

from .core import brute_force_optimal, evaluate_policy, row_norms


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


#: ball samples evaluated per stacked call; 256 samples of d parameters
#: take 2 KiB * d, so the stacks stay far below 1 MB at the sizes tested
_CHUNK = 256
#: loss drop below which a ball sample does not count as an escape
SLACK = 1e-9
#: Monte-Carlo games drawn per array in `ne_count_expectation`
_NE_BATCH = 20000


def local_min_certificate(loss_and_grad, theta, radius, samples, rng):
    """Probabilistic local-minimality check by uniform ball sampling.

    True when no sampled perturbation within `radius` (in raw parameter
    coordinates, where gradient descent moves) drops the loss by more than
    `SLACK`. A False is a certified escape direction; a True is evidence at
    the stated sample count, not a proof.

    A [K, d] `theta` certifies K points and returns K bools. Then
    `loss_and_grad` must accept a [m, d] stack and return m losses, each
    from its own row alone. The points are handled in order; each draws its
    samples from `rng` in the same calls and order as a flat `theta` would,
    and stops drawing at its first escaping sample, so K points cost the
    generator what K sequential calls on it would.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    rng = np.random.default_rng(rng)
    theta = np.asarray(theta, dtype=float)
    if theta.ndim == 2:
        def losses(xs):
            return np.reshape(loss_and_grad(xs)[0], len(xs))
        points = theta
    else:
        def losses(xs):
            return np.array([loss_and_grad(x)[0] for x in xs])
        points = theta.ravel()[None]
    held = [_ball_holds(losses, x, base, radius, samples, rng)
            for x, base in zip(points, losses(points))]
    return np.array(held) if theta.ndim == 2 else held[0]


def _ball_holds(losses, theta, base, radius, samples, rng):
    """No escape among `samples` ball points around one theta; evaluated
    `_CHUNK` at a time, drawn one sample at a time."""
    for start in range(0, samples, _CHUNK):
        state = rng.bit_generator.state
        xs = _ball_points(theta, radius, min(_CHUNK, samples - start), rng)
        escaped = np.flatnonzero(losses(xs) < base - SLACK)
        if escaped.size:
            # leave the generator where a one-by-one search would stop
            rng.bit_generator.state = state
            _ball_points(theta, radius, escaped[0] + 1, rng)
            return False
    return True


def _ball_points(theta, radius, m, rng):
    """m uniform points in the radius ball around theta, one
    standard_normal(d) and one random() draw per point."""
    d = theta.size
    dirs = np.empty((m, d))
    r = np.empty(m)
    for j in range(m):
        dirs[j] = rng.standard_normal(d)
        r[j] = radius * rng.random() ** (1.0 / d)
    return theta + r[:, None] * (dirs / row_norms(dirs)[:, None])


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
