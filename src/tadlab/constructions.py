"""Concrete games and counterexample constructions.

Built-in payoff tables are stored row-major with rows indexed by agent 0 and
columns by agent 1. The counterexample side builds diagonal payoff tensors
whose suffix means strictly undercut the next diagonal entry; fitting such a
tensor under a prescribed greedy action pins the fit at the pooled suffix
mean, which is what traps TD learners with decomposed values in suboptimal
greedy policies.
"""

from __future__ import annotations

import numpy as np

from .core import Mmdp, joint_code, matrix_game
from .learners import duplex_decompose

TABLE1 = [
    [10.0, -30.0, -30.0],
    [-30.0, 5.0, -30.0],
    [-30.0, -30.0, 1.0],
]

MATGAME2 = [
    [-20.0, 10.0],
    [10.0, 9.0],
]

MULTITASK_MATRICES = {
    1: [
        [10, -10, -10, -10, -10],
        [-10, 9, 0, 0, 0],
        [-10, 0, 9, 0, 0],
        [-10, 0, 0, 9, 0],
        [-10, 0, 0, 0, 9],
    ],
    2: [
        [10, -10, 10, -10, 10],
        [-10, 10, -10, 10, -10],
        [10, -10, 10, -10, 10],
        [-10, 10, -10, 10, -10],
        [10, -10, 10, -10, 10],
    ],
    3: [
        [-20, -20, -20, -20, 10],
        [-20, -20, -20, 10, 9],
        [-20, -20, 10, 9, 9],
        [-20, 10, 9, 9, 9],
        [10, 9, 9, 9, 9],
    ],
    4: [
        [-20, -20, -20, -20, 10],
        [-20, -20, -20, 10, 9],
        [-20, -20, 10, 9, 8],
        [-20, 10, 9, 8, 7],
        [10, 9, 8, 7, 6],
    ],
    5: [
        [-20, -15, -10, -5, 6],
        [-20, -15, -10, 7, 5],
        [-20, -15, 8, 6, 4],
        [-20, 9, 7, 5, 3],
        [10, 8, 6, 4, 2],
    ],
    6: [
        [0.8, -16.0, -5.0, -10.9, -3.7],
        [-9.2, -4.2, 7.3, 9.6, -3.0],
        [-20.0, -18.1, 0.2, -4.3, 9.0],
        [-14.9, -2.0, -17.7, -17.6, -0.8],
        [3.8, 10.0, 7.5, 9.2, -10.7],
    ],
    7: [
        [-14.4, -15.8, 1.5, -5.4, 10.0],
        [-13.2, 5.8, -8.7, -2.2, -18.2],
        [-5.9, -19.0, -0.7, -2.0, -19.5],
        [0.8, 4.7, -14.8, 2.5, -4.1],
        [-11.3, -8.2, -20.0, -17.3, -17.6],
    ],
    8: [
        [-1.4, -19.2, 7.2, -5.5, 7.4],
        [-18.5, -20.0, -14.4, -17.6, -5.1],
        [3.6, 5.5, 10.0, -13.3, -4.9],
        [9.8, -12.3, 0.6, -16.5, -13.0],
        [-11.8, -20.0, -2.4, 7.1, -2.3],
    ],
    9: [
        [-4.5, -5.2, -8.4, -8.9, 5.5],
        [-12.4, -9.5, 8.8, 5.4, 4.4],
        [-4.6, 1.3, 5.5, 7.3, -6.8],
        [9.0, -18.7, -18.2, -13.7, -8.2],
        [2.2, -9.1, 10.0, 7.1, -20.0],
    ],
    10: [
        [-8.4, -1.8, -20.0, 7.3, -3.0],
        [-8.7, 1.7, 4.8, 2.0, -7.8],
        [-13.3, -3.2, 0.7, -1.8, -10.7],
        [9.8, -12.3, 0.6, -16.5, -13.0],
        [1.8, 2.9, -1.1, 10.0, 8.2],
    ],
}


def multitask_suite():
    """The 10 matrices stacked into one 10-state, one-step game.

    The state is the (observable) matrix id, drawn uniformly at the start of
    each episode; every matrix's optimal payoff is 10.
    """
    rewards = np.stack(
        [np.asarray(MULTITASK_MATRICES[i], dtype=float).reshape(-1) for i in range(1, 11)]
    )
    n_states, n_joint = rewards.shape
    transition = np.zeros((n_states, n_joint, n_states))
    transition[np.arange(n_states), :, np.arange(n_states)] = 1.0
    return Mmdp(
        n_states=n_states,
        n_agents=2,
        n_actions=5,
        transition=transition,
        reward=rewards,
        gamma=0.99,
        initial_dist=np.full(n_states, 0.1),
        horizon=1,
    )


def builtin_names():
    return ["table1", "matgame2"] + [f"multitask_{i}" for i in range(1, 11)] + [
        "multitask_suite"
    ]


def builtin_game(name):
    """Built-in benchmark game by name (see builtin_names())."""
    if name == "table1":
        return matrix_game(TABLE1)
    if name == "matgame2":
        return matrix_game(MATGAME2)
    if name == "multitask_suite":
        return multitask_suite()
    if name.startswith("multitask_"):
        try:
            idx = int(name.split("_", 1)[1])
        except ValueError:
            idx = None
        if idx in MULTITASK_MATRICES:
            return matrix_game(MULTITASK_MATRICES[idx])
    raise ValueError(f"unknown builtin game {name!r}; known: {builtin_names()}")


# ---------------------------------------------------------------------------
# diagonal tensors with the suffix-mean undercut property

def undercut_recurrence(t_max):
    """The recurrence 0, then (t-1)*h_{t-1} - sum of h_1..h_{t-2} - 1.

    Feeding these into undercut_diag_values makes every suffix mean of the
    diagonal fall exactly 1/(suffix length) short of the next diagonal value.
    """
    if t_max < 1:
        raise ValueError("t_max must be >= 1")
    h = [0.0]
    for t in range(2, t_max + 1):
        h.append((t - 1) * h[t - 2] - sum(h[: t - 2]) - 1.0)
    return np.array(h)


def undercut_diag_values(k):
    """Increasing diagonal values (lowest is 1) with undercutting suffix means."""
    h = undercut_recurrence(k)
    return np.array([h[k - t] - h[k - 1] + 1.0 for t in range(1, k + 1)])


def diag_tensor(values, n):
    """n-dimensional tensor with `values` on the diagonal, zero elsewhere."""
    values = np.asarray(values, dtype=float)
    k = values.shape[0]
    out = np.zeros((k,) * n)
    out[(np.arange(k),) * n] = values
    return out


def undercut_diag_payoff(k, n):
    """Diagonal payoff tensor whose suffix means undercut the next entry."""
    if k < 2 or n < 2:
        raise ValueError("need k >= 2 actions and n >= 2 agents")
    return diag_tensor(undercut_diag_values(k), n)


# ---------------------------------------------------------------------------
# restricted TD minimizer

def restricted_minimizer(target, dist, a_star):
    """Least-squares fit of `target` among tables whose argmax contains a_star.

    Pools a_star with every entry exceeding the running pooled weighted mean
    until the pool is stable; pooled entries sit at the final level, the rest
    copy `target`. The pooled level is the unique weighted-least-squares
    optimum because the one-dimensional objective in the level is strictly
    convex.
    """
    arr = np.asarray(target, dtype=float)
    shape = arr.shape
    flat = arr.ravel()
    if dist is None:
        w = np.full(flat.shape, 1.0 / flat.size)
    else:
        w = np.asarray(dist, dtype=float).ravel()
        if w.shape != flat.shape:
            raise ValueError(f"dist shape {np.shape(dist)} != target shape {shape}")
        if np.any(w <= 0):
            raise ValueError("dist must have full support")
        w = w / w.sum()
    if isinstance(a_star, (tuple, list, np.ndarray)):
        code = joint_code(a_star, shape[-1])
    else:
        code = int(a_star)
    level = flat[code]
    pool = None
    while True:
        new_pool = frozenset(np.flatnonzero(flat > level)) | {code}
        if new_pool == pool:
            break
        pool = new_pool
        idx = np.fromiter(pool, dtype=np.intp)
        level = float(np.dot(w[idx], flat[idx]) / w[idx].sum())
    out = flat.copy()
    out[np.fromiter(pool, dtype=np.intp)] = level
    return out.reshape(shape)


# ---------------------------------------------------------------------------
# construction of a payoff tensor together with its TD local minima

def _duplex_first_max(target, n_agents, n_actions):
    return duplex_decompose(target, int(np.argmax(target[0])), n_agents=n_agents)


def construct_local_minima(k, n, decomposer=None):
    """Build a diagonal payoff tensor and the k trap points of the TD loss.

    Round l reveals the l-1 diagonal entries fixed so far, masks the rest at
    the running suffix mean, decomposes the masked table, and places the
    next value at the cell the decomposition's local argmaxes point to. Each
    returned parameter point decomposes the restricted minimizer for its own
    greedy action, so the TD gradient vanishes there; all but the last have
    suboptimal greedy payoffs.

    `decomposer(target_2d, n_agents, n_actions) -> VdParams` may be any
    argmax-steering decomposition; the default is the duplex construction at
    the first maximizing joint action.
    """
    if k < 2 or n < 2:
        raise ValueError("need k >= 2 actions and n >= 2 agents")
    if decomposer is None:
        decomposer = _duplex_first_max
    values = undercut_diag_values(k)
    diag = np.zeros(k)
    filled = np.zeros(k, dtype=bool)
    points = []
    for l in range(k):
        masked = diag.copy()
        masked[~filled] = values[l:].mean()
        f = diag_tensor(masked, n).reshape(1, -1)
        theta = decomposer(f, n, k)
        picks = []
        for i in range(n):
            row = theta.q_local[i, 0]
            top = np.flatnonzero(row >= row.max() - 1e-12)
            if top.size != 1:
                raise ValueError(
                    f"decomposer produced {top.size} local argmaxes for agent {i}"
                )
            picks.append(int(top[0]))
        if len(set(picks)) != 1:
            raise ValueError(f"local argmaxes disagree across agents: {picks}")
        j = picks[0]
        if filled[j]:
            raise ValueError(f"decomposer revisited diagonal cell {j}")
        diag[j] = values[l]
        filled[j] = True
        points.append(theta)
    return diag_tensor(diag, n), points


# ---------------------------------------------------------------------------
# seeded random generators

def random_matrix_game(k, n, rng):
    """One-step game with iid uniform payoffs in [-20, 10], the payoff range
    of the multitask matrices."""
    rng = np.random.default_rng(rng)
    return matrix_game(rng.uniform(-20.0, 10.0, size=(k,) * n))


def random_mmdp(n_states, n_agents, n_actions, gamma=0.9, rng=None, horizon=None):
    """Seeded MMDP with row-normalized random transitions and uniform rewards."""
    rng = np.random.default_rng(rng)
    n_joint = n_actions**n_agents
    transition = rng.random((n_states, n_joint, n_states)) + 1e-3
    transition /= transition.sum(axis=2, keepdims=True)
    initial = rng.random(n_states) + 1e-3
    initial /= initial.sum()
    return Mmdp(
        n_states=n_states,
        n_agents=n_agents,
        n_actions=n_actions,
        transition=transition,
        reward=rng.uniform(0.0, 1.0, size=(n_states, n_joint)),
        gamma=gamma,
        initial_dist=initial,
        horizon=horizon,
    )
