"""Finite multi-agent and single-agent MDP models with exact solvers.

Conventions used across the package:

- Joint actions are mixed-radix integer codes with agent 0 as the most
  significant digit: ``code = a_0 * A**(n-1) + a_1 * A**(n-2) + ... + a_{n-1}``.
- All tensors are dense float64. Transition rows are stochastic, rewards are
  indexed ``[state, joint_action]``.
- Nothing here samples trajectories. Infinite-horizon values come from linear
  solves, finite-horizon values from backward induction.
- ``horizon`` marks an episodic cutoff; matrix games carry ``horizon=1``. The
  discount still applies within the episode, so a one-step game is evaluated
  as the undiscounted expected payoff of its single joint step.

Model objects are immutable and valid after construction: arrays are copied
and marked read-only, and `Mmdp` refuses a model that breaks an invariant
(`validate`) with ``ValueError("invalid model: ...")``. Every model that
exists can therefore be solved as is, and shared freely across threads.
"""

from __future__ import annotations

import functools
import json
import math
import numbers
from dataclasses import dataclass

import numpy as np

#: tolerance for probability-normalization checks
PROB_TOL = 1e-12
#: exact solvers refuse models with more state-action pairs than this
SIZE_GUARD = 10**7
#: the most iterations any loop runs: policy iteration and the test oracle's
#: value iteration give up after this many, and `check_options` refuses a
#: larger learner count (`steps`, `sweeps`, `log_every`)
MAX_SWEEPS = 1_000_000
#: the oracle's default advantage tolerance, for every exact solver
ORACLE_TOL = 1e-10


class SizeGuardError(RuntimeError):
    """Raised when a model is too large for exact enumeration."""


class GdDivergenceError(RuntimeError):
    """Values left the float range: gradient descent met a non-finite loss
    or gradient, Q-learning a non-finite table, or an exact solve or
    evaluation a non-finite table or return."""


def _finite(x, what):
    """`x` itself, or GdDivergenceError naming `what` when an entry of `x`
    is not finite."""
    if not np.isfinite(x).all():
        raise GdDivergenceError(f"{what} overflowed the float range")
    return x


def _frozen(a):
    arr = np.array(a, dtype=float)
    arr.flags.writeable = False
    return arr


# ---------------------------------------------------------------------------
# joint-action codec

def joint_code(actions, n_actions):
    """Mixed-radix code of a per-agent action tuple (agent 0 most
    significant); an [n, ...] array of actions gives an array of codes.
    ValueError when an action lies outside [0, n_actions)."""
    return np.ravel_multi_index(tuple(actions), (n_actions,) * len(actions))


def joint_digits(code, n_agents, n_actions):
    """Per-agent action tuple for a joint-action code; ValueError when the
    code lies outside [0, n_actions**n_agents)."""
    return tuple(map(int, np.unravel_index(code, (n_actions,) * n_agents)))


@functools.lru_cache(maxsize=None)
def digit_table(n_agents, n_actions):
    """Int array [A**n, n]: row `code` holds each agent's action (read-only)."""
    digits = np.stack(np.unravel_index(np.arange(n_actions**n_agents),
                                       (n_actions,) * n_agents), axis=1)
    digits.flags.writeable = False
    return digits


def _checked_codes(codes, width):
    """An int array of codes as intp; ValueError for a code outside
    [0, width) (a fancy index would wrap -1 to the last entry)."""
    codes = np.asarray(codes, dtype=np.intp)
    if ((codes < 0) | (codes >= width)).any():
        raise ValueError(f"codes must lie in [0, {width}), got {codes.tolist()}")
    return codes


def one_hot(codes, width):
    """Float array [..., width] holding 1.0 at each entry's code and 0.0
    elsewhere, from an int array `codes` [...]; ValueError for a code
    outside [0, width)."""
    codes = _checked_codes(codes, width)
    out = np.zeros(codes.shape + (width,))
    out.reshape(-1, width)[np.arange(codes.size), codes.ravel()] = 1.0
    return out


def row_norms(x):
    """Euclidean norm of each row of a [K, d] array, each the dot-product
    norm that np.linalg.norm takes of a flat vector (bit for bit)."""
    return np.sqrt((x[:, None, :] @ x[:, :, None])[:, 0, 0])


def greedy_codes(tables):
    """Per-state joint code of each agent's argmax in an [..., n, S, A] table
    (lowest index on ties); leading replica axes carry through."""
    return joint_code(np.moveaxis(np.argmax(tables, axis=-1), -2, 0), np.shape(tables)[-1])


# ---------------------------------------------------------------------------
# model types

@dataclass(frozen=True, eq=False, repr=False)
class Mmdp:
    """Fully observable common-reward multi-agent MDP, refused at
    construction when `validate` finds an issue.

    transition: [n_states, n_actions**n_agents, n_states]
    reward:     [n_states, n_actions**n_agents]
    """

    n_states: int
    n_agents: int
    n_actions: int
    transition: np.ndarray
    reward: np.ndarray
    gamma: float
    initial_dist: np.ndarray
    horizon: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "transition", _frozen(self.transition))
        object.__setattr__(self, "reward", _frozen(self.reward))
        object.__setattr__(self, "initial_dist", _frozen(self.initial_dist))
        require_valid(self)

    @property
    def n_joint_actions(self):
        return self.n_actions**self.n_agents


def Mdp(n_states, n_actions, transition, reward, gamma, initial_dist, horizon=None):
    """Single-agent MDP: a one-agent Mmdp, whose joint actions are its actions."""
    return Mmdp(n_states, 1, n_actions, transition, reward, gamma, initial_dist, horizon)


def matrix_game(payoff, gamma=0.99):
    """Wrap an n-dimensional common-payoff tensor into a 1-state, 1-step Mmdp.

    The number of agents is the tensor rank; all axes must have equal length.
    The (unused) post-episode transition is a self loop.
    """
    payoff = np.asarray(payoff, dtype=float)
    if len(set(payoff.shape)) != 1:
        raise ValueError(f"payoff tensor must be hypercubic, got shape {payoff.shape}")
    n = payoff.ndim
    k = payoff.shape[0]
    n_joint = k**n
    transition = np.ones((1, n_joint, 1))
    return Mmdp(
        n_states=1,
        n_agents=n,
        n_actions=k,
        transition=transition,
        reward=payoff.reshape(1, n_joint),
        gamma=gamma,
        initial_dist=[1.0],
        horizon=1,
    )


# ---------------------------------------------------------------------------
# policy types

def _prefix_reach(tables):
    """The coordination chain over per-agent tables [S, A**k or 1, A]:
    P_0 = 1 and P_{k+1}[s, p*A + a] = P_k[s, p] * tables[k][s, p, a], where
    a table with one prefix row ignores the earlier agents' actions."""
    out = [np.ones((len(tables[0]), 1))]
    for table in tables:
        out.append((out[-1][:, :, None] * table).reshape(len(table), -1))
    return out


@dataclass(frozen=True, eq=False, repr=False)
class DecentralizedPolicySet:
    """Per-agent stochastic tables [n_agents, n_states, n_actions];
    ValueError for tables of any other rank or with no agent."""

    tables: np.ndarray

    def __post_init__(self):
        tables = _frozen(self.tables)
        if tables.ndim != 3 or not len(tables):
            raise ValueError(f"policy tables must be [n_agents >= 1, n_states, n_actions], "
                             f"got shape {tables.shape}")
        object.__setattr__(self, "tables", tables)

    @classmethod
    def deterministic(cls, actions, n_actions):
        """One-hot policy set from an int array [n_agents, n_states]."""
        return cls(one_hot(actions, n_actions))

    @classmethod
    def uniform(cls, n_agents, n_states, n_actions):
        return cls(np.full((n_agents, n_states, n_actions), 1.0 / n_actions))

    def joint(self):
        """Product joint policy [n_states, n_actions**n_agents]: the
        coordination chain of `_prefix_reach` on prefix-independent
        [S, 1, A] views of the tables, agents multiplied in order."""
        return _prefix_reach(self.tables[:, :, None, :])[-1]

    def greedy_actions(self):
        """Per-agent argmax actions [n_agents, n_states] (lowest index on ties)."""
        return np.argmax(self.tables, axis=2)


@dataclass(frozen=True, eq=False, repr=False)
class CoordinationPolicy:
    """Per-agent conditional tables for sequential decision making.

    ``tables[i]`` has shape [n_states, n_actions**i, n_actions]: agent i's
    action distribution given the state and the mixed-radix code of the
    earlier agents' actions. ValueError unless there is at least one table
    and table i has shape [S, A**i, A] with S >= 1 and A >= 1.
    """

    tables: tuple

    def __post_init__(self):
        tables = tuple(_frozen(t) for t in self.tables)
        shapes = [t.shape for t in tables]
        s, a = (shapes[0][0], shapes[0][-1]) if shapes and shapes[0] else (0, 0)
        if not (s >= 1 and a >= 1 and shapes == [(s, a**i, a) for i in range(len(shapes))]):
            raise ValueError(f"coordination tables must be [S >= 1, A**i, A >= 1], got {shapes}")
        object.__setattr__(self, "tables", tables)

    @property
    def n_agents(self):
        return len(self.tables)

    @property
    def n_states(self):
        return self.tables[0].shape[0]

    @property
    def n_actions(self):
        return self.tables[0].shape[2]

    @classmethod
    def uniform(cls, n_agents, n_states, n_actions):
        return cls(
            tuple(
                np.full((n_states, n_actions**i, n_actions), 1.0 / n_actions)
                for i in range(n_agents)
            )
        )

    @classmethod
    def random(cls, n_agents, n_states, n_actions, rng):
        rng = np.random.default_rng(rng)
        tabs = []
        for i in range(n_agents):
            t = rng.random((n_states, n_actions**i, n_actions)) + 1e-3
            tabs.append(t / t.sum(axis=2, keepdims=True))
        return cls(tuple(tabs))

    def reach(self):
        """Prefix probabilities [P_0, ..., P_n]: P_k [n_states, n_actions**k]
        is the chance that agents 0..k-1 play each prefix code, with P_0 = 1
        and P_{k+1}[s, p*A + a] = P_k[s, p] * tables[k][s, p, a]."""
        return _prefix_reach(self.tables)

    def joint(self):
        """Chain-product joint policy [n_states, n_actions**n_agents]: P_n."""
        return self.reach()[-1]


# ---------------------------------------------------------------------------
# validation

def validate(model):
    """Collect invariant violations (empty list means the model is valid)."""
    issues = []
    if model.n_states < 1:
        issues.append(f"n_states must be positive, got {model.n_states}")
    if model.n_actions < 1:
        issues.append(f"n_actions must be positive, got {model.n_actions}")
    if model.n_agents < 1:
        issues.append(f"n_agents must be positive, got {model.n_agents}")
    if not (0.0 <= model.gamma < 1.0):
        issues.append(f"gamma must lie in [0, 1), got {model.gamma}")
    if model.horizon is not None and model.horizon < 1:
        issues.append(f"horizon must be a positive integer, got {model.horizon}")
    if issues:
        return issues

    s, m = model.n_states, model.n_joint_actions
    if model.transition.shape != (s, m, s):
        issues.append(
            f"transition shape {model.transition.shape} != {(s, m, s)}"
        )
    if model.reward.shape != (s, m):
        issues.append(f"reward shape {model.reward.shape} != {(s, m)}")
    if model.initial_dist.shape != (s,):
        issues.append(f"initial_dist shape {model.initial_dist.shape} != {(s,)}")
    if issues:
        return issues

    if not np.all(np.isfinite(model.transition)):
        issues.append("transition contains non-finite entries")
    if not np.all(np.isfinite(model.reward)):
        bad = np.argwhere(~np.isfinite(model.reward))
        issues.append(
            f"reward non-finite at (s, a) = {tuple(int(x) for x in bad[0])}"
        )
    neg = np.argwhere(model.transition < 0)
    for idx in neg[:10]:
        coords = tuple(int(x) for x in idx)
        issues.append(f"negative transition probability at (s, a, s') = {coords}")
    sums = model.transition.sum(axis=2)
    bad_rows = np.argwhere(np.abs(sums - 1.0) > PROB_TOL)
    for idx in bad_rows[:10]:
        coords = tuple(int(x) for x in idx)
        issues.append(
            f"transition row (s, a) = {coords} sums to {sums[coords]:.15g}"
        )
    if not np.all(np.isfinite(model.initial_dist)):
        issues.append("initial_dist contains non-finite entries")
    if np.any(model.initial_dist < 0):
        issues.append("initial_dist has negative entries")
    total = model.initial_dist.sum()
    if abs(total - 1.0) > PROB_TOL:
        issues.append(f"initial_dist sums to {total:.15g}")
    return issues


def require_valid(model):
    """The model itself, or ValueError naming every `validate` issue."""
    issues = validate(model)
    if issues:
        raise ValueError("invalid model: " + "; ".join(issues))
    return model


# ---------------------------------------------------------------------------
# exact policy evaluation

def joint_policy_matrix(model, policy):
    """Normalize a policy into a C-ordered [S, M] stochastic matrix (the
    evaluator's bits must not depend on memory order). A policy is a
    `DecentralizedPolicySet`, a `CoordinationPolicy`, an [S, M] matrix, or
    greedy play: a 1-D integer array of per-state joint codes, read as
    `one_hot(codes, M)`. ValueError for a code outside [0, M) and for rows
    that are not probability vectors (NaN entries included)."""
    m = model.n_joint_actions
    if isinstance(policy, (DecentralizedPolicySet, CoordinationPolicy)):
        mat = policy.joint()
    else:
        mat = np.asarray(policy)
        if mat.ndim == 1 and mat.dtype.kind in "iu":
            mat = one_hot(mat, m)
    if mat.shape != (model.n_states, m):
        raise ValueError(f"policy shape {mat.shape} does not match model {(model.n_states, m)}")
    if not (np.all(mat >= -PROB_TOL) and np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-9):
        raise ValueError("policy rows are not probability vectors")
    return np.ascontiguousarray(mat, dtype=float)


def _next_values(model, v):
    """E[v(s') | s, a] as [..., S, M] for state values v [..., S], one
    matrix-vector product per replica and state."""
    return (model.transition @ v[..., None, :, None])[..., 0]


def _picked_values(pol, q):
    """The one rule that reads state values [..., S] off action values
    [..., S, M]: the row maximum for `pol` None (the optimum), the entries
    that int joint codes [S] pick, or the contraction with a [..., S, M]
    policy matrix.

    Codes give the bits of their one-hot matrix: the contraction sums each
    row from +0.0, adding one nonzero product to +0.0 terms, so a picked
    -0.0 reads +0.0, and the picks get `+ 0.0`.
    """
    if pol is None:
        return q.max(axis=-1)
    if pol.dtype.kind in "iu":
        return q[np.arange(len(pol)), pol] + 0.0
    return np.einsum("...sa,...sa->...s", pol, q)


def _solve_values(model, pol):
    """Infinite-horizon evaluation by one linear solve: the system matrix
    I - gamma * P_pi and the state values v [..., S] of a [..., S, M]
    policy matrix, or of deterministic play given as int joint codes [S]
    (in range, see `_checked_codes`).

    r_pi is the reward read by `_picked_values`. Codes read P_pi as the
    [S, S] rows they pick, in place of the one-hot contraction, with the
    same bits: a picked -0.0 transition gives the same system matrix, as
    0.0 - gamma * -0.0 is +0.0.
    """
    if pol.dtype.kind in "iu":
        p_pi = model.transition[np.arange(model.n_states), pol]
    else:
        p_pi = np.einsum("...sa,sat->...st", pol, model.transition)
    a = np.eye(model.n_states) - model.gamma * p_pi
    return a, np.linalg.solve(a, _picked_values(pol, model.reward)[..., None])[..., 0]


def _backward(model, pol):
    """The episodic backward recursion: action values q_by_t
    [horizon, ..., S, M] of play `pol` (None for the optimum, int joint
    codes or a [..., S, M] policy matrix, as `_picked_values` reads them)
    and the state values v_0 [..., S] at step 0.

    The last step's table is the reward itself, as its next values are
    zero (`+ 0.0` keeps the signed zeros of `reward + gamma * T @ 0`); each
    earlier step's is `reward + gamma * E[v(s')]` of the next step's values.
    """
    batch = () if pol is None or pol.ndim == 1 else pol.shape[:-2]
    q_by_t = np.empty((model.horizon,) + batch + model.reward.shape)
    v = _picked_values(pol, np.add(model.reward, 0.0, out=q_by_t[-1]))
    for q in q_by_t[-2::-1]:
        v = _picked_values(pol, np.add(model.reward, model.gamma * _next_values(model, v), out=q))
    return q_by_t, v


def policy_slices(model, pol):
    """Exact return of a [S, M] joint policy matrix and its (d_t, q_t) slices.

    d_t[s] is the discounted visit weight gamma^t Pr(s_t = s) and q_t[s, a]
    the action value at episode step t. Infinite horizon yields one slice
    summed over all steps (two linear solves); episodic models yield one
    slice per step from `_backward`. Every exact quantity reads off these:
    J = sum_t d_t . r_pi, the occupancy sum_t d_t, and the policy gradient
    sum_t d_t * q_t.

    A stack of policies [K, S, M] gives K returns and slices with the same
    leading axis. Each replica's numbers are computed from its own row only
    (stacked solves and per-row products), so for a C-ordered stack they are
    bit-identical to an unstacked call on that row.
    """
    if model.horizon is None:
        a, v = _solve_values(model, pol)
        q = model.reward + model.gamma * _next_values(model, v)
        d = np.linalg.solve(a.swapaxes(-1, -2), model.initial_dist[:, None])[..., 0]
        slices = [(d, q)]
    else:
        q_by_t, v = _backward(model, pol)
        rho = np.empty_like(v)
        rho[...] = model.initial_dist
        slices = [(rho, q_by_t[0])]
        if model.horizon > 1:
            p_pi = np.einsum("...sa,sat->...st", pol, model.transition)
            scale = 1.0
            for q_t in q_by_t[1:]:
                rho = (rho[..., None, :] @ p_pi)[..., 0, :]
                scale *= model.gamma
                slices.append((scale * rho, q_t))
    return initial_return(model, v), slices


def initial_return(model, v):
    """J = initial_dist . v of state values [..., S]: a float for one
    policy's [S] values, K returns for a [K, S] stack. The matmul sums from
    +0.0, so a -0.0 value reads +0.0."""
    value = (model.initial_dist @ v[..., None])[..., 0]
    return value if v.ndim > 1 else float(value)


def _play_codes(model, policy):
    """Per-state joint codes [S] of deterministic play: range-checked int
    codes of the model's shape, or a `DecentralizedPolicySet` of the
    model's shape whose tables are exactly one-hot (every entry 0.0 or
    1.0, one 1.0 a row), read as the joint codes of its one argmax (the
    `greedy_codes` bits). None for any other policy."""
    if isinstance(policy, DecentralizedPolicySet):
        tables, actions = policy.tables, policy.tables.argmax(axis=2)
        if (tables.shape == (model.n_agents, model.n_states, model.n_actions)
                and np.array_equal(tables, one_hot(actions, model.n_actions))):
            return joint_code(actions, model.n_actions)
    else:
        codes = np.asarray(policy)
        if codes.shape == (model.n_states,) and codes.dtype.kind in "iu":
            return _checked_codes(codes, model.n_joint_actions)
    return None


@np.errstate(over="ignore", invalid="ignore")
def evaluate_policy(model, policy):
    """Exact expected discounted return from the initial distribution.

    The policy is normalized to deterministic play's int joint codes (int
    codes, or a policy set with exactly one-hot tables; see `_play_codes`)
    or else to a C-ordered joint matrix (`joint_policy_matrix`). Its state
    values then take one linear solve (`_solve_values`) on an infinite
    horizon, or the backward recursion (`_backward`) on an episodic model,
    and the return reads off them (`initial_return`). Codes are read by
    index, with no joint matrix, and give the bits of their one-hot
    matrix; no path computes an occupancy. A return that is not finite
    raises GdDivergenceError with no numpy warning.
    """
    pol = _play_codes(model, policy)
    if pol is None:
        pol = joint_policy_matrix(model, policy)
    v = _solve_values(model, pol)[1] if model.horizon is None else _backward(model, pol)[1]
    return _finite(initial_return(model, v), "the return")


def occupancy(model, policy):
    """Discounted state-visit weights d[s] = sum_t gamma^t Pr(s_t = s)."""
    _, slices = policy_slices(model, joint_policy_matrix(model, policy))
    return sum(d_t for d_t, _ in slices)


# ---------------------------------------------------------------------------
# Bellman operator and optimal solvers

def bellman_backup(q, model):
    """One synchronous optimality backup of a [..., S, M] action-value table.

    One-step games (horizon 1) have no bootstrap: the backup is the reward
    table itself.
    """
    q = np.asarray(q, dtype=float)
    if q.shape[-2:] != model.reward.shape:
        raise ValueError(f"q shape {q.shape} != {model.reward.shape}")
    if model.horizon == 1:
        return np.broadcast_to(model.reward, q.shape).copy()
    return model.reward + model.gamma * _next_values(model, _picked_values(None, q))


def first_visit_times(model):
    """Earliest reachable step of each state within the horizon, -1 if never.

    Reachability follows transition support under any action, starting from
    the support of the initial distribution.
    """
    if model.horizon is None:
        raise ValueError("first-visit times only make sense for episodic models")
    tau = np.full(model.n_states, -1, dtype=int)
    frontier = np.flatnonzero(model.initial_dist > 0)
    tau[frontier] = 0
    reach = model.transition.sum(axis=1) > 0
    for t in range(1, model.horizon):
        nxt = np.flatnonzero(reach[frontier].any(axis=0) & (tau < 0))
        if nxt.size == 0:
            break
        tau[nxt] = t
        frontier = nxt
    return tau


def episode_positions(model):
    """Per-state episode step for bootstrap masking in episodic models.

    Requires the layered property: every transition from a state at step
    t < horizon-1 must reach states first visited at step t+1. States that
    are never reached are pinned to the final step (no bootstrap).
    """
    tau = first_visit_times(model)
    h = model.horizon
    reach = model.transition.sum(axis=1) > 0
    for s in np.flatnonzero((tau >= 0) & (tau < h - 1)):
        succ = np.flatnonzero(reach[s])
        if not np.all(tau[succ] == tau[s] + 1):
            raise ValueError(
                f"episodic model is not layered: state {s} at step {tau[s]} "
                f"reaches steps {sorted(set(tau[succ]))}"
            )
    tau = tau.copy()
    tau[tau < 0] = h - 1
    return tau


@np.errstate(over="ignore", invalid="ignore")
def optimal_values(model, tol=ORACLE_TOL, max_iter=MAX_SWEEPS):
    """Optimal action values [S, M] plus the solver's per-iteration record.

    Infinite horizon: Howard policy iteration over deterministic joint
    policies, held as int joint codes [S] and starting from the
    greedy-on-reward codes. Each iteration evaluates the current policy mu
    exactly (one linear solve for its values, reading P_mu and r_mu by
    index as `_solve_values` does, with no one-hot matrix and no
    occupancy), records its largest advantage max_s [max_a q_mu(s, a) -
    q_mu(s, mu(s))], and switches a state to its best action only where
    that advantage exceeds `tol`. It stops when no state switches and returns q_mu; the last
    record entry is then the certificate margin: no action improves on mu
    by more than it, so every state's value is within margin/(1 - gamma)
    of the optimum, and so is the greedy policy of the returned table.
    `tol` must be a finite number > 0 (`check_options`), and `max_iter`
    caps the iterations.

    Episodic: the backward recursion `_backward` on row maxima, reading
    each state's table at its episode step (models must be layered;
    one-step games trivially are, and return the reward table itself); the
    record is [0.0].

    A table that is not finite raises GdDivergenceError, with no numpy
    warning.
    """
    check_options(tol=tol)
    states = np.arange(model.n_states)
    if model.horizon is not None:
        if model.horizon == 1:
            return model.reward.copy(), [0.0]
        tables = _backward(model, None)[0]
        return _finite(tables[episode_positions(model), states, :], "the optimal table"), [0.0]
    codes = np.argmax(model.reward, axis=1)
    margins = []
    for _ in range(max_iter):
        q = model.reward + model.gamma * _next_values(model, _solve_values(model, codes)[1])
        best = np.argmax(_finite(q, "the policy's action values"), axis=1)
        advantage = q[states, best] - q[states, codes]
        margins.append(float(advantage.max()))
        switch = advantage > tol
        if not switch.any():
            return q, margins
        codes = np.where(switch, best, codes)
    raise RuntimeError(f"policy iteration did not settle at tol={tol} in {max_iter} iterations")


def brute_force_optimal(model, tol=ORACLE_TOL, size_guard=SIZE_GUARD):
    """Optimal return and its greedy play: (value, int codes [S]), the
    per-state joint code of the first argmax of the optimal table.

    The table comes from `optimal_values` (policy iteration with advantage
    tolerance `tol` for infinite horizons, backward induction otherwise);
    its greedy policy is evaluated exactly, and its return is within
    margin/(1 - gamma) of the optimum, where margin (<= tol) is the
    certificate `optimal_values` stopped at.
    """
    if model.n_states * model.n_joint_actions > size_guard:
        raise SizeGuardError(
            f"{model.n_states} states x {model.n_joint_actions} joint actions "
            f"exceeds the enumeration guard ({size_guard})"
        )
    q, _ = optimal_values(model, tol=tol)
    codes = np.argmax(q, axis=1)
    return evaluate_policy(model, codes), codes


# ---------------------------------------------------------------------------
# environment file format (JSON)

def mmdp_to_dict(model):
    """JSON-ready dict in the documented environment schema."""
    return {
        "n_states": model.n_states,
        "n_agents": model.n_agents,
        "n_actions": model.n_actions,
        "gamma": model.gamma,
        "horizon": model.horizon,
        "initial_dist": model.initial_dist.tolist(),
        "transition": model.transition.tolist(),
        "reward": model.reward.tolist(),
    }


def _field(data, key, cast, default=None):
    """`cast(data[key])` (`default` when absent); ValueError when the value
    is not numeric or is an integer beyond the float range."""
    try:
        return cast(data.get(key, default))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{key!r} must be numeric: {exc}") from exc


def _integer(data, key):
    """`data[key]` as an int; ValueError unless it is an integer (JSON
    fractions and booleans are refused, not truncated)."""
    value = data.get(key)
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{key!r} must be an integer, got {value!r}")
    return int(value)


def _real(value):
    """A JSON number as a float (booleans and strings are refused)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"expected a number, got {value!r}")
    return float(value)


#: numeric solver and learner options: (integer-valued?, lower bound,
#: bound allowed?)
OPTION_BOUNDS = {
    "lr": (False, 0, False),
    "tol": (False, 0, False),
    "clip": (False, 0, False),
    "steps": (True, 0, True),
    "log_every": (True, 1, True),
    "sweeps": (True, 1, True),
}


def check_options(**options):
    """The given options' values in order, normalized: an int for an
    integer-valued option (an integral float counts), a float for a
    real-valued one. ValueError names the first that is not a finite number
    within its `OPTION_BOUNDS`: booleans and strings are refused, so are
    fractions where an integer is due, a count above `MAX_SWEEPS`, and a
    real-valued option that a float cannot hold (an integer beyond the
    float range)."""
    checked = []
    for key, value in options.items():
        integral, low, closed = OPTION_BOUNDS[key]
        try:
            number = _real(value)
        except (TypeError, OverflowError):
            number = math.nan
        ok = math.isfinite(number) and (number.is_integer() or not integral)
        if not (ok and (number >= low if closed else number > low)
                and not (integral and number > MAX_SWEEPS)):
            kind = "an integer" if integral else "a number"
            cap = f" and <= {MAX_SWEEPS}" if integral else ""
            raise ValueError(f"{key!r} must be {kind} {'>=' if closed else '>'} {low}{cap}, "
                             f"got {value!r}")
        checked.append(int(number) if integral else number)
    return checked


def _floats(value):
    """JSON numbers, nested lists allowed, as a float array: each entry goes
    through `_real`, so a boolean is refused even among numbers (numpy
    alone reads [true, 0] as integers), and so are strings, nulls and
    ragged lists."""
    arr = np.asarray(value, dtype=object)
    return np.array([_real(v) for v in arr.flat], dtype=float).reshape(arr.shape)


def mmdp_from_dict(data):
    """Build an Mmdp from the environment schema.

    Accepts either the full field set or the matrix-game shorthand
    ``{"matrix": [[...]], "gamma": optional}`` where the agent count is the
    nesting depth. Malformed content raises ValueError.
    """
    if not isinstance(data, dict):
        raise ValueError("environment must be a JSON object")
    if "matrix" in data:
        extra = set(data) - {"matrix", "gamma"}
        if extra:
            raise ValueError(f"unexpected keys with matrix shorthand: {sorted(extra)}")
        return matrix_game(_field(data, "matrix", _floats),
                           gamma=_field(data, "gamma", _real, 0.99))
    required = {
        "n_states", "n_agents", "n_actions", "gamma",
        "initial_dist", "transition", "reward",
    }
    missing = required - set(data)
    if missing:
        raise ValueError(f"environment file missing fields: {sorted(missing)}")
    extra = set(data) - required - {"horizon"}
    if extra:
        raise ValueError(f"unexpected environment keys: {sorted(extra)}")
    reward = _field(data, "reward", _floats)
    transition = _field(data, "transition", _floats)
    n_states, n_agents, n_actions = (_integer(data, key)
                                     for key in ("n_states", "n_agents", "n_actions"))
    # nested per-agent tensors are flattened to joint codes; `Mmdp` checks
    # the counts, so the size is a product, which cannot raise as 0 ** -1 does
    nested = (n_actions,) * n_agents
    if reward.shape == (n_states,) + nested:
        reward = reward.reshape(n_states, math.prod(nested))
    if transition.shape == (n_states,) + nested + (n_states,):
        transition = transition.reshape(n_states, math.prod(nested), n_states)
    horizon = None if data.get("horizon") is None else _integer(data, "horizon")
    return Mmdp(
        n_states=n_states,
        n_agents=n_agents,
        n_actions=n_actions,
        transition=transition,
        reward=reward,
        gamma=_field(data, "gamma", _real),
        initial_dist=_field(data, "initial_dist", _floats),
        horizon=horizon,
    )


def load_env_file(path):
    with open(path) as fh:
        return mmdp_from_dict(json.load(fh))


def dump_env_text(model):
    return json.dumps(mmdp_to_dict(model), indent=2, sort_keys=True)
