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
#: policy iteration and the test oracle's value iteration give up after this
#: many iterations (sweeps)
MAX_SWEEPS = 1_000_000


class SizeGuardError(RuntimeError):
    """Raised when a model is too large for exact enumeration."""


def _frozen(a, dtype=float):
    arr = np.array(a, dtype=dtype)
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


def one_hot(codes, width):
    """Float array [..., width] holding 1.0 at each entry's code and 0.0
    elsewhere, from an int array `codes` [...]."""
    codes = np.asarray(codes, dtype=np.intp)
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

@dataclass(frozen=True, eq=False, repr=False)
class DecentralizedPolicySet:
    """Per-agent stochastic tables [n_agents, n_states, n_actions]."""

    tables: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "tables", _frozen(self.tables))

    @property
    def n_agents(self):
        return self.tables.shape[0]

    @property
    def n_states(self):
        return self.tables.shape[1]

    @property
    def n_actions(self):
        return self.tables.shape[2]

    @classmethod
    def deterministic(cls, actions, n_actions):
        """One-hot policy set from an int array [n_agents, n_states]."""
        return cls(one_hot(actions, n_actions))

    @classmethod
    def uniform(cls, n_agents, n_states, n_actions):
        return cls(np.full((n_agents, n_states, n_actions), 1.0 / n_actions))

    def joint(self):
        """Product joint policy [n_states, n_actions**n_agents]."""
        n, s, a = self.tables.shape
        digits = digit_table(n, a)
        out = np.ones((s, a**n))
        for i in range(n):
            out *= self.tables[i][:, digits[:, i]]
        return out

    def greedy_actions(self):
        """Per-agent argmax actions [n_agents, n_states] (lowest index on ties)."""
        return np.argmax(self.tables, axis=2)


@dataclass(frozen=True, eq=False, repr=False)
class CoordinationPolicy:
    """Per-agent conditional tables for sequential decision making.

    ``tables[i]`` has shape [n_states, n_actions**i, n_actions]: agent i's
    action distribution given the state and the mixed-radix code of the
    earlier agents' actions.
    """

    tables: tuple

    def __post_init__(self):
        object.__setattr__(self, "tables", tuple(_frozen(t) for t in self.tables))

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

    @classmethod
    def from_product(cls, policies):
        """Embed a DecentralizedPolicySet as a (prefix-independent) coordination policy."""
        tabs = []
        n, s, a = policies.tables.shape
        for i in range(n):
            tabs.append(np.broadcast_to(policies.tables[i][:, None, :], (s, a**i, a)).copy())
        return cls(tuple(tabs))

    def reach(self):
        """Prefix probabilities [P_0, ..., P_n]: P_k [n_states, n_actions**k]
        is the chance that agents 0..k-1 play each prefix code, with P_0 = 1
        and P_{k+1}[s, p*A + a] = P_k[s, p] * tables[k][s, p, a]."""
        out = [np.ones((self.n_states, 1))]
        for table in self.tables:
            out.append((out[-1][:, :, None] * table).reshape(self.n_states, -1))
        return out

    def joint(self):
        """Chain-product joint policy [n_states, n_actions**n_agents]: P_n."""
        return self.reach()[-1]


@dataclass(frozen=True, eq=False, repr=False)
class DeterministicJointPolicy:
    """One joint-action code per state."""

    actions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "actions", _frozen(self.actions, dtype=np.intp))

    def joint(self, n_joint_actions):
        return one_hot(self.actions, n_joint_actions)


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
    """Normalize any supported policy object into a C-ordered [S, M]
    stochastic matrix (the evaluator's bits must not depend on memory order)."""
    m = model.n_joint_actions
    if isinstance(policy, (DecentralizedPolicySet, CoordinationPolicy)):
        mat = policy.joint()
    elif isinstance(policy, DeterministicJointPolicy):
        mat = policy.joint(m)
    else:
        mat = np.asarray(policy, dtype=float)
    if mat.shape != (model.n_states, m):
        raise ValueError(f"policy shape {mat.shape} does not match model {(model.n_states, m)}")
    if np.any(mat < -PROB_TOL) or np.max(np.abs(mat.sum(axis=1) - 1.0)) > 1e-9:
        raise ValueError("policy rows are not probability vectors")
    return np.ascontiguousarray(mat)


def _next_values(model, v):
    """E[v(s') | s, a] as [..., S, M] for state values v [..., S], one
    matrix-vector product per replica and state."""
    return (model.transition @ v[..., None, :, None])[..., 0]


def _solve_values(model, pol):
    """Infinite-horizon evaluation of a [..., S, M] policy matrix by one
    linear solve: the system matrix I - gamma * P_pi, the state values v
    [..., S] and the action values q [..., S, M]."""
    r_pi = np.einsum("...sa,sa->...s", pol, model.reward)
    p_pi = np.einsum("...sa,sat->...st", pol, model.transition)
    a = np.eye(model.n_states) - model.gamma * p_pi
    v = np.linalg.solve(a, r_pi[..., None])[..., 0]
    return a, v, model.reward + model.gamma * _next_values(model, v)


def policy_slices(model, pol):
    """Exact return of a [S, M] joint policy matrix and its (d_t, q_t) slices.

    d_t[s] is the discounted visit weight gamma^t Pr(s_t = s) and q_t[s, a]
    the action value at episode step t. Infinite horizon yields one slice
    summed over all steps (two linear solves); episodic models yield one
    slice per step by backward induction, which starts from the last step's
    table: the reward itself, as its next values are zero (`+ 0.0` keeps the
    signed zeros of `reward + gamma * T @ 0`). Every exact quantity reads off
    these: J = sum_t d_t . r_pi, the occupancy sum_t d_t, and the policy
    gradient sum_t d_t * q_t.

    A stack of policies [K, S, M] gives K returns and slices with the same
    leading axis. Each replica's numbers are computed from its own row only
    (stacked solves and per-row products), so for a C-ordered stack they are
    bit-identical to an unstacked call on that row.
    """
    batch = pol.shape[:-2]
    if model.horizon is None:
        a, v, q = _solve_values(model, pol)
        d = np.linalg.solve(a.swapaxes(-1, -2), model.initial_dist[:, None])[..., 0]
        slices = [(d, q)]
    else:
        q_by_t = np.empty((model.horizon,) + batch + model.reward.shape)
        np.add(model.reward, 0.0, out=q_by_t[-1])
        for t in reversed(range(model.horizon)):
            v = np.einsum("...sa,...sa->...s", pol, q_by_t[t])
            if t:
                q_by_t[t - 1] = model.reward + model.gamma * _next_values(model, v)
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
    value = (model.initial_dist @ v[..., None])[..., 0]
    return (value if batch else float(value)), slices


def evaluate_policy(model, policy):
    """Exact expected discounted return from the initial distribution."""
    return policy_slices(model, joint_policy_matrix(model, policy))[0]


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
    return model.reward + model.gamma * _next_values(model, q.max(axis=-1))


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


def optimal_values(model, tol=1e-10, max_iter=MAX_SWEEPS):
    """Optimal action values [S, M] plus the solver's per-iteration record.

    Infinite horizon: Howard policy iteration over deterministic joint
    policies, starting from the greedy-on-reward policy. Each iteration
    evaluates the current policy mu exactly (one linear solve for its
    values, as in `policy_slices`, without the occupancy), records its
    largest advantage max_s [max_a q_mu(s, a) - q_mu(s, mu(s))], and
    switches a state to its best action only where that advantage exceeds
    `tol`. It stops when no state switches and returns q_mu; the last
    record entry is then the certificate margin: no action improves on mu
    by more than it, so every state's value is within margin/(1 - gamma)
    of the optimum, and so is the greedy policy of the returned table.
    `tol` must be a finite number > 0 (`check_options`), and `max_iter`
    caps the iterations.

    Episodic: exact backward induction, reading each state's table at its
    episode step (models must be layered; one-step games trivially are);
    the record is [0.0].
    """
    check_options(tol=tol)
    s, m = model.reward.shape
    if model.horizon is not None:
        if model.horizon == 1:
            return model.reward.copy(), [0.0]
        pos = episode_positions(model)
        tables = np.empty((model.horizon, s, m))
        v_next = np.zeros(s)
        for t in reversed(range(model.horizon)):
            tables[t] = model.reward + model.gamma * (model.transition @ v_next)
            v_next = tables[t].max(axis=1)
        return tables[pos, np.arange(s), :], [0.0]
    states = np.arange(s)
    codes = np.argmax(model.reward, axis=1)
    margins = []
    for _ in range(max_iter):
        _, _, q = _solve_values(model, one_hot(codes, m))
        best = np.argmax(q, axis=1)
        advantage = q[states, best] - q[states, codes]
        margins.append(float(advantage.max()))
        switch = advantage > tol
        if not switch.any():
            return q, margins
        codes = np.where(switch, best, codes)
    raise RuntimeError(f"policy iteration did not settle at tol={tol} in {max_iter} iterations")


def brute_force_optimal(model, tol=1e-10, size_guard=SIZE_GUARD):
    """Optimal return and a greedy deterministic joint policy.

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
    mu = DeterministicJointPolicy(np.argmax(q, axis=1))
    return evaluate_policy(model, mu), mu


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
    is not numeric."""
    try:
        return cast(data.get(key, default))
    except (TypeError, ValueError) as exc:
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
    "stop_tol": (False, 0, True),
    "steps": (True, 0, True),
    "log_every": (True, 1, True),
    "sweeps": (True, 1, True),
}


def check_options(**options):
    """The given options' values in order, an integer-valued one as an int;
    ValueError names the first that is not a finite number within its
    `OPTION_BOUNDS` (booleans are refused, and fractions where an integer
    is due)."""
    checked = []
    for key, value in options.items():
        integral, low, closed = OPTION_BOUNDS[key]
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            ok = False
        elif isinstance(value, numbers.Integral):
            ok = True
        else:
            ok = math.isfinite(value) and (float(value).is_integer() or not integral)
        if not (ok and (value >= low if closed else value > low)):
            kind = "an integer" if integral else "a number"
            raise ValueError(f"{key!r} must be {kind} {'>=' if closed else '>'} {low}, "
                             f"got {value!r}")
        checked.append(int(value) if integral else value)
    return checked


def _floats(value):
    """JSON numbers, nested lists allowed, as a float array (no booleans,
    strings or nulls)."""
    arr = np.asarray(value)
    if arr.dtype.kind not in "iuf":
        raise TypeError(f"expected numbers, got {arr.dtype.kind!r}-kind entries")
    return arr.astype(float)


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
