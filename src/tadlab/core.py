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

Model objects are immutable after construction (arrays are copied and marked
read-only), so they can be shared freely across threads.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

import numpy as np

#: tolerance for probability-normalization checks
PROB_TOL = 1e-12
#: exact solvers refuse models with more state-action pairs than this
SIZE_GUARD = 10**7
#: value iteration gives up after this many sweeps
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
    """Mixed-radix code of a per-agent action tuple (agent 0 most significant)."""
    code = 0
    for a in actions:
        code = code * n_actions + int(a)
    return code


def joint_digits(code, n_agents, n_actions):
    """Per-agent action tuple for a joint-action code."""
    out = []
    code = int(code)
    for _ in range(n_agents):
        out.append(code % n_actions)
        code //= n_actions
    return tuple(reversed(out))


@functools.lru_cache(maxsize=None)
def digit_table(n_agents, n_actions):
    """Int array [A**n, n]: row `code` holds each agent's action (read-only)."""
    codes = np.arange(n_actions**n_agents)
    digits = np.empty((codes.size, n_agents), dtype=np.intp)
    for i in range(n_agents - 1, -1, -1):
        digits[:, i] = codes % n_actions
        codes = codes // n_actions
    digits.flags.writeable = False
    return digits


def greedy_codes(tables):
    """Per-state joint code of each agent's argmax in an [n, S, A] table
    (lowest index on ties)."""
    n, s, a = np.shape(tables)
    acts = np.argmax(tables, axis=2)
    codes = np.zeros(s, dtype=np.intp)
    for i in range(n):
        codes = codes * a + acts[i]
    return codes


# ---------------------------------------------------------------------------
# model types

@dataclass(frozen=True)
class Mmdp:
    """Fully observable common-reward multi-agent MDP.

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

@dataclass(frozen=True)
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
        actions = np.asarray(actions, dtype=np.intp)
        n, s = actions.shape
        tables = np.zeros((n, s, n_actions))
        for i in range(n):
            tables[i, np.arange(s), actions[i]] = 1.0
        return cls(tables)

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


@dataclass(frozen=True)
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

    def joint(self):
        """Chain-product joint policy [n_states, n_actions**n_agents]."""
        n, s, a = self.n_agents, self.n_states, self.n_actions
        digits = digit_table(n, a)
        n_joint = a**n
        out = np.ones((s, n_joint))
        prefix = np.zeros(n_joint, dtype=np.intp)
        for i in range(n):
            out *= self.tables[i][:, prefix, digits[:, i]]
            prefix = prefix * a + digits[:, i]
        return out


@dataclass(frozen=True)
class DeterministicJointPolicy:
    """One joint-action code per state."""

    actions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "actions", _frozen(self.actions, dtype=np.intp))

    def joint(self, n_joint_actions):
        out = np.zeros((self.actions.shape[0], n_joint_actions))
        out[np.arange(self.actions.shape[0]), self.actions] = 1.0
        return out


@dataclass(frozen=True)
class ValueTable:
    """Action values q[state, action] and state values v[state]."""

    q: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "q", _frozen(self.q))
        object.__setattr__(self, "v", _frozen(self.v))

    @classmethod
    def from_q(cls, q):
        q = np.asarray(q, dtype=float)
        return cls(q, q.max(axis=1))


# ---------------------------------------------------------------------------
# validation

def validate(model):
    """Collect invariant violations (empty list means the model is valid)."""
    issues = []
    s, m = model.n_states, model.n_joint_actions
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
    if np.any(model.initial_dist < 0):
        issues.append("initial_dist has negative entries")
    total = model.initial_dist.sum()
    if abs(total - 1.0) > PROB_TOL:
        issues.append(f"initial_dist sums to {total:.15g}")
    return issues


def require_valid(model):
    issues = validate(model)
    if issues:
        raise ValueError("invalid model: " + "; ".join(issues))
    return model


# ---------------------------------------------------------------------------
# exact policy evaluation

def joint_policy_matrix(model, policy):
    """Normalize any supported policy object into a [S, M] stochastic matrix."""
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
    return mat


def policy_slices(model, pol):
    """Exact return of a [S, M] joint policy matrix and its (d_t, q_t) slices.

    d_t[s] is the discounted visit weight gamma^t Pr(s_t = s) and q_t[s, a]
    the action value at episode step t. Infinite horizon yields one slice
    summed over all steps (two linear solves); episodic models yield one
    slice per step by backward induction. Every exact quantity reads off
    these: J = sum_t d_t . r_pi, the occupancy sum_t d_t, and the policy
    gradient sum_t d_t * q_t.
    """
    r_pi = np.einsum("sa,sa->s", pol, model.reward)
    p_pi = np.einsum("sa,sat->st", pol, model.transition)
    if model.horizon is None:
        eye = np.eye(model.n_states)
        v = np.linalg.solve(eye - model.gamma * p_pi, r_pi)
        q = model.reward + model.gamma * (model.transition @ v)
        d = np.linalg.solve(eye - model.gamma * p_pi.T, model.initial_dist)
        return float(model.initial_dist @ v), [(d, q)]
    q_by_t = np.empty((model.horizon,) + model.reward.shape)
    v_next = np.zeros(model.n_states)
    for t in reversed(range(model.horizon)):
        q_by_t[t] = model.reward + model.gamma * (model.transition @ v_next)
        v_next = np.einsum("sa,sa->s", pol, q_by_t[t])
    slices = []
    rho = model.initial_dist.copy()
    scale = 1.0
    for t in range(model.horizon):
        slices.append((scale * rho, q_by_t[t]))
        rho = rho @ p_pi
        scale *= model.gamma
    return float(model.initial_dist @ v_next), slices


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
    """One synchronous optimality backup of a [S, M] action-value table.

    One-step games (horizon 1) have no bootstrap: the backup is the reward
    table itself.
    """
    q = np.asarray(q, dtype=float)
    if q.shape != model.reward.shape:
        raise ValueError(f"q shape {q.shape} != {model.reward.shape}")
    if model.horizon == 1:
        return model.reward.copy()
    return model.reward + model.gamma * (model.transition @ q.max(axis=1))


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
    """Optimal action values [S, M] plus per-sweep sup-norm residuals.

    Infinite horizon: synchronous value iteration to the given tolerance.
    Episodic: exact backward induction, reading each state's table at its
    episode step (models must be layered; one-step games trivially are).
    """
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
    if model.gamma >= 1.0:
        raise ValueError("infinite-horizon solve requires gamma < 1")
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


def brute_force_optimal(model, tol=1e-10, size_guard=SIZE_GUARD):
    """Optimal return and a greedy deterministic joint policy.

    The greedy policy of the converged table is evaluated exactly, so the
    returned value is the true optimum (not the iterate's approximation).
    """
    require_valid(model)
    if model.n_states * model.n_joint_actions > size_guard:
        raise SizeGuardError(
            f"{model.n_states} states x {model.n_joint_actions} joint actions "
            f"exceeds the enumeration guard ({size_guard})"
        )
    q, _ = optimal_values(model, tol=tol)
    mu = DeterministicJointPolicy(np.argmax(q, axis=1))
    return evaluate_policy(model, mu), mu


def pure_nash_enumerate(game):
    """All pure Nash equilibria of a one-step common-payoff matrix game.

    A joint action is an equilibrium when no single agent's unilateral
    deviation strictly increases the payoff; ties count as equilibria.
    Returns a set of per-agent action tuples.
    """
    if not isinstance(game, Mmdp) or game.n_states != 1 or game.horizon != 1:
        raise ValueError("pure_nash_enumerate expects a 1-state, 1-step matrix game")
    n, a = game.n_agents, game.n_actions
    payoff = game.reward[0]
    digits = digit_table(n, a)
    # radix weight of each agent's digit in the joint code
    weights = a ** np.arange(n - 1, -1, -1)
    equilibria = set()
    for code in range(payoff.size):
        base = payoff[code]
        stable = True
        for i in range(n):
            here = digits[code, i]
            row = code + (np.arange(a) - here) * weights[i]
            if np.any(payoff[row] > base):
                stable = False
                break
        if stable:
            equilibria.add(tuple(int(x) for x in digits[code]))
    return equilibria


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


def mmdp_from_dict(data):
    """Build an Mmdp from the environment schema.

    Accepts either the full field set or the matrix-game shorthand
    ``{"matrix": [[...]], "gamma": optional}`` where the agent count is the
    nesting depth.
    """
    if "matrix" in data:
        extra = set(data) - {"matrix", "gamma"}
        if extra:
            raise ValueError(f"unexpected keys with matrix shorthand: {sorted(extra)}")
        game = matrix_game(data["matrix"], gamma=float(data.get("gamma", 0.99)))
        return require_valid(game)
    required = {
        "n_states", "n_agents", "n_actions", "gamma",
        "initial_dist", "transition", "reward",
    }
    missing = required - set(data)
    if missing:
        raise ValueError(f"environment file missing fields: {sorted(missing)}")
    reward = np.asarray(data["reward"], dtype=float)
    transition = np.asarray(data["transition"], dtype=float)
    n_states = int(data["n_states"])
    n_agents = int(data["n_agents"])
    n_actions = int(data["n_actions"])
    n_joint = n_actions**n_agents
    # nested per-agent reward tensors are accepted and flattened to joint codes
    if reward.shape == (n_states,) + (n_actions,) * n_agents:
        reward = reward.reshape(n_states, n_joint)
    if transition.shape == (n_states,) + (n_actions,) * n_agents + (n_states,):
        transition = transition.reshape(n_states, n_joint, n_states)
    horizon = data.get("horizon")
    model = Mmdp(
        n_states=n_states,
        n_agents=n_agents,
        n_actions=n_actions,
        transition=transition,
        reward=reward,
        gamma=float(data["gamma"]),
        initial_dist=np.asarray(data["initial_dist"], dtype=float),
        horizon=None if horizon is None else int(horizon),
    )
    return require_valid(model)


def load_env_file(path):
    with open(path) as fh:
        return mmdp_from_dict(json.load(fh))


def dump_env_text(model):
    return json.dumps(mmdp_to_dict(model), indent=2, sort_keys=True)
