"""Gradient-descent learners and single-agent solvers, all with exact math.

Two families of multi-agent learners live here:

- product-policy gradient descent on the negative expected return, with the
  gradient sum_t d_t * q_t read from the exact slices of
  `core.policy_slices` (single-agent softmax policy gradient is the same
  computation at one agent, and the clipped surrogate reads the same
  slices);
- value decomposition trained by semi-gradient TD (the bootstrap target is
  frozen per step), with three mixers: additive (vdn), positive linear
  mixing (monotonic), and a dueling mixer whose advantage weights are
  strictly positive (duplex), which keeps local and joint argmaxes
  consistent for every parameter setting.

The single-agent side (value iteration, synchronous/sampled Q-learning,
softmax policy gradient with an optional clipped surrogate) runs on
one-agent models, such as the layered models produced by the
transformation; composing transform, solver, and greedy distillation
yields decentralized policies with the solver's optimality carried over.
Inside that composition, value iteration and synchronous Q-learning run
layer by layer on the MMDP's own tensors (`layered_optimal_values`,
`layered_q_learning`) rather than on the dense transform.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DecentralizedPolicySet,
    ValueTable,
    bellman_backup,
    digit_table,
    episode_positions,
    evaluate_policy,
    greedy_codes,
    joint_code,
    optimal_values,
    policy_slices,
    require_valid,
)
from .transform import (
    greedy_distill,
    kl_distill,
    layer_backup,
    layered_optimal_values,
    lower_policy,
    never_reached,
    row_max,
    sequential_transform,
    step_discount,
)


class GdDivergenceError(RuntimeError):
    """Gradient descent produced a non-finite loss or gradient."""


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# parameter containers

@dataclass
class MapgParams:
    """Softmax logits [n_agents, n_states, n_actions] for decentralized policies."""

    logits: np.ndarray

    def __post_init__(self):
        self.logits = np.array(self.logits, dtype=float)

    @classmethod
    def uniform(cls, n_agents, n_states, n_actions):
        return cls(np.zeros((n_agents, n_states, n_actions)))

    @classmethod
    def concentrated(cls, n_agents, n_states, n_actions, joint_action, scale):
        """Logit `scale` on each agent's slot of `joint_action`, zero elsewhere."""
        logits = np.zeros((n_agents, n_states, n_actions))
        for i, a in enumerate(joint_action):
            logits[i, :, int(a)] = scale
        return cls(logits)

    def policies(self):
        return DecentralizedPolicySet(softmax(self.logits))

    def greedy_joint(self):
        """Per-state joint code of the per-agent argmax actions."""
        return greedy_codes(self.logits)

    def pack(self):
        return self.logits.ravel().copy()

    def unpack_like(self, vec):
        return MapgParams(np.asarray(vec, dtype=float).reshape(self.logits.shape))


VD_VARIANTS = ("vdn", "monotonic", "duplex")


@dataclass
class VdParams:
    """Local tables plus mixer parameters for one value-decomposition variant.

    q_local: [n_agents, n_states, n_actions]
    w_raw:   [n_agents, n_states]            (monotonic; weights are exp(w_raw))
    lam_raw: [n_agents, n_states, n_joint]   (duplex; weights are exp(lam_raw))
    """

    variant: str
    q_local: np.ndarray
    w_raw: np.ndarray | None = None
    lam_raw: np.ndarray | None = None

    def __post_init__(self):
        if self.variant not in VD_VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")
        self.q_local = np.asarray(self.q_local, dtype=float)
        if self.variant == "monotonic":
            if self.w_raw is None:
                self.w_raw = np.zeros(self.q_local.shape[:2])
            self.w_raw = np.asarray(self.w_raw, dtype=float)
        if self.variant == "duplex":
            n, s, a = self.q_local.shape
            if self.lam_raw is None:
                self.lam_raw = np.zeros((n, s, a**n))
            self.lam_raw = np.asarray(self.lam_raw, dtype=float)

    @property
    def n_agents(self):
        return self.q_local.shape[0]

    @property
    def n_states(self):
        return self.q_local.shape[1]

    @property
    def n_actions(self):
        return self.q_local.shape[2]

    @classmethod
    def zeros(cls, variant, n_agents, n_states, n_actions):
        return cls(variant, np.zeros((n_agents, n_states, n_actions)))

    @classmethod
    def random(cls, variant, n_agents, n_states, n_actions, rng, scale=1.0):
        rng = np.random.default_rng(rng)
        p = cls(variant, scale * rng.standard_normal((n_agents, n_states, n_actions)))
        if variant == "monotonic":
            p.w_raw = scale * rng.standard_normal((n_agents, n_states))
        if variant == "duplex":
            p.lam_raw = scale * rng.standard_normal(
                (n_agents, n_states, n_actions**n_agents)
            )
        return p

    def joint_table(self):
        """Mixed joint values [n_states, n_actions**n_agents]."""
        n, s, a = self.q_local.shape
        digits = digit_table(n, a)
        picked = np.stack([self.q_local[i][:, digits[:, i]] for i in range(n)])
        if self.variant == "vdn":
            return picked.sum(axis=0)
        if self.variant == "monotonic":
            return np.einsum("ns,nsj->sj", np.exp(self.w_raw), picked)
        maxes = self.q_local.max(axis=2)
        adv = picked - maxes[:, :, None]
        lam = np.exp(self.lam_raw)
        return maxes.sum(axis=0)[:, None] + (lam * adv).sum(axis=0)

    def greedy_joint(self):
        """Per-state joint code composed from local argmaxes (ties: lowest index)."""
        return greedy_codes(self.q_local)

    def pack(self):
        parts = [self.q_local.ravel()]
        if self.w_raw is not None:
            parts.append(self.w_raw.ravel())
        if self.lam_raw is not None:
            parts.append(self.lam_raw.ravel())
        return np.concatenate(parts)

    def unpack_like(self, vec):
        vec = np.asarray(vec, dtype=float)
        k = self.q_local.size
        out = VdParams(self.variant, vec[:k].reshape(self.q_local.shape))
        if self.variant == "monotonic":
            out.w_raw = vec[k : k + self.w_raw.size].reshape(self.w_raw.shape)
        if self.variant == "duplex":
            out.lam_raw = vec[k : k + self.lam_raw.size].reshape(self.lam_raw.shape)
        return out


@dataclass
class TrainTrace:
    """Per-logged-step record of a training run.

    `ret` is the exact expected return of the policy the learner would act
    with (greedy for value learners, stochastic for policy gradient), and
    `greedy` holds the per-state greedy action codes. Learners that do not
    track a policy leave those columns empty.
    """

    step: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    ret: list = field(default_factory=list)
    greedy: list = field(default_factory=list)

    def append(self, step, loss, grad_norm, ret=None, greedy=None):
        self.step.append(int(step))
        self.loss.append(float(loss))
        self.grad_norm.append(float(grad_norm))
        if ret is not None:
            self.ret.append(float(ret))
        if greedy is not None:
            self.greedy.append(tuple(int(g) for g in greedy))

    def check(self):
        n = len(self.step)
        if len(self.loss) != n or len(self.grad_norm) != n:
            raise ValueError("trace columns have unequal lengths")
        if self.ret and len(self.ret) != n:
            raise ValueError("return column length mismatch")
        if self.greedy and len(self.greedy) != n:
            raise ValueError("greedy column length mismatch")
        for name in ("loss", "grad_norm", "ret"):
            vals = getattr(self, name)
            if vals and not np.all(np.isfinite(vals)):
                raise ValueError(f"non-finite values in trace column {name}")
        return self

    def to_csv(self, path):
        self.check()
        with open(path, "w") as fh:
            fh.write("step,loss,grad_norm,return,greedy_policy\n")
            for i, t in enumerate(self.step):
                ret = repr(self.ret[i]) if self.ret else ""
                greedy = ";".join(str(g) for g in self.greedy[i]) if self.greedy else ""
                fh.write(f"{t},{self.loss[i]!r},{self.grad_norm[i]!r},{ret},{greedy}\n")


# ---------------------------------------------------------------------------
# exact policy gradient for product policies

@functools.lru_cache(maxsize=None)
def _action_masks(n_agents, n_actions):
    """Tuple of [n_joint, n_actions] one-hot matrices selecting agent i's digit."""
    digits = digit_table(n_agents, n_actions)
    masks = []
    for i in range(n_agents):
        m = np.zeros((digits.shape[0], n_actions))
        m[np.arange(digits.shape[0]), digits[:, i]] = 1.0
        m.flags.writeable = False
        masks.append(m)
    return tuple(masks)


def _others_product(tables, digits, skip):
    out = np.ones((tables.shape[1], digits.shape[0]))
    for j in range(tables.shape[0]):
        if j != skip:
            out *= tables[j][:, digits[:, j]]
    return out


def product_policy_value_and_grad(model, tables):
    """Expected return of a product policy and its policy-space gradient.

    `tables` is [n_agents, n_states, n_actions]; the gradient entry
    g[i, s, b] is d J / d pi_i(b|s): the occupancy-weighted action value of
    agent i playing b while the others follow their tables.
    """
    n = tables.shape[0]
    a = tables.shape[2]
    digits = digit_table(n, a)
    masks = _action_masks(n, a)
    pol = np.ones((model.n_states, digits.shape[0]))
    for i in range(n):
        pol *= tables[i][:, digits[:, i]]
    value, slices = policy_slices(model, pol)
    others = [_others_product(tables, digits, i) for i in range(n)]
    grad = np.zeros_like(tables)
    for d_t, q_t in slices:
        for i in range(n):
            grad[i] += d_t[:, None] * ((others[i] * q_t) @ masks[i])
    return value, grad


def mapg_loss_and_grad(params, model):
    """Negative expected return of the softmax product policy and its logit
    gradient, both exact."""
    tables = softmax(params.logits)
    value, pol_grad = product_policy_value_and_grad(model, tables)
    inner = np.sum(tables * pol_grad, axis=2, keepdims=True)
    logit_grad = tables * (pol_grad - inner)
    return -value, -logit_grad


# ---------------------------------------------------------------------------
# value decomposition

def vd_forward(params, s, joint_action):
    """Mixed joint value at one (state, joint action)."""
    if not np.isscalar(joint_action):
        joint_action = joint_code(joint_action, params.n_actions)
    return float(params.joint_table()[s, int(joint_action)])


def uniform_dist(model):
    s, m = model.reward.shape
    return np.full((s, m), 1.0 / (s * m))


def _check_dist(dist, model):
    if dist is None:
        return uniform_dist(model)
    dist = np.asarray(dist, dtype=float)
    if dist.shape != model.reward.shape:
        raise ValueError(f"dist shape {dist.shape} != {model.reward.shape}")
    if np.any(dist <= 0):
        raise ValueError("sampling distribution must have full support")
    if abs(dist.sum() - 1.0) > 1e-9:
        raise ValueError("sampling distribution must sum to 1")
    return dist


def _vd_kernel(variant, q_local, w_raw, lam_raw, model, dist, digits, masks):
    """Shared TD loss/gradient over raw arrays; grads are None where unused."""
    n, s, _ = q_local.shape
    picked = [q_local[i][:, digits[:, i]] for i in range(n)]
    if variant == "vdn":
        q = picked[0].copy()
        for i in range(1, n):
            q += picked[i]
    elif variant == "monotonic":
        weights = np.exp(w_raw)
        q = weights[0][:, None] * picked[0]
        for i in range(1, n):
            q += weights[i][:, None] * picked[i]
    else:
        lam = np.exp(lam_raw)
        maxes = q_local.max(axis=2)
        adv = [picked[i] - maxes[i][:, None] for i in range(n)]
        q = lam[0] * adv[0]
        for i in range(1, n):
            q += lam[i] * adv[i]
        q += maxes.sum(axis=0)[:, None]
    if model.horizon == 1:
        target = model.reward
    else:
        target = bellman_backup(q, model)
    resid = q - target
    loss = 0.5 * float(np.sum(dist * resid * resid))
    w = dist * resid
    gq = np.empty_like(q_local)
    gw = glam = None
    if variant == "vdn":
        for i in range(n):
            gq[i] = w @ masks[i]
    elif variant == "monotonic":
        gw = np.empty_like(w_raw)
        for i in range(n):
            gq[i] = weights[i][:, None] * (w @ masks[i])
            gw[i] = weights[i] * np.sum(w * picked[i], axis=1)
    else:
        best = np.argmax(q_local, axis=2)
        glam = np.empty_like(lam_raw)
        rows = np.arange(s)
        for i in range(n):
            wlam = w * lam[i]
            glam[i] = wlam * adv[i]
            gq[i] = wlam @ masks[i]
            gq[i][rows, best[i]] += np.sum(w - wlam, axis=1)
    return loss, gq, gw, glam


def vd_loss_and_grad(params, model, dist=None):
    """Semi-gradient TD loss 0.5 E_dist[(Q - TQ)^2] and its parameter gradient.

    The bootstrap target is treated as a constant. On one-step games the
    target is the payoff table, so the loss is plain least-squares regression
    and the semi-gradient is the exact gradient.
    """
    n, _, a = params.q_local.shape
    dist = _check_dist(dist, model)
    loss, gq, gw, glam = _vd_kernel(
        params.variant, params.q_local, params.w_raw, params.lam_raw,
        model, dist, digit_table(n, a), _action_masks(n, a),
    )
    return loss, VdParams(params.variant, gq, gw, glam)


def igm_consistent(joint_row, local_rows, tol=1e-9):
    """True when every combination of local argmaxes is a joint argmax."""
    joint_row = np.asarray(joint_row, dtype=float)
    local_rows = np.asarray(local_rows, dtype=float)
    n, a = local_rows.shape
    top = np.flatnonzero(joint_row >= joint_row.max() - tol)
    top = set(int(t) for t in top)
    local_sets = [
        np.flatnonzero(local_rows[i] >= local_rows[i].max() - tol) for i in range(n)
    ]
    for combo in itertools.product(*local_sets):
        if joint_code(combo, a) not in top:
            return False
    return True


def igm_check(params, s, tol=1e-9):
    """Check local/joint greedy consistency of a VD parameter point at state s."""
    return igm_consistent(params.joint_table()[s], params.q_local[:, s, :], tol=tol)


# ---------------------------------------------------------------------------
# plain gradient descent

def gd_run(loss_and_grad, x0, lr, steps, stop_tol=0.0, monitor=None, log_every=1):
    """Constant-step gradient descent on a flat parameter vector.

    `loss_and_grad(x) -> (loss, grad)`; the run stops early once the gradient
    norm drops below `stop_tol`. `monitor(x, loss) -> (return, greedy_codes)`
    fills the policy columns of the trace at logged steps. Non-finite losses
    or gradients abort with GdDivergenceError.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    x = np.array(x0, dtype=float)
    trace = TrainTrace()
    t = 0
    while True:
        loss, grad = loss_and_grad(x)
        grad = np.asarray(grad, dtype=float)
        if not np.isfinite(loss) or not np.all(np.isfinite(grad)):
            raise GdDivergenceError(
                f"non-finite loss or gradient at step {t} (lr={lr})"
            )
        gnorm = float(np.linalg.norm(grad))
        done = t >= steps or gnorm < stop_tol
        if done or t % log_every == 0:
            if monitor is None:
                trace.append(t, loss, gnorm)
            else:
                ret, greedy = monitor(x, loss)
                trace.append(t, loss, gnorm, ret, greedy)
        if done:
            return x, trace
        x = x - lr * grad
        t += 1


def run_mapg(model, params, lr=0.05, steps=20000, stop_tol=0.0, log_every=200):
    """Gradient descent on the product-policy loss from a given logit point."""
    template = params

    def objective(x):
        loss, grad = mapg_loss_and_grad(template.unpack_like(x), model)
        return loss, grad.ravel()

    def monitor(x, loss):
        # for policy gradient the stochastic return is exactly -loss
        return -loss, template.unpack_like(x).greedy_joint()

    x, trace = gd_run(objective, template.pack(), lr, steps, stop_tol, monitor, log_every)
    return template.unpack_like(x), trace


def run_vd(model, params, lr=0.1, steps=5000, dist=None, stop_tol=0.0, log_every=200):
    """Semi-gradient TD descent for any mixer variant from a given parameter point.

    Runs the same update as gd_run over the packed vector, but keeps the
    parameter arrays in place so long runs stay cheap.
    """
    if lr <= 0:
        raise ValueError("lr must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    n, _, a = params.q_local.shape
    dist = _check_dist(dist, model)
    digits = digit_table(n, a)
    masks = _action_masks(n, a)
    variant = params.variant
    q_local = params.q_local.copy()
    w_raw = None if params.w_raw is None else params.w_raw.copy()
    lam_raw = None if params.lam_raw is None else params.lam_raw.copy()
    trace = TrainTrace()
    t = 0
    while True:
        loss, gq, gw, glam = _vd_kernel(
            variant, q_local, w_raw, lam_raw, model, dist, digits, masks
        )
        sq = float(np.sum(gq * gq))
        if gw is not None:
            sq += float(np.sum(gw * gw))
        if glam is not None:
            sq += float(np.sum(glam * glam))
        gnorm = np.sqrt(sq)
        if not np.isfinite(loss) or not np.isfinite(gnorm):
            raise GdDivergenceError(
                f"non-finite loss or gradient at step {t} (lr={lr})"
            )
        done = t >= steps or gnorm < stop_tol
        if done or t % log_every == 0:
            current = VdParams(variant, q_local, w_raw, lam_raw)
            codes = current.greedy_joint()
            pol = np.zeros(model.reward.shape)
            pol[np.arange(model.n_states), codes] = 1.0
            trace.append(t, loss, gnorm, evaluate_policy(model, pol), codes)
        if done:
            return VdParams(variant, q_local, w_raw, lam_raw), trace
        q_local -= lr * gq
        if gw is not None:
            w_raw -= lr * gw
        if glam is not None:
            lam_raw -= lr * glam
        t += 1


# ---------------------------------------------------------------------------
# single-agent solvers for the transformed models

def value_iteration(mdp, tol=1e-10):
    """Optimal action values and the greedy deterministic policy."""
    require_valid(mdp)
    q, _ = optimal_values(mdp, tol=tol)
    return ValueTable.from_q(q), np.argmax(q, axis=1)


def _final_steps(model):
    """Mask of the states at the last episode step, which do not bootstrap."""
    if model.horizon is None:
        return np.zeros(model.n_states, dtype=bool)
    return episode_positions(model) == model.horizon - 1


def q_learning(mdp, sweeps=200, mode="synchronous", lr=0.5, steps=100_000,
               lr_halflife=50.0, rng=None):
    """Tabular Q-learning on a (possibly layered episodic) model.

    synchronous: deterministic full sweeps q += lr * (target - q).
    sampled: uniformly random (s, a) pairs, sampled next states, and a
    per-pair step size lr_halflife / (lr_halflife + visits).
    """
    require_valid(mdp)
    q = np.zeros_like(mdp.reward)
    if mode not in ("synchronous", "sampled"):
        raise ValueError(f"unknown mode {mode!r}")
    final = _final_steps(mdp)
    if mode == "synchronous":
        for _ in range(sweeps):
            target = bellman_backup(q, mdp)
            target[final] = mdp.reward[final]
            q = q + lr * (target - q)
        return ValueTable.from_q(q)
    rng = np.random.default_rng(rng)
    s_dim, a_dim = mdp.reward.shape
    s_all = rng.integers(s_dim, size=steps)
    a_all = rng.integers(a_dim, size=steps)
    u_all = rng.random(steps)
    cdf = np.cumsum(mdp.transition, axis=2)
    visits = np.zeros((s_dim, a_dim))
    reward = mdp.reward
    gamma = mdp.gamma
    for t in range(steps):
        s = s_all[t]
        a = a_all[t]
        nxt = min(np.searchsorted(cdf[s, a], u_all[t], side="right"), s_dim - 1)
        boot = 0.0 if final[s] else q[nxt].max()
        visits[s, a] += 1.0
        alpha = lr_halflife / (lr_halflife + visits[s, a])
        q[s, a] += alpha * (reward[s, a] + gamma * boot - q[s, a])
    return ValueTable.from_q(q)


def layered_q_learning(model, sweeps=200, lr=0.5):
    """Synchronous Q-learning on the sequential transform of an MMDP, run
    layer by layer on the MMDP's tensors without building the transform.

    Each sweep moves every layer toward its target from the previous
    iterate: gamma' * max of layer k+1 for layer k < n-1, and
    R + gamma' * T @ max(q_0) for the last layer, which does not bootstrap
    at the final episode step. Never-reached base states of episodic models
    target zero in their intermediate layers, as the dense transform pins
    them to its last step. The iterates are those of synchronous
    `q_learning` on the dense transform (rows in its virtual-state order),
    up to summation order in T @ max(q_0).
    """
    gamma_step = step_discount(model)
    a, n = model.n_actions, model.n_agents
    final = np.repeat(_final_steps(model), a ** (n - 1))
    dead = [np.repeat(never_reached(model), a**k) for k in range(n - 1)]
    last_reward = model.reward.reshape(-1, a)
    q = [np.zeros((model.n_states * a**k, a)) for k in range(n)]
    for _ in range(sweeps):
        targets = [layer_backup(model, k, row_max(q[(k + 1) % n]), gamma_step)
                   for k in range(n)]
        targets[-1][final] = last_reward[final]
        for t_k, dead_k in zip(targets, dead):
            t_k[dead_k] = 0.0
        q = [q_k + lr * (t_k - q_k) for q_k, t_k in zip(q, targets)]
    return ValueTable.from_q(np.concatenate(q))


def softmax_pg(mdp, lr=0.05, steps=2000, clip=None, inner_epochs=4,
               init_logits=None, stop_tol=0.0, log_every=50):
    """Exact-gradient softmax policy gradient on a single-agent model.

    With `clip` set, each outer step freezes the current policy, occupancy,
    and advantages, then takes `inner_epochs` ascent steps on the clipped
    ratio surrogate with exact expectations.
    """
    require_valid(mdp)
    s_dim, a_dim = mdp.reward.shape
    logits = np.zeros((s_dim, a_dim)) if init_logits is None else np.array(init_logits, dtype=float)
    if clip is None:
        template = MapgParams(logits[None, :, :])

        def objective(x):
            loss, grad = mapg_loss_and_grad(template.unpack_like(x), mdp)
            return loss, grad.ravel()

        def monitor(x, loss):
            return -loss, np.argmax(template.unpack_like(x).logits[0], axis=1)

        x, trace = gd_run(objective, template.pack(), lr, steps, stop_tol, monitor, log_every)
        return template.unpack_like(x).logits[0], trace
    if clip <= 0:
        raise ValueError("clip must be positive")
    trace = TrainTrace()
    for t in range(steps + 1):
        pi_old = softmax(logits)
        value, occ_q = policy_slices(mdp, pi_old)
        if t % log_every == 0 or t == steps:
            _, grad = mapg_loss_and_grad(MapgParams(logits[None]), mdp)
            trace.append(t, -value, float(np.linalg.norm(grad)),
                         value, np.argmax(logits, axis=1))
        if t == steps:
            break
        for _ in range(inner_epochs):
            pi = softmax(logits)
            surr = np.zeros_like(logits)
            for d_t, q_t in occ_q:
                v_t = np.sum(pi_old * q_t, axis=1)
                adv = q_t - v_t[:, None]
                ratio = pi / pi_old
                clipped = ((adv > 0) & (ratio > 1.0 + clip)) | (
                    (adv < 0) & (ratio < 1.0 - clip)
                )
                dpi = np.where(clipped, 0.0, d_t[:, None] * adv)
                inner = np.sum(pi * dpi, axis=1, keepdims=True)
                surr += pi * (dpi - inner)
            logits = logits + lr * surr
    return logits, trace


# ---------------------------------------------------------------------------
# constructive duplex decomposition

def duplex_decompose(target, a_star, n_agents=None, lam_floor=1e-12):
    """Duplex parameters that reproduce a joint table with prescribed local
    argmaxes.

    `target` is [n_states, n_joint] (1-D and rank-3+ payoff tensors are
    flattened to a single state); `a_star` must be a maximizing joint action
    in every state. Construction per state: each agent's table holds
    target(a*)/n at its a* slot and target(a*)/n - 1 elsewhere, and for every
    joint action the disagreeing agents carry an advantage weight of
    (target(a*) - target(a)) / #disagreeing (floored at `lam_floor` for
    ties). The mixed table then matches `target` up to n * lam_floor, with
    strict local argmaxes at a*.
    """
    arr = np.asarray(target, dtype=float)
    # a_star: tuple/list = one per-agent action tuple; int = one joint code;
    # ndarray = per-state joint codes
    if isinstance(a_star, (tuple, list)):
        a_star = tuple(int(x) for x in a_star)
        if n_agents is None:
            n_agents = len(a_star)
    if n_agents is None:
        raise ValueError("n_agents is required when a_star is not an action tuple")
    if arr.ndim == 1:
        arr = arr[None, :]
    elif arr.ndim == n_agents and arr.ndim > 2:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise ValueError(f"cannot interpret target of shape {np.shape(target)}")
    s_dim, n_joint = arr.shape
    a_dim = round(n_joint ** (1.0 / n_agents))
    if a_dim**n_agents != n_joint:
        raise ValueError(f"{n_joint} joint actions is not a power of a common action count")
    if isinstance(a_star, tuple):
        codes = np.full(s_dim, joint_code(a_star, a_dim), dtype=np.intp)
    else:
        codes = np.broadcast_to(np.asarray(a_star, dtype=np.intp), (s_dim,)).copy()
    digits = digit_table(n_agents, a_dim)
    params = VdParams("duplex", np.zeros((n_agents, s_dim, a_dim)))
    for s in range(s_dim):
        code = int(codes[s])
        v = arr[s, code]
        if arr[s].max() > v + 1e-12:
            raise ValueError(f"a_star is not a maximizer at state {s}")
        star = digits[code]
        for i in range(n_agents):
            params.q_local[i, s, :] = v / n_agents - 1.0
            params.q_local[i, s, star[i]] = v / n_agents
        disagree = digits != star[None, :]
        k = disagree.sum(axis=1)
        for ja in range(n_joint):
            if k[ja] == 0:
                continue
            lam = max((v - arr[s, ja]) / k[ja], lam_floor)
            for i in range(n_agents):
                if disagree[ja, i]:
                    params.lam_raw[i, s, ja] = np.log(lam)
    return params


# ---------------------------------------------------------------------------
# the transform-and-distill composition

def tad_run(model, sarl="vi", distill="greedy", seed=None, **cfg):
    """Transform, solve with a single-agent learner, lower, and distill.

    vi and synchronous q_learning solve the transform layer by layer on the
    MMDP's own tensors and never build it; sampled q_learning and the
    policy-gradient learners run on the dense `sequential_transform`.
    Returns the decentralized policies and a trace. Iterative learners
    contribute their own trace (measured on the transformed model); vi and
    q_learning yield a single summary row whose loss column holds the
    negated final return.
    """
    require_valid(model)
    trace = None
    q = None
    if sarl == "vi":
        tol = cfg.pop("tol", 1e-10)
        if cfg:
            raise ValueError(f"unknown vi options: {sorted(cfg)}")
        q, _ = layered_optimal_values(model, tol=tol)
    elif sarl == "q_learning" and cfg.get("mode", "synchronous") == "synchronous":
        cfg.pop("mode", None)
        q = layered_q_learning(model, **cfg).q
    elif sarl == "q_learning":
        q = q_learning(sequential_transform(model), rng=seed, **cfg).q
    elif sarl in ("softmax_pg", "clipped_pg"):
        if sarl == "clipped_pg":
            cfg.setdefault("clip", 0.2)
        logits, trace = softmax_pg(sequential_transform(model), **cfg)
        pol = softmax(logits)
    else:
        raise ValueError(f"unknown single-agent learner {sarl!r}")
    if q is not None:
        pol = np.zeros(q.shape)
        pol[np.arange(q.shape[0]), np.argmax(q, axis=1)] = 1.0
    pc = lower_policy(pol, model.n_agents)
    if distill == "greedy":
        policies = greedy_distill(pc, model)
    elif distill == "kl":
        policies, _ = kl_distill(pc, model)
    else:
        raise ValueError(f"unknown distillation {distill!r}")
    final_return = evaluate_policy(model, policies)
    codes = greedy_codes(policies.tables)
    if trace is None:
        trace = TrainTrace()
        trace.append(0, -final_return, 0.0, final_return, codes)
    else:
        trace.append(trace.step[-1] + 1, -final_return,
                     trace.grad_norm[-1], final_return, codes)
    return policies, trace
