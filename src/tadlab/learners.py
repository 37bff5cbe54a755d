"""Gradient-descent learners and single-agent solvers, all with exact math.

Two families of multi-agent learners live here:

- product-policy gradient descent on the negative expected return, with the
  gradient sum_t d_t * q_t read from the exact slices of
  `core.policy_slices`;
- value decomposition trained by semi-gradient TD (the bootstrap target is
  frozen per step), with three mixers: additive (vdn), positive linear
  mixing (monotonic), and a dueling mixer whose advantage weights are
  strictly positive (duplex), which keeps local and joint argmaxes
  consistent for every parameter setting.

Both families descend through one loop, `gd_run`, on the flat parameter
vector: `mapg_objective` and `vd_objective` turn a parameter template and a
model into the `(loss, packed gradient)` function it calls, on views of x,
and `run_mapg`, `run_vd` and unclipped `softmax_pg` are thin wrappers
around it. These small-array loops are bound by per-call overhead rather
than arithmetic, so the kernels carry agents and replicas as array axes.
One cached index `take`s every agent's table at its digit of each joint
action into [..., n, S, M], and agent sums and products reduce axis -3 in
agent order. The kernels, the objectives and `gd_run` take an optional
leading replica axis (`MapgParams.logits` [K, n, S, A], `VdParams` arrays
[K, ...], a [K, d] stack of flat vectors), so K points descend in one
pass. Each replica's numbers come from its own row alone, bit for bit what
a one-replica run gives (gathers use `take`, whose C-ordered output keeps
the layout independent of K); a stack-aware objective handed to `gd_run`
must keep that contract.

The single-agent side runs on one-agent models: `value_iteration` (the
oracle's policy iteration under its old name, returning the table and its
greedy policy) and synchronous `q_learning` (returning the table), the
dense references in the tests. They, and `mapg_loss_and_grad` and
`vd_loss_and_grad`, the objectives' one-point forms, stay in the package
because the benchmark's tracer wraps them by name. The transform-and-distill
composition, `tad_run`, solves the sequential transform of an MMDP on the MMDP's own
tensors and never builds the dense transform: `layered_optimal_values`
unrolls the oracle's optimal joint table into the layers,
`layered_q_learning` backs up one flat [V, A] table per sweep, and
`softmax_pg` (TAD-PG, or TAD-PPO with the clipped surrogate) descends [V, A]
transform logits on the exact slices of `layered_policy_slices`. Greedy
distillation then yields decentralized policies with the solver's
optimality carried over.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DecentralizedPolicySet,
    DeterministicJointPolicy,
    bellman_backup,
    check_options,
    digit_table,
    episode_positions,
    evaluate_policy,
    greedy_codes,
    joint_code,
    one_hot,
    optimal_values,
    policy_slices,
    row_norms,
)
from .transform import (
    greedy_distill,
    kl_distill,
    layer_backup,
    layer_offsets,
    layered_optimal_values,
    layered_policy_slices,
    lower_policy,
    never_reached_rows,
    row_max,
    step_discount,
)


class GdDivergenceError(RuntimeError):
    """Gradient descent produced a non-finite loss or gradient."""


def softmax(logits):
    z = logits - logits.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


# ---------------------------------------------------------------------------
# parameter containers

@dataclass(eq=False, repr=False)
class MapgParams:
    """Softmax logits [n_agents, n_states, n_actions] for decentralized policies.

    A leading replica axis, [K, n_agents, n_states, n_actions], holds K
    independent parameter points; `pack` then gives a [K, d] stack.
    """

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
        return self.logits.reshape(self.logits.shape[:-3] + (-1,)).copy()

    def unpack_like(self, vec):
        """Params of this point's shape from a flat [d] vector or a [K, d] stack."""
        vec = np.asarray(vec, dtype=float)
        return MapgParams(vec.reshape(vec.shape[:-1] + self.logits.shape[-3:]))


VD_VARIANTS = ("vdn", "monotonic", "duplex")


@dataclass(eq=False, repr=False)
class VdParams:
    """Local tables plus mixer parameters for one value-decomposition variant.

    q_local: [n_agents, n_states, n_actions]
    w_raw:   [n_agents, n_states]            (monotonic; weights are exp(w_raw))
    lam_raw: [n_agents, n_states, n_joint]   (duplex; weights are exp(lam_raw))

    Every array may carry the same leading replica axis [K, ...] for K
    independent points; `pack` then gives a [K, d] stack.
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
                self.w_raw = np.zeros(self.q_local.shape[:-1])
            self.w_raw = np.asarray(self.w_raw, dtype=float)
        if self.variant == "duplex":
            if self.lam_raw is None:
                n, a = self.n_agents, self.n_actions
                self.lam_raw = np.zeros(self.q_local.shape[:-1] + (a**n,))
            self.lam_raw = np.asarray(self.lam_raw, dtype=float)

    @property
    def n_agents(self):
        return self.q_local.shape[-3]

    @property
    def n_states(self):
        return self.q_local.shape[-2]

    @property
    def n_actions(self):
        return self.q_local.shape[-1]

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
        """Mixed joint values [..., n_states, n_actions**n_agents]."""
        return _vd_mix(self.variant, self.q_local, self.mix)[0]

    def greedy_joint(self):
        """Per-state joint code composed from local argmaxes (ties: lowest index)."""
        return greedy_codes(self.q_local)

    @property
    def mix(self):
        """The mixer's raw array: w_raw, lam_raw, or None for vdn."""
        return self.lam_raw if self.variant == "duplex" else self.w_raw

    def pack(self):
        batch = self.q_local.shape[:-3]
        return np.concatenate([arr.reshape(batch + (-1,))
                               for arr in (self.q_local, self.mix) if arr is not None],
                              axis=-1)

    def point_shapes(self):
        """Per-replica shapes of q_local and of the mixer array (None for vdn)."""
        lead, mix = self.q_local.ndim - 3, self.mix
        return self.q_local.shape[lead:], None if mix is None else mix.shape[lead:]

    def unpack_like(self, vec):
        """Params of this point's shape from a flat [d] vector or a [K, d] stack."""
        q_local, mix = _vd_views(np.asarray(vec, dtype=float), *self.point_shapes())
        return VdParams(self.variant, q_local,
                        *((mix, None) if self.variant == "monotonic" else (None, mix)))


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


class ReplicaTraces(tuple):
    """The traces of a batched run: one TrainTrace per replica.

    `step` lists every step at which any replica logged, so `step[-1]` is
    the last step of the longest-running replica; `traces[k]` is replica
    k's own trace, whose rows end at its own stop step.
    """

    @property
    def step(self):
        return sorted(set().union(*(trace.step for trace in self)))


# ---------------------------------------------------------------------------
# exact policy gradient for product policies

@functools.lru_cache(maxsize=None)
def _agent_axis(n_agents, n_states, n_actions):
    """The read-only index arrays of the agent-stacked kernels:

    - flat [n, S, M], flat[i, s, j] = (i*S + s)*A + digit_i(j): agent i's
      entry at its digit of joint action j in the [..., n*S*A] view;
    - masks [n, M, A]: one-hot, masks[i] sums joint columns onto agent i's
      digit;
    - others: row i lists the agents other than i, in order; [n, n-1], or
      [n] for two agents, whose one other factor needs no product.
    """
    digits = digit_table(n_agents, n_actions)
    rows = np.arange(n_agents * n_states).reshape(n_agents, n_states, 1)
    flat = np.ascontiguousarray(rows * n_actions + digits.T[:, None, :])
    masks = one_hot(digits.T, n_actions)
    others = np.array([[j for j in range(n_agents) if j != i] for i in range(n_agents)],
                      dtype=np.intp).reshape(n_agents, n_agents - 1)
    others = others.ravel() if n_agents == 2 else others
    for arr in (flat, masks, others):
        arr.flags.writeable = False
    return flat, masks, others


def _picked(tables):
    """Every agent's table read at its digit of each joint action, in one
    gather: [..., n, S, M] from [..., n, S, A].

    `take` returns a C-ordered array whatever the strides of `tables`
    (fancy indexing need not), so the agent reductions downstream run along
    the same memory layout for every replica and batch size, which keeps a
    replica's bits independent of the batch.
    """
    flat = _agent_axis(*tables.shape[-3:])[0]
    return tables.reshape(tables.shape[:-3] + (-1,)).take(flat, axis=-1)


def product_policy_value_and_grad(model, tables):
    """Expected return of a product policy and its policy-space gradient.

    `tables` is [n_agents, n_states, n_actions], or a [K, ...] stack of K
    replicas; the gradient entry g[i, s, b] is d J / d pi_i(b|s): the
    occupancy-weighted action value of agent i playing b while the others
    follow their tables.
    """
    _, masks, index = _agent_axis(*tables.shape[-3:])
    picked = _picked(tables)
    value, slices = policy_slices(model, picked.prod(axis=-3))
    # products over axis -3 multiply the agents left to right; `take` gives
    # the other agents' factors as a C-ordered copy, so the matmul below
    # reads the same layout at every K
    others = picked.take(index, axis=-3)
    if index.ndim == 2:
        others = others.prod(axis=-3)
    # 0.0 + first term: the bits (signed zeros too) of a zeros buffer += term
    grad = 0.0
    for d_t, q_t in slices:
        grad = grad + d_t[..., None, :, None] * ((others * q_t[..., None, :, :]) @ masks)
    return value, grad


def mapg_loss_and_grad(params, model):
    """Negative expected return of the softmax product policy and its logit
    gradient, both exact (K of each for [K, ...] stacked logits)."""
    loss, grad = mapg_objective(params, model)(params.pack())
    return loss, grad.reshape(params.logits.shape)


def mapg_objective(template, model):
    """`f(x) -> (loss, packed gradient)` of the product-policy loss, for a
    flat x of `template`'s point shape or a [K, d] stack of them."""
    shape = template.logits.shape[-3:]

    def f(x):
        tables = softmax(x.reshape(x.shape[:-1] + shape))
        value, pol_grad = product_policy_value_and_grad(model, tables)
        inner = (tables * pol_grad).sum(axis=-1, keepdims=True)
        return -value, -(tables * (pol_grad - inner)).reshape(x.shape)

    return f


# ---------------------------------------------------------------------------
# value decomposition

def uniform_dist(model):
    s, m = model.reward.shape
    return np.full((s, m), 1.0 / (s * m))


def _check_dist(dist, model):
    if dist is None:
        return uniform_dist(model)
    dist = np.asarray(dist, dtype=float)
    if dist.shape != model.reward.shape:
        raise ValueError(f"dist shape {dist.shape} != {model.reward.shape}")
    if not (dist > 0).all():  # false for NaN entries too
        raise ValueError("sampling distribution must have full support")
    if abs(dist.sum() - 1.0) > 1e-9:
        raise ValueError("sampling distribution must sum to 1")
    return dist


def _vd_views(vec, point, mix_shape):
    """(q_local, mixer array) views of a flat [d] vector or a [K, d] stack,
    in per-replica shapes `point` and `mix_shape` (None for vdn). Each is a
    last-axis slice split into axes, which needs no copy in either layout."""
    batch, nq = vec.shape[:-1], math.prod(point)
    q_local = vec[..., :nq].reshape(batch + point)
    if mix_shape is None:
        return q_local, None
    return q_local, vec[..., nq:].reshape(batch + mix_shape)


def _vd_mix(variant, q_local, mix):
    """Mixed joint table [..., S, M] from local tables [..., n, S, A] and the
    mixer's raw parameters (None, w_raw or lam_raw), plus the per-agent
    terms its gradient reuses: the picked tables and, for monotonic, the
    weights exp(w_raw) [..., n, S, 1]; for duplex the advantages and their
    weights exp(lam_raw). Agents are summed over axis -3, in agent order."""
    picked = _picked(q_local)
    if variant == "vdn":
        return picked.sum(axis=-3), picked, None
    if variant == "monotonic":
        weights = np.exp(mix)[..., None]
        return (weights * picked).sum(axis=-3), picked, weights
    lam = np.exp(mix)
    maxes = q_local.max(axis=-1, keepdims=True)
    adv = picked - maxes
    q = (lam * adv).sum(axis=-3)
    q += maxes.sum(axis=-3)
    return q, adv, lam


def vd_loss_and_grad(params, model, dist=None):
    """Semi-gradient TD loss 0.5 E_dist[(Q - TQ)^2] and its parameter gradient.

    The bootstrap target is treated as a constant. On one-step games the
    target is the payoff table, so the loss is plain least-squares regression
    and the semi-gradient is the exact gradient; in other episodic models
    (which must be layered) states at the last episode step do not
    bootstrap either, as in `q_learning`. Params with a leading
    replica axis give one loss per replica and stacked gradients, each
    replica's from its own row only.
    """
    loss, grad = vd_objective(params, model, dist)(params.pack())
    return loss, params.unpack_like(grad)


def vd_objective(template, model, dist=None):
    """`f(x) -> (loss, packed gradient)` of the semi-gradient TD loss, for a
    flat x of `template`'s point shape or a [K, d] stack of them.

    `dist` is checked, and the view shapes and the final-step mask are
    computed, once here; each call runs on views of x and joins the packed
    gradient with one concatenate, so a long descent pays no per-step checks
    or repacking."""
    dist = _check_dist(dist, model)
    final = np.flatnonzero(_final_steps(model))
    variant, shapes = template.variant, template.point_shapes()
    masks = _agent_axis(*shapes[0])[1]
    row_starts = {}

    def f(x):
        q_local, mix = _vd_views(x, *shapes)
        q, terms, weights = _vd_mix(variant, q_local, mix)
        if model.horizon == 1:
            target = model.reward
        else:
            target = bellman_backup(q, model)
            if final.size:
                target[..., final, :] = model.reward[final]
        resid = q - target
        w = dist * resid
        loss = 0.5 * (w * resid).reshape(resid.shape[:-2] + (-1,)).sum(-1)
        w = w[..., None, :, :]
        if variant == "vdn":
            return loss, (w @ masks).reshape(x.shape)
        if variant == "monotonic":
            gq, g_mix = weights * (w @ masks), weights[..., 0] * (w * terms).sum(-1)
        else:
            # one copy of w per agent, so the products below need no broadcast
            w = w.repeat(len(masks), axis=-3)
            wlam = w * weights
            gq = wlam @ masks
            # d q / d max_i = 1 - lam_i, routed to agent i's local argmax; gq
            # is a fresh C-ordered array, so its flat reshape is a view and
            # the update lands
            g_flat = gq.reshape(-1)
            if g_flat.size not in row_starts:
                row_starts[g_flat.size] = np.arange(0, g_flat.size, gq.shape[-1])
            g_flat[row_starts[g_flat.size] + q_local.argmax(-1).ravel()] += (w - wlam).sum(-1).ravel()
            g_mix = wlam * terms
        flat = x.shape[:-1] + (-1,)
        return loss, np.concatenate((gq.reshape(flat), g_mix.reshape(flat)), axis=-1)

    return f


#: values within this of a row's maximum count as argmaxes in `igm_consistent`
IGM_TOL = 1e-9


def igm_consistent(joint_row, local_rows):
    """True when every combination of local argmaxes (to `IGM_TOL`) is a
    joint argmax."""
    joint_row = np.asarray(joint_row, dtype=float)
    local_rows = np.asarray(local_rows, dtype=float)
    n, a = local_rows.shape
    top = np.flatnonzero(joint_row >= joint_row.max() - IGM_TOL)
    top = set(int(t) for t in top)
    local_sets = [
        np.flatnonzero(local_rows[i] >= local_rows[i].max() - IGM_TOL) for i in range(n)
    ]
    for combo in itertools.product(*local_sets):
        if joint_code(combo, a) not in top:
            return False
    return True


def igm_check(params, s):
    """Check local/joint greedy consistency of a VD parameter point at state s."""
    return igm_consistent(params.joint_table()[s], params.q_local[:, s, :])


# ---------------------------------------------------------------------------
# plain gradient descent

def _scaled_norms(grad, t):
    """`row_norms` when a sum of squares overflows: a row whose norm is not
    finite gets m * sqrt(sum((g / m)**2)), m its largest magnitude. Its
    callers, the descent loops, ignore the overflow warning."""
    norms = row_norms(grad)
    big = ~np.isfinite(norms)
    m = np.abs(grad[big]).max(axis=1)
    norms[big] = m * row_norms(grad[big] / m[:, None])
    if not np.isfinite(norms).all():
        raise GdDivergenceError(f"gradient norm beyond the float range at step {t}")
    return norms


def _check_finite(loss, grad, t, lr):
    """Raise GdDivergenceError unless the losses and gradient rows [K, d] of
    step t are finite; returns whether a row's sum of squares overflows, so
    that its norm needs `_scaled_norms`."""
    # a finite sum of squares proves every entry finite; one that overflows
    # falls through to the entrywise check (vdot is a BLAS dot that raises no
    # floating-point warning)
    overflow = not math.isfinite(np.vdot(grad, grad))
    if not ((math.isfinite(np.vdot(loss, loss)) and not overflow)
            or (np.isfinite(loss).all() and np.isfinite(grad).all())):
        raise GdDivergenceError(f"non-finite loss or gradient at step {t} (lr={lr})")
    return overflow


def gd_run(loss_and_grad, x0, lr, steps, stop_tol=0.0, monitor=None, log_every=1):
    """Constant-step gradient descent on a flat parameter vector, or on a
    [K, d] stack of K independent replicas.

    `loss_and_grad(x) -> (loss, grad)` is called on x in the shape of `x0`;
    on a stack it returns K losses and a [K, d] gradient, whose row k must
    depend on row k of x alone. A replica stops once its gradient norm drops
    below `stop_tol` and stays frozen from then on; the run ends when every
    replica has stopped, or after `steps` steps. `monitor(x, loss) ->
    (return, greedy_codes)` fills the policy columns of a replica's trace at
    its logged steps, called on that replica's row. The gradient norm is
    computed only where it is logged or tested against `stop_tol`; a row
    whose sum of squares overflows gets it by scaling (`_scaled_norms`).
    Non-finite losses or gradients abort with GdDivergenceError, and options
    outside their `OPTION_BOUNDS` with ValueError. Returns the final x and a
    TrainTrace, or ReplicaTraces for a stack.
    """
    lr, steps, stop_tol, log_every = check_options(
        lr=lr, steps=steps, stop_tol=stop_tol, log_every=log_every)
    x = np.array(x0, dtype=float)
    stacked = x.ndim == 2
    n_rows = len(x) if stacked else 1
    rows = x.reshape(n_rows, -1)
    traces = [TrainTrace() for _ in range(n_rows)]
    live = np.ones(n_rows, dtype=bool)
    frozen = False
    t = 0
    # an overflowing step or objective warns before `_check_finite` turns it
    # into GdDivergenceError; one error state for the run costs no step
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            loss, grad = loss_and_grad(x)
            loss = np.asarray(loss, dtype=float).reshape(n_rows)
            grad = np.asarray(grad, dtype=float).reshape(n_rows, -1)
            overflow = _check_finite(loss, grad, t, lr)
            logged = t % log_every == 0
            if logged or t >= steps or stop_tol > 0:
                gnorm = _scaled_norms(grad, t) if overflow else row_norms(grad)
                stop = (gnorm < stop_tol) | (t >= steps)
                for k in np.flatnonzero(live & (stop | logged)):
                    if monitor is None:
                        traces[k].append(t, loss[k], gnorm[k])
                    else:
                        ret, greedy = monitor(x[k] if stacked else x, loss[k])
                        traces[k].append(t, loss[k], gnorm[k], ret, greedy)
                live &= ~stop
                if not live.any():
                    return x, ReplicaTraces(traces) if stacked else traces[0]
                frozen = not live.all()
            step = lr * grad
            if frozen:
                step[~live] = 0.0
            rows -= step
            t += 1


def run_mapg(model, params, lr=0.05, steps=20000, log_every=200):
    """Gradient descent on the product-policy loss from a given logit point,
    or from a [K, ...] stack of K points run as one batched descent."""
    def monitor(x, loss):
        # for policy gradient the stochastic return is exactly -loss
        return -loss, params.unpack_like(x).greedy_joint()

    x, trace = gd_run(mapg_objective(params, model), params.pack(), lr, steps,
                      monitor=monitor, log_every=log_every)
    return params.unpack_like(x), trace


def run_vd(model, params, lr=0.1, steps=5000, log_every=200):
    """Semi-gradient TD descent for any mixer variant from a given parameter
    point, or from a [K, ...] stack of K points run as one batched descent,
    under the uniform sampling distribution. The trace's return column is
    the exact return of the greedy policy."""
    def monitor(x, loss):
        codes = params.unpack_like(x).greedy_joint()
        return evaluate_policy(model, DeterministicJointPolicy(codes)), codes

    x, trace = gd_run(vd_objective(params, model), params.pack(), lr, steps,
                      monitor=monitor, log_every=log_every)
    return params.unpack_like(x), trace


# ---------------------------------------------------------------------------
# single-agent solvers for the transformed models

def value_iteration(mdp, tol=1e-10):
    """Optimal action values [S, A] and the greedy deterministic policy.

    The name is kept; the solver is `optimal_values`: policy iteration to
    advantage tolerance `tol` for infinite horizons (the table is the exact
    action values of the last policy, whose values are within
    tol / (1 - gamma) of the optimum), backward induction otherwise.
    """
    q, _ = optimal_values(mdp, tol=tol)
    return q, np.argmax(q, axis=1)


def _final_steps(model):
    """Mask of the states at the last episode step, which do not bootstrap."""
    if model.horizon is None:
        return np.zeros(model.n_states, dtype=bool)
    return episode_positions(model) == model.horizon - 1


def q_learning(mdp, sweeps=200, lr=0.5):
    """Synchronous tabular Q-learning on a (possibly layered episodic)
    one-agent model: deterministic full sweeps q += lr * (target - q), in
    which final-step states do not bootstrap. Returns the [S, A] table. On
    a dense transform it is the reference that `layered_q_learning`'s
    iterates are checked against.
    """
    sweeps, lr = check_options(sweeps=sweeps, lr=lr)
    q = np.zeros_like(mdp.reward)
    final = _final_steps(mdp)
    for _ in range(sweeps):
        target = bellman_backup(q, mdp)
        target[final] = mdp.reward[final]
        q = q + lr * (target - q)
    return q


def layered_q_learning(model, sweeps=200, lr=0.5):
    """Synchronous Q-learning on the sequential transform of an MMDP, on the
    MMDP's tensors: returns one [V, A] table in virtual-state order, whose
    iterates are those of `q_learning` on the dense transform up to
    summation order.

    Each sweep moves every row toward gamma' * (max of its layer-k+1 child
    row), or R + gamma' * T @ max(layer 0) in the last layer. By the layout
    rule in `transform`, the children of layers 0..n-2 are rows [S, V) in
    order, so those rows' maxima, as rows of A, are their targets.
    Final-step rows do not bootstrap; never-reached rows target zero, as in
    the dense transform.
    """
    sweeps, lr = check_options(sweeps=sweeps, lr=lr)
    gamma_step = step_discount(model)
    s, a, n = model.n_states, model.n_actions, model.n_agents
    offsets, total = layer_offsets(s, n, a)
    final = np.flatnonzero(np.repeat(_final_steps(model), a ** (n - 1)))
    final_reward = model.reward.reshape(-1, a)[final]
    final += offsets[-1]
    dead = never_reached_rows(model)
    q = np.zeros((total, a))
    for _ in range(sweeps):
        v = row_max(q)
        target = np.concatenate((gamma_step * v[s:].reshape(-1, a),
                                 layer_backup(model, n - 1, v[:s], gamma_step)))
        target[final] = final_reward
        target[dead] = 0.0
        q += lr * (target - q)
    return q


def _tad_pg_eval(model, logits):
    """Softmax policy of [V, A] transform logits, its negative return on the
    transform, the exact logit gradient and the `layered_policy_slices`."""
    pi = softmax(logits)
    value, slices = layered_policy_slices(model, pi)
    pol_grad = 0.0
    for d_t, q_t in slices:
        pol_grad = pol_grad + d_t[:, None] * q_t
    inner = (pi * pol_grad).sum(axis=-1, keepdims=True)
    return pi, -value, -(pi * (pol_grad - inner)), slices


#: TAD-PPO: ascent steps on the clipped surrogate per outer step, and the
#: clip range `tad_run(sarl="clipped_pg")` uses when none is given
PPO_EPOCHS = 4
PPO_CLIP = 0.2


def softmax_pg(model, lr=0.05, steps=2000, clip=None, stop_tol=0.0, log_every=50):
    """Exact-gradient softmax policy gradient (TAD-PG) on the sequential
    transform of an MMDP, one logit row per virtual state: [V, A] logits,
    starting from zero (the uniform policy).

    The transform is never built: every step reads `layered_policy_slices`,
    and a one-agent model, its own transform, reads `policy_slices`.
    Unclipped, `gd_run` descends the negative return. With `clip` set
    (TAD-PPO), each outer step freezes the current policy, occupancy, and
    advantages, then takes `PPO_EPOCHS` ascent steps on the clipped ratio
    surrogate with exact expectations. Both forms stop at the first step
    whose exact (unclipped) gradient norm is below `stop_tol`, and log it;
    both check every step and take its norm as `gd_run` does.
    """
    step_discount(model)
    shape = (layer_offsets(model.n_states, model.n_agents, model.n_actions)[1],
             model.n_actions)
    logits = np.zeros(shape)
    if clip is None:
        def objective(x):
            return _tad_pg_eval(model, x.reshape(shape))[1:3]

        def monitor(x, loss):
            # for policy gradient the stochastic return is exactly -loss
            return -loss, np.argmax(x.reshape(shape), axis=1)

        x, trace = gd_run(objective, logits.ravel(), lr, steps, stop_tol, monitor, log_every)
        return x.reshape(shape), trace
    lr, steps, clip, stop_tol, log_every = check_options(
        lr=lr, steps=steps, clip=clip, stop_tol=stop_tol, log_every=log_every)
    trace = TrainTrace()
    # as in `gd_run`, and for the ratio below
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(steps + 1):
            pi_old, loss, grad, occ_q = _tad_pg_eval(model, logits)
            grad = grad.reshape(1, -1)
            overflow = _check_finite(loss, grad, t, lr)
            logged = t % log_every == 0
            if logged or t == steps or stop_tol > 0:
                gnorm = float((_scaled_norms(grad, t) if overflow else row_norms(grad))[0])
                stop = gnorm < stop_tol or t == steps
                if logged or stop:
                    trace.append(t, loss, gnorm, -loss, np.argmax(logits, axis=1))
                if stop:
                    break
            for _ in range(PPO_EPOCHS):
                pi = softmax(logits)
                # an underflowed probability gives 0/0 = nan, which selects no clip
                ratio = pi / pi_old
                surr = np.zeros_like(logits)
                for d_t, q_t in occ_q:
                    adv = q_t - np.sum(pi_old * q_t, axis=1, keepdims=True)
                    clipped = (((adv > 0) & (ratio > 1.0 + clip))
                               | ((adv < 0) & (ratio < 1.0 - clip)))
                    dpi = np.where(clipped, 0.0, d_t[:, None] * adv)
                    inner = np.sum(pi * dpi, axis=1, keepdims=True)
                    surr += pi * (dpi - inner)
                logits = logits + lr * surr
    return logits, trace


# ---------------------------------------------------------------------------
# constructive duplex decomposition

#: smallest duplex advantage weight, which tied joint actions get
LAM_FLOOR = 1e-12


def duplex_decompose(target, a_star, n_agents=None):
    """Duplex parameters that reproduce a joint table with prescribed local
    argmaxes.

    `target` is [n_states, n_joint] (1-D and rank-3+ payoff tensors are
    flattened to a single state); `a_star` must be a maximizing joint action
    in every state. Construction per state: each agent's table holds
    target(a*)/n at its a* slot and target(a*)/n - 1 elsewhere, and for every
    joint action the disagreeing agents carry an advantage weight of
    (target(a*) - target(a)) / #disagreeing (floored at `LAM_FLOOR` for
    ties). The mixed table then matches `target` up to n * LAM_FLOOR, with
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
        params.q_local[:, s, :] = v / n_agents - 1.0
        params.q_local[np.arange(n_agents), s, star] = v / n_agents
        disagree = digits != star[None, :]
        k = disagree.sum(axis=1)
        for ja in np.flatnonzero(k):
            lam = max((v - arr[s, ja]) / k[ja], LAM_FLOOR)
            params.lam_raw[disagree[ja], s, ja] = np.log(lam)
    return params


# ---------------------------------------------------------------------------
# the transform-and-distill composition

#: each single-agent learner of `tad_run`: its options and their defaults,
#: the only ones it takes (the CLI's `tad` block reads this table too)
_PG_OPTIONS = {"lr": 0.05, "steps": 2000, "log_every": 50}
SARL_OPTIONS = {"vi": {"tol": 1e-10}, "q_learning": {"sweeps": 200, "lr": 0.5},
                "softmax_pg": _PG_OPTIONS, "clipped_pg": {**_PG_OPTIONS, "clip": PPO_CLIP}}


def tad_run(model, sarl="vi", distill="greedy", seed=None, **cfg):
    """Transform, solve with a single-agent learner, lower, and distill.

    No learner builds the dense transform: vi unrolls the oracle's optimal
    joint table into the layers (`tol` is its advantage tolerance),
    q_learning sweeps one flat [V, A] table, and softmax_pg (TAD-PG) and
    clipped_pg (TAD-PPO) read each step's exact slices through
    `layered_policy_slices`. The options in `cfg` are the learner's own,
    with their defaults in `SARL_OPTIONS`; an option given as None takes
    its default (`PPO_CLIP` for clipped_pg's `clip`), and any other option
    raises ValueError. Every learner is deterministic: `seed` is accepted
    and unused. Distillation is `greedy_distill` or the closed-form
    `kl_distill`. Returns the decentralized policies and a trace. Iterative
    learners contribute their own trace (measured on the transformed
    model); vi and q_learning yield a single summary row whose loss column
    holds the negated final return.
    """
    if sarl not in SARL_OPTIONS:
        raise ValueError(f"unknown single-agent learner {sarl!r}")
    unknown = set(cfg) - set(SARL_OPTIONS[sarl])
    if unknown:
        raise ValueError(f"unknown {sarl} options: {sorted(unknown)}")
    cfg = {**SARL_OPTIONS[sarl], **{k: v for k, v in cfg.items() if v is not None}}
    trace = None
    q = None
    if sarl == "vi":
        q, _ = layered_optimal_values(model, **cfg)
    elif sarl == "q_learning":
        q = layered_q_learning(model, **cfg)
    else:
        logits, trace = softmax_pg(model, **cfg)
        pol = softmax(logits)
    if q is not None:
        pol = one_hot(np.argmax(q, axis=1), q.shape[1])
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
