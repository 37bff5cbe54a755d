"""Gradient-descent learners and single-agent solvers, all with exact math.

Two families of multi-agent learners live here:

- product-policy gradient descent on the negative expected return, with the
  gradient sum_t d_t * q_t read from the exact slices of
  `core.policy_slices`; a one-step model's only slice is (initial_dist,
  reward) for every policy, so the kernel reads it off the model and never
  calls `policy_slices` there;
- value decomposition trained by semi-gradient TD (the bootstrap target is
  frozen per step), with three mixers: additive (vdn), positive linear
  mixing (monotonic), and a dueling mixer whose advantage weights are
  strictly positive (duplex), which keeps local and joint argmaxes
  consistent for every parameter setting.

Both TD learners, that semi-gradient TD and the Q-learning of TAD's solve,
apply one target, `_td_target`: the optimality backup
(`core.bellman_backup`) with no bootstrap past the end of the episode, so
the reward on a one-step model and at each state's last episode step.

Every learner here that descends runs through one loop, `gd_run`, on the
flat parameter vector: `mapg_objective` and `vd_objective` turn a parameter
template and a model into the `(loss, packed gradient)` function it calls,
on views of x, and `run_mapg`, `run_vd` and `softmax_pg` are thin wrappers
around it (TAD-PPO swaps the plain step for its clipped epochs through
`gd_run`'s step hook). These small-array loops are bound by per-call
overhead rather than arithmetic, so the kernels carry agents and replicas
as array axes. One cached index `take`s every agent's table at its digit
of each joint action into [..., n, S, M], and agent sums and products
reduce axis -3 in agent order. The kernels, the objectives and `gd_run`
take an optional leading replica axis (`MapgParams.logits` [K, n, S, A],
`VdParams` arrays [K, ...], a [K, d] stack of flat vectors), so K points
descend in one pass. Each replica's numbers come from its own row alone,
bit for bit what a one-replica run gives (gathers use `take`, whose
C-ordered output keeps the layout independent of K); a stack-aware
objective handed to `gd_run` must keep that contract. With no step hook,
`gd_run` hands its objective the same array at every step and updates it
in place, so each objective binds its views of x once per descent: it
keeps the last x, its shape and its views, and builds new ones only for
another array or shape.

The single-agent side runs on one-agent models: `value_iteration` (the
oracle's policy iteration under its old name, returning the table and its
greedy policy) and synchronous `q_learning` (returning the table), the
dense references in the tests. They, and `mapg_loss_and_grad` and
`vd_loss_and_grad`, the objectives' one-point forms, stay in the package
because the benchmark's tracer wraps them by name. The
transform-and-distill composition, `tad_run`, solves the sequential
transform of an MMDP on the MMDP's own tensors and never builds the dense
transform: `layered_optimal_values` unrolls the oracle's optimal joint
table into the layers, `layered_q_learning` backs up one flat [V, A] table
per sweep, and `softmax_pg` (TAD-PG, or TAD-PPO with the clipped
surrogate) descends [V, A] transform logits on the exact slices of
`layered_policy_slices`. The two Q-learning functions run one sweep loop,
`_q_sweeps`: `q_learning` toward `_td_target`, the layered form toward the
transform's own layer targets, which cut off at the same final steps.
Greedy distillation then reads the solver's own table and yields
decentralized policies with the solver's optimality carried over.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ORACLE_TOL,
    DecentralizedPolicySet,
    GdDivergenceError,
    bellman_backup,
    check_options,
    digit_table,
    episode_positions,
    evaluate_policy,
    greedy_codes,
    initial_return,
    joint_code,
    one_hot,
    optimal_values,
    policy_slices,
    row_norms,
)
from .transform import (
    _greedy_walk,
    kl_distill,
    layer_backup,
    layer_offsets,
    layered_optimal_values,
    layered_policy_slices,
    never_reached_rows,
    row_max,
    step_discount,
)


def softmax(logits):
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= np.add.reduce(z, axis=-1, keepdims=True)
    return z


def _softmax_chain(pi, g):
    """The softmax chain rule: the logit gradient pi * (g - sum(pi * g)) of
    a policy-space gradient g at softmax policies pi, along the last axis."""
    return pi * (g - np.add.reduce(pi * g, axis=-1, keepdims=True))


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
        """Logit `scale` on each agent's slot of `joint_action`, zero elsewhere;
        ValueError unless `joint_action` holds one action per agent."""
        logits = np.zeros((n_agents, n_states, n_actions))
        logits[np.arange(n_agents), :, np.reshape(joint_action, n_agents)] = scale
        return cls(logits)

    def policies(self):
        return DecentralizedPolicySet(softmax(self.logits))

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
        picked = _picked(self.q_local, _agent_axis(*self.q_local.shape[-3:])[0])
        mix = self.w_raw[..., None] if self.variant == "monotonic" else self.lam_raw
        return _vd_mix(self.variant, self.q_local, picked, mix)[0]

    @property
    def mix(self):
        """The mixer's raw array: w_raw, lam_raw, or None for vdn."""
        return self.lam_raw if self.variant == "duplex" else self.w_raw

    def policies(self):
        """The greedy one-hot policy set: each agent's argmax action of its
        local table (the lowest on ties)."""
        return DecentralizedPolicySet.deterministic(np.argmax(self.q_local, axis=-1),
                                                    self.n_actions)

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
        vec = np.asarray(vec, dtype=float)
        batch, (point, mix) = vec.shape[:-1], self.point_shapes()
        q_local, mix = _vd_views(vec, math.prod(point), batch + point, mix and batch + mix)
        return VdParams(self.variant, q_local,
                        *((mix, None) if self.variant == "monotonic" else (None, mix)))


@dataclass
class TrainTrace:
    """Per-logged-step record of a training run, plus the run's diagnostics.

    `ret` is the exact expected return of the policy the learner would act
    with (greedy for value learners, stochastic for policy gradient), and
    `greedy` holds the per-state greedy action codes. Learners that do not
    track a policy leave those columns empty. `record` holds the learner's
    deterministic diagnostics, ready for JSON, which `to_csv` does not
    write: `run_mapg` and `run_vd` put their stationarity certificate there,
    and `tad_run` leaves it empty but for q_learning's `fixed_point` record
    (see `_q_sweeps`). The CLI writes it as the summary's `certificates`.
    """

    step: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    grad_norm: list = field(default_factory=list)
    ret: list = field(default_factory=list)
    greedy: list = field(default_factory=list)
    record: dict = field(default_factory=dict)

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

    All replicas log at the same steps, which `step` lists, so `step[-1]` is
    the run's last step; `traces[k]` is replica k's own trace. The
    benchmark's tracer reads `step[-1]` of every stacked `run_mapg` and
    `gd_run` result as the run's step count.
    """

    @property
    def step(self):
        return list(self[0].step)


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


def _picked(tables, flat):
    """Every agent's table read at its digit of each joint action, in one
    gather through `_agent_axis`'s `flat`: [..., n, S, M] from [..., n, S, A].

    `take` returns a C-ordered array whatever the strides of `tables`
    (fancy indexing need not), so the agent reductions downstream run along
    the same memory layout for every replica and batch size, which keeps a
    replica's bits independent of the batch.
    """
    return tables.reshape(tables.shape[:-3] + (-1,)).take(flat, axis=-1)


def product_policy_value_and_grad(model, tables):
    """Expected return of a product policy and its policy-space gradient.

    `tables` is [n_agents, n_states, n_actions], or a [K, ...] stack of K
    replicas; the gradient entry g[i, s, b] is d J / d pi_i(b|s): the
    occupancy-weighted action value of agent i playing b while the others
    follow their tables. A one-step model's only slice is (initial_dist,
    reward), whatever the policy, so it is read off the model with no call
    to `policy_slices`. The `+ 0.0` that `policy_slices` adds to that
    reward changes no bit here: the `einsum` sums from +0.0 and the
    gradient is `0.0 + term`, so neither keeps a zero's sign. Each slice
    enters the loop in the form that broadcasts against the agent axis,
    d_t [..., 1, S, 1] and q_t [..., 1, S, M]; the one-step slice is built
    in that form, with no per-slice indexing.
    """
    flat, masks, index = _agent_axis(*tables.shape[-3:])
    picked = _picked(tables, flat)
    pol = np.multiply.reduce(picked, axis=-3)
    if model.horizon == 1:
        slices = ((model.initial_dist[:, None], model.reward),)
        value = initial_return(model, np.einsum("...sa,...sa->...s", pol, model.reward))
    else:
        value, slices = policy_slices(model, pol)
        slices = [(d_t[..., None, :, None], q_t[..., None, :, :]) for d_t, q_t in slices]
    # products over axis -3 multiply the agents left to right; `take` gives
    # the other agents' factors as a C-ordered copy, so the matmul below
    # reads the same layout at every K
    others = picked.take(index, axis=-3)
    if index.ndim == 2:
        others = np.multiply.reduce(others, axis=-3)
    # 0.0 + first term: the bits (signed zeros too) of a zeros buffer += term
    grad = 0.0
    for d_t, q_t in slices:
        grad = grad + d_t * ((others * q_t) @ masks)
    return value, grad


def mapg_loss_and_grad(params, model):
    """Negative expected return of the softmax product policy and its logit
    gradient, both exact (K of each for [K, ...] stacked logits)."""
    loss, grad = mapg_objective(params, model)(params.pack())
    return loss, grad.reshape(params.logits.shape)


def mapg_objective(template, model):
    """`f(x) -> (loss, packed gradient)` of the product-policy loss, for a
    flat x of `template`'s point shape or a [K, d] stack of them.

    f keeps the last x, its shape and its logit view [..., n, S, A] as one
    tuple, read once per call. Called again on that array in that shape,
    as `gd_run` calls it, f reuses the view, which sees every in-place
    update of x; any other array or shape gets a new view."""
    shape = template.logits.shape[-3:]
    bound = None, None, None

    def f(x):
        nonlocal bound
        last, last_shape, logits = bound
        if x is not last or x.shape != last_shape:
            logits = x.reshape(x.shape[:-1] + shape)
            bound = x, x.shape, logits
        tables = softmax(logits)
        value, pol_grad = product_policy_value_and_grad(model, tables)
        return -value, -_softmax_chain(tables, pol_grad).reshape(x.shape)

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


def _vd_views(vec, nq, q_shape, mix_shape):
    """(q_local, mixer array) views of a flat [d] vector or a [K, d] stack:
    its first `nq` entries in `q_shape`, the rest in `mix_shape` (None for
    vdn), leading axes included. Each is a last-axis slice split into axes,
    which needs no copy in either layout."""
    return vec[..., :nq].reshape(q_shape), mix_shape and vec[..., nq:].reshape(mix_shape)


def _vd_mix(variant, q_local, picked, mix):
    """Mixed joint table [..., S, M] from local tables [..., n, S, A], their
    picked values [..., n, S, M] and the mixer's raw parameters (None,
    w_raw[..., None] or lam_raw), plus the per-agent terms its gradient
    reuses: the picked values and, for monotonic, the weights exp(w_raw)
    [..., n, S, 1]; for duplex the advantages and their weights exp(lam_raw).
    Agents are summed over axis -3, in agent order."""
    if variant == "vdn":
        return np.add.reduce(picked, axis=-3), picked, None
    weights = np.exp(mix)
    if variant == "monotonic":
        return np.add.reduce(weights * picked, axis=-3), picked, weights
    # a reduction, not a read at the argmax: on a tie of +0.0 and -0.0 the
    # maximum is the later zero and the argmax the first
    maxes = np.maximum.reduce(q_local, axis=-1, keepdims=True)
    adv = picked - maxes
    q = np.add.reduce(weights * adv, axis=-3)
    q += np.add.reduce(maxes, axis=-3)
    return q, adv, weights


def vd_loss_and_grad(params, model, dist=None):
    """Semi-gradient TD loss 0.5 E_dist[(Q - TQ)^2] and its parameter gradient,
    `vd_objective` at the params' own point.

    The target TQ is `_td_target`'s, treated as a constant. On one-step
    games it is the payoff table, so the loss is plain least-squares
    regression and the semi-gradient is the exact gradient. Params with a
    leading replica axis give one loss per replica and stacked gradients,
    each replica's from its own row only.
    """
    loss, grad = vd_objective(params, model, dist)(params.pack())
    return loss, params.unpack_like(grad)


def vd_objective(template, model, dist=None):
    """`f(x) -> (loss, packed gradient)` of the semi-gradient TD loss, for a
    flat x of `template`'s point shape or a [K, d] stack of them.

    The TD target is `_td_target(model)`, the one both TD learners apply:
    the reward on a one-step model, else the optimality backup with no
    bootstrap at the last episode step (episodic models must be layered).
    `dist` is checked and the target function built once here, and the
    layout of each stack shape once, on its first call: the view shapes of
    x and the argmax row starts in the flat local-table gradient. A call
    then gathers the picked local values straight from x (its first entries
    are the local tables, flat), runs on views of x and joins the packed
    gradient with one concatenate, so a long descent pays no per-step
    checks, shape arithmetic or repacking. As in `mapg_objective`, f keeps
    the last x, its shape, its views and their layout as one tuple, and
    reuses them while it is called on that array in that shape."""
    dist = _check_dist(dist, model)
    td_target = _td_target(model)
    variant, (point, mix_point) = template.variant, template.point_shapes()
    flat, masks, _ = _agent_axis(*point)
    nq, n_agents, n_actions = math.prod(point), point[0], point[-1]
    if variant == "monotonic":
        mix_point += (1,)

    @functools.cache
    def layout(shape):
        batch = shape[:-1]
        starts = np.arange(0, math.prod(batch) * nq, n_actions).reshape(batch + point[:-1])
        return batch + point, mix_point and batch + mix_point, batch + (-1,), starts

    bound = None, None, None

    def f(x):
        nonlocal bound
        last, last_shape, views = bound
        if x is not last or x.shape != last_shape:
            q_shape, mix_shape, rows, starts = layout(x.shape)
            views = _vd_views(x, nq, q_shape, mix_shape) + (rows, starts)
            bound = x, x.shape, views
        q_local, mix, rows, starts = views
        q, terms, weights = _vd_mix(variant, q_local, x.take(flat, axis=-1), mix)
        resid = q - td_target(q)
        w = dist * resid
        loss = 0.5 * np.add.reduce((w * resid).reshape(rows), axis=-1)
        w = w[..., None, :, :]
        if variant == "vdn":
            return loss, (w @ masks).reshape(x.shape)
        if variant == "monotonic":
            gq = weights * (w @ masks)
            g_mix = weights * np.add.reduce(w * terms, axis=-1, keepdims=True)
        else:
            # one copy of w per agent, so the products below need no broadcast
            w = w.repeat(n_agents, axis=-3)
            wlam = w * weights
            gq = wlam @ masks
            # d q / d max_i = 1 - lam_i, routed to agent i's local argmax; gq
            # is a fresh C-ordered array, so its flat reshape is a view and
            # the update lands
            gq.reshape(-1)[starts + q_local.argmax(-1)] += np.add.reduce(w - wlam, axis=-1)
            g_mix = wlam * terms
        return loss, np.concatenate((gq.reshape(rows), g_mix.reshape(rows)), axis=-1)

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
    caller, `gd_run`, ignores the overflow warning."""
    norms = row_norms(grad)
    big = ~np.isfinite(norms)
    m = np.abs(grad[big]).max(axis=1)
    norms[big] = m * row_norms(grad[big] / m[:, None])
    if not np.isfinite(norms).all():
        raise GdDivergenceError(f"gradient norm beyond the float range at step {t}")
    return norms


def gd_run(loss_and_grad, x0, lr, steps, monitor=None, log_every=1, update=None):
    """Constant-step gradient descent on a flat parameter vector, or on a
    [K, d] stack of K independent replicas, for `steps` steps.

    `loss_and_grad(x) -> (loss, grad)` is called on x in the shape of `x0`
    and returns the gradient in that shape: with a scalar loss for a flat x,
    and with an array of K losses for a stack, whose gradient row k must
    depend on row k of x alone. Loss and gradient are taken as they come,
    with no copy or conversion, except at logged steps. Every replica logs at the same steps: each
    multiple of `log_every`, and the last step. `monitor(x, loss) ->
    (return, greedy_codes)` fills the policy columns of a replica's trace
    there, called on that replica's row. The gradient norm is computed only
    where it is logged; a row whose sum of squares overflows gets it by
    scaling (`_scaled_norms`). The step is x -= lr * grad, in place, so
    with no `update` every call of `loss_and_grad` gets the same array
    object, which the objectives' bound views rely on. With
    `update(x) -> next x`, it is called right after `loss_and_grad(x)` at
    every step but the last, may use what that call saw, and may return a
    new array, which the next call then gets. Non-finite losses or
    gradients abort with GdDivergenceError, and options outside their
    `OPTION_BOUNDS` with ValueError. Returns the final x and a TrainTrace,
    or ReplicaTraces for a stack.
    """
    lr, steps, log_every = check_options(lr=lr, steps=steps, log_every=log_every)
    x = np.array(x0, dtype=float)
    stacked = x.ndim == 2
    n_rows = len(x) if stacked else 1
    traces = [TrainTrace() for _ in range(n_rows)]
    # an overflowing step or objective, or a 0/0 in an update, warns before
    # the finiteness check below turns it into GdDivergenceError; one error
    # state for the run costs no step
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for t in range(steps + 1):
            loss, grad = loss_and_grad(x)
            # a finite sum of the gradient's squares and the losses proves
            # every entry finite; one that overflows falls through to the
            # entrywise check (vdot is a BLAS dot that raises no
            # floating-point warning)
            squares = np.vdot(grad, grad)
            if not (math.isfinite(squares + (sum(loss.tolist()) if stacked else loss))
                    or (np.isfinite(loss).all() and np.isfinite(grad).all())):
                raise GdDivergenceError(f"non-finite loss or gradient at step {t} (lr={lr})")
            if t % log_every == 0 or t == steps:
                loss = np.asarray(loss, dtype=float).reshape(n_rows)
                grads = np.asarray(grad, dtype=float).reshape(n_rows, -1)
                gnorm = row_norms(grads) if math.isfinite(squares) else _scaled_norms(grads, t)
                for k in range(n_rows):
                    if monitor is None:
                        traces[k].append(t, loss[k], gnorm[k])
                    else:
                        ret, greedy = monitor(x[k] if stacked else x, loss[k])
                        traces[k].append(t, loss[k], gnorm[k], ret, greedy)
            if t == steps:
                return x, ReplicaTraces(traces) if stacked else traces[0]
            if update is None:
                x -= lr * grad
            else:
                x = update(x)


#: gradient-norm threshold of the stationarity certificate in a descent's record
STATIONARITY_TOL = 1e-6


def _descend(objective, params, lr, steps, monitor, log_every):
    """`gd_run` from `params`, whose point it returns, with each replica
    trace's record holding the stationarity certificate: the descent logs
    its last step, at the returned point, so that row's gradient norm is
    checked against `STATIONARITY_TOL`."""
    x, trace = gd_run(objective, params.pack(), lr, steps, monitor, log_every)
    for replica in trace if isinstance(trace, ReplicaTraces) else (trace,):
        norm = replica.grad_norm[-1]
        replica.record["stationarity"] = {"ok": norm < STATIONARITY_TOL, "grad_norm": norm,
                                          "tol": STATIONARITY_TOL}
    return params.unpack_like(x), trace


def run_mapg(model, params, lr=0.05, steps=20000, log_every=200):
    """Gradient descent on the product-policy loss from a given logit point,
    or from a [K, ...] stack of K points run as one batched descent; each
    trace records its stationarity certificate."""
    def monitor(x, loss):
        # for policy gradient the stochastic return is exactly -loss
        return -loss, greedy_codes(params.unpack_like(x).logits)

    return _descend(mapg_objective(params, model), params, lr, steps, monitor, log_every)


def run_vd(model, params, lr=0.1, steps=5000, log_every=200):
    """Semi-gradient TD descent for any mixer variant from a given parameter
    point, or from a [K, ...] stack of K points run as one batched descent,
    under the uniform sampling distribution. The trace's return column is
    the exact return of the greedy policy; each trace records its
    stationarity certificate."""
    def monitor(x, loss):
        codes = greedy_codes(params.unpack_like(x).q_local)
        return evaluate_policy(model, codes), codes

    return _descend(vd_objective(params, model), params, lr, steps, monitor, log_every)


# ---------------------------------------------------------------------------
# single-agent solvers for the transformed models

def value_iteration(mdp, tol=ORACLE_TOL):
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


def _td_target(model):
    """The one TD target of `vd_objective` and `q_learning`, as a function
    of a [..., S, M] table: the model's own read-only reward table on a
    one-step model, and otherwise `bellman_backup` with the final-step rows
    (`_final_steps`, found once here; episodic models must be layered) set
    to their reward, or `bellman_backup` itself where there are none (an
    infinite horizon)."""
    if model.horizon == 1:
        return lambda q: model.reward
    final = np.flatnonzero(_final_steps(model))
    if not final.size:
        return functools.partial(bellman_backup, model=model)
    final_reward = model.reward[final]

    def target(q):
        backup = bellman_backup(q, model)
        backup[..., final, :] = final_reward
        return backup

    return target


def _q_sweeps(target, q, sweeps, lr):
    """Synchronous Q-learning's loop: at most `sweeps` (>= 1) full sweeps
    q += lr * (target(q) - q) from the table `q`. `target` must be a
    function of the table alone, so the loop stops at the first sweep that
    changes no bit (compared as bytes, each table serialized once:
    np.array_equal takes -0.0 for +0.0), as every later sweep would return
    the same bits. Returns the table and its fixed-point record
    {"ok": whether the last sweep changed no bit, rather than the loop
    running out, "sweeps": the sweeps run}; a table that turns non-finite
    raises GdDivergenceError after the loop."""
    with np.errstate(over="ignore", invalid="ignore"):
        last = q.tobytes()
        for sweep in range(1, sweeps + 1):
            nxt = q + lr * (target(q) - q)
            fixed = (bits := nxt.tobytes()) == last
            if fixed:
                break
            q, last = nxt, bits
    if not np.isfinite(q).all():
        raise GdDivergenceError(f"Q-learning diverged within {sweeps} sweeps (lr={lr})")
    return q, {"ok": fixed, "sweeps": sweep}


def q_learning(mdp, sweeps=200, lr=0.5):
    """Synchronous tabular Q-learning on a (possibly layered episodic)
    one-agent model, by `_q_sweeps` from a zero table, toward
    `_td_target(mdp)`: the optimality backup in which final-step states do
    not bootstrap, or the reward on a one-step model. Returns the [S, A]
    table. On a dense transform it is the reference that
    `layered_q_learning`'s iterates are checked against.
    """
    sweeps, lr = check_options(sweeps=sweeps, lr=lr)
    return _q_sweeps(_td_target(mdp), np.zeros_like(mdp.reward), sweeps, lr)[0]


def layered_q_learning(model, sweeps=200, lr=0.5):
    """Synchronous Q-learning on the sequential transform of an MMDP, on the
    MMDP's tensors, by `_q_sweeps`: returns one [V, A] table in
    virtual-state order, whose iterates are those of `q_learning` on the
    dense transform up to summation order, and the loop's fixed-point
    record (the sweeps run, and whether the last changed no bit).

    Each sweep moves every row toward gamma' * (max of its layer-k+1 child
    row), or R + gamma' * T @ max(layer 0) in the last layer. By the layout
    rule in `transform`, the children of layers 0..n-2 are rows [S, V) in
    order, so those rows' maxima, as rows of A, are their targets.
    Final-step rows do not bootstrap; never-reached rows target zero, as in
    the dense transform.

    Only targets that depend on the table are written per sweep. The
    final-step states' last-layer rows hold their reward rows, written once;
    each sweep writes layers 0..n-2, re-zeroes the never-reached rows, and
    backs up the joint step into the bootstrapping states' last-layer rows
    only if there are any (none on a one-step game). So every target row
    is a constant or a function of the table, as `_q_sweeps` requires.
    """
    sweeps, lr = check_options(sweeps=sweeps, lr=lr)
    gamma_step = step_discount(model)
    s, a, n = model.n_states, model.n_actions, model.n_agents
    offsets, total = layer_offsets(s, n, a)
    inner = offsets[-1]
    final = np.repeat(_final_steps(model), a ** (n - 1))
    boot = ~final[:, None]
    bootstraps = boot.any()
    dead = never_reached_rows(model)
    out = np.zeros((total, a))
    out[inner:][final] = model.reward.reshape(-1, a)[final]

    def target(q):
        v = row_max(q)
        np.multiply(gamma_step, v[s:].reshape(-1, a), out=out[:inner])
        if dead.size:
            out[dead] = 0.0
        if bootstraps:
            np.copyto(out[inner:], layer_backup(model, n - 1, v[:s], gamma_step), where=boot)
        return out

    return _q_sweeps(target, np.zeros((total, a)), sweeps, lr)


#: TAD-PPO: ascent steps on the clipped surrogate per outer step, and the
#: clip range `tad_run(sarl="clipped_pg")` uses when none is given
PPO_EPOCHS = 4
PPO_CLIP = 0.2


def softmax_pg(model, lr=0.05, steps=2000, clip=None, log_every=50):
    """Exact-gradient softmax policy gradient (TAD-PG) on the sequential
    transform of an MMDP, one logit row per virtual state: [V, A] logits,
    starting from zero (the uniform policy).

    The transform is never built: every step reads `layered_policy_slices`,
    and a one-agent model, its own transform, reads `policy_slices`. Both
    forms descend through `gd_run`, which evaluates the negative return and
    its exact gradient once per step, checks it and logs its norm.
    Unclipped, the step is plain descent. With `clip` set (TAD-PPO), the
    step keeps that evaluation's policy, occupancy and advantages (taken
    once per step), and takes `PPO_EPOCHS` ascent steps on the clipped ratio
    surrogate with exact expectations.
    """
    step_discount(model)
    shape = (layer_offsets(model.n_states, model.n_agents, model.n_actions)[1],
             model.n_actions)
    pi_old = slices = None

    def objective(x):
        nonlocal pi_old, slices
        pi_old = softmax(x.reshape(shape))
        value, slices = layered_policy_slices(model, pi_old)
        pol_grad = 0.0
        for d_t, q_t in slices:
            pol_grad = pol_grad + d_t[:, None] * q_t
        return -value, -_softmax_chain(pi_old, pol_grad).ravel()

    def monitor(x, loss):
        # for policy gradient the stochastic return is exactly -loss
        return -loss, np.argmax(x.reshape(shape), axis=1)

    def ppo_epochs(x):
        logits = x.reshape(shape)
        advantages = [(d_t[:, None], q_t - np.sum(pi_old * q_t, axis=1, keepdims=True))
                      for d_t, q_t in slices]
        for _ in range(PPO_EPOCHS):
            pi = softmax(logits)
            # an underflowed probability gives 0/0 = nan, which selects no clip
            ratio = pi / pi_old
            surr = np.zeros_like(logits)
            for d_t, adv in advantages:
                clipped = (((adv > 0) & (ratio > 1.0 + clip))
                           | ((adv < 0) & (ratio < 1.0 - clip)))
                surr += _softmax_chain(pi, np.where(clipped, 0.0, d_t * adv))
            logits = logits + lr * surr
        return logits.ravel()

    if clip is not None:
        # the refusals name lr, steps, clip, log_every in that order
        check_options(lr=lr, steps=steps, clip=clip)
    x, trace = gd_run(objective, np.zeros(shape).ravel(), lr, steps, monitor, log_every,
                      None if clip is None else ppo_epochs)
    return x.reshape(shape), trace


# ---------------------------------------------------------------------------
# constructive duplex decomposition

#: smallest duplex advantage weight, which tied joint actions get
LAM_FLOOR = 1e-12


def duplex_decompose(target, codes, n_agents):
    """Duplex parameters that reproduce a joint table with prescribed local
    argmaxes.

    `target` is [n_states, n_joint]; `codes` is the greedy joint code a* of
    each state, or one code for every state, and a* must maximize `target`
    in its state. Construction per state: each agent's table holds
    target(a*)/n at its a* slot and target(a*)/n - 1 elsewhere, and for every
    joint action the disagreeing agents carry an advantage weight of
    (target(a*) - target(a)) / #disagreeing (floored at `LAM_FLOOR` for
    ties). The mixed table then matches `target` up to n * LAM_FLOOR, with
    strict local argmaxes at a*. ValueError for a non-finite target, a code
    outside [0, n_joint) or one that does not maximize.
    """
    arr = np.asarray(target, dtype=float)
    if arr.ndim != 2:
        raise ValueError(f"cannot interpret target of shape {np.shape(target)}")
    if not np.isfinite(arr).all():
        raise ValueError("target must be finite")
    s_dim, n_joint = arr.shape
    a_dim = round(n_joint ** (1.0 / n_agents))
    if a_dim**n_agents != n_joint:
        raise ValueError(f"{n_joint} joint actions is not a power of a common action count")
    codes = np.broadcast_to(np.asarray(codes, dtype=np.intp), (s_dim,))
    if ((codes < 0) | (codes >= n_joint)).any():
        raise ValueError(f"joint codes must lie in [0, {n_joint}), got {codes.tolist()}")
    states = np.arange(s_dim)
    v = arr[states, codes]
    bad = np.flatnonzero(arr.max(axis=1) > v + 1e-12)
    if bad.size:
        raise ValueError(f"code {codes[bad[0]]} is not a maximizer at state {bad[0]}")
    digits = digit_table(n_agents, a_dim)
    star = digits[codes].T
    q_local = np.broadcast_to((v / n_agents - 1.0)[:, None], (n_agents, s_dim, a_dim)).copy()
    q_local[np.arange(n_agents)[:, None], states, star] = v / n_agents
    # disagree[i, s, a]: agent i's action in joint action a differs from a*'s
    disagree = digits.T[:, None, :] != star[:, :, None]
    lam_raw = np.zeros(disagree.shape)
    with np.errstate(divide="ignore", invalid="ignore"):  # 0 / 0 at a* itself
        lam = np.log(np.maximum((v[:, None] - arr) / disagree.sum(axis=0), LAM_FLOOR))
    np.copyto(lam_raw, lam, where=disagree)
    return VdParams("duplex", q_local, lam_raw=lam_raw)


# ---------------------------------------------------------------------------
# the transform-and-distill composition

#: each single-agent learner of `tad_run`: its options and their defaults,
#: the only ones it takes (the CLI's `tad` block reads this table too)
_PG_OPTIONS = {"lr": 0.05, "steps": 2000, "log_every": 50}
SARL_OPTIONS = {"vi": {"tol": ORACLE_TOL}, "q_learning": {"sweeps": 200, "lr": 0.5},
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
    and unused. Distillation reads the solver's own [V, A] table (the vi
    or Q table, or the PG softmax), with no one-hot copy, no
    `lower_policy` and no `CoordinationPolicy`: `greedy_distill`, whose
    play is evaluated by the joint codes its walk ends with, or the
    closed-form `kl_distill`. vi and q_learning distill greedily for either
    value of `distill`, as kl of their deterministic chain is
    greedy_distill's one-hot tables, bit for bit. An unknown learner,
    distillation or option is refused before any work; a solve or return
    that overflows raises GdDivergenceError. Returns the decentralized
    policies and a trace whose record is empty, except for q_learning's,
    whose "fixed_point" entry is the sweep loop's record: the sweeps run,
    and "ok" when the last changed no bit rather than reaching `sweeps`.
    The trace starts empty for vi and q_learning, and as
    the PG learner's own trace (measured on the transformed model) for
    softmax_pg and clipped_pg; one row for the distilled policies then
    ends it: its loss is the negated final return, at step 0 with norm 0.0
    after a solve, or at the PG trace's last step + 1 with its last norm.
    """
    if sarl not in SARL_OPTIONS:
        raise ValueError(f"unknown single-agent learner {sarl!r}")
    if distill not in ("greedy", "kl"):
        raise ValueError(f"unknown distillation {distill!r}")
    unknown = set(cfg) - set(SARL_OPTIONS[sarl])
    if unknown:
        raise ValueError(f"unknown {sarl} options: {sorted(unknown)}")
    cfg = {**SARL_OPTIONS[sarl], **{k: v for k, v in cfg.items() if v is not None}}
    trace = TrainTrace()
    if sarl == "vi":
        pol = layered_optimal_values(model, **cfg)[0]
    elif sarl == "q_learning":
        pol, trace.record["fixed_point"] = layered_q_learning(model, **cfg)
    else:
        logits, trace = softmax_pg(model, **cfg)
        pol = softmax(logits)
    # kl of a deterministic chain (vi's, q_learning's) is greedy_distill, bit for bit
    if distill == "greedy" or sarl in ("vi", "q_learning"):
        policies, codes = _greedy_walk(pol, model)
        final_return = evaluate_policy(model, codes)
    else:
        policies = kl_distill(pol, model)[0]
        codes = greedy_codes(policies.tables)
        final_return = evaluate_policy(model, policies)
    step, norm = (trace.step[-1] + 1, trace.grad_norm[-1]) if trace.step else (0, 0.0)
    trace.append(step, -final_return, norm, final_return, codes)
    return policies, trace
