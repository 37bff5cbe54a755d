"""Sequential transformation of an MMDP into a layered single-agent MDP.

The transformed model stacks n layers of virtual states. Layer k holds one
state per (original state, k-prefix of agent actions); agents act one per
layer, intermediate steps are deterministic with zero reward, and the final
layer replays the original joint transition and reward. The per-step discount
becomes gamma**(1/n), so one original step spreads across n virtual steps.

Virtual-state layout: layer k starts at offset(k) = S*(A**k - 1)/(A - 1)
(k*S when A == 1) and holds its (s, prefix) states s-major, prefixes coded in
the mixed radix of joint actions, so a layer's rows are plain reshapes of the
joint tensors. Every layout job here derives from one rule: with inner =
offset(n-1), virtual state v < inner moves under action b to A*v + S + b
(for A == 1 too). So the children of rows [0, inner) are rows [S, V), in
order; the intermediate block of the transition tensor, viewed as
[inner*A, V], is the identity shifted right by S; and the last layer, rows
[inner, V), holds the joint transition and reward as [S*A**(n-1), A, ...].

No learner builds the transform: each works on the MMDP's own tensors,
layer by layer (``layer_backup``), which is the agent-by-agent backup of the
sequential transformation. The optimal solve unrolls the MMDP's optimal joint
table from ``core.optimal_values`` into the earlier layers; Q-learning sweeps
one flat [V, A] table; policy gradient reads the transform's exact (d_t,
q_t) slices from one MMDP evaluation (``layered_policy_slices``).
``layer_tables`` splits a [V, A] table into its layers' [S, A**k, A] views;
``greedy_distill`` and ``kl_distill`` read product policies off those
views of the solver's own table, with no coordination-policy copy. The dense
model from ``sequential_transform``, a [V, A, V] tensor over V =
S*(A**n - 1)/(A - 1) virtual states, serves only the claim-3 value relation
check (the independent oracle for the transform itself), the inverse
transform and the tests' cross-checks.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import (
    ORACLE_TOL,
    SIZE_GUARD,
    CoordinationPolicy,
    DecentralizedPolicySet,
    Mdp,
    Mmdp,
    SizeGuardError,
    _prefix_reach,
    evaluate_policy,
    first_visit_times,
    optimal_values,
    policy_slices,
)


def layer_offsets(n_states, n_agents, n_actions):
    """Start index of each layer plus the total virtual-state count."""
    offsets = []
    total = 0
    for k in range(n_agents):
        offsets.append(total)
        total += n_states * n_actions**k
    return offsets, total


def step_discount(model):
    """The transform's per-step discount gamma**(1/n); a gamma of 0 has no
    n-th root to spread over several agents' steps and is refused."""
    if model.gamma == 0.0 and model.n_agents > 1:
        raise ValueError("gamma = 0 cannot be split across agent steps")
    return model.gamma ** (1.0 / model.n_agents)


def sequential_transform(model, size_guard=SIZE_GUARD):
    """Rewrite an MMDP as the layered one-agent-per-step MDP.

    The result is dense: its transition tensor alone holds V*A*V floats.
    `size_guard` bounds the float64 entries of all its tensors together.
    """
    gamma_step = step_discount(model)
    s, n, a = model.n_states, model.n_agents, model.n_actions
    offsets, total = layer_offsets(s, n, a)
    entries = total * a * total + total * a + total
    if entries > size_guard:
        raise SizeGuardError(
            f"transformed model has {total} states x {a} actions; its dense "
            f"tensors would take {8 * entries} bytes ({entries} float64 "
            f"entries), exceeding the guard ({size_guard} entries)"
        )
    inner = offsets[-1]
    transition = np.zeros((total, a, total))
    rows = np.arange(inner * a)
    transition.reshape(total * a, total)[rows, rows + s] = 1.0
    transition[inner:, :, :s] = model.transition.reshape(-1, a, s)
    reward = np.zeros((total, a))
    reward[inner:] = model.reward.reshape(-1, a)
    initial = np.zeros(total)
    initial[:s] = model.initial_dist
    return Mdp(
        n_states=total,
        n_actions=a,
        transition=transition,
        reward=reward,
        gamma=gamma_step,
        initial_dist=initial,
        horizon=None if model.horizon is None else n * model.horizon,
    )


def row_max(q):
    """Row maxima of a [rows, A] table, equal to q.max(axis=1).

    Folds np.maximum over the A columns: numpy's reduction over a short
    trailing axis is several times slower on the tall layer tables.
    """
    return functools.reduce(np.maximum, q.T)


def layer_backup(model, k, v_next, gamma_step):
    """Action values [S*A**k, A] of transform layer k, backed up from the
    values of its successors.

    For k < n-1 the successors are layer k+1 (`v_next` has S*A**(k+1)
    entries): moves are deterministic with zero reward, so the table is
    gamma_step * v_next with each layer-k state's children as one row. The
    last layer replays the joint step from the base states' values `v_next`
    [S]: R + gamma_step * (T @ v_next), one row per (state, prefix).
    """
    a = model.n_actions
    if k == model.n_agents - 1:
        q = model.reward + gamma_step * (model.transition @ v_next)
    else:
        q = gamma_step * v_next
    return q.reshape(-1, a)


def layered_policy_slices(model, pol):
    """`core.policy_slices` of the sequential transform for a [V, A] policy
    `pol` on it, from one `policy_slices` call on the MMDP: the transform's
    return and one (d_t [V], q_t [V, A]) slice per MMDP slice. An episodic
    model's slice t holds, in its layer-k rows, the transform's slice at
    virtual step n*t + k (which visits layer k only); an infinite horizon
    gives the one summed slice.

    With pi_k the `layer_tables` views of `pol`, the prefix reach P_k
    [S, A**k] (`core._prefix_reach`, with no `CoordinationPolicy` copy)
    gives the joint policy matrix P_n that the MMDP evaluates. As
    gamma'**n = gamma, the last layer's action values are the MMDP's q_t
    and the return is gamma'**(n-1) * J_M; layer k's action
    values are a `layer_backup` of layer k+1's policy-weighted values, and
    its visit weights are gamma'**k * d_t(s) * P_k[s, p]. A one-agent model
    is its own transform, and its slices are `policy_slices`' own.
    """
    n, a = model.n_agents, model.n_actions
    gamma_step = model.gamma ** (1.0 / n)
    pi = layer_tables(pol, n)
    reach = _prefix_reach(pi)
    value, slices = policy_slices(model, reach[-1])
    layered = []
    for d_t, q_t in slices:
        tables = [q_t.reshape(-1, a)]
        for k in reversed(range(n - 1)):
            v_next = (pi[k + 1].reshape(-1, a) * tables[0]).sum(axis=1)
            tables.insert(0, layer_backup(model, k, v_next, gamma_step))
        d = np.concatenate([(gamma_step**k * d_t[:, None] * p).ravel()
                            for k, p in enumerate(reach[:-1])])
        layered.append((d, np.concatenate(tables)))
    return gamma_step ** (n - 1) * value, layered


def never_reached_rows(model):
    """Rows of layers 0..n-2, in virtual-state order, at the base states an
    episodic model never reaches. The dense transform pins them to its last
    step, so they are zero and do not bootstrap; the layered solvers zero
    the same rows. Infinite-horizon models, and episodic models that reach
    every base state, have none.
    """
    unreached = (np.zeros(0, dtype=bool) if model.horizon is None
                 else first_visit_times(model) < 0)
    if not unreached.any():
        return np.zeros(0, dtype=np.intp)
    a, n = model.n_actions, model.n_agents
    rows = np.concatenate([np.repeat(unreached, a**k) for k in range(n)])
    rows[-model.n_states * a ** (n - 1):] = False
    return np.flatnonzero(rows)


def layered_optimal_values(model, tol=ORACLE_TOL):
    """Optimal action values [V, A] of the sequential transform, plus the
    record of `optimal_values`, without building the transform.

    Rows follow the transform's virtual-state order. The transform's layer-0
    values are gamma**((n-1)/n) * V* and gamma_step * gamma**((n-1)/n) =
    gamma, so its last layer's table is the MMDP's optimal joint table Q*
    reshaped to [S*A**(n-1), A]. One `optimal_values` call gives Q* (policy
    iteration to advantage tolerance `tol`, or backward induction read at
    each state's episode step; the record is its margins, or [0.0]); the
    earlier layers have zero reward and deterministic moves, so each is one
    `layer_backup` of the next layer's row maxima. As in the dense
    transform, never-reached states of an episodic model get zero
    intermediate-layer rows. Memory is the V*A entries of the layer tables,
    never a [V, A, V] tensor.
    """
    gamma_step = step_discount(model)
    q, record = optimal_values(model, tol=tol)
    tables = [q.reshape(-1, model.n_actions)]
    for k in reversed(range(model.n_agents - 1)):
        tables.insert(0, layer_backup(model, k, row_max(tables[0]), gamma_step))
    q = np.concatenate(tables)
    q[never_reached_rows(model)] = 0.0
    return q, record


def _infer_base_states(total, n_agents, n_actions):
    """Recover |S| from the layered state count, or fail loudly."""
    s, rem = divmod(total, layer_offsets(1, n_agents, n_actions)[1])
    if rem != 0 or s < 1:
        raise ValueError(
            f"{total} states cannot be a {n_agents}-layer stack over "
            f"{n_actions} actions"
        )
    return s


def inverse_transform(mdp, n_agents):
    """Compress n virtual steps back into one joint step.

    Inverts sequential_transform exactly on the tensors; the discount is
    recovered as gamma'**n (exact up to floating-point rounding). The
    intermediate rows must hold the layout rule's shifted identity and no
    reward, and the last layer may move only to base states.
    """
    n, a, total = n_agents, mdp.n_actions, mdp.n_states
    s = _infer_base_states(total, n, a)
    inner = layer_offsets(s, n, a)[0][-1]
    block = mdp.transition[:inner].reshape(inner * a, total)
    rows = np.arange(inner * a)
    if np.any(mdp.reward[:inner] != 0.0):
        raise ValueError("nonzero intermediate reward")
    if np.any(block[rows, rows + s] != 1.0) or np.count_nonzero(block) != inner * a:
        raise ValueError("intermediate transitions are not the one-hot appends")
    final_trans = mdp.transition[inner:]
    if np.any(final_trans[:, :, s:] != 0.0):
        raise ValueError("final layer transitions leave the base-state block")
    if np.any(mdp.initial_dist[s:] != 0.0):
        raise ValueError("initial distribution puts mass on virtual states")
    if mdp.horizon is not None and mdp.horizon % n != 0:
        raise ValueError(f"horizon {mdp.horizon} is not a multiple of {n}")
    return Mmdp(
        n_states=s,
        n_agents=n,
        n_actions=a,
        transition=final_trans[:, :, :s].reshape(s, a**n, s),
        reward=mdp.reward[inner:].reshape(s, a**n),
        gamma=mdp.gamma**n,
        initial_dist=mdp.initial_dist[:s],
        horizon=None if mdp.horizon is None else mdp.horizon // n,
    )


# ---------------------------------------------------------------------------
# policy conversion

def lift_policy(pc):
    """Coordination policy -> stochastic policy on the layered MDP (exact copy)."""
    return np.concatenate([tab.reshape(-1, pc.n_actions) for tab in pc.tables])


def layer_tables(table, n_agents):
    """The per-layer views [S, A**k, A], k = 0..n-1, of a [V, A] table on
    the layered MDP in virtual-state order (a policy or action values);
    ValueError when V is no n-layer state count."""
    table = np.asarray(table, dtype=float)
    total, a = table.shape
    s = _infer_base_states(total, n_agents, a)
    offsets = layer_offsets(s, n_agents, a)[0]
    return tuple(table[o:o + s * a**k].reshape(s, -1, a) for k, o in enumerate(offsets))


def lower_policy(policy, n_agents):
    """Stochastic policy on the layered MDP -> coordination policy (an
    exact copy of its `layer_tables`)."""
    return CoordinationPolicy(layer_tables(policy, n_agents))


def value_relation_check(model, pc):
    """Returns (J on the MMDP, J on the transform, |J_M - gamma^((1-n)/n) J_G|).

    Both sides are evaluated exactly; the residual certifies that the
    transformation rescales values by exactly gamma**((n-1)/n).
    """
    if model.gamma <= 0.0:
        raise ValueError("value relation needs gamma > 0")
    n = model.n_agents
    j_m = evaluate_policy(model, pc)
    j_g = evaluate_policy(sequential_transform(model), lift_policy(pc))
    residual = abs(j_m - model.gamma ** ((1.0 - n) / n) * j_g)
    return j_m, j_g, residual


# ---------------------------------------------------------------------------
# distillation

def _conditional_tables(policy, model):
    """A coordination policy's tables, or the `layer_tables` views of a
    [V, A] table on the layered MDP with `model.n_agents` layers."""
    return (policy.tables if isinstance(policy, CoordinationPolicy)
            else layer_tables(policy, model.n_agents))


def greedy_distill(policy, model):
    """Determinize a coordination policy, or a [V, A] table on the layered
    MDP (a policy or the solver's action values, read through
    `layer_tables` with `model.n_agents` layers), and unroll it into
    one-hot policies.

    Each conditional row is replaced by its argmax (lowest action index on
    ties), then agent k's action at every state is read off under the
    earlier agents' chosen actions, whose mixed-radix code per state is
    carried from agent to agent, so only S rows per layer are read; the
    actions are the digits of the last code. The product of the outputs
    plays exactly the determinized coordination policy, so their values
    coincide.
    """
    tables = _conditional_tables(policy, model)
    s, _, a = tables[0].shape
    states, codes = np.arange(s), np.zeros(s, dtype=np.intp)
    for tab in tables:
        codes = codes * a + tab[states, codes].argmax(axis=1)
    return DecentralizedPolicySet.deterministic(np.unravel_index(codes, (a,) * len(tables)), a)


def kl_distill(policy, model):
    """The product policy closest to a coordination policy in cross-entropy,
    averaged over states: by Gibbs' inequality, each agent's per-state action
    marginal of the joint, i.e. the joint as [S, A, ..., A] (agent i on axis
    i+1) summed over the other agents' axes. The policy is a
    `CoordinationPolicy` (`model` unused) or, as for `greedy_distill`, a
    [V, A] policy on the layered MDP, whose joint is the coordination chain
    (`core._prefix_reach`) of its `layer_tables` views, with no copy. It is
    one-hot, and equal to `greedy_distill`, for a deterministic policy.
    Returns the policies and a one-entry array of the minimal loss
    (0 log 0 = 0).
    """
    tables = _conditional_tables(policy, model)
    n, (s, _, a) = len(tables), tables[0].shape
    joint = _prefix_reach(tables)[-1].reshape((s,) + (a,) * n)
    marginals = np.stack([joint.sum(axis=tuple(j + 1 for j in range(n) if j != i))
                          for i in range(n)])
    log_m = np.log(marginals, out=np.zeros_like(marginals), where=marginals > 0)
    return DecentralizedPolicySet(marginals), np.array([-np.sum(marginals * log_m) / s])


def size_report(model):
    """State-action counts before/after transformation plus the 2x bound flag."""
    s, n, a = model.n_states, model.n_agents, model.n_actions
    original = s * a**n
    transformed = layer_offsets(s, n, a)[1] * a
    return {
        "original_sa": original,
        "transformed_sa": transformed,
        "bound": transformed <= 2 * original,
    }
