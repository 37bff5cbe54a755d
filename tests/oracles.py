"""Independent slow oracles shared by the test modules."""

import numpy as np

from tadlab.constructions import diag_tensor, random_matrix_game, undercut_diag_values
from tadlab.core import (
    MAX_SWEEPS,
    CoordinationPolicy,
    DecentralizedPolicySet,
    Mmdp,
    bellman_backup,
    digit_table,
    episode_positions,
    evaluate_policy,
    first_visit_times,
    optimal_values,
    policy_slices,
)
from tadlab.learners import (
    LAM_FLOOR,
    SARL_OPTIONS,
    TrainTrace,
    VdParams,
    duplex_decompose,
    layered_q_learning,
    softmax,
    softmax_pg,
)
from tadlab.transform import (
    kl_distill,
    layer_backup,
    layered_optimal_values,
    row_max,
    step_discount,
)


def level_scan_oracle(target, weights, code, grid=200001):
    """Best fit with a prescribed top entry, by scanning the pooled level.

    The fit is min(target, v) with the prescribed entry at v; the scan walks a
    fine grid over v and refines twice around the best coarse point. Entirely
    independent of the pooling path it is used to check.
    """
    flat = np.asarray(target, dtype=float).ravel()
    if weights is None:
        w = np.full(flat.size, 1.0 / flat.size)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        w = w / w.sum()
    lo, hi = flat.min(), flat.max()
    vs = np.linspace(lo, hi, grid)
    for _ in range(3):
        fitted = np.minimum(flat[None, :], vs[:, None])
        fitted[:, code] = vs
        losses = np.sum(w[None, :] * (fitted - flat[None, :]) ** 2, axis=1)
        i = int(np.argmin(losses))
        lo = vs[max(i - 1, 0)]
        hi = vs[min(i + 1, vs.size - 1)]
        best = vs[i]
        vs = np.linspace(lo, hi, grid)
    out = np.minimum(flat, best)
    out[code] = best
    return out.reshape(np.shape(target))


def fit_loss(fitted, target, weights):
    flat = np.asarray(fitted, dtype=float).ravel()
    tf = np.asarray(target, dtype=float).ravel()
    if weights is None:
        w = np.full(flat.size, 1.0 / flat.size)
    else:
        w = np.asarray(weights, dtype=float).ravel()
        w = w / w.sum()
    return 0.5 * float(np.sum(w * (flat - tf) ** 2))


def vi_oracle(model, tol=1e-10, max_iter=MAX_SWEEPS):
    """Optimal action values [S, M] plus per-sweep sup-norm residuals, by
    synchronous value iteration from zero, stopped at a sup-norm change
    below `tol` (the solver `optimal_values` ran before policy iteration).

    Its values are within tol * gamma / (1 - gamma) of the optimum; run on
    the dense transform, it is the independent reference for the layered
    transform solve. Episodic models go to the exact backward induction of
    `optimal_values`.
    """
    if model.horizon is not None:
        return optimal_values(model, tol, max_iter)
    s = model.n_states
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


def slices_oracle(model, pol):
    """Episodic return and (d_t, q_t) slices of a [..., S, M] policy matrix
    by the plain backward pass: every step, the last one too, backs up
    `reward + gamma * T @ v` from v = 0. The reference for
    `policy_slices`, whose backward pass starts from the reward table."""
    batch = pol.shape[:-2]
    q_by_t = np.empty((model.horizon,) + batch + model.reward.shape)
    v = np.zeros(batch + (model.n_states,))
    for t in reversed(range(model.horizon)):
        next_v = (model.transition @ v[..., None, :, None])[..., 0]
        q_by_t[t] = model.reward + model.gamma * next_v
        v = np.einsum("...sa,...sa->...s", pol, q_by_t[t])
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


# ---------------------------------------------------------------------------
# the per-agent-loop MA-PG and VD kernels that the agent-stacked kernels of
# `tadlab.learners` replaced; the new kernels must match them bit for bit

def _action_masks(n_agents, n_actions):
    """Tuple of [n_joint, n_actions] one-hot matrices selecting agent i's digit."""
    digits = digit_table(n_agents, n_actions)
    masks = []
    for i in range(n_agents):
        m = np.zeros((digits.shape[0], n_actions))
        m[np.arange(digits.shape[0]), digits[:, i]] = 1.0
        masks.append(m)
    return tuple(masks)


def _picked(tables, digits):
    """Each agent's table read at its digit of every joint action: n arrays
    [..., S, M] from [..., n, S, A]."""
    return [tables[..., i, :, :].take(digits[:, i], axis=-1)
            for i in range(digits.shape[1])]


def _product(factors, shape, skip=None):
    """Product of the factors except `skip`, left to right."""
    rest = [f for j, f in enumerate(factors) if j != skip]
    if not rest:
        return np.ones(shape)
    out = rest[0]
    for f in rest[1:]:
        out = out * f
    return out


def mapg_kernel_oracle(model, tables):
    """Return and policy-space gradient of the product policy `tables`
    [..., n, S, A], one agent at a time."""
    n, _, a = tables.shape[-3:]
    masks = _action_masks(n, a)
    picked = _picked(tables, digit_table(n, a))
    shape = picked[0].shape
    value, slices = policy_slices(model, _product(picked, shape))
    others = [_product(picked, shape, skip=i) for i in range(n)]
    grad = np.zeros_like(tables)
    for d_t, q_t in slices:
        for i in range(n):
            grad[..., i, :, :] += d_t[..., None] * ((others[i] * q_t) @ masks[i])
    return value, grad


def mapg_loss_oracle(logits, model):
    """Negative return of the softmax product policy and its logit gradient."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    tables = e / e.sum(axis=-1, keepdims=True)
    value, pol_grad = mapg_kernel_oracle(model, tables)
    inner = (tables * pol_grad).sum(axis=-1, keepdims=True)
    logit_grad = tables * (pol_grad - inner)
    return -value, -logit_grad


def vd_kernel_oracle(variant, q_local, w_raw, lam_raw, model, dist):
    """Semi-gradient TD loss and the gradients (q_local, w_raw, lam_raw),
    None where the variant has no such array, one agent at a time."""
    n, _, a = q_local.shape[-3:]
    masks = _action_masks(n, a)
    picked = _picked(q_local, digit_table(n, a))
    if variant == "vdn":
        q = picked[0].copy()
        for i in range(1, n):
            q += picked[i]
    elif variant == "monotonic":
        weights = np.exp(w_raw)
        q = weights[..., 0, :, None] * picked[0]
        for i in range(1, n):
            q += weights[..., i, :, None] * picked[i]
    else:
        lam = np.exp(lam_raw)
        maxes = q_local.max(axis=-1)
        adv = [picked[i] - maxes[..., i, :, None] for i in range(n)]
        q = lam[..., 0, :, :] * adv[0]
        for i in range(1, n):
            q += lam[..., i, :, :] * adv[i]
        q += maxes.sum(axis=-2)[..., None]
    if model.horizon == 1:
        target = model.reward
    else:
        target = bellman_backup(q, model)
        if model.horizon is not None:
            # states at the last episode step do not bootstrap
            final = episode_positions(model) == model.horizon - 1
            target[..., final, :] = model.reward[final]
    resid = q - target
    sq = dist * resid * resid
    loss = 0.5 * sq.reshape(sq.shape[:-2] + (-1,)).sum(-1)
    w = dist * resid
    gq = np.empty(q_local.shape)
    gw = glam = None
    if variant == "vdn":
        for i in range(n):
            gq[..., i, :, :] = w @ masks[i]
    elif variant == "monotonic":
        gw = np.empty_like(w_raw)
        for i in range(n):
            gq[..., i, :, :] = weights[..., i, :, None] * (w @ masks[i])
            gw[..., i, :] = weights[..., i, :] * (w * picked[i]).sum(-1)
    else:
        glam = np.empty_like(lam_raw)
        at_best = np.empty(q_local.shape[:-1])
        for i in range(n):
            wlam = w * lam[..., i, :, :]
            glam[..., i, :, :] = wlam * adv[i]
            gq[..., i, :, :] = wlam @ masks[i]
            at_best[..., i, :] = (w - wlam).sum(-1)
        # d q / d max_i = 1 - lam_i, routed to agent i's local argmax
        rows = gq.reshape(-1, gq.shape[-1])
        rows[np.arange(len(rows)), q_local.argmax(-1).ravel()] += at_best.ravel()
    return loss, gq, gw, glam


# ---------------------------------------------------------------------------
# the iterative layered solvers that closed forms and one flat table replaced

def kl_oracle(pc, steps=4000, lr=None):
    """Independent softmax policies fitted to a coordination policy by a
    softmax descent of the exact cross-entropy, averaged over states, from
    zero logits; returns the fitted policies and the per-step loss trace.
    The closed-form `kl_distill` must match its limit."""
    n, s, a = pc.n_agents, pc.n_states, pc.n_actions
    if lr is None:
        lr = float(s)
    joint = pc.joint()
    digits = digit_table(n, a)
    marginals = np.zeros((n, s, a))
    for i in range(n):
        for b in range(a):
            marginals[i, :, b] = joint[:, digits[:, i] == b].sum(axis=1)
    logits = np.zeros((n, s, a))
    losses = np.empty(steps)
    for t in range(steps):
        z = logits - logits.max(axis=2, keepdims=True)
        expz = np.exp(z)
        pi = expz / expz.sum(axis=2, keepdims=True)
        log_pi = z - np.log(expz.sum(axis=2, keepdims=True))
        losses[t] = -np.sum(marginals * log_pi) / s
        logits -= lr * (pi - marginals) / s
    z = logits - logits.max(axis=2, keepdims=True)
    expz = np.exp(z)
    pi = expz / expz.sum(axis=2, keepdims=True)
    return DecentralizedPolicySet(pi), losses


def layered_mmdp(layers, n_agents, n_actions, rng, gamma=0.9):
    """Episodic MMDP with one episode step per entry of `layers`, each the
    state count of its layer: every step moves at random into the next
    layer, the last one back into layer 0, where episodes start uniformly.
    Transitions, then rewards U(0, 1), are drawn from `default_rng(rng)`."""
    rng = np.random.default_rng(rng)
    bounds = np.cumsum((0,) + tuple(layers))
    n_joint = n_actions**n_agents
    transition = np.zeros((bounds[-1], n_joint, bounds[-1]))
    for t, size in enumerate(layers):
        nxt = (t + 1) % len(layers)
        block = rng.random((size, n_joint, layers[nxt]))
        transition[bounds[t]:bounds[t + 1], :, bounds[nxt]:bounds[nxt + 1]] = (
            block / block.sum(axis=2, keepdims=True))
    initial = np.zeros(bounds[-1])
    initial[:layers[0]] = 1.0 / layers[0]
    return Mmdp(bounds[-1], n_agents, n_actions, transition,
                rng.uniform(0.0, 1.0, (bounds[-1], n_joint)), gamma, initial,
                horizon=len(layers))


def layered_q_oracle(model, sweeps=200, lr=0.5):
    """Synchronous Q-learning on the sequential transform with one table per
    layer: each sweep backs every layer up from the previous iterate, then
    pins the final-step and never-reached rows. Returns the [V, A] table in
    virtual-state order; `layered_q_learning` must match it bit for bit."""
    gamma_step = step_discount(model)
    a, n = model.n_actions, model.n_agents
    final = np.zeros(model.n_states, dtype=bool)
    unreached = np.zeros(model.n_states, dtype=bool)
    if model.horizon is not None:
        final = episode_positions(model) == model.horizon - 1
        unreached = first_visit_times(model) < 0
    final = np.repeat(final, a ** (n - 1))
    dead = [np.repeat(unreached, a**k) for k in range(n - 1)]
    last_reward = model.reward.reshape(-1, a)
    q = [np.zeros((model.n_states * a**k, a)) for k in range(n)]
    for _ in range(sweeps):
        targets = [layer_backup(model, k, row_max(q[(k + 1) % n]), gamma_step)
                   for k in range(n)]
        targets[-1][final] = last_reward[final]
        for t_k, dead_k in zip(targets, dead):
            t_k[dead_k] = 0.0
        q = [q_k + lr * (t_k - q_k) for q_k, t_k in zip(q, targets)]
    return np.concatenate(q)


def clipped_pg_oracle(mdp, lr, steps, clip, inner_epochs=4, log_every=50):
    """Clipped softmax policy gradient on a one-agent model, on the model's
    own `policy_slices`, with the logged gradient norm taken from
    `mapg_loss_oracle`: the single-agent TAD-PPO loop that `softmax_pg` must
    match bit for bit on a model that is its own transform. Returns the
    logits and the logged (step, loss, grad norm) rows."""
    logits = np.zeros(mdp.reward.shape)
    rows = []
    for t in range(steps + 1):
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        pi_old = e / e.sum(axis=1, keepdims=True)
        value, occ_q = policy_slices(mdp, pi_old)
        if t % log_every == 0 or t == steps:
            _, grad = mapg_loss_oracle(logits[None], mdp)
            rows.append((t, -value, float(np.linalg.norm(grad))))
        if t == steps:
            return logits, rows
        for _ in range(inner_epochs):
            e = np.exp(logits - logits.max(axis=1, keepdims=True))
            pi = e / e.sum(axis=1, keepdims=True)
            surr = np.zeros_like(logits)
            for d_t, q_t in occ_q:
                v_t = np.sum(pi_old * q_t, axis=1)
                adv = q_t - v_t[:, None]
                ratio = pi / pi_old
                clipped = (((adv > 0) & (ratio > 1.0 + clip))
                           | ((adv < 0) & (ratio < 1.0 - clip)))
                dpi = np.where(clipped, 0.0, d_t[:, None] * adv)
                inner = np.sum(pi * dpi, axis=1, keepdims=True)
                surr += pi * (dpi - inner)
            logits = logits + lr * surr


def greedy_distill_oracle(pc):
    """Greedy distillation state by state: each agent's argmax row under the
    earlier agents' chosen actions at that state, as [n, S] actions."""
    chosen = np.zeros((pc.n_agents, pc.n_states), dtype=np.intp)
    for state in range(pc.n_states):
        prefix = 0
        for k, tab in enumerate(pc.tables):
            chosen[k, state] = np.argmax(tab[state, prefix])
            prefix = prefix * pc.n_actions + chosen[k, state]
    return chosen


def layer_tables_oracle(table, n_agents, n_states):
    """The per-layer [S, A**k, A] tables of a [V, A] transform table, copied
    row by row in virtual-state order: layer by layer, s-major, prefixes
    in code order."""
    rows = iter(np.asarray(table, dtype=float))
    a = np.shape(table)[1]
    tables = tuple(np.array([[next(rows) for _ in range(a**k)] for _ in range(n_states)])
                   for k in range(n_agents))
    assert next(rows, None) is None, "the table has more rows than the layers"
    return tables


def tad_run_oracle(model, sarl="vi", distill="greedy", **cfg):
    """`tad_run` as the one-hot round trip it replaced, from the same
    solvers: the vi or Q table made one-hot (the PG logits softmaxed),
    lowered into a `CoordinationPolicy` row by row, distilled (the
    state-by-state greedy walk into one-hot tables, or `kl_distill`),
    evaluated as the policy set, and its greedy codes folded agent by
    agent into the trace's last row."""
    cfg = {**SARL_OPTIONS[sarl], **cfg}
    trace = TrainTrace()
    if sarl in ("vi", "q_learning"):
        q = (layered_optimal_values(model, **cfg)[0] if sarl == "vi"
             else layered_q_learning(model, **cfg))
        pol = joint_one_hot_oracle(np.argmax(q, axis=1), model.n_actions)
    else:
        logits, trace = softmax_pg(model, **cfg)
        pol = softmax(logits)
    pc = CoordinationPolicy(layer_tables_oracle(pol, model.n_agents, model.n_states))
    if distill == "greedy":
        policies = DecentralizedPolicySet(
            deterministic_tables_oracle(greedy_distill_oracle(pc), model.n_actions))
    else:
        policies = kl_distill(pc, model)[0]
    final_return = evaluate_policy(model, policies)
    step, norm = (trace.step[-1] + 1, trace.grad_norm[-1]) if trace.step else (0, 0.0)
    trace.append(step, -final_return, norm, final_return, greedy_codes_oracle(policies.tables))
    return policies, trace


# ---------------------------------------------------------------------------
# the hand-written joint-action codec, one-hot scatters, prefix-reach
# chain and product-joint gather that numpy's ravel/unravel, `core.one_hot`,
# `CoordinationPolicy.reach` and `DecentralizedPolicySet.joint`'s chain
# replaced; each must match bit for bit

def joint_code_oracle(actions, n_actions):
    """Mixed-radix code of an action tuple, agent 0 most significant."""
    code = 0
    for a in actions:
        code = code * n_actions + int(a)
    return code


def joint_digits_oracle(code, n_agents, n_actions):
    """Per-agent action tuple of a joint code, by repeated division."""
    out = []
    code = int(code)
    for _ in range(n_agents):
        out.append(code % n_actions)
        code //= n_actions
    return tuple(reversed(out))


def digit_table_oracle(n_agents, n_actions):
    """Int array [A**n, n] of every code's digits, filled agent by agent."""
    codes = np.arange(n_actions**n_agents)
    digits = np.empty((codes.size, n_agents), dtype=np.intp)
    for i in range(n_agents - 1, -1, -1):
        digits[:, i] = codes % n_actions
        codes = codes // n_actions
    return digits


def greedy_codes_oracle(tables):
    """Joint code of each agent's argmax in [..., n, S, A] tables, folded
    agent by agent."""
    *_, n, _, a = np.shape(tables)
    acts = np.argmax(tables, axis=-1)
    codes = np.zeros(acts.shape[:-2] + acts.shape[-1:], dtype=np.intp)
    for i in range(n):
        codes = codes * a + acts[..., i, :]
    return codes


def deterministic_tables_oracle(actions, n_actions):
    """One-hot per-agent tables [n, S, A] from actions [n, S], agent by agent."""
    actions = np.asarray(actions, dtype=np.intp)
    n, s = actions.shape
    tables = np.zeros((n, s, n_actions))
    for i in range(n):
        tables[i, np.arange(s), actions[i]] = 1.0
    return tables


def joint_one_hot_oracle(codes, n_joint_actions):
    """One-hot joint policy matrix [S, M] from per-state codes [S]."""
    out = np.zeros((codes.shape[0], n_joint_actions))
    out[np.arange(codes.shape[0]), codes] = 1.0
    return out


def product_joint_oracle(tables):
    """Product joint policy [S, A**n] of per-agent tables [n, S, A]: a ones
    matrix multiplied in place by each agent's table read at its digit of
    every joint action, agent 0 first."""
    n, s, a = tables.shape
    digits = digit_table(n, a)
    out = np.ones((s, a**n))
    for i in range(n):
        out *= tables[i][:, digits[:, i]]
    return out


def coordination_joint_oracle(pc):
    """Chain-product joint policy [S, A**n] of a coordination policy, one
    agent's factor per step, read at each joint action's running prefix."""
    n, s, a = pc.n_agents, pc.n_states, pc.n_actions
    digits = digit_table_oracle(n, a)
    out = np.ones((s, a**n))
    prefix = np.zeros(a**n, dtype=np.intp)
    for i in range(n):
        out *= pc.tables[i][:, prefix, digits[:, i]]
        prefix = prefix * a + digits[:, i]
    return out


def coordination_from_product(policies):
    """A DecentralizedPolicySet embedded as a (prefix-independent)
    coordination policy: agent i's table repeated over every prefix code."""
    tabs = []
    n, s, a = policies.tables.shape
    for i in range(n):
        tabs.append(np.broadcast_to(policies.tables[i][:, None, :], (s, a**i, a)).copy())
    return CoordinationPolicy(tuple(tabs))


# ---------------------------------------------------------------------------
# the per-layer construction of the dense sequential transform that the
# shifted-identity layout rule replaced; it must match bit for bit

def sequential_transform_oracle(model):
    """(transition [V, A, V], reward [V, A], initial [V]) of the sequential
    transform, scattered layer by layer and action by action."""
    s, n, a = model.n_states, model.n_agents, model.n_actions
    offsets = [s * (a**k - 1) // (a - 1) if a > 1 else k * s for k in range(n)]
    total = offsets[-1] + s * a ** (n - 1)
    transition = np.zeros((total, a, total))
    reward = np.zeros((total, a))
    for k in range(n - 1):
        width = a**k
        v = offsets[k] + np.arange(s * width)
        u0 = offsets[k + 1] + np.arange(s * width) * a
        for act in range(a):
            transition[v, act, u0 + act] = 1.0
    width = a ** (n - 1)
    last = offsets[n - 1] + np.arange(s * width)
    reward[last, :] = model.reward.reshape(s * width, a)
    final_trans = model.transition.reshape(s * width, a, s)
    for act in range(a):
        transition[last, act, :s] = final_trans[:, act, :]
    initial = np.zeros(total)
    initial[:s] = model.initial_dist
    return transition, reward, initial


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


def ne_count_bruteforce(k, trials, rng):
    """Slow oracle for the Monte-Carlo estimate: enumerate equilibria per game."""
    rng = np.random.default_rng(rng)
    total = 0
    for _ in range(trials):
        game = random_matrix_game(k, 2, rng)
        total += len(pure_nash_enumerate(game))
    return total / trials


def construct_local_minima_oracle(k, n):
    """The trap points of `construct_local_minima` by search, one diagonal
    cell per round.

    Round l reveals the l diagonal values fixed so far, masks the rest at
    the running suffix mean, decomposes the masked table with the duplex
    construction at its first maximizing joint action, and places the next
    value at the cell the decomposition's local argmaxes point to. Refuses
    local argmaxes that tie, disagree across agents or revisit a cell.
    """
    if k < 2 or n < 2:
        raise ValueError("need k >= 2 actions and n >= 2 agents")
    values = undercut_diag_values(k)
    diag = np.zeros(k)
    filled = np.zeros(k, dtype=bool)
    points = []
    for l in range(k):
        masked = diag.copy()
        masked[~filled] = values[l:].mean()
        f = diag_tensor(masked, n).reshape(1, -1)
        theta = duplex_decompose(f, int(np.argmax(f[0])), n_agents=n)
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


def duplex_decompose_oracle(target, codes, n_agents):
    """The duplex decomposition built state by state and joint action by
    joint action: the reference for the array form of `duplex_decompose`."""
    arr = np.asarray(target, dtype=float)
    s_dim, n_joint = arr.shape
    a_dim = round(n_joint ** (1.0 / n_agents))
    codes = np.broadcast_to(np.asarray(codes, dtype=np.intp), (s_dim,)).copy()
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
