import dataclasses
import hashlib
import itertools

import numpy as np
import pytest

from tadlab import (
    DecentralizedPolicySet,
    GdDivergenceError,
    MapgParams,
    VdParams,
    brute_force_optimal,
    duplex_decompose,
    evaluate_policy,
    gd_run,
    greedy_codes,
    greedy_distill,
    igm_check,
    joint_code,
    joint_digits,
    layered_q_learning,
    lower_policy,
    mapg_loss_and_grad,
    mapg_objective,
    q_learning,
    sequential_transform,
    softmax_pg,
    tad_run,
    value_iteration,
    vd_loss_and_grad,
    vd_objective,
)
import tadlab.learners as learners
import tadlab.transform as transform
from tadlab.claims import composition_models
from tadlab.constructions import (
    MATGAME2,
    builtin_game,
    builtin_names,
    random_matrix_game,
    random_mmdp,
    undercut_diag_payoff,
)
from tadlab.core import (
    MAX_SWEEPS,
    Mdp,
    bellman_backup,
    episode_positions,
    matrix_game,
    optimal_values,
)
from tadlab.learners import (
    TrainTrace,
    igm_consistent,
    run_mapg,
    run_vd,
    softmax,
    uniform_dist,
)
from tadlab.transform import layered_policy_slices
from oracles import (
    clipped_pg_oracle,
    duplex_decompose_oracle,
    layered_mmdp,
    layered_q_oracle,
    mapg_kernel_oracle,
    mapg_loss_oracle,
    vd_kernel_oracle,
)

TABLE1 = builtin_game("table1")
M2 = builtin_game("matgame2")


def mapg_oracle_objective(template, model):
    """The packed product-policy objective on the per-agent-loop oracle kernel."""
    shape = template.logits.shape[-3:]

    def f(x):
        loss, grad = mapg_loss_oracle(x.reshape(x.shape[:-1] + shape), model)
        return loss, grad.reshape(x.shape)

    return f


def vd_oracle_objective(template, model, dist=None):
    """The packed TD objective on the per-agent-loop oracle kernel."""
    dist = uniform_dist(model) if dist is None else dist

    def f(x):
        p = template.unpack_like(x)
        loss, *grads = vd_kernel_oracle(p.variant, p.q_local, p.w_raw, p.lam_raw,
                                        model, dist)
        return loss, np.concatenate([g.reshape(x.shape[:-1] + (-1,))
                                     for g in grads if g is not None], axis=-1)

    return f


# ---------------------------------------------------------------------------
# product-policy gradient

def test_mapg_uniform_logits_gradient_is_row_mean_advantage():
    params = MapgParams.uniform(2, 1, 3)
    loss, grad = mapg_loss_and_grad(params, TABLE1)
    assert loss == pytest.approx(164 / 9, abs=1e-12)
    row_means = np.array([-50 / 3, -55 / 3, -59 / 3])
    baseline = -164 / 9
    expected = -(1 / 3) * (row_means - baseline)
    assert np.allclose(grad[0, 0], expected, atol=1e-12)
    assert np.allclose(grad[1, 0], expected, atol=1e-12)  # symmetric game
    # the optimal action has the largest favorable component
    assert grad[0, 0, 0] < grad[0, 0, 1] < grad[0, 0, 2]


def test_mapg_shift_invariance():
    rng = np.random.default_rng(0)
    params = MapgParams(rng.standard_normal((2, 1, 3)))
    loss0, grad0 = mapg_loss_and_grad(params, TABLE1)
    shifted = MapgParams(params.logits.copy())
    shifted.logits[0] += 3.7
    loss1, grad1 = mapg_loss_and_grad(shifted, TABLE1)
    assert loss1 == pytest.approx(loss0, abs=1e-12)
    assert np.allclose(grad0, grad1, atol=1e-12)


def test_mapg_gradient_matches_finite_differences_multistep():
    from tadlab.analysis import grad_check

    model = random_mmdp(3, 2, 2, gamma=0.9, rng=1)
    rng = np.random.default_rng(2)
    for _ in range(3):
        params = MapgParams(rng.standard_normal((2, 3, 2)))
        assert grad_check(mapg_objective(params, model), params.pack()) < 1e-6


def test_mapg_stationarity_decays_with_concentration():
    game = matrix_game(np.diag([1.0, 2.0, 3.0, 4.0]))
    for i in range(4):
        norms = []
        for scale in (5.0, 10.0, 20.0):
            params = MapgParams.concentrated(2, 1, 4, (i, i), scale)
            _, grad = mapg_loss_and_grad(params, game)
            norms.append(np.linalg.norm(grad))
        assert norms[0] > norms[1] > norms[2]
        assert norms[2] < 1e-7


# ---------------------------------------------------------------------------
# value decomposition forward/loss

def test_vd_forward_vdn_sums_locals():
    p = VdParams("vdn", np.array([[[1.0, 2.0]], [[3.0, 4.0]]]))
    assert p.joint_table()[0, joint_code((1, 1), 2)] == 6.0
    assert p.joint_table()[0, joint_code((0, 1), 2)] == 5.0


def test_vd_forward_duplex_unit_weights_reduce_to_sum():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((2, 1, 3))
    p = VdParams("duplex", q)  # lam_raw defaults to zeros -> weights all 1
    for code in range(9):
        a = joint_digits(code, 2, 3)
        expected = q[0, 0, a[0]] + q[1, 0, a[1]]
        assert p.joint_table()[0, code] == pytest.approx(expected, abs=1e-12)


def test_vd_loss_zero_at_perfect_fit():
    # additive payoff is exactly representable by vdn
    u, v = np.array([1.0, -2.0]), np.array([0.5, 3.0])
    payoff = u[:, None] + v[None, :]
    from tadlab.core import matrix_game

    game = matrix_game(payoff)
    p = VdParams("vdn", np.stack([u[None, :], v[None, :]]))
    loss, grad = vd_loss_and_grad(p, game)
    assert loss < 1e-24
    assert np.linalg.norm(grad.pack()) < 1e-12


def test_vd_gradients_match_finite_differences():
    from tadlab.analysis import grad_check

    for variant in ("vdn", "monotonic", "duplex"):
        for seed in range(3):
            p = VdParams.random(variant, 2, 1, 2, rng=seed)
            assert grad_check(vd_objective(p, M2), p.pack()) < 1e-6


def test_run_vd_matches_generic_descent_exactly():
    # run_vd (gd_run on vd_objective) must retrace gd_run on an objective
    # built independently, on the per-agent-loop oracle kernel
    for variant in ("vdn", "monotonic", "duplex"):
        p0 = VdParams.random(variant, 2, 1, 2, rng=5)
        objective = vd_oracle_objective(p0, M2)
        x, t1 = gd_run(objective, p0.pack(), lr=0.05, steps=57, log_every=10)
        p, t2 = run_vd(M2, p0, lr=0.05, steps=57, log_every=10)
        assert np.array_equal(x, p.pack())
        assert t1.loss == t2.loss and t1.step == t2.step


def test_vd_gradients_with_weighted_sampling_distribution():
    from tadlab.analysis import grad_check

    rng = np.random.default_rng(12)
    dist = rng.random((1, 4)) + 0.1
    dist /= dist.sum()
    for variant in ("vdn", "monotonic", "duplex"):
        p = VdParams.random(variant, 2, 1, 2, rng=21)
        assert grad_check(vd_objective(p, M2, dist=dist), p.pack()) < 1e-6


def test_vd_rejects_zero_support_dist():
    p = VdParams.zeros("vdn", 2, 1, 2)
    for bad in (0.0, np.nan):
        dist = uniform_dist(M2)
        dist = dist.copy()
        dist[0, 1] = bad
        dist[0, 0] += 1 / 4
        with pytest.raises(ValueError, match="support"):
            vd_loss_and_grad(p, M2, dist=dist)


def test_vd_refuses_a_dist_summing_just_over_one():
    # the sum tolerance is 1e-9, so 1e-8 over is no distribution
    dist = uniform_dist(M2)
    dist[0, 0] += 1e-8
    with pytest.raises(ValueError, match="must sum to 1"):
        vd_loss_and_grad(VdParams.zeros("vdn", 2, 1, 2), M2, dist=dist)


def test_vdn_converges_to_additive_least_squares_fit():
    # closed form: row mean + column mean - grand mean
    fit = np.array([[-12.25, 2.25], [2.25, 16.75]])
    rng = np.random.default_rng(4)
    p0 = VdParams("vdn", rng.standard_normal((2, 1, 2)))
    p, _ = run_vd(M2, p0, lr=0.5, steps=3000, log_every=3000)
    assert np.abs(p.joint_table().reshape(2, 2) - fit).max() < 1e-8
    assert joint_digits(greedy_codes(p.q_local)[0], 2, 2) == (1, 1)


def test_monotonic_mixer_has_nonnegative_sensitivities():
    # finite-difference dQ/dQ_i must be >= 0 for the positive mixing weights
    rng = np.random.default_rng(5)
    for seed in range(5):
        p = VdParams.random("monotonic", 2, 2, 3, rng=seed)
        base = p.joint_table()
        i = int(rng.integers(2))
        s = int(rng.integers(2))
        b = int(rng.integers(3))
        bumped = VdParams("monotonic", p.q_local.copy(), p.w_raw.copy())
        bumped.q_local[i, s, b] += 1e-6
        delta = (bumped.joint_table() - base) / 1e-6
        assert delta.min() >= -1e-9


def test_duplex_stuck_region_is_stationary():
    f = np.array([[-20.0, 29 / 3], [29 / 3, 29 / 3]])
    p = duplex_decompose(f.reshape(1, 4), joint_code((1, 1), 2), 2)
    assert np.abs(p.joint_table().reshape(2, 2) - f).max() < 1e-10
    loss, grad = vd_loss_and_grad(p, M2)
    assert np.linalg.norm(grad.pack()) < 1e-6


def test_igm_vdn_always_holds():
    for seed in range(50):
        p = VdParams.random("vdn", 2, 2, 3, rng=seed)
        assert igm_check(p, 0) and igm_check(p, 1)


def test_igm_negative_control():
    joint = np.array([0.0, 1.0, 1.0, 0.0])  # argmax excludes the local product
    locals_ = np.array([[1.0, 0.0], [1.0, 0.0]])  # product points at (0, 0)
    assert not igm_consistent(joint, locals_)
    assert igm_consistent(np.array([1.0, 0, 0, 0]), locals_)


# ---------------------------------------------------------------------------
# duplex decomposition

def test_duplex_decompose_round_trip_and_argmax():
    rng = np.random.default_rng(6)
    for _ in range(10):
        target = rng.uniform(-20, 10, size=(2, 9))
        codes = np.argmax(target, axis=1)
        p = duplex_decompose(target, codes, n_agents=2)
        assert np.abs(p.joint_table() - target).max() < 1e-10
        for s in range(2):
            star = joint_digits(codes[s], 2, 3)
            for i in range(2):
                row = p.q_local[i, s]
                assert np.argmax(row) == star[i]
                assert row[star[i]] - np.partition(row, -2)[-2] >= 1.0 - 1e-12
            assert igm_check(p, s)


def test_duplex_decompose_requires_maximizer():
    with pytest.raises(ValueError, match="maximizer"):
        duplex_decompose(np.array(MATGAME2).reshape(1, 4), joint_code((0, 0), 2), 2)
    # the maximizer tolerance is 1e-12, so a value 1e-6 short is no maximizer
    with pytest.raises(ValueError, match="code 1 is not a maximizer at state 0"):
        duplex_decompose(np.array([[0.0, 1.0 - 1e-6, 0.0, 1.0]]), 1, 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_duplex_decompose_refuses_non_finite_targets(bad):
    with pytest.raises(ValueError, match="target must be finite"):
        duplex_decompose(np.array([[bad, 1.0, 0.0, 0.0]]), 1, 2)


def test_duplex_decompose_constant_target_all_floor():
    p = duplex_decompose(np.zeros((1, 4)), joint_code((1, 0), 2), 2)
    assert np.abs(p.joint_table()).max() < 1e-10
    lam = np.exp(p.lam_raw)
    digits = [joint_digits(c, 2, 2) for c in range(4)]
    for code, (a0, a1) in enumerate(digits):
        if a0 != 1:
            assert lam[0, 0, code] == pytest.approx(1e-12)
        if a1 != 0:
            assert lam[1, 0, code] == pytest.approx(1e-12)


def test_duplex_decompose_trap_points_are_stationary():
    from tadlab.core import matrix_game
    from tadlab.constructions import restricted_minimizer

    tensor = undercut_diag_payoff(3, 2)
    game = matrix_game(tensor)
    for l in range(3):
        a_star = joint_code((l, l), 3)
        f = restricted_minimizer(tensor, None, a_star)
        p = duplex_decompose(f.reshape(1, -1), a_star, 2)
        _, grad = vd_loss_and_grad(p, game)
        assert np.linalg.norm(grad.pack()) < 1e-8


# ---------------------------------------------------------------------------
# gradient descent driver

def test_gd_run_quadratic_bowl_geometric_decay():
    def bowl(x):
        return 0.5 * float(x @ x), x

    x, trace = gd_run(bowl, np.full(4, 2.0), lr=0.1, steps=120, log_every=1)
    norms = np.array(trace.grad_norm)
    assert np.allclose(norms[1:] / norms[:-1], 0.9, atol=1e-12)
    assert np.linalg.norm(x) < 1e-4


def test_gd_run_update_hook_matches_the_plain_step():
    # a hook that takes the plain step by hand retraces the default path bit
    # for bit, and runs after every evaluation but the last
    grads, calls = [], []

    def bowl(x):
        grads.append(x.copy())
        return 0.5 * float(x @ x), x

    def update(x):
        calls.append(len(grads))
        return x - 0.1 * grads[-1]

    x0 = np.array([2.0, -1.5, 0.3, 7.0])
    want, want_trace = gd_run(bowl, x0, lr=0.1, steps=50, log_every=7)
    x, trace = gd_run(bowl, x0, lr=0.1, steps=50, log_every=7, update=update)
    assert np.array_equal(x, want)
    assert_same_trace(trace, want_trace)
    assert calls == list(range(52, 102))


@pytest.mark.parametrize("x0", [np.full(4, 2.0), np.full((3, 4), 2.0)])
def test_gd_run_hands_the_objective_one_array_unless_a_hook_steps(x0):
    # the objectives keep their views of x while they see the same array;
    # with no hook every call gets the array gd_run returns, updated in place
    seen = []

    def bowl(x):
        seen.append(x)
        return 0.5 * np.add.reduce(x * x, axis=-1), x.copy()

    x, _ = gd_run(bowl, x0, lr=0.1, steps=20, log_every=5)
    assert len(seen) == 21 and all(arg is x for arg in seen)
    assert not np.shares_memory(x, x0)
    # a hook may return a new array, which the next call then gets
    seen.clear()
    x, _ = gd_run(bowl, x0, lr=0.1, steps=20, log_every=5, update=lambda x: 0.9 * x)
    assert len({id(arg) for arg in seen}) == 21 and seen[-1] is x


def test_gd_run_nan_aborts():
    def bad(x):
        return float("nan"), x

    with pytest.raises(GdDivergenceError):
        gd_run(bad, np.ones(2), lr=0.1, steps=10)


BAD_STEP_SETTINGS = [{"lr": np.nan}, {"lr": np.inf}, {"log_every": 0}]


def test_gd_run_rejects_bad_lr():
    for bad in [{"lr": 0.0}, *BAD_STEP_SETTINGS]:
        with pytest.raises(ValueError, match=next(iter(bad))):
            gd_run(lambda x: (0.0, x), np.ones(1), **{"lr": 0.1, "steps": 1, **bad})


def test_gd_run_rejects_non_integral_steps():
    for steps in (np.nan, np.inf, 2.5):
        with pytest.raises(ValueError, match="steps"):
            gd_run(lambda x: (0.0, x), np.ones(1), lr=0.1, steps=steps)


#: (id, a call with an option value the CLI refuses, the option's name)
_BAD_API_OPTIONS = [
    ("tol-negative", lambda: optimal_values(random_mmdp(2, 2, 2, gamma=0.9, rng=0), tol=-1.0),
     "tol"),
    ("tol-nan", lambda: optimal_values(random_mmdp(10, 2, 3, gamma=0.99, rng=2), tol=np.nan),
     "tol"),
    ("vi-tol-zero", lambda: value_iteration(M2, tol=0.0), "tol"),
    ("clip-nan", lambda: tad_run(TABLE1, sarl="clipped_pg", clip=np.nan), "clip"),
    ("sweeps-fraction", lambda: tad_run(TABLE1, sarl="q_learning", sweeps=2.5), "sweeps"),
    ("sweeps-negative", lambda: tad_run(TABLE1, sarl="q_learning", sweeps=-3), "sweeps"),
    ("q-learning-lr-nan", lambda: q_learning(sequential_transform(TABLE1), lr=np.nan), "lr"),
    ("log-every-nan", lambda: gd_run(lambda x: (0.0, x), np.ones(1), lr=0.1, steps=5,
                                     log_every=np.nan), "log_every"),
    ("log-every-fraction", lambda: gd_run(lambda x: (0.0, x), np.ones(1), lr=0.1, steps=5,
                                          log_every=2.5), "log_every"),
    ("steps-bool", lambda: gd_run(lambda x: (0.0, x), np.ones(1), lr=0.1, steps=True),
     "steps"),
    # integers that float() cannot hold
    ("lr-huge-int", lambda: gd_run(lambda x: (0.0, x), np.ones(1), lr=10**400, steps=1),
     "lr"),
    ("vi-tol-huge-int", lambda: value_iteration(M2, tol=10**400), "tol"),
    ("clip-huge-int", lambda: tad_run(TABLE1, sarl="clipped_pg", clip=10**400), "clip"),
    # counts above MAX_SWEEPS; a 400-digit count would never finish
    ("sweeps-huge-int", lambda: tad_run(TABLE1, sarl="q_learning", sweeps=10**400), "sweeps"),
    ("steps-above-cap", lambda: gd_run(lambda x: (0.0, x), np.ones(1), lr=0.1,
                                       steps=MAX_SWEEPS + 1), "steps"),
]


@pytest.mark.parametrize("call,key", [case[1:] for case in _BAD_API_OPTIONS],
                         ids=[case[0] for case in _BAD_API_OPTIONS])
def test_the_api_refuses_the_options_the_cli_refuses(call, key):
    with pytest.raises(ValueError, match=f"^'{key}' must be "):
        call()


def test_gd_run_logs_a_finite_norm_of_a_gradient_whose_squares_overflow(tmp_path):
    # 1e200**2 overflows, the norm 2e200 does not; only the huge replica's
    # norm is scaled, the other keeps its row_norms bits
    grad = np.array([[1e200] * 4, [3.0, 4.0, 0.0, 0.0]])
    x, traces = gd_run(lambda x: (np.zeros(2), grad), np.zeros((2, 4)), lr=1e-300,
                       steps=1)
    assert traces[0].grad_norm == [2e200, 2e200]
    assert traces[1].grad_norm == [5.0, 5.0]
    traces[0].to_csv(tmp_path / "trace.csv")
    with pytest.raises(GdDivergenceError, match="norm beyond the float range at step 0"):
        gd_run(lambda x: (0.0, np.full(4, 1e308)), np.zeros(4), lr=1e-300, steps=1)


def test_gd_run_raises_at_the_step_of_one_non_finite_entry():
    # entry None puts `value` into replica k's loss, entry j into its gradient
    for value, k, entry in itertools.product((np.nan, np.inf, -np.inf), range(3),
                                             (None, 0, 1)):
        calls = []

        def f(x):
            loss, grad = 0.5 * (x * x).sum(-1), x.copy()
            if len(calls) == 4:
                if entry is None:
                    loss[k] = value
                else:
                    grad[k, entry] = value
            calls.append(1)
            return loss, grad

        with pytest.raises(GdDivergenceError, match="at step 4 "):
            gd_run(f, np.ones((3, 2)), lr=0.1, steps=10, log_every=3)


def test_gd_run_accepts_finite_losses_and_gradients_whose_sums_overflow():
    huge = np.full((2, 2), 1e308)
    calls = []

    def f(x):
        calls.append(1)
        loss = huge[:, 0] if len(calls) == 2 else np.zeros(2)
        return loss, huge if len(calls) == 3 else np.zeros((2, 2))

    # steps 1 and 2 are neither logged nor the last, so no norm is taken of them
    x, traces = gd_run(f, np.zeros((2, 2)), lr=1e-300, steps=3, log_every=10)
    assert traces.step == [0, 3]
    assert np.array_equal(x, np.full((2, 2), -1e-300 * 1e308))


def test_gd_run_monotone_below_smoothness_threshold():
    # empirical smoothness of the product-policy loss via Hessian probes
    params = MapgParams.uniform(2, 1, 3)
    f = mapg_objective(params, TABLE1)
    rng = np.random.default_rng(7)
    x0 = rng.standard_normal(6) * 0.5
    lip = 0.0
    for _ in range(30):
        u = rng.standard_normal(6)
        u /= np.linalg.norm(u)
        g1 = f(x0 + 1e-4 * u)[1]
        g0 = f(x0 - 1e-4 * u)[1]
        lip = max(lip, np.linalg.norm(g1 - g0) / 2e-4)
    _, trace = gd_run(f, x0, lr=1.0 / lip, steps=300, log_every=1)
    assert np.all(np.diff(trace.loss) <= 1e-12)


def test_mapg_concentrated_runs_stay_on_their_diagonal():
    for target, value in (((1, 1), 5.0), ((2, 2), 1.0)):
        p0 = MapgParams.concentrated(2, 1, 3, target, 5.0)
        p, trace = run_mapg(TABLE1, p0, lr=0.05, steps=4000, log_every=1000)
        assert joint_digits(greedy_codes(p.logits)[0], 2, 3) == target
        greedy = DecentralizedPolicySet.deterministic(
            np.argmax(p.logits, axis=2), 3
        )
        assert evaluate_policy(TABLE1, greedy) == pytest.approx(value, abs=1e-9)
        # stochastic return approaches the trapped value from below
        assert trace.ret[-1] == pytest.approx(value, abs=0.05)


def test_mapg_uniform_run_reaches_global_optimum():
    p, _ = run_mapg(TABLE1, MapgParams.uniform(2, 1, 3), lr=0.05, steps=4000,
                    log_every=1000)
    assert joint_digits(greedy_codes(p.logits)[0], 2, 3) == (0, 0)


# ---------------------------------------------------------------------------
# single-agent solvers

def test_value_iteration_two_layer_root_value():
    mdp = sequential_transform(TABLE1)
    q, greedy = value_iteration(mdp)
    assert q[0].max() == pytest.approx(0.99**0.5 * 10.0, abs=1e-12)
    assert greedy[0] == 0 and greedy[1] == 0


def test_value_iteration_geometric_series():
    mdp = Mdp(1, 1, np.ones((1, 1, 1)), np.ones((1, 1)), 0.5, [1.0])
    q, _ = value_iteration(mdp)
    assert q[0].max() == pytest.approx(2.0, abs=1e-9)


def test_value_iteration_matches_joint_oracle_after_inverse():
    from tadlab.transform import inverse_transform

    model = random_mmdp(3, 2, 2, gamma=0.9, rng=8)
    mdp = sequential_transform(model)
    q, _ = value_iteration(mdp, tol=1e-12)
    best, _ = brute_force_optimal(inverse_transform(mdp, 2))
    j_gamma = float(mdp.initial_dist @ q.max(axis=1))
    assert j_gamma == pytest.approx(model.gamma ** (1 / 2) * best, abs=1e-8)


def test_q_learning_synchronous_solves_transformed_game():
    mdp = sequential_transform(M2)
    q = q_learning(mdp, sweeps=100, lr=1.0)
    pol = np.zeros(mdp.reward.shape)
    pol[np.arange(mdp.n_states), np.argmax(q, axis=1)] = 1.0
    dec = greedy_distill(lower_policy(pol, 2), M2)
    assert evaluate_policy(M2, dec) == pytest.approx(10.0, abs=1e-12)


def test_q_learning_one_step_bandit():
    mdp = Mdp(1, 3, np.ones((1, 3, 1)), np.array([[1.0, 2.0, 3.0]]), 0.9,
              [1.0], horizon=1)
    q = q_learning(mdp, sweeps=60, lr=0.5)
    assert np.allclose(q, [[1.0, 2.0, 3.0]], atol=1e-9)


def _q_learning_per_sweep_positions(mdp, sweeps, lr):
    """Synchronous Q-learning recomputing the episode positions every sweep."""
    q = np.zeros_like(mdp.reward)
    for _ in range(sweeps):
        if mdp.horizon is None or mdp.horizon == 1:
            target = bellman_backup(q, mdp)
        else:
            target = mdp.reward + mdp.gamma * (mdp.transition @ q.max(axis=1))
            final = episode_positions(mdp) == mdp.horizon - 1
            target[final] = mdp.reward[final]
        q = q + lr * (target - q)
    return q


@pytest.mark.parametrize("model", [
    M2,
    random_mmdp(3, 2, 2, gamma=0.9, rng=40),
    random_mmdp(3, 2, 2, gamma=0.9, rng=41, horizon=1),
], ids=["game", "discounted", "one-step"])
def test_q_learning_synchronous_computes_positions_once(model, monkeypatch):
    mdp = sequential_transform(model)
    want = _q_learning_per_sweep_positions(mdp, 50, 0.5)
    calls = []

    def counted(m):
        calls.append(m)
        return episode_positions(m)

    monkeypatch.setattr(learners, "episode_positions", counted)
    got = q_learning(mdp, sweeps=50, lr=0.5)
    assert np.array_equal(got, want)
    assert len(calls) == (mdp.horizon is not None)


@pytest.mark.parametrize("game", [TABLE1, M2, random_matrix_game(2, 4, 0)],
                         ids=["table1", "matgame2", "random_k2_n4"])
def test_layered_q_learning_bitwise_on_one_step_games(game):
    dense = q_learning(sequential_transform(game), sweeps=200, lr=0.5)
    layered = layered_q_learning(game, sweeps=200, lr=0.5)
    assert np.array_equal(layered, dense)


def test_layered_q_learning_matches_dense_discounted():
    model = random_mmdp(5, 2, 3, gamma=0.9, rng=42)
    dense = q_learning(sequential_transform(model), sweeps=300, lr=0.7)
    layered = layered_q_learning(model, sweeps=300, lr=0.7)
    assert np.abs(layered - dense).max() < 1e-10


def test_layered_q_learning_matches_dense_with_unreached_states(partly_reached_models):
    for model in partly_reached_models:
        dense = q_learning(sequential_transform(model), sweeps=200, lr=0.5)
        layered = layered_q_learning(model, sweeps=200, lr=0.5)
        assert np.abs(layered - dense).max() < 1e-12
        assert np.array_equal(np.argmax(layered, axis=1), np.argmax(dense, axis=1))


@pytest.mark.parametrize("sweeps", [1, 3, 200])
def test_layered_q_learning_bitwise_on_the_per_layer_oracle(sweeps, partly_reached_models):
    # one flat table against one table per layer: every bit, signed zeros too
    models = ([model for _, model in composition_models(0)] + partly_reached_models
              + [random_matrix_game(3, 7, seed) for seed in range(3)]
              + [random_mmdp(4, 1, 3, gamma=0.9, rng=45)]
              # bootstrapping and final-step states in one model
              + [layered_mmdp((1, 2, 2), 2, 3, rng=66), layered_mmdp((2, 1, 3, 2), 3, 2, rng=68)])
    for model in models:
        got = layered_q_learning(model, sweeps=sweeps, lr=0.5)
        want = layered_q_oracle(model, sweeps=sweeps, lr=0.5)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("name,backups", [("matgame2", 0), ("discounted", 7), ("layered_h3", 7)])
def test_layered_q_learning_backs_up_the_joint_step_only_where_states_bootstrap(
        name, backups, monkeypatch):
    # one-step, infinite-horizon, and mixed final-step and bootstrapping states
    model = KERNEL_MODELS[name]
    calls = []

    def spy(*args):
        calls.append(args[1])
        return transform.layer_backup(*args)

    monkeypatch.setattr(learners, "layer_backup", spy)
    layered_q_learning(model, sweeps=7, lr=0.5)
    assert calls == [model.n_agents - 1] * backups


def _count_calls(monkeypatch, name, fn):
    """Monkeypatch `learners.<name>` with a spy that counts its calls."""
    calls = []

    def spy(*args):
        calls.append(None)
        return fn(*args)

    monkeypatch.setattr(learners, name, spy)
    return calls


@pytest.mark.parametrize("model,sweeps,ran", [
    (random_matrix_game(3, 7, 0), 200, 81),
    (random_mmdp(10, 3, 3, gamma=0.9, rng=0), 200, 200),
], ids=["game_exits", "mmdp_runs_out"])
def test_layered_q_learning_stops_at_its_bitwise_fixed_point(model, sweeps, ran, monkeypatch):
    # one row_max per sweep; the game's table stops changing at sweep 80
    calls = _count_calls(monkeypatch, "row_max", transform.row_max)
    layered_q_learning(model, sweeps=sweeps, lr=0.5)
    assert len(calls) == ran


@pytest.mark.parametrize("model,sweeps", [
    *((random_matrix_game(3, 7, 0), sweeps) for sweeps in (79, 80, 81, 200)),
    (random_mmdp(10, 3, 3, gamma=0.9, rng=0), 2000),
], ids=["game_79", "game_80", "game_81", "game_200", "mmdp_2000"])
def test_layered_q_learning_exit_keeps_the_oracle_bits(model, sweeps):
    # the oracle runs every sweep; around the exit and past it the bits agree
    got = layered_q_learning(model, sweeps=sweeps, lr=0.5)
    want = layered_q_oracle(model, sweeps=sweeps, lr=0.5)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_q_learning_stops_at_its_bitwise_fixed_point(monkeypatch):
    # against the dense sweep with no exit, all 200 sweeps run
    mdp = sequential_transform(M2)
    want = _q_learning_per_sweep_positions(mdp, 200, 0.5)
    calls = _count_calls(monkeypatch, "bellman_backup", bellman_backup)
    got = q_learning(mdp, sweeps=200, lr=0.5)
    assert len(calls) < 200
    assert got.tobytes() == want.tobytes()


def test_layered_q_learning_divergence_raises_without_warnings():
    # the suite turns warnings into errors
    with pytest.raises(GdDivergenceError, match="2000 sweeps"):
        layered_q_learning(TABLE1, sweeps=2000, lr=5.0)


def test_q_learning_divergence_raises_without_warnings():
    # the dense reference diverges as the layered sweep does; the suite turns
    # warnings into errors
    with pytest.raises(GdDivergenceError, match="2000 sweeps"):
        q_learning(sequential_transform(TABLE1), sweeps=2000, lr=5.0)


def test_softmax_pg_two_action_bandit_monotone():
    mdp = Mdp(1, 2, np.ones((1, 2, 1)), np.array([[0.0, 1.0]]), 0.9, [1.0],
              horizon=1)
    logits, trace = softmax_pg(mdp, lr=1.0, steps=400, log_every=20)
    assert softmax(logits)[0, 1] > 0.99
    rets = np.array(trace.ret)
    assert np.all(np.diff(rets) >= -1e-12)


def test_softmax_pg_solves_transformed_table1():
    mdp = sequential_transform(TABLE1)
    logits, _ = softmax_pg(mdp, lr=2.0, steps=800, log_every=400)
    dec = greedy_distill(lower_policy(softmax(logits), 2), TABLE1)
    assert evaluate_policy(TABLE1, dec) == pytest.approx(10.0, abs=1e-12)


def test_clipped_pg_matches_unclipped_greedy():
    mdp = sequential_transform(M2)
    plain, _ = softmax_pg(mdp, lr=1.0, steps=300, log_every=150)
    clipped, _ = softmax_pg(mdp, lr=1.0, steps=300, clip=0.2, log_every=150)
    assert np.array_equal(np.argmax(plain, axis=1), np.argmax(clipped, axis=1))


def test_clipped_pg_logs_the_scaled_norm_of_an_overflowing_gradient():
    # the first gradient's sum of squares overflows: TAD-PPO logs the same
    # scaled norm as gd_run does for unclipped TAD-PG
    game = matrix_game([[1e200, 0], [0, 1]])
    _, clipped = softmax_pg(game, lr=1e-3, steps=2, clip=0.2, log_every=1)
    _, plain = softmax_pg(game, lr=1e-3, steps=2, log_every=1)
    assert np.isfinite(clipped.grad_norm).all()
    assert ((clipped.step[0], clipped.loss[0], clipped.grad_norm[0])
            == (plain.step[0], plain.loss[0], plain.grad_norm[0]))


def test_clipped_pg_takes_the_ratio_of_underflowed_probabilities_silently():
    # at lr 200 a probability underflows to 0, and its ratio 0/0 is nan,
    # which selects no clip; any warning here fails the suite
    _, trace = tad_run(TABLE1, sarl="clipped_pg", lr=200, steps=50)
    assert np.isfinite(trace.loss).all()


@pytest.mark.parametrize("clip", [None, 0.2])
@pytest.mark.parametrize("game", [TABLE1, M2], ids=["table1", "matgame2"])
def test_tad_pg_on_the_mmdp_matches_the_dense_transform(game, clip):
    layered, layered_trace = softmax_pg(game, lr=1.0, steps=300, clip=clip, log_every=50)
    dense, dense_trace = softmax_pg(sequential_transform(game), lr=1.0, steps=300,
                                    clip=clip, log_every=50)
    assert layered.shape == dense.shape
    assert np.abs(layered - dense).max() <= 1e-12 * max(1.0, np.abs(dense).max())
    assert layered_trace.step == dense_trace.step
    assert layered_trace.greedy == dense_trace.greedy
    assert np.allclose(layered_trace.loss, dense_trace.loss, rtol=1e-12, atol=0.0)


ONE_AGENT_MODELS = {
    "discounted": random_mmdp(4, 1, 3, gamma=0.9, rng=45),
    "horizon3": random_mmdp(3, 1, 2, gamma=0.9, rng=52, horizon=3),
}


@pytest.mark.parametrize("name", sorted(ONE_AGENT_MODELS))
def test_tad_pg_on_a_one_agent_model_is_the_plain_policy_gradient(name):
    # a one-agent model is its own transform: unclipped TAD-PG retraces the
    # one-agent MA-PG descent and TAD-PPO the clipped loop on the model's own
    # slices, bit for bit
    model = ONE_AGENT_MODELS[name]
    logits, trace = softmax_pg(model, lr=0.5, steps=200, log_every=20)
    params, want = run_mapg(model, MapgParams.uniform(1, model.n_states, model.n_actions),
                            lr=0.5, steps=200, log_every=20)
    assert np.array_equal(logits, params.logits[0])
    assert_same_trace(trace, want)
    logits, trace = softmax_pg(model, lr=0.5, steps=200, clip=0.2, log_every=20)
    want_logits, rows = clipped_pg_oracle(model, lr=0.5, steps=200, clip=0.2, log_every=20)
    assert np.array_equal(logits, want_logits)
    assert list(zip(trace.step, trace.loss, trace.grad_norm)) == rows


#: sha256 of the distilled tables' bytes and of the repr of the trace rows
#: of two-agent TAD-PPO on table1 (lr 2.0, 800 steps), as the per-step
#: advantage loop computed them before the advantages were taken once per
#: outer step
TAD_PPO_TABLE1_SHA256 = {
    "greedy": ("4787a52766c2d47c0d1ba11d22ddb34a2beee258c82364eb9a6fbb8754c63d20",
               "b72c5ef948c9cae9749237a4bcdad1ae4dc59101da975f83809ee9b1da4ee59e"),
    "kl": ("eef119802ef0f1805487f36cc2898b07b37ff93d12314b41c491586bbf6f6ab9",
           "b5f5d74acb5913f556110d698cde076bbc109a0eb4e0dbb4ab13123304004ee0"),
}


@pytest.mark.parametrize("distill", sorted(TAD_PPO_TABLE1_SHA256))
def test_multi_agent_tad_ppo_bits_are_pinned(distill):
    policies, trace = tad_run(TABLE1, sarl="clipped_pg", distill=distill, lr=2.0, steps=800)
    rows = list(zip(trace.step, trace.loss, trace.grad_norm, trace.ret, trace.greedy))
    assert len(rows) == 18
    assert (hashlib.sha256(policies.tables.tobytes()).hexdigest(),
            hashlib.sha256(repr(rows).encode()).hexdigest()) == TAD_PPO_TABLE1_SHA256[distill]


@pytest.mark.parametrize("name", builtin_names())
def test_tad_pg_from_uniform_logits_reaches_the_oracle(name):
    # multitask_suite spreads its initial mass over ten tasks, so it needs the
    # larger step; at lr 20 two of the single tasks stay trapped
    game = builtin_game(name)
    lr = 20.0 if name == "multitask_suite" else 2.0
    logits, _ = softmax_pg(game, lr=lr, steps=800, log_every=800)
    dec = greedy_distill(lower_policy(softmax(logits), game.n_agents), game)
    assert evaluate_policy(game, dec) == brute_force_optimal(game)[0]


@pytest.mark.parametrize("clip", [None, 0.2])
def test_tad_pg_runs_a_float_step_count_as_its_integer(clip):
    logits, trace = softmax_pg(TABLE1, lr=1.0, steps=3.0, clip=clip)
    want, want_trace = softmax_pg(TABLE1, lr=1.0, steps=3, clip=clip)
    assert trace.step == [0, 3]
    assert np.array_equal(logits, want)
    assert_same_trace(trace, want_trace)


@pytest.mark.parametrize("clip", [None, 0.2])
def test_tad_pg_evaluates_the_policy_once_per_outer_step(clip, monkeypatch):
    calls = []

    def counted(model, pol):
        calls.append(model)
        return layered_policy_slices(model, pol)

    monkeypatch.setattr(learners, "layered_policy_slices", counted)
    _, trace = softmax_pg(TABLE1, lr=1.0, steps=7, clip=clip, log_every=3)
    assert trace.step == [0, 3, 6, 7]
    assert len(calls) == 8


def test_tad_ppo_descends_through_one_gd_run_call(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return gd_run(*args, **kwargs)

    monkeypatch.setattr(learners, "gd_run", counted)
    softmax_pg(TABLE1, lr=1.0, steps=7, clip=0.2, log_every=3)
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# train traces

def test_trace_csv_format(tmp_path):
    trace = TrainTrace()
    trace.append(0, 1.5, 0.25, 2.0, [4])
    trace.append(10, 1.0, 0.125, 2.5, [4])
    path = tmp_path / "trace.csv"
    trace.to_csv(path)
    lines = path.read_text().splitlines()
    assert lines[0] == "step,loss,grad_norm,return,greedy_policy"
    assert lines[1] == "0,1.5,0.25,2.0,4"


def test_trace_check_rejects_nan():
    trace = TrainTrace()
    trace.append(0, float("nan"), 1.0)
    with pytest.raises(ValueError):
        trace.check()


# ---------------------------------------------------------------------------
# the composition

def test_tad_vi_reaches_optimum_on_table1():
    policies, trace = tad_run(TABLE1, sarl="vi")
    assert evaluate_policy(TABLE1, policies) == pytest.approx(10.0, abs=1e-12)
    assert trace.ret[-1] == pytest.approx(10.0, abs=1e-12)


def test_tad_multitask_suite_per_episode_optimum():
    suite = builtin_game("multitask_suite")
    policies, _ = tad_run(suite, sarl="vi")
    assert evaluate_policy(suite, policies) == pytest.approx(10.0, abs=1e-12)
    # summed across the ten tasks this is the 100-point ceiling
    per_state = np.array(
        [policies.joint()[s] @ suite.reward[s] for s in range(10)]
    )
    assert per_state.sum() == pytest.approx(100.0, abs=1e-12)


def test_tad_q_learning_and_pg_variants():
    for kwargs in ({"sarl": "q_learning", "sweeps": 120},
                   {"sarl": "softmax_pg", "lr": 2.0, "steps": 600},
                   {"sarl": "clipped_pg", "lr": 1.0, "steps": 300}):
        policies, _ = tad_run(M2, **kwargs)
        assert evaluate_policy(M2, policies) == pytest.approx(10.0, abs=1e-9)


def test_tad_kl_distillation_path():
    policies, _ = tad_run(TABLE1, sarl="vi", distill="kl")
    greedy = DecentralizedPolicySet.deterministic(
        np.argmax(policies.tables, axis=2), 3
    )
    assert evaluate_policy(TABLE1, greedy) == pytest.approx(10.0, abs=1e-9)


def test_tad_learners_never_build_the_transform(monkeypatch):
    def refuse(model, *args, **kwargs):
        raise AssertionError("dense transform built")

    monkeypatch.setattr(transform, "sequential_transform", refuse)
    for model in (TABLE1, random_mmdp(4, 2, 3, gamma=0.9, rng=43),
                  random_mmdp(3, 3, 2, gamma=0.5, rng=44)):
        best, _ = brute_force_optimal(model)
        for kwargs in ({"sarl": "vi"}, {"sarl": "vi", "distill": "kl"},
                       {"sarl": "q_learning", "sweeps": 3000, "lr": 1.0},
                       {"sarl": "softmax_pg", "lr": 2.0, "steps": 800},
                       {"sarl": "clipped_pg", "lr": 1.0, "steps": 300}):
            policies, trace = tad_run(model, **kwargs)
            greedy = DecentralizedPolicySet.deterministic(
                policies.greedy_actions(), model.n_actions)
            assert evaluate_policy(model, greedy) == pytest.approx(best, abs=1e-9)
            assert trace.record == {}
    assert not hasattr(learners, "sequential_transform")


def test_tad_rejects_unknown_learner():
    with pytest.raises(ValueError):
        tad_run(TABLE1, sarl="sarsa")


def test_tad_refuses_unknown_options_for_every_learner():
    # each learner's own options only; the refusal is tad_run's one-line
    # ValueError, never a TypeError from the learner it would call
    for sarl, bad in (("vi", {"sweeps": 3}), ("q_learning", {"mode": "sampled"}),
                      ("softmax_pg", {"foo": 1}), ("clipped_pg", {"tol": 1e-6}),
                      ("softmax_pg", {"clip": 0.2}), ("clipped_pg", {"stop_tol": 1e-6})):
        with pytest.raises(ValueError, match=rf"^unknown {sarl} options: \[") as info:
            tad_run(TABLE1, sarl=sarl, **bad)
        assert "\n" not in str(info.value)


@pytest.mark.parametrize("sarl,solver", [
    ("vi", "layered_optimal_values"), ("q_learning", "layered_q_learning"),
    ("softmax_pg", "softmax_pg"), ("clipped_pg", "softmax_pg")])
def test_tad_refuses_an_unknown_distillation_before_it_solves(monkeypatch, sarl, solver):
    calls = []
    monkeypatch.setattr(learners, solver, lambda *args, **options: calls.append(options))
    with pytest.raises(ValueError, match="^unknown distillation 'bogus'$"):
        tad_run(TABLE1, sarl=sarl, distill="bogus")
    assert calls == []


def test_clipped_pg_defaults_to_the_ppo_clip():
    _, want = softmax_pg(M2, lr=1.0, steps=5, clip=learners.PPO_CLIP, log_every=1)
    _, unclipped = softmax_pg(M2, lr=1.0, steps=5, log_every=1)
    assert learners.PPO_CLIP == 0.2 and unclipped.loss != want.loss
    for clip in ({}, {"clip": None}):
        _, got = tad_run(M2, sarl="clipped_pg", lr=1.0, steps=5, log_every=1, **clip)
        assert got.loss[:-1] == want.loss and got.step[:-1] == want.step


@pytest.mark.parametrize("sarl,solver", [
    ("vi", "layered_optimal_values"), ("q_learning", "layered_q_learning"),
    ("softmax_pg", "softmax_pg"), ("clipped_pg", "softmax_pg")])
def test_tad_runs_each_learner_with_its_table_defaults(monkeypatch, sarl, solver):
    # the table is the one home of the defaults: tad_run passes every option
    # on, the given ones over SARL_OPTIONS, and None as absent
    calls = []

    def record(model, **options):
        calls.append(options)
        raise StopIteration

    monkeypatch.setattr(learners, solver, record)
    table = learners.SARL_OPTIONS[sarl]
    first = next(iter(table))
    for given in ({}, {first: None}, {first: 3}):
        with pytest.raises(StopIteration):
            tad_run(TABLE1, sarl=sarl, **given)
    assert calls == [table, table, {**table, first: 3}]


def test_run_vd_rejects_negative_steps():
    params = VdParams.zeros("vdn", M2.n_agents, M2.n_states, M2.n_actions)
    with pytest.raises(ValueError, match="steps"):
        run_vd(M2, params, steps=-3)


# ---------------------------------------------------------------------------
# the replica axis: a replica's numbers do not depend on the batch

REPLICA_MODELS = {
    "table1": TABLE1,
    "discounted": random_mmdp(3, 2, 2, gamma=0.9, rng=51),
    "horizon3": random_mmdp(3, 2, 2, gamma=0.9, rng=52, horizon=3),
}


def assert_same_trace(a, b):
    assert (a.step, a.loss, a.grad_norm, a.ret, a.greedy) == (
        b.step, b.loss, b.grad_norm, b.ret, b.greedy)


@pytest.mark.parametrize("name", sorted(REPLICA_MODELS))
def test_batched_run_mapg_rows_match_single_replicas(name):
    model = REPLICA_MODELS[name]
    logits = np.random.default_rng(53).standard_normal(
        (8, model.n_agents, model.n_states, model.n_actions))
    batch, traces = run_mapg(model, MapgParams(logits), lr=0.1, steps=300, log_every=50)
    assert traces.step[-1] == 300
    for k in range(8):
        one, trace = run_mapg(model, MapgParams(logits[k:k + 1]), lr=0.1,
                              steps=300, log_every=50)
        flat, flat_trace = run_mapg(model, MapgParams(logits[k]), lr=0.1,
                                    steps=300, log_every=50)
        assert np.array_equal(batch.logits[k], one.logits[0])
        assert np.array_equal(flat.logits, one.logits[0])
        assert_same_trace(traces[k], trace[0])
        assert_same_trace(flat_trace, trace[0])
        # each replica certifies its own last norm, as its single run does
        assert traces[k].record == trace[0].record == flat_trace.record != {}


@pytest.mark.parametrize("variant", learners.VD_VARIANTS)
def test_batched_gd_run_on_vd_rows_match_single_replicas(variant):
    model = REPLICA_MODELS["discounted"]
    template = VdParams.zeros(variant, model.n_agents, model.n_states, model.n_actions)

    def objective(x):
        loss, grad = vd_loss_and_grad(template.unpack_like(x), model)
        return loss, grad.pack()

    rng = np.random.default_rng(54)
    x0 = np.stack([VdParams.random(variant, model.n_agents, model.n_states,
                                   model.n_actions, rng).pack() for _ in range(8)])
    x, traces = gd_run(objective, x0, lr=0.05, steps=200, log_every=40)
    for k in range(8):
        one, trace = gd_run(objective, x0[k:k + 1], lr=0.05, steps=200, log_every=40)
        flat, flat_trace = gd_run(objective, x0[k], lr=0.05, steps=200, log_every=40)
        assert np.array_equal(x[k], one[0]) and np.array_equal(flat, one[0])
        assert_same_trace(traces[k], trace[0])
        assert_same_trace(flat_trace, trace[0])


def test_replica_axis_round_trips_through_pack():
    rng = np.random.default_rng(55)
    for variant in learners.VD_VARIANTS:
        points = [VdParams.random(variant, 2, 3, 2, rng) for _ in range(4)]
        stack = points[0].unpack_like(np.stack([p.pack() for p in points]))
        assert stack.n_agents == 2 and stack.q_local.shape == (4, 2, 3, 2)
        assert np.array_equal(stack.pack()[2], points[2].pack())
        assert np.array_equal(greedy_codes(stack.q_local)[1], greedy_codes(points[1].q_local))


def test_vd_views_of_flat_and_stacked_vectors_are_views():
    # vd_objective reads q_local and the mixer array of x through these
    # every step, so neither layout may copy
    for variant in learners.VD_VARIANTS:
        template = VdParams.zeros(variant, 2, 3, 2)
        point, mix = template.point_shapes()
        d = template.pack().size
        for vec in (np.empty(d), np.empty((4, d))):
            batch = vec.shape[:-1]
            views = learners._vd_views(vec, template.q_local.size, batch + point,
                                       mix and batch + mix)
            for view in views:
                assert view is None or np.shares_memory(view, vec)


@pytest.mark.parametrize("bad", [{"steps": -3}, {"lr": 0.0}, {"lr": -0.5}, *BAD_STEP_SETTINGS])
def test_clipped_softmax_pg_rejects_bad_steps_and_lr(bad):
    mdp = sequential_transform(TABLE1)
    with pytest.raises(ValueError, match=next(iter(bad))):
        softmax_pg(mdp, **{"lr": 1.0, "steps": 10, "clip": 0.2, **bad})
    if "steps" in bad:
        with pytest.raises(ValueError, match="steps"):
            tad_run(TABLE1, sarl="clipped_pg", steps=-3)


@pytest.mark.parametrize("variant", learners.VD_VARIANTS)
def test_batched_run_vd_rows_match_single_replicas(variant):
    model = REPLICA_MODELS["discounted"]
    rng = np.random.default_rng(56)
    points = [VdParams.random(variant, model.n_agents, model.n_states,
                              model.n_actions, rng) for _ in range(8)]
    stack = points[0].unpack_like(np.stack([p.pack() for p in points]))
    batch, traces = run_vd(model, stack, lr=0.05, steps=200, log_every=40)
    assert traces.step[-1] == 200
    for k, point in enumerate(points):
        one, trace = run_vd(model, point, lr=0.05, steps=200, log_every=40)
        assert np.array_equal(batch.pack()[k], one.pack())
        assert_same_trace(traces[k], trace)
        assert traces[k].record == trace.record != {}


@pytest.mark.parametrize("variant,steps",
                         [(v, 123) for v in learners.VD_VARIANTS]
                         + [("mapg", 123), ("mapg", 0), ("duplex", 0)],
                         ids=[*learners.VD_VARIANTS, "mapg", "mapg-steps0", "duplex-steps0"])
def test_run_vd_trace_norm_is_the_stationarity_norm(variant, steps):
    # the stationarity certificate in the trace's record is its last norm
    from tadlab import stationarity_certificate

    if variant == "mapg":
        p0 = MapgParams(np.random.default_rng(57).standard_normal((2, 1, 2)))
        p, trace = run_mapg(M2, p0, lr=0.05, steps=steps, log_every=50)
        objective = mapg_objective(p, M2)
    else:
        p0 = VdParams.random(variant, 2, 1, 2, rng=57)
        p, trace = run_vd(M2, p0, lr=0.05, steps=steps, log_every=50)
        objective = vd_objective(p, M2)
    ok, norm = stationarity_certificate(objective, p.pack(), 1e-6)
    assert trace.step[-1] == steps and trace.grad_norm[-1] == norm
    assert trace.record == {"stationarity": {"ok": ok, "grad_norm": trace.grad_norm[-1],
                                             "tol": 1e-6}}


# ---------------------------------------------------------------------------
# the agent-stacked kernels against the per-agent-loop oracles, bit for bit

KERNEL_MODELS = {
    "matgame2": M2,
    "table1": TABLE1,
    "discounted": random_mmdp(3, 2, 2, gamma=0.9, rng=58),
    "discounted_n3": random_mmdp(2, 3, 2, gamma=0.8, rng=59),
    "horizon3": random_mmdp(3, 2, 3, gamma=0.9, rng=60, horizon=3),
    "horizon2_n3": random_mmdp(2, 3, 2, gamma=0.9, rng=61, horizon=2),
    "layered_h2": layered_mmdp((1, 2), 2, 2, rng=0),
    "layered_h3": layered_mmdp((1, 2, 2), 2, 3, rng=66),
    "layered_h2_n3": layered_mmdp((2, 1), 3, 2, rng=67),
}
#: episodic models that are not layered: MA-PG runs on them, VD refuses them
NOT_LAYERED = ("horizon3", "horizon2_n3")


def _random_vd_params(variant, batch, model, rng):
    p = VdParams(variant, rng.standard_normal(
        batch + (model.n_agents, model.n_states, model.n_actions)))
    if p.mix is not None:
        p.mix[...] = rng.standard_normal(p.mix.shape)
    return p


def assert_kernels_match_oracles(model, rng, vd=True):
    n, s, a = model.n_agents, model.n_states, model.n_actions
    weighted = rng.random(model.reward.shape) + 0.1
    for batch in ((), (1,), (4,)):
        logits = MapgParams(2.0 * rng.standard_normal(batch + (n, s, a)))
        want_loss, want_grad = mapg_loss_oracle(logits.logits, model)
        loss, grad = mapg_loss_and_grad(logits, model)
        assert np.array_equal(loss, want_loss) and np.array_equal(grad, want_grad)
        loss, grad = mapg_objective(logits, model)(logits.pack())
        assert np.array_equal(loss, want_loss)
        assert np.array_equal(grad, want_grad.reshape(grad.shape))
        for variant in learners.VD_VARIANTS if vd else ():
            p = _random_vd_params(variant, batch, model, rng)
            for dist in (uniform_dist(model), weighted / weighted.sum()):
                want_loss, *want = vd_kernel_oracle(variant, p.q_local, p.w_raw,
                                                    p.lam_raw, model, dist)
                loss, grad = vd_loss_and_grad(p, model, dist=dist)
                assert np.array_equal(loss, want_loss)
                for got, ref in zip((grad.q_local, grad.w_raw, grad.lam_raw), want):
                    assert (got is None and ref is None) or np.array_equal(got, ref)
                loss, packed = vd_objective(p, model, dist)(p.pack())
                assert np.array_equal(loss, want_loss)
                assert np.array_equal(packed, VdParams(variant, *want).pack())


@pytest.mark.parametrize("name", sorted(KERNEL_MODELS))
def test_stacked_kernels_match_loop_oracles_bitwise(name):
    model = KERNEL_MODELS[name]
    assert_kernels_match_oracles(model, np.random.default_rng(62), vd=name not in NOT_LAYERED)
    if name in NOT_LAYERED:
        template = VdParams.zeros("vdn", model.n_agents, model.n_states, model.n_actions)
        with pytest.raises(ValueError, match="not layered"):
            vd_objective(template, model)


def test_the_optimum_of_a_layered_episodic_model_is_a_td_fixed_point():
    # a duplex point that reproduces Q*: its final-step states must not
    # bootstrap past the episode, or their TD target misses Q* by gamma * V*
    model = KERNEL_MODELS["layered_h2"]
    q_star, _ = optimal_values(model)
    loss, _ = vd_loss_and_grad(duplex_decompose(q_star, np.argmax(q_star, axis=1), 2), model)
    assert loss <= 1e-20


def test_stacked_kernels_match_loop_oracles_on_partly_reached_models(partly_reached_models):
    for model in partly_reached_models:
        assert_kernels_match_oracles(model, np.random.default_rng(63))


def test_policy_gradient_kernel_keeps_the_oracles_signed_zeros(partly_reached_models):
    # unreached states have d_t = 0, so negative action values make -0.0 terms
    rng = np.random.default_rng(65)
    for model in partly_reached_models:
        model = dataclasses.replace(model, reward=model.reward - 10.0)
        for batch in ((), (4,)):
            tables = softmax(rng.standard_normal(
                batch + (model.n_agents, model.n_states, model.n_actions)))
            _, want = mapg_kernel_oracle(model, tables)
            _, got = learners.product_policy_value_and_grad(model, tables)
            assert (got == 0).any()
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))


_ONE_STEP = random_mmdp(3, 2, 2, gamma=0.9, rng=41, horizon=1)
ONE_STEP_GAMES = {
    "table1": TABLE1,
    "matgame2": M2,
    # initial_dist 0.1 on each of 10 states: the d_0 weighting is not 1.0
    "multitask_suite": builtin_game("multitask_suite"),
    # three agents: each agent's others are a product of two tables
    "random_k3_n3": random_matrix_game(3, 3, 68),
    # d_0 = 0 at two states and negative rewards: -0.0 gradient terms
    "unreached": dataclasses.replace(_ONE_STEP, reward=_ONE_STEP.reward - 10.0,
                                     initial_dist=np.array([1.0, 0.0, 0.0])),
    # -0.0 rewards, which `policy_slices` turns into +0.0 with its `+ 0.0`:
    # agent 0's first action has a zero gradient
    "signed_zero_rewards": matrix_game(np.array([[-0.0, -0.0], [10.0, 9.0]])),
}


@pytest.mark.parametrize("name", sorted(ONE_STEP_GAMES))
def test_one_step_objective_matches_the_kernel_through_policy_slices_bitwise(name):
    # the kernel reads a one-step model's only slice off the model; the loop
    # oracle evaluates through `core.policy_slices`
    model = ONE_STEP_GAMES[name]
    shape = (model.n_agents, model.n_states, model.n_actions)
    rng = np.random.default_rng(69)
    for batch in ((), (3,)):
        for logits in (np.zeros(batch + shape), 2.0 * rng.standard_normal(batch + shape)):
            tables = softmax(logits)
            want_value, want_grad = mapg_kernel_oracle(model, tables)
            value, pol_grad = learners.product_policy_value_and_grad(model, tables)
            assert type(value) is type(want_value) is (np.ndarray if batch else float)
            assert np.asarray(value).tobytes() == np.asarray(want_value).tobytes()
            assert pol_grad.tobytes() == want_grad.tobytes()
            params = MapgParams(logits)
            loss, grad = mapg_objective(params, model)(params.pack())
            assert np.asarray(loss).tobytes() == np.asarray(-want_value).tobytes()
            want = -learners._softmax_chain(tables, want_grad).reshape(grad.shape)
            assert grad.tobytes() == want.tobytes()


def test_one_step_mapg_objective_does_not_call_policy_slices(monkeypatch):
    def refused(model, pol):
        raise RuntimeError("policy_slices called")

    monkeypatch.setattr(learners, "policy_slices", refused)
    params = MapgParams.uniform(2, 1, 3)
    loss, _ = mapg_objective(params, TABLE1)(params.pack())
    assert loss == pytest.approx(-evaluate_policy(TABLE1, params.policies()))
    run_mapg(TABLE1, params, lr=0.1, steps=5, log_every=5)
    # every other horizon still evaluates through `policy_slices`
    model = random_mmdp(3, 2, 2, gamma=0.9, rng=60, horizon=3)
    params = MapgParams.uniform(2, 3, 2)
    with pytest.raises(RuntimeError, match="policy_slices called"):
        mapg_objective(params, model)(params.pack())


@pytest.mark.parametrize("name", ["table1", "discounted_n3", "horizon2_n3", "layered_h2_n3"])
def test_descents_retrace_the_loop_oracles(name):
    model = KERNEL_MODELS[name]
    rng = np.random.default_rng(64)
    shape = (3, model.n_agents, model.n_states, model.n_actions)
    p0 = MapgParams(rng.standard_normal(shape))
    x, t1 = gd_run(mapg_oracle_objective(p0, model), p0.pack(), lr=0.1, steps=40,
                   log_every=10)
    p, t2 = run_mapg(model, p0, lr=0.1, steps=40, log_every=10)
    assert np.array_equal(x, p.pack())
    assert [t.loss for t in t1] == [t.loss for t in t2]
    for variant in learners.VD_VARIANTS if name not in NOT_LAYERED else ():
        p0 = _random_vd_params(variant, (3,), model, rng)
        x, t1 = gd_run(vd_oracle_objective(p0, model), p0.pack(), lr=0.02, steps=40,
                       log_every=10)
        p, t2 = run_vd(model, p0, lr=0.02, steps=40, log_every=10)
        assert np.array_equal(x, p.pack())
        assert [t.loss for t in t1] == [t.loss for t in t2]


@pytest.mark.parametrize("variant", learners.VD_VARIANTS)
def test_joint_table_has_the_replica_axis(variant):
    model = KERNEL_MODELS["discounted_n3"]
    stack = _random_vd_params(variant, (4,), model, np.random.default_rng(65))
    table = stack.joint_table()
    assert table.shape == (4, model.n_states, model.n_joint_actions)
    for k in range(4):
        point = stack.unpack_like(stack.pack()[k])
        assert np.array_equal(table[k], point.joint_table())


# ---------------------------------------------------------------------------
# the objective's per-shape layout: one objective, many stack shapes

def same_bits(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and got.tobytes() == want.tobytes()


def _edge_case_points(variant, model, rng):
    """Five points of `model`'s VD shape whose local tables have, in turn,
    tied maxima, a +0.0/-0.0 tie at the maximum in each order, a NaN entry,
    and no special entry (twice)."""
    points = _random_vd_params(variant, (5,), model, rng)
    q = points.q_local
    q[0, :, :, :2] = 0.75
    q[1, :, :, :] = -1.0
    q[1, 0, :, :2] = (0.0, -0.0)
    q[1, 1, :, :2] = (-0.0, 0.0)
    q[2, 1, 0, -1] = np.nan
    return points.pack()


@pytest.mark.parametrize("variant", learners.VD_VARIANTS)
@pytest.mark.parametrize("name", ["matgame2", "discounted", "layered_h3"])
def test_one_objective_keeps_each_stack_shapes_layout(name, variant):
    # a point, then stacks of one, two and five replicas, then two again; a
    # layout cached by size alone would hand the [1, d] stack the point's
    # shapes. The duplex maximum must be the reduction's, which keeps the
    # later of a +0.0/-0.0 tie, not the value at the first argmax.
    model = KERNEL_MODELS[name]
    stack = _edge_case_points(variant, model, np.random.default_rng(66))
    template = _random_vd_params(variant, (), model, np.random.default_rng(67))
    f = vd_objective(template, model)
    oracle = vd_oracle_objective(template, model)
    for x in (stack[1], stack[2:3], stack[:2], stack, stack[:2]):
        x = x.copy()
        got = f(x)
        for want in (vd_objective(template, model)(x), oracle(x)):
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
    assert np.isnan(f(stack)[0][2])


STALE_VIEW_MODELS = {
    "table1": TABLE1,
    "multitask_suite": builtin_game("multitask_suite"),
    "layered_h3": KERNEL_MODELS["layered_h3"],
}


@pytest.mark.parametrize("batch", [(), (3,)])
@pytest.mark.parametrize("name", sorted(STALE_VIEW_MODELS))
def test_objectives_rebuild_their_views_for_another_array_or_shape(name, batch):
    # each objective reuses the views it built of x while it is called on
    # that array in that shape; every call must give the bits of a fresh
    # objective on a copy: after x is stepped in place, after a call on
    # another array, and after x is reshaped in place
    model = STALE_VIEW_MODELS[name]
    rng = np.random.default_rng(71)
    shape = batch + (model.n_agents, model.n_states, model.n_actions)
    logits = MapgParams(rng.standard_normal(shape))
    objectives = [(lambda: mapg_objective(logits, model), logits.pack())]
    for variant in learners.VD_VARIANTS:
        p = _random_vd_params(variant, batch, model, rng)
        objectives.append((lambda p=p: vd_objective(p, model), p.pack()))
    for make, x in objectives:
        f = make()

        def check(arg):
            got, want = f(arg), make()(arg.copy())
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])

        check(x)
        x -= 0.1 * f(x)[1]
        check(x)
        check(x + 1.0)
        check(x)
        if not batch:
            # the same array read as a one-replica stack; a [3, d] stack
            # has no other shape an objective takes
            x.shape = (1, x.size)
            check(x)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_duplex_decompose_matches_its_loop_oracle_bit_for_bit(n):
    rng = np.random.default_rng(40 + n)
    for trial in range(30):
        a, s = int(rng.integers(2, 4)), int(rng.integers(1, 4))
        target = rng.uniform(-5, 5, size=(s, a**n))
        if trial % 3 == 0:
            target = np.round(target)  # cells tied with the max take LAM_FLOOR
        # any maximizing code of each state, tied ones included
        codes = np.array([rng.choice(np.flatnonzero(row == row.max())) for row in target])
        want = duplex_decompose_oracle(target, codes, n)
        # a one-state table also takes its code as a plain int
        for given in ([codes, int(codes[0])] if s == 1 else [codes]):
            got = duplex_decompose(target, given, n)
            assert got.q_local.tobytes() == want.q_local.tobytes()
            assert got.lam_raw.tobytes() == want.lam_raw.tobytes()


@pytest.mark.parametrize("code", [-1, 4])
def test_duplex_decompose_refuses_codes_out_of_range(code):
    with pytest.raises(ValueError, match="joint codes must lie in"):
        duplex_decompose(np.zeros((1, 4)), code, 2)


@pytest.mark.parametrize("joint_action", [(1,), (1, 1, 1)])
def test_concentrated_needs_one_action_per_agent(joint_action):
    with pytest.raises(ValueError):
        MapgParams.concentrated(2, 1, 3, joint_action, 5.0)
