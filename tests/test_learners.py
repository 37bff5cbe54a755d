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
    greedy_distill,
    igm_check,
    joint_digits,
    layered_q_learning,
    lower_policy,
    mapg_loss_and_grad,
    q_learning,
    sequential_transform,
    softmax_pg,
    tad_run,
    value_iteration,
    vd_forward,
    vd_loss_and_grad,
)
import tadlab.learners as learners
from tadlab.constructions import (
    MATGAME2,
    builtin_game,
    diag_game,
    random_matrix_game,
    random_mmdp,
    undercut_diag_payoff,
)
from tadlab.core import Mdp, bellman_backup, episode_positions
from tadlab.learners import (
    TrainTrace,
    igm_consistent,
    run_mapg,
    run_vd,
    softmax,
    uniform_dist,
)

TABLE1 = builtin_game("table1")
M2 = builtin_game("matgame2")


def mapg_objective(params, model):
    def f(x):
        loss, grad = mapg_loss_and_grad(params.unpack_like(x), model)
        return loss, grad.ravel()

    return f


def vd_objective(params, model, dist=None):
    def f(x):
        loss, grad = vd_loss_and_grad(params.unpack_like(x), model, dist=dist)
        return loss, grad.pack()

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
    game = diag_game(4)
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
    assert vd_forward(p, 0, (1, 1)) == 6.0
    assert vd_forward(p, 0, (0, 1)) == 5.0


def test_vd_forward_duplex_unit_weights_reduce_to_sum():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((2, 1, 3))
    p = VdParams("duplex", q)  # lam_raw defaults to zeros -> weights all 1
    for code in range(9):
        a = joint_digits(code, 2, 3)
        expected = q[0, 0, a[0]] + q[1, 0, a[1]]
        assert vd_forward(p, 0, code) == pytest.approx(expected, abs=1e-12)


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
    # the in-place kernel loop must retrace gd_run on the packed vector
    for variant in ("vdn", "monotonic", "duplex"):
        p0 = VdParams.random(variant, 2, 1, 2, rng=5)

        def objective(x, p0=p0):
            loss, grad = vd_loss_and_grad(p0.unpack_like(x), M2)
            return loss, grad.pack()

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
    dist = uniform_dist(M2)
    dist = dist.copy()
    dist[0, 1] = 0.0
    dist[0, 0] += 1 / 4
    with pytest.raises(ValueError, match="support"):
        vd_loss_and_grad(p, M2, dist=dist)


def test_vdn_converges_to_additive_least_squares_fit():
    # closed form: row mean + column mean - grand mean
    fit = np.array([[-12.25, 2.25], [2.25, 16.75]])
    rng = np.random.default_rng(4)
    p0 = VdParams("vdn", rng.standard_normal((2, 1, 2)))
    p, _ = run_vd(M2, p0, lr=0.5, steps=3000, log_every=3000)
    assert np.abs(p.joint_table().reshape(2, 2) - fit).max() < 1e-8
    assert joint_digits(p.greedy_joint()[0], 2, 2) == (1, 1)


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
    p = duplex_decompose(f.reshape(1, 4), (1, 1))
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
        duplex_decompose(np.array(MATGAME2).reshape(1, 4), (0, 0))


def test_duplex_decompose_constant_target_all_floor():
    p = duplex_decompose(np.zeros((1, 4)), (1, 0))
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
        a_star = (l, l)
        f = restricted_minimizer(tensor, None, a_star)
        p = duplex_decompose(f.reshape(1, -1), a_star)
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


def test_gd_run_early_stop():
    def bowl(x):
        return 0.5 * float(x @ x), x

    _, trace = gd_run(bowl, np.full(2, 1.0), lr=0.5, steps=10**6, stop_tol=1e-6)
    assert trace.step[-1] < 100


def test_gd_run_nan_aborts():
    def bad(x):
        return float("nan"), x

    with pytest.raises(GdDivergenceError):
        gd_run(bad, np.ones(2), lr=0.1, steps=10)


def test_gd_run_rejects_bad_lr():
    with pytest.raises(ValueError):
        gd_run(lambda x: (0.0, x), np.ones(1), lr=0.0, steps=1)


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
        assert joint_digits(p.greedy_joint()[0], 2, 3) == target
        greedy = DecentralizedPolicySet.deterministic(
            np.argmax(p.logits, axis=2), 3
        )
        assert evaluate_policy(TABLE1, greedy) == pytest.approx(value, abs=1e-9)
        # stochastic return approaches the trapped value from below
        assert trace.ret[-1] == pytest.approx(value, abs=0.05)


def test_mapg_uniform_run_reaches_global_optimum():
    p, _ = run_mapg(TABLE1, MapgParams.uniform(2, 1, 3), lr=0.05, steps=4000,
                    log_every=1000)
    assert joint_digits(p.greedy_joint()[0], 2, 3) == (0, 0)


# ---------------------------------------------------------------------------
# single-agent solvers

def test_value_iteration_two_layer_root_value():
    mdp = sequential_transform(TABLE1)
    vt, greedy = value_iteration(mdp)
    assert vt.v[0] == pytest.approx(0.99**0.5 * 10.0, abs=1e-12)
    assert greedy[0] == 0 and greedy[1] == 0


def test_value_iteration_geometric_series():
    mdp = Mdp(1, 1, np.ones((1, 1, 1)), np.ones((1, 1)), 0.5, [1.0])
    vt, _ = value_iteration(mdp)
    assert vt.v[0] == pytest.approx(2.0, abs=1e-9)


def test_value_iteration_matches_joint_oracle_after_inverse():
    from tadlab.transform import inverse_transform

    model = random_mmdp(3, 2, 2, gamma=0.9, rng=8)
    mdp = sequential_transform(model)
    vt, _ = value_iteration(mdp, tol=1e-12)
    best, _ = brute_force_optimal(inverse_transform(mdp, 2))
    j_gamma = float(mdp.initial_dist @ vt.v)
    assert j_gamma == pytest.approx(model.gamma ** (1 / 2) * best, abs=1e-8)


def test_q_learning_synchronous_solves_transformed_game():
    mdp = sequential_transform(M2)
    vt = q_learning(mdp, sweeps=100, mode="synchronous", lr=1.0)
    pol = np.zeros(mdp.reward.shape)
    pol[np.arange(mdp.n_states), np.argmax(vt.q, axis=1)] = 1.0
    dec = greedy_distill(lower_policy(pol, 2), M2)
    assert evaluate_policy(M2, dec) == pytest.approx(10.0, abs=1e-12)


def test_q_learning_one_step_bandit():
    mdp = Mdp(1, 3, np.ones((1, 3, 1)), np.array([[1.0, 2.0, 3.0]]), 0.9,
              [1.0], horizon=1)
    vt = q_learning(mdp, sweeps=60, mode="synchronous", lr=0.5)
    assert np.allclose(vt.q, [[1.0, 2.0, 3.0]], atol=1e-9)


def test_q_learning_sampled_approaches_fixed_point():
    model = random_mmdp(2, 2, 2, gamma=0.25, rng=9)
    mdp = sequential_transform(model)
    vt_star, _ = value_iteration(mdp, tol=1e-12)
    vt = q_learning(mdp, mode="sampled", steps=250_000, lr_halflife=5.0, rng=10)
    assert np.abs(vt.q - vt_star.q).max() < 1e-3


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
    got = q_learning(mdp, sweeps=50, lr=0.5).q
    assert np.array_equal(got, want)
    assert len(calls) == (mdp.horizon is not None)


@pytest.mark.parametrize("game", [TABLE1, M2, random_matrix_game(2, 4, 0)],
                         ids=["table1", "matgame2", "random_k2_n4"])
def test_layered_q_learning_bitwise_on_one_step_games(game):
    dense = q_learning(sequential_transform(game), sweeps=200, lr=0.5)
    layered = layered_q_learning(game, sweeps=200, lr=0.5)
    assert np.array_equal(layered.q, dense.q)


def test_layered_q_learning_matches_dense_discounted():
    model = random_mmdp(5, 2, 3, gamma=0.9, rng=42)
    dense = q_learning(sequential_transform(model), sweeps=300, lr=0.7)
    layered = layered_q_learning(model, sweeps=300, lr=0.7)
    assert np.abs(layered.q - dense.q).max() < 1e-10


def test_layered_q_learning_matches_dense_with_unreached_states(partly_reached_models):
    for model in partly_reached_models:
        dense = q_learning(sequential_transform(model), sweeps=200, lr=0.5).q
        layered = layered_q_learning(model, sweeps=200, lr=0.5).q
        assert np.abs(layered - dense).max() < 1e-12
        assert np.array_equal(np.argmax(layered, axis=1), np.argmax(dense, axis=1))


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


def test_tad_vi_and_synchronous_q_never_build_the_transform(monkeypatch):
    def refuse(model, *args, **kwargs):
        raise AssertionError("dense transform built")

    monkeypatch.setattr(learners, "sequential_transform", refuse)
    for model in (TABLE1, random_mmdp(4, 2, 3, gamma=0.9, rng=43),
                  random_mmdp(3, 3, 2, gamma=0.5, rng=44)):
        best, _ = brute_force_optimal(model)
        for kwargs in ({"sarl": "vi"}, {"sarl": "vi", "distill": "kl"},
                       {"sarl": "q_learning", "sweeps": 3000, "lr": 1.0}):
            policies, _ = tad_run(model, **kwargs)
            greedy = DecentralizedPolicySet.deterministic(
                policies.greedy_actions(), model.n_actions)
            assert evaluate_policy(model, greedy) == pytest.approx(best, abs=1e-9)
    with pytest.raises(AssertionError, match="dense transform"):
        tad_run(TABLE1, sarl="q_learning", mode="sampled", steps=10)


def test_tad_rejects_unknown_learner():
    with pytest.raises(ValueError):
        tad_run(TABLE1, sarl="sarsa")


def test_run_vd_rejects_negative_steps():
    params = VdParams.zeros("vdn", M2.n_agents, M2.n_states, M2.n_actions)
    with pytest.raises(ValueError, match="steps"):
        run_vd(M2, params, steps=-3)
