import numpy as np
import pytest

from tadlab import (
    DecentralizedPolicySet,
    DeterministicJointPolicy,
    Mmdp,
    SizeGuardError,
    bellman_backup,
    brute_force_optimal,
    evaluate_policy,
    joint_code,
    joint_digits,
    matrix_game,
    mmdp_from_dict,
    mmdp_to_dict,
    pure_nash_enumerate,
    validate,
)
from tadlab.constructions import builtin_game, random_matrix_game, random_mmdp
from tadlab.core import digit_table


def test_joint_codec_round_trip():
    for n, a in [(1, 4), (2, 3), (3, 2), (4, 3)]:
        for code in range(a**n):
            digits = joint_digits(code, n, a)
            assert len(digits) == n
            assert joint_code(digits, a) == code
    table = digit_table(3, 2)
    assert joint_code(table[5], 2) == 5


def test_agent_zero_is_most_significant():
    assert joint_code((1, 0, 0), 2) == 4
    assert joint_digits(7, 2, 3) == (2, 1)


def test_validate_table1_ok():
    assert validate(builtin_game("table1")) == []


def test_validate_flags_bad_row_sum():
    g = builtin_game("table1")
    trans = g.transition.copy()
    trans[0, 2, 0] = 0.98
    bad = Mmdp(1, 2, 3, trans, g.reward, g.gamma, g.initial_dist, horizon=1)
    issues = validate(bad)
    assert any("(0, 2)" in line and "0.98" in line for line in issues)


def test_validate_flags_negative_probability():
    g = builtin_game("table1")
    trans = g.transition.copy()
    trans[0, 1, 0] = -0.5
    bad = Mmdp(1, 2, 3, trans, g.reward, g.gamma, g.initial_dist, horizon=1)
    issues = validate(bad)
    assert any("negative" in line for line in issues)


def test_validate_rejects_gamma_one():
    g = builtin_game("table1")
    bad = Mmdp(1, 2, 3, g.transition, g.reward, 1.0, g.initial_dist, horizon=1)
    assert any("gamma" in line for line in validate(bad))


def test_models_are_immutable():
    g = builtin_game("table1")
    with pytest.raises(ValueError):
        g.reward[0, 0] = 99.0


def test_evaluate_deterministic_optimum():
    g = builtin_game("table1")
    assert evaluate_policy(g, DeterministicJointPolicy([0])) == 10.0


def test_evaluate_uniform_is_mean_payoff():
    g = builtin_game("table1")
    uniform = DecentralizedPolicySet.uniform(2, 1, 3)
    assert evaluate_policy(g, uniform) == pytest.approx(-164 / 9, abs=1e-12)


def test_one_step_value_is_expected_payoff():
    # closed form: J = sum_a pi(a) r(a) for any one-step game and product policy
    rng = np.random.default_rng(0)
    for _ in range(10):
        game = random_matrix_game(3, 2, rng)
        tables = rng.random((2, 1, 3)) + 0.05
        tables /= tables.sum(axis=2, keepdims=True)
        pol = DecentralizedPolicySet(tables)
        expected = float(pol.joint()[0] @ game.reward[0])
        assert evaluate_policy(game, pol) == pytest.approx(expected, abs=1e-12)


def test_evaluate_matches_horizon_unrolling():
    rng = np.random.default_rng(3)
    model = random_mmdp(3, 2, 2, gamma=0.8, rng=rng, horizon=4)
    pol = rng.random((3, 4)) + 0.1
    pol /= pol.sum(axis=1, keepdims=True)
    # independent oracle: brute expectation over all length-4 state/action paths
    total = 0.0
    for s0 in range(3):
        stack = [(s0, model.initial_dist[s0], 0)]
        while stack:
            s, prob, t = stack.pop()
            if t == 4 or prob == 0.0:
                continue
            for a in range(4):
                pa = prob * pol[s, a]
                if pa == 0.0:
                    continue
                total += model.gamma**t * pa * model.reward[s, a]
                for s2 in range(3):
                    stack.append((s2, pa * model.transition[s, a, s2], t + 1))
    assert evaluate_policy(model, pol) == pytest.approx(total, abs=1e-10)


def test_bellman_backup_one_step_is_reward():
    g = builtin_game("table1")
    q = np.random.default_rng(1).standard_normal((1, 9))
    assert np.array_equal(bellman_backup(q, g), g.reward)


def test_bellman_backup_zero_reward_propagates_max():
    model = random_mmdp(2, 1, 2, gamma=0.5, rng=7)
    zero = Mmdp(2, 1, 2, model.transition, np.zeros((2, 2)), 0.5,
                model.initial_dist)
    q = np.array([[1.0, 3.0], [2.0, 0.0]])
    out = bellman_backup(q, zero)
    expected = 0.5 * zero.transition @ q.max(axis=1)
    assert np.allclose(out, expected, atol=1e-15)


def test_bellman_backup_matches_loop_oracle():
    model = random_mmdp(3, 2, 2, gamma=0.9, rng=11)
    q = np.random.default_rng(2).standard_normal((3, 4))
    out = bellman_backup(q, model)
    for s in range(3):
        for a in range(4):
            acc = model.reward[s, a]
            for s2 in range(3):
                acc += model.gamma * model.transition[s, a, s2] * q[s2].max()
            assert out[s, a] == pytest.approx(acc, abs=1e-12)


def test_bellman_backup_is_contraction():
    model = random_mmdp(4, 2, 3, gamma=0.9, rng=13)
    rng = np.random.default_rng(5)
    for _ in range(20):
        q1 = rng.standard_normal((4, 9)) * 10
        q2 = rng.standard_normal((4, 9)) * 10
        lhs = np.abs(bellman_backup(q1, model) - bellman_backup(q2, model)).max()
        rhs = model.gamma * np.abs(q1 - q2).max()
        assert lhs <= rhs + 1e-12


def test_brute_force_table1():
    best, mu = brute_force_optimal(builtin_game("table1"))
    assert best == pytest.approx(10.0, abs=1e-10)
    assert joint_digits(mu.actions[0], 2, 3) == (0, 0)


def test_brute_force_matgame2():
    best, mu = brute_force_optimal(builtin_game("matgame2"))
    assert best == pytest.approx(10.0, abs=1e-10)
    assert joint_digits(mu.actions[0], 2, 2) in {(0, 1), (1, 0)}


def test_brute_force_matches_policy_enumeration():
    model = random_mmdp(4, 2, 3, gamma=0.9, rng=17)
    best, mu = brute_force_optimal(model)
    # oracle: enumerate every deterministic joint policy (9^4 of them)
    top = -np.inf
    for code in range(9**4):
        actions = [(code // 9**s) % 9 for s in range(4)]
        top = max(top, evaluate_policy(model, DeterministicJointPolicy(actions)))
    assert best == pytest.approx(top, abs=1e-10)
    assert evaluate_policy(model, mu) == pytest.approx(top, abs=1e-10)


def test_brute_force_size_guard():
    model = random_mmdp(2, 2, 3, gamma=0.9, rng=19)
    with pytest.raises(SizeGuardError):
        brute_force_optimal(model, size_guard=10)


def test_pure_nash_table1():
    assert pure_nash_enumerate(builtin_game("table1")) == {(0, 0), (1, 1), (2, 2)}


def test_pure_nash_multitask_1():
    nash = pure_nash_enumerate(builtin_game("multitask_1"))
    assert nash == {(i, i) for i in range(5)}


def test_pure_nash_constant_matrix():
    game = matrix_game(np.zeros((3, 3)))
    assert len(pure_nash_enumerate(game)) == 9


def test_pure_nash_matches_row_col_max_oracle():
    # independent 2-agent formulation: a cell is stable iff it is maximal in
    # both its own row and its own column
    rng = np.random.default_rng(23)
    for _ in range(25):
        payoff = rng.uniform(-20, 10, size=(4, 4))
        game = matrix_game(payoff)
        expected = {
            (i, j)
            for i in range(4)
            for j in range(4)
            if payoff[i, j] >= payoff[i, :].max() and payoff[i, j] >= payoff[:, j].max()
        }
        assert pure_nash_enumerate(game) == expected


def test_pure_nash_rejects_multi_step():
    model = random_mmdp(2, 2, 2, gamma=0.9, rng=29)
    with pytest.raises(ValueError):
        pure_nash_enumerate(model)


def test_occupancy_one_step_is_initial_dist():
    from tadlab import occupancy

    suite = builtin_game("multitask_suite")
    d = occupancy(suite, DecentralizedPolicySet.uniform(2, 10, 5))
    assert np.allclose(d, suite.initial_dist, atol=1e-15)


def test_occupancy_mass_is_discounted_horizon():
    from tadlab import occupancy

    model = random_mmdp(3, 2, 2, gamma=0.9, rng=31)
    pol = DecentralizedPolicySet.uniform(2, 3, 2)
    d = occupancy(model, pol)
    assert d.sum() == pytest.approx(1.0 / (1.0 - 0.9), abs=1e-9)
    assert np.all(d >= 0)


def test_env_dict_round_trip():
    g = builtin_game("multitask_suite")
    again = mmdp_from_dict(mmdp_to_dict(g))
    assert np.array_equal(again.reward, g.reward)
    assert np.array_equal(again.transition, g.transition)
    assert again.gamma == g.gamma and again.horizon == g.horizon


def test_env_matrix_shorthand():
    model = mmdp_from_dict({"matrix": [[1, 2], [3, 4]]})
    assert model.n_agents == 2 and model.n_actions == 2 and model.horizon == 1
    assert evaluate_policy(model, DeterministicJointPolicy([3])) == 4.0


def test_env_missing_fields_rejected():
    with pytest.raises(ValueError, match="missing"):
        mmdp_from_dict({"n_states": 1})


def test_env_accepts_nested_per_agent_tensors():
    g = builtin_game("matgame2")
    data = mmdp_to_dict(g)
    data["reward"] = np.asarray(data["reward"]).reshape(1, 2, 2).tolist()
    data["transition"] = np.asarray(data["transition"]).reshape(1, 2, 2, 1).tolist()
    model = mmdp_from_dict(data)
    assert np.array_equal(model.reward, g.reward)
    assert np.array_equal(model.transition, g.transition)


def test_evaluate_rejects_malformed_policy_rows():
    g = builtin_game("table1")
    bad = np.full((1, 9), 0.2)  # rows do not sum to 1
    with pytest.raises(ValueError, match="probability"):
        evaluate_policy(g, bad)
    with pytest.raises(ValueError, match="shape"):
        evaluate_policy(g, np.ones((1, 4)) / 4)


def test_mdp_is_a_one_agent_mmdp():
    from tadlab import Mdp, sequential_transform

    mdp = Mdp(2, 3, np.full((2, 3, 2), 0.5), np.arange(6.0).reshape(2, 3), 0.9, [1.0, 0.0])
    assert isinstance(mdp, Mmdp)
    assert (mdp.n_agents, mdp.n_actions, mdp.n_joint_actions) == (1, 3, 3)
    transformed = sequential_transform(builtin_game("table1"))
    assert isinstance(transformed, Mmdp) and transformed.n_agents == 1
    rng = np.random.default_rng(3)
    raw = rng.dirichlet(np.ones(transformed.n_actions), size=transformed.n_states)
    one_agent = DecentralizedPolicySet(raw[None])
    assert evaluate_policy(transformed, one_agent) == evaluate_policy(transformed, raw)


def test_greedy_codes_match_joint_code_of_lowest_argmax():
    from tadlab import greedy_codes

    rng = np.random.default_rng(17)
    ties = 0
    for n, s, a in [(1, 4, 3), (2, 5, 3), (3, 6, 2), (4, 3, 3)]:
        tables = rng.integers(0, 3, size=(n, s, a)).astype(float)
        codes = greedy_codes(tables)
        assert codes.shape == (s,)
        for state in range(s):
            tops = [np.flatnonzero(row == row.max()) for row in tables[:, state]]
            ties += sum(top.size > 1 for top in tops)
            assert codes[state] == joint_code([top[0] for top in tops], a)
    assert ties > 0


@pytest.mark.parametrize("horizon", [None, 3, 1])
def test_policy_slices_sum_to_return_and_occupancy(horizon):
    from tadlab import occupancy, policy_slices

    rng = np.random.default_rng(23)
    model = random_mmdp(4, 2, 3, gamma=0.9, rng=37, horizon=horizon)
    pol = DecentralizedPolicySet(rng.dirichlet(np.ones(3), size=(2, 4))).joint()
    value, slices = policy_slices(model, pol)
    assert len(slices) == (1 if horizon is None else horizon)
    r_pi = np.sum(pol * model.reward, axis=1)
    assert sum(d_t @ r_pi for d_t, _ in slices) == pytest.approx(value, rel=1e-12)
    np.testing.assert_allclose(sum(d_t for d_t, _ in slices), occupancy(model, pol),
                               rtol=1e-12)
    steps = 1 / (1 - 0.9) if horizon is None else (1 - 0.9**horizon) / (1 - 0.9)
    assert occupancy(model, pol).sum() == pytest.approx(steps, rel=1e-12)
    assert value == pytest.approx(evaluate_policy(model, pol), rel=1e-12)
