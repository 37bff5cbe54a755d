import dataclasses
import itertools
from pathlib import Path

import numpy as np
import pytest

from tadlab import (
    CoordinationPolicy,
    DecentralizedPolicySet,
    Mmdp,
    SizeGuardError,
    bellman_backup,
    brute_force_optimal,
    evaluate_policy,
    greedy_codes,
    joint_code,
    joint_digits,
    matrix_game,
    mmdp_from_dict,
    mmdp_to_dict,
    validate,
)
from tadlab.constructions import builtin_game, random_matrix_game, random_mmdp
import tadlab
from tadlab.core import (Mdp, _solve_values, digit_table, joint_policy_matrix, one_hot,
                         optimal_values, policy_slices)

from oracles import (
    coordination_joint_oracle,
    deterministic_tables_oracle,
    digit_table_oracle,
    greedy_codes_oracle,
    joint_code_oracle,
    joint_digits_oracle,
    joint_one_hot_oracle,
    layered_mmdp,
    product_joint_oracle,
    pure_nash_enumerate,
    slices_oracle,
    vi_oracle,
)


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


@pytest.mark.parametrize("n,a", list(itertools.product(range(1, 5), repeat=2)))
def test_codec_matches_the_radix_loops_on_every_code(n, a):
    table = digit_table(n, a)
    want = digit_table_oracle(n, a)
    assert table.dtype == want.dtype and np.array_equal(table, want)
    assert table.flags.c_contiguous and not table.flags.writeable
    for code in range(a**n):
        digits = joint_digits(code, n, a)
        assert digits == joint_digits_oracle(code, n, a)
        assert all(type(d) is int for d in digits)
        assert joint_code(digits, a) == joint_code_oracle(digits, a) == code
    # a [K, n, S, A] stack of tables with ties, and one of its points
    rng = np.random.default_rng(n * 10 + a)
    tables = rng.integers(0, 2, size=(3, n, 5, a)).astype(float)
    for t in (tables, tables[0]):
        got, ref = greedy_codes(t), greedy_codes_oracle(t)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


def test_codec_refuses_out_of_range_inputs():
    for bad in [lambda: joint_code((3, 0), 3), lambda: joint_code((0, -1), 3),
                lambda: joint_digits(9, 2, 3), lambda: joint_digits(-1, 2, 3)]:
        with pytest.raises(ValueError):
            bad()


def test_one_hot_matches_the_scatters():
    rng = np.random.default_rng(18)
    actions = rng.integers(0, 3, size=(4, 6))
    got = one_hot(actions, 3)
    assert got.dtype == np.float64 and got.flags.c_contiguous
    assert np.array_equal(got, deterministic_tables_oracle(actions, 3))
    assert np.array_equal(DecentralizedPolicySet.deterministic(actions, 3).tables, got)
    codes = rng.integers(0, 27, size=7)
    want = joint_one_hot_oracle(codes, 27)
    assert np.array_equal(one_hot(codes, 27), want)
    assert np.array_equal(joint_policy_matrix(random_mmdp(7, 3, 3, gamma=0.9, rng=18), codes),
                          want)


@pytest.mark.parametrize("n,s,a", [(1, 3, 4), (2, 4, 3), (3, 2, 2), (4, 2, 3)])
def test_reach_ends_at_the_prefix_loop_joint(n, s, a):
    pc = CoordinationPolicy.random(n, s, a, np.random.default_rng(19))
    reach = pc.reach()
    assert [p.shape for p in reach] == [(s, a**k) for k in range(n + 1)]
    assert np.array_equal(reach[-1], coordination_joint_oracle(pc))
    assert np.array_equal(pc.joint(), reach[-1])
    assert np.allclose([p.sum(axis=1) for p in reach], 1.0)


@pytest.mark.parametrize("n,s,a", [(1, 3, 2), (2, 1, 3), (3, 50, 4), (7, 1, 3)])
def test_product_joint_matches_the_digit_gather_bit_for_bit(n, s, a):
    # exact zeros, negative zeros and one-hot rows test the signed zeros of
    # the products, as well as their values
    rng = np.random.default_rng(n * 100 + s * 10 + a)
    tables = rng.dirichlet(np.ones(a), size=(n, s))
    tables[rng.random((n, s, a)) < 0.2] = 0.0
    tables[rng.random((n, s, a)) < 0.2] = -0.0
    hot = rng.random((n, s)) < 0.3
    tables[hot] = one_hot(rng.integers(0, a, size=hot.sum()), a)
    tables[0, 0, -1] = -0.0
    got = DecentralizedPolicySet(tables).joint()
    want = product_joint_oracle(tables)
    assert got.shape == (s, a**n)
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert np.signbit(want).any()


def test_greedy_play_through_codes_matches_per_agent_tables():
    rng = np.random.default_rng(20)
    models = [builtin_game("table1"), random_mmdp(3, 2, 3, gamma=0.9, rng=21),
              random_mmdp(2, 3, 2, gamma=0.8, rng=22, horizon=3)]
    for model in models:
        for _ in range(4):
            # integer tables give ties, which both paths break to the lowest index
            tables = rng.integers(0, 2, size=(model.n_agents, model.n_states,
                                              model.n_actions)).astype(float)
            per_agent = DecentralizedPolicySet.deterministic(
                DecentralizedPolicySet(tables).greedy_actions(), model.n_actions)
            codes = greedy_codes(tables)
            assert evaluate_policy(model, codes) == evaluate_policy(model, per_agent)


def test_check_options_normalizes_counts_to_int_and_reals_to_float():
    from tadlab.core import MAX_SWEEPS, check_options

    got = check_options(lr=2, steps=800.0, clip=np.float64(0.2), log_every=np.int64(3),
                        sweeps=MAX_SWEEPS)
    assert got == [2.0, 800, 0.2, 3, MAX_SWEEPS]
    assert [type(v) for v in got] == [float, int, float, int, int]


def test_validate_table1_ok():
    assert validate(builtin_game("table1")) == []


def test_validate_flags_bad_row_sum():
    g = builtin_game("table1")
    trans = g.transition.copy()
    trans[0, 2, 0] = 0.98
    with pytest.raises(ValueError, match=r"^invalid model: .*\(0, 2\) sums to 0\.98"):
        Mmdp(1, 2, 3, trans, g.reward, g.gamma, g.initial_dist, horizon=1)


def test_validate_flags_negative_probability():
    g = builtin_game("table1")
    trans = g.transition.copy()
    trans[0, 1, 0] = -0.5
    with pytest.raises(ValueError, match=r"^invalid model: .*negative"):
        Mmdp(1, 2, 3, trans, g.reward, g.gamma, g.initial_dist, horizon=1)


def test_validate_refuses_an_initial_dist_just_over_one():
    # the sum tolerance is PROB_TOL (1e-12), so 1e-10 over is a fault
    g = builtin_game("table1")
    with pytest.raises(ValueError,
                       match=r"^invalid model: initial_dist sums to 1\.0000000001"):
        Mmdp(1, 2, 3, g.transition, g.reward, g.gamma, [1.0 + 1e-10], horizon=1)


def test_validate_rejects_gamma_one():
    g = builtin_game("table1")
    with pytest.raises(ValueError, match=r"^invalid model: .*gamma"):
        Mmdp(1, 2, 3, g.transition, g.reward, 1.0, g.initial_dist, horizon=1)


def test_every_constructor_refuses_an_invalid_model():
    # an infinite-horizon two-state chain at gamma = 1 has no finite value,
    # and a row summing to 1.5 is no distribution; neither model can exist
    trans = np.zeros((2, 1, 2))
    trans[:, 0, 1] = 1.0
    gamma_one = r"gamma must lie in \[0, 1\), got 1\.0"
    builders = [
        (lambda: Mdp(2, 1, trans, np.ones((2, 1)), 1.0, [1.0, 0.0]), gamma_one),
        (lambda: Mdp(2, 1, 1.5 * trans, np.ones((2, 1)), 0.9, [1.0, 0.0]),
         r"\(0, 0\) sums to 1\.5"),
        (lambda: Mmdp(2, 2, 1, trans, np.ones((2, 1)), 1.0, [1.0, 0.0]), gamma_one),
        (lambda: matrix_game(np.eye(3), gamma=1.0), gamma_one),
        (lambda: mmdp_from_dict({"matrix": [[1.0, 0.0], [0.0, 1.0]], "gamma": 1.0}),
         gamma_one),
    ]
    for build, issue in builders:
        with pytest.raises(ValueError, match=r"^invalid model: .*" + issue) as info:
            build()
        assert "\n" not in str(info.value)


def test_only_the_model_type_calls_require_valid():
    # validity is decided once, by Mmdp at construction; no other module
    # re-checks a model it is handed
    src = Path(tadlab.__file__).parent
    callers = sorted(p.name for p in src.glob("*.py")
                     if p.name != "core.py" and "require_valid" in p.read_text())
    assert callers == []
    core_lines = [line.strip() for line in (src / "core.py").read_text().splitlines()
                  if "require_valid" in line]
    assert core_lines == ["require_valid(self)", "def require_valid(model):"]


def test_models_are_immutable():
    g = builtin_game("table1")
    with pytest.raises(ValueError):
        g.reward[0, 0] = 99.0


def test_evaluate_deterministic_optimum():
    g = builtin_game("table1")
    assert evaluate_policy(g, np.array([0])) == 10.0


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
    assert joint_digits(mu[0], 2, 3) == (0, 0)


def test_brute_force_matgame2():
    best, mu = brute_force_optimal(builtin_game("matgame2"))
    assert best == pytest.approx(10.0, abs=1e-10)
    assert joint_digits(mu[0], 2, 2) in {(0, 1), (1, 0)}


def test_brute_force_matches_policy_enumeration():
    model = random_mmdp(4, 2, 3, gamma=0.9, rng=17)
    best, mu = brute_force_optimal(model)
    # oracle: enumerate every deterministic joint policy (9^4 of them)
    top = -np.inf
    for code in range(9**4):
        actions = [(code // 9**s) % 9 for s in range(4)]
        top = max(top, evaluate_policy(model, np.array(actions)))
    assert best == pytest.approx(top, abs=1e-10)
    assert evaluate_policy(model, mu) == pytest.approx(top, abs=1e-10)


def _tie_chain(delta, gamma=0.99):
    """Three states, four joint actions; Q*(0, 0) - Q*(0, 1) = delta.

    From state 0, joint action 0 pays delta - gamma now and moves to state 1
    (absorbing, worth 1); actions 1-3 pay 0, -1, -1 and move to state 2
    (absorbing, worth 0). The greedy-on-reward start plays action 1 there.
    """
    t = np.zeros((3, 4, 3))
    t[0, 0, 1] = t[0, 1:, 2] = t[1, :, 1] = t[2, :, 2] = 1.0
    r = np.zeros((3, 4))
    r[0, 0], r[0, 2:], r[1] = delta - gamma, -1.0, 1.0 - gamma
    return Mmdp(3, 2, 2, t, r, gamma, [1.0, 0.0, 0.0])


def _tie_random(delta, seed, gamma=0.99):
    """random_mmdp(3, 2, 2) with state 0's runner-up joint action made
    exactly delta worse than the optimal one (the optimum is unchanged)."""
    base = random_mmdp(3, 2, 2, gamma=gamma, rng=seed)
    best = max(itertools.product(range(4), repeat=3),
               key=lambda c: evaluate_policy(base, np.array(c)))
    _, [(_, q)] = policy_slices(base, one_hot(best, 4))
    runner_up = max((a for a in range(4) if a != best[0]), key=lambda a: q[0, a])
    reward = base.reward.copy()
    reward[0, runner_up] += q[0, best[0]] - q[0, runner_up] - delta
    return Mmdp(3, 2, 2, base.transition, reward, gamma, base.initial_dist)


TIE_GAPS = (1e-9, 1e-10, 1e-11, 1e-12)


@pytest.mark.parametrize("model", [_tie_chain(0.5)]
                         + [_tie_chain(d) for d in TIE_GAPS]
                         + [_tie_chain(-d) for d in TIE_GAPS]
                         + [_tie_random(d, seed) for d in TIE_GAPS for seed in range(3)])
def test_brute_force_certificate_matches_enumeration(model):
    tol = 1e-10
    best, mu = brute_force_optimal(model, tol=tol)
    _, margins = optimal_values(model, tol=tol)
    top = max(evaluate_policy(model, np.array(c))
              for c in itertools.product(range(4), repeat=3))
    assert margins[-1] <= tol
    # the certificate bound, plus a few ulp of rounding in the evaluations
    assert top - best <= margins[-1] / (1 - model.gamma) + 4 * np.spacing(top)
    assert evaluate_policy(model, mu) == best


@pytest.mark.parametrize("delta,iterations", [
    (0.5, 2), (1e-9, 2), (1e-10, None), (1e-11, 1), (1e-12, 1)])
def test_policy_iteration_ranks_near_tied_actions(delta, iterations):
    # value iteration stopped at a 1e-10 change (tests/oracles.py) plays
    # action 1 at state 0 for the gaps 1e-9 to 1e-12; policy iteration plays
    # action 0. It switches when the gap exceeds its tolerance (a gap at the
    # tolerance may go either way), and otherwise the greedy policy of its
    # table does.
    _, margins = optimal_values(_tie_chain(delta))
    assert delta > 1e-8 or np.argmax(vi_oracle(_tie_chain(delta))[0][0]) == 1
    assert brute_force_optimal(_tie_chain(delta))[1][0] == 0
    assert brute_force_optimal(_tie_chain(-delta))[1][0] == 1
    assert iterations is None or len(margins) == iterations


def test_policy_iteration_cap_raises():
    with pytest.raises(RuntimeError, match="policy iteration"):
        optimal_values(_tie_chain(0.5), max_iter=1)


def _pi_through_policy_slices(model, tol=1e-10):
    """Policy iteration evaluating each policy with `policy_slices`, which
    also solves for the occupancy (the loop before the value solve was
    factored out)."""
    s, m = model.reward.shape
    codes = np.argmax(model.reward, axis=1)
    margins = []
    while True:
        pol = np.zeros((s, m))
        pol[np.arange(s), codes] = 1.0
        _, [(_, q)] = policy_slices(model, pol)
        best = np.argmax(q, axis=1)
        advantage = q[np.arange(s), best] - q[np.arange(s), codes]
        margins.append(float(advantage.max()))
        if not (advantage > tol).any():
            return q, margins
        codes = np.where(advantage > tol, best, codes)


@pytest.mark.parametrize("model", [
    random_mmdp(4, 2, 3, gamma=0.9, rng=70),
    random_mmdp(6, 3, 2, gamma=0.99, rng=71),
    random_mmdp(50, 3, 4, gamma=0.99, rng=0),
    _tie_chain(1e-9),
], ids=["s4", "s6-n3", "s50-solve", "tie-chain"])
def test_policy_iteration_solves_values_only(model, monkeypatch):
    want_q, want_margins = _pi_through_policy_slices(model)
    solves = []
    solve = np.linalg.solve

    def counted(a, b):
        solves.append(a.shape)
        return solve(a, b)

    monkeypatch.setattr(np.linalg, "solve", counted)
    q, margins = optimal_values(model)
    assert len(solves) == len(margins)
    assert np.array_equal(q, want_q) and margins == want_margins


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
    assert evaluate_policy(model, np.array([3])) == 4.0


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


def test_array_holding_objects_compare_and_hash_by_identity():
    from tadlab import MapgParams, VdParams

    first, second = builtin_game("table1"), builtin_game("table1")
    assert first == first and first != second and len({first, second}) == 2
    policies = DecentralizedPolicySet.uniform(2, 1, 3)
    assert policies != DecentralizedPolicySet.uniform(2, 1, 3)
    for make in (lambda: MapgParams.uniform(2, 1, 3), lambda: VdParams.zeros("duplex", 2, 1, 3)):
        params = make()
        assert params == params and params != make()


def test_evaluation_bits_do_not_depend_on_memory_order():
    from tadlab import occupancy

    model = random_mmdp(6, 2, 3, gamma=0.9, rng=1, horizon=3)
    rng = np.random.default_rng(2)
    for _ in range(200):
        pol = rng.random((model.n_states, model.n_joint_actions))
        pol /= pol.sum(axis=1, keepdims=True)
        fortran = np.asfortranarray(pol)
        assert evaluate_policy(model, pol) == evaluate_policy(model, fortran)
        assert np.array_equal(occupancy(model, pol), occupancy(model, fortran))


def assert_same_bits(got, want):
    assert np.array_equal(got, want)
    assert np.array_equal(np.signbit(got), np.signbit(want))


def test_policy_slices_match_the_backward_pass_oracle(partly_reached_models):
    rng = np.random.default_rng(31)
    horizon3 = random_mmdp(3, 2, 2, gamma=0.9, rng=33, horizon=3)
    models = [
        builtin_game("table1"),
        # -0.0 rewards: the last step's table must hold +0.0 there, the
        # bits of reward + gamma * T @ 0
        matrix_game([[-0.0, 1.0], [2.0, -0.0]]),
        random_mmdp(3, 2, 2, gamma=0.9, rng=32, horizon=1),
        random_mmdp(3, 2, 2, gamma=0.9, rng=32, horizon=2),
        horizon3,
        dataclasses.replace(horizon3, reward=np.where(horizon3.reward < 0.5, -0.0,
                                                      horizon3.reward)),
        *partly_reached_models,
    ]
    for model in models:
        for batch in [(), (1,), (4,)]:
            pol = rng.dirichlet(np.ones(model.n_joint_actions), size=batch + (model.n_states,))
            value, slices = policy_slices(model, pol)
            want_value, want_slices = slices_oracle(model, pol)
            assert type(value) is type(want_value)
            assert_same_bits(value, want_value)
            assert len(slices) == len(want_slices) == model.horizon
            for (d_t, q_t), (want_d, want_q) in zip(slices, want_slices):
                assert_same_bits(d_t, want_d)
                assert_same_bits(q_t, want_q)
            if (model.reward == 0).any():
                assert not np.signbit(slices[-1][1]).any()


def test_evaluate_policy_reads_codes_as_their_one_hot_matrix():
    rng = np.random.default_rng(30)
    discounted = random_mmdp(4, 2, 3, gamma=0.9, rng=31)
    # -0.0 beside negative rewards: every product of the one-hot contraction
    # is a signed zero, which it sums to +0.0
    negative = dataclasses.replace(discounted, reward=np.where(
        discounted.reward < 0.5, -0.0, -discounted.reward))
    for model in (builtin_game("table1"), discounted, negative,
                  random_mmdp(3, 3, 2, gamma=0.8, rng=32, horizon=3)):
        for _ in range(5):
            codes = rng.integers(model.n_joint_actions, size=model.n_states)
            matrix = one_hot(codes, model.n_joint_actions)
            assert_same_bits(evaluate_policy(model, codes), evaluate_policy(model, matrix))
    picks_zero = np.argmax(negative.reward, axis=1)
    assert_same_bits(negative.reward[np.arange(4), picks_zero], np.full(4, -0.0))
    assert_same_bits(evaluate_policy(negative, picks_zero),
                     evaluate_policy(negative, one_hot(picks_zero, 9)))
    # the return's dot product drops the sign of zero values; the solve keeps it
    for got, want in zip(_solve_values(negative, picks_zero),
                         _solve_values(negative, one_hot(picks_zero, 9))):
        assert_same_bits(got, want)
    # policy sets: exactly one-hot tables are read as their greedy codes, and
    # 1e-13 off one-hot keeps the product's own bits
    actions = rng.integers(3, size=(2, 4))
    one_hot_set = DecentralizedPolicySet.deterministic(actions, 3)
    tables = one_hot_set.tables.copy()
    tables[0, 0] = tables[0, 0] * (1 - 1e-13) + 1e-13 / 3
    near = DecentralizedPolicySet(tables)
    for model in (discounted, negative):
        for policy in (one_hot_set, near):
            assert_same_bits(evaluate_policy(model, policy),
                             evaluate_policy(model, policy.joint()))
    assert evaluate_policy(discounted, near) != evaluate_policy(discounted, one_hot_set)
    # episodic models read by index too: a one-step game whose codes pick
    # -0.0 beside negative payoffs, and a layered horizon-3 model
    game = random_matrix_game(3, 2, 35)
    signed = dataclasses.replace(game, reward=np.where(game.reward < -5, -0.0, -np.abs(game.reward)))
    picks_zero = np.argmax(signed.reward, axis=1)
    assert_same_bits(signed.reward[0, picks_zero], [-0.0])
    assert_same_bits(evaluate_policy(signed, picks_zero),
                     evaluate_policy(signed, one_hot(picks_zero, 9)))
    layered = layered_mmdp((1, 2, 2), 2, 3, rng=66)
    for model in (signed, layered):
        for _ in range(5):
            codes = rng.integers(model.n_joint_actions, size=model.n_states)
            assert_same_bits(evaluate_policy(model, codes),
                             evaluate_policy(model, one_hot(codes, model.n_joint_actions)))
            policy = DecentralizedPolicySet.deterministic(
                rng.integers(3, size=(2, model.n_states)), 3)
            assert_same_bits(evaluate_policy(model, policy),
                             evaluate_policy(model, policy.joint()))


def test_episodic_one_hot_play_skips_the_coordination_chain(monkeypatch):
    game = random_matrix_game(3, 7, 0)
    policy = DecentralizedPolicySet.deterministic(np.arange(7)[:, None] % 3, 3)
    want = evaluate_policy(game, policy.joint())
    calls = []
    prefix_reach = tadlab.core._prefix_reach

    def spy(*args):
        calls.append(args)
        return prefix_reach(*args)

    monkeypatch.setattr(tadlab.core, "_prefix_reach", spy)
    assert_same_bits(evaluate_policy(game, policy), want)
    assert calls == []


def test_deterministic_play_on_a_discounted_model_skips_the_one_hot_matrix(monkeypatch):
    model = random_mmdp(6, 2, 3, gamma=0.95, rng=34)
    codes = np.arange(6) % 9
    want = evaluate_policy(model, one_hot(codes, 9))
    one_hots, solves = [], []
    solve = np.linalg.solve

    def one_hot_spy(*args):
        one_hots.append(args)
        return one_hot(*args)

    def solve_spy(*args):
        solves.append(args)
        return solve(*args)

    monkeypatch.setattr(tadlab.core, "one_hot", one_hot_spy)
    monkeypatch.setattr(np.linalg, "solve", solve_spy)
    _, record = optimal_values(model)
    assert one_hots == [] and len(solves) == len(record)
    solves.clear()
    assert evaluate_policy(model, codes) == want
    assert len(solves) == 1


@pytest.mark.parametrize("code", [-1, 9])
def test_joint_codes_outside_the_range_are_refused(code):
    # both models have 9 joint actions; the discounted one reads codes by
    # index, where -1 would wrap to the last joint action
    for model in (builtin_game("table1"), random_mmdp(4, 2, 3, gamma=0.9, rng=31)):
        codes = np.zeros(model.n_states, dtype=int)
        codes[-1] = code
        with pytest.raises(ValueError, match="codes must lie in"):
            evaluate_policy(model, codes)


def test_a_nan_policy_matrix_is_refused():
    with pytest.raises(ValueError, match="probability vectors"):
        evaluate_policy(builtin_game("table1"), np.full((1, 9), np.nan))


def test_a_policy_row_just_over_one_is_refused():
    # the row-sum tolerance is 1e-9, so 1e-8 over is no distribution
    row = one_hot(np.array([4]), 9)
    row[0, 4] += 1e-8
    with pytest.raises(ValueError, match="probability vectors"):
        joint_policy_matrix(builtin_game("table1"), row)


@pytest.mark.parametrize("shape", [(2, 3), (3,), (1, 2, 1, 3), (0, 1, 3)])
def test_decentralized_policy_set_refuses_tables_not_of_rank_three(shape):
    want = r"must be \[n_agents >= 1, n_states, n_actions\]"
    with pytest.raises(ValueError, match=want) as info:
        DecentralizedPolicySet(np.full(shape, 0.5))
    assert str(info.value).endswith(f"got shape {shape}")


def test_brute_force_optimal_returns_int_codes():
    for model in (builtin_game("table1"), random_mmdp(4, 2, 3, gamma=0.9, rng=17)):
        best, codes = brute_force_optimal(model)
        assert codes.dtype.kind == "i" and codes.shape == (model.n_states,)
        assert evaluate_policy(model, codes) == best


# ---------------------------------------------------------------------------
# a return or an optimal table beyond the float range is refused, not
# returned (the suite turns numpy warnings into errors, so these also show
# that none is raised first)

def _overflowing(model):
    return dataclasses.replace(model, reward=np.full(model.reward.shape, 1e308))


@pytest.mark.parametrize("model", [
    _overflowing(random_mmdp(2, 2, 2, gamma=0.99, rng=0)),
    _overflowing(layered_mmdp((2, 2), 2, 2, rng=80)),
], ids=["discounted", "layered-episodic"])
def test_non_finite_returns_and_tables_raise_divergence(model):
    codes = np.zeros(model.n_states, dtype=np.intp)
    actions = np.zeros((model.n_agents, model.n_states), dtype=np.intp)
    plays = {"codes": codes, "one-hot set": DecentralizedPolicySet.deterministic(actions, 2),
             "one-hot matrix": one_hot(codes, model.n_joint_actions),
             "stochastic set": DecentralizedPolicySet.uniform(2, model.n_states, 2)}
    for label, policy in plays.items():
        with pytest.raises(tadlab.GdDivergenceError, match="the return overflowed"):
            evaluate_policy(model, policy)
    with pytest.raises(tadlab.GdDivergenceError, match="overflowed the float range"):
        optimal_values(model)
    with pytest.raises(tadlab.GdDivergenceError):
        brute_force_optimal(model)


def test_the_divergence_error_is_one_class_everywhere():
    from tadlab import core, learners

    assert learners.GdDivergenceError is core.GdDivergenceError is tadlab.GdDivergenceError


def test_evaluate_policy_never_runs_policy_slices(monkeypatch, partly_reached_models):
    rng = np.random.default_rng(36)
    models = [random_mmdp(4, 2, 3, gamma=0.9, rng=37), layered_mmdp((2, 3, 1), 2, 2, rng=38),
              random_matrix_game(3, 3, 39)] + partly_reached_models
    cases = []
    for model in models:
        n, s, a = model.n_agents, model.n_states, model.n_actions
        tables = rng.random((n, s, a))
        for policy in (DecentralizedPolicySet(tables / tables.sum(axis=2, keepdims=True)),
                       CoordinationPolicy.random(n, s, a, rng),
                       rng.integers(a**n, size=s)):
            # the stochastic return's bits are those policy_slices gives
            want = policy_slices(model, joint_policy_matrix(model, policy))[0]
            cases.append((model, policy, want))

    def refused(*args):
        raise AssertionError("evaluate_policy ran policy_slices")

    monkeypatch.setattr(tadlab.core, "policy_slices", refused)
    for model, policy, want in cases:
        assert_same_bits(evaluate_policy(model, policy), want)


@pytest.mark.parametrize("tables", [
    (np.array([[[0.1, 0.8, 0.1]]]), np.full((1, 1, 3), 1 / 3)),
    (np.full((1, 3), 1 / 3), np.full((1, 3, 3), 1 / 3)),
    (),
    (np.full((0, 1, 3), 1 / 3),),
    (np.full((2, 1, 0), 1.0),),
    (np.full((2, 1, 2), 0.5), np.full((3, 2, 2), 0.5)),
], ids=["second-table-without-prefixes", "2-D-first-table", "no-table", "no-state",
        "no-action", "state-counts-differ"])
def test_coordination_policy_refuses_malformed_tables(tables):
    with pytest.raises(ValueError, match=r"coordination tables must be \[S >= 1, A\*\*i, A >= 1\]"):
        CoordinationPolicy(tables)


def test_coordination_policy_takes_well_formed_tables():
    for n, s, a in ((1, 1, 1), (3, 2, 1), (2, 1, 3), (3, 4, 2)):
        policy = CoordinationPolicy.uniform(n, s, a)
        assert (policy.n_agents, policy.n_states, policy.n_actions) == (n, s, a)
