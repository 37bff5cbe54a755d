import dataclasses
import tracemalloc

import numpy as np
import pytest

from tadlab import (
    CoordinationPolicy,
    DecentralizedPolicySet,
    Mmdp,
    evaluate_policy,
    greedy_distill,
    inverse_transform,
    kl_distill,
    layered_optimal_values,
    lift_policy,
    lower_policy,
    sequential_transform,
    size_report,
    validate,
    value_relation_check,
)
from tadlab.claims import composition_models
from tadlab.constructions import builtin_game, random_matrix_game, random_mmdp
from tadlab.core import (
    SIZE_GUARD,
    Mdp,
    SizeGuardError,
    brute_force_optimal,
    first_visit_times,
    greedy_codes,
    optimal_values,
)
from tadlab.learners import softmax_pg, tad_run, value_iteration
from tadlab.core import policy_slices
from tadlab.transform import layer_offsets, layer_tables, layered_policy_slices
import tadlab.core as core
import tadlab.learners as learners
import tadlab.transform as transform

from oracles import (
    coordination_from_product,
    greedy_distill_oracle,
    kl_oracle,
    layer_tables_oracle,
    layered_mmdp,
    sequential_transform_oracle,
    tad_run_oracle,
    vi_oracle,
)


def test_table1_layout():
    g = builtin_game("table1")
    mdp = sequential_transform(g)
    assert mdp.n_states == 4  # 1 root + 3 after the first agent acts
    assert mdp.n_actions == 3
    assert mdp.horizon == 2
    assert mdp.gamma == pytest.approx(0.99**0.5, abs=1e-15)
    assert validate(mdp) == []
    assert mdp.n_states * mdp.n_actions == 12


def test_layer_offsets_and_index():
    offsets, total = layer_offsets(2, 3, 3)
    assert offsets == [0, 2, 8] and total == 26


def test_intermediate_rows_one_hot_zero_reward():
    model = random_mmdp(2, 3, 2, gamma=0.9, rng=1)
    mdp = sequential_transform(model)
    offsets, total = layer_offsets(2, 3, 2)
    for v in range(offsets[-1]):  # all but the final layer
        assert np.all(mdp.reward[v] == 0.0)
        for a in range(2):
            row = mdp.transition[v, a]
            assert row.max() == 1.0 and row.sum() == 1.0
    assert validate(mdp) == []


def test_single_agent_transform_is_identity():
    model = random_mmdp(3, 1, 2, gamma=0.7, rng=2)
    mdp = sequential_transform(model)
    assert np.array_equal(mdp.transition, model.transition)
    assert np.array_equal(mdp.reward, model.reward)
    assert mdp.gamma == model.gamma


def test_round_trip_table1_exact():
    g = builtin_game("table1")
    back = inverse_transform(sequential_transform(g), 2)
    assert np.array_equal(back.transition, g.transition)
    assert np.array_equal(back.reward, g.reward)
    assert np.array_equal(back.initial_dist, g.initial_dist)
    assert back.horizon == g.horizon
    assert back.gamma == pytest.approx(g.gamma, abs=1e-12)


def test_round_trip_random_models():
    for seed, (s, n, a) in enumerate([(2, 2, 3), (3, 3, 2), (1, 4, 2), (4, 2, 2)]):
        model = random_mmdp(s, n, a, gamma=0.9, rng=seed)
        back = inverse_transform(sequential_transform(model), n)
        assert np.array_equal(back.transition, model.transition)
        assert np.array_equal(back.reward, model.reward)
        assert np.array_equal(back.initial_dist, model.initial_dist)
        assert abs(back.gamma - model.gamma) < 1e-12


def test_gamma_power_identity():
    model = random_mmdp(2, 3, 2, gamma=0.37, rng=5)
    mdp = sequential_transform(model)
    assert mdp.gamma**3 == pytest.approx(0.37, abs=1e-12)


def test_inverse_rejects_corrupted_intermediate_reward():
    g = builtin_game("table1")
    mdp = sequential_transform(g)
    reward = mdp.reward.copy()
    reward[0, 1] = 1.0  # root layer must have zero reward
    broken = Mdp(mdp.n_states, mdp.n_actions, mdp.transition, reward,
                 mdp.gamma, mdp.initial_dist, mdp.horizon)
    with pytest.raises(ValueError, match="intermediate reward"):
        inverse_transform(broken, 2)


def test_inverse_rejects_wrong_state_count():
    model = random_mmdp(5, 1, 2, gamma=0.9, rng=6)
    with pytest.raises(ValueError):
        inverse_transform(model, 2)


def claim3_and_degenerate_models(seed=0):
    """The 100 models claim 3 draws at `seed`, then shapes with one action
    and with one agent, episodic and not."""
    rng = np.random.default_rng(seed)
    combos = [(n, g) for n in (1, 2, 3, 4) for g in (0.5, 0.9, 0.99)]
    for i in range(100):
        n_agents, gamma = combos[i % len(combos)]
        n_states = int(rng.integers(1, 4))
        n_actions = int(rng.integers(2, 4 if n_agents < 4 else 3))
        yield random_mmdp(n_states, n_agents, n_actions, gamma=gamma, rng=rng)
        CoordinationPolicy.random(n_agents, n_states, n_actions, rng)
    for i, (s, n, a, horizon) in enumerate([(3, 2, 1, None), (2, 4, 1, 2), (1, 3, 1, None),
                                            (3, 1, 3, None), (2, 1, 2, 3), (1, 1, 1, None)]):
        yield random_mmdp(s, n, a, gamma=0.9, rng=60 + i, horizon=horizon)


def test_transform_matches_the_per_layer_construction():
    for model in claim3_and_degenerate_models():
        mdp = sequential_transform(model)
        transition, reward, initial = sequential_transform_oracle(model)
        assert np.array_equal(mdp.transition, transition)
        assert np.array_equal(mdp.reward, reward)
        assert np.array_equal(mdp.initial_dist, initial)
        back = inverse_transform(mdp, model.n_agents)
        assert np.array_equal(back.transition, model.transition)
        assert np.array_equal(back.reward, model.reward)
        assert back.horizon == model.horizon
        pc = CoordinationPolicy.random(model.n_agents, model.n_states, model.n_actions, rng=9)
        lifted = lift_policy(pc)
        assert lifted.shape == (mdp.n_states, mdp.n_actions)
        for tab, again in zip(pc.tables, lower_policy(lifted, model.n_agents).tables):
            assert np.array_equal(tab, again)


def _corrupt(mdp, case):
    """A copy of a transform's tensors with one layout fact broken."""
    transition, initial = mdp.transition.copy(), mdp.initial_dist.copy()
    horizon = mdp.horizon
    if case == "swapped-appends":
        transition[0, [0, 1]] = transition[0, [1, 0]]
    elif case == "last-layer-leaves-base":
        transition[-1, 0] = 0.0
        transition[-1, 0, -1] = 1.0
    elif case == "initial-on-virtual":
        initial[:] = 0.0
        initial[-1] = 1.0
    else:
        horizon = 3
    return Mdp(mdp.n_states, mdp.n_actions, transition, mdp.reward, mdp.gamma,
               initial, horizon)


BROKEN_LAYOUTS = {
    "swapped-appends": "not the one-hot appends",
    "last-layer-leaves-base": "leave the base-state block",
    "initial-on-virtual": "mass on virtual states",
    "horizon-not-multiple": "is not a multiple of 2",
}


@pytest.mark.parametrize("case", list(BROKEN_LAYOUTS))
def test_inverse_rejects_a_broken_layout(case):
    model = random_mmdp(2, 3, 2, rng=4)
    if case == "horizon-not-multiple":
        model = random_mmdp(2, 2, 2, gamma=0.9, rng=4, horizon=2)
    mdp = sequential_transform(model)
    inverse_transform(mdp, model.n_agents)
    with pytest.raises(ValueError, match=BROKEN_LAYOUTS[case]):
        inverse_transform(_corrupt(mdp, case), model.n_agents)


def test_transform_size_guard(monkeypatch):
    model = random_mmdp(2, 3, 3, gamma=0.9, rng=7)
    monkeypatch.setattr(transform, "SIZE_GUARD", 10)
    with pytest.raises(SizeGuardError):
        sequential_transform(model)


def test_transform_size_guard_bounds_allocated_entries():
    # 4,095 virtual states x 2 actions pass a pair count, but the dense
    # transition tensor alone would hold 33.5M floats (268 MB)
    game = random_matrix_game(2, 12, 0)
    _, total = layer_offsets(1, 12, 2)
    assert total * 2 <= SIZE_GUARD < total * 2 * total
    entries = total * 2 * total + total * 2 + total
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError, match=f"{8 * entries} bytes"):
            sequential_transform(game)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_transform_rejects_zero_discount_multi_agent():
    from tadlab.core import Mmdp

    model = random_mmdp(2, 2, 2, gamma=0.9, rng=24)
    frozen = Mmdp(2, 2, 2, model.transition, model.reward, 0.0,
                  model.initial_dist, horizon=1)
    with pytest.raises(ValueError, match="gamma"):
        sequential_transform(frozen)
    single = random_mmdp(2, 1, 2, gamma=0.9, rng=25)
    degenerate = Mmdp(2, 1, 2, single.transition, single.reward, 0.0,
                      single.initial_dist, horizon=1)
    assert sequential_transform(degenerate).gamma == 0.0


def test_lower_policy_rejects_wrong_layout():
    policy = np.full((5, 2), 0.5)
    with pytest.raises(ValueError):
        lower_policy(policy, 2)


def test_policy_conversion_round_trip_exact():
    pc = CoordinationPolicy.random(3, 2, 2, rng=8)
    again = lower_policy(lift_policy(pc), 3)
    for a, b in zip(pc.tables, again.tables):
        assert np.array_equal(a, b)


def _uniform_coordination(n, s, a):
    """The coordination policy whose every row is uniform over A actions."""
    return CoordinationPolicy(tuple(np.full((s, a**i, a), 1 / a) for i in range(n)))


def test_uniform_policy_lifts_to_uniform():
    pc = _uniform_coordination(2, 1, 3)
    assert np.all(lift_policy(pc) == 1 / 3)


def test_deterministic_conversion_selects_same_entries():
    g = builtin_game("table1")
    tables = (np.array([[[0.0, 1.0, 0.0]]]),
              np.array([[[0, 0, 1], [1, 0, 0], [0, 1, 0]]], dtype=float).reshape(1, 3, 3))
    pc = CoordinationPolicy(tables)
    pol = lift_policy(pc)
    # root row is agent 0's table, rows 1..3 are agent 1's per-prefix rows
    assert np.array_equal(pol[0], [0, 1, 0])
    assert np.array_equal(pol[2], [1, 0, 0])
    mdp = sequential_transform(g)
    assert evaluate_policy(mdp, pol) == pytest.approx(0.99**0.5 * (-30), abs=1e-12)


def test_value_relation_table1():
    g = builtin_game("table1")
    pc = CoordinationPolicy(
        (np.array([[[1.0, 0, 0]]]), np.broadcast_to([1.0, 0, 0], (1, 3, 3)).copy())
    )
    j_m, j_g, residual = value_relation_check(g, pc)
    assert j_m == pytest.approx(10.0, abs=1e-12)
    assert j_g == pytest.approx(0.99**0.5 * 10.0, abs=1e-12)
    assert residual < 1e-10


def test_value_relation_single_agent_identity():
    model = random_mmdp(3, 1, 2, gamma=0.9, rng=9)
    pc = CoordinationPolicy.random(1, 3, 2, rng=10)
    j_m, j_g, residual = value_relation_check(model, pc)
    assert j_m == pytest.approx(j_g, abs=1e-12)
    assert residual < 1e-10


def test_value_relation_three_agents():
    model = random_mmdp(3, 3, 2, gamma=0.9, rng=11)
    pc = CoordinationPolicy.random(3, 3, 2, rng=12)
    _, _, residual = value_relation_check(model, pc)
    assert residual < 1e-8


def test_value_relation_rejects_gamma_zero():
    from tadlab.core import Mmdp

    model = random_mmdp(2, 2, 2, gamma=0.9, rng=13)
    bad = Mmdp(2, 2, 2, model.transition, model.reward, 0.0,
               model.initial_dist, horizon=1)
    pc = _uniform_coordination(2, 2, 2)
    with pytest.raises(ValueError, match="gamma"):
        value_relation_check(bad, pc)


def test_greedy_distill_fixed_point_on_products():
    dec = DecentralizedPolicySet.deterministic(np.array([[1, 0], [2, 1]]), 3)
    pc = coordination_from_product(dec)
    model = random_mmdp(2, 2, 3, gamma=0.9, rng=14)
    out = greedy_distill(pc, model)
    assert np.array_equal(out.tables, dec.tables)


def test_greedy_distill_reaches_optimum_on_table1():
    g = builtin_game("table1")
    pc = CoordinationPolicy(
        (np.array([[[1.0, 0, 0]]]),
         np.array([[[1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]]]))
    )
    out = greedy_distill(pc, g)
    assert evaluate_policy(g, out) == pytest.approx(10.0, abs=1e-12)


def test_greedy_distill_tie_break_lowest_index():
    pc = _uniform_coordination(2, 1, 3)
    out = greedy_distill(pc, builtin_game("table1"))
    assert np.argmax(out.tables[0], axis=1)[0] == 0
    assert np.argmax(out.tables[1], axis=1)[0] == 0


def test_greedy_distill_matches_the_per_state_loop():
    model = builtin_game("table1")
    for i, (s, n, a) in enumerate(((1, 2, 3), (4, 3, 2), (5, 2, 4), (3, 4, 3))):
        pc = CoordinationPolicy.random(n, s, a, rng=60 + i)
        # rounding makes ties, which break toward the lowest action
        tied = CoordinationPolicy(tuple(np.round(tab, 1) for tab in pc.tables))
        for policy in (pc, tied):
            want = np.eye(a)[greedy_distill_oracle(policy)]
            assert np.array_equal(greedy_distill(policy, model).tables, want)


def test_greedy_distill_value_equals_determinized_coordination_policy():
    model = random_mmdp(3, 3, 2, gamma=0.9, rng=15)
    pc = CoordinationPolicy.random(3, 3, 2, rng=16)
    out = greedy_distill(pc, model)
    determinized = CoordinationPolicy(
        tuple(np.eye(2)[np.argmax(tab, axis=2)] for tab in pc.tables)
    )
    assert evaluate_policy(model, out) == evaluate_policy(model, determinized)


def test_kl_distill_recovers_product_marginals():
    marg = np.array([[[0.7, 0.3]], [[0.2, 0.8]]])
    dec = DecentralizedPolicySet(marg)
    pc = coordination_from_product(dec)
    model = random_mmdp(1, 2, 2, gamma=0.9, rng=17, horizon=1)
    out, losses = kl_distill(pc, model)
    assert np.abs(out.tables - marg).max() < 1e-4
    entropy = -np.sum(pc.joint()[0] * np.log(pc.joint()[0]))
    assert losses[-1] == pytest.approx(entropy, abs=1e-6)


def test_kl_distill_correlated_policy_has_entropy_gap():
    # mass split over the two optima of matgame2 cannot be a product policy
    g = builtin_game("matgame2")
    joint = np.array([0.0, 0.5, 0.5, 0.0])
    tables = (
        np.array([[[0.5, 0.5]]]),
        np.array([[[0.0, 1.0], [1.0, 0.0]]]),
    )
    pc = CoordinationPolicy(tables)
    assert np.allclose(pc.joint()[0], joint)
    out, losses = kl_distill(pc, g)
    entropy = np.log(2.0)
    # best product fit: both marginals uniform, cross entropy 2 log 2
    assert losses[-1] == pytest.approx(2 * np.log(2.0), abs=1e-4)
    assert losses[-1] > entropy + 0.5
    assert np.abs(out.tables - 0.5).max() < 1e-3


def test_kl_distill_deterministic_matches_greedy_first_stage():
    model = random_mmdp(2, 2, 3, gamma=0.9, rng=18)
    dec = DecentralizedPolicySet.deterministic(np.array([[2, 0], [1, 1]]), 3)
    pc = coordination_from_product(dec)
    out, _ = kl_distill(pc, model)
    greedy = greedy_distill(pc, model)
    assert np.array_equal(
        np.argmax(out.tables, axis=2), np.argmax(greedy.tables, axis=2)
    )


def test_kl_distill_matches_the_descent_oracle_on_interior_policies():
    # the softmax descent approaches the marginals from the interior; the
    # closed form is its limit and attains the minimal loss, which rounding
    # may put up to a few ulp above the descent's last loss (rng=1)
    cases = [(3, 4, 3, rng) for rng in range(5)] + [(2, 3, 3, 19), (1, 2, 4, 5)]
    for n, s, a, rng in cases:
        pc = CoordinationPolicy.random(n, s, a, rng=rng)
        out, losses = kl_distill(pc, None)
        want, descent = kl_oracle(pc)
        assert losses.shape == (1,)
        assert np.abs(out.tables - want.tables).max() < 1e-8
        assert losses[-1] <= descent[-1] * (1 + 1e-14)


def test_kl_distill_of_deterministic_policies_is_greedy_distill():
    # one-hot conditionals put all joint mass on the played path, so every
    # marginal is the one-hot table greedy distillation reads off that path
    rng = np.random.default_rng(24)
    for n, s, a in ((1, 3, 2), (2, 4, 3), (3, 5, 2), (3, 2, 4)):
        tables = tuple(np.eye(a)[rng.integers(a, size=(s, a**k))] for k in range(n))
        pc = CoordinationPolicy(tables)
        out, losses = kl_distill(pc, None)
        assert np.array_equal(out.tables, greedy_distill(pc, None).tables)
        assert losses[-1] == 0.0


def test_size_report_examples():
    g = builtin_game("table1")
    report = size_report(g)
    assert report == {"original_sa": 9, "transformed_sa": 12, "bound": True}
    model = random_mmdp(2, 3, 5, gamma=0.9, rng=21)
    report = size_report(model)
    assert report["original_sa"] == 250
    assert report["transformed_sa"] == 310
    assert report["bound"] is True


def test_size_report_single_action_degenerate():
    model = random_mmdp(3, 2, 1, gamma=0.9, rng=22)
    report = size_report(model)
    assert report == {"original_sa": 3, "transformed_sa": 6, "bound": True}
    model = random_mmdp(3, 4, 1, gamma=0.9, rng=23)
    assert size_report(model)["bound"] is False


# ---------------------------------------------------------------------------
# layered solve against value iteration on the dense transform

def _greedy_policies(q, model):
    pol = np.zeros(q.shape)
    pol[np.arange(q.shape[0]), np.argmax(q, axis=1)] = 1.0
    return greedy_distill(lower_policy(pol, model.n_agents), model)


def _assert_layered_matches_dense(model):
    # the layered tables against the exact solve of the dense transform, and
    # against value iteration on it within VI's stopping bound
    # tol * gamma**(1/n) / (1 - gamma): a dense sweep changes one layer, by at
    # least gamma**((n-1)/n) times the MMDP sweep's change of V
    tol = 1e-10  # vi_oracle's default
    transformed = sequential_transform(model)
    exact, _ = value_iteration(transformed)
    dense, _ = vi_oracle(transformed)
    layered, _ = layered_optimal_values(model)
    assert layered.shape == dense.shape
    assert np.abs(layered - exact).max() <= 1e-10
    assert np.abs(layered - dense).max() <= tol * transformed.gamma / (1 - model.gamma)
    assert np.array_equal(np.argmax(layered, axis=1), np.argmax(dense, axis=1))
    assert evaluate_policy(model, _greedy_policies(layered, model)) == evaluate_policy(
        model, _greedy_policies(dense, model))


def test_layered_vi_matches_dense_on_claim4_models():
    for _, model in composition_models(0):
        _assert_layered_matches_dense(model)


def test_policy_iteration_oracle_agrees_with_vi_oracle():
    # claim-4 models and the benchmark's solve models (S=50, n=3, A=4): the
    # same greedy policy and the bit-identical return as value iteration
    solve = [random_mmdp(50, 3, 4, gamma=0.99, rng=seed) for seed in range(10)]
    claim4 = [model for seed in (0, 1) for _, model in composition_models(seed)]
    for model in claim4 + solve:
        greedy = np.argmax(vi_oracle(model)[0], axis=1)
        best, mu = brute_force_optimal(model)
        assert np.array_equal(mu, greedy)
        assert best == evaluate_policy(model, greedy)
    assert all(len(optimal_values(model)[1]) <= 2 for model in solve)


def test_layered_vi_matches_dense_on_small_random_mmdp():
    _assert_layered_matches_dense(random_mmdp(6, 2, 3, gamma=0.9, rng=31))


def test_layered_solve_returns_the_oracle_record():
    model = random_mmdp(6, 2, 3, gamma=0.9, rng=31)
    assert layered_optimal_values(model)[1] == optimal_values(model)[1]


def test_layered_vi_matches_dense_with_unreached_states(partly_reached_models):
    for model in partly_reached_models:
        _assert_layered_matches_dense(model)
    # never-reached state 3 of the horizon-2 model: its layer-0 row is zero
    layered, _ = layered_optimal_values(partly_reached_models[0])
    assert np.all(layered[3] == 0.0)


def test_layered_vi_rejects_unlayered_episodic_model():
    model = random_mmdp(3, 2, 2, gamma=0.9, rng=32, horizon=3)
    with pytest.raises(ValueError, match="not layered"):
        value_iteration(sequential_transform(model))
    with pytest.raises(ValueError, match="not layered"):
        layered_optimal_values(model)


# ---------------------------------------------------------------------------
# layered policy evaluation against the dense transform

def _assert_layered_slices_match_dense(model, rng):
    dense = sequential_transform(model)
    pol = rng.random((dense.n_states, dense.n_actions)) + 0.05
    pol /= pol.sum(axis=1, keepdims=True)
    want, want_slices = policy_slices(dense, pol)
    got, got_slices = layered_policy_slices(model, pol)
    assert abs(got - want) <= 1e-12 * abs(want)
    want_grad = sum(d_t[:, None] * q_t for d_t, q_t in want_slices)
    got_grad = sum(d_t[:, None] * q_t for d_t, q_t in got_slices)
    assert got_grad.shape == want_grad.shape
    assert np.abs(got_grad - want_grad).max() <= 1e-12 * np.abs(want_grad).max()
    if model.horizon is None:
        assert len(got_slices) == len(want_slices) == 1
        return
    # episodic: slice t's layer-k rows are the dense slice at virtual step
    # n*t + k, which visits layer k only (the clipped surrogate reads them)
    n = model.n_agents
    offsets, total = layer_offsets(model.n_states, n, model.n_actions)
    bounds = offsets + [total]
    assert len(got_slices) * n == len(want_slices)
    for t, (d, q) in enumerate(got_slices):
        for k in range(n):
            rows = slice(bounds[k], bounds[k + 1])
            d_want, q_want = want_slices[n * t + k]
            assert np.all(np.delete(d_want, np.arange(total)[rows]) == 0.0)
            assert np.allclose(d[rows], d_want[rows], rtol=1e-12, atol=1e-15)
            assert np.allclose(q[rows], q_want[rows], rtol=1e-12, atol=1e-12)


def test_layered_policy_slices_match_dense(partly_reached_models):
    rng = np.random.default_rng(33)
    models = ([model for _, model in composition_models(0)] + partly_reached_models
              + [random_mmdp(3, 2, 2, gamma=0.9, rng=52, horizon=3)])
    for model in models:
        _assert_layered_slices_match_dense(model, rng)


def test_layered_policy_slices_of_a_one_agent_model_are_its_own():
    model = random_mmdp(4, 1, 3, gamma=0.9, rng=45)
    pol = np.random.default_rng(34).dirichlet(np.ones(3), size=4)
    want, want_slices = policy_slices(model, pol)
    got, got_slices = layered_policy_slices(model, pol)
    assert got == want
    for (d, q), (d_want, q_want) in zip(got_slices, want_slices, strict=True):
        assert np.array_equal(d, d_want) and np.array_equal(q, q_want)


def test_tad_vi_plays_the_oracle_policy():
    # transform + layered solve + greedy distillation gives the oracle's
    # greedy joint codes on the claim-4 models and the solve models
    claim4 = [model for seed in (0, 1) for _, model in composition_models(seed)]
    solve = [random_mmdp(50, 3, 4, gamma=0.99, rng=seed) for seed in range(10)]
    for model in claim4 + solve:
        policies, _ = tad_run(model, sarl="vi")
        _, mu = brute_force_optimal(model)
        assert np.array_equal(greedy_codes(policies.tables), mu)


def test_tad_vi_plays_the_oracle_policy_on_reached_states(partly_reached_models):
    # never-reached states differ by design: their layer-0 rows are zero
    for model in partly_reached_models:
        policies, _ = tad_run(model, sarl="vi")
        best, mu = brute_force_optimal(model)
        reached = first_visit_times(model) >= 0
        assert np.array_equal(greedy_codes(policies.tables)[reached], mu[reached])
        assert evaluate_policy(model, policies) == best


# ---------------------------------------------------------------------------
# greedy distillation reads the solver's own table: no one-hot round trip

#: short PG runs: the composition after the solve is under test
TAD_CFG = {"vi": {}, "q_learning": {}, "softmax_pg": {"steps": 12, "log_every": 5},
           "clipped_pg": {"steps": 12, "log_every": 5}}


def _tad_models(partly_reached_models):
    """The claim-4 models (the 13 built-ins, then 50 random MMDPs), the
    partly reached ones, a layered episodic model and the same model
    started in state 0 only (its other layer-0 states are never reached),
    a discounted MMDP and a one-step game of four agents."""
    layered = layered_mmdp((3, 2), 2, 2, rng=70)
    unreached = dataclasses.replace(layered, initial_dist=np.eye(5)[0])
    return ([model for _, model in composition_models(0)] + partly_reached_models
            + [layered, unreached, random_mmdp(5, 3, 2, gamma=0.95, rng=71),
               random_matrix_game(3, 4, 72)])


def _rows(trace):
    return list(zip(trace.step, trace.loss, trace.grad_norm, trace.ret, trace.greedy))


@pytest.mark.parametrize("distill", ["greedy", "kl"])
@pytest.mark.parametrize("sarl", list(TAD_CFG))
def test_tad_run_has_the_bits_of_the_one_hot_composition(sarl, distill,
                                                         partly_reached_models):
    for model in _tad_models(partly_reached_models):
        got, got_trace = tad_run(model, sarl=sarl, distill=distill, **TAD_CFG[sarl])
        want, want_trace = tad_run_oracle(model, sarl, distill, **TAD_CFG[sarl])
        assert got.tables.tobytes() == want.tables.tobytes()
        assert repr(_rows(got_trace)) == repr(_rows(want_trace))


def test_tad_run_logs_the_greedy_codes_its_walk_ends_with(partly_reached_models):
    # tad_run evaluates and logs the codes greedy distillation's walk ends
    # with, in place of re-deriving them from the one-hot tables
    rng = np.random.default_rng(74)
    for model in _tad_models(partly_reached_models):
        rows, a = layer_offsets(model.n_states, model.n_agents, model.n_actions)[1], model.n_actions
        ties = rng.integers(0, 2, (rows, a)).astype(float)
        for table in (layered_optimal_values(model)[0], rng.random((rows, a)), ties):
            policies, codes = transform._greedy_walk(table, model)
            want = greedy_codes(policies.tables)
            assert codes.dtype == want.dtype and codes.tobytes() == want.tobytes()
            assert policies.tables.tobytes() == greedy_distill(table, model).tables.tobytes()
        for sarl in ("vi", "q_learning"):
            policies, trace = tad_run(model, sarl=sarl)
            assert trace.greedy[-1] == tuple(greedy_codes(policies.tables).tolist())


def test_layer_tables_are_views_of_each_layer():
    rng = np.random.default_rng(73)
    for s, n, a in ((1, 2, 3), (4, 3, 2), (2, 1, 3), (3, 2, 1)):
        table = rng.random((layer_offsets(s, n, a)[1], a))
        views = layer_tables(table, n)
        assert [v.shape for v in views] == [(s, a**k, a) for k in range(n)]
        assert all(np.shares_memory(v, table) for v in views)
        for view, want in zip(views, layer_tables_oracle(table, n, s), strict=True):
            assert view.tobytes() == want.tobytes()
    with pytest.raises(ValueError, match="cannot be a 2-layer stack"):
        layer_tables(np.zeros((5, 2)), 2)


def test_greedy_distill_reads_a_layered_table_as_its_lowered_policy():
    rng = np.random.default_rng(74)
    for s, n, a in ((1, 2, 3), (4, 3, 2), (5, 2, 4), (3, 4, 3), (2, 1, 3), (1, 7, 3)):
        model = random_mmdp(s, n, a, gamma=0.9, rng=rng)
        total = layer_offsets(s, n, a)[1]
        # small integers tie often, and ties break toward the lowest action
        for table in (rng.integers(0, 3, (total, a)).astype(float), rng.random((total, a))):
            got = greedy_distill(table, model)
            assert got.tables.tobytes() == greedy_distill(lower_policy(table, n), model).tables.tobytes()
            walked = greedy_distill_oracle(CoordinationPolicy(layer_tables_oracle(table, n, s)))
            assert got.tables.tobytes() == np.eye(a)[walked].tobytes()


def test_kl_distill_reads_a_layered_table_as_its_lowered_policy():
    rng = np.random.default_rng(78)
    for s, n, a in ((1, 2, 3), (4, 3, 2), (5, 2, 4), (2, 1, 3), (3, 2, 1)):
        model = random_mmdp(s, n, a, gamma=0.9, rng=rng)
        table = rng.random((layer_offsets(s, n, a)[1], a))
        table /= table.sum(axis=1, keepdims=True)
        got, got_loss = kl_distill(table, model)
        want, want_loss = kl_distill(lower_policy(table, n), model)
        assert got.tables.tobytes() == want.tables.tobytes()
        assert got_loss.tobytes() == want_loss.tobytes()


def _spy(monkeypatch):
    """Record every `one_hot` call's code shape, every `CoordinationPolicy`
    built and every `lower_policy` call, in each module that binds them."""
    seen = {"one_hot": [], "CoordinationPolicy": [], "lower_policy": []}
    one_hot, lower, init = core.one_hot, transform.lower_policy, CoordinationPolicy.__post_init__

    def spied_one_hot(codes, width):
        seen["one_hot"].append(np.shape(codes))
        return one_hot(codes, width)

    def spied_lower(policy, n_agents):
        seen["lower_policy"].append(np.shape(policy))
        return lower(policy, n_agents)

    def spied_init(self):
        seen["CoordinationPolicy"].append(len(self.tables))
        init(self)

    for module in (core, learners):
        monkeypatch.setattr(module, "one_hot", spied_one_hot)
    monkeypatch.setattr(transform, "lower_policy", spied_lower)
    monkeypatch.setattr(CoordinationPolicy, "__post_init__", spied_init)
    return seen


@pytest.mark.parametrize("sarl", list(TAD_CFG))
def test_greedy_tad_run_makes_no_one_hot_copy_and_no_coordination_policy(sarl, monkeypatch):
    model = random_mmdp(4, 3, 2, gamma=0.9, rng=75)
    seen = _spy(monkeypatch)
    policies, trace = tad_run(model, sarl=sarl, **TAD_CFG[sarl])
    # the one one-hot build is the distilled tables themselves; the play is
    # evaluated by its codes, with no one-hot check
    assert seen == {"one_hot": [(3, 4)], "CoordinationPolicy": [], "lower_policy": []}
    assert trace.greedy[-1] == tuple(greedy_codes(policies.tables))
    # kl reads the solver's table too: vi and q_learning distill greedily,
    # and the PG policy set's one one-hot build is the evaluator's check
    seen["one_hot"].clear()
    tad_run(model, sarl=sarl, distill="kl", **TAD_CFG[sarl])
    assert seen == {"one_hot": [(3, 4)], "CoordinationPolicy": [], "lower_policy": []}
    # the spy sees a lowering, as a control
    v = layer_offsets(4, 3, 2)[1]
    transform.lower_policy(np.full((v, 2), 0.5), 3)
    assert seen["lower_policy"] == [(v, 2)] and seen["CoordinationPolicy"] == [3]


def test_a_tad_pg_step_builds_no_coordination_policy(monkeypatch):
    seen = _spy(monkeypatch)
    for model in (random_mmdp(4, 3, 2, gamma=0.9, rng=76), builtin_game("table1")):
        for clip in (None, 0.2):
            softmax_pg(model, lr=0.5, steps=5, clip=clip, log_every=5)
    assert seen == {"one_hot": [], "CoordinationPolicy": [], "lower_policy": []}


def test_evaluate_policy_reads_a_one_hot_set_with_one_argmax(monkeypatch):
    model = random_mmdp(4, 3, 2, gamma=0.9, rng=77)
    policies = DecentralizedPolicySet.deterministic(np.array([[0, 1, 1, 0], [1, 1, 0, 0],
                                                              [0, 0, 1, 1]]), 2)
    codes = greedy_codes(policies.tables)
    want = evaluate_policy(model, codes)

    def refused(*args):
        raise AssertionError("greedy_codes re-argmaxes the tables")

    monkeypatch.setattr(core, "greedy_codes", refused)
    assert repr(evaluate_policy(model, policies)) == repr(want)
    assert np.array_equal(core._play_codes(model, policies), codes)
