"""Metamorphic relations: checks that need no second oracle.

Relabeling the agents permutes the joint-action axes of `transition` and
`reward`. The relabeled model is the same decision problem, so its optimal
return, TAD's distilled gap and the return of the relabeled product policy
cannot change. The relation shares none of the conventions the exact
evaluators share with their oracles: the joint-action codec's digit order,
the transform's layout rule and the discount split all see a different
agent order on each side.

Two more relations hold on every model:

- relabeling the states permutes the state axes; the optimum is the same
  up to the rounding of a reordered solve;
- a positive affine map of the reward, r -> a*r + b with a > 0, keeps the
  optimal play and maps the optimum to a*J* + b/(1 - gamma), or to
  a*J* + b*sum_t gamma^t over an episode's steps.

TAD's `vi` gap stays exactly 0 under each.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from tadlab import (
    DecentralizedPolicySet,
    Mmdp,
    brute_force_optimal,
    builtin_game,
    builtin_names,
    evaluate_policy,
    random_mmdp,
    tad_run,
)

from oracles import layered_mmdp


def relabel_agents(model, perm):
    """The model whose agent j is `model`'s agent perm[j]: the joint-action
    axes of `transition` and `reward`, as [S, A, ..., A(, S)] tensors, are
    permuted in that order."""
    s, n, a = model.n_states, model.n_agents, model.n_actions
    axes = tuple(1 + p for p in perm)
    reward = model.reward.reshape((s,) + (a,) * n).transpose((0,) + axes)
    transition = model.transition.reshape((s,) + (a,) * n + (s,)).transpose((0,) + axes + (n + 1,))
    return Mmdp(s, n, a, transition.reshape(s, -1, s), reward.reshape(s, -1), model.gamma,
                model.initial_dist, model.horizon)


def _models():
    """(id, model): 60 discounted and 60 one-step seeded random MMDPs, ten
    layered episodic models and the built-in games."""
    rng = np.random.default_rng(90)
    for i in range(120):
        s, n, a = int(rng.integers(1, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 4))
        horizon = None if i % 2 else 1
        gamma = float(rng.choice([0.5, 0.9, 0.99]))
        yield f"random{i}", random_mmdp(s, n, a, gamma=gamma, rng=rng, horizon=horizon)
    for i in range(10):
        layers = tuple(int(k) for k in rng.integers(1, 4, size=int(rng.integers(2, 4))))
        yield f"layered{i}", layered_mmdp(layers, int(rng.integers(2, 4)), 2, rng=rng)
    for name in builtin_names():
        yield name, builtin_game(name)


MODELS = dict(_models())


def _relabelings(n_agents):
    """Every agent order but the identity."""
    return [p for p in itertools.permutations(range(n_agents)) if list(p) != sorted(p)]


def test_relabeling_permutes_the_joint_tensors():
    model = random_mmdp(2, 3, 2, gamma=0.9, rng=91)
    perm = (2, 0, 1)
    relabeled = relabel_agents(model, perm)
    for actions in itertools.product(range(2), repeat=3):
        new = [actions[p] for p in perm]
        old_code = np.ravel_multi_index(actions, (2,) * 3)
        new_code = np.ravel_multi_index(new, (2,) * 3)
        assert relabeled.reward[:, new_code].tobytes() == model.reward[:, old_code].tobytes()
        assert (relabeled.transition[:, new_code].tobytes()
                == model.transition[:, old_code].tobytes())
    assert relabel_agents(relabeled, np.argsort(perm)).transition.tobytes() == \
        model.transition.tobytes()


@pytest.mark.parametrize("name", list(MODELS))
def test_relabeling_the_agents_keeps_the_optimum_and_tads_gap(name):
    model = MODELS[name]
    best, _ = brute_force_optimal(model)
    tables = np.random.default_rng(92).random((model.n_agents, model.n_states, model.n_actions))
    policy = DecentralizedPolicySet(tables / tables.sum(axis=2, keepdims=True))
    value = evaluate_policy(model, policy)
    for perm in _relabelings(model.n_agents):
        relabeled = relabel_agents(model, perm)
        relabeled_best, _ = brute_force_optimal(relabeled)
        assert relabeled_best.hex() == best.hex(), perm
        _, trace = tad_run(relabeled, sarl="vi")
        assert relabeled_best - trace.ret[-1] == 0.0, perm
        permuted = DecentralizedPolicySet(policy.tables[list(perm)])
        assert evaluate_policy(relabeled, permuted) == pytest.approx(value, rel=1e-12, abs=0), perm


def relabel_states(model, perm):
    """The model whose state j is `model`'s state perm[j]: the state axes of
    `transition`, `reward` and `initial_dist` read in that order."""
    perm = np.asarray(perm)
    return Mmdp(model.n_states, model.n_agents, model.n_actions,
                model.transition[perm][:, :, perm], model.reward[perm], model.gamma,
                model.initial_dist[perm], model.horizon)


def test_state_relabeling_moves_each_entry_to_its_new_label():
    model = random_mmdp(3, 2, 2, gamma=0.9, rng=94)
    perm = (2, 0, 1)
    relabeled = relabel_states(model, perm)
    for j, k in itertools.product(range(3), repeat=2):
        assert relabeled.reward[j].tobytes() == model.reward[perm[j]].tobytes()
        assert relabeled.transition[j, :, k].tobytes() == \
            model.transition[perm[j], :, perm[k]].tobytes()
    assert relabeled.initial_dist.tolist() == model.initial_dist[list(perm)].tolist()


@pytest.mark.parametrize("name", list(MODELS))
def test_relabeling_the_states_keeps_the_optimum_and_tads_gap(name):
    model = MODELS[name]
    best, codes = brute_force_optimal(model)
    perm = np.random.default_rng([93, list(MODELS).index(name)]).permutation(model.n_states)
    relabeled = relabel_states(model, perm)
    relabeled_best, relabeled_codes = brute_force_optimal(relabeled)
    assert relabeled_best == pytest.approx(best, rel=1e-13, abs=0)
    assert relabeled_codes.tolist() == codes[perm].tolist()
    _, trace = tad_run(relabeled, sarl="vi")
    assert relabeled_best - trace.ret[-1] == 0.0


def episode_discount_sum(model):
    """sum_t gamma^t over the steps of an episode: 1 / (1 - gamma) on an
    infinite horizon, a finite sum over `horizon` steps otherwise."""
    if model.horizon is None:
        return 1.0 / (1.0 - model.gamma)
    return sum(model.gamma**t for t in range(model.horizon))


@pytest.mark.parametrize("name", list(MODELS))
def test_a_positive_affine_reward_map_moves_the_optimum_affinely(name):
    model = MODELS[name]
    best, codes = brute_force_optimal(model)
    a, b = np.random.default_rng([95, list(MODELS).index(name)]).uniform((0.1, -3.0), (4.0, 3.0))
    mapped = dataclasses.replace(model, reward=a * model.reward + b)
    mapped_best, mapped_codes = brute_force_optimal(mapped)
    shift = b * episode_discount_sum(model)
    # relative to the terms' size: a*J* and the shift may nearly cancel
    assert abs(mapped_best - (a * best + shift)) <= 1e-13 * (abs(a * best) + abs(shift))
    assert mapped_codes.tolist() == codes.tolist()
    _, trace = tad_run(mapped, sarl="vi")
    assert mapped_best - trace.ret[-1] == 0.0
