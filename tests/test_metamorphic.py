"""Metamorphic relations: checks that need no second oracle.

Relabeling the agents permutes the joint-action axes of `transition` and
`reward`. The relabeled model is the same decision problem, so its optimal
return, TAD's distilled gap and the return of the relabeled product policy
cannot change. The relation shares none of the conventions the exact
evaluators share with their oracles: the joint-action codec's digit order,
the transform's layout rule and the discount split all see a different
agent order on each side.
"""

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
