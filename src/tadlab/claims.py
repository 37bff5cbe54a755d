"""The four optimality claims, one function each.

`tadlab verify N` and the acceptance suite both run these. A claim's
function takes only its seed and returns a `ClaimRecord`: its (label, ok, detail) checks and the numbers they
tested; the claim holds when every check passes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analysis import SLACK, duplex_trap_certificate, stationarity_certificate, suboptimality_gap
from .constructions import builtin_game, builtin_names, construct_local_minima, random_mmdp
from .core import (
    CoordinationPolicy,
    evaluate_policy,
    greedy_codes,
    matrix_game,
)
from .learners import MapgParams, gd_run, run_mapg, tad_run, vd_objective
from .transform import value_relation_check


@dataclass(frozen=True)
class ClaimRecord:
    """A claim's (label, ok, detail) checks and the numbers they tested."""

    checks: tuple
    numbers: dict

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)


def pg_traps(seed=0):
    """Claim 1: concentrated inits on `table1` stay on their diagonal cell;
    the uniform init finds the optimum.

    The three inits descend together as one batched 20k-step run. Nothing
    is drawn, so the seed is unused."""
    model = builtin_game("table1")
    traps = (((1, 1), 5.0), ((2, 2), 1.0))
    starts = [MapgParams.concentrated(2, 1, 3, target, 5.0).logits for target, _ in traps]
    starts.append(MapgParams.uniform(2, 1, 3).logits)
    params, _ = run_mapg(model, MapgParams(np.stack(starts)), lr=0.05,
                         steps=20000, log_every=5000)
    greedy = greedy_codes(params.logits)
    returns = np.array([evaluate_policy(model, c) for c in greedy])
    codes = greedy[:, 0]
    checks = [
        (f"concentrated init at {target}",
         bool(code == target[0] * 3 + target[1] and abs(ret - expected) < 1e-6),
         f"greedy code {code}, greedy return {ret:.9f} (want {expected})")
        for (target, expected), code, ret in zip(traps, codes, returns)
    ]
    checks.append(("uniform init", bool(abs(returns[-1] - 10.0) < 1e-6),
                   f"greedy return {returns[-1]:.9f} (want 10)"))
    return ClaimRecord(tuple(checks), {"codes": codes, "returns": returns})


def vd_traps(seed=0):
    """Claim 2: semi-gradient TD on the duplex (QPLEX) mixer has local minima
    whose greedy actions are suboptimal.

    The three points of `construct_local_minima(3, 2)` are each certified
    stationary and, by `duplex_trap_certificate`, a local minimum on the
    cylinder of half their local-value margin, up to an excess loss of at
    most `SLACK`; the two with suboptimal greedy payoffs then descend
    together as one batched run, which must keep their greedy actions.
    Nothing is drawn, so the seed is unused."""
    tensor, points = construct_local_minima(3, 2)
    game = matrix_game(tensor)
    best = tensor.max()
    template = points[0]
    loss_fn = vd_objective(template, game)
    thetas = np.stack([theta.pack() for theta in points])
    margins, radii, excess = np.array([duplex_trap_certificate(p, game) for p in points]).T
    local = (margins > 0) & (excess <= SLACK)
    greedy = greedy_codes(template.unpack_like(thetas).q_local)[:, 0]
    payoffs = tensor.reshape(-1)[greedy]
    trapped = np.flatnonzero(payoffs < best)
    x, _ = gd_run(loss_fn, thetas[trapped], lr=0.05, steps=10000, log_every=10000)
    kept = greedy_codes(template.unpack_like(x).q_local)[:, 0] == greedy[trapped]
    retained = dict(zip(trapped.tolist(), kept.tolist()))
    stationary = [stationarity_certificate(loss_fn, theta, 1e-8) for theta in thetas]
    checks = []
    for idx, (stat_ok, norm) in enumerate(stationary):
        checks.append((f"point {idx} stationary", stat_ok, f"grad norm {norm:.3e}"))
        checks.append((f"point {idx} local minimum", bool(local[idx]),
                       f"local-value margin {margins[idx]:.3g}, loss excess "
                       f"{excess[idx]:.3e} on the cylinder of radius {radii[idx]:.3g}"))
        if idx in retained:
            checks.append((f"point {idx} retains suboptimal greedy", retained[idx],
                           f"greedy payoff {payoffs[idx]} < optimum {best}"))
    return ClaimRecord(tuple(checks), {
        "grad_norms": np.array([norm for _, norm in stationary]),
        "local_min": local, "margins": margins, "excess": excess,
        "trapped": trapped, "kept": kept,
    })


def value_relation(seed=0):
    """Claim 3: the transform rescales each policy's value exactly, on 100
    seeded random model/coordination-policy pairs."""
    rng = np.random.default_rng(seed)
    combos = [(n, g) for n in (1, 2, 3, 4) for g in (0.5, 0.9, 0.99)]
    residuals = np.empty(100)
    for i in range(100):
        n_agents, gamma = combos[i % len(combos)]
        n_states = int(rng.integers(1, 4))
        n_actions = int(rng.integers(2, 4 if n_agents < 4 else 3))
        model = random_mmdp(n_states, n_agents, n_actions, gamma=gamma, rng=rng)
        pc = CoordinationPolicy.random(n_agents, n_states, n_actions, rng)
        residuals[i] = value_relation_check(model, pc)[2]
    worst = residuals.max(initial=0.0)
    check = ("value relation residual", bool(worst < 1e-8),
             f"100 cases, max residual {worst:.3e}")
    return ClaimRecord((check,), {"residuals": residuals})


def composition_models(seed=0):
    """(name, model) for each built-in game, then (None, model) for 50
    seeded random MMDPs: the models claim 4 solves."""
    for name in builtin_names():
        yield name, builtin_game(name)
    rng = np.random.default_rng(seed)
    for _ in range(50):
        yield None, random_mmdp(
            int(rng.integers(2, 5)), int(rng.integers(2, 4)), int(rng.integers(2, 5)),
            gamma=float(rng.choice([0.5, 0.9, 0.99])), rng=rng,
        )


def optimal_composition(seed=0):
    """Claim 4: transform + optimal solve + greedy distillation reaches the
    oracle optimum on every `composition_models` model."""
    builtin_gaps, random_gaps = [], []
    for name, model in composition_models(seed):
        policies, _ = tad_run(model, sarl="vi")
        gap = suboptimality_gap(model, policies)
        (builtin_gaps if name else random_gaps).append(abs(gap))
    builtin_gaps, random_gaps = np.array(builtin_gaps), np.array(random_gaps)
    worst_b, worst_r = builtin_gaps.max(initial=0.0), random_gaps.max(initial=0.0)
    checks = (
        ("built-in games", bool(worst_b < 1e-8), f"max |gap| {worst_b:.3e}"),
        ("random models", bool(worst_r < 1e-8),
         f"{len(random_gaps)} models, max |gap| {worst_r:.3e}"),
    )
    return ClaimRecord(checks, {"builtin_gaps": builtin_gaps, "random_gaps": random_gaps})


#: claim number -> (title, function)
CLAIMS = {
    1: ("product-policy gradient descent is trapped by its init", pg_traps),
    2: ("decomposed TD learning has constructible trap points", vd_traps),
    3: ("the transformation rescales policy values exactly", value_relation),
    4: ("transform + solve + distill reaches the optimum", optimal_composition),
}
