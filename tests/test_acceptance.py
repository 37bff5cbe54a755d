"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned in the assertions below.
"""

import time

import numpy as np

from tadlab import (
    CoordinationPolicy,
    DecentralizedPolicySet,
    MapgParams,
    VdParams,
    brute_force_optimal,
    claims,
    evaluate_policy,
    grad_check,
    greedy_codes,
    greedy_distill,
    igm_check,
    inverse_transform,
    joint_code,
    joint_digits,
    lift_policy,
    lower_policy,
    mapg_objective,
    ne_count_exact,
    ne_count_expectation,
    sequential_transform,
    size_report,
    tad_run,
    vd_objective,
)
from tadlab.constructions import (
    builtin_game,
    random_matrix_game,
    random_mmdp,
    restricted_minimizer,
    undercut_diag_payoff,
    undercut_diag_values,
)
from tadlab.learners import run_vd
from oracles import level_scan_oracle

M2 = builtin_game("matgame2")


def report(criterion, ok, detail, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} ({detail}; {elapsed:.1f}s / {budget:.0f}s budget)")
    assert ok, detail
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeded {budget}s"


def test_criterion_1_policy_gradient_traps():
    start = time.perf_counter()
    record = claims.pg_traps()
    codes, returns = record.numbers["codes"], record.numbers["returns"]
    ok = record.ok and [joint_digits(c, 2, 3) for c in codes[:2]] == [(1, 1), (2, 2)]
    ok &= np.abs(returns - [5.0, 1.0, 10.0]).max() < 1e-6
    elapsed = time.perf_counter() - start
    detail = (
        f"greedy returns {returns[0]:.9f}/{returns[1]:.9f} at the traps, "
        f"{returns[2]:.9f} from uniform"
    )
    report(1, ok, detail, elapsed, 10.0)


def test_criterion_2_value_decomposition_traps():
    start = time.perf_counter()
    record = claims.vd_traps(seed=0)
    norms = record.numbers["grad_norms"]
    retained = int(record.numbers["kept"].sum())
    ok = record.ok and len(norms) == 3 and norms.max() < 1e-8
    ok &= bool(record.numbers["local_min"].all()) and retained == 2
    elapsed = time.perf_counter() - start
    report(
        2, ok,
        f"3 stationary points (max grad norm {norms.max():.2e}), cylinder-certified "
        f"minima, {retained}/2 suboptimal points retained",
        elapsed, 30.0,
    )


def test_criterion_3_duplex_counterexample():
    start = time.perf_counter()
    p0 = VdParams.zeros("duplex", 2, 1, 2)
    p0.q_local[:, :, 1] = 1.0  # local argmaxes at (1, 1)
    p, _ = run_vd(M2, p0, lr=0.015, steps=80000, log_every=80000)
    limit = np.array([[-20.0, 29 / 3], [29 / 3, 29 / 3]])
    sup_err = np.abs(p.joint_table().reshape(2, 2) - limit).max()
    code = int(greedy_codes(p.q_local)[0])
    pol = DecentralizedPolicySet.deterministic(
        np.argmax(p.q_local, axis=2), 2
    )
    gap = brute_force_optimal(M2)[0] - evaluate_policy(M2, pol)
    ok = sup_err < 1e-2 and joint_digits(code, 2, 2) == (1, 1) and abs(gap - 1.0) < 1e-9
    elapsed = time.perf_counter() - start
    report(3, ok, f"sup-norm error {sup_err:.3e}, greedy (1,1), gap {gap:.6f}",
           elapsed, 10.0)


def test_criterion_4_value_relation_residuals():
    start = time.perf_counter()
    record = claims.value_relation(seed=0)
    residuals = record.numbers["residuals"]
    worst = residuals.max()
    elapsed = time.perf_counter() - start
    report(4, record.ok and len(residuals) == 100 and worst < 1e-8,
           f"100 pairs, max residual {worst:.3e}", elapsed, 10.0)


def test_criterion_5_transform_distill_optimality():
    start = time.perf_counter()
    record = claims.optimal_composition(seed=1)
    gaps = np.concatenate([record.numbers["builtin_gaps"], record.numbers["random_gaps"]])
    worst = gaps.max()
    suite = builtin_game("multitask_suite")
    policies, _ = tad_run(suite, sarl="vi")
    suite_return = evaluate_policy(suite, policies)
    per_state = sum(
        float(policies.joint()[s] @ suite.reward[s]) for s in range(10)
    )
    ok = abs(suite_return - 10.0) < 1e-8 and abs(per_state - 100.0) < 1e-8
    ok &= record.ok and len(record.numbers["random_gaps"]) == 50 and worst < 1e-8
    elapsed = time.perf_counter() - start
    report(
        5, ok,
        f"max |gap| {worst:.3e} over builtins + 50 random models, "
        f"suite return {suite_return:.6f} (sum {per_state:.1f})",
        elapsed, 60.0,
    )


def test_criterion_6_vdn_incompleteness():
    start = time.perf_counter()
    fit = np.array([[-12.25, 2.25], [2.25, 16.75]])
    # the 20 inits run as one batched descent, each replica as its own run
    p0 = VdParams("vdn", np.random.default_rng(2).standard_normal((20, 2, 1, 2)))
    p, _ = run_vd(M2, p0, lr=1.0, steps=300, log_every=300)
    worst_fit = np.abs(p.joint_table().reshape(20, 2, 2) - fit).max()
    ok = worst_fit < 1e-8
    ok &= all(joint_digits(c, 2, 2) == (1, 1) for c in greedy_codes(p.q_local)[:, 0])
    best = brute_force_optimal(M2)[0]
    for q_local in p.q_local:
        pol = DecentralizedPolicySet.deterministic(np.argmax(q_local, axis=2), 2)
        ok &= abs(best - evaluate_policy(M2, pol) - 1.0) < 1e-9
    elapsed = time.perf_counter() - start
    report(6, ok, f"20 inits all greedy (1,1) with gap 1, "
                  f"max fit error {worst_fit:.2e}", elapsed, 5.0)


def test_criterion_7_equilibrium_statistics():
    start = time.perf_counter()
    mean, stderr = ne_count_expectation(5, 10**5, rng=3)
    target = ne_count_exact(5)
    z = abs(mean - target) / stderr
    elapsed = time.perf_counter() - start
    report(7, z < 3.0, f"mean {mean:.4f} vs 25/9 = {target:.4f} (z = {z:.2f})",
           elapsed, 30.0)


def test_criterion_8_gradient_oracles():
    start = time.perf_counter()
    worst = {"mapg": 0.0, "vdn": 0.0, "monotonic": 0.0, "duplex": 0.0}
    for seed in range(10):
        game = random_matrix_game(3, 2, rng=100 + seed)
        params = MapgParams(np.random.default_rng(seed).standard_normal((2, 1, 3)))
        err = grad_check(mapg_objective(params, game), params.pack())
        worst["mapg"] = max(worst["mapg"], err)
        for variant in ("vdn", "monotonic", "duplex"):
            p = VdParams.random(variant, 2, 1, 3, rng=200 + seed)
            err = grad_check(vd_objective(p, game), p.pack())
            worst[variant] = max(worst[variant], err)
    ok = all(v < 1e-5 for v in worst.values())
    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{k} {v:.2e}" for k, v in worst.items())
    report(8, ok, f"max relative errors: {detail}", elapsed, 30.0)


def test_criterion_9_structural_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    ok = True
    for _ in range(50):
        model = random_mmdp(
            int(rng.integers(1, 4)), int(rng.integers(1, 4)),
            int(rng.integers(2, 4)), gamma=float(rng.uniform(0.3, 0.99)), rng=rng,
        )
        mdp = sequential_transform(model)
        back = inverse_transform(mdp, model.n_agents)
        ok &= np.array_equal(back.transition, model.transition)
        ok &= np.array_equal(back.reward, model.reward)
        ok &= abs(mdp.gamma**model.n_agents - model.gamma) < 1e-12
        ok &= size_report(model)["bound"]
        pc = CoordinationPolicy.random(
            model.n_agents, model.n_states, model.n_actions, rng
        )
        again = lower_policy(lift_policy(pc), model.n_agents)
        ok &= all(np.array_equal(a, b) for a, b in zip(pc.tables, again.tables))
        dec = greedy_distill(pc, model)
        determinized = CoordinationPolicy(
            tuple(
                np.eye(model.n_actions)[np.argmax(tab, axis=2)] for tab in pc.tables
            )
        )
        ok &= evaluate_policy(model, dec) == evaluate_policy(model, determinized)
    igm_ok = 0
    for draw in range(10**4):
        p = VdParams.random("duplex", 2, 1, 3, rng=10_000 + draw, scale=2.0)
        igm_ok += igm_check(p, 0)
    ok &= igm_ok == 10**4
    elapsed = time.perf_counter() - start
    report(
        9, ok,
        f"50 transform/policy round trips + size bounds exact, "
        f"{igm_ok}/10000 duplex draws consistent",
        elapsed, 60.0,
    )


def test_criterion_10_restricted_minimizer_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    worst = 0.0
    for trial in range(20):
        target = rng.uniform(-10, 10, size=(3, 3))
        weights = None if trial % 2 == 0 else rng.random(9) + 0.1
        code = int(rng.integers(9))
        pooled = restricted_minimizer(target, weights, code)
        scanned = level_scan_oracle(target, weights, code)
        worst = max(worst, float(np.abs(pooled - scanned).max()))
    ok = worst < 1e-6
    closed_ok = True
    for k in (3, 4, 5):
        tensor = undercut_diag_payoff(k, 2)
        values = undercut_diag_values(k)
        for l in range(k):
            out = restricted_minimizer(tensor, None, joint_code((l, l), k))
            diag = np.diagonal(out)
            closed_ok &= np.allclose(diag[:l], values[:l], atol=1e-12)
            closed_ok &= np.allclose(diag[l:], values[l:].mean(), atol=1e-12)
            closed_ok &= bool(np.all(out[~np.eye(k, dtype=bool)] == 0.0))
    ok &= closed_ok
    elapsed = time.perf_counter() - start
    report(
        10, ok,
        f"pooling vs level scan max diff {worst:.2e}; "
        f"closed-form diagonals reproduced",
        elapsed, 30.0,
    )
