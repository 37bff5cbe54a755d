import numpy as np
import pytest

from tadlab import (
    MapgParams,
    VdParams,
    duplex_decompose,
    duplex_trap_certificate,
    evaluate_policy,
    grad_check,
    greedy_codes,
    local_min_certificate,
    mapg_objective,
    ne_count_exact,
    ne_count_expectation,
    stationarity_certificate,
    suboptimality_gap,
    vd_objective,
)
from tadlab import analysis, claims
from tadlab.analysis import SLACK
from tadlab.constructions import (
    builtin_game,
    construct_local_minima,
    random_mmdp,
    restricted_minimizer,
)
from tadlab.core import matrix_game
from oracles import ne_count_bruteforce, pure_nash_enumerate

TABLE1 = builtin_game("table1")


def quadratic(x):
    return 0.5 * float(x @ x), x


def test_grad_check_quadratic():
    assert grad_check(quadratic, np.array([1.0, -2.0, 3.0])) < 1e-9


def test_stationarity_random_point_is_not_stationary():
    params = MapgParams(np.random.default_rng(0).standard_normal((2, 1, 3)))
    ok, norm = stationarity_certificate(mapg_objective(params, TABLE1),
                                        params.pack(), 1e-8)
    assert not ok and norm > 1e-3


def test_stationarity_near_deterministic_optimum():
    params = MapgParams.concentrated(2, 1, 3, (0, 0), 30.0)
    ok, norm = stationarity_certificate(mapg_objective(params, TABLE1),
                                        params.pack(), 1e-8)
    assert ok and norm < 1e-9


def test_local_min_certificate_convex_bowl():
    rng = np.random.default_rng(1)
    assert local_min_certificate(quadratic, np.zeros(3), radius=5.0,
                                 samples=2000, rng=rng)


def test_local_min_certificate_trap_is_flat_at_high_concentration():
    # at strong concentration the whole small ball moves the loss less than
    # the certificate slack, matching the deterministic-limit argument
    params = MapgParams.concentrated(2, 1, 3, (1, 1), 30.0)
    ok = local_min_certificate(mapg_objective(params, TABLE1), params.pack(),
                               radius=0.05, samples=2000, rng=2)
    assert ok


def test_local_min_certificate_finds_escape_at_large_radius():
    # radius 10 reaches logits that flip both agents to the global optimum
    params = MapgParams.concentrated(2, 1, 3, (1, 1), 5.0)
    ok = local_min_certificate(mapg_objective(params, TABLE1), params.pack(),
                               radius=10.0, samples=2000, rng=3)
    assert not ok


@pytest.mark.parametrize("samples", [0, -5])
def test_local_min_certificate_rejects_no_samples(samples):
    with pytest.raises(ValueError, match="samples"):
        local_min_certificate(quadratic, np.zeros(3), radius=1.0, samples=samples, rng=0)


def test_suboptimality_gaps_on_builtin_games():
    assert suboptimality_gap(TABLE1, np.array([0])) == pytest.approx(
        0.0, abs=1e-10
    )
    assert suboptimality_gap(TABLE1, np.array([4])) == pytest.approx(
        5.0, abs=1e-10
    )
    m2 = builtin_game("matgame2")
    assert suboptimality_gap(m2, np.array([3])) == pytest.approx(
        1.0, abs=1e-10
    )


def test_suboptimality_gap_non_negative_on_random_models():
    rng = np.random.default_rng(4)
    for seed in range(10):
        model = random_mmdp(3, 2, 2, gamma=0.9, rng=seed)
        actions = rng.integers(4, size=3)
        gap = suboptimality_gap(model, actions)
        assert gap >= -1e-9


def test_ne_count_trivial_single_action():
    mean, stderr = ne_count_expectation(1, 100, rng=0)
    assert mean == 1.0 and stderr == 0.0


def test_ne_count_two_actions_matches_closed_form():
    mean, stderr = ne_count_expectation(2, 50000, rng=1)
    assert ne_count_exact(2) == pytest.approx(4 / 3)
    assert abs(mean - 4 / 3) < 3 * stderr


def test_ne_count_matches_enumeration_oracle():
    mean, stderr = ne_count_expectation(3, 40000, rng=2)
    slow = ne_count_bruteforce(3, 2000, rng=3)
    assert abs(mean - slow) < 4 * max(stderr, np.sqrt(2.0 / 2000))


def test_ne_count_invariant_to_positive_affine_payoffs():
    # equilibrium structure only depends on argmax comparisons, so any
    # positive scale and shift leaves counts unchanged on shared seeds
    rng1 = np.random.default_rng(5)
    rng2 = np.random.default_rng(5)
    counts1 = []
    counts2 = []
    from tadlab.core import matrix_game

    for _ in range(200):
        payoff = rng1.uniform(-20, 10, size=(4, 4))
        counts1.append(len(pure_nash_enumerate(matrix_game(payoff))))
        payoff2 = 3.5 * rng2.uniform(-20, 10, size=(4, 4)) + 11.0
        counts2.append(len(pure_nash_enumerate(matrix_game(payoff2))))
    assert counts1 == counts2


def test_ne_count_rejects_no_trials():
    with pytest.raises(ValueError):
        ne_count_expectation(3, 0, rng=0)


# ---------------------------------------------------------------------------
# the exact trap certificate of value-decomposition points on one-step games

#: every (k, n) of the trap construction's oracle test
_TRAP_SIZES = [(k, n) for k in range(2, 7) for n in range(2, 5) if k**n <= 5000]


@pytest.mark.parametrize("k,n", _TRAP_SIZES)
def test_trap_certificate_holds_at_every_constructed_point(k, n):
    tensor, points = construct_local_minima(k, n)
    game = matrix_game(tensor)
    for params in points:
        margin, radius, excess = duplex_trap_certificate(params, game)
        assert margin == 1.0 and radius == 0.5
        assert abs(excess) <= (1e-12 if (k, n) == (3, 2) else 1e-11)


def _tie_first_agent(params):
    """`params` with agent 0's runner-up local value raised to its best."""
    q = params.q_local.copy()
    best = q[0, 0].argmax()
    q[0, 0, (best + 1) % q.shape[-1]] = q[0, 0, best]
    return VdParams("duplex", q, lam_raw=params.lam_raw)


def test_trap_certificate_fails_when_an_agent_ties(monkeypatch):
    tensor, points = construct_local_minima(3, 2)
    tied = [_tie_first_agent(points[0])] + points[1:]
    margin, radius, excess = duplex_trap_certificate(tied[0], matrix_game(tensor))
    assert margin == 0.0 and radius == 0.0 and excess > 0.4
    monkeypatch.setattr(claims, "construct_local_minima", lambda k, n: (tensor, tied))
    record = claims.vd_traps()
    assert not record.ok
    assert dict((label, ok) for label, ok, _ in record.checks)["point 0 local minimum"] is False
    assert record.numbers["local_min"].tolist() == [False, True, True]


def test_trap_certificate_excess_keeps_its_sign(monkeypatch):
    # the floor bounds every feasible loss, so only a loss shifted below it
    # can show the sign: the excess must read about -1, not its absolute value
    tensor, points = construct_local_minima(3, 2)
    objective = analysis.vd_objective

    def shifted(params, model):
        f = objective(params, model)
        return lambda x: (f(x)[0] - 1.0,) + f(x)[1:]

    monkeypatch.setattr(analysis, "vd_objective", shifted)
    _, _, excess = duplex_trap_certificate(points[0], matrix_game(tensor))
    assert -1.0 <= excess < -1.0 + 1e-11


def _cylinder_points(params, radius, count, rng):
    """`count` packed points whose local values lie within `radius` of
    `params`' (sup norm), each with a fresh N(0, 25) mixer array."""
    q = params.q_local + radius * rng.uniform(-1.0, 1.0, (count,) + params.q_local.shape)
    mix = None if params.mix is None else 5.0 * rng.standard_normal((count,) + params.mix.shape)
    return VdParams(params.variant, q, w_raw=mix if params.variant == "monotonic" else None,
                    lam_raw=mix if params.variant == "duplex" else None).pack()


#: a three-state one-step model and one greedy joint code per state
_ONE_STEP = random_mmdp(3, 2, 3, gamma=0.9, rng=5, horizon=1)
_CODES = np.array([4, 0, 7])


def _decomposed_point():
    """Duplex params whose table is each state's restricted minimizer of
    `_ONE_STEP` at its code in `_CODES`."""
    fit = np.stack([restricted_minimizer(row, None, code)
                    for row, code in zip(_ONE_STEP.reward, _CODES)])
    return duplex_decompose(fit, _CODES, 2)


def test_trap_certificate_floors_each_state_on_its_own():
    params = _decomposed_point()
    assert greedy_codes(params.q_local).tolist() == _CODES.tolist()
    margin, radius, excess = duplex_trap_certificate(params, _ONE_STEP)
    assert margin == 1.0 and radius == 0.5 and abs(excess) <= 1e-12


def _sampled_models():
    """(params, one-step model): claim 2's points, the decomposed
    three-state point, then a random point of each mixer."""
    tensor, points = construct_local_minima(3, 2)
    for params in points:
        yield params, matrix_game(tensor)
    yield _decomposed_point(), _ONE_STEP
    for i, variant in enumerate(("vdn", "monotonic", "duplex")):
        yield VdParams.random(variant, 2, 3, 3, rng=i, scale=2.0), _ONE_STEP


def test_no_point_inside_the_cylinder_beats_the_floor():
    # the certificate's theorem, sampled: any local values within the radius
    # and any mixer parameters give a loss at least the point's loss less
    # the excess
    rng = np.random.default_rng(11)
    for params, model in _sampled_models():
        margin, radius, excess = duplex_trap_certificate(params, model)
        assert margin > 0
        f = vd_objective(params, model)
        floor = f(params.pack())[0] - excess
        losses = f(_cylinder_points(params, radius, 2000, rng))[0]
        assert losses.min() >= floor - 1e-12


def test_ball_sampler_agrees_at_each_claim_point():
    tensor, points = construct_local_minima(3, 2)
    game = matrix_game(tensor)
    for seed, params in enumerate(points):
        margin, _, excess = duplex_trap_certificate(params, game)
        assert margin > 0 and excess <= SLACK
        assert local_min_certificate(vd_objective(params, game), params.pack(),
                                     radius=0.02, samples=2000, rng=seed)


def test_trap_certificate_refuses_episodic_models(partly_reached_models):
    layered = partly_reached_models[0]
    params = VdParams.zeros("duplex", 2, layered.n_states, 2)
    with pytest.raises(ValueError, match="one-step"):
        duplex_trap_certificate(params, layered)


def test_local_min_certificate_refuses_a_nan_radius():
    with pytest.raises(ValueError, match="radius must be positive"):
        local_min_certificate(quadratic, np.zeros(3), radius=float("nan"), samples=5, rng=0)
