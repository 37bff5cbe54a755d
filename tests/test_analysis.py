import numpy as np
import pytest

from tadlab import (
    DeterministicJointPolicy,
    MapgParams,
    evaluate_policy,
    grad_check,
    local_min_certificate,
    mapg_objective,
    ne_count_exact,
    ne_count_expectation,
    stationarity_certificate,
    suboptimality_gap,
)
from tadlab.constructions import builtin_game, random_mmdp
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


def test_suboptimality_gaps_on_builtin_games():
    assert suboptimality_gap(TABLE1, DeterministicJointPolicy([0])) == pytest.approx(
        0.0, abs=1e-10
    )
    assert suboptimality_gap(TABLE1, DeterministicJointPolicy([4])) == pytest.approx(
        5.0, abs=1e-10
    )
    m2 = builtin_game("matgame2")
    assert suboptimality_gap(m2, DeterministicJointPolicy([3])) == pytest.approx(
        1.0, abs=1e-10
    )


def test_suboptimality_gap_non_negative_on_random_models():
    rng = np.random.default_rng(4)
    for seed in range(10):
        model = random_mmdp(3, 2, 2, gamma=0.9, rng=seed)
        actions = rng.integers(4, size=3)
        gap = suboptimality_gap(model, DeterministicJointPolicy(actions))
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


def ring_objective(x):
    """Flat inside radius 0.019975, falling outside: about one ball sample
    in 400 escapes a radius-0.02 ball around the origin."""
    return -np.maximum(0.0, np.linalg.norm(x, axis=-1) - 0.019975), None


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_stacked_local_min_certificate_matches_sequential_calls(seed):
    points = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [0.0, 0.0]])
    stacked_rng = np.random.default_rng(seed)
    stacked = local_min_certificate(ring_objective, points, radius=0.02,
                                    samples=1000, rng=stacked_rng)
    rng = np.random.default_rng(seed)
    sequential = [local_min_certificate(ring_objective, p, radius=0.02,
                                        samples=1000, rng=rng) for p in points]
    assert stacked.tolist() == sequential
    assert not sequential[2]
    assert stacked_rng.bit_generator.state == rng.bit_generator.state


def test_stacked_certificate_finds_escapes_past_the_first_chunk():
    # seeds whose first escape lands after sample 256 exercise the rewind
    late = 0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        held = local_min_certificate(ring_objective, np.zeros((1, 2)), radius=0.02,
                                     samples=1000, rng=rng)
        ref = np.random.default_rng(seed)
        for drawn in range(1, 1001):
            ref.standard_normal(2)  # the direction
            r = 0.02 * ref.random() ** 0.5
            if r > 0.019975 + 1e-9:
                break
        assert held[0] == (r <= 0.019975 + 1e-9)
        if not held[0]:
            assert rng.bit_generator.state == ref.bit_generator.state
            late += drawn > 256
    assert late > 0
