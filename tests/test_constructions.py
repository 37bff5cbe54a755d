import hashlib

import numpy as np
import pytest

from tadlab import (
    brute_force_optimal,
    evaluate_policy,
    greedy_codes,
    joint_code,
    validate,
    vd_loss_and_grad,
)
from tadlab.constructions import (
    MATGAME2,
    MULTITASK_MATRICES,
    TABLE1,
    builtin_game,
    builtin_names,
    construct_local_minima,
    diag_tensor,
    random_matrix_game,
    random_mmdp,
    restricted_minimizer,
    undercut_diag_payoff,
    undercut_diag_values,
    undercut_recurrence,
)
from tadlab.core import matrix_game

# regression pins on the built-in tables; any edit to the payoffs trips these
GOLDEN_REWARD_SHA = {
    "table1": "160ed5d5999ce71c",
    "matgame2": "d1ef55021f272f6e",
    "multitask_1": "e92a77110d3eebb5",
    "multitask_2": "bedbfe82087fd11d",
    "multitask_3": "154e358e064bd8ec",
    "multitask_4": "a71bf3ba05973faf",
    "multitask_5": "23877302245b8e25",
    "multitask_6": "cb5f2811a5ef9d10",
    "multitask_7": "1a0970a917cda2de",
    "multitask_8": "8222183f6f414f3e",
    "multitask_9": "272c408f1be840e5",
    "multitask_10": "62106544392fed37",
    "multitask_suite": "8f4e01ca32fd6899",
}


def test_builtin_tables_exact_entries():
    assert TABLE1 == [[10, -30, -30], [-30, 5, -30], [-30, -30, 1]]
    assert MATGAME2 == [[-20, 10], [10, 9]]
    assert MULTITASK_MATRICES[2][0][0] == 10
    assert MULTITASK_MATRICES[6][4][1] == 10.0
    assert MULTITASK_MATRICES[5][0][4] == 6


def test_all_multitask_optima_are_ten():
    for i in range(1, 11):
        assert np.max(MULTITASK_MATRICES[i]) == 10
        best, _ = brute_force_optimal(builtin_game(f"multitask_{i}"))
        assert best == pytest.approx(10.0, abs=1e-12)


def test_builtin_checksums_stable():
    for name, expected in GOLDEN_REWARD_SHA.items():
        game = builtin_game(name)
        digest = hashlib.sha256(
            np.ascontiguousarray(game.reward).tobytes()
        ).hexdigest()[:16]
        assert digest == expected, name


def test_builtin_unknown_name():
    with pytest.raises(ValueError, match="unknown builtin"):
        builtin_game("matgame3")
    assert "multitask_suite" in builtin_names()


def test_multitask_suite_layout():
    suite = builtin_game("multitask_suite")
    assert suite.n_states == 10 and suite.n_agents == 2 and suite.n_actions == 5
    assert suite.horizon == 1
    assert np.all(suite.initial_dist == 0.1)
    assert validate(suite) == []
    assert np.array_equal(
        suite.reward[4].reshape(5, 5), np.asarray(MULTITASK_MATRICES[5], dtype=float)
    )


def test_diag_game_values():
    game = matrix_game(np.diag([1.0, 2.0, 3.0]))
    assert np.array_equal(game.reward.reshape(3, 3), np.diag([1.0, 2.0, 3.0]))
    game2 = matrix_game(np.diag([1.0, 2.0]))
    assert np.array_equal(game2.reward.reshape(2, 2), np.diag([1.0, 2.0]))
    assert pure_nash_enumerate(matrix_game(np.diag([1.0, 2.0, 3.0, 4.0]))) == {
        (i, i) for i in range(4)}


def test_undercut_recurrence_values():
    assert np.array_equal(undercut_recurrence(1), [0.0])
    assert np.array_equal(undercut_recurrence(5), [0.0, -1.0, -3.0, -9.0, -33.0])


def test_undercut_values_k3():
    assert np.array_equal(undercut_diag_values(3), [1.0, 3.0, 4.0])


def test_undercut_values_mean_gap_property():
    for k in (2, 3, 4, 5, 6):
        c = undercut_diag_values(k)
        assert np.all(c >= 1.0)
        assert np.all(np.diff(c) > 0)
        for l in range(k - 1):
            # each suffix mean falls short of the next value by 1/(k - l)
            assert c[l:].mean() == pytest.approx(c[l + 1] - 1.0 / (k - l), abs=1e-9)


def test_undercut_diag_payoff_shape():
    tensor = undercut_diag_payoff(3, 2)
    assert np.array_equal(np.diagonal(tensor), [1.0, 3.0, 4.0])
    off = tensor[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.0)


# ---------------------------------------------------------------------------
# restricted minimizer

from oracles import (
    construct_local_minima_oracle,
    fit_loss,
    level_scan_oracle,
    pure_nash_enumerate,
)


def test_restricted_minimizer_matgame2():
    out = restricted_minimizer(np.asarray(MATGAME2), None, joint_code((1, 1), 2))
    expected = np.array([[-20.0, 29 / 3], [29 / 3, 29 / 3]])
    assert np.allclose(out, expected, atol=1e-12)


def test_restricted_minimizer_identity_when_already_max():
    payoff = np.asarray(MATGAME2)
    out = restricted_minimizer(payoff, None, joint_code((0, 1), 2))
    assert np.array_equal(out, payoff)


def test_restricted_minimizer_pools_an_entry_just_above_the_level():
    # 1.0001 lies 1e-4 above a*'s 1.0, so a table that keeps it lacks a* among
    # its argmaxes; the fit pools both at their mean
    out = restricted_minimizer(np.array([1.0, 1.0001, 0.0]), None, 0)
    assert out[0] == out[1] == pytest.approx(1.00005, abs=1e-15)
    assert out[2] == 0.0


def test_restricted_minimizer_matches_level_scan_oracle():
    rng = np.random.default_rng(0)
    for trial in range(20):
        target = rng.uniform(-10, 10, size=(3, 3))
        weights = None if trial % 2 == 0 else rng.random(9) + 0.1
        code = int(rng.integers(9))
        pooled = restricted_minimizer(target, weights, code)
        scanned = level_scan_oracle(target, weights, code)
        assert np.abs(pooled - scanned).max() < 1e-6


def test_restricted_minimizer_output_is_feasible_and_locally_best():
    rng = np.random.default_rng(1)
    for _ in range(10):
        target = rng.uniform(-5, 5, size=(2, 2, 2))
        code = int(rng.integers(8))
        out = restricted_minimizer(target, None, code)
        flat = out.ravel()
        assert flat[code] >= flat.max() - 1e-12
        base = fit_loss(out, target, None)
        for _ in range(100):
            # random feasible competitor: keep the prescribed argmax on top
            cand = flat + rng.standard_normal(8) * 0.3
            cand = np.minimum(cand, cand[code])
            assert fit_loss(cand, target, None) >= base - 1e-12


def test_restricted_minimizer_closed_form_on_undercut_diagonals():
    for k in (3, 4, 5):
        tensor = undercut_diag_payoff(k, 2)
        c = undercut_diag_values(k)
        for l in range(k):
            out = restricted_minimizer(tensor, None, joint_code((l, l), k))
            diag = np.diagonal(out).copy()
            level = c[l:].mean()
            assert np.allclose(diag[:l], c[:l], atol=1e-12)
            assert np.allclose(diag[l:], level, atol=1e-12)
            assert np.all(out[~np.eye(k, dtype=bool)] == 0.0)


def test_restricted_minimizer_rejects_bad_dist():
    with pytest.raises(ValueError, match="support"):
        restricted_minimizer(np.asarray(MATGAME2), np.array([1.0, 0, 1, 1]), 3)


@pytest.mark.parametrize("weight", [np.nan, np.inf])
def test_restricted_minimizer_rejects_non_finite_dist(weight):
    with pytest.raises(ValueError, match="finite"):
        restricted_minimizer(np.asarray(MATGAME2), np.array([1.0, 1, 1, weight]), 3)


@pytest.mark.parametrize("bad", [np.nan, -np.inf])
def test_restricted_minimizer_refuses_non_finite_targets(bad):
    with pytest.raises(ValueError, match="target must be finite"):
        restricted_minimizer([[bad, 1.0], [0.0, 3.0]], None, 1)


# ---------------------------------------------------------------------------
# trap construction

def test_construct_local_minima_counts_and_permutation():
    tensor, points = construct_local_minima(3, 2)
    assert len(points) == 3
    diag = np.diagonal(tensor)
    assert sorted(diag) == sorted(undercut_diag_values(3).tolist())
    flat = tensor.reshape(-1)
    suboptimal = [p for p in points if flat[greedy_codes(p.q_local)[0]] < flat.max()]
    assert len(suboptimal) == 2


def test_construct_local_minima_points_are_stationary():
    from tadlab import igm_check

    tensor, points = construct_local_minima(3, 2)
    game = matrix_game(tensor)
    for theta in points:
        _, grad = vd_loss_and_grad(theta, game)
        assert np.linalg.norm(grad.pack()) < 1e-8
        assert igm_check(theta, 0)
        for i in range(2):
            row = theta.q_local[i, 0]
            assert np.sum(row >= row.max() - 1e-9) == 1


def test_construct_local_minima_three_agents():
    tensor, points = construct_local_minima(2, 3)
    assert tensor.shape == (2, 2, 2)
    game = matrix_game(tensor)
    for theta in points:
        _, grad = vd_loss_and_grad(theta, game)
        assert np.linalg.norm(grad.pack()) < 1e-8


#: every (k, n) with 2 <= k <= 6, 2 <= n <= 4 and at most 5000 joint actions
_TRAP_SIZES = [(k, n) for k in range(2, 7) for n in range(2, 5) if k**n <= 5000]


@pytest.mark.parametrize("k,n", _TRAP_SIZES)
def test_construct_local_minima_matches_the_search_bit_for_bit(k, n):
    tensor, points = construct_local_minima(k, n)
    want_tensor, want_points = construct_local_minima_oracle(k, n)
    assert tensor.tobytes() == want_tensor.tobytes()
    assert len(points) == len(want_points) == k
    for got, want in zip(points, want_points):
        assert got.q_local.tobytes() == want.q_local.tobytes()
        assert got.lam_raw.tobytes() == want.lam_raw.tobytes()


# ---------------------------------------------------------------------------
# random generators

def test_random_matrix_game_reproducible_and_in_range():
    a = random_matrix_game(5, 2, rng=42)
    b = random_matrix_game(5, 2, rng=42)
    assert np.array_equal(a.reward, b.reward)
    assert a.reward.min() >= -20.0 and a.reward.max() <= 10.0
    assert validate(a) == []


def test_random_mmdp_valid_and_reproducible():
    a = random_mmdp(3, 2, 2, gamma=0.9, rng=7)
    b = random_mmdp(3, 2, 2, gamma=0.9, rng=7)
    assert validate(a) == []
    assert np.array_equal(a.transition, b.transition)
    assert np.array_equal(a.reward, b.reward)


@pytest.mark.parametrize("code", [-1, 4])
def test_restricted_minimizer_refuses_codes_out_of_range(code):
    with pytest.raises(ValueError, match="joint code must lie in"):
        restricted_minimizer(np.asarray(MATGAME2), None, code)
