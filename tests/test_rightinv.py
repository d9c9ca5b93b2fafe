
import numpy as np
import pytest

from datareach.rightinv import (
    RightInverseError,
    pinv_right_inverse,
    row_norm_right_inverse,
    row_norm_sum,
    verify_sandwich,
)

# Independently computed SOCP optima (interior-point solver) for the regressors
# produced by np.random.default_rng(777) at the sizes below, frozen here.
FROZEN_OPTIMA = {
    "a": ((3, 12), 1.7727517148),
    "b": ((5, 30), 2.0469831965),
    "c": ((2, 40), 0.7613535806),
    "d": ((8, 64), 2.6192592913),
}


def frozen_cases():
    rng = np.random.default_rng(777)
    for label, ((d, t), opt) in FROZEN_OPTIMA.items():
        yield label, rng.normal(size=(d, t)), opt


def test_row_norm_objective_matches_frozen_optima():
    for label, phi, opt in frozen_cases():
        res = row_norm_right_inverse(phi)
        assert abs(res.row_norm_sum - opt) <= 1e-6, (label, res.row_norm_sum, opt)
        assert res.feasibility_residual <= 1e-10


def test_hand_solvable_instances():
    # max |h1| + |h2| subject to h1 + h2 = 1 has optimum 1 (any split works)
    res = row_norm_right_inverse(np.array([[1.0, 1.0]]))
    assert np.isclose(res.row_norm_sum, 1.0, atol=1e-8)
    # duplicated identity columns: each unit row must be reproduced, optimum 2
    res = row_norm_right_inverse(np.hstack([np.eye(2), np.eye(2)]))
    assert np.isclose(res.row_norm_sum, 2.0, atol=1e-8)


def test_pinv_right_inverse_properties():
    rng = np.random.default_rng(0)
    phi = rng.normal(size=(4, 20))
    res = pinv_right_inverse(phi)
    assert res.method == "pinv"
    assert res.feasibility_residual <= 1e-10
    assert np.isclose(res.frobenius_norm, np.linalg.norm(np.linalg.pinv(phi), "fro"))
    assert res.row_norm_sum >= res.frobenius_norm - 1e-12


def test_row_norm_never_exceeds_pinv_objective():
    rng = np.random.default_rng(1)
    for _ in range(25):
        d = int(rng.integers(2, 9))
        t = int(rng.integers(d + 1, 81))
        phi = rng.normal(size=(d, t)) * rng.uniform(0.3, 3.0)
        row = row_norm_right_inverse(phi)
        piv = pinv_right_inverse(phi)
        assert row.feasibility_residual <= 1e-10
        assert row.row_norm_sum <= piv.row_norm_sum + 1e-7
        sw = verify_sandwich(phi, row)
        assert sw.holds
        assert sw.lower <= sw.value + 1e-9 <= sw.upper + 2e-9


def test_sandwich_bounds_are_the_stated_ones():
    rng = np.random.default_rng(2)
    phi = rng.normal(size=(3, 17))
    res = row_norm_right_inverse(phi)
    sw = verify_sandwich(phi, res)
    fro = np.linalg.norm(np.linalg.pinv(phi), "fro")
    assert np.isclose(sw.lower, fro)
    assert np.isclose(sw.upper, np.sqrt(17) * fro)


def test_rank_deficient_phi_is_rejected():
    phi = np.vstack([np.ones(10), np.ones(10)])
    with pytest.raises(RightInverseError):
        row_norm_right_inverse(phi)
    with pytest.raises(RightInverseError):
        pinv_right_inverse(phi)


def test_iteration_cap_raises_but_keeps_best_feasible_iterate():
    rng = np.random.default_rng(3)
    phi = rng.normal(size=(4, 30))
    with pytest.raises(RightInverseError) as info:
        row_norm_right_inverse(phi, max_iter=5)
    best = info.value.best
    assert best is not None
    assert best.feasibility_residual <= 1e-10  # polish still ran
    assert best.iterations == 5
    with pytest.raises(ValueError, match="max_iter"):
        row_norm_right_inverse(phi, max_iter=0)


def test_row_norm_sum_helper():
    h = np.array([[3.0, 4.0], [0.0, 0.0], [1.0, 0.0]])
    assert np.isclose(row_norm_sum(h), 6.0)
