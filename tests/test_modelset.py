import numpy as np
import pytest

from datareach.linalg import nullspace_basis, pseudoinverse
from datareach.modelset import (
    DataSet,
    ModelSetError,
    build_denoised,
    build_model_sets,
    build_noise_mz,
    generator_norm_proxy,
    kernel_constraints,
)


def simulate_transitions(rng, a, b, g_w, t):
    """Random-excitation data with recorded noise factors.

    Returns (DataSet, beta_star) where beta_star follows the t-major
    generator order of build_noise_mz.
    """
    n_x, n_u = a.shape[0], b.shape[1]
    p_w = g_w.shape[1]
    x_minus = rng.uniform(-1.0, 1.0, size=(n_x, t))
    u_minus = rng.uniform(-1.0, 1.0, size=(n_u, t))
    factors = rng.uniform(-1.0, 1.0, size=(p_w, t))
    w = g_w @ factors
    x_plus = a @ x_minus + b @ u_minus + w
    beta_star = factors.T.reshape(-1)  # column t contributes entries t*p_w ... t*p_w+p_w-1
    return DataSet(x_plus, x_minus, u_minus, (t,)), beta_star


def random_system(rng, n_x=3, n_u=2):
    a = 0.6 * rng.normal(size=(n_x, n_x)) / np.sqrt(n_x)
    b = rng.normal(size=(n_x, n_u))
    return a, b


def test_noise_mz_layout():
    g_w = np.array([[0.1, 0.0], [0.0, 0.2]])
    mz = build_noise_mz(g_w, 3)
    assert mz.shape == (2, 3)
    assert mz.num_generators == 6
    assert np.allclose(mz.C, 0.0)
    for t in range(3):
        for j in range(2):
            gen = mz.generators[t * 2 + j]
            expected = np.zeros((2, 3))
            expected[:, t] = g_w[:, j]
            assert np.allclose(gen, expected)


def test_denoised_center_and_generators():
    rng = np.random.default_rng(0)
    g_w = rng.normal(size=(2, 2)) * 0.1
    x_plus = rng.normal(size=(2, 4))
    noise = build_noise_mz(g_w, 4)
    den = build_denoised(x_plus, noise)
    assert np.allclose(den.C, x_plus)
    assert np.allclose(den.generators, -noise.generators)


def test_kernel_constraints_one_dimensional_oracle():
    # n_x = 1, T = 2, Phi = [1, 1]: the kernel is spanned by (1, -1)/sqrt(2).
    x_plus = np.array([[2.0, 3.0]])
    data = DataSet(x_plus, np.array([[1.0, 1.0]]), np.zeros((0, 2)))
    g_w = np.array([[0.1]])
    noise = build_noise_mz(g_w, 2)
    den = build_denoised(x_plus, noise)
    perp = nullspace_basis(data.phi)
    assert perp.shape == (2, 1)
    a, b = kernel_constraints(den, perp)
    # column l of A is vec(-0.1 * e_l^T Phi_perp); rhs is -vec(X_plus Phi_perp)
    assert a.shape == (1, 2)
    assert np.allclose(a, [[-0.1 * perp[0, 0], -0.1 * perp[1, 0]]])
    assert np.isclose(b[0], -(x_plus @ perp)[0, 0])
    # the unique solution pins the noise difference: w0 - w1 = x+0 - x+1 (here)
    beta = np.linalg.lstsq(a, b, rcond=None)[0]
    assert np.isclose(a @ beta, b)


def test_kernel_constraints_block_consistency():
    rng = np.random.default_rng(1)
    a_sys, b_sys = random_system(rng)
    g_w = 0.05 * np.eye(3)
    data, _ = simulate_transitions(rng, a_sys, b_sys, g_w, 20)
    noise = build_noise_mz(g_w, 20)
    den = build_denoised(data.x_plus, noise)
    perp = nullspace_basis(data.phi)
    a, b = kernel_constraints(den, perp)
    kappa = den.num_generators
    assert a.shape == (3 * perp.shape[1], kappa)
    # column l of A is the column-major vec of the block G_l @ Phi_perp
    for ell in range(0, kappa, 7):
        assert np.allclose(a[:, ell], (den.generators[ell] @ perp).flatten(order="F"))
    assert np.allclose(b, -(den.C @ perp).flatten(order="F"))


def test_true_model_is_in_both_model_sets():
    rng = np.random.default_rng(2)
    for trial in range(5):
        a_sys, b_sys = random_system(rng)
        m_true = np.hstack([a_sys, b_sys])
        g_w = 0.02 * rng.uniform(0.5, 1.5, size=3)[None, :] * np.eye(3)
        data, beta_star = simulate_transitions(rng, a_sys, b_sys, g_w, 25)
        h = pseudoinverse(data.phi)
        bundle = build_model_sets(data, g_w, h)
        assert np.all(np.abs(beta_star) <= 1.0)
        # evaluating the model set at the recorded noise factors recovers M
        assert np.allclose(bundle.mz.at(beta_star), m_true, atol=1e-9)
        assert np.allclose(bundle.cmz.at(beta_star), m_true, atol=1e-9)
        # and those factors satisfy the kernel constraints
        residual = bundle.cmz.A @ beta_star - bundle.cmz.b
        assert np.max(np.abs(residual)) <= 1e-9


def test_kernel_constraints_do_not_depend_on_right_inverse():
    rng = np.random.default_rng(3)
    a_sys, b_sys = random_system(rng)
    g_w = 0.03 * np.eye(3)
    data, _ = simulate_transitions(rng, a_sys, b_sys, g_w, 18)
    phi = data.phi
    h1 = pseudoinverse(phi)
    null = nullspace_basis(phi)
    h2 = h1 + null @ rng.normal(size=(null.shape[1], phi.shape[0]))
    assert np.allclose(phi @ h2, np.eye(phi.shape[0]), atol=1e-8)
    b1 = build_model_sets(data, g_w, h1)
    b2 = build_model_sets(data, g_w, h2)
    assert np.allclose(b1.cmz.A, b2.cmz.A)
    assert np.allclose(b1.cmz.b, b2.cmz.b)
    # the centers and generators do differ
    assert not np.allclose(b1.mz.C, b2.mz.C)


def test_build_model_sets_validates_inputs():
    rng = np.random.default_rng(4)
    # rank-deficient regressor: a repeated state/input column pattern
    x_minus = np.ones((2, 6))
    u_minus = np.ones((1, 6))
    x_plus = rng.normal(size=(2, 6))
    data = DataSet(x_plus, x_minus, u_minus)
    with pytest.raises(ModelSetError):
        build_model_sets(data, 0.1 * np.eye(2), np.zeros((6, 3)))

    a_sys, b_sys = random_system(rng, 2, 1)
    g_w = 0.05 * np.eye(2)
    data, _ = simulate_transitions(rng, a_sys, b_sys, g_w, 12)
    bad_h = np.zeros((12, 3))
    with pytest.raises(ModelSetError):
        build_model_sets(data, g_w, bad_h)


def test_noiseless_data_gives_singleton_model_set():
    rng = np.random.default_rng(5)
    a_sys, b_sys = random_system(rng, 2, 1)
    m_true = np.hstack([a_sys, b_sys])
    data, _ = simulate_transitions(rng, a_sys, b_sys, np.zeros((2, 0)), 10)
    h = pseudoinverse(data.phi)
    bundle = build_model_sets(data, np.zeros((2, 0)), h)
    assert bundle.mz.num_generators == 0
    assert np.allclose(bundle.mz.C, m_true, atol=1e-8)
    assert bundle.cmz.num_constraints == 0
    assert generator_norm_proxy(bundle.mz) == 0.0


def test_generator_norm_proxy_values_and_factorization():
    from datareach.sets import MatrixZonotope

    g1 = np.array([[3.0, 0.0], [0.0, 4.0]])  # frobenius 5
    g2 = np.array([[1.0, 0.0], [0.0, 0.0]])  # frobenius 1
    mz = MatrixZonotope(np.zeros((2, 2)), np.stack([g1, g2]))
    assert np.isclose(generator_norm_proxy(mz), 6.0)

    # for the model set built from rank-one noise generators, the proxy
    # factorizes into (sum of noise norms) * (sum of H row norms)
    rng = np.random.default_rng(6)
    a_sys, b_sys = random_system(rng)
    g_w = 0.04 * rng.normal(size=(3, 2))
    data, _ = simulate_transitions(rng, a_sys, b_sys, g_w, 15)
    h = pseudoinverse(data.phi)
    bundle = build_model_sets(data, g_w, h)
    expected = np.linalg.norm(g_w, axis=0).sum() * np.linalg.norm(h, axis=1).sum()
    assert np.isclose(generator_norm_proxy(bundle.mz), expected, rtol=1e-10)


def test_dataset_validation_and_round_trip():
    with pytest.raises(AssertionError):
        DataSet(np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((1, 5)))
    with pytest.raises(AssertionError):
        DataSet(np.zeros((2, 5)), np.zeros((2, 5)), np.zeros((1, 5)), (2, 2))
    data = DataSet(np.ones((2, 4)), np.zeros((2, 4)), np.ones((1, 4)), (2, 2))
    back = DataSet.from_dict(data.to_dict())
    assert np.allclose(back.phi, data.phi)
    assert back.traj_lengths == (2, 2)
    assert back.d == 3 and back.T == 4
