import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from datareach.harness import bundled_config, collect_data
from datareach.linalg import svd
from datareach.modelset import (
    DataSet,
    ModelSetError,
    build_model_sets,
    generator_norm_proxy,
)
from datareach.rightinv import pinv_right_inverse, row_norm_right_inverse
from datareach.sets import Zonotope, interval_hull

ROOT = Path(__file__).resolve().parents[1]


def simulate_transitions(rng, a, b, g_w, t):
    """Random-excitation data with recorded noise factors.

    Returns (DataSet, beta_star) where beta_star follows the t-major
    factor order of the model sets (factor l = t * p_w + j).
    """
    n_x, n_u = a.shape[0], b.shape[1]
    p_w = g_w.shape[1]
    x_minus = rng.uniform(-1.0, 1.0, size=(n_x, t))
    u_minus = rng.uniform(-1.0, 1.0, size=(n_u, t))
    factors = rng.uniform(-1.0, 1.0, size=(p_w, t))
    w = g_w @ factors
    x_plus = a @ x_minus + b @ u_minus + w
    beta_star = factors.T.reshape(-1)  # column t contributes entries t*p_w ... t*p_w+p_w-1
    return DataSet(x_plus, x_minus, u_minus), beta_star


def random_system(rng, n_x=3, n_u=2):
    a = 0.6 * rng.normal(size=(n_x, n_x)) / np.sqrt(n_x)
    b = rng.normal(size=(n_x, n_u))
    return a, b


def dense_reference(data, g_w, h):
    """The model sets built the long way: the noise matrix zonotope as a dense
    (p_w T) x n_x x T tensor of rank-one generators g_j e_t', the denoised set
    X_plus - W, its product with H, and the kernel constraints as the
    column-major vec of each denoised generator times Phi_perp.
    Returns (C, generators, A, b)."""
    n_x, p_w = g_w.shape
    t = data.T
    noise = np.zeros((p_w * t, n_x, t))
    for k in range(t):
        noise[k * p_w : (k + 1) * p_w, :, k] = g_w.T
    den_c = data.x_plus - np.zeros((n_x, t))
    den_g = -noise
    phi_perp = svd(data.phi).null
    r = phi_perp.shape[1]
    blocks = np.einsum("lnt,tr->lnr", den_g, phi_perp)
    a = blocks.transpose(0, 2, 1).reshape(p_w * t, r * n_x).T
    b = (-(den_c @ phi_perp)).flatten(order="F")
    keep = np.any(a != 0.0, axis=1)
    gens = np.einsum("lnt,td->lnd", den_g, h)
    return den_c @ h, gens, a[keep], b[keep]


def reference_cases():
    """(data, G_w) pairs: random noise generators, a zero row, a zero column,
    no noise, and a noise set of zero generators."""
    rng = np.random.default_rng(10)
    cases = []
    for _ in range(6):
        n_x, n_u = int(rng.integers(1, 5)), int(rng.integers(0, 3))
        p_w = int(rng.integers(1, 5))
        cases.append((n_x, n_u, rng.normal(size=(n_x, p_w)) * 0.05))
    cases.append((3, 1, np.array([[0.1, 0.0], [0.0, 0.0], [0.02, 0.03]])))  # zero row
    cases.append((3, 1, np.array([[0.1, 0.0, 0.0], [0.0, 0.0, 0.2], [0.0, 0.0, 0.1]])))  # zero column
    cases.append((2, 2, np.zeros((2, 0))))  # noise-free
    cases.append((2, 1, np.zeros((2, 2))))  # noise set of zero generators
    for n_x, n_u, g_w in cases:
        a_sys, b_sys = random_system(rng, n_x, n_u)
        data, _ = simulate_transitions(rng, a_sys, b_sys, g_w, int(rng.integers(n_x + n_u + 1, 25)))
        yield data, g_w


def test_closed_form_matches_dense_reference():
    for data, g_w in reference_cases():
        for h in (pinv_right_inverse(data.phi).h, row_norm_right_inverse(data.phi).h):
            bundle = build_model_sets(data, g_w, h)
            c, gens, a, b = dense_reference(data, g_w, h)
            for mset in (bundle.mz, bundle.cmz):
                assert np.array_equal(mset.C, c)
                assert np.array_equal(mset.generators, gens)
            assert np.array_equal(bundle.cmz.A, a)
            assert np.array_equal(bundle.cmz.b, b)
            # zero entries keep the reference's sign too, so emitted set
            # files do not change from "0.0" to "-0.0"
            assert np.array_equal(np.signbit(bundle.mz.generators), np.signbit(gens))
            assert np.array_equal(np.signbit(bundle.cmz.A), np.signbit(a))


def test_kernel_rows_span_the_orthonormal_basis_rows():
    # any basis Q of null(Phi) gives the same constraint set: with the
    # library's basis N = Q S (S invertible), its rows are T = kron(S', I)
    # times the rows built from Q, restricted to the noise rows kept
    for data, g_w in reference_cases():
        cmz = build_model_sets(data, g_w, pinv_right_inverse(data.phi).h).cmz
        d, t = data.phi.shape
        q = np.linalg.svd(data.phi)[2][d:].T  # orthonormal, from numpy directly
        a_ref = -np.kron(q.T, g_w)
        b_ref = -(data.x_plus @ q).flatten(order="F")
        s = q.T @ svd(data.phi).null
        assert np.allclose(q @ s, svd(data.phi).null, atol=1e-10)
        assert np.linalg.cond(s) < 1e3
        keep = np.tile(np.any(g_w != 0.0, axis=1), t - d)
        tr = np.kron(s.T, np.eye(data.n_x))[np.ix_(keep, keep)]
        assert cmz.A.shape == (np.count_nonzero(keep), t * g_w.shape[1])
        assert np.allclose(cmz.A, tr @ a_ref[keep], atol=1e-12)
        assert np.allclose(cmz.b, tr @ b_ref[keep], atol=1e-10)


def test_kernel_rows_are_sparse():
    # a kernel row holds one column of N (at most rank + 1 = d + 1 nonzeros)
    # times one row of G_w; on lti_5d (d = 8, diagonal G_w) that is 9 of 300
    for data, g_w in reference_cases():
        cmz = build_model_sets(data, g_w, pinv_right_inverse(data.phi).h).cmz
        bound = (data.d + 1) * np.tile(np.count_nonzero(g_w, axis=1), data.T - data.d)
        kept = bound > 0
        assert np.all(np.count_nonzero(cmz.A, axis=1) <= bound[kept])
    cfg = bundled_config("lti_5d")
    data, _ = collect_data(cfg, cfg.true_system(), "random")
    cmz = build_model_sets(data, cfg.w.G, pinv_right_inverse(data.phi).h).cmz
    assert cmz.A.shape == (5 * (data.T - data.d), 5 * data.T)
    assert np.max(np.count_nonzero(cmz.A, axis=1)) <= 9


def test_noise_mz_layout():
    # factor l = t * p_w + j places noise direction j in data column t, so
    # its model-set generator is -G_w[:, j] H[t, :]
    g_w = np.array([[0.1, 0.0], [0.0, 0.2]])
    data = DataSet(np.array([[1.0, 2.0, 0.5], [0.0, 1.0, -1.0]]),
                   np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]]), np.zeros((0, 3)))
    h = pinv_right_inverse(data.phi).h
    mz = build_model_sets(data, g_w, h).mz
    assert mz.shape == (2, 2)
    assert mz.num_generators == 6
    for t in range(3):
        for j in range(2):
            assert np.allclose(mz.generators[t * 2 + j], -np.outer(g_w[:, j], h[t]))


def test_denoised_center_and_generators():
    rng = np.random.default_rng(0)
    g_w = rng.normal(size=(2, 2)) * 0.1
    data, beta = simulate_transitions(rng, *random_system(rng, 2, 1), g_w, 6)
    h = pinv_right_inverse(data.phi).h
    bundle = build_model_sets(data, g_w, h)
    assert np.allclose(bundle.mz.C, data.x_plus @ h)
    # at any factor vector the set holds (X_plus - W) H with W = G_w [beta_t]
    w = g_w @ beta.reshape(-1, 2).T
    assert np.allclose(bundle.mz.at(beta), (data.x_plus - w) @ h)


def test_kernel_constraints_one_dimensional_oracle():
    # n_x = 1, T = 2, Phi = [1, 1]: the kernel is spanned by (1, -1).
    x_plus = np.array([[2.0, 3.0]])
    data = DataSet(x_plus, np.array([[1.0, 1.0]]), np.zeros((0, 2)))
    g_w = np.array([[0.1]])
    perp = svd(data.phi).null
    assert perp.shape == (2, 1)
    assert np.allclose(perp * perp[0, 0], [[1.0], [-1.0]])
    cmz = build_model_sets(data, g_w, np.array([[0.5], [0.5]])).cmz
    # column l of A is vec(-0.1 * e_l^T Phi_perp); rhs is -vec(X_plus Phi_perp)
    assert cmz.A.shape == (1, 2)
    assert np.allclose(cmz.A, [[-0.1 * perp[0, 0], -0.1 * perp[1, 0]]])
    assert np.isclose(cmz.b[0], -(x_plus @ perp)[0, 0])
    # the unique solution pins the noise difference: w0 - w1 = x+0 - x+1 (here)
    beta = np.linalg.lstsq(cmz.A, cmz.b, rcond=None)[0]
    assert np.isclose(cmz.A @ beta, cmz.b)


def test_kernel_constraints_block_consistency():
    rng = np.random.default_rng(1)
    a_sys, b_sys = random_system(rng)
    g_w = 0.05 * np.eye(3)
    data, _ = simulate_transitions(rng, a_sys, b_sys, g_w, 20)
    perp = svd(data.phi).null
    cmz = build_model_sets(data, g_w, pinv_right_inverse(data.phi).h).cmz
    kappa = cmz.num_generators
    assert cmz.A.shape == (3 * perp.shape[1], kappa)
    # column l = t * p_w + j of A is the column-major vec of -g_j e_t' Phi_perp
    for ell in range(0, kappa, 7):
        t, j = divmod(ell, 3)
        assert np.allclose(cmz.A[:, ell], (-np.outer(g_w[:, j], perp[t])).flatten(order="F"))
    assert np.allclose(cmz.b, -(data.x_plus @ perp).flatten(order="F"))


def test_zero_noise_rows_drop_constraints_and_check_consistency():
    rng = np.random.default_rng(7)
    a_sys, b_sys = random_system(rng, 2, 1)
    g_w = np.array([[0.05], [0.0]])  # no noise enters state 2
    data, beta = simulate_transitions(rng, a_sys, b_sys, g_w, 10)
    cmz = build_model_sets(data, g_w, pinv_right_inverse(data.phi).h).cmz
    nullity = 10 - 3
    assert cmz.A.shape == (nullity, 10)  # only the rows of state 1 remain
    assert np.max(np.abs(cmz.A @ beta - cmz.b)) <= 1e-9
    # state 2 then must be fit exactly by the data; break that and it raises
    bad = DataSet(data.x_plus + np.array([[0.0], [1.0]]) * rng.normal(size=10),
                  data.x_minus, data.u_minus)
    with pytest.raises(ModelSetError, match="inconsistent"):
        build_model_sets(bad, g_w, pinv_right_inverse(bad.phi).h)


def test_each_model_set_entry_point_factors_the_regressor_once(monkeypatch):
    rng = np.random.default_rng(8)
    data, _ = simulate_transitions(rng, *random_system(rng), 0.05 * np.eye(3), 20)
    h = np.linalg.pinv(data.phi)
    calls = []
    real_svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(args[0].shape)
        return real_svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    for fn in (pinv_right_inverse, row_norm_right_inverse,
               lambda phi: build_model_sets(data, 0.05 * np.eye(3), h)):
        calls.clear()
        fn(data.phi)
        assert calls == [data.phi.shape]
    # the data set keeps its factorization: more model sets built from it,
    # for any right inverse, run no SVD
    calls.clear()
    for h_other in (h, h + data.factors.null @ np.ones((data.T - data.d, data.d))):
        build_model_sets(data, 0.05 * np.eye(3), h_other)
    assert calls == []


def _flat(m):
    """The matrix zonotope m as a zonotope of vec(M), row-major."""
    return Zonotope(m.C.reshape(-1), m.generators.reshape(m.generators.shape[0], -1).T, m.A, m.b)


@pytest.mark.parametrize("mode", ["random", "designed"])
def test_pinv_and_row_norm_cmz_sets_share_rows_and_entry_hulls(mode):
    # the kernel rows (A, b) do not depend on the right inverse, and the
    # constrained model sets of two right inverses are one set written with
    # different generators: their entry hulls agree (lti_5d, seed 0: about
    # 3e-14 apart, against a median entry width near 0.01)
    cfg = bundled_config("lti_5d")
    data, _ = collect_data(cfg, cfg.true_system(), mode)
    pinv, row = (build_model_sets(data, cfg.w.G, inverse(data.phi).h).cmz
                 for inverse in (pinv_right_inverse, row_norm_right_inverse))
    for name in ("A", "b"):
        a, b = getattr(pinv, name), getattr(row, name)
        assert a.shape == b.shape and a.tobytes() == b.tobytes()
    (lo_p, hi_p), (lo_r, hi_r) = interval_hull(_flat(pinv)), interval_hull(_flat(row))
    assert np.all(hi_p - lo_p > 0.0)
    assert np.max(np.abs(lo_p - lo_r)) <= 1e-10 and np.max(np.abs(hi_p - hi_r)) <= 1e-10


def test_true_model_is_in_both_model_sets():
    rng = np.random.default_rng(2)
    for trial in range(5):
        a_sys, b_sys = random_system(rng)
        m_true = np.hstack([a_sys, b_sys])
        g_w = 0.02 * rng.uniform(0.5, 1.5, size=3)[None, :] * np.eye(3)
        data, beta_star = simulate_transitions(rng, a_sys, b_sys, g_w, 25)
        h = svd(data.phi).pinv
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
    h1 = svd(phi).pinv
    null = svd(phi).null
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
    h = svd(data.phi).pinv
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
    h = svd(data.phi).pinv
    bundle = build_model_sets(data, g_w, h)
    expected = np.linalg.norm(g_w, axis=0).sum() * np.linalg.norm(h, axis=1).sum()
    assert np.isclose(generator_norm_proxy(bundle.mz), expected, rtol=1e-10)


def test_dataset_validation_and_round_trip():
    with pytest.raises(ValueError):
        DataSet(np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((1, 5)))
    with pytest.raises(ValueError):
        DataSet(np.zeros((2, 5)), np.zeros((2, 5)), np.zeros(5))
    data = DataSet(np.ones((2, 4)), np.zeros((2, 4)), np.ones((1, 4)))
    assert data.phi.shape == (3, 4)
    assert data.d == 3 and data.T == 4


def test_dataset_validation_survives_python_optimize_flag():
    # python -O strips assert statements; the shape checks must still raise
    code = ("import numpy as np\n"
            "from datareach import DataSet\n"
            "try:\n"
            "    DataSet(np.zeros((2, 5)), np.zeros((2, 4)), np.zeros((1, 5)))\n"
            "except ValueError:\n"
            "    print('raised')\n")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "raised"
