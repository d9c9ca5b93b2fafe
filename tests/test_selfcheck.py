import numpy as np

from datareach.selfcheck import _facet_normals, check_kernel_consistency, run_selfcheck


def test_suite_passes_within_budget():
    report = run_selfcheck(0)
    assert report["ok"]
    assert report["runtime_s"] < 60.0
    names = [c["name"] for c in report["checks"]]
    assert names == sorted(set(names), key=names.index) and len(names) == 9


def test_kernel_check_reports_row_sparsity_and_null_residual():
    # d = 5 and a diagonal G_w: a kernel row has at most d + 1 = 6 nonzeros
    check = check_kernel_consistency(0)
    assert check["ok"]
    assert 0 < check["max_row_nonzeros"] <= 6
    assert check["null_residual"] <= 1e-12


def test_report_is_deterministic():
    a, b = run_selfcheck(3), run_selfcheck(3)
    a.pop("runtime_s"), b.pop("runtime_s")
    assert a == b


def test_facet_normals_give_exact_box_membership():
    # axis-aligned box: facet test must match the coordinate bounds exactly
    g = np.diag([2.0, 0.5])
    normals = _facet_normals(g)
    radii = np.sum(np.abs(normals @ g), axis=1)

    def inside(p):
        return bool(np.all(np.abs(normals @ p) <= radii + 1e-12))

    assert inside(np.array([1.9, 0.49]))
    assert inside(np.array([-2.0, 0.5]))
    assert not inside(np.array([2.01, 0.0]))
    assert not inside(np.array([0.0, 0.51]))


def test_facet_normals_reject_parallel_generators():
    g = np.column_stack([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    normals = _facet_normals(g)
    assert np.all(np.linalg.norm(normals, axis=1) > 1e-9)
