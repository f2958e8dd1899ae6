import numpy as np
import pytest

from pcsgd import Mesh1D, quadrature_points
from pcsgd.fem1d import element_hats, hat_tables, lifting_tables
from reference import LiftingFunction, eval_dphi, eval_phi


def test_mesh_geometry():
    mesh = Mesh1D(10.0, 4)
    assert mesh.h == pytest.approx(2.0)
    np.testing.assert_allclose(mesh.nodes, [-5.0, -3.0, -1.0, 1.0, 3.0, 5.0])


def test_mesh_validation():
    with pytest.raises(ValueError):
        Mesh1D(-1.0, 4)
    with pytest.raises(ValueError):
        Mesh1D(1.0, 0)


@pytest.mark.parametrize("length", [float("nan"), float("inf")])
def test_mesh_rejects_a_non_finite_length(length):
    with pytest.raises(ValueError, match="finite and positive"):
        Mesh1D(length, 4)


@pytest.mark.parametrize("x", [float("nan"), float("inf"), -float("inf")])
def test_hats_reject_a_non_finite_point(x):
    mesh = Mesh1D(4.0, 3)
    for evaluate in (eval_phi, eval_dphi):
        with pytest.raises(ValueError, match="outside the mesh domain"):
            evaluate(mesh, 1, np.array([0.0, x]))


@pytest.mark.parametrize("length, n_interior", [(10.0, 4), (12.0, 100), (0.3, 1), (4.0, 3)])
def test_element_hats_of_an_array_are_the_hats_of_each_point_alone(length, n_interior):
    """Each row is bit for bit the point's own call and the scalar formula, ends included."""
    mesh = Mesh1D(length, n_interior)
    half, tol = length / 2.0, 1e-12 * length
    x = np.concatenate([
        [-half - tol / 2, -half, half, half + tol / 2],
        mesh.nodes,
        quadrature_points(mesh, 4).points,
        np.random.default_rng(3).uniform(-half, half, 50),
    ])
    elements, hats = element_hats(mesh, x)
    assert hats.shape == (x.size, 2) and hats.flags.c_contiguous
    for point, element, row in zip(x, elements, hats):
        alone_element, alone_hats = element_hats(mesh, np.array([point]))
        assert alone_element[0] == element
        np.testing.assert_array_equal(alone_hats[0], row)
        assert element == min(int((float(point) + half) / mesh.h), n_interior)
        t = (float(point) - mesh.nodes[element]) / mesh.h
        np.testing.assert_array_equal(row, [1.0 - t, t])


def test_element_hats_reject_an_array_with_one_point_outside():
    mesh = Mesh1D(4.0, 3)
    with pytest.raises(ValueError, match="outside the mesh domain"):
        element_hats(mesh, np.array([0.0, 2.5, 1.0]))


def test_quadrature_integrates_polynomials_exactly():
    """q-point Gauss-Legendre is exact through degree 2q-1 on each element."""
    mesh = Mesh1D(3.0, 5)
    rule = quadrature_points(mesh, 4)
    for degree in range(8):
        integral = np.sum(rule.weights * rule.points**degree)
        a, b = -1.5, 1.5
        exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
        assert integral == pytest.approx(exact, rel=1e-13, abs=1e-13)


def test_quadrature_shape():
    mesh = Mesh1D(2.0, 3)
    rule = quadrature_points(mesh, 4)
    assert rule.points.shape == rule.weights.shape == (4 * 4,)
    assert np.sum(rule.weights) == pytest.approx(2.0)


def test_hat_nodal_values():
    mesh = Mesh1D(6.0, 5)
    for i in range(1, 6):
        for k, node in enumerate(mesh.nodes):
            expected = 1.0 if k == i else 0.0
            assert eval_phi(mesh, i, node) == pytest.approx(expected)


def test_hat_support_and_slope():
    mesh = Mesh1D(4.0, 3)
    h = mesh.h
    center = mesh.nodes[2]
    # rising edge, then falling edge
    assert eval_phi(mesh, 2, center - h / 2) == pytest.approx(0.5)
    assert eval_phi(mesh, 2, center + h / 2) == pytest.approx(0.5)
    assert eval_dphi(mesh, 2, center - h / 2) == pytest.approx(1.0 / h)
    assert eval_dphi(mesh, 2, center + h / 2) == pytest.approx(-1.0 / h)
    # zero outside the support
    assert eval_phi(mesh, 2, center - 1.5 * h) == 0.0
    assert eval_dphi(mesh, 2, center + 1.5 * h) == 0.0


# M = 1: the first and the last element are neighbours
MESHES = [(5.0, 4), (4.0, 3), (0.3, 1), (12.0, 100)]


def test_hat_tables_match_pointwise_evaluation():
    """Two independent formulas: the values agree to rounding, the derivatives exactly."""
    for length, n_interior in MESHES:
        mesh = Mesh1D(length, n_interior)
        rule = quadrature_points(mesh, 4)
        phi, dphi = hat_tables(mesh, rule)
        assert phi.shape == dphi.shape == (rule.points.size, n_interior)
        for i in range(1, n_interior + 1):
            expected = eval_phi(mesh, i, rule.points)
            np.testing.assert_allclose(phi[:, i - 1], expected, rtol=0, atol=1e-13)
            np.testing.assert_array_equal(dphi[:, i - 1], eval_dphi(mesh, i, rule.points))


def test_stiffness_entries_from_tables():
    """Assembled int phi_i' phi_j' dx has the classic 1/h tridiagonal form."""
    mesh = Mesh1D(8.0, 7)
    rule = quadrature_points(mesh, 4)
    _, dphi = hat_tables(mesh, rule)
    stiffness = dphi.T @ (rule.weights[:, None] * dphi)
    h = mesh.h
    np.testing.assert_allclose(np.diag(stiffness), 2.0 / h, rtol=1e-12)
    np.testing.assert_allclose(np.diag(stiffness, 1), -1.0 / h, rtol=1e-12)
    np.testing.assert_allclose(
        stiffness - np.diag(np.diag(stiffness)) - np.diag(np.diag(stiffness, 1), 1)
        - np.diag(np.diag(stiffness, -1), -1),
        0.0,
        atol=1e-13,
    )


def test_mass_matrix_row_sums():
    """Rows of the mass matrix integrate the hat itself: int phi_i = h."""
    mesh = Mesh1D(6.0, 5)
    rule = quadrature_points(mesh, 4)
    phi, _ = hat_tables(mesh, rule)
    np.testing.assert_allclose(rule.weights @ phi, mesh.h, rtol=1e-12)


def test_lifting_matches_boundary_data_and_vanishes_inside():
    mesh = Mesh1D(10.0, 9)
    lift = LiftingFunction(2.0, 1.0)
    assert lift.value(mesh, -5.0) == pytest.approx(2.0)
    assert lift.value(mesh, 5.0) == pytest.approx(1.0)
    # zero at every interior node and on interior elements
    for node in mesh.nodes[1:-1]:
        assert lift.value(mesh, node) == pytest.approx(0.0)
    assert lift.value(mesh, 0.3) == 0.0
    # linear on the boundary elements
    h = mesh.h
    assert lift.value(mesh, -5.0 + h / 2) == pytest.approx(1.0)
    assert lift.derivative(mesh, -5.0 + h / 2) == pytest.approx(-2.0 / h)
    assert lift.derivative(mesh, 5.0 - h / 2) == pytest.approx(1.0 / h)
    assert lift.derivative(mesh, 0.3) == 0.0


def test_zero_lifting_tables():
    mesh = Mesh1D(2.0, 3)
    rule = quadrature_points(mesh, 4)
    vals, dvals = lifting_tables(mesh, rule, 0.0, 0.0)
    assert not vals.any()
    assert not dvals.any()


def test_lifting_tables_match_pointwise():
    lift = LiftingFunction(0.5, 1.5)
    for length, n_interior in MESHES:
        mesh = Mesh1D(length, n_interior)
        rule = quadrature_points(mesh, 4)
        vals, dvals = lifting_tables(mesh, rule, 0.5, 1.5)
        np.testing.assert_allclose(vals, lift.value(mesh, rule.points), rtol=0, atol=1e-13)
        np.testing.assert_array_equal(dvals, lift.derivative(mesh, rule.points))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda mesh: quadrature_points(mesh, 0), "at least one point per element"),
        (lambda mesh: eval_phi(mesh, 0, 0.0), "basis index 0 out of range 1..4"),
        (lambda mesh: eval_dphi(mesh, 5, 0.0), "basis index 5 out of range 1..4"),
    ],
    ids=["no-quadrature-points", "phi-index", "dphi-index"],
)
def test_fem1d_rejects_invalid_input(call, message):
    with pytest.raises(ValueError, match=message):
        call(Mesh1D(10.0, 4))
