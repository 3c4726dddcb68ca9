import numpy as np
import pytest

from helpers import element_mass, element_stiffness
from parapt.fem import build_mesh, interpolate, mass_matrix, stiffness_matrix


def g1(x, y):
    return np.sin(np.pi * x) * np.sin(np.pi * y)


@pytest.mark.parametrize("n", [3, 4, 7])
def test_mesh_counts(n):
    mesh = build_mesh(n)
    assert mesh.nodes.shape == (n * n, 2)
    assert mesh.triangles.shape == (2 * (n - 1) ** 2, 3)
    assert mesh.interior.size == (n - 2) ** 2
    assert mesh.h == pytest.approx(1.0 / (n - 1))


def test_mesh_needs_three_nodes_per_side():
    with pytest.raises(ValueError, match="at least 3"):
        build_mesh(2)


def test_triangles_positively_oriented():
    mesh = build_mesh(6)
    p = mesh.nodes[mesh.triangles]
    cross = ((p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
             - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1]))
    assert np.all(cross > 0)


def test_element_matrices_on_reference_triangle():
    coords = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    K = element_stiffness(coords)
    M = element_mass(coords)
    np.testing.assert_allclose(
        K, 0.5 * np.array([[2.0, -1.0, -1.0], [-1.0, 1.0, 0.0], [-1.0, 0.0, 1.0]]),
        atol=1e-14)
    np.testing.assert_allclose(
        M, (0.5 / 12.0) * (np.ones((3, 3)) + np.eye(3)), atol=1e-15)


def test_element_stiffness_random_triangle_vs_gradient_formula(rng):
    coords = rng.normal(size=(3, 2))
    u, v = coords[1] - coords[0], coords[2] - coords[0]
    if u[0] * v[1] - u[1] * v[0] < 0:
        coords = coords[[0, 2, 1]]
    # gradients of the barycentric basis from the inverse affine map
    T = np.column_stack([coords[1] - coords[0], coords[2] - coords[0]])
    area = 0.5 * abs(np.linalg.det(T))
    grads_ref = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])
    grads = grads_ref @ np.linalg.inv(T)
    np.testing.assert_allclose(element_stiffness(coords), area * grads @ grads.T,
                               atol=1e-12)
    assert element_mass(coords).sum() == pytest.approx(area)


def test_global_matrices_symmetric_positive_definite():
    mesh = build_mesh(5)
    Md, Kd = mass_matrix(mesh).toarray(), stiffness_matrix(mesh).toarray()
    np.testing.assert_allclose(Md, Md.T, atol=0)
    np.testing.assert_allclose(Kd, Kd.T, atol=0)
    assert np.linalg.eigvalsh(Md).min() > 0
    assert np.linalg.eigvalsh(Kd).min() > 0


def test_interior_row_sums_at_center_node():
    # for a node whose full stencil is interior, the hat functions sum to
    # one, so stiffness rows annihilate constants and mass rows integrate
    # the hat: h*h on this mesh family
    n = 5
    mesh = build_mesh(n)
    Md, Kd = mass_matrix(mesh).toarray(), stiffness_matrix(mesh).toarray()
    center = mesh.interior_index[(n // 2) * n + n // 2]
    assert abs(Kd[center].sum()) <= 1e-13
    assert Md[center].sum() == pytest.approx(mesh.h ** 2, rel=1e-12)


def test_interpolate_matches_pointwise_loop():
    mesh = build_mesh(6)
    vals = interpolate(mesh, g1)
    pts = mesh.nodes[mesh.interior]
    np.testing.assert_allclose(vals, [g1(x, y) for x, y in pts], rtol=1e-15)


def test_interpolate_rejects_nonfinite():
    mesh = build_mesh(4)
    with pytest.raises(ValueError):
        interpolate(mesh, lambda x, y: np.where(x > 0, np.inf, 1.0))


def test_norms_of_first_eigenfunction():
    mesh = build_mesh(33)
    Mh = mass_matrix(mesh)
    v = interpolate(mesh, g1)
    # int g1^2 = 1/4, and an odd n hits the peak
    assert np.sqrt(v @ (Mh @ v)) == pytest.approx(0.5, abs=2e-3)
    assert np.abs(v).max() == pytest.approx(1.0, abs=1e-12)
    assert mesh.lumped_weights @ np.abs(v) == pytest.approx(4.0 / np.pi ** 2,
                                                            abs=5e-3)
