import numpy as np
import pytest

from snl import graph, linalg, spectral
from snl.blocks import generalized_forward
from snl.errors import FilterSpecError, NumericError, PreconditionError, ShapeError
from snl.spectral import FilterSpec


def sym_affinity(rng, n, c=3):
    phi = rng.normal(0.0, 0.4, size=(n, c))
    psi = rng.normal(0.0, 0.4, size=(n, c))
    raw = graph.compute_affinity(phi, psi, "exp_dot")
    return graph.normalize(graph.symmetrize(raw), "symmetric")


def test_filter_spec_validation():
    FilterSpec(order=2, theta=[0.1, 0.2])
    with pytest.raises(FilterSpecError):
        FilterSpec(order=0, theta=[1.0])
    with pytest.raises(TypeError):
        FilterSpec(order=1)  # no coefficients
    with pytest.raises(FilterSpecError):
        FilterSpec(order=3, theta=[1.0, 2.0])  # too few coefficients
    # weight matrices, one per power, go to generalized_forward
    a, z = np.eye(3), np.zeros((3, 2))
    with pytest.raises(FilterSpecError):
        generalized_forward(a, z, [])
    with pytest.raises(FilterSpecError):
        generalized_forward(a, z, [np.zeros((2, 3)), np.zeros((3, 3))])
    with pytest.raises(NumericError):
        generalized_forward(a, z, [np.zeros((2, 1)), np.full((2, 1), np.nan)])


def test_gft_roundtrip_preserves_norm():
    rng = np.random.default_rng(0)
    dec = linalg.eigh(sym_affinity(rng, 10).values)
    z = rng.normal(size=(10, 2))
    z_hat = spectral.gft(dec.eigenvectors, z)
    assert np.max(np.abs(spectral.inverse_gft(dec.eigenvectors, z_hat) - z)) < 1e-12
    assert np.linalg.norm(z_hat) == pytest.approx(np.linalg.norm(z), rel=1e-12)


def test_gft_rejects_non_orthonormal():
    with pytest.raises(PreconditionError):
        spectral.gft(np.array([[1.0, 1.0], [0.0, 1.0]]), np.zeros((2, 1)))


def test_operand_shape_mismatch_is_typed():
    u = np.eye(3)
    with pytest.raises(ShapeError):
        spectral.gft(u, np.zeros((4, 1)))
    with pytest.raises(ShapeError):
        spectral.inverse_gft(u, np.zeros((2, 1)))
    with pytest.raises(ShapeError):
        spectral.apply_generalized_filter(u, np.ones(3), np.zeros((4, 1)))
    a = sym_affinity(np.random.default_rng(10), 3)
    with pytest.raises(ShapeError):
        spectral.poly_filter_apply(a, np.zeros((4, 1)), FilterSpec(order=1, theta=[1.0]))
    ws = [np.zeros((2, 1))] * 2
    with pytest.raises(ShapeError):
        generalized_forward(a.values, np.zeros((3, 3)), ws)  # Z columns vs weight rows
    with pytest.raises(ShapeError):
        generalized_forward(a.values, np.zeros((4, 2)), ws)  # A size vs Z rows
    with pytest.raises(ShapeError):
        generalized_forward(np.zeros((3, 4)), np.zeros((3, 2)), ws)  # A not square


def test_apply_generalized_filter_matches_manual():
    rng = np.random.default_rng(1)
    dec = linalg.eigh(sym_affinity(rng, 8).values)
    u = dec.eigenvectors
    omega = rng.normal(size=8)
    z = rng.normal(size=(8, 3))
    want = u @ np.diag(omega) @ u.T @ z
    assert np.max(np.abs(spectral.apply_generalized_filter(u, omega, z) - want)) < 1e-12


def test_poly_filter_theta_matches_explicit_powers():
    rng = np.random.default_rng(3)
    a = sym_affinity(rng, 7)
    z = rng.normal(size=(7, 2))
    theta = rng.normal(size=3)
    spec = FilterSpec(order=3, theta=theta)
    av = a.values
    want = theta[0] * z + theta[1] * av @ z + theta[2] * av @ av @ z
    assert np.max(np.abs(spectral.poly_filter_apply(a, z, spec) - want)) < 1e-12


def test_poly_filter_weights_matches_explicit_powers():
    rng = np.random.default_rng(4)
    a = sym_affinity(rng, 5, c=2)
    z = rng.normal(size=(5, 2))
    ws = [rng.normal(size=(2, 3)) for _ in range(3)]
    av = a.values
    want = z @ ws[0] + av @ z @ ws[1] + av @ av @ z @ ws[2]
    assert np.max(np.abs(generalized_forward(av, z, ws) - want)) < 1e-12


def test_poly_filter_requires_normalized_affinity():
    rng = np.random.default_rng(5)
    raw = graph.compute_affinity(rng.normal(size=(4, 2)), rng.normal(size=(4, 2)), "exp_dot")
    with pytest.raises(PreconditionError):
        spectral.poly_filter_apply(raw, np.zeros((4, 1)), FilterSpec(order=1, theta=[1.0]))


def test_spectral_oracle_agrees_with_poly_filter():
    rng = np.random.default_rng(7)
    for n in (4, 9, 16):
        a = sym_affinity(rng, n)
        z = rng.normal(size=(n, 2))
        theta = rng.normal(size=4)
        got = spectral.poly_filter_apply(a, z, FilterSpec(order=4, theta=theta))
        want = spectral.spectral_oracle(a, z, theta)
        assert linalg.rel_error(got, want) < 1e-10


def uniform_affinity(n):
    """The complete graph's A = 11^T / n, whose eigenvalue 0 has multiplicity
    n - 1, so its eigenbasis is not unique."""
    raw = graph.compute_affinity(np.zeros((n, 3)), np.zeros((n, 3)), "exp_dot")
    return graph.normalize(graph.symmetrize(raw), "symmetric")


def test_spectral_oracle_degenerate_spectrum():
    n = 16
    a = uniform_affinity(n)
    lam = linalg.eigh(a.values).eigenvalues
    assert np.max(np.abs(lam - np.r_[np.zeros(n - 1), 1.0])) < 1e-12
    rng = np.random.default_rng(9)
    z = rng.normal(size=(n, 2))
    theta = rng.normal(size=4)
    got = spectral.poly_filter_apply(a, z, FilterSpec(order=4, theta=theta))
    want = spectral.spectral_oracle(a, z, theta)
    assert linalg.rel_error(got, want) <= 1e-10


@pytest.mark.parametrize("n", [4, 9, 16, 64, "uniform"])
def test_spectral_oracle_is_the_sign_fixed_eigenbasis_filter(n):
    # LAPACK's eigenvectors, taken without linalg.eigh's sign fix, give
    # U diag(p) U^T z to the bit: the product does not depend on the signs
    rng = np.random.default_rng(12)
    a = uniform_affinity(16) if n == "uniform" else sym_affinity(rng, n)
    z = rng.normal(size=(a.values.shape[0], 2))
    theta = rng.normal(size=4)
    dec = linalg.eigh(a.values)
    response = np.polynomial.polynomial.polyval(dec.eigenvalues, theta)
    want = spectral.apply_generalized_filter(dec.eigenvectors, response, z)
    assert np.array_equal(spectral.spectral_oracle(a, z, theta), want)


def test_spectral_oracle_validates_its_signal():
    a = sym_affinity(np.random.default_rng(13), 5)
    with pytest.raises(ShapeError):
        spectral.spectral_oracle(a, np.ones((4, 1)), [1.0])
    for bad in (np.nan, np.inf):
        z = np.ones((5, 2))
        z[3, 1] = bad
        with pytest.raises(NumericError):
            spectral.spectral_oracle(a, z, [1.0])


def test_spectral_oracle_rejects_asymmetric():
    rng = np.random.default_rng(8)
    a = graph.normalize(
        graph.compute_affinity(rng.normal(size=(5, 2)), rng.normal(size=(5, 2)), "exp_dot"),
        "random_walk",
    )
    with pytest.raises(PreconditionError):
        spectral.spectral_oracle(a, np.zeros((5, 1)), [1.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_theta_is_numeric_error(bad):
    a = sym_affinity(np.random.default_rng(11), 5)
    with pytest.raises(NumericError):
        FilterSpec(order=2, theta=[bad, 1.0])
    with pytest.raises(NumericError):
        spectral.spectral_oracle(a, np.ones((5, 1)), [bad, 1.0])
