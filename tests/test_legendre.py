import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss
from scipy.linalg import eigh_tridiagonal

from hbvm.legendre import (
    MAX_NODES,
    gauss_rule,
    hbvm_tables,
    shifted_legendre_antiderivative,
    shifted_legendre_eval,
)


def fine_rule(n=64):
    # quadrature oracle on [0,1]: Golub-Welsch, the eigenpairs of the Jacobi
    # matrix of the Legendre recurrence from scipy's tridiagonal solver, nodes
    # (t+1)/2 and weights v_0^2 (gauss_rule takes only the eigenvalues, from
    # numpy's dense eigvalsh, and Christoffel weights)
    j = np.arange(1, n)
    t, v = eigh_tridiagonal(np.zeros(n), j / np.sqrt(4.0 * j * j - 1.0))
    return 0.5 * (t + 1.0), v[0] ** 2


class TestShiftedLegendre:
    def test_degree_zero_is_one(self):
        assert shifted_legendre_eval(0, 0.3) == 1.0

    def test_degree_one_vanishes_at_midpoint(self):
        assert shifted_legendre_eval(1, 0.5) == pytest.approx(0.0, abs=1e-15)

    def test_orthonormality_fine_quadrature(self):
        xs, ws = fine_rule()
        for i in range(6):
            vi = shifted_legendre_eval(i, xs)
            for j in range(6):
                vj = shifted_legendre_eval(j, xs)
                val = np.sum(ws * vi * vj)
                assert val == pytest.approx(1.0 if i == j else 0.0, abs=1e-13)

    def test_negative_degree_rejected(self):
        with pytest.raises(ValueError):
            shifted_legendre_eval(-1, 0.5)


class TestAntiderivative:
    def test_constant_over_full_interval(self):
        assert shifted_legendre_antiderivative(0, 1.0) == pytest.approx(1.0, abs=1e-15)

    def test_higher_degrees_integrate_to_zero(self):
        for j in range(1, 8):
            assert shifted_legendre_antiderivative(j, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_degree_one_at_half(self):
        # analytic: int_0^(1/2) sqrt(3)(2x-1) dx = -sqrt(3)/4
        assert shifted_legendre_antiderivative(1, 0.5) == pytest.approx(-np.sqrt(3.0) / 4.0, abs=1e-15)

    def test_matches_fine_quadrature(self):
        xs, ws = fine_rule()
        for j in range(6):
            for c in (0.17, 0.5, 0.83):
                exact = np.sum(ws * c * shifted_legendre_eval(j, c * xs))
                assert shifted_legendre_antiderivative(j, c) == pytest.approx(exact, abs=1e-14)


class TestGaussRule:
    def test_midpoint_rule(self):
        r = gauss_rule(1)
        assert r.nodes[0] == pytest.approx(0.5, abs=1e-16)
        assert r.weights[0] == pytest.approx(1.0, abs=1e-16)

    def test_two_nodes_analytic(self):
        r = gauss_rule(2)
        assert r.nodes == pytest.approx([0.5 - np.sqrt(3) / 6, 0.5 + np.sqrt(3) / 6], abs=1e-15)
        assert r.weights == pytest.approx([0.5, 0.5], abs=1e-15)
        # order-4 exactness on x^3
        assert np.sum(r.weights * r.nodes**3) == pytest.approx(0.25, abs=1e-16)

    def test_three_nodes_integrates_x5(self):
        r = gauss_rule(3)
        assert np.sum(r.weights * r.nodes**5) == pytest.approx(1.0 / 6.0, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 2, 3, 5, 8, 12, 20])
    def test_order_2k_exactness(self, k):
        r = gauss_rule(k)
        for j in range(2 * k):
            val = np.sum(r.weights * r.nodes**j)
            assert val == pytest.approx(1.0 / (j + 1), rel=1e-14)

    @pytest.mark.parametrize("k", [2, 5, 9, 20])
    def test_symmetry_and_positivity(self, k):
        r = gauss_rule(k)
        assert np.all(np.diff(r.nodes) > 0)
        assert np.all(r.nodes > 0) and np.all(r.nodes < 1)
        assert np.all(r.weights > 0)
        np.testing.assert_allclose(r.nodes + r.nodes[::-1], 1.0, rtol=0, atol=1e-16)
        np.testing.assert_allclose(r.weights, r.weights[::-1], rtol=0, atol=1e-16)
        assert np.sum(r.weights) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("k", [1, 3, 7, 15, MAX_NODES])
    def test_matches_golub_welsch(self, k):
        r = gauss_rule(k)
        nodes, weights = fine_rule(k)
        np.testing.assert_allclose(r.nodes, np.sort(nodes), rtol=0, atol=1e-14)
        np.testing.assert_allclose(r.weights, weights[np.argsort(nodes)], rtol=0, atol=1e-14)

    @pytest.mark.parametrize("k", range(1, MAX_NODES + 1))
    def test_nodes_match_newton_polished_leggauss(self, k):
        # numpy's leggauss polishes its companion-matrix roots by a Newton step
        # on L_k, so its nodes are within an ulp of the exact ones
        t, _ = leggauss(k)
        np.testing.assert_allclose(gauss_rule(k).nodes, 0.5 * (t + 1.0), rtol=0, atol=4.5e-16)

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            gauss_rule(0)
        with pytest.raises(ValueError):
            gauss_rule(21)


class TestHBVMTables:
    @pytest.mark.parametrize("s", [1, 2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 9])
    def test_discrete_orthonormality_and_integration_matrix(self, k, s):
        if k < s:
            pytest.skip("requires k >= s")
        tab = hbvm_tables(k, s)
        omega_p = tab.node_values * tab.weights[:, None]
        gram = tab.node_values.T @ omega_p
        assert np.max(np.abs(gram - np.eye(s))) <= 1e-13
        prod = tab.node_values.T @ (tab.node_integrals * tab.weights[:, None])
        assert np.max(np.abs(prod - tab.integration_matrix)) <= 1e-13

    @pytest.mark.parametrize("k,s", [(20, 1), (12, 6), (20, 6)])
    def test_largest_tables_keep_the_identities_at_roundoff(self, k, s):
        # the Christoffel weights hold both identities to 1e-15 at the largest
        # tables; Gauss weights taken from leggauss miss the Gram one by 1e-14
        tab = hbvm_tables(k, s)
        gram = tab.node_values.T @ (tab.node_values * tab.weights[:, None])
        assert np.max(np.abs(gram - np.eye(s))) <= 4e-15
        prod = tab.node_values.T @ (tab.node_integrals * tab.weights[:, None])
        assert np.max(np.abs(prod - tab.integration_matrix)) <= 4e-15

    def test_integration_matrix_structure(self):
        tab = hbvm_tables(6, 4)
        xs = tab.integration_matrix
        assert xs[0, 0] == pytest.approx(0.5)
        for i in range(1, 4):
            xi = 0.5 / np.sqrt(4 * i * i - 1)
            assert xs[i, i - 1] == pytest.approx(xi, abs=1e-16)
            assert xs[i - 1, i] == pytest.approx(-xi, abs=1e-16)
        # all other entries vanish
        mask = np.ones((4, 4), dtype=bool)
        mask[0, 0] = False
        for i in range(1, 4):
            mask[i, i - 1] = mask[i - 1, i] = False
        assert np.all(xs[mask] == 0.0)

    def test_xi1_value(self):
        # first coupling coefficient 1/(2 sqrt(3))
        assert hbvm_tables(2, 2).integration_matrix[1, 0] == pytest.approx(0.28867513459481287, abs=1e-15)

    def test_invalid_method_rejected(self):
        with pytest.raises(ValueError):
            hbvm_tables(1, 2)

    def test_tables_cached(self):
        assert hbvm_tables(5, 1) is hbvm_tables(5, 1)

    def test_abscissae_are_gauss_nodes(self):
        tab = hbvm_tables(7, 3)
        np.testing.assert_array_equal(tab.nodes, gauss_rule(7).nodes)
