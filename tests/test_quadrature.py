import numpy as np
import numpy.testing as npt
import pytest

from snmesh.quadrature import gauss_legendre, gauss_lobatto

# Closed-form Lobatto rules (nodes, weights) for small n.
LOBATTO_TABLES = {
    2: ([-1.0, 1.0], [1.0, 1.0]),
    3: ([-1.0, 0.0, 1.0], [1 / 3, 4 / 3, 1 / 3]),
    4: (
        [-1.0, -np.sqrt(1 / 5), np.sqrt(1 / 5), 1.0],
        [1 / 6, 5 / 6, 5 / 6, 1 / 6],
    ),
    5: (
        [-1.0, -np.sqrt(3 / 7), 0.0, np.sqrt(3 / 7), 1.0],
        [1 / 10, 49 / 90, 32 / 45, 49 / 90, 1 / 10],
    ),
}


@pytest.mark.parametrize("n", sorted(LOBATTO_TABLES))
def test_lobatto_closed_forms(n):
    nodes, weights = LOBATTO_TABLES[n]
    rule = gauss_lobatto(n)
    npt.assert_allclose(rule.nodes, nodes, atol=1e-14)
    npt.assert_allclose(rule.weights, weights, atol=1e-14)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 16, 33, 64])
def test_legendre_matches_reference_tables(n):
    rule = gauss_legendre(n)
    ref_nodes, ref_weights = np.polynomial.legendre.leggauss(n)
    npt.assert_allclose(rule.nodes, ref_nodes, atol=5e-15)
    npt.assert_allclose(rule.weights, ref_weights, atol=5e-15)


@pytest.mark.parametrize("maker,n,exactness", [
    (gauss_legendre, 2, 3),
    (gauss_legendre, 5, 9),
    (gauss_legendre, 12, 23),
    (gauss_lobatto, 2, 1),
    (gauss_lobatto, 4, 5),
    (gauss_lobatto, 9, 15),
    (gauss_lobatto, 32, 61),
])
def test_moment_exactness(maker, n, exactness):
    rule = maker(n)
    for p in range(exactness + 1):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        got = np.sum(rule.weights * rule.nodes**p)
        npt.assert_allclose(got, exact, atol=2e-14, err_msg=f"moment {p}")


@pytest.mark.parametrize("maker", [gauss_legendre, gauss_lobatto])
@pytest.mark.parametrize("n", [2, 3, 7, 20, 65])
def test_rule_structure(maker, n):
    rule = maker(n)
    assert rule.n == n
    # weights positive, sum to the measure of [-1, 1]
    assert np.all(rule.weights > 0)
    npt.assert_allclose(rule.weights.sum(), 2.0, rtol=1e-15)
    # antisymmetric node set, symmetric weights
    npt.assert_allclose(rule.nodes, -rule.nodes[::-1], atol=1e-15)
    npt.assert_allclose(rule.weights, rule.weights[::-1], atol=1e-15)
    assert np.all(np.diff(rule.nodes) > 0)


def test_lobatto_directions_mirror_bit_for_bit():
    # the half-domain mirror boundary feeds direction l from the trace of
    # direction n - 1 - l (trace_left[::-1, 0]), which must be -mu_l exactly
    for n in range(2, 257, 2):
        nodes = gauss_lobatto(n).nodes
        npt.assert_array_equal(nodes[::-1], -nodes, err_msg=f"n={n}")


def test_lobatto_includes_endpoints():
    for n in (2, 5, 10, 31):
        rule = gauss_lobatto(n)
        assert rule.nodes[0] == -1.0
        assert rule.nodes[-1] == 1.0


def test_interior_rule_excludes_endpoints():
    rule = gauss_legendre(9)
    assert rule.nodes[0] > -1.0 and rule.nodes[-1] < 1.0


def test_single_point_rules():
    rule = gauss_legendre(1)
    npt.assert_allclose(rule.nodes, [0.0])
    npt.assert_allclose(rule.weights, [2.0])
    with pytest.raises(ValueError):
        gauss_lobatto(1)
    with pytest.raises(ValueError):
        gauss_legendre(0)


def test_rules_are_cached_and_frozen():
    a = gauss_legendre(6)
    assert gauss_legendre(6) is a
    with pytest.raises(ValueError):
        a.nodes[0] = 0.0
