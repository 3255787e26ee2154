"""Discretization oracle: matrix construction and spectral estimation."""

import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from volterra_alpha import cli, oracle, verify
from volterra_alpha.errors import ComplexPairError, DomainError, IterationLimitError, NumericsError
from volterra_alpha.oracle import (
    discretize,
    iterate_matrix_norm,
    largest_singular_value,
    matrix_norm_22,
    spectral_radius_estimate,
    top_eigenvalues,
    top_gram_eigenvalues,
)
from volterra_alpha.point_spectrum import eigenvalue
from volterra_alpha.transform import LpContext, apply_T, inner, midpoints

CTX22 = LpContext(2.0, 2.0)


class TestDiscretize:
    def test_unit_alpha_lower_triangular(self):
        m = discretize(1.0, 64)
        assert np.all(np.triu(m.entries, 1) == 0.0)
        assert np.allclose(np.diag(m.entries), 0.5 / 64)

    def test_row_sums_are_power_action(self):
        for alpha in (0.5, 1.0, 2.0):
            m = discretize(alpha, 256)
            x = midpoints(256)
            assert np.max(np.abs(m.entries.sum(axis=1) - x**alpha)) <= 1.0 / 512

    def test_support_column_cutoff(self):
        # at the midpoint 0.5 with alpha = 2 only cells below 0.25 contribute
        m = discretize(2.0, 32)
        i = 15  # x_i = 0.484...; x_i^2 = 0.2346
        cutoff = (midpoints(32)[i]) ** 2
        cols = np.nonzero(m.entries[i])[0]
        assert cols.max() == int(32 * cutoff)

    def test_nonnegative_entries(self):
        for alpha in (0.2, 1.0, 3.0):
            assert np.all(discretize(alpha, 128).entries >= 0.0)

    def test_matches_apply_T_exactly(self):
        rng = np.random.default_rng(5)
        for alpha in (0.4, 1.0, 2.5):
            m = discretize(alpha, 512)
            f = rng.standard_normal(512)
            assert np.max(np.abs(m.entries @ f - apply_T(alpha, f))) <= 1e-14

    def test_projector_member(self):
        m = discretize(0.0, 64)
        assert np.allclose(m.entries, 1.0 / 64)

    def test_domain(self):
        with pytest.raises(DomainError):
            discretize(-1.0, 64)
        with pytest.raises(DomainError):
            discretize(1.0, 8)
        with pytest.raises(DomainError):
            discretize(math.nan, 64)


class TestMatrixFreeMaps:
    @pytest.mark.parametrize("alpha", [0.0, 0.3, 0.9, 1.0, 1.5, 3.0, math.inf])
    @pytest.mark.parametrize("n", [16, 2048])
    def test_maps_match_dense_products(self, alpha, n):
        m = discretize(alpha, n)
        v = np.random.default_rng(n).standard_normal(n)
        assert np.max(np.abs(m.matvec(v) - m.entries @ v)) <= 1e-15
        assert np.max(np.abs(m.rmatvec(v) - m.entries.T @ v)) <= 1e-15

    @pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0, 2.5, math.inf])
    def test_lazy_entries_are_the_overlap_matrix(self, alpha):
        n = 256
        t = n * midpoints(n) ** alpha
        expect = np.clip(t[:, None] - np.arange(n)[None, :], 0.0, 1.0) / n
        assert np.array_equal(discretize(alpha, n).entries, expect)

    def test_power_route_never_forms_entries(self):
        m = discretize(0.9, 2048)
        top_eigenvalues(m, 2)
        assert "entries" not in vars(m)

    def test_no_library_route_reads_entries(self, monkeypatch):
        def refuse(self):
            raise AssertionError("a library route formed the dense matrix")

        monkeypatch.setattr(oracle.OperatorMatrix, "entries", property(refuse))
        assert all(row.passed for row in verify.check_oracle(1024))
        assert all(row.passed for row in verify.check_bounds(512))
        for argv in (
            ["spectrum", "--alpha", "0.9", "--count", "5"],
            ["spectrum", "--alpha", "2"],
            ["iterates", "--alpha", "0.6", "--n", "12"],
        ):
            assert cli.main(argv) == 0


class TestAdjoint:
    def test_transpose_duality(self):
        # <Mf, g> = <f, M^T g> in the grid inner product, to machine precision
        rng = np.random.default_rng(9)
        m = discretize(0.7, 256)
        f = rng.standard_normal(256)
        g = rng.standard_normal(256)
        assert abs(inner(m.matvec(f), g) - inner(f, m.rmatvec(g))) <= 1e-12


class TestLargestSingularValue:
    def test_halmos_value(self):
        est = largest_singular_value(discretize(1.0, 4096))
        assert abs(est - 2.0 / math.pi) <= 1e-3

    def test_mesh_convergence(self):
        for alpha in (0.1, 1.0, 10.0):
            coarse = largest_singular_value(discretize(alpha, 512))
            fine = largest_singular_value(discretize(alpha, 1024))
            assert abs(coarse - fine) <= 4.0 / 512


class TestTopEigenvalues:
    @pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
    def test_matches_formula(self, alpha):
        eigs = top_eigenvalues(discretize(alpha, 2048), 5)
        expect = [eigenvalue(alpha, n) for n in range(5)]
        assert eigs == pytest.approx(expect, abs=2e-3)

    def test_dense_route_agrees_with_power_route(self):
        m = discretize(0.5, 512)
        eigs = np.linalg.eigvals(m.entries)
        dense = eigs[np.argsort(-np.abs(eigs))[:4]]
        assert np.all(dense.imag == 0.0)
        assert top_eigenvalues(m, 4) == pytest.approx(dense.real, abs=1e-8)

    def test_power_iterates_stay_nonnegative(self):
        # the dominant eigenvector of a positive matrix is positive
        m = discretize(0.4, 700)
        eigs = top_eigenvalues(m, 3)
        assert all(v > 0 for v in eigs)

    def test_domain(self):
        m = discretize(0.5, 64)
        with pytest.raises(DomainError):
            top_eigenvalues(m, 9)

    def test_unresolvable_count_fails_fast(self, capsys):
        # eigenvalue 4 of alpha = 0.05 is 5.9e-6, below the floor 0.3 alpha / 2048;
        # power iteration ran 100,000 steps (~14 s) before failing
        start = time.perf_counter()
        assert cli.main(["spectrum", "--alpha", "0.05", "--count", "5"]) == 1
        assert time.perf_counter() - start < 1.0
        assert '"type": "DomainError"' in capsys.readouterr().err

    @pytest.mark.parametrize(
        "alpha,count,n_points",
        [(0.09, 5, 512), (0.03, 4, 512), (1e-6, 2, 512), (1e-3, 3, 512)],
    )
    def test_floor_keeps_resolved_counts(self, alpha, count, n_points):
        # the nearest cases to the floor that the power route settles
        eigs = top_eigenvalues(discretize(alpha, n_points), count)
        assert len(eigs) == count and eigs[0] > eigs[-1] > 0.0

    @pytest.mark.parametrize("n_points", [600, 16])
    def test_complex_pair_detection(self, n_points):
        # a rotation block has a complex dominant pair
        rotation = np.zeros((n_points, n_points))
        rotation[0, 1], rotation[1, 0] = 1.0, -1.0
        rotation[2:, 2:] = np.eye(n_points - 2) * 1e-9
        # alpha = nan skips the resolvability floor, which reads a family member
        fake = SimpleNamespace(matvec=lambda v: rotation @ v, n_points=n_points, alpha=math.nan)
        with pytest.raises(ComplexPairError):
            top_eigenvalues(fake, 2)


class TestGramEigenvalues:
    def test_unit_alpha_squared_singular_values(self):
        eigs = top_gram_eigenvalues(discretize(1.0, 2048), 3)
        expect = [4.0 / (math.pi**2 * (1 + 2 * n) ** 2) for n in range(3)]
        assert eigs == pytest.approx(expect, abs=2e-3)

    def test_consistent_with_singular_value(self):
        m = discretize(0.6, 1024)
        top = top_gram_eigenvalues(m, 1)[0]
        assert math.sqrt(top) == pytest.approx(largest_singular_value(m), abs=1e-9)


class TestSpectralRadiusEstimate:
    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_quasi_nilpotent_regime(self, alpha):
        rho = spectral_radius_estimate(discretize(alpha, 1024))
        assert rho <= 5e-3

    @pytest.mark.parametrize("alpha", [1.0, 1.5, 2.0])
    def test_triangular_radius_is_largest_diagonal(self, alpha):
        m = discretize(alpha, 512)
        assert spectral_radius_estimate(m) == np.max(np.diag(m.entries))

    def test_non_triangular_matrix_is_refused_at_once(self):
        # for alpha < 1 the radius is the top eigenvalue, which has its own route
        m = discretize(0.5, 512)
        start = time.perf_counter()
        with pytest.raises(DomainError, match="top_eigenvalues"):
            spectral_radius_estimate(m)
        assert time.perf_counter() - start < 0.01


class TestPowerCore:
    def test_non_finite_estimate_stops_at_once(self):
        start = time.perf_counter()
        nan = np.full((32, 32), np.nan)
        maps = (lambda v: nan @ v, lambda v: nan.T @ v)
        with pytest.raises(IterationLimitError) as info:
            oracle._pq_power(maps, CTX22, np.ones(32), 1e-10)
        assert time.perf_counter() - start < 0.1
        assert info.value.estimate is None


class TestMatrixNorm22:
    @pytest.mark.parametrize("a,b", [(0.0, 0.5), (0.5, 1.0), (0.3, 2.7), (0.1, 0.2)])
    def test_uniform_weights_give_spectral_norm(self, a, b):
        ma, mb = discretize(a, 256), discretize(b, 256)
        expect = np.linalg.norm(ma.entries - mb.entries, 2)
        assert matrix_norm_22(ma, mb) == pytest.approx(expect, abs=1e-10)

    def test_grids_must_match(self):
        with pytest.raises(DomainError):
            matrix_norm_22(discretize(0.5, 256), discretize(1.0, 512))


class TestPqNormEstimate:
    def test_reduces_to_singular_value(self):
        m = discretize(0.8, 1024)
        assert iterate_matrix_norm(m, 1, CTX22) == pytest.approx(
            largest_singular_value(m), abs=1e-8
        )

    def test_halmos_value(self):
        m = discretize(1.0, 4096)
        assert iterate_matrix_norm(m, 1, CTX22) == pytest.approx(2.0 / math.pi, abs=1e-3)

    def test_asymmetric_exponents_inside_sandwich(self):
        from volterra_alpha.bounds import norm_sandwich

        ctx = LpContext(2.0, 4.0)
        m = discretize(1.0, 1024)
        est = iterate_matrix_norm(m, 1, ctx)
        sw = norm_sandwich(1.0, ctx)
        assert sw.lower - 2e-3 <= est <= sw.upper + 2e-3


class TestIterateMatrixNorm:
    def test_unit_alpha_second_iterate_magnitude(self):
        # only the bound sandwich is contractual for the second iterate
        from volterra_alpha.bounds import iterate_norm_lower, iterate_norm_upper

        m = discretize(1.0, 2048)
        est = iterate_matrix_norm(m, 2, CTX22)
        assert iterate_norm_lower(1.0, 2, 2.0) <= est <= iterate_norm_upper(1.0, 2, 2.0)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_inside_iterate_sandwich(self, alpha):
        from volterra_alpha.bounds import iterate_norm_lower, iterate_norm_upper

        m = discretize(alpha, 1024)
        for n in range(2, 7):
            est = iterate_matrix_norm(m, n, CTX22)
            assert iterate_norm_lower(alpha, n, 2.0) <= est
            assert est <= iterate_norm_upper(alpha, n, 2.0) + 2e-3

    def test_domain(self):
        with pytest.raises(DomainError):
            iterate_matrix_norm(discretize(1.0, 64), 0, CTX22)

    def test_estimate_below_lower_bound_is_refused(self):
        # the 1024-point grid does not resolve alpha^20: the route settled
        # on log ||M^20|| = -176.60, below the proven lower bound -172.17
        with pytest.raises(NumericsError, match="-172.168"):
            iterate_matrix_norm(discretize(2.0, 1024), 20, CTX22)

    def test_ends_of_the_family_have_no_bound_check(self):
        # alpha = inf is the zero map, and alpha = 0 the projector onto
        # constants, for which the lower bound is not defined
        assert iterate_matrix_norm(discretize(math.inf, 64), 3, CTX22) == 0.0
        assert iterate_matrix_norm(discretize(0.0, 64), 3, CTX22) == pytest.approx(1.0)

    @pytest.mark.filterwarnings("error")
    def test_large_exponent(self):
        # lp_norm read the start vector as 0 at p = 1100, and the iteration
        # ran into its step cap
        est = iterate_matrix_norm(discretize(0.5, 64), 1, LpContext(1100.0, 1100.0))
        assert 0.99 < est < 1.0
