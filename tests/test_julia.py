import cmath
import math
import random

import numpy as np
import pytest

import formred.julia
from conftest import SEXTIC_COEFFS, SEXTIC_PAIRS, random_unimodular
from formred.errors import ConvergenceFailure, NotPositiveDefinite
from formred.forms import BinaryForm, transform
from formred.hyperbolic import PointH2, PointH3, dist_h2, mobius_h2
from formred.julia import (
    _positive_definite,
    _solve,
    BarycentricWeights,
    distance_sum,
    gradient_norm,
    julia_quadratic,
    julia_zero,
    julia_zero_real,
    q_f,
    tangent_sum,
    theta0,
)
from formred.paramspace import PosDefQuadratic, zero_hermitian, zero_quadratic
from formred.roots import root_set

SEXTIC_ROOTS = [complex(x, s * y) for x, y in SEXTIC_PAIRS for s in (1, -1)]


def random_roots(rng, n):
    return [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(n)]


def random_symmetric(rng, n):
    a = [[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)]
    return [[a[i][j] if i <= j else a[j][i] for j in range(n)] for i in range(n)]


class TestLinearAlgebra:
    def test_positive_definite_agrees_with_cholesky(self):
        rng = random.Random(81)
        seen = set()
        for _ in range(400):
            h = random_symmetric(rng, rng.choice([2, 3]))
            try:
                np.linalg.cholesky(np.array(h))
                expected = True
            except np.linalg.LinAlgError:
                expected = False
            assert _positive_definite(h) == expected
            seen.add(expected)
        assert seen == {True, False}

    def test_solve_matches_numpy(self):
        rng = random.Random(82)
        for _ in range(400):
            n = rng.choice([2, 3])
            a = random_symmetric(rng, n)
            b = [rng.uniform(-2, 2) for _ in range(n)]
            expected = np.linalg.solve(np.array(a), np.array(b))
            x = _solve(a, b)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert max(abs(u - v) for u, v in zip(x, expected)) <= 1e-9 * scale * np.linalg.cond(a)

    def test_solve_reports_singular(self):
        assert _solve([[1.0, 2.0], [2.0, 4.0]], [1.0, 1.0]) is None


class TestQF:
    def test_single_root_boundary_form(self):
        alpha = complex(2, 1)
        H = q_f([1.0], [alpha])
        assert H.delta == pytest.approx(0.0, abs=1e-14)
        assert H.b == alpha.conjugate()
        assert H.c == pytest.approx(abs(alpha) ** 2, abs=1e-14)

    def test_conjugate_pair(self):
        H = q_f([1.0, 1.0], [1j, -1j])
        assert (H.a, H.b, H.c) == (2.0, 0j, 2.0)

    def test_zero_in_hull(self):
        rng = random.Random(71)
        for _ in range(50):
            n = rng.randint(2, 6)
            roots = random_roots(rng, n)
            if max(abs(r - roots[0]) for r in roots) < 0.5:
                continue
            weights = [rng.uniform(0.05, 1) for _ in range(n)]
            H = q_f(weights, roots)
            w = zero_hermitian(H)
            # shadow is the weighted mean of the roots, hence in their convex hull
            mean = sum(wt * r for wt, r in zip(weights, roots)) / sum(weights)
            assert abs(w.z - mean) <= 1e-12 * (1 + abs(mean))
            # height stays below the radius of any enclosing hemisphere
            center = sum(roots) / n
            assert w.t**2 + abs(w.z - center) ** 2 <= max(
                abs(center - r) for r in roots) ** 2 + 1e-9

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            q_f([0.0, 0.0], [1j, -1j])
        with pytest.raises(ValueError):
            q_f([-1.0, 2.0], [1j, -1j])
        with pytest.raises(ValueError):
            BarycentricWeights(())


class TestTheta0:
    def test_scale_invariance(self):
        rng = random.Random(72)
        for _ in range(50):
            n = rng.randint(2, 5)
            roots = random_roots(rng, n)
            if max(abs(r - roots[0]) for r in roots) < 0.5:
                continue
            t = [rng.uniform(0.1, 2) for _ in range(n)]
            lam = rng.uniform(0.2, 5)
            v1 = theta0(1.5, t, roots)
            v2 = theta0(1.5, [lam * ti for ti in t], roots)
            assert abs(v1 - v2) <= 1e-10 * abs(v1)

    def test_pair_value(self):
        # roots i, -i with unit weights: disc = 4, so theta0 = a0^2
        for a0 in (1.0, 3.0):
            assert theta0(a0, [1.0, 1.0], [1j, -1j]) == pytest.approx(a0 * a0, rel=1e-14)

    def test_requires_positive_weights(self):
        with pytest.raises(ValueError):
            theta0(1.0, [1.0, 0.0], [1j, -1j])

    def test_degenerate_roots_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            theta0(1.0, [1.0, 1.0], [1j, 1j])

    def test_gradient_vanishes_at_recovered_weights(self):
        # for three roots the weights are determined by the minimizer; the
        # log-gradient of theta0 must vanish there (finite differences)
        rng = random.Random(73)
        checked = 0
        while checked < 5:
            roots = random_roots(rng, 3)
            if max(abs(r - roots[0]) for r in roots) < 1.0:
                continue
            w0 = julia_zero(roots, tol=1e-12).point
            target_z, target_c = w0.z, abs(w0.z) ** 2 + w0.t**2
            rows = [
                [r.real for r in roots],
                [r.imag for r in roots],
                [abs(r) ** 2 for r in roots],
                [1.0, 1.0, 1.0],
            ]
            rhs = [target_z.real, target_z.imag, target_c, 1.0]
            t, *_ = np.linalg.lstsq(np.array(rows), np.array(rhs), rcond=None)
            if min(t) <= 1e-6:
                continue
            # sanity: the recovered weights reproduce w0
            w_check = zero_hermitian(q_f(t, roots))
            assert abs(w_check.z - w0.z) <= 1e-6
            step = 1e-6

            def log_theta(weights):
                return math.log(theta0(1.0, list(weights), roots))

            for k in range(3):
                up = t.copy()
                dn = t.copy()
                up[k] += step
                dn[k] -= step
                deriv = (log_theta(up) - log_theta(dn)) / (2 * step)
                assert abs(deriv) <= 1e-4
            checked += 1


class TestJuliaZero:
    def test_conjugate_pair_is_quadratic_zero(self):
        for p, q in [(0.0, 1.0), (2.0, 3.0), (-1.5, 0.75)]:
            res = julia_zero([complex(p, q), complex(p, -q)], tol=1e-12)
            assert abs(res.point.z - p) <= 1e-10
            assert abs(res.point.t - q) <= 1e-10
            quad_zero = zero_quadratic(PosDefQuadratic(1.0, p, p * p + q * q))
            assert abs(res.point.z.real - quad_zero.x) <= 1e-10
            assert abs(res.point.t - quad_zero.y) <= 1e-10

    def test_cube_roots_of_unity(self):
        roots = [cmath.exp(2j * math.pi * k / 3) for k in range(3)]
        res = julia_zero(roots, tol=1e-12)
        assert abs(res.point.z) <= 1e-9
        assert abs(res.point.t - 1.0) <= 1e-9
        assert res.gradient_norm <= 1e-12

    def test_worked_sextic_location(self):
        res = julia_zero(SEXTIC_ROOTS)
        assert 3.5 < res.point.z.real < 4.5
        assert abs(res.point.z.imag) <= 1e-10  # real form: stays on the cross-section
        assert res.gradient_norm <= 1e-10

    def test_restart_uniqueness(self):
        rng = random.Random(74)
        for _ in range(10):
            roots = random_roots(rng, rng.randint(3, 6))
            if max(abs(r - roots[0]) for r in roots) < 1.0:
                continue
            base = julia_zero(roots).point
            for _ in range(5):
                start = PointH3(
                    complex(base.z.real + rng.uniform(-0.5, 0.5),
                            base.z.imag + rng.uniform(-0.5, 0.5)),
                    base.t * math.exp(rng.uniform(-0.5, 0.5)))
                again = julia_zero(roots, start=start).point
                assert abs(again.z - base.z) <= 1e-8
                assert abs(again.t - base.t) <= 1e-8

    def test_rejects_trivial_input(self):
        with pytest.raises(ValueError):
            julia_zero([1j])
        with pytest.raises(ValueError):
            julia_zero([1j, 1j])

    @pytest.mark.parametrize("roots", [
        # the start spread squares 1e300: OverflowError
        [1e300 + 1e-300j, 1e300 - 1e-300j, -1e300 + 1e-300j, -1e300 - 1e-300j],
        # distinct roots whose start spread underflows to 0
        [1e-300j, -1e-300j, 2e-300j, -2e-300j],
    ])
    def test_out_of_float_range_is_a_convergence_failure(self, roots):
        with pytest.raises(ConvergenceFailure,
                           match="^Julia minimization leaves the float range$"):
            julia_zero(roots)


class TestJuliaZeroReal:
    def test_single_pair(self):
        res = julia_zero_real([PointH2(2, 3)])
        assert abs(res.point.x - 2) <= 1e-12
        assert abs(res.point.y - 3) <= 1e-12

    def test_agrees_with_h3_on_sextic(self):
        rs = root_set(BinaryForm(SEXTIC_COEFFS))
        real_res = julia_zero_real(rs.pairs)
        h3_res = julia_zero(SEXTIC_ROOTS)
        assert abs(real_res.point.x - h3_res.point.z.real) <= 1e-8
        assert abs(real_res.point.y - h3_res.point.t) <= 1e-8
        # the objective counts each pair twice, matching the full root list
        assert real_res.objective == pytest.approx(
            distance_sum(real_res.point, SEXTIC_ROOTS), rel=1e-12)

    def test_symmetric_pairs(self):
        res = julia_zero_real([PointH2(-1, 1), PointH2(1, 1)])
        assert abs(res.point.x) <= 1e-12

    def test_float_range_is_a_convergence_failure(self, monkeypatch):
        def overflowing(pairs):
            def fgh(p):
                raise OverflowError("math range error")

            return fgh

        monkeypatch.setattr(formred.julia, "_real_problem", overflowing)
        with pytest.raises(ConvergenceFailure,
                           match="^Julia minimization leaves the float range$"):
            julia_zero_real([PointH2(2, 3)])

    @pytest.mark.parametrize("pairs", [
        # the start point's x is inf - inf: its y is NaN
        [PointH2(1e300, 1e-300), PointH2(-1e300, 1e-300)],
        # the start point's y^2 underflows to 0
        [PointH2(0.0, 1e-300), PointH2(0.0, 1e-300)],
    ])
    def test_start_point_out_of_float_range_is_a_convergence_failure(self, pairs):
        with pytest.raises(ConvergenceFailure,
                           match="^Julia minimization leaves the float range$"):
            julia_zero_real(pairs)


class TestTangentSum:
    def test_vanishes_at_minimizer(self):
        res = julia_zero(SEXTIC_ROOTS, tol=1e-11)
        assert gradient_norm(res.point, SEXTIC_ROOTS) <= 1e-10

    def test_matches_finite_differences(self):
        rng = random.Random(75)
        step = 1e-6
        for _ in range(100):
            roots = random_roots(rng, rng.randint(2, 6))
            w = PointH3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.5, 3))
            grad = tangent_sum(w, roots)
            fd = np.zeros(3)
            for k, (dx, dy, dt) in enumerate([(step, 0, 0), (0, step, 0), (0, 0, step)]):
                up = PointH3(w.z + complex(dx, dy), w.t + dt)
                dn = PointH3(w.z - complex(dx, dy), w.t - dt)
                fd[k] = (distance_sum(up, roots) - distance_sum(dn, roots)) / (2 * step)
            riemannian_fd = w.t**2 * fd
            denom = max(np.linalg.norm(riemannian_fd), 1e-8)
            assert np.linalg.norm(grad - riemannian_fd) / denom <= 1e-5

    def test_symmetric_cancellation_is_exact(self):
        for s in (0.5, 2.0, 3.75):
            grad = tangent_sum(PointH3(0, 1.3), [complex(-s, 0), complex(s, 0)])
            assert grad[0] == 0.0
            assert grad[1] == 0.0


class TestJuliaQuadratic:
    def test_unit_form_is_fixed_point(self):
        Q = julia_quadratic(BinaryForm((1, 0, 1)))
        assert abs(Q.b) <= 1e-10 and abs(Q.c - 1) <= 1e-10 and Q.a == 1.0

    def test_sextic_zero_matches_minimizer(self):
        F = BinaryForm(SEXTIC_COEFFS)
        Q = julia_quadratic(F)
        res = julia_zero_real(root_set(F).pairs)
        z = zero_quadratic(Q)
        assert dist_h2(z, res.point) <= 1e-9

    def test_equivariance_and_invariant(self):
        rng = random.Random(76)
        F = BinaryForm(SEXTIC_COEFFS)
        rs = root_set(F)
        res = julia_zero_real(rs.pairs)
        invariant = res.objective + 2 * math.log(abs(float(F.leading)))
        for _ in range(25):
            M = random_unimodular(rng)
            FM = transform(F, M)
            rsM = root_set(FM)
            resM = julia_zero_real(rsM.pairs)
            moved = mobius_h2(res.point, M)
            assert dist_h2(resM.point, moved) <= 1e-7
            invariant_M = resM.objective + 2 * math.log(abs(float(FM.leading)))
            assert abs(invariant_M - invariant) <= 1e-8
