import math
import random
from fractions import Fraction

import pytest

from conftest import random_h2_point, random_sl2c, random_unimodular
from formred.errors import DegenerateCombination, NotPositiveDefinite
from formred.hyperbolic import PointH2, PointH3, act_h3, mobius_h2
from formred.paramspace import (
    HermitianForm,
    PosDefQuadratic,
    act_on_hermitian,
    act_on_quadratic,
    convex_combination,
    embed_real,
    inv_zero_hermitian,
    inv_zero_quadratic,
    zero_hermitian,
    zero_quadratic,
)


def random_pd_quadratic(rng):
    a = rng.uniform(0.3, 3)
    b = rng.uniform(-3, 3)
    delta = rng.uniform(0.2, 6)
    return PosDefQuadratic(a, b, (delta + b * b) / a)


class TestZeroQuadratic:
    def test_unit_form(self):
        z = zero_quadratic(PosDefQuadratic(1, 0, 1))
        assert (z.x, z.y) == (0.0, 1.0)

    def test_complete_the_square(self):
        z = zero_quadratic(PosDefQuadratic(1, 2, 5))
        assert (z.x, z.y) == (2.0, 1.0)

    def test_round_trip(self):
        rng = random.Random(41)
        for _ in range(100):
            w = random_h2_point(rng)
            z = zero_quadratic(inv_zero_quadratic(w))
            assert abs(z.x - w.x) <= 1e-12 * (1 + abs(w.x))
            assert abs(z.y - w.y) <= 1e-12 * (1 + w.y)

    def test_rejects_boundary(self):
        with pytest.raises(NotPositiveDefinite):
            zero_quadratic(PosDefQuadratic.boundary_point(2.0))

    def test_indefinite_unconstructible(self):
        with pytest.raises(NotPositiveDefinite):
            PosDefQuadratic(1, 2, 1)
        with pytest.raises(NotPositiveDefinite):
            PosDefQuadratic(-1, 0, -1)


class TestInvZeroQuadratic:
    def test_unit(self):
        assert inv_zero_quadratic(PointH2(0, 1)) == PosDefQuadratic(1, 0, 1)

    def test_worked_example_factors(self):
        # plain coefficients of the -2b convention: (1, -2b, c)
        assert inv_zero_quadratic(PointH2(2, 3)).coefficients() == (1.0, -4.0, 13.0)
        assert inv_zero_quadratic(PointH2(4, 7)).coefficients() == (1.0, -8.0, 65.0)

    def test_projective_equality(self):
        assert PosDefQuadratic(2, 0, 2) == PosDefQuadratic(1, 0, 1)
        assert PosDefQuadratic(2, 1, 2) != PosDefQuadratic(1, 0, 1)

    def test_projective_equality_of_exact_coefficients(self):
        assert PosDefQuadratic(Fraction(1, 2), 0, Fraction(1, 2)) == PosDefQuadratic(1, 0, 1)

    def test_negative_factor_is_not_equality(self):
        assert PosDefQuadratic(0, 0, 1) != PosDefQuadratic(0, 0, -1)


class TestHermitian:
    def test_zero_unit(self):
        w = zero_hermitian(HermitianForm(1, 0, 1))
        assert (w.z, w.t) == (0j, 1.0)

    def test_round_trip(self):
        rng = random.Random(42)
        for _ in range(100):
            w = PointH3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.2, 4))
            back = zero_hermitian(inv_zero_hermitian(w))
            assert abs(back.z - w.z) <= 1e-12 * (1 + abs(w.z))
            assert abs(back.t - w.t) <= 1e-12 * (1 + w.t)

    def test_projective_equality(self):
        assert HermitianForm(2, 2 + 2j, 5) == HermitianForm(1, 1 + 1j, 2.5)
        assert HermitianForm(0, 0, 1) != HermitianForm(0, 0, -1)

    def test_inv_zero_c_field(self):
        w = PointH3(complex(1, 2), 3.0)
        H = inv_zero_hermitian(w)
        assert H.c == pytest.approx(abs(w.z) ** 2 + w.t**2, abs=1e-14)

    def test_embedded_real_lands_on_cross_section(self):
        rng = random.Random(43)
        for _ in range(50):
            Q = random_pd_quadratic(rng)
            w = zero_hermitian(embed_real(Q))
            assert abs(w.z.imag) <= 1e-14
            z = zero_quadratic(Q)
            assert abs(w.z.real - z.x) <= 1e-12 * (1 + abs(z.x))
            assert abs(w.t - z.y) <= 1e-12


class TestActions:
    def test_identity(self):
        from formred.forms import UnimodularMatrix
        Q = PosDefQuadratic(1, 2, 5)
        assert act_on_quadratic(Q, UnimodularMatrix.identity()) == Q
        H = HermitianForm(1, complex(1, 1), 3)
        assert act_on_hermitian(H, UnimodularMatrix.identity()) == H

    def test_rejects_determinant_other_than_one(self):
        with pytest.raises(ValueError, match="determinant 1"):
            act_on_quadratic(PosDefQuadratic(1, 0, 1), ((2, 0), (0, 1)))
        with pytest.raises(ValueError, match="determinant 1"):
            act_on_hermitian(HermitianForm(1, 0, 1), ((2, 0), (0, 1)))

    def test_delta_invariance(self):
        rng = random.Random(44)
        for _ in range(100):
            Q = random_pd_quadratic(rng)
            QM = act_on_quadratic(Q, random_unimodular(rng))
            assert abs(QM.delta - Q.delta) <= 1e-10 * abs(Q.delta) * 1e2
            H = embed_real(Q)
            HM = act_on_hermitian(H, random_sl2c(rng))
            assert abs(HM.delta - H.delta) <= 1e-8 * max(1.0, abs(H.delta))

    def test_real_equivariance(self):
        rng = random.Random(45)
        for _ in range(100):
            Q = random_pd_quadratic(rng)
            M = random_unimodular(rng)
            lhs = zero_quadratic(act_on_quadratic(Q, M))
            rhs = mobius_h2(zero_quadratic(Q), M)
            assert abs(lhs.as_complex() - rhs.as_complex()) <= 1e-10 * (1 + abs(rhs.as_complex()))

    def test_hermitian_equivariance(self):
        rng = random.Random(46)
        for _ in range(100):
            w = PointH3(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.3, 3))
            H = inv_zero_hermitian(w)
            M = random_sl2c(rng)
            lhs = zero_hermitian(act_on_hermitian(H, M))
            rhs = act_h3(w, M)
            scale = 1 + abs(rhs.z) + rhs.t
            assert abs(lhs.z - rhs.z) <= 1e-10 * scale
            assert abs(lhs.t - rhs.t) <= 1e-10 * scale

    def test_embedding_commutes_with_action(self):
        rng = random.Random(47)
        for _ in range(50):
            Q = random_pd_quadratic(rng)
            M = random_unimodular(rng)
            lhs = embed_real(act_on_quadratic(Q, M))
            rhs = act_on_hermitian(embed_real(Q), M)
            assert abs(lhs.a * rhs.c - rhs.a * lhs.c) <= 1e-10 * max(1, abs(lhs.a * rhs.c))
            assert abs(lhs.b * rhs.a - rhs.b * lhs.a) <= 1e-10 * max(1, abs(lhs.a), abs(rhs.a))


class TestConvexCombination:
    def test_midpoint_of_boundary_pair(self):
        Q = convex_combination([0.5, 0.5],
                               [PosDefQuadratic.boundary_point(0.0),
                                PosDefQuadratic.boundary_point(2.0)])
        z = zero_quadratic(Q)
        assert z.x == pytest.approx(1.0, abs=1e-14)
        assert z.y == pytest.approx(1.0, abs=1e-14)

    def test_single_interior_weight(self):
        Q = PosDefQuadratic(1, 2, 5)
        out = convex_combination([1.0], [Q])
        assert zero_quadratic(out).as_complex() == zero_quadratic(Q).as_complex()

    def test_boundary_pair_stays_on_geodesic(self):
        rng = random.Random(48)
        qa = PosDefQuadratic.boundary_point(0.0)
        qb = PosDefQuadratic.boundary_point(4.0)
        for _ in range(100):
            lam = rng.uniform(0.01, 0.99)
            z = zero_quadratic(convex_combination([lam, 1 - lam], [qa, qb]))
            # semicircle over (0, 4): center 2, radius 2
            assert math.hypot(z.x - 2.0, z.y) == pytest.approx(2.0, abs=1e-12)

    def test_sweep_is_monotone_from_b_to_a(self):
        qa = PosDefQuadratic.boundary_point(0.0)
        qb = PosDefQuadratic.boundary_point(4.0)
        xs = []
        for lam in [0.05, 0.2, 0.4, 0.6, 0.8, 0.95]:
            xs.append(zero_quadratic(convex_combination([lam, 1 - lam], [qa, qb])).x)
        assert all(a > b for a, b in zip(xs, xs[1:]))  # moves from the b side towards a

    def test_hull_membership_three_points(self):
        rng = random.Random(49)

        def side(p, w1, w2):
            # sign relative to the geodesic through w1, w2 (generic, non-vertical)
            m = (abs(w2.as_complex()) ** 2 - abs(w1.as_complex()) ** 2) / (2 * (w2.x - w1.x))
            r2 = (w1.x - m) ** 2 + w1.y**2
            return (p.x - m) ** 2 + p.y**2 - r2

        for _ in range(100):
            pts = [random_h2_point(rng) for _ in range(3)]
            if min(abs(p.x - q.x) for p in pts for q in pts if p is not q) < 1e-3:
                continue
            weights = [rng.random() for _ in range(3)]
            total = sum(weights)
            weights = [w / total for w in weights]
            z = zero_quadratic(convex_combination(weights, [inv_zero_quadratic(p) for p in pts]))
            for i in range(3):
                w1, w2 = pts[i], pts[(i + 1) % 3]
                other = pts[(i + 2) % 3]
                s_z, s_other = side(z, w1, w2), side(other, w1, w2)
                assert s_z * s_other >= -1e-9

    def test_degenerate_rejected(self):
        q = PosDefQuadratic.boundary_point(1.0)
        with pytest.raises(DegenerateCombination):
            convex_combination([0.5, 0.5], [q, q])
        with pytest.raises(DegenerateCombination):
            convex_combination([1.0], [PosDefQuadratic.boundary_infinity()])

    def test_weight_validation(self):
        q = PosDefQuadratic(1, 0, 1)
        with pytest.raises(ValueError):
            convex_combination([0.4, 0.4], [q, q])
        with pytest.raises(ValueError):
            convex_combination([-0.5, 1.5], [q, q])
