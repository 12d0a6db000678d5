import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    SEXTIC_T,
    SEXTIC_U_SQ,
    random_geodesic_triple_h2,
    random_h2_point,
    random_sl2c,
    random_unimodular,
)
from formred.forms import UnimodularMatrix
from formred.hyperbolic import (
    INFINITY,
    HyperboloidPoint,
    PointH2,
    PointH3,
    act_h3,
    boundary_dist_h2,
    boundary_dist_h3,
    dist_h2,
    dist_h2_cross_ratio,
    dist_h3,
    embed_h2,
    from_hyperboloid,
    in_fundamental_domain,
    minkowski,
    mobius_cp1,
    mobius_h2,
    reduce_point_exact,
    reduce_point_to_fundamental_domain,
    to_hyperboloid,
)

I = PointH2(0, 1)


class TestDistH2:
    def test_zero(self):
        assert dist_h2(I, I) == 0.0

    def test_vertical(self):
        assert dist_h2(I, PointH2(0, 2)) == pytest.approx(math.log(2), abs=1e-15)

    def test_cross_ratio_agreement(self):
        z, w = PointH2(-1, 1), PointH2(1, 1)
        assert abs(dist_h2(z, w) - dist_h2_cross_ratio(z, w)) <= 1e-12
        rng = random.Random(21)
        for _ in range(100):
            z, w = random_h2_point(rng), random_h2_point(rng)
            if abs(z.as_complex() - w.as_complex()) < 0.1:
                continue
            assert abs(dist_h2(z, w) - dist_h2_cross_ratio(z, w)) <= 1e-12

    def test_symmetry_and_positivity(self):
        rng = random.Random(22)
        for _ in range(50):
            z, w = random_h2_point(rng), random_h2_point(rng)
            assert dist_h2(z, w) == dist_h2(w, z) >= 0


class TestBoundaryDistH2:
    def test_examples(self):
        assert boundary_dist_h2(0.0, PointH2(0, 1)) == pytest.approx(0.0, abs=1e-15)
        assert boundary_dist_h2(0.0, PointH2(1, 1)) == pytest.approx(math.log(2), abs=1e-15)

    def test_infinity_matches_vertical_distance(self):
        z, w = PointH2(3, 1.5), PointH2(3, 4.0)
        lhs = boundary_dist_h2(INFINITY, z) - boundary_dist_h2(INFINITY, w)
        assert lhs == pytest.approx(math.log(w.y / z.y), abs=1e-14)
        assert lhs == pytest.approx(dist_h2(z, w), abs=1e-14)

    def test_additive_property(self):
        rng = random.Random(23)
        for _ in range(100):
            A, z, w = random_geodesic_triple_h2(rng)
            assert abs(dist_h2(z, w) - abs(boundary_dist_h2(A, z) - boundary_dist_h2(A, w))) <= 1e-10

    def test_additive_property_vertical(self):
        rng = random.Random(24)
        for _ in range(50):
            x = rng.uniform(-5, 5)
            z, w = PointH2(x, rng.uniform(0.1, 2)), PointH2(x, rng.uniform(2.5, 9))
            for A in (x, INFINITY):
                assert abs(dist_h2(z, w)
                           - abs(boundary_dist_h2(A, z) - boundary_dist_h2(A, w))) <= 1e-12


class TestDistH3:
    def test_vertical_ray(self):
        assert dist_h3(PointH3(0, 1), PointH3(0, 2)) == pytest.approx(math.log(2), abs=1e-15)

    def test_zero(self):
        w = PointH3(1j, 1)
        assert dist_h3(w, w) == 0.0

    def test_h2_embedding_is_isometric(self):
        rng = random.Random(25)
        for _ in range(100):
            z, w = random_h2_point(rng), random_h2_point(rng)
            assert abs(dist_h3(embed_h2(z), embed_h2(w)) - dist_h2(z, w)) <= 1e-12


class TestBoundaryDistH3:
    def test_examples(self):
        w = PointH3(0, 1)
        assert boundary_dist_h3(w, 0) == pytest.approx(0.0, abs=1e-15)
        assert boundary_dist_h3(w, 1) == pytest.approx(math.log(2), abs=1e-15)

    def test_additive_property(self):
        rng = random.Random(26)
        for _ in range(100):
            a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
            b = a + complex(rng.uniform(0.5, 6), rng.uniform(-3, 3))
            direction = (b - a) / abs(b - a)
            m, r = (a + b) / 2, abs(b - a) / 2
            t1, t2 = (rng.uniform(0.15 * math.pi, 0.85 * math.pi) for _ in range(2))
            w1 = PointH3(m + r * math.cos(t1) * direction, r * math.sin(t1))
            w2 = PointH3(m + r * math.cos(t2) * direction, r * math.sin(t2))
            beta = a if rng.random() < 0.5 else b
            assert abs(dist_h3(w1, w2)
                       - abs(boundary_dist_h3(w1, beta) - boundary_dist_h3(w2, beta))) <= 1e-10


class TestMobiusH2:
    def test_inversion_fixes_i(self):
        z = mobius_h2(I, UnimodularMatrix.inversion())
        assert abs(z.x) <= 1e-15 and abs(z.y - 1) <= 1e-15

    def test_translation_shifts_left(self):
        z = PointH2(float(SEXTIC_T), math.sqrt(float(SEXTIC_U_SQ)))
        moved = mobius_h2(z, UnimodularMatrix.translation(4))
        assert moved.x == pytest.approx(z.x - 4, abs=1e-12)
        assert moved.y == pytest.approx(z.y, abs=1e-12)

    def test_group_action(self):
        rng = random.Random(27)
        for _ in range(100):
            z = random_h2_point(rng)
            M, N = random_unimodular(rng), random_unimodular(rng)
            lhs = mobius_h2(mobius_h2(z, M), N)
            rhs = mobius_h2(z, M @ N)
            assert abs(lhs.as_complex() - rhs.as_complex()) <= 1e-10 * (1 + abs(rhs.as_complex()))

    def test_isometry(self):
        rng = random.Random(28)
        for _ in range(100):
            z, w = random_h2_point(rng), random_h2_point(rng)
            M = random_unimodular(rng)
            assert abs(dist_h2(mobius_h2(z, M), mobius_h2(w, M)) - dist_h2(z, w)) <= 1e-10

    def test_boundary_values(self):
        S = UnimodularMatrix.inversion()
        assert mobius_h2(INFINITY, S) == 0.0
        assert mobius_h2(0.0, S) == INFINITY
        T = UnimodularMatrix.translation(3)
        assert mobius_h2(INFINITY, T) == INFINITY
        assert mobius_h2(1.0, T) == -2.0


class TestActH3:
    def test_translation(self):
        b = complex(2, -1)
        M = ((1, -b), (0, 1))  # inverse entries are ((1, b), (0, 1))
        w = act_h3(PointH3(complex(0.5, 0.5), 2.0), M)
        assert abs(w.z - complex(2.5, -0.5)) <= 1e-14
        assert w.t == pytest.approx(2.0, abs=1e-14)

    def test_inversion_fixes_j(self):
        w = act_h3(PointH3(0, 1), UnimodularMatrix.inversion())
        assert abs(w.z) <= 1e-15 and w.t == pytest.approx(1.0, abs=1e-15)

    def test_group_action(self):
        rng = random.Random(29)
        for _ in range(100):
            w = PointH3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.3, 4))
            M, N = random_sl2c(rng), random_sl2c(rng)
            MN = (
                (M[0][0] * N[0][0] + M[0][1] * N[1][0], M[0][0] * N[0][1] + M[0][1] * N[1][1]),
                (M[1][0] * N[0][0] + M[1][1] * N[1][0], M[1][0] * N[0][1] + M[1][1] * N[1][1]),
            )
            lhs = act_h3(act_h3(w, M), N)
            rhs = act_h3(w, MN)
            scale = 1 + abs(rhs.z) + rhs.t
            assert abs(lhs.z - rhs.z) <= 1e-10 * scale
            assert abs(lhs.t - rhs.t) <= 1e-10 * scale

    def test_isometry(self):
        rng = random.Random(30)
        for _ in range(100):
            w1 = PointH3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.3, 4))
            w2 = PointH3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.3, 4))
            M = random_sl2c(rng)
            assert abs(dist_h3(act_h3(w1, M), act_h3(w2, M)) - dist_h3(w1, w2)) <= 1e-10

    def test_restricts_to_mobius_h2(self):
        rng = random.Random(31)
        for _ in range(50):
            z = random_h2_point(rng)
            M = random_unimodular(rng)
            via_h3 = act_h3(embed_h2(z), M)
            via_h2 = mobius_h2(z, M)
            assert abs(via_h3.z - via_h2.x) <= 1e-12
            assert abs(via_h3.z.imag) <= 1e-12
            assert abs(via_h3.t - via_h2.y) <= 1e-12

    def test_boundary_limit(self):
        rng = random.Random(32)
        for _ in range(50):
            beta = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            M = random_sl2c(rng)
            limit = act_h3(PointH3(beta, 1e-8), M)
            target = mobius_cp1(beta, M)
            assert abs(limit.z - target) <= 1e-6 * (1 + abs(target))


class TestMinkowskiHyperboloid:
    def test_unit_norm(self):
        rng = random.Random(33)
        for _ in range(50):
            p = to_hyperboloid(random_h2_point(rng))
            assert minkowski(p, p) == pytest.approx(1.0, abs=1e-12)
        assert minkowski((0, 0, 1), (0, 0, 1)) == 1.0

    def test_cosh_identity(self):
        rng = random.Random(34)
        for _ in range(100):
            z, w = random_h2_point(rng), random_h2_point(rng)
            lhs = math.cosh(dist_h2(z, w))
            rhs = minkowski(to_hyperboloid(z), to_hyperboloid(w))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, rhs)

    def test_center_and_sample_point(self):
        assert to_hyperboloid(I).triple() == (0.0, 0.0, 1.0)
        p = to_hyperboloid(PointH2(1, 1))
        assert p.triple() == (1.0, 0.5, 1.5)

    def test_round_trip(self):
        rng = random.Random(35)
        for _ in range(100):
            z = random_h2_point(rng)
            back = from_hyperboloid(to_hyperboloid(z))
            assert abs(back.x - z.x) <= 1e-12 * (1 + abs(z.x))
            assert abs(back.y - z.y) <= 1e-12 * (1 + z.y)

    def test_invariant_enforced(self):
        with pytest.raises(ValueError):
            HyperboloidPoint(1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            HyperboloidPoint(0.0, 0.0, -1.0)


def reference_reduce_point_exact(t, u_sq, max_iter=64):
    """Reference: the exact Gauss reduction on Fractions."""
    t, u2 = Fraction(t), Fraction(u_sq)
    M = UnimodularMatrix.identity()
    for _ in range(max_iter):
        n = math.ceil(t - Fraction(1, 2))
        if n:
            t -= n
            M = M @ UnimodularMatrix.translation(n)
        r2 = t * t + u2
        if r2 < 1:
            t, u2 = -t / r2, u2 / (r2 * r2)
            M = M @ UnimodularMatrix.inversion()
            continue
        if r2 == 1 and t < 0:
            t = -t
            M = M @ UnimodularMatrix.inversion()
        return t, u2, M
    raise AssertionError("reference reduction did not terminate")


def assert_exact_reduction_matches_reference(t, u_sq):
    got = reduce_point_exact(t, u_sq)
    assert got == reference_reduce_point_exact(t, u_sq)
    assert type(got[0]) is Fraction and type(got[1]) is Fraction


exact_points = st.tuples(
    st.builds(Fraction, st.integers(-10**9, 10**9), st.integers(1, 10**6)),
    st.builds(Fraction, st.integers(1, 10**9), st.integers(1, 10**9)))


def _moved(point, move):
    """point moved by z -> z + move, or by z -> -1/z when move is None."""
    t, u_sq = point
    if move is not None:
        return t + move, u_sq
    r2 = t * t + u_sq
    return -t / r2, u_sq / (r2 * r2)


# exact ties: Re z = +-1/2 inside, on and above the unit circle, and the unit
# circle at t = a/c with |a| < c <= 12; each as it is, translated or inverted
exact_ties = st.builds(
    _moved,
    st.one_of(
        st.tuples(st.sampled_from([Fraction(-1, 2), Fraction(1, 2)]),
                  st.sampled_from([Fraction(3, 4), Fraction(1), Fraction(4), Fraction(1, 9)])),
        st.integers(1, 12)
        .flatmap(lambda c: st.builds(Fraction, st.integers(1 - c, c - 1), st.just(c)))
        .map(lambda t: (t, 1 - t * t))),
    st.one_of(st.none(), st.integers(-20, 20)))

_unit_t = st.builds(Fraction, st.integers(-999, 999), st.just(1000))
boundary_points = st.one_of(
    # Re = +-1/2 above the unit circle, or the corners
    st.tuples(st.sampled_from([Fraction(-1, 2), Fraction(1, 2)]),
              st.builds(lambda k: Fraction(3, 4) + k, st.builds(Fraction, st.integers(0, 100),
                                                                st.integers(1, 50)))),
    # the unit circle: t rational, u^2 = 1 - t^2
    _unit_t.map(lambda t: (t, 1 - t * t)),
)


class TestFundamentalDomainReduction:
    def test_already_reduced(self):
        z = PointH2(0.1, 2.0)
        out, M = reduce_point_to_fundamental_domain(z)
        assert M == UnimodularMatrix.identity()
        assert (out.x, out.y) == (z.x, z.y)

    def test_worked_example_shift(self):
        z = PointH2(float(SEXTIC_T), math.sqrt(float(SEXTIC_U_SQ)))
        out, M = reduce_point_to_fundamental_domain(z)
        assert M == UnimodularMatrix.translation(4)
        assert out.x == pytest.approx(float(SEXTIC_T) - 4, abs=1e-12)

    def test_pure_inversion(self):
        out, M = reduce_point_to_fundamental_domain(PointH2(0, 0.5))
        assert M == UnimodularMatrix.inversion()
        assert out.x == pytest.approx(0.0, abs=1e-15)
        assert out.y == pytest.approx(2.0, abs=1e-15)

    def test_result_in_domain(self):
        rng = random.Random(36)
        for _ in range(200):
            z = PointH2(rng.uniform(-20, 20), rng.uniform(0.05, 5))
            out, M = reduce_point_to_fundamental_domain(z)
            assert in_fundamental_domain(out)
            moved = mobius_h2(z, M)
            assert abs(moved.as_complex() - out.as_complex()) <= 1e-9 * (1 + out.y)

    def test_idempotent_up_to_boundary(self):
        rng = random.Random(37)
        for _ in range(100):
            z = PointH2(rng.uniform(-20, 20), rng.uniform(0.05, 5))
            out, _ = reduce_point_to_fundamental_domain(z)
            again, M2 = reduce_point_to_fundamental_domain(out)
            assert abs(again.as_complex() - out.as_complex()) <= 1e-12 * (1 + out.y)
            if M2 != UnimodularMatrix.identity():
                # only boundary identifications may move the representative
                fixed = mobius_h2(out, M2)
                assert abs(fixed.as_complex() - out.as_complex()) <= 1e-12 * (1 + out.y)

    def test_exact_worked_example(self):
        t, u_sq, M = reduce_point_exact(SEXTIC_T, SEXTIC_U_SQ)
        assert M == UnimodularMatrix.translation(4)
        assert t == SEXTIC_T - 4 == Fraction(-14, 61)
        assert u_sq == SEXTIC_U_SQ

    def test_exact_boundary_ties_canonical(self):
        # Re = -1/2 goes to +1/2
        t, u_sq, M = reduce_point_exact(Fraction(-1, 2), Fraction(4))
        assert t == Fraction(1, 2) and u_sq == 4
        assert M == UnimodularMatrix.translation(-1)
        # left corner of the unit circle goes to the right corner
        t, u_sq, M = reduce_point_exact(Fraction(-1, 2), Fraction(3, 4))
        assert t == Fraction(1, 2) and u_sq == Fraction(3, 4)

    def test_exact_inversion(self):
        t, u_sq, M = reduce_point_exact(Fraction(0), Fraction(1, 4))
        assert t == 0 and u_sq == 4
        assert M == UnimodularMatrix.inversion()

    def test_exact_matches_float_path(self):
        rng = random.Random(38)
        for _ in range(100):
            t = Fraction(rng.randint(-400, 400), rng.randint(1, 40))
            u_sq = Fraction(rng.randint(1, 400), rng.randint(1, 40))
            te, ue, Me = reduce_point_exact(t, u_sq)
            zf, Mf = reduce_point_to_fundamental_domain(
                PointH2(float(t), math.sqrt(float(u_sq))))
            assert Me == Mf
            assert zf.x == pytest.approx(float(te), abs=1e-9)

    @settings(max_examples=300, deadline=None)
    @given(exact_points)
    def test_exact_matches_fraction_reference(self, point):
        assert_exact_reduction_matches_reference(*point)

    @settings(max_examples=300, deadline=None)
    @given(exact_ties)
    def test_exact_ties_match_fraction_reference(self, point):
        assert_exact_reduction_matches_reference(*point)

    @settings(max_examples=300, deadline=None)
    @given(boundary_points, st.lists(st.integers(-30, 30), max_size=5))
    def test_exact_boundary_ties_match_fraction_reference(self, point, steps):
        # a point of the domain's boundary, moved away exactly: the reduction
        # must end on the tie Re = +-1/2 or |z| = 1 again
        t, u_sq = point
        for n in steps:
            t, u_sq = t + n, u_sq  # z + n, then -1/z
            r2 = t * t + u_sq
            t, u_sq = -t / r2, u_sq / (r2 * r2)
        assert_exact_reduction_matches_reference(t, u_sq)

    def test_trace_records_path(self):
        path = []
        reduce_point_to_fundamental_domain(PointH2(7.3, 0.4), trace=path)
        assert len(path) >= 2
        assert in_fundamental_domain(path[-1])

    @pytest.mark.parametrize("t, u_sq", [
        (SEXTIC_T, SEXTIC_U_SQ), (Fraction(-1, 2), Fraction(4)), (Fraction(-1, 2), Fraction(3, 4)),
        (Fraction(0), Fraction(1, 4)), (Fraction(443, 47), Fraction(70, 2209))])
    def test_exact_trace_records_path(self, t, u_sq):
        def rounded(t, u_sq):
            return PointH2(float(t), math.sqrt(float(u_sq)))

        path = []
        t_red, u_sq_red, M = reduce_point_exact(t, u_sq, trace=path)
        assert (t_red, u_sq_red, M) == reduce_point_exact(t, u_sq)
        assert path[0] == rounded(t, u_sq) and path[-1] == rounded(t_red, u_sq_red)
        assert (len(path) == 1) == (M == UnimodularMatrix.identity())

    def test_invalid_point_rejected(self):
        with pytest.raises(ValueError):
            PointH2(0, 0)
        with pytest.raises(ValueError):
            PointH3(0, -1)
