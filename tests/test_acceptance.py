"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Every tolerance is pinned here; seeds live in conftest.
"""

import math
import random
import time

import numpy as np

from conftest import (
    ACCEPTANCE_SEED,
    SEXTIC_COEFFS,
    SEXTIC_FACTORS,
    SEXTIC_REDUCED,
    SEXTIC_T,
    SEXTIC_U_SQ,
    random_geodesic_triple_h2,
    random_h2_point,
    random_h2_points,
    random_sl2c,
    random_totally_complex_form,
    random_unimodular,
)
from formred.centroid import (
    alt_center_presentation,
    center_from_quadratic_factors,
    center_from_quadratic_factors_exact,
    center_of_mass_h2,
    hyperboloid_transfer,
    oracle_center,
)
from formred.forms import (
    BinaryForm,
    RealQuadraticFactor,
    UnimodularMatrix,
    from_quadratic_factors,
    height,
    transform,
)
from formred.hyperbolic import (
    PointH2,
    PointH3,
    act_h3,
    boundary_dist_h2,
    boundary_dist_h3,
    dist_h2,
    dist_h3,
    in_fundamental_domain,
    minkowski,
    mobius_h2,
    to_hyperboloid,
)
from formred.julia import distance_sum, julia_zero, tangent_sum
from formred.paramspace import (
    act_on_hermitian,
    act_on_quadratic,
    inv_zero_hermitian,
    zero_hermitian,
    zero_quadratic,
)
from formred.reduce import is_reduced, reduce_form, zero_point
from formred.roots import root_set


def _report(num, name, ok, elapsed, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" -- {detail}" if detail else ""
    print(f"ACCEPTANCE {num:02d} {name}: {status} ({elapsed:.3f} s){suffix}")
    assert ok, f"criterion {num} ({name}) failed{suffix}"


def _best_time(fn, repeats=3):
    best = math.inf
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


def test_criterion_01_worked_example_expansion():
    factors = [RealQuadraticFactor(a, b) for a, b in SEXTIC_FACTORS]

    def build():
        F = from_quadratic_factors(factors)
        return F, height(F)

    (F, h), elapsed = _best_time(build)
    ok = tuple(int(c) for c in F.coeffs) == SEXTIC_COEFFS and h == 43940
    ok = ok and elapsed < 1e-3
    _report(1, "worked-example expansion", ok, elapsed, f"height={h}")


def test_criterion_02_centroid_zero_map():
    factors = [RealQuadraticFactor(a, b) for a, b in SEXTIC_FACTORS]

    def compute():
        exact = center_from_quadratic_factors_exact(factors)
        floats = center_from_quadratic_factors(factors)
        return exact, floats

    (exact, floats), elapsed = _best_time(compute)
    t, u_sq = exact
    ok = t == SEXTIC_T and u_sq == SEXTIC_U_SQ
    ok = ok and abs(floats.x - float(SEXTIC_T)) <= 1e-12 * float(SEXTIC_T)
    u_float = math.sqrt(float(SEXTIC_U_SQ))
    ok = ok and abs(floats.y - u_float) <= 1e-12 * u_float
    ok = ok and elapsed < 1e-3
    _report(2, "centroid zero map", ok, elapsed, f"t={t}, u^2={u_sq}")


def test_criterion_03_centroid_reduction():
    F = BinaryForm(SEXTIC_COEFFS)
    rep, elapsed = _best_time(lambda: reduce_form(F, method="centroid"))
    ok = rep.matrix == UnimodularMatrix.translation(4)
    ok = ok and rep.reduced == BinaryForm(SEXTIC_REDUCED)
    ok = ok and rep.height_after == 12740
    ok = ok and elapsed < 10e-3
    _report(3, "centroid reduction", ok, elapsed, f"matrix={rep.matrix}")


def test_criterion_04_julia_agreement():
    F = BinaryForm(SEXTIC_COEFFS)
    rep, elapsed = _best_time(lambda: reduce_form(F, method="julia"))
    ok = rep.matrix == UnimodularMatrix.translation(4)
    ok = ok and rep.reduced == BinaryForm(SEXTIC_REDUCED)
    ok = ok and rep.height_after == 12740
    ok = ok and rep.diagnostics["gradient_norm"] <= 1e-10
    ok = ok and 3.5 < rep.zero_point.point.x < 4.5
    ok = ok and elapsed < 100e-3
    _report(4, "julia-method agreement", ok, elapsed,
            f"w0.x={rep.zero_point.point.x:.6f}, grad={rep.diagnostics['gradient_norm']:.1e}")


def test_criterion_05_oracle_equivalence():
    rng = random.Random(ACCEPTANCE_SEED + 5)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        pts = random_h2_points(rng, rng.randint(2, 5))
        gap = dist_h2(oracle_center(pts), center_of_mass_h2(pts))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 30.0
    _report(5, "oracle equivalence", ok, elapsed, f"worst gap={worst:.2e}")


def test_criterion_06_equivariance_suites():
    rng = random.Random(ACCEPTANCE_SEED + 6)
    t0 = time.perf_counter()
    F = BinaryForm(SEXTIC_COEFFS)
    base = {m: zero_point(root_set(F), method=m)[0].point for m in ("centroid", "julia")}
    worst_form = 0.0
    for _ in range(50):
        M = random_unimodular(rng, bound=10)
        FM = transform(F, M)
        for method in ("centroid", "julia"):
            zm = zero_point(root_set(FM), method=method)[0].point
            gap = dist_h2(zm, mobius_h2(base[method], M))
            worst_form = max(worst_form, gap)
    worst_param = 0.0
    for _ in range(50):
        M = random_unimodular(rng, bound=10)
        w = random_h2_point(rng, x_range=(-2, 2), y_range=(0.4, 3))
        Q = __import__("formred.paramspace", fromlist=["inv_zero_quadratic"]).inv_zero_quadratic(w)
        lhs = zero_quadratic(act_on_quadratic(Q, M))
        rhs = mobius_h2(w, M)
        worst_param = max(worst_param, abs(lhs.as_complex() - rhs.as_complex()))
        N = random_sl2c(rng)
        w3 = PointH3(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), rng.uniform(0.4, 3))
        H = inv_zero_hermitian(w3)
        lhs3 = zero_hermitian(act_on_hermitian(H, N))
        rhs3 = act_h3(w3, N)
        worst_param = max(worst_param, abs(lhs3.z - rhs3.z), abs(lhs3.t - rhs3.t))
    elapsed = time.perf_counter() - t0
    ok = worst_form <= 1e-7 and worst_param <= 1e-10 and elapsed < 60.0
    _report(6, "equivariance suites", ok, elapsed,
            f"zero-map worst={worst_form:.2e}, form-space worst={worst_param:.2e}")


def test_criterion_07_gradient_certification():
    rng = random.Random(ACCEPTANCE_SEED + 7)
    t0 = time.perf_counter()
    step = 1e-6
    worst_rel = 0.0
    for _ in range(100):
        n = rng.randint(2, 6)
        roots = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(n)]
        w = PointH3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.5, 3))
        grad = tangent_sum(w, roots)
        fd = np.zeros(3)
        for k, (dx, dy, dt) in enumerate([(step, 0, 0), (0, step, 0), (0, 0, step)]):
            up = PointH3(w.z + complex(dx, dy), w.t + dt)
            dn = PointH3(w.z - complex(dx, dy), w.t - dt)
            fd[k] = (distance_sum(up, roots) - distance_sum(dn, roots)) / (2 * step)
        fd *= w.t**2
        rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-8)
        worst_rel = max(worst_rel, rel)
    worst_spread = 0.0
    for _ in range(20):
        n = rng.randint(3, 6)
        roots = [complex(rng.uniform(-4, 4), rng.uniform(-4, 4)) for _ in range(n)]
        if max(abs(r - roots[0]) for r in roots) < 1.0:
            continue
        base = julia_zero(roots).point
        for _ in range(5):
            start = PointH3(
                complex(base.z.real + rng.uniform(-0.5, 0.5),
                        base.z.imag + rng.uniform(-0.5, 0.5)),
                base.t * math.exp(rng.uniform(-0.5, 0.5)))
            again = julia_zero(roots, start=start).point
            worst_spread = max(worst_spread, abs(again.z - base.z), abs(again.t - base.t))
    elapsed = time.perf_counter() - t0
    ok = worst_rel <= 1e-5 and worst_spread <= 1e-8 and elapsed < 30.0
    _report(7, "gradient certification", ok, elapsed,
            f"worst FD rel={worst_rel:.2e}, restart spread={worst_spread:.2e}")


def test_criterion_08_geometry_identities():
    rng = random.Random(ACCEPTANCE_SEED + 8)
    t0 = time.perf_counter()
    worst_add2 = worst_add3 = worst_cosh = worst_transfer = worst_group = 0.0
    for _ in range(100):
        A, z, w = random_geodesic_triple_h2(rng)
        worst_add2 = max(worst_add2, abs(
            dist_h2(z, w) - abs(boundary_dist_h2(A, z) - boundary_dist_h2(A, w))))
    for _ in range(100):
        a = complex(rng.uniform(-4, 4), rng.uniform(-4, 4))
        b = a + complex(rng.uniform(0.5, 6), rng.uniform(-3, 3))
        direction = (b - a) / abs(b - a)
        m, r = (a + b) / 2, abs(b - a) / 2
        t1, t2 = (rng.uniform(0.15 * math.pi, 0.85 * math.pi) for _ in range(2))
        w1 = PointH3(m + r * math.cos(t1) * direction, r * math.sin(t1))
        w2 = PointH3(m + r * math.cos(t2) * direction, r * math.sin(t2))
        beta = a if rng.random() < 0.5 else b
        worst_add3 = max(worst_add3, abs(
            dist_h3(w1, w2) - abs(boundary_dist_h3(w1, beta) - boundary_dist_h3(w2, beta))))
    for _ in range(100):
        z, w = random_h2_point(rng), random_h2_point(rng)
        coshd = math.cosh(dist_h2(z, w))
        worst_cosh = max(worst_cosh, abs(
            coshd - minkowski(to_hyperboloid(z), to_hyperboloid(w))) / max(1.0, coshd))
    for _ in range(100):
        pts = random_h2_points(rng, rng.randint(1, 6))
        worst_transfer = max(worst_transfer,
                             dist_h2(hyperboloid_transfer(pts), center_of_mass_h2(pts)))
    for _ in range(100):
        w3 = PointH3(complex(rng.uniform(-3, 3), rng.uniform(-3, 3)), rng.uniform(0.3, 4))
        M, N = random_sl2c(rng), random_sl2c(rng)
        MN = (
            (M[0][0] * N[0][0] + M[0][1] * N[1][0], M[0][0] * N[0][1] + M[0][1] * N[1][1]),
            (M[1][0] * N[0][0] + M[1][1] * N[1][0], M[1][0] * N[0][1] + M[1][1] * N[1][1]),
        )
        lhs = act_h3(act_h3(w3, M), N)
        rhs = act_h3(w3, MN)
        scale = 1 + abs(rhs.z) + rhs.t
        worst_group = max(worst_group, abs(lhs.z - rhs.z) / scale, abs(lhs.t - rhs.t) / scale)
    elapsed = time.perf_counter() - t0
    ok = (worst_add2 <= 1e-10 and worst_add3 <= 1e-10 and worst_cosh <= 1e-10
          and worst_transfer <= 1e-9 and worst_group <= 1e-10 and elapsed < 30.0)
    _report(8, "geometry identities", ok, elapsed,
            f"additive=({worst_add2:.1e},{worst_add3:.1e}) cosh={worst_cosh:.1e} "
            f"transfer={worst_transfer:.1e} group={worst_group:.1e}")


def test_criterion_09_presentation_equivalence():
    rng = random.Random(ACCEPTANCE_SEED + 9)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        r = rng.randint(1, 6)
        factors = []
        while len(factors) < r:
            a = rng.uniform(-6, 6)
            b = rng.uniform(0.5, 12)
            if 4 * b - a * a > 0.1:
                factors.append(RealQuadraticFactor(a, b))
        lemma = center_from_quadratic_factors(factors)
        roots = center_of_mass_h2([PointH2(f.x, f.y) for f in factors])
        alt = alt_center_presentation(factors)
        worst = max(worst, dist_h2(lemma, roots), dist_h2(lemma, alt), dist_h2(roots, alt))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and elapsed < 5.0
    _report(9, "presentation equivalence", ok, elapsed, f"worst gap={worst:.2e}")


def test_criterion_10_scramble_recover_corpus():
    rng = random.Random(ACCEPTANCE_SEED + 10)
    t0 = time.perf_counter()
    in_domain = 0
    shrunk_vs_scrambled = 0
    at_most_original = 0
    total = 200
    runs = 0
    for _ in range(total):
        degree = rng.choice([4, 6, 8])
        F, _ = random_totally_complex_form(rng, degree, coeff_bound=10**4)
        M = random_unimodular(rng, bound=20)
        scrambled = transform(F, M)
        original_height = height(F)
        for method in ("centroid", "julia"):
            runs += 1
            rep = reduce_form(scrambled, method=method)
            if in_fundamental_domain(rep.reduced_point.point) and is_reduced(rep.reduced,
                                                                             method=method):
                in_domain += 1
            if rep.height_after <= rep.height_before:
                shrunk_vs_scrambled += 1
            if method == "centroid" and rep.height_after <= original_height:
                at_most_original += 1
    elapsed = time.perf_counter() - t0
    ok = in_domain == runs and shrunk_vs_scrambled == runs and elapsed < 300.0
    _report(10, "scramble-recover corpus", ok, elapsed,
            f"{total} forms x2 methods; zero-in-domain {in_domain}/{runs}; "
            f"height<=scrambled {shrunk_vs_scrambled}/{runs}; "
            f"recovered<=original {at_most_original}/{total} (reported, not asserted)")
