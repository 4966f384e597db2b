import tracemalloc

import numpy as np
import pytest

from pcurlcurl import verify
from pcurlcurl.assembly import EdgeField, assemble_gradient_map, curl_per_tet
from pcurlcurl.linalg import LinearSolveReport, SolverError, cg
from pcurlcurl.mesh import build_box_mesh
from pcurlcurl.verify import (check_green_formulas, check_ineq1, check_ineq2,
                              check_inequalities, default_smooth_pair,
                              extract_scalar_potential, friedrich_constant,
                              SmoothFieldPair)

PI = np.pi


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# -- inequalities -----------------------------------------------------------

def test_ineq1_p2_delta0_is_identity():
    r = check_ineq1(2.0, 0.0)
    assert abs(r.worst_ratio - 1.0) <= 1e-12
    assert r.violations == 0


def test_ineq2_p2_delta0_is_identity():
    r = check_ineq2(2.0, 0.0)
    assert abs(r.worst_ratio - 1.0) <= 1e-12
    assert r.violations == 0


def test_ineq1_antipodal_spot_value():
    # xi = (1,0,0), eta = (-1,0,0), p = 3, delta = 0:
    # LHS = |xi + eta_flip| = 2, RHS envelope = 2 * 2  ->  ratio 1/2
    xi = np.array([1.0, 0, 0])
    eta = np.array([-1.0, 0, 0])
    p = 3.0
    lhs = np.linalg.norm(np.linalg.norm(xi)**(p - 2) * xi
                         - np.linalg.norm(eta)**(p - 2) * eta)
    rhs = np.linalg.norm(xi - eta) * (np.linalg.norm(xi) + np.linalg.norm(eta))**(p - 2)
    assert lhs / rhs == pytest.approx(0.5)
    # and the computed envelope constant dominates this pair
    r = check_ineq1(3.0, 0.0)
    assert r.worst_ratio >= 0.5


def test_ineq2_one_sided_spot_value():
    # xi = (1,0,0), eta = 0, p = 4, delta = 2: LHS = 1, pairing = 1
    xi = np.array([1.0, 0, 0])
    lhs = np.linalg.norm(xi)**4  # |xi-0|^(2+2) (|xi|+0)^(p-2-2)
    pairing = (np.linalg.norm(xi)**2 * xi) @ xi
    assert lhs / pairing == pytest.approx(1.0)
    r = check_ineq2(4.0, 2.0)
    assert r.worst_ratio >= 1.0


def test_reports_reproducible_and_seed_stable():
    a = check_ineq1(4.0, 0.0)
    b = check_ineq1(4.0, 0.0)
    assert a.worst_ratio == b.worst_ratio
    d = check_ineq2(6.0, 0.0)
    assert d.violations == 0 and np.isfinite(d.worst_ratio)


def test_ratio_scale_invariance():
    # homogeneity degree p-1 on both sides: ratio(c xi, c eta) = ratio(xi, eta)
    rng = np.random.default_rng(3)
    p, delta = 6.0, 0.0
    xi = rng.standard_normal(3)
    eta = rng.standard_normal(3)

    def ratio1(xi, eta):
        lhs = np.linalg.norm(np.linalg.norm(xi)**(p - 2) * xi
                             - np.linalg.norm(eta)**(p - 2) * eta)
        rhs = (np.linalg.norm(xi - eta)**(1 - delta)
               * (np.linalg.norm(xi) + np.linalg.norm(eta))**(p - 2 + delta))
        return lhs / rhs

    base = ratio1(xi, eta)
    for c in (1e-3, 7.0, 1e3):
        assert ratio1(c * xi, c * eta) == pytest.approx(base, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0, 10.0, 50.0, 100.0])
def test_ineq2_envelope_matches_antipodal_prediction(p):
    # the antipodal pair (v, -v) gives LHS/pairing = 2^(p-2) exactly and
    # attains the supremum, the sharp constant for p >= 2 (Lindqvist,
    # Notes on the p-Laplace equation, 2006); no side of the ratio
    # cancels, so no evaluated pair reads above it by more than the
    # rounding of (|xi| + |eta|)^(p-2), and large p stays finite
    # (|eta| <= |xi| = 1, so no power overflows)
    r = check_ineq2(p, 0.0)
    assert np.isfinite(r.worst_ratio)
    assert abs(r.worst_ratio / 2.0 ** (p - 2.0) - 1.0) <= 1e-14
    assert r.violations == 0


@pytest.mark.parametrize("p", [2.2, 2.5, 2.8])
def test_ineq1_delta0_is_the_radial_near_equal_limit(p):
    # for 2 < p < 3 the supremum is the s -> 0 limit on theta = 0, where
    # (1 - (1-s)^(p-1)) / s -> p - 1 and |xi| + |eta| -> 2; the limit is
    # flat to first order in s, so the smallest grid points reach it
    r = check_ineq1(p, 0.0)
    assert abs(r.worst_ratio / ((p - 1.0) / 2.0 ** (p - 2.0)) - 1.0) <= 1e-14


# worst_ratio of the sampled sweep that the computed suprema replaced:
# 1M (s, theta) pairs of PCG64 seed 0, half uniform and half log-uniform
# toward s, theta = 1e-12, with (0, pi), (1, 0) and (1e-12, 0) pinned
SAMPLED_1M = [
    ("ineq1", 1.2, 0.0, 1.7411011265922491),
    ("ineq1", 1.2, 0.09999999999999998, 1.7411011265922482),
    ("ineq1", 1.2, 0.19999999999999996, 1.7411011265922485),
    ("ineq2", 1.2, 0.0, 2.871745887492588),
    ("ineq1", 1.5, 0.0, 1.4142135623730956),
    ("ineq1", 1.5, 0.25, 1.4142135623730951),
    ("ineq1", 1.5, 0.5, 1.414213562373095),
    ("ineq2", 1.5, 0.0, 1.4142135623730951),
    ("ineq1", 2.0, 0.0, 1.0000000000000004),
    ("ineq1", 2.0, 0.5, 1.0),
    ("ineq1", 2.0, 1.0, 1.0),
    ("ineq2", 2.0, 0.0, 1.0000000000000007),
    ("ineq1", 2.5, 0.0, 1.0606601717798214),
    ("ineq1", 2.5, 0.5, 1.0),
    ("ineq1", 2.5, 1.0, 1.0),
    ("ineq2", 2.5, 0.0, 1.4142135623730958),
    ("ineq2", 2.5, 0.25, 1.414213562373095),
    ("ineq2", 2.5, 0.5, 1.4142135623730951),
    ("ineq1", 2.8, 0.0, 1.0338285194973318),
    ("ineq1", 2.8, 0.5, 1.0),
    ("ineq1", 2.8, 1.0, 1.0),
    ("ineq2", 2.8, 0.0, 1.741101126592249),
    ("ineq2", 2.8, 0.3999999999999999, 1.741101126592248),
    ("ineq2", 2.8, 0.7999999999999998, 1.741101126592248),
    ("ineq1", 3.0, 0.0, 1.0000000000000002),
    ("ineq1", 3.0, 0.5, 1.0),
    ("ineq1", 3.0, 1.0, 1.0),
    ("ineq2", 3.0, 0.0, 2.0000000000000013),
    ("ineq2", 3.0, 0.5, 2.0000000000000004),
    ("ineq2", 3.0, 1.0, 2.0),
    ("ineq1", 4.0, 0.0, 1.0),
    ("ineq1", 4.0, 0.5, 1.0),
    ("ineq1", 4.0, 1.0, 1.0),
    ("ineq2", 4.0, 0.0, 4.000000000000003),
    ("ineq2", 4.0, 1.0, 4.0),
    ("ineq2", 4.0, 2.0, 4.0),
    ("ineq1", 6.0, 0.0, 1.0),
    ("ineq1", 6.0, 0.5, 1.0),
    ("ineq1", 6.0, 1.0, 1.0),
    ("ineq2", 6.0, 0.0, 16.000000000000014),
    ("ineq2", 6.0, 2.0, 16.0),
    ("ineq2", 6.0, 4.0, 16.0),
    ("ineq1", 10.0, 0.0, 1.0),
    ("ineq1", 10.0, 0.5, 1.0),
    ("ineq1", 10.0, 1.0, 1.0),
    ("ineq2", 10.0, 0.0, 256.0000000000003),
    ("ineq2", 10.0, 4.0, 256.0),
    ("ineq2", 10.0, 8.0, 256.0),
    ("ineq1", 50.0, 0.0, 1.0),
    ("ineq1", 50.0, 0.5, 1.0),
    ("ineq1", 50.0, 1.0, 1.0),
    ("ineq2", 50.0, 0.0, 281474976710657.25),
    ("ineq2", 50.0, 24.0, 281474976710656.0),
    ("ineq2", 50.0, 48.0, 281474976710656.0),
    ("ineq1", 100.0, 0.0, 1.0),
    ("ineq1", 100.0, 0.5, 1.0),
    ("ineq1", 100.0, 1.0, 1.0),
    ("ineq2", 100.0, 0.0, 3.1691265005706e+29),
    ("ineq2", 100.0, 49.0, 3.1691265005705735e+29),
    ("ineq2", 100.0, 98.0, 3.1691265005705735e+29),
]


def test_computed_constants_dominate_the_sampled_ones():
    # no constant falls below the 1M-sample sweep by more than 4 ulps,
    # and none exceeds it by more than rounding
    grid = [1.2, 1.5, 2.0, 2.5, 2.8, 3.0, 4.0, 6.0, 10.0, 50.0, 100.0]
    reps = check_inequalities(grid)
    assert [(r.inequality, r.p, r.delta) for r in reps] == \
        [row[:3] for row in SAMPLED_1M]
    for r, (*_, sampled) in zip(reps, SAMPLED_1M):
        assert sampled - 4 * np.spacing(sampled) <= r.worst_ratio \
            <= sampled * (1.0 + 1e-13), r
        assert r.violations == 0


@pytest.mark.parametrize("inequality, p, delta",
                         [("ineq1", 1.2, 0.1), ("ineq1", 1.5, 0.25),
                          ("ineq1", 2.5, 0.5), ("ineq1", 10.0, 0.0),
                          ("ineq2", 1.5, 0.0), ("ineq2", 2.5, 0.25),
                          ("ineq2", 4.0, 1.0), ("ineq2", 10.0, 8.0)])
def test_theta_max_is_the_maximum_over_a_dense_theta_scan(inequality, p,
                                                          delta):
    # the maximum over theta is at theta = 0 or pi: a scan of 4001
    # angles, both ends included, finds nothing higher
    rng = np.random.default_rng(12)
    s = np.concatenate([rng.random(100), 10.0 ** rng.uniform(-9, 0, 50),
                        [1.0]])[None, :]
    p_col, delta_col = np.array([[p]]), np.array([[delta]])
    h = np.sin(0.5 * np.linspace(0.0, np.pi, 4001))**2
    scan, _ = verify._ratio(inequality, p_col, delta_col, s,
                            h[:, None, None])
    top, bad, _ = verify._theta_max(inequality, p_col, delta_col, s)
    assert np.array_equal(top, scan.max(axis=0)) and bad.sum() == 0


def test_delta_range_validation():
    with pytest.raises(ValueError):
        check_ineq1(3.0, 1.5)          # delta > 1 blows up as eta -> xi
    with pytest.raises(ValueError):
        check_ineq2(4.0, 2.5)          # delta > p-2
    # below p = 2 the ineq2 range is delta = 0 alone, and p must exceed 1
    for p, delta in ((1.5, -1.0), (1.5, 3.0), (1.5, 1e-300)):
        with pytest.raises(ValueError, match="delta must lie in"):
            check_ineq2(p, delta)
    for check in (check_ineq1, check_ineq2):
        for p in (0.5, 1.0, float("nan")):
            with pytest.raises(ValueError, match="p must exceed 1"):
                check(p, 0.0)
    with pytest.raises(ValueError, match="p must exceed 1"):
        check_inequalities([2.0, 1.0])


@pytest.mark.parametrize("p", [float("inf"), -float("inf"), float("nan")])
def test_non_finite_exponents_are_rejected(p):
    for check in (check_ineq1, check_ineq2):
        with pytest.raises(ValueError, match="p must exceed 1"):
            check(p, 0.0)
    with pytest.raises(ValueError, match="p must exceed 1"):
        check_inequalities([2.0, p])


@pytest.mark.parametrize("rounds", [0, 5, None])
def test_sweep_equals_single_calls(monkeypatch, rounds):
    # at p = 1.2 and 1.4 the ineq1 cap p - 1 is not a round number: the
    # top delta must be the cap itself, or the sweep rejects its own grid.
    # Rows searched together equal lone rows at any refinement depth
    # (None: the default)
    if rounds is not None:
        monkeypatch.setattr(verify, "_ROUNDS", rounds)
    grid = [1.2, 1.4, 2, 3, 4, 6, 10, 50]
    reps = check_inequalities(grid)
    assert [(r.inequality, r.p) for r in reps] == [
        (q, p) for p in grid for q in ("ineq1", "ineq2")
        for _ in verify._delta_grid(p, q)]
    assert len(reps) == 3 * 4 + 6 * 5
    assert [r.delta for r in reps[:4]] == [0.0, 0.5 * (1.2 - 1.0),
                                           1.2 - 1.0, 0.0]
    for r in reps:
        check = check_ineq1 if r.inequality == "ineq1" else check_ineq2
        assert r == check(r.p, r.delta)
        assert r.violations == 0


def test_sweep_draws_once(monkeypatch):
    # every row of one inequality is searched in the same arrays: one
    # `_theta_max` call per inequality and round, however many rows
    calls = []
    theta_max = verify._theta_max

    def counting(inequality, p, delta, s):
        calls.append((inequality, p.shape[0]))
        return theta_max(inequality, p, delta, s)

    monkeypatch.setattr(verify, "_theta_max", counting)
    reps = check_inequalities([2.0, 50.0, 3.0, 100.0, 1.5])
    rounds = verify._ROUNDS + 1
    assert calls == [("ineq1", 15)] * rounds + [("ineq2", 11)] * rounds
    assert [r.p for r in reps] == \
        [2.0] * 4 + [50.0] * 6 + [3.0] * 6 + [100.0] * 6 + [1.5] * 4


def test_sweep_traced_peak_does_not_grow_with_the_draw(monkeypatch):
    # the search keeps running maxima, not the points of every round, so
    # its working set is one round's however many rounds it runs; round 0
    # is cut to the size of the others, or its working set would hide
    # that of all the later rounds
    monkeypatch.setattr(verify, "_S_GRID", np.linspace(0.0, 1.0,
                                                       verify._REFINE))
    peaks = []
    for rounds in (12, 48):
        monkeypatch.setattr(verify, "_ROUNDS", rounds)
        peaks.append(traced_peak(lambda: check_inequalities([3.0])))
    assert peaks[1] <= 1.1 * peaks[0]


def _negated_map_terms(s, t, h, log_t, p):
    """`_power_terms` of Phi(v) = -v: the left side is |xi - eta|, the
    pairing -|xi - eta|^2."""
    sq = s * s + 4.0 * t * h
    return np.sqrt(sq), -sq


def test_nonmonotone_map_is_rejected(monkeypatch):
    monkeypatch.setattr(verify, "_power_terms", _negated_map_terms)
    with pytest.raises(AssertionError, match="smallest sampled pairing"):
        check_ineq2(3.0, 0.0)
    with pytest.raises(AssertionError, match="smallest sampled pairing"):
        check_inequalities([3.0])
    # the difference bound certifies no monotonicity
    assert check_ineq1(3.0, 0.0).violations == 0


def test_smallest_pairing_is_over_the_whole_draw(monkeypatch):
    # the sweep must report the smallest pairing over every round of the
    # search, not that of round 0. A pairing of -h / (1e-6 + (s - 1/3)^2)
    # is 0 at theta = 0 and negative at theta = pi, most negative at
    # s = 1/3, off the s grid; the ratio is best there too, so the
    # refinement closes in on it
    lows = []
    theta_max = verify._theta_max

    def recording(inequality, p, delta, s):
        top, bad, low = theta_max(inequality, p, delta, s)
        if inequality == "ineq2":
            lows.append(low[0])                 # the first row raises
        return top, bad, low

    monkeypatch.setattr(verify, "_theta_max", recording)
    monkeypatch.setattr(verify, "_power_terms", lambda s, t, h, log_t, p:
                        (s, -h / (1e-6 + (s - 1.0 / 3.0)**2)))
    with pytest.raises(AssertionError) as err, \
            np.errstate(divide="ignore"):       # ineq2 at a 0 pairing
        check_inequalities([3.0])
    assert len(lows) == verify._ROUNDS + 1
    assert min(lows) < lows[0]
    assert str(err.value).endswith(
        f"smallest sampled pairing {min(lows):.3e}")


def test_violations_count_samples_with_a_non_finite_ratio(monkeypatch):
    # a kernel that fails at s = 1/2, a point of the s grid: its pairs
    # theta = 0 and pi count in round 0, the NaN is the round's best
    # point, and each of 4 refinement rounds has s = 1/2 once, as the
    # middle of its dyadic cell, so 2 more count in each
    terms = verify._power_terms

    def failing(s, t, h, log_t, p):
        lhs, pairing = terms(s, t, h, log_t, p)
        return np.where(s == 0.5, np.nan, lhs), pairing

    assert check_ineq1(10.0, 0.0).violations == 0
    monkeypatch.setattr(verify, "_power_terms", failing)
    monkeypatch.setattr(verify, "_ROUNDS", 4)
    r = check_ineq1(10.0, 0.0)
    assert r.samples == verify._S_GRID.size + 4 * verify._REFINE
    assert r.violations == 2 * 5
    assert np.isnan(r.worst_ratio)


@pytest.mark.parametrize("p", [1.5, 2.5, 10.0, 100.0])
def test_reduced_kernel_matches_a_60_digit_oracle(p):
    # both ratios of xi = e1, eta = (1 - s)(cos theta, sin theta, 0),
    # evaluated in 60 digits straight from their 3-D definitions, where
    # the differences cancel; the reduced kernel must agree to 1e-12
    import mpmath
    mp = mpmath.mp.clone()
    mp.dps = 60
    values = (0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.3, 0.9, 1.0)
    for s in values:
        for theta in values[1:-1] + (0.0, 2.0, np.pi):
            if s == 0.0 and theta == 0.0:
                continue                            # xi = eta
            t, c = 1 - mp.mpf(s), mp.mpf(theta)
            eta = (t * mp.cos(c), t * mp.sin(c))
            T = t ** (p - 1)
            d = (1 - eta[0], -eta[1])               # xi - eta
            dp = (1 - T * mp.cos(c), -T * mp.sin(c))    # Phi(xi) - Phi(eta)
            diff, tot = mp.sqrt(d[0]**2 + d[1]**2), 1 + t
            lhs = mp.sqrt(dp[0]**2 + dp[1]**2)
            pairing = dp[0] * d[0] + dp[1] * d[1]
            h = np.sin(0.5 * theta)**2
            for q, delta in [(q, delta) for q in ("ineq1", "ineq2")
                             for delta in verify._delta_grid(p, q)]:
                if q == "ineq1":
                    exact = lhs / (diff**(1 - delta) * tot**(p - 2 + delta))
                else:
                    exact = (diff**(2 + delta) * tot**(p - 2 - delta)
                             / pairing)
                ratio, _ = verify._ratio(q, p, delta, s, h)
                assert ratio == pytest.approx(float(exact), rel=1e-12), \
                    (s, theta, q, delta)


def test_reduction_matches_direct_3d_pairs():
    # a rotation, a scaling and a swap take any (xi, eta) to the reduced
    # pair with the same ratios; checked on well-separated random pairs,
    # where float64 evaluates the 3-D sides without cancellation
    rng = np.random.default_rng(8)
    norm = np.linalg.norm
    for p in (1.5, 3.0, 7.0):
        for _ in range(20):
            xi, eta = rng.standard_normal((2, 3)) \
                * 10.0 ** rng.uniform(-3, 3, (2, 1))
            dp = norm(xi)**(p - 2.0) * xi - norm(eta)**(p - 2.0) * eta
            d, tot = xi - eta, norm(xi) + norm(eta)
            direct = (norm(dp) / (norm(d) * tot**(p - 2.0)),
                      norm(d)**2 * tot**(p - 2.0) / (dp @ d))
            small, big = sorted((xi, eta), key=norm)
            cos = np.clip(big @ small / (norm(big) * norm(small)), -1, 1)
            s = 1.0 - norm(small) / norm(big)
            h = np.sin(0.5 * np.arccos(cos))**2
            reduced = (verify._ratio("ineq1", p, 0.0, s, h)[0],
                       verify._ratio("ineq2", p, 0.0, s, h)[0])
            assert reduced == pytest.approx(direct, rel=1e-9)


# -- Friedrich constant ------------------------------------------------------

def dense_constrained_eigenvalue(mesh):
    """Oracle: smallest eigenvalue of the projected pencil, dense SVD basis."""
    import scipy.linalg as sla
    from pcurlcurl.assembly import scatter_blocks, stiffness_blocks
    from pcurlcurl.helmholtz import DivFreeProjector
    proj = DivFreeProjector(mesh)
    K = scatter_blocks(mesh, stiffness_blocks(mesh)).toarray()
    M = proj.M.toarray()
    C = (proj.G.T @ proj.M).toarray()
    _, s, Vt = np.linalg.svd(C)
    rank = int(np.sum(s > 1e-10 * s[0]))
    Z = Vt[rank:].T
    w = sla.eigh(Z.T @ K @ Z, Z.T @ M @ Z, eigvals_only=True)
    return w[0]


@pytest.mark.parametrize("n", [2, 3])
def test_friedrich_p2_matches_dense_oracle(n):
    mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
    rep = friedrich_constant([mesh], 2.0)
    lam_oracle = dense_constrained_eigenvalue(mesh)
    assert rep.constants[0] == pytest.approx(1.0 / np.sqrt(lam_oracle),
                                             rel=1e-12)


def test_friedrich_p2_stiffness_cg_budget(monkeypatch):
    # LOBPCG with loose CG preconditioning of the 3 watched Ritz columns:
    # 692 stiffness-CG iterations at 8^3 (1264 with all 6 columns
    # preconditioned); the inverse iteration it replaced took 14 438
    counted = []

    def counting_cg(A, b, **kwargs):
        x, rep = cg(A, b, **kwargs)
        counted.append(rep.iterations)
        return x, rep

    monkeypatch.setattr(verify, "cg", counting_cg)
    mesh = build_box_mesh((8, 8, 8), extents=(PI, PI, PI))
    rep = friedrich_constant([mesh], 2.0)
    assert sum(counted) <= 1000
    assert rep.linear_iterations == [sum(counted)]
    assert 0 < rep.iterations[0] <= 200


def test_friedrich_p2_preconditions_only_the_watched_columns(monkeypatch):
    # the stop test reads the 3 lowest Ritz pairs; the other 3 columns of
    # the block guard the Rayleigh-Ritz step and get no search direction
    calls = []

    def counting_cg(A, b, **kwargs):
        calls.append(A)
        return cg(A, b, **kwargs)

    monkeypatch.setattr(verify, "cg", counting_cg)
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    rep = friedrich_constant([mesh], 2.0)
    assert all(A is mesh.stiffness for A in calls)
    assert 0 < len(calls) <= 3 * rep.iterations[0]


@pytest.mark.parametrize("seed", [0, 601])
def test_friedrich_p2_constants_are_pinned(monkeypatch, seed):
    # the values with all 6 block columns preconditioned, to 1e-12, from
    # the default start seed and from another one
    monkeypatch.setattr(verify, "_START_SEED", seed)
    meshes = [build_box_mesh((n, n, n), extents=(PI, PI, PI)) for n in (4, 8)]
    rep = friedrich_constant(meshes, 2.0)
    assert rep.constants == pytest.approx([0.72145571687325, 0.71087900502083],
                                          rel=1e-12, abs=0.0)


# measured with extents (1, 1, 1): the block is below 6, fewer than 3
# columns are watched, and P may stay empty
TINY_BOXES = {(1, 1, 1): 0.223606797749979, (2, 1, 1): 0.215322391260063,
              (2, 2, 1): 0.28705975042726695, (2, 2, 2): 0.24208296698281598,
              (3, 1, 1): 0.21611766897686654, (3, 3, 1): 0.29390610232099457}


@pytest.mark.parametrize("divisions", sorted(TINY_BOXES))
def test_friedrich_p2_tiny_meshes_are_pinned(divisions):
    mesh = build_box_mesh(divisions, extents=(1.0, 1.0, 1.0))
    rep = friedrich_constant([mesh], 2.0)
    assert rep.constants[0] == pytest.approx(TINY_BOXES[divisions],
                                             rel=1e-12, abs=0.0)


@pytest.mark.parametrize("divisions, extents", [
    ((4, 4, 4), (PI, PI, PI)), ((8, 8, 8), (PI, PI, PI)),
    ((5, 4, 3), (2.0, 1.0, 3.0))])
def test_friedrich_p2_returned_block_meets_the_stop_test_afresh(divisions,
                                                                extents):
    # the LOBPCG updates K X and M X instead of forming them, so the
    # returned Ritz block is checked on freshly formed products; 8^3
    # starts from its 4^3 level
    from pcurlcurl.helmholtz import DivFreeProjector
    mesh = build_box_mesh(divisions, extents=extents)
    _, _, X = verify._friedrich_p2(mesh)
    proj = DivFreeProjector(mesh)
    KX, MX = mesh.stiffness @ X, proj.M @ X
    theta = np.einsum("ij,ij->j", X, KX)        # X is M-orthonormal
    res = (np.linalg.norm(KX - MX * theta, axis=0)
           / (theta * np.linalg.norm(MX, axis=0)))
    assert np.all(res[:3] <= 1.05e-8)
    assert np.linalg.norm(proj.Gt @ MX) <= 1e-12 * np.linalg.norm(MX)


class _CountingMatrix:
    """A sparse matrix that logs each product with a block (2-D) operand."""

    def __init__(self, A, log):
        self.A, self.log = A, log

    def __matmul__(self, x):
        if np.ndim(x) == 2:
            self.log.append(x.shape)
        return self.A @ x


def test_friedrich_p2_forms_two_block_products_per_iteration(monkeypatch):
    # K W and M W only: every other image is carried through the small
    # coefficient matrices; each eigensolve forms K X and M X at its start
    # and again for its exit test. 8^3 solves 4^3 first: two eigensolves
    from pcurlcurl.helmholtz import DivFreeProjector
    from pcurlcurl.mesh import Mesh
    products = []
    stiffness = Mesh.__dict__["stiffness"]

    def counting_stiffness(mesh):
        return _CountingMatrix(stiffness.__get__(mesh, Mesh), products)

    monkeypatch.setattr(Mesh, "stiffness", property(counting_stiffness))

    class CountingProjector(DivFreeProjector):
        def __init__(self, mesh):
            super().__init__(mesh)
            self.M = _CountingMatrix(self.M, products)

    monkeypatch.setattr(verify, "DivFreeProjector", CountingProjector)
    mesh = build_box_mesh((8, 8, 8), extents=(PI, PI, PI))
    rep = friedrich_constant([mesh], 2.0)
    assert rep.iterations[0] > 0
    assert len(products) <= 2 * rep.iterations[0] + 2 * 4


@pytest.mark.parametrize("n", [2, 4])
def test_friedrich_p2_without_projection_raises(monkeypatch, n):
    # without the projection the gradient kernel of K enters the basis,
    # and its Ritz values are zero to rounding, some of them negative: a
    # negative one passed the stop test and returned a NaN constant
    from pcurlcurl.helmholtz import DivFreeProjector
    monkeypatch.setattr(DivFreeProjector, "project",
                        lambda self, u: (u, None))
    mesh = build_box_mesh((n, n, n))
    with pytest.raises(SolverError):
        friedrich_constant([mesh], 2.0)


def test_friedrich_p2_seed_independent(monkeypatch):
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    monkeypatch.setattr(verify, "_START_SEED", 0)
    c0 = friedrich_constant([mesh], 2.0).constants[0]
    monkeypatch.setattr(verify, "_START_SEED", 1)
    c1 = friedrich_constant([mesh], 2.0).constants[0]
    assert c1 == pytest.approx(c0, rel=1e-12)


@pytest.mark.parametrize("output, failure", [
    ("zeros", "lost rank after 0 iterations"),
    ("noise", "did not converge in 200 iterations")])
def test_friedrich_p2_failed_preconditioner_raises(monkeypatch, output,
                                                   failure):
    # a preconditioner that returns nothing, or nothing useful, and claims
    # success, must not yield a constant
    rng = np.random.default_rng(5)

    def broken_cg(A, b, **kwargs):
        x = rng.standard_normal(b.size) if output == "noise" else 0.0 * b
        return x, LinearSolveReport(0, 0.0, True)

    monkeypatch.setattr(verify, "cg", broken_cg)
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    with pytest.raises(SolverError, match=failure):
        friedrich_constant([mesh], 2.0)


def test_friedrich_constant_converges_from_above():
    # on nested Kuhn meshes the constrained eigenvalue approaches the
    # cavity value 2 from below, so C_h decreases monotonically toward
    # 1/sqrt(2); the constraint sets of successive levels do not nest
    # (the finer divergence condition is stronger), so no monotonicity
    # direction is forced a priori -- this pins the observed one
    meshes = [build_box_mesh((n, n, n), extents=(PI, PI, PI)) for n in (2, 4, 8)]
    rep = friedrich_constant(meshes, 2.0)
    target = 1.0 / np.sqrt(2.0)
    cs = rep.constants
    assert cs[0] > cs[1] > cs[2] > target - 1e-10
    # halving h makes the Richardson factor exactly 1/3
    assert rep.extrapolated == cs[-1] + (cs[-1] - cs[-2]) / 3.0


def test_friedrich_extrapolation_follows_the_mesh_size_ratio():
    # levels 4, 6 refine by 3/2, where the factor is 1/((3/2)^2 - 1) = 0.8
    meshes = [build_box_mesh((n, n, n), extents=(PI, PI, PI)) for n in (4, 6)]
    rep = friedrich_constant(meshes, 2.0)
    target = 1.0 / np.sqrt(2.0)
    assert abs(rep.extrapolated - target) <= 1e-3 * target
    # two meshes of one size give no extrapolation
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    rep = friedrich_constant([mesh, mesh], 2.0)
    assert rep.extrapolated == rep.constants[-1]


def test_friedrich_p_above_2_does_not_extrapolate_lower_bounds():
    # the Richardson step assumes a convergence order that lower bounds
    # do not have; at 2^3, 4^3 and p = 4 it read 0.77151, below both
    meshes = [build_box_mesh((n, n, n), extents=(PI, PI, PI)) for n in (2, 4)]
    rep = friedrich_constant(meshes, 4.0)
    assert rep.lower_bound_only
    assert rep.extrapolated == rep.constants[-1]


def _record_eigensolves(monkeypatch):
    """(divisions, outer, stiffness-CG iterations) of every LOBPCG run,
    recursive ones included, in the order they finish."""
    solved = []
    real = verify._friedrich_p2

    def recording(mesh, last=None):
        out = real(mesh, last)
        solved.append((mesh.divisions, *out[1][1:]))
        return out

    monkeypatch.setattr(verify, "_friedrich_p2", recording)
    return solved


def test_friedrich_nested_start_reuses_the_previous_level(monkeypatch):
    # 8^3 starts from its coarse level 4^3, which the call has just
    # solved: 4^3 runs LOBPCG once, and 8^3 counts only its own work
    solved = _record_eigensolves(monkeypatch)
    meshes = [build_box_mesh((n, n, n), extents=(PI, PI, PI)) for n in (4, 8)]
    rep = friedrich_constant(meshes, 2.0)
    assert [d for d, _, _ in solved] == [(4, 4, 4), (8, 8, 8)]
    assert rep.iterations == [its for _, its, _ in solved]
    assert rep.linear_iterations == [lin for _, _, lin in solved]
    assert rep.iterations[1] <= 12


def test_friedrich_nested_start_counts_the_coarse_levels(monkeypatch):
    # 12^3 nests through 6^3 and 3^3, which it solves and counts itself
    solved = _record_eigensolves(monkeypatch)
    mesh = build_box_mesh((12, 12, 12), extents=(PI, PI, PI))
    rep = friedrich_constant([mesh], 2.0)
    assert [d[0] for d, _, _ in solved] == [3, 6, 12]
    assert rep.iterations == [solved[-1][1]]
    assert rep.linear_iterations == [solved[-1][2]]
    # the counts are cumulative down the recursion
    assert solved[0][1] < solved[1][1] < solved[2][1]


def test_friedrich_generator_keeps_one_level_alive():
    # a level's mesh data is freed before the next level is built, so
    # levels 4, 8 and 12 peak where 12^3 alone does
    def levels(*ns):
        return (build_box_mesh((n, n, n), extents=(PI, PI, PI)) for n in ns)

    alone = traced_peak(lambda: friedrich_constant(levels(12), 2.0))
    three = traced_peak(lambda: friedrich_constant(levels(4, 8, 12), 2.0))
    assert three <= 1.1 * alone


@pytest.mark.parametrize("meshes", [[], iter(())])
def test_friedrich_constant_without_meshes_raises_value_error(meshes):
    with pytest.raises(ValueError, match="at least one mesh"):
        friedrich_constant(meshes, 2.0)


def test_friedrich_dilation_scaling():
    m1 = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    m2 = build_box_mesh((2, 2, 2), extents=(2 * PI, 2 * PI, 2 * PI))
    c1 = friedrich_constant([m1], 2.0).constants[0]
    c2 = friedrich_constant([m2], 2.0).constants[0]
    assert c2 / c1 == pytest.approx(2.0, rel=0.01)


def test_friedrich_p4_lower_bound_exceeds_start():
    meshes = [build_box_mesh((2, 2, 2), extents=(PI, PI, PI))]
    from pcurlcurl.assembly import lp_norm_curl, lp_norm_field
    from pcurlcurl.verify import _friedrich_p2
    u2, _, _ = _friedrich_p2(meshes[0])
    start = lp_norm_field(u2, 4.0) / lp_norm_curl(u2, 4.0)
    rep = friedrich_constant(meshes, 4.0)
    assert rep.lower_bound_only
    assert rep.constants[0] >= start * (1 - 1e-12)
    assert np.isfinite(rep.constants[0])


# the projected-ascent lower bounds at 4^3 that the inverse iteration
# replaced, which stopped short of the maximum
ASCENT_4_CUBED = {3.0: 0.7485022703198605, 4.0: 0.7926855129821591,
                  6.0: 0.880677501383879}


@pytest.mark.parametrize("p", sorted(ASCENT_4_CUBED))
def test_friedrich_inverse_iteration_beats_the_ascent(p):
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    rep = friedrich_constant([mesh], p)
    assert rep.lower_bound_only
    assert rep.constants[0] >= ASCENT_4_CUBED[p] * (1.0 + 1e-4)


@pytest.mark.parametrize("p", [3.0, 6.0])
def test_friedrich_inverse_iteration_ratios_rise(monkeypatch, p):
    # every iterate's ratio is 1 / ||curl u||_p of the normalized iterate;
    # at eps = 0 they rise monotonically, and the solver's eps and
    # tolerances may take back only rounding
    ratios = []
    real = verify.lp_norm_curl

    def recording(u, q):
        out = real(u, q)
        ratios.append(1.0 / out)
        return out

    monkeypatch.setattr(verify, "lp_norm_curl", recording)
    mesh = build_box_mesh((3, 3, 3), extents=(PI, PI, PI))
    rep = friedrich_constant([mesh], p)
    assert 3 <= len(ratios) <= 1 + verify._INVERSE_BUDGET
    for prev, ratio in zip(ratios, ratios[1:]):
        assert ratio >= prev * (1.0 - 1e-12)
    assert rep.constants[0] == max(ratios)
    # it stopped on a gain of at most 1e-8 relative
    assert ratios[-1] <= ratios[-2] * (1.0 + 1e-8)


def test_friedrich_inverse_iteration_budget_raises(monkeypatch):
    monkeypatch.setattr(verify, "_INVERSE_BUDGET", 1)
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    with pytest.raises(SolverError, match="did not settle in 1 iterations"):
        friedrich_constant([mesh], 4.0)


def test_friedrich_power_load_is_built_by_tet_blocks(monkeypatch):
    # the inverse iteration's load (|u|^(p-2) u, W_e), bit for bit the
    # whole-mesh quadrature at any block size, and without its arrays
    from basis_oracle import whole_mesh_edge_moments
    from pcurlcurl import assembly, whitney
    from pcurlcurl.assembly import PExponent, power_map, vertex_vectors
    mesh = build_box_mesh((12, 12, 12), extents=(PI, PI, PI))
    u = EdgeField(mesh, np.random.default_rng(3).standard_normal(
        mesh.num_edges))
    rule = whitney.TET_RULE
    for p in (3.0, 10.0):
        vals = power_map(rule.points @ vertex_vectors(u), PExponent(p))
        whole = whole_mesh_edge_moments(mesh, rule, vals)
        for block in (1, 1024, mesh.num_tets + 5):
            monkeypatch.setattr(assembly, "_BLOCK_TETS", block)
            assert verify._power_load(u, p).tobytes() == whole.tobytes()
    monkeypatch.setattr(assembly, "_BLOCK_TETS", 1024)
    whole_mesh_values = vals.nbytes
    assert traced_peak(lambda: verify._power_load(u, 4.0)) < whole_mesh_values


@pytest.mark.parametrize("p", [1.5, float("inf"), float("nan")])
def test_friedrich_constant_checks_p_before_any_work(monkeypatch, p):
    def no_work(*args):
        raise AssertionError("eigensolve ran before p was checked")

    monkeypatch.setattr(verify, "_friedrich_p2", no_work)
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    with pytest.raises(ValueError, match="p must be finite and >= 2"):
        friedrich_constant([mesh], p)


def test_friedrich_maximizer_is_divergence_free_with_curl():
    from pcurlcurl.helmholtz import DivFreeProjector
    from pcurlcurl.verify import _friedrich_p2
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    u, _, _ = _friedrich_p2(mesh)
    num = DivFreeProjector(mesh).constraint_norm(u.coeffs)
    assert num <= 1e-8 * np.linalg.norm(u.coeffs)
    assert np.abs(curl_per_tet(u)).max() > 0.01     # gradients are excluded


# -- Green's formulas --------------------------------------------------------

def test_green_constant_fields_exact():
    mesh = build_box_mesh((2, 2, 2), extents=(1.0, 2.0, 1.5))
    cu = np.array([0.3, -0.7, 1.1])
    cw = np.array([1.0, 0.5, -0.2])
    pair = SmoothFieldPair(
        u=lambda x: np.broadcast_to(cu, x.shape).copy(),
        curl_u=lambda x: np.zeros_like(x),
        div_u=lambda x: np.zeros(x.shape[0]),
        v=lambda x: np.full(x.shape[0], 2.0),
        grad_v=lambda x: np.zeros_like(x),
        w=lambda x: np.broadcast_to(cw, x.shape).copy(),
        curl_w=lambda x: np.zeros_like(x),
    )
    rd, rc = check_green_formulas(mesh, pair)
    assert rd <= 1e-12
    assert rc <= 1e-12


def test_green_divergence_theorem_pair():
    # u = grad(xyz) is harmonic: with v = 1 both sides are quadrature-exact
    pair = SmoothFieldPair(
        u=lambda x: np.column_stack([x[:, 1] * x[:, 2], x[:, 0] * x[:, 2],
                                     x[:, 0] * x[:, 1]]),
        curl_u=lambda x: np.zeros_like(x),
        div_u=lambda x: np.zeros(x.shape[0]),
        v=lambda x: np.ones(x.shape[0]),
        grad_v=lambda x: np.zeros_like(x),
        w=lambda x: np.zeros_like(x),
        curl_w=lambda x: np.zeros_like(x),
    )
    for n in (2, 4):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        rd, _ = check_green_formulas(mesh, pair)
        assert rd <= 1e-3        # in fact quadrature-exact
        assert rd <= 1e-10 * PI**3


def test_green_curl_identity_with_vanishing_tangential_trace():
    # for u with n x u = 0 on the box boundary, the curl identity loses
    # its surface term: (curl u, w) = (u, curl w) up to quadrature error
    from pcurlcurl.mms import case_p2_sine
    case = case_p2_sine()
    pair = SmoothFieldPair(
        u=case.u_exact,
        curl_u=case.curl_exact,
        div_u=lambda x: np.zeros(x.shape[0]),
        v=lambda x: np.zeros(x.shape[0]),
        grad_v=lambda x: np.zeros_like(x),
        w=lambda x: np.column_stack([np.cos(0.7 * x[:, 2]),
                                     np.sin(0.9 * x[:, 0]),
                                     np.cos(1.1 * x[:, 1])]),
        curl_w=lambda x: np.column_stack([
            -1.1 * np.sin(1.1 * x[:, 1]),
            -0.7 * np.sin(0.7 * x[:, 2]),
            0.9 * np.cos(0.9 * x[:, 0])]),
    )
    prev = None
    for n in (2, 4):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        _, rc = check_green_formulas(mesh, pair)
        if prev is not None:
            assert rc < prev / 4.0
        prev = rc
    assert prev < 1e-4


def test_green_residuals_converge():
    pair = default_smooth_pair()
    prev = None
    for n in (2, 4, 8):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        rd, rc = check_green_formulas(mesh, pair)
        if prev is not None:
            assert rd <= prev[0] / 4.0
            assert rc <= prev[1] / 4.0
        prev = (rd, rc)
    assert prev[0] <= 1e-6 and prev[1] <= 1e-6


# -- scalar potential --------------------------------------------------------

def test_potential_roundtrip_and_normalization():
    mesh = build_box_mesh((3, 3, 3))
    rng = np.random.default_rng(0)
    G = assemble_gradient_map(mesh)
    psi = rng.standard_normal(G.shape[1])
    u = EdgeField(mesh, G @ psi)
    phi = extract_scalar_potential(u)
    diffs = phi.coeffs[mesh.edges[:, 1]] - phi.coeffs[mesh.edges[:, 0]]
    assert np.abs(diffs - u.coeffs).max() <= 1e-12
    assert abs(phi.coeffs.mean()) <= 1e-14 * np.abs(phi.coeffs).max()
    # phi equals the zero-extended psi shifted to zero mean
    full = np.zeros(mesh.num_vertices)
    full[mesh.interior_vertices()] = psi
    assert np.allclose(phi.coeffs, full - full.mean(), atol=1e-12)


def test_potential_accepts_rounded_gradient_on_fine_mesh():
    # G psi in float64 on 32^3 has per-tet curl ~2e-12 (rounding over
    # face area h^2), which an absolute curl bound of 1e-12 rejected
    mesh = build_box_mesh((32, 32, 32))
    G = assemble_gradient_map(mesh)
    psi = np.random.default_rng(0).standard_normal(G.shape[1])
    u = EdgeField(mesh, G @ psi)
    phi = extract_scalar_potential(u)
    diffs = phi.coeffs[mesh.edges[:, 1]] - phi.coeffs[mesh.edges[:, 0]]
    assert np.abs(diffs - u.coeffs).max() <= 1e-10
    # the check is relative: the same field scaled by 1e8 passes too,
    # and one circulation off by 1e-9 of the scale is still caught
    extract_scalar_potential(EdgeField(mesh, 1e8 * u.coeffs))
    bad = u.coeffs.copy()
    bad[mesh.free_edges()[100]] += 1e-9 * np.abs(u.coeffs).max()
    with pytest.raises(ValueError, match="not curl-free"):
        extract_scalar_potential(EdgeField(mesh, bad))


def test_potential_zero_field():
    mesh = build_box_mesh((2, 2, 2))
    phi = extract_scalar_potential(EdgeField(mesh))
    assert np.all(phi.coeffs == 0.0)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_potential_rejects_a_non_finite_coefficient(value):
    # `worst > tol` is False for NaN, and one inf makes the scale inf, so
    # neither tolerance check alone rejects such a field
    mesh = build_box_mesh((2, 2, 2))
    G = assemble_gradient_map(mesh)
    u = EdgeField(mesh, G @ np.random.default_rng(2).standard_normal(G.shape[1]))
    u.coeffs[mesh.free_edges()[3]] = value
    with pytest.raises(ValueError, match="non-finite"):
        extract_scalar_potential(u)


def test_potential_rejects_fields_with_curl():
    mesh = build_box_mesh((2, 2, 2))
    rng = np.random.default_rng(1)
    u = EdgeField(mesh, rng.standard_normal(mesh.num_edges))
    with pytest.raises(ValueError, match="not curl-free"):
        extract_scalar_potential(u)


def test_potential_closure_check_catches_inconsistency():
    # on a ring of cubes the angle form d(theta) around the hole is
    # curl-free on every face, so only the closure check can see that it
    # is no gradient: its circulation around the ring is 2 pi
    from pcurlcurl.mesh import Mesh
    box = build_box_mesh((3, 3, 1), extents=(3.0, 3.0, 1.0))
    centre = box.vertices[box.tets].mean(axis=1)
    ring = np.any(np.abs(centre[:, :2] - 1.5) > 0.5, axis=1)
    mesh = Mesh(box.vertices, box.tets[ring], box.box)
    theta = np.arctan2(mesh.vertices[:, 1] - 1.5, mesh.vertices[:, 0] - 1.5)
    d = theta[mesh.edges[:, 1]] - theta[mesh.edges[:, 0]]
    u = EdgeField(mesh, (d + np.pi) % (2.0 * np.pi) - np.pi)
    with pytest.raises(ValueError, match="closure"):
        extract_scalar_potential(u)


def test_potential_rejects_disconnected_mesh():
    from pcurlcurl.mesh import Mesh
    corner = np.array([[0.0, 0, 0], [1.0, 0, 0], [0, 1.0, 0], [0, 0, 1.0]])
    mesh = Mesh(np.vstack([corner, corner + 2.0]),
                np.array([[0, 1, 2, 3], [4, 5, 6, 7]]), ((0, 0, 0), (3, 3, 3)))
    with pytest.raises(ValueError, match="disconnected"):
        extract_scalar_potential(EdgeField(mesh))


@pytest.mark.parametrize("n", [4, 16])
@pytest.mark.parametrize("scale", [1e6, 1e8])
def test_potential_closure_check_is_relative(n, scale):
    # exact gradients of a large potential leave closure rounding ~1e-9
    # at scale 1e6; both checks are relative, so any scale passes
    mesh = build_box_mesh((n, n, n))
    psi = np.random.default_rng(n).standard_normal(mesh.num_vertices)
    diffs = psi[mesh.edges[:, 1]] - psi[mesh.edges[:, 0]]
    phi = extract_scalar_potential(EdgeField(mesh, diffs)).coeffs
    big = extract_scalar_potential(EdgeField(mesh, scale * diffs)).coeffs
    assert np.abs(big - scale * phi).max() <= 1e-12 * scale * np.abs(phi).max()
