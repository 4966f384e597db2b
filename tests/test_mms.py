import numpy as np
import pytest

from pcurlcurl.assembly import EdgeField, edge_interpolate
from pcurlcurl.mesh import build_box_mesh
from pcurlcurl.mms import ManufacturedCase, case_general_p, case_p2_sine, measure_error

PI = np.pi


def flux(case, x):
    """|curl u*|^(p-2) curl u* at points x."""
    g = case.curl_exact(x)
    mag = np.linalg.norm(g, axis=1, keepdims=True)
    if case.p == 2.0:
        return g
    return np.where(mag > 0, mag**(case.p - 2.0), 0.0) * g


def fd_curl_of_flux(case, x, h):
    """Central-difference curl of the flux field."""
    out = np.zeros_like(x)
    for k, (i, j) in enumerate(((1, 2), (2, 0), (0, 1))):
        ei = np.zeros(3)
        ei[i] = h
        ej = np.zeros(3)
        ej[j] = h
        out[:, k] = ((flux(case, x + ei)[:, j] - flux(case, x - ei)[:, j])
                     - (flux(case, x + ej)[:, i] - flux(case, x - ej)[:, i])) / (2 * h)
    return out


def interior_grid(n):
    s = np.linspace(0.15, PI - 0.15, n)
    X, Y, Z = np.meshgrid(s, s, s, indexing="ij")
    return np.column_stack([X.ravel(), Y.ravel(), Z.ravel()])


@pytest.mark.parametrize("case", [case_p2_sine(), case_general_p(4.0),
                                  case_general_p(3.0), case_general_p(10.0)],
                         ids=["p2", "p4", "p3", "p10"])
def test_load_matches_fd_curl_of_flux(case):
    x = interior_grid(12)
    errs = []
    for h in (2e-3, 1e-3):
        errs.append(np.abs(fd_curl_of_flux(case, x, h) - case.load(x)).max())
    assert errs[0] < 5e-4
    # second-order stencil: error drops ~4x when h halves
    assert errs[1] < errs[0] / 2.5


def test_p2_load_is_2u():
    case = case_p2_sine()
    x = interior_grid(6)
    assert np.allclose(case.load(x), 2.0 * case.u_exact(x), atol=1e-14)


def test_general_p_reduces_to_p2():
    a = case_p2_sine()
    b = case_general_p(2.0)
    x = interior_grid(6)
    assert np.allclose(a.load(x), b.load(x), atol=1e-14)
    assert b.p == 2.0


def test_exact_solution_invariants():
    case = case_p2_sine()
    rng = np.random.default_rng(0)
    # div u* = 0 and div S = 0 by second-order differences
    x = interior_grid(8)
    h = 1e-5
    for f in (case.u_exact, case.load):
        div = np.zeros(x.shape[0])
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            div += (f(x + e)[:, i] - f(x - e)[:, i]) / (2 * h)
        assert np.abs(div).max() < 1e-9
    # n x u* = 0 and n x S = 0 on each face of the box
    t = rng.uniform(0, PI, (60, 2))
    for axis in range(3):
        for val in (0.0, PI):
            pts = np.zeros((60, 3))
            other = [a for a in range(3) if a != axis]
            pts[:, other[0]] = t[:, 0]
            pts[:, other[1]] = t[:, 1]
            pts[:, axis] = val
            n = np.zeros(3)
            n[axis] = 1.0
            for f in (case.u_exact, case.load):
                assert np.abs(np.cross(n, f(pts))).max() < 1e-13


def test_general_p_load_against_sympy_oracle():
    import sympy as sp
    x, y = sp.symbols("x y", real=True)
    g1 = sp.sin(x) * sp.cos(y)
    g2 = -sp.cos(x) * sp.sin(y)
    for p in (4.0, 6.0):
        m = g1**2 + g2**2
        s = sp.Rational(int(p) - 2, 2)
        f1 = m**s * g1
        f2 = m**s * g2
        # curl of (f1, f2, 0) has only a z-component: d(f2)/dx - d(f1)/dy
        S3 = sp.simplify(sp.diff(f2, x) - sp.diff(f1, y))
        fn = sp.lambdify((x, y), S3, "numpy")
        case = case_general_p(p)
        pts = interior_grid(5)
        expect = fn(pts[:, 0], pts[:, 1])
        got = case.load(pts)[:, 2]
        assert np.abs(got - expect).max() < 1e-10
        # the spot the curl vanishes: load limit is zero there (float pi/2
        # leaves m ~ 1e-33, so the computed value is tiny, not exactly 0)
        spot = np.array([[PI / 2, PI / 2, 1.234]])
        assert np.abs(case.load(spot)).max() < 1e-30


def test_rejects_p_below_2():
    with pytest.raises(ValueError):
        case_general_p(1.9)


@pytest.mark.parametrize("p", [float("inf"), float("nan")])
def test_rejects_non_finite_p(p):
    with pytest.raises(ValueError, match="finite"):
        case_general_p(p)


def test_measure_error_interpolant_first_order():
    case = case_p2_sine()
    errs = []
    for n in (2, 4, 8):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        u_h = edge_interpolate(case.u_exact, mesh)
        errs.append(measure_error(u_h, case))
    for (l2a, ca), (l2b, cb) in zip(errs, errs[1:]):
        assert l2b < l2a / 1.7
        assert cb < ca / 1.7


def test_p2_solve_error_ratios_first_order():
    from pcurlcurl.solver import SolveConfig, solve
    case = case_p2_sine()
    errs = []
    for n in (2, 4, 8):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        u, _, _ = solve(mesh, case.load, SolveConfig(p_target=2.0))
        errs.append(measure_error(u, case)[1])
    assert errs[0] / errs[1] >= 1.8
    assert errs[1] / errs[2] >= 1.8


def test_p6_solve_errors_monotone():
    # no rate claim beyond p = 4: the solver must converge and the error
    # must shrink under refinement, nothing more
    from pcurlcurl.solver import SolveConfig, solve
    case = case_general_p(6.0)
    errs = []
    for n in (2, 4):
        mesh = build_box_mesh((n, n, n), extents=(PI, PI, PI))
        u, _, rep = solve(mesh, case.load, SolveConfig(p_target=6.0))
        assert rep.final_residual <= 1e-9
        errs.append(measure_error(u, case))
    assert errs[1][0] < errs[0][0]
    assert errs[1][1] < errs[0][1]


def test_measure_error_exactly_representable_field():
    # a constant field is in the discrete space: measuring it against
    # itself gives zero in both norms
    mesh = build_box_mesh((2, 2, 2), extents=(PI, PI, PI))
    c = np.array([0.2, -0.4, 0.9])
    coeffs = (mesh.vertices[mesh.edges[:, 1]] - mesh.vertices[mesh.edges[:, 0]]) @ c
    u_h = EdgeField(mesh, coeffs)
    const_case = ManufacturedCase(
        name="const", p=2.0,
        u_exact=lambda x: np.broadcast_to(c, x.shape).copy(),
        curl_exact=lambda x: np.zeros_like(x),
        load=lambda x: np.zeros_like(x))
    l2, ce = measure_error(u_h, const_case)
    assert l2 < 1e-13
    assert ce < 1e-13


def test_exact_field_l2_norm_quadrature_sanity():
    # int |u*|^2 over the box = pi^3 / 4
    from pcurlcurl import whitney
    case = case_p2_sine()
    mesh = build_box_mesh((4, 4, 4), extents=(PI, PI, PI))
    geom = whitney.cell_geometry(mesh)
    rule = whitney.TET_RULE
    xq = (rule.points @ mesh.vertices[mesh.tets]).reshape(-1, 3)
    vals = np.sum(case.u_exact(xq)**2, axis=1).reshape(mesh.num_tets, -1)
    total = np.einsum("t,q,tq->", geom.vols, rule.weights, vals)
    assert total == pytest.approx(PI**3 / 4.0, rel=1e-6)
