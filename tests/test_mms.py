"""Manufactured cases: finite-difference validation of the closed-form
fields, the weak-residual consistency invariant, exact reproduction of
representable solutions, convergence rates, and the CSV rate table."""

import csv
import io

import numpy as np
import pytest

from nsdarcy import assembly as asm
from nsdarcy import mms
from nsdarcy import solver as slv
from nsdarcy.assembly import ModelParams, load_vector
from nsdarcy.fem import CoupledSpace, _evaluate
from nsdarcy.mesh import FLUID, POROUS, build_rectangle_mesh, refine_uniform

FD_STEP = 1e-6


def central(f, x, y, axis):
    dx = FD_STEP if axis == 0 else 0.0
    dy = FD_STEP if axis == 1 else 0.0
    return (np.asarray(f(x + dx, y + dy), dtype=float)
            - np.asarray(f(x - dx, y - dy), dtype=float)) / (2 * FD_STEP)


def sample_points(rng, n, ylo, yhi):
    pts = rng.uniform(0.05, 0.95, size=(n, 2))
    pts[:, 1] = ylo + 0.1 + pts[:, 1] * (yhi - ylo - 0.2)
    return pts


@pytest.fixture(scope="module", params=mms.CASE_NAMES)
def case(request):
    return mms.get_case(request.param)


class TestFieldDerivatives:
    def test_grad_u_matches_finite_differences(self, case):
        rng = np.random.default_rng(0)
        for x, y in sample_points(rng, 20, 1.0, 2.0):
            gu = np.asarray(case.grad_u(x, y))
            fd = np.stack([central(case.u, x, y, 0),
                           central(case.u, x, y, 1)], axis=1)
            assert np.allclose(gu, fd, atol=1e-7)

    def test_lap_u_matches_finite_differences_of_grad(self, case):
        rng = np.random.default_rng(1)
        for x, y in sample_points(rng, 20, 1.0, 2.0):
            lap = np.asarray(case.lap_u(x, y), dtype=float)
            fd = (central(lambda a, b: np.asarray(case.grad_u(a, b))[:, 0],
                          x, y, 0)
                  + central(lambda a, b: np.asarray(case.grad_u(a, b))[:, 1],
                            x, y, 1))
            assert np.allclose(lap, fd, atol=1e-5)

    def test_grad_p_and_grad_phi_match_finite_differences(self, case):
        rng = np.random.default_rng(2)
        for x, y in sample_points(rng, 20, 1.0, 2.0):
            fd = np.array([central(case.p, x, y, 0), central(case.p, x, y, 1)])
            assert np.allclose(np.asarray(case.grad_p(x, y)), fd, atol=1e-7)
        for x, y in sample_points(rng, 20, 0.0, 1.0):
            fd = np.array([central(case.phi, x, y, 0),
                           central(case.phi, x, y, 1)])
            assert np.allclose(np.asarray(case.grad_phi(x, y)), fd, atol=1e-7)

    def test_hess_phi_matches_finite_differences(self, case):
        rng = np.random.default_rng(3)
        for x, y in sample_points(rng, 20, 0.0, 1.0):
            H = np.asarray(case.hess_phi(x, y), dtype=float)
            fd = np.stack([central(case.grad_phi, x, y, 0),
                           central(case.grad_phi, x, y, 1)], axis=1)
            assert np.allclose(H, fd, atol=1e-5)
            assert np.allclose(H, H.T, atol=1e-12)

    def test_velocity_is_divergence_free(self, case):
        rng = np.random.default_rng(4)
        for x, y in sample_points(rng, 50, 1.0, 2.0):
            gu = np.asarray(case.grad_u(x, y))
            assert abs(gu[0, 0] + gu[1, 1]) <= 1e-12

    def test_outer_boundary_data(self, case):
        xs = np.linspace(0.0, 1.0, 11)
        for x in xs:
            assert case.phi(x, 0.0) == pytest.approx(0.0, abs=1e-14)
        for y in np.linspace(0.0, 1.0, 11):
            for x in (0.0, 1.0):  # lateral no-flux for diagonal K
                flux = (case.K @ np.asarray(case.grad_phi(x, y)))[0]
                assert flux == pytest.approx(0.0, abs=1e-13)
        if case.dirichlet is None:
            for y in np.linspace(1.0, 2.0, 11):
                assert np.allclose(case.u(0.0, y), 0.0, atol=1e-14)
                assert np.allclose(case.u(1.0, y), 0.0, atol=1e-14)
            for x in xs:
                assert np.allclose(case.u(x, 2.0), 0.0, atol=1e-14)

    def test_pressure_is_mean_free_on_the_fluid_region(self, case):
        # 2d midpoint-rule average on a fine grid
        n = 400
        xs = (np.arange(n) + 0.5) / n
        ys = 1.0 + (np.arange(n) + 0.5) / n
        X, Y = np.meshgrid(xs, ys)
        mean = np.mean([case.p(x, y) for x, y in zip(X.ravel(), Y.ravel())])
        assert abs(mean) < 1e-3


def consistency_residual(space, case):
    """Relative discrete weak residual of the exact fields themselves.

    Every form is integrated with the exact field callables (not their
    interpolants) at load-degree quadrature, against all free discrete test
    functions, including the derived sources and interface loads.  The
    result reflects only derivation mistakes and quadrature error, so it
    must be small on any mesh before convergence rates mean anything.

    The skew stabilization is omitted: the cases are built divergence free,
    where it vanishes identically.
    """
    params = case.params(space.mesh)
    b = load_vector(space, params) + case.interface_loads(space)

    deg = mms._ERROR_DEGREE
    vd = space.velocity_degree
    nodes, vals, grads, W = asm._pointwise(space, FLUID, vd, deg)
    X = asm._quad_points(space, FLUID, deg)
    U = _evaluate(case.u, X, (2,))
    GU = _evaluate(case.grad_u, X, (2, 2))
    P = _evaluate(case.p, X)
    D = 0.5 * (GU + GU.swapaxes(0, 1))
    conv = np.einsum('cjeq,jeq->ceq', GU, U)
    loc = (-2 * case.nu * np.einsum('eq,cjeq,eqlj->elc', W, D, grads)
           - np.einsum('eq,ceq,ql->elc', W, conv, vals)
           + np.einsum('eq,eq,eqlc->elc', W, P, grads))
    fu = np.zeros((space.num_nodes(vd), 2))
    np.add.at(fu, nodes, loc)

    pnodes, vals1, _ = asm._element_data(space, FLUID, 1, deg)
    locp = -np.einsum('eq,eq,qr->er', W, GU[0, 0] + GU[1, 1], vals1)
    fp = np.zeros(space.mesh.num_vertices)
    np.add.at(fp, pnodes, locp)

    hd = space.head_degree
    nodes_h, _, grads_h, Wp = asm._pointwise(space, POROUS, hd, deg)
    Xp = asm._quad_points(space, POROUS, deg)
    KG = np.einsum('ij,jeq->eqi', case.K, _evaluate(case.grad_phi, Xp, (2,)))
    loch = -np.einsum('eq,eqj,eqlj->el', Wp, KG, grads_h)
    fh = np.zeros(space.num_nodes(hd))
    np.add.at(fh, nodes_h, loch)
    R = b + np.concatenate([fu.ravel(), fp, fh])[space.coupled_index]

    # interface terms of the weak form, subtracted through the same edge
    # quadrature the load path uses: -(phi, v.n) - G (u.tau, v.tau) on the
    # momentum rows and +(u.n_f, psi) on the head rows
    u_at = lambda x, y: mms._at(case.u, x, y, (2,))
    R += asm.interface_residual_loads(
        space,
        r_mass=lambda x, y: -np.einsum('i...,i->...', u_at(x, y), mms._N_F),
        r_normal=case.phi,
        r_tangential=lambda x, y: case.G * np.einsum(
            'i...,i->...', u_at(x, y), mms._TAU))

    return float(np.linalg.norm(R) / max(np.linalg.norm(b), 1e-30))


class TestConsistency:
    def test_representable_residual_is_rounding_level(self):
        space = CoupledSpace(build_rectangle_mesh(4, 8, 1.0))
        case = mms.representable_case()
        assert consistency_residual(space, case) <= 1e-12

    def test_smooth_residual_small_and_shrinking(self):
        case = mms.smooth_case()
        mesh = build_rectangle_mesh(4, 8, 1.0)
        values = []
        for _ in range(2):
            values.append(consistency_residual(CoupledSpace(mesh), case))
            mesh = refine_uniform(mesh)
        assert values[0] <= 1e-8
        assert values[1] < values[0]


class TestCaseSolve:
    def test_solve_without_convection_is_rejected(self, case):
        # the sources hold (u . grad) u, so without convection the case
        # solves another problem (err_u_h1 1.28 for the representable case
        # on 4x8)
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
        with pytest.raises(ValueError, match=case.name):
            case.solve(space, case.params(space.mesh),
                       slv.SolverConfig(include_convection=False))


class TestArrayEvaluation:
    FIELDS = ("u", "grad_u", "lap_u", "p", "grad_p", "phi", "grad_phi",
              "hess_phi")

    def test_fields_called_once_per_evaluation_site(self, case, counted):
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
        state = case.solve(space, case.params(space.mesh))
        fresh = mms.get_case(case.name)
        for name in self.FIELDS:
            setattr(fresh, name, counted(getattr(fresh, name)))
        params = fresh.params(space.mesh)
        params.g_f, params.g_p = counted(params.g_f), counted(params.g_p)
        load_vector(space, params)
        assert params.g_f.calls == params.g_p.calls == 1
        fresh.interface_loads(space)
        mms.solution_errors(space, fresh, state)
        # one call per use: u by g_f, r_tangential, r_mass and the error;
        # grad_u by g_f, the strains of r_normal and r_tangential and the
        # error; p by r_normal and the error; grad_phi by r_mass and the error
        calls = {name: getattr(fresh, name).calls for name in self.FIELDS}
        assert calls == {"u": 4, "grad_u": 4, "lap_u": 1, "p": 2,
                         "grad_p": 1, "phi": 1, "grad_phi": 2, "hess_phi": 1}


class TestRepresentableReproduction:
    def test_errors_below_tolerance_at_every_level(self):
        study = mms.convergence_study(mms.representable_case(), num_levels=2)
        for row in study.rows:
            for key in ("err_u_h1", "err_u_l2", "err_p_l2", "err_phi_h1"):
                assert row[key] <= 1e-9

    def test_nodal_values_reproduced(self):
        case = mms.representable_case()
        space = CoupledSpace(build_rectangle_mesh(4, 8, 1.0))
        state = case.solve(space, case.params(space.mesh))
        coords = space.node_coords(space.velocity_degree)
        u_raw = state.u_raw(space)
        fluid = np.unique(space.tri_nodes(space.velocity_degree)
                          [space.fluid_tris])
        exact = np.array([case.u(x, y) for x, y in coords[fluid]])
        assert np.abs(u_raw[fluid] - exact).max() <= 1e-11


class TestSolutionErrors:
    def test_zero_state_returns_exact_field_norms(self):
        # hand-computed norms of the representable fields:
        # int |grad u|^2 = 36 over the fluid strip, ||x - 1/2|| = 1/sqrt(12),
        # ||grad(B y)|| = B over the unit porous square
        case = mms.representable_case()
        space = CoupledSpace(build_rectangle_mesh(4, 8, 1.0))
        zero = slv.solve_coupled(space, ModelParams(space.mesh, nu=1.0))
        errs = mms.solution_errors(space, case, zero)
        assert errs["err_u_h1"] == pytest.approx(6.0, rel=1e-12)
        assert errs["err_p_l2"] == pytest.approx(1 / np.sqrt(12.0), rel=1e-12)
        assert errs["err_phi_h1"] == pytest.approx(1.0, rel=1e-12)


class TestSmoothConvergence:
    def test_three_level_rates(self):
        study = mms.convergence_study(mms.smooth_case(), num_levels=3)
        rates = study.final_rates()
        assert rates["rate_u_h1"] == pytest.approx(2.0, abs=0.25)
        assert rates["rate_u_l2"] == pytest.approx(3.0, abs=0.4)
        assert rates["rate_p_l2"] == pytest.approx(2.0, abs=0.4)
        assert rates["rate_phi_h1"] == pytest.approx(1.0, abs=0.2)

    def test_quadratic_head_restores_second_order(self):
        # spec'd configuration knob: P2 head balances the rate table
        study = mms.convergence_study(mms.smooth_case(), num_levels=3,
                                      head_degree=2)
        assert study.final_rates()["rate_phi_h1"] == pytest.approx(2.0,
                                                                   abs=0.35)

    def test_viscosity_sweep_keeps_errors_comparable(self):
        keys = ("err_u_h1", "err_u_l2", "err_p_l2", "err_phi_h1")
        base = mms.convergence_study(mms.smooth_case(nu=1.0), num_levels=2)
        double = mms.convergence_study(mms.smooth_case(nu=2.0), num_levels=2)
        for r1, r2 in zip(base.rows, double.rows):
            for key in keys:
                assert r2[key] <= 2.0 * r1[key]
                assert r1[key] <= 2.0 * r2[key]


class TestStudyResult:
    def test_rates_from_synthetic_rows(self):
        rows = [{"level": i, "h": 0.5 ** i, "err_u_h1": 4.0 ** -i,
                 "err_u_l2": 8.0 ** -i, "err_p_l2": 4.0 ** -i,
                 "err_phi_h1": 2.0 ** -i} for i in range(3)]
        study = mms.StudyResult(rows)
        rates = study.rates()
        assert rates["rate_u_h1"] == [pytest.approx(2.0)] * 2
        assert rates["rate_u_l2"] == [pytest.approx(3.0)] * 2
        assert rates["rate_phi_h1"] == [pytest.approx(1.0)] * 2

    def test_csv_layout(self, tmp_path):
        rows = [{"level": i, "h": 0.5 ** i, "err_u_h1": 4.0 ** -i,
                 "err_u_l2": 8.0 ** -i, "err_p_l2": 4.0 ** -i,
                 "err_phi_h1": 2.0 ** -i} for i in range(3)]
        path = tmp_path / "rates.csv"
        text = mms.StudyResult(rows).to_csv(path)
        assert path.read_text() == text
        parsed = list(csv.reader(io.StringIO(text)))
        assert parsed[0][:6] == ["level", "h", "err_u_h1", "err_u_l2",
                                 "err_p_l2", "err_phi_h1"]
        assert all(col.startswith("rate_") for col in parsed[0][6:])
        assert parsed[1][6:] == [""] * 4  # no rates on the first level
        assert float(parsed[2][parsed[0].index("rate_u_l2")]) == pytest.approx(3.0)

    def test_rounding_level_errors_give_no_rate(self, tmp_path):
        rows = [{"level": i, "h": 0.5 ** i, "err_u_h1": 4.0 ** -i,
                 "err_u_l2": 8.0 ** -i, "err_p_l2": 1e-9 * 4.0 ** -i,
                 "err_phi_h1": [1.0, 1e-9, 1e-12][i]} for i in range(3)]
        study = mms.StudyResult(rows)
        rates = study.rates()
        assert rates["rate_u_h1"] == [pytest.approx(2.0)] * 2
        assert rates["rate_p_l2"] == [None, None]
        assert rates["rate_phi_h1"] == [None, None]
        parsed = list(csv.reader(io.StringIO(
            study.to_csv(tmp_path / "rates.csv"))))
        col = parsed[0].index("rate_p_l2")
        assert [row[col] for row in parsed[1:]] == ["", "", ""]

    def test_study_records_iterations(self):
        study = mms.convergence_study(mms.representable_case(), num_levels=2)
        assert all(row["iterations"] >= 1 for row in study.rows)


class TestCaseRegistry:
    def test_known_names(self):
        assert mms.CASE_NAMES == ("representable", "smooth")
        for name in mms.CASE_NAMES:
            assert isinstance(mms.get_case(name), mms.ManufacturedCase)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(KeyError, match="representable"):
            mms.get_case("vortex")

    def test_offdiagonal_permeability_rejected(self):
        K = np.array([[1.0, 0.2], [0.2, 1.0]])
        with pytest.raises(ValueError):
            mms.smooth_case(K=K)
