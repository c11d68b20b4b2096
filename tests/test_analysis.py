"""Verification toolkit: dual norms via Riesz solves, the energy report and
a priori bound, interface-transport compensation, the discrete inf-sup
constant, and the two-start uniqueness experiment."""

import dataclasses
import gc
import json
import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.linalg import eigh
from scipy.sparse import csc_matrix
from scipy.sparse.linalg import splu

from nsdarcy import analysis as ana
from nsdarcy import fem
from nsdarcy import mms
from nsdarcy import assembly as asm
from nsdarcy import solver as slv
from nsdarcy.fem import CoupledSpace
from nsdarcy.mesh import FLUID, build_rectangle_mesh, refine_uniform


def forcing_f(x, y):
    return (np.sin(np.pi * x) * (2 - y), x * np.cos(np.pi * y))


def forcing_p(x, y):
    return np.sin(np.pi * x) * y


@pytest.fixture(scope="module")
def space():
    return CoupledSpace(build_rectangle_mesh(4, 8, 1.0))


@pytest.fixture(scope="module")
def params(space):
    return asm.ModelParams(space.mesh, nu=1.0, g_f=forcing_f, g_p=forcing_p)


@pytest.fixture(scope="module")
def state(space, params):
    return slv.solve_coupled(space, params)


@pytest.fixture(scope="module")
def report(space, params, state):
    return ana.verify_energy_estimate(space, params, state)


@pytest.fixture(scope="module")
def comp(space, params, state):
    return ana.compensation_residual(space, params, state=state)


class TestDualNorms:
    def test_zero_data_gives_zero(self, space):
        quiet = asm.ModelParams(space.mesh, nu=1.0)
        assert ana.dual_norm_fluid(space, quiet) == 0.0
        assert ana.dual_norm_porous(space, quiet) == 0.0

    def test_scaling_linearity(self, space, params):
        alpha = 3.5
        scaled = asm.ModelParams(
            space.mesh, nu=1.0,
            g_f=lambda x, y: tuple(alpha * c for c in forcing_f(x, y)),
            g_p=lambda x, y: alpha * forcing_p(x, y))
        assert ana.dual_norm_fluid(space, scaled) == pytest.approx(
            alpha * ana.dual_norm_fluid(space, params), rel=1e-12)
        assert ana.dual_norm_porous(space, scaled) == pytest.approx(
            alpha * ana.dual_norm_porous(space, params), rel=1e-12)

    def test_riesz_representer_attains_the_supremum(self, space, params):
        b = asm.load_vector(space, params)[:space.offset_p]
        A = asm.strain_matrix(space, FLUID)
        z, dual = ana._riesz(splu(csc_matrix(A)), b)
        attained = abs(b @ z) / np.sqrt(z @ (A @ z))
        assert attained == pytest.approx(dual, rel=1e-12)

    def test_no_direction_exceeds_the_dual_norm(self, space, params):
        b = asm.load_vector(space, params)[:space.offset_p]
        A = asm.strain_matrix(space, FLUID)
        dual = ana.dual_norm_fluid(space, params)
        rng = np.random.default_rng(11)
        for _ in range(200):
            v = rng.standard_normal(len(b))
            assert abs(b @ v) / np.sqrt(v @ (A @ v)) <= dual * (1 + 1e-10)

    def test_sampled_supremum_recovers_constant_load_norm(self):
        # independent oracle for g_f = (1, 0): the supremum of (g, v)/||D(v)||
        # over the span of 200 random directions; on this coarse space the
        # sample spans everything, so the sampled supremum must land within
        # 5 percent of the Riesz value (it lands within rounding).
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
        params = asm.ModelParams(space.mesh, nu=1.0,
                                 g_f=lambda x, y: (1.0, 0.0))
        dual = ana.dual_norm_fluid(space, params)
        b = asm.load_vector(space, params)[:space.offset_p]
        A = asm.strain_matrix(space, FLUID).toarray()
        rng = np.random.default_rng(5)
        V = rng.standard_normal((len(b), 200))
        coeffs = np.linalg.solve(V.T @ A @ V, V.T @ b)
        sampled = float(np.sqrt(b @ V @ coeffs))
        assert sampled == pytest.approx(dual, rel=0.05)
        assert sampled <= dual * (1 + 1e-9)


class TestEnergyReport:
    def test_balance_identity_at_the_solution(self, report):
        assert report.balance_defect_rel <= 1e-9

    def test_balance_identity_on_a_wavy_interface(self, wavy_space):
        params = asm.ModelParams(wavy_space.mesh, nu=1.0, g_f=forcing_f,
                                 g_p=forcing_p)
        state = slv.solve_coupled(wavy_space, params)
        rep = ana.verify_energy_estimate(wavy_space, params, state)
        assert rep.balance_defect_rel <= 1e-12

    def test_a_priori_bound_with_default_multiplier(self, report):
        assert report.bound_ratio <= report.c_mult
        assert report.bound_ok

    def test_energies_nonnegative_and_reference_positive(self, report, comp):
        for name in ("e_fluid", "e_darcy", "e_bjs", "dual_gf",
                     "dual_gp", "pressure_norm"):
            assert getattr(report, name) >= 0.0
        assert comp.energy_aux >= 0.0
        assert report.C_sq > 0.0

    def test_energy_stable_under_refinement(self):
        mesh = build_rectangle_mesh(4, 8, 1.0)
        totals = []
        for _ in range(3):
            space = CoupledSpace(mesh)
            local = asm.ModelParams(mesh, nu=1.0, g_f=forcing_f,
                                    g_p=forcing_p)
            state = slv.solve_coupled(space, local)
            rep = ana.verify_energy_estimate(space, local, state)
            totals.append(rep.e_fluid + rep.e_darcy)
            mesh = refine_uniform(mesh)
        spread = (max(totals) - min(totals)) / min(totals)
        assert spread < 0.02

    def test_linear_problem_bound_ratio_is_scaling_invariant(self, space):
        config = slv.SolverConfig(include_convection=False)
        ratios = []
        for alpha in (1.0, 7.0):
            params = asm.ModelParams(
                space.mesh, nu=1.0,
                g_f=lambda x, y, a=alpha: tuple(a * c for c in forcing_f(x, y)),
                g_p=lambda x, y, a=alpha: a * forcing_p(x, y))
            state = slv.solve_coupled(space, params, config)
            rep = ana.verify_energy_estimate(space, params, state)
            ratios.append(rep.bound_ratio)
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-10)

    def test_zero_data_report(self, space):
        quiet = asm.ModelParams(space.mesh, nu=1.0)
        state = slv.solve_coupled(space, quiet)
        rep = ana.verify_energy_estimate(space, quiet, state)
        comp = ana.compensation_residual(space, quiet, state=state)
        assert rep.e_fluid == rep.e_darcy == rep.e_bjs == comp.energy_aux == 0.0
        assert rep.C_sq == 0.0 and rep.bound_ratio == 0.0
        assert rep.bound_ok
        assert comp.residual == 0.0

    def test_pressure_stability_bound(self, space, report):
        # the inf-sup inequality beta ||p|| <= sup (p, div v)/||D(v)|| as an
        # equality check on the recovered supremum
        beta = ana.compute_inf_sup(space).beta
        assert beta * report.pressure_norm <= report.pressure_dual * (
            1 + 1e-9)
        assert report.pressure_dual > 0.0

    @pytest.mark.parametrize("data", ["driven", "smooth", "representable"])
    def test_pressure_dual_is_the_dual_norm_of_the_pressure_term(
            self, space, params, data):
        # at the solution the momentum rows without the pressure equal
        # -Bf^T p, interface loads included (the manufactured cases carry
        # them)
        if data == "driven":
            state = slv.solve_coupled(space, params)
        else:
            case = mms.get_case(data)
            params = case.params(space.mesh)
            state = case.solve(space, params)
        rep = ana.verify_energy_estimate(space, params, state)
        b = asm.divergence_matrix(space).T @ state.p
        S = csc_matrix(asm.strain_matrix(space))
        dual = np.sqrt(b @ splu(S).solve(b))
        assert rep.pressure_dual == pytest.approx(dual, rel=1e-9)

    def test_companion_fields_match_direct_computation(self, space, params,
                                                       state, comp):
        aux = slv.solve_auxiliary(space, params, state=state)
        uph = space.node_values("aux", aux.coeffs)
        e_aux = aux.sigma * asm.strain_energy(space, uph, ana.POROUS)
        assert comp.energy_aux == pytest.approx(e_aux, rel=1e-12)
        t_fluid = 0.5 * asm.interface_uv_flux(space, uph, uph, aux.wind_raw)
        t_porous = asm.convection_value(space, aux.wind_raw, uph, uph,
                                        ana.POROUS, skew=False)
        direct = abs(t_fluid + t_porous) / max(1.0, abs(t_fluid))
        assert comp.residual == pytest.approx(direct, rel=1e-12)

    def test_report_runs_neither_companion_nor_eigensolve(
            self, space, params, state, monkeypatch):
        # the companion and the inf-sup constant are reports of their own
        def refuse(*args, **kwargs):
            raise AssertionError("the energy report ran a companion or "
                                 "an eigensolve")
        monkeypatch.setattr(ana, "solve_auxiliary", refuse)
        monkeypatch.setattr(ana, "compute_inf_sup", refuse)
        rep = ana.verify_energy_estimate(space, params, state).to_dict()
        assert not {"beta", "e_aux", "compensation_residual"} & set(rep)

    def test_data_are_evaluated_by_the_solves_alone(self, space, counted,
                                                    monkeypatch):
        # each coupled solve evaluates g_f and g_p once; the report and the
        # uniqueness premise read the right-hand side the solves assembled
        g_f, g_p = counted(forcing_f), counted(forcing_p)
        params = asm.ModelParams(space.mesh, nu=1.0, g_f=g_f, g_p=g_p)
        state = slv.solve_coupled(space, params)
        assert (g_f.calls, g_p.calls) == (1, 1)
        g_f.calls = g_p.calls = 0
        ana.verify_energy_estimate(space, params, state)
        assert (g_f.calls, g_p.calls) == (0, 0)
        solves = []

        def solve(*args, **kwargs):
            solves.append(kwargs.get("initial_state") is not None)
            return slv.solve_coupled(*args, **kwargs)
        monkeypatch.setattr(ana, "solve_coupled", solve)
        ana.check_uniqueness(space, params)
        assert solves == [False, True]
        assert (g_f.calls, g_p.calls) == (2, 2)

    @given(nu=st.floats(0.1, 3.2), amplitude=st.floats(0.0, 1.0),
           head_amplitude=st.floats(0.0, 1.0),
           pressure_amplitude=st.floats(0.0, 4.0),
           K=st.tuples(st.floats(0.1, 10.0), st.floats(0.1, 10.0)),
           G=st.floats(0.1, 10.0))
    def test_smooth_case_balance_closes_wherever_it_converges(
            self, space, nu, amplitude, head_amplitude, pressure_amplitude,
            K, G):
        # the energy equality with a manufactured case's interface loads in
        # the work; a solve that does not converge is the one allowed failure
        case = mms.smooth_case(nu, amplitude, head_amplitude,
                               pressure_amplitude, K=np.diag(K), G=G)
        params = case.params(space.mesh)
        try:
            state = case.solve(space, params)
        except slv.NonConvergence:
            return
        rep = ana.verify_energy_estimate(space, params, state)
        assert rep.balance_defect_rel <= 1e-9

    def test_serialization_has_stable_keys(self, space, report, comp):
        d = report.to_dict()
        assert set(d) == {f.name for f in dataclasses.fields(ana.EnergyReport)}
        for key in ("e_fluid", "e_darcy", "e_bjs", "dual_gf",
                    "dual_gp", "C_sq", "bound_ratio", "uniqueness_number",
                    "pressure_norm", "gamma_term"):
            assert key in d
        assert {"energy_aux", "residual"} <= set(comp.to_dict())
        assert "beta" in ana.compute_inf_sup(space).to_dict()
        assert isinstance(d["bound_ok"], bool)
        json.loads(json.dumps(d))


class TestCompensation:
    def test_zero_trace_kills_both_terms(self, space, params):
        comp = ana.compensation_residual(space, params,
                                         trace=lambda x, y: (0.0, 0.0))
        assert comp.t_fluid == 0.0
        assert comp.t_porous == 0.0
        assert comp.residual == 0.0

    def test_fluid_term_equals_skew_convection_of_solution(self, space,
                                                           params, state):
        comp = ana.compensation_residual(space, params, state=state)
        u_raw = state.u_raw(space)
        skew = asm.convection_value(space, u_raw, u_raw, u_raw, FLUID,
                                    skew=True)
        assert comp.t_fluid == pytest.approx(skew, rel=1e-10, abs=1e-16)

    def test_residual_decreases_under_refinement(self):
        mesh = build_rectangle_mesh(4, 8, 1.0)
        residuals = []
        for _ in range(3):
            space = CoupledSpace(mesh)
            local = asm.ModelParams(mesh, nu=1.0, g_f=forcing_f,
                                    g_p=forcing_p)
            state = slv.solve_coupled(space, local)
            residuals.append(
                ana.compensation_residual(space, local, state=state).residual)
            mesh = refine_uniform(mesh)
        for before, after in zip(residuals, residuals[1:]):
            assert after <= 1.2 * before
        assert residuals[-1] < residuals[0]

    def test_exactly_divergence_free_wind_cancels(self, space, params):
        comp = ana.compensation_residual(
            space, params,
            trace=lambda x, y: (x * (1 - x), 0.0),
            wind=lambda x, y: (x * x, -2.0 * x * y))
        assert abs(comp.t_fluid) > 1e-8  # nondegenerate flux through Gamma
        assert comp.residual <= 1e-12
        assert np.isnan(comp.wind_flux_defect)

    def test_identity_defect_is_rounding_level(self, space, params, state):
        comp = ana.compensation_residual(space, params, state=state)
        assert comp.identity_defect <= 1e-13 * max(1.0, abs(comp.t_fluid))

    def test_lifting_wind_reports_flux_defect(self, space, params, state):
        comp = ana.compensation_residual(space, params, state=state)
        aux = slv.solve_auxiliary(space, params, state=state)
        assert comp.wind_flux_defect == pytest.approx(
            aux.lifting.flux_defect, rel=1e-12, abs=1e-18)

    def test_lifting_factor_is_freed_with_the_companion(self, params,
                                                        monkeypatch):
        # a factorization lives only while something reads it: once the
        # companion is solved, neither space._cache nor anything else holds
        # the lifting's factor
        lifting = []
        factor = fem._factor

        def recording(A, context, order=None):
            lu = factor(A, context, order)
            if context.startswith("lifting"):
                lifting.append(weakref.ref(lu))
            return lu
        monkeypatch.setattr(fem, "_factor", recording)
        space = CoupledSpace(params.mesh)
        state = slv.solve_coupled(space, params)
        ana.compensation_residual(space, params, state=state)
        gc.collect()
        assert len(lifting) == 1
        assert lifting[0]() is None

    def test_companion_flux_agreement(self, space, params, state,
                                      aux_flux_agreement):
        aux = slv.solve_auxiliary(space, params, state=state)
        assert aux_flux_agreement(space, aux) <= 1e-10
        explicit = asm.ModelParams(space.mesh, nu=1.0, sigma=0.31)
        other = slv.solve_auxiliary(space, explicit, state=state)
        assert aux_flux_agreement(space, other) <= 1e-10


class TestInfSup:
    def test_taylor_hood_frozen_value(self, space):
        # regression value computed by this implementation's dense eigensolve
        result = ana.compute_inf_sup(space)
        assert result.beta == pytest.approx(0.561604177863, abs=1e-9)

    def test_taylor_hood_stable_over_refinement(self):
        mesh = build_rectangle_mesh(4, 8, 1.0)
        betas = []
        for _ in range(3):
            betas.append(ana.compute_inf_sup(CoupledSpace(mesh)).beta)
            mesh = refine_uniform(mesh)
        assert all(b > 0.2 for b in betas)
        assert (max(betas) - min(betas)) / min(betas) < 0.10

    def test_eigenvalue_is_minimal_over_random_pressures(self, space):
        result = ana.compute_inf_sup(space)
        A = asm.strain_matrix(space, FLUID)
        B = asm.divergence_matrix(space)
        M = asm.pressure_mass_matrix(space)
        m = asm.pressure_mean_vector(space)
        lu = splu(csc_matrix(A))
        rng = np.random.default_rng(2)
        for _ in range(10):
            q = rng.standard_normal(space.num_pressure_dofs)
            q -= m * (m @ q) / (m @ m)
            ratio = (q @ (B @ lu.solve(B.T @ q))) / (q @ (M @ q))
            assert ratio >= result.lambda_min * (1 - 1e-10)

    def test_result_is_computed_once_per_space(self, space):
        first = ana.compute_inf_sup(space)
        assert ana.compute_inf_sup(space) is first
        fresh = ana.compute_inf_sup(CoupledSpace(space.mesh))
        assert fresh is not first
        assert fresh.beta == first.beta

    def test_unstable_pair_negative_control(self):
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0),
                             velocity_degree=1)
        assert ana.compute_inf_sup(space).beta < 1e-6

    @staticmethod
    def dense_lambda_min(space):
        """The dense reference: the full Schur complement restricted to the
        basis q_i - (m_i / m_0) q_0 of the mean-free pressures, and eigh."""
        B = asm.divergence_matrix(space)
        M = asm.pressure_mass_matrix(space)
        m = asm.pressure_mean_vector(space)
        n = space.num_pressure_dofs
        E = np.zeros((n, n - 1))
        E[1:, :] = np.eye(n - 1)
        E[0, :] = -m[1:] / m[0]
        lu = splu(csc_matrix(asm.strain_matrix(space, FLUID)))
        S = B @ lu.solve(B.toarray().T)
        return eigh(E.T @ S @ E, E.T @ (M @ E), eigvals_only=True)[0]

    def test_sparse_eigensolve_matches_the_dense_reference(self, wavy_space):
        for space in (CoupledSpace(build_rectangle_mesh(4, 8, 1.0)),
                      wavy_space,
                      CoupledSpace(build_rectangle_mesh(16, 32, 1.0))):
            assert ana.compute_inf_sup(space).lambda_min == pytest.approx(
                self.dense_lambda_min(space), rel=1e-10)

    def test_runs_on_four_pressure_dofs(self):
        space = CoupledSpace(build_rectangle_mesh(1, 2, 1.0))
        assert space.num_pressure_dofs == 4
        assert ana.compute_inf_sup(space).lambda_min == pytest.approx(
            self.dense_lambda_min(space), rel=1e-10)

    def test_serialization(self, space):
        d = ana.compute_inf_sup(space).to_dict()
        assert isinstance(d["velocity_dim"], int)
        assert isinstance(d["pressure_dim"], int)
        json.loads(json.dumps(d))


class TestUniqueness:
    def test_small_data_verdict_unique(self, space):
        params = asm.ModelParams(
            space.mesh, nu=1.0,
            g_f=lambda x, y: (0.02 * np.sin(np.pi * x), 0.02 * x * y),
            g_p=lambda x, y: 0.02 * np.cos(np.pi * x))
        rep = ana.check_uniqueness(space, params, seed=3)
        assert rep.uniqueness_number * rep.c_mult < 1.0
        assert rep.verdict == "unique"
        assert rep.relative_distance <= 1e-8
        assert rep.iterations_zero_start >= 1
        assert rep.iterations_random_start >= 1

    def test_large_data_verdict_inconclusive(self, space):
        params = asm.ModelParams(space.mesh, nu=0.05, g_f=forcing_f,
                                 g_p=forcing_p)
        rep = ana.check_uniqueness(space, params, seed=3)
        assert rep.uniqueness_number * rep.c_mult >= 1.0
        assert rep.verdict == "inconclusive"

    def test_uniqueness_number_composition(self, space):
        params = asm.ModelParams(space.mesh, nu=0.7, K=2.0, g_f=forcing_f,
                                 g_p=forcing_p)
        gf = ana.dual_norm_fluid(space, params)
        gp = ana.dual_norm_porous(space, params)
        expected = gf / 0.7 ** 2 + gp / (0.7 ** 1.5 * np.sqrt(2.0))
        state = slv.solve_coupled(space, params)
        rep = ana.verify_energy_estimate(space, params, state)
        assert rep.uniqueness_number == pytest.approx(expected, rel=1e-14)

    def test_number_reads_the_interface_loads_of_the_solves(self, space):
        # the small-data premise is that of the right-hand side the solve
        # used: the volume sources plus a manufactured case's interface
        # loads, as ``solve --case`` reports it
        case = mms.smooth_case()
        params = case.params(space.mesh)
        rep = ana.verify_energy_estimate(space, params,
                                         case.solve(space, params))
        b = asm.load_vector(space, params) + case.interface_loads(space)
        bu, bh = b[:space.offset_p], b[space.offset_phi:]
        S = csc_matrix(asm.strain_matrix(space))
        A = csc_matrix(asm.darcy_matrix(space, params))
        gf = np.sqrt(bu @ splu(S).solve(bu))
        gp = np.sqrt(bh @ splu(A).solve(bh))
        assert rep.uniqueness_number == pytest.approx(
            ana._uniqueness(params, gf, gp), rel=1e-12)

    def test_same_seed_reproduces_identically(self, space):
        params = asm.ModelParams(
            space.mesh, nu=1.0,
            g_f=lambda x, y: (0.02 * np.sin(np.pi * x), 0.0))
        d1 = ana.check_uniqueness(space, params, seed=9).to_dict()
        d2 = ana.check_uniqueness(space, params, seed=9).to_dict()
        assert d1 == d2

    def test_serialization(self, space):
        params = asm.ModelParams(
            space.mesh, nu=1.0,
            g_f=lambda x, y: (0.02 * np.sin(np.pi * x), 0.0))
        d = ana.check_uniqueness(space, params, seed=1).to_dict()
        assert isinstance(d["verdict"], str)
        assert isinstance(d["iterations_zero_start"], int)
        json.loads(json.dumps(d))
