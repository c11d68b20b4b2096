"""Coupled solver behavior: trivial exact cases, scheme agreement, the
correction step, the mean-pressure gauge, failure modes, and the porous
companion solve."""

from collections import Counter

import numpy as np
import pytest
from scipy.sparse import bmat, csc_matrix
from scipy.sparse.linalg import splu

from nsdarcy import assembly as asm
from nsdarcy import fem, mms
from nsdarcy.cli import FORCINGS, _scaled
from nsdarcy import solver as slv
from nsdarcy.fem import CoupledSpace, SingularLinearSystem
from nsdarcy.mesh import build_rectangle_mesh, refine_uniform


def forcing_f(x, y):
    return (np.sin(np.pi * x) * (2 - y), x * np.cos(np.pi * y))


def forcing_p(x, y):
    return np.sin(np.pi * x) * y


def lid(x, y):
    return (0.2 * (y - 1.0) * (2.0 - y), 0.0)


@pytest.fixture(scope="module")
def space():
    return CoupledSpace(build_rectangle_mesh(4, 8, 1.0))


@pytest.fixture(scope="module")
def params(space):
    return asm.ModelParams(space.mesh, nu=1.0, g_f=forcing_f, g_p=forcing_p)


@pytest.fixture(scope="module")
def solution(space, params):
    return slv.solve_coupled(space, params)


class TestLinearRegime:
    def test_zero_data_gives_exact_zero_in_one_iteration(self, space):
        params = asm.ModelParams(space.mesh, nu=0.3)
        state = slv.solve_coupled(space, params)
        assert state.converged
        assert state.iterations == 1
        assert np.linalg.norm(state.u) == 0.0
        assert np.linalg.norm(state.p) == 0.0
        assert np.linalg.norm(state.phi) == 0.0

    def test_no_convection_converges_in_one_picard_iteration(self, space, params):
        config = slv.SolverConfig(include_convection=False)
        state = slv.solve_coupled(space, params, config)
        assert state.converged
        assert state.iterations == 1

    def test_no_convection_equals_direct_linear_solve(self, space, params):
        config = slv.SolverConfig(include_convection=False)
        state = slv.solve_coupled(space, params, config)
        direct = _bordered_reference(space, *_picard_system(space, params))
        stacked = np.concatenate([state.u, state.p, state.phi])
        assert np.allclose(stacked, direct, rtol=0.0, atol=1e-13)

    def test_converged_residual_below_tolerance(self, space, params, solution):
        config = slv.SolverConfig()
        sys = slv._System(space, params, config, None, None)
        x = np.concatenate([solution.u, solution.p, solution.phi])
        scale = np.linalg.norm(sys.b)
        _, F = sys.linearize(x)
        assert np.linalg.norm(F) <= config.tol * scale


class TestNonlinearIteration:
    def test_converges_with_recorded_transcript(self, solution):
        assert solution.converged
        assert len(solution.transcript) == solution.iterations
        assert solution.transcript[-1]["residual"] == solution.residual
        schemes = {row["scheme"] for row in solution.transcript}
        assert schemes <= {"picard", "newton"}

    def test_small_data_residuals_decrease_monotonically(self, solution):
        residuals = [row["residual"] for row in solution.transcript]
        assert all(b < a for a, b in zip(residuals, residuals[1:]))

    def test_newton_scheme_agrees_with_default(self, space, params, solution):
        state = slv.solve_coupled(space, params,
                                  slv.SolverConfig(scheme="newton"))
        assert np.allclose(state.u, solution.u, atol=1e-9)
        assert np.allclose(state.phi, solution.phi, atol=1e-9)

    def test_picard_scheme_agrees_with_default(self, space, params, solution):
        state = slv.solve_coupled(space, params,
                                  slv.SolverConfig(scheme="picard",
                                                   max_iter=60))
        assert np.allclose(state.u, solution.u, atol=1e-8)

    def test_initial_state_does_not_change_small_data_solution(
            self, space, params, solution):
        rng = np.random.default_rng(7)
        x0 = 0.1 * rng.standard_normal(space.num_total_dofs)
        state = slv.solve_coupled(space, params, initial_state=x0)
        assert np.allclose(state.u, solution.u, atol=1e-9)

    def test_mean_gauge_pressure_is_mean_free(self, space, solution):
        m = asm.pressure_mean_vector(space)
        assert abs(m @ solution.p) / m.sum() < 1e-12

    def test_dirichlet_data_imposed_at_boundary_nodes(self, space):
        params = asm.ModelParams(space.mesh, nu=1.0)
        state = slv.solve_coupled(space, params, dirichlet=lid)
        u_raw = state.u_raw(space)
        coords = space.node_coords(space.velocity_degree)
        constrained = np.flatnonzero(space.u_node_dof < 0)
        fluid = np.unique(space.tri_nodes(space.velocity_degree)[space.fluid_tris])
        for n in np.intersect1d(constrained, fluid):
            expected = lid(*coords[n])
            assert np.allclose(u_raw[n], expected, atol=1e-14)

    def test_nonconvergence_reports_transcript_and_state(self, space):
        params = asm.ModelParams(space.mesh, nu=0.01,
                                 g_f=lambda x, y: (50.0 * np.sin(np.pi * x),
                                                   50.0 * x),
                                 g_p=forcing_p)
        with pytest.raises(slv.NonConvergence) as info:
            slv.solve_coupled(space, params, slv.SolverConfig(max_iter=3))
        err = info.value
        assert len(err.transcript) == 3
        assert not err.state.converged
        assert err.state.u.shape == (space.num_velocity_dofs,)
        assert "residual" in str(err)

    def test_unstable_pair_raises_singular_system(self):
        mesh = build_rectangle_mesh(2, 4, 1.0)
        space = CoupledSpace(mesh, velocity_degree=1)
        params = asm.ModelParams(mesh, nu=1.0, g_f=forcing_f)
        with pytest.raises(SingularLinearSystem):
            slv.solve_coupled(space, params)

    @pytest.mark.parametrize("cells, amplitude, nu, picard_steps", [
        ((16, 32), 5.0, 0.1, 11),
        ((8, 16), 5.0, 0.1, 12),
        ((16, 32), 2.0, 0.05, 7),
    ])
    def test_large_data_converges_with_a_fixed_switch_point(
            self, cells, amplitude, nu, picard_steps):
        # uniqueness numbers 110-159, far from small data: the regime of
        # the a priori estimate without a smallness condition
        space = CoupledSpace(build_rectangle_mesh(*cells, 1.0))
        g_f, g_p = (_scaled(fn, amplitude) for fn in FORCINGS["driven"])
        params = asm.ModelParams(space.mesh, nu=nu, g_f=g_f, g_p=g_p)
        state = slv.solve_coupled(space, params)
        assert state.converged
        assert ([row["scheme"] for row in state.transcript]
                == ["picard"] * picard_steps + ["newton"] * 2)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            slv.SolverConfig(scheme="broyden")
        with pytest.raises(ValueError):
            slv.SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            slv.SolverConfig(max_iter=0)


def _bordered_reference(space, A, rhs):
    """Mean-gauge solution from the explicitly bordered system
    [[A, m], [m^T, 0]] [x, lam] = [rhs, 0]."""
    n = A.shape[0]
    m = np.zeros(n)
    m[space.offset_p:space.offset_phi] = asm.pressure_mean_vector(space)
    col = csc_matrix(m[:, None])
    bordered = bmat([[A, col], [col.T, None]], format="csc")
    return splu(bordered).solve(np.append(rhs, 0.0))[:n]


def _picard_system(space, params, x=None, dirichlet=None):
    """Direct form of one Picard step, built from the assembly builders: the
    free-dof operator with the wind of x frozen (Stokes-Darcy when x is
    None), and the loads less the operator image of the Dirichlet values.
    Its mean-gauge solution is the next iterate."""
    zero = np.zeros(space.num_velocity_dofs)
    u_dir = space.velocity_node_values(zero, dirichlet).ravel()
    Auu = (asm.strain_matrix(space, expanded=True, coefficient=2 * params.nu)
           + asm.bjs_matrix(space, coefficient=params.G, expanded=True))
    if x is not None:
        u, _, _ = space.split_state(x)
        wind = space.velocity_node_values(u, dirichlet)
        Auu = Auu + asm.convection_matrix(space, wind, expanded=True)
    B = asm.divergence_matrix(space, expanded=True)
    Cup = asm.interface_coupling_matrix(space, expanded=True)
    D = asm.darcy_matrix(space, params, expanded=True)
    Bf = asm.restrict(space, B, "pressure", "velocity")
    Cf = asm.restrict(space, Cup, "velocity", "head")
    A = bmat([[asm.restrict(space, Auu, "velocity", "velocity"), -Bf.T, Cf],
              [Bf, None, None],
              [-Cf.T, None, asm.restrict(space, D, "head", "head")]],
             format="csc")
    lifted = np.concatenate([
        (Auu @ u_dir)[asm.expanded_index(space, "velocity")],
        (B @ u_dir)[asm.expanded_index(space, "pressure")],
        -(Cup.T @ u_dir)[asm.expanded_index(space, "head")]])
    return A, asm.load_vector(space, params) - lifted


class TestCorrectionStep:
    @pytest.mark.parametrize("mesh", ["space", "wavy_space"])
    def test_picard_correction_equals_direct_picard_solve(self, request,
                                                          mesh):
        space = request.getfixturevalue(mesh)
        params = asm.ModelParams(space.mesh, nu=1.0, g_f=forcing_f,
                                 g_p=forcing_p)
        sys = slv._System(space, params, slv.SolverConfig(), lid, None)
        rng = np.random.default_rng(5)
        x0 = 0.1 * rng.standard_normal(space.num_total_dofs)
        _, p, _ = space.split_state(x0)
        p[:] = slv.project_zero_mean(space, p)
        Auu, F = sys.linearize(x0)
        x1 = x0 + sys.gauge_and_solve(sys.jacobian(Auu, x0, False), -F,
                                      "correction")
        ref = _bordered_reference(space, *_picard_system(space, params, x0,
                                                         lid))
        assert np.linalg.norm(x1 - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("problem", ["default", "representable"])
    def test_convection_assembled_once_per_iterate(self, space, params,
                                                   monkeypatch, problem):
        calls = Counter()
        for name in ("convection_matrix", "newton_convection_matrix"):
            def counting(*args, _name=name, _build=getattr(asm, name),
                         **kwargs):
                calls[_name] += 1
                return _build(*args, **kwargs)
            monkeypatch.setattr(asm, name, counting)
        if problem == "default":
            state = slv.solve_coupled(space, params)
        else:
            state = mms.representable_case().solve(space)
        newton_rows = sum(row["scheme"] == "newton"
                          for row in state.transcript)
        assert newton_rows > 0
        assert calls["convection_matrix"] == state.iterations + 1
        assert calls["newton_convection_matrix"] == newton_rows


class TestMeanGauge:
    @pytest.mark.parametrize("mesh", ["space", "wavy_space"])
    @pytest.mark.parametrize("newton", [False, True], ids=["picard", "newton"])
    def test_elimination_matches_bordered_solve(self, request, mesh, newton):
        space = request.getfixturevalue(mesh)
        params = asm.ModelParams(space.mesh, nu=1.0, g_f=forcing_f,
                                 g_p=forcing_p)
        sys = slv._System(space, params, slv.SolverConfig(), None, None)
        rng = np.random.default_rng(3)
        x0 = 0.1 * rng.standard_normal(space.num_total_dofs)
        Auu, F = sys.linearize(x0)
        A, rhs = sys.jacobian(Auu, x0, newton), -F
        x = sys.gauge_and_solve(A, rhs, "equivalence")
        ref = _bordered_reference(space, A, rhs)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        _, p, _ = space.split_state(x)
        assert abs(sys.mean_vec @ p) <= 1e-13

    def test_factors_the_unbordered_operator_once_per_iteration(
            self, params, monkeypatch):
        shapes = []

        def recording_splu(A, *args, **kwargs):
            shapes.append(A.shape)
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(fem, "splu", recording_splu)
        space = CoupledSpace(params.mesh)  # no saddle order computed yet
        n = space.num_total_dofs
        state = slv.solve_coupled(space, params)
        # the ordering factorization of the space, then one per iteration
        assert shapes == [(n, n)] * (state.iterations + 1)
        shapes.clear()
        state = slv.solve_coupled(space, params)
        assert shapes == [(n, n)] * state.iterations

    def test_zero_mean_vector_is_a_singular_constraint(self, space, params):
        sys = slv._System(space, params, slv.SolverConfig(), None, None)
        x0 = np.zeros(space.num_total_dofs)
        Auu, F = sys.linearize(x0)
        A, rhs = sys.jacobian(Auu, x0, False), -F
        sys.mean_vec = np.zeros_like(sys.mean_vec)
        with pytest.raises(SingularLinearSystem, match="mean-pressure"):
            sys.gauge_and_solve(A, rhs, "zero mean")

    def test_space_blocks_are_shared_and_bit_equal(self, space, params):
        config = slv.SolverConfig()
        first = slv._System(space, params, config, None, None)
        other = asm.ModelParams(space.mesh, nu=0.3, G=2.0)
        second = slv._System(space, other, config, None, None)
        assert second.B is first.B and second.Cup is first.Cup
        direct = (asm.strain_matrix(space, expanded=True,
                                     coefficient=2 * other.nu)
                  + asm.bjs_matrix(space, coefficient=2.0, expanded=True))
        assert (second.V != direct).nnz == 0


@pytest.fixture(scope="module")
def aux(space, params, solution):
    return slv.solve_auxiliary(space, params, state=solution)


class TestCompanionSolve:

    def test_trace_matches_fluid_solution_exactly(self, space, solution, aux):
        u_raw = solution.u_raw(space)
        aux_raw = space.aux_node_values(aux.coeffs)
        for node in space.interface_nodes:
            assert np.array_equal(aux_raw[node], u_raw[node])

    def test_zero_on_outer_porous_boundary(self, space, aux):
        aux_raw = space.aux_node_values(aux.coeffs)
        coords = space.node_coords(space.velocity_degree)
        porous = np.unique(space.tri_nodes(space.velocity_degree)
                           [space.porous_tris])
        for n in porous:
            x, y = coords[n]
            on_outer = y < 1e-12 or (y < 1.0 - 1e-12
                                     and (x < 1e-12 or x > 1.0 - 1e-12))
            if on_outer:
                assert np.all(aux_raw[n] == 0.0)

    def test_interior_rows_satisfied(self, aux):
        residual = (aux.matrix @ aux.coeffs)[~aux.iface_mask]
        scale = max(np.linalg.norm(aux.matrix @ aux.coeffs), 1.0)
        assert np.linalg.norm(residual) <= 1e-10 * scale

    def test_sigma_defaults_to_nu_times_h(self, space, params, aux):
        assert aux.sigma == pytest.approx(params.nu * space.mesh.h)
        other = slv.solve_auxiliary(space, params, trace=lambda x, y:
                                    (x * (1 - x), 0.0), sigma=0.37)
        assert other.sigma == 0.37

    def test_wind_callable_and_array_agree(self, space, params):
        def trace(x, y):
            return (x * (1 - x), 0.0)

        def wind(x, y):
            return (x * x, -2.0 * x * y)

        coords = space.node_coords(space.velocity_degree)
        wind_arr = np.array([wind(x, y) for x, y in coords])
        a1 = slv.solve_auxiliary(space, params, trace=trace, wind=wind)
        a2 = slv.solve_auxiliary(space, params, trace=trace, wind=wind_arr)
        assert np.allclose(a1.coeffs, a2.coeffs, atol=1e-14)

    def test_zero_trace_gives_zero_companion(self, space, params):
        aux = slv.solve_auxiliary(space, params,
                                  trace=lambda x, y: (0.0, 0.0))
        assert np.linalg.norm(aux.coeffs) == 0.0
