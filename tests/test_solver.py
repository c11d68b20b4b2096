"""Coupled solver behavior: trivial exact cases, scheme agreement, the
correction step, the mean-pressure gauge, failure modes, and the porous
companion solve."""

import time
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.sparse import bmat, coo_matrix, csc_matrix, csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres, spilu, splu

from conftest import expanded
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
def p2_head_space():
    return CoupledSpace(build_rectangle_mesh(2, 4, 1.0), head_degree=2)


@pytest.fixture(scope="module")
def params(space):
    return asm.ModelParams(space.mesh, nu=1.0, g_f=forcing_f, g_p=forcing_p)


@pytest.fixture(scope="module")
def solution(space, params):
    return slv.solve_coupled(space, params)


def _count_factors(monkeypatch):
    """Count the factors built through ``fem._factor``, by context."""
    calls = Counter()
    factor = fem._factor

    def counting(A, context, order=None):
        calls[context.split(" (")[0].rstrip("0123456789 ")] += 1
        return factor(A, context, order)
    monkeypatch.setattr(fem, "_factor", counting)
    return calls


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
        direct = _bordered_reference(space,
                                     *_direct_system(space, params)[:2])
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

    def test_unstable_pair_is_rejected_in_seconds(self):
        # the structural check runs in the elimination order; in the natural
        # order of this P1-P1 Jacobian the matching took tens of seconds
        mesh = build_rectangle_mesh(28, 56, 1.0)
        space = CoupledSpace(mesh, velocity_degree=1)
        params = asm.ModelParams(mesh, nu=1.0, g_f=forcing_f)
        start = time.perf_counter()
        with pytest.raises(SingularLinearSystem,
                           match="structurally singular"):
            slv.solve_coupled(space, params)
        assert time.perf_counter() - start < 5.0

    @pytest.mark.parametrize("cells, amplitude, nu, picard_steps", [
        ((16, 32), 5.0, 0.1, 11),
        ((8, 16), 5.0, 0.1, 12),
        ((16, 32), 2.0, 0.05, 7),
    ])
    def test_large_data_converges_with_a_fixed_switch_point(
            self, cells, amplitude, nu, picard_steps, monkeypatch):
        # uniqueness numbers 110-159, far from small data: the regime of
        # the a priori estimate without a smallness condition, where the
        # first step's factor still preconditions the later steps
        calls = _count_factors(monkeypatch)
        space = CoupledSpace(build_rectangle_mesh(*cells, 1.0))
        g_f, g_p = (_scaled(fn, amplitude) for fn in FORCINGS["driven"])
        params = asm.ModelParams(space.mesh, nu=nu, g_f=g_f, g_p=g_p)
        state = slv.solve_coupled(space, params)
        assert state.converged
        assert ([row["scheme"] for row in state.transcript]
                == ["picard"] * picard_steps + ["newton"] * 2)
        assert 1 <= calls["coupled iteration"] < state.iterations

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            slv.SolverConfig(scheme="broyden")
        with pytest.raises(ValueError):
            slv.SolverConfig(tol=0.0)
        with pytest.raises(ValueError):
            slv.SolverConfig(max_iter=0)

    @pytest.mark.parametrize("argument, length, fill", [
        ("initial_state", lambda n: 5, 0.0),
        ("initial_state", lambda n: n + 3, 0.0),
        ("initial_state", lambda n: n, np.nan),
        ("extra_loads", lambda n: 3, 0.0),
        ("extra_loads", lambda n: n, np.inf),
    ], ids=["short-start", "long-start", "nan-start", "short-loads",
            "inf-loads"])
    def test_bad_coupled_vectors_are_named(self, argument, length, fill):
        """A start or extra load of the wrong length, or with non-finite
        entries, is a ValueError that names it."""
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
        params = asm.ModelParams(space.mesh, nu=1.0, g_f=forcing_f)
        n, m = space.num_total_dofs, length(space.num_total_dofs)
        message = (f"{argument} must be a finite vector of length "
                   f"num_total_dofs = {n}, got shape \\({m},\\) with "
                   f"{m if m == n else 0} non-finite entries")
        with pytest.raises(ValueError, match=message):
            slv.solve_coupled(space, params, **{argument: np.full(m, fill)})


def _bordered_reference(space, A, rhs):
    """Mean-gauge solution from the explicitly bordered system
    [[A, m], [m^T, 0]] [x, lam] = [rhs, 0]."""
    n = A.shape[0]
    m = np.zeros(n)
    m[space.offset_p:space.offset_phi] = asm.pressure_mean_vector(space)
    col = csc_matrix(m[:, None])
    bordered = bmat([[A, col], [col.T, None]], format="csc")
    return splu(bordered).solve(np.append(rhs, 0.0))[:n]


VV = ("velocity", "velocity")


def _expanded_blocks(space, params):
    """The expanded divergence, interface coupling and Darcy matrices."""
    return (expanded(space, asm._divergence_form(space), "pressure", "velocity"),
            expanded(space, asm._coupling_form(space), "velocity", "head"),
            expanded(space, asm._darcy_form(space, params), "head", "head"))


def _direct_system(space, params, x=None, dirichlet=None, newton=False):
    """Direct form of one step at x, built from the assembly forms (summed
    into expanded matrices, then restricted and stacked by ``bmat``): the
    free-dof operator J with the wind of x frozen (Stokes-Darcy when x is
    None), with ``newton`` plus the derivative of the convection in its
    wind; the loads less the operator image of the Dirichlet values, whose
    mean-gauge solution against the Picard J is the next iterate; and the
    residual F(x) (None when x is None)."""
    zero = np.zeros(space.num_velocity_dofs)
    u_dir = space.velocity_node_values(zero, dirichlet).ravel()
    Auu = (2 * params.nu * expanded(space, asm._strain_form(space), *VV)
           + params.G * expanded(space, asm._bjs_form(space), *VV))
    Juu = Auu
    if x is not None:
        u, p, phi = space.split_state(x)
        wind = space.velocity_node_values(u, dirichlet)
        Auu = Auu + expanded(space, asm._convection_form(space, wind), *VV)
        Juu = Auu
        if newton:
            Juu = Auu + expanded(space, asm._newton_form(space, wind), *VV)
    B, Cup, D = _expanded_blocks(space, params)
    iu, ip, ih = (space.fields[kind].index
                  for kind in ("velocity", "pressure", "head"))
    Bf, Cf = B[ip][:, iu], Cup[iu][:, ih]
    A = bmat([[Juu[iu][:, iu], -Bf.T, Cf],
              [Bf, None, None],
              [-Cf.T, None, D[ih][:, ih]]],
             format="csc")
    b = asm.load_vector(space, params)
    lifted = np.concatenate([(Auu @ u_dir)[iu], (B @ u_dir)[ip],
                             -(Cup.T @ u_dir)[ih]])
    F = None
    if x is not None:
        ue = wind.ravel()
        pe = space.node_values("pressure", p)
        fe = space.node_values("head", phi)
        m = asm.pressure_mean_vector(space)
        Fp = (B @ ue)[ip]
        F = np.concatenate([(Auu @ ue - B.T @ pe + Cup @ fe)[iu],
                            Fp - m * ((m @ Fp) / (m @ m)),
                            (D @ fe - Cup.T @ ue)[ih]]) - b
    return A, b - lifted, F


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
        ref = _bordered_reference(space, *_direct_system(space, params, x0,
                                                         lid)[:2])
        assert np.linalg.norm(x1 - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("problem", ["default", "representable"])
    def test_convection_assembled_once_per_iterate(self, space, params,
                                                   monkeypatch, problem):
        calls = Counter()
        for name in ("_convection_form", "_newton_form"):
            def counting(*args, _name=name, _build=getattr(asm, name),
                         **kwargs):
                calls[_name] += 1
                return _build(*args, **kwargs)
            monkeypatch.setattr(asm, name, counting)
        if problem == "default":
            state = slv.solve_coupled(space, params)
        else:
            case = mms.representable_case()
            state = case.solve(space, case.params(space.mesh))
        newton_rows = sum(row["scheme"] == "newton"
                          for row in state.transcript)
        assert newton_rows > 0
        assert calls["_convection_form"] == state.iterations + 1
        assert calls["_newton_form"] == newton_rows


class TestStoredPattern:
    """Each iterate's F(x) and Jacobian are data on the stored pattern of
    the space, against the assembly forms summed directly."""

    @pytest.mark.parametrize("mesh", ["space", "wavy_space", "p2_head"])
    @pytest.mark.parametrize("newton", [False, True], ids=["picard", "newton"])
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-2, 1e2),
           driven=st.booleans())
    def test_residual_and_jacobian_match_the_builders(
            self, space, wavy_space, p2_head_space, mesh, newton, seed, scale,
            driven):
        """At a random iterate (its wind included), with the forcing or
        with the representable case's Dirichlet data, on the rectangle, the
        wavy interface and a P2 head."""
        sp = {"space": space, "wavy_space": wavy_space,
              "p2_head": p2_head_space}[mesh]
        if driven:
            dirichlet = None
            params = asm.ModelParams(sp.mesh, nu=0.7, K=[[2.0, 0.5],
                                                         [0.5, 1.0]],
                                     G=1.3, g_f=forcing_f, g_p=forcing_p)
        else:
            case = mms.representable_case()
            dirichlet, params = case.dirichlet, case.params(sp.mesh)
        sys = slv._System(sp, params, slv.SolverConfig(), dirichlet, None)
        x = scale * np.random.default_rng(seed).standard_normal(
            sp.num_total_dofs)
        data, F = sys.linearize(x)
        J = sys.jacobian(data, x, newton)
        J_ref, _, F_ref = _direct_system(sp, params, x, dirichlet, newton)
        assert abs(J - J_ref).max() <= 1e-12 * abs(J_ref).max()
        assert np.abs(F - F_ref).max() <= 1e-12 * np.abs(F_ref).max()

    def test_an_iterate_rebuilds_no_pattern(self, space, params,
                                            monkeypatch):
        sys = slv._System(space, params, slv.SolverConfig(), lid, None)
        calls = Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counting(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counting)

        for module in (asm, slv, fem):
            for name in ("coo_matrix", "bmat"):
                if hasattr(module, name):
                    count(module, name)
        for matrix in (coo_matrix, csc_matrix, csr_matrix):
            count(matrix, "tocsr")
        x = 0.1 * np.random.default_rng(8).standard_normal(
            space.num_total_dofs)
        for newton in (False, True):
            data, _ = sys.linearize(x)
            sys.jacobian(data, x, newton)
        assert calls == {}


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

    def test_factors_the_unbordered_operator_once_per_solve(
            self, params, monkeypatch):
        shapes = {"spilu": [], "splu": []}

        def recording(name, factor):
            def record(A, *args, **kwargs):
                shapes[name].append(A.shape)
                return factor(A, *args, **kwargs)
            return record

        monkeypatch.setattr(fem, "spilu", recording("spilu", spilu))
        monkeypatch.setattr(fem, "splu", recording("splu", splu))
        space = CoupledSpace(params.mesh)  # no saddle order computed yet
        n = space.num_total_dofs
        state = slv.solve_coupled(space, params)
        # the ordering (an incomplete factorization) of the space, then one
        # factor for the first iteration, which preconditions the others
        assert state.iterations > 1
        assert shapes == {"spilu": [(n, n)], "splu": [(n, n)]}
        shapes["spilu"].clear()
        shapes["splu"].clear()
        state = slv.solve_coupled(space, params)
        assert shapes == {"spilu": [], "splu": [(n, n)]}

    def test_zero_mean_vector_is_a_singular_constraint(self, space, params):
        sys = slv._System(space, params, slv.SolverConfig(), None, None)
        x0 = np.zeros(space.num_total_dofs)
        Auu, F = sys.linearize(x0)
        A, rhs = sys.jacobian(Auu, x0, False), -F
        sys.mean_vec = np.zeros_like(sys.mean_vec)
        with pytest.raises(SingularLinearSystem, match="mean-pressure"):
            sys.gauge_and_solve(A, rhs, "zero mean")

    def test_systems_share_one_layout_and_sum_the_builders(self, space,
                                                           params):
        config = slv.SolverConfig()
        first = slv._System(space, params, config, None, None)
        other = asm.ModelParams(space.mesh, nu=0.3, G=2.0)
        second = slv._System(space, other, config, None, None)
        assert all(a is b for a, b in zip(
            (second.pattern, second.maps, second.free, second.order),
            (first.pattern, first.maps, first.free, first.order)))
        A0 = csr_matrix((second.A0, second.pattern.indices,
                         second.pattern.indptr), shape=second.pattern.shape)
        B, Cup, D = _expanded_blocks(space, other)
        S = expanded(space, asm._strain_form(space), *VV)
        T = expanded(space, asm._bjs_form(space), *VV)
        direct = bmat([[2 * other.nu * S + 2.0 * T, -B.T, Cup],
                       [B, None, None],
                       [-Cup.T, None, D]])
        gap = abs(A0 - direct).max()
        assert gap <= 1e-14 * abs(direct).max()


class TestLaggedFactor:
    """Every correction step after the first is GMRES on the bordered
    system of its own Jacobian, preconditioned by the first step's factor;
    a step whose GMRES misses factors its own Jacobian."""

    @pytest.mark.parametrize("mesh", ["space", "wavy_space"])
    @pytest.mark.parametrize("newton", [False, True], ids=["picard", "newton"])
    @settings(max_examples=10)
    @given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-2, 3.0))
    def test_lagged_step_equals_the_direct_bordered_solve(
            self, space, wavy_space, mesh, newton, seed, scale):
        """At two random iterates (winds) with the representable case's
        Dirichlet data, the second step is solved without a new factor."""
        sp = {"space": space, "wavy_space": wavy_space}[mesh]
        case = mms.representable_case()
        sys = slv._System(sp, case.params(sp.mesh), slv.SolverConfig(),
                          case.dirichlet, None)
        first, second = scale * np.random.default_rng(seed).standard_normal(
            (2, sp.num_total_dofs))
        data, F = sys.linearize(first)
        sys.gauge_and_solve(sys.jacobian(data, first, newton), -F, "first")
        factor = sys.factor
        data, F = sys.linearize(second)
        J = sys.jacobian(data, second, newton)
        x = sys.gauge_and_solve(J, -F, "lagged")
        assert sys.factor is factor
        ref = _bordered_reference(sp, J, -F)
        assert np.linalg.norm(x - ref) <= 1e-10 * np.linalg.norm(ref)
        _, p, _ = sp.split_state(x)
        assert abs(sys.mean_vec @ p) <= 1e-14 * np.linalg.norm(x)

    @staticmethod
    def _same_iteration(state, reference):
        assert state.iterations == reference.iterations
        assert ([row["scheme"] for row in state.transcript]
                == [row["scheme"] for row in reference.transcript])
        residuals, expected = (np.array([row["residual"]
                                         for row in s.transcript])
                               for s in (state, reference))
        assert np.abs(residuals - expected).max() <= 1e-12 * expected.max()

    def test_a_missed_cycle_factors_its_own_jacobian(self, space, params,
                                                     solution, monkeypatch):
        calls = _count_factors(monkeypatch)
        monkeypatch.setattr(slv, "KRYLOV_MAX_ITER", 1)
        state = slv.solve_coupled(space, params)
        assert calls == {"coupled iteration": state.iterations}
        self._same_iteration(state, solution)
        assert {row["scheme"] for row in state.transcript} == {"picard",
                                                               "newton"}

    def test_a_non_finite_product_factors_its_own_jacobian(
            self, space, params, solution, monkeypatch):
        def nan_gmres(A, b, **kwargs):
            nan = LinearOperator(A.shape, dtype=float,
                                 matvec=lambda v: np.full(len(v), np.nan))
            return gmres(nan, b, **kwargs)
        calls = _count_factors(monkeypatch)
        monkeypatch.setattr(slv, "gmres", nan_gmres)
        state = slv.solve_coupled(space, params)
        assert calls == {"coupled iteration": state.iterations}
        self._same_iteration(state, solution)


def _same_state(state, reference):
    """Two solves that ran the same arithmetic: equal bit for bit."""
    for name in ("u", "p", "phi", "F", "b"):
        assert np.array_equal(getattr(state, name), getattr(reference, name))
    assert state.transcript == reference.transcript


class TestSharedFirstFactor:
    """Within ``first_factors_shared``, a solve whose first Jacobian equals
    the last first Jacobian factored reuses that factor, and the result is
    the one of a solve of its own."""

    def test_the_first_solve_of_a_space_builds_its_forms_once(
            self, params, monkeypatch):
        calls = []
        forms = slv._zero_wind_forms

        def counting(*args):
            calls.append(1)
            return forms(*args)
        monkeypatch.setattr(slv, "_zero_wind_forms", counting)
        space = CoupledSpace(params.mesh)  # no coupled layout yet
        slv.solve_coupled(space, params)
        assert len(calls) == 1  # the layout is built from the values' forms

    def test_loads_on_one_operator_share_its_zero_start_factor(
            self, params, monkeypatch):
        space = CoupledSpace(params.mesh)
        head = asm.ModelParams(space.mesh, nu=1.0, g_p=forcing_p)
        viscous = asm.ModelParams(space.mesh, nu=0.5, K=2.0, g_f=forcing_f,
                                  g_p=forcing_p)
        alone = [slv.solve_coupled(space, data)
                 for data in (params, head, viscous, head)]
        calls = _count_factors(monkeypatch)
        with slv.first_factors_shared(space):
            shared = [slv.solve_coupled(space, data)
                      for data in (params, head, viscous, head)]
            # a random start has another first J: no factor is reused
            x0 = 0.1 * np.random.default_rng(2).standard_normal(
                space.num_total_dofs)
            slv.solve_coupled(space, params, initial_state=x0)
        assert "first factor" not in space._cache
        # driven and head-driven share one factor; viscous breaks the run,
        # so the last head-driven solve factors again
        assert calls == {"coupled iteration": 4}
        for state, reference in zip(shared, alone):
            _same_state(state, reference)

    def test_a_solve_on_a_shared_factor_that_misses_factors_its_own(
            self, params, monkeypatch):
        space = CoupledSpace(params.mesh)
        head = asm.ModelParams(space.mesh, nu=1.0, g_p=forcing_p)
        with monkeypatch.context() as short:
            short.setattr(slv, "KRYLOV_MAX_ITER", 1)
            alone = slv.solve_coupled(space, head)
        calls = _count_factors(monkeypatch)
        with slv.first_factors_shared(space):
            slv.solve_coupled(space, params)
            monkeypatch.setattr(slv, "KRYLOV_MAX_ITER", 1)
            shared = slv.solve_coupled(space, head)
        # the driven solve's one factor, then each head-driven step after
        # the first, which reuses it, misses and factors its own J
        assert shared.iterations > 1
        assert calls == {"coupled iteration": shared.iterations}
        _same_state(shared, alone)


@pytest.fixture(scope="module")
def aux(space, params, solution):
    return slv.solve_auxiliary(space, params, state=solution)


class TestCompanionSolve:

    def test_trace_matches_fluid_solution_exactly(self, space, solution, aux):
        u_raw = solution.u_raw(space)
        aux_raw = space.node_values("aux", aux.coeffs)
        for node in space.interface_nodes:
            assert np.array_equal(aux_raw[node], u_raw[node])

    def test_zero_on_outer_porous_boundary(self, space, aux):
        aux_raw = space.node_values("aux", aux.coeffs)
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
        explicit = asm.ModelParams(space.mesh, nu=1.0, sigma=0.37)
        other = slv.solve_auxiliary(space, explicit, trace=lambda x, y:
                                    (x * (1 - x), 0.0))
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
