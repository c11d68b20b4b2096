"""Quadrature, shape functions, dof bookkeeping, the guarded LU factor,
the checked and the prescribed-value solve, lifting."""

import math
import re
from math import factorial

import numpy as np
import pytest
from scipy.sparse import bmat, csc_matrix
from scipy.sparse.linalg import spilu, splu

from nsdarcy import assembly, fem, solver
from nsdarcy.fem import (CoupledSpace, InterpolationError, LiftingResult,
                         QuadratureRule, SingularLinearSystem, SpaceError,
                         _check_solution, _evaluate, _factor,
                         discrete_lifting, edge_shape_values, shape_ref_grads,
                         shape_values)
from nsdarcy.mesh import (FLUID, GAMMA_F, GAMMA_PD, GAMMA_PN, POROUS,
                          MixedMesh, build_rectangle_mesh, refine_uniform)


def reference_monomial_integral(a, b):
    # int over the unit reference triangle of x^a y^b
    return factorial(a) * factorial(b) / factorial(a + b + 2)


class TestQuadrature:
    @pytest.mark.parametrize("degree", [6, 9])
    def test_monomial_exactness(self, degree):
        rule = QuadratureRule.triangle(degree)
        assert np.all(rule.weights > 0)
        assert rule.weights.sum() == pytest.approx(0.5, abs=1e-14)
        x, y = rule.points[:, 1], rule.points[:, 2]
        for a in range(degree + 1):
            for b in range(degree + 1 - a):
                val = float(rule.weights @ (x ** a * y ** b))
                assert val == pytest.approx(reference_monomial_integral(a, b),
                                            abs=5e-15)

    def test_degree_promotion(self):
        # no degree-3 table stored: the next stored rule is returned
        assert QuadratureRule.triangle(3).degree == 6
        assert QuadratureRule.triangle(5).degree == 6
        with pytest.raises(ValueError):
            QuadratureRule.triangle(10)

    def test_points_inside(self):
        rule = QuadratureRule.triangle(9)
        assert np.all(rule.points > 0) and np.all(rule.points < 1)
        assert np.allclose(rule.points.sum(axis=1), 1.0, atol=1e-14)

    @pytest.mark.parametrize("degree", [1, 3, 7, 11])
    def test_edge_rule(self, degree):
        rule = QuadratureRule.edge(degree)
        assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
        for k in range(degree + 1):
            val = float(rule.weights @ rule.points ** k)
            assert val == pytest.approx(1.0 / (k + 1), abs=1e-14)


class TestShapeFunctions:
    def rand_bary(self, n=40, seed=3):
        rng = np.random.default_rng(seed)
        b = rng.dirichlet((1.0, 1.0, 1.0), size=n)
        return b

    @pytest.mark.parametrize("degree", [1, 2])
    def test_partition_of_unity(self, degree):
        b = self.rand_bary()
        vals = shape_values(degree, b)
        assert np.allclose(vals.sum(axis=1), 1.0, atol=1e-13)
        grads = shape_ref_grads(degree, b)
        assert np.allclose(grads.sum(axis=1), 0.0, atol=1e-13)

    def test_p2_nodal_deltas(self):
        # vertices then midpoints of edges 12, 20, 01
        nodes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                          [0, .5, .5], [.5, 0, .5], [.5, .5, 0]])
        assert np.allclose(shape_values(2, nodes), np.eye(6), atol=1e-14)

    def test_p2_reproduces_quadratics(self):
        b = self.rand_bary()
        nodes = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1],
                          [0, .5, .5], [.5, 0, .5], [.5, .5, 0]])
        f = lambda lam: lam[..., 1] ** 2 + 2 * lam[..., 1] * lam[..., 2] - lam[..., 2]
        interp = shape_values(2, b) @ f(nodes)
        assert np.allclose(interp, f(b), atol=1e-13)

    def test_edge_traces(self):
        t = np.array([0.0, 1.0, 0.5])
        assert np.allclose(edge_shape_values(1, t),
                           [[1, 0], [0, 1], [.5, .5]], atol=1e-15)
        assert np.allclose(edge_shape_values(2, t),
                           [[1, 0, 0], [0, 1, 0], [0, 0, 1]], atol=1e-15)
        tq = np.linspace(0.1, 0.9, 7)
        assert np.allclose(edge_shape_values(2, tq).sum(axis=1), 1.0, atol=1e-14)

    def test_unsupported_degree(self):
        with pytest.raises(ValueError):
            shape_values(3, [[1, 0, 0]])


class TestDataCallables:
    POINTS = np.random.default_rng(0).uniform(0.0, 1.0, size=(5, 7, 2))

    def pointwise(self, func, shape=()):
        vals = np.array([[np.broadcast_to(np.asarray(func(x, y), dtype=float), shape)
                          for x, y in row] for row in self.POINTS])
        return np.moveaxis(vals, (2, 3)[:len(shape)], tuple(range(len(shape))))

    def test_scalar_only_callables_match_pointwise(self):
        cases = [(lambda x, y: math.sin(x) * y, ()),
                 (lambda x, y: (1.0, y) if x < 0.5 else (x, 0.0), (2,))]
        for func, shape in cases:
            got = _evaluate(func, self.POINTS, shape)
            assert got.shape == shape + self.POINTS.shape[:-1]
            assert np.array_equal(got, self.pointwise(func, shape))

    def test_array_results_match_pointwise(self):
        cases = [(lambda x, y: 2.0, (2,)),
                 (lambda x, y: (np.sin(x), 0.5), (2,)),
                 (lambda x, y: ((x, 0.0), (0.0, y)), (2, 2)),
                 (lambda x, y: np.stack([x * y, x + y]), (2,))]
        for func, shape in cases:
            assert np.allclose(_evaluate(func, self.POINTS, shape),
                               self.pointwise(func, shape), rtol=1e-15, atol=0)

    def test_result_of_the_wrong_shape_falls_back_to_points(self, counted):
        # (1 + y) * eye(2) broadcasts over two points to a (2, 2) array that
        # is not the (2, 2, 2) result; it must be evaluated point by point
        K = counted(lambda x, y: (1.0 + y) * np.eye(2))
        pts = np.array([[0.2, 0.3], [0.7, 0.6]])
        got = _evaluate(K, pts, (2, 2))
        assert np.array_equal(np.moveaxis(got, -1, 0),
                              [(1.0 + y) * np.eye(2) for _, y in pts])
        assert K.calls == 1 + len(pts)


class TestCoupledSpace:
    def test_counts_small(self):
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
        assert space.num_velocity_dofs == 24
        assert space.num_pressure_dofs == 9
        assert space.pressure_space_dim == 8
        assert space.num_head_dofs == 6
        assert space.num_aux_dofs == 24
        assert space.num_total_dofs == 39
        assert space.num_porous_vertices == 9

    def test_velocity_count_matches_geometry(self):
        # free fluid nodes: strictly between the side walls and below the lid
        space = CoupledSpace(build_rectangle_mesh(3, 6, 1.0))
        coords = space.node_coords(2)
        fluid_nodes = np.unique(space.tri_nodes(2)[space.fluid_tris])
        free = [n for n in fluid_nodes
                if 0 < coords[n, 0] < 1 and coords[n, 1] < 2]
        assert space.num_velocity_dofs == 2 * len(free)

    def test_head_count_matches_geometry(self):
        space = CoupledSpace(build_rectangle_mesh(3, 6, 1.0))
        coords = space.node_coords(1)
        porous = np.unique(space.mesh.triangles[space.porous_tris])
        free = [n for n in porous if coords[n, 1] > 0]
        assert space.num_head_dofs == len(free)

    def test_quadratic_head_option(self):
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0), head_degree=2)
        coords = space.node_coords(2)
        porous = np.unique(space.tri_nodes(2)[space.porous_tris])
        free = [n for n in porous if coords[n, 1] > 1e-12]
        assert space.num_head_dofs == len(free)
        assert space.iface_edge_head_nodes.shape[1] == 3

    def test_linear_velocity_option(self):
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0), velocity_degree=1)
        coords = space.node_coords(1)
        fluid = np.unique(space.mesh.triangles[space.fluid_tris])
        free = [n for n in fluid if 0 < coords[n, 0] < 1 and coords[n, 1] < 2]
        assert space.num_velocity_dofs == 2 * len(free)

    def test_invalid_degrees(self):
        mesh = build_rectangle_mesh(2, 4, 1.0)
        with pytest.raises(SpaceError):
            CoupledSpace(mesh, velocity_degree=3)
        with pytest.raises(SpaceError):
            CoupledSpace(mesh, head_degree=0)

    def test_interface_nodes_on_interface(self):
        space = CoupledSpace(refine_uniform(build_rectangle_mesh(2, 4, 1.0)))
        coords = space.node_coords(2)[space.interface_nodes]
        assert np.allclose(coords[:, 1], 1.0, atol=1e-14)
        # interior interface nodes are free on both sides, endpoints on neither
        for n in space.interface_nodes:
            x = space.node_coords(2)[n, 0]
            fluid_free = space.u_node_dof[n] >= 0
            aux_free = space.aux_node_dof[n] >= 0
            assert fluid_free == aux_free == (0 < x < 1)

    def test_interface_node_constrained_on_one_side_is_rejected(self):
        # 3x3 vertices on [0, 2]^2: the porous wedge (1,0)-(1,1)-(0,1) meets
        # the left wall only at vertex 3 = (0, 1), where the fluid velocity
        # is fixed by the gamma_f edges on both sides but the companion,
        # fixed only on gamma_pd, is free
        vertices = np.array([(x, y) for y in range(3) for x in range(3)],
                            dtype=float)
        triangles = np.array([(0, 1, 3), (1, 4, 3), (1, 2, 5), (1, 5, 4),
                              (3, 4, 7), (3, 7, 6), (4, 5, 8), (4, 8, 7)])
        tri_tags = np.array([FLUID, POROUS, POROUS, POROUS,
                             FLUID, FLUID, FLUID, FLUID])
        edges = np.array([(0, 1), (0, 3), (3, 6), (6, 7), (7, 8), (5, 8),
                          (1, 2), (2, 5)])
        edge_tags = np.array([GAMMA_F] * 6 + [GAMMA_PD, GAMMA_PN])
        mesh = MixedMesh(vertices, triangles, tri_tags, edges, edge_tags)
        assert mesh.interface_edges.tolist() == [[1, 3], [3, 4], [4, 5]]
        with pytest.raises(SpaceError, match=re.escape(
                "interface node 3 at [0. 1.] is constrained on one side only")):
            CoupledSpace(mesh)

    def test_block_split(self):
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
        x = np.arange(space.num_total_dofs, dtype=float)
        u, p, phi = space.split_state(x)
        assert len(u) == space.num_velocity_dofs
        assert len(p) == space.num_pressure_dofs
        assert len(phi) == space.num_head_dofs
        assert u[0] == 0 and p[0] == space.offset_p and phi[0] == space.offset_phi

    def test_node_value_roundtrip(self):
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0))
        rng = np.random.default_rng(11)
        co = rng.standard_normal(space.num_velocity_dofs)
        raw = space.velocity_node_values(co)
        free = np.flatnonzero(space.u_node_dof >= 0)
        assert np.array_equal(raw[free, 0], co[space.u_node_dof[free]])
        # dirichlet fill only touches constrained fluid nodes
        raw_d = space.velocity_node_values(co, dirichlet=lambda x, y: (5.0, -1.0))
        changed = np.flatnonzero(np.any(raw_d != raw, axis=1))
        coords = space.node_coords(2)
        for n in changed:
            assert space.u_node_dof[n] < 0
            assert coords[n, 1] >= 1.0  # fluid side
            assert np.allclose(raw_d[n], (5.0, -1.0))


class TestFactor:
    def test_zero_row_is_structurally_singular(self):
        A = np.array([[1.0, 2.0], [0.0, 0.0]])
        with pytest.raises(SingularLinearSystem,
                           match="^zero row: structurally singular"):
            _factor(A, "zero row")

    def test_exactly_singular_factor_is_mapped(self):
        # full structural rank, but SuperLU finds a zero pivot
        with pytest.raises(SingularLinearSystem,
                           match="^rank one: Factor is exactly singular"):
            _factor(np.ones((2, 2)), "rank one")

    def test_residual_check_fails_when_both_norms_overflow(self):
        # the residual equals the right-hand side: a relative residual of 1,
        # although the norm of either overflows
        rhs = np.full(4, 1e300)
        with pytest.raises(SingularLinearSystem,
                           match="^huge: linear residual 1.000e"):
            _check_solution(np.ones(4), -rhs, rhs, "huge")


class TestDiscreteLifting:
    def setup_method(self):
        self.space = CoupledSpace(refine_uniform(build_rectangle_mesh(2, 4, 1.0)))

    def test_trace_reproduced_exactly(self):
        trace = lambda x, y: (x * (1 - x), 0.0)
        res = discrete_lifting(self.space, trace)
        assert isinstance(res, LiftingResult)
        raw = self.space.node_values("aux", res.coeffs)
        coords = self.space.node_coords(2)[self.space.interface_nodes]
        exact = np.array([trace(x, y) for x, y in coords])
        assert np.abs(raw[self.space.interface_nodes] - exact).max() == 0.0

    def test_saddle_is_factored_once_per_lifting(self, monkeypatch):
        shapes = {"spilu": [], "splu": []}

        def recording(name, factor):
            def record(A, *args, **kwargs):
                shapes[name].append(A.shape)
                return factor(A, *args, **kwargs)
            return record

        monkeypatch.setattr(fem, "spilu", recording("spilu", spilu))
        monkeypatch.setattr(fem, "splu", recording("splu", splu))
        traces = (lambda x, y: (x * (1 - x), 0.0),
                  lambda x, y: (0.0, x * (1 - x)))
        results = [discrete_lifting(self.space, t) for t in traces]
        # the ordering (an incomplete factorization) and the saddle factor,
        # once per lifting: no factor outlives the lifting that reads it
        assert len(shapes["splu"]) == 2
        assert shapes["spilu"] == shapes["splu"]
        fresh = CoupledSpace(self.space.mesh)
        for res, trace in zip(results, traces):
            assert np.array_equal(res.coeffs,
                                  discrete_lifting(fresh, trace).coeffs)

    def test_weak_divergence_constraint(self):
        res = discrete_lifting(self.space, lambda x, y: (x * (1 - x), 0.0))
        D = assembly.aux_divergence_matrix(self.space)
        pair = D @ res.coeffs
        assert np.abs(pair[1:]).max() < 1e-12  # all but the pinned vertex
        assert res.constraint_residual < 1e-12
        assert abs(res.flux_defect) < 1e-12

    def test_zero_outside_closure_of_interface_support(self):
        res = discrete_lifting(self.space, lambda x, y: (0.0, 0.0))
        assert np.abs(res.coeffs).max() == 0.0

    def test_linearity(self):
        t1 = lambda x, y: (x * (1 - x), 0.0)
        t2 = lambda x, y: (np.sin(np.pi * x), 0.0)
        r1 = discrete_lifting(self.space, t1)
        r2 = discrete_lifting(self.space, t2)
        r12 = discrete_lifting(self.space,
                               lambda x, y: (2 * t1(x, y)[0] - 3 * t2(x, y)[0], 0.0))
        combo = 2 * r1.coeffs - 3 * r2.coeffs
        assert np.abs(r12.coeffs - combo).max() < 1e-10

    def test_net_flux_is_reported(self):
        res = discrete_lifting(self.space, lambda x, y: (0.0, -x * (1 - x)))
        assert res.flux_defect == pytest.approx(-1 / 6, abs=1e-12)

    def test_nonzero_endpoint_rejected(self):
        with pytest.raises(InterpolationError):
            discrete_lifting(self.space, lambda x, y: (1.0, 0.0))

    def test_too_coarse_mesh_is_singular(self):
        tiny = CoupledSpace(build_rectangle_mesh(1, 2, 1.0))
        with pytest.raises(SingularLinearSystem):
            discrete_lifting(tiny, lambda x, y: (x * (1 - x), 0.0))


def _interface_trace(x, y):
    # vanishes at the interface endpoints and carries no net flux
    return (x * (1 - x), x * (1 - x) * (x - 0.5))


class TestPrescribedSolve:
    """The lifting and the companion solve against the block formulation
    that the prescribed-value solve replaces: the interior block of each
    system, factored with plain splu, against the interface columns times
    the prescribed values."""

    @pytest.fixture(params=["rectangle", "wavy"])
    def space(self, request, wavy_space):
        if request.param == "wavy":
            return wavy_space
        return CoupledSpace(build_rectangle_mesh(4, 8, 1.0))

    @staticmethod
    def _close(x, ref):
        return np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_lifting_matches_the_interior_saddle_block(self, space):
        g, known = space.aux_interface_values(
            fem.trace_node_array(space, _interface_trace))
        inner = ~known
        A = assembly.strain_matrix(space, POROUS)
        D = assembly.aux_divergence_matrix(space)[1:]
        K = bmat([[A[inner][:, inner], D[:, inner].T], [D[:, inner], None]],
                 format="csc")
        rhs = -np.concatenate([A[inner][:, known] @ g[known],
                               D[:, known] @ g[known]])
        ref = g.copy()
        ref[inner] = splu(K).solve(rhs)[:np.count_nonzero(inner)]
        coeffs = discrete_lifting(space, _interface_trace).coeffs
        assert np.array_equal(coeffs[known], g[known])
        assert self._close(coeffs, ref)

    def test_companion_matches_the_interior_block(self, space):
        params = assembly.ModelParams(space.mesh, nu=1.0)
        aux = solver.solve_auxiliary(space, params, trace=_interface_trace)
        g, known = space.aux_interface_values(
            fem.trace_node_array(space, _interface_trace))
        inner = ~known
        A = aux.matrix
        ref = g.copy()
        ref[inner] = splu(csc_matrix(A[inner][:, inner])).solve(
            -(A[inner][:, known] @ g[known]))
        assert np.array_equal(aux.iface_mask, known)
        assert np.array_equal(aux.coeffs[known], g[known])
        assert self._close(aux.coeffs, ref)

    def test_non_finite_lifting_is_a_singular_saddle_system(self, space,
                                                            monkeypatch):
        class NonFinite:
            def solve(self, b):
                return np.full(np.shape(b), np.nan)

        monkeypatch.setattr(fem, "_factor", lambda *args: NonFinite())
        with pytest.raises(SingularLinearSystem,
                           match="^lifting saddle system"):
            discrete_lifting(space, _interface_trace)
