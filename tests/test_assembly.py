"""Operator assembly against hand-computed integrals and exact identities.

Every bilinear form of the discretization has polynomial integrands, and the
assembly rules are chosen to integrate them exactly, so most checks here use
equality tolerances near machine precision rather than discretization-error
tolerances.
"""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.sparse import coo_matrix

from conftest import expanded
from nsdarcy import assembly as asm
from nsdarcy import mms
from nsdarcy.fem import (CoupledSpace, QuadratureRule, edge_shape_values,
                         shape_ref_grads, shape_values)
from nsdarcy.mesh import FLUID, POROUS, build_rectangle_mesh, refine_uniform


@pytest.fixture(scope="module")
def space():
    return CoupledSpace(refine_uniform(build_rectangle_mesh(2, 4, 1.0)))


@pytest.fixture(scope="module")
def params(space):
    return asm.ModelParams(space.mesh, nu=0.1)


def random_velocity(space, rng):
    return space.velocity_node_values(rng.standard_normal(space.num_velocity_dofs))


def vector_matrix(space, form, region=FLUID):
    """The expanded matrix of a form on the vector field of a region."""
    return expanded(space, form, *asm._VECTOR[region])


class TestModelParams:
    def test_scalar_and_matrix_permeability(self, space):
        p1 = asm.ModelParams(space.mesh, nu=1.0, K=2.0)
        assert p1.lambda_min == p1.lambda_max == pytest.approx(2.0)
        K = np.array([[2.0, 1.0], [1.0, 3.0]])
        p2 = asm.ModelParams(space.mesh, nu=1.0, K=K)
        lams = np.linalg.eigvalsh(K)
        assert p2.lambda_min == pytest.approx(lams[0])
        assert p2.lambda_max == pytest.approx(lams[1])

    def test_callable_permeability_sampled_per_triangle(self, space):
        p = asm.ModelParams(space.mesh, nu=1.0,
                            K=lambda x, y: (1.0 + y) * np.eye(2))
        bary = space.mesh.vertices[
            space.mesh.triangles[space.mesh.porous_triangles()]].mean(axis=1)
        assert np.allclose(p.K_elems[:, 0, 0], 1.0 + bary[:, 1])
        assert p.lambda_max <= 2.0

    def test_matrix_valued_callable_on_two_porous_triangles(self):
        # the array result of this callable has the right size for the wrong
        # shape on exactly two points; each triangle needs its own value
        mesh = build_rectangle_mesh(1, 2, 1.0)
        K = lambda x, y: (1.0 + y) * np.eye(2)
        p = asm.ModelParams(mesh, nu=1.0, K=K)
        bary = mesh.vertices[mesh.triangles[mesh.porous_triangles()]].mean(axis=1)
        assert len(bary) == 2
        assert np.array_equal(p.K_elems, [K(x, y) for x, y in bary])

    def test_invalid_parameters(self, space):
        mesh = space.mesh
        with pytest.raises(asm.ParameterError):
            asm.ModelParams(mesh, nu=0.0)
        with pytest.raises(asm.ParameterError):
            asm.ModelParams(mesh, nu=1.0, G=-1.0)
        with pytest.raises(asm.ParameterError):
            asm.ModelParams(mesh, nu=1.0, sigma=0.0)
        with pytest.raises(asm.ParameterError):
            asm.ModelParams(mesh, nu=1.0, K=np.array([[1.0, 0.5], [0.0, 1.0]]))
        with pytest.raises(asm.ParameterError):
            asm.ModelParams(mesh, nu=1.0, K=np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_effective_sigma(self, space):
        p = asm.ModelParams(space.mesh, nu=0.25)
        assert p.effective_sigma() == pytest.approx(0.25 * space.mesh.h)
        assert asm.ModelParams(space.mesh, nu=0.25, sigma=7.0).effective_sigma() == 7.0


class TestStrain:
    def test_linear_field_oracle(self, space):
        # u = (x, -y): D(u) = diag(1, -1), D:D = 2, fluid area 1
        coords = space.node_coords(2)
        u = np.column_stack([coords[:, 0], -coords[:, 1]])
        assert asm.strain_energy(space, u, FLUID) == pytest.approx(2.0, abs=1e-12)
        A = vector_matrix(space, asm._strain_form(space, FLUID))
        assert u.ravel() @ (A @ u.ravel()) == pytest.approx(2.0, abs=1e-12)
        # porous region through the companion map, same field
        Ap = vector_matrix(space, asm._strain_form(space, POROUS), POROUS)
        assert u.ravel() @ (Ap @ u.ravel()) == pytest.approx(2.0, abs=1e-12)

    def test_rigid_motions_are_null(self, space):
        coords = space.node_coords(2)
        for u in (np.tile([3.0, -2.0], (len(coords), 1)),
                  np.column_stack([-coords[:, 1], coords[:, 0]])):
            assert asm.strain_energy(space, u, FLUID) < 1e-13

    def test_symmetry_and_agreement(self, space):
        A = vector_matrix(space, asm._strain_form(space, FLUID))
        assert abs(A - A.T).max() < 1e-13
        rng = np.random.default_rng(1)
        u, v = random_velocity(space, rng), random_velocity(space, rng)
        quad = 0.25 * (asm.strain_energy(space, u + v, FLUID)
                       - asm.strain_energy(space, u - v, FLUID))
        assert u.ravel() @ (A @ v.ravel()) == pytest.approx(quad, abs=1e-11)

    def test_coefficient_scaling(self, space):
        A1 = asm.strain_matrix(space, FLUID)
        A2 = 2.0 * asm.strain_matrix(space, FLUID)
        assert abs(A2 - 2 * A1).max() < 1e-14


class TestDarcy:
    def test_identity_permeability_oracle(self, space, params):
        phi = space.node_coords(1)[:, 1].copy()  # phi = y, porous area 1
        assert asm.darcy_energy(space, phi, params) == pytest.approx(1.0, abs=1e-12)

    def test_anisotropic_oracle(self, space):
        K = np.array([[2.0, 1.0], [1.0, 3.0]])
        p = asm.ModelParams(space.mesh, nu=1.0, K=K)
        coords = space.node_coords(1)
        phi = coords[:, 0] + coords[:, 1]  # grad = (1,1): K grad . grad = 7
        assert asm.darcy_energy(space, phi, p) == pytest.approx(7.0, abs=1e-12)
        A = expanded(space, asm._darcy_form(space, p), "head", "head")
        assert phi @ (A @ phi) == pytest.approx(7.0, abs=1e-12)
        assert abs(A - A.T).max() < 1e-13

    def test_quadratic_head_space(self):
        space = CoupledSpace(build_rectangle_mesh(2, 4, 1.0), head_degree=2)
        p = asm.ModelParams(space.mesh, nu=1.0)
        coords = space.node_coords(2)
        phi = coords[:, 1] * (1 - coords[:, 1])  # |grad|^2 = (1-2y)^2
        # int over [0,1]x[0,1] of (1-2y)^2 = 1/3
        assert asm.darcy_energy(space, phi, p) == pytest.approx(1 / 3, abs=1e-12)


class TestDivergence:
    def test_oracle(self, space):
        # u = (x, 0): div u = 1; q = x: integral of x over the fluid strip = 1/2
        coords = space.node_coords(2)
        u = np.zeros((len(coords), 2))
        u[:, 0] = coords[:, 0]
        q = space.mesh.vertices[:, 0].copy()
        assert asm.divergence_value(space, q, u) == pytest.approx(0.5, abs=1e-12)
        B = expanded(space, asm._divergence_form(space, FLUID),
                     *asm._DIVERGENCE[FLUID])
        assert q @ (B @ u.ravel()) == pytest.approx(0.5, abs=1e-12)

    def test_divergence_free_field(self, space):
        coords = space.node_coords(2)
        u = np.column_stack([-coords[:, 1], coords[:, 0]])
        rng = np.random.default_rng(2)
        q = rng.standard_normal(space.mesh.num_vertices)
        assert abs(asm.divergence_value(space, q, u)) < 1e-12

    def test_restricted_shape(self, space):
        B = asm.divergence_matrix(space)
        assert B.shape == (space.num_pressure_dofs, space.num_velocity_dofs)
        D = asm.aux_divergence_matrix(space)
        assert D.shape == (space.num_porous_vertices, space.num_aux_dofs)


class TestConvection:
    def test_oracle(self, space):
        # w = (1,0), u = (x^2, 0), v = (1,0): integrand 2x over the fluid strip
        coords = space.node_coords(2)
        w = np.tile([1.0, 0.0], (len(coords), 1))
        u = np.zeros_like(w)
        u[:, 0] = coords[:, 0] ** 2
        assert asm.convection_value(space, w, u, w, FLUID) == pytest.approx(
            1.0, abs=1e-12)

    def test_matrix_matches_evaluator(self, space):
        rng = np.random.default_rng(3)
        w, u, v = (random_velocity(space, rng) for _ in range(3))
        C = vector_matrix(space, asm._convection_form(space, w))
        assert v.ravel() @ (C @ u.ravel()) == pytest.approx(
            asm.convection_value(space, w, u, v, FLUID), rel=1e-12, abs=1e-13)

    def test_plain_form_integration_by_parts(self, space):
        # ((w.grad)u, v) + ((w.grad)v, u) = int_bdry (u.v)(w.n) - (div w, u.v)
        # for fields vanishing on the outer fluid boundary, so only the
        # interface contributes
        rng = np.random.default_rng(4)
        for _ in range(5):
            w, u, v = (random_velocity(space, rng) for _ in range(3))
            lhs = (asm.convection_value(space, w, u, v, FLUID, skew=False)
                   + asm.convection_value(space, w, v, u, FLUID, skew=False))
            rhs = (asm.interface_uv_flux(space, u, v, w)
                   - asm.divdot_value(space, w, u, v, FLUID))
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-11)

    def test_skew_form_antisymmetry_identity(self, space, wavy_space):
        rng = np.random.default_rng(5)
        for sp in (space, wavy_space):
            for _ in range(5):
                w, u, v = (random_velocity(sp, rng) for _ in range(3))
                lhs = (asm.convection_value(sp, w, u, v, FLUID)
                       + asm.convection_value(sp, w, v, u, FLUID))
                assert lhs == pytest.approx(asm.interface_uv_flux(sp, u, v, w),
                                            rel=1e-12, abs=1e-11)

    def test_wind_linearity(self, space):
        rng = np.random.default_rng(6)
        w1, w2 = random_velocity(space, rng), random_velocity(space, rng)
        C = asm.convection_matrix(space, 2 * w1 - w2)
        C12 = 2 * asm.convection_matrix(space, w1) - asm.convection_matrix(space, w2)
        assert abs(C - C12).max() < 1e-12

    def test_newton_block_completes_expansion(self, space):
        # trilinearity: C(w+d)(w+d) - C(w)w = C(w)d + N'(w)d + C(d)d exactly
        rng = np.random.default_rng(7)
        w, d = random_velocity(space, rng), random_velocity(space, rng)
        C = lambda a: vector_matrix(space, asm._convection_form(space, a))
        N = vector_matrix(space, asm._newton_form(space, w))
        lhs = C(w + d) @ (w + d).ravel() - C(w) @ w.ravel()
        rhs = C(w) @ d.ravel() + N @ d.ravel() + C(d) @ d.ravel()
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_companion_region_identity(self, space):
        # interior companion fields: ((w.grad)v, v) = -1/2 (div w, |v|^2)
        rng = np.random.default_rng(8)
        co = rng.standard_normal(space.num_aux_dofs)
        for n in space.interface_nodes:
            dof = space.aux_node_dof[n]
            if dof >= 0:
                co[dof:dof + 2] = 0.0
        v = space.node_values("aux", co)
        w = space.node_values("aux", rng.standard_normal(space.num_aux_dofs))
        lhs = asm.convection_value(space, w, v, v, POROUS, skew=False)
        rhs = -0.5 * asm.divdot_value(space, w, v, v, POROUS)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestInterface:
    def test_wavy_interface_normals_all_differ(self, wavy_space):
        n = wavy_space.iface_normals
        assert len(np.unique(n.round(12), axis=0)) == len(n) == 6

    def test_bjs_matrix_matches_energy(self, space, wavy_space):
        rng = np.random.default_rng(12)
        for sp in (space, wavy_space):
            u = random_velocity(sp, rng)
            M = 1.5 * vector_matrix(sp, asm._bjs_form(sp))
            assert u.ravel() @ (M @ u.ravel()) == pytest.approx(
                asm.bjs_energy(sp, u, coefficient=1.5), rel=1e-12, abs=1e-13)

    def test_bjs_oracle(self, space):
        coords = space.node_coords(2)
        u = np.tile([1.0, 0.0], (len(coords), 1))  # u.tau = 1 on the interface
        assert asm.bjs_energy(space, u) == pytest.approx(1.0, abs=1e-13)
        assert asm.bjs_energy(space, u, coefficient=2.5) == pytest.approx(
            2.5, abs=1e-13)
        M1 = 1.0 * asm.bjs_matrix(space)
        M2 = 2.0 * asm.bjs_matrix(space)
        assert abs(M2 - 2 * M1).max() < 1e-14

    def test_normal_component_ignored_by_bjs(self, space):
        coords = space.node_coords(2)
        u = np.tile([0.0, 1.0], (len(coords), 1))
        assert asm.bjs_energy(space, u) < 1e-14

    def test_coupling_oracle(self, space):
        # u = (0,1) has u.n_f = -1 on the interface, phi = 1: integral -1
        coords = space.node_coords(2)
        u = np.tile([0.0, 1.0], (len(coords), 1))
        phi = np.ones(space.num_nodes(space.head_degree))
        assert asm.interface_head_flux(space, u, phi) == pytest.approx(
            -1.0, abs=1e-13)
        Cup = expanded(space, asm._coupling_form(space), "velocity", "head")
        assert u.ravel() @ (Cup @ phi) == pytest.approx(-1.0, abs=1e-13)

    def test_coupling_matches_evaluator(self, space, wavy_space):
        rng = np.random.default_rng(9)
        for sp in (space, wavy_space):
            u = random_velocity(sp, rng)
            phi = sp.node_values("head", rng.standard_normal(sp.num_head_dofs))
            Cup = expanded(sp, asm._coupling_form(sp), "velocity", "head")
            assert u.ravel() @ (Cup @ phi) == pytest.approx(
                asm.interface_head_flux(sp, u, phi), rel=1e-12, abs=1e-13)

    def test_uv_flux_oracle(self, space):
        coords = space.node_coords(2)
        ex = np.tile([1.0, 0.0], (len(coords), 1))
        down = np.tile([0.0, -1.0], (len(coords), 1))
        assert asm.interface_uv_flux(space, ex, ex, down) == pytest.approx(
            1.0, abs=1e-13)
        assert asm.gamma_term(space, down) == pytest.approx(0.5, abs=1e-13)


class TestLoads:
    def test_volume_load_oracle(self, space):
        p = asm.ModelParams(space.mesh, nu=1.0, g_f=lambda x, y: (1.0, 0.0),
                            g_p=lambda x, y: 2.0)
        coords = space.node_coords(2)
        u = np.tile([1.0, 0.0], (len(coords), 1))
        phi = np.ones(space.num_nodes(space.head_degree))
        # (g_f, u) = |fluid| = 1 and (g_p, phi) = 2 |porous| = 2
        assert asm.load_value(space, p, u, phi) == pytest.approx(3.0, abs=1e-12)

    def test_load_vector_matches_value(self, space):
        p = asm.ModelParams(space.mesh, nu=1.0,
                            g_f=lambda x, y: (np.sin(x + y), np.cos(x * y)),
                            g_p=lambda x, y: np.exp(x - y))
        b = load = asm.load_vector(space, p)
        rng = np.random.default_rng(10)
        x = rng.standard_normal(space.num_total_dofs)
        u, press, phi = space.split_state(x)
        val = asm.load_value(space, p, space.velocity_node_values(u),
                             space.node_values("head", phi))
        assert b @ x == pytest.approx(val, rel=1e-12)
        assert np.all(load[space.offset_p:space.offset_phi] == 0.0)

    def test_interface_residual_loads(self, space, wavy_space):
        rng = np.random.default_rng(11)
        for sp in (space, wavy_space):
            b = asm.interface_residual_loads(sp,
                                             r_mass=lambda x, y: 1.0 + x,
                                             r_normal=lambda x, y: x,
                                             r_tangential=lambda x, y: 2.0)
            x = rng.standard_normal(sp.num_total_dofs)
            u, _, phi = sp.split_state(x)
            u_raw = sp.velocity_node_values(u)
            phi_raw = sp.node_values("head", phi)
            # independent edge quadrature of the defining integrals
            rule = QuadratureRule.edge(11)
            sv = edge_shape_values(sp.velocity_degree, rule.points)
            sh = edge_shape_values(sp.head_degree, rule.points)
            expect = 0.0
            for i, (a, bb) in enumerate(sp.mesh.interface_edges):
                pa, pb = sp.mesh.vertices[a], sp.mesh.vertices[bb]
                xq = pa + rule.points[:, None] * (pb - pa)
                w = rule.weights * sp.iface_lengths[i]
                uq = sv @ u_raw[sp.iface_edge_nodes[i]]
                pq = sh @ phi_raw[sp.iface_edge_head_nodes[i]]
                un = uq @ sp.iface_normals[i]
                ut = uq @ sp.iface_tangents[i]
                expect -= w @ (xq[:, 0] * un + 2.0 * ut + (1.0 + xq[:, 0]) * pq)
            assert b @ x == pytest.approx(expect, rel=1e-12, abs=1e-13)

    def test_pressure_rows_untouched(self, space):
        zero = lambda x, y: 0.0
        b = asm.interface_residual_loads(space, r_mass=zero,
                                         r_normal=lambda x, y: 1.0,
                                         r_tangential=zero)
        assert np.all(b[space.offset_p:space.offset_phi] == 0.0)
        assert np.all(b[space.offset_phi:] == 0.0)


class TestPressureHelpers:
    def test_mass_row_sums_equal_mean_vector(self, space):
        M = asm.pressure_mass_matrix(space)
        m = asm.pressure_mean_vector(space)
        assert np.allclose(np.asarray(M.sum(axis=1)).ravel(), m, atol=1e-14)
        assert m.sum() == pytest.approx(1.0, abs=1e-12)  # fluid area

    def test_mean_vector_integrates_p1_fields(self, space):
        q = space.mesh.vertices[:, 0].copy()
        m = asm.pressure_mean_vector(space)
        qf = q[space.fields["pressure"].index]
        assert m @ qf == pytest.approx(0.5, abs=1e-12)  # int of x over the strip



# ---------------------------------------------------------------------------
# quadrature oracle of the volume operators
# ---------------------------------------------------------------------------

def _oracle_data(space, region, degree):
    """(nodes, values, physical gradients, weights) at the points of the
    degree-6 rule, from inverted Jacobians."""
    rule = QuadratureRule.triangle(6)
    tris = space.fluid_tris if region == FLUID else space.porous_tris
    pts = space.mesh.vertices[space.mesh.triangles[tris]]
    J = np.stack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]], axis=2)
    invJT = np.linalg.inv(J).transpose(0, 2, 1)
    g = np.einsum('eij,qlj->eqli', invJT, shape_ref_grads(degree, rule.points))
    W = rule.weights[None, :] * np.linalg.det(J)[:, None]
    return space.tri_nodes(degree)[tris], shape_values(degree, rule.points), g, W


def _dense(L, rows, cols, shape):
    rows, cols = np.broadcast_to(rows, L.shape), np.broadcast_to(cols, L.shape)
    return coo_matrix((L.ravel(), (rows.ravel(), cols.ravel())),
                      shape=shape).toarray()


def _dense_vv(space, nodes, L):
    dofs = 2 * nodes[..., None] + np.arange(2)
    n = 2 * space.num_nodes(space.velocity_degree)
    return _dense(L, dofs[:, :, :, None, None], dofs[:, None, None], (n, n))


def oracle_strain(space, region):
    nodes, _, g, W = _oracle_data(space, region, space.velocity_degree)
    base = np.einsum('eqli,eqmi,eq->elm', g, g, W)
    cross = np.einsum('eqld,eqmc,eq->elmcd', g, g, W)
    L = 0.5 * (np.einsum('elm,cd->elcmd', base, np.eye(2))
               + cross.transpose(0, 1, 3, 2, 4))
    return _dense_vv(space, nodes, L)


def oracle_darcy(space, params):
    nodes, _, g, W = _oracle_data(space, POROUS, space.head_degree)
    Kg = np.einsum('eij,eqmj->eqmi', params.K_elems, g)
    L = np.einsum('eqli,eqmi,eq->elm', g, Kg, W)
    n = space.num_nodes(space.head_degree)
    return _dense(L, nodes[:, :, None], nodes[:, None, :], (n, n))


def oracle_divergence(space, region):
    nodes, _, g, W = _oracle_data(space, region, space.velocity_degree)
    rnodes, vals1, _, _ = _oracle_data(space, region, 1)
    L = np.einsum('qr,eqmd,eq->ermd', vals1, g, W)
    return _dense(L, rnodes[:, :, None, None],
                  (2 * nodes[..., None] + np.arange(2))[:, None],
                  (space.mesh.num_vertices,
                   2 * space.num_nodes(space.velocity_degree)))


def oracle_convection(space, wind, region, skew):
    nodes, vals, g, W = _oracle_data(space, region, space.velocity_degree)
    wn = wind[nodes]
    wq = np.einsum('ql,elc->eqc', vals, wn)
    wgrad = np.einsum('eqj,eqmj->eqm', wq, g)
    P = np.einsum('ql,eqm,eq->elm', vals, wgrad, W)
    if skew:
        divw = np.einsum('elc,eqlc->eq', wn, g)
        P = P + 0.5 * np.einsum('eq,ql,qm->elm', divw * W, vals, vals)
    return _dense_vv(space, nodes, np.einsum('elm,cd->elcmd', P, np.eye(2)))


def oracle_newton(space, wind, region):
    nodes, vals, g, W = _oracle_data(space, region, space.velocity_degree)
    wn = wind[nodes]
    wq = np.einsum('ql,elc->eqc', vals, wn)
    gw = np.einsum('elc,eqlj->eqcj', wn, g)
    L = (np.einsum('ql,qm,eqcd,eq->elcmd', vals, vals, gw, W)
         + 0.5 * np.einsum('ql,eqmd,eqc,eq->elcmd', vals, g, wq, W))
    return _dense_vv(space, nodes, L)


def oracle_pressure_mass(space):
    rnodes, vals1, _, W = _oracle_data(space, FLUID, 1)
    L = np.einsum('ql,qm,eq->elm', vals1, vals1, W)
    nv = space.mesh.num_vertices
    return _dense(L, rnodes[:, :, None], rnodes[:, None, :], (nv, nv))


def oracle_pressure_mean(space):
    rnodes, vals1, _, W = _oracle_data(space, FLUID, 1)
    m = np.zeros(space.mesh.num_vertices)
    np.add.at(m, rnodes, np.einsum('ql,eq->el', vals1, W))
    return m[space.fields["pressure"].index]


def anisotropic_K(x, y):
    return ((2.0 + x, 0.3 * y), (0.3 * y, 1.0 + y * y))


def assert_close(got, expect):
    got = got.toarray() if hasattr(got, "toarray") else got
    assert np.abs(got - expect).max() <= 1e-12 * np.abs(expect).max()


@pytest.fixture(params=["space", "wavy_space"])
def any_space(request):
    return request.getfixturevalue(request.param)


class TestTensorOperatorsMatchQuadrature:
    """Each operator built from reference tensors equals its element-wise
    quadrature sum, the form the tensors replace, to rounding."""

    @pytest.mark.parametrize("region", [FLUID, POROUS])
    def test_strain_and_divergence(self, any_space, region):
        assert_close(vector_matrix(any_space,
                                   asm._strain_form(any_space, region), region),
                     oracle_strain(any_space, region))
        assert_close(expanded(any_space, asm._divergence_form(any_space, region),
                              *asm._DIVERGENCE[region]),
                     oracle_divergence(any_space, region))

    def test_aux_divergence(self, any_space):
        full = oracle_divergence(any_space, POROUS)
        rows = any_space.fields["porous_vertex"].index
        cols = any_space.fields["aux"].index
        assert_close(asm.aux_divergence_matrix(any_space),
                     full[rows][:, cols])

    @pytest.mark.parametrize("region", [FLUID, POROUS])
    @pytest.mark.parametrize("skew", [True, False])
    def test_convection_and_newton(self, any_space, region, skew):
        rng = np.random.default_rng(13)
        wind = rng.standard_normal((any_space.num_nodes(2), 2))
        assert_close(vector_matrix(any_space, asm._convection_form(
            any_space, wind, region, skew), region),
                     oracle_convection(any_space, wind, region, skew))
        if region == FLUID:  # the Newton block lives on the fluid only
            assert_close(vector_matrix(any_space,
                                       asm._newton_form(any_space, wind)),
                         oracle_newton(any_space, wind, region))

    def test_pressure_mass_and_mean(self, any_space):
        index = any_space.fields["pressure"].index
        assert_close(asm.pressure_mass_matrix(any_space),
                     oracle_pressure_mass(any_space)[index][:, index])
        assert_close(asm.pressure_mean_vector(any_space),
                     oracle_pressure_mean(any_space))

    @pytest.mark.parametrize("head_degree", [1, 2])
    @pytest.mark.parametrize("wavy", [False, True])
    def test_darcy_with_variable_anisotropic_K(self, wavy_map, head_degree,
                                               wavy):
        mesh = refine_uniform(build_rectangle_mesh(2, 4, 1.0))
        sp = CoupledSpace(wavy_map(mesh) if wavy else mesh,
                          head_degree=head_degree)
        params = asm.ModelParams(sp.mesh, nu=1.0, K=anisotropic_K)
        assert len(np.unique(params.K_elems[:, 0, 1])) > 1
        assert_close(expanded(sp, asm._darcy_form(sp, params), "head", "head"),
                     oracle_darcy(sp, params))


@given(seed=st.integers(0, 2**32 - 1), scale=st.floats(1e-3, 1e3))
def test_assembled_convection_identities_on_the_wavy_interface(wavy_space,
                                                               seed, scale):
    """Through the assembled matrices, for a random wind w (any values,
    boundary nodes included) and fields u, v, d vanishing on gamma_f: the
    skew form gives v.C(w)u + u.C(w)v = int_interface (u.v)(w.n_f), and
    the Newton block completes the trilinear expansion
    C(w+d)(w+d) - C(w)w = C(w)d + N(w)d + C(d)d."""
    sp = wavy_space
    rng = np.random.default_rng(seed)
    w = scale * rng.standard_normal((sp.num_nodes(2), 2))
    u, v, d = (random_velocity(sp, rng) for _ in range(3))
    C = vector_matrix(sp, asm._convection_form(sp, w))
    pair = v.ravel() @ (C @ u.ravel()) + u.ravel() @ (C @ v.ravel())
    flux = asm.interface_uv_flux(sp, u, v, w)
    size = np.abs(v.ravel()) @ (abs(C) @ np.abs(u.ravel()))
    assert abs(pair - flux) <= 1e-12 * size

    Cm = lambda a: vector_matrix(sp, asm._convection_form(sp, a))
    N = vector_matrix(sp, asm._newton_form(sp, w))
    lhs = Cm(w + d) @ (w + d).ravel() - C @ w.ravel()
    rhs = C @ d.ravel() + N @ d.ravel() + Cm(d) @ d.ravel()
    assert np.abs(lhs - rhs).max() <= 1e-12 * np.abs(rhs).max()


def test_gradient_arrays_are_built_only_by_pointwise_evaluators(wavy_map):
    """Operators and loads read no per-point gradient array; the energy
    evaluators build one at the operator rule and the error norms one at
    their own rule."""
    def grad_keys(sp):
        return {key[1:] for key in sp._cache if key[0] == "_element_grads"}

    sp = CoupledSpace(wavy_map(build_rectangle_mesh(2, 4, 1.0)))
    case = mms.representable_case()
    params = case.params(sp.mesh)
    state = case.solve(sp, params)
    wind = state.u_raw(sp)
    for region in (FLUID, POROUS):
        asm.strain_matrix(sp, region)
        asm.divergence_matrix(sp, region)
        asm.convection_matrix(sp, wind, region)
        asm.convection_matrix(sp, wind, region, skew=False)
    asm.newton_convection_matrix(sp, wind)
    asm.aux_divergence_matrix(sp)
    asm.darcy_matrix(sp, params)
    asm.pressure_mass_matrix(sp)
    asm.pressure_mean_vector(sp)
    asm.load_vector(sp, params)
    asm.load_value(sp, params, wind, state.phi_raw(sp))
    assert grad_keys(sp) == set()

    phi = state.phi_raw(sp)
    asm.strain_energy(sp, wind, FLUID)
    asm.strain_energy(sp, wind, POROUS)
    asm.darcy_energy(sp, phi, params)
    asm.divergence_value(sp, state.p_raw(sp), wind)
    asm.convection_value(sp, wind, wind, wind)
    asm.divdot_value(sp, wind, wind, wind)
    six = asm.OPERATOR_DEGREE
    assert grad_keys(sp) == {(FLUID, 2, six), (POROUS, 2, six),
                             (POROUS, 1, six)}

    mms.solution_errors(sp, case, state)
    nine = mms._ERROR_DEGREE
    assert grad_keys(sp) == {(FLUID, 2, six), (POROUS, 2, six),
                             (POROUS, 1, six), (FLUID, 2, nine),
                             (POROUS, 1, nine)}
