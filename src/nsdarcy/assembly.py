"""Bilinear-form assembly and quadrature-based functionals.

Matrix builders assemble in an *expanded* numbering first: every geometric
node of the relevant scalar space carries its degrees of freedom (two
interleaved components for vector fields), whether or not it is free.  The
expanded form makes inhomogeneous Dirichlet data a plain matrix-vector
product.  By default builders return the restriction to free dofs in the
ordering of the CoupledSpace maps; pass ``expanded=True`` for the full
matrix.

Per-node *raw value* arrays -- shape (num_nodes, 2) for vector fields,
(num_nodes,) for scalars -- are the lingua franca of the functional
evaluators at the bottom of the module.  They coincide with expanded
coefficient vectors after ``ravel()``.

Volume operators use a degree-6 triangle rule and interface operators a
degree-7 edge rule, so every bilinear-form integrand of the discretization
(polynomial degree at most 5, and at most 6 on edges) is integrated exactly.
Load functionals use degree-9 volume and degree-11 edge rules.

Data callables (sources, permeability, interface defects, Dirichlet data)
take coordinate arrays ``(x, y)`` of any shape and return, per point, a
scalar, a tuple (nested for 2x2 values) or an array with the component
axes leading, e.g. ``(sin(x) * y, x)`` for a vector field.  Each is called
once per evaluation site; a callable that only handles scalar coordinates
is detected and evaluated point by point instead (``fem._evaluate``).
"""

import numpy as np
from scipy.sparse import coo_matrix, csr_matrix

from .mesh import FLUID, POROUS
from .fem import (QuadratureRule, _evaluate, _per_space, edge_shape_values,
                  shape_ref_grads, shape_values)

OPERATOR_DEGREE = 6
LOAD_DEGREE = 9
EDGE_OPERATOR_DEGREE = 7
EDGE_LOAD_DEGREE = 11


class ParameterError(ValueError):
    """Physically inadmissible model parameters."""


class ModelParams:
    """Model data bound to a mesh.

    Parameters
    ----------
    mesh : MixedMesh
    nu : float
        Fluid viscosity, positive.
    K : scalar, (2, 2) array, or callable (x, y) -> (2, 2)
        Permeability (hydraulic conductivity) field; sampled once per porous
        triangle at the barycenter.  Must be symmetric positive definite.
    G : float
        Slip (friction) coefficient of the tangential interface condition.
    sigma : float or None
        Viscosity of the porous companion problem; default (None) resolves
        to nu * h at use time.
    g_f : callable (x, y) -> (2,), optional
        Fluid volume force.
    g_p : callable (x, y) -> float, optional
        Porous source.

    Callables receive coordinate arrays and return values with the
    component axes leading: a scalar, a tuple such as ``(f0, f1)`` or
    ``((k00, k01), (k10, k11))`` whose entries broadcast to the shape of
    ``x``, or an array of shape ``(2,) + x.shape`` / ``(2, 2) + x.shape``.
    Callables written for scalar coordinates also work; they are detected
    and called point by point.
    """

    def __init__(self, mesh, nu, K=1.0, G=1.0, sigma=None, g_f=None, g_p=None):
        if not (np.isfinite(nu) and nu > 0):
            raise ParameterError(f"viscosity must be positive, got {nu}")
        if not (np.isfinite(G) and G > 0):
            raise ParameterError(f"slip coefficient must be positive, got {G}")
        if sigma is not None and not (np.isfinite(sigma) and sigma > 0):
            raise ParameterError(f"companion viscosity must be positive, got {sigma}")
        self.mesh = mesh
        self.nu = float(nu)
        self.G = float(G)
        self.sigma = None if sigma is None else float(sigma)
        self.g_f = g_f
        self.g_p = g_p
        self.K_elems = self._sample_permeability(K)
        eigs = np.linalg.eigvalsh(self.K_elems)
        self.lambda_min = float(eigs.min())
        self.lambda_max = float(eigs.max())
        if self.lambda_min <= 0:
            raise ParameterError(
                f"permeability must be positive definite "
                f"(smallest sampled eigenvalue {self.lambda_min:.3e})")

    def _sample_permeability(self, K):
        tris = self.mesh.porous_triangles()
        bary = self.mesh.vertices[self.mesh.triangles[tris]].mean(axis=1)
        if callable(K):
            vals = np.ascontiguousarray(np.moveaxis(_evaluate(K, bary, (2, 2)), -1, 0))
        else:
            K = np.asarray(K, dtype=float)
            if K.ndim == 0:
                K = K * np.eye(2)
            if K.shape != (2, 2):
                raise ParameterError(f"permeability must be scalar, (2, 2), or "
                                     f"callable, got shape {K.shape}")
            vals = np.broadcast_to(K, (len(tris), 2, 2)).copy()
        if vals.shape != (len(tris), 2, 2) or not np.all(np.isfinite(vals)):
            raise ParameterError("permeability samples must be finite (2, 2) tensors")
        asym = np.abs(vals - vals.transpose(0, 2, 1)).max(initial=0.0)
        if asym > 1e-12 * max(1.0, np.abs(vals).max()):
            raise ParameterError(f"permeability must be symmetric "
                                 f"(max asymmetry {asym:.3e})")
        return vals

    def effective_sigma(self):
        """Companion viscosity: the explicit value, or nu * h."""
        return self.sigma if self.sigma is not None else self.nu * self.mesh.h


# ---------------------------------------------------------------------------
# cached element data
# ---------------------------------------------------------------------------

def _region_tris(space, region):
    if region == FLUID:
        return space.fluid_tris
    if region == POROUS:
        return space.porous_tris
    raise ValueError(f"unknown region tag {region}")


@_per_space
def _geometry(space, region):
    tris = _region_tris(space, region)
    pts = space.mesh.vertices[space.mesh.triangles[tris]]
    J = np.stack([pts[:, 1] - pts[:, 0], pts[:, 2] - pts[:, 0]], axis=2)
    det = J[:, 0, 0] * J[:, 1, 1] - J[:, 0, 1] * J[:, 1, 0]
    invJT = np.empty_like(J)
    invJT[:, 0, 0] = J[:, 1, 1] / det
    invJT[:, 0, 1] = -J[:, 1, 0] / det
    invJT[:, 1, 0] = -J[:, 0, 1] / det
    invJT[:, 1, 1] = J[:, 0, 0] / det
    return tris, pts, det, invJT


@_per_space
def _basis(space, degree, quad_degree):
    rule = QuadratureRule.triangle(quad_degree)
    return rule, shape_values(degree, rule.points), shape_ref_grads(degree, rule.points)


@_per_space
def _element_data(space, region, degree, quad_degree):
    """(tris, nodes, values, phys_grads, weights) for one region/space/rule."""
    tris, pts, det, invJT = _geometry(space, region)
    rule, vals, ref_grads = _basis(space, degree, quad_degree)
    grads = np.einsum('eij,qlj->eqli', invJT, ref_grads)
    weights = rule.weights[None, :] * det[:, None]
    nodes = space.tri_nodes(degree)[tris]
    return tris, nodes, vals, grads, weights


@_per_space
def _quad_points(space, region, quad_degree):
    _, pts, _, _ = _geometry(space, region)
    return np.einsum('qk,ekd->eqd', QuadratureRule.triangle(quad_degree).points, pts)


@_per_space
def _edge_data(space, quad_degree):
    """(velocity shape values, head shape values, weights, points) on the
    interface edges for one edge rule.  Weights (ne, nq) carry the edge
    lengths; points are (ne, nq, 2).  Edge nodes, normals and tangents are
    the ``iface_*`` arrays of the space, in the same edge order."""
    rule = QuadratureRule.edge(quad_degree)
    ends = space.mesh.vertices[space.mesh.interface_edges]
    points = (ends[:, None, 0]
              + rule.points[None, :, None] * (ends[:, None, 1] - ends[:, None, 0]))
    return (edge_shape_values(space.velocity_degree, rule.points),
            edge_shape_values(space.head_degree, rule.points),
            space.iface_lengths[:, None] * rule.weights, points)


@_per_space
def expanded_index(space, kind):
    """Map free dofs of a field to their expanded-numbering positions."""
    node_dofs = {"velocity": (space.u_node_dof, 2),
                 "aux": (space.aux_node_dof, 2),
                 "pressure": (space.p_vertex_dof, 1),
                 "head": (space.phi_node_dof, 1),
                 "porous_vertex": (space.porous_vertex_row, 1)}
    if kind not in node_dofs:
        raise ValueError(f"unknown field kind {kind!r}")
    node_dof, width = node_dofs[kind]
    nodes = np.flatnonzero(node_dof >= 0)
    idx = np.empty(width * len(nodes), dtype=np.int64)
    for c in range(width):
        idx[node_dof[nodes] + c] = width * nodes + c
    return idx


def restrict(space, A, row_kind, col_kind):
    """Restrict an expanded matrix to the free dofs of the given fields."""
    A = A.tocsr()
    return A[expanded_index(space, row_kind)][:, expanded_index(space, col_kind)]


def _vector_dofs(nodes):
    """Expanded dofs (..., 2) of a vector field at the given nodes."""
    return 2 * nodes[..., None] + np.arange(2)


def _scatter(L, rows, cols, shape):
    """Sum local blocks ``L`` into a sparse matrix; ``rows`` and ``cols``
    are index arrays that broadcast to ``L.shape``."""
    rows = np.broadcast_to(rows, L.shape)
    cols = np.broadcast_to(cols, L.shape)
    return coo_matrix((L.ravel(), (rows.ravel(), cols.ravel())),
                      shape=shape).tocsr()


def _stored_sum(*mats):
    """Sum of CSR matrices of one shape that stores every position any of
    them stores: an exact cancellation stays an explicit zero, where the
    sparse ``+`` drops it, so the sum's pattern does not follow rounding.
    Matrices scattered over the same elements store the same pattern, and
    their sum is the sum of their data arrays."""
    first = mats[0]
    if all(np.array_equal(m.indptr, first.indptr)
           and np.array_equal(m.indices, first.indices) for m in mats[1:]):
        return csr_matrix((sum(m.data for m in mats), first.indices,
                           first.indptr), shape=first.shape)
    coo = [m.tocoo() for m in mats]
    return _scatter(np.concatenate([c.data for c in coo]),
                    np.concatenate([c.row for c in coo]),
                    np.concatenate([c.col for c in coo]), mats[0].shape)


def _scatter_vv(L, nodes, dim):
    """Scatter (ne, nl, 2, nl, 2) local blocks; vector rows x vector cols."""
    dofs = _vector_dofs(nodes)
    return _scatter(L, dofs[:, :, :, None, None], dofs[:, None, None],
                    (dim, dim))


def _vector_matrix(space, L, nodes, region, expanded):
    """Scatter (ne, nl, 2, nl, 2) local blocks into the expanded matrix, or
    into its restriction to the region's vector field (fluid velocity /
    porous companion velocity)."""
    A = _scatter_vv(L, nodes, 2 * space.num_nodes(space.velocity_degree))
    kind = "velocity" if region == FLUID else "aux"
    return A if expanded else restrict(space, A, kind, kind)


# ---------------------------------------------------------------------------
# matrix builders
# ---------------------------------------------------------------------------

def strain_matrix(space, region=FLUID, coefficient=1.0, expanded=False):
    """(D(u), D(v)) over one region, times a constant coefficient, on the
    natural vector field of the region (fluid / porous companion velocity)."""
    _, nodes, _, g, W = _element_data(space, region, space.velocity_degree,
                                      OPERATOR_DEGREE)
    base = np.einsum('eqli,eqmi,eq->elm', g, g, W)
    cross = np.einsum('eqld,eqmc,eq->elmcd', g, g, W)
    L = 0.5 * (np.einsum('elm,cd->elcmd', base, np.eye(2))
               + cross.transpose(0, 1, 3, 2, 4))
    return coefficient * _vector_matrix(space, L, nodes, region, expanded)


@_per_space
def _companion_strain(space):
    """Unit porous strain matrix on the companion dofs, shared by the
    lifting and (times 2 sigma) the companion solve."""
    return strain_matrix(space, POROUS)


def darcy_matrix(space, params, expanded=False):
    """(K grad(phi), grad(psi)) over the porous region."""
    _, nodes, _, g, W = _element_data(space, POROUS, space.head_degree,
                                      OPERATOR_DEGREE)
    Kg = np.einsum('eij,eqmj->eqmi', params.K_elems, g)
    L = np.einsum('eqli,eqmi,eq->elm', g, Kg, W)
    n = space.num_nodes(space.head_degree)
    A = _scatter(L, nodes[:, :, None], nodes[:, None, :], (n, n))
    return A if expanded else restrict(space, A, "head", "head")


def divergence_matrix(space, region=FLUID, expanded=False):
    """(q, div u): P1 scalar rows against vector columns over one region."""
    _, nodes, _, g, W = _element_data(space, region, space.velocity_degree,
                                      OPERATOR_DEGREE)
    _, rnodes, vals1, _, _ = _element_data(space, region, 1, OPERATOR_DEGREE)
    L = np.einsum('qr,eqmd,eq->ermd', vals1, g, W)
    B = _scatter(L, rnodes[:, :, None, None], _vector_dofs(nodes)[:, None],
                 (space.mesh.num_vertices,
                  2 * space.num_nodes(space.velocity_degree)))
    if expanded:
        return B
    if region == FLUID:
        return restrict(space, B, "pressure", "velocity")
    return restrict(space, B, "porous_vertex", "aux")


def aux_divergence_matrix(space):
    """(q, div u) on the porous region: P1 vertex rows x companion columns."""
    return divergence_matrix(space, region=POROUS)


def convection_matrix(space, wind, region=FLUID, skew=True, expanded=False):
    """((w . grad) u, v), plus the skew stabilization 1/2 (div w, u . v).

    ``wind`` is a raw per-node value array of shape (num_nodes, 2).
    """
    _, nodes, vals, g, W = _element_data(space, region, space.velocity_degree,
                                         OPERATOR_DEGREE)
    wn = np.asarray(wind)[nodes]
    wq = np.einsum('ql,elc->eqc', vals, wn)
    wgrad = np.einsum('eqj,eqmj->eqm', wq, g)
    P = np.einsum('ql,eqm,eq->elm', vals, wgrad, W)
    if skew:
        divw = np.einsum('elc,eqlc->eq', wn, g)
        P = P + 0.5 * np.einsum('eq,ql,qm->elm', divw * W, vals, vals)
    L = np.einsum('elm,cd->elcmd', P, np.eye(2))
    return _vector_matrix(space, L, nodes, region, expanded)


def newton_convection_matrix(space, wind, region=FLUID, expanded=False):
    """((u . grad) w, v) + 1/2 (div u, w . v): the extra Newton block."""
    _, nodes, vals, g, W = _element_data(space, region, space.velocity_degree,
                                         OPERATOR_DEGREE)
    wn = np.asarray(wind)[nodes]
    wq = np.einsum('ql,elc->eqc', vals, wn)
    gw = np.einsum('elc,eqlj->eqcj', wn, g)
    L = (np.einsum('ql,qm,eqcd,eq->elcmd', vals, vals, gw, W)
         + 0.5 * np.einsum('ql,eqmd,eqc,eq->elcmd', vals, g, wq, W))
    return _vector_matrix(space, L, nodes, region, expanded)


def bjs_matrix(space, coefficient=1.0, expanded=False):
    """coefficient * (u . tau, v . tau) over the interface."""
    sv, _, W, _ = _edge_data(space, EDGE_OPERATOR_DEGREE)
    tau = space.iface_tangents
    L = coefficient * np.einsum('eq,qa,qb,ec,ed->eacbd', W, sv, sv, tau, tau)
    A = _scatter_vv(L, space.iface_edge_nodes,
                    2 * space.num_nodes(space.velocity_degree))
    return A if expanded else restrict(space, A, "velocity", "velocity")


def interface_coupling_matrix(space, expanded=False):
    """(phi, v . n_f) over the interface: velocity rows x head columns.

    The coupled system uses this block once as assembled and once as its
    exact transpose with a minus sign, which keeps the pairing
    algebraically skew-symmetric.
    """
    sv, sh, W, _ = _edge_data(space, EDGE_OPERATOR_DEGREE)
    L = np.einsum('eq,qa,qb,ec->eacb', W, sv, sh, space.iface_normals)
    A = _scatter(L, _vector_dofs(space.iface_edge_nodes)[..., None],
                 space.iface_edge_head_nodes[:, None, None, :],
                 (2 * space.num_nodes(space.velocity_degree),
                  space.num_nodes(space.head_degree)))
    return A if expanded else restrict(space, A, "velocity", "head")


def pressure_mass_matrix(space, expanded=False):
    """(p, q) over the fluid region, P1 x P1."""
    _, rnodes, vals1, _, W = _element_data(space, FLUID, 1, OPERATOR_DEGREE)
    L = np.einsum('ql,qm,eq->elm', vals1, vals1, W)
    nv = space.mesh.num_vertices
    M = _scatter(L, rnodes[:, :, None], rnodes[:, None, :], (nv, nv))
    return M if expanded else restrict(space, M, "pressure", "pressure")


def pressure_mean_vector(space):
    """Integrals of the pressure basis functions over the fluid region."""
    _, rnodes, vals1, _, W = _element_data(space, FLUID, 1, OPERATOR_DEGREE)
    loc = np.einsum('ql,eq->el', vals1, W)
    m = np.zeros(space.mesh.num_vertices)
    np.add.at(m, rnodes, loc)
    return m[expanded_index(space, "pressure")]


# ---------------------------------------------------------------------------
# load vectors
# ---------------------------------------------------------------------------

def _coupled_vector(space, fu, fh):
    """Coupled free-dof vector from expanded velocity rows (num_nodes, 2)
    and head rows; pressure rows are zero."""
    b = np.zeros(space.num_total_dofs)
    b[:space.offset_p] = fu.ravel()[expanded_index(space, "velocity")]
    b[space.offset_phi:] = fh[expanded_index(space, "head")]
    return b


def _expanded_loads(space, params):
    """(g_f, v) per velocity node, (num_nodes, 2), and (g_p, psi) per head
    node, over every node whether free or not."""
    vd, hd = space.velocity_degree, space.head_degree
    fu = np.zeros((space.num_nodes(vd), 2))
    fh = np.zeros(space.num_nodes(hd))
    if params.g_f is not None:
        _, nodes, vals, _, W = _element_data(space, FLUID, vd, LOAD_DEGREE)
        F = _evaluate(params.g_f, _quad_points(space, FLUID, LOAD_DEGREE), (2,))
        np.add.at(fu, nodes, np.einsum('eq,ceq,ql->elc', W, F, vals))
    if params.g_p is not None:
        _, nodes, vals, _, W = _element_data(space, POROUS, hd, LOAD_DEGREE)
        F = _evaluate(params.g_p, _quad_points(space, POROUS, LOAD_DEGREE))
        np.add.at(fh, nodes, np.einsum('eq,eq,ql->el', W, F, vals))
    return fu, fh


def load_vector(space, params):
    """Coupled right-hand side from the volume sources (g_f, g_p)."""
    return _coupled_vector(space, *_expanded_loads(space, params))


def load_value(space, params, u_raw, phi_raw):
    """(g_f, u) over the fluid region plus (g_p, phi) over the porous one."""
    fu, fh = _expanded_loads(space, params)
    return float(fu.ravel() @ np.ravel(u_raw) + fh @ np.asarray(phi_raw))


def interface_residual_loads(space, r_mass=None, r_normal=None, r_tangential=None):
    """Consistency loads for manufactured solutions with nonzero interface
    residuals.

    For exact fields (u, p, phi) with interface defects
    ``r_normal = p - 2 nu n.D(u)n - phi``,
    ``r_tangential = -2 nu tau.D(u)n - G u.tau`` and
    ``r_mass = u.n_f + K grad(phi).n_f``, the discrete weak form reproduces
    the fields when the right-hand side carries
    ``-(r_normal, v.n) - (r_tangential, v.tau)`` on the momentum rows and
    ``-(r_mass, psi)`` on the head rows.
    """
    sv, sh, W, X = _edge_data(space, EDGE_LOAD_DEGREE)
    vec = np.zeros(X.shape)
    if r_normal is not None:
        vec -= _evaluate(r_normal, X)[..., None] * space.iface_normals[:, None]
    if r_tangential is not None:
        vec -= _evaluate(r_tangential, X)[..., None] * space.iface_tangents[:, None]
    fu = np.zeros((space.num_nodes(space.velocity_degree), 2))
    np.add.at(fu, space.iface_edge_nodes, np.einsum('eq,eqc,qa->eac', W, vec, sv))
    fh = np.zeros(space.num_nodes(space.head_degree))
    if r_mass is not None:
        np.add.at(fh, space.iface_edge_head_nodes,
                  -np.einsum('eq,eq,qa->ea', W, _evaluate(r_mass, X), sh))
    return _coupled_vector(space, fu, fh)


# ---------------------------------------------------------------------------
# functional evaluators on raw per-node values
# ---------------------------------------------------------------------------

def strain_energy(space, u_raw, region):
    """Integral of D(u):D(u) over a region (no viscosity factor)."""
    _, nodes, _, g, W = _element_data(space, region, space.velocity_degree,
                                      OPERATOR_DEGREE)
    gu = np.einsum('elc,eqlj->eqcj', np.asarray(u_raw)[nodes], g)
    D = 0.5 * (gu + gu.transpose(0, 1, 3, 2))
    return float(np.einsum('eqcj,eqcj,eq->', D, D, W))


def darcy_energy(space, phi_raw, params):
    """Integral of grad(phi) . K grad(phi) over the porous region."""
    _, nodes, _, g, W = _element_data(space, POROUS, space.head_degree,
                                      OPERATOR_DEGREE)
    gp = np.einsum('el,eqlj->eqj', np.asarray(phi_raw)[nodes], g)
    return float(np.einsum('eqi,eij,eqj,eq->', gp, params.K_elems, gp, W))


def divergence_value(space, q_raw, u_raw, region=FLUID):
    """Integral of q * div(u), q piecewise linear on vertices."""
    _, nodes, _, g, W = _element_data(space, region, space.velocity_degree,
                                      OPERATOR_DEGREE)
    _, rnodes, vals1, _, _ = _element_data(space, region, 1, OPERATOR_DEGREE)
    qq = np.einsum('ql,el->eq', vals1, np.asarray(q_raw)[rnodes])
    divu = np.einsum('elc,eqlc->eq', np.asarray(u_raw)[nodes], g)
    return float(np.einsum('eq,eq,eq->', qq, divu, W))


def convection_value(space, w_raw, u_raw, v_raw, region=FLUID, skew=True):
    """((w . grad) u, v) over a region, optionally with 1/2 (div w, u . v)."""
    _, nodes, vals, g, W = _element_data(space, region, space.velocity_degree,
                                         OPERATOR_DEGREE)
    wn = np.asarray(w_raw)[nodes]
    wq = np.einsum('ql,elc->eqc', vals, wn)
    gu = np.einsum('elc,eqlj->eqcj', np.asarray(u_raw)[nodes], g)
    vq = np.einsum('ql,elc->eqc', vals, np.asarray(v_raw)[nodes])
    out = np.einsum('eqj,eqcj,eqc,eq->', wq, gu, vq, W)
    if skew:
        divw = np.einsum('elc,eqlc->eq', wn, g)
        uq = np.einsum('ql,elc->eqc', vals, np.asarray(u_raw)[nodes])
        out += 0.5 * np.einsum('eq,eqc,eqc,eq->', divw, uq, vq, W)
    return float(out)


def divdot_value(space, w_raw, u_raw, v_raw, region=POROUS):
    """Integral of div(w) * (u . v) over a region."""
    _, nodes, vals, g, W = _element_data(space, region, space.velocity_degree,
                                         OPERATOR_DEGREE)
    divw = np.einsum('elc,eqlc->eq', np.asarray(w_raw)[nodes], g)
    uq = np.einsum('ql,elc->eqc', vals, np.asarray(u_raw)[nodes])
    vq = np.einsum('ql,elc->eqc', vals, np.asarray(v_raw)[nodes])
    return float(np.einsum('eq,eqc,eqc,eq->', divw, uq, vq, W))


def _interface_values(space, raw, sv):
    """Velocity values (ne, nq, 2) at the interface quadrature points."""
    return np.einsum('qa,eac->eqc', sv, np.asarray(raw)[space.iface_edge_nodes])


def interface_uv_flux(space, u_raw, v_raw, w_raw):
    """Integral over the interface of (u . v) (w . n_f)."""
    sv, _, W, _ = _edge_data(space, EDGE_OPERATOR_DEGREE)
    uq, vq, wq = (_interface_values(space, f, sv) for f in (u_raw, v_raw, w_raw))
    wn = np.einsum('eqc,ec->eq', wq, space.iface_normals)
    return float(np.einsum('eq,eqc,eqc,eq->', W, uq, vq, wn))


def gamma_term(space, u_raw):
    """1/2 integral over the interface of |u|^2 (u . n_f)."""
    return 0.5 * interface_uv_flux(space, u_raw, u_raw, u_raw)


def bjs_energy(space, u_raw, coefficient=1.0):
    """coefficient * integral over the interface of (u . tau)^2."""
    sv, _, W, _ = _edge_data(space, EDGE_OPERATOR_DEGREE)
    ut = np.einsum('eqc,ec->eq', _interface_values(space, u_raw, sv),
                   space.iface_tangents)
    return coefficient * float(np.einsum('eq,eq,eq->', W, ut, ut))


def interface_head_flux(space, u_raw, phi_raw):
    """Integral over the interface of phi (u . n_f)."""
    sv, sh, W, _ = _edge_data(space, EDGE_OPERATOR_DEGREE)
    un = np.einsum('eqc,ec->eq', _interface_values(space, u_raw, sv),
                   space.iface_normals)
    pq = np.einsum('qa,ea->eq', sh, np.asarray(phi_raw)[space.iface_edge_head_nodes])
    return float(np.einsum('eq,eq,eq->', W, pq, un))
