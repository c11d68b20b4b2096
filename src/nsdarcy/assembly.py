"""Bilinear-form assembly and quadrature-based functionals.

Each operator has a *form* ``(L, rows, cols)``: its local blocks and the
dofs they scatter to in the *expanded* numbering, where every geometric
node of the field's scalar space carries its degrees of freedom (two
interleaved components for vector fields), free or not, at positions
``width * node + component``.  The coupled solver scatters the forms into
one stored pattern per space, which makes inhomogeneous Dirichlet data a
plain matrix-vector product.  Matrix builders sum a form and return its
restriction to the free dofs, the ``index`` of each field in
``CoupledSpace.fields``.

Per-node *raw value* arrays -- shape (num_nodes, 2) for vector fields,
(num_nodes,) for scalars -- are the lingua franca of the functional
evaluators at the bottom of the module.  They coincide with expanded
coefficient vectors after ``ravel()``.

Volume operators are tensor contractions (Kirby, Knepley, Logg & Scott,
SISC 27, 2005; Kirby & Logg, ACM TOMS 32, 2006).  On an affine triangle
each element matrix is a per-element *geometry tensor*, built from the
Jacobian (and the permeability, or the wind's node values), contracted with
a *reference tensor* of basis-function integrals over the reference
triangle, so the local blocks of an operator are one matrix product.  The
reference tensors are summed once per polynomial degree, on first use, by
the degree-6 triangle rule, which integrates each of their integrands
(degree at most 5) exactly.  Interface operators use a degree-7 edge rule,
exact for their integrands (degree at most 6).

Pointwise quadrature remains for data, energies and errors: loads
(degree-9 volume and degree-11 edge rules), the energy and functional
evaluators (degree 6) and the error norms of ``mms``.  Only these evaluators
build per-point physical gradients (``_element_grads``), and they stay an
integration independent of the reference tensors that checks them.

Data callables (sources, permeability, interface defects, Dirichlet data)
take coordinate arrays ``(x, y)`` of any shape and return, per point, a
scalar, a tuple (nested for 2x2 values) or an array with the component
axes leading, e.g. ``(sin(x) * y, x)`` for a vector field.  Each is called
once per evaluation site; a callable that only handles scalar coordinates
is detected and evaluated point by point instead (``fem._evaluate``).
"""

import functools
from typing import NamedTuple

import numpy as np
from scipy.sparse import coo_matrix

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
            raise ParameterError(f"viscosity nu must be positive, got {nu}")
        if not (np.isfinite(G) and G > 0):
            raise ParameterError(f"slip coefficient G must be positive, got {G}")
        if sigma is not None and not (np.isfinite(sigma) and sigma > 0):
            raise ParameterError(f"companion viscosity sigma must be positive, got {sigma}")
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


class _Reference(NamedTuple):
    """Reference tensors of one degree, each laid out as (geometry axes,
    local block axes) for ``_contract``; c, d are vector components."""

    strain: np.ndarray      # [c, d, a, b, l, c, m, d]
    darcy: np.ndarray       # [a, b, l, m]
    divergence: np.ndarray  # [d, a, r, m, d]
    convection: np.ndarray  # [k, a, l, c, m, c]
    skew: np.ndarray        # [k, a, l, c, m, c]
    newton: np.ndarray      # [k, c, d, a, l, c, m, d]
    mass: np.ndarray        # [1, l, m]
    mean: np.ndarray        # [1, l]


@functools.cache
def _reference(degree):
    """Integrals over the reference triangle, by the operator rule, of the
    degree-``degree`` basis phi, its reference gradients and the P1 basis
    psi:
    S[l, m, a, b] = int d_a phi_l d_b phi_m,
    R[k, l, m, a] = int phi_k phi_l d_a phi_m,
    D[r, m, a] = int psi_r d_a phi_m,
    and the mass and mean of phi.  The vector operators see them with the
    component identity attached, so one matrix product yields their blocks.
    """
    rule = QuadratureRule.triangle(OPERATOR_DEGREE)
    w = rule.weights
    v = shape_values(degree, rule.points)
    g = shape_ref_grads(degree, rule.points)
    S = np.einsum('q,qla,qmb->lmab', w, g, g)
    R = np.einsum('q,qk,ql,qma->klma', w, v, v, g)
    D = np.einsum('q,qr,qma->rma', w, shape_values(1, rule.points), g)
    I = np.eye(2)
    ref = _Reference(
        strain=np.einsum('lmab,ce,df->cdablemf', S, I, I),
        darcy=S.transpose(2, 3, 0, 1),
        divergence=np.einsum('rma,de->darme', D, I),
        convection=np.einsum('klma,cd->kalcmd', R, I),
        skew=np.einsum('lmka,cd->kalcmd', R, I),
        newton=(np.einsum('lmka,ce,df->kcdalemf', R, I, I)
                + 0.5 * np.einsum('klma,ce,df->kcdalemf', R, I, I)),
        mass=np.einsum('q,ql,qm->lm', w, v, v)[None],
        mean=(w @ v)[None])
    for tensor in ref:  # shared by every caller
        tensor.setflags(write=False)
    return ref


def _contract(G, T):
    """Local blocks sum_g G[e, g] T[g, ...]: the per-element geometry
    tensor G (ne, *g) contracted with the leading axes of the reference
    tensor T, as one matrix product."""
    n = G[0].size
    return (G.reshape(len(G), n) @ T.reshape(n, -1)).reshape(
        (len(G),) + T.shape[G.ndim - 1:])


@_per_space
def _element_data(space, region, degree, quad_degree):
    """(nodes, values, weights) for one region/space/rule."""
    tris, _, det, _ = _geometry(space, region)
    rule = QuadratureRule.triangle(quad_degree)
    return (space.tri_nodes(degree)[tris], shape_values(degree, rule.points),
            rule.weights[None, :] * det[:, None])


@_per_space
def _element_grads(space, region, degree, quad_degree):
    """Physical shape gradients (ne, nq, nloc, 2) at the points of one
    rule, for the evaluators that integrate pointwise (energies, errors)."""
    invJT = _geometry(space, region)[3][:, None, None]
    ref = shape_ref_grads(degree, QuadratureRule.triangle(quad_degree).points)
    return (invJT[..., 0] * ref[:, :, None, 0]
            + invJT[..., 1] * ref[:, :, None, 1])


def _pointwise(space, region, degree, quad_degree=OPERATOR_DEGREE):
    """(nodes, values, gradients, weights) for the evaluators that
    integrate pointwise products of fields and their gradients."""
    nodes, vals, W = _element_data(space, region, degree, quad_degree)
    return nodes, vals, _element_grads(space, region, degree, quad_degree), W


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


def _vector_dofs(nodes):
    """Expanded dofs (..., 2) of a vector field at the given nodes."""
    return 2 * nodes[..., None] + np.arange(2)


def _vv_dofs(nodes):
    """Rows and columns of (ne, nl, 2, nl, 2) blocks on vector nodes."""
    dofs = _vector_dofs(nodes)
    return dofs[:, :, :, None, None], dofs[:, None, None]


def _matrix(space, form, row_kind, col_kind):
    """Sum ``form`` (its index arrays broadcast to its blocks) into the
    expanded matrix of two fields and restrict it to their free dofs."""
    L, rows, cols = form
    rf, cf = space.fields[row_kind], space.fields[col_kind]
    A = coo_matrix((L.ravel(), (np.broadcast_to(rows, L.shape).ravel(),
                                np.broadcast_to(cols, L.shape).ravel())),
                   shape=(rf.expanded_size, cf.expanded_size)).tocsr()
    return A[rf.index][:, cf.index]


# ---------------------------------------------------------------------------
# forms and matrix builders
# ---------------------------------------------------------------------------

# fields of the vector and divergence forms of a region, read after the
# form, which rejects an unknown region
_VECTOR = {FLUID: ("velocity", "velocity"), POROUS: ("aux", "aux")}
_DIVERGENCE = {FLUID: ("pressure", "velocity"),
               POROUS: ("porous_vertex", "aux")}


def _strain_form(space, region=FLUID):
    tris, _, det, invJT = _geometry(space, region)
    # G[e, c, d, a, b] = det/2 (delta_cd (J^-1 J^-T)_ab + J^-T_da J^-T_cb)
    M = invJT.transpose(0, 2, 1) @ invJT
    G = 0.5 * det[:, None, None, None, None] * (
        np.eye(2)[:, :, None, None] * M[:, None, None]
        + invJT[:, None, :, :, None] * invJT[:, :, None, None, :])
    nodes = space.tri_nodes(space.velocity_degree)[tris]
    return (_contract(G, _reference(space.velocity_degree).strain),
            *_vv_dofs(nodes))


def strain_matrix(space, region=FLUID):
    """(D(u), D(v)) over one region, on the natural vector field of the
    region (fluid / porous companion velocity); scale it for a coefficient."""
    return _matrix(space, _strain_form(space, region), *_VECTOR[region])


@_per_space
def _companion_strain(space):
    """Unit porous strain matrix on the companion dofs, shared by the
    lifting and (times 2 sigma) the companion solve."""
    return strain_matrix(space, POROUS)


def _darcy_form(space, params):
    tris, _, det, invJT = _geometry(space, POROUS)
    G = det[:, None, None] * (invJT.transpose(0, 2, 1) @ params.K_elems @ invJT)
    nodes = space.tri_nodes(space.head_degree)[tris]
    return (_contract(G, _reference(space.head_degree).darcy),
            nodes[:, :, None], nodes[:, None, :])


def darcy_matrix(space, params):
    """(K grad(phi), grad(psi)) over the porous region."""
    return _matrix(space, _darcy_form(space, params), "head", "head")


def _divergence_form(space, region=FLUID):
    tris, _, det, invJT = _geometry(space, region)
    nodes = space.tri_nodes(space.velocity_degree)[tris]
    return (_contract(det[:, None, None] * invJT,
                      _reference(space.velocity_degree).divergence),
            space.tri_nodes(1)[tris][:, :, None, None],
            _vector_dofs(nodes)[:, None])


def divergence_matrix(space, region=FLUID):
    """(q, div u): P1 scalar rows against vector columns over one region."""
    return _matrix(space, _divergence_form(space, region), *_DIVERGENCE[region])


def aux_divergence_matrix(space):
    """(q, div u) on the porous region: P1 vertex rows x companion columns."""
    return divergence_matrix(space, region=POROUS)


def _convection_form(space, wind, region=FLUID, skew=True):
    tris, _, det, invJT = _geometry(space, region)
    nodes = space.tri_nodes(space.velocity_degree)[tris]
    wn = np.asarray(wind)[nodes]
    ref = _reference(space.velocity_degree)
    T = ref.convection + 0.5 * ref.skew if skew else ref.convection
    # G[e, k, a] = det sum_j w_kj J^-T_ja
    return _contract(det[:, None, None] * (wn @ invJT), T), *_vv_dofs(nodes)


def convection_matrix(space, wind, region=FLUID, skew=True):
    """((w . grad) u, v), plus the skew stabilization 1/2 (div w, u . v).

    ``wind`` is a raw per-node value array of shape (num_nodes, 2).
    """
    return _matrix(space, _convection_form(space, wind, region, skew),
                   *_VECTOR[region])


def _newton_form(space, wind):
    tris, _, det, invJT = _geometry(space, FLUID)
    nodes = space.tri_nodes(space.velocity_degree)[tris]
    wn = np.asarray(wind)[nodes]
    # X[e, k, c, d, a] = det w_kc J^-T_da
    X = (det[:, None, None] * wn)[:, :, :, None, None] * invJT[:, None, None]
    return (_contract(X, _reference(space.velocity_degree).newton),
            *_vv_dofs(nodes))


def newton_convection_matrix(space, wind):
    """((u . grad) w, v) + 1/2 (div u, w . v) over the fluid region: the
    extra Newton block."""
    return _matrix(space, _newton_form(space, wind), "velocity", "velocity")


def _bjs_form(space):
    sv, _, W, _ = _edge_data(space, EDGE_OPERATOR_DEGREE)
    tau = space.iface_tangents
    return (np.einsum('eq,qa,qb,ec,ed->eacbd', W, sv, sv, tau, tau),
            *_vv_dofs(space.iface_edge_nodes))


def bjs_matrix(space):
    """(u . tau, v . tau) over the interface; scale it for a coefficient."""
    return _matrix(space, _bjs_form(space), "velocity", "velocity")


def _coupling_form(space):
    sv, sh, W, _ = _edge_data(space, EDGE_OPERATOR_DEGREE)
    return (np.einsum('eq,qa,qb,ec->eacb', W, sv, sh, space.iface_normals),
            _vector_dofs(space.iface_edge_nodes)[..., None],
            space.iface_edge_head_nodes[:, None, None, :])


def interface_coupling_matrix(space):
    """(phi, v . n_f) over the interface: velocity rows x head columns.

    The coupled system uses this block once as assembled and once as its
    exact transpose with a minus sign, which keeps the pairing
    algebraically skew-symmetric.
    """
    return _matrix(space, _coupling_form(space), "velocity", "head")


def pressure_mass_matrix(space):
    """(p, q) over the fluid region, P1 x P1."""
    tris, _, det, _ = _geometry(space, FLUID)
    rnodes = space.tri_nodes(1)[tris]
    return _matrix(space, (_contract(det[:, None], _reference(1).mass),
                           rnodes[:, :, None], rnodes[:, None, :]),
                   "pressure", "pressure")


def pressure_mean_vector(space):
    """Integrals of the pressure basis functions over the fluid region."""
    tris, _, det, _ = _geometry(space, FLUID)
    m = np.zeros(space.mesh.num_vertices)
    np.add.at(m, space.tri_nodes(1)[tris], _contract(det[:, None], _reference(1).mean))
    return m[space.fields["pressure"].index]


# ---------------------------------------------------------------------------
# load vectors
# ---------------------------------------------------------------------------

def _coupled_vector(space, fu, fh):
    """Coupled free-dof vector from expanded velocity rows (num_nodes, 2)
    and head rows; the pressure rows are zero."""
    fp = np.zeros(space.mesh.num_vertices)
    return np.concatenate([np.ravel(fu), fp, fh])[space.coupled_index]


def _expanded_loads(space, params):
    """(g_f, v) per velocity node, (num_nodes, 2), and (g_p, psi) per head
    node, over every node whether free or not."""
    vd, hd = space.velocity_degree, space.head_degree
    fu = np.zeros((space.num_nodes(vd), 2))
    fh = np.zeros(space.num_nodes(hd))
    if params.g_f is not None:
        nodes, vals, W = _element_data(space, FLUID, vd, LOAD_DEGREE)
        F = _evaluate(params.g_f, _quad_points(space, FLUID, LOAD_DEGREE), (2,))
        np.add.at(fu, nodes, np.einsum('eq,ceq,ql->elc', W, F, vals))
    if params.g_p is not None:
        nodes, vals, W = _element_data(space, POROUS, hd, LOAD_DEGREE)
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


def interface_residual_loads(space, r_mass, r_normal, r_tangential):
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
    vec -= _evaluate(r_normal, X)[..., None] * space.iface_normals[:, None]
    vec -= _evaluate(r_tangential, X)[..., None] * space.iface_tangents[:, None]
    fu = np.zeros((space.num_nodes(space.velocity_degree), 2))
    np.add.at(fu, space.iface_edge_nodes, np.einsum('eq,eqc,qa->eac', W, vec, sv))
    fh = np.zeros(space.num_nodes(space.head_degree))
    np.add.at(fh, space.iface_edge_head_nodes,
              -np.einsum('eq,eq,qa->ea', W, _evaluate(r_mass, X), sh))
    return _coupled_vector(space, fu, fh)


# ---------------------------------------------------------------------------
# functional evaluators on raw per-node values
# ---------------------------------------------------------------------------

def _point_values(raw, nodes, vals):
    """Values (ne, nq, 2) of a vector field, given per node, at the
    quadrature points."""
    return vals @ np.asarray(raw)[nodes]


def _point_grads(raw, nodes, g):
    """Gradients (ne, nq, 2, 2), [component, direction], of a vector field,
    given per node, at the quadrature points."""
    return np.swapaxes(np.asarray(raw)[nodes], 1, 2)[:, None] @ g


def strain_energy(space, u_raw, region):
    """Integral of D(u):D(u) over a region (no viscosity factor)."""
    nodes, _, g, W = _pointwise(space, region, space.velocity_degree)
    gu = _point_grads(u_raw, nodes, g)
    D = 0.5 * (gu + gu.transpose(0, 1, 3, 2))
    return float(np.einsum('eqcj,eqcj,eq->', D, D, W))


def darcy_energy(space, phi_raw, params):
    """Integral of grad(phi) . K grad(phi) over the porous region."""
    nodes, _, g, W = _pointwise(space, POROUS, space.head_degree)
    gp = (np.asarray(phi_raw)[nodes][:, None, None] @ g)[:, :, 0]
    return float(np.einsum('eqi,eqi,eq->', gp @ params.K_elems, gp, W))


def divergence_value(space, q_raw, u_raw):
    """Integral over the fluid region of q * div(u), q piecewise linear on
    vertices."""
    nodes, _, g, W = _pointwise(space, FLUID, space.velocity_degree)
    rnodes, vals1, _ = _element_data(space, FLUID, 1, OPERATOR_DEGREE)
    qq = np.asarray(q_raw)[rnodes] @ vals1.T
    divu = np.einsum('elc,eqlc->eq', np.asarray(u_raw)[nodes], g)
    return float(np.einsum('eq,eq,eq->', qq, divu, W))


def convection_value(space, w_raw, u_raw, v_raw, region=FLUID, skew=True):
    """((w . grad) u, v) over a region, optionally with 1/2 (div w, u . v)."""
    nodes, vals, g, W = _pointwise(space, region, space.velocity_degree)
    wq, vq = _point_values(w_raw, nodes, vals), _point_values(v_raw, nodes, vals)
    wgu = np.einsum('eqcj,eqj->eqc', _point_grads(u_raw, nodes, g), wq)
    out = np.einsum('eqc,eqc,eq->', wgu, vq, W)
    if skew:
        out += 0.5 * divdot_value(space, w_raw, u_raw, v_raw, region)
    return float(out)


def divdot_value(space, w_raw, u_raw, v_raw, region=POROUS):
    """Integral of div(w) * (u . v) over a region."""
    nodes, vals, g, W = _pointwise(space, region, space.velocity_degree)
    divw = np.einsum('elc,eqlc->eq', np.asarray(w_raw)[nodes], g)
    uq, vq = _point_values(u_raw, nodes, vals), _point_values(v_raw, nodes, vals)
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
