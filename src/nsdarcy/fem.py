"""Finite element spaces and quadrature on two-domain meshes.

Discretization: continuous vector P2 velocity and P1 pressure on the fluid
subdomain (the velocity degree can be lowered to 1 for deliberately unstable
test configurations), continuous P1 head on the porous subdomain (degree 2
available as an option), and a vector P2 companion velocity space on the
porous subdomain that vanishes on the outer porous boundary and shares its
interface nodes with the fluid velocity.

Velocity/head Dirichlet constraints (gamma_f, gamma_pd, and the outer porous
boundary for the companion space) are removed from the algebraic systems, not
penalized; constrained nodes simply have no degree of freedom.
"""

import functools
from typing import NamedTuple

import numpy as np
from scipy.sparse import bmat, csc_matrix, csr_matrix, diags
from scipy.sparse.linalg import spilu, splu

from .mesh import GAMMA_F, GAMMA_PD

# net interface flux of a lifting, relative to its data, above which the
# lifting carries a warning
LIFTING_FLUX_TOL = 1e-10

# SuperLU keeps a diagonal pivot unless it is below this share of the
# largest entry in its column
PIVOT_THRESHOLD = 1e-3
_SUPERLU_OPTIONS = dict(diag_pivot_thresh=PIVOT_THRESHOLD,
                        options=dict(SymmetricMode=True))


class SpaceError(Exception):
    """Inconsistent discrete-space construction."""


class InterpolationError(Exception):
    """Data that the target space cannot represent (e.g. nonzero trace on a
    constrained boundary)."""


class SingularLinearSystem(Exception):
    """A linear system that cannot be solved reliably; carries defect info."""


def _structural_diagonal(A):
    """Mask of the rows of a CSR/CSC matrix that store their diagonal."""
    rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
    has = np.zeros(A.shape[0], dtype=bool)
    has[rows[A.indices == rows]] = True
    return has


def saddle_order(A):
    """Symmetric fill-reducing order of a matrix with zero diagonal blocks.

    A minimum-degree order of the stored pattern of A + A^T (explicit zeros
    included), in which every unknown with a structurally zero diagonal
    (pressures, multipliers) is moved to just after its last neighbour that
    has a diagonal.  Factored in this order, the saddle matrix keeps its
    pivots on the diagonal: each zero-diagonal unknown is eliminated after
    the primal unknowns it couples to have filled its diagonal in.  SuperLU
    exposes no ordering call, so the minimum-degree order is the column
    order of an incomplete factorization (all fill dropped, the same order
    as a full one) of a diagonally dominant SPD matrix with the same pattern.
    Returns ``order``, the unknowns in elimination order.
    """
    A = csc_matrix(A)
    T = csc_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
    P = (T + T.T).tocsr()
    P.data[:] = -1.0
    spd = (P + diags(np.diff(P.indptr) + 1.0)).tocsc()
    pos = spilu(spd, drop_tol=1.0, fill_factor=1.0, permc_spec="MMD_AT_PLUS_A",
                **_SUPERLU_OPTIONS).perm_c  # position of each unknown
    has_diag = _structural_diagonal(A)
    # 1 + the position of the last neighbour with a diagonal, 0 for none
    after = csr_matrix((np.where(has_diag[P.indices], pos[P.indices] + 1, 0),
                        P.indices, P.indptr), shape=A.shape)
    last = after.max(axis=1).toarray().ravel() - 1
    key = np.where(has_diag | (last < 0), pos, last)
    # ties: an unknown with a diagonal first, then the minimum-degree order
    return np.lexsort((pos, ~has_diag, key))


class _OrderedFactor:
    """SuperLU factor of A[order][:, order] that solves with A."""

    def __init__(self, lu, order):
        self.lu = lu
        self.order = order
        self.nnz = lu.nnz

    def solve(self, b):
        x = np.empty(np.shape(b))
        x[self.order] = self.lu.solve(np.asarray(b, dtype=float)[self.order])
        return x


def _factor(A, context, order=None):
    """Sparse LU factor of ``A``, with ``.solve(b)`` for a vector or a 2-D
    ``b``; a singular ``A`` raises SingularLinearSystem with ``context``
    leading the message.

    Every factorization prefers diagonal pivots (SuperLU's SymmetricMode
    with threshold PIVOT_THRESHOLD) in a symmetric fill-reducing order: the
    minimum-degree order of A + A^T when every diagonal is stored, and
    otherwise ``order``, a ``saddle_order`` of a pattern that contains A's
    (computed from A when not given).
    """
    A = csc_matrix(A)
    # SuperLU can crash outright on rank-deficient inputs (e.g. unstable
    # velocity/pressure pairings), so reject those before factorizing
    from scipy.sparse.csgraph import structural_rank
    if structural_rank(A) < A.shape[0]:
        raise SingularLinearSystem(
            f"{context}: structurally singular system "
            "(rank-deficient discretization, e.g. an unstable element pair)")
    if order is None and not _structural_diagonal(A).all():
        order = saddle_order(A)
    try:
        if order is None:
            return splu(A, permc_spec="MMD_AT_PLUS_A", **_SUPERLU_OPTIONS)
        return _OrderedFactor(splu(A[order][:, order], permc_spec="NATURAL",
                                   **_SUPERLU_OPTIONS), order)
    except RuntimeError as exc:
        raise SingularLinearSystem(f"{context}: {exc}") from exc


def _per_space(fn):
    """Memoize ``fn(space, *args)``, a result that belongs to the space, in
    ``space._cache`` under the function name and the (hashable) arguments."""
    @functools.wraps(fn)
    def cached(space, *args):
        key = (fn.__name__,) + args
        if key not in space._cache:
            space._cache[key] = fn(space, *args)
        return space._cache[key]
    return cached


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

def _perm3(a):
    b = 1.0 - 2.0 * a
    return [(b, a, a), (a, b, a), (a, a, b)]


def _perm6(a, b):
    c = 1.0 - a - b
    return [(c, a, b), (c, b, a), (a, c, b), (a, b, c), (b, c, a), (b, a, c)]


# symmetric rules on the reference triangle; (weight, barycentric point),
# weights normalized to sum to 1
_TRIANGLE_RULES = {
    1: [(1.0, (1 / 3, 1 / 3, 1 / 3))],
    2: [(1 / 3, p) for p in _perm3(1 / 6)],
    4: ([(0.223381589678011, p) for p in _perm3(0.445948490915965)]
        + [(0.109951743655322, p) for p in _perm3(0.091576213509771)]),
    6: ([(0.050844906370207, p) for p in _perm3(0.063089014491502)]
        + [(0.116786275726379, p) for p in _perm3(0.249286745170910)]
        + [(0.082851075618374, p) for p in _perm6(0.310352451033785, 0.053145049844816)]),
    9: ([(0.097135796282799, (1 / 3, 1 / 3, 1 / 3))]
        + [(0.031334700227139, p) for p in _perm3(0.489682519198738)]
        + [(0.077827541004774, p) for p in _perm3(0.437089591492937)]
        + [(0.079647738927210, p) for p in _perm3(0.188203535619033)]
        + [(0.025577675658698, p) for p in _perm3(0.044729513394453)]
        + [(0.043283539377289, p) for p in _perm6(0.221962989160766, 0.036838412054736)]),
}


class QuadratureRule:
    """Quadrature on the reference triangle or the reference edge [0, 1].

    Triangle rules store barycentric points and weights that sum to the
    reference measure 1/2, so an element integral is
    ``sum(w * f(x_q)) * |det J|``.  Edge rules store points in [0, 1] with
    weights summing to 1; an edge integral is ``sum(w * f(t_q)) * length``.
    """

    def __init__(self, degree, points, weights):
        self.degree = degree
        self.points = np.asarray(points, dtype=float)
        self.weights = np.asarray(weights, dtype=float)

    @classmethod
    def triangle(cls, degree):
        """Smallest stored symmetric rule exact for polynomials of `degree`."""
        for d in sorted(_TRIANGLE_RULES):
            if d >= degree:
                data = _TRIANGLE_RULES[d]
                w = np.array([wi for wi, _ in data]) * 0.5
                pts = np.array([p for _, p in data])
                return cls(d, pts, w)
        raise ValueError(f"no stored triangle rule of degree >= {degree}")

    @classmethod
    def edge(cls, degree):
        """Gauss-Legendre rule on [0, 1] exact for polynomials of `degree`."""
        n = max(1, (degree + 2) // 2)
        x, w = np.polynomial.legendre.leggauss(n)
        return cls(2 * n - 1, 0.5 * (x + 1.0), 0.5 * w)


# ---------------------------------------------------------------------------
# reference bases
# ---------------------------------------------------------------------------

def shape_values(degree, bary):
    """Scalar shape functions at barycentric points; (nq, nloc).

    P2 local ordering: three vertices, then the midside nodes opposite
    vertex 0, 1, 2 (i.e. midpoints of edges 12, 20, 01).
    """
    bary = np.atleast_2d(bary)
    l0, l1, l2 = bary[:, 0], bary[:, 1], bary[:, 2]
    if degree == 1:
        return np.stack([l0, l1, l2], axis=1)
    if degree == 2:
        return np.stack([l0 * (2 * l0 - 1), l1 * (2 * l1 - 1), l2 * (2 * l2 - 1),
                         4 * l1 * l2, 4 * l2 * l0, 4 * l0 * l1], axis=1)
    raise ValueError(f"unsupported polynomial degree {degree}")


_DL = np.array([[-1.0, -1.0], [1.0, 0.0], [0.0, 1.0]])  # d(lambda)/d(xi, eta)


def shape_ref_grads(degree, bary):
    """Reference-coordinate shape gradients at barycentric points; (nq, nloc, 2)."""
    bary = np.atleast_2d(bary)
    nq = len(bary)
    if degree == 1:
        return np.broadcast_to(_DL, (nq, 3, 2)).copy()
    if degree == 2:
        l = bary
        g = np.empty((nq, 6, 2))
        for i in range(3):
            g[:, i] = (4 * l[:, i, None] - 1) * _DL[i]
        pairs = ((1, 2), (2, 0), (0, 1))
        for k, (i, j) in enumerate(pairs):
            g[:, 3 + k] = 4 * (l[:, j, None] * _DL[i] + l[:, i, None] * _DL[j])
        return g
    raise ValueError(f"unsupported polynomial degree {degree}")


def edge_shape_values(degree, t):
    """Trace shape functions on an edge, parametrized by t in [0, 1].

    Node order: the two endpoints, then (for degree 2) the midpoint.
    """
    t = np.atleast_1d(t)
    if degree == 1:
        return np.stack([1 - t, t], axis=1)
    if degree == 2:
        return np.stack([(1 - t) * (1 - 2 * t), t * (2 * t - 1), 4 * t * (1 - t)], axis=1)
    raise ValueError(f"unsupported polynomial degree {degree}")


# ---------------------------------------------------------------------------
# data callables
# ---------------------------------------------------------------------------

def _stack(value, point_shape):
    if isinstance(value, tuple):
        return np.stack([_stack(v, point_shape) for v in value])
    return np.broadcast_to(np.asarray(value, dtype=float), point_shape)


def _evaluate(func, points, shape=()):
    """A data callable ``func(x, y)`` at ``points`` (..., 2), as one float
    array of shape ``shape + points.shape[:-1]`` (components leading).

    ``func`` is called once with coordinate arrays.  It may return a scalar,
    a tuple (nested for 2x2 values) whose entries broadcast to the point
    shape, or an array of exactly the output shape.  Any other result, or an
    exception, falls back to one call per point, so callables written for
    scalar coordinates work unchanged.
    """
    points = np.asarray(points, dtype=float)
    point_shape = points.shape[:-1]
    out_shape = shape + point_shape
    try:
        value = func(points[..., 0], points[..., 1])
        if isinstance(value, tuple):
            value = _stack(value, point_shape)
        else:
            value = np.asarray(value, dtype=float)
            if value.ndim == 0:
                value = np.full(out_shape, value)
        if value.shape == out_shape:
            return value
    except Exception:
        # scalar-only callables reject arrays in many ways; the pointwise
        # retry below raises again if the callable itself is at fault
        pass
    flat = points.reshape(-1, 2)
    vals = np.reshape([np.broadcast_to(np.asarray(func(x, y), dtype=float), shape)
                       for x, y in flat], point_shape + shape)
    return np.moveaxis(vals, tuple(range(len(point_shape), vals.ndim)),
                       tuple(range(len(shape))))


# ---------------------------------------------------------------------------
# coupled space
# ---------------------------------------------------------------------------

class Field(NamedTuple):
    """Numbering of one discrete field: ``node_dof[n]`` is the first of the
    ``width`` dofs of node n (-1 for a node without dofs), ``index[d]`` is
    the expanded position ``width * node + component`` of dof d, and
    ``fixed`` lists the constrained nodes of the field's region."""

    node_dof: np.ndarray
    width: int
    index: np.ndarray
    fixed: np.ndarray


class CoupledSpace:
    """Degree-of-freedom bookkeeping for the coupled discrete spaces.

    One table, ``fields``, numbers every discrete field by one rule: the
    nodes of the field's region that are not on its constrained boundary,
    in node order, carry ``width`` consecutive dofs each (two interleaved
    components for vector fields).  The fields are the fluid velocity
    ("velocity", fixed on gamma_f), the pressure ("pressure", every fluid
    vertex; the zero-mean gauge is handled by the solver), the porous head
    ("head", fixed on gamma_pd), the porous companion velocity ("aux",
    fixed on the outer porous boundary, free on the interface) and the
    multiplier space of the lifting ("porous_vertex", every porous vertex).
    Blocks of the coupled system, in order: velocity, pressure, head.  The
    companion velocity has its own numbering and is not part of the coupled
    block vector.  ``node_values`` turns free coefficients of any field into
    per-node values.  The P2 node of mesh edge e is ``num_vertices + e``.

    Parameters
    ----------
    mesh : MixedMesh
    velocity_degree : 1 or 2
        Degree of the fluid and companion velocity spaces.  Degree 1 exists
        for deliberately unstable pairings in stability tests; the coupled
        solver requires degree 2.
    head_degree : 1 or 2
    """

    def __init__(self, mesh, velocity_degree=2, head_degree=1):
        if velocity_degree not in (1, 2):
            raise SpaceError("velocity_degree must be 1 or 2")
        if head_degree not in (1, 2):
            raise SpaceError("head_degree must be 1 or 2")
        self.mesh = mesh
        self.velocity_degree = velocity_degree
        self.head_degree = head_degree

        nv = mesh.num_vertices
        mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
        self._coords = {1: mesh.vertices, 2: np.vstack([mesh.vertices, mids])}
        self._tri_nodes = {1: mesh.triangles,
                           2: np.column_stack([mesh.triangles, nv + mesh.tri_to_edge])}

        self.fluid_tris = mesh.fluid_triangles()
        self.porous_tris = mesh.porous_triangles()

        bed, btag = mesh.boundary_edges, mesh.boundary_tags
        vd, hd = velocity_degree, head_degree
        unconstrained = bed[:0]
        # (degree, region, constrained boundary edges, dofs per node)
        layout = {"velocity": (vd, self.fluid_tris, bed[btag == GAMMA_F], 2),
                  "pressure": (1, self.fluid_tris, unconstrained, 1),
                  "head": (hd, self.porous_tris, bed[btag == GAMMA_PD], 1),
                  "aux": (vd, self.porous_tris, bed[btag != GAMMA_F], 2),
                  "porous_vertex": (1, self.porous_tris, unconstrained, 1)}
        self.fields = {kind: self._number(*spec) for kind, spec in layout.items()}
        self.u_node_dof = self.fields["velocity"].node_dof
        self.aux_node_dof = self.fields["aux"].node_dof
        (self.num_velocity_dofs, self.num_pressure_dofs, self.num_head_dofs,
         self.num_aux_dofs, self.num_porous_vertices) = (
            len(self.fields[kind].index) for kind in layout)

        self.offset_p = self.num_velocity_dofs
        self.offset_phi = self.offset_p + self.num_pressure_dofs
        self.num_total_dofs = self.offset_phi + self.num_head_dofs

        self._build_interface_data()
        self._cache = {}

    # -- bookkeeping -------------------------------------------------------

    def num_nodes(self, degree):
        return len(self._coords[degree])

    def node_coords(self, degree):
        return self._coords[degree]

    def tri_nodes(self, degree):
        return self._tri_nodes[degree]

    @property
    def pressure_space_dim(self):
        """Dimension of the zero-mean pressure space."""
        return self.num_pressure_dofs - 1

    def _number(self, degree, tris, fixed_edges, width):
        """The numbering rule: the free nodes of the region, in node order,
        get ``width`` consecutive dofs each."""
        nodes = np.unique(self._tri_nodes[degree][tris])
        on = np.zeros(self.num_nodes(degree), dtype=bool)
        on[fixed_edges.ravel()] = True
        if degree == 2:
            on[self.mesh.num_vertices + self.mesh.edge_ids(fixed_edges)] = True
        free = nodes[~on[nodes]]
        node_dof = np.full(len(on), -1, dtype=np.int64)
        node_dof[free] = width * np.arange(len(free))
        return Field(node_dof, width, (width * free[:, None] + np.arange(width)).ravel(),
                     nodes[on[nodes]])

    def _build_interface_data(self):
        mesh = self.mesh
        vd = self.velocity_degree
        ends = mesh.interface_edges
        mids = mesh.num_vertices + mesh.edge_ids(ends)
        with_mids = np.column_stack([ends, mids])
        self.iface_edge_nodes = with_mids if vd == 2 else ends
        self.iface_edge_head_nodes = with_mids if self.head_degree == 2 else ends
        self.iface_lengths = np.linalg.norm(
            mesh.vertices[mesh.interface_edges[:, 1]]
            - mesh.vertices[mesh.interface_edges[:, 0]], axis=1)
        self.iface_normals = mesh.interface_normals
        self.iface_tangents = np.column_stack(
            [-self.iface_normals[:, 1], self.iface_normals[:, 0]])

        self.interface_nodes = np.unique(self.iface_edge_nodes)

        # alignment: every interface node must exist on both sides, and a node
        # constrained on one side must be constrained on the other
        nodes = self.interface_nodes
        shared = (np.isin(nodes, self.tri_nodes(vd)[self.fluid_tris])
                  & np.isin(nodes, self.tri_nodes(vd)[self.porous_tris]))
        one_sided = (self.u_node_dof[nodes] < 0) != (self.aux_node_dof[nodes] < 0)
        for bad, why in ((~shared, "not shared by both subdomains"),
                         (one_sided, "is constrained on one side only")):
            if bad.any():
                n = nodes[bad][0]
                raise SpaceError(f"interface node {n} at "
                                 f"{self.node_coords(vd)[n]} {why}")

    # -- value plumbing -----------------------------------------------------

    def node_values(self, kind, coeffs):
        """Per-node values of field ``kind`` from its free coefficients:
        (nn, 2) for a vector field, (nn,) for a scalar one, zero at nodes
        without dofs."""
        field = self.fields[kind]
        vals = np.zeros(field.width * len(field.node_dof))
        vals[field.index] = coeffs
        return vals.reshape(-1, 2) if field.width == 2 else vals

    def velocity_node_values(self, coeffs, dirichlet=None):
        """Fluid-velocity values per node, (nn, 2); constrained fluid nodes
        take ``dirichlet`` values (a callable of the node coordinates) when
        given, otherwise zero."""
        vals = self.node_values("velocity", coeffs)
        if dirichlet is not None:
            fixed = self.fields["velocity"].fixed
            coords = self.node_coords(self.velocity_degree)[fixed]
            vals[fixed] = _evaluate(dirichlet, coords, (2,)).T
        return vals

    def aux_node_values(self, coeffs):
        return self.node_values("aux", coeffs)

    def head_node_values(self, coeffs):
        return self.node_values("head", coeffs)

    def pressure_node_values(self, coeffs):
        return self.node_values("pressure", coeffs)

    def aux_interface_values(self, trace_vals):
        """Companion coefficients holding ``trace_vals`` (aligned with
        ``interface_nodes``) on the free interface dofs and zero elsewhere,
        plus the mask of those dofs."""
        dof = self.aux_node_dof[self.interface_nodes]
        idx = dof[dof >= 0, None] + np.arange(2)
        coeffs = np.zeros(self.num_aux_dofs)
        coeffs[idx] = trace_vals[dof >= 0]
        mask = np.zeros(self.num_aux_dofs, dtype=bool)
        mask[idx] = True
        return coeffs, mask

    def split_state(self, x):
        """Split a coupled block vector into (u, p, phi) coefficient views."""
        return (x[:self.offset_p], x[self.offset_p:self.offset_phi], x[self.offset_phi:])


# ---------------------------------------------------------------------------
# divergence-constrained lifting into the porous companion space
# ---------------------------------------------------------------------------

class LiftingResult:
    """Outcome of the interface-data lifting.

    Attributes
    ----------
    coeffs : (num_aux_dofs,) array
        Companion-space coefficients with the prescribed interface values.
    flux_defect : float
        Net interface flux of the data; the weak-divergence constraint can
        only hold against mean-free test functions when this is nonzero.
    constraint_residual : float
        Largest weak-divergence pairing against the constrained multiplier
        basis (solver roundoff).
    warnings : list of str
    """

    def __init__(self, coeffs, flux_defect, constraint_residual, warnings):
        self.coeffs = coeffs
        self.flux_defect = flux_defect
        self.constraint_residual = constraint_residual
        self.warnings = warnings


def trace_node_array(space, trace):
    """Normalize interface data to an array aligned with space.interface_nodes."""
    if callable(trace):
        coords = space.node_coords(space.velocity_degree)[space.interface_nodes]
        return _evaluate(trace, coords, (2,)).T
    arr = np.asarray(trace, dtype=float)
    if arr.shape != (len(space.interface_nodes), 2):
        raise InterpolationError(f"expected interface values of shape "
                                 f"({len(space.interface_nodes)}, 2), got {arr.shape}")
    return arr


@_per_space
def _lifting_system(space):
    """The factored lifting saddle matrix [[A_ii, D_i^T], [D_i, 0]], the
    interface columns A_ig and D_g of its two block rows, and the weak
    divergence pairing D; all belong to the space.  A is the companion
    strain matrix, i and g are its interior and interface dofs, and the
    lowest porous vertex leaves the multiplier space (D without its first
    row)."""
    from . import assembly

    A = assembly._companion_strain(space)
    D = assembly.aux_divergence_matrix(space)
    Dt = D[1:]
    on_iface = space.aux_interface_values(
        np.zeros((len(space.interface_nodes), 2)))[1]
    interior = ~on_iface
    Ai, Di = A[interior], Dt[:, interior]
    K = bmat([[Ai[:, interior], Di.T], [Di, None]], format="csc")
    lu = _factor(K, "lifting saddle system (the porous triangulation may be "
                 "too coarse)")
    return lu, Ai[:, on_iface], Dt[:, on_iface], D


def discrete_lifting(space, trace):
    """Extend interface velocity data into the porous companion space.

    Minimizes the squared strain seminorm subject to the weak-divergence
    constraint (div u, q) = 0 against porous P1 test functions with one
    pinned vertex, with the interface nodal values prescribed strongly and
    zero values on the outer porous boundary.  ``trace`` is a callable
    ``(x, y) -> (2,)`` or an array aligned with ``space.interface_nodes``;
    it must vanish at interface endpoints (nodes shared with the outer
    porous boundary).  Net flux above ``LIFTING_FLUX_TOL`` relative to the
    data is reported as a warning on the result, not an error: the
    constraint then holds against mean-free test functions only.
    """
    from . import assembly

    vals = trace_node_array(space, trace)
    scale = max(1.0, float(np.abs(vals).max(initial=0.0)))
    fixed = space.aux_node_dof[space.interface_nodes] < 0
    worst = float(np.abs(vals[fixed]).max(initial=0.0))
    if worst > 1e-10 * scale:
        raise InterpolationError(
            f"interface data must vanish at interface endpoints "
            f"(max |v| = {worst:.3e})")

    lu, Ag, Dg, D = _lifting_system(space)
    g, on_iface = space.aux_interface_values(vals)
    gv = g[on_iface]
    sol = lu.solve(-np.concatenate([Ag @ gv, Dg @ gv]))
    if not np.all(np.isfinite(sol)):
        raise SingularLinearSystem("lifting solve produced non-finite values")

    coeffs = g.copy()
    coeffs[~on_iface] = sol[:Ag.shape[0]]

    pair = (D @ coeffs)[1:]
    constraint_residual = float(np.abs(pair).max(initial=0.0))
    A = assembly._companion_strain(space)
    sys_scale = max(1.0, float(np.abs(A @ coeffs).max(initial=0.0)))
    if constraint_residual > 1e-6 * sys_scale:
        raise SingularLinearSystem(
            f"lifting constraint residual {constraint_residual:.3e} "
            "indicates an unreliable saddle solve")

    flux = float(np.asarray(D.sum(axis=0)).ravel() @ coeffs)
    warnings = []
    if abs(flux) > LIFTING_FLUX_TOL * scale:
        warnings.append(
            f"interface data carries net flux {flux:.3e}; weak divergence "
            "constraint relaxed to mean-free test functions")
    return LiftingResult(coeffs, flux, constraint_residual, warnings)
