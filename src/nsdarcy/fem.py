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

import numpy as np
from scipy.sparse import bmat, csc_matrix
from scipy.sparse.linalg import splu

from .mesh import GAMMA_F, GAMMA_PD, GAMMA_PN, _unique_edges

# net interface flux of a lifting, relative to its data, above which the
# lifting carries a warning
LIFTING_FLUX_TOL = 1e-10


class SpaceError(Exception):
    """Inconsistent discrete-space construction."""


class InterpolationError(Exception):
    """Data that the target space cannot represent (e.g. nonzero trace on a
    constrained boundary)."""


class SingularLinearSystem(Exception):
    """A linear system that cannot be solved reliably; carries defect info."""


def _factor(A, context):
    """Sparse LU factor of ``A``; a singular ``A`` raises
    SingularLinearSystem with ``context`` leading the message."""
    A = csc_matrix(A)
    # SuperLU can crash outright on rank-deficient inputs (e.g. unstable
    # velocity/pressure pairings), so reject those before factorizing
    from scipy.sparse.csgraph import structural_rank
    if structural_rank(A) < A.shape[0]:
        raise SingularLinearSystem(
            f"{context}: structurally singular system "
            "(rank-deficient discretization, e.g. an unstable element pair)")
    try:
        return splu(A)
    except RuntimeError as exc:
        raise SingularLinearSystem(f"{context}: {exc}") from exc


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

class CoupledSpace:
    """Degree-of-freedom bookkeeping for the coupled discrete spaces.

    Blocks of the coupled system, in order: fluid velocity (two interleaved
    components per free node), fluid pressure (all fluid vertices; the
    zero-mean gauge is handled by the solver), porous head (free porous
    nodes).  The porous companion velocity space has its own numbering and is
    not part of the coupled block vector.

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

        self.edges, self.tri_to_edge = _unique_edges(mesh.triangles)
        nv = mesh.num_vertices
        mids = 0.5 * (mesh.vertices[self.edges[:, 0]] + mesh.vertices[self.edges[:, 1]])
        self._coords = {1: mesh.vertices, 2: np.vstack([mesh.vertices, mids])}
        self._tri_nodes = {1: mesh.triangles,
                           2: np.column_stack([mesh.triangles, nv + self.tri_to_edge])}
        self._edge_index = {tuple(e): i for i, e in enumerate(self.edges)}

        self.fluid_tris = mesh.fluid_triangles()
        self.porous_tris = mesh.porous_triangles()

        bed = np.sort(mesh.boundary_edges, axis=1)
        btag = mesh.boundary_tags
        gamma_f_edges = bed[btag == GAMMA_F]
        gamma_pd_edges = bed[btag == GAMMA_PD]
        gamma_p_edges = bed[np.isin(btag, (GAMMA_PD, GAMMA_PN))]

        vd, hd = velocity_degree, head_degree
        fluid_nodes = np.unique(self._tri_nodes[vd][self.fluid_tris])
        porous_nodes_v = np.unique(self._tri_nodes[vd][self.porous_tris])
        porous_nodes_h = np.unique(self._tri_nodes[hd][self.porous_tris])

        on_gamma_f = self._nodes_on(gamma_f_edges, vd)
        on_gamma_p = self._nodes_on(gamma_p_edges, vd)
        on_gamma_pd_h = self._nodes_on(gamma_pd_edges, hd)

        # fluid velocity: 2 dofs per free fluid node, x at 2k, y at 2k+1
        self.u_node_dof = np.full(self.num_nodes(vd), -1, dtype=np.int64)
        free = fluid_nodes[~on_gamma_f[fluid_nodes]]
        self.u_node_dof[free] = 2 * np.arange(len(free))
        self.num_velocity_dofs = 2 * len(free)

        # pressure: P1 on all fluid vertices
        fluid_verts = np.unique(mesh.triangles[self.fluid_tris])
        self.p_vertex_dof = np.full(nv, -1, dtype=np.int64)
        self.p_vertex_dof[fluid_verts] = np.arange(len(fluid_verts))
        self.num_pressure_dofs = len(fluid_verts)

        # head: free porous nodes (gamma_pd removed)
        self.phi_node_dof = np.full(self.num_nodes(hd), -1, dtype=np.int64)
        free_h = porous_nodes_h[~on_gamma_pd_h[porous_nodes_h]]
        self.phi_node_dof[free_h] = np.arange(len(free_h))
        self.num_head_dofs = len(free_h)

        # companion velocity on the porous side: zero on gamma_pd+gamma_pn,
        # free on the interface
        self.aux_node_dof = np.full(self.num_nodes(vd), -1, dtype=np.int64)
        free_a = porous_nodes_v[~on_gamma_p[porous_nodes_v]]
        self.aux_node_dof[free_a] = 2 * np.arange(len(free_a))
        self.num_aux_dofs = 2 * len(free_a)

        # porous P1 vertices: multiplier space for the weak-divergence
        # constraint of the lifting
        porous_verts = np.unique(mesh.triangles[self.porous_tris])
        self.porous_vertex_row = np.full(nv, -1, dtype=np.int64)
        self.porous_vertex_row[porous_verts] = np.arange(len(porous_verts))
        self.num_porous_vertices = len(porous_verts)

        self.offset_u = 0
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

    def _nodes_on(self, edge_list, degree):
        marks = np.zeros(self.num_nodes(degree), dtype=bool)
        if len(edge_list):
            marks[np.asarray(edge_list).ravel()] = True
            if degree == 2:
                nv = self.mesh.num_vertices
                for a, b in edge_list:
                    marks[nv + self._edge_index[(a, b)]] = True
        return marks

    def _build_interface_data(self):
        mesh = self.mesh
        vd = self.velocity_degree
        ends = mesh.interface_edges
        mids = mesh.num_vertices + np.array(
            [self._edge_index[tuple(sorted(e))] for e in ends.tolist()],
            dtype=np.int64)
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
        coords = self.node_coords(vd)
        fluid_set = set(np.unique(self.tri_nodes(vd)[self.fluid_tris]).tolist())
        porous_set = set(np.unique(self.tri_nodes(vd)[self.porous_tris]).tolist())
        for n in self.interface_nodes:
            n = int(n)
            if n not in fluid_set or n not in porous_set:
                raise SpaceError(f"interface node {n} at {coords[n]} not shared "
                                 "by both subdomains")
            fluid_fixed = self.u_node_dof[n] < 0
            aux_fixed = self.aux_node_dof[n] < 0
            if fluid_fixed != aux_fixed:
                raise SpaceError(f"interface node {n} at {coords[n]} is "
                                 "constrained on one side only")

    # -- value plumbing -----------------------------------------------------

    def velocity_node_values(self, coeffs, dirichlet=None):
        """Expand fluid-velocity coefficients to per-node values, (nn, 2).

        Constrained nodes take ``dirichlet`` values (a callable of the node
        coordinates) when given, otherwise zero.  Nodes outside the fluid
        subdomain are zero.
        """
        vals = self._vector_values(self.u_node_dof, coeffs)
        if dirichlet is not None:
            fluid_nodes = np.unique(self.tri_nodes(self.velocity_degree)[self.fluid_tris])
            fixed = fluid_nodes[self.u_node_dof[fluid_nodes] < 0]
            coords = self.node_coords(self.velocity_degree)[fixed]
            vals[fixed] = _evaluate(dirichlet, coords, (2,)).T
        return vals

    def aux_node_values(self, coeffs):
        """Expand companion-velocity coefficients to per-node values, (nn, 2)."""
        return self._vector_values(self.aux_node_dof, coeffs)

    @staticmethod
    def _vector_values(node_dof, coeffs):
        """Per-node values (nn, 2) of the vector field numbered by ``node_dof``
        (x at ``node_dof``, y right after; zero at constrained nodes)."""
        vals = np.zeros((len(node_dof), 2))
        free = node_dof >= 0
        vals[free] = coeffs[node_dof[free, None] + np.arange(2)]
        return vals

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

    def head_node_values(self, coeffs, dirichlet=None):
        vals = np.zeros(self.num_nodes(self.head_degree))
        free = self.phi_node_dof >= 0
        vals[free] = coeffs[self.phi_node_dof[free]]
        if dirichlet is not None:
            porous_nodes = np.unique(self.tri_nodes(self.head_degree)[self.porous_tris])
            fixed = porous_nodes[self.phi_node_dof[porous_nodes] < 0]
            vals[fixed] = _evaluate(dirichlet, self.node_coords(self.head_degree)[fixed])
        return vals

    def pressure_node_values(self, coeffs):
        vals = np.zeros(self.mesh.num_vertices)
        free = self.p_vertex_dof >= 0
        vals[free] = coeffs[self.p_vertex_dof[free]]
        return vals

    def interface_trace(self, u_coeffs, dirichlet=None):
        """Values of a fluid-velocity field at the interface nodes, (ni, 2)."""
        vals = self.velocity_node_values(u_coeffs, dirichlet)
        return vals[self.interface_nodes]

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

    A = assembly._companion_strain(space)
    D = assembly.aux_divergence_matrix(space)

    g, on_iface = space.aux_interface_values(vals)
    interior = ~on_iface
    Dt = D[1:]  # the lowest porous vertex leaves the multiplier space
    Ai, Di, gv = A[interior], Dt[:, interior], g[on_iface]
    K = bmat([[Ai[:, interior], Di.T], [Di, None]], format="csc")
    rhs = -np.concatenate([Ai[:, on_iface] @ gv, Dt[:, on_iface] @ gv])
    sol = _factor(K, "lifting saddle system (the porous triangulation may be "
                  "too coarse)").solve(rhs)
    if not np.all(np.isfinite(sol)):
        raise SingularLinearSystem("lifting solve produced non-finite values")

    coeffs = g.copy()
    coeffs[interior] = sol[:interior.sum()]

    pair = Dt @ coeffs
    constraint_residual = float(np.abs(pair).max(initial=0.0))
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
