"""Two-domain triangular meshes.

A mesh covers a free-flow subdomain and a porous subdomain that meet along a
shared polygonal interface.  Triangles carry a subdomain tag, boundary edges
carry one of three outer-boundary tags, and the interface edge list (with
fluid-side outward normals) is derived from the triangle tags.

Subdomain tags
    FLUID, POROUS
Boundary tags
    GAMMA_F   outer boundary of the free-flow subdomain (no-slip wall)
    GAMMA_PD  porous boundary with prescribed head
    GAMMA_PN  porous boundary with zero normal flux
"""

import numpy as np

FLUID = 1
POROUS = 2

GAMMA_F = 1
GAMMA_PD = 2
GAMMA_PN = 3

TRI_TAG_NAMES = {FLUID: "fluid", POROUS: "porous"}
EDGE_TAG_NAMES = {GAMMA_F: "gamma_f", GAMMA_PD: "gamma_pd", GAMMA_PN: "gamma_pn"}
TRI_TAG_IDS = {v: k for k, v in TRI_TAG_NAMES.items()}
EDGE_TAG_IDS = {v: k for k, v in EDGE_TAG_NAMES.items()}

DUMP_HEADER = "nsdarcy-mesh 1"


class MeshError(Exception):
    """Base class for mesh construction and validation failures."""


class MeshFormatError(MeshError):
    """Malformed mesh file (unreadable section, bad counts, empty blocks)."""


class UnknownPhysicalName(MeshError):
    """A physical group name outside the supported vocabulary."""


class UnsupportedElement(MeshError):
    """An element type the reader does not accept (e.g. quadrilaterals)."""


class UnmatchedInterfaceEdge(MeshError):
    """Tagged interface edges disagree with the fluid/porous adjacency."""


def _unique_edges(triangles):
    """Return (edges, tri_to_edge) with edges as sorted vertex pairs.

    Edges are numbered in lexicographic order of their (min, max) vertex
    pair, which makes the numbering independent of triangle order.
    tri_to_edge[t, k] is the edge opposite local vertex k of triangle t.
    """
    t = np.asarray(triangles)
    # edge k is opposite vertex k: (1,2), (2,0), (0,1)
    raw = np.concatenate([t[:, [1, 2]], t[:, [2, 0]], t[:, [0, 1]]])
    raw = np.sort(raw, axis=1)
    edges, inverse = np.unique(raw, axis=0, return_inverse=True)
    tri_to_edge = inverse.reshape(3, len(t)).T
    return edges, tri_to_edge


def triangle_areas(vertices, triangles):
    p0 = vertices[triangles[:, 0]]
    a = vertices[triangles[:, 1]] - p0
    b = vertices[triangles[:, 2]] - p0
    return 0.5 * (a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0])


class MixedMesh:
    """Conforming triangulation of a fluid/porous two-domain geometry.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex indices; reoriented counterclockwise on construction.
    tri_tags : (nt,) int array of FLUID/POROUS
    boundary_edges : (nb, 2) int array
        Every edge with exactly one adjacent triangle, in any order.
    boundary_tags : (nb,) int array of GAMMA_F/GAMMA_PD/GAMMA_PN

    The interface edge list, the adjacent fluid/porous triangle of each
    interface edge, and the unit normal pointing out of the fluid subdomain
    are derived from the triangle tags and validated.  Validation keeps the
    one edge table of the mesh: ``edges`` (sorted vertex pairs in
    lexicographic order) and ``tri_to_edge``; ``edge_ids`` looks vertex
    pairs up in it.
    """

    def __init__(self, vertices, triangles, tri_tags, boundary_edges, boundary_tags):
        self.vertices = np.ascontiguousarray(vertices, dtype=float)
        self.triangles = np.ascontiguousarray(triangles, dtype=np.int64)
        self.tri_tags = np.ascontiguousarray(tri_tags, dtype=np.int64)
        self.boundary_edges = np.ascontiguousarray(boundary_edges, dtype=np.int64).reshape(-1, 2)
        self.boundary_tags = np.ascontiguousarray(boundary_tags, dtype=np.int64)

        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if len(self.triangles) == 0:
            raise MeshError("empty triangulation")
        if self.triangles.min() < 0 or self.triangles.max() >= len(self.vertices):
            raise MeshError("triangle vertex index out of range")
        if len(self.tri_tags) != len(self.triangles):
            raise MeshError("one subdomain tag per triangle required")
        if len(self.boundary_tags) != len(self.boundary_edges):
            raise MeshError("one tag per boundary edge required")

        # counterclockwise orientation
        areas = triangle_areas(self.vertices, self.triangles)
        flip = areas < 0
        if np.any(flip):
            self.triangles[flip] = self.triangles[flip][:, [0, 2, 1]]

        self._build_interface(self._validate())

    # -- basic quantities --------------------------------------------------

    @property
    def num_vertices(self):
        return len(self.vertices)

    @property
    def num_triangles(self):
        return len(self.triangles)

    @property
    def h(self):
        """Mesh size: longest edge over all triangles."""
        t = self.triangles
        v = self.vertices
        lengths = [np.linalg.norm(v[t[:, i]] - v[t[:, j]], axis=1)
                   for i, j in ((0, 1), (1, 2), (2, 0))]
        return float(np.max(lengths))

    def fluid_triangles(self):
        return np.flatnonzero(self.tri_tags == FLUID)

    def porous_triangles(self):
        return np.flatnonzero(self.tri_tags == POROUS)

    def subdomain_area(self, tag):
        areas = triangle_areas(self.vertices, self.triangles)
        return float(np.sum(areas[self.tri_tags == tag]))

    # -- validation --------------------------------------------------------

    def _validate(self):
        """Check the mesh, keep its edge table, and return the two
        triangles of each edge."""
        v, t = self.vertices, self.triangles
        if not np.all(np.isfinite(v)):
            raise MeshError("non-finite vertex coordinates")

        scale = max(1.0, float(np.abs(v).max()))
        rounded = np.round(v / (1e-12 * scale)).astype(np.int64)
        if len(np.unique(rounded, axis=0)) != len(v):
            raise MeshError("duplicate vertices")

        areas = triangle_areas(v, t)
        if np.any(areas <= 1e-14 * scale * scale):
            raise MeshError("degenerate triangle (non-positive area)")

        bad = ~np.isin(self.tri_tags, (FLUID, POROUS))
        if np.any(bad):
            raise MeshError("triangle without a fluid/porous subdomain tag")
        if not np.any(self.tri_tags == FLUID) or not np.any(self.tri_tags == POROUS):
            raise MeshError("both subdomains must be nonempty")

        bad = ~np.isin(self.boundary_tags, (GAMMA_F, GAMMA_PD, GAMMA_PN))
        if np.any(bad):
            raise MeshError("boundary edge with unknown tag")

        # boundary roster must equal the set of single-neighbor edges
        self.edges, self.tri_to_edge = _unique_edges(t)
        self._edge_keys = self._pair_keys(self.edges)
        counts = np.bincount(self.tri_to_edge.ravel(), minlength=len(self.edges))
        if counts.max() > 2:
            raise MeshError("edge shared by more than two triangles")

        single = set(map(tuple, self.edges[counts == 1].tolist()))
        listed = set(map(tuple, np.sort(self.boundary_edges, axis=1).tolist()))
        if len(listed) != len(self.boundary_edges):
            raise MeshError("boundary edge listed more than once")
        if single != listed:
            missing = single - listed
            extra = listed - single
            raise MeshError(
                f"boundary roster mismatch: missing {sorted(missing)}, extra {sorted(extra)}")

        # the lower and the higher triangle of each edge (the same one on
        # the boundary)
        tri = np.argsort(self.tri_to_edge.ravel(), kind="stable") // 3
        start = np.cumsum(counts) - counts
        neighbors = tri[start], tri[start + counts - 1]

        # boundary tags must sit on the matching subdomain
        tri_tag = self.tri_tags[neighbors[0][self.edge_ids(self.boundary_edges)]]
        on_gamma_f = self.boundary_tags == GAMMA_F
        if np.any(on_gamma_f & (tri_tag != FLUID)):
            raise MeshError("gamma_f edge adjacent to a porous triangle")
        if np.any(~on_gamma_f & (tri_tag != POROUS)):
            raise MeshError("porous boundary edge adjacent to a fluid triangle")

        if not np.any(self.boundary_tags == GAMMA_F):
            raise MeshError("gamma_f must have positive length")
        if not np.any(self.boundary_tags == GAMMA_PD):
            raise MeshError("gamma_pd must have positive length")
        return neighbors

    def _pair_keys(self, pairs):
        """One integer per vertex pair, the same in either orientation and
        increasing in the lexicographic order of (min, max)."""
        p = np.sort(np.asarray(pairs, dtype=np.int64).reshape(-1, 2), axis=1)
        return p[:, 0] * self.num_vertices + p[:, 1]

    def edge_ids(self, pairs):
        """Edge id (row of ``edges``) of each vertex pair, either orientation."""
        keys = self._pair_keys(pairs)
        ids = np.searchsorted(self._edge_keys, keys)
        if not np.array_equal(self._edge_keys[np.minimum(ids, len(self.edges) - 1)], keys):
            raise MeshError("vertex pair that is not an edge of the mesh")
        return ids

    def _build_interface(self, neighbors):
        # edges are in lexicographic order, and so is the interface
        t0, t1 = neighbors
        iface = np.flatnonzero(self.tri_tags[t0] != self.tri_tags[t1])
        if not len(iface):
            raise MeshError("fluid and porous subdomains do not touch")
        t0, t1 = t0[iface], t1[iface]
        fluid_first = self.tri_tags[t0] == FLUID
        self.interface_edges = self.edges[iface]
        self.interface_fluid_tri = np.where(fluid_first, t0, t1)
        self.interface_porous_tri = np.where(fluid_first, t1, t0)

        normals = np.empty((len(self.interface_edges), 2))
        for k, (a, b) in enumerate(self.interface_edges):
            tvec = self.vertices[b] - self.vertices[a]
            n = np.array([tvec[1], -tvec[0]]) / np.linalg.norm(tvec)
            mid = 0.5 * (self.vertices[a] + self.vertices[b])
            centroid = self.vertices[self.triangles[self.interface_fluid_tri[k]]].mean(axis=0)
            if np.dot(n, mid - centroid) < 0:
                n = -n
            normals[k] = n
        self.interface_normals = normals  # unit normal out of the fluid side


def build_rectangle_mesh(nx, ny, split_y, bounds=(0.0, 1.0, 0.0, 2.0)):
    """Structured crossed-triangle mesh of a stacked rectangle geometry.

    The rectangle [x0, x1] x [y0, y1] is divided into nx-by-ny cells, each
    split into two triangles with checkerboard-alternating diagonals.  Cells
    above y = split_y are tagged FLUID, cells below POROUS, so split_y must
    lie on a horizontal grid line strictly inside the rectangle.

    Boundary classification: y = y1 and the side walls above the split form
    GAMMA_F; y = y0 is GAMMA_PD; the side walls below the split are GAMMA_PN.
    """
    x0, x1, y0, y1 = map(float, bounds)
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be positive")
    dx, dy = (x1 - x0) / nx, (y1 - y0) / ny
    jrow = (split_y - y0) / dy
    if abs(jrow - round(jrow)) > 1e-12 * max(1.0, abs(split_y)):
        raise MeshError(f"split_y={split_y} does not lie on a horizontal grid line")
    jrow = int(round(jrow))
    if not 1 <= jrow <= ny - 1:
        raise MeshError("split_y must be strictly inside the rectangle")

    xs = x0 + dx * np.arange(nx + 1)
    ys = y0 + dy * np.arange(ny + 1)
    vx, vy = np.meshgrid(xs, ys)
    vertices = np.column_stack([vx.ravel(), vy.ravel()])

    def vid(i, j):
        return j * (nx + 1) + i

    triangles, tags = [], []
    for j in range(ny):
        tag = POROUS if j < jrow else FLUID
        for i in range(nx):
            v00, v10 = vid(i, j), vid(i + 1, j)
            v01, v11 = vid(i, j + 1), vid(i + 1, j + 1)
            if (i + j) % 2 == 0:
                triangles += [(v00, v10, v11), (v00, v11, v01)]
            else:
                triangles += [(v00, v10, v01), (v10, v11, v01)]
            tags += [tag, tag]

    bedges, btags = [], []
    for i in range(nx):  # bottom, top
        bedges.append((vid(i, 0), vid(i + 1, 0)))
        btags.append(GAMMA_PD)
        bedges.append((vid(i, ny), vid(i + 1, ny)))
        btags.append(GAMMA_F)
    for j in range(ny):  # left, right
        side = GAMMA_PN if j < jrow else GAMMA_F
        bedges.append((vid(0, j), vid(0, j + 1)))
        btags.append(side)
        bedges.append((vid(nx, j), vid(nx, j + 1)))
        btags.append(side)

    return MixedMesh(vertices, np.array(triangles), np.array(tags),
                     np.array(bedges), np.array(btags))


def refine_uniform(mesh):
    """Refine every triangle into four by connecting edge midpoints.

    Children inherit the parent subdomain tag; split boundary edges inherit
    the parent boundary tag.  Interface data is re-derived by the
    constructor, so interface edge counts double per refinement.
    """
    mids = 0.5 * (mesh.vertices[mesh.edges[:, 0]] + mesh.vertices[mesh.edges[:, 1]])
    vertices = np.vstack([mesh.vertices, mids])

    # one row per parent: its four children, and the two halves of each
    # boundary edge
    v0, v1, v2 = mesh.triangles.T
    m12, m20, m01 = (mesh.num_vertices + mesh.tri_to_edge).T
    tris = np.column_stack([v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20])
    a, b = mesh.boundary_edges.T
    m = mesh.num_vertices + mesh.edge_ids(mesh.boundary_edges)
    bedges = np.column_stack([a, m, m, b])

    return MixedMesh(vertices, tris.reshape(-1, 3), np.repeat(mesh.tri_tags, 4),
                     bedges.reshape(-1, 2), np.repeat(mesh.boundary_tags, 2))


def refinement_chain(mesh, levels):
    """The first ``levels`` meshes of the sequence ``mesh``, its uniform
    refinement, the refinement of that, ..., each refined only once."""
    chain = [mesh]
    for _ in range(levels - 1):
        chain.append(refine_uniform(chain[-1]))
    return chain[:levels]


# -- canonical text dump -------------------------------------------------


def dump_mesh(mesh):
    """Serialize a mesh to the canonical versioned text format."""
    lines = [DUMP_HEADER]
    lines.append(f"vertices {mesh.num_vertices}")
    for x, y in mesh.vertices:
        lines.append(f"{float(x)!r} {float(y)!r}")
    lines.append(f"triangles {mesh.num_triangles}")
    for (a, b, c), tag in zip(mesh.triangles, mesh.tri_tags):
        lines.append(f"{a} {b} {c} {TRI_TAG_NAMES[tag]}")
    lines.append(f"boundary_edges {len(mesh.boundary_edges)}")
    for (a, b), tag in zip(mesh.boundary_edges, mesh.boundary_tags):
        lines.append(f"{a} {b} {EDGE_TAG_NAMES[tag]}")
    return "\n".join(lines) + "\n"


def load_mesh(text):
    """Parse the canonical text format produced by dump_mesh."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != DUMP_HEADER:
        raise MeshFormatError(f"expected header {DUMP_HEADER!r}")
    pos = 1

    def block(name, ncols, converter):
        nonlocal pos
        if pos >= len(lines):
            raise MeshFormatError(f"missing {name} block")
        head = lines[pos].split()
        if len(head) != 2 or head[0] != name:
            raise MeshFormatError(f"expected '{name} <count>', got {lines[pos]!r}")
        try:
            count = int(head[1])
        except ValueError as exc:
            raise MeshFormatError(f"bad {name} count") from exc
        pos += 1
        rows = []
        for _ in range(count):
            if pos >= len(lines):
                raise MeshFormatError(f"truncated {name} block")
            parts = lines[pos].split()
            if len(parts) != ncols:
                raise MeshFormatError(f"bad {name} row: {lines[pos]!r}")
            try:
                rows.append(converter(parts))
            except (ValueError, OverflowError):
                raise MeshFormatError(f"bad {name} row: {lines[pos]!r}") from None
            pos += 1
        return rows

    verts = block("vertices", 2, lambda p: (float(p[0]), float(p[1])))

    def tri_row(p):
        if p[3] not in TRI_TAG_IDS:
            raise MeshFormatError(f"unknown subdomain tag {p[3]!r}")
        return (*map(np.int64, p[:3]), TRI_TAG_IDS[p[3]])

    tris = block("triangles", 4, tri_row)

    def edge_row(p):
        if p[2] not in EDGE_TAG_IDS:
            raise MeshFormatError(f"unknown boundary tag {p[2]!r}")
        return (*map(np.int64, p[:2]), EDGE_TAG_IDS[p[2]])

    bed = block("boundary_edges", 3, edge_row)
    if pos != len(lines):
        raise MeshFormatError("trailing content after boundary_edges block")

    tris = np.array(tris, dtype=np.int64).reshape(-1, 4)
    bed = np.array(bed, dtype=np.int64).reshape(-1, 3)
    return MixedMesh(np.array(verts), tris[:, :3], tris[:, 3], bed[:, :2], bed[:, 2])


# -- Gmsh MSH 2.2 ASCII subset --------------------------------------------

_GMSH_TRIANGLE = 2
_GMSH_LINE = 1
_GMSH_POINT = 15

_PHYSICAL_VOCABULARY = {"fluid", "porous", "gamma_f", "gamma_pd", "gamma_pn", "interface"}


def _numbers(kind, tokens, record):
    """``tokens`` converted by ``kind``, or a MeshFormatError naming the record."""
    try:
        return [kind(t) for t in tokens]
    except ValueError:
        raise MeshFormatError(f"non-numeric field in record {record!r}") from None


def load_gmsh_subset(path):
    """Read a two-domain mesh from a Gmsh MSH 2.2 ASCII file.

    Supported content: $MeshFormat 2.2, $PhysicalNames drawn from
    {fluid, porous, gamma_f, gamma_pd, gamma_pn, interface}, $Nodes, and
    $Elements with 3-node triangles, 2-node lines and points.  Anything
    else raises a specific MeshError subclass.  The interface is derived
    from the fluid/porous adjacency; interface lines are optional, and
    where a file tags any, they are cross-checked against it.
    """
    with open(path) as fh:
        text = fh.read()
    return parse_gmsh_subset(text)


def parse_gmsh_subset(text):
    sections = {}
    lines = text.splitlines()
    i = 0
    while i < len(lines):
        ln = lines[i].strip()
        if ln.startswith("$") and not ln.startswith("$End"):
            name = ln[1:]
            body = []
            i += 1
            while i < len(lines) and lines[i].strip() != f"$End{name}":
                body.append(lines[i].strip())
                i += 1
            if i == len(lines):
                raise MeshFormatError(f"unterminated section ${name}")
            sections[name] = [b for b in body if b]
        i += 1

    if "MeshFormat" not in sections or not sections["MeshFormat"]:
        raise MeshFormatError("missing $MeshFormat")
    fmt = sections["MeshFormat"][0].split()
    if not fmt or not fmt[0].startswith("2.2") or (len(fmt) > 1 and fmt[1] != "0"):
        raise MeshFormatError(f"unsupported MSH format {sections['MeshFormat'][0]!r} "
                              "(need ASCII 2.2)")

    phys = {}
    for ln in sections.get("PhysicalNames", [])[1:]:
        parts = ln.split(None, 2)
        if len(parts) != 3:
            raise MeshFormatError(f"bad physical name record {ln!r}")
        dim, pid = _numbers(int, parts[:2], ln)
        name = parts[2].strip().strip('"')
        if name not in _PHYSICAL_VOCABULARY:
            raise UnknownPhysicalName(
                f"physical name {name!r} not in {sorted(_PHYSICAL_VOCABULARY)}")
        phys[pid] = (dim, name)

    node_lines = sections.get("Nodes", [])
    if len(node_lines) < 2:
        raise MeshFormatError("missing or empty $Nodes")
    nodes = {}
    for ln in node_lines[1:]:
        parts = ln.split()
        if len(parts) < 4:
            raise MeshFormatError(f"bad node record {ln!r}")
        nid = _numbers(int, parts[:1], ln)[0]
        x, y, z = _numbers(float, parts[1:4], ln)
        if nid in nodes:
            raise MeshFormatError(f"node record {ln!r} repeats node id {nid}")
        if abs(z) > 1e-12:
            raise MeshFormatError("nodes must lie in the z=0 plane")
        nodes[nid] = (x, y)
    remap = {nid: r for r, nid in enumerate(sorted(nodes))}
    vertices = np.array([nodes[nid] for nid in sorted(nodes)])

    elem_lines = sections.get("Elements", [])
    if len(elem_lines) < 2:
        raise MeshFormatError("missing or empty $Elements")

    def vertices_of(conn, count, ln):
        if len(conn) != count:
            raise MeshFormatError(f"element record {ln!r} has {len(conn)} "
                                  f"nodes, not {count}")
        if not all(c in remap for c in conn):
            raise MeshFormatError(f"element record {ln!r} names a node "
                                  "that $Nodes does not declare")
        return [remap[c] for c in conn]

    tris, tri_tags = [], []
    bedges, btags = [], []
    tagged_iface = []
    for ln in elem_lines[1:]:
        parts = _numbers(int, ln.split(), ln)
        if len(parts) < 3 or parts[2] < 0:
            raise MeshFormatError(f"bad element record {ln!r}")
        etype, ntags = parts[1], parts[2]
        tags = parts[3:3 + ntags]
        conn = parts[3 + ntags:]
        if not tags:
            raise MeshFormatError(f"element without a physical tag: {ln!r}")
        if tags[0] not in phys:
            raise UnknownPhysicalName(f"element references undeclared physical id {tags[0]}")
        name = phys[tags[0]][1]
        if etype == _GMSH_POINT:
            continue
        if etype == _GMSH_TRIANGLE:
            if name not in ("fluid", "porous"):
                raise UnknownPhysicalName(f"triangle tagged {name!r}; expected fluid/porous")
            tris.append(vertices_of(conn, 3, ln))
            tri_tags.append(TRI_TAG_IDS[name])
        elif etype == _GMSH_LINE:
            if name == "interface":
                tagged_iface.append(tuple(sorted(vertices_of(conn, 2, ln))))
            elif name in EDGE_TAG_IDS:
                bedges.append(vertices_of(conn, 2, ln))
                btags.append(EDGE_TAG_IDS[name])
            else:
                raise UnknownPhysicalName(f"line tagged {name!r}")
        else:
            raise UnsupportedElement(f"element type {etype} not supported "
                                     "(triangles, lines and points only)")

    if not tris:
        raise MeshFormatError("no triangles in $Elements")

    mesh = MixedMesh(vertices, np.array(tris), np.array(tri_tags),
                     np.array(bedges).reshape(-1, 2), np.array(btags))

    # interface lines are optional; those a file has must match exactly
    derived = set(map(tuple, mesh.interface_edges.tolist()))
    tagged = set(tagged_iface)
    if tagged and tagged != derived:
        raise UnmatchedInterfaceEdge(
            f"interface lines disagree with subdomain adjacency: "
            f"tagged-only {sorted(tagged - derived)}, derived-only {sorted(derived - tagged)}")
    return mesh
