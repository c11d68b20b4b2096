"""Legacy ASCII VTK output of the coupled fields for visualization.

One unstructured grid over the whole two-region mesh: velocity and pressure
carry their fluid values and zero elsewhere, the head carries its porous
values, and the region tag rides along as cell data.  Higher-order fields
are sampled at the mesh vertices (visualization fidelity, not a transfer
format).  ``legacy_vtk`` builds the text early, and ``write_legacy_vtk``
writes it once the run has succeeded.
"""

__all__ = ["legacy_vtk", "write_legacy_vtk"]


def legacy_vtk(space, state):
    """The text of mesh, region tags, velocity, pressure, and head, from
    Python numbers (``%r`` of a float is its ``repr``, the shortest form
    that reads back)."""
    mesh = space.mesh
    nv, nt = mesh.num_vertices, mesh.num_triangles
    velocity = state.u_raw(space)[:nv].tolist()
    lines = ["# vtk DataFile Version 3.0", "coupled fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double",
             *("%r %r 0.0" % tuple(xy) for xy in mesh.vertices.tolist()),
             f"CELLS {nt} {4 * nt}",
             *("3 %d %d %d" % tuple(t) for t in mesh.triangles.tolist()),
             f"CELL_TYPES {nt}", *["5"] * nt,  # VTK_TRIANGLE
             f"CELL_DATA {nt}", "SCALARS region int 1", "LOOKUP_TABLE default",
             *map(str, mesh.tri_tags.tolist()),
             f"POINT_DATA {nv}", "VECTORS velocity double",
             *("%r %r 0.0" % tuple(v) for v in velocity),
             "SCALARS pressure double 1", "LOOKUP_TABLE default",
             *map(repr, state.p_raw(space).tolist()),
             "SCALARS head double 1", "LOOKUP_TABLE default",
             *map(repr, state.phi_raw(space)[:nv].tolist())]
    return "\n".join(lines) + "\n"


def write_legacy_vtk(path, text):
    """Write ``text``, from ``legacy_vtk``, to ``path``."""
    with open(path, "w") as fh:
        fh.write(text)
