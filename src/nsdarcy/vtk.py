"""Legacy ASCII VTK output of the coupled fields for visualization.

One unstructured grid over the whole two-region mesh: velocity and pressure
carry their fluid values and zero elsewhere, the head carries its porous
values, and the region tag rides along as cell data.  Higher-order fields
are sampled at the mesh vertices (visualization fidelity, not a transfer
format).
"""

import numpy as np

__all__ = ["write_legacy_vtk"]


def _fmt(x):
    return f"{float(x)!r}"


def write_legacy_vtk(path, space, state):
    """Write mesh, region tags, velocity, pressure, and head to ``path``."""
    mesh = space.mesh
    u_raw = state.u_raw(space)[:mesh.num_vertices]
    p_raw = state.p_raw(space)
    phi_vertex = state.phi_raw(space)
    if space.head_degree != 1:
        phi_vertex = phi_vertex[:mesh.num_vertices]

    lines = ["# vtk DataFile Version 3.0", "coupled fields", "ASCII",
             "DATASET UNSTRUCTURED_GRID",
             f"POINTS {mesh.num_vertices} double"]
    for x, y in mesh.vertices:
        lines.append(f"{_fmt(x)} {_fmt(y)} 0.0")

    nt = mesh.num_triangles
    lines.append(f"CELLS {nt} {4 * nt}")
    for a, b, c in mesh.triangles:
        lines.append(f"3 {a} {b} {c}")
    lines.append(f"CELL_TYPES {nt}")
    lines.extend(["5"] * nt)  # VTK_TRIANGLE

    lines.append(f"CELL_DATA {nt}")
    lines.append("SCALARS region int 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(str(int(t)) for t in mesh.tri_tags)

    lines.append(f"POINT_DATA {mesh.num_vertices}")
    lines.append("VECTORS velocity double")
    for vx, vy in u_raw:
        lines.append(f"{_fmt(vx)} {_fmt(vy)} 0.0")
    lines.append("SCALARS pressure double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(v) for v in p_raw)
    lines.append("SCALARS head double 1")
    lines.append("LOOKUP_TABLE default")
    lines.extend(_fmt(v) for v in phi_vertex)

    text = "\n".join(lines) + "\n"
    with open(path, "w") as fh:
        fh.write(text)
    return text
