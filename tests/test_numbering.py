"""Property tests of the numbering on generated meshes: every field of a
CoupledSpace, and the coupled vector, expands its free coefficients to
per-node values and restricts them back exactly, and the P2 node of each
mesh edge is its midpoint."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nsdarcy.fem import CoupledSpace
from nsdarcy.mesh import MeshError, build_rectangle_mesh, refine_uniform

# (nx, ny / 2, refined once, under the wavy map)
MESHES = st.tuples(st.integers(1, 6), st.integers(1, 6), st.booleans(),
                   st.booleans())
DEGREES = st.sampled_from([1, 2])


def _mesh(spec, wavy_map):
    nx, half_ny, refined, wavy = spec
    mesh = build_rectangle_mesh(nx, 2 * half_ny, 1.0)
    if refined:
        mesh = refine_uniform(mesh)
    return wavy_map(mesh) if wavy else mesh


@given(spec=MESHES, vd=DEGREES, hd=DEGREES, seed=st.integers(0, 2**32 - 1))
def test_every_field_round_trips_its_coefficients(wavy_map, spec, vd, hd,
                                                  seed):
    space = CoupledSpace(_mesh(spec, wavy_map), velocity_degree=vd,
                         head_degree=hd)
    rng = np.random.default_rng(seed)
    counts = {"velocity": space.num_velocity_dofs,
              "pressure": space.num_pressure_dofs,
              "head": space.num_head_dofs, "aux": space.num_aux_dofs,
              "porous_vertex": space.num_porous_vertices}
    expanders = {"velocity": space.velocity_node_values}
    assert set(space.fields) == set(counts)
    for kind, field in space.fields.items():
        free = np.flatnonzero(field.node_dof >= 0)
        assert counts[kind] == field.width * len(free)
        coeffs = rng.standard_normal(counts[kind])
        vals = space.node_values(kind, coeffs)
        assert np.array_equal(
            vals.ravel()[field.index], coeffs)
        per_node = vals.reshape(len(field.node_dof), field.width)
        assert np.array_equal(
            per_node[free],
            coeffs[field.node_dof[free, None] + np.arange(field.width)])
        assert not np.delete(per_node, free, axis=0).any()
        assert not np.isin(field.fixed, free).any()
        if kind in expanders:
            assert np.array_equal(expanders[kind](coeffs), vals)
    # the coupled dofs sit in the expanded velocity, pressure and head
    # numberings laid end to end
    x = rng.standard_normal(space.num_total_dofs)
    expanded = np.concatenate([
        space.node_values(kind, part).ravel()
        for kind, part in zip(("velocity", "pressure", "head"),
                              space.split_state(x))])
    assert len(expanded) == space.num_expanded_dofs
    assert np.array_equal(expanded[space.coupled_index], x)


@given(spec=MESHES, picks=st.lists(st.integers(0, 10**6), min_size=1,
                                   max_size=8))
def test_edge_node_is_the_midpoint_of_its_edge(wavy_map, spec, picks):
    mesh = _mesh(spec, wavy_map)
    space = CoupledSpace(mesh)
    e = np.array(picks) % len(mesh.edges)
    a, b = mesh.edges[e].T
    assert np.array_equal(mesh.edge_ids(np.column_stack([a, b])), e)
    assert np.array_equal(mesh.edge_ids(np.column_stack([b, a])), e)
    midpoint = 0.5 * (mesh.vertices[a] + mesh.vertices[b])
    assert np.array_equal(space.node_coords(2)[mesh.num_vertices + e],
                          midpoint)
    # local midside node k of a triangle is the edge opposite vertex k
    t = mesh.triangles
    for k in range(3):
        opposite = np.column_stack([t[:, (k + 1) % 3], t[:, (k + 2) % 3]])
        assert np.array_equal(space.tri_nodes(2)[:, 3 + k],
                              mesh.num_vertices + mesh.edge_ids(opposite))
    # opposite corners of the rectangle share no edge
    with pytest.raises(MeshError):
        mesh.edge_ids([[0, (spec[0] + 1) * (2 * spec[1] + 1) - 1]])
