"""Shared fixtures."""

import numpy as np
import pytest

from nsdarcy.fem import CoupledSpace
from nsdarcy.mesh import MixedMesh, build_rectangle_mesh


@pytest.fixture(scope="session")
def wavy_space():
    """The 6x12 rectangle under the conforming vertex map
    y -> y + 0.1 sin(pi x) y (2 - y): the outer boundary stays in place and
    the interface y = 1 becomes a sine arc, so every interface edge has its
    own normal (on the rectangle all normals are (0, -1))."""
    mesh = build_rectangle_mesh(6, 12, 1.0)
    x, y = mesh.vertices.T
    wavy = MixedMesh(np.column_stack([x, y + 0.1 * np.sin(np.pi * x) * y * (2 - y)]),
                     mesh.triangles, mesh.tri_tags, mesh.boundary_edges,
                     mesh.boundary_tags)
    return CoupledSpace(wavy)


@pytest.fixture
def counted():
    """Wrap a data callable so that ``wrapper.calls`` counts its calls."""
    def wrap(func):
        def wrapper(x, y):
            wrapper.calls += 1
            return func(x, y)
        wrapper.calls = 0
        return wrapper
    return wrap
