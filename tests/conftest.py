"""Shared fixtures."""

import os

import numpy as np
import pytest
from hypothesis import settings
from scipy.sparse import coo_matrix

from nsdarcy import assembly
from nsdarcy.fem import CoupledSpace
from nsdarcy.mesh import POROUS, MixedMesh, build_rectangle_mesh

# property tests draw the same examples on every run and keep no database
settings.register_profile("nsdarcy", derandomize=True, deadline=None,
                          database=None, max_examples=40)
settings.load_profile("nsdarcy")


def _lifted(bump):
    """The vertex map y -> y + bump(x) y (2 - y) of a mesh of the built-in
    rectangle [0, 1] x [0, 2]: the outer boundary stays in place and the
    interface y = 1 becomes the graph of 1 + bump(x)."""
    def lift(mesh):
        x, y = mesh.vertices.T
        return MixedMesh(np.column_stack([x, y + bump(x) * y * (2 - y)]),
                         mesh.triangles, mesh.tri_tags, mesh.boundary_edges,
                         mesh.boundary_tags)
    return lift


_wavy = _lifted(lambda x: 0.1 * np.sin(np.pi * x))


def expanded(space, form, row_kind, col_kind):
    """The expanded matrix of two fields (every node's dofs, free or not)
    that an assembly form ``(L, rows, cols)`` sums to, as the coupled solver
    scatters it; the matrix builders return its free-dof restriction."""
    L, rows, cols = form
    return coo_matrix((L.ravel(), (np.broadcast_to(rows, L.shape).ravel(),
                                   np.broadcast_to(cols, L.shape).ravel())),
                      shape=(space.fields[row_kind].expanded_size,
                             space.fields[col_kind].expanded_size)).tocsr()


@pytest.fixture(scope="session")
def wavy_map():
    """The conforming vertex map y -> y + 0.1 sin(pi x) y (2 - y) of a mesh
    of the built-in rectangle [0, 1] x [0, 2]: the outer boundary stays in
    place and the interface y = 1 becomes a sine arc, so every interface
    edge has its own normal (on the rectangle all normals are (0, -1))."""
    return _wavy


@pytest.fixture(scope="session")
def interface_maps():
    """Conforming vertex maps of the built-in rectangle by the shape they
    give the interface: a sine arc (``wavy_map``), an oblique line
    (y -> y + 0.2 (x - 1/2) y (2 - y)) and a kink at x = 1/2
    (y -> y + 0.2 (1/2 - |x - 1/2|) y (2 - y))."""
    return {"wavy": _wavy,
            "sheared": _lifted(lambda x: 0.2 * (x - 0.5)),
            "polygonal": _lifted(lambda x: 0.2 * (0.5 - np.abs(x - 0.5)))}


@pytest.fixture(scope="session")
def wavy_space():
    """The 6x12 rectangle under the wavy vertex map (``wavy_map``)."""
    return CoupledSpace(_wavy(build_rectangle_mesh(6, 12, 1.0)))


@pytest.fixture
def inline_jobs(monkeypatch):
    """``workers.Jobs`` forks no worker, as on one CPU: each command runs
    its check in the calling process after its steps, for tests that
    observe a command's work in-process."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


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


@pytest.fixture(scope="session")
def aux_flux_agreement():
    """The independent quadrature check of a companion solve: the relative
    gap between the companion boundary pairing evaluated through the
    assembled matrix and through quadrature of its energy form."""
    def gap(space, aux):
        uph = space.node_values("aux", aux.coeffs)
        via_matrix = float(aux.coeffs @ (aux.matrix @ aux.coeffs))
        via_quadrature = (
            2 * aux.sigma * assembly.strain_energy(space, uph, POROUS)
            + assembly.convection_value(space, aux.wind_raw, uph, uph, POROUS,
                                        skew=False))
        return abs(via_matrix - via_quadrature) / max(1.0, abs(via_quadrature))
    return gap
