"""The factorization path: saddle orders, diagonally pivoted factors against
a COLAMD reference, fill, one order per space, and the fixed pattern of the
coupled operator."""

from collections import Counter

import numpy as np
import pytest
from scipy.sparse import bmat, csc_matrix, csr_matrix
from scipy.sparse.linalg import splu

from nsdarcy import assembly as asm
from nsdarcy import solver as slv
from nsdarcy.fem import CoupledSpace, _factor, saddle_order
from nsdarcy.mesh import POROUS, build_rectangle_mesh


def forcing_f(x, y):
    return (np.sin(np.pi * x) * (2 - y), x * np.cos(np.pi * y))


def forcing_p(x, y):
    return np.sin(np.pi * x) * y


KINDS = ["picard", "newton", "lifting", "strain", "darcy", "companion"]


@pytest.fixture(scope="module")
def rectangle():
    return CoupledSpace(build_rectangle_mesh(4, 8, 1.0))


def _system(space, nu=1.0, K=1.0):
    params = asm.ModelParams(space.mesh, nu=nu, K=K, g_f=forcing_f,
                             g_p=forcing_p)
    return slv._System(space, params, slv.SolverConfig(), None, None)


def _matrices(space):
    """Every kind of matrix the package factors, on one space, with the
    order the package factors it in (None: chosen by ``_factor``)."""
    rng = np.random.default_rng(7)
    sys = _system(space, nu=0.5, K=[[2.0, 0.5], [0.5, 1.0]])
    x = 0.1 * rng.standard_normal(space.num_total_dofs)
    Auu, _ = sys.linearize(x)
    A = asm._companion_strain(space)
    Dt = asm.aux_divergence_matrix(space)[1:]
    _, on_iface = space.aux_interface_values(
        np.zeros((len(space.interface_nodes), 2)))
    i = ~on_iface
    wind = space.aux_node_values(rng.standard_normal(space.num_aux_dofs))
    companion = (0.1 * A + asm.convection_matrix(space, wind, region=POROUS,
                                                 skew=False))
    return {
        "picard": (sys.jacobian(Auu, x, False), sys.order),
        "newton": (sys.jacobian(Auu, x, True), sys.order),
        "lifting": (bmat([[A[i][:, i], Dt[:, i].T], [Dt[:, i], None]]), None),
        "strain": (asm.strain_matrix(space), None),
        "darcy": (asm.darcy_matrix(space, sys.params), None),
        "companion": (companion[i][:, i], None),
    }


@pytest.fixture(scope="module", params=["rectangle", "wavy_space"])
def matrices(request):
    return _matrices(request.getfixturevalue(request.param))


@pytest.mark.parametrize("kind", KINDS)
def test_solves_match_a_colamd_reference(matrices, kind):
    A, order = matrices[kind]
    lu = _factor(A, kind, order)
    ref = splu(csc_matrix(A), permc_spec="COLAMD")
    b = np.random.default_rng(2).standard_normal((A.shape[0], 2))
    for rhs in (b[:, 0], b):
        x, x_ref = lu.solve(rhs), ref.solve(rhs)
        assert x.shape == rhs.shape
        assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


@pytest.mark.parametrize("kind", ["picard", "lifting"])
def test_zero_diagonal_unknowns_follow_their_neighbours(matrices, kind):
    A, order = matrices[kind]
    A = csr_matrix(A)
    if order is None:
        order = saddle_order(A)
    n = A.shape[0]
    assert np.array_equal(np.sort(order), np.arange(n))
    pos = np.empty(n, dtype=np.int64)
    pos[order] = np.arange(n)
    has_diag = A.diagonal() != 0
    T = csr_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
    P = (T + T.T).tocsr()
    zero = np.flatnonzero(~has_diag)
    assert len(zero) > 0
    for j in zero:
        nb = P.indices[P.indptr[j]:P.indptr[j + 1]]
        nb = nb[has_diag[nb]]
        assert len(nb) > 0 and pos[j] > pos[nb].max()


def test_coupled_fill_is_at_most_six_tenths_of_colamd():
    space = CoupledSpace(build_rectangle_mesh(16, 32, 1.0))
    sys = _system(space)
    x = 0.1 * np.random.default_rng(4).standard_normal(space.num_total_dofs)
    Auu, _ = sys.linearize(x)
    J = sys.jacobian(Auu, x, True)
    colamd = splu(csc_matrix(J), permc_spec="COLAMD").nnz
    assert _factor(J, "coupled", sys.order).nnz <= 0.6 * colamd


def test_one_order_per_space_for_every_dataset(monkeypatch):
    calls = Counter()

    def counting(A):
        calls[A.shape] += 1
        return saddle_order(A)

    monkeypatch.setattr(slv, "saddle_order", counting)
    space = CoupledSpace(build_rectangle_mesh(4, 8, 1.0))
    orders = []
    for nu, K in ((1.0, 1.0), (0.2, [[3.0, 0.5], [0.5, 0.4]])):
        params = asm.ModelParams(space.mesh, nu=nu, K=K, g_f=forcing_f,
                                 g_p=forcing_p)
        for scheme in ("picard", "newton"):
            state = slv.solve_coupled(space, params,
                                      slv.SolverConfig(scheme=scheme))
            assert state.converged
        orders.append(slv._System(space, params, slv.SolverConfig(), None,
                                  None).order)
    assert orders[0] is orders[1]
    assert calls == {(space.num_total_dofs,) * 2: 1}


@pytest.mark.parametrize("newton", [False, True], ids=["picard", "newton"])
def test_jacobian_pattern_does_not_follow_the_iterate(rectangle, newton):
    # at the zero iterate the convection and Newton blocks vanish, so every
    # entry they store cancels exactly
    sys = _system(rectangle)
    zero = np.zeros(rectangle.num_total_dofs)
    generic = 0.1 * np.random.default_rng(6).standard_normal(len(zero))
    J0, J1 = (sys.jacobian(sys.linearize(x)[0], x, newton)
              for x in (zero, generic))
    assert np.array_equal(J0.indptr, J1.indptr)
    assert np.array_equal(J0.indices, J1.indices)
    assert np.count_nonzero(J0.data == 0) > 0
