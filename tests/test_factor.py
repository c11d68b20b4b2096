"""The factorization path: saddle orders, diagonally pivoted factors against
a COLAMD reference, fill, one order per space, and the fixed pattern of the
coupled operator."""

from collections import Counter

import numpy as np
import pytest
import scipy.sparse.csgraph
from scipy.sparse import bmat, csc_matrix, csr_matrix, diags
from scipy.sparse.linalg import splu

from nsdarcy import analysis as ana
from nsdarcy import assembly as asm
from nsdarcy import mms
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


def _system(space, nu=1.0, K=1.0, G=1.0, config=None):
    params = asm.ModelParams(space.mesh, nu=nu, K=K, G=G, g_f=forcing_f,
                             g_p=forcing_p)
    return slv._System(space, params, config or slv.SolverConfig(), None,
                       None)


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
    wind = space.node_values("aux", rng.standard_normal(space.num_aux_dofs))
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


def _full_factorization_order(A):
    """The saddle order with the minimum-degree order read from a complete
    factorization of the SPD surrogate: the reference for the incomplete
    one that ``saddle_order`` runs."""
    A = csc_matrix(A)
    T = csc_matrix((np.ones(A.nnz), A.indices, A.indptr), shape=A.shape)
    P = (T + T.T).tocsr()
    P.data[:] = -1.0
    spd = (P + diags(np.diff(P.indptr) + 1.0)).tocsc()
    pos = splu(spd, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=1e-3,
               options=dict(SymmetricMode=True)).perm_c
    has_diag = np.array([i in A.indices[A.indptr[i]:A.indptr[i + 1]]
                         for i in range(A.shape[0])])
    last = np.full(A.shape[0], -1)
    for i in range(A.shape[0]):
        nb = P.indices[P.indptr[i]:P.indptr[i + 1]]
        nb = nb[has_diag[nb]]
        if len(nb):
            last[i] = pos[nb].max()
    key = np.where(has_diag | (last < 0), pos, last)
    return np.lexsort((pos, ~has_diag, key))


@pytest.mark.parametrize("kind", ["picard", "lifting"])
def test_order_matches_a_full_factorization(matrices, kind):
    A = matrices[kind][0]
    assert np.array_equal(saddle_order(A), _full_factorization_order(A))


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


def test_a_stored_diagonal_skips_the_structural_check(monkeypatch):
    rank, calls = scipy.sparse.csgraph.structural_rank, []

    def recording(A):
        calls.append(A.shape)
        return rank(A)

    monkeypatch.setattr(scipy.sparse.csgraph, "structural_rank", recording)
    ana.strain_factor(CoupledSpace(build_rectangle_mesh(4, 8, 1.0)))
    assert calls == []
    _factor(np.array([[1.0, 1.0], [1.0, 0.0]]), "saddle")
    assert calls == [(2, 2)]


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
def test_jacobian_pattern_does_not_follow_the_iterate(monkeypatch, newton):
    sources = []

    def recording(A):
        sources.append(A)
        return saddle_order(A)

    monkeypatch.setattr(slv, "saddle_order", recording)
    space = CoupledSpace(build_rectangle_mesh(4, 8, 1.0))
    case = mms.get_case("representable")
    systems = [
        _system(space),
        _system(space, nu=0.05, K=[[2.0, 0.3], [0.3, 0.5]], G=3.0),
        _system(space, config=slv.SolverConfig(include_convection=False)),
        slv._System(space, case.params(space.mesh), slv.SolverConfig(),
                    case.dirichlet, case.interface_loads(space))]
    [source] = sources  # the operator the order of the space comes from
    zero = np.zeros(space.num_total_dofs)
    generic = 0.1 * np.random.default_rng(6).standard_normal(len(zero))
    for sys in systems:
        for x in (zero, generic):
            J = sys.jacobian(sys.linearize(x)[0], x, newton)
            assert np.array_equal(J.indptr, source.indptr)
            assert np.array_equal(J.indices, source.indices)
    # at the zero iterate of the driven data the convection and Newton
    # blocks vanish, so every entry they store cancels exactly
    J0 = systems[0].jacobian(systems[0].linearize(zero)[0], zero, newton)
    assert np.count_nonzero(J0.data == 0) > 0
