"""Nonlinear solution of the coupled free-flow/porous-medium system.

The coupled block system couples fluid velocity/pressure with the porous
head through a skew-symmetric interface pairing and the slip (friction)
term.  Convection is assembled in skew-stabilized form.  Each iteration is
a correction step J d = -F(x), x <- x + alpha d, where the operator with
the convection assembled once per iterate gives both F(x) and J.  Picard
freezes the wind in J (the Oseen map of the existence proof); Newton adds
the derivative of the convection in its wind.  Damping and the
Picard-to-Newton switch are fixed: DAMPING_FACTOR = 0.7 after
DAMPING_TRIGGER = 2 residual increases, NEWTON_SWITCH_TOL = 1e-3.

The pressure is determined only up to a constant.  A Lagrange multiplier
imposes zero mean, which reproduces the Galerkin solution in the mean-free
pressure space exactly.  The multiplier is eliminated instead of being
appended as a dense row and column (which would wreck the fill-reducing
ordering of the factorization): the unbordered operator A is factored once
and solved for the right-hand side and for the mean vector m, giving y and
z, and the solution is y - lam z with lam = (m . y) / (m . z).  A is
invertible because mesh validation requires gamma_pd to have positive
length, which fixes the head; m . z is nonzero exactly when the bordered
system is nonsingular.

Every linear system is solved by sparse LU (``fem._factor``) with diagonal
pivoting in a symmetric fill-reducing order.  Each space stores the pattern
of the coupled operator once: the position of every local entry of its
forms (``assembly``), its free-dof part, and the saddle order of that part
(minimum degree, with every pressure moved to just after its last velocity
neighbour, where elimination has filled its diagonal in).  F(x) and every
Jacobian of every iterate and dataset are data on that pattern, summed from
local blocks through those positions (``np.add.at``), so the fill does not
depend on rounding.
"""

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, csr_array, csr_matrix

from . import assembly
from .fem import (SingularLinearSystem, _evaluate, _factor, discrete_lifting,
                  saddle_order, trace_node_array)
from .mesh import FLUID, POROUS

__all__ = ["SolverConfig", "CoupledState", "AuxResult", "NonConvergence",
           "SingularLinearSystem", "solve_coupled", "solve_auxiliary",
           "project_zero_mean"]

# fixed iteration settings, see SolverConfig
DAMPING_FACTOR = 0.7
DAMPING_TRIGGER = 2
NEWTON_SWITCH_TOL = 1e-3


class NonConvergence(Exception):
    """An iteration missed its tolerance: the nonlinear solve (carries the
    transcript and the last iterate) or the inf-sup eigensolve."""

    def __init__(self, message, transcript=None, state=None):
        super().__init__(message)
        self.transcript = transcript or []
        self.state = state


class SolverConfig:
    """Options for solve_coupled.

    Parameters
    ----------
    tol : float
        Relative nonlinear residual tolerance.
    max_iter : int
    scheme : "picard", "newton", or "picard_then_newton"
        With the combined scheme, Picard runs until the relative residual
        falls below ``NEWTON_SWITCH_TOL`` (1e-3), then Newton finishes.
        Picard steps are scaled by ``DAMPING_FACTOR`` (0.7) after
        ``DAMPING_TRIGGER`` (2) consecutive residual increases.
    include_convection : bool
        False solves the linear Stokes-Darcy problem (one iteration).
    """

    def __init__(self, tol=1e-10, max_iter=25, scheme="picard_then_newton",
                 include_convection=True):
        if scheme not in ("picard", "newton", "picard_then_newton"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if not tol > 0:
            raise ValueError("tol must be positive")
        if int(max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.scheme = scheme
        self.include_convection = bool(include_convection)


class CoupledState:
    """Free-dof solution of the coupled system, with the data it solved for:
    the Dirichlet velocity data ``dirichlet``, the free-dof right-hand side
    ``b`` (the volume loads plus any extra loads) and the residual ``F``."""

    def __init__(self, u, p, phi, converged, iterations, residual, transcript,
                 dirichlet=None, F=None, b=None):
        self.u = u
        self.p = p
        self.phi = phi
        self.converged = converged
        self.iterations = iterations
        self.residual = residual
        self.transcript = transcript
        self.dirichlet = dirichlet
        self.F = F
        self.b = b

    def u_raw(self, space):
        return space.velocity_node_values(self.u, self.dirichlet)

    def p_raw(self, space):
        return space.pressure_node_values(self.p)

    def phi_raw(self, space):
        return space.head_node_values(self.phi)


class AuxResult:
    """Solution of the porous companion (Oseen) problem."""

    def __init__(self, coeffs, sigma, wind_raw, lifting, matrix, iface_mask):
        self.coeffs = coeffs
        self.sigma = sigma
        self.wind_raw = wind_raw
        self.lifting = lifting
        self.matrix = matrix
        self.iface_mask = iface_mask


def project_zero_mean(space, p):
    """Shift pressure coefficients to zero mean over the fluid region."""
    m = assembly.pressure_mean_vector(space)
    return p - (m @ p) / m.sum()


def _check_solution(x, residual, rhs, context):
    """Reject a non-finite solution, or one whose residual exceeds 1e-7
    relative to its right-hand side (column by column for a 2-D rhs)."""
    if not np.all(np.isfinite(x)):
        raise SingularLinearSystem(f"{context}: non-finite solution")
    with np.errstate(over="ignore"):  # an overflowing norm is inf, and fails
        res = np.max(np.linalg.norm(residual, axis=0)
                     / np.maximum(np.linalg.norm(rhs, axis=0), 1.0))
    if res > 1e-7:
        raise SingularLinearSystem(
            f"{context}: linear residual {res:.3e} indicates a singular or "
            "severely ill-conditioned system")


def _linear_solve(A, rhs, context, order=None):
    """Solve ``A x = rhs`` for a vector or for every column of a 2-D rhs,
    with one factorization of A (in ``order``, see ``fem._factor``)."""
    x = _factor(A, context, order).solve(rhs)
    _check_solution(x, A @ x - rhs, rhs, context)
    return x


def _zero_wind_forms(space, params):
    """Forms of the coupled operator at zero wind, in the expanded velocity,
    pressure and head numberings laid end to end: 2 nu strain first (the
    convection and Newton forms share its layout), G BJS, +-B, +-C, Darcy."""
    op = space.fields["velocity"].expanded_size
    oh = op + space.fields["pressure"].expanded_size
    S, rs, cs = assembly._strain_form(space, FLUID)
    S *= 2 * params.nu
    T, rt, ct = assembly._bjs_form(space)
    B, rb, cb = assembly._divergence_form(space, FLUID)
    C, rc, cc = assembly._coupling_form(space)
    D, rd, cd = assembly._darcy_form(space, params)
    return [(S, rs, cs), (params.G * T, rt, ct),
            (B, rb + op, cb), (-B, cb, rb + op),
            (C, rc, cc + oh), (-C, cc + oh, rc), (D, rd + oh, cd + oh)]


def _coupled_layout(space, forms):
    """The pattern of the expanded operator (CSR), the int32 position there
    of each local entry of each form, and the free-dof pattern (CSC, whose
    data are positions in the first) with its saddle order."""
    n = space.num_expanded_dofs
    rows, cols = (np.concatenate([np.broadcast_to(f[k], f[0].shape).ravel()
                                  for f in forms], dtype=np.int32)
                  for k in (1, 2))
    # one COO -> CSR of int8 ones sorts the pattern and sums its duplicates
    A = coo_matrix((np.ones(len(rows), dtype=np.int8), (rows, cols)),
                   shape=(n, n)).tocsr()
    position = csr_array((np.arange(A.nnz, dtype=np.int32), A.indices,
                          A.indptr), shape=(n, n))
    maps = np.split(position[rows, cols],
                    np.cumsum([f[0].size for f in forms[:-1]]))
    del rows, cols
    free = position[space.coupled_index][:, space.coupled_index].tocsc()
    return A, maps, free, saddle_order(free)


class _System:
    """The coupled operator of one dataset: its zero-wind data ``A0`` on
    the stored pattern of the space, the right-hand side and the gauge."""

    def __init__(self, space, params, config, dirichlet, extra_loads):
        self.space = space
        self.params = params
        self.config = config
        forms = _zero_wind_forms(space, params)
        if "coupled_layout" not in space._cache:
            space._cache["coupled_layout"] = _coupled_layout(space, forms)
        self.pattern, self.maps, self.free, self.order = (
            space._cache["coupled_layout"])
        self.A0 = np.zeros(self.pattern.nnz)
        for (L, _, _), entry_map in zip(forms, self.maps):
            np.add.at(self.A0, entry_map, L.ravel())
        self.b = assembly.load_vector(space, params)
        if extra_loads is not None:
            self.b = self.b + extra_loads
        self.mean_vec = assembly.pressure_mean_vector(space)
        self.n_vel = space.fields["velocity"].expanded_size
        self.x_dir = np.zeros(space.num_expanded_dofs)
        self.x_dir[:self.n_vel] = space.velocity_node_values(
            np.zeros(space.num_velocity_dofs), dirichlet).ravel()

    def _product(self, data, xe):
        """The expanded operator with ``data`` times ``xe``, in free dofs."""
        A = csr_matrix((data, self.pattern.indices, self.pattern.indptr),
                       shape=self.pattern.shape)
        return (A @ xe)[self.space.coupled_index]

    def expand(self, x):
        """Expanded coupled vector of ``x``, Dirichlet values included."""
        xe = self.x_dir.copy()
        xe[self.space.coupled_index] = x
        return xe

    def linearize(self, x):
        """Operator data at x, the convection assembled once, and the
        residual F(x) in free dofs.  The continuity rows hold against
        mean-free pressure tests only (a constant test pairs with the net
        interface flux, which need not vanish), so their component along the
        mean vector is removed."""
        xe = self.expand(x)
        data = self.A0.copy()
        if self.config.include_convection:  # laid out as the strain
            np.add.at(data, self.maps[0], assembly._convection_form(
                self.space, xe[:self.n_vel].reshape(-1, 2))[0].ravel())
        F = self._product(data, xe)
        Fp = F[self.space.offset_p:self.space.offset_phi]
        m = self.mean_vec
        Fp -= m * ((m @ Fp) / (m @ m))
        return data, F - self.b

    def residual_scale(self):
        """Magnitude of the problem data: loads plus the linear-operator
        image of the Dirichlet values, so boundary-driven problems (zero
        loads) still get a meaningful relative tolerance."""
        lifted = self.space.split_state(self._product(self.A0, self.x_dir))
        return max(map(np.linalg.norm, [self.b, *lifted]))

    def jacobian(self, data, x, newton):
        """Free-dof operator J of the correction step J d = -F(x), without
        the gauge, from the ``data`` of ``linearize(x)``: the frozen-wind
        (Picard) operator, or with ``newton`` the Jacobian, which adds the
        derivative of the convection in its wind, on the stored pattern."""
        if newton:
            wind = self.expand(x)[:self.n_vel].reshape(-1, 2)
            data = data.copy()
            np.add.at(data, self.maps[0],
                      assembly._newton_form(self.space, wind)[0].ravel())
        return csc_matrix((data[self.free.data], self.free.indices,
                           self.free.indptr), shape=self.free.shape)

    def gauge_and_solve(self, A, rhs, context):
        """Solve the bordered system [[A, m], [m^T, 0]] [x, lam] = [rhs, 0]
        by eliminating lam."""
        m = np.zeros(A.shape[0])
        m[self.space.offset_p:self.space.offset_phi] = self.mean_vec
        y, z = _linear_solve(A, np.column_stack([rhs, m]), context,
                             self.order).T
        my, mz = m @ y, m @ z
        if mz == 0 or not np.isfinite(my / mz):
            raise SingularLinearSystem(
                f"{context}: singular mean-pressure constraint "
                f"(m . A^-1 m = {mz:.3e})")
        lam = my / mz
        x = y - lam * z
        _check_solution(x, np.append(A @ x + lam * m - rhs, m @ x), rhs,
                        context)
        return x


def _coupled_input(space, name, value):
    """A float copy of a coupled vector argument, which must be finite and
    of length num_total_dofs."""
    x, n = np.array(value, dtype=float), space.num_total_dofs
    bad = np.count_nonzero(~np.isfinite(x))
    if x.shape != (n,) or bad:
        raise ValueError(f"{name} must be a finite vector of length "
                         f"num_total_dofs = {n}, got shape {x.shape} with "
                         f"{bad} non-finite entries")
    return x


def solve_coupled(space, params, config=None, dirichlet=None,
                  initial_state=None, extra_loads=None):
    """Solve the coupled system; returns a CoupledState.

    Parameters
    ----------
    space : CoupledSpace (velocity_degree must be 2 for a stable pairing,
        but degree 1 is accepted so stability failures can be demonstrated)
    params : ModelParams
    config : SolverConfig, optional
    dirichlet : callable (x, y) -> (2,), optional
        Inhomogeneous velocity data on gamma_f.
    initial_state : CoupledState or array, optional
    extra_loads : array of length num_total_dofs, optional
        Additional right-hand side in free-dof numbering (e.g. interface
        consistency loads of a manufactured solution).

    Raises ValueError if ``initial_state`` or ``extra_loads`` is not a
    finite vector of length num_total_dofs, NonConvergence if the iteration
    stalls and SingularLinearSystem if a linear solve fails.
    """
    config = config or SolverConfig()
    x = np.zeros(space.num_total_dofs)
    if initial_state is not None:
        if isinstance(initial_state, CoupledState):
            initial_state = np.concatenate(
                [initial_state.u, initial_state.p, initial_state.phi])
        x = _coupled_input(space, "initial_state", initial_state)
        u, p, phi = space.split_state(x)
        p[:] = project_zero_mean(space, p)
    if extra_loads is not None:
        extra_loads = _coupled_input(space, "extra_loads", extra_loads)
    sys = _System(space, params, config, dirichlet, extra_loads)

    scale = max(sys.residual_scale(), 1e-300)
    transcript = []
    alpha = 1.0
    increases = 0
    prev_res = np.inf
    scheme = "picard" if config.scheme != "newton" else "newton"
    if not config.include_convection:
        scheme = "picard"  # single linear solve

    data, F = sys.linearize(x)
    for it in range(1, config.max_iter + 1):
        J = sys.jacobian(data, x, newton=scheme == "newton")
        step = sys.gauge_and_solve(J, -F, f"coupled iteration {it}")
        x = x + alpha * step
        data, F = sys.linearize(x)
        res = np.linalg.norm(F)
        transcript.append({"iteration": it, "scheme": scheme,
                           "residual": float(res), "alpha": float(alpha)})
        if res <= config.tol * scale or not config.include_convection:
            return CoupledState(*space.split_state(x), converged=True,
                                iterations=it, residual=float(res),
                                transcript=transcript, dirichlet=dirichlet, F=F,
                                b=sys.b)
        if res >= prev_res:
            increases += 1
            if increases >= DAMPING_TRIGGER and scheme == "picard":
                alpha = DAMPING_FACTOR
        else:
            increases = 0
        if (config.scheme == "picard_then_newton" and scheme == "picard"
                and res <= NEWTON_SWITCH_TOL * scale):
            scheme = "newton"
            alpha = 1.0
        prev_res = res

    raise NonConvergence(
        f"no convergence in {config.max_iter} iterations "
        f"(last residual {prev_res:.3e}, tolerance {config.tol * scale:.3e})",
        transcript=transcript,
        state=CoupledState(*space.split_state(x), converged=False,
                           iterations=config.max_iter, residual=float(prev_res),
                           transcript=transcript, dirichlet=dirichlet, F=F,
                           b=sys.b))


def solve_auxiliary(space, params, state=None, trace=None, sigma=None,
                    wind=None):
    """Solve the porous companion problem for given interface data.

    The companion velocity equals the fluid-velocity interface trace on the
    interface nodes, vanishes on the outer porous boundary, and satisfies
    the Oseen equations (viscosity ``sigma``, default nu * h) with plain
    convection against the wind field inside the porous region.  The default
    wind is the divergence-constrained lifting of the same trace.

    ``trace`` may be a callable or a per-interface-node array; it is
    ignored when ``state`` is given.  ``wind`` may be a raw per-node value
    array or a callable sampled at the companion nodes.
    """
    if state is not None:
        trace_vals = space.velocity_node_values(
            state.u, state.dirichlet)[space.interface_nodes]
    elif trace is not None:
        trace_vals = trace_node_array(space, trace)
    else:
        raise ValueError("either state or trace is required")

    lifting = None
    if wind is None:
        lifting = discrete_lifting(space, trace_vals)
        wind_raw = space.aux_node_values(lifting.coeffs)
    elif callable(wind):
        wind_raw = _evaluate(wind, space.node_coords(space.velocity_degree), (2,)).T
    else:
        wind_raw = np.asarray(wind, dtype=float)

    if sigma is None:
        sigma = params.effective_sigma()
    A = (2 * sigma * assembly._companion_strain(space)
         + assembly.convection_matrix(space, wind_raw, region=POROUS,
                                      skew=False))

    g, iface_mask = space.aux_interface_values(trace_vals)
    interior = ~iface_mask

    Aii = A[interior][:, interior]
    rhs = -(A[interior][:, iface_mask] @ g[iface_mask])
    xi = _linear_solve(Aii, rhs, "companion solve")
    coeffs = g.copy()
    coeffs[interior] = xi
    return AuxResult(coeffs, float(sigma), wind_raw, lifting, A, iface_mask)
