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
lam imposes zero mean, which reproduces the Galerkin solution in the
mean-free pressure space exactly.  The bordered system
[[J, m], [m^T, 0]] [x, lam] = [r, s] is never formed (a dense row and
column would wreck the fill-reducing ordering of the factorization):
from one factor of the unbordered J and z = J^-1 m, its solution is
x = y - lam z with y = J^-1 r and lam = (m . y - s) / (m . z).  J is
invertible because mesh validation requires gamma_pd to have positive
length, which fixes the head; m . z is nonzero exactly when the bordered
system is nonsingular.

One solve factors one Jacobian.  The first correction step factors its J
by sparse LU (``fem._factor``) and solves by that elimination.  Within a
solve the Jacobians differ only by the convection in the wind, so that
bordered inverse is a near-exact preconditioner for the later steps: each
solves the bordered system of its own J by left-preconditioned GMRES (an
inexact Newton-Krylov method with a lagged preconditioner), started from
the preconditioned right-hand side, until the true bordered residual is
KRYLOV_RTOL = 1e-12 times the norm of that right-hand side, in at most
KRYLOV_MAX_ITER = 30 iterations in all.  A run that misses, or returns a
non-finite x or one whose bordered residual fails the check of every
direct solve, falls back to factoring the step's own J, which then
preconditions the steps after it.  The factor lives only as long as the
solve, but for one case: within ``first_factors_shared`` the factor of a
first step is kept for the next solve on the space, which reuses it if
its first J is the same bit for bit.  From a zero start without
Dirichlet data the first J is the operator at zero wind, which depends on
the space, nu, K and G but not on the loads.

Every factorization uses diagonal pivoting in a symmetric fill-reducing
order.  Each space stores the pattern of the coupled operator once: the
position of every local entry of its forms (``assembly``), its free-dof
part, and the saddle order of that part (minimum degree, with every
pressure moved to just after its last velocity neighbour, where
elimination has filled its diagonal in).  F(x) and every Jacobian of every
iterate and dataset are data on that pattern, summed from local blocks
through those positions (``np.add.at``), so the fill does not depend on
rounding and the structural rank of the first Jacobian is that of every
later one.
"""

import contextlib

import numpy as np
from scipy.sparse import coo_matrix, csc_matrix, csr_array, csr_matrix
from scipy.sparse.linalg import LinearOperator, gmres

from . import assembly
from .fem import (LiftingResult, SingularLinearSystem, _check_solution,
                  _evaluate, _linear_solve, _prescribed_solve,
                  discrete_lifting, saddle_order, trace_node_array)
from .mesh import FLUID, POROUS

__all__ = ["SolverConfig", "CoupledState", "AuxResult", "NonConvergence",
           "SingularLinearSystem", "solve_coupled", "solve_auxiliary",
           "project_zero_mean", "first_factors_shared"]

# fixed iteration settings, see SolverConfig
DAMPING_FACTOR = 0.7
DAMPING_TRIGGER = 2
NEWTON_SWITCH_TOL = 1e-3
# the lagged-factor GMRES of every correction step after the first
KRYLOV_RTOL = 1e-12
KRYLOV_MAX_ITER = 30


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
                 dirichlet, F, b):
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
        return space.node_values("pressure", self.p)

    def phi_raw(self, space):
        return space.node_values("head", self.phi)


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


@contextlib.contextmanager
def first_factors_shared(space):
    """Within the block, a solve on ``space`` whose first Jacobian equals
    that of the last first step factored there, bit for bit, reuses its
    factor: solves from a zero start without Dirichlet data and with the
    same nu, K and G, whatever their loads.  The one factor kept is dropped
    before any other coupled factor of the space is built, and on leaving
    the block."""
    space._cache["first factor"] = []  # [] or [(first J data, its factor)]
    try:
        yield
    finally:
        del space._cache["first factor"]


class _System:
    """The coupled operator of one dataset: its zero-wind data ``A0`` on
    the stored pattern of the space, the right-hand side and the gauge."""

    def __init__(self, space, params, config, dirichlet, extra_loads):
        self.space = space
        self.params = params
        self.config = config
        forms = _zero_wind_forms(space, params)
        # the pattern does not depend on the data: the forms of the first
        # dataset on the space lay it out, and the space keeps it
        if "coupled_layout" not in space._cache:
            space._cache["coupled_layout"] = _coupled_layout(space, forms)
        self.pattern, self.maps, self.free, self.order = space._cache[
            "coupled_layout"]
        self.A0 = np.zeros(self.pattern.nnz)
        for (L, _, _), entry_map in zip(forms, self.maps):
            np.add.at(self.A0, entry_map, L.ravel())
        self.b = assembly.load_vector(space, params)
        if extra_loads is not None:
            self.b = self.b + extra_loads
        self.mean_vec = assembly.pressure_mean_vector(space)
        self.factor = None  # _GaugeFactor of the last factored step
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

    def gauge_and_solve(self, J, rhs, context):
        """Solve the bordered system [[J, m], [m^T, 0]] [x, lam] = [rhs, 0]
        for x: by GMRES preconditioned by the factor of an earlier step of
        this system, or, for the first step and for a step whose GMRES
        misses, by eliminating lam with the factor of J (the shared one of
        an equal first J, see ``first_factors_shared``)."""
        b = np.append(rhs, 0.0)
        if self.factor is not None:
            try:
                return self._krylov_solve(J, b, context)
            except SingularLinearSystem:
                pass  # GMRES missed: factor this J instead
        m = np.zeros(J.shape[0])
        m[self.space.offset_p:self.space.offset_phi] = self.mean_vec
        # free the lagged and the shared factor before a new one is built
        first, self.factor = self.factor is None, None
        shared = self.space._cache.get("first factor")
        kept, lu = shared.pop() if shared else (None, None)
        if not (first and kept is not None and np.array_equal(kept, J.data)):
            lu = None
        (y, z), lu = _linear_solve(J, np.column_stack([rhs, m]), context,
                                   self.order, lu)
        if first and shared is not None:
            shared.append((J.data, lu))
        self.factor = _GaugeFactor(lu, m, z, context)
        x = self.factor.eliminate(y, 0.0)
        _check_solution(x, self.factor.bordered(J, x) - b, b, context)
        return x[:-1]

    def _krylov_solve(self, J, b, context):
        """x of the bordered system of J with right-hand side b, by GMRES
        left-preconditioned by the stored factor; raises
        SingularLinearSystem if GMRES misses or x fails the check."""
        n = len(b)
        K = LinearOperator((n, n), dtype=float,
                           matvec=lambda v: self.factor.bordered(J, v))
        M = LinearOperator((n, n), dtype=float, matvec=self.factor.solve)
        # with the legacy callback type, maxiter counts iterations over all
        # restarts rather than restart cycles
        x, info = gmres(K, b, x0=self.factor.solve(b), rtol=KRYLOV_RTOL,
                        atol=0.0, restart=KRYLOV_MAX_ITER,
                        maxiter=KRYLOV_MAX_ITER, M=M,
                        callback=lambda _: None, callback_type="legacy")
        if info != 0:
            raise SingularLinearSystem(
                f"{context}: GMRES missed {KRYLOV_RTOL:.0e} in "
                f"{KRYLOV_MAX_ITER} iterations")
        _check_solution(x, self.factor.bordered(J, x) - b, b, context)
        return x[:-1]


class _GaugeFactor:
    """The exact inverse of a bordered system [[A, m], [m^T, 0]], from a
    factor ``lu`` of A and z = A^-1 m."""

    def __init__(self, lu, m, z, context):
        self.lu = lu
        self.m = m
        self.z = z
        self.mz = m @ z
        if self.mz == 0 or not np.isfinite(self.mz):
            raise SingularLinearSystem(
                f"{context}: singular mean-pressure constraint "
                f"(m . A^-1 m = {self.mz:.3e})")

    def eliminate(self, y, s):
        """[x, lam] for the right-hand side [r, s], from y = A^-1 r."""
        lam = (self.m @ y - s) / self.mz
        return np.append(y - lam * self.z, lam)

    def solve(self, r):
        """[x, lam] with [[A, m], [m^T, 0]] [x, lam] = r."""
        return self.eliminate(self.lu.solve(r[:-1]), r[-1])

    def bordered(self, J, v):
        """[[J, m], [m^T, 0]] v, the border of this factor on J."""
        return np.append(J @ v[:-1] + v[-1] * self.m, self.m @ v[:-1])


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
    initial_state : array of length num_total_dofs, optional
        The first iterate; its pressure is shifted to zero mean.
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
        del data  # not read while J is factored
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


def solve_auxiliary(space, params, state=None, trace=None, wind=None):
    """Solve the porous companion problem for given interface data.

    The companion velocity equals the fluid-velocity interface trace on the
    interface nodes, vanishes on the outer porous boundary, and satisfies
    the Oseen equations (viscosity ``params.effective_sigma()``: sigma, or
    nu * h by default) with plain convection against the wind field inside
    the porous region.  The default wind is the divergence-constrained
    lifting of the same trace.

    ``trace`` may be a callable or a per-interface-node array; it is
    ignored when ``state`` is given.  ``wind`` may be the lifting of the
    same trace, done beforehand, a raw per-node value array or a callable
    sampled at the companion nodes.
    """
    if state is not None:
        trace_vals = space.velocity_node_values(
            state.u, state.dirichlet)[space.interface_nodes]
    elif trace is not None:
        trace_vals = trace_node_array(space, trace)
    else:
        raise ValueError("either state or trace is required")

    lifting = wind if isinstance(wind, LiftingResult) else None
    if wind is None:
        lifting = discrete_lifting(space, trace_vals)
    if lifting is not None:
        wind_raw = space.node_values("aux", lifting.coeffs)
    elif callable(wind):
        wind_raw = _evaluate(wind, space.node_coords(space.velocity_degree), (2,)).T
    else:
        wind_raw = np.asarray(wind, dtype=float)

    sigma = params.effective_sigma()
    A = (2 * sigma * assembly._companion_strain(space)
         + assembly.convection_matrix(space, wind_raw, region=POROUS,
                                      skew=False))

    g, iface_mask = space.aux_interface_values(trace_vals)
    coeffs = _prescribed_solve(A.tocsc(), g, iface_mask, "companion solve")
    return AuxResult(coeffs, float(sigma), wind_raw, lifting, A, iface_mask)
