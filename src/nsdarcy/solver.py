"""Nonlinear solution of the coupled free-flow/porous-medium system.

The coupled block system couples fluid velocity/pressure with the porous
head through a skew-symmetric interface pairing and the slip (friction)
term.  Convection is assembled in skew-stabilized form; the fixed-point
options are Picard (wind frozen), Newton, or Picard handing over to Newton
once the residual is small.

The pressure is determined only up to a constant.  The default gauge
imposes zero mean through a Lagrange multiplier, which reproduces the
Galerkin solution in the mean-free pressure space exactly.  The multiplier
is eliminated instead of being appended as a dense row and column (which
would wreck the fill-reducing ordering of the factorization): the
unbordered operator A is factored once and solved for the right-hand side
and for the mean vector m, giving y and z, and the solution is
y - lam z with lam = (m . y) / (m . z).  A is invertible because mesh
validation requires gamma_pd to have positive length, which fixes the
head; m . z is nonzero exactly when the bordered system is nonsingular.
Pinning a single pressure value is available as an alternative gauge, but
with an open outflow boundary through the interface it perturbs the
velocity at O(h) and degrades convergence orders; it exists for comparison
experiments.
"""

import numpy as np
from scipy.sparse import bmat, csc_matrix
from scipy.sparse.linalg import LinearOperator, gmres, spilu, splu

from . import assembly
from .fem import (SingularLinearSystem, _evaluate, discrete_lifting,
                  trace_node_array)
from .mesh import FLUID, POROUS

__all__ = ["SolverConfig", "CoupledState", "AuxResult", "NonConvergence",
           "SingularLinearSystem", "solve_coupled", "solve_auxiliary",
           "project_zero_mean"]


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
        falls below ``newton_switch_tol``, then Newton finishes.
    include_convection : bool
        False solves the linear Stokes-Darcy problem (one iteration).
    linear_solver : "lu" or "gmres"
        Direct sparse factorization, or restarted GMRES with an incomplete-LU
        preconditioner.
    pressure_gauge : "mean" or "pin"
    damping_factor : float
        Step damping applied to Picard after ``damping_trigger`` consecutive
        residual increases.
    """

    def __init__(self, tol=1e-10, max_iter=25, scheme="picard_then_newton",
                 include_convection=True, linear_solver="lu",
                 pressure_gauge="mean", damping_factor=0.7, damping_trigger=2,
                 newton_switch_tol=1e-3):
        if scheme not in ("picard", "newton", "picard_then_newton"):
            raise ValueError(f"unknown scheme {scheme!r}")
        if linear_solver not in ("lu", "gmres"):
            raise ValueError(f"unknown linear_solver {linear_solver!r}")
        if pressure_gauge not in ("mean", "pin"):
            raise ValueError(f"unknown pressure_gauge {pressure_gauge!r}")
        if not 0 < damping_factor <= 1:
            raise ValueError("damping_factor must lie in (0, 1]")
        if not tol > 0:
            raise ValueError("tol must be positive")
        if int(max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        self.tol = float(tol)
        self.max_iter = int(max_iter)
        self.scheme = scheme
        self.include_convection = bool(include_convection)
        self.linear_solver = linear_solver
        self.pressure_gauge = pressure_gauge
        self.damping_factor = float(damping_factor)
        self.damping_trigger = int(damping_trigger)
        self.newton_switch_tol = float(newton_switch_tol)


class CoupledState:
    """Solution of the coupled system in free-dof coefficients."""

    def __init__(self, u, p, phi, converged, iterations, residual, transcript,
                 dirichlet=None):
        self.u = u
        self.p = p
        self.phi = phi
        self.converged = converged
        self.iterations = iterations
        self.residual = residual
        self.transcript = transcript
        self.dirichlet = dirichlet

    def u_raw(self, space):
        return space.velocity_node_values(self.u, self.dirichlet)

    def p_raw(self, space):
        return space.pressure_node_values(self.p)

    def phi_raw(self, space):
        return space.head_node_values(self.phi)


class AuxResult:
    """Solution of the porous companion (Oseen) problem."""

    def __init__(self, coeffs, sigma, wind_raw, lifting, trace_values,
                 matrix, iface_mask):
        self.coeffs = coeffs
        self.sigma = sigma
        self.wind_raw = wind_raw
        self.lifting = lifting
        self.trace_values = trace_values
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
    res = np.max(np.linalg.norm(residual, axis=0)
                 / np.maximum(np.linalg.norm(rhs, axis=0), 1.0))
    if res > 1e-7:
        raise SingularLinearSystem(
            f"{context}: linear residual {res:.3e} indicates a singular or "
            "severely ill-conditioned system")


def _linear_solve(A, rhs, config, context):
    """Solve ``A x = rhs`` for a vector or for every column of a 2-D rhs,
    with one factorization (or one preconditioner) of A."""
    A = csc_matrix(A)
    # SuperLU can crash outright on rank-deficient inputs (e.g. unstable
    # velocity/pressure pairings), so reject those before factorizing
    from scipy.sparse.csgraph import structural_rank
    if structural_rank(A) < A.shape[0]:
        raise SingularLinearSystem(
            f"{context}: structurally singular system "
            "(rank-deficient discretization, e.g. an unstable element pair)")
    if config.linear_solver == "lu":
        try:
            x = splu(A).solve(rhs)
        except RuntimeError as exc:
            raise SingularLinearSystem(f"{context}: {exc}") from exc
    else:
        try:
            ilu = spilu(A, drop_tol=1e-6, fill_factor=50)
        except RuntimeError as exc:
            raise SingularLinearSystem(f"{context}: {exc}") from exc
        M = LinearOperator(A.shape, ilu.solve)

        def krylov(b):
            x, info = gmres(A, b, M=M, rtol=1e-12, atol=0.0, restart=300,
                            maxiter=3000)
            if info != 0:
                raise SingularLinearSystem(
                    f"{context}: GMRES stalled (info={info})")
            return x
        x = np.apply_along_axis(krylov, 0, rhs)
    _check_solution(x, A @ x - rhs, rhs, context)
    return x


@assembly._per_space
def _space_blocks(space):
    """Expanded blocks of the coupled operator that depend on the space
    alone: the unit-coefficient fluid strain, the divergence and the
    interface coupling."""
    return (assembly.strain_matrix(space, FLUID, expanded=True),
            assembly.divergence_matrix(space, FLUID, expanded=True),
            assembly.interface_coupling_matrix(space, expanded=True))


class _System:
    """Expanded blocks of the coupled operator on one space, and the
    free-dof blocks that stay fixed over the iteration."""

    def __init__(self, space, params, config, dirichlet, extra_loads):
        self.space = space
        self.params = params
        self.config = config
        self.dirichlet = dirichlet
        S, self.B, self.Cup = _space_blocks(space)
        self.V = (2 * params.nu * S
                  + assembly.bjs_matrix(space, coefficient=params.G,
                                        expanded=True))
        self.Adar = assembly.darcy_matrix(space, params, expanded=True)
        self.Bf = assembly.restrict(space, self.B, "pressure", "velocity")
        self.Cf = assembly.restrict(space, self.Cup, "velocity", "head")
        self.Df = assembly.restrict(space, self.Adar, "head", "head")
        self.iu = assembly.expanded_index(space, "velocity")
        self.ip = assembly.expanded_index(space, "pressure")
        self.iphi = assembly.expanded_index(space, "head")
        self.b = assembly.load_vector(space, params)
        if extra_loads is not None:
            self.b = self.b + extra_loads
        self.mean_vec = assembly.pressure_mean_vector(space)
        self.u_dir = space.velocity_node_values(
            np.zeros(space.num_velocity_dofs), dirichlet).ravel()

    def expand(self, x):
        space = self.space
        u, p, phi = space.split_state(x)
        ue = space.velocity_node_values(u, self.dirichlet).ravel()
        pe = np.zeros(space.mesh.num_vertices)
        pe[self.ip] = p
        fe = space.head_node_values(phi)
        return ue, pe, fe

    def residual(self, x):
        """Nonlinear residual in free dofs.

        The continuity equation holds against mean-free pressure tests only
        (a constant test function pairs with the net interface flux, which
        need not vanish), so the continuity rows are projected accordingly:
        with the mean gauge the component along the mean vector is removed,
        with the pin gauge the pinned row is dropped.
        """
        space, cfg = self.space, self.config
        ue, pe, fe = self.expand(x)
        Au = self.V @ ue
        if cfg.include_convection:
            wind = ue.reshape(-1, 2)
            Au = Au + assembly.convection_matrix(space, wind,
                                                 expanded=True) @ ue
        Fu = (Au - self.B.T @ pe + self.Cup @ fe)[self.iu]
        Fp = (self.B @ ue)[self.ip]
        if cfg.pressure_gauge == "mean":
            m = self.mean_vec
            Fp = Fp - m * ((m @ Fp) / (m @ m))
        else:
            Fp[0] = 0.0
        Fphi = (self.Adar @ fe - self.Cup.T @ ue)[self.iphi]
        return np.concatenate([Fu, Fp, Fphi]) - self.b

    def residual_scale(self):
        """Magnitude of the problem data: loads plus the linear-operator
        image of the Dirichlet values, so boundary-driven problems (zero
        loads) still get a meaningful relative tolerance."""
        scale = np.linalg.norm(self.b)
        if self.dirichlet is not None:
            space = self.space
            scale = max(scale,
                        np.linalg.norm((self.V @ self.u_dir)[self.iu]),
                        np.linalg.norm((self.B @ self.u_dir)[self.ip]),
                        np.linalg.norm((self.Cup.T @ self.u_dir)[self.iphi]))
        return scale

    def matrix_and_rhs(self, x, newton):
        """Free-dof linear system for one iteration, without the gauge.

        Picard (newton=False): operator with frozen wind, right-hand side
        the loads plus Dirichlet corrections; the solution is the next
        iterate.  Newton: the Jacobian, to be used against -residual.
        """
        space, cfg = self.space, self.config
        ue, _, _ = self.expand(x)
        wind = ue.reshape(-1, 2)
        Auu = self.V
        if cfg.include_convection:
            Auu = Auu + assembly.convection_matrix(space, wind, expanded=True)
            if newton:
                Auu = Auu + assembly.newton_convection_matrix(space, wind,
                                                              expanded=True)
        Auu_f = assembly.restrict(space, Auu, "velocity", "velocity")
        A = bmat([[Auu_f, -self.Bf.T, self.Cf],
                  [self.Bf, None, None],
                  [-self.Cf.T, None, self.Df]], format="csr")
        if newton:
            rhs = -self.residual(x)
        else:
            rhs = self.b.copy()
            corr_u = (Auu @ self.u_dir)[self.iu]
            rhs[:space.offset_p] -= corr_u
            rhs[space.offset_p:space.offset_phi] -= (self.B @ self.u_dir)[self.ip]
            rhs[space.offset_phi:] += (self.Cup.T @ self.u_dir)[self.iphi]
        return A, rhs

    def gauge_and_solve(self, A, rhs, context):
        """Solve the gauged system: with the mean gauge, the bordered system
        [[A, m], [m^T, 0]] [x, lam] = [rhs, 0] by eliminating lam."""
        cfg, space = self.config, self.space
        if cfg.pressure_gauge == "mean":
            m = np.zeros(A.shape[0])
            m[space.offset_p:space.offset_phi] = self.mean_vec
            y, z = _linear_solve(A, np.column_stack([rhs, m]), cfg, context).T
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
        # pin: replace the continuity row of the first pressure dof
        A = A.tolil()
        pin = space.offset_p
        A.rows[pin] = [pin]
        A.data[pin] = [1.0]
        rhs = rhs.copy()
        rhs[pin] = 0.0
        return _linear_solve(A.tocsc(), rhs, cfg, context)


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

    Raises NonConvergence if the iteration stalls and SingularLinearSystem
    if a linear solve fails.
    """
    config = config or SolverConfig()
    sys = _System(space, params, config, dirichlet, extra_loads)

    x = np.zeros(space.num_total_dofs)
    if initial_state is not None:
        src = initial_state
        if isinstance(src, CoupledState):
            src = np.concatenate([src.u, src.p, src.phi])
        x = np.array(src, dtype=float)
        u, p, phi = space.split_state(x)
        if config.pressure_gauge == "mean":
            p[:] = project_zero_mean(space, p)
        else:
            p[:] = p - p[0]

    scale = max(sys.residual_scale(), 1e-300)
    transcript = []
    alpha = 1.0
    increases = 0
    prev_res = np.inf
    scheme = "picard" if config.scheme != "newton" else "newton"
    if not config.include_convection:
        scheme = "picard"  # single linear solve

    for it in range(1, config.max_iter + 1):
        newton = scheme == "newton"
        A, rhs = sys.matrix_and_rhs(x, newton)
        step = sys.gauge_and_solve(A, rhs, f"coupled iteration {it}")
        x_new = x + alpha * (step - x) if not newton else x + alpha * step
        res = np.linalg.norm(sys.residual(x_new))
        transcript.append({"iteration": it, "scheme": scheme,
                           "residual": float(res), "alpha": float(alpha)})
        x = x_new
        if res <= config.tol * scale or not config.include_convection:
            return CoupledState(*space.split_state(x), converged=True,
                                iterations=it, residual=float(res),
                                transcript=transcript, dirichlet=dirichlet)
        if res >= prev_res:
            increases += 1
            if increases >= config.damping_trigger and scheme == "picard":
                alpha = config.damping_factor
        else:
            increases = 0
        if (config.scheme == "picard_then_newton" and scheme == "picard"
                and res <= config.newton_switch_tol * scale):
            scheme = "newton"
            alpha = 1.0
        prev_res = res

    raise NonConvergence(
        f"no convergence in {config.max_iter} iterations "
        f"(last residual {prev_res:.3e}, tolerance {config.tol * scale:.3e})",
        transcript=transcript,
        state=CoupledState(*space.split_state(x), converged=False,
                           iterations=config.max_iter, residual=float(prev_res),
                           transcript=transcript, dirichlet=dirichlet))


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
        trace_vals = space.interface_trace(state.u, state.dirichlet)
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
    try:
        xi = splu(csc_matrix(Aii)).solve(rhs)
    except RuntimeError as exc:
        raise SingularLinearSystem(f"companion solve: {exc}") from exc
    _check_solution(xi, Aii @ xi - rhs, rhs, "companion solve")
    coeffs = g.copy()
    coeffs[interior] = xi
    return AuxResult(coeffs, float(sigma), wind_raw, lifting, trace_vals,
                     A, iface_mask)
