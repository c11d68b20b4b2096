"""Numerical verification toolkit: energy estimates, interface-transport
compensation, inf-sup constants, and small-data uniqueness checks.

All reports expose ``to_dict()`` returning a flat JSON-serializable dict
with stable key names.
"""

from dataclasses import dataclass, fields

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence, LinearOperator, eigsh

from . import assembly
from .fem import _factor
from .mesh import FLUID, POROUS
from .solver import (NonConvergence, SolverConfig, _space_blocks,
                     project_zero_mean, solve_auxiliary, solve_coupled)

__all__ = ["EnergyReport", "CompensationReport", "InfSupResult",
           "UniquenessReport", "dual_norm_fluid", "dual_norm_porous",
           "uniqueness_number", "verify_energy_estimate",
           "compensation_residual", "aux_flux_agreement", "compute_inf_sup",
           "check_uniqueness"]


def _riesz(lu, b):
    """Solve A z = b with ``lu``, the factor of an SPD A, and return
    (z, sqrt(b . z))."""
    z = lu.solve(b)
    return z, float(np.sqrt(max(float(b @ z), 0.0)))


@assembly._per_space
def _strain_lu(space):
    """Factor of the fluid strain matrix, computed once per space and shared
    by the fluid dual norm, the pressure dual and the inf-sup eigensolve."""
    return _factor(assembly.restrict(space, _space_blocks(space)[0],
                                     "velocity", "velocity"), "fluid strain")


def _fluid_dual(space, b):
    """Dual norm of the momentum rows of the coupled right-hand side ``b``
    on the discrete fluid velocity space; 0 when they vanish."""
    if not b[:space.offset_p].any():
        return 0.0
    return _riesz(_strain_lu(space), b[:space.offset_p])[1]


def _porous_dual(space, params, b):
    """Dual norm of the head rows of the coupled right-hand side ``b`` in the
    Darcy norm; 0 when they vanish."""
    if not b[space.offset_phi:].any():
        return 0.0
    A = assembly.darcy_matrix(space, params)
    return _riesz(_factor(A, "Darcy matrix"), b[space.offset_phi:])[1]


def dual_norm_fluid(space, params):
    """Dual norm of the fluid load: sup (g_f, v) / ||D(v)|| over the
    discrete fluid velocity space, via a Riesz solve."""
    return _fluid_dual(space, assembly.load_vector(space, params))


def dual_norm_porous(space, params):
    """Dual norm of the porous source: sup (g_p, psi) / ||K^1/2 grad(psi)||."""
    return _porous_dual(space, params, assembly.load_vector(space, params))


def _uniqueness(params, gf, gp):
    return (gf / params.nu ** 2
            + gp / (params.nu ** 1.5 * np.sqrt(params.lambda_min)))


def uniqueness_number(space, params):
    """Small-data functional nu^-2 ||g_f||_* + nu^-3/2 lambda_min^-1/2 ||g_p||_*
    of the volume sources.

    Values small against one indicate the convective perturbation is
    dominated by the dissipation, the regime with a unique solution.
    """
    b = assembly.load_vector(space, params)
    return _uniqueness(params, _fluid_dual(space, b),
                       _porous_dual(space, params, b))


class _Report:
    def to_dict(self):
        """Flat JSON-ready dict; each field cast to its annotated type, and
        None (a check that does not apply) kept as None."""
        return {f.name: None if (v := getattr(self, f.name)) is None
                else f.type(v) for f in fields(self)}


@dataclass
class EnergyReport(_Report):
    """Every quantity of the a priori theory at one discrete solution.

    ``e_*`` are the energies (viscous, Darcy, companion, slip), ``dual_g*``
    the dual norms of the momentum and head rows of the solve's right-hand
    side b, ``load_work`` the work of b on the solution, ``C_sq`` the
    reference bound ``nu^-1 dual_gf^2 + lambda_min^-1 dual_gp^2``, and
    ``bound_ratio = (e_fluid + e_darcy) / C_sq`` the measured constant of
    the a priori estimate, flagged against ``c_mult``.

    Fields that do not apply are nan (``bound_ok`` None), so null in JSON:
    with Dirichlet velocity data, ``balance_defect_rel``, ``bound_ratio``,
    ``bound_ok``, ``e_aux`` and ``compensation_residual``; without the
    inf-sup eigensolve, ``beta``.
    """

    e_fluid: float
    e_darcy: float
    e_aux: float
    e_bjs: float
    dual_gf: float
    dual_gp: float
    C_sq: float
    bound_ratio: float
    uniqueness_number: float
    pressure_norm: float
    pressure_dual: float
    beta: float
    gamma_term: float
    compensation_residual: float
    balance_defect_rel: float
    bound_ok: bool  # None where the bound does not apply
    c_mult: float
    load_work: float
    h: float
    nu: float
    slip_coefficient: float
    lambda_min: float
    lambda_max: float


def verify_energy_estimate(space, params, state, c_mult=4.0,
                           with_inf_sup=True):
    """Check the discrete energy balance and the a priori energy bound at the
    solution ``state``, against the data its solve used.

    The report reads the solve's free-dof right-hand side ``state.b`` (the
    volume loads plus any extra loads, such as a manufactured case's
    interface loads), its residual ``state.F`` and its Dirichlet data
    ``state.dirichlet``; it evaluates no data callable.  The balance
    identity (exact at the discrete solution up to solver and rounding
    error) reads

        2 nu ||D(u)||^2 + ||K^1/2 grad(phi)||^2 + G ||u.tau||^2 + gamma(u)
            = b . (u, phi),

    where gamma(u) is half the interface flux of the kinetic energy and the
    right side is the work of the data, (g_f, u) + (g_p, phi) plus that of
    the extra loads.  The a priori estimate is checked as
    e_fluid + e_darcy <= c_mult * C_sq, with the dual norms of the momentum
    and head rows of b computed by discrete Riesz solves.

    Non-homogeneous Dirichlet data add boundary work that neither the
    balance nor the bound carries, and the companion problem needs a
    solution trace that vanishes at the interface endpoints: with
    ``state.dirichlet`` set, ``balance_defect_rel``, ``bound_ratio``,
    ``e_aux`` and ``compensation_residual`` are nan and ``bound_ok`` is
    None.  ``with_inf_sup=False`` skips the inf-sup eigensolve, and ``beta``
    is nan.
    """
    u_raw = state.u_raw(space)
    phi_raw = state.phi_raw(space)
    strain = assembly.strain_energy(space, u_raw, FLUID)
    darcy = assembly.darcy_energy(space, phi_raw, params)
    bjs = assembly.bjs_energy(space, u_raw, coefficient=params.G)
    gamma = assembly.gamma_term(space, u_raw)
    # the work b . (u, phi), summed over the per-node arrays (b expands to
    # zero at nodes without dofs); a sum over the free dofs alone runs in
    # another order and rounds differently
    b = state.b
    work = float(space.velocity_node_values(b[:space.offset_p]).ravel()
                 @ u_raw.ravel()
                 + space.head_node_values(b[space.offset_phi:]) @ phi_raw)

    balance = 2 * params.nu * strain + darcy + bjs + gamma - work
    scale = max(abs(work), 2 * params.nu * strain + darcy + bjs, 1e-30)

    gf = _fluid_dual(space, b)
    gp = _porous_dual(space, params, b)
    c_sq = gf ** 2 / params.nu + gp ** 2 / params.lambda_min
    e_fluid = params.nu * strain
    lhs = e_fluid + darcy
    ratio = lhs / c_sq if c_sq > 0 else (0.0 if lhs == 0 else np.inf)

    # pressure stability: ||p|| <= beta^-1 * sup_v (p, div v)/||D(v)||, with
    # the momentum rows of the solve, every load included, as the functional:
    # (g_f, v) + interface loads - 2 nu (D(u), D(v)) - N(u)[u, v]
    # - G (u.t, v.t) - (phi, v.n) = -(p, div v) - F_u(v), F the residual
    Mp = assembly.pressure_mass_matrix(space)
    p_norm = float(np.sqrt(max(state.p @ (Mp @ state.p), 0.0)))
    Bf = _space_blocks(space)[3]
    ell = -(Bf.T @ state.p + state.F[:space.offset_p])
    _, p_dual = _riesz(_strain_lu(space), ell)

    beta = compute_inf_sup(space).beta if with_inf_sup else np.nan
    if state.dirichlet is None:
        comp = compensation_residual(space, params, state=state)
        e_aux, comp_res = comp.energy_aux, comp.residual
        defect, bound_ok = abs(balance) / scale, bool(ratio <= c_mult)
    else:
        e_aux = comp_res = defect = ratio = np.nan
        bound_ok = None

    return EnergyReport(
        e_fluid=e_fluid, e_darcy=darcy, e_aux=e_aux, e_bjs=bjs,
        dual_gf=gf, dual_gp=gp, C_sq=c_sq, bound_ratio=ratio,
        uniqueness_number=_uniqueness(params, gf, gp),
        pressure_norm=p_norm, pressure_dual=p_dual, beta=beta,
        gamma_term=gamma, compensation_residual=comp_res,
        balance_defect_rel=defect, bound_ok=bound_ok, c_mult=c_mult,
        load_work=work, h=space.mesh.h, nu=params.nu,
        slip_coefficient=params.G, lambda_min=params.lambda_min,
        lambda_max=params.lambda_max)


@dataclass
class CompensationReport(_Report):
    """Interface-transport compensation through the porous companion field."""

    t_fluid: float
    t_porous: float
    residual: float
    identity_defect: float
    sigma: float
    energy_aux: float
    wind_flux_defect: float


def compensation_residual(space, params, state=None, trace=None, wind=None,
                          sigma=None, aux=None):
    """How exactly the companion problem cancels the interface transport.

    The fluid-side term ``t_fluid = 1/2 int_Gamma |u_ph|^2 (w . n_f)``
    coincides with the skew convection term of the coupled solution tested
    with itself when the wind carries the solution trace (the default
    lifting does).  The porous-side term is the plain convection form of
    the companion solve tested with itself.  Their sum equals
    ``-1/2 (div w, |u_ph|^2)`` identically, so it vanishes to rounding for
    an exactly divergence-free wind, and the normalized residual
    ``|t_fluid + t_porous| / max(1, |t_fluid|)`` shrinks under refinement
    for the weakly divergence-free lifting wind.
    """
    if aux is None:
        aux = solve_auxiliary(space, params, state=state, trace=trace,
                              wind=wind, sigma=sigma)
    uph = space.aux_node_values(aux.coeffs)
    t_fluid = 0.5 * assembly.interface_uv_flux(space, uph, uph, aux.wind_raw)
    t_porous = assembly.convection_value(space, aux.wind_raw, uph, uph,
                                         POROUS, skew=False)
    residual = abs(t_fluid + t_porous) / max(1.0, abs(t_fluid))
    identity = abs(t_fluid + t_porous
                   + 0.5 * assembly.divdot_value(space, aux.wind_raw, uph, uph,
                                                 POROUS))
    return CompensationReport(
        t_fluid=t_fluid, t_porous=t_porous, residual=residual,
        identity_defect=identity, sigma=aux.sigma,
        energy_aux=aux.sigma * assembly.strain_energy(space, uph, POROUS),
        wind_flux_defect=(aux.lifting.flux_defect
                          if aux.lifting is not None else np.nan))


def aux_flux_agreement(space, aux):
    """Relative gap between the companion boundary pairing evaluated through
    the assembled matrix and through independent quadrature of its energy
    form; a direct check on the companion linear solve."""
    uph = space.aux_node_values(aux.coeffs)
    via_matrix = float(aux.coeffs @ (aux.matrix @ aux.coeffs))
    via_quadrature = (2 * aux.sigma * assembly.strain_energy(space, uph, POROUS)
                      + assembly.convection_value(space, aux.wind_raw, uph, uph,
                                                  POROUS, skew=False))
    return abs(via_matrix - via_quadrature) / max(1.0, abs(via_quadrature))


@dataclass
class InfSupResult(_Report):
    """Discrete inf-sup constant and the dimensions it was computed on."""

    beta: float
    lambda_min: float
    velocity_dim: int
    pressure_dim: int
    h: float


@assembly._per_space
def compute_inf_sup(space):
    """Discrete inf-sup constant of the velocity/pressure pairing.

    beta^2 is the smallest eigenvalue of the Schur pencil
    S q = B A^-1 B^T q = lambda M q over mean-free pressures (m . q = 0),
    with A the velocity strain matrix, B the divergence pairing, M the
    pressure mass matrix and m = M 1, found by Lanczos iteration (ARPACK)
    with one strain solve per step.  The pencil (P^T S P + c m m^T, M), with
    P = I - 1 m^T / (m . 1), keeps the mean-free eigenpairs exactly and
    moves the constant to 2, the top of the spectrum since
    (div v)^2 <= 2 |D(v)|^2.  A fixed mean-free start vector and machine
    tolerance make beta reproducible to the bit.  Computed once per space
    (repeat calls return the same object).
    """
    B = _space_blocks(space)[3]  # the free-dof divergence
    m = assembly.pressure_mean_vector(space)
    lu, n, mass = _strain_lu(space), space.num_pressure_dofs, m.sum()

    def schur(q):  # P^T S P q + (2 / mass) m (m . q)
        y = B @ lu.solve(B.T @ (q - (m @ q) / mass))
        return y + m * ((2 * (m @ q) - y.sum()) / mass)

    v0 = project_zero_mean(space, np.random.default_rng(0).standard_normal(n))
    try:
        lams = eigsh(LinearOperator((n, n), schur, dtype=float), k=1,
                     M=assembly.pressure_mass_matrix(space), which="SA",
                     v0=v0, tol=0, return_eigenvectors=False)
    except ArpackNoConvergence as exc:
        raise NonConvergence(f"inf-sup eigensolve on {n} pressure dofs "
                             f"did not converge: {exc}") from exc
    lam_min = float(lams[0])
    return InfSupResult(beta=float(np.sqrt(max(lam_min, 0.0))),
                        lambda_min=lam_min,
                        velocity_dim=space.num_velocity_dofs,
                        pressure_dim=space.pressure_space_dim, h=space.mesh.h)


@dataclass
class UniquenessReport(_Report):
    """Outcome of the two-start uniqueness experiment."""

    uniqueness_number: float
    c_mult: float
    threshold: float
    energy_norm: float
    energy_distance: float
    relative_distance: float
    verdict: str
    iterations_zero_start: int
    iterations_random_start: int


def _energy_norm(space, params, du, dphi):
    u_raw = space.velocity_node_values(du)
    phi_raw = space.head_node_values(dphi)
    return float(np.sqrt(params.nu * assembly.strain_energy(space, u_raw, FLUID)
                         + assembly.darcy_energy(space, phi_raw, params)))


def check_uniqueness(space, params, c_mult=4.0, seed=0, config=None,
                     dirichlet=None, extra_loads=None):
    """Two-start uniqueness experiment.

    Solves once from the zero initial state and once from a seeded random
    state with unit velocity seminorm, and compares the solutions in the
    energy norm.  The small-data condition is
    ``uniqueness_number * c_mult < 1``; the verdict is "unique" when it
    holds and the solutions agree within 1e-8 relative, "violated" when it
    holds but they differ, "inconclusive" when the condition fails.  The
    uniqueness number is that of the right-hand side the solves used,
    ``extra_loads`` included.
    """
    config = config or SolverConfig()
    s0 = solve_coupled(space, params, config, dirichlet=dirichlet,
                       extra_loads=extra_loads)
    num = _uniqueness(params, _fluid_dual(space, s0.b),
                      _porous_dual(space, params, s0.b))

    rng = np.random.default_rng(seed)
    x0 = rng.standard_normal(space.num_total_dofs)
    u0, p0, f0 = space.split_state(x0)
    nrm = np.sqrt(assembly.strain_energy(
        space, space.velocity_node_values(u0), FLUID))
    if nrm > 0:
        u0 /= nrm
    s1 = solve_coupled(space, params, config, dirichlet=dirichlet,
                       initial_state=x0, extra_loads=extra_loads)

    dist = _energy_norm(space, params, s0.u - s1.u, s0.phi - s1.phi)
    size = max(_energy_norm(space, params, s0.u, s0.phi), 1e-30)
    rel = dist / size
    if num * c_mult >= 1.0:
        verdict = "inconclusive"
    elif rel <= 1e-8:
        verdict = "unique"
    else:
        verdict = "violated"
    return UniquenessReport(
        uniqueness_number=num, c_mult=c_mult, threshold=1.0 / c_mult,
        energy_norm=size, energy_distance=dist, relative_distance=rel,
        verdict=verdict, iterations_zero_start=s0.iterations,
        iterations_random_start=s1.iterations)
