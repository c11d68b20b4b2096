"""Manufactured solutions and convergence studies.

A manufactured case prescribes closed-form fields (u, p, phi) on the
canonical two-strip geometry (fluid above, porous below, horizontal
interface with downward fluid normal) and derives volume sources and
interface consistency loads so the discrete problem reproduces the fields.
The prescribed fields need not satisfy the interface conditions; their
defects are assembled as additional interface loads.

Provided cases keep the outer-boundary data exact: the smooth case
satisfies the homogeneous velocity, head, and no-flux conditions by
construction, and the representable case (all fields in the discrete
spaces) carries its inhomogeneous velocity trace as Dirichlet data.  Both
use constant diagonal permeability so the lateral no-flux condition holds
exactly.
"""

import numpy as np

from . import assembly
from .fem import CoupledSpace, _evaluate
from .mesh import FLUID, POROUS, build_rectangle_mesh, refinement_chain
from .solver import SolverConfig, solve_coupled
from .workers import Jobs

__all__ = ["ManufacturedCase", "smooth_case", "representable_case",
           "get_case", "CASE_NAMES", "convergence_study", "solution_errors",
           "StudyResult"]

_N_F = np.array([0.0, -1.0])
_TAU = np.array([1.0, 0.0])


def _at(field, x, y, shape=()):
    """A field callable at coordinates (x, y), components leading."""
    return _evaluate(field, np.stack(np.broadcast_arrays(x, y), axis=-1), shape)


class ManufacturedCase:
    """Closed-form fields plus everything needed to reproduce them discretely.

    The field callables take (x, y): ``u -> (2,)``, ``grad_u -> (2, 2)`` with
    entry [i, j] = du_i/dx_j, ``lap_u -> (2,)``, ``p/phi -> float``,
    ``grad_p/grad_phi -> (2,)``, ``hess_phi -> (2, 2)``, following the data
    callable contract of ``assembly.ModelParams`` (component axes leading
    for coordinate arrays).  The derived sources and defects below follow
    it too.  ``dirichlet`` is the velocity trace on gamma_f, or None when
    the field vanishes there.  ``tol``, when given, is the relative
    nonlinear tolerance the case's own gate needs: ``solve`` tightens a
    looser ``SolverConfig.tol`` to it.
    """

    def __init__(self, name, nu, K, G, u, grad_u, lap_u, p, grad_p,
                 phi, grad_phi, hess_phi, dirichlet=None, tol=None):
        self.name = name
        self.nu = float(nu)
        self.K = np.asarray(K, dtype=float)
        self.G = float(G)
        self.u = u
        self.grad_u = grad_u
        self.lap_u = lap_u
        self.p = p
        self.grad_p = grad_p
        self.phi = phi
        self.grad_phi = grad_phi
        self.hess_phi = hess_phi
        self.dirichlet = dirichlet
        self.tol = tol

    # -- derived sources and interface defects ------------------------------

    def source_fluid(self, x, y):
        """g_f = -nu lap(u) + grad(p) + (u . grad) u."""
        return (-self.nu * _at(self.lap_u, x, y, (2,)) + _at(self.grad_p, x, y, (2,))
                + np.einsum('ij...,j...->i...', _at(self.grad_u, x, y, (2, 2)),
                            _at(self.u, x, y, (2,))))

    def source_porous(self, x, y):
        """g_p = -div(K grad(phi)) for constant K."""
        return -np.einsum('ij,ij...->...', self.K, _at(self.hess_phi, x, y, (2, 2)))

    def _strain(self, x, y):
        gu = _at(self.grad_u, x, y, (2, 2))
        return 0.5 * (gu + gu.swapaxes(0, 1))

    def r_normal(self, x, y):
        """Normal-stress defect p - 2 nu n.D(u)n - phi on the interface."""
        nDn = np.einsum('i,ij...,j->...', _N_F, self._strain(x, y), _N_F)
        return _at(self.p, x, y) - 2 * self.nu * nDn - _at(self.phi, x, y)

    def r_tangential(self, x, y):
        """Slip defect -2 nu tau.D(u)n - G u.tau on the interface."""
        tDn = np.einsum('i,ij...,j->...', _TAU, self._strain(x, y), _N_F)
        ut = np.einsum('i...,i->...', _at(self.u, x, y, (2,)), _TAU)
        return -2 * self.nu * tDn - self.G * ut

    def r_mass(self, x, y):
        """Mass defect u.n_f + (K grad phi).n_f on the interface."""
        return (np.einsum('i...,i->...', _at(self.u, x, y, (2,)), _N_F)
                + np.einsum('i,ij,j...->...', _N_F, self.K,
                            _at(self.grad_phi, x, y, (2,))))

    # -- discrete problem ----------------------------------------------------

    def params(self, mesh, sigma=None):
        """The case's coefficients and volume sources only.  They are not
        the whole problem: the case also has its interface loads and, for
        the representable case, Dirichlet velocity data, so
        ``solve_coupled(space, case.params(mesh))`` solves another problem
        (``err_u_h1`` 5.77 for the representable case on 4x8, against
        3.5e-12).  Solve with ``case.solve(space, params)``, or pass
        ``dirichlet=case.dirichlet`` and
        ``extra_loads=case.interface_loads(space)``."""
        return assembly.ModelParams(mesh, nu=self.nu, K=self.K, G=self.G,
                                    sigma=sigma, g_f=self.source_fluid,
                                    g_p=self.source_porous)

    def interface_loads(self, space):
        return assembly.interface_residual_loads(
            space, r_mass=self.r_mass, r_normal=self.r_normal,
            r_tangential=self.r_tangential)

    def solve(self, space, params, config=None):
        """Solve for the case on ``space`` with ``params`` (from
        ``self.params``), its interface loads and Dirichlet data.  A
        ``config`` without convection is rejected: the sources hold
        (u . grad) u, so it would solve another problem."""
        config = config or SolverConfig()
        if not config.include_convection:
            raise ValueError(f"the {self.name} case cannot be solved without "
                             "convection: its sources hold (u . grad) u")
        if self.tol is not None and self.tol < config.tol:
            config = SolverConfig(self.tol, config.max_iter, config.scheme)
        return solve_coupled(space, params, config,
                             dirichlet=self.dirichlet,
                             extra_loads=self.interface_loads(space))


def smooth_case(nu=1.0, amplitude=0.4, head_amplitude=0.15,
                pressure_amplitude=2.0, K=1.0, G=1.0):
    """Trigonometric divergence-free velocity, outer data exactly zero.

    Stream function A sin^2(pi x) (2 - y)^2 for the fluid, head
    B cos(pi x) y, pressure C sin(pi x) cos(pi y) (mean-free on the strip).

    The default amplitudes keep each field's own interpolation error
    dominant in the corresponding error norm, so a refinement study
    observes the clean approximation orders instead of cross-field
    pollution (a large head amplitude drags the velocity L2 rate below 3;
    a small pressure amplitude lets the pressure ride the velocity error
    above order 2).
    """
    A, B, C = amplitude, head_amplitude, pressure_amplitude
    pi = np.pi
    K = np.asarray(K, dtype=float)
    if K.ndim == 0:
        K = K * np.eye(2)
    if abs(K[0, 1]) > 0 or abs(K[1, 0]) > 0:
        raise ValueError("smooth case requires diagonal permeability so the "
                         "lateral no-flux condition stays exact")

    def u(x, y):
        return (-2 * A * np.sin(pi * x) ** 2 * (2 - y),
                -A * pi * np.sin(2 * pi * x) * (2 - y) ** 2)

    def grad_u(x, y):
        return ((-2 * A * pi * np.sin(2 * pi * x) * (2 - y),
                 2 * A * np.sin(pi * x) ** 2),
                (-2 * A * pi ** 2 * np.cos(2 * pi * x) * (2 - y) ** 2,
                 2 * A * pi * np.sin(2 * pi * x) * (2 - y)))

    def lap_u(x, y):
        return (-4 * A * pi ** 2 * np.cos(2 * pi * x) * (2 - y),
                4 * A * pi ** 3 * np.sin(2 * pi * x) * (2 - y) ** 2
                - 2 * A * pi * np.sin(2 * pi * x))

    def p(x, y):
        return C * np.sin(pi * x) * np.cos(pi * y)

    def grad_p(x, y):
        return (C * pi * np.cos(pi * x) * np.cos(pi * y),
                -C * pi * np.sin(pi * x) * np.sin(pi * y))

    def phi(x, y):
        return B * np.cos(pi * x) * y

    def grad_phi(x, y):
        return (-B * pi * np.sin(pi * x) * y, B * np.cos(pi * x))

    def hess_phi(x, y):
        return ((-B * pi ** 2 * np.cos(pi * x) * y, -B * pi * np.sin(pi * x)),
                (-B * pi * np.sin(pi * x), 0.0))

    return ManufacturedCase("smooth", nu, K, G, u, grad_u, lap_u, p, grad_p,
                            phi, grad_phi, hess_phi)


def _representable_u(x, y):
    # at module level, a state solved with these Dirichlet data pickles
    return (x ** 2 + 2 * x * y, -2 * x * (y - 1) - y ** 2)


def representable_case():
    """Quadratic divergence-free velocity, linear pressure and head: every
    field lies in the discrete spaces, so the solver must reproduce it to
    rounding.  The velocity trace on gamma_f is inhomogeneous Dirichlet data.

    Stream function x^2 (y - 1) + y^2 x, pressure x - 1/2 (mean-free), head
    y, with fixed coefficients nu = 1, K = I and G = 1.

    The solve is tightened to ``tol`` = 1e-13 so that the errors stay below
    ``REPRODUCTION_TOL`` (1e-9, absolute).  The residual scale grows by
    about sqrt(2) per level (55 on 4x8, 152 on 32x64) and the errors are
    5-11 times the final absolute residual, so the default tol 1e-10 stops
    16x32 at errors up to 3.7e-8.  Newton passes 1e-13 on every level up
    to 64x128, with errors at most 2.1e-12.
    """
    u = _representable_u

    def grad_u(x, y):
        return ((2 * x + 2 * y, 2 * x), (-2 * (y - 1), -2 * x - 2 * y))

    def lap_u(x, y):
        return (2.0, -2.0)

    def p(x, y):
        return x - 0.5

    def grad_p(x, y):
        return (1.0, 0.0)

    def phi(x, y):
        return y

    def grad_phi(x, y):
        return (0.0, 1.0)

    def hess_phi(x, y):
        return ((0.0, 0.0), (0.0, 0.0))

    return ManufacturedCase("representable", 1.0, np.eye(2), 1.0, u, grad_u,
                            lap_u, p, grad_p, phi, grad_phi, hess_phi,
                            dirichlet=u, tol=1e-13)


_CASES = {"smooth": smooth_case, "representable": representable_case}
CASE_NAMES = tuple(sorted(_CASES))


def get_case(name):
    try:
        factory = _CASES[name]
    except KeyError:
        raise KeyError(f"unknown manufactured case {name!r}; "
                       f"available: {', '.join(CASE_NAMES)}") from None
    return factory()


# ---------------------------------------------------------------------------
# error norms and convergence studies
# ---------------------------------------------------------------------------

_ERROR_DEGREE = 9


def solution_errors(space, case, state):
    """L2/H1-seminorm errors of a discrete state against the exact fields.

    Returns a dict with err_u_h1, err_u_l2, err_p_l2, err_phi_h1 (the
    velocity and pressure over the fluid region, the head gradient over the
    porous region), all by degree-9 quadrature.
    """
    vd = space.velocity_degree
    nodes, vals, grads, W = assembly._pointwise(space, FLUID, vd,
                                                _ERROR_DEGREE)
    X = assembly._quad_points(space, FLUID, _ERROR_DEGREE)
    un = state.u_raw(space)[nodes]
    du = np.einsum('ql,elc->ceq', vals, un) - _evaluate(case.u, X, (2,))
    dg = (np.einsum('elc,eqlj->cjeq', un, grads)
          - _evaluate(case.grad_u, X, (2, 2)))
    pnodes, vals1, _ = assembly._element_data(space, FLUID, 1, _ERROR_DEGREE)
    pn = state.p_raw(space)[pnodes]
    dp = np.einsum('ql,el->eq', vals1, pn) - _evaluate(case.p, X)

    nodes_h, _, grads_h, Wp = assembly._pointwise(
        space, POROUS, space.head_degree, _ERROR_DEGREE)
    Xp = assembly._quad_points(space, POROUS, _ERROR_DEGREE)
    dphi = (np.einsum('el,eqlj->jeq', state.phi_raw(space)[nodes_h], grads_h)
            - _evaluate(case.grad_phi, Xp, (2,)))
    return {
        "err_u_l2": float(np.sqrt(np.einsum('ceq,ceq,eq->', du, du, W))),
        "err_u_h1": float(np.sqrt(np.einsum('cjeq,cjeq,eq->', dg, dg, W))),
        "err_p_l2": float(np.sqrt(np.einsum('eq,eq,eq->', dp, dp, W))),
        "err_phi_h1": float(np.sqrt(np.einsum('jeq,jeq,eq->', dphi, dphi, Wp))),
    }


_ERROR_KEYS = ("err_u_h1", "err_u_l2", "err_p_l2", "err_phi_h1")

# errors at or below this are exact reproduction up to rounding
REPRODUCTION_TOL = 1e-9


class StudyResult:
    """Rows of a refinement study plus observed convergence rates."""

    def __init__(self, rows):
        self.rows = rows

    def rates(self):
        """Observed orders between consecutive levels (h halves each time);
        None where an error is at or below ``REPRODUCTION_TOL`` (noise)."""
        out = {}
        for key in _ERROR_KEYS:
            vals = [r[key] for r in self.rows]
            out["rate_" + key[4:]] = [
                float(np.log2(a / b)) if min(a, b) > REPRODUCTION_TOL else None
                for a, b in zip(vals[:-1], vals[1:])]
        return out

    def final_rates(self):
        return {k: v[-1] for k, v in self.rates().items()}

    def to_csv(self, path):
        rates = self.rates()
        header = ["level", "h"] + list(_ERROR_KEYS) + sorted(rates)
        lines = [",".join(header)]
        for i, row in enumerate(self.rows):
            cells = [str(row["level"]), repr(row["h"])]
            cells += [repr(row[k]) for k in _ERROR_KEYS]
            cells += ["" if i == 0 or rates[k][i - 1] is None
                      else repr(rates[k][i - 1]) for k in sorted(rates)]
            lines.append(",".join(cells))
        text = "\n".join(lines) + "\n"
        with open(path, "w") as fh:
            fh.write(text)
        return text


def convergence_study(case, num_levels=4, base=(4, 8), config=None,
                      velocity_degree=2, head_degree=1):
    """Solve the case on a refinement chain and collect the error norms.
    This process solves the finest level (the largest) while the check of a
    forked worker (``workers.Jobs``) solves the coarser ones, finest first;
    inline, or with one level, they run in turn in this process."""
    chain = refinement_chain(build_rectangle_mesh(base[0], base[1], 1.0),
                             num_levels)

    def level(index):
        mesh = chain[index]
        space = CoupledSpace(mesh, velocity_degree=velocity_degree,
                             head_degree=head_degree)
        state = case.solve(space, case.params(mesh), config)
        return {"level": index, "h": mesh.h, "iterations": state.iterations,
                **solution_errors(space, case, state)}

    def coarser(values):
        return [level(index) for index in reversed(range(num_levels - 1))]

    if num_levels == 1:
        return StudyResult([level(0)])
    with Jobs(coarser) as jobs:
        rows = [level(num_levels - 1)] + jobs.result()
    return StudyResult(rows[::-1])
