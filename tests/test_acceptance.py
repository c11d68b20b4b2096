"""Sign-off suite: the ten acceptance properties of the coupled solver and
its verification toolkit, each with its stated tolerance and runtime budget.

Every test prints a single pass/fail line (visible with ``pytest -s`` or on
failure), so the suite doubles as a release checklist.
"""

import time

import numpy as np
import pytest

from conftest import expanded
from nsdarcy import assembly as asm
from nsdarcy import mms
from nsdarcy import solver as slv
from nsdarcy.analysis import (check_uniqueness, compensation_residual,
                              compute_inf_sup, verify_energy_estimate)
from nsdarcy.fem import CoupledSpace
from nsdarcy.mesh import build_rectangle_mesh, refine_uniform


def report(num, name, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num:2d} ({name}): {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# shared data sets
# ---------------------------------------------------------------------------

def driven_f(x, y):
    return (np.sin(np.pi * x) * (2 - y), x * np.cos(np.pi * y))


def driven_p(x, y):
    return np.sin(np.pi * x) * y


def small_f(x, y):
    fx, fy = driven_f(x, y)
    return (0.02 * fx, 0.02 * fy)


def small_p(x, y):
    return 0.02 * driven_p(x, y)


DATASETS = [
    ("driven", dict(nu=1.0, K=1.0, g_f=driven_f, g_p=driven_p)),
    ("viscous", dict(nu=0.5, K=2.0, g_f=driven_f, g_p=driven_p)),
    ("thin", dict(nu=2.0, K=0.5, g_f=driven_f, g_p=driven_p)),
    ("head-driven", dict(nu=1.0, K=1.0, g_f=None, g_p=driven_p)),
    ("small", dict(nu=1.0, K=3.0, g_f=small_f, g_p=small_p)),
]


@pytest.fixture(scope="module")
def base_space():
    return CoupledSpace(build_rectangle_mesh(4, 8, 1.0))


def random_velocity(space, rng):
    return space.velocity_node_values(
        rng.standard_normal(space.num_velocity_dofs))


# ---------------------------------------------------------------------------
# the ten criteria
# ---------------------------------------------------------------------------

def test_criterion_01_skew_identity():
    # N(w)[u,v] + N(w)[v,u] collapses to the interface flux integral
    # int_Gamma (u.v)(w.n_f) for fields vanishing on the outer boundary
    start = time.perf_counter()
    space = CoupledSpace(refine_uniform(build_rectangle_mesh(2, 4, 1.0)))
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for _ in range(20):
        w, u, v = (random_velocity(space, rng) for _ in range(3))
        a = asm.convection_value(space, w, u, v)
        b = asm.convection_value(space, w, v, u)
        flux = asm.interface_uv_flux(space, u, v, w)
        rel = abs(a + b - flux) / max(abs(a), abs(b), abs(flux), 1e-30)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - start
    report(1, "skew identity", worst <= 1e-11 and elapsed < 5.0,
           f"max relative residual {worst:.3e} (tol 1e-11), "
           f"{elapsed:.2f}s of 5s budget, 20 triples")


def test_criterion_02_interface_antisymmetry(base_space):
    # the normal-coupling pair contributes u^T C phi - phi^T C^T u = 0 to
    # the system diagonal for any state
    space = base_space
    Cup = expanded(space, asm._coupling_form(space), "velocity", "head")
    rng = np.random.default_rng(2)
    worst = 0.0
    for _ in range(20):
        u = rng.standard_normal(2 * space.num_nodes(2)).ravel()
        phi = rng.standard_normal(space.num_nodes(space.head_degree))
        forward = u @ (Cup @ phi)
        backward = phi @ (Cup.T @ u)
        rel = abs(forward - backward) / max(abs(forward), 1e-30)
        worst = max(worst, rel)
    report(2, "interface antisymmetry", worst <= 1e-13,
           f"max relative diagonal defect {worst:.3e} (tol 1e-13), 20 states")


def test_criterion_03_energy_balance(base_space):
    space = base_space
    params = asm.ModelParams(space.mesh, nu=1.0, g_f=small_f, g_p=small_p)
    state = slv.solve_coupled(space, params)
    rep = verify_energy_estimate(space, params, state)
    report(3, "energy balance", state.converged
           and rep.balance_defect_rel <= 1e-9,
           f"relative balance defect {rep.balance_defect_rel:.3e} (tol 1e-9)")


def test_criterion_04_a_priori_bound():
    start = time.perf_counter()
    c_mult = 4.0
    worst_ratio = 0.0
    worst_spread = 0.0
    ok = True
    for name, data in DATASETS:
        mesh = build_rectangle_mesh(4, 8, 1.0)
        ratios = []
        for _ in range(3):
            space = CoupledSpace(mesh)
            params = asm.ModelParams(mesh, **data)
            state = slv.solve_coupled(space, params)
            rep = verify_energy_estimate(space, params, state, c_mult=c_mult)
            ratios.append(rep.bound_ratio)
            mesh = refine_uniform(mesh)
        spread = (max(ratios) - min(ratios)) / min(ratios)
        ok &= all(r <= c_mult for r in ratios) and spread < 0.10
        worst_ratio = max(worst_ratio, max(ratios))
        worst_spread = max(worst_spread, spread)
    elapsed = time.perf_counter() - start
    report(4, "a priori bound", ok and elapsed < 120.0,
           f"max ratio {worst_ratio:.3f} (limit {c_mult}), max level spread "
           f"{100 * worst_spread:.1f}% (limit 10%), 5 datasets x 3 levels, "
           f"{elapsed:.1f}s of 120s budget")


def test_criterion_05_compensation(base_space):
    mesh = build_rectangle_mesh(4, 8, 1.0)
    residuals = []
    for _ in range(3):
        space = CoupledSpace(mesh)
        params = asm.ModelParams(mesh, nu=1.0, g_f=driven_f, g_p=driven_p)
        state = slv.solve_coupled(space, params)
        residuals.append(compensation_residual(space, params,
                                               state=state).residual)
        mesh = refine_uniform(mesh)
    decreasing = (all(b <= 1.2 * a for a, b in zip(residuals, residuals[1:]))
                  and residuals[-1] < residuals[0])

    params = asm.ModelParams(base_space.mesh, nu=1.0, g_f=driven_f,
                             g_p=driven_p)
    comp = compensation_residual(
        base_space, params,
        trace=lambda x, y: (x * (1 - x), 0.0),
        wind=lambda x, y: (x * x, -2.0 * x * y))  # div w = 2x - 2x = 0
    exact = abs(comp.t_fluid) > 1e-8 and comp.residual <= 1e-12
    report(5, "compensation", decreasing and exact,
           f"residuals over refinement {[f'{r:.3e}' for r in residuals]}, "
           f"divergence-free wind residual {comp.residual:.3e} (tol 1e-12)")


def test_criterion_06_aux_energy_identity(aux_flux_agreement):
    worst = 0.0
    for name, data in DATASETS:
        mesh = build_rectangle_mesh(4, 8, 1.0)
        space = CoupledSpace(mesh)
        params = asm.ModelParams(mesh, **data)
        state = slv.solve_coupled(space, params)
        aux = slv.solve_auxiliary(space, params, state=state)
        worst = max(worst, aux_flux_agreement(space, aux))
    report(6, "auxiliary energy identity", worst <= 1e-10,
           f"max relative residual {worst:.3e} (tol 1e-10), "
           f"{len(DATASETS)} suite cases")


def test_criterion_07_inf_sup():
    mesh = build_rectangle_mesh(4, 8, 1.0)
    betas = []
    for _ in range(3):
        betas.append(compute_inf_sup(CoupledSpace(mesh)).beta)
        mesh = refine_uniform(mesh)
    spread = (max(betas) - min(betas)) / min(betas)
    stable_ok = all(b > 0.2 for b in betas) and spread < 0.10
    control = compute_inf_sup(
        CoupledSpace(build_rectangle_mesh(4, 8, 1.0), velocity_degree=1)).beta
    report(7, "inf-sup", stable_ok and control < 1e-6,
           f"Taylor-Hood betas {[f'{b:.4f}' for b in betas]} "
           f"(spread {100 * spread:.1f}%, limit 10%), "
           f"equal-order control {control:.3e} (tol 1e-6)")


def test_criterion_08_uniqueness(base_space):
    space = base_space
    params = asm.ModelParams(space.mesh, nu=1.0, g_f=small_f, g_p=small_p)
    unique = check_uniqueness(space, params, seed=20260826)
    premise = unique.uniqueness_number
    two_start_ok = (premise < 0.1 and unique.verdict == "unique"
                    and unique.relative_distance <= 1e-8)

    beta = compute_inf_sup(space).beta
    worst_p = 0.0
    for name, data in DATASETS:
        dparams = asm.ModelParams(space.mesh, **data)
        state = slv.solve_coupled(space, dparams)
        rep = verify_energy_estimate(space, dparams, state)
        worst_p = max(worst_p,
                      beta * rep.pressure_norm / max(rep.pressure_dual, 1e-30))
    report(8, "uniqueness", two_start_ok and worst_p <= 4.0,
           f"uniqueness number {premise:.3e} (< 0.1), two-start distance "
           f"{unique.relative_distance:.3e} (tol 1e-8), max pressure ratio "
           f"{worst_p:.3f} (limit 4)")


def test_criterion_09_mms_convergence():
    start = time.perf_counter()
    smooth = mms.convergence_study(mms.smooth_case(), num_levels=4)
    rates = smooth.final_rates()
    bands = {"rate_u_h1": (2.0, 0.25), "rate_u_l2": (3.0, 0.3),
             "rate_p_l2": (2.0, 0.3), "rate_phi_h1": (1.0, 0.2)}
    rates_ok = all(abs(rates[k] - t) <= tol for k, (t, tol) in bands.items())

    rep = mms.convergence_study(mms.representable_case(), num_levels=2)
    keys = ("err_u_h1", "err_u_l2", "err_p_l2", "err_phi_h1")
    exact_ok = all(row[k] <= 1e-9 for row in rep.rows for k in keys)
    elapsed = time.perf_counter() - start
    report(9, "manufactured convergence", rates_ok and exact_ok
           and elapsed < 300.0,
           "final rates " + ", ".join(f"{k}={rates[k]:.3f}" for k in sorted(bands))
           + f"; representable max error "
             f"{max(row[k] for row in rep.rows for k in keys):.3e} (tol 1e-9); "
             f"{elapsed:.1f}s of 300s budget")


def test_criterion_10_zero_data_oracle():
    meshes = [build_rectangle_mesh(4, 8, 1.0),
              refine_uniform(build_rectangle_mesh(4, 8, 1.0)),
              build_rectangle_mesh(3, 4, 1.0),
              build_rectangle_mesh(6, 2, 1.0)]
    ok = True
    for mesh in meshes:
        space = CoupledSpace(mesh)
        params = asm.ModelParams(mesh, nu=0.7)
        state = slv.solve_coupled(space, params)
        ok &= (state.converged and state.iterations == 1
               and np.linalg.norm(state.u) == 0.0
               and np.linalg.norm(state.p) == 0.0
               and np.linalg.norm(state.phi) == 0.0)
    report(10, "zero-data oracle", ok,
           f"exact zero state in one iteration on {len(meshes)} meshes")
