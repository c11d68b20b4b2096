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
from typing import NamedTuple

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

# `solve` computes no inf-sup constant above this many pressure dofs; the
# sparse eigensolve runs well past it, but lifting the cap gives
# `solve --mesh builtin:48x96` a beta where its benchmark reference pins null
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

class Key(NamedTuple):
    """A config key: its default (None makes it nullable), its JSON type,
    the commands that read it, and its flag's help (None: no flag)."""
    default: object
    kind: type
    readers: tuple
    flag: str = None


_ALL = ("solve", "verify", "mms", "mesh-info")
_SOLVES = ("solve", "verify", "mms")
_SV = ("solve", "verify")

KEYS = {
    "mesh": Key("builtin:4x8", str, _ALL, "builtin:WxH or a mesh file path"),
    "levels": Key(None, int, ("verify", "mms"), "refinement levels"),
    "nu": Key(1.0, float, _SV),
    "K": Key(1.0, float, _SV),  # or a 2x2 matrix
    "G": Key(1.0, float, ("solve",)),
    "sigma": Key(None, float, _SV, "companion viscosity (default nu*h)"),
    "forcing": Key("driven", str, ("solve",)),
    "case": Key(None, str, ("solve", "mms"),
                "manufactured case: smooth (mms default) or representable"),
    "c_mult": Key(4.0, float, _SV, "multiplier for generic-constant checks"),
    "seed": Key(0, int, _ALL, "seed for randomized checks"),
    "out": Key(".", str, _ALL, "output directory"),
    "no_convection": Key(False, bool, _SOLVES, "linear Stokes-Darcy problem"),
    "vtk": Key(False, bool, ("solve",), "also write fields.vtk"),
    "velocity_degree": Key(2, int, ("solve", "mms")),
    "head_degree": Key(1, int, ("solve", "mms")),
    "tol": Key(1e-10, float, _SOLVES),
    "max_iter": Key(25, int, _SOLVES),
    "scheme": Key("picard_then_newton", str, _SOLVES),
    "unstable_pair": Key(False, bool, ("verify",), "P1-P1 inf-sup control"),
    "no_assert": Key(False, bool, ("mms",), "rates do not gate the exit code"),
    "dump": Key(False, bool, ("mesh-info",), "print the canonical text form"),
}
DEFAULTS = {key: spec.default for key, spec in KEYS.items()}


def _typed(key, value, kind):
    """``value`` if it has its key's JSON type, else a ConfigError naming
    the key: numbers are finite and counts whole, and K is a number > 0 or
    a 2x2 matrix of numbers (ModelParams checks that a matrix is SPD)."""
    if key == "K" and isinstance(value, list) and len(value) == 2 and all(
            isinstance(row, list) and len(row) == 2 for row in value):
        return [[_typed("K entry", v, float) for v in row] for row in value]
    if kind in (str, bool):
        if isinstance(value, kind):
            return value
        wanted = "a string" if kind is str else "true or false"
    elif (isinstance(value, bool) or not isinstance(value, (int, float))
          or (kind is int and isinstance(value, float)
              and not value.is_integer())):
        wanted = f"a number of type {kind.__name__}"
    elif not abs(value) <= sys.float_info.max:  # nan, inf or a huge integer
        wanted = "a finite number"
    elif key == "K" and not value > 0:
        wanted = "a number > 0"
    else:
        return kind(value)
    if key == "K":
        wanted = f"{wanted} or a 2x2 matrix"
    raise ConfigError(f"{key} must be {wanted}, got {value!r}")


def load_config(args):
    """Defaults, then the file, then the flags; each value checked, and
    none set away from its default for a command that does not read it."""
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
        unknown = sorted(set(data) - set(KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg.update(data)
    cfg.update((key, value) for key, value in vars(args).items()
               if key in KEYS)
    for key, spec in KEYS.items():
        if not (cfg[key] is None and spec.default is None):
            cfg[key] = _typed(key, cfg[key], spec.kind)
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
    command = args.command
    fixed = (("nu", "K", "G", "forcing")  # a manufactured case fixes them
             if command == "solve" and cfg["case"] else ())
    unread = [key for key, spec in KEYS.items() if cfg[key] != spec.default
              and (command not in spec.readers or key in fixed)]
    if unread:
        why = ("; verify checks the Taylor-Hood pair with a P1 head (the "
               "equal-order control is --unstable-pair)" if command ==
               "verify" and "degree" in "".join(unread) else "")
        raise ConfigError(
            f"{'solve --case' if fixed else command} does not read "
            f"{', '.join(f'{key}={cfg[key]!r}' for key in unread)}{why}")
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


def _spread(values):
    """Relative spread (max - min) / min of per-level values: None below two
    levels or at a non-positive minimum, where it measures nothing."""
    if len(values) < 2 or not min(values) > 0:
        return None
    return (max(values) - min(values)) / min(values)


def _below(value, limit):
    return None if value is None else value < limit  # None: could not run


def _check(name, details, *criteria, reason=None):
    """A check passes or fails on its criteria that ran (those not None);
    with none run it is skipped, "passed" None, and says ``reason``."""
    ran = [c for c in criteria if c is not None]
    if ran:
        return {"name": name, "passed": all(ran), "details": details}
    return {"name": name, "passed": None,
            "details": {**details, "status": "skipped", "reason": reason}}


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
    The bundle checks the Taylor-Hood pair with a P1 head only."""
    levels = cfg["levels"] or 3
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
                space, params, state, c_mult=c_mult)
        return reports[key]

    # a priori energy bound, balance equality, and pressure bound per dataset
    suite = {name: [report(level, nu, K, forcing) for level in range(levels)]
             for name, nu, K, forcing in _ENERGY_SUITE}
    every = [rep for reps in suite.values() for rep in reps]
    ratios = {name: [rep.bound_ratio for rep in reps]
              for name, reps in suite.items()}
    ratio_rows = [{"dataset": name, "bound_ratios": r, "spread": _spread(r)}
                  for name, r in ratios.items()]
    defects = [rep.balance_defect_rel for rep in every]
    p_ratios = [rep.beta * rep.pressure_norm / max(rep.pressure_dual, 1e-30)
                for rep in every]
    checks = [
        _check("energy_balance", {"max_balance_defect_rel": max(defects),
                                  "tolerance": 1e-9},
               all(d <= 1e-9 for d in defects)),
        _check("energy_bound", {"c_mult": c_mult, "datasets": ratio_rows},
               all(rep.bound_ok for rep in every),
               *[_below(row["spread"], 0.10) for row in ratio_rows]),
        _check("pressure_bound", {"max_ratio": max(p_ratios), "c_mult": c_mult},
               all(r <= c_mult for r in p_ratios))]

    # inf-sup sweep over the first three levels; the stable pair reads the
    # beta memoized on each level's space
    vdeg = 1 if cfg["unstable_pair"] else 2
    sweep = ([CoupledSpace(mesh, velocity_degree=1) for mesh in meshes[:3]]
             if cfg["unstable_pair"] else spaces[:3])
    betas = [analysis.compute_inf_sup(space).beta for space in sweep]
    spread = _spread(betas)
    checks.append(_check(
        "inf_sup", {"velocity_degree": vdeg, "betas": betas, "spread": spread},
        all(b > 0.2 for b in betas), _below(spread, 0.10)))

    # compensation refinement sweep on the driven forcing
    residuals = [report(level, cfg["nu"], cfg["K"], "driven")
                 .compensation_residual for level in range(levels)]
    decreasing = (all(b <= 1.2 * a for a, b in zip(residuals, residuals[1:]))
                  and residuals[-1] < residuals[0]) if levels > 1 else None
    checks.append(_check("compensation", {"residuals": residuals}, decreasing,
                         reason="a decrease under refinement needs at least "
                         "two levels"))

    # two-start uniqueness on small data, skipped where the premise fails
    g_f, g_p = FORCINGS["small"]
    params = assembly.ModelParams(meshes[0], nu=cfg["nu"], K=cfg["K"],
                                  sigma=cfg["sigma"], g_f=g_f, g_p=g_p)
    unique = analysis.check_uniqueness(spaces[0], params, c_mult=c_mult,
                                       seed=cfg["seed"], config=config)
    premise = unique.uniqueness_number * c_mult
    checks.append(_check(
        "uniqueness", unique.to_dict(),
        {"unique": True, "violated": False}.get(unique.verdict),
        reason=f"uniqueness_number * c_mult = {premise:.4g} >= 1: the "
               "small-data premise does not hold"))

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
    levels = cfg["levels"] or (4 if case_name == "smooth" else 2)
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

COMMANDS = {"solve": (cmd_solve, "solve one coupled problem"),
            "verify": (cmd_verify, "run the verification bundle"),
            "mms": (cmd_mms, "manufactured-solution rate study"),
            "mesh-info": (cmd_mesh_info, "inspect a mesh")}


def build_parser():
    """One subparser per command; an absent flag sets no attribute."""
    parser = _Parser(prog="nsdarcy",
                     description="Coupled Navier-Stokes/Darcy solver and "
                                 "verification toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, about) in COMMANDS.items():
        p = sub.add_parser(command, help=about,
                           argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="flat JSON config file")
        for key, spec in KEYS.items():
            if spec.flag and command in spec.readers:
                kind = ({"action": "store_true"} if spec.kind is bool
                        else {"type": spec.kind})
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               help=spec.flag, **kind)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command][0](load_config(args))
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
