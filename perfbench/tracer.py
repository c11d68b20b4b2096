"""Span recorder for the traced benchmark run.

``install`` wraps the public functions at the boundaries between the
``nsdarcy`` modules (``_PACKAGE_FUNCTIONS`` below), and the scipy
linear-algebra entry points those modules call, by rebinding every
module-level name that refers to them.  Nothing inside the package is
edited: the wrappers sit at the call boundaries between layers.  Each call
becomes a span (name, parent span, start, end) kept in memory; ``metrics``
turns the spans and counters into the per-layer metrics.
"""

import functools
import hashlib
import os
import sys
import time
from collections import Counter, defaultdict

# (metric layer, module, attribute) for every wrapped package function;
# several functions may share one layer name, whose self time is the sum
_PACKAGE_FUNCTIONS = [
    ("mesh.build", "nsdarcy.mesh", "build_rectangle_mesh"),
    ("mesh.refine_uniform", "nsdarcy.mesh", "refine_uniform"),
    ("fem.discrete_lifting", "nsdarcy.fem", "discrete_lifting"),
    ("assembly.load_vector", "nsdarcy.assembly", "load_vector"),
    ("assembly.load_value", "nsdarcy.assembly", "load_value"),
    ("assembly.operators", "nsdarcy.assembly", "strain_matrix"),
    ("assembly.operators", "nsdarcy.assembly", "bjs_matrix"),
    ("assembly.operators", "nsdarcy.assembly", "interface_coupling_matrix"),
    ("assembly.operators", "nsdarcy.assembly", "darcy_matrix"),
    ("assembly.operators", "nsdarcy.assembly", "divergence_matrix"),
    ("assembly.operators", "nsdarcy.assembly", "aux_divergence_matrix"),
    ("assembly.operators", "nsdarcy.assembly", "pressure_mass_matrix"),
    ("assembly.convection", "nsdarcy.assembly", "convection_matrix"),
    ("assembly.convection", "nsdarcy.assembly", "newton_convection_matrix"),
    ("assembly.energy", "nsdarcy.assembly", "strain_energy"),
    ("assembly.energy", "nsdarcy.assembly", "darcy_energy"),
    ("assembly.energy", "nsdarcy.assembly", "bjs_energy"),
    ("assembly.energy", "nsdarcy.assembly", "gamma_term"),
    ("assembly.energy", "nsdarcy.assembly", "divergence_value"),
    ("assembly.energy", "nsdarcy.assembly", "convection_value"),
    ("assembly.energy", "nsdarcy.assembly", "divdot_value"),
    ("assembly.energy", "nsdarcy.assembly", "interface_uv_flux"),
    ("assembly.energy", "nsdarcy.assembly", "interface_head_flux"),
    ("solver.solve_coupled", "nsdarcy.solver", "solve_coupled"),
    ("solver.solve_auxiliary", "nsdarcy.solver", "solve_auxiliary"),
    ("analysis.verify_energy_estimate", "nsdarcy.analysis",
     "verify_energy_estimate"),
    ("analysis.dual_norm", "nsdarcy.analysis", "dual_norm_fluid"),
    ("analysis.dual_norm", "nsdarcy.analysis", "dual_norm_porous"),
    ("analysis.compute_inf_sup", "nsdarcy.analysis", "compute_inf_sup"),
    ("analysis.check_uniqueness", "nsdarcy.analysis", "check_uniqueness"),
    ("mms.solution_errors", "nsdarcy.mms", "solution_errors"),
    ("vtk.write_legacy_vtk", "nsdarcy.vtk", "write_legacy_vtk"),
]

# layers wrapped outside the table above: a class constructor, a method of
# the manufactured cases, and the scipy calls
LAYERS = sorted({layer for layer, _, _ in _PACKAGE_FUNCTIONS}
                | {"fem.CoupledSpace", "mms.interface_loads", "linalg.splu",
                   "linalg.lu_solve", "linalg.structural_rank",
                   "linalg.eigh"})

# layers whose calls are keyed by input, for useful_ratio
_USEFUL_RATIO = ("mesh.refine_uniform", "fem.CoupledSpace",
                 "analysis.compute_inf_sup")

# counts that must repeat exactly between two traced runs of one workload
EXACT_COUNTS = ("linalg.splu.calls", "linalg.splu.nnz_lu",
                "linalg.lu_solve.calls", "solver.dofs",
                "solver.solve_coupled.iterations",
                "analysis.compute_inf_sup.calls", "fem.CoupledSpace.calls")


def _mesh_key(mesh):
    h = hashlib.blake2b(digest_size=16)
    for arr in (mesh.vertices, mesh.triangles, mesh.tri_tags):
        h.update(arr.tobytes())
    return h.hexdigest()


def _space_key(space):
    return (_mesh_key(space.mesh), space.velocity_degree, space.head_degree)


class Tracer:
    """In-memory spans plus the counters recorded at the same boundaries."""

    def __init__(self):
        self.spans = []          # [name, parent index or -1, start, end]
        self._stack = []
        self.counts = Counter()
        self.inputs = defaultdict(set)

    def wrap(self, name, fn, after=None):
        """``fn`` timed as a span named ``name``; ``after(result, args)``
        runs outside the span and returns what the caller receives."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, self._stack[-1] if self._stack else -1,
                    time.perf_counter(), None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
            return after(result, args) if after else result
        return wrapper

    def metrics(self):
        """Per-layer metrics: ``<layer>.calls``, ``<layer>.self_s`` for
        every span name, ``<layer>.useful_ratio`` for keyed layers, and the
        counters."""
        covered = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        self_s = defaultdict(float)
        calls = Counter()
        for i, (name, _, start, end) in enumerate(self.spans):
            self_s[name] += end - start - covered[i]
            calls[name] += 1
        out = {}
        for name in sorted(set(calls) | set(LAYERS)):
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
        for name in _USEFUL_RATIO:
            # a layer that is never called repeats no work
            out[f"{name}.useful_ratio"] = (
                len(self.inputs[name]) / calls[name] if calls[name] else 1.0)
        for key in ("linalg.splu.nnz_lu", "solver.dofs",
                    "solver.solve_coupled.iterations", "vtk.bytes"):
            out[key] = self.counts[key]
        return out

    def span_records(self):
        return [{"id": i, "parent": parent, "name": name, "start": start,
                 "end": end}
                for i, (name, parent, start, end) in enumerate(self.spans)]


class _SuperLUProxy:
    """SuperLU factor whose ``solve`` calls are recorded as spans."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


def _rebind(modules, original, replacement):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer):
    """Wrap the package and its scipy entry points in every loaded
    ``nsdarcy`` module.  Call after importing ``nsdarcy.cli``."""
    import scipy.linalg
    import scipy.sparse.csgraph
    import scipy.sparse.linalg

    from nsdarcy.fem import CoupledSpace
    from nsdarcy.mms import ManufacturedCase

    modules = [m for n, m in sys.modules.items()
               if n == "nsdarcy" or n.startswith("nsdarcy.")]

    def keyed(layer, key):
        # the first argument is the mesh, the space, or the space being built
        def after(result, args):
            tracer.inputs[layer].add(key(args[0]))
            return result
        return after

    def after_solve_coupled(state, args):
        tracer.counts["solver.solve_coupled.iterations"] += state.iterations
        tracer.counts["solver.dofs"] += args[0].num_total_dofs
        return state

    def after_vtk(text, args):
        tracer.counts["vtk.bytes"] += os.path.getsize(args[0])
        return text

    after = {
        "mesh.refine_uniform": keyed("mesh.refine_uniform", _mesh_key),
        "analysis.compute_inf_sup": keyed("analysis.compute_inf_sup",
                                          _space_key),
        "solver.solve_coupled": after_solve_coupled,
        "vtk.write_legacy_vtk": after_vtk,
    }
    for layer, module, attr in _PACKAGE_FUNCTIONS:
        original = getattr(sys.modules[module], attr)
        _rebind(modules, original,
                tracer.wrap(layer, original, after.get(layer)))

    CoupledSpace.__init__ = tracer.wrap(
        "fem.CoupledSpace", CoupledSpace.__init__,
        keyed("fem.CoupledSpace", _space_key))
    ManufacturedCase.interface_loads = tracer.wrap(
        "mms.interface_loads", ManufacturedCase.interface_loads)

    def after_splu(lu, args):
        tracer.counts["linalg.splu.nnz_lu"] += lu.nnz
        return _SuperLUProxy(lu, tracer.wrap("linalg.lu_solve", lu.solve))

    # fem and solver import splu and structural_rank inside functions, so
    # the scipy module attributes are rebound as well
    splu = scipy.sparse.linalg.splu
    wrapped_splu = tracer.wrap("linalg.splu", splu, after_splu)
    _rebind(modules, splu, wrapped_splu)
    scipy.sparse.linalg.splu = wrapped_splu

    rank = scipy.sparse.csgraph.structural_rank
    scipy.sparse.csgraph.structural_rank = tracer.wrap(
        "linalg.structural_rank", rank)

    _rebind(modules, scipy.linalg.eigh,
            tracer.wrap("linalg.eigh", scipy.linalg.eigh))
