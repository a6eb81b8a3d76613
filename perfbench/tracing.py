"""Per-layer tracing of fvvisc from outside the package.

The tracer replaces public module attributes of ``fvvisc`` (functions, and
two methods of the linear-solver class) with wrappers that record one span
per call: name, start, end, parent span and the id of the solve it belongs
to.  Every hot call inside the package goes through a module attribute, so
wrapping from outside sees every layer without editing the package.

Spans are kept in flat arrays while the run is in progress and written once
at the end.  A wrapped name that no longer exists is reported as absent
(with a warning) instead of failing, and every original attribute is put
back when the ``installed()`` context exits.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import sys
import weakref
from array import array
from time import perf_counter

import numpy as np

# span name -> attributes wrapped under that name ("module:attr.attr").
# A span can have several targets when one layer is reached through more
# than one module attribute (``verify`` and ``diffusion1d`` import some
# functions by name, which makes them attributes of their own).
SPANS = {
    "mesh.build": ("fvvisc.mesh:generate_tet_mesh",
                   "fvvisc.mesh:generate_grid_1d",
                   "fvvisc.verify:generate_grid_1d"),
    "ns3d.forcing": ("fvvisc.ns3d:mms_forcing",),
    "ns3d.residual": ("fvvisc.ns3d:residual_ns3d",),
    "recon.lsq_operator": ("fvvisc.recon:_lsq_operator",),
    "recon.gradient": ("fvvisc.recon:lsq_gradient_3d",),
    "recon.reconstruct": ("fvvisc.recon:reconstruct_lr",),
    "recon.face_gradient": ("fvvisc.recon:alpha_damped_face_gradient",),
    "recon.face_scalar": ("fvvisc.recon:face_scalar",
                          "fvvisc.diffusion1d:face_scalar"),
    "physics.roe": ("fvvisc.physics:roe_flux",),
    "physics.viscous_flux": ("fvvisc.physics:viscous_normal_flux",),
    "physics.flux_jacobian": ("fvvisc.physics:inviscid_flux_jacobian",),
    "physics.state_convert": ("fvvisc.physics:prim_to_cons",
                              "fvvisc.physics:cons_to_prim"),
    "diffusion1d.residual": ("fvvisc.diffusion1d:residual_1d",),
    "solver.jacobian_1d": ("fvvisc.solver:_jacobian_1d",),
    "solver.jacobian_ns3d": ("fvvisc.solver:_jacobian_ns3d",),
    "solver.linear_setup": ("fvvisc.solver:_LinearSolver.__init__",),
    "solver.linear_solve": ("fvvisc.solver:_LinearSolver.solve",),
    "solver.nonlinear": ("fvvisc.solver:solve_defect_correction",),
    "solver.solve": ("fvvisc.solver:solve_diffusion_1d",
                     "fvvisc.solver:solve_ns3d"),
    "verify.study": ("fvvisc.verify:run_study_1d",),
}

# metric name -> (unit, spans it needs).  Its value comes from layer_metrics.
METRICS = {
    "mesh.build_s": ("s", ("mesh.build",)),
    "mesh.cells": ("count", ("mesh.build",)),
    "ns3d.forcing_s": ("s", ("ns3d.forcing",)),
    "ns3d.residual.calls": ("count", ("ns3d.residual",)),
    "ns3d.residual_s": ("s", ("ns3d.residual",)),
    "ns3d.residual.self_s": ("s", ("ns3d.residual",)),
    "recon.lsq_operator_s": ("s", ("recon.lsq_operator",)),
    "recon.gradient_s": ("s", ("recon.gradient",)),
    "recon.reconstruct_s": ("s", ("recon.reconstruct",)),
    "recon.face_gradient_s": ("s", ("recon.face_gradient",)),
    "recon.face_scalar_s": ("s", ("recon.face_scalar",)),
    "recon.face_scalar.calls": ("count", ("recon.face_scalar",)),
    "physics.roe_s": ("s", ("physics.roe",)),
    "physics.viscous_flux_s": ("s", ("physics.viscous_flux",)),
    "physics.flux_jacobian_s": ("s", ("physics.flux_jacobian",)),
    "physics.state_convert_s": ("s", ("physics.state_convert",)),
    "diffusion1d.residual.calls": ("count", ("diffusion1d.residual",)),
    "diffusion1d.residual_s": ("s", ("diffusion1d.residual",)),
    "diffusion1d.residual.calls_per_jacobian": (
        "calls/build", ("diffusion1d.residual", "solver.jacobian_1d")),
    "solver.jacobian_1d.self_s": ("s", ("solver.jacobian_1d",)),
    "solver.jacobian_ns3d.self_s": ("s", ("solver.jacobian_ns3d",)),
    "solver.jacobian.builds": (
        "count", ("solver.jacobian_1d", "solver.jacobian_ns3d")),
    "solver.linear_setup_s": ("s", ("solver.linear_setup",)),
    "solver.linear_solve_s": ("s", ("solver.linear_solve",)),
    "solver.linear.solves": ("count", ("solver.linear_solve",)),
    "solver.solves_per_jacobian": (
        "solves/build",
        ("solver.linear_solve", "solver.jacobian_1d", "solver.jacobian_ns3d")),
    "solver.linear_reduction_median": (
        "ratio", ("solver.linear_setup", "solver.linear_solve")),
    "solver.nonlinear_iters": ("count", ("solver.nonlinear",)),
    "solver.step_attempts": ("count", ("solver.nonlinear",)),
    "solver.accept_ratio": ("ratio", ("solver.nonlinear",)),
    "verify.solves": ("count", ("verify.study", "solver.solve")),
    "verify.self_s": ("s", ("verify.study",)),
}


def _resolve(target):
    """(owner, attribute name, current value) of "module:attr.attr"."""
    modname, path = target.split(":")
    owner = importlib.import_module(modname)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr, getattr(owner, attr)


class Tracer:
    """Span recorder plus the counters measured at the same boundaries."""

    def __init__(self):
        self.names = list(SPANS)
        self._name_id = {n: i for i, n in enumerate(self.names)}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_solve = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = []
        self._solve_id = -1
        self._n_solves = 0
        self.absent = []            # targets that could not be resolved
        self.cells = 0
        self.accepted_steps = 0
        self.step_attempts = 0
        self._attempts_unmeasured = False
        self.reductions = []        # ||A x - b|| / ||b|| per linear solve
        self._matrices = weakref.WeakKeyDictionary()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, span, fn):
        nid = self._name_id[span]
        # "around" hooks run inside the span; "after" hooks run once it has
        # ended, so their own cost is not charged to the layer.
        around = {"solver.nonlinear": self._nonlinear,
                  "solver.solve": self._solve}.get(span)
        after = {"mesh.build": self._count_cells,
                 "solver.linear_setup": self._linear_setup,
                 "solver.linear_solve": self._linear_solve}.get(span)
        names, parents, solves = self.span_name, self.span_parent, \
            self.span_solve
        starts, ends, stack = self.span_start, self.span_end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            solves.append(self._solve_id)
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                if around is None:
                    result = fn(*args, **kwargs)
                else:
                    result = around(fn, args, kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return wrapper

    def _count_cells(self, args, kwargs, mesh):
        self.cells += int(mesh.n_cells)

    def _solve(self, fn, args, kwargs):
        outer = self._solve_id
        self._solve_id = self._n_solves
        self._n_solves += 1
        try:
            return fn(*args, **kwargs)
        finally:
            self._solve_id = outer

    def _nonlinear(self, fn, args, kwargs):
        try:
            bound = inspect.signature(fn).bind(*args, **kwargs)
        except TypeError:
            bound = None
        if bound is not None and "apply_update_fn" in bound.arguments:
            update = bound.arguments["apply_update_fn"]

            def counted_update(*a, **k):
                self.step_attempts += 1
                return update(*a, **k)
            bound.arguments["apply_update_fn"] = counted_update
            args, kwargs = bound.args, bound.kwargs
        elif not self._attempts_unmeasured:
            self._attempts_unmeasured = True
            print("perfbench: solve_defect_correction takes no "
                  "apply_update_fn; step attempts are not counted",
                  file=sys.stderr)
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._add_accepted(getattr(exc, "history", None))
            raise
        self._add_accepted(result[1])
        return result

    def _add_accepted(self, history):
        rows = getattr(history, "iterations", None)
        if rows:
            self.accepted_steps += int(rows[-1][0])

    def _linear_setup(self, args, kwargs, _):
        mat = args[1] if len(args) > 1 else kwargs.get("mat")
        if mat is not None:
            self._matrices[args[0]] = mat.tocsr()

    def _linear_solve(self, args, kwargs, x):
        mat = self._matrices.get(args[0])
        rhs = np.asarray(args[1] if len(args) > 1 else kwargs.get("rhs"))
        bnorm = np.linalg.norm(rhs)
        if mat is not None and bnorm > 0.0:
            self.reductions.append(float(np.linalg.norm(mat @ x - rhs) / bnorm))

    @contextlib.contextmanager
    def installed(self):
        """Wrap every resolvable target; restore the originals on exit."""
        saved = []
        try:
            for span, targets in SPANS.items():
                for target in targets:
                    try:
                        owner, attr, fn = _resolve(target)
                    except (ImportError, AttributeError):
                        self.absent.append(target)
                        print(f"perfbench: trace target {target} is absent",
                              file=sys.stderr)
                        continue
                    saved.append((owner, attr, fn))
                    setattr(owner, attr, self._wrap(span, fn))
            yield self
        finally:
            for owner, attr, fn in reversed(saved):
                setattr(owner, attr, fn)

    # -- results ----------------------------------------------------------

    def absent_spans(self):
        """Spans none of whose targets could be wrapped."""
        gone = set(self.absent)
        return {s for s, targets in SPANS.items()
                if all(t in gone for t in targets)}

    def span_arrays(self):
        """Spans as numpy arrays, plus each span's self time."""
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, parent, dur, dur - child

    def write(self, path):
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            solve=np.frombuffer(self.span_solve, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end))

    def layer_metrics(self):
        """{metric: value or None}; None marks a metric whose spans are absent."""
        name, parent, dur, self_t = self.span_arrays()
        nid = self._name_id

        def sel(*spans):
            return np.isin(name, [nid[s] for s in spans])

        def total(*spans):
            return float(dur[sel(*spans)].sum())

        def self_time(*spans):
            return float(self_t[sel(*spans)].sum())

        def calls(*spans):
            return int(sel(*spans).sum())

        def ratio(num, den):
            return num / den if den else 0.0

        builds = calls("solver.jacobian_1d", "solver.jacobian_ns3d")
        residual_1d = sel("diffusion1d.residual")
        under_jac = residual_1d & (parent >= 0)
        under_jac[under_jac] = name[parent[under_jac]] == nid["solver.jacobian_1d"]
        under_study = sel("solver.solve") & (parent >= 0)
        under_study[under_study] = name[parent[under_study]] == nid["verify.study"]
        values = {
            "mesh.build_s": total("mesh.build"),
            "mesh.cells": self.cells,
            "ns3d.forcing_s": total("ns3d.forcing"),
            "ns3d.residual.calls": calls("ns3d.residual"),
            "ns3d.residual_s": total("ns3d.residual"),
            "ns3d.residual.self_s": self_time("ns3d.residual"),
            "recon.lsq_operator_s": total("recon.lsq_operator"),
            "recon.gradient_s": total("recon.gradient"),
            "recon.reconstruct_s": total("recon.reconstruct"),
            "recon.face_gradient_s": total("recon.face_gradient"),
            "recon.face_scalar_s": total("recon.face_scalar"),
            "recon.face_scalar.calls": calls("recon.face_scalar"),
            "physics.roe_s": total("physics.roe"),
            "physics.viscous_flux_s": total("physics.viscous_flux"),
            "physics.flux_jacobian_s": total("physics.flux_jacobian"),
            "physics.state_convert_s": total("physics.state_convert"),
            "diffusion1d.residual.calls": int(residual_1d.sum()),
            "diffusion1d.residual_s": total("diffusion1d.residual"),
            "diffusion1d.residual.calls_per_jacobian": ratio(
                int(under_jac.sum()), calls("solver.jacobian_1d")),
            "solver.jacobian_1d.self_s": self_time("solver.jacobian_1d"),
            "solver.jacobian_ns3d.self_s": self_time("solver.jacobian_ns3d"),
            "solver.jacobian.builds": builds,
            "solver.linear_setup_s": total("solver.linear_setup"),
            "solver.linear_solve_s": total("solver.linear_solve"),
            "solver.linear.solves": calls("solver.linear_solve"),
            "solver.solves_per_jacobian": ratio(calls("solver.linear_solve"),
                                                builds),
            "solver.linear_reduction_median": (
                float(np.median(self.reductions)) if self.reductions else 0.0),
            "solver.nonlinear_iters": self.accepted_steps,
            "solver.step_attempts": self.step_attempts,
            "solver.accept_ratio": ratio(self.accepted_steps,
                                         self.step_attempts),
            "verify.solves": int(under_study.sum()),
            "verify.self_s": self_time("verify.study"),
        }
        if self._attempts_unmeasured:
            values["solver.step_attempts"] = values["solver.accept_ratio"] = None
        gone = self.absent_spans()
        return {m: (None if any(s in gone for s in METRICS[m][1]) else v)
                for m, v in values.items()}
