"""Spans around the public functions of spraydirac, recorded from outside.

`Tracer.install()` replaces each traced function by a wrapper in every
spraydirac module that binds it (``from .expr import simplify`` makes a copy
per importing module), and `uninstall()` puts the originals back.  A span
holds name, start, end, parent span and job id; spans stay in flat arrays
until the run ends, and `metrics()` derives self times, counts and ratios
from them.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import defaultdict

# module -> traced public functions.  Tiny helpers (as_expr, sum_exprs,
# tri_all, flat_var, basis_label, ...) are left out: their wrapper would
# cost more than their body.
TRACED = {
    "problemfile": ("load_problem_file",),
    "expr": ("simplify", "diff", "evaluate", "is_zero", "format_expr",
             "sample_points", "opaque_assignments", "compile_exprs"),
    "geometry": ("lie_bracket", "is_semispray", "is_spray", "euler_residuals",
                 "connection_coefficients", "berwald_frame", "decompose",
                 "curvature", "is_flat", "span_membership"),
    "forms": ("d_scalar", "wedge", "exterior_derivative_1",
              "exterior_derivative_2", "interior_product", "lie_derivative",
              "format_two_form"),
    "dirac": ("pairing", "courant_bracket", "jacobi_anomaly",
              "from_distribution", "gauge_transform", "is_isotropic_at",
              "is_maximal_at", "involutivity_residual", "kernel_at"),
    "motion": ("residual", "is_constant_of_motion", "integrate_sode",
               "conservation_drift", "hamiltonian_certificate"),
    "ansatz": ("assemble", "solve", "search"),
    "report": ("normalize", "to_text", "to_json"),
}
COMMANDS = ("analyze", "verify", "search", "integrate", "dirac-check")
MODULES = tuple(TRACED) + ("cli",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.job = array("l")
        self.job_id = -1
        self._stack = [-1]
        self._in_evaluate = False
        self.simplify_inputs: set = set()
        self.simplify_canonical = 0
        self.diff_inputs: set = set()
        self.is_zero_proven: list[int] = []   # span indices of structural calls
        self.points = 0
        self.steps = 0
        self.aborted = 0
        self.matrix_cells = 0
        self.candidates = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name: str) -> int:
        i = len(self.start)
        self.name.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.job.append(self.job_id)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, qual: str, fn):
        nid = self._id(qual)
        name, parent, job, start, end = (self.name, self.parent, self.job,
                                         self.start, self.end)
        stack, clock = self._stack, time.perf_counter
        observe = getattr(self, "_after_" + qual.replace(".", "_"), None)

        # open()/close() inlined: this runs about a million times per run
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            job.append(self.job_id)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if observe is not None:
                observe(i, args, out)
            return out

        if qual == "expr.evaluate":
            # recursive: only the outermost call becomes a span
            def outer(*args, **kwargs):
                if self._in_evaluate:
                    return fn(*args, **kwargs)
                self._in_evaluate = True
                try:
                    return wrapper(*args, **kwargs)
                finally:
                    self._in_evaluate = False
            return outer
        return wrapper

    # -- counters taken from arguments and results ---------------------------

    def _after_expr_simplify(self, i, args, out):
        self.simplify_inputs.add(args[0])
        if out == args[0]:
            self.simplify_canonical += 1

    def _after_expr_diff(self, i, args, out):
        self.diff_inputs.add((args[0], args[1]))

    def _after_expr_is_zero(self, i, args, out):
        if out.value == "proven_zero":
            self.is_zero_proven.append(i)

    def _after_expr_sample_points(self, i, args, out):
        self.points += len(out)

    def _after_motion_integrate_sode(self, i, args, out):
        self.steps += len(out.times) - 1
        self.aborted += bool(out.aborted)

    def _after_ansatz_assemble(self, i, args, out):
        self.matrix_cells += out[0].size

    def _after_ansatz_search(self, i, args, out):
        self.candidates += len(out.candidates)

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function in every module that binds it."""
        mods = [m for k, m in sorted(sys.modules.items())
                if m is not None and (k == "spraydirac" or k.startswith("spraydirac."))]
        for short, fnames in TRACED.items():
            home = sys.modules[f"spraydirac.{short}"]
            for fname in fnames:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{short}.{fname}", orig)
                for mod in mods:
                    for attr, val in list(vars(mod).items()):
                        if val is orig:
                            self._patched.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patched):
            setattr(mod, attr, orig)
        self._patched.clear()

    # -- derived metrics ---------------------------------------------------

    def metrics(self, wall_s: float, scale: float = 1.0) -> dict[str, float]:
        """Per-layer figures in ms, counts and ratios, keyed
        <module>.<function>.<stat>; wall_s is the traced run's job time and
        `scale` converts measured ms to its base (see worker.normalized_ms)."""
        n = len(self.start)
        dur = [(self.end[i] - self.start[i]) * 1e3 * scale for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        calls: dict[str, int] = defaultdict(int)
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        for i in range(n):
            nm = self.names[self.name[i]]
            calls[nm] += 1
            incl[nm] += dur[i]
            own[nm] += dur[i] - child[i]
        proven = set(self.is_zero_proven)
        iz = self._ids.get("expr.is_zero", -2)
        structural_ms = sum(dur[i] for i in proven)
        sampled_ms = sum(dur[i] for i in range(n) if self.name[i] == iz and i not in proven)

        m: dict[str, float] = {}
        for mod in MODULES:
            m[f"{mod}.self_ms"] = sum(v for k, v in own.items() if k.split(".")[0] == mod)
        m["problemfile.load_problem_file.self_ms"] = own["problemfile.load_problem_file"]
        sc = calls["expr.simplify"]
        m["expr.simplify.calls"] = sc
        m["expr.simplify.distinct_inputs"] = len(self.simplify_inputs)
        m["expr.simplify.canonical_input_frac"] = self.simplify_canonical / sc if sc else 0.0
        m["expr.simplify.self_ms"] = own["expr.simplify"]
        m["expr.diff.calls"] = calls["expr.diff"]
        m["expr.diff.distinct_inputs"] = len(self.diff_inputs)
        m["expr.diff.self_ms"] = own["expr.diff"]
        m["expr.is_zero.structural_calls"] = len(proven)
        m["expr.is_zero.sampled_calls"] = calls["expr.is_zero"] - len(proven)
        m["expr.is_zero.structural_ms"] = structural_ms
        m["expr.is_zero.sampled_ms"] = sampled_ms
        m["expr.evaluate.calls"] = calls["expr.evaluate"]
        m["expr.evaluate.self_ms"] = own["expr.evaluate"]
        m["expr.opaque_assignments.self_ms"] = own["expr.opaque_assignments"]
        m["expr.compile_exprs.calls"] = calls["expr.compile_exprs"]
        m["expr.compile_exprs.self_ms"] = own["expr.compile_exprs"]
        m["expr.sample_points.points"] = self.points
        m["expr.sample_points.self_ms"] = own["expr.sample_points"]
        m["geometry.curvature.self_ms"] = own["geometry.curvature"]
        m["geometry.lie_bracket.calls"] = calls["geometry.lie_bracket"]
        m["geometry.lie_bracket.self_ms"] = own["geometry.lie_bracket"]
        m["geometry.span_membership.self_ms"] = own["geometry.span_membership"]
        m["geometry.berwald_frame.self_ms"] = own["geometry.berwald_frame"]
        m["dirac.courant_bracket.calls"] = calls["dirac.courant_bracket"]
        m["dirac.courant_bracket.self_ms"] = own["dirac.courant_bracket"]
        m["dirac.involutivity_residual.self_ms"] = own["dirac.involutivity_residual"]
        m["dirac.from_distribution.self_ms"] = own["dirac.from_distribution"]
        m["motion.integrate_sode.calls"] = calls["motion.integrate_sode"]
        m["motion.integrate_sode.steps"] = self.steps
        m["motion.integrate_sode.us_per_step"] = (
            own["motion.integrate_sode"] * 1e3 / self.steps if self.steps else 0.0)
        m["motion.integrate_sode.aborted"] = self.aborted
        m["motion.integrate_sode.self_ms"] = own["motion.integrate_sode"]
        m["motion.conservation_drift.self_ms"] = own["motion.conservation_drift"]
        m["motion.hamiltonian_certificate.self_ms"] = own["motion.hamiltonian_certificate"]
        m["motion.residual.self_ms"] = own["motion.residual"]
        m["ansatz.assemble.self_ms"] = own["ansatz.assemble"]
        m["ansatz.assemble.matrix_cells"] = self.matrix_cells
        m["ansatz.solve.self_ms"] = own["ansatz.solve"]
        m["ansatz.search.candidates"] = self.candidates
        for cmd in COMMANDS:
            m[f"cli.{cmd}.ms"] = incl[f"cli.{cmd}"]
        m["trace.spans"] = n
        m["trace.wall_s"] = wall_s
        return m
