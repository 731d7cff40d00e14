"""Per-layer spans and work counts, recorded from outside the program.

``Tracer.install`` replaces the public functions of each softphoton module at
every import site the CLI reaches (``cli.full_amplitude``,
``smatrix.m_exponent``, ...) with wrappers that record a span: name, start,
end, parent span and job id.  Spans stay in memory; ``write_jsonl`` dumps them
when the run ends.  Counting shims wrap the ``kernel``/``fn`` arguments of the
two integrators and the photon callables of continuum emission, so point
counts are taken at the layer boundary.  ``scipy.linalg.expm``,
``mpmath.expm`` and the quadrature layer's Gauss-Legendre table builder are
patched as the layers see them.  ``uninstall`` restores every original.

Nothing under src/ is edited; the wrappers only observe arguments, results
and exceptions and pass them through unchanged.
"""

from __future__ import annotations

import functools
import json
from collections import Counter, defaultdict
from time import perf_counter

# (metric name, unit) for every per-layer metric, in report order
LAYER_METRICS = [
    ("cli.main.calls", "count"), ("cli.main.self_s", "s"),
    ("cli.load_config.time_s", "s"), ("cli.rejected.count", "count"),
    ("cli.uncaught.count", "count"),
    ("smatrix.full_amplitude.calls", "count"),
    ("smatrix.full_amplitude.time_s", "s"),
    ("smatrix.full_amplitude.self_s", "s"),
    ("smatrix.gauge_compare.calls", "count"),
    ("smatrix.gauge_compare.time_s", "s"),
    ("smatrix.renormalization_ledger.calls", "count"),
    ("smatrix.renormalization_ledger.time_s", "s"),
    ("smatrix.emission_factor.continuum.calls", "count"),
    ("smatrix.emission_factor.continuum.time_s", "s"),
    ("smatrix.emission_factor.continuum.photon_evals", "count"),
    ("smatrix.emission_factor.grid.calls", "count"),
    ("smatrix.emission_factor.grid.time_s", "s"),
    ("quadrature.m_exponent.calls", "count"),
    ("quadrature.m_exponent.time_s", "s"),
    ("quadrature.radial_moment.calls", "count"),
    ("quadrature.radial_moment.time_s", "s"),
    ("quadrature.integrate_radial.calls", "count"),
    ("quadrature.integrate_radial.points", "count"),
    ("quadrature.integrate_radial.time_s", "s"),
    ("quadrature.integrate_sphere.calls", "count"),
    ("quadrature.integrate_sphere.points", "count"),
    ("quadrature.integrate_sphere.final_share", "fraction"),
    ("quadrature.integrate_sphere.time_s", "s"),
    ("quadrature.unren_halfline_exponent.calls", "count"),
    ("quadrature.unren_halfline_exponent.time_s", "s"),
    ("quadrature.gl_table.builds", "count"),
    ("quadrature.gl_table.max_order", "count"),
    ("quadrature.gl_table.time_s", "s"),
    ("quadrature.errors", "count"),
    ("currents.current_on_shell.calls", "count"),
    ("currents.current_on_shell.time_s", "s"),
    ("core.on_shell_dot.calls", "count"),
    ("core.transverse_projector.calls", "count"),
    ("gauge.t_map.calls", "count"), ("gauge.t_map.time_s", "s"),
    ("gauge.polarization_components.calls", "count"),
    ("gauge.polarization_components.time_s", "s"),
    ("fock.TruncatedFockSpace.calls", "count"),
    ("fock.TruncatedFockSpace.time_s", "s"),
    ("fock.TruncatedFockSpace.max_dim", "count"),
    ("fock.weyl_operator.calls", "count"), ("fock.weyl_operator.time_s", "s"),
    ("fock.bch_check.calls", "count"), ("fock.bch_check.time_s", "s"),
    ("fock.displacement_truncation_deviation.calls", "count"),
    ("fock.displacement_truncation_deviation.time_s", "s"),
    ("fock.emission_matrix_element.calls", "count"),
    ("fock.emission_matrix_element.time_s", "s"),
    ("fock.dense_expm.calls", "count"), ("fock.dense_expm.max_dim", "count"),
    ("fock.dense_expm.bytes_computed", "bytes"),
    ("fock.mp_expm.calls", "count"), ("fock.mp_expm.time_s", "s"),
]

# every metric with this unit is a deterministic work count
COUNT_UNITS = ("count", "bytes")

# span name -> import sites (module attribute) that reach it
SPANS = {
    "cli.load_config": ["cli.load_config"],
    "smatrix.full_amplitude": ["cli.full_amplitude"],
    "smatrix.gauge_compare": ["cli.gauge_compare"],
    "smatrix.renormalization_ledger": ["cli.renormalization_ledger"],
    "quadrature.m_exponent": ["smatrix.m_exponent"],
    "quadrature.radial_moment": ["quadrature.radial_moment"],
    "quadrature.unren_halfline_exponent": ["smatrix.unren_halfline_exponent"],
    "currents.current_on_shell": ["smatrix.current_on_shell",
                                  "gauge.current_on_shell"],
    "gauge.t_map": ["cli.t_map"],
    "gauge.polarization_components": ["smatrix.polarization_components"],
    "fock.weyl_operator": ["cli.weyl_operator"],
    "fock.bch_check": ["cli.bch_check"],
    "fock.displacement_truncation_deviation": [
        "cli.displacement_truncation_deviation"],
    "fock.emission_matrix_element": ["smatrix.emission_matrix_element"],
}
COUNTED = {
    "core.on_shell_dot": ["smatrix.on_shell_dot", "currents.on_shell_dot"],
    "core.transverse_projector": ["smatrix.transverse_projector",
                                  "currents.transverse_projector",
                                  "gauge.transverse_projector"],
}


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self):
        # span: [name, parent index, job id, start, end, error type]
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = Counter()
        self.maxima = defaultdict(int)
        self._errors = []
        self._restore = []

    # -- recording ----------------------------------------------------------

    def wrap(self, name, fn, before=None, after=None):
        """Span around fn; ``before`` may rewrite (args, kwargs)."""
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            rec = [name, stack[-1] if stack else None, self.job,
                   perf_counter(), None, None]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[5] = type(exc).__name__
                self._note_error(exc)
                raise
            finally:
                rec[4] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result
        return traced

    def counter(self, name, fn):
        """Count calls only: these run once per quadrature point."""
        counts = self.counts
        key = name + ".calls"

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def _note_error(self, exc):
        if type(exc).__name__ == "QuadratureError" and not any(
                e is exc for e in self._errors):
            self._errors.append(exc)
            self.counts["quadrature.errors"] += 1

    # -- patching -----------------------------------------------------------

    def _patch(self, obj, attr, value):
        self._restore.append((obj, attr, getattr(obj, attr)))
        setattr(obj, attr, value)

    def install(self, modules: dict):
        """Patch the modules in ``modules`` (short name -> module)."""
        def site(path):
            mod, attr = path.split(".")
            return modules[mod], attr

        for name, sites in SPANS.items():
            for path in sites:
                obj, attr = site(path)
                self._patch(obj, attr, self.wrap(name, getattr(obj, attr)))
        for name, sites in COUNTED.items():
            for path in sites:
                obj, attr = site(path)
                self._patch(obj, attr, self.counter(name, getattr(obj, attr)))

        quad, smat, cur = (modules["quadrature"], modules["smatrix"],
                           modules["currents"])
        radial = self.wrap("quadrature.integrate_radial",
                           quad.integrate_radial, before=self._radial_shim)
        for mod in (quad, smat, cur):
            self._patch(mod, "integrate_radial", radial)
        sphere = self.wrap("quadrature.integrate_sphere",
                           quad.integrate_sphere,
                           before=self._sphere_shim,
                           after=self._sphere_done)
        for mod in (quad, smat):
            self._patch(mod, "integrate_sphere", sphere)
        self._patch(smat, "emission_factor",
                    self._emission_wrapper(smat.emission_factor,
                                           modules["gauge"].PhotonSmearing))
        table = quad._gl.__wrapped__

        def build(n):
            self.maxima["quadrature.gl_table.max_order"] = max(
                self.maxima["quadrature.gl_table.max_order"], n)
            return table(n)
        gl = functools.lru_cache(maxsize=None)(
            self.wrap("quadrature.gl_table", build))
        for mod in (quad, cur):
            self._patch(mod, "_gl", gl)

        fock = modules["fock"]
        init = fock.TruncatedFockSpace.__init__

        def space_done(args, kwargs, result):
            self.maxima["fock.TruncatedFockSpace.max_dim"] = max(
                self.maxima["fock.TruncatedFockSpace.max_dim"], args[0].dim)
        self._patch(fock.TruncatedFockSpace, "__init__",
                    self.wrap("fock.TruncatedFockSpace", init,
                              after=space_done))
        linalg = modules["scipy.linalg"]
        expm = linalg.expm

        def dense_expm(a, *args, **kwargs):
            d = a.shape[0]
            self.counts["fock.dense_expm.calls"] += 1
            self.counts["fock.dense_expm.bytes_computed"] += 16 * d * d
            self.maxima["fock.dense_expm.max_dim"] = max(
                self.maxima["fock.dense_expm.max_dim"], d)
            return expm(a, *args, **kwargs)
        self._patch(linalg, "expm", dense_expm)
        mpm = modules["mpmath"]
        self._patch(mpm, "expm", self.wrap("fock.mp_expm", mpm.expm))

    def uninstall(self):
        while self._restore:
            obj, attr, value = self._restore.pop()
            setattr(obj, attr, value)

    def _radial_shim(self, args, kwargs):
        """Count integrand points; callers pass the integrand first."""
        fn = args[0]
        counts = self.counts

        def counting(x):
            counts["quadrature.integrate_radial.points"] += len(x)
            return fn(x)
        return (counting, *args[1:]), kwargs

    def _sphere_shim(self, args, kwargs):
        """Count kernel points per call; callers pass the kernel first."""
        kernel = args[0]
        counts = self.counts
        calls = []

        def counting(khat):
            calls.append(len(khat))
            counts["quadrature.integrate_sphere.points"] += len(khat)
            return kernel(khat)
        counting.calls = calls
        return (counting, *args[1:]), kwargs

    def _sphere_done(self, args, kwargs, result):
        # the last evaluation is the accepted order; earlier ones were spent
        # on the convergence test
        self.counts["quadrature.integrate_sphere.final_points"] += \
            args[0].calls[-1]

    def _emission_wrapper(self, fn, photon_type):
        grid = self.wrap("smatrix.emission_factor.grid", fn)
        counts = self.counts

        def before(args, kwargs):
            photon = args[2]

            def counted(k):
                counts["smatrix.emission_factor.continuum.photon_evals"] += 1
                return photon(k)
            return (*args[:2], counted, *args[3:]), kwargs
        continuum = self.wrap("smatrix.emission_factor.continuum", fn,
                              before=before)

        @functools.wraps(fn)
        def emission_factor(kin, gauge, photon, *args, **kwargs):
            impl = grid if isinstance(photon, photon_type) else continuum
            return impl(kin, gauge, photon, *args, **kwargs)
        return emission_factor

    # -- reporting ----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer values (no units) from the recorded spans and counts."""
        calls = Counter()
        time_s = Counter()
        child_s = Counter()
        for name, parent, _job, start, end, _err in self.spans:
            calls[name] += 1
            if not self._inside(parent, name):
                time_s[name] += end - start
            if parent is not None:
                child_s[parent] += end - start
        self_s = Counter()
        for i, (name, _p, _j, start, end, _e) in enumerate(self.spans):
            self_s[name] += (end - start) - child_s[i]
        out = {}
        for metric, _unit in LAYER_METRICS:
            span, _, qty = metric.rpartition(".")
            if metric in self.counts or metric in self.maxima:
                out[metric] = self.counts.get(metric) or self.maxima[metric]
            elif qty in ("calls", "builds"):
                out[metric] = calls[span]
            elif qty == "time_s":
                out[metric] = time_s[span]
            elif qty == "self_s":
                out[metric] = self_s[span]
            else:
                out[metric] = 0
        pts = self.counts["quadrature.integrate_sphere.points"]
        out["quadrature.integrate_sphere.final_share"] = (
            self.counts["quadrature.integrate_sphere.final_points"] / pts
            if pts else 0.0)
        return out

    def _inside(self, index, name) -> bool:
        while index is not None:
            if self.spans[index][0] == name:
                return True
            index = self.spans[index][1]
        return False

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, job, start, end, err) in enumerate(
                    self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "job": job, "start": start, "end": end,
                                     "error": err}) + "\n")
