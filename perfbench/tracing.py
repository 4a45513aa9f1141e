"""Per-layer tracing of cyclab from outside the package.

`Tracer.install` replaces each public function named in LAYERS by a wrapper
under every name through which callers look it up: the defining module and
every cyclab module that imported it by name.  The scipy entry points are
wrapped as the engine binds them: `lsmr` and `fftconvolve` are globals of
`cyclab.engine`, and `solve_toeplitz` is looked up on `scipy.linalg` at each
call.  `uninstall` puts the originals back, so untraced runs carry no
wrappers.

Each call records a span (name, parent span, start, end); self time is the
span's duration minus the time its child spans cover.  Spans stay in memory
until `write_spans`.
"""

import functools
import os
import sys
import time
from collections import defaultdict

import scipy.linalg

LAYERS = {
    "presets": ("build_set", "build_function"),
    "geometry": (
        "cantor_build",
        "distance_to_set",
        "tube_measure",
        "covering_number",
        "carleson_test",
    ),
    "analytic": (
        "smooth_vanishing_function",
        "outer_power_modulus",
        "m_epsilon",
        "douglas_seminorm",
    ),
    "fourier": ("eval_on_grid", "series_from_samples", "norm_ap_beta", "product"),
    "engine": (
        "certify_cyclic",
        "bicyclicity_infimum",
        "forward_shift_infimum",
        "szego_lower_bound",
        "p_epsilon_decay",
        "lemma_kel_ratio",
    ),
    "experiments": ("run",),
}
SCIPY_ENTRY_POINTS = ("lsmr", "fftconvolve", "solve_toeplitz")
INFIMA = ("engine.bicyclicity_infimum", "engine.forward_shift_infimum")
COUNTS = (
    ("engine.lsmr.iterations", "count"),
    ("engine.lsmr.iterations_per_call", "count"),
    ("engine.budget_exhausted_calls", "count"),
    ("experiments.bytes_written", "bytes"),
)


def span_names():
    names = ["%s.%s" % (mod, fn) for mod, fns in LAYERS.items() for fn in fns]
    return names + ["engine.%s" % fn for fn in SCIPY_ENTRY_POINTS]


def per_layer_metrics():
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for name in span_names():
        out += [(name + ".calls", "count"), (name + ".total_s", "s"),
                (name + ".self_s", "s")]
    return out + list(COUNTS) + [("trace.overhead_s", "s")]


class _Frame:
    __slots__ = ("name", "span_id", "start", "child_s", "lsmr_iterations")

    def __init__(self, name, span_id, start):
        self.name = name
        self.span_id = span_id
        self.start = start
        self.child_s = 0.0
        self.lsmr_iterations = 0


class Tracer:
    def __init__(self, budget):
        self.budget = budget  # engine.LSMR_TOTAL_BUDGET
        self.spans = []  # (span_id, parent_id, name, start, end, self_s)
        self.counts = defaultdict(float)
        self._stack = []
        self._next_id = 0
        self._patched = []  # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            frame = _Frame(name, self._next_id, 0.0)
            self._next_id += 1
            self._stack.append(frame)
            frame.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - frame.start
                if parent is not None:
                    parent.child_s += duration
                self.spans.append((
                    frame.span_id,
                    parent.span_id if parent is not None else -1,
                    name,
                    frame.start,
                    end,
                    duration - frame.child_s,
                ))
            if after is not None:
                after(frame, args, kwargs, out)
            return out

        return wrapper

    def _after_lsmr(self, frame, args, kwargs, out):
        iterations = int(out[2])
        self.counts["engine.lsmr.iterations"] += iterations
        for outer in reversed(self._stack):
            if outer.name in INFIMA:
                outer.lsmr_iterations += iterations
                break

    def _after_infimum(self, frame, args, kwargs, out):
        if frame.lsmr_iterations >= self.budget:
            self.counts["engine.budget_exhausted_calls"] += 1

    def _after_run(self, frame, args, kwargs, out):
        out_dir = args[0]["output_dir"]  # the workloads pass config dicts
        for name in list(out.outputs) + ["manifest.json"]:
            self.counts["experiments.bytes_written"] += os.path.getsize(
                os.path.join(out_dir, name)
            )

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every layer function and the engine's scipy entry points."""
        hooks = {"experiments.run": self._after_run}
        hooks.update({name: self._after_infimum for name in INFIMA})
        cyclab_modules = [
            m for key, m in sorted(sys.modules.items())
            if m is not None and (key == "cyclab" or key.startswith("cyclab."))
        ]
        for mod_name, fns in LAYERS.items():
            home = sys.modules["cyclab." + mod_name]
            for fn_name in fns:
                original = getattr(home, fn_name)
                name = "%s.%s" % (mod_name, fn_name)
                wrapper = self._wrap(name, original, hooks.get(name))
                for mod in cyclab_modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapper)
        engine = sys.modules["cyclab.engine"]
        self._patch(engine, "lsmr",
                    self._wrap("engine.lsmr", engine.lsmr, self._after_lsmr))
        self._patch(engine, "fftconvolve",
                    self._wrap("engine.fftconvolve", engine.fftconvolve))
        self._patch(scipy.linalg, "solve_toeplitz",
                    self._wrap("engine.solve_toeplitz", scipy.linalg.solve_toeplitz))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched = []

    # -- reporting --------------------------------------------------------

    def metrics(self, overhead_s):
        """Every per-layer metric as name -> (value, unit)."""
        calls = defaultdict(int)
        total = defaultdict(float)
        own = defaultdict(float)
        for _, _, name, start, end, self_s in self.spans:
            calls[name] += 1
            total[name] += end - start
            own[name] += self_s
        values = {}
        for name in span_names():
            values[name + ".calls"] = calls[name]
            values[name + ".total_s"] = total[name]
            values[name + ".self_s"] = own[name]
        lsmr_calls = calls["engine.lsmr"]
        iterations = self.counts["engine.lsmr.iterations"]
        values["engine.lsmr.iterations"] = int(iterations)
        values["engine.lsmr.iterations_per_call"] = (
            iterations / lsmr_calls if lsmr_calls else 0.0
        )
        values["engine.budget_exhausted_calls"] = int(
            self.counts["engine.budget_exhausted_calls"]
        )
        values["experiments.bytes_written"] = int(self.counts["experiments.bytes_written"])
        values["trace.overhead_s"] = overhead_s
        return {name: (values[name], unit) for name, unit in per_layer_metrics()}

    def write_spans(self, path):
        """One CSV line per span: id, parent id, name, start, end, self time."""
        with open(path, "w") as fh:
            fh.write("span_id,parent_id,name,start_s,end_s,self_s\n")
            for span in sorted(self.spans):
                fh.write("%d,%d,%s,%r,%r,%r\n" % span)
