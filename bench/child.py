"""One benchmark operation: a `plurisym` command run through `plurisym.cli.main`.

Usage (from the root of a source checkout):

    python3 bench/child.py MARKS_PATH TRACE_PATH|- -- <plurisym arguments>

The command's report goes to this process's stdout, exactly as the
`plurisym` console script would write it.  Two clock readings
(`time.monotonic`, shared by every process of the machine) are written to
MARKS_PATH as JSON: the entry into the workload's core computation
(`run_flow`, or `run_all_suites` for `verify`) and its return.  The parent
reads the start and the exit of this process on the same clock.

With a TRACE_PATH, every layer boundary listed in `LAYERS` is wrapped: each
call records a span (name, start, end, parent span, optional count) in
memory, and the spans are written to TRACE_PATH as JSON when the command has
returned.  Wrapping replaces the function in every `plurisym` module that
holds it, so names imported with `from .forms import wedge` are counted too.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# span name -> functions wrapped under it: (module, attribute) for module
# functions, (module, class, attribute) for methods.  Calls of one span name
# never nest, and every span that is not listed here counts toward the self
# time of its caller.
LAYERS = {
    "calculus.grid_init": [("calculus", "TorusGrid", "__init__")],
    "calculus.band_transform": [("calculus", "TorusGrid", "to_band"),
                                ("calculus", "TorusGrid", "from_band")],
    "calculus.grid_fft": [("calculus", "TorusGrid", "fft"),
                          ("calculus", "TorusGrid", "ifft")],
    "calculus.derivative": [("calculus", "TorusGrid", "derivative_hat")],
    "calculus.residual_norms": [("calculus", "residual_norms")],
    "calculus.chern_form": [("calculus", "chern_form")],
    "forms.metric_build": [("forms", "HermitianMetric", "from_matrix")],
    "forms.metric_trace": [("forms", "metric_trace")],
    "forms.wedge": [("forms", "wedge")],
    "forms.hodge_star": [("forms", "hodge_star")],
    "forms.inner_product": [("forms", "inner_product")],
    "flow.init": [("flow", "make_initial_hs")],
    "flow.run_flow": [("flow", "run_flow")],
    "flow.step": [("flow", "step_rk4")],
    "flow.diagnostics": [("flow", "diagnostics_record")],
    "volume.volume_V": [("volume", "volume_V")],
    "volume.fit": [("volume", "fit_polynomial")],
    "volume.identities": [("volume", "check_derivative_identities")],
    "volume.beta_check": [("volume", "check_beta_pluriclosed")],
    "volume.coefficient": [("volume", "coefficient_a")],
    "verify.run_all_suites": [("verify", "run_all_suites")],
    "verify.pointwise": [("verify", "pointwise_suite")],
    "verify.calculus": [("verify", "calculus_suite")],
    "cli.main": [("cli", "main")],
}

# the core computation of each command; its entry ends set-up
CORE = ("flow.run_flow", "verify.run_all_suites")


def _scalar_fields(grid, arr):
    """Scalar fields in a grid or band array: its leading (component) entries."""
    trailing = arr.shape[arr.ndim - 2 * grid.n:]
    return arr.size // math.prod(trailing) if arr.size else 0


def _snapshot_bytes(result):
    """Bytes of the forms held in FlowResult.states, from their array sizes."""
    return sum(st.omega.coeffs.nbytes + st.phi.coeffs.nbytes for st in result.states)


# span name -> function(args, result) giving the span's count
COUNTS = {
    "calculus.band_transform": lambda args, out: _scalar_fields(args[0], args[1]),
    "calculus.grid_fft": lambda args, out: _scalar_fields(args[0], args[1]),
    "flow.run_flow": lambda args, out: _snapshot_bytes(out),
}


class Recorder:
    """In-memory span list: [name, start, end, parent index, count]."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans, stack, count = self.spans, self._stack, COUNTS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(index)
            span[1] = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if count is not None:
                span[4] = count(args, out)
            return out

        return traced


class Marks:
    """Clock readings at the entry into and the return from the core computation."""

    def __init__(self):
        self.core_start = self.core_end = None

    def wrap(self, name, fn):
        def marked(*args, **kwargs):
            self.core_start = time.monotonic()
            try:
                return fn(*args, **kwargs)
            finally:
                self.core_end = time.monotonic()

        return marked


def _install(wrapper, names):
    """Replace each listed function by ``wrapper.wrap(name, fn)`` wherever it is bound.

    Call after importing `plurisym.cli`, which loads every module of the package.
    """
    modules = [m for key, m in sys.modules.items()
               if key == "plurisym" or key.startswith("plurisym.")]
    for name in names:
        for target in LAYERS[name]:
            owner = sys.modules["plurisym." + target[0]]
            if len(target) == 3:
                cls = getattr(owner, target[1])
                raw = cls.__dict__[target[2]]
                if isinstance(raw, classmethod):
                    setattr(cls, target[2], classmethod(wrapper.wrap(name, raw.__func__)))
                else:
                    setattr(cls, target[2], wrapper.wrap(name, raw))
                continue
            original = getattr(owner, target[1])
            replacement = wrapper.wrap(name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, replacement)


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: child.py MARKS_PATH TRACE_PATH|- -- <plurisym arguments>",
              file=sys.stderr)
        return 2
    marks_path, trace_path, cli_args = argv[0], argv[1], argv[3:]
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import plurisym.cli

    marks = Marks()
    _install(marks, CORE)
    recorder = None
    if trace_path != "-":
        recorder = Recorder()
        _install(recorder, LAYERS)
    code = plurisym.cli.main(cli_args)
    sys.stdout.flush()
    with open(marks_path, "w", encoding="utf-8") as fh:
        json.dump({"core_start": marks.core_start, "core_end": marks.core_end}, fh)
    if recorder is not None:
        with open(trace_path, "w", encoding="utf-8") as fh:
            json.dump(recorder.spans, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
