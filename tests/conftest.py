"""Shared fixtures."""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from plurisym.calculus import TorusGrid
from plurisym.cli import _reuse_freed_memory


@pytest.fixture(scope="session", autouse=True)
def cli_malloc_thresholds():
    """Run every test under the malloc thresholds that ``plurisym.cli.main`` fixes.

    ``main`` fixes them for the rest of its process, so without this the
    modules that run before the first CLI test would step the flow under
    glibc's dynamic thresholds and the rest under fixed ones, and the
    suite's time would depend on its order.
    """
    _reuse_freed_memory()


@pytest.fixture
def count_fields(monkeypatch):
    """Count the scalar fields handed to transform methods of TorusGrid.

    ``count_fields("fft", "ifft")`` wraps those methods for the rest of the
    test and returns a list that gets one entry per call: the number of
    scalar fields in its argument, the product of the component axes before
    the grid (or band) axes.
    """
    def watch(*names):
        calls = []
        for name in names:
            def counted(self, arr, *args, _real=getattr(TorusGrid, name), **kwargs):
                calls.append(int(np.prod(arr.shape[:arr.ndim - 2 * self.n])))
                return _real(self, arr, *args, **kwargs)

            monkeypatch.setattr(TorusGrid, name, counted)
        return calls

    return watch


@pytest.fixture
def traced_peak():
    """Measure the memory a call allocates at its busiest.

    ``traced_peak(fn)`` returns ``(fn(), peak)``: the tracemalloc peak
    during the call over what was live before it, in bytes.  Tracing runs
    for the call if it is not already on.
    """
    def measure(fn):
        started = not tracemalloc.is_tracing()
        if started:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            live = tracemalloc.get_traced_memory()[0]
            out = fn()
            return out, tracemalloc.get_traced_memory()[1] - live
        finally:
            if started:
                tracemalloc.stop()

    return measure


@pytest.fixture
def minor_faults():
    """Count the pages some statements fault in, in a fresh child process.

    ``minor_faults(setup, *statements)`` runs ``setup`` and then each
    statement in turn in a Python that imports plurisym from this source
    tree under the malloc thresholds that ``plurisym.cli.main`` fixes, and
    returns the minor page faults (``ru_minflt``) of each statement.  The
    child starts with no other test's heap, so the counts do not depend on
    what ran before.
    """
    def measure(setup, *statements):
        script = "\n".join([
            "import resource",
            "from plurisym.cli import _reuse_freed_memory",
            "_reuse_freed_memory()",
            setup,
            f"_code = [compile(s, '<statement>', 'exec') for s in {list(statements)!r}]",
            "_faults = []",
            "for _c in _code:",
            "    _before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt",
            "    exec(_c)",
            "    _faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - _before)",
            "print(*_faults)",
        ])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(Path(__file__).parent.parent / "src"), env.get("PYTHONPATH")) if p)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env)
        assert proc.returncode == 0, proc.stderr
        return [int(word) for word in proc.stdout.split()]

    return measure
