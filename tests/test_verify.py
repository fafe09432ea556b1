"""Tests of the invariant-suite plumbing (the suites themselves run in the
acceptance module, where their runtime budgets are asserted)."""

import json
import math

import plurisym.verify
from plurisym.calculus import TorusGrid
from plurisym.verify import CheckResult, calculus_suite, pointwise_suite


def test_pointwise_suite_passes_on_a_small_draw():
    results = pointwise_suite(seed=1, samples=5)
    assert results, "suite must report at least one check"
    for res in results:
        assert res.passed, f"{res.name}: {res.worst_error:.3e} > {res.tolerance:.1e}"


def test_sign_flip_control_fails_exactly_the_star_trace_checks(monkeypatch):
    # the control negates the trace that the suite reads
    real_trace = plurisym.verify.metric_trace
    monkeypatch.setattr(plurisym.verify, "metric_trace", lambda *args: -real_trace(*args))
    results = pointwise_suite(seed=1, samples=5)
    failing = {res.name for res in results if not res.passed}
    assert failing == {f"star-trace contraction n={n}" for n in (2, 3, 4)}


def test_check_result_rows_serialize_cleanly():
    for res in pointwise_suite(seed=1, samples=2):
        row = res.row()
        assert set(row) == {"name", "worst_error", "tolerance", "passed"}
        assert isinstance(row["passed"], bool)
        json.dumps(row)  # plain Python types only


def test_check_result_pass_boundary():
    assert CheckResult("edge", 1e-12, 1e-12).passed
    assert not CheckResult("edge", 1.0000001e-12, 1e-12).passed


def test_calculus_suite_transforms_each_field_once_and_frees_derivatives(monkeypatch,
                                                                        traced_peak):
    """Scalar fields through the full-grid transforms, and the traced peak.

    764 fields went through them when the suite transformed a field once for
    each of its derivatives, and the peak was 581.8 MiB.  Holding all six
    derivatives of a nilpotency draw at once peaks at 689.8 MiB, and keeping
    the two derivatives of the curvature form alive at 593.8 MiB; reducing
    each derivative to its norm as it is built, 521.8 MiB.  Keeping the
    n=3 fields of the varying-metric checks alive into the flat-state check
    also peaks at 521.8 MiB; freeing them first, 439.7 MiB, later 424.8
    MiB.  That peak was the varying-metric fields, all alive while the
    curvature form's derivatives were built; dropping each field after its
    last use, and the Stokes fields and the flat metric too, takes it to
    227.0 MiB, in the n=3 flat-state check.  There del omega lived beside
    the two (1,2) derivatives of the residual norms; taking its last norm
    first and dropping it, 224.8 MiB.  The peak then moved to the n=3
    (1,0) nilpotency draw, where each derivative's coefficients and their
    inverse transform lived at once; transforming them back in place, and
    taking the residual norms' sums and squares in arrays that already
    exist, 202.8 MiB.  That peak was the n=3 flat-state check, where
    ``residual_norms`` kept the full-grid coefficients of omega, phi and
    conj(phi) while it built the derivatives; the varying-metric
    ``codifferential_dbar`` came next at 197.0 MiB, its inner star beside
    that star's transform, and the (1,1) nilpotency draw's second
    derivatives at 188.9 MiB.  Transforming each field as its terms come
    up, building every derivative that is only reduced to a norm or added
    into another one component at a time, and transforming the
    codifferentials' inner stars and the nilpotency draws' first
    derivatives in place, 168.9 MiB, in the outer star of
    ``codifferential_dbar``, beside omega, its metric with its inverse
    and the trace of del omega.  The random draws and ``truncate`` go
    through the band transforms, which took the count from 550 to 418.
    """
    fields = []

    def counted(transform):
        def wrapper(self, arr, *args, **kwargs):
            fields.append(arr.size // math.prod(arr.shape[arr.ndim - 2 * self.n:]))
            return transform(self, arr, *args, **kwargs)
        return wrapper

    monkeypatch.setattr(TorusGrid, "fft", counted(TorusGrid.fft))
    monkeypatch.setattr(TorusGrid, "ifft", counted(TorusGrid.ifft))
    results, peak = traced_peak(calculus_suite)
    assert all(res.passed for res in results)
    assert sum(fields) == 418
    assert peak / 2 ** 20 < 171
