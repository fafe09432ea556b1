"""Shared fixtures."""

import numpy as np
import pytest

from plurisym.calculus import TorusGrid


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
