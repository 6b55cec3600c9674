"""Tests for the pseudonym baseline."""

import numpy as np
import pytest

from repro.defenses.pseudonym import PseudonymDefense
from repro.experiments.runner import defended_matrices
from repro.schemes import as_scheme
from repro.traffic.trace import Trace


class TestPseudonymDefense:
    def test_splits_by_epoch(self):
        trace = Trace.from_arrays(np.arange(10) * 100.0, np.full(10, 100))
        defended = PseudonymDefense(epoch=300.0).apply(trace)
        assert len(defended.flows) == 4  # 1000s span / 300s epochs
        assert sum(len(f) for f in defended.flows.values()) == 10

    def test_no_bytes_added(self):
        trace = Trace.from_arrays(np.arange(5) * 10.0, np.full(5, 100))
        defended = PseudonymDefense(epoch=20.0).apply(trace)
        assert defended.extra_bytes == 0

    def test_features_unchanged_within_epoch(self):
        # The paper's criticism: packets under one pseudonym stay linkable
        # and keep the original features.
        trace = Trace.from_arrays(np.arange(20) * 1.0, np.full(20, 500))
        defended = PseudonymDefense(epoch=1000.0).apply(trace)
        [flow] = defended.observable_flows
        assert np.array_equal(flow.sizes, trace.sizes)
        assert np.array_equal(flow.times, trace.times)

    def test_empty_trace(self):
        defended = PseudonymDefense().apply(Trace.empty())
        assert defended.flows == {}

    def test_rejects_bad_epoch(self):
        with pytest.raises(ValueError):
            PseudonymDefense(epoch=0.0)


class TestEpochLimit:
    """Epoch ids live in the int16 ifaces column: overflow is refused."""

    def _trace(self, n=70_000, span=700.0):
        return Trace.from_arrays(np.linspace(0.0, span, n), np.full(n, 200))

    def test_apply_refuses_too_many_epochs(self):
        with pytest.raises(ValueError, match=r"70001 epochs.*int16.*32768"):
            PseudonymDefense(epoch=0.01).apply(self._trace())

    def test_plan_refuses_too_many_epochs(self):
        scheme = as_scheme(PseudonymDefense(epoch=0.01))
        with pytest.raises(ValueError, match=r"70001 epochs.*int16.*32768"):
            defended_matrices(scheme, self._trace(), window=5.0)

    def test_largest_epoch_count_that_fits(self):
        # 32768 epochs: ids 0 .. 32767, every one a distinct flow.
        trace = self._trace(n=32_768, span=32_767.0)
        defended = PseudonymDefense(epoch=1.0).apply(trace)
        assert len(defended.flows) == 32_768
        assert min(defended.flows) == 0
        assert max(defended.flows) == 32_767
        with pytest.raises(ValueError, match="32769 epochs"):
            PseudonymDefense(epoch=1.0).apply(self._trace(n=10, span=32_768.0))
