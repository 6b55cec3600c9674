"""Reshaper interface.

A reshaper realizes the scheduling function of Sec. III-C-1:
``F(s_k) = i, i in [1, I]`` (0-based here).  It has exactly two
operating modes, one entry point each:

* **online** — :meth:`Reshaper.assign_packet` is called per packet by
  the client driver / AP data plane inside the discrete-event simulator
  and by the streaming replay.  It is stateful: round-robin counters,
  the random stream and the greedy scheduler's per-interface counts
  carry over from one call to the next until :meth:`Reshaper.reset`.
* **batch** — :meth:`Reshaper.assign_columns` maps a whole trace's
  columns at once, as a **freshly reset** scheduler would, without
  reading or advancing the instance's online state.  It is what every
  evaluation path runs (:meth:`Reshaper.reshape`, the scheme adapter's
  ``apply`` and its fused plan), so batch results are pure in
  ``(reshaper, columns)``.

The two modes must agree: ``assign_columns`` returns exactly what a
per-packet ``assign_packet`` replay on a fresh instance would (asserted
for every scheduler by the unit and property tests).
"""

from __future__ import annotations

import abc

import numpy as np

from repro.traffic.trace import Trace

__all__ = ["Reshaper"]


class Reshaper(abc.ABC):
    """Maps packets to virtual interfaces."""

    @property
    @abc.abstractmethod
    def interfaces(self) -> int:
        """Number of virtual interfaces I."""

    @abc.abstractmethod
    def assign_packet(self, time: float, size: int, direction: int) -> int:
        """Online mode: return the interface index for one packet."""

    @abc.abstractmethod
    def assign_columns(
        self,
        times: np.ndarray,
        sizes: np.ndarray,
        directions: np.ndarray,
    ) -> np.ndarray:
        """Batch mode: an int16 interface index per packet, reset semantics.

        Returns what a freshly reset scheduler's per-packet
        :meth:`assign_packet` replay would, bit for bit, and leaves the
        instance's online state untouched.  Needs no :class:`Trace`, so
        it runs on ``TraceStore`` memmap column slices as-is.
        """

    def reset(self) -> None:
        """Clear any online state (per-direction counters etc.)."""

    def reshape(self, trace: Trace) -> Trace:
        """Return ``trace`` with batch interface assignments applied."""
        return trace.with_ifaces(
            self.assign_columns(trace.times, trace.sizes, trace.directions)
        )
