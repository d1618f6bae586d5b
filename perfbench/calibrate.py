"""Host-speed calibration: a fixed reference loop, timed while the program runs.

A shared host runs the same code at speeds that differ by up to about
2x from one minute to the next, so raw wall times of two runs of the
same code often differ by more than any useful regression bound.  The
benchmark therefore also times ``reference_loop`` on the same CPU,
interleaved with the program, and scales each measured time to a host on
which that loop takes ``NOMINAL_S``:

    scaled_s = measured_s * NOMINAL_S / (reference time nearby)

The loop is made of the same kind of work as the program: small complex
matrices driven from Python.  RK4 steps were chosen over a loop of
per-cycle gate work after both were timed next to the four-stroke and the
two-stroke sweeps on a shared 2-vCPU host: over ten minutes in which the
raw times of each sweep moved by 1.6x and 2x, RK4-scaled times moved by
6% and 20% (groups of four operations), and the quartiles of the groups
lay 2% and 3% of the median apart.  It uses nothing from ``spinotto``:
a change to the program cannot change the scale.  Never edit the loop or
``NOMINAL_S`` without measuring the parent commit again, because every
scaled time depends on both.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

import numpy as np

# Seconds one reference_loop call takes on the reference host.
NOMINAL_S = 1.0e-3
# The sampler times one reference_loop call every SAMPLE_INTERVAL_S.
SAMPLE_INTERVAL_S = 0.025
# Share of the reference samples, fastest first, that reference_mean keeps.
KEEP = 0.9
# An operation is scaled by the reference times from this long before its
# start to this long after its end, so a short one still has several.
WINDOW_S = 0.5

_LEVELS = np.linspace(-1.0, 1.0, 8)
_RHO = np.full((8, 8), 0.125, dtype=complex) + 0.01j * np.eye(8)


def _derivative(t: float, state: np.ndarray) -> np.ndarray:
    s = math.sin(t)
    ham = np.diag((1.0 - s) * _LEVELS + 0.5 * s * _LEVELS).astype(complex)
    if not np.allclose(ham, ham.conj().T):
        raise ValueError("reference Hamiltonian is not Hermitian")
    return -1j * (ham @ state - state @ ham)


def reference_loop() -> float:
    """Six RK4 steps of a diagonal field ramp on a three-qubit density matrix.

    Returns a value so that nothing is skipped.
    """
    rho = _RHO
    h = 1e-3
    for k in range(6):
        t = k * h
        k1 = _derivative(t, rho)
        k2 = _derivative(t + h / 2, rho + (h / 2) * k1)
        k3 = _derivative(t + h / 2, rho + (h / 2) * k2)
        k4 = _derivative(t + h, rho + h * k3)
        rho = rho + (h / 6) * (k1 + 2 * k2 + 2 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
    return float(np.real(np.trace(rho)))


def time_reference(repeats: int) -> list[float]:
    """Seconds of ``repeats`` back-to-back reference_loop calls, one each."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference_loop()
        times.append(time.perf_counter() - start)
    return times


def reference_mean(reference_times: list[float]) -> float:
    """Mean of the fastest ``KEEP`` share of the reference times.

    A mean, not a median, because the host's slow phases come in every
    length and the program pays for all of them; the slowest samples are
    dropped because one long pause of the host inside a 1 ms sample would
    otherwise outweigh a hundred others.
    """
    ordered = sorted(reference_times)
    return statistics.fmean(ordered[: max(1, int(len(ordered) * KEEP))])


def scale(measured_s: float, reference_times: list[float]) -> float:
    """``measured_s`` on the reference host, given reference times taken alongside."""
    return measured_s * NOMINAL_S / reference_mean(reference_times)


class Sampler:
    """Times reference_loop every SAMPLE_INTERVAL_S from a SIGALRM handler.

    The handler runs in the main thread between bytecodes, so each sample
    sees the CPU and host phase the program is running in.  ``paused_s``
    and ``paused_cpu_s`` add up the time spent inside the handler, which
    the caller subtracts from what it measured.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (midpoint, seconds)
        self.paused_s = 0.0
        self.paused_cpu_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        cpu = time.process_time()
        start = time.perf_counter()
        reference_loop()
        end = time.perf_counter()
        self.samples.append(((start + end) / 2, end - start))
        self.paused_cpu_s += time.process_time() - cpu
        self.paused_s += time.perf_counter() - start

    def start(self) -> None:
        time_reference(3)  # first calls pay numpy's lazy set-up
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
        if not self.samples:  # stopped within the first interval
            self._sample(signal.SIGALRM, None)

    def around(self, start: float, end: float) -> list[float]:
        """Reference times sampled from WINDOW_S before ``start`` to WINDOW_S after ``end``.

        Only samples the handler took count: back-to-back calls of
        reference_loop find warm caches and run faster than calls that
        interrupt the program.  An operation too short to hold a sample
        gets every sample of the worker.
        """
        near = [s for t, s in self.samples if start - WINDOW_S <= t <= end + WINDOW_S]
        return near or [s for _, s in self.samples]
