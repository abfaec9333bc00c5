"""Ready-made simulation scenarios.

The centerpiece is a fading-measurement stress test for the bundled
``integrator_chain`` system: along the constructed trajectory the measured
output follows sin(t^2)/t and dies out, while the input (the estimation
target) keeps oscillating with order-one amplitude.  Any proper stable
estimator driven by that measurement must therefore keep missing the
target, which is exactly why the plant admits no causal observer.

The input is delivered as a dense sampled table so the scenario is fully
reproducible from its serialized form.  Time is shifted by one second to
stay clear of the t = 0 singularity of sin(t^2)/t.
"""

from __future__ import annotations

import math

import numpy as np

from .sim import InputSignal, Scenario, rk4_linear

_SHIFT = 1.0


def _y(t: float) -> float:
    return math.sin(t * t) / t


def _ydot(t: float) -> float:
    return 2.0 * math.cos(t * t) - math.sin(t * t) / (t * t)


# no caller in the package: the scalar reference the tests hold _yddot_grid to
def _yddot(t: float) -> float:
    tt = t * t
    return (2.0 * math.sin(tt) / (tt * t)
            - 2.0 * math.cos(tt) / t
            - 4.0 * t * math.sin(tt))


_YDDOT_BLOCK = 2048


def _yddot_grid(npoints: int, dt: float) -> np.ndarray:
    """y''(_SHIFT + j dt) for j = 0, ..., npoints - 1 as one column.

    Evaluated with numpy one block of _YDDOT_BLOCK points at a time, written
    into the returned array: whole-grid numpy would hold several grid-sized
    temporaries at once.  Same formula as ``_yddot``.
    """
    out = np.empty((npoints, 1))
    for lo in range(0, npoints, _YDDOT_BLOCK):
        t = _SHIFT + np.arange(lo, min(lo + _YDDOT_BLOCK, npoints)) * dt
        tt = t * t
        sin, cos = np.sin(tt), np.cos(tt)
        out[lo:lo + _YDDOT_BLOCK, 0] = 2.0 * sin / (tt * t) - 2.0 * cos / t - 4.0 * t * sin
    return out


# no command runs it; the README documents it and the benchmark times it
def fading_output_scenario(horizon: float = 100.0, step: float = 1e-3,
                           table_step: float = 1e-3) -> Scenario:
    """Scenario driving the two-state chain so that y fades but z = u does not.

    The input solves u' + u = y'' for y(t) = sin(t^2)/t (the relation the
    chain imposes between its input and a prescribed measurement), starting
    from u = 0, and the initial plant state is chosen consistently:
    x1 = y' - u and x2 = y - x1 at the shifted origin.
    """
    nsamples = int(round(horizon / table_step)) + 1
    # y'' on the half-step grid; its array is freed once u is integrated
    u = rk4_linear(np.array([[-1.0]]), np.array([[1.0]]), table_step, (0.0,),
                   _yddot_grid(2 * nsamples - 1, table_step / 2))

    x1 = _ydot(_SHIFT) - u[0, 0]
    x2 = _y(_SHIFT) - x1
    # the table is labelled with the grid that is integrated
    signal = InputSignal("table", times=np.arange(nsamples) * table_step, values=u)
    return Scenario(x0=(x1, x2), xi0=(), input_signal=signal,
                    horizon=horizon, step=step)
