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


def _yddot(t: float) -> float:
    tt = t * t
    return (2.0 * math.sin(tt) / (tt * t)
            - 2.0 * math.cos(tt) / t
            - 4.0 * t * math.sin(tt))


def fading_output_scenario(horizon: float = 100.0, step: float = 1e-3,
                           table_step: float = 1e-3) -> Scenario:
    """Scenario driving the two-state chain so that y fades but z = u does not.

    The input solves u' + u = y'' for y(t) = sin(t^2)/t (the relation the
    chain imposes between its input and a prescribed measurement), starting
    from u = 0, and the initial plant state is chosen consistently:
    x1 = y' - u and x2 = y - x1 at the shifted origin.
    """
    nsamples = int(round(horizon / table_step)) + 1
    # the table is labelled with the grid that is integrated
    times = np.arange(nsamples) * table_step
    # y'' on the half-step grid, point by point into one array that is freed
    # before the table is built: whole-array numpy would hold several
    # grid-sized temporaries at once
    npoints = 2 * nsamples - 1
    u = rk4_linear(np.array([[-1.0]]), np.array([[1.0]]), table_step, (0.0,),
                   np.fromiter((_yddot(_SHIFT + j * (table_step / 2)) for j in range(npoints)),
                               float, count=npoints)[:, None])[:, 0]

    x1 = _ydot(_SHIFT) - u[0]
    x2 = _y(_SHIFT) - x1
    signal = InputSignal("table",
                         times=tuple(float(t) for t in times),
                         values=tuple((float(v),) for v in u))
    return Scenario(x0=(x1, x2), xi0=(), input_signal=signal,
                    horizon=horizon, step=step)


def zero_input_scenario(x0, xi0=(), horizon: float = 10.0, step: float = 1e-3) -> Scenario:
    return Scenario(x0=tuple(float(v) for v in x0),
                    xi0=tuple(float(v) for v in xi0),
                    input_signal=InputSignal("zero"),
                    horizon=horizon, step=step)
