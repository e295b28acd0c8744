"""The ``train-netflix`` and ``train-yahoo`` workloads.

Each run makes several independent ``repro.fit(engine="cluster")`` calls
on TCP with two worker processes, splitting ``--seconds`` evenly into
their wall budgets, and reports medians across the fits.  Every fit
starts from the generated triplets, so each one is also a set-up sample.
"""

from __future__ import annotations

import contextlib
import math
import time

import numpy as np

import harness
import inputs

#: Independent fits per run; their medians are the reported figures.
FITS = 3
#: Held-out RMSE a fit must reach (predicting zero scores ≈ 2.0 here;
#: the planted noise floor is 0.1).
RMSE_LIMIT = 0.5
WORKERS = 2


def _no_span(name):
    return contextlib.nullcontext()


#: Workload -> (shape name in ``inputs``, seed tag).
SHAPES = {"train-netflix": ("NETFLIX", 1), "train-yahoo": ("YAHOO", 2)}


class Fit:
    """One timed ``repro.fit`` call and everything read back from it."""

    def __init__(self, data, hyper, budget, seed, telemetry, tracer=None):
        import repro
        from repro.config import RunConfig
        from repro.datasets.ratings import RatingMatrix

        shape = data.shape
        span = tracer.span if tracer is not None else _no_span
        started = time.perf_counter()
        with span("datasets.build"):
            self.train = RatingMatrix(shape.rows, shape.cols, *data.split(False))
            self.test = RatingMatrix(shape.rows, shape.cols, *data.split(True))
        built = time.perf_counter()
        with span("repro.fit"):
            self.result = repro.fit(
                self.train,
                self.test,
                engine="cluster",
                n_workers=WORKERS,
                hyper=hyper,
                run=RunConfig(duration=budget, eval_interval=budget, seed=seed),
                telemetry=telemetry,
            )
        done = time.perf_counter()
        timing = self.result.timing
        self.build_s = built - started
        self.fit_s = done - built
        # Everything in the call outside the timed window and shutdown:
        # sharding, spawn, bootstrap and token scatter (plus the final
        # assembly and RMSE, a few ms).
        self.setup_s = self.build_s + self.fit_s - timing.wall_seconds - (
            timing.join_seconds
        )
        self.freshness_s = done - started

    def check(self, outcome: harness.Outcome, name: str) -> float:
        """The correctness checks of one fit; returns its held-out RMSE."""
        result = self.result
        w, h = result.factors.w, result.factors.h
        rmse = result.final_rmse()
        outcome.check(math.isfinite(rmse), f"{name}: test_rmse is {rmse}")
        outcome.check(rmse <= RMSE_LIMIT, f"{name}: test_rmse {rmse:.4f} > {RMSE_LIMIT}")
        # The program's RMSE must match one computed here from its factors.
        rows, cols, vals = self.test.rows, self.test.cols, self.test.vals
        diff = np.einsum("ij,ij->i", w[rows], h[cols]) - vals
        ours = float(np.sqrt(np.mean(diff * diff)))
        outcome.check(
            math.isclose(ours, rmse, rel_tol=1e-9),
            f"{name}: reported RMSE {rmse} != recomputed {ours}",
        )
        per_worker = result.timing.updates_per_worker or ()
        outcome.check(
            len(per_worker) == WORKERS and min(per_worker) > 0,
            f"{name}: idle worker in {per_worker}",
        )
        return rmse


def fits(name, data, hyper, budget, seed, count, outcome, tracer=None,
         telemetry=False) -> list[Fit]:
    """``count`` checked fits; one that raises counts as a failed operation."""
    from repro.errors import ClusterError

    done = []
    for i in range(count):
        try:
            fit = Fit(data, hyper, budget, seed + i, telemetry, tracer)
        except ClusterError as error:  # token conservation, dead worker
            outcome.check(False, f"{name}: fit failed: {error}")
            continue
        outcome.check(True, "fit")
        fit.rmse = fit.check(outcome, name)
        done.append(fit)
    return done


def run(name: str, seed: int, seconds: float, trace: bool, scratch: str):
    shape, tag = SHAPES[name]
    hyper = inputs.hyper(shape)
    data = inputs.planted(seed, getattr(inputs, shape), tag)
    if trace:
        import layers

        return layers.train_traced(name, data, hyper, seconds, seed, scratch)

    outcome = harness.Outcome()
    budget = seconds / FITS
    done = fits(name, data, hyper, budget, seed * FITS, FITS, outcome)
    if not done:
        return outcome, {}, []
    metrics = {
        "setup_s": (harness.median(f.setup_s for f in done), "s"),
        "peak_rss_mb": (harness.peak_rss_mb(), "MB"),
        "throughput_per_s": (
            harness.median(f.result.timing.updates_per_second for f in done),
            "1/s",
        ),
        "test_rmse": (harness.median(f.rmse for f in done), "rmse"),
        "freshness_s": (harness.median(f.freshness_s for f in done), "s"),
    }
    lines = [
        f"{name}: {len(done)} fits of {budget:.3g} s on {WORKERS} TCP workers, "
        f"kernels {done[0].result.kernel_backend}",
        f"  updates_per_s   {metrics['throughput_per_s'][0]:,.0f} 1/s",
        f"  fit_s           {harness.median(f.fit_s for f in done):.4f} s",
        f"  test_rmse       {metrics['test_rmse'][0]:.4f}",
    ]
    return outcome, metrics, lines
