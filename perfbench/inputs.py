"""Seeded inputs: planted low-rank ratings shaped like the paper's corpora.

Everything the program receives is generated here from ``--seed``, with
NumPy only, so the inputs never change when the program does.  Each
shape plants a rank-4 truth ``W* H*ᵀ`` with standard-normal factors,
observes a uniform random subset of cells, adds N(0, 0.1²) noise, and
holds out 20% of the observed cells — the recipe of the program's own
``datasets.registry`` surrogates, resized so that train ratings per item
land near the paper's figures (§5, Table 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

RANK = 4
NOISE = 0.1
TEST_FRACTION = 0.2


@dataclass(frozen=True)
class Shape:
    rows: int
    cols: int
    density: float


#: ``train-netflix``: the netflix surrogate (160 items at 24%) with rows
#: scaled until train ratings per item (≈4,600) approach Netflix's 5,575.
NETFLIX = Shape(24_000, 160, 0.24)
#: ``train-yahoo``: a larger square matrix at ≈48 train ratings per item,
#: the communication-bound regime of Yahoo! Music (404 per item).
YAHOO = Shape(4_000, 4_000, 0.015)
#: ``serve-mixed`` warm-up: the registry's netflix surrogate as is.
SERVE = Shape(1_200, 160, 0.24)

#: Model hyperparameters per shape (``HyperParams`` keywords).
HYPER = {
    # The paper's Table 1 step sizes for Netflix; the surrogate's own
    # alpha=0.1 diverges to NaN at this density.
    "NETFLIX": dict(k=8, lambda_=0.05, alpha=0.012, beta=0.05),
    # The registry's yahoo-surrogate schedule; Table 1's alpha=0.00075
    # barely moves a 48-ratings-per-item matrix within the budget.
    "YAHOO": dict(k=8, lambda_=0.02, alpha=0.08, beta=0.001),
    # The registry's netflix-surrogate schedule, at its own size.
    "SERVE": dict(k=8, lambda_=0.05, alpha=0.012, beta=0.05),
}


def hyper(shape_name: str):
    from repro.config import HyperParams

    return HyperParams(**HYPER[shape_name])


@dataclass
class Planted:
    """Observed train/test triplets plus the planted truth behind them."""

    shape: Shape
    w: np.ndarray
    h: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    test: np.ndarray  # boolean mask over the observed cells

    def split(self, held_out: bool):
        mask = self.test if held_out else ~self.test
        return self.rows[mask], self.cols[mask], self.vals[mask]

    def truth(self, rows, cols, rng: np.random.Generator) -> np.ndarray:
        """Noisy planted ratings for cells the generator did not observe."""
        rows = np.asarray(rows)
        cols = np.asarray(cols)
        clean = np.einsum("ij,ij->i", self.w[rows], self.h[cols])
        return clean + rng.normal(0.0, NOISE, rows.size)


def planted(seed: int, shape: Shape, tag: int) -> Planted:
    """The observed cells of ``shape`` for ``seed`` (``tag`` separates
    workloads that share a seed)."""
    rng = np.random.default_rng([seed, tag])
    w = rng.standard_normal((shape.rows, RANK))
    h = rng.standard_normal((shape.cols, RANK))
    nnz = int(shape.rows * shape.cols * shape.density)
    flat = rng.choice(shape.rows * shape.cols, size=nnz, replace=False)
    rows, cols = np.divmod(flat, shape.cols)
    vals = np.einsum("ij,ij->i", w[rows], h[cols]) + rng.normal(0.0, NOISE, nnz)
    test = rng.random(nnz) < TEST_FRACTION
    return Planted(shape, w, h, rows, cols, vals, test)


def unobserved_cells(data: Planted, count: int, rng: np.random.Generator):
    """``count`` distinct cells that are neither train nor held out."""
    shape = data.shape
    taken = np.zeros(shape.rows * shape.cols, dtype=bool)
    taken[data.rows * shape.cols + data.cols] = True
    free = np.flatnonzero(~taken)
    if count > free.size:
        raise ValueError(f"only {free.size} unobserved cells, need {count}")
    picked = rng.choice(free, size=count, replace=False)
    return np.divmod(picked, shape.cols)


def zipf_users(n_users: int, count: int, rng: np.random.Generator, s: float = 1.1):
    """``count`` user ids drawn Zipf(s) over a seeded popularity order, so
    a small hot set of users takes most of the reads."""
    order = rng.permutation(n_users)
    weights = 1.0 / np.arange(1, n_users + 1) ** s
    ranks = rng.choice(n_users, size=count, p=weights / weights.sum())
    return order[ranks]
