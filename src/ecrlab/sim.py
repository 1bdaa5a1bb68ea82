"""Seeded Monte Carlo engine for estimator comparison studies.

Each replication draws its own generator from
``SeedSequence(master_seed, spawn_key=(cell_index, replication_index))``,
so the stream of every (cell, replication) pair is a pure function of
the master seed and the engine produces bit-identical summaries whether
replications run serially or on a process pool. Estimates come from the
same public fitting entry points a caller would use directly, bit for
bit; a replication fits ML once and hands that fit to ``fit_cs_ml``
rather than refitting. Fit failures and uncorrectable Cox-Snell outcomes
are counted per cell and excluded from the bias/SSD averages.
"""

from __future__ import annotations

import csv
import io
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import inference
from .data import Dataset
from .ecr import Params, sample_from

__all__ = [
    "ESTIMATORS",
    "StudyConfig",
    "CellSummary",
    "run_convergence_study",
    "run_grid_study",
    "summaries_to_csv",
]

ESTIMATORS = ("ml", "csml", "pb")

_SSD_DDOF = 1  # SSD is the sample standard deviation across replications


@dataclass(frozen=True)
class StudyConfig:
    """Study layout: truth, sample sizes, replication count, estimators,
    master seed, and (for grid studies) the shape/scale grids."""

    truth: Params
    sample_sizes: tuple[int, ...]
    replications: int
    estimators: tuple[str, ...] = ESTIMATORS
    master_seed: int = 0
    grid: tuple[tuple[float, ...], tuple[float, ...]] | None = None

    def __post_init__(self) -> None:
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if not self.sample_sizes or min(self.sample_sizes) < 5:
            raise ValueError("sample sizes must all be >= 5")
        unknown = set(self.estimators) - set(ESTIMATORS)
        if unknown:
            raise ValueError(f"unknown estimators: {sorted(unknown)}")


@dataclass(frozen=True)
class CellSummary:
    """Tidy per-(cell, estimator, parameter) summary row.

    ``failures`` counts replications whose fit raised; ``uncorrectable``
    counts Cox-Snell outcomes that fell back to the uncorrected fit.
    Both groups are excluded from the averages, so
    successes + failures + uncorrectable = replications.
    """

    cell: int
    beta_true: float
    lambda_true: float
    n: int
    estimator: str
    parameter: str
    mean_bias: float
    relative_bias: float
    ssd: float
    relative_ssd: float
    failures: int
    uncorrectable: int
    successes: int


@dataclass(frozen=True)
class _Cell:
    index: int
    truth: Params
    n: int


def _replicate(args) -> list[tuple[str, float, float] | tuple[str, None, None]]:
    """Run one replication; returns (estimator, beta, lam) per estimator,
    in ``estimators`` order, with (estimator, None, None) marking a
    failed fit and a NaN pair marking an uncorrectable Cox-Snell outcome.
    FitError and ValueError are the recognized per-replication numerical
    failure modes; anything else is a bug and propagates.

    ML is fitted at most once: csml corrects that same fit through
    ``fit_cs_ml(data, ml=...)``, and when the ML fit failed csml records
    a failure too without fitting again."""
    beta_true, lam_true, n, estimators, master_seed, cell_index, rep_index = args
    seed = np.random.SeedSequence(master_seed, spawn_key=(cell_index, rep_index))
    rng = np.random.default_rng(seed)
    data = Dataset(sample_from(rng, n, Params(beta_true, lam_true)), source="<sim>")
    ml = None  # the replication's one ML fit; None if it failed or is not asked for
    if "ml" in estimators or "csml" in estimators:
        try:
            ml = inference.fit_ml(data)
        except (inference.FitError, ValueError):
            pass
    out = []
    for est in estimators:
        try:
            if est == "pb":
                fit = inference.fit_pb(data)
            elif ml is None or est == "ml":
                fit = ml
            else:
                fit = inference.fit_cs_ml(data, ml=ml)
        except (inference.FitError, ValueError):
            fit = None
        if fit is None:
            out.append((est, None, None))
        elif not fit.correctable:
            out.append((est, math.nan, math.nan))
        else:
            out.append((est, fit.params.beta, fit.params.lam))
    return out


def _summarize(cell: _Cell, estimator: str,
               outcomes: tuple[tuple[str, float | None, float | None], ...]) -> list[CellSummary]:
    failures = sum(1 for _, b, _ in outcomes if b is None)
    uncorrectable = sum(1 for _, b, _ in outcomes if b is not None and math.isnan(b))
    good = np.array([(b, lam) for _, b, lam in outcomes if b is not None and not math.isnan(b)])
    rows = []
    truth_values = (cell.truth.beta, cell.truth.lam)
    for j, name in enumerate(("beta", "lambda")):
        truth = truth_values[j]
        if good.size:
            estimates = good[:, j]
            mean_bias = float(np.mean(estimates)) - truth
            ssd = float(np.std(estimates, ddof=_SSD_DDOF)) if len(estimates) > 1 else math.nan
        else:
            mean_bias = math.nan
            ssd = math.nan
        rows.append(
            CellSummary(
                cell=cell.index,
                beta_true=cell.truth.beta,
                lambda_true=cell.truth.lam,
                n=cell.n,
                estimator=estimator,
                parameter=name,
                mean_bias=mean_bias,
                relative_bias=mean_bias / truth,
                ssd=ssd,
                relative_ssd=ssd / truth,
                failures=failures,
                uncorrectable=uncorrectable,
                successes=len(good),
            )
        )
    return rows


def _run_cells(cells: list[_Cell], cfg: StudyConfig, workers: int) -> list[CellSummary]:
    tasks = [
        (cell.truth.beta, cell.truth.lam, cell.n, cfg.estimators,
         cfg.master_seed, cell.index, rep)
        for cell in cells
        for rep in range(cfg.replications)
    ]
    # the fork start method launches every worker at once, so never ask
    # for more than there are tasks or cores
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        chunk = max(1, len(tasks) // (8 * workers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate, tasks, chunksize=chunk))
    else:
        results = [_replicate(t) for t in tasks]

    summaries: list[CellSummary] = []
    for ci, cell in enumerate(cells):
        block = results[ci * cfg.replications : (ci + 1) * cfg.replications]
        # _replicate returns its outcomes in cfg.estimators order
        for est, outcomes in zip(cfg.estimators, zip(*block)):
            summaries.extend(_summarize(cell, est, outcomes))
    return summaries


def run_convergence_study(cfg: StudyConfig, workers: int = 1) -> list[CellSummary]:
    """One cell per sample size at the configured truth."""
    cells = [_Cell(i, cfg.truth, n) for i, n in enumerate(cfg.sample_sizes)]
    return _run_cells(cells, cfg, workers)


def run_grid_study(cfg: StudyConfig, workers: int = 1) -> list[CellSummary]:
    """One cell per (beta, lambda, n) combination of the configured grid."""
    if cfg.grid is None:
        raise ValueError("grid study requires StudyConfig.grid")
    betas, lams = cfg.grid
    cells = []
    index = 0
    for b in betas:
        for lam in lams:
            for n in cfg.sample_sizes:
                cells.append(_Cell(index, Params(b, lam), n))
                index += 1
    return _run_cells(cells, cfg, workers)


def summaries_to_csv(summaries: list[CellSummary]) -> str:
    """Tidy CSV rendering; the failures column counts every replication
    excluded from the averages (fit failures plus uncorrectable
    Cox-Snell outcomes)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["cell", "beta_true", "lambda_true", "n", "estimator", "parameter",
         "mean_bias", "relative_bias", "ssd", "relative_ssd", "failures"]
    )
    for row in summaries:
        writer.writerow(
            [
                row.cell,
                f"{row.beta_true:.17g}",
                f"{row.lambda_true:.17g}",
                row.n,
                row.estimator,
                row.parameter,
                f"{row.mean_bias:.17g}",
                f"{row.relative_bias:.17g}",
                f"{row.ssd:.17g}",
                f"{row.relative_ssd:.17g}",
                row.failures + row.uncorrectable,
            ]
        )
    return buf.getvalue()
