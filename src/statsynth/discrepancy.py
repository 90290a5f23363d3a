"""Per-unit discrepancy between real and synthetic summary sets.

The working signal is total variation distance with per-cell signed gaps
(real minus synth, so positive means under-generated). A unit whose
synthetic table is empty reports the conventional worst case 1.0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MissingSummary, UnitMismatch
from .summaries import SummarySet, proportions


@dataclass(frozen=True, eq=False)
class UnitDiscrepancy:
    """TVD of one unit plus its real and synth proportions, cell by cell.

    real and synth are aligned flat arrays: a joint table is raveled.
    """

    unit: str
    value: float
    real: np.ndarray
    synth: np.ndarray
    empty_synth: bool = False

    @property
    def cells(self) -> np.ndarray:
        """Signed gap per cell, real minus synth."""
        return self.real - self.synth


@dataclass(frozen=True, eq=False)
class DiscrepancyReport:
    marginals: dict[str, UnitDiscrepancy]
    joints: dict[str, UnitDiscrepancy]
    mean_tvd: float

    @property
    def units(self) -> dict[str, UnitDiscrepancy]:
        return {**self.marginals, **self.joints}


def tvd(p: np.ndarray, q: np.ndarray) -> float:
    """Total variation distance 0.5 * sum |p - q| over aligned cells."""
    p, q = np.asarray(p, dtype=np.float64), np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise UnitMismatch(f"cannot compare tables of shapes {p.shape} and {q.shape}")
    return 0.5 * float(np.abs(p - q).sum())


def _unit(name: str, real: np.ndarray, synth: np.ndarray,
          n_real: int, n_synth: int) -> UnitDiscrepancy:
    if real.shape != synth.shape:
        raise UnitMismatch(f"{name!r}: cell layouts disagree")
    p = proportions(real, n_real).ravel()
    q = proportions(synth, n_synth).ravel()
    value = 1.0 if n_synth == 0 else tvd(p, q)
    return UnitDiscrepancy(name, value, p, q, empty_synth=n_synth == 0)


def compute_report(real: SummarySet, synth: SummarySet) -> DiscrepancyReport:
    """Compare every unit of the real summary set against the synth one."""
    if real.refined != synth.refined:
        raise UnitMismatch("real and synth summaries refine different bins")
    marginals: dict[str, UnitDiscrepancy] = {}
    for name, table in real.marginals.items():
        if name not in synth.marginals:
            raise MissingSummary(f"synth summary lacks marginal {name!r}")
        marginals[name] = _unit(name, table, synth.marginals[name], real.n, synth.n)
    joints: dict[str, UnitDiscrepancy] = {}
    for comp, table in real.joints.items():
        if comp not in synth.joints:
            raise MissingSummary(f"synth summary lacks joint {comp.id!r}")
        joints[comp.id] = _unit(comp.id, table, synth.joints[comp], real.n, synth.n)
    values = [u.value for u in marginals.values()] + [u.value for u in joints.values()]
    mean = float(np.mean(values)) if values else 0.0
    return DiscrepancyReport(marginals, joints, mean)
