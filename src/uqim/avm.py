"""Empirical CDFs and the area validation metric.

The area validation metric between an experimental output sample and a
model output sample is the area between their empirical CDFs,

    d(F_exp, F_sim) = integral |F_exp(t) - F_sim(t)| dt.

Two values are computed: a Riemann midpoint approximation on an equidistant
grid (the advertised estimator) and the exact integral of the piecewise
constant integrand, which for equal sample sizes equals the mean absolute
difference of the sorted samples.
"""

from __future__ import annotations

from dataclasses import dataclass

# numpy is imported inside the functions below, not at the top: ``import uqim``
# loads this module, and the CLI's no-work paths (--dry-run, --version, --help,
# argument errors) must not pay for numpy


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous step function F(t) = #{v_i <= t} / n."""

    values: np.ndarray

    def __post_init__(self):
        import numpy as np

        from .data import _values

        v = np.sort(_values(self.values, "empirical cdf values"))
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def n(self) -> int:
        return self.values.size

    def __call__(self, t) -> np.ndarray:
        import numpy as np

        t = np.asarray(t, dtype=float)
        out = np.searchsorted(self.values, t, side="right") / self.n
        return float(out) if t.ndim == 0 else out


@dataclass(frozen=True)
class AvmResult:
    """Riemann approximation plus the exact reference value."""

    riemann: float
    exact: float
    grid_steps: int
    lo: float
    hi: float


def _exact_area(f1: EmpiricalCdf, f2: EmpiricalCdf) -> float:
    import numpy as np

    # integrand is constant between consecutive pooled sample values
    brk = np.union1d(f1.values, f2.values)
    if brk.size < 2:
        return 0.0
    left = brk[:-1]
    return float(np.sum(np.abs(f1(left) - f2(left)) * np.diff(brk)))


def avm(exp_outputs, sim_outputs, grid_steps: int = 10_000) -> AvmResult:
    """Area between the two empirical CDFs.

    The Riemann value is a midpoint sum over ``grid_steps`` equal cells
    spanning the pooled range extended by a 1% margin on each side.
    """
    import numpy as np

    from .data import _count

    grid_steps = _count(grid_steps, "grid_steps")
    f1 = EmpiricalCdf(exp_outputs)
    f2 = EmpiricalCdf(sim_outputs)
    lo = min(f1.values[0], f2.values[0])
    hi = max(f1.values[-1], f2.values[-1])
    margin = 0.01 * (hi - lo)
    lo, hi = lo - margin, hi + margin
    if hi > lo:
        width = (hi - lo) / grid_steps
        mids = lo + (np.arange(grid_steps) + 0.5) * width
        riemann = float(np.sum(np.abs(f1(mids) - f2(mids))) * width)
    else:
        riemann = 0.0
    return AvmResult(
        riemann=riemann,
        exact=_exact_area(f1, f2),
        grid_steps=grid_steps,
        lo=lo,
        hi=hi,
    )
