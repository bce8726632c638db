"""Global numerical regime shared by every kernel in the package."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class QContext:
    """Numerical regime: the base q plus truncation/quadrature controls.

    q            -- base of all q-series, strictly inside (0, 1)
    eps_trunc    -- tail cutoff for infinite products and q-series (settled_sum)
    max_terms    -- hard cap on product/series length before NonConvergent
    quad_rel_tol -- relative tolerance target of every quadrature rule; the
                    rules' sizes are capped in quadrature, not here
    """

    q: float
    eps_trunc: float = 1e-15
    max_terms: int = 512
    quad_rel_tol: float = 1e-11

    def __post_init__(self):
        if not (0.0 < self.q < 1.0):
            raise ValueError(f"q must lie strictly in (0, 1), got {self.q}")
        if not self.eps_trunc > 0.0:
            raise ValueError("eps_trunc must be positive")
        if self.max_terms < 16:
            raise ValueError("max_terms must be at least 16")

    def with_q(self, q: float) -> "QContext":
        """Same regime with a different base (used for base-q^2 products)."""
        return replace(self, q=q)
