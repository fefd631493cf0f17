"""Planted-partition samplers for the two generative models.

Both draw equal-sized communities, which matches the uniformity assumption
the local scores make and therefore gives the sharpest ground-truth tests.
Degree-corrected samples binarize their Poisson pair counts so the rest of
the toolkit can keep assuming simple graphs.
"""

import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph

_MAX_PAIR_RATE = 1e6


@dataclass(frozen=True)
class PlantedSpec:
    """Parameters of a planted-community sample.

    communities equal-sized groups of `size` nodes; lambda_in/lambda_out are
    Bernoulli probabilities for the SBM and Poisson rate factors for the
    DCBM; dcbm_alpha/dcbm_theta shape the Gamma degree propensities.
    """

    communities: int
    size: int
    lambda_in: float
    lambda_out: float
    model: str = "sbm"
    dcbm_alpha: float = 1.0
    dcbm_theta: float = 1.0

    def __post_init__(self):
        if self.communities < 1 or self.size < 1:
            raise ValueError("communities and size must be >= 1")
        if self.model not in ("sbm", "dcbm"):
            raise ValueError(f"unknown model {self.model!r}; expected 'sbm' or 'dcbm'")
        for name in ("lambda_in", "lambda_out", "dcbm_alpha", "dcbm_theta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.model == "sbm":
            for p in (self.lambda_in, self.lambda_out):
                if not 0.0 <= p <= 1.0:
                    raise ValueError(f"SBM edge probability {p} outside [0, 1]")
        else:
            if self.lambda_in < 0.0 or self.lambda_out < 0.0:
                raise ValueError("DCBM rates must be non-negative")
            if self.dcbm_alpha <= 0.0 or self.dcbm_theta <= 0.0:
                raise ValueError("degree Gamma parameters must be positive")


def _pair_arrays(n_nodes, spec):
    iu, ju = np.triu_indices(n_nodes, k=1)
    block = np.arange(n_nodes) // spec.size
    same = block[iu] == block[ju]
    return iu, ju, same


def _planted_truth(spec):
    return [set(range(c * spec.size, (c + 1) * spec.size))
            for c in range(spec.communities)]


def sample_sbm(spec, rng):
    """Draw a graph from the two-rate block model.

    Every unordered pair is an independent Bernoulli with probability
    lambda_in (same planted community) or lambda_out (different ones).

    Returns:
        (Graph, list of planted ground-truth node sets).
    """
    if spec.model != "sbm":
        raise ValueError("sample_sbm requires an SBM spec")
    n_nodes = spec.communities * spec.size
    iu, ju, same = _pair_arrays(n_nodes, spec)
    p = np.where(same, spec.lambda_in, spec.lambda_out)
    keep = rng.random(len(iu)) < p
    return Graph(n_nodes, np.column_stack((iu[keep], ju[keep]))), _planted_truth(spec)


def sample_dcbm(spec, rng):
    """Draw a graph from the degree-corrected model, binarized.

    Per node a degree propensity d_i ~ Gamma(alpha, theta); per pair a count
    Poisson(d_i d_j lambda_block), clipped to {0, 1} to keep the graph
    simple.

    Raises:
        ValueError: if any pair rate exceeds 1e6 (runaway propensities;
        lower dcbm_theta or the rates).
    """
    if spec.model != "dcbm":
        raise ValueError("sample_dcbm requires a DCBM spec")
    n_nodes = spec.communities * spec.size
    d = rng.gamma(spec.dcbm_alpha, spec.dcbm_theta, size=n_nodes)
    iu, ju, same = _pair_arrays(n_nodes, spec)
    lam = np.where(same, spec.lambda_in, spec.lambda_out)
    rate = d[iu] * d[ju] * lam
    if rate.size and float(rate.max()) > _MAX_PAIR_RATE:
        raise ValueError(
            f"pair rate {float(rate.max()):.3g} exceeds {_MAX_PAIR_RATE:.0e}; "
            "use a smaller dcbm_theta or smaller rates")
    counts = rng.poisson(rate)
    keep = counts >= 1
    return Graph(n_nodes, np.column_stack((iu[keep], ju[keep]))), _planted_truth(spec)
