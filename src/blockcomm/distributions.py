"""Special functions and divergences shared by both model likelihoods.

log_gamma and digamma are thin wrappers over math.lgamma and
scipy.special.psi that reject arguments outside the positive reals; the
Gamma KL is written once, elementwise, so the global bound can apply it to
every node's degree factor in one array expression.

Everything is evaluated in natural-log space; the counts fed into Beta
functions reach 1e8 and beyond, so linear-space Beta/Gamma values would
overflow long before the scores become interesting.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln, psi


@dataclass(frozen=True)
class GammaParams:
    """Shape/scale parameters of a Gamma distribution."""

    shape: float
    scale: float

    def __post_init__(self):
        if not (self.shape > 0.0 and math.isfinite(self.shape)):
            raise ValueError(f"Gamma shape must be positive and finite, got {self.shape}")
        if not (self.scale > 0.0 and math.isfinite(self.scale)):
            raise ValueError(f"Gamma scale must be positive and finite, got {self.scale}")

    @property
    def mean(self):
        return self.shape * self.scale

    @property
    def mean_log(self):
        """E[log X] for X ~ Gamma(shape, scale)."""
        return digamma(self.shape) + math.log(self.scale)


@dataclass(frozen=True)
class BetaParams:
    """Parameters of a Beta distribution (or arguments of the Beta function)."""

    a: float
    b: float

    def __post_init__(self):
        if not (self.a > 0.0 and math.isfinite(self.a)):
            raise ValueError(f"Beta parameter a must be positive and finite, got {self.a}")
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise ValueError(f"Beta parameter b must be positive and finite, got {self.b}")


def log_gamma(x):
    """Natural log of the Gamma function for x > 0 (math.lgamma)."""
    if not (x > 0.0):
        raise ValueError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def digamma(x):
    """Digamma psi(x) for x > 0 (scipy.special.psi), as a Python float."""
    if not (x > 0.0):
        raise ValueError(f"digamma requires x > 0, got {x}")
    return float(psi(x))


def log_beta(p):
    """log B(a, b) for a BetaParams bundle."""
    return log_gamma(p.a) + log_gamma(p.b) - log_gamma(p.a + p.b)


def gamma_kl_shape_terms(shape_p, shape_q):
    """The scale-free head of gamma_kl_terms:
    (a_p - a_q) psi(a_p) - log Gamma(a_p) + log Gamma(a_q)."""
    return (shape_p - shape_q) * psi(shape_p) - gammaln(shape_p) + gammaln(shape_q)


def gamma_kl_terms(shape_p, scale_p, shape_q, scale_q, shape_terms=None):
    """Elementwise KL(Gamma(shape_p, scale_p) || Gamma(shape_q, scale_q)).

    Closed form in shape/scale parametrization:
    (a_p - a_q) psi(a_p) - log Gamma(a_p) + log Gamma(a_q)
      + a_q (log s_q - log s_p) + a_p (s_p / s_q - 1).
    Arguments are floats or broadcastable arrays; the result is a numpy
    scalar or array. Non-negative for valid parameters, zero iff p == q.
    shape_terms, if given, is gamma_kl_shape_terms(shape_p, shape_q), so a
    caller that holds the shapes fixed computes that head once.
    """
    if shape_terms is None:
        shape_terms = gamma_kl_shape_terms(shape_p, shape_q)
    return (shape_terms
            + shape_q * (np.log(scale_q) - np.log(scale_p))
            + shape_p * (scale_p / scale_q - 1.0))


def gamma_kl(p, q):
    """KL divergence KL(p || q) between two GammaParams, as a Python float."""
    return float(gamma_kl_terms(p.shape, p.scale, q.shape, q.scale))
