"""Deterministic random form samplers shared by the regression commands
and the test suite.

Three families of limit-scope quartics:

* uniform coefficient vectors in a rational box,
* members of the boundary family (optionally perturbed, so they sit on
  or just off the boundary of the limit SOS cone),
* expansions of PSD block certificates with small signed perturbations
  (so they sit just inside or just outside the cone).

All samplers take an explicit seed and are fully deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .identities import BoundaryParams, boundary_family_form
from .algebra import SymMat2
from .sos import SosCertificate, expand_certificate
from .symfunc import LIMIT, SymFormP

_EPS_CHOICES = (Fraction(1, 64), Fraction(1, 256), Fraction(1, 1024))


def _rand_fraction(rng: random.Random, bound: int = 4, den: int = 8) -> Fraction:
    return Fraction(rng.randint(-bound * den, bound * den), den)


def uniform_forms(count: int, seed: int) -> list[SymFormP]:
    """Uniform random coefficient vectors in a rational box."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        out.append(SymFormP(4, tuple(_rand_fraction(rng) for _ in range(5)), LIMIT))
    return out


def _bumped(rng: random.Random, f: SymFormP, mode: int) -> SymFormP:
    """f itself for mode 0; for mode 1 (2) f with one random coefficient
    raised (lowered) by a random small amount."""
    if not mode:
        return f
    eps = rng.choice(_EPS_CHOICES) * (1 if mode == 1 else -1)
    idx = rng.randrange(5)
    coeffs = list(f.coeffs)
    coeffs[idx] += eps
    return SymFormP(4, tuple(coeffs), LIMIT)


def boundary_forms(count: int, seed: int) -> list[SymFormP]:
    """Boundary-family members, two thirds perturbed by a small signed
    coefficient bump (so the sample brackets the boundary)."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        a = _rand_fraction(rng, 3, 4)
        b = _rand_fraction(rng, 3, 4)
        c = _rand_fraction(rng, 3, 4)
        d = _rand_fraction(rng, 3, 4)
        if a == 0 or (c == 0 and d == 0):
            continue
        f = boundary_family_form(BoundaryParams(a, b, c, d))
        out.append(_bumped(rng, f, len(out) % 3))
    return out


def _rand_psd(rng: random.Random) -> SymMat2:
    l11 = _rand_fraction(rng, 2, 4)
    l21 = _rand_fraction(rng, 2, 4)
    l22 = _rand_fraction(rng, 2, 4)
    return SymMat2(l11 * l11, l11 * l21, l21 * l21 + l22 * l22)


def certificate_forms(count: int, seed: int) -> list[SymFormP]:
    """Expansions of random PSD block certificates, two thirds perturbed by
    a small signed coefficient bump."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cert = SosCertificate.from_blocks(_rand_psd(rng), _rand_psd(rng), 0, LIMIT)
        f = expand_certificate(cert)
        out.append(_bumped(rng, f, len(out) % 3))
    return out


def equivalence_sample(seed: int = 20260825) -> list[SymFormP]:
    """The 500-form sample used by the limit-cone equality regression:
    200 uniform, 150 boundary-family, 150 certificate expansions."""
    return (
        uniform_forms(200, seed)
        + boundary_forms(150, seed + 1)
        + certificate_forms(150, seed + 2)
    )
