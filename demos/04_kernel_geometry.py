"""Geometry of the Riesz kernel: regions, envelopes, and circle limits.

Away from the diagonal the kernel obeys Hardy-type bounds depending on
which wedge of (0, pi)^2 the point sits in; near the diagonal it matches
the circle kernel M_k / sin(theta - phi) up to an integrable error.  The
circle kernels R^k and H^k are closed forms (the multiplier (i sgn n)^k on
the circle) and carry the jump constants: for even k, H^k(w) tends to
(-1)^(k/2) pi Gamma(k) as w -> 0.
"""

import math

import numpy as np

from ultrariesz import (
    circle_H,
    circle_R,
    envelope_residual,
    h_limit_even,
    m_k_estimate,
    region_classify,
    riesz_kernel,
)

print("region classification on (0, pi)^2:")
for theta, phi in ((1.0, 1.0), (0.4, 2.0), (1.2, 0.3), (2.4, 2.5), (2.8, 0.9)):
    print(f"  (theta, phi) = ({theta}, {phi}) -> {region_classify(theta, phi)}")

print("\nreflection parity of the kernel, R(pi-theta, pi-phi) = (-1)^k R(theta, phi):")
for k in (1, 2):
    # theta as an array pairs with phi entry by entry: both points in one call
    a, b = riesz_kernel(0.7, k, np.array([1.1, math.pi - 1.1]), np.array([0.6, math.pi - 0.6]))
    print(f"  k={k}: {a:+.10f} vs {(-1) ** k * b:+.10f}")

print("\nenvelope ratios |K - leading| / envelope stay bounded per region:")
for theta, phi in ((0.3, 2.5), (1.2, 1.25), (1.5, 0.4)):
    region = region_classify(theta, phi)
    ratio = envelope_residual(0.5, 2, theta, phi)
    print(f"  {region} at ({theta}, {phi}): ratio {ratio:.4f}")

print("\ndiagonal constants of the circle kernel, M_k = lim sin(w) R^k(w), in closed form:")
for k in (1, 2, 3, 4):
    m = m_k_estimate(k)
    w = 1e-3
    print(f"  M_{k} = {m:+.6f}   sin(w) R^k(w) at w = 1e-3: {math.sin(w) * circle_R(k, 1.0 + w, 1.0):+.6f}")

print("\ncircle-kernel limits: H^k(w) for w = 1e-3 against (-1)^(k/2) pi Gamma(k):")
for k in (2, 4, 6):
    print(f"  k={k}: H^k(1e-3) = {circle_H(k, 1e-3):+.6f}   limit {h_limit_even(k):+.6f}")
print("and w H^k(w) -> 0 for odd k:")
for k in (1, 3, 5):
    print(f"  k={k}: |w H^k| at w=1e-2: {abs(1e-2 * circle_H(k, 1e-2)):.5f}, at w=1e-3: {abs(1e-3 * circle_H(k, 1e-3)):.5f}")

print("\nthe circle Riesz kernel is the multiplier (i sgn n)^k: R^1(w) = -cot(w/2) / (2 pi), R^2 = 1 / (2 pi):")
w = 0.8
print(f"  R^1({w}) = {circle_R(1, 1.0 + w, 1.0):+.12f}   R^2({w}) = {circle_R(2, 1.0 + w, 1.0):+.12f}")
