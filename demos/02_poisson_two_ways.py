"""The Poisson semigroup computed spectrally and through its kernel.

The multiplier exp(-t(n+lambda)) on coefficients and the integral against
r^lambda P_lambda(r, theta, .) dm_lambda with r = exp(-t) are two faces of
the same operator; this script shows them agreeing, the kernel's unit mass,
and the semigroup law.
"""

import math

import numpy as np

from ultrariesz import (
    SpectralCoefficients,
    band_limited,
    build_rule,
    poisson_coefficients,
    poisson_kernel,
    poisson_spectral,
    poisson_via_kernel,
)

lam = 1.0
rule = build_rule(lam, 128)
coeffs = SpectralCoefficients(lam, [0.2, 0.0, 1.0, 0.0, 0.5])
f = band_limited(coeffs)

print("spectral vs kernel route, f = e0/5 + e2 + e4/2:")
for t in (0.1, 0.5, 1.0):
    for theta in (0.7, 2.0):
        spectral = poisson_spectral(coeffs, t, theta)
        kernel = poisson_via_kernel(f, lam, t, theta, rule)
        print(
            f"  t={t:4.1f} theta={theta:3.1f}: spectral {spectral:+.10f} "
            f"kernel {kernel:+.10f}  diff {abs(spectral - kernel):.2e}"
        )

print("\nkernel mass (should be exactly 1):")
for r in (0.1, 0.5, 0.9):
    values = poisson_kernel(lam, r, 1.0, rule.nodes)  # every node in one call
    print(f"  r={r}: {float(np.dot(rule.weights, values)):.12f}")

print("\nsemigroup law on coefficients, t = 0.3 then 0.4 vs 0.7:")
two_step = poisson_coefficients(poisson_coefficients(coeffs, 0.3), 0.4)
one_step = poisson_coefficients(coeffs, 0.7)
print(f"  max coefficient difference: {np.max(np.abs(two_step.coeffs - one_step.coeffs)):.2e}")
