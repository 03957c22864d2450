"""The principal-value identity for the order-k Riesz transform.

The transform is d^k/dtheta^k applied to the -k/2 power of the
Sturm-Liouville operator.  Truncating the kernel integral at radius
epsilon, letting epsilon -> 0, and adding gamma_k f(theta) recovers it:
gamma_k vanishes for odd k and equals (-1)^(k/2) for even k, so for even
orders the naive kernel limit alone is off by exactly +/- f(theta).
riesz_pv computes the value by subtracting a + b cos from f (matched to f
and f' at theta) and reports the principal-value integral as value - gamma_k f(theta).
"""

import numpy as np

from ultrariesz import (
    SpectralCoefficients,
    band_limited,
    build_rule,
    kernel_constants,
    riesz_pv,
    riesz_spectral,
)

lam, theta = 0.5, 1.2
rule = build_rule(lam, 64)
coeffs = SpectralCoefficients(lam, [0.0, 0.0, 1.0, 0.0, 0.5])
f = band_limited(coeffs)

for k in (1, 2, 3, 4):
    gamma = kernel_constants(k).gamma_k
    spectral = riesz_spectral(f, lam, k, theta, 12, rule)
    result = riesz_pv(f, lam, k, theta)
    print(f"k = {k} (gamma_k = {gamma:+.0f})")
    print(f"  spectral route              {spectral:+.8f}")
    print(f"  truncations at radii {np.round(result.epsilons[:3], 3)}...: {np.round(result.truncated[:3], 5)}")
    print(f"  principal-value integral    {result.extrapolated:+.8f}  (tail estimate {result.residual:.1e})")
    print(f"  + jump term gamma_k f(th)   {result.gamma_term:+.8f}")
    print(f"  = principal value           {result.value:+.8f}   error {abs(result.value - spectral):.2e}")
    if k % 2 == 0:
        print(f"  the smallest truncation without the jump term misses by {abs(result.truncated[-1] - spectral):.6f} ~= |f(theta)| = {abs(f(theta)):.6f}")
    print()
