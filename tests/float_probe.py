"""The float probe that classified two-valued transforms, kept as a test
reference.

``classify_two_valued`` now reads a transform's exact form.  It used to
read g itself: every unit a * p**-k (a below p**depth, coprime to p) of
the spheres |t| = p**k, k in [-probe_depth, search_radius_exp], each
sphere in one call of g's sphere evaluator.  A modulus within
CLASSIFY_TOL of 1 or 0 counted as that value, and the point xi was
rebuilt digit by digit from the phases of g(p**-k), each snapped to a
p-power fraction.  Within CLASSIFY_TOL a digit far enough below the
probe depth is not seen (33 or more binary places at p = 2), so the
reference agrees with the exact form only on points whose digits lie
closer to the depth than that.
"""

import math
from fractions import Fraction

from padicprob.charfn import TwoValuedForm
from padicprob.levy import _probe_sphere, _sphere_units
from padicprob.padic import PAdicNumber, _check_prime

# the most units probed on one sphere, and the distance from 0 or 1
# within which a modulus reads as that value
PROBE_UNITS_CAP = 512
CLASSIFY_TOL = 1e-9


def snap_phase(value: complex, p: int, max_scale: int) -> Fraction:
    theta = math.atan2(value.imag, value.real) / (2.0 * math.pi)
    theta %= 1.0
    mod = p**max_scale
    num = round(theta * mod) % mod
    fr = Fraction(num, mod)
    err = abs(theta - float(fr))
    if min(err, 1.0 - err) > 2e-6:
        raise ValueError(
            f"phase {theta} does not snap to a p-power grid at scale {max_scale}"
        )
    return fr


def probe_depth_units(p: int, requested: int) -> int:
    d = 1
    while (p - 1) * p**d <= PROBE_UNITS_CAP:
        d += 1
    return max(1, min(requested, d))


def reconstruct_point(at_power: dict, p: int, lo: int, hi: int) -> PAdicNumber:
    """Digits of xi from the phases of g at t = p**-m, m in [lo, hi],
    given as ``at_power[m]`` = g(p**-m).  g(p**-lo) = chi(xi * p**-lo) is
    1 exactly when xi has no digit below p**lo, which no probe reads; when
    it is not within CLASSIFY_TOL of 1, raises ValueError."""
    if abs(at_power[lo] - 1) > CLASSIFY_TOL:
        raise ValueError(
            f"xi has a digit below the probe depth {-lo}: g(p**{-lo}) = "
            f"{at_power[lo]}, not 1"
        )
    phis = {m: snap_phase(at_power[m], p, max(0, m - lo + 2)) for m in range(lo, hi + 1)}
    value = Fraction(0)
    for idx in range(lo, hi):
        d = p * phis[idx + 1] - phis[idx]
        if d.denominator != 1 or not 0 <= d <= p - 1:
            raise ValueError(
                "inconsistent phases: no single point reproduces them at "
                "this probe depth"
            )
        value += int(d) * Fraction(p) ** idx
    if value == 0:
        return PAdicNumber.zero(p)
    return PAdicNumber.from_rational(value, p=p)


def probe_classify(g, p: int, search_radius_exp: int = 6, probe_depth: int = 8) -> TwoValuedForm:
    """classify_two_valued as it was: probe |g| for the values {0, 1}."""
    _check_prime(p)
    if search_radius_exp < -probe_depth:
        raise ValueError(f"radius {search_radius_exp} < -{probe_depth} probes no sphere")
    depth = probe_depth_units(p, probe_depth)
    sphere_kind: dict[int, str] = {}
    # units[0] is 1, so each sweep reads g(p**-k), which rebuilds xi
    units = list(_sphere_units(depth, p))
    at_power: dict[int, complex] = {}
    for k in range(-probe_depth, search_radius_exp + 1):
        kinds = set()
        values = _probe_sphere(g, p, k, units)
        at_power[k] = values[0]
        for value in values:
            v = abs(value)
            if abs(v - 1.0) <= CLASSIFY_TOL:
                kinds.add("one")
            elif v <= CLASSIFY_TOL:
                kinds.add("zero")
            else:
                return TwoValuedForm("not_two_valued")
        if len(kinds) != 1:
            return TwoValuedForm("not_two_valued")
        sphere_kind[k] = kinds.pop()

    ks = sorted(sphere_kind)
    ones = [k for k in ks if sphere_kind[k] == "one"]
    if len(ones) == len(ks):
        xi = reconstruct_point(at_power, p, -probe_depth, search_radius_exp)
        return TwoValuedForm("delta", xi=xi)
    if not ones:
        raise ValueError(
            "no sphere of modulus one inside the probed grid; cutoff "
            "below probe depth cannot be located"
        )
    cut = max(ones)
    if ones != [k for k in ks if k <= cut]:
        return TwoValuedForm("not_two_valued")
    xi = reconstruct_point(at_power, p, -probe_depth, cut)
    return TwoValuedForm("haar_cutoff", xi=xi, cutoff_exp=cut)
