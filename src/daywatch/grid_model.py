"""Six-component grid model for the day ahead.

The model M0 = (e1, e2, omega1, omega2, t1, t2) is assembled from the
Lyapunov exponents:

    e1 = l_p1 * l_p2
    t1 = (1/4) * (1 + ((l_y1 + l_p1)/2) * ((l_y2 + l_p2)/2))

The second pair comes from the larger root rho of the separability
quadratic

    rho**2 - (2 + l_p1)*rho + (4 - (2 + l_p1)**2)/2 - 2 = 0

via e2 = (rho + sqrt(rho**2 - 4))/2 and t2 = 5*(rho - sqrt(rho**2 - 4)).
Hand algebra collapses the discriminant to 3*(2 + l_p1)**2 and the root
to (2 + l_p1)*(1 + sqrt(3))/2; those identities serve as test oracles
while the production path keeps the quadratic-formula form.  The root
product obeys e2 * t2 = 10 exactly, another self-check.

Angular frequencies close the model: omega1 = 2*l_p1/t1 and
omega2 = 2*l_y1/t2.
"""

from __future__ import annotations

import math

from .errors import RhoBelowTwo, ZeroTime


def expected_energy(l_p1: float, l_p2: float) -> float:
    """e1 = l_p1 * l_p2."""
    return l_p1 * l_p2


def expected_time(l_p1: float, l_p2: float, l_y1: float, l_y2: float) -> float:
    """t1 = (1/4)(1 + ((l_y1 + l_p1)/2) ((l_y2 + l_p2)/2))."""
    return 0.25 * (1.0 + ((l_y1 + l_p1) / 2) * ((l_y2 + l_p2) / 2))


def separability(l_p1: float) -> tuple[float, float]:
    """(rho, discriminant): the quadratic's larger root and discriminant."""
    a = 2.0 + l_p1
    discriminant = a ** 2 - 4 * ((4 - a ** 2) / 2 - 2)
    rho = (a + math.sqrt(discriminant)) / 2
    return rho, discriminant


def second_pair(rho: float) -> tuple[float, float]:
    """e2 and t2 from rho; rho < 2 would make the square root imaginary."""
    if rho < 2:
        raise RhoBelowTwo("rho below 2 makes sqrt(rho**2 - 4) imaginary",
                          rho)
    # (rho - 2)*(rho + 2) loses less precision than rho**2 - 4 near rho = 2
    offset = math.sqrt((rho - 2.0) * (rho + 2.0))
    e2 = (rho + offset) / 2
    t2 = 5 * (rho - offset)
    return e2, t2


def first_frequency(l_p1: float, t1: float) -> float:
    """omega1 = 2 l_p1 / t1."""
    if t1 == 0:
        raise ZeroTime("t1 is zero")
    return 2 * l_p1 / t1


def second_frequency(l_y1: float, t2: float) -> float:
    """omega2 = 2 l_y1 / t2."""
    if t2 == 0:
        raise ZeroTime("t2 is zero")
    return 2 * l_y1 / t2
