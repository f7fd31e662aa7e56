"""Six-component grid model for the day ahead.

The model M0 = (e1, e2, omega1, omega2, t1, t2) is assembled from the
Lyapunov exponents:

    e1 = l_p1 * l_p2
    t1 = (1/4) * (1 + ((l_y1 + l_p1)/2) * ((l_y2 + l_p2)/2))

The second pair comes from the larger root rho of the separability
quadratic

    rho**2 - (2 + l_p1)*rho + (4 - (2 + l_p1)**2)/2 - 2 = 0

Hand algebra collapses the discriminant to 3*(2 + l_p1)**2 and the root
to (2 + l_p1)*(1 + sqrt(3))/2; those identities serve as test oracles
while the code keeps the quadratic-formula form.  From rho the paper
takes e2, the larger root of x**2 - rho*x + 1 = 0, and t2, ten times
the smaller:

    e2 = (rho + sqrt(rho**2 - 4))/2,  t2 = 5*(rho - sqrt(rho**2 - 4))

The paper's t2 cancels as rho grows: its relative error is about
rho**2 * 2**-53, and t2 rounds to 0 from l_p1 ~ 1e10.  The roots
multiply to 1 (Vieta), so e2 * t2 = 10 in exact arithmetic and

    t2 = 20/(rho + sqrt(rho**2 - 4)),

which has no subtraction and stays within a few ulps for every rho.  The
code uses this form.  Every admissible record has l_p1 >= 1, hence
rho > 4 and t2 > 0.

Angular frequencies close the model: omega1 = 2*l_p1/t1 and
omega2 = 2*l_y1/t2.
"""

from __future__ import annotations

import math


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
    """e2 and t2 from rho >= 2, t2 in the Vieta form 20/(rho + offset).

    The paper's 5*(rho - offset) names the same number but cancels as
    rho grows; see the module docstring.
    """
    # (rho - 2)*(rho + 2) loses less precision than rho**2 - 4 near rho = 2
    offset = math.sqrt((rho - 2.0) * (rho + 2.0))
    e2 = (rho + offset) / 2
    t2 = 20 / (rho + offset)
    return e2, t2


def first_frequency(l_p1: float, t1: float) -> float:
    """omega1 = 2 l_p1 / t1."""
    return 2 * l_p1 / t1


def second_frequency(l_y1: float, t2: float) -> float:
    """omega2 = 2 l_y1 / t2."""
    return 2 * l_y1 / t2
