"""Unambiguous discrimination of roots-of-unity product-state families.

The package builds families of N product states (N prime) whose projectors
resolve the identity up to the scale D/N, constructs the reciprocal states
that make unambiguous discrimination possible, assembles and analyzes the
weighted discrimination measurements (the symmetric weights D/N are optimal
with failure probability exactly 1/2), and certifies via extreme-ray counts
that the optimal measurement, although separable, cannot be realized by any
finite-round protocol of local operations and classical communication.
"""

from . import cone, instance, numerics, simulator, usd
from .numerics import *  # noqa: F403
from .instance import *  # noqa: F403
from .usd import *  # noqa: F403
from .cone import *  # noqa: F403
from .simulator import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *numerics.__all__,
    *instance.__all__,
    *usd.__all__,
    *cone.__all__,
    *simulator.__all__,
]
