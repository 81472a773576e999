"""FD discovery algorithms: EulerFD's baselines and the oracle.

Importing this package registers every algorithm with the registry in
:mod:`repro.algorithms.base`; ``create("tane")`` etc. then builds default
instances.  EulerFD itself lives in :mod:`repro.core` but is registered
here too so callers address all algorithms uniformly.
"""

from ..core.eulerfd import EulerFD
from .aidfd import AidFd
from .approx import ApproxFDs
from .base import FDAlgorithm, available_algorithms, create, register
from .bruteforce import BruteForce
from .fdep import Fdep
from .hyfd import HyFD
from .tane import Tane, TaneBudgetExceeded
from .ucc import UccResult, discover_uccs

register("eulerfd")(EulerFD)

__all__ = [
    "AidFd",
    "ApproxFDs",
    "BruteForce",
    "EulerFD",
    "FDAlgorithm",
    "Fdep",
    "HyFD",
    "Tane",
    "TaneBudgetExceeded",
    "UccResult",
    "available_algorithms",
    "create",
    "discover_uccs",
    "register",
]
