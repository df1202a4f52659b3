"""Design space definition, sampling and encoding.

Public surface:

- :class:`Parameter`, :class:`DesignSpace`, :class:`DesignPoint` — space model
- :class:`PointSet` — an ordered point set held as mixed-radix indices
- :func:`sampling_space`, :func:`exploration_space` — the paper's Table 1 spaces
- :func:`sample_uar` and friends — samplers (Section 2.3); the
  ``*_indices`` variants return index arrays instead of points
- :class:`DesignEncoder`, :class:`NormalizedEncoder` — numeric codecs
"""

from .encoding import DesignEncoder, NormalizedEncoder
from .extensions import DL1_ASSOCIATIVITY, IN_ORDER, extended_space
from .parameters import Parameter, ParameterError, linear_range, pow2_range
from .pointset import PointSet
from .sampling import (
    sample_halton,
    sample_stratified,
    sample_stratified_indices,
    sample_uar,
    sample_uar_indices,
)
from .space import DesignPoint, DesignSpace
from .table1 import (
    DCACHE,
    DEPTH,
    EXPLORATION_DEPTHS,
    ICACHE,
    L2CACHE,
    REGISTERS,
    RESERVATIONS,
    TABLE1_PARAMETERS,
    WIDTH,
    exploration_space,
    sampling_space,
)

__all__ = [
    "Parameter",
    "ParameterError",
    "DesignSpace",
    "DesignPoint",
    "PointSet",
    "DesignEncoder",
    "NormalizedEncoder",
    "linear_range",
    "pow2_range",
    "sample_uar",
    "sample_uar_indices",
    "sample_stratified",
    "sample_stratified_indices",
    "sample_halton",
    "sampling_space",
    "exploration_space",
    "extended_space",
    "TABLE1_PARAMETERS",
    "EXPLORATION_DEPTHS",
    "DEPTH",
    "WIDTH",
    "REGISTERS",
    "RESERVATIONS",
    "ICACHE",
    "DCACHE",
    "L2CACHE",
    "DL1_ASSOCIATIVITY",
    "IN_ORDER",
]
