"""Design spaces and design points.

A :class:`DesignSpace` is the Cartesian product of its parameters' value
sets — the paper's ``S = S1 x ... x S7``.  Points are addressable by a
mixed-radix integer index in ``[0, |S|)``, which lets callers enumerate or
subsample enormous spaces without materializing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .parameters import Number, Parameter, ParameterError, validate_unique_names


@dataclass(frozen=True)
class DesignPoint:
    """One configuration: a value for every parameter of its space.

    Stored as a tuple of primary values in the space's parameter order.
    Hashable, so points can key dictionaries and sets (used for dedup in
    pareto and clustering code).
    """

    names: Tuple[str, ...]
    values: Tuple[Number, ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.values):
            raise ParameterError(
                f"point has {len(self.values)} values for {len(self.names)} names"
            )

    def __getitem__(self, name: str) -> Number:
        try:
            return self.values[self.names.index(name)]
        except ValueError:
            raise KeyError(name) from None

    def replace(self, **overrides: Number) -> "DesignPoint":
        """Copy of this point with some parameter values replaced."""
        unknown = set(overrides) - set(self.names)
        if unknown:
            raise KeyError(f"unknown parameters: {sorted(unknown)}")
        values = tuple(
            overrides.get(name, value) for name, value in zip(self.names, self.values)
        )
        return DesignPoint(self.names, values)

    def __str__(self) -> str:
        inner = ", ".join(f"{n}={v}" for n, v in zip(self.names, self.values))
        return f"DesignPoint({inner})"


class DesignSpace:
    """Cartesian product of parameters with integer-indexed points."""

    def __init__(self, parameters: Sequence[Parameter], name: str = "design-space"):
        if not parameters:
            raise ParameterError("a design space needs at least one parameter")
        validate_unique_names(parameters)
        self._parameters: Tuple[Parameter, ...] = tuple(parameters)
        self._by_name: Dict[str, Parameter] = {p.name: p for p in parameters}
        self.name = name
        self._names: Tuple[str, ...] = tuple(p.name for p in parameters)
        # Mixed-radix place values: index = sum(level_i * radix_i).
        radices: List[int] = []
        place = 1
        for parameter in reversed(self._parameters):
            radices.append(place)
            place *= parameter.cardinality
        self._radices: Tuple[int, ...] = tuple(reversed(radices))
        self._size = place

    # -- basic protocol ----------------------------------------------------

    @property
    def parameters(self) -> Tuple[Parameter, ...]:
        return self._parameters

    @property
    def names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def radices(self) -> Tuple[int, ...]:
        """Mixed-radix place values, parallel to :attr:`parameters`.

        ``index = sum(level_i * radices[i])`` — exposed so vectorized
        consumers (the sweep engine) can decode blocks of indices into
        per-parameter level arrays without materializing points.
        """
        return self._radices

    def parameter(self, name: str) -> Parameter:
        """Parameter by name; raises with the valid names listed."""
        try:
            return self._by_name[name]
        except KeyError:
            raise ParameterError(
                f"space {self.name!r} has no parameter {name!r}; "
                f"parameters are {list(self._names)}"
            ) from None

    def __len__(self) -> int:
        """Total number of design points, the paper's ``|S|``."""
        return self._size

    def __contains__(self, point: DesignPoint) -> bool:
        if tuple(point.names) != self._names:
            return False
        try:
            for parameter, value in zip(self._parameters, point.values):
                parameter.index_of(value)
        except ParameterError:
            return False
        return True

    def __iter__(self) -> Iterator[DesignPoint]:
        for index in range(self._size):
            yield self.point_at(index)

    # -- point addressing --------------------------------------------------

    def point_at(self, index: int) -> DesignPoint:
        """Decode a mixed-radix index into a design point."""
        if not 0 <= index < self._size:
            raise IndexError(f"index {index} out of range for |S|={self._size}")
        values: List[Number] = []
        remaining = index
        for parameter, radix in zip(self._parameters, self._radices):
            level, remaining = divmod(remaining, radix)
            values.append(parameter.values[level])
        return DesignPoint(self._names, tuple(values))

    def index_of(self, point: DesignPoint) -> int:
        """Inverse of :meth:`point_at`."""
        if tuple(point.names) != self._names:
            raise ParameterError(
                f"point parameters {point.names} do not match space {self._names}"
            )
        index = 0
        triples = zip(self._parameters, self._radices, point.values)
        for parameter, radix, value in triples:
            index += parameter.index_of(value) * radix
        return index

    def point(self, **values: Number) -> DesignPoint:
        """Build a point from keyword values; every parameter is required."""
        missing = set(self._names) - set(values)
        if missing:
            raise ParameterError(f"missing parameters: {sorted(missing)}")
        unknown = set(values) - set(self._names)
        if unknown:
            raise ParameterError(f"unknown parameters: {sorted(unknown)}")
        point = DesignPoint(self._names, tuple(values[name] for name in self._names))
        for parameter, value in zip(self._parameters, point.values):
            parameter.index_of(value)  # validate levels
        return point

    def snap(self, **values: Number) -> DesignPoint:
        """Build a point snapping each raw value to the nearest valid level."""
        missing = set(self._names) - set(values)
        if missing:
            raise ParameterError(f"missing parameters: {sorted(missing)}")
        snapped = {
            name: self.parameter(name).nearest(values[name]) for name in self._names
        }
        return self.point(**snapped)

    # -- expansion & restriction --------------------------------------------

    def machine_settings(self, point: DesignPoint) -> Dict[str, Number]:
        """All machine settings implied by a point, including derived ones."""
        if tuple(point.names) != self._names:
            raise ParameterError(
                f"point parameters {point.names} do not match space {self._names}"
            )
        settings: Dict[str, Number] = {}
        for parameter, value in zip(self._parameters, point.values):
            settings.update(parameter.settings_at(value))
        return settings

    def restrict(
        self, restrictions: Mapping[str, Sequence[Number]], name: Optional[str] = None
    ) -> "DesignSpace":
        """New space with some parameters restricted to subsets of levels.

        Used to carve the 262,500-point exploration space (depth 12..30 FO4)
        out of the 375,000-point sampling space of Table 1.
        """
        unknown = set(restrictions) - set(self._names)
        if unknown:
            raise ParameterError(f"unknown parameters: {sorted(unknown)}")
        parameters: List[Parameter] = []
        for parameter in self._parameters:
            if parameter.name not in restrictions:
                parameters.append(parameter)
                continue
            kept = tuple(sorted(restrictions[parameter.name]))
            indices = [parameter.index_of(v) for v in kept]  # validates membership
            derived = {
                key: tuple(column[i] for i in indices)
                for key, column in parameter.derived.items()
            }
            parameters.append(
                Parameter(
                    name=parameter.name,
                    values=kept,
                    unit=parameter.unit,
                    group=parameter.group,
                    description=parameter.description,
                    log2_encode=parameter.log2_encode,
                    derived=derived,
                )
            )
        return DesignSpace(parameters, name=name or f"{self.name}-restricted")

    def sweep(self, parameter_name: str, base: DesignPoint) -> List[DesignPoint]:
        """All points obtained by varying one parameter around a base point."""
        parameter = self.parameter(parameter_name)
        return [base.replace(**{parameter_name: value}) for value in parameter.values]

    def __repr__(self) -> str:
        dims = " x ".join(str(p.cardinality) for p in self._parameters)
        return f"DesignSpace({self.name!r}, |S|={self._size} = {dims})"
