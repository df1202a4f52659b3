"""Response transforms.

Section 3.3: a square-root transform on the response stabilizes the
variance of the performance model; a log transform captures the
exponential trends of the power model.  Transforms are invertible so
predictions return to the original metric scale.
"""

from __future__ import annotations

import numpy as np


class TransformError(ValueError):
    """Raised when a transform is applied outside its domain."""


class ResponseTransform:
    """Invertible scalar transform applied elementwise to the response."""

    name = "abstract"

    def forward(self, y: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def inverse(self, z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class IdentityTransform(ResponseTransform):
    """No transform."""

    name = "identity"

    def forward(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float)

    def inverse(self, z: np.ndarray) -> np.ndarray:
        return np.asarray(z, dtype=float)


class SqrtTransform(ResponseTransform):
    """``f(y) = sqrt(y)`` — the paper's performance-model transform."""

    name = "sqrt"

    def forward(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if (y < 0).any():
            raise TransformError("sqrt transform requires non-negative responses")
        return np.sqrt(y)

    def inverse(self, z: np.ndarray) -> np.ndarray:
        return np.square(np.asarray(z, dtype=float))


class LogTransform(ResponseTransform):
    """``f(y) = log(y)`` — the paper's power-model transform."""

    name = "log"

    def forward(self, y: np.ndarray) -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if (y <= 0).any():
            raise TransformError("log transform requires positive responses")
        return np.log(y)

    def inverse(self, z: np.ndarray) -> np.ndarray:
        return np.exp(np.asarray(z, dtype=float))
