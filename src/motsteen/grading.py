"""Bidegrees (topological degree, weight) and generator degree tables."""

from __future__ import annotations

from typing import NamedTuple


class Bidegree(NamedTuple):
    d: int  # topological degree
    w: int  # weight

    def __add__(self, other):
        return Bidegree(self.d + other.d, self.w + other.w)

    def __sub__(self, other):
        return Bidegree(self.d - other.d, self.w - other.w)

    def scaled(self, n):
        return Bidegree(n * self.d, n * self.w)

    def __str__(self):
        return f"({self.d},{self.w})"

# The Bockstein lowers topological degree by one and preserves the weight.
BETA_SHIFT = Bidegree(-1, 0)


def xi_degree(p, j):
    """Bidegree of the j-th even Milnor generator, j >= 1."""
    q = p**j - 1
    return Bidegree(2 * q, q)


def tau_degree(p, j):
    """Bidegree of the j-th odd Milnor generator, j >= 0."""
    return Bidegree(2 * p**j - 1, p**j - 1)
