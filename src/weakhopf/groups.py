"""Finite groups presented by multiplication tables."""

from itertools import permutations

import numpy as np

from .errors import InvariantViolation


class FiniteGroup:
    """Group on indices 0..n-1 with table[i][j] = index of the product."""

    def __init__(self, table):
        try:
            table = np.asarray(table, dtype=int)
        except OverflowError:  # an entry past the integer range is no index
            raise InvariantViolation("invalid multiplication table") from None
        n = table.shape[0]
        if table.shape != (n, n) or n == 0:
            raise InvariantViolation("invalid multiplication table")
        if np.any(table < 0) or np.any(table >= n):
            raise InvariantViolation("invalid multiplication table")
        self.table = table
        self.order = n
        self.identity = self._find_identity()
        self.inverse = self._find_inverses()
        self._check_associativity()

    def _find_identity(self) -> int:
        for e in range(self.order):
            if np.array_equal(self.table[e], np.arange(self.order)) and \
               np.array_equal(self.table[:, e], np.arange(self.order)):
                return e
        raise InvariantViolation("invalid multiplication table")

    def _find_inverses(self) -> np.ndarray:
        inv = np.full(self.order, -1, dtype=int)
        for g in range(self.order):
            hits = np.where(self.table[g] == self.identity)[0]
            if hits.size != 1 or self.table[hits[0], g] != self.identity:
                raise InvariantViolation("invalid multiplication table")
            inv[g] = hits[0]
        return inv

    def _check_associativity(self):
        t = self.table
        if not np.array_equal(t[t, :], t[:, t]):  # (g h) k == g (h k)
            raise InvariantViolation("invalid multiplication table")


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise InvariantViolation("cyclic group order must be positive")
    idx = np.arange(n)
    return FiniteGroup((idx[:, None] + idx[None, :]) % n)


def symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n letters; elements in lexicographic order."""
    if n < 1:
        raise InvariantViolation("symmetric group degree must be positive")
    perms = list(permutations(range(n)))
    index = {p: i for i, p in enumerate(perms)}
    size = len(perms)
    table = np.zeros((size, size), dtype=int)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = index[tuple(p[q[k]] for k in range(n))]
    return FiniteGroup(table)
