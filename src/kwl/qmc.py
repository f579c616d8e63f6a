"""Scrambled Sobol points for the QMC weight estimates.

The direction numbers are Joe and Kuo's (S. Joe and F. Y. Kuo, SIAM J.
Sci. Comput. 30 (2008) 2635-2654; search criterion 6), embedded for the
first ``MAX_DIM`` dimensions, which covers every gauge slice of a graph on
at most ``graphs.MAX_VERTICES`` vertices.  Scrambling is a left linear
matrix scramble plus a digital shift (J. Matousek, J. Complexity 14
(1998) 527-556).  The shift and the matrices are drawn from a spawned
child of the given generator in the order ``scipy.stats.qmc.Sobol(d,
scramble=True, rng=seed)`` draws them, so the points are scipy's, bit for
bit.  Points have ``BITS`` binary digits, come in Gray-code order and
are stored column-major, so the slice map reads each coordinate in place.
"""

from __future__ import annotations

import numpy as np

BITS = 30
MAX_DIM = 14

#: (primitive polynomial with its leading and constant terms, initial
#: direction numbers m_1 .. m_s) for dimensions 1 .. MAX_DIM; dimension 1
#: is the van der Corput sequence
_JOE_KUO = (
    (1, (1,)), (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
)

#: bit shift of the k-th binary digit after the point, k = 0 .. BITS-1
_DIGIT = np.arange(BITS - 1, -1, -1, dtype=np.uint32)
_ONE = np.float64(1.0).view(np.uint64)
#: shift from a BITS-digit fraction to the top of a double's mantissa
_MANTISSA = np.uint64(52 - BITS)


def _direction_numbers() -> np.ndarray:
    """Unscrambled direction numbers, ``(MAX_DIM, BITS)`` uint32: entry
    ``[d, j]`` is m_{j+1} of dimension d+1 shifted to ``BITS`` digits."""
    table = []
    for poly, init in _JOE_KUO:
        s = poly.bit_length() - 1
        m = list(init) if s else [1] * BITS
        for j in range(len(m), BITS):
            new = m[j - s] ^ (m[j - s] << s)
            for k in range(1, s):
                if poly >> (s - k) & 1:
                    new ^= m[j - k] << k
            m.append(new)
        table.append(m[:BITS])
    return np.array(table, dtype=np.uint32) << _DIGIT


_V = _direction_numbers()


class Sobol:
    """Scrambled Sobol engine in ``d`` dimensions, ``1 <= d <= MAX_DIM``.

    ``seed`` is a ``numpy.random.Generator``; the scramble is drawn from
    its first spawned child, as scipy does.  The engine is read-only after
    construction: every :meth:`random` call builds the first ``n`` points
    afresh, so one engine can serve any number of draws and threads.
    """

    def __init__(self, d: int, *, seed: np.random.Generator) -> None:
        if not 1 <= d <= MAX_DIM:
            raise ValueError(f"Sobol dimension must be 1..{MAX_DIM}, got {d}")
        self.d = d
        rng = seed.spawn(1)[0]
        shift = rng.integers(2, size=(d, BITS), dtype=np.uint32) @ (
            np.uint32(1) << _DIGIT[::-1])
        lower = np.tril(rng.integers(2, size=(d, BITS, BITS), dtype=np.uint32))
        lower[:, _DIGIT, _DIGIT] = 1
        # row p of ``lower`` gives digit p of a scrambled direction number
        # as a GF(2) sum of the digits k <= p of the unscrambled one
        digits = _V[:d, :, None] >> _DIGIT & 1
        scrambled = np.einsum("dpk,djk->djp", lower, digits) & 1
        v = (scrambled << _DIGIT).sum(axis=2, dtype=np.uint32).T
        # Gray code: point h + i, i < h = 2^j, is point i with digits j and
        # j - 1 flipped, so step j XORs v[j] ^ v[j - 1] onto the first points
        v[1:] ^= v[:-1]
        # coordinates are kept as the bit patterns of the doubles 1 + x:
        # x's digits fill the top of the mantissa, where XOR acts on them alone
        self._first = _ONE | shift.astype(np.uint64) << _MANTISSA
        self._steps = v.astype(np.uint64) << _MANTISSA

    def random(self, n: int) -> np.ndarray:
        """The first ``n`` points, ``(n, d)`` column-major floats in [0, 1)."""
        if not 1 <= n <= 1 << BITS:
            raise ValueError(f"point count must be 1..2^{BITS}, got {n}")
        X = np.empty((self.d, n), dtype=np.uint64)
        X[:, 0] = self._first
        h, j = 1, 0
        while h < n:
            c = min(h, n - h)
            np.bitwise_xor(X[:, :c], self._steps[j, :, None], out=X[:, h:h + c])
            h, j = 2 * h, j + 1
        U = X.view(np.float64)
        U -= 1.0  # exact: 1 + x carries x's BITS digits
        return U.T
