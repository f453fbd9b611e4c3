"""Exact principal-minor tables of a fixed matrix L under block rotations.

The graded oracle expands det(x - L R D) by principal minors, with R
block-orthogonal (rotations [[c, -s], [s, c]] and signs) and D diagonal.
It groups the subsets S by their key, the block of each coordinate.  In a
minor of L R, a rotation block that S holds whole contributes det R_b = 1,
and one that S cuts in half contributes c_b (minor of L) + s_b (minor of
L Q_b), Q_b the quarter turn.  So a key's minor sum is
sum_eps C_eps prod (c_b or s_b) over its halves, with integers C_eps that
depend on the bits of L only.  A MinorTable holds them, formed on first
use, with one Hadamard bound per key; minor_table keeps the TABLE_CAP most
recently used tables in a RecentMemo, the memo that also keeps
``cascade.choose_parameters``'s results.  Everything is exact, on Python
integers.
"""

from __future__ import annotations

import collections
import functools
import math
import threading
from itertools import combinations, permutations

import numpy as np

TABLE_CAP = 16


class RecentMemo(collections.OrderedDict):
    """The ``cap`` most recently used values of a function, by exact key.

    ``get_or_make`` makes a missing value outside the lock, so a slow make
    blocks no other key; when two threads make one key, both return the
    value stored first.  A make that raises stores nothing.
    """

    def __init__(self, cap: int):
        super().__init__()
        self.cap = cap
        self._lock = threading.Lock()

    def get_or_make(self, key, make):
        with self._lock:
            value = self.get(key)
            if value is not None:
                self.move_to_end(key)
                return value
        value = make()
        with self._lock:
            value = self.setdefault(key, value)
            self.move_to_end(key)
            while len(self) > self.cap:
                self.popitem(last=False)
        return value


_tables = RecentMemo(TABLE_CAP)  # (bytes of L, block sizes) -> MinorTable


def minor_table(L: np.ndarray, sizes: tuple) -> MinorTable:
    """The table of L (a float array) and the block sizes, from a memo of
    the TABLE_CAP most recently used."""
    return _tables.get_or_make((L.tobytes(), sizes), lambda: MinorTable(L, sizes))


class MinorTable:
    """The integers of the coefficients that do not depend on n, for one L
    and one block layout.

    A key is the block of each coordinate of a subset S, in order: its whole
    part W (the scalar blocks and the rotation blocks S holds whole) and its
    halves, the rotation blocks S cuts in half.  With A = 2^F L,
    sums(key)[eps] is the sum over the key's subsets S of det (A Q_eps)_SS,
    where Q_eps turns by a quarter the halves whose bits are set in eps.
    Reordered to W first, such a minor is det A[W+J, W+J'] for one row J
    per half (J' its turned columns), so every sum of a key comes from one
    Schur block of W (_schur_blocks).  keys[k] maps each key of size k to
    (the bit length of its Hadamard bound sum_S prod_{r in S} |A_r|, which
    is a product over blocks, and its halves).  The sums of a key are
    formed on first use, under the table's lock.
    """

    def __init__(self, L: np.ndarray, sizes: tuple):
        ratios = [[x.as_integer_ratio() for x in row] for row in L.tolist()]
        self.F = max(den.bit_length() - 1 for row in ratios for _, den in row)
        self._A = [[num << (self.F - den.bit_length() + 1) for num, den in row]
                   for row in ratios]
        self._start = [sum(sizes[:b]) for b in range(len(sizes))]
        self._owner = [b for b, size in enumerate(sizes) for _ in range(size)]
        norm = [math.isqrt(sum(a * a for a in row)) + 1 for row in self._A]
        # (key, Hadamard bound, halves, W) over the blocks so far; the bound
        # is a product of block factors: the norm sum of the rows a half may
        # hold, or the norm product of the rows a whole block holds
        partial = [((), 1, (), ())]
        for b, p in enumerate(self._start):
            options = [((), 1, (), ())]
            if sizes[b] == 1:
                options.append(((b,), norm[p], (), (p,)))
            else:
                options += [((b,), norm[p] + norm[p + 1], (b,), ()),
                            ((b, b), norm[p] * norm[p + 1], (), (p, p + 1))]
            partial = [(key + k, bound * f, halves + h, W + w)
                       for key, bound, halves, W in partial for k, f, h, w in options]
        self.keys = [{} for _ in range(len(self._A) + 1)]
        self._whole = {}  # key -> the coordinates of its whole part W
        for key, bound, halves, W in partial[1:]:
            self.keys[len(key)][key] = bound.bit_length(), halves
            self._whole[key] = W
        self._block = _schur_blocks(self._A, [self._start[b] for b, size in enumerate(sizes)
                                              if size == 2])
        self._sums = {}
        self._lock = threading.Lock()

    def sums(self, key: tuple) -> list:
        """[C_eps for eps < 2^(number of halves)] of a key of keys."""
        sums = self._sums.get(key)
        if sums is None:
            with self._lock:
                sums = self._sums.get(key)
                if sums is None:
                    sums = self._sums[key] = self._form(key)
        return sums

    def _form(self, key: tuple) -> list:
        W, halves = self._whole[key], self.keys[len(key)][key][1]
        h = len(halves)
        if h == 0:
            got = self._block(W[:-1], W[-1:])
            if got is not None:
                return [got[1][0][0]]
        else:
            got = self._block(W, [self._start[b] + i for b in halves for i in (0, 1)])
            if got is not None and (h == 1 or got[0] != 0):
                det, G = got
                return [total // det ** (h - 1) for total in _transversal_sums(G)]
        # below a vanishing minor: each minor of A Q_eps on its own
        subsets = [S for S in combinations(range(len(self._A)), len(key))
                   if tuple(self._owner[i] for i in S) == key]
        sums = []
        for eps in range(1 << h):
            B = [row[:] for row in self._A]
            for i, b in enumerate(halves):
                if eps >> i & 1:
                    p = self._start[b]
                    for row in B:
                        row[p], row[p + 1] = row[p + 1], -row[p]
            sums.append(sum(_bareiss_det([[B[r][c] for c in S] for r in S]) for S in subsets))
        return sums


def _transversal_sums(G: list) -> list:
    """For each eps < 2^h, the sum of det G'[J, J] over the rows J that hold
    one index of each pair (2i, 2i+1) of the 2h x 2h matrix G, where G'
    turns by a quarter the column pairs i whose bits are set in eps:
    columns (2i, 2i+1) become (2i+1, -2i).

    Expanding each det over permutations of the pairs, the sum over J of
    a cycle's entries is the trace of the product of G's 2 x 2 blocks along
    the cycle, so the sum is sum_sigma sgn(sigma) prod_cycles tr(...).
    """
    h = len(G) // 2
    if h == 1:  # the trace of G and of G turned
        (x, y), (z, w) = G
        return [x + w, y - z]
    blocks = {}  # (a, b) -> G's 2 x 2 block (x, y, z, w), row-major, plain and turned
    for a in range(h):
        for b in range(h):
            (x, y), (z, w) = G[2 * a][2 * b:2 * b + 2], G[2 * a + 1][2 * b:2 * b + 2]
            blocks[a, b] = (x, y, z, w), (y, -x, w, -z)
    sums = []
    for eps in range(1 << h):
        T = {ab: pair[eps >> ab[1] & 1] for ab, pair in blocks.items()}
        total = 0
        for sign, cycles in _permutation_cycles(h):
            value = sign
            for cycle in cycles:
                x, y, z, w = T[cycle[0]]
                for ab in cycle[1:-1]:
                    p, q, r, t = T[ab]
                    x, y, z, w = x * p + y * r, x * q + y * t, z * p + w * r, z * q + w * t
                if len(cycle) > 1:  # the trace of the last product
                    p, q, r, t = T[cycle[-1]]
                    value *= x * p + y * r + z * q + w * t
                else:
                    value *= x + w
            total += value
        sums.append(total)
    return sums


@functools.lru_cache(maxsize=None)
def _permutation_cycles(h: int) -> tuple:
    """(sign, cycles) of each permutation of range(h); a cycle lists the
    pairs (a, sigma(a)) along it."""
    out = []
    for perm in permutations(range(h)):
        cycles, seen, sign = [], set(), 1
        for start in range(h):
            cycle, a = [], start
            while a not in seen:
                seen.add(a)
                cycle.append((a, perm[a]))
                a = perm[a]
            if cycle:
                cycles.append(tuple(cycle))
                sign *= (-1) ** (len(cycle) - 1)
        out.append((sign, tuple(cycles)))
    return tuple(out)


def _schur_blocks(B: list, pairs: list):
    """The function (P, idx) -> (det B_PP, [[det B[P+r, P+c] for c in idx]
    for r in idx]) on demand, for a sorted P and indices idx in its rest:
    the indices above max P, and both indices of each pair (p, p+1) of
    ``pairs`` that P does not touch.  None when a proper prefix of P has
    minor 0.

    The state of a prefix P holds a_rc = det B[P+r, P+c] over its rest;
    child P+i has minor a_ii, and by Sylvester's identity its state is
    (a_ii a_rc - a_ri a_ic) / det B_PP, an exact division (K. Griffin,
    M. J. Tsatsomeros, "Principal minors, Part I", Linear Algebra Appl. 419,
    2006).  By Sylvester's determinant identity, det B[P+R, P+C] is then
    det a[R, C] / det(B_PP)^(|R|-1) for any R, C in the rest.  States are
    formed once, for the prefixes asked for.
    """
    partner = {}
    for p in pairs:
        partner[p], partner[p + 1] = p + 1, p
    states = {(): (1, {r: r for r in range(len(B))}, B)}  # P -> (det B_PP, rest index, a)

    def state(P):
        if P not in states:
            up = state(P[:-1])
            if up is None or up[0] == 0:
                states[P] = None
            else:
                det, where, rows = up
                i = P[-1]
                rest = [r for r in where if r != i and (r > i or partner.get(r, i) not in P)]
                pick = [where[r] for r in rest]
                a = where[i]
                pivot = rows[a][a]
                top = [rows[a][x] for x in pick]
                states[P] = (pivot, {r: x for x, r in enumerate(rest)},
                             [[(pivot * row[x] - row[a] * t) // det for x, t in zip(pick, top)]
                              for row in (rows[y] for y in pick)])
        return states[P]

    def block(P, idx):
        up = state(P)
        if up is None:
            return None
        det, where, rows = up
        at = [where[r] for r in idx]
        return det, [[rows[y][x] for x in at] for y in at]

    return block


def _bareiss_det(A: list) -> int:
    """Exact determinant of an integer matrix (fraction-free; A is consumed)."""
    k = len(A)
    sign, prev = 1, 1
    for c in range(k - 1):
        if A[c][c] == 0:
            swap = next((r for r in range(c + 1, k) if A[r][c] != 0), None)
            if swap is None:
                return 0
            A[c], A[swap] = A[swap], A[c]
            sign = -sign
        for r in range(c + 1, k):
            for col in range(c + 1, k):
                A[r][col] = (A[r][col] * A[c][c] - A[r][c] * A[c][col]) // prev
        prev = A[c][c]
    return sign * A[k - 1][k - 1]
