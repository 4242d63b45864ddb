"""Exact row-lattice arithmetic over Z and Z/m.

Everything downstream (group-ring ideals, abelian-group presentations,
kernel/image computations) reduces to a handful of primitives on integer
row lattices: incremental Hermite echelon forms, membership with
coefficient recovery, Smith normal form with column transforms, left
kernels and lattice intersections.

A submodule of (Z/m)^n is represented by its full preimage lattice in
Z^n, which always contains m*Z^n.  The Hermite basis of the preimage,
read modulo m, is the Howell form of the submodule, so span equality and
membership over Z/m come for free from the integer machinery.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from typing import Iterable, Sequence


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, s, t) with s*a + t*b = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        return -old_r, -old_s, -old_t
    return old_r, old_s, old_t


class IntLattice:
    """A lattice in Z^n kept in row-echelon (Hermite) shape.

    Rows have strictly increasing pivot columns and positive pivots.
    With ``modulus`` m > 0 the lattice is seeded with m*Z^n, so it stays
    full rank and all entries remain bounded once normalized.

    All mutating operations are span-preserving; `canonical()` returns
    the unique fully reduced basis (modulo m when a modulus is set, with
    zero rows dropped), so two spans are equal iff their canonical forms
    are equal.

    A lattice is built row by row with `add`, or, for the span of the
    difference rows e_c - e_t, written directly in Hermite form by
    `from_differences`.
    """

    __slots__ = ("ncols", "modulus", "rows", "pivcols", "_stale", "_canonical", "_changes")

    # structural changes tolerated before entries are re-reduced; keeps
    # intermediate integer growth bounded during long insertion runs
    NORMALIZE_EVERY = 12

    def __init__(self, ncols: int, modulus: int = 0):
        if ncols < 0:
            raise ValueError("ncols must be >= 0")
        if modulus < 0:
            raise ValueError("modulus must be >= 0")
        self.ncols = ncols
        self.modulus = modulus
        self.rows: list[list[int]] = []
        self.pivcols: list[int] = []
        # pivot columns of the rows inserted or rewritten since the last
        # normalization; every other pair of rows is still reduced
        self._stale: set[int] = set()
        self._canonical: tuple[tuple[int, ...], ...] | None = None
        self._changes = 0
        if modulus:
            for j in range(ncols):
                row = [0] * ncols
                row[j] = modulus
                self.rows.append(row)
                self.pivcols.append(j)

    @classmethod
    def from_differences(cls, ncols: int, pairs: Iterable[tuple[int, int]], modulus: int = 0) -> IntLattice:
        """The span of the rows e_c - e_t for (c, t) in pairs, written
        directly in its reduced Hermite form.

        Precondition, checked in O(#pairs): c < t < ncols for every pair,
        each c appears once and no t is also a c; a ValueError names the
        pair or column that breaks it.  Then the row e_c - e_t leads in its
        own column c with pivot 1, and every other row is zero in column c
        (its entries sit at its own c' != c and at its t, which is not a c).
        So the rows are already echelon and reduced, with no elimination.
        - Over Z they are the basis: row e_c - e_t at pivot c.
        - Over Z/m the preimage lattice also holds m*Z^ncols.  Column t
          keeps its seed row m*e_t as pivot, since t is not a c, so the
          entry -1 above it reduces to m - 1, already in [0, m).  The seed
          row m*e_c becomes e_c + (m - 1)*e_t, and every other seed row
          stays.
        Hermite forms are unique, so this is the basis that inserting the
        rows one at a time with `add` and normalizing would reach.  Nothing
        is stale and no canonical form is cached.
        """
        pairs = sorted(pairs)
        pivots = {c for c, _ in pairs}
        last = -1
        for c, t in pairs:
            if not 0 <= c < t < ncols:
                raise ValueError(f"from_differences: pair {(c, t)} is not 0 <= c < t < {ncols}")
            if c == last:
                raise ValueError(f"from_differences: column {c} is the c of two pairs")
            if t in pivots:
                raise ValueError(f"from_differences: pair {(c, t)} has t = {t}, which is also a c")
            last = c
        lat = cls(ncols, modulus)
        if modulus:
            for c, t in pairs:
                row = lat.rows[c]
                row[c] = 1
                row[t] = modulus - 1
        else:
            for c, t in pairs:
                row = [0] * ncols
                row[c] = 1
                row[t] = -1
                lat.rows.append(row)
                lat.pivcols.append(c)
        return lat

    def _find_pivot_row(self, col: int) -> int | None:
        i = bisect_left(self.pivcols, col)
        if i < len(self.pivcols) and self.pivcols[i] == col:
            return i
        return None

    def add(self, vec: Sequence[int]) -> bool:
        """Insert a vector; returns True if the span grew."""
        if len(vec) != self.ncols:
            raise ValueError("vector length mismatch")
        m = self.modulus
        v = [x % m for x in vec] if m else list(vec)
        n = self.ncols
        changed = False
        j = 0
        while j < n:
            if v[j] == 0:
                j += 1
                continue
            i = self._find_pivot_row(j)
            if i is None:
                if v[j] < 0:
                    v = [-x for x in v]
                insort(self.pivcols, j)
                self.rows.insert(bisect_left(self.pivcols, j), v)
                # insort + insert must agree on position; pivcols was
                # updated first so bisect_left finds the new slot.
                self._stale.add(j)
                self._touch()
                return True
            row = self.rows[i]
            a = row[j]
            b = v[j]
            # v and row both vanish left of the pivot column j
            if b % a == 0:
                q = b // a
                if m:
                    v[j:] = [(x - q * y) % m for x, y in zip(v[j:], row[j:])]
                else:
                    v[j:] = [x - q * y for x, y in zip(v[j:], row[j:])]
            else:
                g, s, t = xgcd(a, b)
                qa = a // g
                qb = b // g
                tail, vt = row[j:], v[j:]
                if m:
                    new_row = [(s * x + t * y) % m for x, y in zip(tail, vt)]
                    new_row[0] = g
                    v[j:] = [(qa * y - qb * x) % m for x, y in zip(tail, vt)]
                else:
                    new_row = [s * x + t * y for x, y in zip(tail, vt)]
                    v[j:] = [qa * y - qb * x for x, y in zip(tail, vt)]
                self.rows[i] = row[:j] + new_row
                self._stale.add(j)
                changed = True
            # v[j] is now 0 in both branches
        if changed:
            self._touch()
        return changed

    def _touch(self) -> None:
        self._canonical = None
        self._changes += 1
        if self._changes >= self.NORMALIZE_EVERY:
            self._normalize()
            self._changes = 0

    def add_all(self, vecs: Iterable[Sequence[int]]) -> None:
        for v in vecs:
            self.add(v)

    def reduce(self, vec: Sequence[int]) -> list[int]:
        """Residual of vec after reduction against the rows (pure)."""
        m = self.modulus
        v = [x % m for x in vec] if m else list(vec)
        for i, j in enumerate(self.pivcols):
            if v[j] == 0:
                continue
            row = self.rows[i]
            q = v[j] // row[j]
            if q:
                if m:
                    v[j:] = [(x - q * y) % m for x, y in zip(v[j:], row[j:])]
                else:
                    v[j:] = [x - q * y for x, y in zip(v[j:], row[j:])]
        return v

    def reduce_with_coeffs(self, vec: Sequence[int]) -> tuple[list[int], list[int]]:
        """Residual plus the coefficients used against each stored row, in
        exact integer arithmetic: vec == coeffs . rows + residual.

        The rows are a basis of the (preimage) lattice, so the residual is
        zero iff vec lies in it.  Nothing is reduced modulo m on the way:
        that would drop multiples of m*e_j that the coefficients do not
        record.  Rows should be normalized first if deterministic
        coefficients matter.
        """
        v = list(vec)
        coeffs = [0] * len(self.rows)
        for i, j in enumerate(self.pivcols):
            if v[j] == 0:
                continue
            row = self.rows[i]
            q = v[j] // row[j]
            if q:
                coeffs[i] = q
                v[j:] = [x - q * y for x, y in zip(v[j:], row[j:])]
        return v, coeffs

    def contains(self, vec: Sequence[int]) -> bool:
        return not any(self.reduce(vec))

    def _normalize(self) -> None:
        """Reduce every entry above a pivot into [0, pivot).

        A pair of rows that neither changed since the last normalization
        is still reduced, so a row that did not change is checked only
        against the changed rows below it, until one of them rewrites it.
        """
        stale = self._stale
        if not stale:
            return
        m = self.modulus
        rows = self.rows
        piv = self.pivcols
        stale_rows = sorted(bisect_left(piv, c) for c in stale)
        for i, ri in enumerate(rows):
            if piv[i] in stale:
                start = i + 1
            else:
                # the first changed row below that rewrites row i, if any
                later = stale_rows[bisect_right(stale_rows, i):]
                start = next((k for k in later if ri[piv[k]] // rows[k][piv[k]]), None)
                if start is None:
                    continue
            for k in range(start, len(rows)):
                c = piv[k]
                if not ri[c]:
                    continue
                rk = rows[k]
                q = ri[c] // rk[c]
                if q:
                    # rows[k] vanishes left of its pivot column c
                    if m:
                        ri[c:] = [(x - q * y) % m for x, y in zip(ri[c:], rk[c:])]
                    else:
                        ri[c:] = [x - q * y for x, y in zip(ri[c:], rk[c:])]
        stale.clear()

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Unique reduced basis; over Z/m the Howell-form rows."""
        if self._canonical is not None:
            return self._canonical
        self._normalize()
        m = self.modulus
        # over Z/m every entry is already in [0, m): `add` and `_normalize`
        # reduce what they write, and every pivot they write is below m.  So
        # a row with pivot m is an untouched seed row m*e_j, zero modulo m.
        self._canonical = tuple(tuple(row) for j, row in zip(self.pivcols, self.rows) if row[j] != m)
        return self._canonical

    def basis_rows(self) -> tuple[tuple[int, ...], ...]:
        """Normalized integer basis of the (preimage) lattice."""
        self._normalize()
        return tuple(tuple(row) for row in self.rows)

    def rank(self) -> int:
        return len(self.rows)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IntLattice):
            return NotImplemented
        return (
            self.ncols == other.ncols
            and self.modulus == other.modulus
            and self.canonical() == other.canonical()
        )

    def __hash__(self):
        return hash((self.ncols, self.modulus, self.canonical()))


def lattice_from_rows(rows: Iterable[Sequence[int]], ncols: int, modulus: int = 0) -> IntLattice:
    lat = IntLattice(ncols, modulus)
    lat.add_all(rows)
    return lat


def left_kernel(rows: Sequence[Sequence[int]], ncols: int) -> list[list[int]]:
    """Basis of {x in Z^r : x . rows = 0} for r = len(rows).

    Computed from the echelon form of the augmented rows [row_i | e_i]:
    augmented basis rows whose left block vanished carry kernel
    combinations in the right block.
    """
    r = len(rows)
    if r == 0:
        return []
    aug = IntLattice(ncols + r)
    for i, row in enumerate(rows):
        v = list(row) + [0] * r
        v[ncols + i] = 1
        aug.add(v)
    out = []
    for row in aug.basis_rows():
        if not any(row[:ncols]):
            out.append(list(row[ncols:]))
    return out


def intersect_lattices(a: IntLattice, b: IntLattice) -> IntLattice:
    """Intersection of two lattices in the same ambient Z^n."""
    if a.ncols != b.ncols:
        raise ValueError("ambient dimension mismatch")
    rows_a = a.basis_rows()
    rows_b = b.basis_rows()
    stacked = [list(r) for r in rows_a] + [[-x for x in r] for r in rows_b]
    out = IntLattice(a.ncols)
    for comb in left_kernel(stacked, a.ncols):
        vec = [0] * a.ncols
        for c, row in zip(comb[: len(rows_a)], rows_a):
            if c:
                vec = [x + c * y for x, y in zip(vec, row)]
        out.add(vec)
    return out


def preimage_lattice(matrix_rows: Sequence[Sequence[int]], target: IntLattice) -> IntLattice:
    """Lattice {x in Z^r : x . matrix in target} for r = len(matrix_rows)."""
    r = len(matrix_rows)
    out = IntLattice(r)
    if r == 0:
        return out
    trows = target.basis_rows()
    stacked = [list(row) for row in matrix_rows] + [list(row) for row in trows]
    for comb in left_kernel(stacked, target.ncols):
        out.add(comb[:r])
    # x with x.M = 0 outright are found too; nothing else needed.
    return out


def _identity(n: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def smith_normal_form(relations: Sequence[Sequence[int]], ncols: int):
    """Diagonalize the row span of an integer matrix.

    Returns (diag, V, Vinv) where diag is a length-ncols list with
    diag[i] | diag[i+1] (zeros trailing), V and Vinv are unimodular
    ncols x ncols matrices, and in the coordinates c = x . V the row
    span becomes the diagonal lattice diag[i] * e_i.
    """
    rows = [list(r) for r in relations]
    nr = len(rows)
    V = _identity(ncols)
    Vinv = _identity(ncols)

    def col_swap(i, j):
        for row in rows:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]
        Vinv[i], Vinv[j] = Vinv[j], Vinv[i]

    def col_negate(i):
        for row in rows:
            row[i] = -row[i]
        for row in V:
            row[i] = -row[i]
        Vinv[i] = [-x for x in Vinv[i]]

    def col_addmul(dst, src, q):
        # col_dst += q * col_src ; inverse op on Vinv rows
        for row in rows:
            row[dst] += q * row[src]
        for row in V:
            row[dst] += q * row[src]
        Vinv[src] = [x - q * y for x, y in zip(Vinv[src], Vinv[dst])]

    def row_swap(i, j):
        rows[i], rows[j] = rows[j], rows[i]

    def row_addmul(dst, src, q):
        rows[dst] = [x + q * y for x, y in zip(rows[dst], rows[src])]

    k = 0
    limit = min(nr, ncols)
    while k < limit:
        # locate a nonzero entry of minimal magnitude in the trailing block
        best = None
        for i in range(k, nr):
            for j in range(k, ncols):
                v = rows[i][j]
                if v and (best is None or abs(v) < best[0]):
                    best = (abs(v), i, j)
        if best is None:
            break
        _, bi, bj = best
        if bi != k:
            row_swap(k, bi)
        if bj != k:
            col_swap(k, bj)
        if rows[k][k] < 0:
            col_negate(k)
        # clear column k and row k; repeat until both stay clear
        while True:
            changed = False
            for i in range(k + 1, nr):
                if rows[i][k]:
                    q = rows[i][k] // rows[k][k]
                    row_addmul(i, k, -q)
                    if rows[i][k]:
                        row_swap(k, i)
                        changed = True
            for j in range(k + 1, ncols):
                if rows[k][j]:
                    q = rows[k][j] // rows[k][k]
                    col_addmul(j, k, -q)
                    if rows[k][j]:
                        col_swap(k, j)
                        changed = True
            if rows[k][k] < 0:
                col_negate(k)
            if not changed:
                break
        # enforce divisibility d_k | every trailing entry
        d = rows[k][k]
        offender = None
        for i in range(k + 1, nr):
            for j in range(k + 1, ncols):
                if rows[i][j] % d:
                    offender = (i, j)
                    break
            if offender:
                break
        if offender:
            col_addmul(k, offender[1], 1)
            continue
        k += 1

    diag = [0] * ncols
    for i in range(min(nr, ncols)):
        diag[i] = abs(rows[i][i])
    return diag, V, Vinv
