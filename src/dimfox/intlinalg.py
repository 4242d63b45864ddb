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

from bisect import bisect_left, insort
from heapq import heapify, heappop, heappush
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


def _entry_map(vec, ncols: int, m: int) -> dict[int, int]:
    """A fresh {column: entry} map of the nonzero entries of vec (modulo m
    when m > 0), from a dense sequence of length ncols or from a map whose
    columns lie in [0, ncols)."""
    if isinstance(vec, dict):
        if vec and (min(vec) < 0 or max(vec) >= ncols):
            raise ValueError("column out of range")
        items = vec.items()
    else:
        if len(vec) != ncols:
            raise ValueError("vector length mismatch")
        items = enumerate(vec)
    if m:
        return {c: x % m for c, x in items if x % m}
    return {c: x for c, x in items if x}


def _combine(s: int, x: dict[int, int], t: int, y: dict[int, int], m: int) -> dict[int, int]:
    """The map of s*x + t*y, modulo m when m > 0, zeros dropped."""
    out = {c: s * e for c, e in x.items()}
    get = out.get
    for c, e in y.items():
        out[c] = get(c, 0) + t * e
    if m:
        return {c: e % m for c, e in out.items() if e % m}
    return {c: e for c, e in out.items() if e}


class IntLattice:
    """A lattice in Z^n kept in row-echelon (Hermite) shape.

    Rows have strictly increasing pivot columns and positive pivots.
    With ``modulus`` m > 0 the lattice is seeded with m*Z^n, so it stays
    full rank and all entries remain bounded once normalized.

    Each row is stored as a private {column: entry} map of its nonzero
    entries, and every elimination (`add`, `reduce`, `reduce_with_coeffs`,
    `_normalize`) walks the nonzeros of the rows it combines, never the
    row width.  The lattices of R(G) are wide and sparse: on the 64-column
    lattices of the `large` benchmark workload a stored row has 2.3-4.3
    nonzeros on average and an inserted row 3-5; on the 7-9 columns of the
    `corpus` workload a stored row has about 2.  `add` and `reduce` take a
    dense sequence or a {column: entry} map and convert it once, on entry.
    `rows` is the dense view of the stored rows, in pivot order.

    All mutating operations are span-preserving; `canonical()` returns
    the unique fully reduced basis (modulo m when a modulus is set, with
    zero rows dropped), so two spans are equal iff their canonical forms
    are equal.

    A lattice is built row by row with `add`, or, for the span of the
    difference rows e_c - e_t, written directly in Hermite form by
    `from_differences`.
    """

    __slots__ = ("ncols", "modulus", "pivcols", "_rows", "_canonical", "_changes")

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
        self.pivcols: list[int] = []
        # pivot column -> the {column: entry} map of the row leading there
        self._rows: dict[int, dict[int, int]] = {}
        self._canonical: tuple[tuple[int, ...], ...] | None = None
        # structural changes since the last normalization; none means every
        # entry above a pivot is reduced
        self._changes = 0
        if modulus:
            self.pivcols = list(range(ncols))
            self._rows = {j: {j: modulus} for j in range(ncols)}

    @property
    def rows(self) -> list[list[int]]:
        """The stored rows as dense lists, in pivot order (a fresh copy)."""
        return [self._dense(self._rows[c]) for c in self.pivcols]

    def _dense(self, row: dict[int, int]) -> list[int]:
        out = [0] * self.ncols
        for c, x in row.items():
            out[c] = x
        return out

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
        rows one at a time with `add` and normalizing would reach.  No
        change is pending and no canonical form is cached.
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
        rows = lat._rows
        if modulus:
            for c, t in pairs:
                rows[c] = {c: 1, t: modulus - 1} if modulus > 1 else {c: 1}
        else:
            for c, t in pairs:
                rows[c] = {c: 1, t: -1}
            lat.pivcols = [c for c, _ in pairs]
        return lat

    def add(self, vec: Sequence[int] | dict[int, int]) -> bool:
        """Insert a vector, dense or a {column: entry} map; returns True if
        the span grew."""
        m = self.modulus
        v = _entry_map(vec, self.ncols, m)
        rows = self._rows
        changed = False
        while v:
            j = min(v)
            row = rows.get(j)
            if row is None:
                if v[j] < 0:
                    v = {c: -x for c, x in v.items()}
                rows[j] = v
                insort(self.pivcols, j)
                self._touch()
                return True
            a = row[j]
            b = v[j]
            # v and row both vanish left of the pivot column j
            if b % a == 0:
                # v -= q*row in place, inline as every insertion runs it
                q = b // a
                get = v.get
                for c, y in row.items():
                    x = (get(c, 0) - q * y) % m if m else get(c, 0) - q * y
                    if x:
                        v[c] = x
                    elif c in v:
                        del v[c]
            else:
                g, s, t = xgcd(a, b)
                # the new pivot s*a + t*b = g lies in (0, m) over Z/m: a <= m
                # and 0 < b < m, so g < m
                rows[j] = _combine(s, row, t, v, m)
                v = _combine(a // g, v, -(b // g), row, m)
                changed = True
            # v[j] is now 0 in both branches
        if changed:
            self._touch()
        return changed

    def _eliminate(self, v: dict[int, int], lo: int, m: int, coeffs: dict[int, int] | None = None) -> None:
        """Reduce the entries of v at the pivot columns above lo into
        [0, pivot), in increasing column order, in place and modulo m when
        m > 0; with `coeffs`, record each row's multiple under its pivot.

        A row vanishes left of its pivot, so subtracting it changes only
        columns at or beyond that pivot: an entry once reduced stays so,
        and the pivot columns still to visit are kept in a heap as they
        fill in.
        """
        rows = self._rows
        todo = [c for c in v if c > lo and c in rows]
        heapify(todo)
        while todo:
            c = heappop(todo)
            x = v.get(c)
            if not x:
                continue
            row = rows[c]
            q = x // row[c]
            if not q:
                continue
            if coeffs is not None:
                coeffs[c] = q
            # v -= q*row, inline as it is the innermost loop of every reduction
            for k, y in row.items():
                if k in v:
                    z = (v[k] - q * y) % m if m else v[k] - q * y
                    if z:
                        v[k] = z
                    else:
                        del v[k]
                else:
                    z = -q * y % m if m else -q * y
                    if z:
                        v[k] = z
                        if k in rows:
                            heappush(todo, k)

    def _touch(self) -> None:
        self._canonical = None
        self._changes += 1
        if self._changes >= self.NORMALIZE_EVERY:
            self._normalize()

    def add_all(self, vecs: Iterable[Sequence[int] | dict[int, int]]) -> None:
        for v in vecs:
            self.add(v)

    def reduce(self, vec: Sequence[int] | dict[int, int]) -> list[int] | dict[int, int]:
        """Residual of vec after reduction against the rows (pure), in the
        form vec came in: a dense list, or a map of its nonzero entries."""
        v = _entry_map(vec, self.ncols, self.modulus)
        self._eliminate(v, -1, self.modulus)
        return v if isinstance(vec, dict) else self._dense(v)

    def reduce_with_coeffs(self, vec: Sequence[int] | dict[int, int]) -> tuple[list[int], list[int]]:
        """Residual plus the coefficients used against each stored row, in
        exact integer arithmetic: vec == coeffs . rows + residual.

        The rows are a basis of the (preimage) lattice, so the residual is
        zero iff vec lies in it.  Nothing is reduced modulo m on the way:
        that would drop multiples of m*e_j that the coefficients do not
        record.  Rows should be normalized first if deterministic
        coefficients matter.
        """
        v = _entry_map(vec, self.ncols, 0)
        used: dict[int, int] = {}
        self._eliminate(v, -1, 0, used)
        coeffs = [0] * len(self.pivcols)
        for c, q in used.items():
            coeffs[bisect_left(self.pivcols, c)] = q
        return self._dense(v), coeffs

    def contains(self, vec: Sequence[int] | dict[int, int]) -> bool:
        residual = self.reduce(vec)
        return not residual if isinstance(residual, dict) else not any(residual)

    def _normalize(self) -> None:
        """Reduce every entry above a pivot into [0, pivot): one bottom-up
        pass, each row reduced against the rows below it, which are
        reduced already."""
        rows = self._rows
        for c in reversed(self.pivcols):
            self._eliminate(rows[c], c, self.modulus)
        self._changes = 0

    def canonical(self) -> tuple[tuple[int, ...], ...]:
        """Unique reduced basis; over Z/m the Howell-form rows."""
        if self._canonical is not None:
            return self._canonical
        if self._changes:
            self._normalize()
        m = self.modulus
        rows = self._rows
        # over Z/m every entry is already in [0, m): `add` and `_normalize`
        # reduce what they write, and every pivot they write is below m.  So
        # a row with pivot m is an untouched seed row m*e_j, zero modulo m.
        self._canonical = tuple(tuple(self._dense(rows[c])) for c in self.pivcols if rows[c][c] != m)
        return self._canonical

    def canonical_maps(self) -> list[dict[int, int]]:
        """The rows of `canonical()`, as fresh {column: entry} maps."""
        self.canonical()
        rows, m = self._rows, self.modulus
        return [dict(rows[c]) for c in self.pivcols if rows[c][c] != m]

    def basis_rows(self) -> tuple[tuple[int, ...], ...]:
        """Normalized integer basis of the (preimage) lattice."""
        if self._changes:
            self._normalize()
        return tuple(map(tuple, self.rows))

    def rank(self) -> int:
        return len(self.pivcols)

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
