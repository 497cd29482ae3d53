"""Abstract lattices for local process states.

A letter of the word alphabet bundles the process-identifier interval, a
control location and a numeric environment.  Two environment domains are
provided: non-relational intervals and affine equalities (conjunctions of
exact linear equations, closed under affine hull).  All values are
immutable; every operation is a pure function, so letters are safe to
share between threads.

Scalars are exact rationals throughout; interval endpoints extend them
with two infinities.
"""
from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from typing import Optional, Union

from . import expr as E
from .value import frozen

NEG_INF = float("-inf")
POS_INF = float("inf")

# ---------------------------------------------------------------------------
# bounds


def is_finite(b) -> bool:
    return not isinstance(b, float)


# A float bound is always one of the two infinities.  The helpers below
# test the type instead of comparing with NEG_INF/POS_INF, because
# comparing a Fraction with a float goes through the slow Fraction.__eq__.


def bound_add(a, b):
    if not is_finite(a):
        return a
    if not is_finite(b):
        return b
    return a + b


def bound_neg(a):
    if not is_finite(a):
        return POS_INF if a < 0 else NEG_INF
    return -a


def bound_mul(a, b):
    # 0 * inf = 0: correct for products of closed interval endpoints.
    if a == 0 or b == 0:
        return Fraction(0)
    if not (is_finite(a) and is_finite(b)):
        positive = (a > 0) == (b > 0)
        return POS_INF if positive else NEG_INF
    return a * b


def bound_key(b):
    """Sort key usable alongside Fractions."""
    if not is_finite(b):
        return (-1 if b < 0 else 1, Fraction(0))
    return (0, b)


def _trunc(q: Fraction) -> Fraction:
    return Fraction(int(q))  # int() truncates toward zero, as C does


def bound_trunc(b):
    if isinstance(b, float):
        return b
    return _trunc(b)


# ---------------------------------------------------------------------------
# intervals


@frozen
class Interval:
    """Closed rational interval; the empty interval is canonically
    (+inf, -inf) so that equality and hashing see a single bottom.

    is_bottom and is_top are plain attributes decided once, at
    construction: every join and meet reads them.  They live outside the
    fields, so ==, hash and repr never see them."""

    lo: object = NEG_INF
    hi: object = POS_INF

    def __post_init__(self):
        lo, hi = self.lo, self.hi
        lo_inf, hi_inf = not is_finite(lo), not is_finite(hi)
        if lo_inf != hi_inf:
            # one infinite bound: its sign alone decides lo > hi
            bottom = lo > 0 if lo_inf else hi < 0
        else:
            bottom = lo > hi
        if bottom:
            object.__setattr__(self, "lo", POS_INF)
            object.__setattr__(self, "hi", NEG_INF)
        object.__setattr__(self, "is_bottom", bottom)
        object.__setattr__(self, "is_top", lo_inf and hi_inf and lo < 0 < hi)

    # -- constructors
    @staticmethod
    def top() -> "Interval":
        return Interval(NEG_INF, POS_INF)

    @staticmethod
    def bottom() -> "Interval":
        return Interval(POS_INF, NEG_INF)

    @staticmethod
    def point(q) -> "Interval":
        q = Fraction(q)
        return Interval(q, q)

    @staticmethod
    def range(lo, hi) -> "Interval":
        lo = lo if isinstance(lo, float) else Fraction(lo)
        hi = hi if isinstance(hi, float) else Fraction(hi)
        return Interval(lo, hi)

    # -- predicates
    @property
    def is_point(self) -> bool:
        return is_finite(self.lo) and is_finite(self.hi) and self.lo == self.hi

    def contains(self, q) -> bool:
        return not self.is_bottom and self.lo <= q <= self.hi

    # -- lattice
    def leq(self, other: "Interval") -> bool:
        if self.is_bottom:
            return True
        if other.is_bottom:
            return False
        return other.lo <= self.lo and self.hi <= other.hi

    def join(self, other: "Interval") -> "Interval":
        if self.is_bottom:
            return other
        if other.is_bottom:
            return self
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    def meet(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval(max(self.lo, other.lo), min(self.hi, other.hi))

    def widen(self, other: "Interval") -> "Interval":
        up = self.join(other)  # guarantee an upper bound of both arguments
        if self.is_bottom:
            return up
        lo = self.lo if up.lo >= self.lo else NEG_INF
        hi = self.hi if up.hi <= self.hi else POS_INF
        return Interval(lo, hi)

    # -- arithmetic (outward exact)
    def add(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        return Interval(bound_add(self.lo, other.lo), bound_add(self.hi, other.hi))

    def neg(self) -> "Interval":
        if self.is_bottom:
            return Interval.bottom()
        return Interval(bound_neg(self.hi), bound_neg(self.lo))

    def sub(self, other: "Interval") -> "Interval":
        return self.add(other.neg())

    def mul(self, other: "Interval") -> "Interval":
        if self.is_bottom or other.is_bottom:
            return Interval.bottom()
        corners = [bound_mul(a, b) for a in (self.lo, self.hi) for b in (other.lo, other.hi)]
        return Interval(min(corners, key=bound_key), max(corners, key=bound_key))

    def inverse(self) -> "Interval":
        """1/x for an interval not containing 0."""
        assert not self.contains(0)
        lo = 1 / self.hi if is_finite(self.hi) else Fraction(0)
        hi = 1 / self.lo if is_finite(self.lo) else Fraction(0)
        if self.lo > 0 or self.hi < 0:
            return Interval(lo, hi)
        return Interval.top()

    def truncate(self) -> "Interval":
        """Image under C-style truncation toward zero (monotone)."""
        if self.is_bottom:
            return self
        return Interval(bound_trunc(self.lo), bound_trunc(self.hi))

    def integral_tighten(self) -> "Interval":
        """Shrink to the hull of the contained integers: the interval
        itself when its bounds are integers or infinite."""
        if self.is_bottom or all(isinstance(b, float) or b.denominator == 1
                                 for b in (self.lo, self.hi)):
            return self
        lo = self.lo if isinstance(self.lo, float) else Fraction(math.ceil(self.lo))
        hi = self.hi if isinstance(self.hi, float) else Fraction(math.floor(self.hi))
        return Interval(lo, hi)

    def sort_key(self):
        return (bound_key(self.lo), bound_key(self.hi))

    def __str__(self) -> str:
        if self.is_bottom:
            return "bot"
        lo = str(self.lo) if is_finite(self.lo) else "-inf"
        hi = str(self.hi) if is_finite(self.hi) else "+inf"
        return f"[{lo},{hi}]"


# ---------------------------------------------------------------------------
# interval environments


@frozen
class IntervalEnv:
    """Map variable -> interval; missing variables are unconstrained.

    A variable bound to the empty interval never appears here: operations
    that would produce one return None (the whole environment is bottom).
    """

    items: tuple = ()

    @staticmethod
    def top() -> "IntervalEnv":
        return IntervalEnv(())

    @staticmethod
    def make(mapping) -> Optional["IntervalEnv"]:
        out = []
        for name in sorted(mapping):
            itv = mapping[name]
            if itv.is_bottom:
                return None
            if not itv.is_top:
                out.append((name, itv))
        return IntervalEnv(tuple(out))

    def as_dict(self) -> dict:
        return dict(self.items)

    def get(self, name: str) -> Interval:
        for n, itv in self.items:
            if n == name:
                return itv
        return Interval.top()

    def set(self, name: str, itv: Interval) -> Optional["IntervalEnv"]:
        if itv.is_bottom:
            return None
        d = self.as_dict()
        d[name] = itv
        return IntervalEnv.make(d)

    def leq(self, other: "IntervalEnv") -> bool:
        return all(self.get(n).leq(itv) for n, itv in other.items)

    def join(self, other: "IntervalEnv") -> "IntervalEnv":
        names = {n for n, _ in self.items} & {n for n, _ in other.items}
        return IntervalEnv.make({n: self.get(n).join(other.get(n)) for n in names})

    def meet(self, other: "IntervalEnv") -> Optional["IntervalEnv"]:
        names = {n for n, _ in self.items} | {n for n, _ in other.items}
        d = {}
        for n in names:
            m = self.get(n).meet(other.get(n))
            if m.is_bottom:
                return None
            d[n] = m
        return IntervalEnv.make(d)

    def widen(self, other: "IntervalEnv") -> "IntervalEnv":
        names = {n for n, _ in self.items} & {n for n, _ in other.items}
        return IntervalEnv.make({n: self.get(n).widen(other.get(n)) for n in names})

    def sort_key(self):
        return tuple((n, itv.sort_key()) for n, itv in self.items)

    def __str__(self) -> str:
        return "{" + ", ".join(f"{n}={itv}" for n, itv in self.items) + "}"


# ---------------------------------------------------------------------------
# affine-equality environments (Karr's domain, equalities only)
#
# The kernel eliminates over the integers, fraction-free (Bareiss 1968).
# An integer row (coeffs: dict name->int, const: int) stands for
# sum(coeffs[n] * n) = const.  An echelon form is a dict pivot -> row in
# which every row is primitive (the gcd of its entries is 1), has a
# positive coefficient at its pivot and is zero at every other pivot.  A
# reduced rational row has exactly one primitive integer multiple with a
# positive pivot, so under a fixed column order the integer form is as
# canonical as the reduced row echelon form, and Fractions are built only
# for the output (k / pivot coefficient).


def _int_row(coeffs: dict, const):
    """A rational row scaled to integers by the lcm of its denominators."""
    den = math.lcm(const.denominator, *(k.denominator for k in coeffs.values()))
    return ({n: k.numerator * (den // k.denominator) for n, k in coeffs.items() if k},
            const.numerator * (den // const.denominator))


def _combine(a: int, row, b: int, other):
    """The row a * row - b * other, without zero entries."""
    coeffs, c = row
    ocoeffs, oc = other
    out = {n: a * k for n, k in coeffs.items()} if a != 1 else dict(coeffs)
    for n, k in ocoeffs.items():
        v = out.get(n, 0) - b * k
        if v:
            out[n] = v
        else:
            out.pop(n, None)
    return out, a * c - b * oc


def _primitive(row, pivot):
    """The row divided by the gcd of its entries, its pivot made positive."""
    coeffs, c = row
    g = math.gcd(c, *coeffs.values())
    if coeffs[pivot] < 0:
        g = -g
    if g == 1:
        return row
    return {n: k // g for n, k in coeffs.items()}, c // g


def _residual(form: dict, row):
    """The row reduced against an echelon form, and the positive factor s
    the reduction scaled it by: on the form's solutions,
    s * (coeffs . x - const) equals the residual's coeffs . x - const."""
    scale = 1
    for p in [n for n in row[0] if n in form]:
        prow = form[p]
        a = prow[0][p]
        row = _combine(a, row, row[0][p], prow)
        scale *= a
    return row, scale


def _rref(rows, pick=min) -> Optional[dict]:
    """Reduced row echelon form over the integers, by fraction-free
    Gauss-Jordan elimination.

    rows: integer rows (rational ones are scaled by _int_row).  A row is
    made primitive with a positive pivot when it joins the form and after
    every back-substitution, so the reduced rational row is the integer
    row divided by its pivot coefficient.  pick chooses the pivot of a row, its first column in
    the elimination order (min: the sorted names).  Returns the form
    sorted by pivot name, or None when the rows are inconsistent.  The
    input rows are not modified."""
    form = {}
    for row in rows:
        row, _ = _residual(form, row)
        if not row[0]:
            if row[1]:
                return None
            continue
        q = pick(row[0])
        row = _primitive(row, q)
        a = row[0][q]
        for p, prow in form.items():
            b = prow[0].get(q)
            if b:
                form[p] = _primitive(_combine(a, prow, b, row), p)
        form[q] = row
    return {p: form[p] for p in sorted(form)}


def _project(rows, drop) -> Optional[dict]:
    """Existentially eliminate the columns in drop, by one elimination with
    those columns first.  The rows pivoted outside drop are zero on it
    and, sorted by pivot, are the reduced form of the projection."""
    def pick(coeffs):
        first = coeffs.keys() & drop
        return min(first) if first else min(coeffs)
    form = _rref(rows, pick)
    if form is None:
        return None
    return {p: row for p, row in form.items() if p not in drop}


def _null_vector(form: dict, f: str) -> dict:
    """The integer solution of the form's rows made homogeneous that has
    free column f at the lcm of the pivot coefficients it meets and every
    other free column at 0."""
    hits = [(p, coeffs) for p, (coeffs, _) in form.items() if f in coeffs]
    scale = math.lcm(*(coeffs[p] for p, coeffs in hits))
    vec = {f: scale}
    for p, coeffs in hits:
        vec[p] = -coeffs[f] * (scale // coeffs[p])
    return vec


@frozen
class AffineEnv:
    """Conjunction of affine equalities over the program variables plus id.

    rows are in reduced row echelon form over the sorted variable names,
    so two environments describe the same affine subspace exactly when
    they are equal.  The unsatisfiable system is represented by operations
    returning None.

    Each environment also caches its integer pivot form (`pivots`): the
    same rows as an echelon form of primitive integer rows.  Queries,
    inclusion and the lattice operations work on that form and build
    Fractions only for the rows of a new environment.
    """

    vars: tuple
    rows: tuple = ()  # tuple of (coeff-tuple aligned with vars, const)

    @staticmethod
    def top(vars) -> "AffineEnv":
        return AffineEnv(tuple(vars), ())

    @staticmethod
    def from_rows(vars, dict_rows) -> Optional["AffineEnv"]:
        """The environment of rational rows.  A column outside vars (a
        property may name a variable the program lacks) is unconstrained,
        as in the interval domain, so it is projected out."""
        rows = [_int_row(coeffs, Fraction(c)) for coeffs, c in dict_rows]
        outside = {n for coeffs, _ in rows for n in coeffs}.difference(vars)
        form = _project(rows, outside) if outside else _rref(rows)
        if form is None:
            return None
        return AffineEnv._from_form(vars, form)

    @staticmethod
    def _from_form(vars, form: dict) -> "AffineEnv":
        """The environment of an echelon form over vars, sorted by pivot;
        the form becomes its cached pivot form."""
        vars = tuple(vars)
        zero = Fraction(0)
        rows = []
        for p, (coeffs, c) in form.items():
            a = coeffs[p]
            rows.append((tuple(Fraction(coeffs[v], a) if v in coeffs else zero for v in vars),
                         Fraction(c, a)))
        env = AffineEnv(vars, tuple(rows))
        env.__dict__["pivots"] = form
        return env

    def dict_rows(self):
        return [
            ({v: k for v, k in zip(self.vars, coeffs) if k != 0}, c)
            for coeffs, c in self.rows
        ]

    @cached_property
    def pivots(self) -> dict:
        """The integer pivot form, pivot -> (coeffs, const), computed once
        per environment; callers must not mutate it.  Scaling a reduced
        row by the lcm of its denominators gives a primitive row."""
        form = {}
        for coeffs, c in self.dict_rows():
            form[min(coeffs)] = _int_row(coeffs, c)
        return form

    def too_big(self) -> bool:
        """Is a coefficient or constant past the expr.MAX_POW_BITS size cap?"""
        return any(E.number_too_big(c) or any(E.number_too_big(k) for k in coeffs)
                   for coeffs, c in self.rows)

    # -- queries
    def _entails_row(self, row) -> bool:
        residual, _ = _residual(self.pivots, row)
        return not residual[0] and not residual[1]

    def entails(self, coeffs: dict, const: Fraction) -> bool:
        """Does every point of the subspace satisfy sum(coeffs) = const?"""
        return self._entails_row(_int_row(coeffs, Fraction(const)))

    def value_of(self, coeffs: dict):
        """The constant value of the linear form, if the system pins it."""
        den = math.lcm(*(k.denominator for k in coeffs.values()))
        row = ({n: k.numerator * (den // k.denominator) for n, k in coeffs.items() if k}, 0)
        (rest, c), scale = _residual(self.pivots, row)
        if rest:
            return None
        return Fraction(-c, scale * den)

    def constant(self, name: str):
        return self.value_of({name: Fraction(1)})

    def satisfies(self, assignment: dict) -> bool:
        for coeffs, c in self.rows:
            total = sum(k * Fraction(assignment[v]) for v, k in zip(self.vars, coeffs) if k != 0)
            if total != c:
                return False
        return True

    # -- lattice
    def leq(self, other: "AffineEnv") -> bool:
        return all(self._entails_row(row) for row in other.pivots.values())

    def meet(self, other: "AffineEnv") -> Optional["AffineEnv"]:
        form = _rref([*self.pivots.values(), *other.pivots.values()])
        if form is None:
            return None
        return AffineEnv._from_form(self.vars, form)

    @cached_property
    def generators(self):
        """((point numerators, denominator), directions) of the subspace
        over the integers, computed once per environment; callers must not
        mutate them.  The point sets the free variables to 0."""
        form = self.pivots
        den = math.lcm(*(coeffs[p] for p, (coeffs, c) in form.items() if c))
        point = {p: c * (den // coeffs[p]) for p, (coeffs, c) in form.items() if c}
        return (point, den), [_null_vector(form, f) for f in self.vars if f not in form]

    def join(self, other: "AffineEnv") -> "AffineEnv":
        """Affine hull: the least affine subspace containing both.

        Most joins return an operand, so inclusion is tested first, on the
        cached pivot forms.  Otherwise the constraints are the nullspace of
        the generator matrix: eliminated with the columns in descending
        order, each free column f gives one constraint whose other entries
        sit at pivots after f, zero at the other free columns, which is
        already the reduced form for the ascending order."""
        if other.leq(self):
            return self
        if self.leq(other):
            return other
        (p1, d1), dirs1 = self.generators
        (p2, d2), dirs2 = other.generators
        shift = {v: p2.get(v, 0) * d1 - p1.get(v, 0) * d2 for v in p1.keys() | p2.keys()}
        span = [(vec, 0) for vec in dirs1 + dirs2]
        span.append(({v: k for v, k in shift.items() if k}, 0))
        span_form = _rref(span, max)
        form = {}
        for f in sorted(v for v in self.vars if v not in span_form):
            a = _null_vector(span_form, f)
            # a . x = a . point / d1, scaled by d1
            const = sum(k * p1[v] for v, k in a.items() if v in p1)
            form[f] = _primitive(({v: k * d1 for v, k in a.items()}, const), f)
        return AffineEnv._from_form(self.vars, form)

    def widen(self, other: "AffineEnv") -> "AffineEnv":
        return self.join(other)  # finite height in the number of variables

    # -- transformers
    def project_out(self, name: str) -> "AffineEnv":
        form = _project(self.pivots.values(), {name})
        assert form is not None
        return AffineEnv._from_form(self.vars, form)

    def assign_affine(self, name: str, coeffs: dict, const: Fraction) -> "AffineEnv":
        """name := sum(coeffs) + const, exact Karr assignment."""
        rows = _assign_column(self.pivots.values(), name, (coeffs, Fraction(const)))
        return AffineEnv._from_form(self.vars, _rref(rows))

    def havoc(self, name: str) -> "AffineEnv":
        return self.project_out(name)

    def sort_key(self):
        return tuple((coeffs, c) for coeffs, c in self.rows)

    def __str__(self) -> str:
        parts = []
        for coeffs, c in self.rows:
            terms = [
                (f"{k}*{v}" if k != 1 else v)
                for v, k in zip(self.vars, coeffs)
                if k != 0
            ]
            parts.append(" + ".join(terms) + f" = {c}")
        return "{" + "; ".join(parts) + "}"


def _assign_column(rows, col: str, rhs) -> list:
    """Integer rows after col := rhs, where rhs is a rational affine form
    (coeffs, const) standing for coeffs . x + const and may read col:
    Karr's exact assignment, that is, the row tmp = rhs joins the rows,
    col is projected out and tmp renamed col.  With rhs None col is only
    projected out.  Inconsistent rows stay inconsistent."""
    tmp = "\x00tmp"  # sorts before every column name
    rows = list(rows)
    if rhs is not None:
        coeffs, const = rhs
        rows.append(_int_row({**coeffs, tmp: Fraction(-1)}, -const))
    form = _project(rows, {col})
    if form is not None:
        rows = list(form.values())
    return [({(col if n == tmp else n): k for n, k in coeffs.items()}, c) for coeffs, c in rows]


def _project_to_tag(rows, tag: str, vars) -> Optional[AffineEnv]:
    """The environment over vars of integer rows over tagged columns ("0.x"
    is x of letter 0): every column outside tag existentially eliminated,
    then untagged; None when the rows are inconsistent."""
    prefix = f"{tag}."
    foreign = {n for coeffs, _ in rows for n in coeffs if not n.startswith(prefix)}
    form = _project(rows, foreign)
    if form is None:
        return None
    cut = len(prefix)  # untagging keeps the sorted order
    return AffineEnv._from_form(vars, {
        p[cut:]: ({n[cut:]: k for n, k in coeffs.items()}, c)
        for p, (coeffs, c) in form.items()})


Env = Union[IntervalEnv, AffineEnv]


# ---------------------------------------------------------------------------
# letters


@frozen
class AbstractLocalState:
    """One letter of the word alphabet: (id interval, location, environment).

    The location is always a single partition class; bottom letters are
    represented by None wherever an operation can produce them.
    """

    pid: Interval
    loc: str
    env: Env

    def __post_init__(self):
        assert not self.pid.is_bottom

    def with_env(self, env) -> Optional["AbstractLocalState"]:
        if env is None:
            return None
        return AbstractLocalState(self.pid, self.loc, env)

    def with_pid(self, pid: Interval) -> Optional["AbstractLocalState"]:
        if pid.is_bottom:
            return None
        return AbstractLocalState(pid, self.loc, self.env)

    def relocate(self, loc: str) -> "AbstractLocalState":
        return AbstractLocalState(self.pid, loc, self.env)

    def sort_key(self):
        return (loc_sort_key(self.loc), self.pid.sort_key(), self.env.sort_key())

    def __str__(self) -> str:
        return f"<id={self.pid} {self.loc} {self.env}>"


def loc_sort_key(loc: str):
    """Stable ordering for location names like l7, l2_lock, l2_coll."""
    base, _, suffix = loc.partition("_")
    idx = int(base[1:]) if base.startswith("l") and base[1:].isdigit() else -1
    return (idx, suffix, loc)


# letter_leq, letter_join and letter_widen return at once on equal
# operands: a canonical automaton's letters rarely change between fixpoint
# iterations, so most joins and inclusion tests compare a letter with
# itself, and all three are idempotent.  Letters cache their hash, so
# comparing hashes first settles almost every unequal pair.


def _equal(a: AbstractLocalState, b: AbstractLocalState) -> bool:
    return hash(a) == hash(b) and a == b


def letter_leq(a: AbstractLocalState, b: AbstractLocalState) -> bool:
    if _equal(a, b):
        return True
    return a.loc == b.loc and a.pid.leq(b.pid) and a.env.leq(b.env)


def letter_join(a: AbstractLocalState, b: AbstractLocalState) -> AbstractLocalState:
    if _equal(a, b):
        return a
    assert a.loc == b.loc
    return AbstractLocalState(a.pid.join(b.pid), a.loc, a.env.join(b.env))


def letter_meet(a: AbstractLocalState, b: AbstractLocalState) -> Optional[AbstractLocalState]:
    if a.loc != b.loc:
        return None
    pid = a.pid.meet(b.pid)
    if pid.is_bottom:
        return None
    env = a.env.meet(b.env)
    if env is None:
        return None
    return AbstractLocalState(pid, a.loc, env)


def letter_widen(a: AbstractLocalState, b: AbstractLocalState) -> AbstractLocalState:
    if _equal(a, b):
        return a
    assert a.loc == b.loc
    return AbstractLocalState(a.pid.widen(b.pid), a.loc, a.env.widen(b.env))


# ---------------------------------------------------------------------------
# guards


@frozen
class GuardElement:
    """The letters at one location (any location when loc is None) that
    satisfy every comparison in constraints.

    A label of a lattice automaton lives in one partition class; a guard
    reads one class, or all of them.  The comparisons are expr.BinOp
    nodes over id, the letter's own variables and constants, as in
    property labels and the broadcast and reduce root guards."""

    loc: Optional[str] = None
    constraints: tuple = ()  # of comparison expr.BinOp

    @staticmethod
    def at(loc: Optional[str], *comparisons) -> "GuardElement":
        return GuardElement(loc, comparisons)

    def __str__(self) -> str:
        return "<any>" if self.loc is None else self.loc


TOP_GUARD = GuardElement()


# ---------------------------------------------------------------------------
# domain context and transfer functions


@frozen
class DomainContext:
    """Program-level configuration shared by all letters of one analysis."""

    kind: str  # "interval" | "affine"
    variables: tuple
    rat_vars: frozenset = frozenset()

    def affine_vars(self) -> tuple:
        return tuple(sorted(set(self.variables) | {"id"}))

    def is_int(self, name: str) -> bool:
        return name == "id" or name not in self.rat_vars

    def top_env(self) -> Env:
        if self.kind == "affine":
            return AffineEnv.top(self.affine_vars())
        return IntervalEnv.top()

    def zero_env(self, pid: Interval) -> Env:
        if self.kind == "affine":
            rows = [({v: Fraction(1)}, Fraction(0)) for v in self.variables]
            if pid.is_point:
                rows.append(({"id": Fraction(1)}, Fraction(pid.lo)))
            env = AffineEnv.from_rows(self.affine_vars(), rows)
            assert env is not None
            return env
        return IntervalEnv.make({v: Interval.point(0) for v in self.variables})

    def zero_letter(self, pid: Interval, loc: str) -> AbstractLocalState:
        return AbstractLocalState(pid, loc, self.zero_env(pid))


class AlarmSink:
    """Collects division and number-size alarms raised inside transfer
    functions."""

    def __init__(self):
        self.alarms = set()

    def division(self, where: str) -> None:
        self.alarms.add(("division", where))

    def power(self, where: str) -> None:
        """A power, or any arithmetic result, too large to keep (see
        expr.MAX_POW_BITS)."""
        self.alarms.add(("power", where))


def eval_interval(ctx: DomainContext, letter: AbstractLocalState, e, sink=None,
                  resolver=None) -> Interval:
    """Interval evaluation of e against a letter (id resolves to its pid;
    a comparison is 0 or 1, as in C).

    resolver, when given, maps a PosVar to an interval; division by an
    interval containing zero, and an arithmetic result with a bound past
    the expr.MAX_POW_BITS size cap, yield top and record an alarm.

    A power is bounded when its exponent is an integer point k: any k
    over a point base; k >= 0 over an interval base, from the powers of
    its ends (0 is the least value when k is even and 0 lies in the
    base; an infinite end stays infinite).  Over a point base of at least
    1, an interval exponent is bounded too.  A negative k or an interval
    exponent over any other base gives top, without an alarm.
    """

    def too_big(node) -> Interval:
        if sink is not None:
            sink.power(E.to_source(node))
        return Interval.top()

    def ev(node) -> Interval:
        if isinstance(node, E.Const):
            return Interval.point(node.value)
        if isinstance(node, E.IntervalConst):
            return Interval(node.lo, node.hi)
        if isinstance(node, E.Var):
            if node.name == "id":
                return letter.pid
            if isinstance(letter.env, IntervalEnv):
                return letter.env.get(node.name)
            c = letter.env.constant(node.name)
            return Interval.point(c) if c is not None else Interval.top()
        if isinstance(node, E.PosVar):
            assert resolver is not None
            return resolver(node)
        if isinstance(node, E.Neg):
            return ev(node.arg).neg()
        if isinstance(node, E.BinOp):
            r = arith(node, ev(node.left), ev(node.right))
            if any(is_finite(x) and E.number_too_big(x) for x in (r.lo, r.hi)):
                return too_big(node)
            return r
        raise ValueError(f"cannot evaluate {node!r}")

    def arith(node, a: Interval, b: Interval) -> Interval:
        if node.op == "+":
            return a.add(b)
        if node.op == "-":
            return a.sub(b)
        if node.op == "*":
            return a.mul(b)
        if node.op in ("/", "%") and (b.contains(0) or b.is_bottom):
            if sink is not None:
                sink.division(E.to_source(node))
            return Interval.top()
        if node.op == "/":
            return a.mul(b.inverse())
        if node.op == "%":
            if a.is_point and b.is_point:
                av, bv = a.lo, b.lo
                return Interval.point(av - bv * _trunc(av / bv))
            return Interval.top()
        if node.op == "min":
            if a.is_bottom or b.is_bottom:
                return Interval.bottom()
            return Interval(min(a.lo, b.lo), min(a.hi, b.hi))
        if node.op == "max":
            if a.is_bottom or b.is_bottom:
                return Interval.bottom()
            return Interval(max(a.lo, b.lo), max(a.hi, b.hi))
        if node.op in E.COMPARISONS:  # C truth value
            if a.is_point and b.is_point:
                return Interval.point(int(E.compare(node.op, a.lo, b.lo)))
            return Interval.range(0, 1)
        if node.op == "^":
            if b.is_point and is_finite(b.lo) and b.lo.denominator == 1:
                k = int(b.lo)
                if a.is_point and is_finite(a.lo):
                    base = a.lo
                    if base == 0 and k < 0:
                        if sink is not None:
                            sink.division(E.to_source(node))
                        return Interval.top()
                    if E.pow_too_big(base, k):
                        return too_big(node)
                    return Interval.point(base ** k)
                if k >= 0 and not a.is_bottom:
                    if any(is_finite(x) and E.pow_too_big(x, k) for x in (a.lo, a.hi)):
                        return too_big(node)
                    if k == 0:
                        return Interval.point(1)
                    ends = (a.lo ** k, a.hi ** k)
                    low = 0 if k % 2 == 0 and a.contains(0) else min(ends)
                    return Interval.range(low, max(ends))
            if a.is_point and is_finite(a.lo) and a.lo >= 1 and not b.is_bottom:
                base = a.lo
                lo = b.lo
                hi = b.hi
                def pw(exp):
                    if exp == NEG_INF:
                        return Fraction(0) if base > 1 else Fraction(1)
                    if exp == POS_INF:
                        return POS_INF if base > 1 else Fraction(1)
                    if exp.denominator == 1:
                        return base ** int(exp)
                    return None
                if any(is_finite(x) and x.denominator == 1
                       and E.pow_too_big(base, int(x)) for x in (lo, hi)):
                    return too_big(node)
                plo, phi = pw(lo), pw(hi)
                if plo is not None and phi is not None:
                    return Interval(plo, phi)
            return Interval.top()
        raise ValueError(f"cannot evaluate {node!r}")

    return ev(e)


def guaranteed_integral(ctx: DomainContext, e) -> bool:
    """Syntactic check that an expression always evaluates to an integer
    (division, powers and rational variables may introduce fractions)."""
    for node, _ in E.nodes(e):
        if isinstance(node, E.Const):
            ok = node.value.denominator == 1
        elif isinstance(node, (E.Var, E.PosVar)):
            ok = ctx.is_int(node.name)
        elif isinstance(node, E.BinOp):
            ok = node.op not in ("/", "^")
        else:
            ok = isinstance(node, (E.Neg, E.NProcs, E.FreshId, E.IntervalConst))
        if not ok:
            return False
    return True


def store_interval(ctx: DomainContext, var: str, val: Interval) -> Interval:
    """Value conversion on assignment: integer variables truncate toward
    zero, C style."""
    if ctx.is_int(var):
        return val.truncate()
    return val


def transfer_assign(ctx: DomainContext, s: AbstractLocalState, var: str, e,
                    sink=None) -> Optional[AbstractLocalState]:
    """Sound post-image of var := e on a single letter."""
    if isinstance(s.env, IntervalEnv):
        val = store_interval(ctx, var, eval_interval(ctx, s, e, sink))
        return s.with_env(s.env.set(var, val))
    aff = E.to_affine(e)
    exact_ok = not ctx.is_int(var) or guaranteed_integral(ctx, e)
    if aff is not None and exact_ok and all(isinstance(a, E.Var) for a in aff[0]):
        coeffs = {a.name: k for a, k in aff[0].items()}
        env = s.env.assign_affine(var, coeffs, aff[1])
        if not env.too_big():
            return s.with_env(env)
        # x := x * c repeated keeps an exact constant c ** k: past the size
        # cap var is top, as in the interval domain.
        if sink is not None:
            sink.power(E.to_source(e))
        return s.with_env(s.env.havoc(var))
    env = s.env.havoc(var)
    val = eval_interval(ctx, s, e, sink)
    if val.is_point:  # non-affine but constant-valued: keep the point
        point = store_interval(ctx, var, val).lo
        env2 = env.meet(AffineEnv.from_rows(env.vars, [({var: Fraction(1)}, point)]))
        if env2 is not None:
            env = env2
    return s.with_env(env)


def _refine_interval_cmp(ctx, s, op, lhs_name, rhs_itv) -> Optional[AbstractLocalState]:
    """Tighten variable lhs under lhs <op> rhs_itv (interval letters)."""
    cur = s.pid if lhs_name == "id" else s.env.get(lhs_name)
    integral = ctx.is_int(lhs_name)
    if op == "==":
        new = cur.meet(rhs_itv)
    elif op == "!=":
        new = cur
        if rhs_itv.is_point:
            if cur.is_point and cur.lo == rhs_itv.lo:
                new = Interval.bottom()
            elif integral and cur.lo == rhs_itv.lo and is_finite(cur.lo):
                new = Interval(cur.lo + 1, cur.hi)
            elif integral and cur.hi == rhs_itv.lo and is_finite(cur.hi):
                new = Interval(cur.lo, cur.hi - 1)
    elif op == "<":
        # the largest integer below the bound: x < 3/2 keeps x = 1
        bound = rhs_itv.hi
        if integral and is_finite(bound):
            bound = Fraction(math.ceil(bound) - 1)
        new = cur.meet(Interval(NEG_INF, bound))
    elif op == "<=":
        new = cur.meet(Interval(NEG_INF, rhs_itv.hi))
    elif op == ">":
        # the smallest integer above the bound: x > 3/2 keeps x = 2
        bound = rhs_itv.lo
        if integral and is_finite(bound):
            bound = Fraction(math.floor(bound) + 1)
        new = cur.meet(Interval(bound, POS_INF))
    elif op == ">=":
        new = cur.meet(Interval(rhs_itv.lo, POS_INF))
    else:
        return s
    if integral:
        new = new.integral_tighten()
    if new.is_bottom:
        return None
    if lhs_name == "id":
        return s.with_pid(new)
    return s.with_env(s.env.set(lhs_name, new))


def _apply_comparison(ctx, s, cmp_expr, sink=None) -> Optional[AbstractLocalState]:
    """Restrict a letter to the states satisfying one comparison."""
    op = cmp_expr.op
    left, right = cmp_expr.left, cmp_expr.right
    flipped = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "==", "!=": "!="}
    if not isinstance(left, E.Var) and isinstance(right, E.Var):
        left, right = right, left
        op = flipped[op]

    if isinstance(s.env, AffineEnv):
        aff_l = E.to_affine(left)
        aff_r = E.to_affine(right)
        if aff_l is not None and aff_r is not None and \
                all(isinstance(a, E.Var) for a in aff_l[0]) and \
                all(isinstance(a, E.Var) for a in aff_r[0]):
            coeffs = {a.name: k for a, k in aff_l[0].items()}
            for a, k in aff_r[0].items():
                coeffs[a.name] = coeffs.get(a.name, Fraction(0)) - k
            const = aff_r[1] - aff_l[1]
            coeffs = {n: k for n, k in coeffs.items() if k != 0}
            s2 = s
            if op == "==":
                row = AffineEnv.from_rows(s.env.vars, [(coeffs, const)])
                if row is None:  # a false constant equation such as 1 == 0
                    return None
                env = s.env.meet(row)
                if env is None:
                    return None
                if env.too_big():  # keep the letter unrestricted
                    if sink is not None:
                        sink.power(E.to_source(cmp_expr))
                else:
                    s2 = s.with_env(env)
            else:
                val = s.env.value_of(coeffs)
                if val is not None and not E.compare(op, val, const):
                    return None
            if s2 is not None and isinstance(left, E.Var) and left.name == "id":
                rng = eval_interval(ctx, s2, right, sink)
                s2 = _refine_interval_cmp(ctx, s2, op, "id", rng)
            return s2
    elif isinstance(left, E.Var):
        rng = eval_interval(ctx, s, right, sink)
        return _refine_interval_cmp(ctx, s, op, left.name, rng)
    # a non-affine comparison, or no variable on either side: decide
    # constants when possible
    li = eval_interval(ctx, s, left, sink)
    ri = eval_interval(ctx, s, right, sink)
    if li.is_point and ri.is_point:
        return s if E.compare(op, li.lo, ri.lo) else None
    return s


def transfer_filter(ctx: DomainContext, s: AbstractLocalState, e, branch: str,
                    sink=None) -> Optional[AbstractLocalState]:
    """Restriction of s to e != 0 (then) or e == 0 (else), C truth."""
    if isinstance(e, E.Nondet):
        return s
    if E.is_comparison(e):
        cmp_expr = e if branch == "then" else E.negate_comparison(e)
        return _apply_comparison(ctx, s, cmp_expr, sink)
    # plain arithmetic condition: then = e != 0, else = e == 0
    cmp_expr = E.BinOp("!=" if branch == "then" else "==", e, E.Const(Fraction(0)))
    return _apply_comparison(ctx, s, cmp_expr, sink)


# ---------------------------------------------------------------------------
# guard meets


def meet_guard(ctx: DomainContext, s: AbstractLocalState, g: GuardElement,
               sink=None) -> Optional[AbstractLocalState]:
    """Greatest lower bound of a letter and a guard element (None = bottom):
    bottom off the guard's location, else the letter refined by each of
    its comparisons in turn.

    Comparison refinement is only as strong as the letter's own domain,
    so the result over-approximates the exact meet; that is the sound
    side for every use (matching and property intersection).  A guard
    without comparisons, as TOP_GUARD or GuardElement.at(loc), gives
    back the letter itself.  Rule application also memoizes whole star
    images (rules.StarImages), so most letters meet each star guard once
    per automaton."""
    if g.loc is not None and g.loc != s.loc:
        return None
    for cmp_expr in g.constraints:
        s = _apply_comparison(ctx, s, cmp_expr, sink)
        if s is None:
            return None
    return s


def leq_guard(ctx: DomainContext, s: AbstractLocalState, g: GuardElement) -> bool:
    """True when every concretisation of the letter matches the guard (a
    sound under-approximation of the inclusion).

    A comparison is entailed when meeting the letter with its negation
    gives bottom: the meet over-approximates, so no concretisation
    violates the comparison.  That refining by the comparison leaves the
    letter unchanged proves nothing: x in [0, 10] refined by x != 5 stays
    x in [0, 10]."""
    if g.loc is not None and g.loc != s.loc:
        return False
    return all(_apply_comparison(ctx, s, E.negate_comparison(c)) is None
               for c in g.constraints)


# ---------------------------------------------------------------------------
# relational rewrites over matched letter tuples
#
# Under the affine domain a rewrite works on one list of integer rows
# (as in the kernel above) over tagged columns: "0.x" is x of letter 0.
# The rows hold every matched letter's environment and point identifier
# and the identifier conditions; an update is _assign_column, the same
# Karr assignment as AffineEnv.assign_affine; _project_to_tag reads one
# letter's environment back.


def _letters_rows(letters) -> list:
    """The integer rows of each letter's environment over its tagged
    columns, and of its identifier when that is a point."""
    rows = []
    for i, letter in enumerate(letters):
        rows += [({f"{i}.{n}": k for n, k in coeffs.items()}, c)
                 for coeffs, c in letter.env.pivots.values()]
        if letter.pid.is_point:
            rows.append(_int_row({f"{i}.id": Fraction(1)}, letter.pid.lo))
    return rows


def _posvar_resolver(ctx, letters, sink):
    def resolve(pv: E.PosVar) -> Interval:
        letter = letters[pv.pos]
        if pv.name == "id":
            return letter.pid
        return eval_interval(ctx, letter, E.Var(pv.name), sink)
    return resolve


def _tagged(aff, tag) -> Optional[dict]:
    """The coefficients of an affine form (expr.to_affine) over tagged
    columns: PosVar(i, x) is "i.x" and Var(x) is "tag.x"; None when the
    form is None or has a Var and no tag."""
    if aff is None or (tag is None and any(isinstance(a, E.Var) for a in aff[0])):
        return None
    return {f"{a.pos if isinstance(a, E.PosVar) else tag}.{a.name}": k for a, k in aff[0].items()}


def _cond_rows(conds: tuple) -> list:
    """Integer rows of the id conditions (pos, rhs) over tagged columns;
    a right-hand side that is not affine over PosVar atoms gives no row
    (the interval side handles it)."""
    rows = []
    for pos, rhs in conds:
        aff = E.to_affine(rhs)
        coeffs = _tagged(aff, None)
        if coeffs is not None:
            coeffs[f"{pos}.id"] = coeffs.get(f"{pos}.id", Fraction(0)) - 1
            rows.append(_int_row(coeffs, -aff[1]))
    return rows


def joint_refine(ctx: DomainContext, letters: tuple, conds: tuple, sink=None):
    """Refine a tuple of matched letters under identifier conditions.

    Each condition requires letters[pos].id == rhs where rhs is an
    expression over PosVar atoms.  Returns the refined tuple or None when
    the conjunction is unsatisfiable.  Under the affine domain the
    refinement is relational across letters.
    """
    letters = list(letters)
    resolver = _posvar_resolver(ctx, letters, sink)
    for pos, rhs in conds:
        rng = eval_interval(ctx, letters[pos], rhs, sink, resolver=resolver).integral_tighten()
        if rng != letters[pos].pid:  # an equal range leaves the letter as it is
            letters[pos] = letters[pos].with_pid(letters[pos].pid.meet(rng))
            if letters[pos] is None:
                return None
    if ctx.kind == "affine" and conds:
        rows = _letters_rows(letters) + _cond_rows(conds)
        for i, letter in enumerate(letters):
            env = _project_to_tag(rows, str(i), letter.env.vars)
            if env is None:
                return None
            if env.too_big():  # keep the letter unrefined, which is sound
                if sink is not None:
                    sink.power(", ".join(f"@{pos}.id == {E.to_source(rhs)}" for pos, rhs in conds))
                continue
            letters[i] = letter.with_env(env)
            val = env.constant("id")
            if val is not None:
                pid = letter.pid.meet(Interval.point(val))
                if pid.is_bottom:
                    return None
                letters[i] = letters[i].with_pid(pid)
    return tuple(letters)


def relational_updates(ctx: DomainContext, target: AbstractLocalState, target_pos: int,
                       updates: tuple, letters: tuple, sink=None, conds: tuple = ()):
    """Apply env updates var := expr (PosVar atoms allowed) to target.

    Under the affine domain the updates go through a combined system over
    all matched letters, together with any identifier conditions, so
    cross-letter relations survive projection."""
    if not updates:
        return target
    letters = tuple(target if i == target_pos else l for i, l in enumerate(letters))
    if ctx.kind == "interval":
        resolver = _posvar_resolver(ctx, letters, sink)
        env = target.env
        for var, rhs in updates:
            rhs_self = E.at_position(rhs, target_pos)
            val = store_interval(ctx, var,
                                 eval_interval(ctx, target, rhs_self, sink, resolver=resolver))
            env = env.set(var, val)
            if env is None:
                return None
        return target.with_env(env)

    rows = _letters_rows(letters) + _cond_rows(conds)
    tag = str(target_pos)
    for var, rhs in updates:
        col = f"{tag}.{var}"
        aff = E.to_affine(rhs)
        coeffs = _tagged(aff, tag)
        if coeffs is not None and (not ctx.is_int(var) or guaranteed_integral(ctx, rhs)):
            rows = _assign_column(rows, col, (coeffs, aff[1]))
            continue
        rows = _assign_column(rows, col, None)
        val = eval_interval(ctx, target, E.at_position(rhs, target_pos), sink,
                            resolver=_posvar_resolver(ctx, letters, sink))
        if val.is_point:
            rows.append(_int_row({col: Fraction(1)}, store_interval(ctx, var, val).lo))
    env = _project_to_tag(rows, tag, target.env.vars)
    if env is None:
        return None
    if env.too_big():
        # past the size cap the updated variables are top, as in transfer_assign
        if sink is not None:
            sink.power(", ".join(f"{var} := {E.to_source(rhs)}" for var, rhs in updates))
        env = target.env
        for var, _ in updates:
            env = env.havoc(var)
    return target.with_env(env)
