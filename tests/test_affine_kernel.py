"""The integer affine kernel against the rational one it replaced.

The reference below eliminates over Fractions, one full reduction per
step, as latreach did before its kernel went fraction-free.  Under the
sorted column order the reduced row echelon form is unique, so on every
seeded random system the two must agree exactly: same rows, same None,
same answers to every query.  The systems mix denominators and include
duplicate, inconsistent and empty rows, and operand pairs included in
each other in both directions.
"""
import random
from fractions import Fraction as F

from latreach.domain import AffineEnv, _int_row, _project_to_tag, _rref

# ---------------------------------------------------------------------------
# reference: Karr's domain over exact rationals


def ref_rref(rows):
    work = [({n: F(k) for n, k in coeffs.items() if k != 0}, F(c)) for coeffs, c in rows]
    pivots = []
    for coeffs, c in work:
        coeffs = dict(coeffs)
        for name, (prow, pc) in pivots:
            k = coeffs.get(name)
            if k:
                for n2, k2 in prow.items():
                    coeffs[n2] = coeffs.get(n2, F(0)) - k * k2
                    if coeffs[n2] == 0:
                        del coeffs[n2]
                c = c - k * pc
        if not coeffs:
            if c != 0:
                return None
            continue
        pivot = sorted(coeffs)[0]
        inv = 1 / coeffs[pivot]
        coeffs = {n: k * inv for n, k in coeffs.items()}
        c = c * inv
        new_pivots = []
        for name, (prow, pc) in pivots:
            k = prow.get(pivot)
            if k:
                prow = dict(prow)
                for n2, k2 in coeffs.items():
                    prow[n2] = prow.get(n2, F(0)) - k * k2
                    if prow[n2] == 0:
                        del prow[n2]
                pc = pc - k * c
            new_pivots.append((name, (prow, pc)))
        pivots = new_pivots
        pivots.append((pivot, (coeffs, c)))
    pivots.sort(key=lambda item: item[0])
    return [(row, c) for _, (row, c) in pivots]


def as_fractions(form):
    """An integer form as the reference's rows: each divided by its pivot."""
    if form is None:
        return None
    return [({n: F(k, coeffs[p]) for n, k in coeffs.items()}, F(c, coeffs[p]))
            for p, (coeffs, c) in form.items()]


def ref_env(vars_, dict_rows):
    reduced = ref_rref(dict_rows)
    if reduced is None:
        return None
    return AffineEnv(tuple(vars_), tuple(
        (tuple(coeffs.get(v, F(0)) for v in vars_), c) for coeffs, c in reduced))


def ref_entails(env, coeffs, const):
    reduced = ref_rref(env.dict_rows() + [(coeffs, const)])
    return reduced is not None and len(reduced) == len(env.rows)


def ref_value_of(env, coeffs):
    work = dict(coeffs)
    c = F(0)
    for row, rc in env.dict_rows():
        k = work.get(sorted(row)[0])
        if k:
            for n2, k2 in row.items():
                work[n2] = work.get(n2, F(0)) - k * k2
                if work[n2] == 0:
                    del work[n2]
            c -= k * rc
    return None if work else -c


def ref_leq(a, b):
    return all(ref_entails(a, coeffs, c) for coeffs, c in b.dict_rows())


def ref_generators(env):
    rows = env.dict_rows()
    pivots = {sorted(coeffs)[0] for coeffs, _ in rows}
    point = {v: F(0) for v in env.vars}
    for coeffs, c in rows:
        point[sorted(coeffs)[0]] = c
    basis = []
    for f in env.vars:
        if f in pivots:
            continue
        vec = {v: F(0) for v in env.vars}
        vec[f] = F(1)
        for coeffs, _ in rows:
            vec[sorted(coeffs)[0]] = -coeffs.get(f, F(0))
        basis.append(vec)
    return point, basis


def ref_join(a, b):
    p1, b1 = ref_generators(a)
    p2, b2 = ref_generators(b)
    span = b1 + b2 + [{v: p2[v] - p1[v] for v in a.vars}]
    reduced = ref_rref([({v: k for v, k in vec.items() if k}, F(0)) for vec in span])
    pivots = {sorted(coeffs)[0] for coeffs, _ in reduced}
    out = []
    for f in a.vars:
        if f in pivots:
            continue
        row = {v: F(0) for v in a.vars}
        row[f] = F(1)
        for coeffs, _ in reduced:
            row[sorted(coeffs)[0]] = -coeffs.get(f, F(0))
        out.append(({v: k for v, k in row.items() if k}, sum(row[v] * p1[v] for v in a.vars)))
    return ref_env(a.vars, out)


def ref_project(rows, names):
    """Eliminate the columns one at a time, each after a full reduction."""
    for name in names:
        rows = ref_rref(rows)
        if rows is None:
            return None
        out, eliminator = [], None
        for coeffs, c in rows:
            if not coeffs.get(name):
                out.append((coeffs, c))
            elif eliminator is None:
                eliminator = (coeffs, c)
            else:
                k = coeffs[name] / eliminator[0][name]
                merged = dict(coeffs)
                for n2, k2 in eliminator[0].items():
                    merged[n2] = merged.get(n2, F(0)) - k * k2
                out.append(({n: v for n, v in merged.items() if v}, c - k * eliminator[1]))
        rows = out
    return ref_rref(rows)


def ref_assign(env, name, coeffs, const):
    tmp = "\x00tmp"
    row = dict(coeffs)
    row[tmp] = F(-1)
    rows = ref_project(env.dict_rows() + [(row, -const)], [name])
    rows = [({(name if n == tmp else n): k for n, k in r.items()}, c) for r, c in rows]
    return ref_env(env.vars, rows)


def ref_project_to_tag(rows, tag, vars_):
    prefix = f"{tag}."
    foreign = sorted({n for coeffs, _ in rows for n in coeffs if not n.startswith(prefix)})
    rows = ref_project(rows, foreign)
    if rows is None:
        return None
    return ref_env(vars_, [({n[len(prefix):]: k for n, k in r.items()}, c) for r, c in rows])


# ---------------------------------------------------------------------------
# seeded random systems

NAMES = ("a", "b", "id", "x", "y")
DENS = (1, 1, 2, 3, 6)


def rand_q(rng, lo=-4, hi=4):
    return F(rng.randint(lo, hi), rng.choice(DENS))


def rand_row(rng, vars_):
    coeffs = {v: rand_q(rng) for v in rng.sample(vars_, rng.randint(1, min(3, len(vars_))))}
    return coeffs, rand_q(rng, -9, 9)


def rand_rows(rng, vars_):
    rows = [rand_row(rng, vars_) for _ in range(rng.randint(0, 3))]
    kind = rng.random()
    if rows and kind < 0.2:  # a duplicate, scaled
        coeffs, c = rng.choice(rows)
        k = rand_q(rng, 1, 5)
        rows.append(({n: k * v for n, v in coeffs.items()}, k * c))
    elif rows and kind < 0.3:  # an inconsistent copy
        coeffs, c = rng.choice(rows)
        rows.append((dict(coeffs), c + 1))
    elif kind < 0.4:  # an empty row, true or false
        rows.append(({}, F(rng.choice((0, 0, 1)))))
    rng.shuffle(rows)
    return rows


def rand_vars(rng):
    vars_ = rng.sample(NAMES, rng.randint(2, len(NAMES)))
    if rng.random() < 0.7:
        vars_.sort()
    return tuple(vars_)


def operands(rng, vars_):
    """Two consistent environments; often one includes the other."""
    while True:
        a_rows = rand_rows(rng, vars_)
        a = ref_env(vars_, a_rows)
        if a is not None:
            break
    kind = rng.random()
    if kind < 0.25:
        b_rows = a.dict_rows() + [rand_row(rng, vars_)]  # b within a, or empty
    elif kind < 0.35:
        b_rows = a.dict_rows()
    else:
        b_rows = rand_rows(rng, vars_)
    b = ref_env(vars_, b_rows)
    if b is None:
        b = ref_env(vars_, [])
    if rng.random() < 0.5:
        a, b = b, a
    return a, b


def fresh(rng, env):
    """The same environment, built either by the kernel (its pivot form
    cached at construction) or from the reference rows (derived lazily)."""
    if env.rows and rng.random() < 0.5:
        return AffineEnv.from_rows(env.vars, env.dict_rows())
    return AffineEnv(env.vars, env.rows)


def test_rref_and_from_rows_match_rational_reference():
    rng = random.Random(8)
    for _ in range(2500):
        vars_ = rand_vars(rng)
        rows = rand_rows(rng, vars_)
        form = _rref([_int_row(coeffs, F(c)) for coeffs, c in rows])
        assert as_fractions(form) == ref_rref(rows), rows
        assert AffineEnv.from_rows(vars_, rows) == ref_env(vars_, rows), rows


def test_lattice_and_queries_match_rational_reference():
    rng = random.Random(9)
    included = 0
    for _ in range(2000):
        vars_ = rand_vars(rng)
        ra, rb = operands(rng, vars_)
        a, b = fresh(rng, ra), fresh(rng, rb)
        ctx = (ra, rb)
        assert a.leq(b) == ref_leq(ra, rb), ctx
        assert b.leq(a) == ref_leq(rb, ra), ctx
        included += a.leq(b) or b.leq(a)
        assert a.join(b) == ref_join(ra, rb), ctx
        assert a.meet(b) == ref_env(vars_, ra.dict_rows() + rb.dict_rows()), ctx
        coeffs, const = rand_row(rng, vars_)
        assert a.entails(coeffs, const) == ref_entails(ra, coeffs, const), ctx
        # callers drop zero coefficients; the reference reads one as a free term
        coeffs = {n: k for n, k in coeffs.items() if k}
        assert a.value_of(coeffs) == ref_value_of(ra, coeffs), ctx
        for c in ra.dict_rows():
            assert a.entails(*c) and a.value_of(c[0]) == c[1]
        name = rng.choice(vars_)
        assert a.project_out(name) == ref_env(vars_, ref_project(ra.dict_rows(), [name])), ctx
        coeffs, const = rand_row(rng, vars_)
        assert a.assign_affine(name, coeffs, const) == ref_assign(ra, name, coeffs, const), ctx
    assert included > 600  # both directions of the inclusion fast path are exercised


def test_project_to_tag_matches_rational_reference():
    rng = random.Random(10)
    for _ in range(2000):
        vars_ = rand_vars(rng)
        ra, rb = operands(rng, vars_)
        rows, ref_rows = [], []
        for tag, env in (("0", ra), ("1", rb)):
            rows += [({f"{tag}.{n}": k for n, k in coeffs.items()}, c)
                     for coeffs, c in fresh(rng, env).pivots.values()]
            ref_rows += [({f"{tag}.{n}": k for n, k in coeffs.items()}, c)
                         for coeffs, c in env.dict_rows()]
        for _ in range(rng.randint(0, 2)):  # rows across the two letters
            coeffs, c = rand_row(rng, [f"{t}.{v}" for t in "01" for v in vars_])
            rows.append(_int_row(coeffs, F(c)))
            ref_rows.append((coeffs, c))
        for tag in "01":
            assert _project_to_tag(rows, tag, vars_) == ref_project_to_tag(ref_rows, tag, vars_)
