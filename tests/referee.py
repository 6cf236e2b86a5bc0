"""Constructors and lattice operations that only the tests use.

Gauss-Jordan elimination over Q, in Fractions, and the nullspace read off
it are the referees for exact's fraction-free integer kernels.  Each cone
builds a canonical cone through the public double description
entry points, so a test can state a cone by its generators or rebuild it
from its document.  The rank test of a hull point, one row reduction per
point, is the referee for convex_hull's vertices by facet incidence.  The
meet of two submodules and the F_p subspace helpers it rests on serve as
referees for the submodule lattice, and so does a closure that sums
Submodule objects; the zero submodule is built here.  A containment test of
every pair of submodules is the referee for the oracle's order table, which
compares them one vertex at a time, and the calls a table makes are counted
through every alias.  The torsion scans that test
containment of every pair of submodules at each functional, and take the
largest member as a sum, are the referee for the scans of that table; the
scans over every row of the table (torsion_members_by_table,
semistable_above_by_table) are the referee for the oracle's scans of the
table's bit-mask rows.  A loop whose characteristic polynomial is
irreducible is a simple module of dimension 2, so on a sum of such loops a
member's total dimension is twice the length of its chains up from zero.
Testing each zero-valued submodule for semistability on its own lattice,
and splitting off one stable factor at a time and passing to the quotient,
are the referees for the semistable subobjects and stable factors that the
oracle reads off the order table, and theta on every member of a factor's
lattice (is_stable) checks that each factor is stable.  Equal t-sets, and
nested ones, are the definitions of M-TF equivalence and of the closure of
a class.  The oracle's pass on records (verify_fan_by_records: the
canonical sequences of each sample on one table per pass, t-sets as
frozensets of Submodules, keys of Submodules) is the referee for
verify_fan, which compares lattice indices and bit masks and classifies
each order type once; the record pass classifies every sample afresh.
The Newton points where a functional is largest, the scan of every
submodule for the largest value of a functional, and the chain walk that
rescans the t-set at every step, are the referees for the build's t-sets,
read off the Newton faces by facet masks, and its one-pass walk.  A
change of basis at every vertex, with its own F_p products, builds
isomorphic modules with different matrix entries, and the hypothesis
strategies at the end draw such pairs from the presets, their direct sums,
small Kronecker modules and loops, random maps on linear A_3, and wide fans
from square-lambda plus some of its simple modules (square_lambda_sum).
Keller's mutation of the framed quiver, on skew-symmetric integer matrices,
counts the maximal green sequences of a quiver with nothing of mtfan: the
referee for the maximal paths of the A_n g-fans.  A normal fan with two
maximal cones traded breaks the build on purpose.  The fan validator that certifies the meet
of each pair of cones by dot products of one cone's facet normals with the
other's rays (validate_by_pairs, certified_meet) is the referee for
validate_generalized_fan, which takes one sign per distinct normal and
distinct generator of the fan.
"""

import sys
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from mtfan.errors import InvariantError, ModuleDefinitionError
from mtfan.exact import as_theta, dot, number, primitive, rank, theta_str
from mtfan.oracle import REPS_PER_CONE, OracleReport, PointReport
from mtfan.fplinalg import projective_points, rref_fp
from mtfan.polyhedra import (
    COMPLETENESS_GRID_BOUND,
    FanValidationReport,
    _dd,
    cone_from_hrep,
    integer_grid,
    key_dim,
    locate_index,
    vrep,
)
from mtfan.presets import preset_module, preset_names
from mtfan.quiver import (
    Submodule,
    build_algebra,
    build_module,
    direct_sum,
    generated_submodule,
    simple_module,
    submodule_contains,
    submodule_sum,
    subquotient,
)
from mtfan.serialize import parse_frac
from mtfan.stability import (
    _classify,
    _lattice,
    _record,
    evaluate,
    filtration_key,
    is_semistable,
    t_set,
)
from mtfan.sublattice import enumerate_submodules


def rref_over_q(rows):
    """Reduced row echelon form over Q.

    Returns (rows, pivot_columns) with zero rows dropped; the result is the
    unique canonical basis of the row space.
    """
    work = [[Fraction(x) for x in r] for r in rows]
    ncols = len(work[0]) if work else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if pr is None:
            continue
        work[r], work[pr] = work[pr], work[r]
        pv = work[r][c]
        work[r] = [x / pv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


def nullspace_over_q(rows, n):
    """Basis of {x in Q^n : r.x = 0 for every row r}."""
    red, pivots = rref_over_q(rows)
    pivset = set(pivots)
    basis = []
    for f in range(n):
        if f in pivset:
            continue
        v = [Fraction(0)] * n
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return tuple(basis)


def cone_from_generators(n, rays=(), lineality=()):
    """Canonical cone spanned by ray generators plus a lineality span: the
    dual cone's lineality and rays are its equations and facets."""
    eqs, facets = vrep(n, lineality, rays)
    return cone_from_hrep(n, eqs, facets)


def hull_vertices_by_rank(points, n):
    """Vertices of the convex hull of a finite point set, by rank: a point
    is a vertex when the affine equations of the hull and the outer normals
    of the facets through it span R^n.  One row reduction per point."""
    pts = sorted({tuple(number(x) for x in pt) for pt in points})
    homog = [primitive((1,) + tuple(a - b for a, b in zip(v, pts[0])))
             for v in pts]
    dual_lin, dual_rays = _dd(homog, (), n + 1)
    eq_parts = [e[1:] for e in dual_lin]
    return tuple(
        pt for pt, h in zip(pts, homog)
        if rank(eq_parts + [r[1:] for r in dual_rays if dot(r, h) == 0]) == n
    )


def full_cone(n):
    return cone_from_hrep(n, (), ())


def cone_from_doc(doc, n):
    """Rebuild a canonical cone from its serialized H-representation."""
    eqs = [tuple(int(parse_frac(s)) for s in row) for row in doc["equalities"]]
    ineqs = [
        tuple(int(parse_frac(s)) for s in row) for row in doc["inequalities"]
    ]
    return cone_from_hrep(n, eqs, ineqs)


def intersect_spaces(a_rows, b_rows, ncols, p):
    """Basis of rowspace(a) intersect rowspace(b) by the Zassenhaus trick."""
    block = [tuple(r) + tuple(r) for r in a_rows]
    block += [tuple(r) + (0,) * ncols for r in b_rows]
    red = rref_fp(block, p)
    out = [row[ncols:] for row in red if not any(row[:ncols])]
    return rref_fp(out, p)


def submodule_zero(module):
    empty = tuple(() for _ in range(module.algebra.n))
    return Submodule(module, empty)


def submodule_full(module):
    bases = tuple(
        tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
        for d in module.dims
    )
    return Submodule(module, bases)


def quotient_module(module, sub):
    """Quotient of a module by a submodule."""
    return subquotient(module, sub, submodule_full(module))


def submodule_intersection(a, b):
    if a.module != b.module:
        raise ModuleDefinitionError("submodules of different modules")
    p = a.module.algebra.p
    # intersections of arrow-stable families are arrow-stable
    return Submodule(
        a.module,
        tuple(
            intersect_spaces(x, y, d, p)
            for x, y, d in zip(a.bases, b.bases, a.module.dims)
        ),
    )


def closure_by_sums(module):
    """Every submodule, sorted by Submodule.sort_key: {0} and the distinct
    cyclic submodules G of one vector per projective line, closed breadth
    first under submodule_sum with each member of G."""
    p = module.algebra.p
    found = {}
    zero = submodule_zero(module)
    found[zero.bases] = zero
    gens = {}
    for u, d in enumerate(module.dims):
        for vec in projective_points(d, p):
            g = generated_submodule(module, {u: [vec]})
            gens.setdefault(g.bases, g)
    found.update(gens)
    gens = tuple(gens.values())
    frontier = gens
    while frontier:
        fresh = []
        for a in frontier:
            for g in gens:
                s = submodule_sum(a, g)
                if s.bases not in found:
                    found[s.bases] = s
                    fresh.append(s)
        frontier = fresh
    return tuple(sorted(found.values(), key=Submodule.sort_key))


def order_by_pairs(module):
    """The oracle's order table by a containment test of every pair:
    below[i] holds the indices of the members strictly inside member i of
    enumerate_submodules(module), as a frozenset.  A submodule strictly
    inside L has a dimension vector at most L's in every coordinate and a
    smaller total, so only such pairs reach submodule_contains."""
    subs = enumerate_submodules(module)
    dims = [s.dims for s in subs]
    totals = [sum(d) for d in dims]

    def inside(i):
        return frozenset(
            j
            for j, inner in enumerate(subs)
            if totals[j] < totals[i]
            and all(a <= b for a, b in zip(dims[j], dims[i]))
            and submodule_contains(subs[i], inner)
        )

    return tuple(map(inside, range(len(subs))))


def count_calls(monkeypatch, *functions):
    """A Counter of the calls to the functions by name, through every alias
    of each in the package's modules, for the rest of the test."""
    calls = Counter()

    def counting(real):
        def wrapper(*args):
            calls[real.__name__] += 1
            return real(*args)

        return wrapper

    for real in functions:
        wrapper = counting(real)
        for name, mod in list(sys.modules.items()):
            if name == "mtfan" or name.startswith("mtfan."):
                for attr, value in list(vars(mod).items()):
                    if value is real:
                        monkeypatch.setattr(mod, attr, wrapper)
    return calls


def nonpositive_on(u, cone):
    """Whether u <= 0 on the cone: on its rays, and u = 0 on its lineality."""
    return all(dot(u, r) <= 0 for r in cone.rays) and all(
        dot(u, v) == 0 for v in cone.lineality
    )


def certified_meet(a, b):
    """Face key of a & b read off the two canonical cones alone, or None
    when no certificate applies.

    Nested cones: if a lies in b, the meet is a (and the other way round).
    Otherwise sum the facet normals of a that are <= 0 on b, minus the facet
    normals of b that are <= 0 on a.  The sum u is >= 0 on a and <= 0 on b,
    so a & b is the meet of the exposed faces F_a = a & u-perp and
    F_b = b & u-perp, whose keys keep the lineality and the rays on which
    u vanishes.  If one of them lies in the other cone, it is the meet.
    """
    if b.contains_cone(a):
        return a.key
    if a.contains_cone(b):
        return b.key
    sep = [u for u in a.ineqs if nonpositive_on(u, b)]
    sep += [tuple(-x for x in v) for v in b.ineqs if nonpositive_on(v, a)]
    if not sep:
        return None
    u = tuple(map(sum, zip(*sep)))
    face_a, face_b = a.exposed_key(u), b.exposed_key(u)
    if b.contains_key(face_a):
        return face_a
    if a.contains_key(face_b):
        return face_b
    return None


def validate_by_pairs(fan):
    """Check the generalized-fan axioms for a set of cones.

    Face closure: every face of every cone belongs to the set.  Pairwise:
    the intersection of two cones is a face of both.  Completeness: the
    points of the integer grid [-B, B]^n, B = COMPLETENESS_GRID_BOUND, are
    covered, and every facet of every full-dimensional cone is shared with
    exactly one other full-dimensional cone.

    Cones are compared by their canonical (lineality, rays), which determine
    a canonical cone; faces are read off each cone's own rays (face_keys),
    never off a polytope's face lattice.  The meet of two cones is decided
    from the two cones alone, by nested cones, a summed separating facet
    normal or nested exposed faces (certified_meet); only a pair that none
    of these settles takes a double description pass.
    """
    cones = tuple(fan.cones)
    n = fan.n
    fan_keys = {c.key for c in cones}
    face_keys = [c.face_keys for c in cones]
    face_violations = []
    for i, keys in enumerate(face_keys):
        for dim in sorted(key_dim(k) for k in keys if k not in fan_keys):
            face_violations.append(
                f"cone {i}: face of dim {dim} is missing from the fan"
            )
    inter_violations = []
    for i, a in enumerate(cones):
        for j in range(i + 1, len(cones)):
            b = cones[j]
            meet = certified_meet(a, b)
            if meet is None:
                meet = vrep(n, a.eqs + b.eqs, a.ineqs + b.ineqs)
            if meet not in face_keys[i] or meet not in face_keys[j]:
                inter_violations.append(
                    f"cones {i} and {j}: intersection of dim "
                    f"{key_dim(meet)} is not a common face"
                )
    comp_violations = []
    maximal = [i for i, c in enumerate(cones) if c.dim == n]
    if not maximal:
        comp_violations.append("no full-dimensional cone")
    for pt in integer_grid(n, COMPLETENESS_GRID_BOUND):
        if not any(c.contains(pt) for c in cones):
            comp_violations.append(f"point {pt} is not covered")
    for i in maximal:
        c = cones[i]
        for a in c.ineqs:
            facet = c.exposed_key(a)
            owners = [j for j in maximal if j != i and facet in face_keys[j]]
            if len(owners) != 1:
                comp_violations.append(
                    f"cone {i}: facet shared with {len(owners)} "
                    "other maximal cones instead of 1"
                )
    return FanValidationReport(
        tuple(face_violations), tuple(inter_violations), tuple(comp_violations)
    )


def torsion_members(subs, vals, strict):
    """Submodules L with theta(L') < theta(L) (or <=) for all L' < L, by a
    containment test of every pair."""
    members = set()
    items = list(zip(subs, vals))
    for L, vL in items:
        ok = True
        for L2, v2 in items:
            if L2 == L or not submodule_contains(L, L2):
                continue
            if (v2 >= vL) if strict else (v2 > vL):
                ok = False
                break
        if ok:
            members.add(L)
    return members


def torsion_members_by_table(below, vals, strict):
    """Indices i with theta(L') < theta(L_i) (or <=) for all L' < L_i."""
    if strict:
        return {i for i, v in enumerate(vals) if all(vals[j] < v for j in below[i])}
    return {i for i, v in enumerate(vals) if all(vals[j] <= v for j in below[i])}


def semistable_above_by_table(below, vals, i):
    """Indices j of the members L_j containing L_i with L_j/L_i semistable:
    theta(L_j) = theta(L_i), and theta is at most theta(L_i) on every member
    between them (the submodules of L_j/L_i)."""
    v = vals[i]
    return {
        j
        for j in range(len(vals))
        if (j == i or i in below[j])
        and vals[j] == v
        and all(vals[x] <= v for x in below[j] if x == i or i in below[x])
    }


def largest_member(members):
    """The sum of the members, which must be one of them."""
    total = None
    for s in members:
        total = s if total is None else submodule_sum(total, s)
    if total not in members:
        raise AssertionError("the sum of the members is not a member")
    return total


def torsion_filtration(theta, module):
    """(t, tbar) at an as_theta functional: the largest torsion and
    weak-torsion submodules, from the definitions at this functional."""
    subs = enumerate_submodules(module)
    vals = [evaluate(theta, s) for s in subs]
    return tuple(
        largest_member(torsion_members(subs, vals, strict))
        for strict in (True, False)
    )


def definition_t_set(theta, module):
    """Submodules L with t <= L and L/t semistable at an as_theta
    functional."""
    t, _ = torsion_filtration(theta, module)
    return frozenset(
        L
        for L in enumerate_submodules(module)
        if submodule_contains(L, t) and is_semistable(theta, subquotient(module, t, L))
    )


def is_m_tf_equivalent(theta, eta, module):
    """Whether two functionals cut the same t-set on the module."""
    return t_set(theta, module) == t_set(eta, module)


def in_class_closure(theta, eta, module):
    """Whether theta lies in the closure of eta's equivalence class."""
    return t_set(eta, module) <= t_set(theta, module)


def verify_point_by_records(mtf, theta, table=None):
    """verify_point on records: canonical_sequences at theta, on a table
    that a pass keeps, compared with the located cone's class data by
    Submodule, and the t-set check a scan of the fan's lattice against a
    frozenset of Submodules."""
    module = mtf.module
    theta = as_theta(theta, mtf.n)
    idx = locate_index(mtf.newton, mtf.fan, theta)
    data = mtf.classes[idx]
    fails = []
    table = {} if table is None else table
    lattice = _lattice(module, table, mtf.lattice)
    try:
        cs = _record(lattice, _classify(theta, lattice, table), table)
    except InvariantError as exc:
        return PointReport(theta, idx, (f"definition route broke: {exc}",), None)
    if cs.t != data.t or cs.tbar != data.tbar:
        fails.append("canonical filtration differs from the cone's")
    if cs.supp != data.supp_dims:
        fails.append(f"support {cs.supp} != cone support {data.supp_dims}")
    maxval = max(cs.vals)
    for L, v in zip(mtf.lattice, cs.vals):
        if (v == maxval) != (L in cs.t_set):
            fails.append(f"t-set mismatch at submodule of class {L.dims}")
            break
    face = mtf.newton.faces[idx]
    vecs = [mtf.newton.vertices[v] for v in face.vertex_ids]
    if tuple(cs.t.dims) != tuple(map(min, zip(*vecs))) or tuple(
        cs.tbar.dims
    ) != tuple(map(max, zip(*vecs))):
        fails.append("t/tbar are not the min/max of the located face")
    if not module.is_zero():
        on_wall = cs.vals[-1] == 0 and maxval <= 0
        if on_wall != mtf.wall.contains(theta):
            fails.append("wall membership disagrees with the wall cone")
    return PointReport(theta, idx, tuple(fails), cs)


def verify_fan_by_records(mtf, samples, points=None):
    """verify_fan on records: one verify_point_by_records call per sample,
    all on one table, and pair checks on frozensets of Submodules and on
    filtration keys of Submodules and semistable subobjects.  Each sample's
    PointReport is appended to points when it is a list."""
    failures = []
    checks = 0
    by_cone = {}
    table = {}
    for theta in samples:
        rep = verify_point_by_records(mtf, theta, table)
        if points is not None:
            points.append(rep)
        checks += 1
        failures.extend(f"theta {theta_str(rep.theta)}: {m}" for m in rep.failures)
        kept = by_cone.setdefault(rep.cone_index, [])
        if rep.canonical is not None and len(kept) < REPS_PER_CONE:
            cs = rep.canonical
            kept.append((rep.theta, cs.t_set, filtration_key(cs)))
    missing = sorted(set(range(len(mtf.cones))) - set(by_cone))
    if missing:
        failures.append(f"cones never sampled: {missing}")
    reps = sorted(by_cone.items())
    for i, ts in reps:
        for j, us in reps:
            if j < i:
                continue
            face_rel = mtf.cones[i].is_face_of(mtf.cones[j])
            face_back = mtf.cones[j].is_face_of(mtf.cones[i])
            for a, a_set, a_key in ts:
                for b, b_set, b_key in us:
                    if a == b:
                        continue
                    checks += 1
                    a_str, b_str = theta_str(a), theta_str(b)
                    eq = a_set == b_set
                    if eq != (a_key == b_key):
                        failures.append(
                            f"equivalence routes disagree at {a_str} vs {b_str}"
                        )
                    if eq != (i == j):
                        failures.append(
                            f"equivalence({a_str}, {b_str}) = {eq}, located "
                            f"cones {'agree' if i == j else 'differ'}"
                        )
                    closure = b_set <= a_set
                    if closure != face_rel:
                        failures.append(
                            f"closure({a_str}, {b_str}) = {closure} but face "
                            f"relation is {face_rel}"
                        )
                    closure = a_set <= b_set
                    if i < j and closure != face_back:
                        failures.append(
                            f"closure({b_str}, {a_str}) = {closure} but face "
                            f"relation is {face_back}"
                        )
    return OracleReport(checks, tuple(failures))


def semistable_subobjects_by_submodules(theta, module):
    """The nonzero submodules of the module that are theta-semistable as
    modules, as indices into enumerate_submodules(module): each zero-valued
    one is presented as a module and tested on its own lattice."""
    theta = as_theta(theta, module.algebra.n)
    zero = submodule_zero(module)
    return frozenset(
        i
        for i, s in enumerate(enumerate_submodules(module))
        if s.total_dim
        and evaluate(theta, s) == 0
        and is_semistable(theta, subquotient(module, zero, s))
    )


def is_stable(theta, module):
    """Semistable with theta(L) < 0 for every proper nonzero submodule L:
    theta on every member of the module's lattice."""
    if module.is_zero():
        raise ModuleDefinitionError("stability is undefined for the zero module")
    theta = as_theta(theta, module.algebra.n)
    vals = [evaluate(theta, s) for s in enumerate_submodules(module)]
    return vals[-1] == 0 and all(v < 0 for v in vals[1:-1])


def supp_factors_by_quotients(theta, module):
    """Stable factors of a theta-semistable module as (module, dims) pairs:
    split off a minimal nonzero semistable submodule (the least by
    Submodule.sort_key, minimal by submodule_contains), which is stable,
    pass to the quotient and repeat."""
    factors = []
    current = module
    while not current.is_zero():
        subs = enumerate_submodules(current)
        semis = [subs[i] for i in semistable_subobjects_by_submodules(theta, current)]
        minimal = [
            s
            for s in semis
            if not any(o != s and submodule_contains(s, o) for o in semis)
        ]
        chosen = min(minimal, key=Submodule.sort_key)
        factor = subquotient(current, submodule_zero(current), chosen)
        if not is_stable(theta, factor):
            raise AssertionError("a minimal semistable factor is not stable")
        factors.append((factor, factor.dims))
        current = quotient_module(current, chosen)
    return tuple(factors)


def top_points(points, theta):
    """The points (distinct submodule dimension vectors) on which theta is
    largest."""
    vals = [sum(a * b for a, b in zip(theta, x)) for x in points]
    top = max(vals)
    return frozenset(x for x, v in zip(points, vals) if v == top)


def t_set_by_scan(subs, theta):
    """The submodules on which theta is largest, in lattice order, by
    evaluating theta on every submodule."""
    theta = primitive(theta)
    vals = [sum(a * b for a, b in zip(theta, s.dims)) for s in subs]
    top = max(vals)
    return tuple(s for s, v in zip(subs, vals) if v == top)


def class_data_by_rescans(members):
    """(t, tbar, supp_dims) of a t-set: t and tbar are its members of least
    and greatest total dimension, and each step of the chain from t to tbar
    rescans the whole t-set for the smallest member strictly above."""
    t = min(members, key=lambda s: s.total_dim)
    tbar = max(members, key=lambda s: s.total_dim)
    steps = []
    cur = t
    while cur != tbar:
        nxt = min(
            (
                s
                for s in members
                if s.total_dim > cur.total_dim and submodule_contains(s, cur)
            ),
            key=lambda s: s.total_dim,
        )
        steps.append(tuple(a - b for a, b in zip(nxt.dims, cur.dims)))
        cur = nxt
    return t, tbar, tuple(sorted(steps))


def swap_two_maximal_cones(normal_fan):
    """normal_fan with its first two maximal cones traded: a broken build
    whose cones pass the face and dimension checks, and whose first
    witness is largest on the other cone's face."""

    def swapped(P):
        fan = normal_fan(P)
        cones = list(fan.cones)
        i, j = [k for k, c in enumerate(cones) if c.dim == fan.n][:2]
        cones[i], cones[j] = cones[j], cones[i]
        return fan._replace(cones=tuple(cones))

    return swapped


def inverse_fp(mat, p):
    """Inverse of a square matrix over F_p by Gauss-Jordan, or None when it
    is singular."""
    d = len(mat)
    identity = tuple(tuple(int(i == j) for j in range(d)) for i in range(d))
    rows = rref_fp([tuple(row) + e for row, e in zip(mat, identity)], p)
    if tuple(row[:d] for row in rows) != identity:
        return None
    return tuple(row[d:] for row in rows)


def product_fp(a, b, p):
    """a @ b over F_p, b's columns read off its rows, so b = () counts as
    0 x 0.  Test inputs do their own products, so they do not rest on the
    kernels under test."""
    return tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in zip(*b))
        for row in a
    )


def change_of_basis(module, change):
    """The isomorphic module whose arrow a: u -> v carries g_v A_a g_u^-1,
    for an invertible matrix g_u at each vertex u (change[u])."""
    p = module.algebra.p
    maps = [
        product_fp(
            product_fp(change[arrow.target], mat, p),
            inverse_fp(change[arrow.source], p),
            p,
        )
        for arrow, mat in zip(module.algebra.arrows, module.maps)
    ]
    return build_module(module.algebra, module.dims, maps)


def loop_module(p, matrix):
    """One vertex with a loop acting on F_p^2 by the matrix."""
    A = build_algebra(
        {"p": p, "vertices": ["1"], "arrows": [{"name": "a", "from": "1", "to": "1"}]}
    )
    return build_module(A, (2,), {"a": matrix})


# x^2 + x + 1 at p = 2 and x^2 + 1 at p = 3: simple modules of dimension 2
IRREDUCIBLE_LOOPS = (
    loop_module(2, [[0, 1], [1, 1]]),
    loop_module(3, [[0, 2], [1, 0]]),
)


def kronecker_module(p, dims, a, b):
    """The Kronecker quiver 1 => 2 with maps a and b (dims[1] x dims[0])."""
    A = build_algebra(
        {
            "p": p,
            "vertices": ["1", "2"],
            "arrows": [
                {"name": "a", "from": "1", "to": "2"},
                {"name": "b", "from": "1", "to": "2"},
            ],
        }
    )
    return build_module(A, dims, {"a": a, "b": b})


def kronecker_r(k, p=2):
    """R_k: the Kronecker module 1 => 2 with dims (k, k), a = I_k and
    b = J_k(0), the nilpotent Jordan block (ones just above the diagonal)."""
    a = [[int(i == j) for j in range(k)] for i in range(k)]
    b = [[int(j == i + 1) for j in range(k)] for i in range(k)]
    return kronecker_module(p, (k, k), a, b)


def kronecker_p(k, p=2):
    """P_k: the preprojective Kronecker module with dims (k, k + 1),
    a = [I; 0] and b = [0; I]."""
    a = [[int(i == j) for j in range(k)] for i in range(k + 1)]
    b = [[int(i == j + 1) for j in range(k)] for i in range(k + 1)]
    return kronecker_module(p, (k, k + 1), a, b)


def kronecker_i(k, p=2):
    """I_k: the preinjective Kronecker module with dims (k + 1, k),
    a = [I | 0] and b = [0 | I]."""
    a = [[int(i == j) for j in range(k + 1)] for i in range(k)]
    b = [[int(j == i + 1) for j in range(k + 1)] for i in range(k)]
    return kronecker_module(p, (k + 1, k), a, b)


def kronecker_pi(k, p=2):
    """P_0 + ... + P_k + I_0 + ... + I_k, summed in that order."""
    parts = [kronecker_p(j, p) for j in range(k + 1)]
    parts += [kronecker_i(j, p) for j in range(k + 1)]
    total = parts[0]
    for part in parts[1:]:
        total = direct_sum(total, part)
    return total


def cube_module(n, p=2):
    """The n-cube: a line at each vertex 0, ..., n-1 of the arrowless
    algebra, so the submodules are the 2^n sets of vertices and the Newton
    polytope is the n-cube."""
    A = build_algebra({"p": p, "vertices": [str(v) for v in range(n)], "arrows": []})
    return build_module(A, (1,) * n, [])


def a_n_algebra(n, p=2, orientation=None):
    """The quiver on 1, 2, ..., n with arrows named a, b, ... in order, and
    no relations.  orientation holds one character per arrow, ">" for
    u -> u + 1 and "<" for u + 1 -> u; it is linear (1 -> 2 -> ... -> n)
    by default."""
    orientation = orientation or ">" * (n - 1)
    return build_algebra(
        {
            "p": p,
            "vertices": [str(v + 1) for v in range(n)],
            "arrows": [
                {
                    "name": chr(ord("a") + u),
                    "from": str(u + 1 + (way == "<")),
                    "to": str(u + 1 + (way == ">")),
                }
                for u, way in enumerate(orientation)
            ],
        }
    )


def a_n_all(n, p=2, orientation=None):
    """A_n-all: the sum of the n(n+1)/2 interval modules [i, j] over
    a_n_algebra(n, p, orientation): by last vertex j, and for one j from
    the shortest interval up."""
    A = a_n_algebra(n, p, orientation)
    total = None
    for j in range(n):
        for i in range(j, -1, -1):
            dims = [int(i <= v <= j) for v in range(n)]
            interval = build_module(
                A, dims, [[[1]] if i <= u < j else None for u in range(n - 1)]
            )
            total = interval if total is None else direct_sum(total, interval)
    return total


def square_lambda_sum(copies=1, simples=()):
    """copies of square-lambda plus the simple modules S_i over its algebra
    for i in simples, summed in that order."""
    sq = preset_module("square-lambda")
    parts = [sq] * copies + [simple_module(sq.algebra, i) for i in simples]
    total = parts[0]
    for part in parts[1:]:
        total = direct_sum(total, part)
    return total


def _mutate(b, k):
    """Fomin-Zelevinsky mutation of the skew-symmetric matrix b at k: the
    arrows at k turn round, and each path i -> k -> j adds an arrow i -> j,
    cancelling against arrows j -> i."""
    size = range(len(b))
    return [
        [
            -b[i][j]
            if k in (i, j)
            else b[i][j] + (abs(b[i][k]) * b[k][j] + b[i][k] * abs(b[k][j])) // 2
            for j in size
        ]
        for i in size
    ]


def maximal_green_sequences(n, arrows):
    """The maximal green sequences of the quiver on 0, ..., n - 1 with the
    given arrows (u, v), u -> v, counted by length (Keller, arXiv:1102.4148).

    Frame the quiver: a frozen vertex n + i and an arrow i -> n + i for each
    i.  A mutable vertex is green while no arrow runs into it from a frozen
    vertex, and red otherwise.  A maximal green sequence mutates at green
    vertices only, until every mutable vertex is red.  b[i][j] counts the
    arrows i -> j minus the arrows j -> i."""
    b = [[0] * (2 * n) for _ in range(2 * n)]
    for u, v in list(arrows) + [(i, n + i) for i in range(n)]:
        b[u][v] += 1
        b[v][u] -= 1
    lengths = Counter()

    def walk(b, length):
        green = [k for k in range(n) if min(b[k][n:]) >= 0]
        if not green:
            lengths[length] += 1
        for k in green:
            walk(_mutate(b, k), length + 1)

    walk(b, 0)
    return dict(lengths)


@st.composite
def invertible_matrix(draw, d, p):
    """P L U: a permutation, a unit lower triangular and an upper triangular
    matrix with a nonzero diagonal; every invertible matrix has this form."""
    entry = st.integers(0, p - 1)
    perm = draw(st.permutations(range(d)))
    lower = [[int(i == j) for j in range(d)] for i in range(d)]
    upper = [[0] * d for _ in range(d)]
    for i in range(d):
        upper[i][i] = draw(st.integers(1, p - 1))
        for j in range(i):
            lower[i][j] = draw(entry)
            upper[j][i] = draw(entry)
    lu = [
        [sum(lower[i][k] * upper[k][j] for k in range(d)) % p for j in range(d)]
        for i in range(d)
    ]
    return [lu[perm[i]] for i in range(d)]


@st.composite
def preset_direct_sum(draw):
    """A preset plus up to two summands, each a preset or a simple module
    over its algebra, total dimension at most 8."""
    module = preset_module(draw(st.sampled_from(preset_names())))
    same_algebra = [
        preset_module(n)
        for n in preset_names()
        if preset_module(n).algebra == module.algebra
    ] + [simple_module(module.algebra, i) for i in range(1, module.algebra.n + 1)]
    for _ in range(draw(st.integers(0, 2))):
        part = draw(st.sampled_from(same_algebra))
        if module.total_dim + part.total_dim <= 8:
            module = direct_sum(module, part)
    return module


def square_lambda_and_simples():
    """square-lambda plus a nonempty set of its simple modules S1-S4: the
    wide fans, 61 to 147 cones, that preset_direct_sum seldom draws."""
    return st.sets(st.integers(1, 4), min_size=1).map(
        lambda simples: square_lambda_sum(1, sorted(simples))
    )


@st.composite
def random_kronecker_module(draw, p=None, max_dim=3):
    """Random maps a and b of the Kronecker quiver over F_p, p = 2 or 3
    unless given, with dims at most max_dim at each vertex."""
    if p is None:
        p = draw(st.sampled_from([2, 3]))
    d1, d2 = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    a, b = (
        [[draw(st.integers(0, p - 1)) for _ in range(d1)] for _ in range(d2)]
        for _ in range(2)
    )
    return kronecker_module(p, (d1, d2), a, b)


@st.composite
def random_linear_a3_module(draw, p=None, max_dim=2):
    """Random maps a: 1 -> 2 and b: 2 -> 3 of linear A_3 over F_p, p = 2 or
    3 unless given, with dims at most max_dim at each vertex.  A_3 has no
    relations, so every pair of maps is a module."""
    if p is None:
        p = draw(st.sampled_from([2, 3]))
    dims = [draw(st.integers(0, max_dim)) for _ in range(3)]
    entry = st.integers(0, p - 1)
    maps = [
        [[draw(entry) for _ in range(dims[u])] for _ in range(dims[u + 1])]
        for u in range(2)
    ]
    return build_module(a_n_algebra(3, p), dims, maps)


@st.composite
def random_loop_module(draw):
    """A loop on F_p^2: with an irreducible characteristic polynomial the
    module is a simple of dimension 2."""
    p = draw(st.sampled_from([2, 3]))
    entry = st.integers(0, p - 1)
    return loop_module(p, [[draw(entry), draw(entry)], [draw(entry), draw(entry)]])


def any_module():
    """A preset, a direct sum of presets, a Kronecker module or a loop."""
    return st.one_of(
        st.sampled_from(preset_names()).map(preset_module),
        preset_direct_sum(),
        random_kronecker_module(),
        random_loop_module(),
    )


@st.composite
def module_and_change_of_basis(draw, modules=None):
    """A module (by default a direct sum of presets or a Kronecker module)
    and the same module after a random change of basis at every vertex."""
    if modules is None:
        modules = st.one_of(preset_direct_sum(), random_kronecker_module())
    module = draw(modules)
    p = module.algebra.p
    change = [draw(invertible_matrix(d, p)) for d in module.dims]
    return module, change_of_basis(module, change)
