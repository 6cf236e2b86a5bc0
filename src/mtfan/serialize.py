"""JSON documents for inputs and results.

All geometric numbers are emitted as exact integer/rational strings ("3",
"-1/2") so round-trips are bit-exact; structural counters (ids, dimensions
of faces/cones, vertex counts) stay plain JSON integers.
"""
from __future__ import annotations

from fractions import Fraction

from .errors import InputFormatError
from .quiver import build_algebra, build_module


def frac_str(x):
    return str(Fraction(x))


def parse_frac(s):
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputFormatError(f"not a rational number: {s!r}") from exc


def vec_strs(vec):
    return [frac_str(x) for x in vec]


def module_from_doc(doc):
    """Build (algebra, module) from an input document.

    Expected shape:
        {"p": int, "vertices": [...], "arrows": [{"name","from","to"}, ...],
         "relations": [[{"coeff": int, "path": [...]}, ...], ...],
         "module": {"dims": {vertex: int}, "maps": {arrow: [[int]]}}}
    """
    _check_doc(doc)
    algebra = build_algebra(doc)
    mod = doc["module"]
    dims = {str(k): v for k, v in mod["dims"].items()}
    maps = {str(k): v for k, v in mod.get("maps", {}).items()}
    return algebra, build_module(algebra, dims, maps)


def declared_total_dim(doc):
    """Sum of the dimensions an input document declares, read before any
    matrix is built."""
    _check_doc(doc)
    return sum(doc["module"]["dims"].values())


def _object(value, what, keys=()):
    if not isinstance(value, dict) or any(k not in value for k in keys):
        fields = ", ".join(f'"{k}"' for k in keys)
        raise InputFormatError(
            f"{what} must be an object" + (f" with {fields}" if keys else "")
        )
    return value


def _list(value, what):
    if not isinstance(value, list):
        raise InputFormatError(f"{what} must be a list, got {value!r}")
    return value


def _int(value, what):
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputFormatError(f"{what} must be an integer, got {value!r}")


def _label(value, what):
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InputFormatError(f"{what} must be a string or an integer, got {value!r}")


def _check_doc(doc):
    """Raise InputFormatError unless the document has the documented
    shape and field types (the algebra and module checks come later)."""
    _object(doc, "input document")
    for key in ("p", "vertices", "arrows", "module"):
        if key not in doc:
            raise InputFormatError(f"input document is missing {key!r}")
    for v in _list(doc["vertices"], '"vertices"'):
        _label(v, "a vertex label")
    for i, a in enumerate(_list(doc["arrows"], '"arrows"')):
        _object(a, f"arrow {i}", ("name", "from", "to"))
        for key in ("name", "from", "to"):
            _label(a[key], f'"{key}" of arrow {i}')
    for i, rel in enumerate(_list(doc.get("relations", []), '"relations"')):
        for term in _list(rel, f"relation {i}"):
            _object(term, f"a term of relation {i}", ("coeff", "path"))
            _int(term["coeff"], f"a coefficient of relation {i}")
            for name in _list(term["path"], f"a path of relation {i}"):
                _label(name, f"an arrow in relation {i}")
    mod = _object(doc["module"], '"module"', ("dims",))
    for v, d in _object(mod["dims"], '"dims"').items():
        _int(d, f"the dimension at vertex {v!r}")
    for name, rows in _object(mod.get("maps", {}), '"maps"').items():
        if rows is None:
            continue
        for row in _list(rows, f"the matrix of arrow {name!r}"):
            for x in _list(row, f"a row of the matrix of arrow {name!r}"):
                _int(x, f"an entry of the matrix of arrow {name!r}")


def algebra_doc(algebra):
    return {
        "p": algebra.p,
        "vertices": list(algebra.vertices),
        "arrows": [
            {
                "name": a.name,
                "from": algebra.vertices[a.source],
                "to": algebra.vertices[a.target],
            }
            for a in algebra.arrows
        ],
        "relations": [
            [
                {
                    "coeff": coeff,
                    "path": [algebra.arrows[i].name for i in path],
                }
                for coeff, path in rel
            ]
            for rel in algebra.relations
        ],
    }


def polytope_doc(polytope):
    return {
        "n": polytope.n,
        "vertices": [vec_strs(v) for v in polytope.vertices],
        "faces": [
            {
                "id": i,
                "dim": f.dim,
                "vertex_ids": list(f.vertex_ids),
                "children": list(polytope.face_children(i)),
            }
            for i, f in enumerate(polytope.faces)
        ],
    }


def cone_doc(cone, cid=None):
    doc = {
        "dim": cone.dim,
        "equalities": [vec_strs(v) for v in cone.eqs],
        "inequalities": [vec_strs(v) for v in cone.ineqs],
        "lineality": [vec_strs(v) for v in cone.lineality],
        "rays": [vec_strs(v) for v in cone.rays],
    }
    if cid is not None:
        doc = {"id": cid, **doc}
    return doc


def class_doc(data):
    """w = tbar/t, f = M/tbar and fbar = M/t by their dimension vectors."""
    t, tbar, m = data.t.dims, data.tbar.dims, data.t.module.dims
    return {
        "t": vec_strs(t),
        "tbar": vec_strs(tbar),
        "w": vec_strs(b - a for a, b in zip(t, tbar)),
        "f": vec_strs(x - b for x, b in zip(m, tbar)),
        "fbar": vec_strs(x - a for x, a in zip(m, t)),
        "supp": [vec_strs(d) for d in data.supp_dims],
    }


def fan_doc(mtf):
    """Fan document; a cone's "id" and "newton_face_id" are both its index,
    which is also the index of its Newton face."""
    return {
        "p": mtf.module.algebra.p,
        "n": mtf.n,
        "module_dims": vec_strs(mtf.module.dims),
        "newton": polytope_doc(mtf.newton),
        "cones": [
            {
                **cone_doc(mtf.cones[i], cid=i),
                "newton_face_id": i,
                "class": class_doc(data),
            }
            for i, data in enumerate(mtf.classes)
        ],
    }


def classify_doc(mtf, theta, idx):
    """Document for the functional theta located in cone idx of the fan."""
    return {
        "theta": vec_strs(theta),
        "cone": cone_doc(mtf.cones[idx], cid=idx),
        "newton_face_id": idx,
        "class": class_doc(mtf.classes[idx]),
    }


def paths_doc(catalog):
    return {
        "nodes": [
            {"cone_id": k, "vertex": vec_strs(v)}
            for k, v in enumerate(catalog.vertices)
        ],
        "edges": [list(e) for e in catalog.edges],
        "increasing_paths": [list(p) for p in catalog.increasing_paths],
        "maximal_paths": [list(p) for p in catalog.maximal_paths],
        "maximal_newton_paths": [
            [vec_strs(v) for v in catalog.newton_path(p)]
            for p in catalog.maximal_paths
        ],
    }


def report_doc(report):
    return {
        "checks": report.checks,
        "violations": list(report.failures),
        "ok": report.ok,
    }


def validation_doc(report):
    return {
        "face_closure_violations": list(report.face_closure_violations),
        "intersection_violations": list(report.intersection_violations),
        "completeness_violations": list(report.completeness_violations),
        "ok": report.ok,
    }
