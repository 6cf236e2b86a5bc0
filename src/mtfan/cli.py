"""Command line interface.

Subcommands operate on a module given either by preset name or by a JSON
input file and emit a JSON document (an SVG for the svg subcommand).
`newton` needs only the Newton polytope; every other subcommand builds the
stability fan.  Exit codes: 0 success, 1 verification found violations,
2 bad input or usage.

A process loads only the layers its subcommand runs, each imported in the
branch that uses it: only `verify` loads the oracle and mtfan.stability,
only `svg` the renderer, and `newton` no fan.  The defaults of
--grid-bound, --seed and --size are read from those layers.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import sys

from . import serialize
from .errors import InputFormatError, ResourceLimitError
from .presets import preset_module, preset_names

# `verify` checks every point of the grid [-B, B]^n against the whole fan,
# and every point of the fan validator's completeness grid; both are capped
MAX_GRID_POINTS = 100_000
# `verify` checks pairs of cones, in the oracle and in the fan validator, so
# its cost grows with the square of the cone count C.  On CPython 3.11 on a
# 2-core Xeon, `verify --grid-bound 0` on the arrowless module with a line at
# each of 5 vertices (C = 243) takes about 0.4 s as a whole process; on 6
# vertices (C = 729), with this cap lifted, the build takes 0.35-0.6 s, the
# oracle 0.6-0.9 s and the fan validator 0.9-1.05 s; the goldens have
# C <= 243, the benchmark C <= 61
MAX_VERIFY_CONES = 256
MAX_SVG_SIZE = 4096
# a --theta entry is written out in full, with at most this many digits, so
# parsing it and echoing it back stay cheap
MAX_THETA_DIGITS = 1000


def _load_module(config):
    have_preset = config.preset is not None
    have_input = config.input_path is not None
    if have_preset == have_input:
        raise InputFormatError("give exactly one of --preset and --input")
    if have_preset:
        if config.p_override is not None:
            raise InputFormatError("--p cannot override a preset")
        return preset_module(config.preset)
    try:
        with open(config.input_path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InputFormatError(f"cannot read {config.input_path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputFormatError(
            f"invalid JSON in {config.input_path} at line {exc.lineno} "
            f"column {exc.colno}: {exc.msg}"
        )
    except RecursionError:
        raise InputFormatError(
            f"invalid JSON in {config.input_path}: nested too deeply"
        )
    if config.p_override is not None:
        if not isinstance(doc, dict):
            raise InputFormatError("input document must be an object")
        doc["p"] = config.p_override
    # every subcommand enumerates submodules; a missing map is zero-filled
    # at its full size, so the bound applies before any matrix is built
    from .sublattice import check_total_dim

    check_total_dim(serialize.declared_total_dim(doc), doc["p"])
    _, module = serialize.module_from_doc(doc)
    return module


def _parse_theta(text, n):
    if text is None:
        raise InputFormatError("classify needs --theta")
    parts = [p.strip() for p in text.split(",")]
    for k, p in enumerate(parts, 1):
        if "e" in p.lower():
            raise InputFormatError(
                f"--theta entry {k} uses exponent notation; write it out, "
                "e.g. 1/2 or 0.25"
            )
        digits = sum(c.isdigit() for c in p)
        if digits > MAX_THETA_DIGITS:
            raise InputFormatError(
                f"--theta entry {k} has {digits} digits, more than the cap "
                f"of {MAX_THETA_DIGITS}"
            )
        # Fraction's own grammar moves between Python versions (3.11 reads
        # 1_0 as 10, 3.12 allows spaces around the slash), so check ours;
        # a zero denominator is not in it
        if not re.fullmatch(
            r"[+-]?([0-9]+(/0*[1-9][0-9]*)?|[0-9]+\.[0-9]*|\.[0-9]+)", p
        ):
            raise InputFormatError(
                f"--theta entry {k} is not a rational number: {p!r}; write "
                "an integer, a fraction or a decimal, e.g. -2, 1/2 or 0.25"
            )
    theta = tuple(serialize.parse_frac(p) for p in parts)
    if len(theta) != n:
        raise InputFormatError(
            f"--theta has {len(theta)} entries, the module has {n} vertices"
        )
    return theta


def _check_output(config):
    """Reject an --output that is a directory or lies in a missing one
    before any work; _emit still reports a write that fails later."""
    if config.output is None:
        return
    folder = os.path.dirname(config.output) or "."
    if not os.path.isdir(folder):
        raise InputFormatError(
            f"cannot write {config.output}: no directory {folder}"
        )
    if os.path.isdir(config.output):
        raise InputFormatError(f"cannot write {config.output}: a directory")


def _emit(config, text):
    if config.output is None:
        sys.stdout.write(text + "\n")
        return
    try:
        with open(config.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise InputFormatError(f"cannot write {config.output}: {exc}")


def _emit_json(config, doc):
    _emit(config, json.dumps(doc, indent=2))


def _check_sizes(config, n):
    """Fill in an unset --grid-bound, --seed or --size from the layer that
    reads it, and reject a --grid-bound or --size outside its documented
    range."""
    if config.command == "verify":
        from .oracle import DEFAULT_GRID_BOUND, DEFAULT_SEED
        from .polyhedra import COMPLETENESS_GRID_BOUND

        if config.grid_bound is None:
            config.grid_bound = DEFAULT_GRID_BOUND
        if config.seed is None:
            config.seed = DEFAULT_SEED
        bound = config.grid_bound
        if bound < 0:
            raise InputFormatError(f"--grid-bound must be >= 0, got {bound}")
        if (2 * bound + 1) ** n > MAX_GRID_POINTS:
            raise InputFormatError(
                f"--grid-bound {bound} gives (2B+1)^{n} grid points, more than "
                f"the cap of {MAX_GRID_POINTS}"
            )
        side = 2 * COMPLETENESS_GRID_BOUND + 1
        if side**n > MAX_GRID_POINTS:
            raise InputFormatError(
                "the fan validator's completeness grid "
                f"[-{COMPLETENESS_GRID_BOUND}, {COMPLETENESS_GRID_BOUND}]^{n} "
                f"has {side}^{n} points, more than the cap of {MAX_GRID_POINTS}"
            )
    if config.command == "svg":
        from .svg import DEFAULT_SIZE

        if config.size is None:
            config.size = DEFAULT_SIZE
        if not 0 < config.size <= MAX_SVG_SIZE:
            raise InputFormatError(
                f"--size must be between 1 and {MAX_SVG_SIZE} pixels, "
                f"got {config.size}"
            )


def run(config):
    """Run one subcommand from build_parser's namespace; return its exit
    code."""
    _check_output(config)
    module = _load_module(config)
    _check_sizes(config, module.algebra.n)
    if config.command == "classify":
        theta = _parse_theta(config.theta, module.algebra.n)
    if config.command == "svg":
        from .svg import check_rank, render_svg

        check_rank(module.algebra.n)
    if config.command == "newton":
        from .sublattice import newton_polytope

        _emit_json(config, serialize.polytope_doc(newton_polytope(module)))
        return 0
    from .fan import build_mtf_fan, class_of, fan_paths

    mtf = build_mtf_fan(module)

    if config.command == "fan":
        _emit_json(config, serialize.fan_doc(mtf))
        return 0
    if config.command == "wall":
        _emit_json(config, {"n": mtf.n, "wall": serialize.cone_doc(mtf.wall)})
        return 0
    if config.command == "classify":
        idx = class_of(mtf, theta)
        _emit_json(config, serialize.classify_doc(mtf, theta, idx))
        return 0
    if config.command == "paths":
        _emit_json(config, serialize.paths_doc(fan_paths(mtf)))
        return 0
    if config.command == "svg":
        _emit(config, render_svg(mtf, size=config.size))
        return 0
    if config.command == "verify":
        if len(mtf.cones) > MAX_VERIFY_CONES:
            raise ResourceLimitError(
                f"the fan has {len(mtf.cones)} cones, more than verify's cap "
                f"of {MAX_VERIFY_CONES}"
            )
        from .oracle import build_sample_set, verify_dim_formula, verify_fan
        from .polyhedra import validate_generalized_fan

        samples = build_sample_set(
            mtf, bound=config.grid_bound, seed=config.seed
        )
        oracle = verify_fan(mtf, samples=samples)
        dims = verify_dim_formula(mtf)
        validation = validate_generalized_fan(mtf.fan)
        ok = oracle.ok and dims.ok and validation.ok
        _emit_json(
            config,
            {
                "samples": len(samples),
                "grid_bound": config.grid_bound,
                "seed": config.seed,
                "oracle": serialize.report_doc(oracle),
                "dim_formula": serialize.report_doc(dims),
                "fan_validation": serialize.validation_doc(validation),
                "ok": ok,
            },
        )
        return 0 if ok else 1
    raise InputFormatError(f"unknown command {config.command!r}")


def _add_source_args(sub):
    sub.add_argument(
        "--preset",
        choices=preset_names(),
        help="built-in example module",
    )
    sub.add_argument(
        "--input",
        dest="input_path",
        metavar="INPUT",
        help="JSON file describing algebra and module",
    )
    sub.add_argument(
        "--p",
        dest="p_override",
        metavar="P",
        type=int,
        default=None,
        help="override the prime of a JSON input (not allowed with --preset)",
    )
    sub.add_argument("--output", help="write result here instead of stdout")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mtfan",
        description=(
            "Newton polytopes, stability fans and torsion-class data for "
            "modules over bound quiver algebras."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, desc in (
        ("newton", "Newton polytope of submodule dimension vectors"),
        ("fan", "complete stability fan with torsion-class data per cone"),
        ("wall", "cone of stability conditions where the module is on a wall"),
        ("paths", "increasing paths in the fan and on the Newton polytope"),
    ):
        _add_source_args(sub.add_parser(name, help=desc))

    classify = sub.add_parser(
        "classify", help="locate a stability vector and report its class data"
    )
    _add_source_args(classify)
    classify.add_argument(
        "--theta",
        help=(
            "comma separated rationals, one per vertex, e.g. 1/2,-1 or "
            "0.25,2; no exponents, underscores or inner spaces, and at most "
            f"{MAX_THETA_DIGITS} digits each"
        ),
    )

    verify = sub.add_parser(
        "verify", help="cross-check the fan against a brute-force oracle"
    )
    _add_source_args(verify)
    verify.add_argument(
        "--grid-bound",
        type=int,
        help=(
            "check every integer vector with entries in [-B, B]; B >= 0 and "
            f"(2B+1)^n at most {MAX_GRID_POINTS}"
        ),
    )
    verify.add_argument(
        "--seed",
        type=int,
        help="seed for extra random samples",
    )

    svg = sub.add_parser("svg", help="render a rank-two fan")
    _add_source_args(svg)
    svg.add_argument(
        "--size",
        type=int,
        help=f"canvas size in pixels, 1 to {MAX_SVG_SIZE}",
    )
    return parser


def main(argv=None):
    config = build_parser().parse_args(argv)
    try:
        return run(config)
    except (ValueError, ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
