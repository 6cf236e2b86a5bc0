"""Newton polytopes, stability fans and torsion-class data for modules
over bound quiver algebras.

The central objects are the Newton polytope of a module (convex hull of
its submodule dimension vectors), its normal fan (whose cones are exactly
the classes of stability vectors with equal torsion behaviour on the
module) and the canonical torsion filtration attached to each cone.
"""

import importlib

__version__ = "0.1.0"

# the fan API, the presets, the module constructors and the error types, by
# home module; everything else is imported from its own module, e.g.
# mtfan.oracle.  Each export is loaded on first use, so `import mtfan` (and
# with it every `import mtfan.<module>`) loads no layer it does not name
_EXPORTS = {
    "errors": (
        "AlgebraDefinitionError", "InputFormatError", "InvariantError",
        "ModuleDefinitionError", "ResourceLimitError",
    ),
    "fan": (
        "MTFFan", "boundary_regions", "build_mtf_fan", "class_of",
        "face_restriction_check", "facet_partition", "fan_paths",
        "smallest_cone", "wall_cone",
    ),
    "presets": ("preset_module", "preset_names"),
    "quiver": ("build_algebra", "build_module", "direct_sum", "simple_module"),
}
_HOME = {name: home for home, names in _EXPORTS.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
