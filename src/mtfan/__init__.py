"""Newton polytopes, stability fans and torsion-class data for modules
over bound quiver algebras.

The central objects are the Newton polytope of a module (convex hull of
its submodule dimension vectors), its normal fan (whose cones are exactly
the classes of stability vectors with equal torsion behaviour on the
module) and the canonical torsion filtration attached to each cone.
"""

from .errors import (
    AlgebraDefinitionError,
    InputFormatError,
    InvariantError,
    ModuleDefinitionError,
    ResourceLimitError,
)
from .fan import (
    MTFFan,
    boundary_regions,
    build_mtf_fan,
    class_of,
    face_restriction_check,
    facet_partition,
    fan_paths,
    smallest_cone,
    wall_cone,
)
from .presets import preset_module, preset_names
from .quiver import build_algebra, build_module, direct_sum, simple_module

__version__ = "0.1.0"

# the fan API, the presets, the module constructors and the error types;
# everything else is imported from its own module, e.g. mtfan.oracle
__all__ = [
    "AlgebraDefinitionError",
    "InputFormatError",
    "InvariantError",
    "MTFFan",
    "ModuleDefinitionError",
    "ResourceLimitError",
    "boundary_regions",
    "build_algebra",
    "build_module",
    "build_mtf_fan",
    "class_of",
    "direct_sum",
    "face_restriction_check",
    "facet_partition",
    "fan_paths",
    "preset_module",
    "preset_names",
    "simple_module",
    "smallest_cone",
    "wall_cone",
]
