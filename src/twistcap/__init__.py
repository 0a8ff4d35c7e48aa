"""Simplicial homology with local coefficients, orientation double covers,
and machine-checked Poincare duality over Z, Z/m and Q."""

from .cap import (DualityReport, boundary_identity_check, relative_cap,
                  verify_duality)
from .chains import (FundamentalClassData, cohomology,
                     fundamental_class_direct, homology)
from .complexes import (FullSubcomplex, ManifoldReport, SimplicialComplex,
                        Subcomplex, corpus, load_complex, named_complex,
                        validate)
from .covers import (DoubleCover, build_double_cover, check_split_exactness,
                     fundamental_class_via_cover, lemma1_check, lemma2_check,
                     orient_cover, phi_identify, pushforward, split_maps)
from .fpmodules import (FPModule, HomologyPresentation, ModuleMap,
                        homology_presentation, induced_map, is_isomorphism)
from .localsystems import (LocalSystem, constant_system, is_trivializable,
                           load_local_system, orientation_system,
                           random_flat_system, tensor, validate_flatness)
from .matrices import ExactMatrix, SmithDecomposition, smith_normal_form
from .mv import (CoverPair, diagram6_check, mv_cohomology, mv_homology,
                 mv_splitting, named_cover, named_diagram6)
from .rings import Q, RingSpec, Z, Zmod, parse_ring

__version__ = "0.1.0"
