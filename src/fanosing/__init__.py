"""fanosing: exact machinery for lines on hypersurfaces and forced singular points.

Everything is computed over Q or over a prime field, with no floating point:
first-order tangent data of the variety of lines, normal forms of pencils
without decomposable vectors, extraction of binary-form generators, the
resulting ideal filtration on a line, certified singular points, finite-field
line enumeration, and intersection numbers on ruled surfaces.
"""

from .linalg import Field, Fp, QQ, Subspace, FieldMismatch, kernel, parse_field
from .forms import (MultiForm, BinaryForm, NotDivisible, contract,
                    restrict_to_plane, binary_divide, binary_gcd, binary_roots,
                    parse_form, format_form, format_scalar,
                    projective_normalize, RootReport)
from .tangent import (Hypersurface, LineFrame, TangentReport, PlaneNotContained,
                      sigma, tangent_space, compute_pi, analyze_tangent,
                      tangent_cone_lines, quotient_section)
from .pencil import (NormalForm, NotConstantRankTwo, normal_form,
                     verify_normal_form, has_decomposable)
from .ideal import (BlockGenerator, GeneratorSet, IdealFiltration,
                    PurePowerLocus, ChainIdentityViolated, DegreeTooSmall,
                    extract_generators, build_filtration, ideal_degree_piece,
                    contains_image_sigma, max_multiplicity_at, pure_power_locus)
from .singular import (SingularPoint, SingularCertificate, EveryP1Report,
                       LineAnalysis, ExceptionRecord, ConjectureReport,
                       BudgetExceeded, CharacteristicRefused, is_singular_at,
                       singular_on_line, check_everyp1, analyze_line,
                       projective_points, lines_through, all_lines,
                       grassmannian_size, singular_points, conjecture_check)
from .corpus import fermat, cone, random_with_line
from .ruled import (RuledSurface, DivisorClass, FIBER, ItconeReport,
                    CurveCaseReport, intersect, itcone_check, c1_twist,
                    stareqn_curve_case)

__all__ = [name for name in dir() if not name.startswith("_")]
