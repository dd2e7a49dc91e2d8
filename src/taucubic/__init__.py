"""Exact-arithmetic toolkit for involution-invariant cubic-quadric
configurations in P^4 and their projection, quotient, and dimension ledgers."""

from .scalars import (BadPrime, ExtensionTower, FpElem, PrimeField, QQ, QuadElem,
                      QuadraticExtension, RationalField, ZeroInput,
                      quad_sqrt, reduce_mod_prime)
from .forms import (DimensionMismatch, Form, NotDivisible, ResultantIndeterminate,
                    SymMatrix3, ZeroForm, evaluate, exact_divide, is_smooth_hypersurface,
                    macaulay_resultant, monomials, partial_derivative, sylvester_resultant)
from .tau import (DegenerateOnLine, GenericityExhausted, NoSolution, QuadricPart,
                  TauInstance, UnsupportedDegree, canonical_instance, fixed_points_on_S,
                  invariant_basis, sample_instance, sym2_eigensplit, tau_form,
                  verify_base_locus)
from .discriminant import (DegenerateConicPart, DiscriminantData, InfinitelyMany, ZeroConic,
                           cone_and_singular_member, discriminant_quintic,
                           lines_through_point_of_ltau, tau_fiber_action)
from .ledgers import (Disconnected, GenusLedger, ci_curve_genus, hurwitz_double_cover,
                      ideal_section_dimension, jacobian_tau_split, koszul_h01_ledger,
                      plane_curve_genus, prym_dimension_ledger)
from .quotient import IdenticallyZero, branch_sextic, quotient_equation
from .harness import (ConfigError, InstanceParseError, SuiteConfig,
                      VerificationReport, emit_report, load_instance, run_suite)

__version__ = "0.1.0"
