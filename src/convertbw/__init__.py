"""Split-mode convertible-code toolkit: exact conversion-bandwidth
bounds, a rank-based entropy oracle over concrete MDS code pairs, and
exhaustive search for read-cost-minimal linear conversion schemes."""

from .bounds import (BoundReport, achievable_decreasing, bound_I, bound_II,
                     bound_trivial, dominance_check, entropy_V_lb,
                     known_achievable, theorem_bound, uniform_cost_bound)
from .convertible import (BandwidthReport, ConversionScheme,
                          InfeasibleSchemeError, canonical_codes,
                          check_feasible, default_scheme, run_conversion,
                          scheme_bandwidth)
from .ensemble import (IndependencePreconditionError, LinearEnsemble, NodeId,
                       check_cond_entropy_final, check_joint_entropy,
                       check_mds_reconstruction, check_mi_bound,
                       check_min_avg, check_prop_parity_iid,
                       check_stability, check_storage_axioms, cond_entropy,
                       ensemble_from_codes, entropy, mutual_info)
from .gf import Field, field
from .linalg import (Matrix, enumerate_subspaces, in_span, mat_inverse,
                     mat_rank, rref, solve_left, vstack)
from .mds import (CorruptDataError, VectorCode, decode_from, encode,
                  make_systematic_mds, verify_mds)
from .params import SplitParams
from .search import (CertificationReport, SearchBudget, SearchOutcome,
                     certify_bound, check_scheme_inequalities,
                     min_bandwidth_exhaustive, random_mds_pair)

__version__ = "0.1.0"
