"""hyperlab: exact computation in doubling (Cayley-Dickson) algebras and
their tensor products, finite Heyting algebras, finitely generated abelian
groups, and singular differential-polynomial systems in jet coordinates.
"""

from .abelian import (
    FGAbelianGroup,
    Z,
    TRIVIAL,
    cyclic,
    cyclic_homology,
    decompose,
    euler_characteristic,
    ext,
    extension_count,
    hom,
    iso_check,
    smith_normal_form,
    sphere_homology,
    tensor,
)
from .algebras import (
    StructureAlgebra,
    TensorAlgebra,
    TensorElement,
    centre,
    classic_limit,
    complex_algebra,
    embed_factors,
    matrix2_algebra,
    nucleus,
    qh_multiply,
    real_algebra,
    tensor_algebra,
    upper_triangular2_algebra,
)
from .cayley_dickson import (
    CDElement,
    ExhaustiveBasis,
    LevelMismatch,
    LevelTooLarge,
    MultiplicationTable,
    NormZero,
    RandomSample,
    associator,
    cayley_extension,
    cd_multiply,
    cd_multiply_recursive,
    commutator,
    conjugate,
    find_zero_divisors,
    identity_battery,
    inverse_quadratic,
    is_operator_invertible,
    norm_sq,
    quadratic_algebra,
    quaternion_to_complex_matrix,
    quaternion_type_algebra,
    structure_constants,
    trace,
)
from .grid import GridField, heat_evolve, residual, separable_dalembert_check
from .heyting import (
    FinitePoset,
    FiniteTopology,
    Filter,
    HeytingAlgebra,
    NotHeyting,
    boolean_ring_roundtrip,
    classify_elements,
    filter_generate,
    heyting_from_chain,
    heyting_from_lattice,
    heyting_from_poset_upsets,
    heyting_from_topology,
    kernel,
    law_report,
    quotient_by_filter,
    verify_morphism,
)
from .jets import (
    JetCoordinateSystem,
    PDESystem,
    builtin_system,
    builtin_systems,
    classify_point,
    formal_jacobian,
    jet_dimensions,
    minor_determinants,
)
from .polynomials import Poly

__version__ = "0.1.0"
