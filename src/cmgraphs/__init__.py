"""Monomial ideals from families of index-monotone relations, their quadratic
Alexander duals, the associated multipartite graphs, and exact verification
oracles (linear quotients, simplicial homology, chordality)."""

from .chains import (
    ChainOrder,
    LinearQuotientsVerdict,
    build_hr,
    chain_compare,
    chain_monomial,
    check_all_extensions,
    check_linear_quotients,
    enumerate_chains,
    find_linear_quotients_order,
    gamma_certificate,
    gamma_chain,
    linear_extension,
    random_linear_extension,
    witness_extension,
)
from .duality import (
    SimplicialComplex,
    alexander_dual_complex,
    complex_of_ideal,
    dual_hr_fast,
    dual_ideal_bruteforce,
    grid_vertices,
)
from .errors import (
    ChainError,
    CmgraphsError,
    DegreeError,
    IndexOrderError,
    InputError,
    InternalMismatchError,
    LevelError,
    NotFaceError,
    OverflowInputError,
    ParseError,
    PartsError,
    RangeError,
    SizeBudgetError,
    UnitIdealError,
)
from .graphs import (
    ConditionReport,
    ConditionVerdict,
    HerzogHibiReport,
    MultipartiteGraph,
    build_complete_multipartite,
    check_family_conditions,
    check_herzog_hibi,
    check_theorem1,
    check_theorem2,
    complement_is_chordal,
    cycle_graph,
    edge_count_expected,
    edge_ideal,
    graph_of_family,
    graph_to_dot,
    herzog_hibi_conditions,
    independence_complex,
    load_graph,
)
from .homology import (
    GF2,
    RATIONAL,
    CMCertificate,
    FieldChoice,
    HomologyProfile,
    gfp,
    is_cohen_macaulay,
    is_pure,
    link,
    parse_field,
    reduced_homology,
)
from .monomials import (
    Monomial,
    MonomialIdeal,
    minimalize,
    parse_ideal_lines,
    parse_monomial,
    read_ideal,
    write_ideal,
)
from .posets import (
    CompositeRelation,
    Relation,
    RelationFamily,
    close_relation,
    composite_relation,
    composite_rows,
    identity_relation,
    is_order_ideal,
    load_family,
    order_ideals,
)
from .verification import DEFAULT_SEED, CriterionResult, run_all, sample_family

__version__ = "0.1.0"
