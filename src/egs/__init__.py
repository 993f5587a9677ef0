"""Extensive game structures with simultaneous moves: invariant
transformations, behavioral equivalence, and backward dominance."""

from .core import (
    EgsError,
    History,
    InfoSet,
    Profile,
    RelationSet,
    ROOT,
    Structure,
    is_prefix,
    make_profile,
    relation,
    sim_classes,
    transitively_simultaneous,
)
from .dominance import (
    BdTrace,
    DecisionProblem,
    DominanceError,
    Game,
    bd,
    check_monotonic,
    compare_bd,
    dominated_rows,
    format_trace,
    reaching,
    strictly_dominated,
    transport_game,
)
from .dot import to_dot
from .fileformat import FormatError, parse, serialize
from .generate import GenError, GenParams, gen_random, random_payoffs
from .isomorph import StructureIsomorphism, structure_isomorphic
from .strategy import (
    Plan,
    PlanError,
    ReducedNormalForm,
    behaviorally_equivalent,
    plans,
    play,
    reduced_normal_form,
    rnf_isomorphic,
)
from .transform import (
    CoalescingOpp,
    CompleteControl,
    HistoryMap,
    Ico,
    IsOpp,
    SynthOpp,
    TransformError,
    apply_coalescing,
    apply_is,
    apply_phi,
    apply_tau,
    backward_compactify,
    controls,
    dictates,
    find_coalescing,
    find_complete_icos,
    find_is,
    find_synthesized,
    is_immediate_coalescing,
    is_immediate_is,
    is_non_crossing,
    iter_complete_icos,
    iter_synthesized,
    minimize_uo,
    shift_depth,
)
from .validate import (
    Experience,
    ValidationReport,
    check_uo,
    check_vnm,
    experience,
    validate_structure,
)

__all__ = [name for name in dir() if not name.startswith("_")]
