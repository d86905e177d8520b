"""graphonlab: graph-limit laboratory at desk scale.

Exact homomorphism-density calculus over finite graphs and step
graphons, W-random samplers (simple, bipartite, directed), cut-norm
machinery, and finite-sample tests for exchangeability and extremality
of prefix laws.
"""

from .bipartite import (
    BipartiteGraph,
    BipartiteKernel,
    bip_exact_density,
    bip_exact_ind_density,
    bip_graph_as_kernel,
    bip_sampling_bound_check,
    bip_t,
    bip_t_ind,
    bip_t_inj,
    sample_bip_w_random,
)
from .densities import (
    BoundCheck,
    DensityEstimate,
    DensityVector,
    TauPlus,
    disjoint_union_density,
    hoeffding_halfwidth,
    ind_from_inj,
    inj_from_ind,
    mc_t,
    metric_d,
    sampling_bound_check,
    supergraphs,
    t,
    t_ind,
    t_inj,
    tau_plus,
    tau_vector,
)
from .directed import (
    DirectedGraph,
    DirectedKernelQuadruplePlusP,
    DirectedKernelQuintuple,
    directed_t,
    directed_t_ind,
    directed_t_inj,
    loop_sequence_law,
    quadruple_from_quintuple,
    sample_directed,
    tournament_kernel,
    validate_quintuple,
)
from .errors import CapacityError, GraphonLabError, InputError, InvariantError
from .exchangeable import (
    CorrespondenceResult,
    ExchangeabilityVerdict,
    ExtremalityVerdict,
    GraphSource,
    PatternPair,
    PrefixLaw,
    correspondence_check,
    exchangeability_test,
    extremality_test,
    martingale_trace,
    prefix_law_empirical,
    prefix_law_exact,
)
from .graphon import (
    BlockMap,
    GeneralGraphon,
    SignedStepKernel,
    StepGraphon,
    boys_girls,
    cut_distance_upper,
    cut_norm,
    exact_density,
    exact_ind_density,
    graph_as_graphon,
    kernel_difference,
    mc_density,
    pushforward,
    sample_w_random,
)
from .graphs import (
    GraphEnumeration,
    LabelledGraph,
    UnlabelledGraph,
    canonicalize,
    disjoint_union,
    enumerate_unlabelled,
    induced_pattern,
    is_isomorphic,
    random_relabel,
    restrict_prefix,
    sample_with_replacement,
    sample_without_replacement,
)
from .rng import stream

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
