"""graphonlab: graph-limit laboratory at desk scale.

Exact homomorphism-density calculus over finite graphs and step
graphons, W-random samplers (simple, bipartite, directed), cut-norm
machinery, and finite-sample tests for exchangeability and extremality
of prefix laws.

Public names load lazily (PEP 562): `import graphonlab` imports no
submodule and no numpy, and the first access to a name imports its home
submodule.
"""

__version__ = "0.1.0"

# home submodule -> the public names it defines
_EXPORTS = {
    "bipartite": """BipartiteGraph BipartiteKernel bip_exact_density bip_exact_ind_density
        bip_graph_as_kernel bip_sampling_bound_check bip_t bip_t_ind bip_t_inj
        sample_bip_w_random""",
    "densities": """BoundCheck DensityEstimate DensityVector TauPlus disjoint_union_density
        hoeffding_halfwidth ind_from_inj inj_from_ind mc_t metric_d sampling_bound_check
        supergraphs t t_ind t_inj tau_plus tau_vector""",
    "directed": """DirectedGraph DirectedKernelQuadruplePlusP DirectedKernelQuintuple directed_t
        directed_t_ind directed_t_inj loop_sequence_law quadruple_from_quintuple
        sample_directed tournament_kernel validate_quintuple""",
    "errors": "CapacityError GraphonLabError InputError InvariantError",
    "exact": "",
    "exchangeable": """CorrespondenceResult ExchangeabilityVerdict ExtremalityVerdict GraphSource
        PatternPair PrefixLaw correspondence_check exchangeability_test extremality_test
        martingale_trace prefix_law_empirical prefix_law_exact""",
    "graphon": """BlockMap GeneralGraphon SignedStepKernel StepGraphon boys_girls
        cut_distance_upper cut_norm exact_density exact_ind_density graph_as_graphon
        kernel_difference mc_density pushforward sample_w_random""",
    "graphs": """GraphEnumeration LabelledGraph UnlabelledGraph canonicalize disjoint_union
        enumerate_unlabelled induced_pattern is_isomorphic random_relabel restrict_prefix
        sample_with_replacement sample_without_replacement""",
    "rng": "stream",
}
# public name -> home submodule; each submodule is its own home
_HOME = {name: home for home, names in _EXPORTS.items() for name in (home, *names.split())}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module = importlib.import_module(f"{__name__}.{_HOME[name]}")
    value = module if name == _HOME[name] else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__} - {"_EXPORTS", "_HOME", "__getattr__", "__dir__"})
