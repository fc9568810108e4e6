"""Recursive bijections, exact counting, and uniform sampling for forests.

The package is organized around five pieces: immutable forest value types
(:mod:`forestcodec.forests`), the one-more-root bijection steps for the
plain, multipartite, plane, leaf-unlabeled plane, and edge-colored families
(:mod:`forestcodec.bijections`), brute-force enumeration oracles
(:mod:`forestcodec.enumeration`), closed-form counts
(:mod:`forestcodec.counting`), and choice-trace codecs with exactly uniform
samplers (:mod:`forestcodec.codec`).  The ``forestcodec`` command line tool
in :mod:`forestcodec.cli` ties them together.

Each submodule loads on first use (PEP 562): ``forestcodec.cayley`` imports
:mod:`forestcodec.counting` and nothing else, so a program pays start-up
only for the code it runs.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names the package exports from it.
_SUBMODULE_EXPORTS = {
    "forests": """EdgeColoredForest ParseError PartAssignment PlaneForest
        PlaneNode RootedForest attach_subtree children degree detach_subtree
        is_descendant parse_colored parse_forest parse_plane render_colored
        render_forest render_plane subtree_vertices swap_colored_labels
        swap_labels""",
    "bijections": """colored_choice_count colored_forward colored_inverse
        leafplane_choice_count leafplane_forward leafplane_inverse
        partite_choice_count partite_forward partite_inverse
        plain_choice_count plain_forward plain_inverse plane_choice_count
        plane_forward plane_inverse reroot_switch reroot_tree""",
    "enumeration": """BudgetExceededError FamilySpec RecurrenceRow
        count_by_enumeration enumerate_degree_filtered enumerate_family
        verify_recurrence""",
    "counting": """bipartite_identity catalan cayley colored_root_degree_count
        colored_tree_count composition_stats degseq_plane_count
        degseq_rooted_count erdelyi_etherington forests_with_k_trees
        kary_forest_count kary_identity kary_unlabeled_count
        multipartite_spanning_trees narayana plane_labeled_count
        riordan_closed_form riordan_forest_count rooted_forest_count
        special_colored_count
        tripartite_base_count""",
    "codec": """ChoiceTrace SplitMix64 decode encode parse_trace render_trace
        sample_uniform trace_bounds trace_space_size""",
}

# exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in _SUBMODULE_EXPORTS.items()
    for name in names.split()
}

__all__ = [*_EXPORTS, *_SUBMODULE_EXPORTS]


def __getattr__(name):
    if name in _SUBMODULE_EXPORTS:
        # Importing a submodule binds it in this namespace.
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
