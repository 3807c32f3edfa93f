"""Top-k isotopologue peak selection for chemical formulas.

Computes the k most probable isotopologues of a molecule as exact masses
with natural-log probabilities, without binning, using layer-ordered heaps
and online pairwise selection over per-element subisotopologue streams.
"""

from .formula import Composition, FormulaError, parse_formula
from .isotopes import (
    Isotope,
    IsotopeTable,
    IsotopeTableError,
    UnknownElementError,
    load_default,
    load_table,
    parse_table,
)
from .loh import LayerSchedule, lohify, verify_loh
from .multinomial import MultinomialConfig, SubisotopologueGenerator, find_mode
from .oracle import enumerate_all, isotopologue_count, top_k_reference
from .pairwise import ArrayPeakStream, PairwiseSelector
from .tree import (
    Selection,
    TreeNode,
    build_tree,
    isotopologues,
    select_top_k,
    select_until_cumulative,
    tree_stats,
)

__version__ = "0.1.0"

__all__ = [
    "ArrayPeakStream",
    "Composition",
    "FormulaError",
    "Isotope",
    "IsotopeTable",
    "IsotopeTableError",
    "LayerSchedule",
    "MultinomialConfig",
    "PairwiseSelector",
    "Selection",
    "SubisotopologueGenerator",
    "TreeNode",
    "UnknownElementError",
    "build_tree",
    "enumerate_all",
    "find_mode",
    "isotopologue_count",
    "isotopologues",
    "load_default",
    "load_table",
    "lohify",
    "parse_formula",
    "parse_table",
    "select_top_k",
    "select_until_cumulative",
    "top_k_reference",
    "tree_stats",
    "verify_loh",
]
