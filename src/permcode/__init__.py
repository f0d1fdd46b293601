"""Subexcedant codes for permutations.

A subexcedant sequence of length n has 0 <= s_i <= i - 1 everywhere; there
are n! of them.  This package provides two bijections from permutations of
1..n onto those sequences: the classical Lehmer code and the *slice code*,
a bijection with the stronger property that it transports five set-valued
statistics at once:

    (Des, Ides, LrM, Lrm, RlM) of p  =  (Asc, Row, Pos0, Max, Rlm) of code

where Row collects the last occurrence of each distinct nonzero entry,
Pos0 the zero entries, and Max the entries meeting their bound.  As a
consequence (des, ides) over permutations and (asc, row) over subexcedant
sequences share one joint distribution, a double Eulerian identity.

See permcode.slices for the encoder, permcode.inverse for the decoder, and
permcode.enumeration for exhaustive verifiers; the permcode script offers
all of it on the command line.
"""

from .core import (
    InvalidWordError,
    UsageError,
    ascent_set,
    check_permutation,
    check_subexcedant,
    descent_set,
    format_positions,
    format_word,
    inverse_descent_set,
    invert,
    last_value_set,
    lrmax_set,
    lrmin_set,
    parse_word,
    perm_stats,
    rlmax_set,
    rlmin_set,
    saturated_set,
    seq_stats,
    zero_set,
)
from .enumeration import (
    Report,
    double_eulerian,
    iter_perms,
    iter_subexcedant,
    verify_asc_row_exchange,
    verify_bijection,
    verify_eulerian_marginals,
    verify_five_tuples,
)
from .inverse import slice_decode
from .lehmer import dumont_stat, lehmer_decode, lehmer_encode
from .slices import (
    REMOVE,
    SHRINK_BOTTOM,
    SHRINK_TOP,
    SPLIT,
    LabeledInterval,
    Profile,
    Slice,
    code_cases,
    profiles,
    slice_cases,
    slice_encode,
    slices,
)

__version__ = "0.1.0"

__all__ = [
    "InvalidWordError",
    "UsageError",
    "parse_word",
    "format_word",
    "format_positions",
    "check_permutation",
    "check_subexcedant",
    "descent_set",
    "ascent_set",
    "lrmax_set",
    "lrmin_set",
    "rlmax_set",
    "rlmin_set",
    "inverse_descent_set",
    "zero_set",
    "saturated_set",
    "last_value_set",
    "invert",
    "perm_stats",
    "seq_stats",
    "lehmer_encode",
    "lehmer_decode",
    "dumont_stat",
    "SPLIT",
    "SHRINK_TOP",
    "SHRINK_BOTTOM",
    "REMOVE",
    "LabeledInterval",
    "Slice",
    "Profile",
    "slice_cases",
    "code_cases",
    "slices",
    "profiles",
    "slice_encode",
    "slice_decode",
    "iter_perms",
    "iter_subexcedant",
    "Report",
    "double_eulerian",
    "verify_five_tuples",
    "verify_bijection",
    "verify_asc_row_exchange",
    "verify_eulerian_marginals",
    "__version__",
]
