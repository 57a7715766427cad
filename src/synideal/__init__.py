"""Workbench for the syntactic complexity of ideal regular languages.

Builds witness DFAs for right, left, and two-sided ideals, computes
transition/syntactic semigroups by closure, classifies ideal and closed
subclasses, evaluates special-quotient bounds, constructs the injective maps
behind the upper-bound arguments, and runs exhaustive and randomized
verification campaigns at desk scale.
"""

from .dfa import (
    Dfa,
    StatePreorder,
    max_chain_length,
    minimize,
    preorder,
    syntactic_complexity,
    transition_semigroup,
)
from .ideals import ClassificationReport, classify, special_quotient_bound
from .injection import (
    CaseTag,
    InjectionContext,
    apply_f,
    classify_case,
    make_context,
    minimal_context,
    verify_injection,
)
from .semigroup import TransformationSemigroup, closure
from .transform import Transformation, compose, parse_notation
from .witness import IdealClass, bound, build, expected_semigroup

__all__ = [
    "CaseTag",
    "ClassificationReport",
    "Dfa",
    "IdealClass",
    "InjectionContext",
    "StatePreorder",
    "Transformation",
    "TransformationSemigroup",
    "apply_f",
    "bound",
    "build",
    "classify",
    "classify_case",
    "closure",
    "compose",
    "expected_semigroup",
    "make_context",
    "max_chain_length",
    "minimal_context",
    "minimize",
    "parse_notation",
    "preorder",
    "special_quotient_bound",
    "syntactic_complexity",
    "transition_semigroup",
    "verify_injection",
]
