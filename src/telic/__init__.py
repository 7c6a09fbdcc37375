"""A small dependently typed proof checker for lexical semantics.

The package has three layers:

* ``terms`` and ``kernel``: de Bruijn term syntax and a bidirectional
  type checker with two predicative universes, dependent pairs, natural
  number literals, metavariables, and first-order rewrite rules.
* ``surface`` and ``elaborate``: a declaration language (postulates,
  definitions, rewrite rules, checks, normalization claims, entailments,
  expected failures, imports) elaborated into kernel terms.
* ``prelude`` and ``corpus``: a built-in signature modelling noun-phrase
  boundedness and event telicity, plus a regression corpus of lexicon
  files exercising it end to end.

Entry points: :func:`telic.prelude.load_prelude` to get a processor with
the standard signature loaded, :class:`telic.elaborate.Processor` for a
bare one, and ``telic`` on the command line.
"""

from .elaborate import Processor, Report, render_reports
from .errors import ERROR_CODES, Span, TelicError
from .kernel import DEFAULT_FUEL, Kernel, Signature
from .prelude import load_prelude, prelude_path, prelude_self_check
from .surface import parse_expr, parse_file
from .terms import (
    App,
    Const,
    Fst,
    Lambda,
    Meta,
    NatLit,
    Pair,
    Pi,
    Sigma,
    Snd,
    Term,
    Universe,
    Var,
    shift,
    subst,
)

__version__ = "0.1.0"

__all__ = [
    "App",
    "Const",
    "DEFAULT_FUEL",
    "ERROR_CODES",
    "Fst",
    "Kernel",
    "Lambda",
    "Meta",
    "NatLit",
    "Pair",
    "Pi",
    "Processor",
    "Report",
    "Sigma",
    "Signature",
    "Snd",
    "Span",
    "TelicError",
    "Term",
    "Universe",
    "Var",
    "__version__",
    "load_prelude",
    "parse_expr",
    "parse_file",
    "prelude_path",
    "prelude_self_check",
    "render_reports",
    "shift",
    "subst",
]
