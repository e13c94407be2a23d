"""The PAX parallel-language front end.

The paper proposes a language construct for declaring phase enablement::

    DEFINE PHASE phase-name GRANULES=n
        ENABLE [
            phase-name-1/MAPPING=option
            phase-name-2/MAPPING=option
        ]

    DISPATCH phase-name
        ENABLE/MAPPING=option                -- simple, unverified form
    DISPATCH phase-name
        ENABLE [phase-name/MAPPING=option]   -- executive-verified interlock
    DISPATCH phase-name
        ENABLE/BRANCHINDEPENDENT [...]       -- branch preprocessing
    DISPATCH phase-name
        ENABLE/BRANCHDEPENDENT               -- lookahead at run time

and stresses that the executive (or language processor) should *verify*
"that, in fact, that phase is following".  This package implements the
construct end to end:

* :mod:`repro.lang.lexer` — tokens;
* :mod:`repro.lang.ast` — statement and expression nodes;
* :mod:`repro.lang.parser` — recursive-descent parser;
* :mod:`repro.lang.semantics` — the interlock verification and the
  branch-independent lookahead analysis;
* :mod:`repro.lang.compiler` — control-flow evaluation down to a
  :class:`~repro.core.phase.PhaseProgram` (the resolved schedule is
  exactly the "preprocess the branch and overlap the appropriate phase"
  lookahead);
* :mod:`repro.lang.errors` — diagnostics with line numbers.
"""

from repro._lazy import lazy_exports

_EXPORTS, __getattr__, __dir__ = lazy_exports(
    globals(),
    {
        ".errors": ("LangError", "LexError", "ParseError", "VerificationError"),
        ".lexer": ("Token", "TokenKind", "tokenize"),
        ".parser": ("parse",),
        ".semantics": ("verify",),
        ".compiler": ("compile_program",),
    },
)

__all__ = list(_EXPORTS)
