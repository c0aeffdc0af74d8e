"""Decision engine for monadic second-order logic with identity.

Sentences are rewritten into a quantifier-free counting normal form,
predicate quantifiers are eliminated by interval reasoning on constituent
cardinalities, and pure sentences reduce to a spectrum of admissible
domain sizes.  An exhaustive finite-model oracle provides independent
semantics for every transformation.
"""

from .decide import (DecisionReport, Spectrum, Verdict, VerdictKind, decide,
                     spectrum_of, verdict_from_spectrum)
from .elimination import (eliminate_all, eliminate_counting,
                          eliminate_exists_pred)
from .errors import (ContractError, EvaluationError, MlogicError,
                     OutOfScopeError, ParseError, ResourceLimitError,
                     WellFormednessError)
from .limits import DEFAULT_LIMITS, Limits
from .models import (FiniteModel, GeneratorParams, equiv_check,
                     find_countermodel, random_formula, spectrum_bruteforce,
                     evaluate)
from .normal import (CountAtom, Constituent, CountingFormula,
                     counting_to_formula, render_counting, to_block_form,
                     to_ccnf, to_nnf)
from .parser import parse
from .prop import (Assignment, ClauseForm, PropResult, PropVerdict,
                   clause_form_decide, to_clause_form, truth_table_decide)
from .syntax import (Formula, FormulaClass, Term, classify, format_formula,
                     free_symbols, validate)

__version__ = "0.1.0"
