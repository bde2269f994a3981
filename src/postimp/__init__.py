"""postimp: complexity classification and decision procedures for
propositional implication over restricted connective sets."""

from .boolfn import (
    AND2,
    AND_OR3,
    BOT,
    MAJ3,
    NAND2,
    NOT,
    OR2,
    OR_AND3,
    TOP,
    XOR2,
    XOR3,
    ArityError,
    BooleanFunction,
    LinearNormalForm,
    OrNormalForm,
    AndNormalForm,
)
from .classify import (
    Fragment,
    ImpClass,
    ImpComplexity,
    classify_base,
    classify_base_single_premise,
    closure_fixed_arity,
)
from .decide import (
    Decision,
    Mode,
    VariableCapError,
    decide_and_fragment,
    decide_linear,
    decide_or_fragment,
    decide_oracle,
    decide_single_linear,
    decide_unary_fragment,
    dispatch,
)
from .formula import (
    App,
    Base,
    Formula,
    FragmentError,
    Instance,
    ParseError,
    Var,
    evaluate_block,
    extract_and_nf,
    extract_linear_nf,
    extract_or_nf,
    extract_unary_nf,
    format_formula,
    parse_formula,
    read_instance,
    write_instance,
)
from .gf2 import Gf2System, solve
from .reductions import (
    DnfInput,
    parse_dnf,
    read_dnf,
    reduce_linsys_to_imp,
    reduce_mod2_single_linear,
    reduce_mod2_unary,
    reduce_tautdnf_d2,
    reduce_tautdnf_monotone,
)

__version__ = "0.1.0"
