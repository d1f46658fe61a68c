"""Exact arithmetic on iterated Laurent series fields.

Truncated elements of k'((t_1, ..., t_n)) carry per-level precision windows;
on top of that kernel the package provides the valuation tower with its
uniformizer systems and coefficient-field liftings, differential forms with
a residue functional, O_1-lattices with refinements, a certified algebra of
local operators with finite-potent traces, and the global residue theorem on
the projective line.
"""

from .errors import (
    DivisionByZero,
    IndeterminateValuation,
    InsufficientPrecision,
    LocalFieldError,
    NotCertifiable,
    NotUniformizers,
    ParseError,
)
from .scalars import BaseField, ExtField, ExtScalar, ext_norm, ext_trace, make_extension
from .series import (
    DEFAULT_WINDOW,
    Series,
    agree_within_window,
    newton_inverse_1d,
    random_series,
)
from .tlf import (
    ArtinianQuotient,
    LiftingSpec,
    LiftingSystem,
    SubstitutionIso,
    TlfDescriptor,
    UniformizerSystem,
    change_of_lifting_matrix,
    parametrize,
    sigma_expand,
    validate_uniformizers,
)
from .forms import AbstractForm, Const, Gen, SeparatedForm, Sym, dlog, dlog_element
from .residue import (
    ExtensionSpec,
    counterexample_char0,
    res_tlf,
    residue_pairing,
    tate_residue_dim1,
    trace_forms,
)
from .lattices import (
    Lattice,
    LatticePair,
    QuotientModule,
    Refinement,
    contains,
    find_refinement,
    lattice_normal_form,
    quotient_module,
    standard_lattice,
)
from .bt_ops import (
    AddOp,
    Certificate,
    CoeffLift,
    Compose,
    DiffOp,
    FiniteRank,
    LevelProjection,
    MulBy,
    ScalarMul,
    certify_membership,
    cubical_projectors,
    decompose_identity,
    finite_potent_trace,
    verify_lifting_independence,
)
from .geom import (
    ClosedPoint,
    RationalForm,
    enumerate_closed_points,
    global_residue_sum,
    global_residues,
    local_expansion,
    local_residue,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
