"""Exact Pauli/Clifford algebra over finite abelian groups: generator-gate
compilation, stabilizer simulation and a dense verification oracle."""

from .clifford import (AutomorphismGate, CliffordTableau, CXGate, FourierGate,
                       PauliGate, QuadraticGate, gate_image, gate_tableau,
                       sequence_tableau, two_local_factorize)
from .errors import (BackendCapabilityError, DegenerateFormError,
                     GroupMismatchError, IncompleteTableError,
                     NotExtendableError, NotInvertibleError,
                     NotSymplecticError, PreconditionFailedError,
                     ReductionError, ResourceCapError)
from .forms import (Character, QuadraticForm, SymmetricBilinearForm, i_xi,
                    is_nondegenerate, is_quadratic_table, lift_bilinear,
                    polarize, standard_nondegenerate_form)
from .groups import (Group, GroupElement, HomMatrix, Isomorphism, bezout,
                     canonicalize, hom_is_valid, invert_automorphism,
                     is_automorphism, make_group, parse_group, product_group)
from .pauli import PauliOperator, PauliVector, beta, embed
from .phases import Phase
from .symplectic import (SymplecticMap, decompose, decompose_clifford,
                         extend_to_automorphism, is_symplectic,
                         random_symplectic, sequence_image, tableau_image)

__version__ = "0.1.0"
