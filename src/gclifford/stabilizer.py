"""Polynomial-time stabilizer simulation over G^n with exact integer phases.

Over G^n = Z_q1 x ... x Z_qm a state is k commuting Pauli generators whose
group has order |G|^n and holds no nontrivial phase times the identity.
Generator i is an integer row ``V[i] = [x | z]`` of residues modulo the
factor orders and one phase numerator ``P[i]`` modulo D = 2*lcm(q): the
operator exp(2*pi*i*P[i]/D) X_x Z_z.  With w_j = D/q_j every operation on
raw Paulis has a closed form in these integers:

    phase(a b)   = p_a + p_b + sum_j z_a[j] x_b[j] w_j            (mod D)
    phase(a^k)   = k p_a + C(k, 2) c_a,   c_a = sum_j z_a[j] x_a[j] w_j

for every integer k, and reducing residues never changes them
(q_j x w_j = D x).  So the ordered product a_1^e_1 ... a_k^e_k of
generators with cross matrix S_ij = z_i.W.x_j has phase
e.(p - diag(S)/2) + e.T.e, where T = triu(S, 1) + diag(S)/2 (each S_ii is
even because each w_j is), and exponents may be reduced mod D.

Gates act on every generator at once: a (gate, local orders) pair is
turned once into integer rows holding the images of the local generators,
their phases and their cross matrix, and the local columns E of all
generators map to E @ images with the product-form phase increment.

Measurement works on the lattice spanned by the generator rows and the
factor moduli.  A vectorized row echelon (per column, every other row is
reduced by the row with the smallest entry until one pivot is left, the
phases following the closed forms) answers membership queries exactly,
finds the smallest power of the observable inside the stabilizer group,
and yields the replacement generators after a collapse.  Arrays are int64
when a bound on every intermediate value fits in 63 bits, and otherwise
hold Python integers (dtype=object) running the same code.  Phases become
``Phase`` values only at the boundary.  Correctness is established against
the dense oracle rather than by theory alone.

Circuits run through :func:`circuits.interpret`; a sampled measurement
collapses the state in place, and only enumeration clones it per branch.
"""

from __future__ import annotations

import random as _random
from fractions import Fraction
from math import gcd, lcm

import numpy as np

from .circuits import (Circuit, MagicPrepOp, interpret, sample_outcome,
                       sample_trajectory)
from .clifford import Gate, gate_tableau
from .errors import BackendCapabilityError
from .forms import Character
from .groups import Group, GroupElement, product_group
from .intmat import ext_gcd
from .pauli import PauliOperator, PauliVector
from .phases import Phase

__all__ = ["StabilizerState", "run_circuit", "enumerate_branches"]

# gate tableaux and their integer conjugation rows are pure data; share them
# across states (keys are frozen gate values plus the local factor orders)
_TABLEAU_CACHE: dict = {}
_CONJ_CACHE: dict = {}


def _int_dtype(m: int, D: int):
    """int64 when every intermediate fits: each is a sum of at most 8m
    products of two values below D (residues, phases, exponents and
    weights are kept reduced); Python integers otherwise."""
    return np.int64 if 8 * m * D * D < 2 ** 62 else object


def _product_form(S):
    """(half, T) for the cross matrix S of some generators: their ordered
    product with exponents e has phase e @ (p - half) + e @ T @ e."""
    half = np.diagonal(S) // 2
    return half, np.triu(S, 1) + np.diag(half)


def _ordered_phase(E, base, T, D: int):
    """Phases mod D of the ordered products with exponent rows E, for
    generators with ``base`` = p - half and product matrix T."""
    return (E @ base + ((E @ T) % D * E).sum(1)) % D


def _conjugation_rows(tab) -> np.ndarray:
    """Integer form of a tableau over local orders q, in units of
    D_q = 2*lcm(q): one row per local generator image u_i (X block, then
    Z block) holding [x(u_i) | z(u_i) | phase(u_i) - half_i | T[i]]."""
    orders = tab.group.orders
    dq = 2 * lcm(*orders)
    w = len(orders)
    dtype = _int_dtype(w, dq)
    imgs = tab.x_images + tab.z_images
    U = np.array([img.x.residues + img.z.residues for img in imgs], dtype=dtype)
    phases = []
    for img in imgs:
        num = img.phase.frac * dq
        if num.denominator != 1:
            raise AssertionError(f"gate image phase {img.phase} is not a "
                                 f"multiple of 1/{dq}")
        phases.append(int(num))
    weights = np.array([dq // q for q in orders], dtype=dtype)
    S = (U[:, w:] @ (weights * U[:, :w]).T) % dq
    half, T = _product_form(S)
    base = (np.array(phases, dtype=dtype) - half) % dq
    return np.hstack([U, base[:, None], T])


def _divisors(n: int) -> list[int]:
    """Ascending divisors of n > 0, from its factorization."""
    divs = [1]
    p = 2
    while n > 1:
        if p * p > n:
            p = n
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        divs = [d * p ** i for d in divs for i in range(e + 1)]
        p += 1
    return sorted(divs)


class StabilizerState:
    """Pure stabilizer state of n qudits over a base group."""

    def __init__(self, base: Group, n: int, _init: bool = True):
        self.base = base
        self.n = n
        self.orders = base.orders * n
        self.m = m = len(self.orders)
        self.big = product_group(base, n)
        self.D = D = 2 * lcm(*self.orders)
        self.dtype = _int_dtype(m, D)
        self._lorders = np.array(self.orders * 2, dtype=self.dtype)
        self._w = np.array([D // q for q in self.orders], dtype=self.dtype)
        self.V = np.zeros((m if _init else 0, 2 * m), dtype=self.dtype)
        self.P = np.zeros(len(self.V), dtype=self.dtype)
        if _init:
            self.V[:, m:] = np.eye(m, dtype=self.dtype)
        self._pivots = None

    # -- raw generator algebra ------------------------------------------

    def _cross(self, A, B):
        """S_ij = z(A_i) . W . x(B_j) mod D for rows A and B."""
        m = self.m
        return (A[:, m:] @ (self._w * B[:, :m]).T) % self.D

    def _combine(self, C, V, P):
        """Rows and phases of the ordered products prod_j V_j^C[r, j]."""
        half, T = _product_form(self._cross(V, V))
        C = C % self.D
        return (C @ V) % self._lorders, _ordered_phase(C, (P - half) % self.D, T, self.D)

    # -- conversions ------------------------------------------------------

    def generator_operators(self) -> list[PauliOperator]:
        m, big = self.m, self.big
        return [PauliOperator(big, Phase(int(p), self.D),
                              GroupElement(big, tuple(int(a) for a in row[:m])),
                              Character(big, tuple(int(a) for a in row[m:])))
                for row, p in zip(self.V, self.P)]

    def clone(self) -> "StabilizerState":
        out = StabilizerState(self.base, self.n, _init=False)
        out.V = self.V.copy()
        out.P = self.P.copy()
        out._pivots = self._pivots  # never mutated, only replaced
        return out

    # -- gates -------------------------------------------------------------

    def apply_gate(self, gate: Gate, slots) -> None:
        k = self.base.num_factors
        local_orders = self.base.orders * len(slots)
        cache_key = (gate, local_orders)
        rows = _CONJ_CACHE.get(cache_key)
        if rows is None:
            if len(_TABLEAU_CACHE) > 4096:
                _TABLEAU_CACHE.clear()
                _CONJ_CACHE.clear()
            tab = gate_tableau(gate, Group(local_orders))
            _TABLEAU_CACHE[cache_key] = tab
            rows = _CONJ_CACHE[cache_key] = _conjugation_rows(tab)
        rows = rows.astype(self.dtype, copy=False)
        idxs = [s * k + f for s in slots for f in range(k)]
        cols = idxs + [self.m + i for i in idxs]
        w2 = len(cols)
        E = self.V[:, cols]
        self.V[:, cols] = (E @ rows[:, :w2]) % self._lorders[cols]
        # every slot holds the base group, so the rows' unit 2*lcm is D
        inc = _ordered_phase(E, rows[:, w2], rows[:, w2 + 1:], self.D)
        self.P = (self.P + inc) % self.D
        self._pivots = None

    # -- lattice structure ---------------------------------------------------

    def _ensure_pivots(self) -> None:
        if self._pivots is not None:
            return
        V, P = self.V.copy(), self.P.copy()
        lorders, w, D, m = self._lorders, self._w, self.D, self.m
        cols, entries, vecs, phases = [], [], [], []
        for r in np.flatnonzero(V.any(0)):
            col = V[:, r]
            nz = np.flatnonzero(col)
            while len(nz) > 1:
                # parallel Euclid: reduce every other row by the smallest
                j = nz[np.argmin(col[nz])]
                rest = nz[nz != j]
                c = col[rest] // col[j]
                # a_i <- a_i a_j^(-c): phase of the power plus the cross term
                wx = w * V[j, :m]
                s_j = (V[j, m:] @ wx) % D
                cross = (V[rest, m:] @ wx) % D
                P[rest] = (P[rest] - c * P[j] + (c * (c + 1) // 2) % D * s_j
                           - c * cross) % D
                V[rest] = (V[rest] - c[:, None] * V[j]) % lorders
                nz = np.flatnonzero(col)
            if len(nz):
                j = nz[0]
                p, q = int(col[j]), int(lorders[r])
                cols.append(int(r))
                entries.append(p)
                vecs.append(V[j].copy())
                phases.append(P[j])
                # the pivot row continues as its smallest multiple that
                # vanishes in this column
                t = q // gcd(p, q)
                s_j = (V[j, m:] @ (w * V[j, :m])) % D
                P[j] = (t * P[j] + (t * (t - 1) // 2) % D * s_j) % D
                V[j] = (t * V[j]) % lorders
        if V.any():
            raise AssertionError("echelon pass left an unreduced column")
        # every row is now a product of generators equal to the identity
        bad = np.flatnonzero(P)
        if len(bad):
            raise AssertionError(
                "stabilizer invariant violated: a product of generators is a "
                f"nontrivial phase ({int(P[bad[0]])}/{D}) times the identity")
        vecs = np.array(vecs, dtype=self.dtype).reshape(len(cols), 2 * m)
        phases = np.array(phases, dtype=self.dtype)
        half, T = _product_form(self._cross(vecs, vecs))
        self._pivots = (cols, entries, vecs, phases, (phases - half) % D, T)

    def _membership(self, w):
        """Phase numerator (mod D) of a generator product whose vector is
        ``w`` (mod the factor orders), or None when ``w`` is outside the
        stabilizer lattice."""
        self._ensure_pivots()
        cols, entries, vecs, _phases, base, T = self._pivots
        lorders = self._lorders
        target = w % lorders
        residual = target
        coef = np.zeros(len(cols), dtype=self.dtype)
        for idx, (r, p) in enumerate(zip(cols, entries)):
            rem = int(residual[r])
            if not rem:
                continue
            mr = int(lorders[r])
            g = gcd(p, mr)
            if rem % g:
                return None
            xcoef = (rem // g) * pow(p // g, -1, mr // g) % (mr // g)
            residual = (residual - xcoef * vecs[idx]) % lorders
            coef[idx] = xcoef
        if residual.any():
            return None
        if ((coef @ vecs - target) % lorders).any():
            raise AssertionError("membership witness does not match the power")
        return int(_ordered_phase(coef[None], base, T, self.D)[0])

    # -- measurement -----------------------------------------------------------

    def outcome_support(self, vec: PauliVector):
        """(sorted outcome labels, probability of each) without collapsing."""
        if vec.group != self.big:
            raise ValueError("observable is not over the state's group")
        m, D = self.m, self.D
        order = vec.order
        v = np.array(vec.x.residues + vec.z.residues, dtype=self.dtype)
        c = int(v[m:] @ (self._w * v[:m])) % D
        # the canonical observable: phase chosen so its order-th power is 1,
        # from the bare power's phase reduced mod D (this fixes the labels)
        residue = order * (order - 1) // 2 * c % D
        if residue % order:
            raise AssertionError("canonical observable phase is not a "
                                 f"multiple of 1/{D}")
        correction = -(residue // order) % D
        for t in _divisors(order):
            witness = self._membership(t * v)
            if witness is not None:
                t0 = t
                break
        else:
            raise AssertionError("no power of the observable is a stabilizer")
        power = (t0 * correction + t0 * (t0 - 1) // 2 * c) % D
        scaled = (power - witness) % D * order
        if scaled % (D * t0):
            raise AssertionError("outcome class is not an integer")
        cls = scaled // (D * t0) % (order // t0)
        outcomes = sorted((cls + j * (order // t0)) % order for j in range(t0))
        return outcomes, Fraction(1, t0), (v, correction, order, t0)

    def measure(self, vec: PauliVector, rng=None):
        """Measure a Pauli vector observable; returns (outcome, probability).

        The observable's canonical unitary has exact order m; outcomes are
        exponents s with eigenvalue exp(2*pi*i*s/m), drawn from ``rng`` by
        the interpreter's rule (:func:`circuits.sample_outcome`).
        """
        outcomes, prob, support = self.outcome_support(vec)
        s, _ = sample_outcome(rng if rng is not None else _random.Random(),
                              [(o, prob) for o in outcomes])
        self._collapse(support, s)
        return s, prob

    def _collapse(self, support, outcome: int) -> None:
        """Project onto ``outcome`` of the observable whose support (from
        :meth:`outcome_support`) is given; a no-op for a certain outcome."""
        v, correction, order, t0 = support
        if t0 == 1:
            return
        m, D = self.m, self.D
        w = self._w
        # pairing values of each generator against the observable, as
        # integers over 1/order (exact: the observable has that order)
        pair = (self.V[:, m:] @ (w * v[:m]) - self.V[:, :m] @ (w * v[m:])) % D * order
        if (pair % D).any():
            raise AssertionError("pairing against the observable is not "
                                 "a multiple of 1/order")
        bvals = [int(b) for b in pair // D % order]
        k = len(bvals)
        if any(bvals):
            first = next(j for j in range(k) if bvals[j])
            g = bvals[first]
            u = [0] * k
            u[first] = 1
            for j in range(first + 1, k):
                if bvals[j]:
                    g2, xc, yc = ext_gcd(g, bvals[j])
                    u = [xc * val for val in u]
                    u[j] += yc
                    g = g2
            # exponents are exact mod D, so the Bezout growth is cut there
            u = np.array([val % D for val in u], dtype=self.dtype)
            steps = np.array([b // g for b in bvals], dtype=self.dtype)
            C = np.eye(k, dtype=self.dtype) - steps[:, None] * u
            C = np.vstack([C, (order // gcd(g, order)) * u]) % D
            C = C[(C != 0).any(1)]
            V, P = self._combine(C, self.V, self.P)
        else:
            V, P = self.V, self.P
        # the measured operator joins the group with its outcome phase
        self.V = np.vstack([V, v])
        self.P = np.append(P, (correction - outcome * (D // order)) % D)
        self._pivots = None
        self._reduce_generators()

    def _reduce_generators(self) -> None:
        """Replace the generators by the echelon pivot rows; this bounds
        their count by 2*m and re-checks the invariants.  The pivots stay
        valid for the new rows."""
        self._ensure_pivots()
        _cols, _entries, vecs, phases, _base, _T = self._pivots
        self.V = vecs.copy()
        self.P = phases.copy()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check the power relation of every generator, their pairwise
        commutation and the order of the group they generate; a failure
        names the generator or the pair."""
        V, P, D = self.V, self.P, self.D
        lorders = self._lorders
        S = self._cross(V, V)
        c = np.diagonal(S)
        orders = np.lcm.reduce(lorders // np.gcd(V, lorders), axis=1)
        power = (orders * P + (orders * (orders - 1) // 2) % D * c) % D
        for i in np.flatnonzero(power):
            raise AssertionError(
                f"generator {i} violates the power relation: its order "
                f"{orders[i]}-th power is phase {int(power[i])}/{D} times "
                "the identity")
        for i, j in np.argwhere((S - S.T) % D):
            raise AssertionError(f"generators {i} and {j} do not commute")
        self._ensure_pivots()
        cols, entries, *_ = self._pivots
        size = 1
        for r, p in zip(cols, entries):
            size *= int(lorders[r]) // gcd(p, int(lorders[r]))
        if size != self.big.order:
            raise AssertionError(
                f"stabilizer group has order {size}, expected {self.big.order}")


class _Backend:
    """The stabilizer backend as :func:`circuits.interpret` drives it."""

    unit = Fraction(1)

    @staticmethod
    def apply(state: StabilizerState, gate: Gate, slots) -> StabilizerState:
        state.apply_gate(gate, slots)
        return state

    @staticmethod
    def outcomes(state: StabilizerState, vec: PauliVector):
        outcomes, prob, support = state.outcome_support(vec)
        return [(s, prob) for s in outcomes], support

    @staticmethod
    def project(state: StabilizerState, support, outcome: int, last: bool):
        branch = state if last else state.clone()
        branch._collapse(support, outcome)
        return branch


def _initial_state(circuit: Circuit) -> StabilizerState:
    if any(isinstance(op, MagicPrepOp) for op in circuit.ops):
        raise BackendCapabilityError(
            "magic state preparation is not a stabilizer operation")
    return StabilizerState(circuit.base, circuit.n)


def run_circuit(circuit, rng=None, seed=None):
    """Run a Clifford circuit on the stabilizer backend."""
    return sample_trajectory(circuit, _Backend, _initial_state(circuit), rng, seed)


def enumerate_branches(circuit):
    """Every measurement branch as (record, StabilizerState, exact prob)."""
    return interpret(circuit, _Backend, _initial_state(circuit))
