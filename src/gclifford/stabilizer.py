"""Polynomial-time stabilizer simulation over G^n with exact integer phases.

Over G^n = Z_q1 x ... x Z_qm a state is k commuting Pauli generators whose
group has order |G|^n and holds no nontrivial phase times the identity.
Generator i is an integer row ``V[i] = [x | z]`` of residues modulo the
factor orders and one phase numerator ``P[i]`` modulo D = 2*lcm(q): the
operator exp(2*pi*i*P[i]/D) X_x Z_z.  Products and powers of such rows
have closed forms, stated once in :mod:`pauli` with the ordered-product
kernel they give.

Gates act on every generator at once: a (gate, local orders) pair is
turned once into the kernel's form of its tableau (the images of the
local generators), and the local columns of all generators are exponent
rows of one ordered product.

Measurement works on the lattice L spanned by the generator rows and the
factor moduli.  L is isotropic of order |G|^n and the pairing on
G^n x (G^)^n is nondegenerate, so L is its own annihilator: for an
observable v of order q and the pairing values b_i / q of the generators
against it, t v lies in L exactly when every t b_i is 0 mod q.  So the
smallest stabilizer power t0 = q / gcd(q, b), which is also the number of
outcomes, needs one matrix-vector product and no echelon.  A random
outcome collapses the k generators with a rank-one update in O(k m): with
a Bezout vector u of the pairing values (u.b = g) and s_i = b_i / g,
generator a_i becomes a_i a_u^(-s_i) for the one product a_u = prod a_j^u_j,
which pairs trivially with the observable, and a power of a_u and the
measured operator with its outcome phase join them.  A vectorized
row echelon serves the rest: the phase of t0 v as a generator product
when t0 v is not the identity, and the replacement generators after a
collapse, whose invariants it re-checks.  Per column, the row a_j with
the smallest entry p reduces every other row by parallel Euclid steps;
once p divides every entry, one rank-one update a_i <- a_i a_j^e_i
clears the column and raises the pivot row to its smallest power that
vanishes there (e_i = -entry_i / p, e_j = t - 1).  Row updates skip the
reduction mod the factor orders: a column is reduced when it is reached,
a pivot row before it is used, and the whole matrix at the end, or on
int64 rows sooner when the growth bound of the pass says so.  The arrays
have the dtype of :func:`pauli.row_params`, and phases become ``Phase``
values only at the boundary.  Correctness is established against the
dense oracle rather than by theory alone.

Circuits run through :func:`circuits.interpret`: a sampled trajectory
collapses the state in place, and enumeration clones it per branch.
:func:`circuits.sample_records` keeps the state before each measurement
of its current path, so it clones at each trie node it computes before
the last measurement; a leaf node computes no state.
"""

from __future__ import annotations

import random as _random
from fractions import Fraction
from math import gcd

import numpy as np

from .circuits import (Circuit, MagicPrepOp, interpret, sample_outcome,
                       sample_trajectory)
from .clifford import Gate, gate_tableau
from .errors import BackendCapabilityError
from .groups import Group, product_group
from .intmat import ext_gcd
from .pauli import (PauliOperator, PauliVector, cross_matrix, ordered_product,
                    ordered_products, row_operator, row_params)

__all__ = ["StabilizerState", "run_circuit", "enumerate_branches"]

# gate tableaux and their kernel rows (one per local generator image) are
# pure data; share them across states (keys are frozen gate values plus the
# local factor orders)
_TABLEAU_CACHE: dict = {}
_CONJ_CACHE: dict = {}


class StabilizerState:
    """Pure stabilizer state of n qudits over a base group."""

    def __init__(self, base: Group, n: int, _init: bool = True):
        self.base = base
        self.n = n
        self.orders = base.orders * n
        self.m = m = len(self.orders)
        self.big = product_group(base, n)
        self.D, self.dtype, self._w, self._lorders = row_params(self.orders)
        self.V = np.zeros((m if _init else 0, 2 * m), dtype=self.dtype)
        self.P = np.zeros(len(self.V), dtype=self.dtype)
        if _init:
            self.V[:, m:] = np.eye(m, dtype=self.dtype)
        self._pivots = None

    # -- conversions ------------------------------------------------------

    def generator_operators(self) -> list[PauliOperator]:
        return [row_operator(self.big, row, p, self.D) for row, p in zip(self.V, self.P)]

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
            rows = _CONJ_CACHE[cache_key] = tab.product_rows()
        rows = rows.astype(self.dtype, copy=False)
        idxs = [s * k + f for s in slots for f in range(k)]
        cols = idxs + [self.m + i for i in idxs]
        # every slot holds the base group, so the local unit 2*lcm is D
        self.V[:, cols], inc = ordered_products(self.V[:, cols], rows, local_orders)
        self.P = (self.P + inc) % self.D
        self._pivots = None

    # -- lattice structure ---------------------------------------------------

    def _ensure_pivots(self) -> None:
        if self._pivots is not None:
            return
        V, P = self.V.copy(), self.P.copy()
        lorders, w, D, m = self._lorders, self._w, self.D, self.m
        # Row updates a_i <- a_i a_j^e skip the reduction mod the factor
        # orders; a column is reduced when it is reached, a pivot row before
        # it is used.  As |e| < D/2, an update adds less than D^2/4 to an
        # entry, so with s updates pending a phase's cross term sums m
        # entries below D/2 + s D^2/4 times weighted residues below D.  On
        # int64 that stays below 2^62 for s <= max_pending; past it the
        # whole matrix is reduced.  Python integers need no bound.
        max_pending = ((2 ** 62 // (m * D) - D) * 4 // (D * D)
                       if self.dtype is np.int64 else None)
        pending = 0
        cols, entries, vecs, phases = [], [], [], []
        for r in np.flatnonzero(V.any(0)):
            q = int(lorders[r])
            col = V[:, r]
            if pending:
                col %= q
            nz = col.nonzero()[0]
            if len(nz) == 1:
                # the pivot row alone: it continues as its smallest multiple
                # that vanishes in this column
                j = nz[0]
                if pending:
                    V[j] %= lorders
                p = int(col[j])
                cols.append(int(r))
                entries.append(p)
                vecs.append(V[j].copy())
                phases.append(P[j])
                t = q // gcd(p, q)
                s_j = (V[j, m:] @ (w * V[j, :m])) % D
                P[j] = (t * P[j] + (t * (t - 1) // 2) % D * s_j) % D
                V[j] = (t * V[j]) % lorders
                continue
            while len(nz):
                # parallel Euclid by the smallest entry (a_i <- a_i a_j^e,
                # e_j = 0); when it divides every other entry, the same
                # update also powers the pivot row (e_j = t - 1)
                cn = col[nz]
                i = cn.argmin()
                j, p = nz[i], int(cn[i])
                if pending:
                    V[j] %= lorders
                e = -(cn // p)
                last = not np.count_nonzero(cn % p)
                if last:
                    cols.append(int(r))
                    entries.append(p)
                    vecs.append(V[j].copy())
                    phases.append(P[j])
                    e[i] = q // gcd(p, q) - 1
                else:
                    e[i] = 0
                if max_pending is not None and pending > max_pending:
                    V %= lorders
                    pending = 0
                # phase P_i + e P_j + C(e, 2) s_j + e z_i.W.x_j, as
                # P_i + e (z_i.W.x_j + (e - 1) s_j / 2 + P_j) with s_j the
                # pivot's z_j.W.x_j (even, as every weight is); the reduced
                # pivot row is 0 in every column before r, and its x part
                # is 0 once r >= m
                if r < m:
                    wx = w[r:] * V[j, r:m]
                    half = (V[j, m + r:] @ wx) % D // 2
                    inc = (V[nz, m + r:] @ wx + (e - 1) * half + P[j]) % D
                else:
                    inc = P[j]
                P[nz] = (P[nz] + e * inc) % D
                V[nz, r:] += e[:, None] * V[j, r:]
                pending += 1
                nz = () if last else col.nonzero()[0]
        if (V % lorders).any():
            raise AssertionError("echelon pass left an unreduced column")
        # every row is now a product of generators equal to the identity
        bad = np.flatnonzero(P)
        if len(bad):
            raise AssertionError(
                "stabilizer invariant violated: a product of generators is a "
                f"nontrivial phase ({int(P[bad[0]])}/{D}) times the identity")
        vecs = np.array(vecs, dtype=self.dtype).reshape(len(cols), 2 * m)
        phases = np.array(phases, dtype=self.dtype)
        self._pivots = (cols, entries, vecs, phases)

    def _membership(self, w):
        """Phase numerator (mod D) of a generator product whose vector is
        ``w`` (mod the factor orders), or None when ``w`` is outside the
        stabilizer lattice."""
        self._ensure_pivots()
        cols, entries, vecs, phases = self._pivots
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
        got, phase = ordered_product(coef, vecs, phases, self.orders)
        if (got != target).any():
            raise AssertionError("membership witness does not match the power")
        return int(phase)

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
        # pairing values of each generator against the observable, as
        # integers over 1/order (exact: the observable has that order)
        w = self._w
        pair = (self.V[:, m:] @ (w * v[:m]) - self.V[:, :m] @ (w * v[m:])) % D * order
        if (pair % D).any():
            raise AssertionError("pairing against the observable is not "
                                 "a multiple of 1/order")
        bvals = [int(b) for b in pair // D % order]
        # the stabilizer lattice is its own annihilator, so t v is in it
        # exactly when t b_i = 0 mod order for every generator i
        t0 = order // gcd(order, *bvals)
        target = (t0 * v) % self._lorders
        witness = self._membership(target) if target.any() else 0
        if witness is None:
            raise AssertionError(
                f"power {t0} of the observable with residues "
                f"{[int(a) for a in v]} annihilates every generator but is "
                "not in the stabilizer lattice")
        power = (t0 * correction + t0 * (t0 - 1) // 2 * c) % D
        scaled = (power - witness) % D * order
        if scaled % (D * t0):
            raise AssertionError("outcome class is not an integer")
        cls = scaled // (D * t0) % (order // t0)
        outcomes = sorted((cls + j * (order // t0)) % order for j in range(t0))
        return outcomes, Fraction(1, t0), (v, correction, order, t0, bvals)

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
        :meth:`outcome_support`, with the generators' pairing values) is
        given; a no-op for a certain outcome."""
        v, correction, order, t0, bvals = support
        if t0 == 1:
            return
        D, orders, lorders = self.D, self.orders, self._lorders
        # Bezout vector u with u.b = g: extending gcd(g, b_j) by x g + y b_j
        # scales the earlier entries by x, so u_j is y_j times every later x
        # (t0 > 1, so some b_j is nonzero; exponents are exact mod D)
        g, steps = 0, []
        for j in np.flatnonzero(bvals):
            g, x, y = ext_gcd(g, bvals[j])
            steps.append((j, x, y))
        u = np.zeros(len(bvals), dtype=self.dtype)
        scale = 1
        for j, x, y in reversed(steps):
            u[j] = y * scale % D
            scale = scale * x % D
        s = np.array([b // g for b in bvals], dtype=self.dtype)
        c = order // gcd(g, order)
        # the exponent matrix I - s u^T, plus the row c u, is rank one: as
        # the generators commute, row i is a_i a_u^(-s_i) and the extra row
        # a_u^c for the one product a_u = prod_j a_j^u_j
        xu, pu = ordered_product(u, self.V, self.P, orders)
        cu = int(cross_matrix(xu[None], xu[None], orders)[0, 0])
        zx = cross_matrix(self.V, xu[None], orders)[:, 0]
        V = (self.V - s[:, None] * xu) % lorders
        P = (self.P - s * pu + (s * (s + 1) // 2) % D * cu - s * zx) % D
        # the measured operator joins the group with its outcome phase
        self.V = np.vstack([V, (c * xu) % lorders, v])
        self.P = np.append(P, [(c * pu + c * (c - 1) // 2 % D * cu) % D,
                               (correction - outcome * (D // order)) % D])
        self._pivots = None
        self._reduce_generators()

    def _reduce_generators(self) -> None:
        """Replace the generators by the echelon pivot rows; this bounds
        their count by 2*m and re-checks the invariants.  The pivots stay
        valid for the new rows."""
        self._ensure_pivots()
        _cols, _entries, vecs, phases = self._pivots
        self.V = vecs.copy()
        self.P = phases.copy()

    # -- validation --------------------------------------------------------

    def validate(self) -> None:
        """Check the power relation of every generator, their pairwise
        commutation and the order of the group they generate; a failure
        names the generator or the pair."""
        V, P, D = self.V, self.P, self.D
        lorders = self._lorders
        S = cross_matrix(V, V, self.orders)
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
