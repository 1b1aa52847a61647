"""The optical pipeline against a brute-force oracle.

Between the curves and alpha the package takes shortcuts: trimmed spans, the
contracted basis, floor pruning of linewidth blocks, solves side by side, the
in-place dsyevd and the one walk over the branches. The oracle takes none of
them. It solves each (state, J) block with np.linalg.eigh of the full-grid
Hamiltonian, written out here, and keeps the lowest max_levels levels below
the asymptote. Its angular factors are sympy's 3-j symbols. Each linewidth is
an explicit Einstein-A sum over every lower level and every lower M, and alpha
is a per-line Python sum.

Every line quantity may differ only by what the package's certificates allow.
A level's energy is within RESIDUAL_TOL of an eigenvalue. Its vector is
within RESIDUAL_TOL / gap (Davis-Kahan) plus a trimmed tail of n entries of at
most EDGE_AMP each. The alpha tolerance carries those bounds through each
line's d^2 z / (z^2 - nu^2).
"""

import functools
import math
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st
from sympy.physics.wigner import wigner_3j

from molpol import (
    ALPHA_HZ_PER_WCM2,
    EINSTEIN_A_FACTOR,
    HBAR2_OVER_TWO,
    MHZ_CM1,
    DipoleCurve,
    ElectronicState,
    LevelId,
    LineListOptions,
    MoleculeDataset,
    MorseModel,
    Polarization,
    PotentialCurve,
    RadialGrid,
    alpha_at,
    build_line_list,
)
from molpol import rovib
from molpol.coupling import POLARIZATIONS
from molpol.rovib import BOUND_GUARD, EDGE_AMP, RESIDUAL_TOL

MU = 200.0   # heavy enough that J = 1 contracts at max_levels = 8


@functools.cache
def _w3j_squared(j1, j3, m1, m2, m3) -> float:
    return float(wigner_3j(j1, 1, j3, m1, m2, m3) ** 2)


@st.composite
def _molecules(draw):
    """Two or three Morse states on one 201-301 point grid, every pair and the
    ground state itself joined by a linear dipole curve. The ground state X
    has omega 0; the others omega 0 or 1."""
    grid = RadialGrid(5.5, 14.0, draw(st.integers(201, 301)))
    r = grid.points
    states, potentials = [], {}
    for k in range(draw(st.integers(2, 3))):
        omega = draw(st.integers(0, 1)) if k else 0
        parity = draw(st.sampled_from(["+", "-"])) if omega == 0 else None
        offset = 0.0 if k == 0 else draw(st.floats(6000.0, 12000.0))
        well = MorseModel(draw(st.floats(1500.0, 3000.0)), draw(st.floats(0.45, 0.6)), draw(st.floats(7.6, 8.6)))
        state = ElectronicState("XAB"[k], omega, offset, parity)
        states.append(state)
        potentials[state.label] = PotentialCurve(state, r, offset + well.value(r))
    labels = [s.label for s in states]
    pairs = [("X", "X")] + [(a, b) for i, a in enumerate(labels) for b in labels[i + 1 :]]
    dipoles = [
        DipoleCurve(a, b, r, draw(st.floats(0.5, 5.0)) + draw(st.floats(-0.5, 0.5)) * (r - 8.0)) for a, b in pairs
    ]
    return MoleculeDataset("oracle", MU, states, potentials, dipoles, "X"), grid


def _routed(ds, a, b):
    """The dipole curve joining states a and b, unless omega 0+ <-> 0- forbids it."""
    dip = ds.dipole_between(a, b)
    sa, sb = ds.state(a), ds.state(b)
    if dip is None or (sa.omega == sb.omega == 0 and (sa.parity_tag or "+") != (sb.parity_tag or "+")):
        return None
    return dip


class _Oracle:
    """Full-grid levels of every (state, J) block, solved on first use."""

    def __init__(self, ds, grid, max_levels):
        self.ds, self.grid, self.max_levels = ds, grid, max_levels
        n, h = grid.n, grid.h
        k = np.subtract.outer(np.arange(n), np.arange(n))
        off = 2.0 * np.where(k % 2, -1.0, 1.0) / np.where(k == 0, 1, k * k)
        self.kinetic = np.where(k == 0, math.pi**2 / 3.0, off) * HBAR2_OVER_TWO / (MU * h * h)
        self.blocks, self.gammas = {}, {}

    def block(self, state, J):
        """(energies, wavefunctions as rows, eps): the kept levels and a bound on
        the norm of each kept vector's error in the package."""
        if (state, J) not in self.blocks:
            r = self.grid.points
            v = self.ds.potentials[state](r) + HBAR2_OVER_TWO * J * (J + 1) / (MU * r * r)
            e, x = np.linalg.eigh(self.kinetic + np.diag(v))
            k = min(self.max_levels, int(np.count_nonzero(e < self.ds.state(state).asymptote_energy - BOUND_GUARD)))
            gap = np.diff(e[: k + 1]).min() if k else math.inf
            eps = RESIDUAL_TOL / gap + math.sqrt(self.grid.n) * EDGE_AMP
            self.blocks[state, J] = (e[:k], x[:, :k].T / math.sqrt(self.grid.h), eps)
        return self.blocks[state, J]

    def dipoles(self, dip, a, b):
        """<a| d(R) |b> between two blocks' levels by grid quadrature, and the bound max |d(R)|."""
        d_r = dip(self.grid.points)
        return self.block(*a)[1] @ (self.block(*b)[1] * d_r).T * self.grid.h, np.abs(d_r).max()

    def linewidths(self, state, J):
        """(gammas, bounds on their errors) in MHz of a block's levels: every
        emission to a lower level, summed over the lower M and q from M = 0."""
        if (state, J) in self.gammas:
            return self.gammas[state, J]
        e_up, _, eps_up = self.block(state, J)
        omega = self.ds.state(state).omega
        total, bound = np.zeros(len(e_up)), np.zeros(len(e_up))
        routed = np.zeros(len(e_up), dtype=bool)
        for lo in sorted(self.ds.states, key=lambda s: s.label):
            dip = _routed(self.ds, state, lo.label)
            if dip is None:
                continue
            for J_lo in range(max(lo.omega, J - 1), J + 2):
                branch = sum(
                    (2 * J_lo + 1) * (2 * J + 1) * _w3j_squared(J_lo, J, -q, q, 0)
                    * _w3j_squared(J_lo, J, -lo.omega, lo.omega - omega, omega)
                    for q in (-1, 0, 1)
                )
                if branch == 0.0:
                    continue
                e_lo, _, eps_lo = self.block(lo.label, J_lo)
                d, d_max = self.dipoles(dip, (state, J), (lo.label, J_lo))
                dd = d_max * (eps_up + eps_lo)
                for v, e in enumerate(e_up):
                    for nu, dv in zip((e - e_lo).tolist(), d[v].tolist()):
                        if nu > 0.0:
                            routed[v] = True
                            total[v] += EINSTEIN_A_FACTOR * nu**3 * dv * dv * branch
                            # nu within 2 RESIDUAL_TOL, |d| within dd
                            bound[v] += EINSTEIN_A_FACTOR * branch * (
                                3.0 * nu * nu * 2.0 * RESIDUAL_TOL * dv * dv + nu**3 * (2.0 * abs(dv) + dd) * dd
                            )
        scale = 2.0 * math.pi * 1.0e6
        gammas = np.where(routed, total / scale, self.ds.default_gamma)
        self.gammas[state, J] = (gammas, np.where(routed, (bound + 1e-13 * total) / scale, 0.0))
        return self.gammas[state, J]

    def lines(self, initial, pol):
        """{(state, v, J', M', q): (weight, d, delta_e, gamma, bounds)} of every
        line out of the initial level, with d_floor = 0."""
        ds, J, M = self.ds, initial.J, initial.M
        omega = ds.state(initial.state).omega
        e_i, _, eps_i = self.block(initial.state, J)
        out = {}
        for fin in sorted(ds.states, key=lambda s: s.label):
            dip = _routed(ds, initial.state, fin.label)
            if dip is None:
                continue
            for Jp in range(max(fin.omega, J - 1), J + 2):
                e_f, _, eps_f = self.block(fin.label, Jp)
                d, d_max = self.dipoles(dip, (fin.label, Jp), (initial.state, J))
                for q, amp in POLARIZATIONS[pol]:
                    Mp = M + q
                    w = abs(amp) ** 2 * (2 * J + 1) * (2 * Jp + 1)
                    w *= _w3j_squared(Jp, J, -Mp, q, M) * _w3j_squared(Jp, J, -fin.omega, fin.omega - omega, omega)
                    if w == 0.0:
                        continue
                    gammas, d_gammas = self.linewidths(fin.label, Jp)
                    for vf in range(len(e_f)):
                        if (fin.label, vf, Jp) != (initial.state, initial.v, J):
                            out[fin.label, vf, Jp, Mp, q] = (
                                w, d[vf, initial.v], e_f[vf] - e_i[initial.v], gammas[vf], d_max * (eps_i + eps_f), d_gammas[vf]
                            )
        return out


def _alpha_and_bound(lines, nu):
    """alpha/h at nu as a per-line Python sum, and the bound on the package's
    deviation that the lines' own bounds allow."""
    alpha, bound = 0j, 0.0
    for w, d, delta, gamma, dd, d_gamma in lines:
        z = complex(delta, -0.5 * gamma * MHZ_CM1)
        f = z / (z * z - nu * nu)
        df = abs((z * z + nu * nu) / (z * z - nu * nu) ** 2)
        dz = 2.0 * RESIDUAL_TOL + 0.5 * MHZ_CM1 * d_gamma
        alpha += ALPHA_HZ_PER_WCM2 * w * d * d * f
        bound += ALPHA_HZ_PER_WCM2 * w * ((2.0 * abs(d) + dd) * dd * abs(f) + d * d * df * dz + 1e-13 * d * d * abs(f))
    return alpha, bound


@settings(max_examples=12, deadline=None)
@given(
    drawn=_molecules(),
    max_levels=st.integers(8, 16),
    v=st.integers(0, 2),
    J=st.integers(0, 3),
    M=st.integers(0, 6),
    pol=st.sampled_from(sorted(POLARIZATIONS)),
)
def test_line_list_and_alpha_match_the_brute_force_oracle(drawn, max_levels, v, J, M, pol):
    ds, grid = drawn
    initial = LevelId("X", v, J, M % (2 * J + 1) - J)

    contracted, trimmed = [], []
    contract, eigensolve = rovib._contract, rovib._eigensolve

    def counting_contract(*args):
        basis = contract(*args)
        contracted.append(basis is not None)
        return basis

    def counting_eigensolve(*args):
        basis = eigensolve(*args)
        trimmed.append(basis is not None and args[5].stop - args[5].start < grid.n)
        return basis

    opts = LineListOptions(grid=grid, max_levels=max_levels, gamma="computed", d_floor=0.0)
    with mock.patch.object(rovib, "_contract", counting_contract), mock.patch.object(
        rovib, "_eigensolve", counting_eigensolve
    ):
        got = build_line_list(ds, initial, Polarization.parse(pol), opts)
    # every example takes both shortcuts the oracle leaves out
    assert any(contracted) and any(trimmed)

    want = _Oracle(ds, grid, max_levels).lines(initial, pol)
    assert sorted((ln.state, ln.v, ln.J, ln.M, ln.q) for ln in got) == sorted(want)
    for ln in got:
        w, d, delta, gamma, dd, d_gamma = want[ln.state, ln.v, ln.J, ln.M, ln.q]
        assert abs(ln.weight - w) <= 1e-15 * w
        assert abs(abs(ln.d_vib) - abs(d)) <= dd + 1e-13 * abs(d)
        assert abs(ln.delta_e - delta) <= 2.0 * RESIDUAL_TOL + 1e-13 * abs(delta)
        assert abs(ln.gamma - gamma) <= d_gamma

    # probes between neighbouring line frequencies, below the lowest and above the highest
    poles = np.unique([abs(ln.delta_e) for ln in got])
    probes = np.concatenate(([0.0], 0.5 * (poles[1:] + poles[:-1]), [1.5 * poles[-1]]))
    for nu in probes.tolist():
        alpha, bound = _alpha_and_bound(want.values(), nu)
        assert abs(alpha_at(got, nu) - alpha) <= bound
