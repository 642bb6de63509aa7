from fractions import Fraction

import pytest

from qcrys.boson import (
    MODES,
    Q_DEFORMED,
    STANDARD,
    FockSpace,
    boson_ops,
    check_so3,
    check_so3_towers,
    standard_so3,
    vdj_so3,
    weight_multiplicity,
)
from qcrys.crystal import CrystalSpec, build_model
from qcrys.rep import LinOp, commutator, deform_factor
from qcrys.report import BOUNDARY, FAIL, PASS
from qcrys.scalar import Radical, qint_at

F = Fraction


def interior(space):
    return [k for k, s in enumerate(space.states) if sum(s) < space.cutoff]


class TestFockSpace:
    def test_state_count_cutoff8(self):
        assert FockSpace(8).dim == 165

    def test_membership(self):
        sp = FockSpace(3)
        assert all(sum(s) <= 3 for s in sp.states)
        assert sp.truncation_edge((1, 1, 1))
        assert not sp.truncation_edge((1, 1, 0))

    def test_rejects_negative_cutoff(self):
        with pytest.raises(ValueError):
            FockSpace(-1)


class TestBosonOps:
    def test_canonical_commutator_below_cutoff(self):
        sp = FockSpace(5)
        for mode in MODES:
            b, bc, _ = boson_ops(sp, mode, STANDARD)
            comm = commutator(b, bc)
            for k in interior(sp):
                assert comm.column(k) == {k: Radical.one()}

    def test_deformed_number_bracket(self):
        sp = FockSpace(5)
        q = F(2)
        b, bc, _ = boson_ops(sp, 0, Q_DEFORMED, q)
        prod = bc @ b
        k = sp.index[(0, 2, 0)]
        assert prod.column(k) == {k: Radical.from_rational(F(5, 2))}

    def test_deformed_up_down_bracket(self):
        sp = FockSpace(5)
        q = F(3, 2)
        b, bc, _ = boson_ops(sp, 1, Q_DEFORMED, q)
        prod = b @ bc
        for k, s in enumerate(sp.states):
            if sum(s) < sp.cutoff:
                assert prod.column(k) == {
                    k: Radical.from_rational(qint_at(s[0] + 1, q))
                }

    def test_q1_equals_standard(self):
        sp = FockSpace(4)
        for mode in MODES:
            std = boson_ops(sp, mode, STANDARD)
            dfm = boson_ops(sp, mode, Q_DEFORMED, 1)
            for a, b in zip(std, dfm):
                assert a == b

    def test_mode_locality(self):
        # Distinct modes commute away from the truncation edge, where a
        # creator on one mode is cut short.
        sp = FockSpace(4)
        q = F(2)
        ops1 = boson_ops(sp, 1, Q_DEFORMED, q)
        ops0 = boson_ops(sp, 0, Q_DEFORMED, q)
        for x in ops1:
            for y in ops0:
                comm = commutator(x, y)
                for k in interior(sp):
                    assert not comm.column(k)

    def test_number_operator(self):
        sp = FockSpace(3)
        _, _, num = boson_ops(sp, -1, STANDARD)
        k = sp.index[(0, 1, 2)]
        assert num.column(k) == {k: Radical.from_rational(2)}

    def test_bad_mode_and_kind(self):
        sp = FockSpace(2)
        with pytest.raises(ValueError):
            boson_ops(sp, 2, STANDARD)
        with pytest.raises(ValueError):
            boson_ops(sp, 1, "WEIRD")


class TestVdjRealization:
    @pytest.mark.parametrize("q", [F(2), F(3, 2)])
    def test_cartan_ladder_relations(self, q):
        sp = FockSpace(6)
        lp, lm, l0 = vdj_so3(sp, q)
        r1 = commutator(l0, lp) - lp
        r2 = commutator(l0, lm) + lm
        for k in interior(sp):
            assert not r1.column(k)
            assert not r2.column(k)

    @pytest.mark.parametrize("q", [F(2), F(3, 2)])
    def test_ladder_bracket(self, q):
        sp = FockSpace(6)
        lp, lm, l0 = vdj_so3(sp, q)
        comm = commutator(lp, lm)
        for k in interior(sp):
            s = sp.states[k]
            expect = Radical.from_rational(qint_at(2 * (s[0] - s[2]), q))
            col = comm.column(k)
            assert col == ({k: expect} if expect else {})

    def test_q1_reduces_to_classical(self):
        sp = FockSpace(5)
        lp, lm, l0 = vdj_so3(sp, 1)
        comm = commutator(lp, lm)
        for k in interior(sp):
            s = sp.states[k]
            expect = Radical.from_rational(2 * (s[0] - s[2]))
            col = comm.column(k)
            assert col == ({k: expect} if expect else {})


class TestStandardBosonRealization:
    def test_l0_diagonal(self):
        sp = FockSpace(4)
        lp, lm, l0, n1, n2 = standard_so3(sp, F(2))
        for k, s in enumerate(sp.states):
            expect = Radical.from_rational(s[0] - s[2])
            assert l0.column(k) == ({k: expect} if expect else {})
            assert (n1 - n2).column(k) == (
                {k: expect * 2} if expect else {}
            )

    @pytest.mark.parametrize("q", [F(2), F(3, 2)])
    def test_ladder_bracket_on_multiplicity_free_states(self, q):
        # The common weight-diagonal dressing gives exact relations on
        # every basis state whose composite weight determines it uniquely.
        sp = FockSpace(8)
        lp, lm, l0, _, _ = standard_so3(sp, q)
        comm = commutator(lp, lm)
        for k in interior(sp):
            s = sp.states[k]
            if weight_multiplicity(s) > 1:
                continue
            expect = Radical.from_rational(qint_at(2 * (s[0] - s[2]), q))
            col = comm.column(k)
            assert col == ({k: expect} if expect else {})

    def test_ladder_bracket_fails_on_mixed_basis_states(self):
        # Basis states carrying several spin components cannot all satisfy
        # the bracket relation under a single weight-diagonal dressing:
        # the down-up word mixes components that need different factors.
        # Pin the analyzed residual at (0,2,1) -> (1,0,2) for q = 2.
        sp = FockSpace(8)
        q = F(2)
        lp, lm, l0, _, _ = standard_so3(sp, q)
        comm = commutator(lp, lm)
        k = sp.index[(0, 2, 1)]
        col = comm.column(k)
        t = sp.index[(1, 0, 2)]
        # 4 * ([2][5]/10 - [3][4]/12) at q = 2
        expected = 4 * (
            qint_at(2, q) * qint_at(5, q) / 10 - qint_at(3, q) * qint_at(4, q) / 12
        )
        assert col[t] == Radical.from_rational(expected)
        assert expected == F(87, 32)

    @pytest.mark.parametrize("q", [F(1), F(2), F(3, 2)])
    def test_irreducible_towers_satisfy_relations(self, q):
        # The relations hold exactly on the spin-T tower lowered from the
        # top state (T, 0, 0) of every block T (lower-spin towers unchecked).
        sp = FockSpace(6)
        report = check_so3_towers(standard_so3(sp, q), q, sp, realization="paper")
        assert report.summary["fail"] == 0
        # towers (T, m) for every block T and weight m
        assert len(report.per_state) == sum(2 * t + 1 for t in range(7))

    @pytest.mark.parametrize("q", [F(2), F(3, 2)])
    def test_vdj_towers_also_pass(self, q):
        sp = FockSpace(5)
        report = check_so3_towers(vdj_so3(sp, q), q, sp, realization="vdj")
        assert report.summary["fail"] == 0

    # Broken triples reach the tower FAIL records.  On the spin-T tower at
    # weight m, L+ vanishes only at m = T, L- only at m = -T, and [2m]_q only
    # at m = 0.  Doubling L0 breaks the two weight relations wherever L+- acts;
    # doubling L+ breaks only the bracket.  Records go in (T, m) order, then
    # relation order.
    _BROKEN = {
        "l0-doubled": (
            lambda lp, lm, l0: (lp, lm, l0 * 2),
            lambda t, m: ["[L0,L+]-L+"] * (m < t) + ["[L0,L-]+L-"] * (m > -t),
        ),
        "lp-doubled": (
            lambda lp, lm, l0: (lp * 2, lm, l0),
            lambda t, m: ["[L+,L-]-[2L0]_q"] * (m != 0),
        ),
    }

    @pytest.mark.parametrize("broken", sorted(_BROKEN))
    @pytest.mark.parametrize("q", [F(2), F(2, 3)])
    def test_broken_triple_fails_on_towers(self, broken, q):
        sp = FockSpace(2)
        lp, lm, l0, _, _ = standard_so3(sp, q)
        triple, bad = self._BROKEN[broken]
        report = check_so3_towers(triple(lp, lm, l0), q, sp, realization="paper")
        towers = [(t, m) for t in range(3) for m in range(t, -t - 1, -1)]
        assert [(r.state, r.klass) for r in report.per_state] == [
            (tm, FAIL if bad(*tm) else PASS) for tm in towers
        ]
        assert all(r.residual_zero == (r.klass == PASS) for r in report.per_state)
        assert report.failures == tuple(
            {"state": [t, m], "word": f"tower {label}", "residual": {}}
            for t, m in towers
            for label in bad(t, m)
        )
        fails = sum(1 for tm in towers if bad(*tm))
        assert fails == {"l0-doubled": 8, "lp-doubled": 6}[broken]
        assert report.summary == {"pass": 9 - fails, "fail": fails, "boundary": 0}

    @pytest.mark.parametrize("q", [F(2), F(2, 3)])
    def test_tower_that_does_not_close(self, q):
        # An L- that also maps the lowest state (0,0,1) of block T = 1 to
        # itself: at (1, -1) L- v = v, which breaks [L0,L-] = -L- and
        # [L+,L-] = [-2]_q, and the tower never reaches zero.
        sp = FockSpace(2)
        lp, lm, l0, _, _ = standard_so3(sp, q)
        k = sp.index[(0, 0, 1)]
        stuck = lm + LinOp(sp.dim, {(k, k): Radical.one()})
        report = check_so3_towers((lp, stuck, l0), q, sp, realization="paper")
        failed = [(1, -1), (1, -2)]
        towers = [(0, 0), (1, 1), (1, 0), (1, -1), (1, -2), (2, 2), (2, 1), (2, 0)]
        towers += [(2, -1), (2, -2)]
        assert [(r.state, r.klass) for r in report.per_state] == [
            (tm, FAIL if tm in failed else PASS) for tm in towers
        ]
        assert report.failures == (
            {"state": [1, -1], "word": "tower [L0,L-]+L-", "residual": {}},
            {"state": [1, -1], "word": "tower [L+,L-]-[2L0]_q", "residual": {}},
            {"state": [1, -2], "word": "tower does not close", "residual": {}},
        )
        assert report.summary == {"pass": 8, "fail": 2, "boundary": 0}
        assert not report.all_clear

    def test_q1_factor_is_identity(self):
        sp = FockSpace(5)
        lp1, lm1, l01, _, _ = standard_so3(sp, 1)
        b_lp, b_lm, b_l0 = _classical_triple(sp)
        assert lp1 == b_lp
        assert lm1 == b_lm
        assert l01 == b_l0

    def test_factor_matches_rank_one_deform_factor(self):
        # The composite-label deforming diagonal agrees with the crystal
        # model's diagonal at matching label pairs (N1, N2).
        sp = FockSpace(6)
        q = F(2)
        lp, *_ = standard_so3(sp, q)
        for total in (1, 2, 3):
            model = build_model(CrystalSpec("A", 2, 2 * total))
            f = deform_factor(model, 1, q)
            for k, s in enumerate(sp.states):
                if sum(s) != total:
                    continue
                labels = (2 * s[0] + s[1], 2 * s[2] + s[1])
                kk = model.index[labels]
                b_lp, _, _ = _classical_triple(sp)
                col_dressed = lp.column(k)
                col_plain = b_lp.column(k)
                factor_here = f.entries[(kk, kk)]
                assert col_dressed == {
                    t: v * factor_here for t, v in col_plain.items()
                }

    @pytest.mark.parametrize("j2", [1, 2, 3, 4, 5, 6])
    def test_spin_block_spectrum(self, j2):
        # Fixed total occupation T carries L0 eigenvalues -T..T.
        sp = FockSpace(6)
        eigs = {s[0] - s[2] for s in sp.states if sum(s) == j2}
        assert eigs == set(range(-j2, j2 + 1))


def _classical_triple(space):
    from qcrys.boson import _diagonal  # test-only access
    from qcrys.scalar import sqrt_rat

    b1, b1c, _ = boson_ops(space, 1, STANDARD)
    b0, b0c, _ = boson_ops(space, 0, STANDARD)
    bm1, _, _ = boson_ops(space, -1, STANDARD)
    lp = (b1c @ b0 + b0c @ bm1) * sqrt_rat(2)
    l0 = _diagonal(space, lambda s: Radical.from_rational(s[0] - s[2]))
    return lp, lp.transpose(), l0


class TestCheckSo3:
    @pytest.mark.parametrize("q", [F(1), F(2), F(3, 2)])
    def test_vdj_interior_pass(self, q):
        sp = FockSpace(6)
        report = check_so3(vdj_so3(sp, q), q, sp, realization="vdj")
        for r in report.per_state:
            if sum(r.state) < sp.cutoff:
                assert r.klass == PASS
        assert report.summary["fail"] == 0

    def test_standard_interior_pass_at_q1(self):
        sp = FockSpace(6)
        report = check_so3(standard_so3(sp, 1), 1, sp, realization="paper")
        assert report.summary["fail"] == 0
        assert all(
            r.klass == PASS for r in report.per_state if sum(r.state) < sp.cutoff
        )

    def test_standard_per_state_failures_localized_to_mixed_states(self):
        # At q != 1 the per-basis-state check fails exactly where basis
        # states mix spin components; multiplicity-free states all pass
        # and the report attributes each failure to its multiplicity.
        sp = FockSpace(6)
        q = F(2)
        report = check_so3(standard_so3(sp, q), q, sp, realization="paper")
        assert report.summary["fail"] > 0
        for r in report.per_state:
            if r.klass == FAIL:
                assert weight_multiplicity(r.state) > 1
            if sum(r.state) < sp.cutoff and weight_multiplicity(r.state) == 1:
                assert r.klass == PASS
        assert all("weight_multiplicity" in f["word"] for f in report.failures)

    def test_edge_states_are_boundary(self):
        sp = FockSpace(4)
        report = check_so3(vdj_so3(sp, F(2)), F(2), sp, realization="vdj")
        for r in report.per_state:
            assert (r.klass == BOUNDARY) == (sum(r.state) == sp.cutoff)

    def test_report_is_json_ready(self):
        sp = FockSpace(3)
        report = check_so3(standard_so3(sp, F(2)), F(2), sp, realization="paper")
        obj = report.to_json_dict()
        assert obj["relation_id"] == "so3[paper]"
        assert obj["q"] == "2"
        assert set(obj["summary"]) == {"pass", "fail", "boundary"}
