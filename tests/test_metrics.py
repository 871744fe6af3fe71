import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from etrcast.losses import LossConfig, asymmetric_loss, mse_loss, piecewise_loss, piecewise_loss_vec
from etrcast.metrics import (
    EvalReport,
    PredictionSet,
    csi,
    eval_report,
    format_report,
    opr8,
    rmse,
    upr,
    wae,
)

from _reference_table import SCORECARD, iter_cells

CFG = LossConfig()


class TestLossBranches:
    def test_required_values(self):
        assert piecewise_loss(-2.0, CFG) == 10.0
        assert piecewise_loss(4.0, CFG) == 4.0
        assert piecewise_loss(10.0, CFG) == 20.0

    def test_one_sided_limits_at_zero(self):
        h = 1e-9
        assert abs(piecewise_loss(-h, CFG) - 0.0) < 1e-8
        assert abs(piecewise_loss(h, CFG) - 0.0) < 1e-8
        assert piecewise_loss(0.0, CFG) == 0.0

    def test_jump_at_tau(self):
        h = 1e-12
        below = piecewise_loss(8.0, CFG)
        above = piecewise_loss(8.0 + 1e-6, CFG)
        assert below == 8.0  # tau belongs to the middle branch
        assert abs(above - 16.0) < 1e-5
        # jump size (beta - 1) * tau = 8
        assert abs((2.0 * 8.0) - below - 8.0) < 1e-12

    def test_vector_matches_scalar(self):
        eps = np.array([-3.0, -0.5, 0.0, 2.0, 8.0, 9.0, 20.0])
        vec = piecewise_loss_vec(eps, CFG)
        for e, v in zip(eps, vec):
            assert v == piecewise_loss(float(e), CFG)

    def test_continuous_variant_has_no_jump(self):
        cfg = LossConfig(continuous_over=True)
        assert abs(piecewise_loss(8.0 + 1e-9, cfg) - 8.0) < 1e-6
        assert piecewise_loss(12.0, cfg) == 2.0 * 4.0 + 8.0

    def test_continuous_vector_matches_scalar(self):
        cfg = LossConfig(continuous_over=True)
        eps = np.array([-3.0, -0.5, 0.0, 2.0, 8.0, 8.5, 9.0, 20.0, 1e6])
        vec = piecewise_loss_vec(eps, cfg)
        for e, v in zip(eps, vec, strict=True):
            assert v == piecewise_loss(float(e), cfg)

    def test_continuous_loss_value_is_its_wae(self):
        cfg = LossConfig(continuous_over=True)
        rng = np.random.default_rng(4)
        actuals = rng.uniform(0.0, 40.0, size=200)
        preds = actuals + rng.uniform(-20.0, 30.0, size=200)  # every branch, mostly late
        value, _ = asymmetric_loss(preds, actuals, cfg)
        assert value == wae(preds, actuals, cfg)
        assert value < wae(preds, actuals)  # the late branch lost its jump

    def test_config_validation(self):
        with pytest.raises(ValueError):
            LossConfig(alpha=1.0)
        with pytest.raises(ValueError):
            LossConfig(beta=0.5)
        with pytest.raises(ValueError):
            LossConfig(tau=0.0)


class TestLossGradients:
    def test_mean_and_subgradient(self):
        preds = np.array([3.0, 12.0])
        actuals = np.array([5.0, 8.0])  # eps = -2, +4
        value, grad = asymmetric_loss(preds, actuals, CFG)
        assert value == (10.0 + 4.0) / 2
        np.testing.assert_array_equal(grad, [-5.0 / 2, 1.0 / 2])

    def test_subgradient_at_kinks(self):
        preds = np.array([5.0, 16.0])
        actuals = np.array([5.0, 8.0])  # eps = 0 (kink), eps = tau (kink)
        _, grad = asymmetric_loss(preds, actuals, CFG)
        np.testing.assert_array_equal(grad, [1.0 / 2, 2.0 / 2])

    def test_matches_finite_difference_off_kinks(self):
        rng = np.random.default_rng(0)
        preds = rng.uniform(0, 40, size=50)
        actuals = rng.uniform(0, 40, size=50)
        value, grad = asymmetric_loss(preds, actuals, CFG)
        h = 1e-6
        for i in range(0, 50, 7):
            up = preds.copy()
            up[i] += h
            down = preds.copy()
            down[i] -= h
            fd = (asymmetric_loss(up, actuals, CFG)[0] - asymmetric_loss(down, actuals, CFG)[0]) / (2 * h)
            assert abs(fd - grad[i]) < 1e-4

    def test_mse(self):
        value, grad = mse_loss(np.array([3.0]), np.array([1.0]))
        assert value == 4.0
        np.testing.assert_array_equal(grad, [4.0])


class TestMetrics:
    def test_upr_strict(self):
        assert upr(np.array([1.0, 5.0, 5.0]), np.array([2.0, 5.0, 4.0])) == 1 / 3

    def test_opr8_strict(self):
        preds = np.array([16.0, 16.1, 30.0])
        actuals = np.array([8.0, 8.0, 10.0])
        assert opr8(preds, actuals) == 2 / 3  # 16-8=8 is not > 8

    def test_wae_equals_mean_piecewise(self):
        rng = np.random.default_rng(1)
        preds = rng.uniform(0, 30, 100)
        actuals = rng.uniform(0, 30, 100)
        expect = sum(piecewise_loss(float(e), CFG) for e in preds - actuals) / 100
        assert abs(wae(preds, actuals, CFG) - expect) < 1e-12

    def test_csi_example(self):
        # alpha=5, beta=2: 1 - (5*0.26 + 2*0.13)/7
        assert abs(csi(0.26, 0.13, CFG) - (1 - (5 * 0.26 + 2 * 0.13) / 7)) < 1e-15
        assert round(csi(0.26, 0.13, CFG), 2) == 0.78

    def test_csi_bounds(self):
        assert csi(0.0, 0.0, CFG) == 1.0
        assert abs(csi(1.0, 0.0, CFG) - 2.0 / 7.0) < 1e-15
        with pytest.raises(ValueError):
            csi(1.2, 0.0, CFG)

    def test_rmse(self):
        assert rmse(np.array([1.0, 2.0]), np.array([4.0, 6.0])) == math.sqrt(12.5)

    @pytest.mark.parametrize("scale", [5e307, 1e308], ids=["sum_overflows", "term_overflows"])
    def test_metric_that_overflows_names_itself(self, scale):
        preds, actuals = np.full(4, scale), np.zeros(4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an overflow warning fails the test
            for metric in (wae, rmse):
                with pytest.raises(ValueError, match=f"^{metric.__name__} is not finite"):
                    metric(preds, actuals)

    def test_oracle_equivalence_seeded(self):
        rng = np.random.default_rng(42)
        preds = rng.uniform(0, 48, 1000)
        actuals = rng.uniform(0, 48, 1000)
        n = 1000
        o_upr = sum(1 for p, a in zip(preds, actuals) if p < a) / n
        o_opr = sum(1 for p, a in zip(preds, actuals) if p - a > 8.0) / n
        o_wae = math.fsum(piecewise_loss(float(p - a), CFG) for p, a in zip(preds, actuals)) / n
        o_rmse = math.sqrt(math.fsum((p - a) ** 2 for p, a in zip(preds, actuals)) / n)
        o_csi = 1 - (5 * o_upr + 2 * o_opr) / 7
        assert abs(upr(preds, actuals) - o_upr) <= 1e-12
        assert abs(opr8(preds, actuals) - o_opr) <= 1e-12
        assert abs(wae(preds, actuals, CFG) - o_wae) <= 1e-12
        assert abs(rmse(preds, actuals) - o_rmse) <= 1e-12
        assert abs(csi(upr(preds, actuals), opr8(preds, actuals), CFG) - o_csi) <= 1e-12


class TestEvalReport:
    def make_pset(self):
        preds = np.array([10.0, 4.0, 30.0, 9.0, 12.0, 5.0])
        actuals = np.array([12.0, 5.0, 10.0, 9.0, 3.0, 5.0])
        strata = ("Small", "Small", "Medium", "Medium", "Large", "Large")
        return PredictionSet(preds, actuals, strata)

    def test_overall_pools_everything(self):
        pset = self.make_pset()
        report = eval_report(pset, CFG)
        assert report.overall.count == 6
        assert report.overall.wae == wae(pset.preds, pset.actuals, CFG)

    def test_strata_rows(self):
        report = eval_report(self.make_pset(), CFG)
        assert set(report.strata) == {"Small", "Medium", "Large"}
        small = report.strata["Small"]
        assert small.count == 2
        assert small.upr == 1.0  # both under-predicted

    def test_pooled_differs_from_stratum_mean_when_unbalanced(self):
        preds = np.array([0.0, 0.0, 0.0, 10.0])
        actuals = np.array([5.0, 5.0, 5.0, 10.0])
        strata = ("Small", "Small", "Small", "Large")
        report = eval_report(PredictionSet(preds, actuals, strata), CFG)
        stratum_mean = (report.strata["Small"].upr + report.strata["Large"].upr) / 2
        assert report.overall.upr == 0.75
        assert stratum_mean == 0.5

    def test_missing_stratum_noted(self):
        pset = PredictionSet(np.array([1.0]), np.array([1.0]), ("Small",))
        report = eval_report(pset, CFG)
        assert "Medium" not in report.strata
        assert any("Medium" in n for n in report.notes)

    def test_no_strata_gives_overall_only(self):
        pset = PredictionSet(np.array([1.0, 2.0]), np.array([1.0, 2.0]))
        report = eval_report(pset, CFG)
        assert report.strata == {}

    def test_format_is_tabular(self):
        text = format_report(eval_report(self.make_pset(), CFG), title="check")
        lines = text.splitlines()
        assert lines[0].startswith("# check")
        assert any(line.startswith("overall") for line in lines)
        assert any(line.startswith("Small") for line in lines)

    def test_roundtrip_dict(self):
        report = eval_report(self.make_pset(), CFG)
        doc = report.to_dict()
        assert doc["overall"]["count"] == 6
        assert set(doc["strata"]) == {"Small", "Medium", "Large"}

    def test_prediction_set_validation(self):
        with pytest.raises(ValueError):
            PredictionSet(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            PredictionSet(np.array([1.0]), np.array([np.nan]))
        with pytest.raises(ValueError):
            PredictionSet(np.array([1.0]), np.array([-1.0]))
        with pytest.raises(ValueError):
            PredictionSet(np.array([1.0, 2.0]), np.array([1.0, 2.0]), ("Small",))


class TestScorecardConsistency:
    """Published (UPR, OPR-8) pairs must reproduce the published CSI."""

    def test_all_cells_within_tolerance(self):
        worst = 0.0
        for method, cohort, size, u, o, c in iter_cells():
            recomputed = csi(u, o, CFG)
            worst = max(worst, abs(recomputed - c))
            assert abs(recomputed - c) <= 0.03, (
                f"{method}/{cohort}/{size}: recomputed {recomputed:.4f} vs {c}"
            )
        assert worst > 0.0  # table is not trivially exact; rounding is real

    def test_example_row(self):
        # TT, cohort-1, Medium: 1 - (5*0.26 + 2*0.13)/7 = 0.7771...
        row = SCORECARD["TT"]
        recomputed = csi(row["upr"][1], row["opr8"][1], CFG)
        assert abs(recomputed - 0.777) < 1e-3
        assert abs(recomputed - row["csi"][1]) <= 0.03

    def test_cell_count(self):
        assert len(list(iter_cells())) == 81


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 40),
    seed=st.integers(0, 10_000),
)
def test_rate_bounds_property(n, seed):
    rng = np.random.default_rng(seed)
    preds = rng.uniform(0, 50, n)
    actuals = rng.uniform(0, 50, n)
    u = upr(preds, actuals)
    o = opr8(preds, actuals)
    assert 0.0 <= u <= 1.0 and 0.0 <= o <= 1.0
    assert u + o <= 1.0  # an event cannot be both under and 8h over
    c = csi(u, o, CFG)
    assert 2.0 / 7.0 - 1e-12 <= c <= 1.0
    assert wae(preds, actuals, CFG) >= 0.0
