import json
import math

import numpy as np
import pytest

from detourlab import classifier
from detourlab.classifier import (
    FeatureVector,
    LogitModel,
    evaluate_roc_auc,
    load_model,
    log_likelihood,
    log_likelihood_gradient,
    offline_features,
    rank_auc,
    save_model,
    train,
)
from detourlab.errors import FitError, InputError

from conftest import line_network, make_trip

T0 = 1543622400.0

BEIJING_MODEL = LogitModel(-8.8620, 41.5258, 28.5575)


def test_offline_features_plan_follower():
    net = line_network([2.0, 3.0, 1.0], speed=60.0)
    # trip covers e0+e1 (5 km) in exactly the planned 5 minutes
    trip = make_trip(net, [("e0", T0), ("e1", T0 + 120.0), ("e2", T0 + 300.0)],
                     ["e0", "e1"], 5.0, 5.0)
    fv = offline_features(net, trip)
    assert fv.extra_distance_ratio == 0.0
    assert fv.extra_time_ratio == 0.0


def test_offline_features_hand_values():
    net = line_network([6.5, 6.5, 1.0], speed=60.0)
    # actual 13 km in 30 min against a 10 km / 24 min plan
    trip = make_trip(net, [("e0", T0), ("e1", T0 + 900.0), ("e2", T0 + 1800.0)],
                     ["e0", "e1"], 10.0, 24.0)
    fv = offline_features(net, trip)
    assert fv.extra_distance_ratio == pytest.approx(0.3, abs=1e-12)
    assert fv.extra_time_ratio == pytest.approx(0.25, abs=1e-12)


def test_offline_features_degenerate_plan_rejected():
    net = line_network([2.0, 1.0])
    trip = make_trip(net, [("e0", T0), ("e1", T0 + 60.0)], [], 0.0, 0.0)
    with pytest.raises(InputError):
        offline_features(net, trip)


def test_log_odds_beijing_intercept():
    assert BEIJING_MODEL.log_odds(FeatureVector(0.0, 0.0)) == pytest.approx(-8.8620)


def test_log_odds_beijing_hand_value():
    got = BEIJING_MODEL.log_odds(FeatureVector(0.2, 0.1))
    assert got == pytest.approx(-8.8620 + 41.5258 * 0.2 + 28.5575 * 0.1, abs=1e-12)
    assert got == pytest.approx(2.29891, abs=1e-5)


def test_theta_monotone_in_features():
    fv = FeatureVector(0.1, 0.1)
    for bump in (0.05, 0.2, 1.0):
        assert BEIJING_MODEL.log_odds(FeatureVector(0.1 + bump, 0.1)) > BEIJING_MODEL.log_odds(fv)
        assert BEIJING_MODEL.log_odds(FeatureVector(0.1, 0.1 + bump)) > BEIJING_MODEL.log_odds(fv)


def _random_dataset(rng, n=500):
    x = rng.normal(0.0, 0.4, size=(n, 2))
    truth = np.array([-0.5, 3.0, 2.0])
    logits = truth[0] + x @ truth[1:]
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-logits))).astype(float)
    X = np.column_stack([np.ones(n), x])
    return X, y


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(99)
    X, y = _random_dataset(rng)
    h = 1e-5
    for _ in range(20):
        beta = rng.uniform(-3.0, 3.0, size=3)
        grad = log_likelihood_gradient(beta, X, y, ridge=1e-3)
        fd = np.zeros(3)
        for k in range(3):
            hi = beta.copy()
            lo = beta.copy()
            hi[k] += h
            lo[k] -= h
            fd[k] = (log_likelihood(hi, X, y, ridge=1e-3)
                     - log_likelihood(lo, X, y, ridge=1e-3)) / (2 * h)
        assert np.linalg.norm(grad - fd) / max(np.linalg.norm(grad), 1e-12) < 1e-6


def test_training_recovers_planted_boundary():
    rng = np.random.default_rng(11)
    samples = []
    for _ in range(400):
        x1 = float(rng.uniform(0.0, 0.4))
        while abs(x1 - 0.2) < 0.1:  # margin around the planted boundary
            x1 = float(rng.uniform(0.0, 0.4))
        samples.append((FeatureVector(x1, 0.0), 1 if x1 > 0.2 else 0))
    report = train(samples, ridge=1e-6)
    boundary = -report.model.intercept / report.model.dist_coef
    assert 0.1 < boundary < 0.3
    assert report.model.dist_coef > 0


def test_training_single_class_rejected():
    samples = [(FeatureVector(0.1, 0.1), 0) for _ in range(10)]
    with pytest.raises(FitError):
        train(samples)


@pytest.mark.parametrize("big, message", [(1e300, "the information matrix is not finite"),
                                          (math.inf, "the features must be finite")])
def test_training_rejects_features_too_large_to_fit(big, message):
    # the squares of 1e300 overflow the information matrix; with
    # filterwarnings = error a numpy warning on the way fails the test too
    samples = [(FeatureVector(0.1 * k, 0.0), k % 2) for k in range(10)]
    samples[0] = (FeatureVector(big, 0.0), 1)
    with pytest.raises(FitError, match=message):
        train(samples, ridge=1e-6)


def test_training_flags_perfect_separation():
    samples = [(FeatureVector(x, 0.0), 1 if x > 0 else 0)
               for x in np.linspace(-1, 1, 40) if x != 0]
    report = train(samples, ridge=0.0)
    assert not report.converged
    assert report.diagnostics is not None


def test_training_converges_fast_on_near_separable_data():
    # 10% positives that overlap the negatives only in the tails: gradient
    # ascent crawls here, Newton lands in a few steps
    rng = np.random.default_rng(3)
    n, n_pos = 400, 40
    x1 = np.concatenate([rng.normal(0.3, 0.08, n_pos), np.abs(rng.normal(0.0, 0.06, n - n_pos))])
    x2 = np.concatenate([rng.normal(0.3, 0.1, n_pos), rng.normal(0.0, 0.08, n - n_pos)])
    y = np.array([1] * n_pos + [0] * (n - n_pos))
    samples = [(FeatureVector(x1[i], x2[i]), int(y[i])) for i in range(n)]
    report = train(samples, ridge=1e-6)
    assert report.converged
    assert report.iterations <= 30
    m = report.model
    beta = np.array([m.intercept, m.dist_coef, m.time_coef])
    X = np.column_stack([np.ones(n), x1, x2])
    assert np.max(np.abs(log_likelihood_gradient(beta, X, y, 1e-6))) < 1e-8


def test_training_stops_at_float_resolution():
    # Well-posed data where, near the optimum, the full Newton step's gain is
    # below the rounding of the log-likelihood and rounds to a tiny drop.  A
    # fit that accepts no drop at all halves that step, leaves the gradient
    # above its tolerance and runs out of steps at the optimum, reporting it
    # unconverged with no diagnostic.
    rng = np.random.default_rng(34)
    n = int(rng.integers(200, 3001))
    x = rng.normal(size=(n, 2))
    b = rng.normal(0.0, 2.0, size=3)
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-(b[0] + x @ b[1:])))
    assert (n, int(y.sum())) == (376, 210)
    samples = [(FeatureVector(float(u), float(v)), bool(label))
               for (u, v), label in zip(x, y)]
    report = train(samples, ridge=0.0)
    assert report.converged and report.diagnostics is None
    assert report.iterations <= 10
    m = report.model
    beta = np.array([m.intercept, m.dist_coef, m.time_coef])
    X = np.column_stack([np.ones(n), x])
    assert np.max(np.abs(log_likelihood_gradient(beta, X, y.astype(float)))) < 1e-8


def _scaled_samples(seed, n, scale, coef):
    """``n`` samples with x1 ~ N(0, 1) * ``scale`` and x2 ~ N(0, 1), each a
    detour with probability sigmoid(``coef`` * x1 + x2)."""
    rng = np.random.default_rng(seed)
    x1 = rng.normal(size=n) * scale
    x2 = rng.normal(size=n)
    y = rng.random(n) < 1.0 / (1.0 + np.exp(-(coef * x1 + x2)))
    return [(FeatureVector(float(a), float(b)), bool(c)) for a, b, c in zip(x1, x2, y)]


def test_training_halves_a_step_that_lowers_the_likelihood(monkeypatch):
    # a feature 50 times wider than the other overshoots one Newton step
    evaluations = []
    real = classifier.log_likelihood

    def counting(*args):
        evaluations.append(1)
        return real(*args)

    monkeypatch.setattr(classifier, "log_likelihood", counting)
    report = train(_scaled_samples(64, 60, 50.0, 0.3))
    assert report.converged and report.diagnostics is None
    assert report.iterations == 11
    # the start, one candidate per accepted step, and one halved candidate
    assert len(evaluations) == 1 + report.iterations + 1


def test_training_flags_coefficients_beyond_1e4():
    # a feature spread 1e5 times narrower than the other needs a coefficient
    # near 1.6e5: the gradient test stops the fit after 5 steps, and the size
    # rule still reports it as diverging
    report = train(_scaled_samples(0, 40, 1e-5, 1e5))
    assert report.iterations == 5
    assert abs(report.model.dist_coef) > 1e4
    assert not report.converged
    assert report.diagnostics == "coefficients diverging; data may be (near-)separable"


def test_training_on_noisy_data_converges():
    rng = np.random.default_rng(5)
    X, y = _random_dataset(rng, n=800)
    samples = [(FeatureVector(X[i, 1], X[i, 2]), int(y[i])) for i in range(len(y))]
    report = train(samples)
    assert report.converged
    assert report.iterations < 10000
    # recovers the generating signs
    assert report.model.dist_coef > 0
    assert report.model.time_coef > 0


def test_auc_perfectly_ordered():
    scores = [0.9, 0.8, 0.2, 0.1]
    labels = [1, 1, 0, 0]
    auc, roc = rank_auc(scores, labels)
    assert auc == 1.0
    assert roc[0] == (0.0, 0.0)
    assert roc[-1] == (1.0, 1.0)


def test_auc_random_scores_near_half():
    rng = np.random.default_rng(123)
    scores = rng.uniform(size=10000).tolist()
    labels = (rng.uniform(size=10000) < 0.3).astype(int).tolist()
    auc, _ = rank_auc(scores, labels)
    assert auc == pytest.approx(0.5, abs=0.02)


def mann_whitney(scores, labels):
    pos = [s for s, y in zip(scores, labels) if y]
    neg = [s for s, y in zip(scores, labels) if not y]
    wins = sum(1.0 for p in pos for n in neg if p > n)
    ties = sum(0.5 for p in pos for n in neg if p == n)
    return (wins + ties) / (len(pos) * len(neg))


def test_auc_equals_pair_counting():
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(10, 200))
        scores = np.round(rng.normal(size=n), 1).tolist()  # rounding forces ties
        labels = (rng.uniform(size=n) < 0.4).astype(int).tolist()
        if sum(labels) in (0, n):
            continue
        auc, _ = rank_auc(scores, labels)
        assert auc == pytest.approx(mann_whitney(scores, labels), abs=1e-12)


def test_auc_invariant_to_score_shift():
    rng = np.random.default_rng(17)
    scores = rng.normal(size=300).tolist()
    labels = (rng.uniform(size=300) < 0.5).astype(int).tolist()
    auc1, _ = rank_auc(scores, labels)
    auc2, _ = rank_auc([s + 42.0 for s in scores], labels)
    assert auc1 == pytest.approx(auc2, abs=1e-12)


def test_auc_single_class_rejected():
    with pytest.raises(FitError):
        rank_auc([0.1, 0.2], [1, 1])


def test_training_on_planted_dataset_recovers_signs(sim_dataset):
    net, trips, _ = sim_dataset
    samples = [(offline_features(net, t), 1 if t.label == "detour" else 0) for t in trips]
    report = train(samples, ridge=1e-6)
    assert report.model.dist_coef > 0
    assert report.model.time_coef > 0
    auc, _ = evaluate_roc_auc(report.model, samples)
    assert auc > 0.9


def test_model_save_load_roundtrip(tmp_path):
    path = tmp_path / "model.json"
    save_model(BEIJING_MODEL, path, trained_on=123, ridge=1e-6)
    assert load_model(path) == BEIJING_MODEL


def test_load_model_missing(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_model(tmp_path / "nope.json")


def test_model_file_never_holds_non_finite_coefficients(tmp_path):
    path = tmp_path / "model.json"
    with pytest.raises(ValueError):
        save_model(LogitModel(math.nan, 1.0, 1.0), path)
    path.write_text('{"beta0": NaN, "beta1": 1.0, "beta2": 1.0}')
    with pytest.raises(InputError):
        load_model(path)


def test_load_model_malformed(tmp_path):
    path = tmp_path / "model.json"
    path.write_text('{"beta0": 1.0}')
    with pytest.raises(InputError):
        load_model(path)




@pytest.mark.parametrize("bad", ["2.0", True])
def test_load_model_rejects_strings_and_booleans(tmp_path, bad):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"beta0": -8.0, "beta1": bad, "beta2": 28.0}))
    with pytest.raises(InputError):
        load_model(path)
