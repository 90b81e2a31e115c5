"""Offline phase: trip features, logistic model, MLE training, ROC/AUC.

The two features compare a finished trip against the recommendation it was
given at pickup: the fractional excess in distance and in travel time.  A
logistic regression on those two features separates detour trips; the fitted
coefficients then drive the live per-step score with no further training.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from .errors import FitError, InputError, check_non_negative, read_json_file, read_number
from .routing import RoutePlanStep
from .trips import TripRecord, trajectory_distance_km, trajectory_minutes

if TYPE_CHECKING:  # numpy is imported by the fit's functions that use it, not at start-up
    import numpy as np

_GRAD_TOL = 1e-8  # Newton stops once the gradient infinity-norm is below this
_MAX_STEPS = 100
_MAX_HALVINGS = 60


@dataclass(frozen=True)
class FeatureVector:
    extra_distance_ratio: float  # actual / initially planned distance, minus 1
    extra_time_ratio: float  # actual / initially estimated minutes, minus 1


@dataclass(frozen=True)
class LogitModel:
    intercept: float
    dist_coef: float
    time_coef: float

    def log_odds(self, fv: FeatureVector) -> float:
        """Linear detour score; positive means detour is the likelier class."""
        return self.intercept + self.dist_coef * fv.extra_distance_ratio \
            + self.time_coef * fv.extra_time_ratio


@dataclass(frozen=True)
class TrainReport:
    model: LogitModel
    final_log_likelihood: float
    iterations: int
    converged: bool
    diagnostics: str | None = None


def excess_ratios(km: float, minutes: float, plan: RoutePlanStep, trip_id: str) -> FeatureVector:
    """Excess-distance and excess-time ratios of a trip total against its pickup plan.

    The one feature formula: the offline features pass the finished trip's
    totals, the live detector its estimated totals at each step.
    """
    if plan.distance <= 0.0 or plan.est_time <= 0.0:
        raise InputError(f"trip {trip_id!r}: degenerate initial plan")
    return FeatureVector(km / plan.distance - 1.0, minutes / plan.est_time - 1.0)


def offline_features(net, trip: TripRecord) -> FeatureVector:
    """Excess-distance and excess-time ratios of a finished trip."""
    return excess_ratios(trajectory_distance_km(net, trip.atr), trajectory_minutes(trip.atr),
                         trip.plan, trip.trip_id)


def _design(samples) -> tuple[np.ndarray, np.ndarray]:
    import numpy as np

    X = np.array(
        [[1.0, fv.extra_distance_ratio, fv.extra_time_ratio] for fv, _ in samples]
    )
    y = np.array([float(label) for _, label in samples])
    return X, y


def _softplus(z: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    import numpy as np

    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def log_likelihood(beta: np.ndarray, X: np.ndarray, y: np.ndarray, ridge: float = 0.0) -> float:
    """Bernoulli log-likelihood of the logistic model, optionally ridged."""
    import numpy as np

    theta = X @ beta
    ll = float(np.sum(y * theta - _softplus(theta)))
    if ridge:
        ll -= 0.5 * ridge * float(beta @ beta)
    return ll


def log_likelihood_gradient(beta, X, y, ridge: float = 0.0) -> np.ndarray:
    grad = X.T @ (y - _sigmoid(X @ beta))
    if ridge:
        grad = grad - ridge * beta
    return grad


def _information(beta: np.ndarray, X: np.ndarray, ridge: float) -> np.ndarray:
    """Information matrix (negative Hessian) of the ridged log-likelihood."""
    import numpy as np

    probs = _sigmoid(X @ beta)
    with np.errstate(over="ignore", invalid="ignore"):  # ``train`` rejects a non-finite result
        return X.T @ (X * (probs * (1.0 - probs))[:, None]) + ridge * np.eye(X.shape[1])


def train(samples, ridge: float = 0.0) -> TrainReport:
    """Fit the logit model by Newton (IRLS) maximum likelihood.

    Each step solves the information matrix against the gradient, by least
    squares so that a constant feature column (a singular matrix) still gets
    a direction, and halves until the log-likelihood drops by at most 4 ulps
    of its magnitude.  Near the optimum a full step's gain falls below that
    resolution and can round to a tiny drop; halving such a step would stall
    the gradient above its tolerance at the optimum.  Stops when the
    gradient infinity-norm falls below ``_GRAD_TOL``, or unconverged after
    ``_MAX_STEPS`` steps or when no halving stops the drop.  Perfectly
    separable data with no ridge has no finite maximizer; that case is
    reported with ``converged=False`` and a diagnostic instead of an error.
    A feature that is not finite, or one so large that the information
    matrix overflows (a plan distance near 0 gives an excess ratio near
    1e300), raises FitError before any step.
    """
    import numpy as np

    check_non_negative("ridge", ridge)
    X, y = _design(samples)
    positives = int(np.sum(y))
    if positives == 0 or positives == len(y):
        raise FitError("training data must contain both classes")
    if not np.isfinite(X).all():
        raise FitError("the features must be finite")

    beta = np.zeros(3)
    ll = log_likelihood(beta, X, y, ridge)
    iterations = 0
    while True:
        grad = log_likelihood_gradient(beta, X, y, ridge)
        converged = float(np.max(np.abs(grad))) < _GRAD_TOL
        if converged or iterations == _MAX_STEPS:
            break
        information = _information(beta, X, ridge)
        if not np.isfinite(information).all():
            raise FitError("the information matrix is not finite: features as large as "
                           f"{float(np.max(np.abs(X)))!r} are too large to fit")
        direction = np.linalg.lstsq(information, grad, rcond=None)[0]
        for _ in range(_MAX_HALVINGS):
            candidate = beta + direction
            cll = log_likelihood(candidate, X, y, ridge)
            if cll >= ll - 4.0 * math.ulp(ll):
                break
            direction = 0.5 * direction
        else:
            break  # no ascent at float resolution
        beta, ll = candidate, cll
        iterations += 1

    theta = X @ beta
    diagnostics = None
    if ridge == 0.0:
        pos_min = float(np.min(theta[y == 1.0]))
        neg_max = float(np.max(theta[y == 0.0]))
        if pos_min > neg_max:
            converged = False
            diagnostics = (
                "perfect separation: coefficients diverge, the likelihood has no "
                "finite maximizer (consider a small ridge)"
            )
    if float(np.max(np.abs(beta))) > 1e4 and diagnostics is None:
        converged = False
        diagnostics = "coefficients diverging; data may be (near-)separable"

    return TrainReport(
        model=LogitModel(float(beta[0]), float(beta[1]), float(beta[2])),
        final_log_likelihood=ll,
        iterations=iterations,
        converged=converged,
        diagnostics=diagnostics,
    )


def rank_auc(scores, labels) -> tuple[float, list[tuple[float, float]]]:
    """AUC and ROC points from raw scores, ties grouped.

    Thresholds sweep the distinct score values from high to low; the curve
    always starts at (0, 0) and ends at (1, 1), and the trapezoidal area
    equals the pair-counting (Mann-Whitney) statistic.
    """
    pos = sum(1 for yy in labels if yy)
    neg = len(labels) - pos
    if pos == 0 or neg == 0:
        raise FitError("AUC is undefined without both classes")

    order = sorted(zip(scores, labels), key=lambda sy: -sy[0])
    roc = [(0.0, 0.0)]
    auc = 0.0
    tp = fp = 0
    i = 0
    while i < len(order):
        j = i
        while j < len(order) and order[j][0] == order[i][0]:
            j += 1
        prev_tpr, prev_fpr = tp / pos, fp / neg
        for k in range(i, j):
            if order[k][1]:
                tp += 1
            else:
                fp += 1
        tpr, fpr = tp / pos, fp / neg
        auc += (fpr - prev_fpr) * (tpr + prev_tpr) / 2.0
        roc.append((fpr, tpr))
        i = j
    return auc, roc


def evaluate_roc_auc(model: LogitModel, samples) -> tuple[float, list[tuple[float, float]]]:
    """Score labeled feature vectors with the model and rank them."""
    scores = [model.log_odds(fv) for fv, _ in samples]
    labels = [label for _, label in samples]
    return rank_auc(scores, labels)


def save_model(model: LogitModel, path, trained_on: int = 0, ridge: float = 0.0) -> None:
    data = {
        "beta0": model.intercept,
        "beta1": model.dist_coef,
        "beta2": model.time_coef,
        "trained_on": trained_on,
        "ridge": ridge,
    }
    text = json.dumps(data, indent=2, sort_keys=True, allow_nan=False)
    Path(path).write_text(text + "\n", encoding="utf-8")


def load_model(path) -> LogitModel:
    return read_json_file(path, "model", lambda data: LogitModel(
        *(read_number(data[key], key) for key in ("beta0", "beta1", "beta2"))))
