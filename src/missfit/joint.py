"""Joint optimization of a constant per-feature imputation and a regressor.

Alternates between refitting the downstream predictor on the currently
imputed matrix and a cyclic coordinate search that nudges each imputed value
by plus or minus sigma_j (the sample standard deviation of feature j's
observed values over sqrt(n), n counting all rows), keeping whichever of the
three candidates gives the lowest training error. A first pass that moves no
mu_j ends the fit: a refit on the same matrix would change nothing.

A trial on a tree or forest that moves mu_j across no split threshold of
feature j routes every row as mu_j does, so it takes the current error
without a prediction, and every result bit stays (coordinate_step).

joint_fit is the first fit, on the mean-imputed matrix, then joint_search,
which a depth grid of trees runs from one first tree's top levels.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .core import (MaskedDataset, batch, check_finite, check_int, check_real,
                   json_reader, to_json)
from .elasticnet import ElasticNetSpec, LinearFit, fit as enet_fit
from .learners import (Forest, MiaTree, TreeParams, fit_cart_mia, fit_forest,
                       mean_impute)


@dataclass(frozen=True)
class FitLimits:
    max_outer: int = 20
    max_cycles: int = 10
    min_rel_improve: float = 1e-4

    def __post_init__(self):
        check_int("max_outer", self.max_outer, 1)
        check_int("max_cycles", self.max_cycles, 1)
        check_real("min_rel_improve", self.min_rel_improve, 0)


# A contract is the downstream fit: contract(X, y, seed) returns an object
# with predict(X) -> predictions, and is deterministic given its inputs. A
# fitted MiaTree or Forest is such an object: it reads X as fully observed.
Contract = Callable[[np.ndarray, np.ndarray, int], object]


def linear_contract(spec: ElasticNetSpec | None = None) -> Contract:
    spec = spec or ElasticNetSpec(lam=1e-4)
    return lambda X, y, seed: enet_fit(X, y, spec)


def tree_contract(params: TreeParams | None = None) -> Contract:
    return _mia_contract(fit_cart_mia, params or TreeParams(max_depth=4))


def forest_contract(params: TreeParams | None = None) -> Contract:
    return _mia_contract(fit_forest, params or TreeParams(n_trees=50))


def _mia_contract(fit, params: TreeParams) -> Contract:
    def contract(X, y, seed):
        ds = MaskedDataset(X, np.zeros_like(X, dtype=np.int8), y)
        return fit(ds, replace(params, seed=seed))

    return contract


def mse_error(y, yhat) -> float:
    return float(np.mean((np.asarray(y) - np.asarray(yhat)) ** 2))


def coordinate_step(A, rows, j, mu_j, sigma_j, predictor, y, error_metric,
                    current: float) -> tuple[int, float]:
    """Pick the best of mu_j + eps * sigma_j for eps in {-1, 0, +1}.

    A is the float64 imputed matrix at mu. Each trial is written into A[rows,
    j], the rows missing feature j, and mu_j is restored there on return. `current`
    must be the error of `predictor` on A, the eps = 0 candidate. Ties prefer
    0, then -1, so a flat error surface leaves mu unchanged.

    A tree or forest predictor reads A as fully observed, so a row goes left
    at a split on feature j exactly when its value is <= the threshold. A
    trial that moves mu_j across no threshold of j (`crosses`) sends every
    row down the path it takes at mu_j, so its predictions, and its error,
    are those at mu_j bit for bit: it scores `current` without touching A
    or calling `predict`. Other predictors score every trial.
    """
    errors = {0: current}
    screen = isinstance(predictor, (MiaTree, Forest))
    for eps in (-1, 1):
        trial = mu_j + eps * sigma_j
        if screen and not predictor.crosses(j, mu_j, trial):
            errors[eps] = current
            continue
        A[rows, j] = trial
        errors[eps] = error_metric(y, predictor.predict(A))
    A[rows, j] = mu_j
    best = min((0, -1, 1), key=lambda e: errors[e])
    return best, errors[best]


@dataclass
class JointModel:
    mu: np.ndarray
    sigma: np.ndarray
    predictor: object
    error_trace: list[float]
    n_refits: int = 0
    cycles_per_iter: list[int] | None = None
    stop_reason: str = ""

    @property
    def contract_label(self) -> str:
        """The predictor's kind: linear, tree or forest."""
        kind = {LinearFit: "linear", MiaTree: "tree", Forest: "forest"}
        if (label := kind.get(type(self.predictor))) is None:
            raise TypeError(f"no contract label for a "
                            f"{type(self.predictor).__name__} predictor")
        return label

    def predict(self, X, M, depth=None) -> np.ndarray:
        """The predictor's values with mu in the masked slots; a tree's cut
        at `depth`, if given."""
        X, M = batch(X, M, len(self.mu))
        A = np.where(M == 1, self.mu, X)
        if depth is None:
            return self.predictor.predict(A)
        return self.predictor.predict(A, depth=depth)

    def to_dict(self) -> dict:
        label = self.contract_label
        predictor = self.predictor.to_dict()
        if label == "linear":  # a LinearFit document carries no type
            predictor = {"type": "linear", **predictor}
        return {"type": "joint", "contract": label,
                "mu": list(map(float, self.mu)),
                "sigma": list(map(float, self.sigma)),
                "stop_reason": self.stop_reason, "predictor": predictor}

    @classmethod
    def from_dict(cls, doc) -> JointModel:
        p = doc["predictor"]
        loader = {"linear": LinearFit, "mia_tree": MiaTree, "mia_forest": Forest}
        if (kind := loader.get(p["type"])) is None:
            raise ValueError(f"predictor type {p['type']!r} is not linear, "
                             "mia_tree or mia_forest")
        predictor = kind.from_dict(p)
        check_finite("mu", *doc["mu"])
        check_finite("sigma", *doc["sigma"])
        mu, sigma = (np.array(doc[k], dtype=float) for k in ("mu", "sigma"))
        d = p["d"] if p["type"] != "linear" else len(predictor.coefficients)
        check_int("d", d, 1)
        if not len(mu) == len(sigma) == d:
            raise ValueError(f"mu and sigma are not {d} long, as the predictor")
        if not isinstance(stop := doc.get("stop_reason", ""), str):
            raise ValueError("stop_reason: must be a string")
        joint = cls(mu, sigma, predictor, [], stop_reason=stop)
        if doc["contract"] != joint.contract_label:
            raise ValueError(f"contract {doc['contract']!r} is not the "
                             f"predictor's kind, {joint.contract_label}")
        return joint


def fit_mean_impute(dataset: MaskedDataset, contract: Contract,
                    seed: int = 0) -> JointModel:
    """Mean impute-then-regress: mu is the observed column means (see
    learners.mean_impute), and the predictor is fitted once on the imputed
    matrix. No coordinate search, so sigma is zero and the trace empty."""
    mu, imputed = mean_impute(dataset)
    predictor = contract(imputed, dataset.y, seed)
    return JointModel(mu, np.zeros(dataset.d), predictor, [],
                      n_refits=1, stop_reason="mean_impute")


def joint_fit(dataset: MaskedDataset, contract: Contract,
              limits: FitLimits = FitLimits(), error_metric=mse_error,
              seed: int = 0) -> JointModel:
    """Alternating heuristic for the joint imputation/regression problem.

    Starts from observed-column means; each outer iteration refits the
    predictor once, then runs up to limits.max_cycles coordinate sweeps. A
    refit that would worsen training error is rolled back, so the recorded
    error trace is non-increasing. An iteration that improves the error by
    less than limits.min_rel_improve, relatively, ends the fit; the first
    does so only if it moved no mu_j, as a refit would then replay it.
    The first fit is the contract's on the mean-imputed matrix, and the rest
    is joint_search.
    """
    first = contract(mean_impute(dataset)[1], dataset.y, seed)
    return joint_search(dataset, contract, first, limits, error_metric, seed)


def joint_search(dataset: MaskedDataset, contract: Contract, first,
                 limits: FitLimits = FitLimits(), error_metric=mse_error,
                 seed: int = 0) -> JointModel:
    """joint_fit after its first fit: the search from `first`. The model is
    joint_fit's to the bit when `first` is, to the bit, the contract's fit on
    the mean-imputed matrix, as a deeper tree's top levels are (MiaTree.top)."""
    mu, A = mean_impute(dataset)  # A: X with mu in the missing slots
    # a contract may keep the matrix it is given, so each gets a copy of A
    predictor, n_refits = first, 1
    obs = dataset.M == 0
    sigma = np.empty(dataset.d)
    for j in range(dataset.d):
        vals = dataset.X[obs[:, j], j]
        if len(vals) == 0:
            sigma[j] = 1.0  # feature never observed: unit step from mu = 0
        elif len(vals) == 1:
            sigma[j] = 0.0
        else:
            sigma[j] = float(np.std(vals, ddof=1)) / np.sqrt(dataset.n)

    # the features a step can move, with the rows that miss them
    movable = [(j, np.flatnonzero(m)) for j, m in enumerate(dataset.M.T)
               if sigma[j] != 0.0 and m.any()]
    current = error_metric(dataset.y, predictor.predict(A))
    if not dataset.M.any():
        # nothing to optimize: mu stays at the column means
        return JointModel(mu, sigma, predictor, [current],
                          n_refits, [], "no_missing")
    trace = [current]
    cycles_per_iter: list[int] = []
    stop_reason = "max_outer"

    for outer in range(limits.max_outer):
        if outer > 0:
            candidate = contract(A.copy(), dataset.y, seed)
            n_refits += 1
            cand_err = error_metric(dataset.y, candidate.predict(A))
            if cand_err <= current:
                predictor = candidate
                current = cand_err
        iter_start = current
        cycles = 0
        for _ in range(limits.max_cycles):
            cycles += 1
            cycle_start = current
            changed = False
            for j, rows in movable:
                eps, err = coordinate_step(A, rows, j, mu[j], sigma[j],
                                           predictor, dataset.y, error_metric,
                                           current)
                if eps != 0 and err < current:
                    mu[j] += eps * sigma[j]
                    A[rows, j] = mu[j]
                    current = err
                    changed = True
            if not changed:
                break
            rel = ((cycle_start - current) / abs(cycle_start)
                   if cycle_start != 0 else 0.0)
            if rel < limits.min_rel_improve:
                break
        cycles_per_iter.append(cycles)
        trace.append(current)
        rel_outer = ((iter_start - current) / abs(iter_start)
                     if iter_start != 0 else 0.0)
        # a step lowers the error, so a first pass that keeps it moved no
        # mu_j; as a contract is deterministic, a second pass would refit
        # the same predictor, replay this one and stop
        replay = outer == 0 and current == iter_start and limits.max_outer > 1
        if (outer > 0 or replay) and rel_outer < limits.min_rel_improve:
            stop_reason = "min_rel_improve"
            break
    return JointModel(mu, sigma, predictor, trace, n_refits,
                      cycles_per_iter, stop_reason)


# JSON text of JointModel documents; the benchmark's tracer binds these by name.
joint_model_to_json, joint_model_from_json = to_json, json_reader(JointModel)
