"""Prediction with missing data: adaptive linear models, joint
impute-then-regress, MIA trees and forests, and a benchmark harness."""

from .core import MaskedDataset, PatternKey, masked_dot, unique_patterns, validate
from .elasticnet import ElasticNetSpec, LinearFit, fit as elasticnet_fit
from .adaptive import (AFFINE, AFFINE_INTERCEPT, FULLY_ADAPTIVE, STATIC,
                       AdaptiveModel, ExpansionMode, PartitionTree, expand,
                       extract_imputation, fit_adaptive, fit_finite_adaptive)
from .joint import (FitLimits, JointModel, RegressorContract, coordinate_step,
                    fit_mean_impute, forest_contract, impute_with, joint_fit,
                    linear_contract, tree_contract)
from .learners import (Forest, MiaTree, TreeParams, fit_cart_mia, fit_forest,
                       mean_impute)
from .datagen import (GeneratorSpec, SemiSyntheticSpec, adversarial_permute,
                      apply_censoring, apply_mcar, gen_design, gen_semisynthetic,
                      gen_signal, generate)
from .bench import (ExperimentConfig, ResultsTable, kfold_cv, r_squared,
                    run_experiment, scaled_auc)

__version__ = "0.1.0"
