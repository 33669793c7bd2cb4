"""Computational toolkit for bounded transitive 2-metric spaces."""

from .baselines import certifier_baseline, convexity_baseline, load_baselines
from .certify import (CertInput, CertResult, calibrate_ratio_constant, certify,
                      hessian_bound_fd, jacobian_fd)
from .core import (AxiomRecord, AxiomReport, FiniteTwoMetricSpace, TwoMetricSpace,
                   WitnessSet, audit, demo_five_point_space, eval_phi,
                   quotient_by_zero_phi, witness_refinement_gap)
from .dynamics import (DDecreasingMap, OrbitTrace, Outcome,
                       SphereContractionParams, detect_outcome, make_linear_map,
                       make_sphere_map, measured_contraction_factor, orbit)
from .lines import (Classification, Line, Thresholds, classify, enumerate_lines,
                    maximal_colinear_sets)
from .quasi import (BanachRun, ContractionViolation, QuasiSpace, banach_direct,
                    banach_multcost, banach_power, check_quasi_axioms,
                    interval_space, minimal_power, quasi_from_two_metric)
from .spaces import (ConvexityBoundReport, SpherePatch, antipodal_canon,
                     area_ball_space, area_metric, convexity_bound, det_metric,
                     det_sphere_space, great_circle_points, sphere_witnesses, unit_sphere)

__version__ = "0.1.0"
