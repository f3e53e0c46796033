"""Umbilical loci of strictly pseudoconvex circle bundles over Riemann
surfaces: the scalar invariant whose zeros are the umbilical circles,
half-integer winding indices with index-sum audits, the curved-Hessian
prescription recursion, and a search harness for torus potentials with
nonvanishing invariant."""

__version__ = "0.1.0"

from .errors import (ConfigError, CrossFormMismatch, DomainError,
                     NotPseudoconvex, PhaseStepTooLarge, SolveFailed,
                     SymmetryViolated, TotallyDegenerate, UmbilicError,
                     UnderResolved, ZeroOnContour)
from .field import ChartGrid, PeriodicField, TorusLattice
from .series import PowerSeries2, geometric_inverse
from .cartan import (FORMS, cartan_r, cartan_r_all_forms, covariant_hessian_zz,
                     gauss_curvature, kzz_identity_residual,
                     potential_from_metric, rigid_r_from_F, spherical_test)
from .index import (AuditReport, UmbilicRecord, ZeroCluster, locate_zero_cells,
                    poincare_hopf_audit, refine_cluster_residual,
                    sphere_two_chart_umbilics, torus_umbilics, umbilic_index,
                    winding_degree)
from .loewner import (LoewnerNormalization, LoewnerSolution,
                      curved_hessian_residual, loewner_solve, tm_matrix,
                      tm_rank_report)
from .torussearch import (ObstructionReport, SearchConfig, SearchReport,
                          SymmetryDirection, TrigPotential, chern_normalize,
                          chern_number, min_modulus_objective,
                          symmetric_obstruction_check, torus_search)
