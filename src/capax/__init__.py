"""capax: non-additive integrals over finite monotone measures, and
auditing of Carlson-, Jensen- and Chebyshev-type integral inequalities."""

from .capacity import (Capacity, GroundSpace, PropertyReport,
                       InvalidCapacityError, check_modular, check_monotone,
                       check_subadditive, check_submodular, indices_mask,
                       make_additive, make_distorted, make_explicit,
                       make_grid_lebesgue, make_random_monotone,
                       make_sup_capacity, mask_indices, normalize)
from .dependence import (DependenceReport, check_positive_dependence,
                         is_comonotone, make_uniform_example)
from .integrals import (IntegralResult, SampleFunction,
                        brute_force_generalized_sugeno, choquet, from_formula,
                        generalized_sugeno, pointwise, power, sample_function,
                        shilkret, sugeno)
from .operators import (AggOperator, ConditionReport, OperatorSystem,
                        builtin_systems, check_chebyshev_condition,
                        check_nondecreasing, check_power_condition, dombi_op,
                        get_op, get_system, lukasiewicz_op, min_op,
                        prod_op, project_first_op, table_op)
from .xreal import (DEFAULT_CAP, EXTENDED, INF, UNIT, DegenerateInputError,
                    DomainError)

__version__ = "0.1.0"
