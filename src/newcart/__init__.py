"""Clock-form space-time structures, compatible connections, and free fall."""

from .connection import (Connection, ConnectionData, build_connection,
                         connection_from_exprs, observable_map)
from .dynamics import (CsvRows, Trajectory, integrate_geodesic, integrate_observer_flow,
                       trajectory_csv)
from .errors import (DimensionMismatch, DomainError, ExprSyntaxError,
                     FrameDegenerate, MetricSingular, MissingSection,
                     NewcartError, ScenarioError, ScenarioParseError,
                     UnknownIdentifier)
from .expr import Expr, differentiate, evaluate, parse_expr, to_string
from .geometry import ObserverField, SpacetimeStructure, validate_structure
from .report import CheckEntry, CheckReport
from .scenario import (Scenario, bundled_scenario_path, load_scenario,
                       load_scenario_text, serialize_scenario)
from .verify import (check_compatibility_metric, check_compatibility_omega,
                     check_field_coeffs, check_roundtrip, check_torsion_clock,
                     fd_validate, run_all)

__version__ = "0.1.0"
