"""Re-export of the two scan helpers ``perf/workloads.py`` imports.

Both live in :mod:`repro.scan`.  ``perf/`` could not be edited by the
change that moved them there; the next ``benchmark`` PR (ROADMAP item 1)
re-points that import, deletes this package and corrects the
two sentences of ``perf/README.md`` that still name ``repro.bench``.
"""

from ..scan import categorization_of, population_config_for

__all__ = ["categorization_of", "population_config_for"]
