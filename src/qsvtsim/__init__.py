"""Matrix-level simulator for step-polynomial eigenvalue estimation.

The package covers the full pipeline: certified step-function polynomials
(chebpoly), dense block-encodings and eigenvalue transforms (blockenc),
seeded sampling with query/depth bookkeeping (sampler), the tunable
estimation algorithm and its baselines (estimator), problem reductions
from phase and amplitude estimation (reductions), and a CLI (cli).  The
package re-exports nothing: import the submodule that holds a name.
"""

__version__ = "0.1.0"
