"""Design-adaptive local k-NN regression under covariate shift.

Library layout:

- geom: exact k-nearest-neighbour queries with deterministic ties
- distributions: parametric covariate laws, ball mass, regularity checks
- transfer: the transfer function and integrability-index brackets
- estimator: the two-sample local k-NN regressor with plug-in density
- rates: configuration/regime taxonomy and minimax-rate formulas
- harness: Monte Carlo sweeps, slope fits, and regime verification
- cli: transfer-knn command-line front end
"""

__version__ = "0.1.0"
