"""Lambda-parallel unary unbiased search toolkit.

Bit-string search spaces, the benchmark objective suite, (1+lambda)
evolutionary algorithms with fixed and adaptive mutation rates, the
generic lambda-parallel framework, exact progress-law verification, and
runtime-bound curves with an experiment harness on top.
"""

from .algorithms import AlgoConfig, run_generic_parallel, run_one_plus_lambda
from .bitstring import BitString
from .harness import append_rows, read_runs

__version__ = "0.1.0"

__all__ = ["AlgoConfig", "BitString", "append_rows", "read_runs", "run_generic_parallel",
           "run_one_plus_lambda"]
