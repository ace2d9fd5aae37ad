"""Exception types shared across the package."""


class NumericalError(RuntimeError):
    """A computation broke down numerically (non-finite value, failed
    factorization, invalid variational parameter, non-convergent bracket).

    The command-line interface maps this to exit code 1.
    """

    method = None  # the estimator that failed, "vb", "mle" or "mcmc", where known


class DataError(ValueError):
    """Malformed or out-of-domain input data (bad CSV, non-positive times,
    non-binary status). Mapped to exit code 2 by the CLI.
    """
