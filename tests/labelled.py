"""Check a chain of labelled solver errors (``core._labelled``)."""

from geocalc import SolverError


def assert_labelled(err, *prefixes):
    """``err`` carries ``prefixes`` in turn, outermost first: each label is
    a SolverError whose message is its prefix and its cause's message, with
    the cause's residual.  Returns the innermost error."""
    for prefix in prefixes:
        cause = err.__cause__
        assert isinstance(err, SolverError) and isinstance(cause, SolverError)
        assert str(err) == prefix + str(cause)
        assert err.residual is cause.residual
        err = cause
    return err
