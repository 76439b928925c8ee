"""A compiled callable as it ran before plain floats came first: its
generated function on the state as given (an ndarray stays an ndarray), with
compile_exprs's error mapping and finiteness check.  The reference of the
float-first tests."""

import math

from spraydirac.errors import EvalDomainError, UnboundParameterError


def on_ndarray(fn):
    raw = fn.raw

    def call(z, params=None):
        try:
            out = raw(z, params or {})
        except ZeroDivisionError as exc:
            raise EvalDomainError("division by zero") from exc
        except OverflowError as exc:
            raise EvalDomainError("overflow") from exc
        except ValueError as exc:
            raise EvalDomainError(str(exc)) from exc
        except KeyError as exc:
            raise UnboundParameterError(f"parameter {exc.args[0]!r} has no bound value") from exc
        for v in out:
            if not math.isfinite(v):
                raise EvalDomainError("non-finite value in compiled evaluation")
        return out

    return call
