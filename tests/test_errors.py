"""Sanity tests for the exception hierarchy."""

import pytest

from repro import errors


class TestHierarchy:
    def test_single_root(self):
        leaf_classes = [
            errors.UnknownCurrencyError,
            errors.CurrencyCycleError,
            errors.InvalidAgreementMatrixError,
            errors.InsufficientResourcesError,
            errors.LPSolverError,
            errors.UnknownPrincipalError,
            errors.SimulationError,
            errors.WorkloadError,
        ]
        for cls in leaf_classes:
            assert issubclass(cls, errors.ReproError), cls

    def test_keyerror_compat(self):
        """Lookup errors double as KeyError so dict-style callers work."""
        assert issubclass(errors.UnknownCurrencyError, KeyError)
        assert issubclass(errors.UnknownTicketError, KeyError)
        assert issubclass(errors.UnknownPrincipalError, KeyError)

    def test_valueerror_compat(self):
        assert issubclass(errors.InvalidAgreementMatrixError, ValueError)
        assert issubclass(errors.DuplicateNameError, ValueError)

    def test_insufficient_resources_payload(self):
        exc = errors.InsufficientResourcesError("p", 5.0, 2.0)
        assert exc.principal == "p"
        assert exc.requested == 5.0
        assert exc.available == 2.0
        assert "5" in str(exc) and "2" in str(exc)

    def test_all_exports_exist(self):
        for name in errors.__all__:
            assert hasattr(errors, name), name

    def test_catch_all_with_root(self):
        with pytest.raises(errors.ReproError):
            raise errors.LPSolverError("x")
