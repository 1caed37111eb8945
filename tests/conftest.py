"""Test-wide settings: a complex value silently cast to a real one fails the test."""
import numpy as np

# numpy.exceptions exists from numpy 1.25; 1.24 keeps the class at the top level
COMPLEX_WARNING = getattr(np, "exceptions", np).ComplexWarning


def pytest_configure(config):
    name = f"{COMPLEX_WARNING.__module__}.{COMPLEX_WARNING.__qualname__}"
    config.addinivalue_line("filterwarnings", f"error::{name}")
