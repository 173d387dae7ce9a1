"""Authenticity-based cuisine characterisation (Section V-B / Figure 5)."""

from repro.authenticity.fingerprint import (
    CuisineFingerprint,
    cuisine_fingerprints,
    fingerprint_overlap,
)
from repro.authenticity.prevalence import PrevalenceMatrix, prevalence_matrix
from repro.authenticity.relative import AuthenticityMatrix, relative_prevalence

__all__ = [
    "CuisineFingerprint",
    "cuisine_fingerprints",
    "fingerprint_overlap",
    "PrevalenceMatrix",
    "prevalence_matrix",
    "AuthenticityMatrix",
    "relative_prevalence",
]
