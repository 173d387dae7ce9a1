"""Schema definition and validation for the RecipeDB substrate.

The schema is intentionally small -- it mirrors what the paper extracts from
RecipeDB -- but it is enforced strictly so the downstream mining and clustering
code can rely on clean inputs:

* every recipe must reference a registered region;
* entity lists must only contain names present in the corresponding catalogue
  when the database runs in *strict* mode;
* field sizes are bounded to catch wildly malformed rows early.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Mapping

import numpy as np

from repro.errors import SchemaError
from repro.recipedb.models import EntityKind, Recipe

if TYPE_CHECKING:
    from repro.recipedb.columns import RecipeColumns

__all__ = ["SchemaLimits", "RecipeSchema", "SchemaViolation"]


@dataclass(frozen=True, slots=True)
class SchemaLimits:
    """Bounds applied to every recipe row.

    The defaults are generous relative to the paper's corpus statistics
    (an average recipe has ~10 ingredients, ~12 processes and ~3 utensils)
    while still rejecting clearly corrupted rows.
    """

    max_ingredients: int = 120
    max_processes: int = 160
    max_utensils: int = 40
    max_title_length: int = 300

    def __post_init__(self) -> None:
        for name in ("max_ingredients", "max_processes", "max_utensils", "max_title_length"):
            if getattr(self, name) <= 0:
                raise SchemaError(f"{name} must be positive")


@dataclass(frozen=True, slots=True)
class SchemaViolation:
    """A single validation failure for a recipe row."""

    recipe_id: int
    field: str
    message: str

    def __str__(self) -> str:
        return f"recipe {self.recipe_id}: {self.field}: {self.message}"


@dataclass(slots=True)
class RecipeSchema:
    """Validates recipes against registered regions and entity catalogues.

    Parameters
    ----------
    regions:
        Names of the registered regions/cuisines.
    catalogues:
        Optional mapping of :class:`EntityKind` to the set of known entity
        names.  When provided and ``strict`` is true, recipes referencing
        unknown entities are rejected.
    strict:
        Whether unknown entities are schema violations (``True``) or silently
        accepted (``False``, the default -- matching how RecipeDB itself grows
        its vocabulary from recipe rows).
    limits:
        Size bounds, see :class:`SchemaLimits`.
    """

    regions: set[str] = field(default_factory=set)
    catalogues: dict[EntityKind, set[str]] = field(default_factory=dict)
    strict: bool = False
    limits: SchemaLimits = field(default_factory=SchemaLimits)

    def register_region(self, name: str) -> None:
        self.regions.add(name)

    def register_entity(self, kind: EntityKind, name: str) -> None:
        self.catalogues.setdefault(kind, set()).add(name)

    # -- validation --------------------------------------------------------

    def violations(self, recipe: Recipe) -> list[SchemaViolation]:
        """Return every schema violation of *recipe* (empty list == valid)."""
        found: list[SchemaViolation] = []
        if len(recipe.title) > self.limits.max_title_length:
            found.append(
                SchemaViolation(
                    recipe.recipe_id,
                    "title",
                    f"longer than {self.limits.max_title_length} characters",
                )
            )
        if self.regions and recipe.region not in self.regions:
            found.append(
                SchemaViolation(
                    recipe.recipe_id, "region", f"unknown region {recipe.region!r}"
                )
            )
        found.extend(self._check_size(recipe, "ingredients", self.limits.max_ingredients))
        found.extend(self._check_size(recipe, "processes", self.limits.max_processes))
        found.extend(self._check_size(recipe, "utensils", self.limits.max_utensils))
        if self.strict:
            found.extend(self._check_catalogue(recipe, EntityKind.INGREDIENT, recipe.ingredients))
            found.extend(self._check_catalogue(recipe, EntityKind.PROCESS, recipe.processes))
            found.extend(self._check_catalogue(recipe, EntityKind.UTENSIL, recipe.utensils))
        return found

    def validate(self, recipe: Recipe) -> None:
        """Raise :class:`SchemaError` when *recipe* violates the schema."""
        found = self.violations(recipe)
        if found:
            details = "; ".join(str(v) for v in found)
            raise SchemaError(f"recipe {recipe.recipe_id} violates schema: {details}")

    def validate_columns(self, columns: "RecipeColumns") -> None:
        """Raise :class:`SchemaError` when a row of *columns* breaks a limit.

        The title, region and per-kind size checks of :meth:`violations`,
        over the arrays at once (the strict catalogue check is left out: a
        columns-built database starts with the default, non-strict schema).
        The first violating row is then validated as a recipe, so the error
        names it exactly as :meth:`validate` would.
        """
        limits = self.limits
        titles = np.fromiter(map(len, columns.titles), dtype=np.int64, count=len(columns))
        bad = titles > limits.max_title_length
        if self.regions:
            unknown = [
                code for code, name in enumerate(columns.regions) if name not in self.regions
            ]
            bad |= np.isin(columns.region_codes, unknown)
        for column, maximum in zip(
            columns.kinds,
            (limits.max_ingredients, limits.max_processes, limits.max_utensils),
        ):
            bad |= column.lengths() > maximum
        rows = np.flatnonzero(bad)
        if len(rows):
            self.validate(columns.recipe(int(rows[0])))

    def is_valid(self, recipe: Recipe) -> bool:
        """Return ``True`` when *recipe* passes all schema checks."""
        return not self.violations(recipe)

    # -- helpers -----------------------------------------------------------

    def _check_size(
        self, recipe: Recipe, attr: str, maximum: int
    ) -> list[SchemaViolation]:
        values: tuple[str, ...] = getattr(recipe, attr)
        if len(values) > maximum:
            return [
                SchemaViolation(
                    recipe.recipe_id, attr, f"{len(values)} entries exceed limit {maximum}"
                )
            ]
        return []

    def _check_catalogue(
        self, recipe: Recipe, kind: EntityKind, values: Iterable[str]
    ) -> list[SchemaViolation]:
        known = self.catalogues.get(kind)
        if known is None:
            return []
        unknown = sorted(v for v in values if v not in known)
        if not unknown:
            return []
        return [
            SchemaViolation(
                recipe.recipe_id,
                kind.value,
                f"unknown entities: {', '.join(unknown[:5])}"
                + ("..." if len(unknown) > 5 else ""),
            )
        ]

    @classmethod
    def from_mapping(cls, payload: Mapping[str, object]) -> "RecipeSchema":
        """Build a schema from a JSON-like mapping (used by the CLI)."""
        limits_payload = payload.get("limits", {})
        limits = SchemaLimits(**limits_payload) if limits_payload else SchemaLimits()
        catalogues: dict[EntityKind, set[str]] = {}
        for kind in EntityKind:
            names = payload.get(f"{kind.value}s")
            if names:
                catalogues[kind] = {str(n) for n in names}  # type: ignore[union-attr]
        return cls(
            regions={str(r) for r in payload.get("regions", ())},  # type: ignore[union-attr]
            catalogues=catalogues,
            strict=bool(payload.get("strict", False)),
            limits=limits,
        )
