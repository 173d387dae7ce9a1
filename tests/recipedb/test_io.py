"""Unit tests for JSON / JSONL / CSV persistence."""

from __future__ import annotations

import json

import pytest

from repro.errors import SerializationError
from repro.recipedb.io_csv import iter_csv, load_csv, save_csv
from repro.recipedb.io_json import (
    FORMAT_VERSION,
    iter_jsonl,
    load_json,
    load_jsonl,
    save_json,
    save_jsonl,
)


class TestJson:
    def test_roundtrip(self, toy_db, tmp_path):
        path = save_json(toy_db, tmp_path / "corpus.json", indent=2)
        loaded = load_json(path)
        assert len(loaded) == len(toy_db)
        assert loaded.region_names() == toy_db.region_names()
        assert loaded.get(0) == toy_db.get(0)

    def test_header_contains_version_and_regions(self, toy_db, tmp_path):
        path = save_json(toy_db, tmp_path / "corpus.json")
        payload = json.loads(path.read_text())
        assert payload["format_version"] == FORMAT_VERSION
        assert payload["n_recipes"] == 9
        assert {r["name"] for r in payload["regions"]} == {"Italian", "Japanese", "UK"}

    def test_region_continents_preserved(self, toy_db, tmp_path):
        path = save_json(toy_db, tmp_path / "corpus.json")
        loaded = load_json(path)
        japanese = [r for r in loaded.regions() if r.name == "Japanese"][0]
        assert japanese.continent == "Asia"

    def test_unsupported_version_rejected(self, toy_db, tmp_path):
        path = save_json(toy_db, tmp_path / "corpus.json")
        payload = json.loads(path.read_text())
        payload["format_version"] = 999
        path.write_text(json.dumps(payload))
        with pytest.raises(SerializationError):
            load_json(path)

    def test_invalid_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(SerializationError):
            load_json(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError):
            load_json(tmp_path / "missing.json")

    @pytest.mark.parametrize(
        "text",
        [
            "[]",
            '"corpus"',
            "null",
            '{"format_version": 1, "regions": {}, "recipes": []}',
            '{"format_version": 1, "regions": [], "recipes": "oops"}',
            '{"format_version": 1, "regions": [], "recipes": {"0": {}}}',
            '{"format_version": 1, "regions": [], "recipes": [["not", "a", "recipe"]]}',
            '{"format_version": 1, "regions": [],'
            ' "recipes": [{"recipe_id": "abc", "title": "t", "region": "X",'
            ' "ingredients": ["salt"]}]}',
            '{"format_version": 1, "regions": [],'
            ' "recipes": [{"recipe_id": 0, "title": "t", "region": "X",'
            ' "ingredients": "salt"}]}',
            '{"format_version": 1, "regions": [], "recipes": ['
            '{"recipe_id": 0, "title": "t", "region": "X", "ingredients": ["salt"]},'
            '{"recipe_id": 0, "title": "u", "region": "X", "ingredients": ["salt"]}]}',
        ],
        ids=[
            "list",
            "string",
            "null",
            "regions-object",
            "recipes-string",
            "recipes-object",
            "recipe-list",
            "non-integer-id",
            "string-ingredients",
            "duplicate-id",
        ],
    )
    def test_valid_json_of_wrong_shape_rejected(self, tmp_path, text):
        path = tmp_path / "corpus.json"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(SerializationError):
            load_json(path)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "corpus.json"
        path.write_bytes(b"\xff\xfe\x00{")
        with pytest.raises(SerializationError):
            load_json(path)

    def test_save_json_bytes_match_streaming_encoder(self, toy_db, tmp_path):
        for indent in (None, 2):
            path = save_json(toy_db, tmp_path / "corpus.json", indent=indent)
            payload = json.loads(path.read_text(encoding="utf-8"))
            with open(tmp_path / "streamed.json", "w", encoding="utf-8") as handle:
                json.dump(payload, handle, indent=indent, sort_keys=False)
            assert path.read_bytes() == (tmp_path / "streamed.json").read_bytes()


class TestJsonl:
    def test_roundtrip(self, toy_db, tmp_path):
        path = save_jsonl(toy_db, tmp_path / "corpus.jsonl")
        loaded = load_jsonl(path)
        assert len(loaded) == len(toy_db)
        assert loaded.get(3).title == toy_db.get(3).title

    def test_loaded_copy_holds_the_same_recipes(self, toy_db, tmp_path):
        loaded = load_jsonl(save_jsonl(toy_db, tmp_path / "corpus.jsonl"))
        assert loaded.recipes() == toy_db.recipes()
        assert loaded.region_recipe_counts() == toy_db.region_recipe_counts()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="missing.jsonl"):
            load_jsonl(tmp_path / "missing.jsonl")

    def test_accepts_recipe_iterable(self, toy_recipes, tmp_path):
        path = save_jsonl(toy_recipes, tmp_path / "recipes.jsonl")
        assert len(list(iter_jsonl(path))) == len(toy_recipes)

    def test_blank_lines_skipped(self, toy_recipes, tmp_path):
        path = save_jsonl(toy_recipes[:2], tmp_path / "recipes.jsonl")
        path.write_text(path.read_text() + "\n\n")
        assert len(list(iter_jsonl(path))) == 2

    def test_malformed_line_reports_location(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_text('{"recipe_id": 0}\n')
        with pytest.raises(SerializationError):
            list(iter_jsonl(path))

    @pytest.mark.parametrize(
        ("lines", "line"),
        [
            (['{"recipe_id": 0, "title": "t", "region": "X", "ingredients": "salt"}'], 1),
            (
                [
                    '{"recipe_id": 0, "title": "t", "region": "X", "ingredients": ["salt"],'
                    ' "utensils": "wok"}'
                ],
                1,
            ),
            (['{"recipe_id": "abc", "title": "t", "region": "X", "ingredients": ["salt"]}'], 1),
            (['["not", "a", "recipe"]'], 1),
            (['{"recipe_id": 0, "title": "t", "region": "X", "ingredients": []}'], 1),
            (
                [
                    '{"recipe_id": 0, "title": "t", "region": "X", "ingredients": ["salt"]}',
                    "",
                    '{"recipe_id": 0, "title": "u", "region": "X", "ingredients": ["salt"]}',
                ],
                3,
            ),
            (
                [
                    '{"recipe_id": 0, "title": "t", "region": "X", "ingredients": ["salt"]}',
                    f'{{"recipe_id": 1, "title": "{"x" * 301}", "region": "X",'
                    ' "ingredients": ["salt"]}',
                ],
                2,
            ),
        ],
        ids=[
            "string-ingredients",
            "string-utensils",
            "non-integer-id",
            "list",
            "no-ingredients",
            "duplicate-id",
            "title-too-long",
        ],
    )
    def test_wrong_shape_line_rejected(self, tmp_path, lines, line):
        path = tmp_path / "broken.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(SerializationError, match=f"broken.jsonl:{line}:"):
            load_jsonl(path)

    def test_undecodable_bytes_rejected(self, tmp_path):
        path = tmp_path / "broken.jsonl"
        path.write_bytes(b"\xff\xfe\x00\n")
        with pytest.raises(SerializationError):
            list(iter_jsonl(path))


class TestCsv:
    def test_roundtrip(self, toy_db, tmp_path):
        path = save_csv(toy_db, tmp_path / "corpus.csv")
        loaded = load_csv(path)
        assert len(loaded) == len(toy_db)
        assert loaded.get(6).ingredients == toy_db.get(6).ingredients
        assert loaded.get(8).utensils == ()

    def test_loaded_copy_holds_the_same_recipes(self, toy_db, tmp_path):
        loaded = load_csv(save_csv(toy_db, tmp_path / "corpus.csv"))
        assert loaded.recipes() == toy_db.recipes()
        assert loaded.region_recipe_counts() == toy_db.region_recipe_counts()

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(SerializationError, match="missing.csv"):
            load_csv(tmp_path / "missing.csv")

    def test_names_are_normalised_on_load(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_text(
            "recipe_id,title,region,ingredients,processes,utensils,source\n"
            "0,Teriyaki  Chicken,Japanese,Soy Sauce|MIRIN| soy sauce ,Heat,,book\n"
        )
        loaded = load_csv(path)
        assert loaded.get(0).title == "teriyaki chicken"
        assert loaded.get(0).ingredients == ("mirin", "soy sauce")
        assert loaded.ingredient_usage() == {"mirin": 1, "soy sauce": 1}
        assert loaded.transactions_for_region("Japanese") == [
            frozenset({"heat", "mirin", "soy sauce"})
        ]

    def test_iter_csv_streams_recipes(self, toy_db, tmp_path):
        path = save_csv(toy_db, tmp_path / "corpus.csv")
        recipes = list(iter_csv(path))
        assert len(recipes) == 9
        assert recipes[0].region == "Japanese"

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "broken.csv"
        path.write_text("recipe_id,title\n0,x\n")
        with pytest.raises(SerializationError):
            list(iter_csv(path))

    @pytest.mark.parametrize(
        "row",
        [
            "not-an-int,title,Japanese,salt,heat,wok,src",
            "9,soup,Japanese,,heat,pot,src",
            "9,short row",
            "0,again,Japanese,salt,heat,wok,src",
            f"9,{'x' * 301},Japanese,salt,heat,wok,src",
        ],
        ids=["non-integer-id", "no-ingredients", "short-row", "duplicate-id", "title-too-long"],
    )
    def test_malformed_row_rejected(self, toy_db, row, tmp_path):
        path = save_csv(toy_db, tmp_path / "corpus.csv")
        content = path.read_text().splitlines()
        content.append(row)
        path.write_text("\n".join(content) + "\n")
        with pytest.raises(SerializationError, match=f"corpus.csv:{len(content)}:"):
            load_csv(path)

    def test_custom_separator(self, toy_db, tmp_path):
        path = save_csv(toy_db, tmp_path / "corpus.csv", separator=";")
        loaded = load_csv(path, separator=";")
        assert loaded.get(0).ingredients == toy_db.get(0).ingredients
