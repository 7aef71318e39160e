"""Bundled data stays in lockstep with the rules that generated it."""

from __future__ import annotations

from pathlib import Path

from crossmaps.core import Crossmap
from crossmaps.datasets import occupation_recode, occupation_recode_path
from crossmaps.formats import read_edge_list, write_edge_list

from helpers import country_crossmap
from occupation_fixture import occupation_crossmap_from_rules


def test_country_recode_shape():
    crossmap = country_crossmap()
    assert crossmap.sources == ("AUS", "BLX", "E.GER", "W.GER")
    assert crossmap.targets == ("AUS", "BEL", "DEU", "LUX")
    assert crossmap.split_sources == ("BLX",)


def test_bundled_occupation_csv_matches_banding_rules_byte_for_byte():
    expected = write_edge_list(occupation_crossmap_from_rules())
    assert Path(occupation_recode_path()).read_text(encoding="utf-8") == expected


def test_occupation_recode_loads():
    crossmap = occupation_recode()
    assert len(crossmap.edges) == 329
    assert len(crossmap.targets) == 12


def test_occupation_recode_is_read_once_and_shared():
    assert occupation_recode() is occupation_recode()
    assert occupation_recode() == Crossmap(read_edge_list(occupation_recode_path()).edges)
