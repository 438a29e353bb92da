import os
import sys
from pathlib import Path

import pytest

DATA = Path(__file__).parent / "data"
sys.path.insert(0, str(Path(__file__).parent))
# pyproject's pythonpath reaches only this process; tests that start
# `python -m wikiv6` or the benchmark need the source tree on PYTHONPATH too.
_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))


@pytest.fixture
def data_dir() -> Path:
    return DATA


@pytest.fixture
def fixture_dump() -> Path:
    return DATA / "fixturewiki-20241201-pages-meta-history1.xml"


@pytest.fixture
def dewiki_dump() -> Path:
    return DATA / "dewiki-20241201-pages-meta-history1.xml"


@pytest.fixture
def oui_csv() -> Path:
    return DATA / "oui_fixture.csv"


@pytest.fixture
def hitlist_tsv() -> Path:
    return DATA / "hitlist_fixture.tsv"


@pytest.fixture
def golden_records() -> Path:
    return DATA / "golden_records.tsv"


@pytest.fixture
def golden_stats() -> Path:
    return DATA / "golden_stats.json"
