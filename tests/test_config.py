"""The tolerance table against the library that reads it."""

import dataclasses
import pathlib
import re

import circlequad
from circlequad.config import Tolerances

SRC = pathlib.Path(circlequad.__file__).parent


def test_every_tolerance_is_read():
    # a field no module reads is a knob that turns nothing
    source = "".join(p.read_text() for p in SRC.glob("*.py") if p.name != "config.py")
    unread = [
        f.name for f in dataclasses.fields(Tolerances)
        if not re.search(rf"\bTOL\.{f.name}\b", source)
    ]
    assert unread == []
