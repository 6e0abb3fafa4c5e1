"""The tolerance table against the library that reads it."""

import dataclasses
import pathlib
import re
import tokenize

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


def test_every_local_tolerance_says_why():
    # a threshold outside config.py needs a comment on its line or the two
    # above, saying why no Tolerances field serves
    bare = []
    for path in sorted(SRC.glob("*.py")):
        if path.name == "config.py":
            continue
        with path.open() as fh:
            tokens = list(tokenize.generate_tokens(fh.readline))
        commented = {t.start[0] for t in tokens if t.type == tokenize.COMMENT}
        for t in tokens:
            if t.type == tokenize.NUMBER and re.search(r"[eE]-\d", t.string):
                row = t.start[0]
                if not commented & {row - 2, row - 1, row}:
                    bare.append(f"{path.name}:{row}: {t.line.strip()}")
    assert bare == []
