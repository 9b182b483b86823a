from importlib import resources

import pytest

from rtlcheck.corpus import ENTRIES
from rtlcheck.parser import parse_program, parse_properties


@pytest.fixture(scope="session")
def corpus_text():
    """The text of each bundled corpus file, by file name, read as package data."""
    folder = resources.files("rtlcheck").joinpath("corpus")
    names = {f for e in ENTRIES for f in (e.program_file, e.property_file)}
    return {name: folder.joinpath(name).read_text() for name in sorted(names)}


@pytest.fixture(scope="session")
def corpus(corpus_text):
    """(entry, parsed program, parsed property file) for each bundled example."""
    out = []
    for entry in ENTRIES:
        source = parse_program(corpus_text[entry.program_file])
        assert source.term is not None, source.diagnostics
        props = parse_properties(corpus_text[entry.property_file], source.arities())
        assert not props.diagnostics, props.diagnostics
        out.append((entry, source, props))
    return out


@pytest.fixture(scope="session")
def corpus_by_name(corpus):
    return {entry.name: (entry, source, props)
            for entry, source, props in corpus}
