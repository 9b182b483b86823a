from importlib import resources

from rtlcheck.corpus import ENTRIES, obs
from rtlcheck.terms import FALSE, TRUE
from rtlcheck.normform import check_simplified


def test_three_entries():
    assert [e.name for e in ENTRIES] == ["example1", "example2", "example3"]


def test_entry_files_ship_as_package_data():
    folder = resources.files("rtlcheck").joinpath("corpus")
    for entry in ENTRIES:
        for fname in (entry.program_file, entry.property_file):
            assert folder.joinpath(fname).is_file(), fname


def test_expected_verdict_matrix():
    by_name = {e.name: e.expected_verdicts for e in ENTRIES}
    assert by_name["example1"] == {"mutex": FALSE, "nonstarve1": TRUE,
                                   "nonstarve2": TRUE}
    assert by_name["example2"] == {"mutex": TRUE, "nonstarve1": FALSE,
                                   "nonstarve2": FALSE}
    assert by_name["example3"] == {"mutex": TRUE, "nonstarve1": TRUE,
                                   "nonstarve2": TRUE}


def test_expected_traces_only_where_stated():
    by_name = {e.name: e for e in ENTRIES}
    assert set(by_name["example1"].expected_traces) == {"mutex"}
    assert set(by_name["example2"].expected_traces) == {"nonstarve1"}
    assert by_name["example3"].expected_traces == {}
    assert by_name["example1"].expected_traces["mutex"][-1] == obs("U", "U")


def test_all_programs_load_and_conform(corpus):
    for _, source, _ in corpus:
        assert check_simplified(source.term).conforms


def test_properties_share_one_file(corpus):
    assert {e.property_file for e in ENTRIES} == {"mutex.ltl"}
    for _, _, props in corpus:
        assert [n for n, _ in props.props] == ["mutex", "nonstarve1",
                                               "nonstarve2"]
        assert len(props.fair) == 6
