import tuttezero


def test_all_names_resolve_once():
    names = tuttezero.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(tuttezero, name)]
    assert missing == []


def test_star_import():
    ns: dict = {}
    exec("from tuttezero import *", ns)
    assert set(tuttezero.__all__) <= ns.keys()
