import types

import phasekit as pk


def test_all_lists_every_public_name_once():
    names = pk.__all__
    assert len(names) == len(set(names))
    missing = [n for n in names if not hasattr(pk, n)]
    assert missing == []
    public = {n for n in dir(pk) if not n.startswith("_")
              and not isinstance(getattr(pk, n), types.ModuleType)}
    assert public - set(names) == set()
