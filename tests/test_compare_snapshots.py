"""tools/compare_snapshots.py: byte-identical files pass, CSV columns may move by 1e-12."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "compare_snapshots.py"
spec = importlib.util.spec_from_file_location("compare_snapshots", TOOL)
compare_snapshots = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_snapshots)

CSV = "n,lhs,pde,e_n\n8,1.0,2.0,1.0\n16,1.5,2.0,0.5\n"


def snapshot(root: Path, csv: str = CSV, text: str = "ok\n", extra: str | None = None) -> str:
    (root / "clt").mkdir(parents=True)
    (root / "clt" / "p.csv").write_text(csv)
    (root / "clt-p.txt").write_text(text)
    if extra is not None:
        (root / extra).write_text("")
    return str(root)


@pytest.mark.parametrize(
    "change, status, shown",
    [
        ({}, 0, "OK"),
        ({"csv": CSV.replace("1.5,", "1.5000000000000002,")}, 0, "clt/p.csv: largest |difference| lhs 2.22e-16"),
        ({"csv": CSV.replace("1.5,", "1.5000001,")}, 1, "lhs 1e-07"),
        ({"csv": CSV.replace("1.5,", "x,")}, 1, "lhs inf"),
        ({"csv": CSV.replace("16,", "32,")}, 1, "clt/p.csv (n columns differ)"),
        ({"csv": CSV.replace("e_n", "err")}, 1, "clt/p.csv (headers differ)"),
        ({"text": "ok!\n"}, 1, "differs: clt-p.txt"),
        ({"extra": "new.txt"}, 1, "new.txt"),
    ],
    ids=["identical", "last-digit", "past-tolerance", "not-a-number", "other-n", "other-header",
         "text-differs", "one-side-only"],
)
def test_compare_snapshots(tmp_path, capsys, change, status, shown):
    a, b = snapshot(tmp_path / "a"), snapshot(tmp_path / "b", **change)
    assert compare_snapshots.main(["compare_snapshots.py", a, b]) == status
    assert shown in capsys.readouterr().out
