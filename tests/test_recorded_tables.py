"""The CLI's tables against values recorded from an earlier build.

Two builds must give the same tables to 1e-10 relative.  This runs the
three examples at nh=17 on levels 4 and 8 through ``main`` and compares
every err_* and eoc_* field of every CSV, at full precision through
summary.jsonl, with the values below.  An order is a difference of two
logarithms over log 2, so errors that each move by 1e-10 relative move it
by up to 2e-10 / log 2 absolute: orders get that much absolute slack.
"""

import json

import pytest

from parapt.cli import CSV_HEADER, main

FIELDS = ("err_L1", "err_L2", "err_Linf", "eoc_L1", "eoc_L2", "eoc_Linf")

# (example, table, M): err_L1, err_L2, err_Linf, eoc_L1, eoc_L2, eoc_Linf
RECORDED = {
    ("1", "control", 4): (
        0.011068914172301887, 0.04910789668618258, 0.46176999941618746,
        None, None, None),
    ("1", "control", 8): (
        0.015724321988066524, 0.05988069159888921, 0.46047653893608853,
        -0.5064841063969058, -0.2861358514999168, 0.004046792622505285),
    ("1", "state", 4): (
        0.09187591075256749, 0.4899173121749494, 9.156315408504724,
        None, None, None),
    ("1", "state", 8): (
        0.0455002852368686, 0.24731071427231338, 5.1241862346562215,
        1.0138110566790202, 0.9862135298032493, 0.8374442501209272),
    ("1", "state_projected", 4): (
        0.023784564182337736, 0.12032904799655837, 2.0690731989803695,
        None, None, None),
    ("1", "state_projected", 8): (
        0.005609417004727268, 0.029793365899648826, 0.6488849728868402,
        2.084102848007214, 2.0139219318117645, 1.672950024217534),
    ("1", "adjoint", 4): (
        0.00020317682954500878, 0.001136648965924529, 0.01866395439754301,
        None, None, None),
    ("1", "adjoint", 8): (
        0.00011875690127111331, 0.0005484721911204184, 0.008290969473448317,
        0.7747245307206218, 1.0512963925507586, 1.1706419746030476),
    ("2", "control", 4): (
        0.0046484638401286605, 0.01259918359500287, 0.05200183021474736,
        None, None, None),
    ("2", "control", 8): (
        0.005373588534353847, 0.014519927402639486, 0.06362261054035317,
        -0.20913182261537852, -0.20470398745688412, -0.2909771691563861),
    ("2", "state", 4): (
        0.14350783133903144, 0.2921893459603457, 1.5002144293886692,
        None, None, None),
    ("2", "state", 8): (
        0.05390374517027036, 0.11173445734155603, 0.7610924509349303,
        1.412672049724221, 1.386829413030383, 0.9790251078441662),
    ("2", "state_projected", 4): (
        0.1418292451347039, 0.2860506857723365, 1.9985324535428004,
        None, None, None),
    ("2", "state_projected", 8): (
        0.026069480453834167, 0.05734756612963324, 0.3614632802766955,
        2.4437213100148862, 2.3184666393871995, 2.4670199987644654),
    ("2", "adjoint", 4): (
        0.022535238597662034, 0.04941475398936177, 0.2140230812781362,
        None, None, None),
    ("2", "adjoint", 8): (
        0.02388476682912959, 0.04800397796693029, 0.23630118955043677,
        -0.08390806777851798, 0.04178789495550945, -0.1428604997329096),
    ("manufactured", "state", 4): (
        0.005132373697065945, 0.010498404002845747, 0.06421601864535131,
        None, None, None),
    ("manufactured", "state", 8): (
        0.002714843697537182, 0.005617344125734089, 0.035830208259090446,
        0.9187570796585447, 0.9022099298762623, 0.8417567925318716),
    ("manufactured", "state_projected", 4): (
        0.0013822250444420934, 0.002549011902973819, 0.01074823424115634,
        None, None, None),
    ("manufactured", "state_projected", 8): (
        0.0012788041849538963, 0.002348641633878624, 0.008208583623267929,
        0.11219715406963561, 0.11811151288880141, 0.38889445402887596),
    ("manufactured", "adjoint", 4): (
        0.0003514708786952089, 0.0007893412047140056, 0.0071267700511147836,
        None, None, None),
    ("manufactured", "adjoint", 8): (
        0.00032414619604650925, 0.0007160505639536933, 0.004874564585954644,
        0.11676051643609243, 0.14058759480413646, 0.5479750180358783),
}


@pytest.mark.parametrize("example", ["1", "2", "manufactured"])
def test_tables_match_recorded_values(example, tmp_path):
    out = tmp_path / example
    assert main(["--example", example, "--nh", "17", "--levels", "4,8",
                 "--out", str(out)]) == 0
    want = {(table, M): values for (ex, table, M), values in RECORDED.items()
            if ex == example}
    summary = {(r["table"], r["M"]): r for r in map(
        json.loads, (out / "summary.jsonl").read_text().splitlines())}
    assert sorted(summary) == sorted(want)
    tables = {table for table, _ in want}
    assert sorted(p.stem for p in out.glob("*.csv")) == sorted(tables)
    for table in tables:
        lines = (out / f"{table}.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[1]) for row in rows] == [4, 8]
        for row in rows:
            M = int(row[1])
            for name, cell, value in zip(FIELDS, row[3:], want[table, M]):
                got, where = summary[table, M][name], (example, table, M, name)
                if value is None:
                    assert got is None and cell == "", where
                    continue
                slack = 3e-10 if name.startswith("eoc") else 0.0
                assert got == pytest.approx(value, rel=1e-10, abs=slack), where
                assert cell == f"{got:.8g}", where
