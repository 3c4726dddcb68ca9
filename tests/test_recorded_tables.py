"""The CLI's tables against values recorded from an earlier build.

Two builds must give the same tables to 1e-10 relative.  This runs the
three examples at nh=17 on levels 4 and 8, and example 1 at nh=65 on its
default levels, through ``main`` and compares every err_* and eoc_* field
of every CSV, at full precision through summary.jsonl, with the values
below.  An order is a difference of two logarithms over log 2, so errors
that each move by 1e-10 relative move it by up to 2e-10 / log 2 absolute:
orders get that much absolute slack.
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

# example 1 at nh=65 on its default levels 10..160, recorded while the
# reduced map marched the source's state; folding that state into the load
# weights moves the control's eoc_Linf at M=160, an order near 0, by 1.8e-12
RECORDED_EX1_NH65 = {
    ("control", 10): (
        0.001872661159924573, 0.009205028964764113, 0.09903783140207167,
        None, None, None),
    ("control", 20): (
        0.0006997263930703494, 0.002941176456076692, 0.02911878310566962,
        1.4202270663719319, 1.6460289197947793, 1.7660296591315499),
    ("control", 40): (
        0.0010709746252609016, 0.004081601200985634, 0.02909084778708504,
        -0.6140614835420226, -0.4727418871508446, 0.0013847244197755515),
    ("control", 80): (
        0.0011696007814251223, 0.004511861479017826, 0.029083936719747072,
        -0.12709188175163244, -0.1445875469363277, 0.00034277952921228216),
    ("control", 160): (
        0.001194303036849199, 0.004624664578460698, 0.029082211415627057,
        -0.030152765436826337, -0.03562595693777151,
        8.558544027716976e-05),
    ("state", 10): (
        0.036197443064413484, 0.19882775936217836, 4.17034891415841, None,
        None, None),
    ("state", 20): (
        0.017956765755423418, 0.09954137140734295, 2.19100667785888,
        1.0113602654581688, 0.998151024359593, 0.9285742110108075),
    ("state", 40): (
        0.008973806274466128, 0.04979517872285954, 1.1239746174737633,
        1.000735580813413, 0.9992901993422078, 0.9629844256606237),
    ("state", 80): (
        0.004521718964817426, 0.02491769663210484, 0.5693789982103183,
        0.9888487115328858, 0.998835351009813, 0.9811482710457486),
    ("state", 160): (
        0.002300169148761791, 0.012495386002248924, 0.28657317484005773,
        0.9751313707740339, 0.9957752439383025, 0.9904857095883544),
    ("state_projected", 10): (
        0.004369081469681119, 0.02321019354083868, 0.4303490497537723,
        None, None, None),
    ("state_projected", 20): (
        0.000989943200368998, 0.005707894331790486, 0.11882757118654297,
        2.1419123521138386, 2.0237280207338233, 1.856637664282155),
    ("state_projected", 40): (
        0.00026971993075931513, 0.0013386291644259414,
        0.031274995132697825, 1.875883618129319, 2.0922022755176983,
        1.9257880539810603),
    ("state_projected", 80): (
        0.00022734676913281477, 0.000933730631332623, 0.00802616296548564,
        0.246567630598915, 0.5196780343959613, 1.962227305449074),
    ("state_projected", 160): (
        0.00025423428233760495, 0.0010452929844925831,
        0.008069501505584498, -0.16126408250965707, -0.16282905399541434,
        -0.007769104294001899),
    ("adjoint", 10): (
        3.750218564690226e-05, 0.00022305287471375375,
        0.004694024478303194, None, None, None),
    ("adjoint", 20): (
        8.246314624892688e-06, 4.390943719453192e-05, 0.000922932507552654,
        2.1851532679754544, 2.3447827936638075, 2.3465283101527623),
    ("adjoint", 40): (
        8.580012712975218e-06, 3.831838773227865e-05,
        0.0004953535446688972, -0.057230279373985456, 0.19649418281665318,
        0.8977665740976147),
    ("adjoint", 80): (
        1.0238186695148317e-05, 4.55450087792e-05, 0.00048025978461185836,
        -0.2549085290061715, -0.24925609939114615, 0.044643568799177726),
    ("adjoint", 160): (
        1.0666751005920312e-05, 4.765456369599906e-05,
        0.00048018887996248427, -0.059160591973314185, -0.065321422621813,
        0.00021301250131713643),
}


@pytest.mark.parametrize("example", ["1", "2", "manufactured"])
def test_tables_match_recorded_values(example, tmp_path):
    want = {(table, M): values for (ex, table, M), values in RECORDED.items()
            if ex == example}
    _assert_tables(["--example", example, "--nh", "17", "--levels", "4,8"],
                   want, tmp_path)


def test_example1_default_levels_at_nh65_match_recorded_values(tmp_path):
    _assert_tables(["--example", "1", "--nh", "65"], RECORDED_EX1_NH65,
                   tmp_path)


def _assert_tables(argv, want, tmp_path):
    """Run ``main`` on ``argv`` and compare its tables with ``want``, keyed
    by (table, M)."""
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    levels = sorted({M for _, M in want})
    summary = {(r["table"], r["M"]): r for r in map(
        json.loads, (out / "summary.jsonl").read_text().splitlines())}
    assert sorted(summary) == sorted(want)
    tables = {table for table, _ in want}
    assert sorted(p.stem for p in out.glob("*.csv")) == sorted(tables)
    for table in tables:
        lines = (out / f"{table}.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [int(row[1]) for row in rows] == levels
        for row in rows:
            M = int(row[1])
            for name, cell, value in zip(FIELDS, row[3:], want[table, M]):
                got, where = summary[table, M][name], (argv, table, M, name)
                if value is None:
                    assert got is None and cell == "", where
                    continue
                slack = 3e-10 if name.startswith("eoc") else 0.0
                assert got == pytest.approx(value, rel=1e-10, abs=slack), where
                assert cell == f"{got:.8g}", where
