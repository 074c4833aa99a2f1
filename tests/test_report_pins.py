"""Report bytes pinned across refactors, one subsum ladder per report,
each interior-certificate search run at most once per report, I_n swept
from F_n only at level 0 and the Kakeya indices, and iteration rows and the
uniqueness section's repetition report written as text without building
their dicts, each endpoint string of the rows formatted once per report,
the rows that hold one Bricks written from one text, and one tight trend
computed per report.

The digests are sha256 of ``json.dumps(build_report(...), indent=2)`` for
every bundled spec, recorded before the analysis layers were rewired to read
a shared SubsumLadder.  A horizon above and below the depth makes the ladder
extend lazily in both orders.  The depth-14 digests, recorded before the
repetition report kept its collisions on the integer lattice, cover the
uniqueness section at its deepest level, k = 12, where ferens_5432 has 1,131
collided sums.  At cap 100 and depth 7 most specs exhaust the
capacity, and the message must still name the first oversized level.

The CLI writes reports with its own indent-2 encoder, so the bytes it
writes are pinned as well: for the same grid, ``analyze --out`` must write
exactly ``json.dumps(build_report(...), indent=2) + "\n"`` with the pinned
digest, and ``analyze --format csv`` must write the same bytes to its
``report.json``.  ``CSV_SHA256_DEPTH_6`` pins the tables that ``analyze
--format csv`` writes beside it, recorded while they were still read from
the plain-JSON rows.  ``VALIDATE_SHA256`` pins the whole file that ``validate
--out`` writes for every bundled spec, recorded with ``json.dumps`` before
the encoder replaced it.  ``HUMAN_SHA256_DEPTH_6`` pins what ``analyze
--format human`` writes for every bundled spec, recorded while the summary
still read the uniqueness section as plain JSON.

Every bundled spec has an empty preperiod, so ``PREPERIOD_SHA256`` pins
what ``validate --format json`` and ``analyze --depth 6`` print for one
spec per family with a nonempty preperiod and a period of 2, recorded
before ``periodic_tail`` replaced the per-family tail sums.
``STRESS_SHA256`` pins what ``analyze`` prints for two long streams,
recorded before the streams moved onto their integer lattices.
"""

import hashlib
import json
from pathlib import Path

import pytest

from cantorval import classify, engine, series, tightness, uniqueness
from cantorval.engine import IterationRows
from cantorval.cli import _analysis, _dumps, build_report, main
from cantorval.families import MultigeometricSpec, self_similar, spec_from_json
from cantorval.series import DEFAULT_CAP, CapacityError, LatticeLevel, SubsumLadder
from cantorval.uniqueness import RepetitionReport

SPECS = Path(__file__).resolve().parents[1] / "scripts" / "specs"

REPORT_SHA256 = {
    ("dyadic", 1, 1): "324e5799c8d129afce4af73e3aee7566f8ee467cefe6a037e556229a9f19ab3b",
    ("dyadic", 3, 6): "387367870f009fda14d3da508a699e3b154b389745eeb896c137961bd335e58c",
    ("dyadic", 6, 3): "e2c74bccea9be6ad4fa0f99b613bdd0362b782f2fdd1052e9901e5f945dff508",
    ("dyadic", 14, 14): "31c8f31b79c81e83cd0ba25dadb52369692a4954feba00394d1457f5b0d45a0b",
    ("ferens_5432", 1, 1): "14238f978dd40418a0cc6412b062352aaa98388db69992966ef137ba071c56b1",
    ("ferens_5432", 3, 6): "923a9ec0d66b5e38605b83d56dd7db04622a08212a58b6e59a95f5d460e0afc5",
    ("ferens_5432", 6, 3): "a803a7c60308c9a4059871bb15737aa7ddcd8d390209879f0f19adec2a4a9c78",
    ("ferens_5432", 14, 14): "d851284f3552184336bddc1b9c8ce492b04768a7145e5c24808f44fbd2ee2395",
    ("gf_decimal", 1, 1): "c1de825b4af92192ee1624bb89efa567be49ff3daf0b2613a318d88d19b6e725",
    ("gf_decimal", 3, 6): "3252f04042e8664f92467e0b0820668175df983ed6a97f6758d3286ca18e4be2",
    ("gf_decimal", 6, 3): "0bbc64aac7d1a7de4c27af3e881e968d9025c12bcf528d1763eed914a41569d4",
    ("gf_decimal", 14, 14): "738963904b3807f106b64658b9bff98bdbe80f432cd35e2f3040b4beabbd56e8",
    ("gn", 1, 1): "afe954b0bbb5ab87dca5d0dfabfee3904e3872f78fcd4d326b522d095ade075b",
    ("gn", 3, 6): "860a171234cf74a10eda88f27ace2a7e2b0120d8de683a7041b1f4d2502e1195",
    ("gn", 6, 3): "c1b4fc082cd4a884f0c9a48aa5ebeedbbc5003e5a30c53e1600bdcf4f09a21fa",
    ("gn", 14, 14): "471c43a5139eb32decdcc6d1f21a55261f821980d2f1f32c0269cb2a70074ae0",
    ("kyiv48", 1, 1): "000e1ef10aba83bc36413678b8fea04d9e34706982a4cb9c6f1715a56b0c032f",
    ("kyiv48", 3, 6): "51ae3548c659c6695a3592da13a31ea248a487da45a4d567ea72f2b924e5747d",
    ("kyiv48", 6, 3): "0d55c6f58943fb1c044f4b1f84c145be12f33f2d8544251b148a9bd5ee696221",
    ("kyiv48", 14, 14): "004638ce67495525a0a20b057662051716dfe3f5d6531b462f7bae9e843a7cd3",
    ("middle_thirds", 1, 1): "29a51d5c592af4d0c54e7fc6141579443458f0dfc4c55679d223c243b9f9590a",
    ("middle_thirds", 3, 6): "2eef316b274c6d744ffaf71b01a48c7165ee568ed034e6ed3af791f681acfcda",
    ("middle_thirds", 6, 3): "25b6e9a7eeed4d8e0970311878d1f3a8eaf979c92527f7b53009483b32216de7",
    ("middle_thirds", 14, 14): "c964fb0e352c77d482a14ae62402e0f6c91675952fe3a2f59192f25975d15210",
    ("mm_ones", 1, 1): "f3c77b81df799fb9ffdd2faa534bd10180105f85c6bc07499acd903da1682196",
    ("mm_ones", 3, 6): "dd4f32d22230dc2385f0e878f89da56232436c8917db18490fdf88c0bd8e7f97",
    ("mm_ones", 6, 3): "2458a8ee5467528a7e8b5adee9ebf2392b0b0715cf1231c2b9dd00e502fd7b19",
    ("mm_ones", 14, 14): "274a3ac22ada1b6a48db7914d2ac68c9a68e9bda87e195778bbaba95d8853d5f",
    ("semifast", 1, 1): "aa08601a224c5889bd086842a77b38b241dc53d597d5e9f7fbd6f29942d68229",
    ("semifast", 3, 6): "25c5690a388990c2d55ade700cbc032e50f342568cd5cae868e0769f5ff4cee6",
    ("semifast", 6, 3): "b38c57c799c6c9a20942aa977ad25f229bdc471eb00284cb5c6526507b9d6a7b",
    ("semifast", 14, 14): "84982064c42f6d5867fb4d19b269aeca5e21b1fcd7c2306077a839ad0da1ee3b",
}

# cap 100, depth 7, horizon 7: the CapacityError message, or the report
# digest when the spec fits
CAP_100_DEPTH_7 = {
    "dyadic": "subsum_ladder: would produce 128 values, cap is 100",
    "ferens_5432": "subsum_ladder: would produce 104 values, cap is 100",
    "gf_decimal": "subsum_ladder: would produce 104 values, cap is 100",
    "gn": "subsum_ladder: would produce 128 values, cap is 100",
    "kyiv48": "d9b8606a2afaa0b4def40843dc8d9b9f27b0856bd769b7a99d15178c03d8ce18",
    "middle_thirds": "subsum_ladder: would produce 128 values, cap is 100",
    "mm_ones": "subsum_ladder: would produce 108 values, cap is 100",
    "semifast": "939b58cdfc66b687ad5f879c24a208bc3b928ddf877c43cefe0fc77e9dad5cbd",
}


# sha256 of the file ``validate --spec <name>.json --out FILE`` writes
VALIDATE_SHA256 = {
    "dyadic": "3d394be47c0e40801bbe69041dd579c8ce9c1fea362dfb4195724c018dd8c20b",
    "ferens_5432": "f6aa589cc37bf776e54ed5269345029c0a326672a0a8a4c279e2aa7439a61d59",
    "gf_decimal": "f23d3186fe642a80548771ca4fc761f6a651abc79a707b9da0e649defbf87a7c",
    "gn": "f21912f21badc7a5d8637a8be37bdab1e5e50e97cc7aefc742bcad6b93eed58b",
    "kyiv48": "522e813b74483a14316bb1dbde68bce64a7a5f9c6ca66566b51eef6b71ee8d53",
    "middle_thirds": "d23cf61a4e896931960bf70136fa9c895d1ffe1f33d17333deccc180a4027398",
    "mm_ones": "b37ad1dc5413b6ff3c2c986b0874569a3c584e1f8ef938121a7bdee0dbed13bb",
    "semifast": "c98008c0ee33f6d22302e5a0cbc86e09bf2f020bb0523e96b26c2c73e9e6341b",
}

# one spec per family with a nonempty preperiod and a period of 2; gf and
# repeated have two preperiod entries, so some tails start inside it
PREPERIOD_SPECS = {
    "gf": '{"type":"gf","m":{"pre":[3,4],"period":[2,3]},"k":{"pre":[5,6],"period":[4,5]},'
          '"q":{"pre":["1/5","1/100"],"block":["1/1000","1/16000"],"ratio":"1/128"}}',
    "mm": '{"type":"mm","gaps":{"pre":[2],"period":[1,2]}}',
    "kyiv": '{"type":"kyiv","m":{"pre":[5],"period":[4,3]},"s":{"pre":[11],"period":[8,5]}}',
    "repeated": '{"type":"repeated","y":{"pre":["1/2","1/5"],"block":["1/32","1/128"],'
                '"ratio":"1/64"},"counts":{"pre":[1,2],"period":[1,2]}}',
}

# sha256 of stdout, per (family, command); every command exits 0
PREPERIOD_SHA256 = {
    ("gf", "validate"): "eb849ff36a3f7da58b1f3b1ec7b784154524c8f7cf413c89e9f7cda595befe95",
    ("gf", "analyze"): "0850f98dd27cac166b8beb8fb0caff9e6d637c5e75614aa7d7c49a71a85162ae",
    ("mm", "validate"): "66226aa5f6774f2607c40d8f8340c3eb1171daa240e252eb7a1a0149103afabe",
    ("mm", "analyze"): "6051f6e49ab65a9e24fb2243eba58ace1c3dbcf13d607d8bd49ce7d497746f10",
    ("kyiv", "validate"): "41bc199ca967b6b1e2d0d9c3fd4c5f641d3ee2e5ac79b26cc9140bf7d9e727d3",
    ("kyiv", "analyze"): "385f7a93da58008aa21c8c247fe18cb376ab25660bcf55febad0a5c9a022bda6",
    ("repeated", "validate"): "4e45e59110c7756f7dea0e0403de2aeae825f90f5756238b7a253d290b927e2a",
    ("repeated", "analyze"): "65e21386122fd5ca4b1d9965f46384dd35395fe47eb18396d218477b885b2161",
}
PREPERIOD_ARGS = {"validate": ["--format", "json"], "analyze": ["--depth", "6"]}


def load(name):
    return spec_from_json(json.loads((SPECS / f"{name}.json").read_text()))


def digest(doc):
    return hashlib.sha256(json.dumps(doc, indent=2).encode()).hexdigest()


def test_every_bundled_spec_is_pinned():
    names = {path.stem for path in SPECS.glob("*.json")}
    assert names == {name for name, _, _ in REPORT_SHA256}
    assert names == set(CAP_100_DEPTH_7)
    assert names == set(VALIDATE_SHA256)
    assert names == set(HUMAN_SHA256_DEPTH_6)


@pytest.mark.parametrize("name,depth,horizon", sorted(REPORT_SHA256))
def test_report_bytes_unchanged(name, depth, horizon):
    doc = build_report(load(name), depth, horizon, DEFAULT_CAP, 12)
    assert digest(doc) == REPORT_SHA256[name, depth, horizon]


@pytest.mark.parametrize("name,depth,horizon", sorted(REPORT_SHA256))
def test_cli_writes_the_pinned_bytes(name, depth, horizon, tmp_path):
    args = [
        "analyze", "--spec", str(SPECS / f"{name}.json"), "--depth", str(depth),
        "--horizon", str(horizon), "--cap", str(DEFAULT_CAP), "--budget", "12",
    ]
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == 0
    written = out.read_bytes()
    doc = build_report(load(name), depth, horizon, DEFAULT_CAP, 12)
    assert written == (json.dumps(doc, indent=2) + "\n").encode()
    assert hashlib.sha256(written[:-1]).hexdigest() == REPORT_SHA256[name, depth, horizon]
    assert main(args + ["--format", "csv", "--out", str(tmp_path / "csv")]) == 0
    assert (tmp_path / "csv" / "report.json").read_bytes() == written


@pytest.mark.parametrize("name", sorted(VALIDATE_SHA256))
def test_validate_writes_the_pinned_bytes(name, tmp_path):
    out = tmp_path / "validate.json"
    assert main(["validate", "--spec", str(SPECS / f"{name}.json"), "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == VALIDATE_SHA256[name]


@pytest.mark.parametrize("family,command", sorted(PREPERIOD_SHA256))
def test_preperiod_specs_print_the_pinned_bytes(family, command, capsys):
    args = [command, "--inline", PREPERIOD_SPECS[family], *PREPERIOD_ARGS[command]]
    assert main(args) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == PREPERIOD_SHA256[family, command]


# sha256 of what ``analyze --inline SPEC --depth N`` prints for the two
# slowest known inputs, recorded while every stream was still validated,
# summed and compared in Fractions: a multigeometric stream with a
# preperiod of 2,067 runs of two terms, whose denominators pass 200^4000,
# and a Kyiv stream of 100,009-term groups
STRESS_SHA256 = {
    ('{"type":"multigeometric","k":[1000000000,1],"q":"199/200"}', 3):
        "0a2bf906c6ca9e39df2558bffd1841765089d260296e1cf7b7b2318923c5e266",
    ('{"type":"kyiv","m":{"pre":[],"period":[100000]},"s":{"pre":[],"period":[8]}}', 2):
        "1f739a3cc299cc0f34c7e7452e3eb0ee5e0663d547ac2d30787163414db10a70",
}


@pytest.mark.parametrize("spec,depth", sorted(STRESS_SHA256), ids=["kyiv", "multigeometric"])
def test_long_streams_print_the_pinned_bytes(spec, depth, capsys):
    assert main(["analyze", "--inline", spec, "--depth", str(depth)]) == 0
    printed = capsys.readouterr().out.encode()
    assert hashlib.sha256(printed).hexdigest() == STRESS_SHA256[spec, depth]


@pytest.mark.parametrize("name", sorted(CAP_100_DEPTH_7))
def test_capacity_outcome_unchanged(name):
    try:
        outcome = digest(build_report(load(name), 7, 7, 100, 12))
    except CapacityError as exc:
        assert exc.stage == "subsum_ladder"
        outcome = str(exc)
    assert outcome == CAP_100_DEPTH_7[name]


@pytest.mark.parametrize("name", sorted(CAP_100_DEPTH_7))
def test_one_report_builds_one_ladder(name, monkeypatch):
    # every section reads F_n from one ladder, and the multigeometric block
    # is one fold that builds none; without a block, depth 8 costs 8 level
    # extensions
    spec = load(name)
    ladders, extensions = [], []
    init, extend = SubsumLadder.__init__, LatticeLevel.extend

    def counting_init(ladder, *args, **kwargs):
        ladders.append(None)
        init(ladder, *args, **kwargs)

    def counting_extend(level, term, cap):
        extensions.append(len(level))
        return extend(level, term, cap)

    monkeypatch.setattr(SubsumLadder, "__init__", counting_init)
    monkeypatch.setattr(LatticeLevel, "extend", counting_extend)
    self_similar.cache_clear()
    build_report(spec, 8, 8, DEFAULT_CAP, 12)
    assert len(ladders) == 1
    if not isinstance(spec, MultigeometricSpec):
        assert len(extensions) == 8


# certify_interior calls per report at depth 14: a proved Cantor set is
# never searched, and neither is a set whose search cannot verify.  gn has
# infinitely many Kakeya indices and its run-window candidates fail, so it
# gets no search; ferens_5432 gets classify's seed-2 search and the seed-1
# search of measure_bounds, whose certificate is the run-window union every
# seed finds, so its later seeds are skipped; dyadic's seed-1 certificate
# reaches lambda(I_14), so no later seed can beat it.
CERTIFY_CALLS_DEPTH_14 = {
    "dyadic": 1,
    "ferens_5432": 2,
    "gf_decimal": 0,
    "gn": 0,
    "kyiv48": 0,
    "middle_thirds": 0,
    "mm_ones": 0,
    "semifast": 0,
}


@pytest.mark.parametrize("name", sorted(CERTIFY_CALLS_DEPTH_14))
def test_each_certificate_search_runs_once(name, monkeypatch):
    calls = []
    certify = engine.certify_interior

    def counting(*args, **kwargs):
        calls.append(None)
        return certify(*args, **kwargs)

    monkeypatch.setattr(engine, "certify_interior", counting)
    monkeypatch.setattr(classify, "certify_interior", counting)
    build_report(load(name), 14, 14, DEFAULT_CAP, 12)
    assert len(calls) == CERTIFY_CALLS_DEPTH_14[name]


# I_n sweeps per report at depth 14.  Only level 0 and the Kakeya indices
# (x_n > r_n) are swept from F_n; every other level carries I_{n-1}
# forward, so a report sweeps 1 + #{n <= 14 : x_n > r_n} levels.
SWEEPS_DEPTH_14 = {
    "dyadic": 1,
    "ferens_5432": 4,
    "gf_decimal": 4,
    "gn": 8,
    "kyiv48": 2,
    "middle_thirds": 15,
    "mm_ones": 5,
    "semifast": 8,
}


@pytest.mark.parametrize("name", sorted(SWEEPS_DEPTH_14))
def test_only_kakeya_levels_are_swept(name, monkeypatch):
    swept = []
    sweep = SubsumLadder._sweep

    def counting(ladder, n, level, separated):
        swept.append(n)
        return sweep(ladder, n, level, separated)

    monkeypatch.setattr(SubsumLadder, "_sweep", counting)
    spec = load(name)
    build_report(spec, 14, 14, DEFAULT_CAP, 12)
    assert len(swept) == SWEEPS_DEPTH_14[name]
    stream = spec.stream()
    kakeya = [n for n in range(1, 15) if stream.term(n) > stream.tail(n)]
    assert sorted(swept) == [0] + kakeya


@pytest.mark.parametrize("name", sorted(SWEEPS_DEPTH_14))
def test_carried_levels_share_their_bricks(name):
    # row n holds ladder.bricks(n) of the report's ladder, the very Bricks
    # of row n - 1 exactly when n is no Kakeya index; IterationRows then
    # reuses that row's strings
    spec = load(name)
    rows = _analysis(spec, 14, 14, DEFAULT_CAP, 12)["iterations"]
    stream = spec.stream()
    for n in range(1, 15):
        carried = not stream.term(n) > stream.tail(n)
        assert (rows[n].bricks is rows[n - 1].bricks) == carried


def written_text(name, tmp_path, owner, method, monkeypatch):
    """(report text of ``analyze --depth 14``, each text ``owner.method``
    gave while it was written, joined per call)."""
    texts = []
    original = getattr(owner, method)

    def recording(obj, newline):
        texts.append("".join(original(obj, newline)))
        return [texts[-1]]

    monkeypatch.setattr(owner, method, recording)
    out = tmp_path / "report.json"
    args = ["analyze", "--spec", str(SPECS / f"{name}.json"), "--depth", "14"]
    assert main(args + ["--out", str(out)]) == 0
    return out.read_text(), texts


# The iteration rows and the uniqueness section's repetition report each
# have one form, the text that ``analyze`` copies into the report as it
# stands: no report builds a row or repetition dict.
@pytest.mark.parametrize("name", sorted(SWEEPS_DEPTH_14))
def test_cli_writes_iteration_rows_from_text(name, monkeypatch, tmp_path):
    report, texts = written_text(name, tmp_path, IterationRows, "chunks", monkeypatch)
    assert len(texts) == 1
    assert f'\n  "iterations": {texts[0]},\n' in report


# Endpoint strings the iteration rows format per ``analyze --depth 14``.
# A carried level formats none, a swept level after a separated one only the
# endpoints that I_{n-1} lacks (it slices the others in), and any other swept
# level all of its own, once; formatting each row anew cost 30, 266, 266,
# 8,746, 38, 65,534, 726 and 8,746.
ENDPOINT_STRS_DEPTH_14 = {
    "dyadic": 2,
    "ferens_5432": 80,
    "gf_decimal": 80,
    "gn": 6_560,
    "kyiv48": 8,
    "middle_thirds": 32_768,
    "mm_ones": 242,
    "semifast": 6_560,
}
# Of those, the strings written with no gcd, where fact (C) of the
# ``series`` docstring proves a new half in lowest terms: every row of
# middle_thirds after row 0, whose lattice grows by 3 per row, and none of
# the other seven specs.
GCD_FREE_STRS_DEPTH_14 = {"middle_thirds": 32_766}


@pytest.mark.parametrize("name", sorted(ENDPOINT_STRS_DEPTH_14))
def test_rows_format_the_pinned_endpoint_string_counts(name, monkeypatch):
    doc = _analysis(load(name), 14, 14, DEFAULT_CAP, 12)
    formatted = {"lattice_strs": 0, "coprime_strs": 0}

    def counting(formatter):
        def counted(ks, d):
            formatted[formatter.__name__] += len(ks)
            return formatter(ks, d)

        return counted

    monkeypatch.setattr(engine, "lattice_strs", counting(engine.lattice_strs))
    monkeypatch.setattr(engine, "coprime_strs", counting(engine.coprime_strs))
    _dumps(doc)  # writes the rows, 0 to 14 in order
    assert sum(formatted.values()) == ENDPOINT_STRS_DEPTH_14[name]
    assert formatted["coprime_strs"] == GCD_FREE_STRS_DEPTH_14.get(name, 0)


@pytest.mark.parametrize("name", sorted(ENDPOINT_STRS_DEPTH_14))
def test_rows_of_one_bricks_share_their_text(name, monkeypatch):
    # writing a depth-14 report joins the parts and the gaps once per
    # distinct Bricks among its rows, and the repetition report's outer set
    # once; a carried row reuses the chunks of the row before
    doc = _analysis(load(name), 14, 14, DEFAULT_CAP, 12)
    calls = []
    pairs_chunks = engine.pairs_chunks

    def counting(*args):
        calls.append(None)
        return pairs_chunks(*args)

    monkeypatch.setattr(engine, "pairs_chunks", counting)
    monkeypatch.setattr(uniqueness, "pairs_chunks", counting)
    _dumps(doc)
    distinct = len({id(row.bricks) for row in doc["iterations"]})
    assert len(calls) == 2 * distinct + 1


def test_row_bodies_are_chunks_of_their_own():
    # middle_thirds' rows at depth 14 hand each parts and gaps body to the
    # writer as a chunk of its own, so no body is copied into a row string
    rows = _analysis(load("middle_thirds"), 14, 14, DEFAULT_CAP, 12)["iterations"]
    newline = "\n" + " " * 6  # the nesting of a row's parts and gaps
    bodies = []
    for row in rows:
        pairs = row.iteration.to_pairs()
        gaps = [[a[1], b[0]] for a, b in zip(pairs, pairs[1:])]
        for listed in (pairs, gaps):
            if listed:
                text = json.dumps(listed, indent=2).replace("\n", newline)
                bodies.append(text[text.index('"') + 1 : text.rindex('"')])
    assert len(bodies) == 2 * 15 - 1  # I_0 has no gap
    chunks = list(rows.chunks("\n  "))
    known = set(bodies)
    assert [c for c in chunks if c in known] == bodies
    # every other chunk holds no pair of a body: no body is split or merged
    within, between = '",' + newline + '    "', '"' + newline + "  ],"
    others = [c for c in chunks if c not in known]
    assert not any(within in c or between in c for c in others)


@pytest.mark.parametrize("name", sorted(ENDPOINT_STRS_DEPTH_14))
def test_tight_trend_runs_once_per_report(name, monkeypatch, tmp_path):
    # classify's heuristic witness (reached by gn) and the report's
    # tight_trend and kakeya sections read one trend and one split, which
    # classify.Evidence computes
    calls = []

    def counting(fn):
        def counted(*args, **kwargs):
            calls.append(fn.__name__)
            return fn(*args, **kwargs)

        return counted

    monkeypatch.setattr(classify, "tight_trend", counting(tightness.tight_trend))
    monkeypatch.setattr(classify, "kakeya_split", counting(series.kakeya_split))
    args = ["analyze", "--spec", str(SPECS / f"{name}.json"), "--depth", "14"]
    assert main(args + ["--out", str(tmp_path / "report.json")]) == 0
    assert sorted(calls) == ["kakeya_split", "tight_trend"]


@pytest.mark.parametrize("name", sorted(SWEEPS_DEPTH_14))
def test_cli_writes_repetition_from_text(name, monkeypatch, tmp_path):
    report, texts = written_text(name, tmp_path, RepetitionReport, "chunks", monkeypatch)
    assert len(texts) == 1
    assert f'\n    "repetition": {texts[0]},\n' in report


# sha256 of the file ``analyze --spec <name>.json --depth 6 --format human
# --out FILE`` writes
HUMAN_SHA256_DEPTH_6 = {
    "dyadic": "edf44b9dd94a92dd7e1625bcd12fe78e713cccf1befb745b5d038e0470970ca5",
    "ferens_5432": "8a7cfbf012028f52974b3f6b2d27f032987cb98fe38cf1aa4599e99af6bed0cb",
    "gf_decimal": "ed4b9bc581458fa5f0e67104baf38e610f201beb964f04d6fac8b2346fed8577",
    "gn": "5877cf14afddf605631fba1a69f15f4148d6ef03bc8372d75ce5e798a43d9a60",
    "kyiv48": "45d07497ce84c31db88e195cd6c78eec21724804cbdd2029df8b411286c2ff3b",
    "middle_thirds": "3f0fb403732fde75665b2cc93e7238fdb8c853ec5ee52410c5af215e70dbd25e",
    "mm_ones": "7c15e102cb51aae806bb023929fe9d173a8908ba15e990621c6839656b9e847d",
    "semifast": "2d007d4d2f66ba45bca3455e9dfb317799358bb468b64f31f7e480d3617ef644",
}


@pytest.mark.parametrize("name", sorted(HUMAN_SHA256_DEPTH_6))
def test_human_summary_unchanged(name, tmp_path):
    out = tmp_path / "summary.txt"
    args = ["analyze", "--spec", str(SPECS / f"{name}.json"), "--depth", "6"]
    assert main(args + ["--format", "human", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == HUMAN_SHA256_DEPTH_6[name]


# sha256 of iterations.csv, tight_trend.csv and standardness.csv (None when
# the spec has no standardness section) from ``analyze --depth 6 --format csv``
CSV_SHA256_DEPTH_6 = {
    "dyadic": (
        "09b2fac6b82bb62d1fd508b0b1f355b72d99a4398cfc52ed8f9cffa0d38f8e2a",
        "3f3c9c080aa0db3baf9a450bedd16b631908fb947962fea46d1f63ed2cf083c8",
        None,
    ),
    "ferens_5432": (
        "263aec78ef8a2a956f63f8a19ac82dd216eb68a5cbe029a47424a88d5208d040",
        "53e643cdef0fc4301c28a7411183d997a342efb702fcebe2ef72db3e0c1dd1fb",
        None,
    ),
    "gf_decimal": (
        "263aec78ef8a2a956f63f8a19ac82dd216eb68a5cbe029a47424a88d5208d040",
        "53e643cdef0fc4301c28a7411183d997a342efb702fcebe2ef72db3e0c1dd1fb",
        "46ffb71ae7a7804526fcac7d004a380b2142abbf2a0f65babab84e5103014cb6",
    ),
    "gn": (
        "9d2c55c64d99774508b4572fa462dc494af01953e52ccd830c51e0cbae6f13e0",
        "459ab73138177bf82e54bce579f5981e7e4d67e6c28034d7201d71b4656ecae8",
        None,
    ),
    "kyiv48": (
        "3c19b781727e8933836b0f1463687c50c593edd6d3e4ee4b710e4e5cbd28579d",
        "16c22c5b4a8c2c1b7601ef40592c071e852f5762e0f07bc2e8074a6127fe1b55",
        "ccf1e770a0b084da91830771d7da5eaada4b66224cc50b8b27ccf740a840c3e2",
    ),
    "middle_thirds": (
        "be2c9c84069496bed86dbecf6965ed893d8b4f93abfa94cb8e8e74a7ff7ef41b",
        "bc391b28506cdd5f7836d611ea71ce803360f38feae5fbb8df802cc516c0b3f6",
        None,
    ),
    "mm_ones": (
        "8dd3ba3a60efa1f333767d2a95de6bef8a90cd0442adfc6fcecdafa52d49f3a0",
        "92e83ecf20bb9ff4fdcde68e42f70cb0a28ed00a8d5df6de62ea55259b61129a",
        "6bc9825b24c765b556cd536d3def7a6fe9c47c3768fdd69233760d91f9a41712",
    ),
    "semifast": (
        "e10b1fce45127ab4e4cf867960821d4d0bbbd4cc9d266318a35f85ab74a3f3d7",
        "74dffd9970fac329260755e4cc5e35d450f6e3deaf79db18df9a8f6202717120",
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CSV_SHA256_DEPTH_6))
def test_csv_tables_unchanged(name, tmp_path):
    args = ["analyze", "--spec", str(SPECS / f"{name}.json"), "--depth", "6"]
    assert main(args + ["--format", "csv", "--out", str(tmp_path)]) == 0
    tables = ("iterations.csv", "tight_trend.csv", "standardness.csv")
    got = tuple(
        hashlib.sha256((tmp_path / table).read_bytes()).hexdigest()
        if (tmp_path / table).exists() else None
        for table in tables
    )
    assert got == CSV_SHA256_DEPTH_6[name]
