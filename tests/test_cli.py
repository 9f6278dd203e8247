"""End-to-end command tests, run in process through main()."""

import hashlib
import json
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from globfun import cli, perms
from globfun.burnside import BurnsideFunctor
from globfun.cache import Cache
from globfun.functors import CorruptedTransfer
from globfun.perms import PermGroup, symmetric_group, young_two_block


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


SMOKE = [
    (("marks", "--group", "S3"), "table of marks for S3"),
    (("functor-value", "--functor", "burnside", "--group", "S3"), "rank 4"),
    (("functor-value", "--functor", "repring", "--group", "S2xS2"), "rank 4"),
    (("verify-axioms", "--functor", "burnside", "--max-n", "2"), "pass"),
    (("dcf", "--functor", "burnside", "--n", "4", "--k", "2"), "EQUAL"),
    (("dcf", "--functor", "repring", "--n", "3", "--k", "1"), "EQUAL"),
    (("split", "--functor", "repring", "--n", "3"), "component ranks: [1, 0, 1, 1]"),
    (("decompose", "--functor", "burnside", "--n", "2", "--element", "[2,2]"),
     "reassembly returns the input"),
    (("section", "--n", "2"), "section of restriction at n=2"),
    (("section", "--n", "2", "--with-product-group", "S2"), "right inverse"),
    (("fusion", "--family", "alternating", "--n-range", "5..6"), "no fusion witness"),
    (("char-table", "--n", "3"), "character table of S3"),
]


@pytest.mark.parametrize("argv,marker", SMOKE, ids=[a[0][0] + str(i) for i, a in enumerate(SMOKE)])
def test_subcommand_smoke(capsys, argv, marker):
    code, out, err = run(capsys, "--no-cache", *argv)
    assert code == 0, err
    assert marker in out


def test_verify_axioms_text_names_functor_and_probe(capsys):
    # the relation counts alone are the same for both functors
    firsts = []
    for functor in ("burnside", "repring"):
        code, out, err = run(capsys, "--no-cache", "verify-axioms", "--functor", functor,
                             "--max-n", "3")
        assert code == 0, err
        firsts.append(out.splitlines()[0])
    assert firsts == [
        "axioms of the burnside functor on the probe up to degree 3",
        "axioms of the ru functor on the probe up to degree 3",
    ]


def test_json_output_roundtrips(capsys):
    for argv in [
        ("marks", "--group", "S3"),
        ("dcf", "--functor", "burnside", "--n", "3", "--k", "1"),
        ("split", "--functor", "burnside", "--n", "2"),
        ("fusion", "--family", "alternating", "--n-range", "5..5"),
        ("section", "--n", "2"),
        ("char-table", "--n", "4"),
    ]:
        code, out, _ = run(capsys, "--no-cache", "--output", "json", *argv)
        assert code == 0
        text = out.strip()
        assert json.dumps(json.loads(text), sort_keys=True) == text


def test_usage_errors_exit_2(capsys, monkeypatch):
    cases = [
        ("fusion", "--family", "alternating", "--n-range", "4..4"),
        ("fusion", "--family", "alternating", "--n-range", "5..21"),
        ("fusion", "--family", "alternating", "--n-range", "bogus"),
        ("fusion", "--family", "alternating", "--n-range", "7..5"),
        ("decompose", "--functor", "burnside", "--n", "2", "--element", "[1.5]"),
        ("decompose", "--functor", "burnside", "--n", "2", "--element", "[1,2,3]"),
        ("decompose", "--functor", "burnside", "--n", "2", "--element", "{bad"),
        ("marks", "--group", "Q8"),
        ("dcf", "--functor", "burnside", "--n", "3", "--k", "3"),
        ("char-table", "--n", "21"),
        ("functor-value", "--functor", "repring", "--group", "A5"),
    ]
    for argv in cases:
        code, _, err = run(capsys, "--no-cache", *argv)
        assert code == 2, argv
        assert "error:" in err
    # the fusion range is refused before any work, below 5 as a range and
    # past 20 by the table cap; the group cap plays no part
    searched = []
    monkeypatch.setattr(cli, "non_splitting_witness_alternating", searched.append)
    for cap in ("1", "50000"):
        monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", cap)
        for bad, marker in (("5..21", "exceeds cap 20"), ("4..6", "n >= 5")):
            argv = ("fusion", "--family", "alternating", "--n-range", bad)
            code, out, err = run(capsys, "--no-cache", *argv)
            assert code == 2 and out == ""
            assert marker in err and "group order" not in err
            assert err.count("\n") == 1
    assert searched == []
    monkeypatch.delenv("GLOBFUN_MAX_GROUP_ORDER")
    # a negative level is refused as a level, as split does, not as a group spec
    code, _, err = run(capsys, "--no-cache", "decompose", "--functor", "repring", "--n", "-1")
    assert code == 2
    assert "n must be >= 0" in err


@pytest.mark.parametrize(
    "argv,bad",
    [(("dcf", "--functor", "foo"), "'foo'"),
     (("fusion", "--family", "symmetric", "--n-range", "5"), "'symmetric'")],
)
def test_unknown_choices_exit_2_through_argparse(capsys, argv, bad):
    # argparse's choices are the only check on a functor or family name
    with pytest.raises(SystemExit) as exc:
        cli.main(["--no-cache", *argv])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"invalid choice: {bad}" in out.err


# int() and \d alone read the digits of other scripts: \u0663 is the
# Arabic-Indic three and \uff13 the fullwidth one


@pytest.mark.parametrize(
    "argv,option",
    [
        (("split", "--functor", "repring", "--n", "\u0663"), "--n"),
        (("dcf", "--functor", "repring", "--n", "4", "--k", "\u0662"), "--k"),
        (("verify-axioms", "--functor", "repring", "--max-n", "\u0663"), "--max-n"),
        (("char-table", "--n", "\uff13"), "--n"),
        (("decompose", "--functor", "repring", "--n", "3", "--seed", "\u0663"), "--seed"),
    ],
    ids=["n", "k", "max-n", "fullwidth-n", "seed"],
)
def test_integer_options_refuse_non_ascii_digits(capsys, argv, option):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--no-cache", *argv])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert f"argument {option}: invalid int value: " in out.err


@pytest.mark.parametrize(
    "argv,message",
    [
        (("marks", "--group", "S\u0663"), "cannot parse group spec"),
        (("functor-value", "--functor", "burnside", "--group", "Y\u0662,1"),
         "cannot parse group spec"),
        (("section", "--n", "2", "--with-product-group", "S2xS\uff11"), "cannot parse group spec"),
        (("fusion", "--family", "alternating", "--n-range", "5..\u0667"), "bad --n-range"),
        (("fusion", "--family", "alternating", "--n-range", "\u0665"), "bad --n-range"),
    ],
    ids=["spec-size", "spec-block", "product-spec", "range-end", "single-n"],
)
def test_specs_and_ranges_refuse_non_ascii_digits(capsys, argv, message):
    code, out, err = run(capsys, "--no-cache", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err and err.count("\n") == 1


@pytest.mark.parametrize(
    "name,value",
    [("GLOBFUN_MAX_GROUP_ORDER", "\uff11\uff12\uff10"),
     ("GLOBFUN_MAX_LATTICE_ORDER", "\u0661\u0660\u0660\u0660")],
)
def test_variables_refuse_non_ascii_digits(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "--no-cache", "decompose", "--functor", "burnside", "--n", "2")
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1


# int() also reads underscores, a sign and surrounding blanks; the grammar
# of every CLI integer is ASCII -?[0-9]+


@pytest.mark.parametrize("value", ["1_0", "+3", " 3", "3 "])
def test_integer_options_take_plain_digits_only(capsys, value):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--no-cache", "split", "--functor", "repring", "--n", value])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert "argument --n: invalid int value: " in out.err


@pytest.mark.parametrize("name", ["GLOBFUN_MAX_GROUP_ORDER", "GLOBFUN_MAX_LATTICE_ORDER"])
@pytest.mark.parametrize("value", ["+1_0", "1_000", " 100"])
def test_caps_take_plain_digits_only(capsys, monkeypatch, name, value):
    monkeypatch.setenv(name, value)
    code, out, err = run(capsys, "--no-cache", "marks", "--group", "S4")
    assert code == 2 and out == ""
    assert err == f"error: {name} must be a positive integer, got {value!r}\n"


@pytest.mark.parametrize("text", [" 5 .. 6", "5 ..6", "+5..6", "5..6_0", "5.. 6"])
def test_n_range_ends_take_plain_digits_only(capsys, monkeypatch, text):
    searched = []
    monkeypatch.setattr(cli, "non_splitting_witness_alternating", searched.append)
    code, out, err = run(capsys, "--no-cache", "fusion", "--family", "alternating",
                         "--n-range", text)
    assert code == 2 and out == "" and searched == []
    assert err == f"error: bad --n-range {text!r}, expected like 5..8\n"


def test_cap_exceeded_exits_2(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("GLOBFUN_MAX_LATTICE_ORDER", "10")
    code, _, err = run(capsys, "--no-cache", "marks", "--group", "S4")
    assert code == 2
    assert "cap" in err
    # a warm cache must not bypass the cap
    monkeypatch.delenv("GLOBFUN_MAX_LATTICE_ORDER")
    code, _, _ = run(capsys, "--cache-dir", str(tmp_path), "marks", "--group", "S4")
    assert code == 0
    monkeypatch.setenv("GLOBFUN_MAX_LATTICE_ORDER", "10")
    code, _, err = run(capsys, "--cache-dir", str(tmp_path), "marks", "--group", "S4")
    assert code == 2
    assert "cap" in err
    monkeypatch.setenv("GLOBFUN_MAX_LATTICE_ORDER", "0")
    code, _, err = run(capsys, "--no-cache", "marks", "--group", "S2")
    assert code == 2
    monkeypatch.delenv("GLOBFUN_MAX_LATTICE_ORDER")
    # groups a command builds itself meet the caps before any work starts
    for env, argv, marker in [
        ({"GLOBFUN_MAX_GROUP_ORDER": "100"}, ("split", "--functor", "burnside", "--n", "6"),
         "cap 100"),
        ({"GLOBFUN_MAX_LATTICE_ORDER": "10"}, ("section", "--n", "4"), "cap 10"),
        ({"GLOBFUN_MAX_LATTICE_ORDER": "30"},
         ("section", "--n", "4", "--with-product-group", "S2"), "cap 30"),
        # the RU split builds no group: the table cap alone bounds it
        ({}, ("split", "--functor", "repring", "--n", "21"), "exceeds cap 20"),
        ({}, ("verify-axioms", "--functor", "repring", "--max-n", "1000000"), "cap 50000"),
        # fusion builds no group: the table cap alone bounds its range
        ({}, ("fusion", "--family", "alternating", "--n-range", "5..1000000"), "exceeds cap 20"),
        # a --group spec is refused by the order it names, before any element is built
        ({}, ("marks", "--group", "S99999999999"), "group order exceeded cap 50000"),
        ({}, ("marks", "--group", "A99999999999"), "group order exceeded cap 50000"),
        ({}, ("marks", "--group", "S2xS99999999999"), "group order exceeded cap 50000"),
        ({}, ("marks", "--group", "Y1,99999999999"), "group order exceeded cap 50000"),
        # past the 4300 digits int() reads: more digits than the cap, so past it
        ({}, ("marks", "--group", "S" + "9" * 5000), "group order exceeded cap 50000"),
    ]:
        with monkeypatch.context() as m:
            for name, value in env.items():
                m.setenv(name, value)
            code, out, err = run(capsys, "--no-cache", *argv)
        assert code == 2, argv
        assert out == ""
        assert err.startswith("error:") and marker in err, argv


@pytest.mark.parametrize("value", ["0", "abc"])
def test_bad_cap_exits_2_before_any_command(capsys, monkeypatch, value):
    # char-table builds no lattice, and still reads the lattice cap first
    monkeypatch.setenv("GLOBFUN_MAX_LATTICE_ORDER", value)
    code, out, err = run(capsys, "--no-cache", "char-table", "--n", "3")
    assert code == 2 and out == ""
    assert err.startswith("error: GLOBFUN_MAX_LATTICE_ORDER") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("decompose", "--functor", "repring", "--n", "21"),
        ("dcf", "--functor", "repring", "--n", "21", "--k", "3"),
        ("verify-axioms", "--functor", "repring", "--max-n", "21"),
        ("functor-value", "--functor", "repring", "--group", "S21"),
        ("functor-value", "--functor", "repring", "--group", "S2xS19"),
        ("split", "--functor", "repring", "--n", "21"),
    ],
)
def test_table_cap_refuses_before_any_group_is_built(capsys, monkeypatch, built_orders, argv):
    """With a group cap that admits Sym(21), RU commands are refused by the
    table cap from n or the spec alone."""
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", str(10**20))
    code, out, err = run(capsys, "--no-cache", *argv)
    assert code == 2 and out == ""
    assert err == "error: table for moved degree 21 exceeds cap 20\n"
    assert built_orders == []


@pytest.mark.parametrize(
    "argv",
    [
        ("marks", "--group", "S8"),
        ("marks", "--group", "S6xS2"),
        ("functor-value", "--functor", "burnside", "--group", "S8"),
        ("section", "--n", "3", "--with-product-group", "S7"),
    ],
)
def test_lattice_cap_refuses_spec_before_any_group_is_built(capsys, monkeypatch, argv):
    """Orders within the group cap but past the lattice cap are refused from
    the spec alone: the first cap the order passes names the error."""
    built = []
    original = PermGroup.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        original(self, *args, **kwargs)

    monkeypatch.setattr(PermGroup, "__init__", counting_init)
    code, out, err = run(capsys, "--no-cache", *argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "subgroup lattice order exceeded cap 1000" in err
    assert built == []
    # the same specs still build under a group-only command
    if argv[0] == "marks":
        assert run(capsys, "--no-cache", "functor-value", "--functor", "repring", *argv[1:])[0] == 0
        assert built


ROOT = Path(__file__).resolve().parent.parent
ORACLE = ROOT / "perfbench" / "oracle.json"
SRC = ROOT / "src"


def test_json_matches_benchmark_oracle(capsys):
    """The canonical JSON of the benchmark's fixed commands, byte for byte."""
    oracle = json.loads(ORACLE.read_text())
    assert len(oracle) == 9
    for command, digest in sorted(oracle.items()):
        code, out, err = run(capsys, "--no-cache", "--output", "json", *command.split())
        assert code == 0, (command, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, command


# sha256 of `--output json char-table --n k`, pinned before tables were keyed
# by block structure
CHAR_TABLE_DIGESTS = {
    1: "70f16b2a5bea22f02b103a7b93c4cf6199e67d651ce5153699faf8028ce79d81",
    2: "1f594c740d1d58b79629fe844e9f4ba4da2adbb0855539b87d5ffdf68aca91e5",
    3: "dcfe035ce062b45871dcf08feb835cf2ac59571d183f8b91efe39af09c3772cc",
    4: "adcf9a7dc0d92a9fe4c211bb4835492ca534fe59fabf1182b45aa10fe7a0158c",
    5: "1f97d3bb99672ac94e94919332741a89fc16a042a6be2231bb1827a8654eed22",
    6: "7a6fc59c07b1b869c3b3b17d7fe98c338867ac6c63669217682637989be3fa22",
    7: "b3f5313b0484e7c0ea3d2e3eb1bdbb8acdc5f13e0951a652ceccb28618ef6703",
    8: "112f8035b6ffa297d625e21d46f95460984531b6518c0f425842d7dc9c726ddf",
}


def test_char_table_json_is_pinned_and_builds_no_group(capsys, monkeypatch):
    # char-table builds no group, so a group cap of 1 does not reach it;
    # only the table cap (moved degree <= 20) does
    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "1")
    for k, digest in CHAR_TABLE_DIGESTS.items():
        code, out, err = run(capsys, "--no-cache", "--output", "json", "char-table", "--n", str(k))
        assert code == 0, (k, err)
        assert hashlib.sha256(out.encode()).hexdigest() == digest, k


@pytest.mark.parametrize("n", ["5000000", "1000000000000"])
def test_char_table_cap_is_read_from_n(capsys, n):
    # refused from n alone: building the n points first took 209 MiB at
    # n = 5000000 and raised MemoryError at n = 10^12
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "--no-cache", "char-table", "--n", n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (2, "")
    assert err == f"error: table for moved degree {n} exceeds cap 20\n"
    assert peak < 1 << 20


def test_math_failure_exits_1(capsys, monkeypatch):
    def corrupted(name):
        return CorruptedTransfer(
            BurnsideFunctor(), young_two_block(2, 1), symmetric_group(2)
        )

    monkeypatch.setattr(cli, "_functor", corrupted)
    code, out, _ = run(capsys, "--no-cache", "dcf", "--functor", "burnside",
                       "--n", "2", "--k", "1")
    assert code == 1
    assert "DIFFER" in out
    code, out, _ = run(capsys, "--no-cache", "verify-axioms", "--functor",
                       "burnside", "--max-n", "2")
    assert code == 1
    assert "fail" in out


def test_cache_warm_equals_cold(capsys, tmp_path):
    argv = ("--cache-dir", str(tmp_path), "--output", "json", "char-table", "--n", "5")
    code, cold, _ = run(capsys, *argv)
    assert code == 0
    files = list(tmp_path.glob("char-table-*.json"))
    assert len(files) == 1
    code, warm, _ = run(capsys, *argv)
    assert code == 0
    assert warm == cold
    # a version-skewed entry is ignored and rewritten
    stored = json.loads(files[0].read_text())
    stored["schema_version"] = -1
    files[0].write_text(json.dumps(stored))
    code, again, _ = run(capsys, *argv)
    assert code == 0
    assert again == cold
    assert json.loads(files[0].read_text())["schema_version"] != -1


def test_marks_cache_roundtrip(capsys, tmp_path):
    argv = ("--cache-dir", str(tmp_path), "marks", "--group", "S2xS2")
    code, cold, _ = run(capsys, *argv)
    code, warm, _ = run(capsys, *argv)
    assert warm == cold


def test_warm_marks_builds_no_group(capsys, tmp_path, built_orders):
    argv = ("--cache-dir", str(tmp_path), "marks", "--group", "S5")
    code, cold, _ = run(capsys, *argv)
    assert code == 0 and built_orders
    built_orders.clear()
    code, warm, _ = run(capsys, *argv)
    assert code == 0
    assert warm == cold
    assert built_orders == []


def test_cache_file_name_spells_its_key(capsys, tmp_path):
    for argv, artifact, key in (
        (("char-table", "--n", "5"), "char-table", "S5"),
        (("marks", "--group", "S2xS2"), "marks", "S2xS2"),
    ):
        assert run(capsys, "--cache-dir", str(tmp_path), *argv)[0] == 0
        [path] = tmp_path.glob(f"{artifact}-*.json")
        assert bytes.fromhex(path.stem[len(artifact) + 1:]).decode() == key
        assert json.loads(path.read_text())["key"] == key


def test_marks_key_drops_leading_zeros(capsys, tmp_path):
    long_spec = "S" + "0" * 200 + "3"
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "marks", "--group", long_spec)
    assert (code, err) == (0, "")
    assert out.startswith(f"table of marks for {long_spec} (4 classes)")
    [path] = tmp_path.glob("marks-*.json")
    assert bytes.fromhex(path.stem[len("marks-"):]).decode() == "S3"
    # every spelling shares that entry and prints its own spec, warm or cold
    for spec in ("S03", "S3", "S0003"):
        warm = run(capsys, "--cache-dir", str(tmp_path), "--output", "json", "marks", "--group", spec)
        cold = run(capsys, "--no-cache", "--output", "json", "marks", "--group", spec)
        assert warm == cold and json.loads(warm[1])["group"] == spec
    assert len(list(tmp_path.iterdir())) == 1


def test_cache_entry_stored_under_another_key_is_a_miss(tmp_path):
    cache = Cache(tmp_path)
    cache.put("marks", "S3", {"classes": 4})
    assert cache.get("marks", "S3") == {"classes": 4}
    path = cache._path("marks", "S3")
    stored = json.loads(path.read_text())
    stored["key"] = "S4"
    path.write_text(json.dumps(stored))
    assert cache.get("marks", "S3") is None


@pytest.mark.parametrize("argv,artifact,key,fields", [
    (("marks", "--group", "S3"), "marks", "S3", ("classes", "orders", "matrix")),
    (("char-table", "--n", "3"), "char-table", "S3",
     ("rows", "class_types", "class_sizes", "matrix")),
])
@pytest.mark.parametrize("malformed", ["empty", "not a dict", "ragged", "short row", "wrong type",
                                       "missing key", "extra key"])
def test_malformed_cache_entry_is_a_miss(capsys, tmp_path, argv, artifact, key, fields, malformed):
    # a stored payload is read only when it has the fresh payload's keys,
    # list values and matching lengths; anything else is recomputed
    cold = run(capsys, "--no-cache", *argv)
    assert run(capsys, "--cache-dir", str(tmp_path), *argv) == cold
    cache = Cache(tmp_path)
    good = cache.get(artifact, key)
    assert set(good) == set(fields)
    bad = {
        "empty": {f: [] for f in fields},
        "not a dict": [1, 2],
        "ragged": {**good, "matrix": good["matrix"][:-1]},
        "short row": {**good, "matrix": [row[:-1] for row in good["matrix"]]},
        "wrong type": {**good, "matrix": [[str(v) for v in row] for row in good["matrix"]]},
        "missing key": {f: good[f] for f in fields[1:]},
        "extra key": {**good, "extra": []},
    }[malformed]
    cache.put(artifact, key, bad)
    assert run(capsys, "--cache-dir", str(tmp_path), *argv) == cold
    assert cold[0] == 0 and cold[2] == ""
    # the entry was rewritten as a cold run writes it
    assert cache.get(artifact, key) == good


@pytest.mark.parametrize("n,message", [
    ("21", "table for moved degree 21 exceeds cap 20"),
    ("-1", "n must be >= 0"),
])
def test_planted_char_table_entry_cannot_answer_a_refused_n(capsys, tmp_path, n, message):
    # a stored entry under the key of an n that a cold run refuses is never read
    code, out, _ = run(capsys, "--no-cache", "--output", "json", "char-table", "--n", "3")
    assert code == 0
    Cache(tmp_path).put("char-table", f"S{n}", json.loads(out))
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "char-table", "--n", n)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"


def test_cli_never_loads_hashlib(tmp_path):
    """hashlib loads OpenSSL's libcrypto, which raised every CLI process's
    peak RSS by about 3.6 MiB; the nine benchmark commands, cold and then
    warm from the cache, run in one fresh interpreter that must never
    import it.  -S keeps the host's site hooks out of the check."""
    commands = sorted(json.loads(ORACLE.read_text()))
    script = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "from globfun import cli",
        f"for command in {commands!r} * 2:",
        f"    assert cli.main(['--cache-dir', {str(tmp_path)!r}, '--output', 'json',"
        " *command.split()]) == 0, command",
        "loaded = sorted({'hashlib', '_hashlib'} & set(sys.modules))",
        "assert not loaded, loaded",
    ])
    proc = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert len(list(tmp_path.glob("*.json"))) == 2  # char-table S8 and marks A5


def test_ru_split_reads_the_tower(capsys, built_orders):
    """The RU split builds no group, so at the default caps it reaches
    n = 12, although 12! is far past the group cap."""
    code, out, _ = run(capsys, "--no-cache", "split", "--functor", "repring", "--n", "7")
    assert code == 0 and "component ranks: [1, 0, 1, 1, 2, 2, 4, 4]" in out
    assert built_orders == []
    code, out, err = run(capsys, "--no-cache", "split", "--functor", "repring", "--n", "12")
    assert code == 0, err
    assert "component ranks: [1, 0, 1, 1, 2, 2, 4, 4, 7, 8, 12, 14, 21] (total 77)" in out
    assert built_orders == []


def test_ru_split_answers_under_a_group_cap_of_1(capsys, monkeypatch, built_orders):
    # the bytes split --functor repring --n 9 printed under a raised group cap
    # before the group cap stopped reaching it; no group is closed on the way
    def refuse(*args):
        raise AssertionError("a group was closed")

    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "1")
    monkeypatch.setattr(perms, "close_generators", refuse)
    code, out, err = run(capsys, "--no-cache", "--output", "json", "split", "--functor",
                         "repring", "--n", "9")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "dbd7e375999f8d52c07d43cba777d81e10d5d39ad23ba654a873b3fe2d73e769"
    )
    assert built_orders == []


def test_fusion_answers_to_the_table_cap_under_a_group_cap_of_1(capsys, monkeypatch, built_orders):
    # fusion reads partitions, so n = 9 and on need no raised group cap; the
    # 5..8 part of the output is the bytes the group search printed
    def refuse(*args):
        raise AssertionError("a group was closed")

    monkeypatch.setenv("GLOBFUN_MAX_GROUP_ORDER", "1")
    monkeypatch.setattr(perms, "close_generators", refuse)
    code, out, err = run(capsys, "--no-cache", "fusion", "--family", "alternating",
                         "--n-range", "5..9")
    assert code == 0, err
    assert "fusion in A8 <= A9:\n  classes of (2 3 4 5 6 7 8) and (2 3 4 5 6 8 7) fuse\n" in out
    code, out, err = run(capsys, "--no-cache", "--output", "json", "fusion", "--family",
                         "alternating", "--n-range", "5..20")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "1deef63aeff0f456c9388ae96bc8ed4cc2c0321d1052f09d8e86c25b2a0ccf06"
    )
    assert built_orders == []


def test_decompose_seed_controls_generated_element(capsys):
    argv = ("--no-cache", "decompose", "--functor", "burnside", "--n", "2")
    _, zero, _ = run(capsys, *argv)
    assert run(capsys, *argv, "--seed", "0")[1] == zero
    _, other, _ = run(capsys, *argv, "--seed", "7")
    assert other != zero
    assert run(capsys, *argv, "--seed", "7")[1] == other
    # the pin CI checks, written with --seed after the subcommand
    code, out, err = run(capsys, "--no-cache", "--output", "json", "decompose",
                         "--functor", "repring", "--n", "6", "--seed", "3")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "cf066b77e836e48ee32bf845f64dcb7d72b810e810914e0d4f9394eb2560e4c6"
    )


@pytest.mark.parametrize(
    "argv,message",
    [
        (("--seed", "3", "split", "--functor", "repring", "--n", "2"),
         "invalid choice: '3'"),
        (("decompose", "--functor", "repring", "--n", "3", "--seed", "3", "--element", "[1,2,3]"),
         "argument --element: not allowed with argument --seed"),
        (("--cache-dir", "unused", "--no-cache", "char-table", "--n", "3"),
         "argument --no-cache: not allowed with argument --cache-dir"),
    ],
    ids=["split-seed", "seed-and-element", "cache-dir-and-no-cache"],
)
def test_options_without_effect_exit_2_through_argparse(capsys, argv, message):
    # --seed is read by decompose alone and only without --element; a cache
    # directory and --no-cache contradict each other
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == ""
    assert message in out.err


def test_seed_variable_is_not_read(capsys, monkeypatch):
    argv = ("--no-cache", "--output", "json", "fusion", "--family", "alternating",
            "--n-range", "5..6")
    plain = run(capsys, *argv)
    assert plain[0] == 0
    monkeypatch.setenv("GLOBFUN_SEED", "x")
    assert run(capsys, *argv) == plain


@pytest.mark.parametrize(
    "argv", [argv for argv, _ in SMOKE if argv[0] not in ("marks", "char-table")],
    ids=lambda argv: argv[0],
)
def test_only_table_commands_touch_the_cache(capsys, tmp_path, argv):
    # seven of the nine commands never open the cache: a directory that
    # cannot be made gives no warning, and one that can is not made
    code, out, err = run(capsys, "--cache-dir", "/dev/null/x", *argv)
    assert code == 0 and err == ""
    assert run(capsys, "--cache-dir", str(tmp_path / "c"), *argv) == (code, out, err)
    assert not (tmp_path / "c").exists()


def test_warm_table_run_writes_and_unlinks_nothing(capsys, tmp_path, monkeypatch):
    # opening the cache makes its directory and nothing else: a warm run
    # only reads, and a failed write is reported by put, not probed for
    assert run(capsys, "--cache-dir", str(tmp_path), "char-table", "--n", "3")[0] == 0
    calls = []
    for name in ("write_text", "write_bytes", "unlink", "replace", "rename", "touch"):
        original = getattr(Path, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, self.name))
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(Path, name, spy)
    before = sorted(p.name for p in tmp_path.iterdir())
    code, out, err = run(capsys, "--cache-dir", str(tmp_path), "char-table", "--n", "3")
    assert (code, err) == (0, "") and "character table of S3" in out
    assert calls == []
    assert sorted(p.name for p in tmp_path.iterdir()) == before


@pytest.mark.parametrize("argv", [("marks", "--group", "S3"), ("char-table", "--n", "3")],
                         ids=lambda argv: argv[0])
def test_empty_cache_dir_is_a_usage_error(capsys, tmp_path, monkeypatch, argv):
    # an empty directory used to turn the cache off without a word
    monkeypatch.chdir(tmp_path)
    assert run(capsys, "--cache-dir", "", *argv) == (
        2, "", "error: --cache-dir is empty; give a directory, or --no-cache\n")
    monkeypatch.setenv("GLOBFUN_CACHE_DIR", "")
    assert run(capsys, *argv) == (
        2, "", "error: GLOBFUN_CACHE_DIR is empty; give a directory, or --no-cache\n")
    # the option wins over the variable, and --no-cache reads neither
    assert run(capsys, "--cache-dir", str(tmp_path / "c"), *argv)[0] == 0
    assert (tmp_path / "c").is_dir()
    assert run(capsys, "--no-cache", *argv)[0] == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c"]


def test_unwritable_cache_dir_warns_and_works(capsys):
    code, out, err = run(capsys, "--cache-dir", "/proc/nope", "char-table", "--n", "3")
    assert code == 0
    assert "caching disabled" in err
    assert "character table of S3" in out
