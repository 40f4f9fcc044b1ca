import dataclasses

import pytest

from ddchain.config import ConfigError, config_to_lines, parse_config


def write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_parse_example_file(tmp_path):
    path = write(
        tmp_path,
        "# protocol\n"
        "n=130\n"
        "j=1.0\n"
        "psi=8.0\n"
        "delta=1.2\n"
        "tau=1.3\n"
        "m=128\n"
        "kind=size\n",
    )
    cfg = parse_config(path)
    assert cfg.kind == "size"
    assert cfg.n == 130
    assert cfg.psi == 8.0
    assert cfg.delta == 1.2
    assert cfg.tau == 1.3
    assert cfg.m == 128
    assert cfg.out == "size.csv"


def test_byte_order_mark_is_skipped(tmp_path):
    # Lines still end at \r\n, \r or \n, as when the file was read line by line.
    text = "kind=size\r\nn=5\rm=2\n"
    plain = write(tmp_path, text, "plain.cfg")
    (tmp_path / "bom.cfg").write_bytes(b"\xef\xbb\xbf" + text.encode())
    assert parse_config(str(tmp_path / "bom.cfg")) == parse_config(plain)


def test_undecodable_byte_is_a_config_error_at_its_file_offset(tmp_path):
    # The offset counts from the file's first byte, the mark included, past
    # the first read chunk of a long file.
    data = b"\xef\xbb\xbf# " + b"x" * 20000 + b"\nkind=size\nn=5\xff\n"
    path = tmp_path / "long.cfg"
    path.write_bytes(data)
    with pytest.raises(ConfigError) as info:
        parse_config(str(path))
    assert str(info.value) == f"{path}: not UTF-8 text at byte {data.index(0xff)}"


def test_unknown_key_is_an_error(tmp_path):
    path = write(tmp_path, "kind=size\npsii=8\n")
    with pytest.raises(ConfigError, match="psii"):
        parse_config(path)


def test_result_prefixed_keys_are_skipped(tmp_path):
    path = write(tmp_path, "kind=kernel\nresult.lifetime=1.87\nresult.version=0.1.0\n")
    cfg = parse_config(path)
    assert cfg.kind == "kernel"


def test_legacy_workers_key_is_skipped(tmp_path):
    # Sidecars written before the key was retired still parse, whatever its value.
    path = write(tmp_path, "kind=size\nworkers=4\n")
    assert parse_config(path, overrides={"workers": "0"}) == parse_config(kind="size")


def test_width_beyond_period_rejected_for_trace(tmp_path):
    path = write(tmp_path, "kind=trace\ndelta=1.5\ntau=1.0\n")
    with pytest.raises(ConfigError, match="delta"):
        parse_config(path)


def test_kind_must_match_subcommand(tmp_path):
    path = write(tmp_path, "kind=size\n")
    with pytest.raises(ConfigError, match="kind"):
        parse_config(path, kind="trace")
    assert parse_config(path, kind="size").kind == "size"
    with pytest.raises(ConfigError, match="unknown kind 'bogus'; expected one of delta-tau, "):
        parse_config(write(tmp_path, "kind=bogus\n", "bogus.cfg"))


def test_missing_kind_is_an_error():
    with pytest.raises(ConfigError, match="kind"):
        parse_config()


def test_bad_value_names_the_key(tmp_path):
    path = write(tmp_path, "kind=size\nn=abc\n")
    with pytest.raises(ConfigError, match="'n'"):
        parse_config(path)


def test_flags_override_file(tmp_path):
    path = write(tmp_path, "kind=size\nn=50\nseed=7\n")
    cfg = parse_config(path, overrides={"n": "80", "seed": None})
    assert cfg.n == 80
    assert cfg.seed == 7


def test_n_values_list_parsing(tmp_path):
    path = write(tmp_path, "kind=size\nn_values=50,70,90\n")
    assert parse_config(path).n_values == (50, 70, 90)


def test_kind_dependent_defaults():
    assert parse_config(kind="kernel").dt == 0.01
    assert parse_config(kind="pq-check").dt == 0.001
    trace = parse_config(kind="trace")
    assert (trace.gamma, trace.epsilon, trace.eta) == (0.5, 0.5, 0.1)
    size = parse_config(kind="size")
    assert (size.gamma, size.epsilon, size.eta) == (0.0, 0.0, 0.0)
    assert parse_config(kind="trace", overrides={"gamma": "0.0"}).gamma == 0.0


DEFAULT_N_VALUES = (
    "20,21,22,23,24,25,26,27,28,29,30,31,32,33,34,35,36,37,38,39,40,41,42,43,44,45,46,47,48,49,"
    "50,51,52,53,54,55,56,57,58,59,60,61,62,63,64,65,66,67,68,69,70,71,72,73,74,75,76,77,78,79,"
    "80,81,82,83,84,85,86,87,88,89,90,91,92,93,94,95,96,97,98,99,100,101,102,103,104,105,106,"
    "107,108,109,110,111,112,113,114,115,116,117,118,119,120,121,122,123,124,125,126,127,128,"
    "129,130"
)


def default_lines(kind, dt, gamma, epsilon, eta):
    return [
        f"kind={kind}", "n=130", "j=1.0", "psi=8.0", "delta=1.2", "tau=1.3", "m=128",
        f"gamma={gamma}", f"epsilon={epsilon}", f"eta={eta}", "seed=1",
        f"out={kind}.csv", "record_every=1", f"n_values={DEFAULT_N_VALUES}",
        "delta_min=0.02", "delta_max=2.0", "delta_steps=100",
        "tau_min=0.02", "tau_max=2.5", "tau_steps=100",
        "ratio_min=1.0", "ratio_max=2.0", "ratio_steps=100",
        "psi_min=0.0", "psi_max=20.0", "psi_steps=100",
        f"dt={dt}", "t_max=5.0", "threshold=0.02", "hold=0.5",
    ]


@pytest.mark.parametrize(
    "kind, expected",
    [
        ("delta-tau", default_lines("delta-tau", "0.01", "0.0", "0.0", "0.0")),
        ("size", default_lines("size", "0.01", "0.0", "0.0", "0.0")),
        ("trace", default_lines("trace", "0.01", "0.5", "0.5", "0.1")),
        ("ratio-psi", default_lines("ratio-psi", "0.01", "0.0", "0.0", "0.0")),
        ("kernel", default_lines("kernel", "0.01", "0.0", "0.0", "0.0")),
        ("pq-check", default_lines("pq-check", "0.001", "0.0", "0.0", "0.0")),
    ],
)
def test_every_default_is_pinned(kind, expected):
    assert config_to_lines(parse_config(kind=kind)) == expected


@pytest.mark.parametrize(
    "line",
    [
        "n=1",
        "m=0",
        "record_every=0",
        "tau=0",
        "gamma=-0.5",
        "seed=-3",
        "threshold=1.5",
        "dt=0",
        "delta_min=2.0\ndelta_max=1.0",
        "n_values=4,3",
        "n_values=1,5",
    ],
)
def test_out_of_range_values_rejected(tmp_path, line):
    path = write(tmp_path, f"kind=size\n{line}\n")
    with pytest.raises(ConfigError):
        parse_config(path)


@pytest.mark.parametrize("key, text, message", [
    ("n", str(2 ** 63), "n must fit in a signed 64-bit integer"),
    ("n_values", f"5,{2 ** 63}", "every n_values entry must fit in a signed 64-bit integer"),
], ids=["n", "n_values"])
def test_sizes_past_64_bits_rejected(key, text, message):
    with pytest.raises(ConfigError, match=f"^{message}"):
        parse_config(kind="size", overrides={key: text})


def test_largest_64_bit_sizes_pass_config():
    cfg = parse_config(kind="size", overrides={"n": str(2 ** 63 - 1), "n_values": f"5,{2 ** 63 - 1}"})
    assert cfg.n == 2 ** 63 - 1 and cfg.n_values == (5, 2 ** 63 - 1)


FLOAT_KEYS = (
    "j", "psi", "delta", "tau", "gamma", "epsilon", "eta", "dt", "t_max", "threshold", "hold",
    "delta_min", "delta_max", "tau_min", "tau_max", "ratio_min", "ratio_max", "psi_min", "psi_max",
)


@pytest.mark.parametrize("key", FLOAT_KEYS)
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_float_keys_must_be_finite(key, text):
    with pytest.raises(ConfigError, match=key):
        parse_config(kind="delta-tau", overrides={key: text})


def test_ratio_psi_requires_ratio_at_least_one(tmp_path):
    path = write(tmp_path, "kind=ratio-psi\nratio_min=0.5\n")
    with pytest.raises(ConfigError, match="ratio_min"):
        parse_config(path)


def test_ratio_psi_requires_positive_delta():
    # The sweep's period is ratio * delta; the other kinds accept a zero width.
    with pytest.raises(ConfigError, match="delta must be > 0"):
        parse_config(kind="ratio-psi", overrides={"delta": "0"})
    assert parse_config(kind="size", overrides={"delta": "0"}).delta == 0.0


def test_pq_check_rejects_period_noise():
    with pytest.raises(ConfigError, match="eta"):
        parse_config(kind="pq-check", overrides={"eta": "0.1"})


def test_hold_below_dt_is_rejected_only_for_kernel():
    # Only the kernel study estimates a lifetime over a hold window.
    with pytest.raises(ConfigError, match="hold"):
        parse_config(kind="kernel", overrides={"dt": "0.6"})
    assert parse_config(kind="pq-check", overrides={"dt": "0.6"}).hold == 0.5


def test_malformed_line_reports_location(tmp_path):
    path = write(tmp_path, "kind=size\nnot a pair\n")
    with pytest.raises(ConfigError, match=":2"):
        parse_config(path)


def test_key_given_twice_is_an_error(tmp_path):
    path = write(tmp_path, "kind=size\nm=4\n# retry\nm=8\n")
    with pytest.raises(ConfigError, match=r"run\.cfg:4: key 'm' already given on line 2"):
        parse_config(path)
    # A flag still overrides the file's one value.
    path = write(tmp_path, "kind=size\nm=4\n")
    assert parse_config(path, overrides={"m": "8"}).m == 8


def test_serialization_round_trip(tmp_path):
    original = parse_config(kind="trace", overrides={"n": "40", "seed": "123", "tau": "1.7"})
    path = write(tmp_path, "\n".join(config_to_lines(original)) + "\n")
    assert parse_config(path) == original
    # Round trip is exact for every field, including float bit patterns.
    for field in dataclasses.fields(original):
        assert getattr(parse_config(path), field.name) == getattr(original, field.name)
