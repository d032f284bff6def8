import os
import resource
import subprocess
import sys
from dataclasses import replace

import pytest

import diophlat
from diophlat import approx, cli
from diophlat.cli import RunConfig, _config_from_args, _parser, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def run_bounded(argv):
    """Exit code of the CLI in a child process with 60 s and 2 GiB of address
    space, so that an unbounded enumeration fails the test rather than the
    host."""
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2**31, 2**31))

    src = os.path.dirname(os.path.dirname(diophlat.__file__))
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-m", "diophlat.cli", *argv], env=env,
                          preexec_fn=limit, capture_output=True, timeout=60)
    return proc.returncode


# a non-default value of every setting: its flag and the value it sets
FLAGS = {
    "field_coeffs": (["--coeffs=-1,-3,0,1"], (-1, -3, 0, 1)),
    "precision_bits": (["--bits", "256"], 256),
    "p": (["--p", "3"], 3),
    "k_range": (["--k-range", "0,2"], (0, 2)),
    "m_range": (["--m-range", ""], ()),
    "ell": (["--ell", "5"], 5),
    "epsilon": (["--epsilon", "0.375"], 0.375),
    "T": (["--T", "7.5"], 7.5),
    "K": (["--K", "99"], 99),
    "L": (["--L", "6.25"], 6.25),
    "N": (["--N", "12"], 12),
    "seed": (["--seed", "77"], 77),
    "conjugator": (["--no-conjugator"], False),
    "output_dir": (["--out", "some/dir"], "some/dir"),
}


def reads(command):
    return [f.name for f in RunConfig.read_by(command)]


class TestRunConfig:
    def test_roundtrip_lossless(self, tmp_path):
        # each manifest holds command, version and the subcommand's settings
        # in field order, and loads back to them (the rest at their defaults)
        cfg = RunConfig(**{name: value for name, (_, value) in FLAGS.items()})
        for command in cli._COMMANDS:
            path = tmp_path / f"{command}.txt"
            cfg.save(path, command=command)
            keys = [line.split("=")[0] for line in path.read_text().splitlines()]
            assert keys == ["command", "version", *reads(command)]
            assert RunConfig.load(path) == RunConfig(
                **{name: getattr(cfg, name) for name in reads(command)})

    def test_every_flag_sets_its_field(self, tmp_path):
        config = tmp_path / "base.txt"
        RunConfig(seed=1, L=2.0).save(config, command="orbit")
        for command in cli._COMMANDS:
            argv = [command, "--config", str(config), "--threads", "3"]
            for name in reads(command):
                argv += FLAGS[name][0]
            cfg = _config_from_args(_parser().parse_args(argv))
            assert cfg == replace(RunConfig(seed=1, L=2.0),
                                  **{name: FLAGS[name][1] for name in reads(command)}), command
            # unset flags keep the config file's values
            cfg = _config_from_args(_parser().parse_args([command, "--config", str(config)]))
            assert cfg == RunConfig(seed=1, L=2.0)
            # a flag the subcommand does not read is refused
            for name in FLAGS.keys() - set(reads(command)):
                with pytest.raises(SystemExit) as info:
                    _parser().parse_args([command, *FLAGS[name][0]])
                assert info.value.code == 2, (command, name)

    @pytest.mark.parametrize("argv", [
        ["field", "--out", "-"],
        ["scan", "--epsilon", "0.5", "--T", "2"],
        ["weights", "--epsilon", "0.5", "--T", "2"],
        ["measure", "--epsilon", "0.5", "--T", "2"],
        ["orbit", "--L", "2", "--N", "5"],
        ["compare", "--T", "2", "--L", "2", "--N", "5"],
        ["littlewood", "--K", "50"],
    ], ids=lambda argv: argv[0])
    def test_declared_settings_are_the_ones_read(self, tmp_path, monkeypatch, argv):
        # a handler that starts to read a setting it does not declare would
        # run on its default, whatever the flags or the manifest say
        seen = set()

        class Recording(RunConfig):
            def __getattribute__(self, name):
                seen.add(name)
                return super().__getattribute__(name)

        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(RunConfig, "save", lambda self, path, command: None)
        cfg = _config_from_args(_parser().parse_args(argv))
        command = argv[0]
        assert getattr(cli, f"cmd_{command}")(Recording(**vars(cfg))) == 0
        assert seen & FLAGS.keys() == set(reads(command))

    def test_old_manifest_with_threads_loads(self, tmp_path):
        path = tmp_path / "manifest.txt"
        path.write_text("command=orbit\nversion=0.1.0\nfield_coeffs=-1,-3,0,1\n"
                        "seed=5\nthreads=2\noutput_dir=old\n")
        assert RunConfig.load(path) == RunConfig(field_coeffs=(-1, -3, 0, 1), seed=5,
                                                 output_dir="old")

    @pytest.mark.parametrize("argv", [
        pytest.param(["scan", "--T", "abc"], id="scan-T-abc"),
        pytest.param(["orbit", "--k-range", "1,a"], id="orbit-k-range-1a"),
        pytest.param(["field", "--threads", "x"], id="field-threads-x"),
    ])
    def test_bad_flag_value_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert "invalid" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["seed=abc\n", "conjugator=no\n", None, "epsilonn=0.3\n"],
                             ids=["seed-abc", "conjugator-no", "missing-file", "unknown-key"])
    def test_bad_config_value_exits_2(self, tmp_path, capsys, text):
        config = tmp_path / "config.txt"
        if text is not None:
            config.write_text(text)
        with pytest.raises(SystemExit) as info:
            main(["field", "--config", str(config), "--out", str(tmp_path / "o")])
        assert info.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len([line for line in err if "error:" in line]) == 1
        assert f"--config {config}" in err[-1]


    def test_consecutive_calls_parse_independently(self, tmp_path):
        # the parser is built once per process, so no flag of one call may
        # reach the next, whatever the subcommands
        assert _parser() is _parser()
        a, b, c = (str(tmp_path / x) for x in "abc")
        assert main(["orbit", "--coeffs=-1,-3,0,1", "--bits", "256", "--L", "5", "--N", "20",
                     "--seed", "4", "--no-conjugator", "--out", a]) == 0
        assert main(["field", "--out", b]) == 0
        assert main(["orbit", "--L", "5", "--N", "20", "--out", c]) == 0
        assert RunConfig.load(os.path.join(a, "manifest.txt")) == RunConfig(
            field_coeffs=(-1, -3, 0, 1), precision_bits=256, L=5.0, N=20, seed=4,
            conjugator=False, output_dir=a)
        assert RunConfig.load(os.path.join(b, "manifest.txt")) == RunConfig(output_dir=b)
        assert RunConfig.load(os.path.join(c, "manifest.txt")) == RunConfig(
            L=5.0, N=20, output_dir=c)


class TestFieldCommand:
    def test_phi_report(self, capsys, tmp_path):
        rc = main(["field", "--coeffs=-1,-1,1", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "|det B| = 2.2360679775" in out  # sqrt 5
        assert "1.61803398875" in out

    def test_cubic_det_nine(self, capsys, tmp_path):
        rc = main(["field", "--coeffs=-1,-3,0,1", "--out", str(tmp_path / "o")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "|det B| = 9" in out

    def test_simplest_cubic_a_1e7(self, capsys, tmp_path):
        # the float determinant of Bnorm missed 1 by more than 1e-10 here
        rc = main(["field", "--coeffs=-1,-10000003,-10000000,1", "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "normalized covolume = 1\n" in capsys.readouterr().out

    def test_mignotte_quartic_at_64_bits(self, capsys, tmp_path):
        # x^4 - 2(10^6 x - 1)^2: Bnorm rounded at 2**-64 is singular, so its
        # mantissas are taken at 2**-128, where the covolume is certified
        rc = main(["field", "--coeffs=-2,4000000,-2000000000000,0,1", "--bits", "64",
                   "--out", str(tmp_path / "o")])
        assert rc == 0
        assert "normalized covolume = 1\n" in capsys.readouterr().out

    @pytest.mark.parametrize("coeffs, det, disc", [
        ("-2,4000000,-2000000000000,0,1", "1.6e+13", "2.56e+26"),  # 255999999999999999999997952
        ("-1,-100003,-100000,1", "10000300009", "1.0000600027e+20"),  # 100006000270005400081
    ], ids=["mignotte-quartic", "simplest-cubic-1e5"])
    def test_discriminant_is_exact(self, capsys, coeffs, det, disc):
        # the float det(B) of these embeddings printed 5.6568542495 and
        # 10000300008.8; the exact mantissas give the discriminant
        assert main(["field", f"--coeffs={coeffs}", "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert f"|det B| = {det}\n" in out
        assert f"power-basis discriminant det(B)^2 = {disc}\n" in out

    @pytest.mark.parametrize("bits", [64, 192, 1024])
    @pytest.mark.parametrize("coeffs, det, disc", [
        ("-1,-1,1", "2.2360679775", "5"),
        ("-1,-3,0,1", "9", "81"),
        ("1,1,-4,-4,1", "33.5410196625", "1125"),
    ])
    def test_certified_digits_of_well_conditioned_fields(self, capsys, bits, coeffs, det, disc):
        assert main(["field", f"--coeffs={coeffs}", "--bits", str(bits), "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert f"|det B| = {det}\n" in out
        assert f"power-basis discriminant det(B)^2 = {disc}\n" in out
        assert "warning" not in out

    def test_mignotte_quartic_at_64_bits_certifies_no_digit(self, capsys):
        # the close root pair is 2^-59 apart, so 64-bit mantissas fix |det B|
        # (1.6e13) only to a relative Hadamard bound of about 2e5
        assert main(["field", "--coeffs=-2,4000000,-2000000000000,0,1", "--bits", "64",
                     "--out", "-"]) == 0
        out = capsys.readouterr().out
        assert "|det B| = 2e+13\n" in out
        assert "power-basis discriminant det(B)^2 = 3e+26\n" in out
        assert "warning: 64 bits certify no digit of |det B|\n" in out

    def test_jobs_share_the_field_and_tuple(self, tmp_path, monkeypatch):
        built = []
        make_field = cli.make_field
        monkeypatch.setattr(cli, "make_field", lambda *a: built.append(a) or make_field(*a))
        cli._build_tuple.cache_clear()
        for name in ("a", "b"):
            assert main(["field", "--coeffs=-1,-3,0,1", "--out", str(tmp_path / name)]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("unbuffered", ["1", ""])
    def test_reader_closing_the_pipe_early(self, unbuffered):
        # the child prints its first line, then waits until the reader has
        # closed both pipes; every later line meets a closed pipe, when it
        # is printed (unbuffered) or when main flushes (block-buffered)
        child = "\n".join([
            "import builtins, sys",
            "from diophlat import cli",
            "say = builtins.print",
            "def first_line_then_wait(*args, **kwargs):",
            "    builtins.print = say",
            "    say(*args, **kwargs)",
            "    sys.stdout.flush()",
            "    sys.stdin.read()",
            "builtins.print = first_line_then_wait",
            "sys.exit(cli.main(sys.argv[1:]))",
        ])
        src = os.path.dirname(os.path.dirname(diophlat.__file__))
        env = dict(os.environ, PYTHONPATH=src, PYTHONUNBUFFERED=unbuffered)
        with subprocess.Popen([sys.executable, "-c", child, "field", "--coeffs=-1,-1,1", "--out", "-"],
                              env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline().startswith(b"polynomial coefficients")
            proc.stdout.close()
            proc.stdin.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 1
        assert b"Traceback" not in err and b"BrokenPipeError" not in err, err

    def test_not_totally_real_exit_code(self, capsys, tmp_path):
        rc = main(["field", "--coeffs", "1,0,1", "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "NotTotallyReal" in capsys.readouterr().err


class TestLittlewoodCommand:
    def test_scaled_table(self, capsys, tmp_path):
        rc = main(
            [
                "littlewood",
                "--coeffs=-1,-1,1",
                "--p",
                "2",
                "--K",
                "100",
                "--m-range",
                "0,1,2",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "0.38196601125010515" in out
        assert out.count("0.44582472000672974") >= 2
        rows = read(tmp_path / "o" / "scaled.csv").decode().splitlines()
        assert rows[0] == "m,ell,argmin_k,min_value,scaled_value"
        assert len(rows) == 4

    def test_cubic_value_below_one(self, capsys, tmp_path):
        rc = main(
            [
                "littlewood",
                "--coeffs=-1,-3,0,1",
                "--p",
                "2",
                "--K",
                "10000",
                "--m-range",
                "0",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        rows = read(tmp_path / "o" / "scaled.csv").decode().splitlines()
        val = float(rows[1].split(",")[3])
        assert 0.0 < val < 1.0

    def test_past_1024_bits(self, tmp_path):
        # the displacements at 1100 bits are integers beyond a float
        for bits in ("192", "1100"):
            rc = main(["littlewood", "--coeffs=-1,-3,0,1", "--bits", bits, "--K", "2000",
                       "--out", str(tmp_path / bits)])
            assert rc == 0
        ks = [[row.split(",")[0] for row in read(tmp_path / b / "minima.csv").decode().splitlines()]
              for b in ("192", "1100")]
        assert ks[0] == ks[1] and len(ks[0]) > 2

    def test_empty_m_range_header_only(self, tmp_path):
        rc = main(
            [
                "littlewood",
                "--coeffs=-1,-1,1",
                "--K",
                "50",
                "--m-range",
                "",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        rows = read(tmp_path / "o" / "scaled.csv").decode().splitlines()
        assert rows == ["m,ell,argmin_k,min_value,scaled_value"]


class TestScanWeightsMeasure:
    def test_scan_records_csv(self, tmp_path, capsys):
        rc = main(
            [
                "scan",
                "--coeffs=-1,-1,1",
                "--epsilon",
                "0.5",
                "--T",
                "2",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        rows = read(tmp_path / "o" / "records.csv").decode().splitlines()
        assert rows[0] == "q,p_1,delta,t_lo,t_hi,weight,theta_1"
        assert [r.split(",")[0] for r in rows[1:]] == ["1", "2", "3", "5"]

    @pytest.mark.parametrize(
        "argv,error",
        [
            # a horizon past 2^512 and a nonpositive eps are domain errors
            pytest.param(["scan", "--T", "400"], "InvalidInput", id="--T-400"),
            pytest.param(["scan", "--epsilon", "0"], "InvalidInput", id="--epsilon-0"),
            pytest.param(["scan", "--coeffs=1,2"], "InvalidInput", id="scan-linear"),
            pytest.param(["scan", "--bits", "32"], "InvalidInput", id="scan-bits-32"),
            pytest.param(["scan", "--T", "nan"], "InvalidInput", id="scan-T-nan"),
            pytest.param(["scan", "--epsilon", "nan"], "InvalidInput", id="scan-epsilon-nan"),
            pytest.param(["orbit", "--L", "0"], "InvalidInput", id="orbit-L-0"),
            pytest.param(["orbit", "--L", "nan"], "InvalidInput", id="orbit-L-nan"),
            pytest.param(["orbit", "--epsilon", "0"], "InvalidInput", id="orbit-epsilon-0"),
            pytest.param(["orbit", "--k-range", "-1"], "InvalidInput", id="orbit-k-negative"),
            pytest.param(["orbit", "--N", "-3"], "InvalidInput", id="orbit-N-negative"),
            pytest.param(["orbit", "--p", "4"], "NotPrime", id="orbit-p-4"),
            pytest.param(["compare", "--L", "0"], "InvalidInput", id="compare-L-0"),
            # the generator's key range is [0, 2**128)
            pytest.param(["orbit", "--seed", "-1"], "InvalidInput", id="orbit-seed-negative"),
            pytest.param(["compare", "--seed", str(2**128)], "InvalidInput",
                         id="compare-seed-2**128"),
        ],
    )
    def test_invalid_input_exit_code(self, tmp_path, capsys, monkeypatch, argv, error):
        # orbit and compare check their inputs before any record scan
        def refuse(*args):
            raise AssertionError("scan_records ran")

        if argv[0] != "scan":
            monkeypatch.setattr(approx, "scan_records", refuse)
        command, *options = argv
        shared = {"scan": ["--T", "3"], "orbit": ["--N", "20"],
                  "compare": ["--T", "3", "--N", "20"]}[command]
        rc = main([command, "--coeffs=-1,-1,1", *shared, *options, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {error}: "), err

    def test_weights_identity_line(self, tmp_path, capsys):
        rc = main(
            [
                "weights",
                "--coeffs=-1,-1,1",
                "--epsilon",
                "0.5",
                "--T",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "identity weight_sum + empty = 1" in out

    def test_measure_csv(self, tmp_path, capsys):
        rc = main(
            [
                "measure",
                "--coeffs=-1,-1,1",
                "--p",
                "2",
                "--k-range",
                "0",
                "--epsilon",
                "0.5",
                "--T",
                "1",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        rows = read(tmp_path / "o" / "measure_k0.csv").decode().splitlines()
        assert rows[0] == "sign,weight"
        assert len(rows) == 3

    @pytest.mark.parametrize("command", ["measure", "compare"])
    def test_measure_on_s2_fails_before_scanning(self, tmp_path, capsys, monkeypatch, command):
        # measure CSVs cover S^0 and S^1; a quartic (n = 3) is refused before
        # any record scan or lattice work
        def refuse(*args):
            raise AssertionError("scan_records ran")

        monkeypatch.setattr(approx, "scan_records", refuse)
        orbit = ["--N", "10", "--L", "5"] if command == "compare" else []
        rc = main([command, "--coeffs=1,1,-4,-4,1", "--T", "12", "--epsilon", "0.4",
                   "--k-range", "0", *orbit, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: UnsupportedDimension: "), err


class TestCompareAndOrbit:
    def test_compare_zero_samples(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--coeffs=-1,-1,1",
                "--k-range",
                "0",
                "--epsilon",
                "0.45",
                "--T",
                "3",
                "--L",
                "5",
                "--N",
                "0",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "normalized distance: n/a" in out

    def test_compare_small_run(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--coeffs=-1,-1,1",
                "--k-range",
                "0",
                "--epsilon",
                "0.45",
                "--T",
                "8",
                "--L",
                "8",
                "--N",
                "500",
                "--seed",
                "5",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "normalized distance:" in out
        assert os.path.exists(tmp_path / "o" / "measure_k0.csv")
        assert os.path.exists(tmp_path / "o" / "orbit_measure_k0.csv")
        assert os.path.exists(tmp_path / "o" / "compare.txt")

    def test_compare_cubic_reports_arc_mass(self, tmp_path, capsys):
        rc = main(
            [
                "compare",
                "--coeffs=-1,-3,0,1",
                "--k-range",
                "0",
                "--epsilon",
                "0.4",
                "--T",
                "6",
                "--L",
                "6",
                "--N",
                "300",
                "--seed",
                "3",
                "--out",
                str(tmp_path / "o"),
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "min arc mass (pi/8), time-average:" in out

    def test_compare_records_the_conjugator_it_applies(self, tmp_path):
        # compare always applies U0, also when its --config comes from an
        # orbit --no-conjugator run, and its manifest has no conjugator line
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["orbit", "--L", "5", "--N", "50", "--no-conjugator", "--out", str(a)]) == 0
        assert main(["compare", "--config", str(a / "manifest.txt"), "--T", "3",
                     "--out", str(b)]) == 0
        assert "conjugator=" not in (b / "manifest.txt").read_text()
        header = read(b / "orbit_measure_k0.csv").decode().splitlines()[0]
        assert "conjugator=applied" in header

    def test_orbit_threads_byte_identical(self, tmp_path):
        args = [
            "orbit",
            "--coeffs=-1,-1,1",
            "--k-range",
            "0",
            "--epsilon",
            "0.45",
            "--L",
            "6",
            "--N",
            "300",
            "--seed",
            "9",
        ]
        rc = main(args + ["--threads", "1", "--out", str(tmp_path / "a")])
        assert rc == 0
        rc = main(args + ["--threads", "3", "--out", str(tmp_path / "b")])
        assert rc == 0
        assert read(tmp_path / "a" / "orbit_measure_k0.csv") == read(
            tmp_path / "b" / "orbit_measure_k0.csv"
        )


class TestFailFast:
    @pytest.mark.parametrize("argv, code", [
        # the point cap, checked before a leaf builds its interval (it took
        # all memory at k = 100 and hung at k = 200)
        (["--k-range", "100"], 4),
        (["--k-range", "200"], 4),
        # fewer than 64 of 192 fraction bits left in the scaled column
        (["--k-range", "500"], 3),
        (["--k-range", "2000"], 3),
        # p**k past the float range of the basis and its gate
        (["--coeffs=-1,-3,0,1", "--bits", "1024", "--k-range", "1400"], 3),
        (["--coeffs=-1,-3,0,1", "--bits", "1024", "--k-range", "2000"], 3),
        (["--coeffs=1,-4,-4,1,1", "--bits", "1024", "--k-range", "1023"], 3),
        # a float gate rejected these exact Hecke-scaled bases (no samples:
        # unfolded, ten of them pass the point cap)
        (["--coeffs=-1,-100003,-100000,1", "--bits", "1024", "--p", "3", "--k-range", "3",
          "--N", "0"], 0),
        (["--coeffs=-1,-1000003,-1000000,1", "--bits", "1024", "--k-range", "5", "--N", "0"], 0),
        # the conjugator's basis change has entries past 2**53
        (["--coeffs=-2,4000000,-2000000000000,0,1", "--bits", "1024", "--k-range", "0"], 3),
        # e^800 leaves the float range: a box radius of 0 ended in a ValueError
        (["--coeffs=-1,-103,-100,1", "--L", "800", "--N", "5", "--no-conjugator"], 3),
        # a Gram-Schmidt bound below the float range (a box 1e300 wide) and
        # one above it (unfolded samples at L = 600) ended in a ZeroDivisionError
        # and an OverflowError
        (["--N", "5", "--L", "2", "--epsilon", "1e300"], 4),
        (["--coeffs=-1,-13,-10,1", "--N", "1", "--L", "600", "--seed", "3", "--no-conjugator"],
         4),
    ], ids=lambda v: " ".join(v) if isinstance(v, list) else None)
    def test_orbit_exit_code(self, tmp_path, argv, code):
        assert run_bounded(["orbit", "--N", "10", *argv, "--out", str(tmp_path)]) == code


class TestManifestReproducibility:
    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["field", "--coeffs=-1,-3,0,1", "--bits", "256"], id="field"),
            pytest.param(["scan", "--epsilon", "0.5", "--T", "6", "--ell", "3"], id="scan"),
            pytest.param(["weights", "--coeffs=-1,-3,0,1", "--epsilon", "0.4", "--T", "4"],
                         id="weights"),
            pytest.param(["measure", "--k-range", "0,1", "--T", "8"], id="measure"),
            pytest.param(["orbit", "--L", "10", "--N", "200", "--seed", "3"], id="orbit"),
            # the unconjugated pushforward: 2 hits in 200 against 3 with U0
            pytest.param(["orbit", "--L", "10", "--N", "200", "--seed", "3", "--no-conjugator"],
                         id="orbit-no-conjugator"),
            pytest.param(["compare", "--k-range", "0,1", "--T", "6", "--L", "6", "--N", "400",
                          "--seed", "77"], id="compare"),
            pytest.param(["littlewood", "--coeffs=-1,-3,0,1", "--K", "3000", "--m-range", "0,2"],
                         id="littlewood"),
        ],
    )
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path, capsys, argv):
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main([*argv, "--out", str(out1)]) == 0
        first = capsys.readouterr().out.replace(str(out1), "OUT")
        assert main([argv[0], "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
        assert capsys.readouterr().out.replace(str(out2), "OUT") == first
        names = sorted(os.listdir(out1))
        assert names == sorted(os.listdir(out2)) and len(names) > 1
        for name in names:
            a, b = read(out1 / name), read(out2 / name)
            if name == "manifest.txt":  # the output directory differs
                a, b = a.replace(str(out1).encode(), b""), b.replace(str(out2).encode(), b"")
            assert a == b, name

    def test_rerun_from_a_manifest_with_every_setting(self, tmp_path):
        # manifests of earlier versions hold every setting and threads=; the
        # settings orbit does not read are type-checked and ignored
        settings = {"field_coeffs": "-1,-3,0,1", "precision_bits": "192", "p": "2",
                    "k_range": "0", "m_range": "4", "ell": "7", "epsilon": "0.4", "T": "99.5",
                    "K": "5", "L": "6.0", "N": "300", "seed": "9", "conjugator": "True"}
        old = tmp_path / "old.txt"
        old.write_text("command=orbit\nversion=0.1.0\nthreads=2\n"
                       + "".join(f"{k}={v}\n" for k, v in settings.items())
                       + f"output_dir={tmp_path / 'x'}\n")
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["orbit", "--config", str(old), "--out", str(a)]) == 0
        assert main(["orbit", "--coeffs=-1,-3,0,1", "--epsilon", "0.4", "--L", "6", "--N", "300",
                     "--seed", "9", "--out", str(b)]) == 0
        assert read(a / "orbit_measure_k0.csv") == read(b / "orbit_measure_k0.csv")
        keys = [line.split("=")[0] for line in (a / "manifest.txt").read_text().splitlines()]
        assert keys == ["command", "version", "field_coeffs", "precision_bits", "p", "k_range",
                        "epsilon", "L", "N", "seed", "conjugator", "output_dir"]
