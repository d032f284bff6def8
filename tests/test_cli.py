import os

import pytest

from diophlat.cli import RunConfig, main


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


class TestRunConfig:
    def test_roundtrip_lossless(self, tmp_path):
        cfg = RunConfig(
            field_coeffs=(-1, -3, 0, 1),
            precision_bits=256,
            p=3,
            k_range=(0, 1, 2),
            m_range=(0, 4),
            ell=7,
            epsilon=0.4375,
            T=12.5,
            K=123456,
            L=17.25,
            N=4242,
            seed=90210,
            threads=2,
            output_dir="some/dir",
        )
        path = tmp_path / "cfg.txt"
        cfg.save(path, command="compare")
        assert RunConfig.load(path) == cfg


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

    @pytest.mark.parametrize("option,value", [("--T", "400"), ("--epsilon", "0")])
    def test_invalid_input_exit_code(self, tmp_path, capsys, option, value):
        # a horizon past 2^512 and a nonpositive eps are domain errors
        rc = main(["scan", "--coeffs=-1,-1,1", option, value, "--out", str(tmp_path / "o")])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: InvalidInput: "), err

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


class TestManifestReproducibility:
    def test_rerun_from_manifest_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "run1"
        rc = main(
            [
                "compare",
                "--coeffs=-1,-1,1",
                "--k-range",
                "0,1",
                "--epsilon",
                "0.45",
                "--T",
                "6",
                "--L",
                "6",
                "--N",
                "400",
                "--seed",
                "77",
                "--out",
                str(out1),
            ]
        )
        assert rc == 0
        out2 = tmp_path / "run2"
        rc = main(["compare", "--config", str(out1 / "manifest.txt"), "--out", str(out2)])
        assert rc == 0
        for name in (
            "measure_k0.csv",
            "measure_k1.csv",
            "orbit_measure_k0.csv",
            "orbit_measure_k1.csv",
            "compare.txt",
        ):
            assert read(out1 / name) == read(out2 / name), name
