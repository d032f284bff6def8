import numpy as np
import pytest

import diophlat as dl
from diophlat.latgeo import load_lattice_csv, save_lattice_csv, save_matrix_csv


def test_matrix_roundtrip(tmp_path, phi_tuple):
    # 17 significant digits read back as the same floats
    B, _ = dl.embedding_lattice(phi_tuple)
    path = tmp_path / "m.csv"
    save_matrix_csv(path, B)
    back = np.loadtxt(path, delimiter=",", ndmin=2)
    assert np.array_equal(back, B.entries)


def test_lattice_roundtrip(tmp_path, cubic_tuple):
    # the file holds the mantissas, so the certified covolume comes back;
    # 53-bit entries loaded back at 0.99999999999999989
    _, bnorm = dl.embedding_lattice(cubic_tuple)
    path = tmp_path / "l.csv"
    save_lattice_csv(path, bnorm)
    lines = path.read_text().splitlines()
    assert lines[0] == f"# scale={bnorm.exact_scale}"
    assert lines[1:] == [",".join(map(str, row)) for row in bnorm.exact_mantissa]
    back = load_lattice_csv(path)
    assert back == bnorm and back.covolume == 1.0


def test_ill_conditioned_lattice_file_is_exact(tmp_path):
    # x^4 - 2(10^6 x - 1)^2 at 64 bits certifies at 2**-128, where 53-bit
    # entries loaded back at covolume 0.99993
    tup = dl.power_tuple(dl.make_field([-2, 4000000, -2000000000000, 0, 1], 64))
    _, bnorm = dl.embedding_lattice(tup)
    path = tmp_path / "l.csv"
    save_lattice_csv(path, bnorm)
    back = load_lattice_csv(path)
    assert (back.exact_mantissa, back.exact_scale) == (bnorm.exact_mantissa, 128)
    assert back.covolume == 1.0


@pytest.mark.parametrize("text, message", [
    pytest.param("# covolume=1 unimodular=1\n1,0\n0,1\n", "scale=S", id="no-scale"),
    pytest.param("# scale=1.5\n1,0\n0,1\n", "invalid literal", id="float-scale"),
    pytest.param("# scale=0\n1,0\n0.5,1\n", "invalid literal", id="float-entry"),
    pytest.param("# scale=0\n1,0\n0\n", "square", id="ragged"),
    pytest.param("# scale=0\n", "square", id="no-rows"),
    pytest.param("# scale=0\n1,2\n2,4\n", "singular", id="zero-det"),
])
def test_lattice_file_is_checked(tmp_path, text, message):
    path = tmp_path / "l.csv"
    path.write_text(text)
    with pytest.raises(ValueError, match=message):
        load_lattice_csv(path)


def test_records_csv_significant_digits(tmp_path, phi_tuple):
    recs = dl.scan_records(phi_tuple, 1, 0.5, 2.0)
    wal = dl.sweep_weights(recs, 2.0)
    from diophlat.approx import save_records_csv

    path = tmp_path / "records.csv"
    save_records_csv(path, wal, phi_tuple.n)
    lines = path.read_text().splitlines()
    assert lines[0] == "q,p_1,delta,t_lo,t_hi,weight,theta_1"
    # 17 significant digits round-trip through float exactly
    for line in lines[1:]:
        parts = line.split(",")
        assert float(parts[1]) == float(parts[1])
        delta = float(parts[2])
        assert f"{delta:.17g}" == parts[2]


def test_minima_csv_schema(tmp_path, phi_tuple):
    from diophlat.approx import save_minima_csv

    minima = dl.record_minima(phi_tuple, 2, 200)
    path = tmp_path / "minima.csv"
    save_minima_csv(path, minima)
    lines = path.read_text().splitlines()
    assert lines[0] == "k,value,is_record"
    assert len(lines) == 1 + len(minima)
    assert all(line.endswith(",1") for line in lines[1:])
