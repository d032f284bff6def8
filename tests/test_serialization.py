import numpy as np
import pytest

import diophlat as dl
from diophlat.latgeo import (
    load_lattice_csv,
    load_matrix_csv,
    save_lattice_csv,
    save_matrix_csv,
)


def test_matrix_roundtrip(tmp_path, phi_tuple):
    B, _ = dl.embedding_lattice(phi_tuple)
    path = tmp_path / "m.csv"
    save_matrix_csv(path, B)
    back = load_matrix_csv(path)
    assert np.array_equal(back.entries, B.entries)


def test_lattice_roundtrip(tmp_path, cubic_tuple):
    _, bnorm = dl.embedding_lattice(cubic_tuple)
    path = tmp_path / "l.csv"
    save_lattice_csv(path, bnorm)
    back = load_lattice_csv(path)
    assert np.array_equal(back.matrix.entries, bnorm.matrix.entries)
    # the header holds the exact covolume of the float entries, which are
    # the mantissas truncated to 53 bits
    assert path.read_text().splitlines()[0] == f"# covolume={back.covolume:.17g} unimodular=1"
    assert abs(back.covolume - bnorm.covolume) < 1e-15


@pytest.mark.parametrize("header, message", [
    ("# covolume=1 unimodular=0", "covolume disagrees"),
    ("# covolume=2 unimodular=1", "unimodular flag"),
])
def test_lattice_header_is_checked(tmp_path, header, message):
    path = tmp_path / "l.csv"
    path.write_text(header + "\n2,0\n0,1\n")
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
