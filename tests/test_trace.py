import pytest
from hypothesis import given, strategies as st

from oracles import loop_encode_field
from tracemock.errors import (DuplicateIndexError, EmptyRequestOrResponseError,
                              TraceFormatError)
from tracemock.harness import PAPER_EXAMPLE_ROWS, paper_example_library
from tracemock.trace import (Transaction, TransactionLibrary, decode_field,
                             encode_field, load_library, save_library)


def roundtrip(tmp_path, library):
    path = tmp_path / "trace.txt"
    save_library(library, path)
    return load_library(path), path


class TestRoundTrip:
    def test_empty_library(self, tmp_path):
        loaded, path = roundtrip(tmp_path, TransactionLibrary(()))
        assert len(loaded) == 0
        assert path.read_bytes() == b""

    def test_paper_example(self, tmp_path):
        lib = paper_example_library()
        loaded, _ = roundtrip(tmp_path, lib)
        assert loaded == lib
        assert loaded.indices == (1, 13, 24, 275, 490, 2273, 2487, 3106)

    def test_all_octet_values(self, tmp_path):
        everything = bytes(range(256))
        lib = TransactionLibrary((Transaction(0, everything, everything[::-1]),))
        loaded, _ = roundtrip(tmp_path, lib)
        assert loaded == lib

    def test_record_separators_inside_payload(self, tmp_path):
        tricky = b"line1\nline2\ttabbed\\escaped\r\n"
        lib = TransactionLibrary((Transaction(7, tricky, b"ok" + tricky),))
        loaded, _ = roundtrip(tmp_path, lib)
        assert loaded == lib

    def test_resave_is_byte_identical(self, tmp_path):
        lib = paper_example_library()
        _, path = roundtrip(tmp_path, lib)
        first = path.read_bytes()
        save_library(load_library(path), path)
        assert path.read_bytes() == first

    def test_two_loads_identical(self, tmp_path):
        _, path = roundtrip(tmp_path, paper_example_library())
        assert load_library(path) == load_library(path)

    @given(pairs=st.lists(st.tuples(st.binary(min_size=1, max_size=40),
                                    st.binary(min_size=1, max_size=40)),
                          max_size=8))
    def test_arbitrary_bytes(self, tmp_path_factory, pairs):
        lib = TransactionLibrary(tuple(
            Transaction(i, req, rsp) for i, (req, rsp) in enumerate(pairs)))
        path = tmp_path_factory.mktemp("t") / "trace.txt"
        save_library(lib, path)
        assert load_library(path) == lib


class TestPaperTable:
    def test_loads_exact_bytes(self, tmp_path):
        loaded, _ = roundtrip(tmp_path, paper_example_library())
        by_index = {t.index: t for t in loaded}
        assert by_index[1].request == b"{id:1,op:S,sn:Du}"
        assert by_index[1].response == \
            b"{id:1,op:SearchRsp,result:Ok,gn:Miao,sn:Du,mobile:5362634}"
        assert len(loaded) == len(PAPER_EXAMPLE_ROWS) == 8


class TestValidation:
    def test_empty_response_reports_record_two(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0\taa\tbb\n1\tcc\t\n")
        with pytest.raises(EmptyRequestOrResponseError) as err:
            load_library(path)
        assert err.value.record == 2
        assert isinstance(err.value, TraceFormatError)

    def test_duplicate_index(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("5\taa\tbb\n5\tcc\tdd\n")
        with pytest.raises(DuplicateIndexError) as err:
            load_library(path)
        assert err.value.record == 2

    @pytest.mark.parametrize("line", [
        "notanumber\taa\tbb",
        "1\taa",
        "1\taa\tbb\tcc",
        "-3\taa\tbb",
        "1\ta\\qa\tbb",
        "1\ta\\x9\tbb",
    ])
    def test_malformed_records(self, tmp_path, line):
        path = tmp_path / "bad.txt"
        path.write_text(line + "\n")
        with pytest.raises(TraceFormatError) as err:
            load_library(path)
        assert err.value.record == 1

    def test_blank_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\taa\tbb\n\n")
        with pytest.raises(TraceFormatError):
            load_library(path)

    def test_transaction_validates_index(self):
        with pytest.raises(ValueError):
            Transaction(-1, b"a", b"b")


class TestFieldArmor:
    @given(st.binary(max_size=200))
    def test_encode_decode_identity(self, data):
        encoded = encode_field(data)
        assert "\t" not in encoded and "\n" not in encoded
        assert decode_field(encoded, 1) == data

    @given(st.one_of(st.binary(max_size=60),
                     st.lists(st.sampled_from(b"ab\\ ~\x7f\x1f"), max_size=60).map(bytes)))
    def test_encode_equals_byte_loop(self, data):
        assert encode_field(data) == loop_encode_field(data)

    def test_printables_stay_readable(self):
        assert encode_field(b"{id:1,op:S}") == "{id:1,op:S}"
        assert encode_field(b"\x00\xff") == "\\x00\\xff"
        assert encode_field(b"back\\slash") == "back\\\\slash"
