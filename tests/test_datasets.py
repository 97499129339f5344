import numpy as np
import pytest

from iwal import datasets
from iwal.datasets import load_dataset
from iwal.errors import DatasetFormatError

from conftest import save_csv


class TestCsv:
    def test_basic_row(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("+1,0.5,-0.2\n")
        X, y = load_dataset(path)
        assert y.tolist() == [1.0]
        assert X.tolist() == [[0.5, -0.2]]

    def test_label_sign_mapping(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1,0.0\n-1,0.0\n0,0.0\n2,0.0\n")
        _, y = load_dataset(path)
        assert y.tolist() == [1.0, -1.0, -1.0, 1.0]

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(DatasetFormatError, match="empty"):
            load_dataset(path)

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("+1,0.5\n+1,oops\n")
        with pytest.raises(DatasetFormatError, match="line 2") as info:
            load_dataset(path)
        assert info.value.line_number == 2

    def test_mixed_dimensions_rejected(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("+1,0.5,0.2\n-1,0.1\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "NaN", "1e999"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        path = tmp_path / "data.csv"
        path.write_text(f"+1,0.5,0.2\n# note\n-1,0.5,{value}\n")
        with pytest.raises(DatasetFormatError, match="line 3: non-finite") as info:
            load_dataset(path)
        assert info.value.line_number == 3

    @pytest.mark.parametrize("value", ["nan", "NaN", "-nan"])
    def test_nan_label_reports_line(self, tmp_path, value):
        path = tmp_path / "data.csv"
        path.write_text(f"+1,0.5,0.2\n# note\n{value},0.5,0.1\n")
        with pytest.raises(DatasetFormatError, match="line 3: NaN label") as info:
            load_dataset(path)
        assert info.value.line_number == 3

    def test_round_trip(self, tmp_path, rng):
        X = rng.normal(size=(25, 4))
        y = rng.choice([-1.0, 1.0], size=25)
        path = tmp_path / "data.csv"
        save_csv(path, X, y)
        X2, y2 = load_dataset(path)
        assert np.array_equal(X, X2)
        assert np.array_equal(y, y2)

    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("# header\n\n+1,1.0\n")
        X, y = load_dataset(path)
        assert len(X) == 1


class TestSvmlight:
    def test_sparse_row(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 1:0.5 3:-0.2\n-1 2:1.0\n")
        X, y = load_dataset(path, fmt="svmlight")
        assert X.shape == (2, 3)
        assert X[0].tolist() == [0.5, 0.0, -0.2]
        assert X[1].tolist() == [0.0, 1.0, 0.0]
        assert y.tolist() == [1.0, -1.0]

    def test_bad_token_reports_line(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 1:0.5\n-1 nonsense\n")
        with pytest.raises(DatasetFormatError, match="line 2"):
            load_dataset(path, fmt="svmlight")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_feature_reports_line(self, tmp_path, value):
        path = tmp_path / "data.svm"
        path.write_text(f"+1 1:0.5\n-1 2:{value}\n")
        with pytest.raises(DatasetFormatError, match="line 2: non-finite") as info:
            load_dataset(path, fmt="svmlight")
        assert info.value.line_number == 2

    @pytest.mark.parametrize("value", ["nan", "NaN", "-nan"])
    def test_nan_label_reports_line(self, tmp_path, value):
        path = tmp_path / "data.svm"
        path.write_text(f"+1 1:0.5\n{value} 2:0.5\n")
        with pytest.raises(DatasetFormatError, match="line 2: NaN label") as info:
            load_dataset(path, fmt="svmlight")
        assert info.value.line_number == 2

    def test_repeated_index_reports_line(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 2:0.5\n1 1:2 1:3\n")
        with pytest.raises(DatasetFormatError,
                           match="line 2: feature index 1 repeated") as info:
            load_dataset(path, fmt="svmlight")
        assert info.value.line_number == 2

    def test_unsorted_indices_accepted(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 3:-0.2 1:0.5\n")
        X, _ = load_dataset(path, fmt="svmlight")
        assert X.tolist() == [[0.5, 0.0, -0.2]]

    def test_zero_index_rejected(self, tmp_path):
        path = tmp_path / "data.svm"
        path.write_text("+1 0:0.5\n")
        with pytest.raises(DatasetFormatError, match="1-based"):
            load_dataset(path, fmt="svmlight")

    def test_huge_index_rejected_before_allocating(self, tmp_path, monkeypatch):
        # a dense 2 x 10**12 matrix would take 16 TB
        path = tmp_path / "data.svm"
        path.write_text("+1 1:0.5\n-1 2:1.0 1000000000000:1\n+1 3:0.5\n")
        monkeypatch.setattr(np, "zeros", lambda *args, **kw: pytest.fail("allocated"))
        with pytest.raises(DatasetFormatError, match="line 2: feature index") as info:
            load_dataset(path, fmt="svmlight")
        assert info.value.line_number == 2

    def test_cell_budget_counts_rows_too(self, tmp_path, monkeypatch):
        # the widest index sits on line 2; a fourth row of width 3 tips the
        # dense size from 9 to 12 cells, over a budget of 10
        monkeypatch.setattr(datasets, "_MAX_DENSE_CELLS", 10)
        path = tmp_path / "data.svm"
        rows = ["+1 1:0.5", "-1 3:1.0", "+1 2:0.5", "-1 1:0.25"]
        path.write_text("\n".join(rows[:3]) + "\n")
        assert load_dataset(path, fmt="svmlight")[0].shape == (3, 3)
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DatasetFormatError, match="line 2: .* 4 x 3") as info:
            load_dataset(path, fmt="svmlight")
        assert info.value.line_number == 2


def test_svmlight_without_features_rejected(tmp_path):
    # its zero-width X once reached the learners, and a finite class ran on it
    path = tmp_path / "d.svm"
    path.write_text("+1\n-1\n")
    with pytest.raises(DatasetFormatError, match="^no line has a feature$"):
        load_dataset(path, fmt="svmlight")


def test_unknown_format_rejected(tmp_path):
    with pytest.raises(DatasetFormatError):
        load_dataset(tmp_path / "x", fmt="parquet")
