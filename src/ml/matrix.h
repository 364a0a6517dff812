#ifndef TRAJKIT_ML_MATRIX_H_
#define TRAJKIT_ML_MATRIX_H_

#include <cstddef>
#include <span>
#include <vector>

#include "common/check.h"

namespace trajkit::ml {

/// Dense row-major matrix of doubles. Rows are samples, columns features.
/// Deliberately minimal: storage + views + the few linear-algebra helpers
/// the classifiers need.
class Matrix {
 public:
  /// Empty 0×0 matrix.
  Matrix() = default;

  /// rows×cols matrix, zero-initialized.
  Matrix(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

  /// Builds from nested vectors; all inner vectors must share one size.
  static Matrix FromRows(const std::vector<std::vector<double>>& rows);

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& At(size_t r, size_t c) {
    TRAJKIT_CHECK_LT(r, rows_);
    TRAJKIT_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }
  double At(size_t r, size_t c) const {
    TRAJKIT_CHECK_LT(r, rows_);
    TRAJKIT_CHECK_LT(c, cols_);
    return data_[r * cols_ + c];
  }

  /// Unchecked access for hot loops.
  double& operator()(size_t r, size_t c) { return data_[r * cols_ + c]; }
  double operator()(size_t r, size_t c) const { return data_[r * cols_ + c]; }

  /// Contiguous view of row r.
  std::span<const double> Row(size_t r) const {
    TRAJKIT_CHECK_LT(r, rows_);
    return std::span<const double>(data_.data() + r * cols_, cols_);
  }
  std::span<double> MutableRow(size_t r) {
    TRAJKIT_CHECK_LT(r, rows_);
    return std::span<double>(data_.data() + r * cols_, cols_);
  }

  /// Copy of column c (columns are strided in row-major storage).
  std::vector<double> Column(size_t c) const;

  /// New matrix containing the given rows, in order.
  Matrix SelectRows(std::span<const size_t> row_indices) const;

  /// New matrix containing the given columns, in order.
  Matrix SelectColumns(std::span<const int> column_indices) const;

  /// Reshapes to rows×cols, keeping the storage's capacity: an allocation
  /// cache for callers that refill one matrix per batch. Element values
  /// are unspecified afterwards; callers overwrite them.
  void Resize(size_t rows, size_t cols) {
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& mutable_data() { return data_; }

 private:
  size_t rows_ = 0;
  size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace trajkit::ml

#endif  // TRAJKIT_ML_MATRIX_H_
