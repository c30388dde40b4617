#ifndef AUTODC_NN_TENSOR_H_
#define AUTODC_NN_TENSOR_H_

#include <cstddef>
#include <string>
#include <vector>

#include "src/common/rng.h"

namespace autodc::nn {

/// Non-owning view of a contiguous float span (one tensor/matrix row).
/// Replaces per-row copies in nearest-neighbour search and SGNS inner
/// loops; valid only while the owning storage is alive and unresized.
struct RowView {
  const float* data = nullptr;
  size_t size = 0;

  float operator[](size_t i) const { return data[i]; }
  const float* begin() const { return data; }
  const float* end() const { return data + size; }
  bool empty() const { return size == 0; }
};

/// Dense float32 tensor of rank 1 or 2. This is the numeric workhorse of
/// the from-scratch deep-learning substrate: small, contiguous, row-major.
/// Rank-2 shape is {rows, cols}; rank-1 is {n}.
class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<size_t> shape);
  Tensor(std::vector<size_t> shape, std::vector<float> data);

  // Rule of five: a Tensor allocated while a WorkspaceScope is live on
  // the current thread (see tensor_pool.h) draws its buffer from
  // TensorPool::Global() and returns it on destruction. pooled_ only
  // changes where the buffer goes when the Tensor dies; ownership is
  // ordinary value semantics either way.
  Tensor(const Tensor& other);
  Tensor& operator=(const Tensor& other);
  Tensor(Tensor&& other) noexcept;
  Tensor& operator=(Tensor&& other) noexcept;
  ~Tensor();

  static Tensor Zeros(std::vector<size_t> shape) { return Tensor(std::move(shape)); }
  static Tensor Full(std::vector<size_t> shape, float v);
  static Tensor Ones(std::vector<size_t> shape) { return Full(std::move(shape), 1.0f); }
  /// i.i.d. Uniform(-scale, scale).
  static Tensor RandomUniform(std::vector<size_t> shape, float scale, Rng* rng);
  /// i.i.d. Normal(0, stddev).
  static Tensor RandomNormal(std::vector<size_t> shape, float stddev, Rng* rng);
  /// Xavier/Glorot uniform for a {fan_out, fan_in} weight matrix.
  static Tensor Xavier(size_t fan_out, size_t fan_in, Rng* rng);
  /// Rank-1 tensor from values.
  static Tensor FromVector(const std::vector<float>& v);

  const std::vector<size_t>& shape() const { return shape_; }
  size_t rank() const { return shape_.size(); }
  size_t size() const { return data_.size(); }
  size_t rows() const { return shape_.empty() ? 0 : shape_[0]; }
  size_t cols() const { return shape_.size() < 2 ? 1 : shape_[1]; }

  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }
  float& at(size_t r, size_t c) { return data_[r * cols() + c]; }
  float at(size_t r, size_t c) const { return data_[r * cols() + c]; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  const std::vector<float>& vec() const { return data_; }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  /// Sets every element to v.
  void Fill(float v);
  /// Sum of elements.
  double Sum() const;
  /// Mean of elements (0 for empty).
  double Mean() const;
  /// L2 norm.
  double Norm() const;
  /// Index of the maximum element (row-major; 0 for empty).
  size_t ArgMax() const;
  /// Non-owning view of row r; valid while this Tensor is alive.
  RowView Row(size_t r) const { return {data_.data() + r * cols(), cols()}; }

  std::string ShapeString() const;

 private:
  void ReleaseBuffer();

  std::vector<size_t> shape_;
  std::vector<float> data_;
  bool pooled_ = false;
};

/// In-place a += b * scale (shapes must match).
void Axpy(const Tensor& b, float scale, Tensor* a);

/// {rows.size(), src.cols()} tensor whose i-th row copies src row
/// rows[i] (indices may repeat).
Tensor GatherRows(const Tensor& src, const std::vector<size_t>& rows);

/// Scatter-add: dst row rows[i] += src row i * scale. The batched-rows
/// counterpart of Axpy used by embedding lookups and row-slice backward
/// passes.
void AxpyRows(const Tensor& src, const std::vector<size_t>& rows, float scale,
              Tensor* dst);

/// C = A * B for rank-2 A {n,m} and B {m,k}. Aborts on shape mismatch in
/// debug; callers validate shapes at graph-construction time.
/// The matmul family is cache-blocked and runs on the autodc::ThreadPool
/// (row blocks in parallel); per-element accumulation order is fixed, so
/// results do not depend on the thread count.
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A^T * B for A {m,n}, B {m,k} -> {n,k}.
Tensor MatMulTransA(const Tensor& a, const Tensor& b);

/// C = A * B^T for A {n,m}, B {k,m} -> {n,k}.
Tensor MatMulTransB(const Tensor& a, const Tensor& b);

}  // namespace autodc::nn

#endif  // AUTODC_NN_TENSOR_H_
