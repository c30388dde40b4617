#include "src/nn/tensor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <sstream>

#include "src/common/parallel.h"
#include "src/nn/kernels.h"
#include "src/nn/tensor_pool.h"

namespace autodc::nn {

namespace {
size_t NumElements(const std::vector<size_t>& shape) {
  size_t n = 1;
  for (size_t d : shape) n *= d;
  if (shape.empty()) n = 0;
  return n;
}

std::vector<float> AllocBuffer(size_t n, bool* pooled) {
  if (n > 0 && WorkspaceActive()) {
    *pooled = true;
    return TensorPool::Global().Acquire(n);
  }
  *pooled = false;
  return std::vector<float>(n, 0.0f);
}
}  // namespace

Tensor::Tensor(std::vector<size_t> shape) : shape_(std::move(shape)) {
  data_ = AllocBuffer(NumElements(shape_), &pooled_);
}

Tensor::Tensor(const Tensor& other) : shape_(other.shape_) {
  if (!other.data_.empty() && WorkspaceActive()) {
    pooled_ = true;
    data_ = TensorPool::Global().Acquire(other.data_.size());
    std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  } else {
    data_ = other.data_;
  }
}

Tensor& Tensor::operator=(const Tensor& other) {
  if (this == &other) return *this;
  shape_ = other.shape_;
  // Vector assignment reuses this Tensor's buffer when its capacity
  // suffices, so pooled_ keeps describing the buffer we actually hold.
  data_ = other.data_;
  return *this;
}

Tensor::Tensor(Tensor&& other) noexcept
    : shape_(std::move(other.shape_)),
      data_(std::move(other.data_)),
      pooled_(other.pooled_) {
  other.shape_.clear();
  other.pooled_ = false;
}

Tensor& Tensor::operator=(Tensor&& other) noexcept {
  if (this == &other) return *this;
  ReleaseBuffer();
  shape_ = std::move(other.shape_);
  data_ = std::move(other.data_);
  pooled_ = other.pooled_;
  other.shape_.clear();
  other.pooled_ = false;
  return *this;
}

Tensor::~Tensor() { ReleaseBuffer(); }

void Tensor::ReleaseBuffer() {
  if (pooled_) {
    TensorPool::Global().Release(std::move(data_));
    data_ = std::vector<float>();
    pooled_ = false;
  }
}

Tensor::Tensor(std::vector<size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  assert(data_.size() == NumElements(shape_));
}

Tensor Tensor::Full(std::vector<size_t> shape, float v) {
  Tensor t(std::move(shape));
  t.Fill(v);
  return t;
}

Tensor Tensor::RandomUniform(std::vector<size_t> shape, float scale,
                             Rng* rng) {
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Uniform(-scale, scale));
  }
  return t;
}

Tensor Tensor::RandomNormal(std::vector<size_t> shape, float stddev,
                            Rng* rng) {
  Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) {
    t[i] = static_cast<float>(rng->Normal(0.0, stddev));
  }
  return t;
}

Tensor Tensor::Xavier(size_t fan_out, size_t fan_in, Rng* rng) {
  float scale = std::sqrt(6.0f / static_cast<float>(fan_in + fan_out));
  return RandomUniform({fan_out, fan_in}, scale, rng);
}

Tensor Tensor::FromVector(const std::vector<float>& v) {
  return Tensor({v.size()}, v);
}

void Tensor::Fill(float v) {
  for (float& x : data_) x = v;
}

double Tensor::Sum() const {
  return kernels::SumF32(data_.data(), data_.size());
}

double Tensor::Mean() const {
  if (data_.empty()) return 0.0;
  return Sum() / static_cast<double>(data_.size());
}

double Tensor::Norm() const {
  return std::sqrt(kernels::SumSqF32(data_.data(), data_.size()));
}

size_t Tensor::ArgMax() const {
  size_t best = 0;
  for (size_t i = 1; i < data_.size(); ++i) {
    if (data_[i] > data_[best]) best = i;
  }
  return best;
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ",";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

void Axpy(const Tensor& b, float scale, Tensor* a) {
  assert(a->size() == b.size());
  kernels::AxpyF32(scale, b.data(), a->data(), b.size());
}

Tensor GatherRows(const Tensor& src, const std::vector<size_t>& rows) {
  size_t d = src.cols();
  Tensor out({rows.size(), d});
  float* od = out.data();
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i] < src.rows());
    const float* srow = src.data() + rows[i] * d;
    std::copy(srow, srow + d, od + i * d);
  }
  return out;
}

void AxpyRows(const Tensor& src, const std::vector<size_t>& rows, float scale,
              Tensor* dst) {
  size_t d = dst->cols();
  assert(src.cols() == d && src.rows() == rows.size());
  float* dd = dst->data();
  for (size_t i = 0; i < rows.size(); ++i) {
    assert(rows[i] < dst->rows());
    kernels::AxpyF32(scale, src.data() + i * d, dd + rows[i] * d, d);
  }
}

namespace {

// Row-block grain for ParallelFor: small matrices stay serial, large
// ones split into at most NumThreads() blocks. The per-panel compute
// lives in kernels::Gemm*PanelF32 (scalar path identical to the old
// cache-blocked loops here; AVX2 path register-blocked on the 8x8
// micro-kernel). Per output element the accumulation order over the
// inner dimension is fixed on both paths, so results do not depend on
// the thread count.
constexpr size_t kRowGrain = 8;

}  // namespace

Tensor MatMul(const Tensor& a, const Tensor& b) {
  size_t n = a.rows(), m = a.cols(), k = b.cols();
  assert(b.rows() == m);
  Tensor c({n, k});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  ParallelFor(0, n, kRowGrain, [&](size_t r0, size_t r1) {
    kernels::GemmPanelF32(ad, bd, cd, r0, r1, m, k);
  });
  return c;
}

Tensor MatMulTransA(const Tensor& a, const Tensor& b) {
  size_t m = a.rows(), n = a.cols(), k = b.cols();
  assert(b.rows() == m);
  Tensor c({n, k});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  // Output rows of C correspond to columns of A, so parallelizing over
  // them keeps the accumulation over A's rows private to one thread.
  ParallelFor(0, n, kRowGrain, [&](size_t c0, size_t c1) {
    kernels::GemmTransAPanelF32(ad, bd, cd, c0, c1, m, n, k);
  });
  return c;
}

Tensor MatMulTransB(const Tensor& a, const Tensor& b) {
  size_t n = a.rows(), m = a.cols(), k = b.rows();
  assert(b.cols() == m);
  Tensor c({n, k});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  ParallelFor(0, n, kRowGrain, [&](size_t r0, size_t r1) {
    kernels::GemmTransBPanelF32(ad, bd, cd, r0, r1, m, k);
  });
  return c;
}

}  // namespace autodc::nn
