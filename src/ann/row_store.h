#ifndef AUTODC_ANN_ROW_STORE_H_
#define AUTODC_ANN_ROW_STORE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/nn/kernels.h"

// The one owner of embedding rows (DESIGN.md §11): dense vectors held at
// a single precision — fp32, int8 (asymmetric or symmetric) or bf16 —
// with the per-row data every scorer needs cached at write time (int8
// scale/zero-point and element sums, squared norm, inverse norm).
// EmbeddingStore keeps its rows here, and an HnswIndex is a graph over a
// borrowed RowStore, so an indexed store holds each vector exactly once.
// This is also the only place that quantizes rows, prepares queries, and
// dispatches the per-precision dot kernels.
namespace autodc::ann {

/// Borrowed view of one vector in a RowStore's precision: a stored row
/// or a prepared query. Only the pointer matching the precision is set.
struct RowView {
  const float* f32 = nullptr;
  const std::int8_t* q8 = nullptr;
  nn::kernels::Int8Params q8_params;
  std::int32_t q8_sum = 0;
  const std::uint16_t* bf16 = nullptr;
  double inv_norm = 0.0;  // 1/|v| (0 for zero-norm vectors)
};

/// An fp32 query converted once to a RowStore's precision, so every
/// row it is scored against skips the conversion. Owns the converted
/// buffer (the fp32 form borrows the caller's query); move-only so the
/// view keeps pointing into it.
class PreparedQuery {
 public:
  PreparedQuery() = default;
  PreparedQuery(PreparedQuery&&) = default;
  PreparedQuery& operator=(PreparedQuery&&) = default;
  PreparedQuery(const PreparedQuery&) = delete;
  PreparedQuery& operator=(const PreparedQuery&) = delete;

  const RowView& view() const { return view_; }

 private:
  friend class RowStore;
  RowView view_;
  std::vector<std::int8_t> q8_;
  std::vector<std::uint16_t> bf16_;
};

class RowStore {
 public:
  RowStore() = default;
  RowStore(size_t dim, nn::kernels::Quant quant) : dim_(dim), quant_(quant) {}

  size_t size() const { return norms_sq_.size(); }
  size_t dim() const { return dim_; }
  nn::kernels::Quant quant() const { return quant_; }

  /// Appends `v` (dim() floats) and returns its row id. fp32 rows take
  /// the vector as is; other precisions quantize it (fresh int8 params
  /// per row). Norms are those of the stored representation, so every
  /// scorer sees the geometry the rows actually encode.
  size_t Append(std::vector<float> v);
  /// Overwrites row `id` in place, with the same quantization as Append.
  /// fp32 rows keep their vector object, so pointers to it stay valid.
  void Set(size_t id, std::vector<float> v);

  /// Row `id` as dim() floats: a copy in fp32, dequantized otherwise.
  void ToF32(size_t id, float* out) const;
  /// Row `id` as fp32 without a copy where possible: the stored row in
  /// fp32 mode, else dequantized into `scratch`.
  const float* F32(size_t id, std::vector<float>* scratch) const;
  /// The stored fp32 row (fp32 precision only).
  const std::vector<float>& F32Row(size_t id) const { return f32_[id]; }

  double norm_sq(size_t id) const { return norms_sq_[id]; }

  /// View of stored row `id` (cached params, no conversion).
  RowView Row(size_t id) const;
  /// Converts `query` (dim() floats) to the storage precision once. The
  /// inverse norm is the fp32 query's own.
  PreparedQuery Prepare(const float* query) const;
  /// Dot product of `q` with row `id` in the storage precision: float
  /// dot, exact integer dot plus the zero-point correction, or bf16 dot.
  /// Inline: it is the innermost call of every scan and graph hop.
  double Dot(const RowView& q, size_t id) const {
    switch (quant_) {
      case nn::kernels::Quant::kInt8:
      case nn::kernels::Quant::kInt8Sym:
        return nn::kernels::DequantDotD(
            nn::kernels::DotI8I32(q.q8, q8_.data() + id * dim_, dim_),
            q.q8_params, q.q8_sum, q8_params_[id], q8_sums_[id], dim_);
      case nn::kernels::Quant::kBf16:
        return nn::kernels::DotBf16D(q.bf16, bf16_.data() + id * dim_, dim_);
      case nn::kernels::Quant::kFp32:
      default:
        return nn::kernels::DotF32D(q.f32, f32_[id].data(), dim_);
    }
  }
  /// Cosine through the cached inverse norms (the graph's distance).
  double Cosine(const RowView& q, size_t id) const {
    return Dot(q, id) * q.inv_norm * inv_norms_[id];
  }
  /// Cosine of two stored rows through each precision's fused cosine
  /// kernel (CosineF32 / CosineI8 / CosineBf16).
  double CosineBetween(size_t a, size_t b) const;

  /// Heap bytes of rows, int8 params/sums and cached norms.
  size_t resident_bytes() const;

 private:
  /// Writes `v` into row `id`, appending when id == size(), and
  /// refreshes its norms.
  void Write(size_t id, std::vector<float>&& v);

  size_t dim_ = 0;
  nn::kernels::Quant quant_ = nn::kernels::Quant::kFp32;
  // Exactly one row backing is populated, per quant_. fp32 rows are
  // separate vectors because EmbeddingStore::Find hands out pointers to
  // them.
  std::vector<std::vector<float>> f32_;
  std::vector<std::int8_t> q8_;                     // size() * dim_
  std::vector<nn::kernels::Int8Params> q8_params_;  // per row
  std::vector<std::int32_t> q8_sums_;               // per-row element sums
  std::vector<std::uint16_t> bf16_;                 // size() * dim_
  std::vector<double> norms_sq_;
  std::vector<double> inv_norms_;
};

}  // namespace autodc::ann

#endif  // AUTODC_ANN_ROW_STORE_H_
