#include "src/ann/row_store.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace autodc::ann {

namespace k = nn::kernels;

size_t RowStore::Append(std::vector<float> v) {
  size_t id = size();
  Write(id, std::move(v));
  return id;
}

void RowStore::Set(size_t id, std::vector<float> v) { Write(id, std::move(v)); }

void RowStore::Write(size_t id, std::vector<float>&& v) {
  const bool append = id == size();
  if (append) {
    norms_sq_.push_back(0.0);
    inv_norms_.push_back(0.0);
  }
  // After quantizing, `v` is reused as the dequantized row: norms come
  // from the stored representation.
  const float* stored = v.data();
  switch (quant_) {
    case k::Quant::kFp32:
      if (append) {
        f32_.push_back(std::move(v));
      } else {
        f32_[id] = std::move(v);
      }
      stored = f32_[id].data();
      break;
    case k::Quant::kInt8:
    case k::Quant::kInt8Sym: {
      if (append) {
        q8_.resize(q8_.size() + dim_);
        q8_params_.emplace_back();
        q8_sums_.push_back(0);
      }
      k::Int8Params params = k::ComputeInt8Params(
          v.data(), dim_, quant_ == k::Quant::kInt8Sym);
      std::int8_t* row = q8_.data() + id * dim_;
      k::QuantizeI8F32(v.data(), dim_, params, row);
      q8_params_[id] = params;
      q8_sums_[id] = k::SumI8I32(row, dim_);
      k::DequantizeI8F32(row, dim_, params, v.data());
      break;
    }
    case k::Quant::kBf16: {
      if (append) bf16_.resize(bf16_.size() + dim_);
      std::uint16_t* row = bf16_.data() + id * dim_;
      k::F32ToBf16(v.data(), dim_, row);
      k::Bf16ToF32(row, dim_, v.data());
      break;
    }
  }
  double norm_sq = k::SumSqF32(stored, dim_);
  norms_sq_[id] = norm_sq;
  inv_norms_[id] = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
}

void RowStore::ToF32(size_t id, float* out) const {
  switch (quant_) {
    case k::Quant::kFp32:
      std::copy(f32_[id].begin(), f32_[id].end(), out);
      break;
    case k::Quant::kInt8:
    case k::Quant::kInt8Sym:
      k::DequantizeI8F32(q8_.data() + id * dim_, dim_, q8_params_[id], out);
      break;
    case k::Quant::kBf16:
      k::Bf16ToF32(bf16_.data() + id * dim_, dim_, out);
      break;
  }
}

const float* RowStore::F32(size_t id, std::vector<float>* scratch) const {
  if (quant_ == k::Quant::kFp32) return f32_[id].data();
  scratch->resize(dim_);
  ToF32(id, scratch->data());
  return scratch->data();
}

RowView RowStore::Row(size_t id) const {
  RowView r;
  r.inv_norm = inv_norms_[id];
  switch (quant_) {
    case k::Quant::kFp32:
      r.f32 = f32_[id].data();
      break;
    case k::Quant::kInt8:
    case k::Quant::kInt8Sym:
      r.q8 = q8_.data() + id * dim_;
      r.q8_params = q8_params_[id];
      r.q8_sum = q8_sums_[id];
      break;
    case k::Quant::kBf16:
      r.bf16 = bf16_.data() + id * dim_;
      break;
  }
  return r;
}

PreparedQuery RowStore::Prepare(const float* query) const {
  PreparedQuery q;
  double norm_sq = k::SumSqF32(query, dim_);
  q.view_.inv_norm = norm_sq > 0.0 ? 1.0 / std::sqrt(norm_sq) : 0.0;
  switch (quant_) {
    case k::Quant::kFp32:
      q.view_.f32 = query;
      break;
    case k::Quant::kInt8:
    case k::Quant::kInt8Sym:
      q.q8_.resize(dim_);
      q.view_.q8_params = k::ComputeInt8Params(
          query, dim_, quant_ == k::Quant::kInt8Sym);
      k::QuantizeI8F32(query, dim_, q.view_.q8_params, q.q8_.data());
      q.view_.q8 = q.q8_.data();
      q.view_.q8_sum = k::SumI8I32(q.q8_.data(), dim_);
      break;
    case k::Quant::kBf16:
      q.bf16_.resize(dim_);
      k::F32ToBf16(query, dim_, q.bf16_.data());
      q.view_.bf16 = q.bf16_.data();
      break;
  }
  return q;
}

double RowStore::CosineBetween(size_t a, size_t b) const {
  switch (quant_) {
    case k::Quant::kInt8:
    case k::Quant::kInt8Sym:
      return k::CosineI8(q8_.data() + a * dim_, q8_params_[a],
                         q8_.data() + b * dim_, q8_params_[b], dim_);
    case k::Quant::kBf16:
      return k::CosineBf16(bf16_.data() + a * dim_, bf16_.data() + b * dim_,
                           dim_);
    case k::Quant::kFp32:
    default:
      if (dim_ == 0) return 0.0;
      return k::CosineF32(f32_[a].data(), f32_[b].data(), dim_);
  }
}

size_t RowStore::resident_bytes() const {
  size_t bytes = (norms_sq_.capacity() + inv_norms_.capacity()) *
                     sizeof(double) +
                 f32_.capacity() * sizeof(std::vector<float>) +
                 q8_.capacity() * sizeof(std::int8_t) +
                 q8_params_.capacity() * sizeof(k::Int8Params) +
                 q8_sums_.capacity() * sizeof(std::int32_t) +
                 bf16_.capacity() * sizeof(std::uint16_t);
  for (const std::vector<float>& row : f32_) {
    bytes += row.capacity() * sizeof(float);
  }
  return bytes;
}

}  // namespace autodc::ann
