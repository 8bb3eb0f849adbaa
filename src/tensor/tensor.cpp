#include "tensor/tensor.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/rng.h"
#include "obs/profile.h"
#include "parallel/scheduler.h"

namespace fedl {

Shape::Shape(std::initializer_list<std::size_t> dims) : dims_{1, 1, 1, 1} {
  FEDL_CHECK(dims.size() >= 1 && dims.size() <= 4)
      << "rank must be 1..4, got " << dims.size();
  rank_ = dims.size();
  std::size_t i = 0;
  for (std::size_t d : dims) dims_[i++] = d;
}

std::size_t Shape::numel() const {
  std::size_t n = 1;
  for (std::size_t i = 0; i < rank_; ++i) n *= dims_[i];
  return n;
}

bool Shape::operator==(const Shape& other) const {
  // Shapes compare by logical extent: trailing 1-dims don't matter.
  for (std::size_t i = 0; i < 4; ++i)
    if (dim_or_1(i) != other.dim_or_1(i)) return false;
  return true;
}

std::string Shape::str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < rank_; ++i) {
    if (i) os << 'x';
    os << dims_[i];
  }
  os << ']';
  return os.str();
}

Tensor::Tensor(Shape shape, float fill)
    : shape_(shape), data_(shape.numel(), fill) {}

Tensor Tensor::uninitialized(Shape shape) {
  Tensor t;
  t.shape_ = shape;
  t.data_.resize(shape.numel());
  return t;
}

// Byte-identical to one serial rng.normal(0, stddev) loop: a serial pass
// keeps a copy of the stream at each slice start and skips the slice's
// normals (Rng::skip_normals, which leaves the stream, cached normal
// included, where the slice's draws would), and the fan-out fills each
// slice from its copy.
Tensor Tensor::he_normal(Shape shape, std::size_t fan_in, Rng& rng) {
  FEDL_CHECK_GT(fan_in, 0u);
  FEDL_PROFILE_SCOPE("nn.init");
  Tensor t = uninitialized(shape);
  const double stddev = std::sqrt(2.0 / static_cast<double>(fan_in));
  const std::size_t n = t.numel();
  const std::size_t slices = (n + kHeNormalSlice - 1) / kHeNormalSlice;
  std::vector<Rng> starts;
  starts.reserve(slices);
  for (std::size_t s = 0; s < slices; ++s) {
    starts.push_back(rng);
    rng.skip_normals(std::min(kHeNormalSlice, n - s * kHeNormalSlice));
  }
  float* dst = t.data();
  Scheduler::instance().lease(slices).run(
      0, slices, [&](std::size_t, std::size_t s) {
        Rng draws = starts[s];
        const std::size_t hi = std::min(n, (s + 1) * kHeNormalSlice);
        for (std::size_t i = s * kHeNormalSlice; i < hi; ++i)
          dst[i] = static_cast<float>(draws.normal(0.0, stddev));
      });
  return t;
}

Tensor Tensor::uniform(Shape shape, float lo, float hi, Rng& rng) {
  Tensor t(shape);
  for (auto& v : t.data_) v = static_cast<float>(rng.uniform(lo, hi));
  return t;
}

float& Tensor::at(std::size_t r, std::size_t c) {
  FEDL_CHECK_EQ(shape_.rank(), 2u);
  FEDL_CHECK_LT(r, shape_[0]);
  FEDL_CHECK_LT(c, shape_[1]);
  return data()[r * shape_[1] + c];
}

float Tensor::at(std::size_t r, std::size_t c) const {
  return const_cast<Tensor*>(this)->at(r, c);
}

float& Tensor::at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) {
  FEDL_CHECK_EQ(shape_.rank(), 4u);
  FEDL_CHECK_LT(n, shape_[0]);
  FEDL_CHECK_LT(c, shape_[1]);
  FEDL_CHECK_LT(h, shape_[2]);
  FEDL_CHECK_LT(w, shape_[3]);
  return data()[((n * shape_[1] + c) * shape_[2] + h) * shape_[3] + w];
}

float Tensor::at(std::size_t n, std::size_t c, std::size_t h,
                 std::size_t w) const {
  return const_cast<Tensor*>(this)->at(n, c, h, w);
}

void Tensor::fill(float v) {
  for (auto& x : data_) x = v;
}

void Tensor::reshape(Shape new_shape) {
  FEDL_CHECK_EQ(new_shape.numel(), numel())
      << "reshape " << shape_.str() << " -> " << new_shape.str();
  shape_ = new_shape;
}

double Tensor::squared_norm() const {
  double s = 0.0;
  const float* p = data();
  const std::size_t n = numel();
  for (std::size_t i = 0; i < n; ++i)
    s += static_cast<double>(p[i]) * static_cast<double>(p[i]);
  return s;
}

double Tensor::norm() const { return std::sqrt(squared_norm()); }

}  // namespace fedl
