// Dense row-major float tensor, rank 1–4, NCHW convention for images.
//
// This is the numeric substrate for the NN library. It is deliberately a
// value type with owned contiguous storage (std::vector<float>): model
// parameters and activations are copied/moved explicitly, matching the FL
// setting where the global model is literally copied to each client every
// iteration.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

#include "common/error.h"

namespace fedl {

class Rng;

// Shape of up to 4 dimensions; unused trailing dims are 1.
class Shape {
 public:
  Shape() : dims_{0, 1, 1, 1}, rank_(1) {}
  Shape(std::initializer_list<std::size_t> dims);

  std::size_t rank() const { return rank_; }
  std::size_t operator[](std::size_t i) const {
    FEDL_CHECK_LT(i, rank_);
    return dims_[i];
  }
  // Dim with rank check relaxed: dims beyond rank read as 1.
  std::size_t dim_or_1(std::size_t i) const { return i < rank_ ? dims_[i] : 1; }
  std::size_t numel() const;
  bool operator==(const Shape& other) const;
  bool operator!=(const Shape& other) const { return !(*this == other); }

  std::string str() const;

 private:
  std::array<std::size_t, 4> dims_;
  std::size_t rank_;
};

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(Shape shape, float fill = 0.0f);

  static Tensor zeros(Shape shape) { return Tensor(shape, 0.0f); }
  static Tensor full(Shape shape, float v) { return Tensor(shape, v); }
  // He/Kaiming-style normal init with stddev sqrt(2/fan_in).
  static Tensor he_normal(Shape shape, std::size_t fan_in, Rng& rng);
  static Tensor uniform(Shape shape, float lo, float hi, Rng& rng);

  const Shape& shape() const { return shape_; }
  std::size_t numel() const { return data_.size(); }
  bool empty() const { return numel() == 0; }

  // Bytes of backing storage (capacity — what this tensor pins in memory).
  std::size_t owned_bytes() const {
    return data_.capacity() * sizeof(float);
  }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> span() { return {data(), numel()}; }
  std::span<const float> span() const { return {data(), numel()}; }

  float& operator[](std::size_t i) {
    FEDL_CHECK_LT(i, numel());
    return data()[i];
  }
  float operator[](std::size_t i) const {
    FEDL_CHECK_LT(i, numel());
    return data()[i];
  }

  // 2-D access (rank must be 2): row-major.
  float& at(std::size_t r, std::size_t c);
  float at(std::size_t r, std::size_t c) const;
  // 4-D NCHW access.
  float& at(std::size_t n, std::size_t c, std::size_t h, std::size_t w);
  float at(std::size_t n, std::size_t c, std::size_t h, std::size_t w) const;

  void fill(float v);
  // Reinterpret the buffer with a new shape of identical numel.
  void reshape(Shape new_shape);

  // Frobenius norm and squared norm.
  double norm() const;
  double squared_norm() const;

 private:
  Shape shape_;
  std::vector<float> data_;
};

}  // namespace fedl
