// Dense row-major float tensor, rank 1–4, NCHW convention for images.
//
// This is the numeric substrate for the NN library. It is deliberately a
// value type with owned contiguous storage (a float std::vector): model
// parameters and activations are copied/moved explicitly, matching the FL
// setting where the global model is literally copied to each client every
// iteration.
#pragma once

#include <array>
#include <cstddef>
#include <initializer_list>
#include <memory>
#include <new>  // fedl-lint: allow(naked-new) placement new allocates nothing
#include <span>
#include <type_traits>
#include <vector>

#include "common/error.h"

namespace fedl {

class Rng;

// std::allocator whose value-less construct() default-initialises, so a
// float vector sized without a value is left unwritten. Construction from
// a value (copies, sized fills) falls back to std::construct_at through
// std::allocator_traits, as for std::allocator.
template <typename T>
struct DefaultInitAllocator : std::allocator<T> {
  template <typename U>
  struct rebind {
    using other = DefaultInitAllocator<U>;
  };
  DefaultInitAllocator() = default;
  template <typename U>
  DefaultInitAllocator(const DefaultInitAllocator<U>&) noexcept {}

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    ::new (static_cast<void*>(p)) U;
  }
};

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
  // Storage of `shape` that nothing has written: the caller must write
  // every element before any is read. Lets a fan-out's chunks first-touch
  // the pages they fill instead of the calling thread zero-filling them.
  static Tensor uninitialized(Shape shape);
  // He/Kaiming-style normal init with stddev sqrt(2/fan_in): element i is
  // the i-th rng.normal(0, stddev) draw, and rng ends where that serial loop
  // leaves it. Slices of kHeNormalSlice elements fill in parallel, each
  // from a copy of the stream where its draws start.
  static constexpr std::size_t kHeNormalSlice = 4096;
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
  std::vector<float, DefaultInitAllocator<float>> data_;
};

}  // namespace fedl
