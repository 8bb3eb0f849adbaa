// Reusable float scratch buffers for the compute pipeline.
//
// The convolution pipeline needs several scratch surfaces per layer
// invocation (a sample block's im2col columns, which its column gradients
// later overwrite, channel-major GEMM outputs and weight-gradient
// partials). These once lived in `thread_local std::vector`s, which pinned
// one high-water-mark allocation per pool thread for the life of the
// process and made ownership invisible. Instead, each model owns one
// block-scratch set per fan-out chunk and lends it to all of its conv
// layers (nn::BlockScratch): a model's layers run one at a time, so each
// buffer serves every layer and ends at the largest layer's size. Capacity
// is retained across iterations (the hot-loop case), grows to exactly what
// a call asks for, and clones start empty (Workspace intentionally does not
// copy its storage — a cloned model re-grows its own scratch on first use).
#pragma once

#include <cstddef>
#include <vector>

namespace fedl {

class Workspace {
 public:
  Workspace() = default;

  // Copying a Workspace copies no storage: scratch contents are never part
  // of logical state, and model clones (one per concurrently-training FL
  // client) must not drag high-water-mark buffers along.
  Workspace(const Workspace&) {}
  Workspace& operator=(const Workspace&) { return *this; }
  Workspace(Workspace&&) = default;
  Workspace& operator=(Workspace&&) = default;

  // Pointer to at least `n` floats. Grows (never shrinks) the backing
  // storage to exactly `n` floats, not geometrically: a buffer that serves
  // layers of different sizes ends at the largest. Newly grown memory is
  // value-initialized to 0, previously used memory keeps its old contents —
  // callers must treat the buffer as uninitialized scratch.
  float* ensure(std::size_t n) {
    if (buf_.size() < n) {
      buf_.reserve(n);
      buf_.resize(n);
    }
    return buf_.data();
  }

  float* data() { return buf_.data(); }
  const float* data() const { return buf_.data(); }
  // Floats allocated.
  std::size_t capacity() const { return buf_.capacity(); }

 private:
  std::vector<float> buf_;
};

}  // namespace fedl
