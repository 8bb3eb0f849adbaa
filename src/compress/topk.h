// Top-k sparsification of model updates.
//
// Keeps the k largest-magnitude coordinates and drops the rest; the wire
// payload is k (index, value) pairs. Unlike stochastic quantization this is
// biased, so practical systems pair it with error feedback: the dropped
// residual is carried into the next round's update (Stich et al.'s
// error-compensated SGD), which we expose through ErrorFeedback.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/ops.h"

namespace fedl::compress {

struct SparseVec {
  std::size_t dim = 0;
  std::vector<std::uint32_t> indices;
  std::vector<float> values;

  std::size_t nnz() const { return indices.size(); }
};

// Keeps the k largest-|x| coordinates (all of them when k >= dim).
SparseVec top_k(const ParamVec& x, std::size_t k);

// Densifies a sparse vector back to `dim` floats.
ParamVec densify(const SparseVec& s);

// Per-client error feedback: accumulate what compression dropped and add it
// back before the next compression.
class ErrorFeedback {
 public:
  // Adds the carried residual to x, compresses, and stores the new residual.
  SparseVec compress(const ParamVec& x, std::size_t k);

  const ParamVec& residual() const { return residual_; }
  void reset() { residual_.clear(); }

 private:
  ParamVec residual_;
};

}  // namespace fedl::compress
