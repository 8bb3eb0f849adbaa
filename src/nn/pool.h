// Max pooling over NCHW batches.
#pragma once

#include <vector>

#include "nn/layer.h"

namespace fedl::nn {

class MaxPool2d : public Layer {
 public:
  MaxPool2d(std::size_t window, std::size_t stride);

  Tensor forward(Tensor input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  // A fresh layer of the same geometry: the argmax indices are a train
  // cache (clone() contract).
  LayerPtr clone() const override {
    return std::make_unique<MaxPool2d>(window_, stride_);
  }
  std::string name() const override { return "maxpool2d"; }
  std::size_t scratch_bytes() const override {
    return argmax_.capacity() * sizeof(std::size_t);
  }

 private:
  std::size_t window_;
  std::size_t stride_;
  Shape in_shape_;
  Shape out_shape_;
  // Flat input index of the argmax for every output element (train mode).
  std::vector<std::size_t> argmax_;
};

}  // namespace fedl::nn
