#include "compress/compressor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace fedl::compress {
namespace {

// Every compressed upload opens with one 64-bit header word.
constexpr double kHeaderBits = 64.0;

}  // namespace

QuantizeCompressor::QuantizeCompressor(std::uint8_t bits,
                                       std::size_t num_clients,
                                       std::uint64_t seed)
    : bits_(bits) {
  FEDL_CHECK_GT(num_clients, 0u);
  Rng parent(seed);
  rngs_.reserve(num_clients);
  for (std::size_t i = 0; i < num_clients; ++i) rngs_.push_back(parent.split());
}

ParamVec QuantizeCompressor::apply(const ParamVec& d, std::size_t client) {
  FEDL_CHECK_LT(client, rngs_.size());
  return dequantize(quantize(d, bits_, rngs_[client]));
}

double QuantizeCompressor::payload_bits(std::size_t dim) const {
  return kHeaderBits + static_cast<double>(dim) * bits_;
}

std::string QuantizeCompressor::name() const {
  return "quant" + std::to_string(static_cast<int>(bits_));
}

TopKCompressor::TopKCompressor(double fraction, std::size_t num_clients)
    : fraction_(fraction), feedback_(num_clients) {
  FEDL_CHECK(fraction > 0.0 && fraction <= 1.0) << "fraction=" << fraction;
}

std::size_t TopKCompressor::kept(std::size_t dim) const {
  const auto k = static_cast<std::size_t>(
      std::ceil(fraction_ * static_cast<double>(dim)));
  return std::min(dim, std::max<std::size_t>(1, k));
}

ParamVec TopKCompressor::apply(const ParamVec& d, std::size_t client) {
  FEDL_CHECK_LT(client, feedback_.size());
  return densify(feedback_[client].compress(d, kept(d.size())));
}

double TopKCompressor::payload_bits(std::size_t dim) const {
  return kHeaderBits + 64.0 * static_cast<double>(kept(dim));
}

std::string TopKCompressor::name() const {
  return "topk" + std::to_string(static_cast<int>(fraction_ * 100.0));
}

CompressorPtr make_compressor(const std::string& name,
                              std::size_t num_clients, std::uint64_t seed,
                              double upload_bits) {
  if (name == "none") return std::make_unique<NoneCompressor>(upload_bits);
  if (name == "quant8")
    return std::make_unique<QuantizeCompressor>(8, num_clients, seed);
  if (name == "quant4")
    return std::make_unique<QuantizeCompressor>(4, num_clients, seed);
  if (name == "topk10")
    return std::make_unique<TopKCompressor>(0.10, num_clients);
  if (name == "topk1")
    return std::make_unique<TopKCompressor>(0.01, num_clients);
  throw ConfigError("unknown compressor: " + name);
}

}  // namespace fedl::compress
